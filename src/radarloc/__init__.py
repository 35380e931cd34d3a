"""Radar-inertial localization toolkit.

Subpackages:

* :mod:`radarloc.geometry` - rotation algebra and rigid transforms
* :mod:`radarloc.sim` - deterministic synthetic trajectory/IMU/radar generator
* :mod:`radarloc.rio` - sliding-window radar-inertial odometry
"""

__version__ = "0.1.0"
