"""Radar-inertial localization toolkit.

Subpackages:

* :mod:`radarloc.geometry` - rotation algebra and rigid transforms
* :mod:`radarloc.sim` - deterministic synthetic trajectory/IMU/radar generator
* :mod:`radarloc.rio` - sliding-window radar-inertial odometry
* :mod:`radarloc.mapping` - log-odds occupancy grids, query and global maps
* :mod:`radarloc.matching` - coarse-to-fine registration of query maps
* :mod:`radarloc.evaluation` - drift and match-error statistics
"""

__version__ = "0.1.0"
