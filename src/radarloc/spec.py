"""Key and value checks shared by the run config and the simulator's parsers.

A range is ``(lo, hi, inc_lo, inc_hi)``, closed at each end whose flag is true.
"""

import math
from dataclasses import field, fields, is_dataclass
from numbers import Integral, Real

POSITIVE = (0.0, math.inf, False, False)
NON_NEGATIVE = (0.0, math.inf, True, False)
FINITE = (-math.inf, math.inf, False, False)


def ranged(default, lo, hi, inc_lo: bool = True, inc_hi: bool = True):
    """A dataclass field with ``default`` that declares its range for ``check_fields``."""
    return field(default=default, metadata={"range": (lo, hi, inc_lo, inc_hi)})


def check_spec(spec: dict, known, what: str, error=ValueError, required=()) -> None:
    """Raise ``error`` naming the first key of ``spec`` not in ``known``, the first value
    out of the range that a dict ``known`` maps its key to (None for no range), or the
    first key of ``required`` missing from ``spec``."""
    for key, value in spec.items():
        if key not in known:
            raise error(f"unknown {what} key: {key!r}")
        if isinstance(known, dict) and known[key] is not None:
            check_value(f"{what} {key}", value, known[key], error)
    for key in required:
        if key not in spec:
            raise error(f"missing {what} key: {key!r}")


def check_value(name: str, value, bounds: tuple, error=ValueError, integer: bool = False) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a finite non-bool number in ``bounds``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be numeric, got {value!r}")
    if integer and not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    lo, hi, inc_lo, inc_hi = bounds
    inside = (lo <= value if inc_lo else lo < value) and (value <= hi if inc_hi else value < hi)
    if not (inside and (isinstance(value, Integral) or math.isfinite(value))):
        interval = f"{'[' if inc_lo else '('}{lo}, {hi}{']' if inc_hi else ')'}"
        raise error(f"{name}={value} outside valid range {interval}")


def leaf_fields(obj, prefix: str = ""):
    """``(dotted name, field, value)`` of each leaf field of the nested dataclass ``obj``."""
    for f in fields(obj):
        name, value = prefix + f.name, getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaf_fields(value, f"{name}.")
        else:
            yield name, f, value


def check_fields(obj, error=ValueError) -> None:
    """Check each leaf field of ``obj`` that declares a range or has a bool default.

    A field whose default is an ``int`` or a bool takes only a value of that type.
    """
    for name, f, value in leaf_fields(obj):
        if isinstance(f.default, bool):
            if not isinstance(value, bool):
                raise error(f"{name} must be a bool, got {value!r}")
        elif "range" in f.metadata:
            check_value(name, value, f.metadata["range"], error, isinstance(f.default, int))
