"""Every name the benchmark's tracer wraps still exists in ``radarloc``.

A renamed or deleted target stops only traced benchmark runs
(``riobench/run.py --trace 1``); this test makes it fail here too.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "riobench"))

from tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.qualname)
def test_target_resolves(target):
    owner, name = target.resolve()
    assert callable(getattr(owner, name))
