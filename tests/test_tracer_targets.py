"""The benchmark's tracer still fits ``radarloc``.

Every name it wraps must exist: a renamed or deleted target stops only
traced benchmark runs (``riobench/run.py --trace 1``), and this test makes it
fail here too. The counts it reads off the wrapped calls' arguments and
return values must agree with the estimator's own step records, so that a
changed return type cannot skew the traced metrics unnoticed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "riobench"))

from radarloc.config import RunConfig  # noqa: E402
from radarloc.rio import RioEstimator, run_odometry  # noqa: E402
from radarloc.sim import Scenario, SensorLog, simulate_mission  # noqa: E402
from tracing import TARGETS, LayerStats, Tracer, patched  # noqa: E402
from workloads import YARD_SIM_SEED, yard_circle_scenario  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.qualname)
def test_target_resolves(target):
    owner, name = target.resolve()
    assert callable(getattr(owner, name))


def test_traced_counts_match_step_records(monkeypatch):
    spec = yard_circle_scenario()
    spec["duration"] = 1.5
    scenario = Scenario.from_dict(spec)
    data = simulate_mission(scenario, seed=YARD_SIM_SEED)
    cfg = RunConfig()

    records = []
    process_scans = RioEstimator.process_scans

    def recording(est, t, scans):
        out = process_scans(est, t, scans)
        records.append(est.last_diagnostics)
        return out

    monkeypatch.setattr(RioEstimator, "process_scans", recording)
    stats = LayerStats(data.gt, cfg.window.max_iterations)
    tracer = Tracer(stats.observers())
    with patched(tracer.wrappers()):
        outputs = run_odometry(
            SensorLog(imu=data.imu, scans=data.scans), cfg, extrinsics=scenario.rig.extrinsics
        )

    assert len(outputs) == len(records) > 1
    assert stats.tracked == [d.tracked_landmarks for d in records]
    assert stats.count["matches"] == sum(d.matched_landmarks for d in records) > 0
    assert stats.count["created"] == sum(d.created_landmarks for d in records) > 0
    assert stats.count["active"] == sum(d.heading_matches for d in records) > 0
    assert stats.count["optimize_iterations"] == sum(d.optimize_iterations for d in records)
    doppler_passes = sum(name == "factors.doppler" for name, *_ in tracer.spans)
    assert doppler_passes == sum(d.linearizations for d in records)
    # one range-rate block per step with a RANSAC consensus, compressed once
    compressions = sum(name == "factors.compress_doppler" for name, *_ in tracer.spans)
    assert compressions == sum(d.inliers > 0 for d in records) > 0
