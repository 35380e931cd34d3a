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

from radarloc.config import RunConfig, config_from_dict  # noqa: E402
from radarloc.rio import RioEstimator, run_odometry  # noqa: E402
from radarloc.sim import Scenario, SensorLog, simulate_mission  # noqa: E402
from tracing import TARGETS, LayerStats, Tracer, patched  # noqa: E402
from workloads import YARD_SIM_SEED, yard_circle_scenario  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.qualname)
def test_target_resolves(target):
    owner, name = target.resolve()
    assert callable(getattr(owner, name))


def _traced_yard_drive(monkeypatch, cfg):
    """Trace 1.5 s of the ``yard_circle`` drive; the tracer, its counts and the step records."""
    spec = yard_circle_scenario()
    spec["duration"] = 1.5
    scenario = Scenario.from_dict(spec)
    data = simulate_mission(scenario, seed=YARD_SIM_SEED)

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
    return tracer, stats, records


def test_traced_counts_match_step_records(monkeypatch):
    tracer, stats, records = _traced_yard_drive(monkeypatch, RunConfig())
    assert stats.tracked == [d.tracked_landmarks for d in records]
    assert stats.count["matches"] == sum(d.matched_landmarks for d in records) > 0
    assert stats.count["created"] == sum(d.created_landmarks for d in records) > 0
    assert stats.count["active"] == sum(d.heading_matches for d in records) > 0
    assert stats.count["optimize_iterations"] == sum(d.optimize_iterations for d in records)
    with_pairs = [d.association_solves for d in records if d.association_pairs > 0]
    assert with_pairs and min(with_pairs) >= 1
    doppler_passes = sum(name == "factors.doppler" for name, *_ in tracer.spans)
    assert doppler_passes == sum(d.linearizations for d in records)
    # one range-rate block per step with a RANSAC consensus, compressed once
    compressions = sum(name == "factors.compress_doppler" for name, *_ in tracer.spans)
    assert compressions == sum(d.inliers > 0 for d in records) > 0


def test_heading_off_records_no_heading_span(monkeypatch):
    # the benchmark's suburban_doppler_only run fails on any of these spans
    cfg = config_from_dict({"ablation": {"disable_heading_constraint": True}})
    tracer, _, records = _traced_yard_drive(monkeypatch, cfg)
    names = [name for name, *_ in tracer.spans]
    heading = {"factors.heading", "factors.compress_landmarks"}
    assert [n for n in names if n in heading or n.startswith("landmarks.")] == []
    assert names.count("factors.doppler") == sum(d.linearizations for d in records) > 0
    assert all(d.association_solves == 0 for d in records)
