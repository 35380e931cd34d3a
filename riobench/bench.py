"""Replay simulated drives through ``run_odometry``; report speed and accuracy.

Each run simulates its workload's drive, writes it as a JSONL log and reads
it back, and replays that log through ``run_odometry`` in whole rounds, one
round being one replay of the whole log with a fresh estimator, in a closed
loop: each radar step is fed after the previous one returns. Rounds go on
until ``MIN_STEPS`` steps are timed, then while the next round should end
within ``--seconds`` of the start of the run. After each round the set-up is
made twice more, up to ``SETUP_REPEATS`` in all, so that the set-ups sample
the same host conditions as the rounds. Every output is checked against the
simulator's analytic ground truth.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` the rounds come in pairs, one untraced and one traced, and the
result holds the per-layer metrics of the traced rounds and the tracing
overhead; the spans are written to ``.riobench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from radarloc.config import config_from_dict
from radarloc.rio import run_odometry

from tracing import ALWAYS_CALLED, HEADING_SPANS, STEP, TARGETS, LayerStats, Tracer, patched
from truth import TrackErrors, output_errors
from workloads import WORKLOADS, Inputs, prepare

# One set-up varies by about 20% within a run on a shared host; the median
# of several, spread over the run, is steadier.
SETUP_REPEATS = 7
SETUPS_PER_ROUND = 2
MIN_STEPS = 100  # so that ten step times lie beyond the 90th percentile


@dataclass
class Round:
    """One replay of the whole log."""

    outputs: list
    wall_s: float
    cpu_s: float
    step_s: list[float]


@dataclass
class StepLog:
    """What the wrapper around ``RioEstimator.process_scans`` saw."""

    seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0  # raised or came out degraded
    factor_count_max: int = 0

    def wrappers(self):
        clock = time.perf_counter

        def make(original):
            def timed(est, t, scans):
                self.attempted += 1
                start = clock()
                try:
                    out = original(est, t, scans)
                except Exception:
                    self.failed += 1
                    raise
                self.seconds.append(clock() - start)
                self.failed += bool(out.degraded)
                self.factor_count_max = max(self.factor_count_max, est.window.factor_count())
                return out

            return timed

        return {STEP: make}


def replay(inputs: Inputs, step_seconds: list[float]) -> Round:
    first = len(step_seconds)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outputs = run_odometry(inputs.log, inputs.cfg)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    return Round(outputs, wall1 - wall0, cpu1 - cpu0, step_seconds[first:])


def measure(unit, min_steps: int, seconds: float, start: float) -> None:
    """Call ``unit`` until it has timed ``min_steps`` steps, then while the next
    call should end before ``start + seconds``. ``unit`` returns its step count."""
    steps = 0
    while True:
        began = time.perf_counter()
        steps += unit()
        took = time.perf_counter() - began
        if steps >= min_steps and time.perf_counter() - start + took > seconds:
            return


def yaw_limit_rad(inputs: Inputs, duration: float) -> float:
    """Yaw an unaided gyro of this drive accumulates.

    The simulated yaw-gyro bias times the duration, plus three sigma of the
    angle random walk of the gyro white noise.
    """
    noise = inputs.scenario.imu_noise
    if noise is None:
        return 0.0
    bias = abs(float(noise.gyro_bias_init[2])) * duration
    return bias + 3.0 * noise.gyro_noise_density * np.sqrt(duration)


def output_problems(rounds: list[Round], n_groups: int) -> list[str]:
    """Every output finite, one per scan group, increasing, equal across rounds."""
    problems = []
    reference = None
    for k, r in enumerate(rounds):
        rows = np.array([np.concatenate([[o.t], o.q, o.v, o.p]) for o in r.outputs])
        if len(r.outputs) != n_groups:
            problems.append(f"round {k}: {len(r.outputs)} outputs for {n_groups} scan groups")
        elif not np.all(np.isfinite(rows)):
            problems.append(f"round {k}: non-finite output")
        elif np.any(np.diff(rows[:, 0]) <= 0.0):
            problems.append(f"round {k}: timestamps not increasing")
        elif reference is None:
            reference = rows
        elif not np.array_equal(rows, reference):
            problems.append(f"round {k}: outputs differ from round 0 on the same log")
    return problems


def accuracy_problems(inputs: Inputs, errors: TrackErrors, duration: float) -> list[str]:
    """Error limits that follow from the sensor model, not from past outputs.

    * The IMU-frame velocity is a fit of hundreds of range rates, so its
      RMSE may not exceed the noise of a single one.
    * Yaw may not drift more than an unaided gyro would (``yaw_limit_rad``).
    * The final position error may not exceed that velocity error over the
      drive plus the lateral error of a yaw error growing to its limit.
    """
    problems = []
    sigma_rr = inputs.scenario.rig.doppler_sigma
    yaw_limit = yaw_limit_rad(inputs, duration)
    position_limit = sigma_rr * duration + 0.5 * errors.path_length_m * yaw_limit
    if errors.body_velocity_rmse_mps > sigma_rr:
        problems.append(
            f"IMU-frame velocity RMSE {errors.body_velocity_rmse_mps:.4f} m/s above the "
            f"Doppler sigma {sigma_rr} m/s"
        )
    worst_yaw = np.radians(max(errors.final_yaw_deg, errors.yaw_rmse_deg))
    if worst_yaw > yaw_limit:
        problems.append(
            f"yaw error {np.degrees(worst_yaw):.3f} deg above the unaided-gyro limit "
            f"{np.degrees(yaw_limit):.3f} deg"
        )
    if errors.position_m[-1] > position_limit:
        problems.append(
            f"final position error {errors.position_m[-1]:.4f} m above {position_limit:.4f} m"
        )
    return problems


def factor_problems(inputs: Inputs, factor_count_max: int) -> list[str]:
    """A full window holds the prior, a factor per sensor block, heading block and IMU edge."""
    size = inputs.cfg.window.size
    bound = 1 + size * (inputs.scenario.rig.num_sensors + 1) + (size - 1)
    if factor_count_max > bound:
        return [f"window held {factor_count_max} factors, bound {bound}"]
    return []


def replay_without_heading(inputs: Inputs) -> TrackErrors:
    cfg = config_from_dict({"ablation": {"disable_heading_constraint": True}})
    return output_errors(run_odometry(inputs.log, cfg), inputs.gt)


def heading_problems(errors: TrackErrors, without: TrackErrors) -> list[str]:
    """The heading constraint must end with less yaw error than Doppler alone on this log."""
    if errors.final_yaw_deg >= without.final_yaw_deg:
        return [
            f"final yaw error {errors.final_yaw_deg:.4f} deg with the heading constraint, "
            f"{without.final_yaw_deg:.4f} deg without"
        ]
    return []


def end_to_end(rounds: list[Round], log_s: float, errors: TrackErrors, setups) -> dict:
    step_ms = 1e3 * np.concatenate([r.step_s for r in rounds])
    wall = sum(r.wall_s for r in rounds)
    cpu = sum(r.cpu_s for r in rounds)
    replayed = log_s * len(rounds)
    return {
        "rtf": replayed / wall,
        "step_p50_ms": float(np.percentile(step_ms, 50)),
        "step_p90_ms": float(np.percentile(step_ms, 90)),
        "cpu_s_per_log_s": cpu / replayed,
        "drift_pct": errors.drift_pct,
        "yaw_rmse_deg": errors.yaw_rmse_deg,
        "setup_s": statistics.median(s.setup_s for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(stats, tracer, steps: StepLog, traced: list[Round], untraced: list[Round], setups,
              log_bytes: int) -> dict:
    overhead = statistics.median(t.wall_s / u.wall_s - 1.0 for t, u in zip(traced, untraced))
    return {
        "sim.simulate_s": statistics.median(s.simulate_s for s in setups),
        "sim.io.write_log_s": statistics.median(s.write_log_s for s in setups),
        "sim.io.read_log_s": statistics.median(s.read_log_s for s in setups),
        "sim.io.log_mb": log_bytes / 1e6,
        "estimator.steps": steps.attempted,
        "estimator.degraded_steps": steps.failed,
        "window.factor_count_max": steps.factor_count_max,
        **stats.metrics(tracer.spans, len(traced)),
        "trace.overhead_pct": 100.0 * overhead,
    }


def trace_problems(workload, values: dict, spans, sigma_rr: float) -> list[str]:
    calls = Counter(name for name, *_ in spans)
    expected = ALWAYS_CALLED + (HEADING_SPANS if workload.heading_constraint else ())
    problems = [f"traced span {name} never recorded" for name in expected if not calls[name]]
    if not workload.heading_constraint:
        problems += [f"{name} recorded with the heading constraint off" for name in HEADING_SPANS if calls[name]]
    # the consensus fit may not be further off than the 3-sigma inlier gate
    p95 = values["ransac.velocity_err_p95_mps"]
    if p95 > 3.0 * sigma_rr:
        problems.append(f"RANSAC velocity error p95 {p95:.4f} m/s above 3 Doppler sigma ({sigma_rr} m/s)")
    return problems


def spec_units(root: Path, section: str) -> dict[str, str]:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``, in its order."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str], root: Path) -> int:
    start = time.perf_counter()  # --seconds counts from here: set-up and checks are inside it
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    units = spec_units(root, "per_layer" if args.trace else "end_to_end")
    for target in TARGETS if args.trace else (STEP,):
        target.resolve()  # a wrapped name that is gone stops the run here

    out_dir = root / ".riobench_out"
    out_dir.mkdir(exist_ok=True)
    inputs = prepare(workload, args.seed, out_dir)
    setups = [inputs.times]
    groups = inputs.log.scans_by_time()
    log_s = groups[-1][0] - groups[0][0]

    problems = []
    errors_without_heading = None
    if workload.compare_without_heading:
        errors_without_heading = replay_without_heading(inputs)

    steps = StepLog()
    stats = LayerStats(inputs.gt, inputs.cfg.window.max_iterations)
    tracer = Tracer(stats.observers())
    rounds: list[Round] = []
    traced: list[Round] = []

    def set_up_again() -> None:
        for _ in range(min(SETUPS_PER_ROUND, SETUP_REPEATS - len(setups))):
            setups.append(prepare(workload, args.seed, out_dir).times)

    def untraced_round() -> int:
        with patched(steps.wrappers()):
            rounds.append(replay(inputs, steps.seconds))
        set_up_again()
        return len(rounds[-1].outputs)

    def paired_rounds() -> int:
        # an untraced round next to each traced one gives the tracing overhead
        untraced_round()
        with patched(steps.wrappers()), patched(tracer.wrappers()):
            traced.append(replay(inputs, steps.seconds))
        return len(traced[-1].outputs)

    try:
        if args.trace:
            # per-step layer figures need no step-time percentile: one pair is enough
            measure(paired_rounds, 1, args.seconds, start)
        else:
            measure(untraced_round, MIN_STEPS, args.seconds, start)
    except Exception:
        traceback.print_exc()
        problems.append("a step raised; see the traceback above")
    if not rounds or (args.trace and not traced):
        print("riobench: no round completed", file=sys.stderr)
        return 1

    errors = output_errors(rounds[0].outputs, inputs.gt)
    problems += output_problems(rounds + traced, len(groups))
    problems += accuracy_problems(inputs, errors, log_s)
    problems += factor_problems(inputs, steps.factor_count_max)
    if errors_without_heading is not None:
        problems += heading_problems(errors, errors_without_heading)
    if args.trace:
        values = per_layer(stats, tracer, steps, traced, rounds, setups, inputs.log_bytes)
        problems += trace_problems(workload, values, tracer.spans, inputs.scenario.rig.doppler_sigma)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# {len(tracer)} spans written to {trace_path.relative_to(root)}")
    else:
        values = end_to_end(rounds, log_s, errors, setups)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics the benchmark does not make: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for problem in problems:
        print(f"riobench: check failed: {problem}", file=sys.stderr)
    print(
        f"# {workload.name} seed {args.seed}: {len(rounds)} untraced and {len(traced)} traced "
        f"rounds of {len(groups)} steps ({log_s:.2f} s of log), {len(setups)} set-ups, "
        f"{time.perf_counter() - start:.1f} s; python {platform.python_version()}, "
        f"numpy {np.__version__}, BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}, "
        f"cpus {os.cpu_count()}"
    )
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name in sorted(set(values) - set(units)):
        print(f"# {name} {values[name]:.6g} (for reference; not a BENCHMARK.json metric)")
    print(json.dumps({
        "correct": not problems, "attempted": steps.attempted, "failed": steps.failed, "metrics": metrics,
    }))
    return 0
