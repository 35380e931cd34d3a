"""JSON Lines sensor log reading and writing.

Record schemas, one JSON object per line, time-sorted:

* ``{"type": "imu", "t": s, "a": [m/s^2 x3], "w": [rad/s x3]}``
* ``{"type": "radar", "t": s, "sensor": integer id,
     "detections": [{"p": [m x3], "rr": m/s}, ...]}``

Any other record type is a ``LogFormatError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .imu import ImuData, stream_key
from .radar import RadarScan


class LogFormatError(ValueError):
    """Malformed sensor log; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _group_time(t: float) -> float:
    return round(t, 9)  # the key of the step a scan at time t belongs to


@dataclass
class SensorLog:
    imu: ImuData | None = None
    scans: list[RadarScan] = field(default_factory=list)

    def scans_by_time(self) -> list[tuple[float, list[RadarScan]]]:
        """Group scans sharing a timestamp (multi-sensor timesteps)."""
        groups: dict[float, list[RadarScan]] = {}
        for scan in self.scans:
            groups.setdefault(_group_time(scan.t), []).append(scan)
        return [(t, sorted(group, key=lambda s: s.sensor_id)) for t, group in sorted(groups.items())]


def _numbers(values: list, *shape: int) -> np.ndarray:
    """JSON numbers ``values`` as floats of shape ``(len(values), *shape)``; else a ValueError."""
    array, expected = np.array(values), (len(values), *shape)
    if array.dtype.kind not in "iuf" or values and array.shape != expected:
        raise ValueError(f"expected numbers of shape {expected}, got {array.dtype} of shape {array.shape}")
    return array.astype(float, copy=False).reshape(expected)


def _rows(x) -> list:
    """``x`` as nested lists of Python floats, one entry per row."""
    return np.asarray(x, dtype=float).tolist()


def write_log(path, imu: ImuData | None = None, scans: list[RadarScan] | None = None) -> None:
    """Write a merged, time-sorted sensor log.

    At equal timestamps IMU records precede radar, so a streaming consumer
    always has IMU coverage for a scan; records of one kind at one time keep
    their input order. An IMU record whose time is not finite keeps its place
    after the IMU record before it (see ``stream_key``). The order is sorted
    first, then each record is serialized and written on its own, so no more
    than one line is held.
    """
    scans = scans or []
    t, accel, gyro = ([], [], []) if imu is None else map(_rows, (imu.t, imu.accel, imu.gyro))
    order = sorted(
        [(key, 0, i) for i, key in enumerate(stream_key(t).tolist())]
        + [(float(scan.t), 1, i) for i, scan in enumerate(scans)]
    )
    with open(path, "w") as f:
        for t_i, kind, i in order:
            if kind == 0:
                rec = {"type": "imu", "t": t[i], "a": accel[i], "w": gyro[i]}
            else:
                scan = scans[i]
                rec = {
                    "type": "radar",
                    "t": t_i,
                    "sensor": int(scan.sensor_id),
                    "detections": [
                        {"p": p, "rr": rr}
                        for p, rr in zip(_rows(scan.points), _rows(scan.doppler))
                    ],
                }
            f.write(json.dumps(rec))
            f.write("\n")


def read_log(path) -> SensorLog:
    """Parse a sensor log, validating structure with line-numbered errors.

    IMU records may come in any order; a time that repeats an earlier
    record's is an error on the later record, and so is a second radar scan
    of one sensor at one time. A radar record's time must be finite; an IMU
    record's need not be, and the estimator skips and counts such a sample.
    Such a record stays right after the IMU record before it in the file.
    """
    imu_rows: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    scans: list[RadarScan] = []
    scan_keys: set[tuple[float, int]] = set()
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogFormatError(path, line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or "type" not in rec:
                raise LogFormatError(path, line_no, "record must be an object with a 'type' field")
            kind = rec["type"]
            if kind not in ("imu", "radar"):
                raise LogFormatError(path, line_no, f"unknown record type {kind!r}")
            try:
                t = rec["t"]
                if type(t) not in (int, float):  # a JSON number; a bool is an int subclass
                    raise ValueError(f"t must be a number, got {t!r}")
                t = float(t)
                if kind == "imu":
                    imu_rows.append((t, line_no, *_numbers([rec["a"], rec["w"]], 3)))
                else:
                    if not np.isfinite(t):
                        raise ValueError(f"t must be finite, got {t}")
                    dets = rec.get("detections", [])
                    points = _numbers([d["p"] for d in dets], 3)
                    doppler = _numbers([d["rr"] for d in dets])
                    sensor = rec["sensor"]
                    if isinstance(sensor, bool) or not isinstance(sensor, int):
                        raise ValueError(f"sensor must be an integer, got {sensor!r}")
                    if (_group_time(t), sensor) in scan_keys:
                        raise ValueError(f"repeated scan of sensor {sensor} at {t}")
                    scan_keys.add((_group_time(t), sensor))
                    scans.append(RadarScan(t, sensor, points, doppler))
            except (KeyError, TypeError, ValueError) as exc:
                raise LogFormatError(path, line_no, f"bad {kind} record: {exc}") from exc
    log = SensorLog(scans=scans)
    if imu_rows:
        t, line_nos, accel, gyro = (np.array(column) for column in zip(*imu_rows))
        order = np.argsort(stream_key(t), kind="stable")  # equal keys keep their file order
        finite = order[np.isfinite(t[order])]
        repeats = np.flatnonzero(np.diff(t[finite]) == 0.0)
        if len(repeats):
            later = finite[repeats[0] + 1]
            raise LogFormatError(path, int(line_nos[later]), f"repeated IMU time {t[later]}")
        log.imu = ImuData(t[order], accel[order], gyro[order])
    return log
