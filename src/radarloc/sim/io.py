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

from .imu import ImuData
from .radar import RadarScan


class LogFormatError(ValueError):
    """Malformed sensor log; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass
class SensorLog:
    imu: ImuData | None = None
    scans: list[RadarScan] = field(default_factory=list)

    def scans_by_time(self) -> list[tuple[float, list[RadarScan]]]:
        """Group scans sharing a timestamp (multi-sensor timesteps)."""
        groups: dict[float, list[RadarScan]] = {}
        for scan in self.scans:
            groups.setdefault(round(scan.t, 9), []).append(scan)
        return [(t, sorted(group, key=lambda s: s.sensor_id)) for t, group in sorted(groups.items())]


def _vectors(rows: list) -> np.ndarray:
    """``rows`` as an (n, 3) float array; a ValueError unless each row is 3 numbers."""
    array = np.array(rows, dtype=float)
    if rows and array.shape != (len(rows), 3):
        raise ValueError(f"expected vectors of 3 numbers, got an array of shape {array.shape}")
    return array.reshape(len(rows), 3)


def _rows(x) -> list:
    """``x`` as nested lists of Python floats, one entry per row."""
    return np.asarray(x, dtype=float).tolist()


def write_log(path, imu: ImuData | None = None, scans: list[RadarScan] | None = None) -> None:
    """Write a merged, time-sorted sensor log.

    At equal timestamps IMU records precede radar, so a streaming consumer
    always has IMU coverage for a scan.
    """
    records: list[tuple[float, int, str]] = []
    if imu is not None:
        for t, a, w in zip(_rows(imu.t), _rows(imu.accel), _rows(imu.gyro)):
            records.append((t, 0, json.dumps({"type": "imu", "t": t, "a": a, "w": w})))
    for scan in scans or []:
        rec = {
            "type": "radar",
            "t": float(scan.t),
            "sensor": int(scan.sensor_id),
            "detections": [
                {"p": p, "rr": rr} for p, rr in zip(_rows(scan.points), _rows(scan.doppler))
            ],
        }
        records.append((rec["t"], 1, json.dumps(rec)))
    records.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w") as f:
        for _, _, line in records:
            f.write(line)
            f.write("\n")


def read_log(path) -> SensorLog:
    """Parse a sensor log, validating structure with line-numbered errors.

    IMU records may come in any order; a time that repeats an earlier
    record's is an error on the later record.
    """
    imu_rows: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    scans: list[RadarScan] = []
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
            try:
                if kind == "imu":
                    imu_rows.append((float(rec["t"]), line_no, *_vectors([rec["a"], rec["w"]])))
                elif kind == "radar":
                    dets = rec.get("detections", [])
                    points = _vectors([d["p"] for d in dets])
                    doppler = np.array([d["rr"] for d in dets], dtype=float)
                    if doppler.shape != (len(dets),):
                        raise ValueError("each range rate must be one number")
                    sensor = rec["sensor"]
                    if isinstance(sensor, bool) or not isinstance(sensor, int):
                        raise ValueError(f"sensor must be an integer, got {sensor!r}")
                    scans.append(RadarScan(float(rec["t"]), sensor, points, doppler))
                else:
                    raise LogFormatError(path, line_no, f"unknown record type {kind!r}")
            except LogFormatError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise LogFormatError(path, line_no, f"bad {kind} record: {exc}") from exc
    log = SensorLog(scans=scans)
    if imu_rows:
        t, line_nos, accel, gyro = (np.array(column) for column in zip(*imu_rows))
        order = np.argsort(t, kind="stable")  # equal times keep their order in the file
        repeats = np.flatnonzero(np.diff(t[order]) == 0.0)
        if len(repeats):
            later = order[repeats[0] + 1]
            raise LogFormatError(path, int(line_nos[later]), f"repeated IMU time {t[later]}")
        log.imu = ImuData(t[order], accel[order], gyro[order])
    return log
