"""Sample statistics, the box-speed calibration and the operation tally of a run."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

#: Percentiles tried for the reported tail, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


#: Calibration-loop wall time that defines one reference second.  It is the
#: loop's time on the 2-vCPU box the benchmark was written on, at a quiet
#: moment, so there a reference second is close to a wall second.
CALIBRATION_REF_S = 0.2


def calibration_loop() -> float:
    """Fixed work that uses nothing from the package under test.

    Small dense numpy calls and closure churn, like a tape step.  Its
    arrays are tiny, so it leaves the process's peak RSS alone.
    """
    rng = np.random.default_rng(0)
    m = rng.standard_normal((32, 32))
    v = rng.standard_normal(32)
    acc = 0.0
    nodes = []
    for _ in range(48000):
        w = np.tanh(m @ v) + v
        nodes.append((w, lambda g, w=w: g * w))
        acc += float(w @ w)
        if len(nodes) > 192:
            for x, vjp in reversed(nodes):
                acc += float(vjp(x)[0])
            nodes = []
    return acc


def timed_calibration() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def reference_seconds(wall_s: float, calibration_s: float) -> float:
    """``wall_s`` scaled to a box on which the calibration loop takes CALIBRATION_REF_S."""
    return wall_s * CALIBRATION_REF_S / calibration_s


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(p: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(ordered, p: float) -> float:
    """Nearest-rank percentile ``p`` of an ascending sequence."""
    return float(ordered[_rank(p, len(ordered)) - 1])


def tail_percentile(samples) -> tuple[float, float] | None:
    """``(p, value)`` for the highest ladder percentile with >= MIN_BEYOND samples beyond.

    A sample lies beyond percentile ``p`` when its nearest rank exceeds
    ``ceil(p / 100 * n)``.  Returns ``None`` when even the median has
    fewer than ``MIN_BEYOND`` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, nearest_rank(ordered, p)
    return None


@dataclass
class Tally:
    """Attempted and failed operations, and the correctness checks made.

    An operation is one unit of workload output (an adaptation run, an
    evaluation, a world) or one correctness check.  Outcomes the workload
    expects, such as a world that fails the separability precheck, are
    attempted but not failed.
    """

    attempted: int = 0
    failed: int = 0
    expected: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def operations(self, count: int, expected: int = 0, ok: bool = True) -> None:
        self.attempted += count
        self.expected += expected
        if not ok:
            self.failed += count

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append((name, ok, detail))
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
