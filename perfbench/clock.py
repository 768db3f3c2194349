"""Op timing rescaled by the host's measured speed.

Shared two-core hosts change speed by tens of percent over seconds, and a
run can sit in a slow phase for its whole length. Wall time alone then
moves more between runs than the regressions the benchmark must catch.

So the clock runs a short, fixed calibration after every op. The
calibration is a 128-row softmax band in numpy and a burst of Python
object churn, and it never touches the package. An op's time is divided by
the host's slowdown, which is the mean of the calibrations on either side
of the op over their nominal times. Because the calibration is the same on
every commit, the rescaling cannot hide a change in the package. It only
removes the host's drift.
"""

from __future__ import annotations

import gc
import json
import re
import statistics
import time
from dataclasses import dataclass

# Calibration times on a quiet host (2-core Xeon VM, numpy 2.4 with one
# OpenBLAS thread). They only set the scale, so a rescaled rate reads as the
# raw rate would on that host.
NOMINAL_NUMPY_S = 0.0012
NOMINAL_PYTHON_S = 0.0011

_TOKEN = re.compile(r"\w+|[^\w\s]")
_TEXT = " ".join(f"Word{i % 89} and part{i % 7}, then more." for i in range(80))


@dataclass(frozen=True)
class _Slot:
    kind: str
    token: str

    def __post_init__(self):
        if not isinstance(self.token, str):
            raise ValueError("token must be a string")


def python_calibration() -> float:
    """Seconds for a fixed burst of object churn, regex and JSON. The cyclic
    collector is paused meanwhile: a collection of the caller's heap landing
    in this burst would read as a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        slots = [_Slot("text", t) for t in _TOKEN.findall(_TEXT)]
        json.dumps([{"kind": s.kind, "token": s.token} for s in slots], separators=(",", ":"))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def python_slowdown() -> float:
    """The host's current slowdown on Python code, from five calibrations.
    Needs no numpy, so set-up can be timed between two of these."""
    return statistics.median(python_calibration() for _ in range(5)) / NOMINAL_PYTHON_S


class Clock:
    """Sums the time of package calls into chunks, one chunk per op, and
    keeps each chunk with the calibrations taken before and after it.

    `numpy_share` is the part of the workload's time spent in numpy; the
    slowdown blends the two calibrations by it."""

    def __init__(self, numpy_share: float):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._band = [rng.standard_normal(shape) for shape in ((128, 64), (64, 512), (512, 64))]
        self.numpy_share = numpy_share
        self.chunks = []  # (raw seconds, numpy calibration, Python calibration) per closed chunk
        self._raw = 0.0
        self._before = self.calibrate()

    def _numpy(self) -> float:
        np, (q, kt, v) = self._np, self._band
        t0 = time.perf_counter()
        for _ in range(2):
            s = q @ kt
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=1, keepdims=True)
            s @ v
        return time.perf_counter() - t0

    def calibrate(self) -> tuple:
        return self._numpy(), python_calibration()

    def call(self, fn, *args, **kwargs):
        """Run one package call; return (result, raw seconds)."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self._raw += dt
        return out, dt

    def tick(self) -> None:
        """Close the open chunk: calibrate, and keep the chunk with the mean
        of the calibrations on either side of it."""
        after = self.calibrate()
        self.chunks.append((self._raw, (self._before[0] + after[0]) / 2, (self._before[1] + after[1]) / 2))
        self._before = after
        self._raw = 0.0

    def take(self) -> float:
        """Rescaled seconds of the chunks closed since the last take."""
        self.tick()
        w = self.numpy_share
        seconds = sum(raw / (w * n / NOMINAL_NUMPY_S + (1 - w) * p / NOMINAL_PYTHON_S)
                      for raw, n, p in self.chunks)
        self.chunks = []
        return seconds
