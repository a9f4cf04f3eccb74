"""Closed-form time coefficients and memory kernels.

Everything the evolution factor integrates exactly lives here: each time
function carries its own antiderivative so propagator exponents never pick
up quadrature error.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .record import Record

# each kind and the coefficients it reads, the keys a config's map of that
# kind allows besides its kind
_TIME_KINDS = {"const": ("c0",), "affine": ("c0", "c1"),
              "sine": ("c0", "c1", "freq"), "cosine": ("c0", "c1", "freq")}
_KERNEL_KINDS = {"zero": (), "const": ("c0",), "exp_diff": ("c0", "rate")}


class TimeFunction(Record):
    """f(t) from a small catalog with an exact antiderivative.

    const:  f = c0
    affine: f = c0 + c1*t
    sine:   f = c0 + c1*sin(freq*t)
    cosine: f = c0 + c1*cos(freq*t)
    """

    def __init__(self, kind: str, c0: float = 0.0, c1: float = 0.0, freq: float = 1.0):
        if kind not in _TIME_KINDS:
            raise UsageError(f"unknown time function kind {kind!r}")
        if kind in ("sine", "cosine") and freq == 0.0:
            raise UsageError("oscillatory time function needs freq != 0")
        self.kind, self.c0, self.c1, self.freq = kind, c0, c1, freq

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.full_like(t, self.c0)
        if self.kind == "affine":
            return self.c0 + self.c1 * t
        if self.kind == "sine":
            return self.c0 + self.c1 * np.sin(self.freq * t)
        return self.c0 + self.c1 * np.cos(self.freq * t)

    def antiderivative(self, t):
        """F(t) with F(0) = 0, exact."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return self.c0 * t
        if self.kind == "affine":
            return self.c0 * t + self.c1 * t * t / 2.0
        if self.kind == "sine":
            return self.c0 * t + self.c1 * (1.0 - np.cos(self.freq * t)) / self.freq
        return self.c0 * t + self.c1 * np.sin(self.freq * t) / self.freq

    def sup_abs(self, a: float) -> float:
        if self.kind == "const":
            return abs(self.c0)
        if self.kind == "affine":
            return max(abs(self.c0), abs(self.c0 + self.c1 * a))
        # dense sample; endpoints of the envelope are included when reached
        return float(np.max(np.abs(self.value(np.linspace(0.0, a, 4097)))))


class MemoryKernel(Record):
    """Convolution-type kernel G(t, s) = c0 * exp(-rate*(t-s)), on t >= s.

    zero:     G = 0        (c0 and rate normalized to 0)
    const:    G = c0       (rate normalized to 0)
    exp_diff: G = c0 * exp(-rate*(t-s))

    Every kind is this one exponential, which is what lets the resolvent
    build carry its memory integral as a one-term recurrence.
    """

    def __init__(self, kind: str, c0: float = 0.0, rate: float = 0.0):
        if kind not in _KERNEL_KINDS:
            raise UsageError(f"unknown kernel kind {kind!r}")
        self.kind = kind
        self.c0 = 0.0 if kind == "zero" else c0
        self.rate = rate if kind == "exp_diff" else 0.0

    def sup_abs(self, a: float) -> float:
        return abs(self.c0) * max(1.0, float(np.exp(-self.rate * a)))
