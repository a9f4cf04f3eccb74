"""Closed-form time coefficients and memory kernels.

Everything the evolution factor integrates exactly lives here: each time
function carries its own antiderivative so propagator exponents never pick
up quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

_TIME_KINDS = ("const", "affine", "sine", "cosine")
_KERNEL_KINDS = ("zero", "const", "exp_diff")


@dataclass(frozen=True)
class TimeFunction:
    """f(t) from a small catalog with an exact antiderivative.

    const:  f = c0
    affine: f = c0 + c1*t
    sine:   f = c0 + c1*sin(freq*t)
    cosine: f = c0 + c1*cos(freq*t)
    """

    kind: str
    c0: float = 0.0
    c1: float = 0.0
    freq: float = 1.0

    def __post_init__(self):
        if self.kind not in _TIME_KINDS:
            raise UsageError(f"unknown time function kind {self.kind!r}")
        if self.kind in ("sine", "cosine") and self.freq == 0.0:
            raise UsageError("oscillatory time function needs freq != 0")

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


@dataclass(frozen=True)
class MemoryKernel:
    """Convolution-type kernel G(t, s) = c0 * exp(-rate*(t-s)), on t >= s.

    zero:     G = 0        (c0 and rate normalized to 0)
    const:    G = c0       (rate normalized to 0)
    exp_diff: G = c0 * exp(-rate*(t-s))

    Every kind is this one exponential, which is what lets the resolvent
    build carry its memory integral as a one-term recurrence.
    """

    kind: str
    c0: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
            raise UsageError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "zero":
            object.__setattr__(self, "c0", 0.0)
        if self.kind != "exp_diff":
            object.__setattr__(self, "rate", 0.0)

    def sup_abs(self, a: float) -> float:
        return abs(self.c0) * max(1.0, float(np.exp(-self.rate * a)))
