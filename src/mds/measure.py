"""Left-continuous nondecreasing drivers, time grids, and regulated paths.

A driver h is an absolutely continuous density plus a finite ordered jump
list.  Evaluation is left-continuous (the jump at t is not yet counted at t),
and Stieltjes integration follows the half-open convention over [t0, t1):
the jump at the lower limit is included, the one at the upper limit is not.
This is exactly the convention under which the cumulative integral satisfies
p(t+) = p(t) + f(t) * jump(t) at every jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, UsageError

_UNIFORM_REL_TOL = 1e-9    # spread of the step lengths that still counts as uniform


def _location_tol(a: float) -> float:
    # absolute tolerance for matching times against stored jump locations;
    # distinct grid quantities are separated by far more than this
    return 1e-12 * max(1.0, a)


@dataclass(frozen=True)
class JumpMeasure:
    """Driver h: absolutely continuous density + jumps.

    Parameters
    ----------
    domain_end : float
        Horizon a > 0; h lives on [0, a].
    density_nodes, density_values : ndarray
        The density h'_ac sampled on a uniform grid covering [0, a];
        values must be nonnegative (h nondecreasing).
    jump_locs, jump_sizes : ndarray
        Jump locations strictly increasing in (0, a), sizes strictly
        positive.  Jumps at 0 or a are not representable, and locations
        closer than 1e-12 max(1, a) to each other or to 0 or a are refused.
    """

    domain_end: float
    density_nodes: np.ndarray
    density_values: np.ndarray
    jump_locs: np.ndarray
    jump_sizes: np.ndarray

    def __post_init__(self):
        a = float(self.domain_end)
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError(f"domain_end must be positive and finite, got {a}")
        dn = np.asarray(self.density_nodes, dtype=float)
        dv = np.asarray(self.density_values, dtype=float)
        if dn.ndim != 1 or dn.shape != dv.shape or len(dn) < 2:
            raise UsageError("density must be sampled on >= 2 nodes")
        if not (dn[0] == 0.0 and abs(dn[-1] - a) <= _location_tol(a)):
            raise UsageError("density grid must cover [0, a]")
        if np.any(np.diff(dn) <= 0.0):
            raise UsageError("density grid must be strictly increasing")
        if np.any(dv < 0.0) or not np.all(np.isfinite(dv)):
            raise UsageError("density samples must be finite and nonnegative")
        locs = np.asarray(self.jump_locs, dtype=float)
        sizes = np.asarray(self.jump_sizes, dtype=float)
        if locs.shape != sizes.shape or locs.ndim != 1:
            raise UsageError("jump locations and sizes must align")
        if locs.size:
            # closer than the matching tolerance, two nodes resolve to one
            tol = _location_tol(a)
            if np.any(np.diff(locs) <= tol):
                raise UsageError(f"jump locations must be increasing by more than {tol:g}")
            if locs[0] <= tol or locs[-1] >= a - tol:
                raise DomainError(f"jump locations must lie inside (0, a), "
                                  f"more than {tol:g} from either end")
            if np.any(sizes <= 0.0) or not np.all(np.isfinite(sizes)):
                raise UsageError("jump sizes must be finite and positive")
        for name, arr in (("density_nodes", dn), ("density_values", dv),
                          ("jump_locs", locs), ("jump_sizes", sizes)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def density_mass(self) -> float:
        """Trapezoid of the density over [0, a], summed in order as a running sum."""
        dn, dv = self.density_nodes, self.density_values
        return float(np.cumsum(np.diff(dn) * (dv[:-1] + dv[1:]) / 2.0)[-1])

    def total_jump_mass(self) -> float:
        return math.fsum(self.jump_sizes)


def constant_measure(domain_end: float = 1.0) -> JumpMeasure:
    """Degenerate driver h == const: zero density, no jumps."""
    return JumpMeasure(domain_end, np.array([0.0, domain_end]),
                       np.zeros(2), np.zeros(0), np.zeros(0))


def lebesgue_measure(domain_end: float = 1.0, samples: int = 2) -> JumpMeasure:
    """Driver h(t) = t: unit density, no jumps."""
    return JumpMeasure(domain_end, np.linspace(0.0, domain_end, max(2, samples)),
                       np.ones(max(2, samples)), np.zeros(0), np.zeros(0))


def zeno_measure(k_max: int = 20) -> JumpMeasure:
    """Staircase driver with jumps accumulating toward t = 1, truncated.

    Jumps sit at 1 - 1/k with size 1/k - 1/(k+1) for k = 2..k_max, plus a
    closing jump of size 1/(k_max+1) at 1 - 1/(k_max+1), so the truncation
    carries exactly k_max jumps and total jump mass exactly 1/2.
    """
    if k_max < 2:
        raise UsageError("zeno truncation needs k_max >= 2")
    locs = [1.0 - 1.0 / k for k in range(2, k_max + 1)]
    sizes = [1.0 / k - 1.0 / (k + 1) for k in range(2, k_max + 1)]
    locs.append(1.0 - 1.0 / (k_max + 1))
    sizes.append(1.0 / (k_max + 1))
    return JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                       np.array(locs), np.array(sizes))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes covering [0, a]."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise GridError("grid needs >= 2 nodes")
        if np.any(np.diff(nodes) <= 0.0):
            raise GridError("grid nodes must be strictly increasing")
        if nodes[0] != 0.0:
            raise GridError("grid must start at 0")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def end(self) -> float:
        return float(self.nodes[-1])

    def is_uniform(self) -> bool:
        d = np.diff(self.nodes)
        return bool(np.max(d) - np.min(d) <= _UNIFORM_REL_TOL * np.max(d))


def build_time_grid(h: JumpMeasure, base_nodes: int) -> TimeGrid:
    """Uniform base grid on [0, a] with every jump location inserted exactly.

    A base node closer than 0.45 of the base spacing to a jump is dropped
    (endpoints never are) so the merged grid has no degenerate cells beyond
    those dictated by the jump geometry itself.
    """
    if base_nodes < 2:
        raise GridError("need at least 2 base nodes")
    a = h.domain_end
    base = np.linspace(0.0, a, base_nodes)
    step = a / (base_nodes - 1)
    # the base node nearest each jump, rounding half to even as round() does
    idx = np.rint(h.jump_locs / step).astype(np.intp)
    inner = (idx > 0) & (idx < base_nodes - 1)
    idx, locs = idx[inner], h.jump_locs[inner]
    keep = np.ones(base_nodes, dtype=bool)
    keep[idx[np.abs(base[idx] - locs) < 0.45 * step]] = False
    return TimeGrid(np.sort(np.concatenate([base[keep], h.jump_locs])))


def density_on_grid(h: JumpMeasure, grid: TimeGrid) -> np.ndarray:
    """Density samples h'_ac at the grid nodes (linear interpolation)."""
    return np.interp(grid.nodes, h.density_nodes, h.density_values)


def jump_sizes_on_grid(h: JumpMeasure, grid: TimeGrid) -> np.ndarray:
    """Per-node jump sizes (zero off jump nodes); grid must contain all jumps.

    Each jump goes to the node within the matching tolerance of it: the node
    just below its ``searchsorted`` position if that one matches, else the
    node at that position; a jump neither matches raises GridError.  The
    node after the position is farther from the jump than the node at it,
    so it is never the only match.
    """
    out = np.zeros(len(grid))
    nodes, locs = grid.nodes, h.jump_locs
    if not locs.size:           # the matching below costs ~15 numpy calls even when empty
        return out
    tol = _location_tol(grid.end)
    below = np.searchsorted(nodes, locs) - 1      # >= 0: nodes[0] = 0 < every jump
    at = np.minimum(below + 1, len(nodes) - 1)
    index = np.where(np.abs(nodes[below] - locs) <= tol, below,
                     np.where(np.abs(nodes[at] - locs) <= tol, at, -1))
    if np.any(index < 0):
        raise GridError(f"t={float(locs[np.argmax(index < 0)])!r} is not a grid node")
    out[index] = h.jump_sizes
    return out


@dataclass(frozen=True)
class RegulatedTrajectory:
    """A path on the grid with explicit left and right values per node.

    ``values`` are the left values (the path is left-continuous);
    ``right_values`` differ only at jump nodes.
    """

    grid: TimeGrid
    values: np.ndarray
    right_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        r = np.asarray(self.right_values, dtype=float)
        if v.shape != r.shape or v.shape[0] != len(self.grid):
            raise GridError("trajectory arrays must align with the grid")
        v.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "right_values", r)
