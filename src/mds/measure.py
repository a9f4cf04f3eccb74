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

import numpy as np

from .errors import DomainError, GridError, UsageError
from .record import Record, read_only

_UNIFORM_REL_TOL = 1e-9    # spread of the step lengths that still counts as uniform


def _location_tol(a: float) -> float:
    # the least gap a driver keeps between two jumps and from a jump to either
    # end, so no cell a jump makes in a merged grid is of roundoff width; also
    # how far the density grid's last node may sit from a
    return 1e-12 * max(1.0, a)


class JumpMeasure(Record):
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

    NaN and inf are refused in every array: each check is a comparison that
    NaN fails.  Each array is held as a read-only copy, so the caller's stay
    writable.
    """

    def __init__(self, domain_end: float, density_nodes: np.ndarray,
                 density_values: np.ndarray, jump_locs: np.ndarray, jump_sizes: np.ndarray):
        a = float(domain_end)
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError(f"domain_end must be positive and finite, got {a}")
        dn = np.array(density_nodes, dtype=float)
        dv = np.array(density_values, dtype=float)
        if dn.ndim != 1 or dn.shape != dv.shape or len(dn) < 2:
            raise UsageError("density must be sampled on >= 2 nodes")
        if not (dn[0] == 0.0 and abs(dn[-1] - a) <= _location_tol(a)):
            raise UsageError("density grid must cover [0, a]")
        if not (dn[1:] > dn[:-1]).all():
            raise UsageError("density grid must be strictly increasing")
        if not ((dv >= 0.0).all() and np.isfinite(dv).all()):
            raise UsageError("density samples must be finite and nonnegative")
        locs = np.array(jump_locs, dtype=float)
        sizes = np.array(jump_sizes, dtype=float)
        if locs.shape != sizes.shape or locs.ndim != 1:
            raise UsageError("jump locations and sizes must align")
        if locs.size:
            # the least gap between two jumps and from either end
            tol = _location_tol(a)
            if not (locs[1:] - locs[:-1] > tol).all():
                raise UsageError(f"jump locations must be increasing by more than {tol:g}")
            if not (tol < locs[0] and locs[-1] < a - tol):
                raise DomainError(f"jump locations must lie inside (0, a), "
                                  f"more than {tol:g} from either end")
            if not ((sizes > 0.0).all() and np.isfinite(sizes).all()):
                raise UsageError("jump sizes must be finite and positive")
        self.domain_end, self.density_nodes, self.density_values = a, read_only(dn), read_only(dv)
        self.jump_locs, self.jump_sizes = read_only(locs), read_only(sizes)

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
    inv = 1.0 / np.arange(2.0, k_max + 2.0)        # 1/k for k = 2..k_max+1
    return JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                       1.0 - inv, inv - np.append(inv[1:], 0.0))


class TimeGrid(Record):
    """Strictly increasing nodes covering [0, a], held as a read-only copy.

    NaN and inf are refused: the ordering check is a comparison that NaN
    fails, and the last node must be finite.
    """

    def __init__(self, nodes: np.ndarray):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise GridError("grid needs >= 2 nodes")
        if not (nodes[1:] > nodes[:-1]).all():
            raise GridError("grid nodes must be strictly increasing")
        if nodes[0] != 0.0:
            raise GridError("grid must start at 0")
        if not nodes[-1] < math.inf:
            raise GridError("grid must end at a finite time")
        self.nodes = read_only(nodes)

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
    those dictated by the jump geometry itself.  A driver without jumps gets
    the base grid itself, with no merge.
    """
    if base_nodes < 2:
        raise GridError("need at least 2 base nodes")
    a = h.domain_end
    base = np.linspace(0.0, a, base_nodes)
    if not h.jump_locs.size:
        return TimeGrid(base)
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


def jump_rows_on_grid(h: JumpMeasure, grid: TimeGrid) -> np.ndarray:
    """The grid row of each jump; GridError if a jump is not a grid node.

    A jump's row is its ``searchsorted`` position, and that node must hold
    its location bitwise, as every grid ``build_time_grid`` makes does.
    """
    rows = np.searchsorted(grid.nodes, h.jump_locs)
    off = grid.nodes.take(rows, mode="clip") != h.jump_locs
    if off.any():
        raise GridError(f"t={float(h.jump_locs[off.argmax()])!r} is not a grid node")
    return rows


class RegulatedTrajectory(Record):
    """A path on the grid: its left values, and its right limits where it jumps.

    ``values`` are the (M, N) left values (the path is left-continuous).
    The path can jump only at the atoms of h, so its right limit differs
    from its left value only at ``jump_rows``, the Scenario's read-only array
    of jump nodes; ``right`` is the (K, N) block of right limits at those
    rows, and every other node's right limit is its left value.  The
    trajectory takes ownership of the arrays it is given and makes them
    read-only, without a copy: the solver hands it fresh ones on every sweep.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray, jump_rows: np.ndarray,
                 right: np.ndarray):
        v = np.asarray(values, dtype=float)
        r = np.asarray(right, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(grid) or r.shape != (len(jump_rows), v.shape[1]):
            raise GridError("trajectory arrays must align with the grid and its jump rows")
        self.grid, self.values, self.right = grid, read_only(v), read_only(r)
        self.jump_rows = jump_rows
