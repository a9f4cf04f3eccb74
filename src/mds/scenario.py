"""Scenario assembly: system data plus the shared quadrature rules.

A Scenario freezes everything a run needs: basis, linear part, driver,
grid, states, nonlinearity, nonlocal term, control gains, tolerances.
Building one validates them and places the jumps on the grid; every array
that only a later stage reads is formed the first time it is read and held
for the run, read-only.  It owns the two shared integration rules: the
Lebesgue-in-t rule (composite Simpson prefix rows) and the Stieltjes rule
(row j holds the weights of int_[0,t_j) . dh, density times trapezoid plus
the jumps strictly before t_j at left values).  The solver, the control
synthesis and the Gramians draw on these and nothing else; using a single
rule per integral is what makes the steering residual cancel exactly
instead of to quadrature order.

Both rules are held in O(M): a prefix row j equals the full-span weights
(``wq_full``, ``dh_full``) except in its last two entries, W[j, j]
(``wq_diag``, ``dh_diag``) and W[j, j-1] (``wq_sub``; the dh rule has no
such exception).  Each of the five is formed on first use: verify-resolvent
reads none of them, and ``wq_diag`` and ``wq_sub`` come from one
``simpson_prefix_edges`` call, ``dh_full`` and ``dh_diag`` from one density
sample.  The resolvent enters through O(N M) arrays, also built on first
use: ``steps``, the recurrence's 2x2 step maps that every march reads
(their a11 is the subdiagonal r_n(t_{j+1}, t_j)), ``picard_seed``,
R(t, 0) zeta0, and ``final_row``, r_n(a, t_k).  No M x M array is formed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# the prefix matrices and the table are no longer called here; bench/tracer.py
# wraps them by these names
from ._quad import simpson_prefix_matrix, trapezoid_prefix_matrix  # noqa: F401
from ._quad import simpson_prefix_edges, simpson_weights, trapezoid_weights
from .errors import UsageError
from .funcs import TimeFunction
from .measure import (JumpMeasure, RegulatedTrajectory, TimeGrid, density_on_grid,
                      jump_rows_on_grid)
from .record import Record, read_only
from .spectral import build_resolvent_table  # noqa: F401 -- wrapped by bench/tracer.py
from .spectral import (LinearPart, SpectralBasis, StepMaps, resolvent_final_row,
                       resolvent_sums, step_maps)

# each kind and the keys a config's map of that kind allows besides its kind
_NL_KINDS = {"zero": (), "cosine": ("M0",), "table": ("values",)}
_NONLOCAL_KINDS = {"zero": (), "log_kernel": ("f", "f_space", "d")}


class NonlinearityEval(Record):
    """State nonlinearity delta(t, zeta), in mode coefficients, which
    ``Scenario.delta_values`` evaluates.

    cosine: amplitude * cos applied pointwise at the collocation nodes,
    projected back to modes.  table: fixed state-independent samples,
    one coefficient row per grid node (or a single broadcast row), held
    as a read-only copy.
    """

    def __init__(self, kind: str, amplitude: float = 0.0, table: np.ndarray | None = None):
        if kind not in _NL_KINDS:
            raise UsageError(f"unknown nonlinearity kind {kind!r}")
        if kind == "table":
            if table is None:
                raise UsageError("table nonlinearity needs sample values")
            table = np.array(table, dtype=float)
            table.setflags(write=False)
        self.kind, self.amplitude, self.table = kind, amplitude, table

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "cosine" and self.amplitude == 0.0)

    def bound_const(self) -> float:
        """n(s): uniform bound used by the smallness conditions."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "cosine":
            return abs(self.amplitude)
        rows = np.atleast_2d(self.table)
        return float(np.max(np.sqrt(np.sum(rows * rows, axis=-1))))

    def lipschitz_const(self) -> float:
        """U(s): Lipschitz constant in the state (0 for state-independent kinds)."""
        return abs(self.amplitude) if self.kind == "cosine" else 0.0


class NonlocalEval(Record):
    """Nonlocal term g(zeta), a state-space vector built from the whole path,
    which ``Scenario.g_of`` evaluates.

    log_kernel: g(zeta)(x) = int_0^a f(t,x) [ int log(1+|zeta(t)(p)|^(1/2)) dp ] dt
    with f(t,x) = f_time(t) * f_space(x), the p-integral over the collocation
    nodes and the t-integral by trapezoid on the grid.  ``offset`` is the
    additive growth constant d in ||g|| <= c||zeta|| + d (0 for the zero kind).
    """

    def __init__(self, kind: str, f_time: TimeFunction | None = None,
                 f_space: TimeFunction | None = None, offset: float = 1.0):
        if kind not in _NONLOCAL_KINDS:
            raise UsageError(f"unknown nonlocal kind {kind!r}")
        if kind == "log_kernel" and f_time is None:
            raise UsageError("log_kernel nonlocal term needs an f spec")
        self.kind, self.f_time, self.f_space = kind, f_time, f_space
        self.offset = 0.0 if kind == "zero" else offset

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


class Tolerances(Record):
    def __init__(self, tol_picard: float = 1e-10, tol_target: float = 1e-4,
                 tol_pde: float = 1e-3, max_picard: int = 64, max_outer: int = 20):
        self.tol_picard, self.tol_target, self.tol_pde = tol_picard, tol_target, tol_pde
        self.max_picard, self.max_outer = max_picard, max_outer
        for name in ("tol_picard", "tol_target", "tol_pde"):
            if not getattr(self, name) > 0.0:
                raise UsageError(f"{name} must be positive")
        for name in ("max_picard", "max_outer"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be nonnegative")


class Scenario(Record):
    """The system data of one run and its O(M) quadrature data, read-only.

    The grid must end at the driver's horizon a, as ``build_time_grid``'s
    does.  The ``jump_rows`` (the node equal to each jump, bitwise) and the
    per-node ``jump_sizes`` are found here; a jump no node equals is refused
    however near one it sits (the driver keeps its jumps 1e-12 max(1, a)
    apart and from either end).  The rules ``wq_full``,
    ``wq_diag``, ``wq_sub``, ``dh_full`` and ``dh_diag`` are cached
    properties, formed on first read.  ``config`` is the canonical document
    a parse keeps.
    """

    def __init__(self, basis: SpectralBasis, linear: LinearPart, h: JumpMeasure,
                 grid: TimeGrid, zeta0: np.ndarray, zeta1: np.ndarray,
                 nonlinearity: NonlinearityEval, nonlocal_term: NonlocalEval, theta,
                 tol: Tolerances, config: dict | None = None):
        n = basis.n_modes
        self.basis, self.linear, self.h, self.grid = basis, linear, h, grid
        for name, vec in (("zeta0", zeta0), ("zeta1", zeta1)):
            vec = np.array(vec, dtype=float)
            if vec.shape != (n,):
                raise UsageError(f"{name} must have one coefficient per mode")
            vec.setflags(write=False)
            setattr(self, name, vec)
        theta = np.array(theta, dtype=float)
        if theta.ndim == 0:
            theta = np.full(n, float(theta))
        if theta.shape != (n,):
            raise UsageError("theta must be scalar or one gain per mode")
        theta.setflags(write=False)
        self.theta, self.nonlinearity, self.nonlocal_term = theta, nonlinearity, nonlocal_term
        self.tol, self.config = tol, config
        if nonlinearity.kind == "table":
            rows = np.atleast_2d(nonlinearity.table)
            if rows.shape[-1] != n or rows.shape[0] not in (1, len(grid)):
                raise UsageError("nonlinearity table must broadcast to (grid, modes)")
        self.jump_rows = read_only(jump_rows_on_grid(h, grid))   # raises if a jump is off-grid
        sizes = np.zeros(len(grid))
        sizes[self.jump_rows] = h.jump_sizes
        self.jump_sizes = read_only(sizes)

    @cached_property
    def wq_full(self) -> np.ndarray:
        """The full-span Simpson weights, the last row of the Lebesgue rule."""
        return read_only(simpson_weights(self.grid.nodes))

    @cached_property
    def _simpson_edges(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(read_only, simpson_prefix_edges(self.grid.nodes)))

    @cached_property
    def wq_diag(self) -> np.ndarray:
        """W[j, j] of the Lebesgue rule's prefix rows."""
        return self._simpson_edges[0]

    @cached_property
    def wq_sub(self) -> np.ndarray:
        """W[j, j-1] of the Lebesgue rule's prefix rows (0 at j = 0)."""
        return self._simpson_edges[1]

    # the trapezoid weights on the grid, which dh_full and g read
    @cached_property
    def _trapezoid(self) -> np.ndarray:
        return read_only(trapezoid_weights(self.grid.nodes))

    # dh_full and dh_diag together, from one density sample that is not kept
    @cached_property
    def _dh_rule(self) -> tuple[np.ndarray, np.ndarray]:
        density = density_on_grid(self.h, self.grid)
        # a jump at t_i acts only for t > t_i: in the full span, not on row i itself
        full = density * self._trapezoid + self.jump_sizes
        diag = density * np.append(0.0, np.diff(self.grid.nodes) / 2.0)
        return read_only(full), read_only(diag)

    @cached_property
    def dh_full(self) -> np.ndarray:
        """The full-span dh weights: density times trapezoid, plus the jumps."""
        return self._dh_rule[0]

    @cached_property
    def dh_diag(self) -> np.ndarray:
        """W[j, j] of the dh rule's prefix rows, which hold no jump."""
        return self._dh_rule[1]

    @cached_property
    def steps(self) -> StepMaps:
        """The resolvent recurrence's step maps, stacked in one (M-1, 2, 2, N) array."""
        return step_maps(self.basis.mode_numbers, self.linear, self.grid)

    @cached_property
    def picard_seed(self) -> RegulatedTrajectory:
        """The Picard seed zeta^0(t) = R(t, 0) zeta0, marched once and read-only."""
        seeds = np.zeros((len(self.grid), self.n_modes))
        seeds[0] = self.zeta0
        path = resolvent_sums(self.steps, seeds)
        return RegulatedTrajectory(self.grid, path, self.jump_rows, path[self.jump_rows])

    @cached_property
    def final_row(self) -> np.ndarray:
        """r_n(a, t_k) for every mode and node, shape (N, M)."""
        return resolvent_final_row(self.steps)

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    @property
    def horizon(self) -> float:
        return self.grid.end

    def delta_values(self, states: np.ndarray) -> np.ndarray:
        """delta at each row of states ((..., N) coefficients in, same shape out).

        A table's is a read-only view of the table, broadcast to the states.
        """
        nl = self.nonlinearity
        states = np.asarray(states, dtype=float)
        if nl.is_zero:
            return np.zeros_like(states)
        if nl.kind == "cosine":
            phys = self.basis.to_physical(states)   # a fresh (..., J) array, used in place
            np.cos(phys, out=phys)
            phys *= nl.amplitude
            return self.basis.to_modes(phys)
        return np.broadcast_to(nl.table, states.shape)

    # f_time at the grid nodes and f_space at the collocation nodes, sampled once a run
    @cached_property
    def _nonlocal_samples(self) -> tuple[np.ndarray, np.ndarray]:
        term, x = self.nonlocal_term, self.basis.x
        fx = term.f_space.value(x) if term.f_space is not None else np.ones_like(x)
        return read_only(term.f_time.value(self.grid.nodes)), read_only(fx)

    @property
    def nonlocal_growth(self) -> float:
        """c in ||g(zeta)|| <= c ||zeta|| + d: max |f(t,x)| over the samples, 0 with no term."""
        if self.nonlocal_term.is_zero:
            return 0.0
        ft, fx = self._nonlocal_samples
        return float(np.max(np.abs(ft)) * np.max(np.abs(fx)))

    def g_of(self, values: np.ndarray) -> np.ndarray:
        """g of the sampled path (left values, (M, N)) as mode coefficients."""
        if self.nonlocal_term.is_zero:
            return np.zeros(self.n_modes)
        ft, fx = self._nonlocal_samples
        phys = self.basis.to_physical(values)        # a fresh (M, J) array, used in place
        np.abs(phys, out=phys)
        np.sqrt(phys, out=phys)
        inner = np.log1p(phys, out=phys) @ self.basis.weights
        t_int = float(self._trapezoid @ (ft * inner))
        return self.basis.to_modes(fx * t_int)
