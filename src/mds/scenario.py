"""Scenario assembly: system data plus the shared quadrature rules.

A Scenario freezes everything a run needs: basis, linear part, driver,
grid, states, nonlinearity, nonlocal term, control gains, tolerances.
It also owns the two shared integration rules: the Lebesgue-in-t rule
(composite Simpson prefix rows) and the Stieltjes rule (row j holds the
weights of int_[0,t_j) . dh, density times trapezoid plus the jumps
strictly before t_j at left values).  The solver, the control synthesis
and the Gramians draw on these and nothing else; using a single rule per
integral is what makes the steering residual cancel exactly instead of to
quadrature order.

Both rules are held in O(M): a prefix row j equals the full-span weights
(``wq_full``, ``dh_full``) except in its last two entries, W[j, j]
(``wq_diag``, ``dh_diag``) and W[j, j-1] (``wq_sub``; the dh rule has no
such exception).  The resolvent enters through O(N M) arrays built on
first use and held for the run: ``steps``, the recurrence's 2x2 step maps
that every march reads (their a11 is the subdiagonal r_n(t_{j+1}, t_j)),
and ``final_row``, r_n(a, t_k).  No M x M array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# the prefix matrices and the table are no longer called here; bench/tracer.py
# wraps them by these names
from ._quad import simpson_prefix_matrix, trapezoid_prefix_matrix  # noqa: F401
from ._quad import simpson_prefix_edges, simpson_weights, trapezoid_weights
from .errors import UsageError
from .funcs import TimeFunction
from .measure import JumpMeasure, TimeGrid, density_on_grid, jump_sizes_on_grid
from .spectral import build_resolvent_table  # noqa: F401 -- wrapped by bench/tracer.py
from .spectral import (LinearPart, SpectralBasis, StepMaps, resolvent_final_row,
                       step_maps)

_NL_KINDS = ("zero", "cosine", "table")
_NONLOCAL_KINDS = ("zero", "log_kernel")


@dataclass(frozen=True, eq=False)
class NonlinearityEval:
    """State nonlinearity delta(t, zeta) evaluated in mode coefficients.

    cosine: amplitude * cos applied pointwise at the collocation nodes,
    projected back to modes.  table: fixed state-independent samples,
    one coefficient row per grid node (or a single broadcast row).
    """

    kind: str
    amplitude: float = 0.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _NL_KINDS:
            raise UsageError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "table":
            if self.table is None:
                raise UsageError("table nonlinearity needs sample values")
            object.__setattr__(self, "table", np.asarray(self.table, dtype=float))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "cosine" and self.amplitude == 0.0)

    def values(self, basis: SpectralBasis, states: np.ndarray) -> np.ndarray:
        """delta at each row of states ((..., N) coefficients in, same shape out)."""
        states = np.asarray(states, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(states)
        if self.kind == "cosine":
            phys = basis.to_physical(states)
            return basis.to_modes(self.amplitude * np.cos(phys))
        return np.broadcast_to(self.table, states.shape).copy()

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


@dataclass(frozen=True, eq=False)
class NonlocalEval:
    """Nonlocal term g(zeta), a state-space vector built from the whole path.

    log_kernel: g(zeta)(x) = int_0^a f(t,x) [ int log(1+|zeta(t)(p)|^(1/2)) dp ] dt
    with f(t,x) = f_time(t) * f_space(x), the p-integral over the collocation
    nodes and the t-integral by trapezoid on the grid.
    """

    kind: str
    f_time: TimeFunction | None = None
    f_space: TimeFunction | None = None
    offset: float = 1.0     # the additive growth constant d in ||g|| <= c||zeta|| + d

    def __post_init__(self):
        if self.kind not in _NONLOCAL_KINDS:
            raise UsageError(f"unknown nonlocal kind {self.kind!r}")
        if self.kind == "log_kernel" and self.f_time is None:
            raise UsageError("log_kernel nonlocal term needs an f spec")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def _f_grid(self, basis: SpectralBasis, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        ft = self.f_time.value(grid.nodes)
        fx = (self.f_space.value(basis.x) if self.f_space is not None
              else np.ones_like(basis.x))
        return ft, fx

    def apply(self, basis: SpectralBasis, grid: TimeGrid,
              values: np.ndarray) -> np.ndarray:
        """g of the sampled path (left values, (M, N)) as mode coefficients."""
        if self.kind == "zero":
            return np.zeros(basis.n_modes)
        ft, fx = self._f_grid(basis, grid)
        phys = basis.to_physical(values)                     # (M, J)
        inner = np.log1p(np.sqrt(np.abs(phys))) @ basis.weights
        t_int = float(trapezoid_weights(grid.nodes) @ (ft * inner))
        return basis.to_modes(fx * t_int)

    def growth_c(self, basis: SpectralBasis, grid: TimeGrid) -> float:
        """c = max |f(t,x)| over the samples."""
        if self.kind == "zero":
            return 0.0
        ft, fx = self._f_grid(basis, grid)
        return float(np.max(np.abs(ft)) * np.max(np.abs(fx)))


@dataclass(frozen=True)
class Tolerances:
    tol_picard: float = 1e-10
    tol_target: float = 1e-4
    tol_pde: float = 1e-3
    max_picard: int = 64
    max_outer: int = 20

    def __post_init__(self):
        for name in ("tol_picard", "tol_target", "tol_pde"):
            if not getattr(self, name) > 0.0:
                raise UsageError(f"{name} must be positive")
        for name in ("max_picard", "max_outer"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be nonnegative")


@dataclass(frozen=True, eq=False)
class Scenario:
    basis: SpectralBasis
    linear: LinearPart
    h: JumpMeasure
    grid: TimeGrid
    zeta0: np.ndarray
    zeta1: np.ndarray
    nonlinearity: NonlinearityEval
    nonlocal_term: NonlocalEval
    theta: np.ndarray
    tol: Tolerances
    config: dict | None = field(default=None, repr=False)
    # O(M) quadrature data, filled on construction
    wq_full: np.ndarray = field(init=False, repr=False)
    wq_diag: np.ndarray = field(init=False, repr=False)
    wq_sub: np.ndarray = field(init=False, repr=False)
    dh_full: np.ndarray = field(init=False, repr=False)
    dh_diag: np.ndarray = field(init=False, repr=False)
    jump_sizes: np.ndarray = field(init=False, repr=False)
    jump_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.basis.n_modes
        for name in ("zeta0", "zeta1"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (n,):
                raise UsageError(f"{name} must have one coefficient per mode")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim == 0:
            theta = np.full(n, float(theta))
        if theta.shape != (n,):
            raise UsageError("theta must be scalar or one gain per mode")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if self.nonlinearity.kind == "table":
            rows = np.atleast_2d(self.nonlinearity.table)
            if rows.shape[-1] != n or rows.shape[0] not in (1, len(self.grid)):
                raise UsageError("nonlinearity table must broadcast to (grid, modes)")
        nodes = self.grid.nodes
        object.__setattr__(self, "wq_full", simpson_weights(nodes))
        wq_diag, wq_sub = simpson_prefix_edges(nodes)
        object.__setattr__(self, "wq_diag", wq_diag)
        object.__setattr__(self, "wq_sub", wq_sub)
        sizes = jump_sizes_on_grid(self.h, self.grid)   # raises if a jump is off-grid
        density = density_on_grid(self.h, self.grid)
        # a jump at t_i acts only for t > t_i: in the full span, not on row i itself
        object.__setattr__(self, "dh_full", density * trapezoid_weights(nodes) + sizes)
        object.__setattr__(self, "dh_diag", density * np.append(0.0, np.diff(nodes) / 2.0))
        object.__setattr__(self, "jump_sizes", sizes)
        object.__setattr__(self, "jump_rows", np.where(sizes > 0.0)[0])

    @cached_property
    def steps(self) -> StepMaps:
        """The resolvent recurrence's step maps, four (N, M-1) arrays."""
        return step_maps(self.basis.mode_numbers, self.linear, self.grid)

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
        return self.nonlinearity.values(self.basis, states)

    def g_of(self, values: np.ndarray) -> np.ndarray:
        return self.nonlocal_term.apply(self.basis, self.grid, values)
