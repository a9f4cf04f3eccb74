"""Dirichlet sine basis and the diagonalized resolvent family R(t,s).

Each mode n solves the scalar Volterra integrodifferential equation

    r'(t) = -n^2 tau(t) r(t) - n^2 int_s^t G(t,u) r(u) du,   r(s) = 1,

and R(t,s) acts diagonally with factors r_n(t,s).  The stepper is a
trapezoid predictor-corrector whose local propagation uses the exact
factor exp(-n^2 int tau), so the stiff diagonal part carries no
quadrature error; only the memory integral is approximated.  Every
catalog kernel is one exponential c0 exp(-rate (t-s)), so each column's
trapezoid memory integral is carried as state and updated by an exact
one-term recurrence.  All modes and all anchors advance together, so one
time step costs O(modes x anchors) and the full table O(N M^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import trapezoid_prefix_matrix  # noqa: F401 -- wrapped by bench/tracer.py
from .errors import DomainError, GridError, InstabilityError, UsageError
from .funcs import MemoryKernel, TimeFunction
from .measure import TimeGrid

_OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class SpectralBasis:
    """Sine eigenbasis e_n(x) = sqrt(2/pi) sin(n x) on (0, pi), n = 1..N.

    ``synthesis`` maps mode coefficients to values at the collocation
    nodes; ``analysis`` maps values back via the quadrature weights.
    With the default J = 2N+1 uniform interior nodes the discrete inner
    products reproduce orthonormality exactly.
    """

    n_modes: int
    collocation: int
    x: np.ndarray
    weights: np.ndarray
    synthesis: np.ndarray   # (J, N)
    analysis: np.ndarray    # (N, J)

    @property
    def eigenvalues(self) -> np.ndarray:
        return -self.mode_numbers.astype(float) ** 2

    @property
    def mode_numbers(self) -> np.ndarray:
        return np.arange(1, self.n_modes + 1)

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.synthesis.T

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) @ self.analysis.T


def make_basis(n_modes: int, collocation: int | None = None) -> SpectralBasis:
    if not 1 <= n_modes <= 256:
        raise UsageError(f"mode count must be in 1..256, got {n_modes}")
    j_count = 2 * n_modes + 1 if collocation is None else collocation
    if j_count < n_modes:
        raise UsageError("need at least as many collocation nodes as modes")
    j = np.arange(1, j_count + 1)
    x = j * math.pi / (j_count + 1)
    w = np.full(j_count, math.pi / (j_count + 1))
    syn = math.sqrt(2.0 / math.pi) * np.sin(np.outer(x, np.arange(1, n_modes + 1)))
    ana = syn.T * w
    for arr in (x, w, syn, ana):
        arr.setflags(write=False)
    return SpectralBasis(n_modes, j_count, x, w, syn, ana)


@dataclass(frozen=True)
class LinearPart:
    """Time coefficient tau(t) and memory kernel G(t,s) of the linear part."""

    tau: TimeFunction
    kernel: MemoryKernel

    @property
    def autonomous(self) -> bool:
        # catalog kernels all depend on t-s only, so autonomy is decided by tau
        return self.tau.kind == "const"

    def residual_scale(self, n: int, horizon: float) -> float:
        """Magnitude of the stiff terms for mode n; used to scale PDE residuals."""
        return n * n * (self.tau.sup_abs(horizon) + horizon * self.kernel.sup_abs(horizon))


def evolution_factor(n: int, s: float, t: float, tau: TimeFunction) -> float:
    """exp(-n^2 int_s^t tau): the diagonal evolution-family factor."""
    if s > t:
        raise DomainError(f"evolution factor needs s <= t, got s={s}, t={t}")
    return float(np.exp(-float(n * n) * tau.integral(s, t)))


def _etd_build(modes: np.ndarray, grid: TimeGrid, linear: LinearPart,
               anchors: np.ndarray) -> np.ndarray:
    """Advance all (mode, anchor) columns jointly; returns (n_modes, M, n_anchors).

    Each column carries r = r_n(t_j, t_k) and mem, the trapezoid rule of
    exp(-rate (t_j - u)) r(u) over [t_k, t_j].  The kernel is one
    exponential c0 exp(-rate (t - s)), so one step decays mem and adds one
    cell; the predicted r closes the new cell, and the corrected r closes
    it again for the next step.  Before its anchor row a column's r and
    mem are exactly zero and stay so; at the anchor row r is set to 1.
    """
    nodes = grid.nodes
    d = np.diff(nodes)
    n2 = modes.astype(float)[:, None] ** 2
    exmat = np.exp(-n2 * np.diff(linear.tau.antiderivative(nodes)))   # (N, M-1), exact
    kq = -n2 * linear.kernel.c0              # memory term of r' is kq * mem
    decay = np.exp(-linear.kernel.rate * d)

    out = np.zeros((len(modes), len(nodes), len(anchors)))
    r = np.zeros((len(modes), len(anchors)))
    mem = np.zeros_like(r)
    for j in range(len(nodes)):
        r[:, anchors == j] = 1.0
        out[:, j] = r
        if j == len(nodes) - 1:
            break
        dt, half, ex = d[j], d[j] / 2.0, exmat[:, j:j + 1]
        q = kq * mem
        pred = ex * (r + dt * q)
        carried = decay[j] * (mem + half * r)
        r = ex * r + half * (ex * q + kq * (carried + half * pred))
        mem = carried + half * r
        if not np.max(np.abs(r)) < _OVERFLOW_GUARD:
            worst = int(np.argmax(np.abs(r)))
            raise InstabilityError(int(modes[worst // len(anchors)]), _OVERFLOW_GUARD)
    return out


@dataclass(frozen=True)
class ResolventTable:
    """Sampled r_n(t_j, t_k) for every mode and every anchor (0 for j < k)."""

    basis: SpectralBasis
    linear: LinearPart
    grid: TimeGrid
    data: np.ndarray        # (N, M, M)

    def l1(self) -> float:
        """sup_{n, s<=t} |r_n(t,s)|: the diagonal operator-norm estimate."""
        return float(np.max(np.abs(self.data)))

    def final_row(self) -> np.ndarray:
        """r_n(a, t_k) for all modes and anchors, shape (N, M)."""
        return self.data[:, -1, :]


def build_resolvent_table(basis: SpectralBasis, linear: LinearPart,
                          grid: TimeGrid) -> ResolventTable:
    data = _etd_build(basis.mode_numbers, grid, linear, np.arange(len(grid)))
    data.setflags(write=False)
    return ResolventTable(basis, linear, grid, data)


def solve_mode_resolvent(n: int, anchor: int, linear: LinearPart,
                         grid: TimeGrid) -> np.ndarray:
    """r_n(t_j, t_anchor) on the whole grid (zeros before the anchor row)."""
    if not 0 <= anchor < len(grid):
        raise UsageError(f"anchor index {anchor} outside grid")
    data = _etd_build(np.array([n]), grid, linear, np.array([anchor]))
    return data[0, :, 0]


@dataclass(frozen=True)
class PdeReport:
    """Finite-difference residual of the defining equation over the triangle."""

    max_raw_residual: float
    max_scaled_residual: float
    per_mode_scaled: np.ndarray
    tol_pde: float
    anchors_checked: int
    passed: bool


def verify_resolvent_pde(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid,
                         tol_pde: float = 1e-3, max_anchors: int = 64) -> PdeReport:
    """Central-difference check of r' = -n^2 tau r - n^2 int G r du per anchor.

    Only the sampled anchor columns are marched.  Their memory integrals are
    summed from the marched r by a trapezoid recurrence of their own (decay by
    exp(-rate d), add one cell), so the check does not reuse the build's state.
    The raw residual of mode n scales like n^2 (sup|tau| + a sup|G|) times the
    finite-difference truncation, so the pass verdict uses residuals divided by
    that per-mode scale; raw maxima are reported alongside.
    """
    nodes = grid.nodes
    m_count = len(nodes)
    if m_count < 3:
        raise GridError(f"the central-difference check needs 3 or more nodes, got {m_count}")
    n2 = basis.mode_numbers.astype(float) ** 2
    tau = linear.tau.value(nodes)
    scale = np.array([linear.residual_scale(n, grid.end) for n in basis.mode_numbers])
    scale = np.maximum(scale, 1e-30)

    if m_count - 2 <= max_anchors:
        anchor_list = np.arange(m_count - 2)
    else:
        anchor_list = np.unique(np.linspace(0, m_count - 3, max_anchors).astype(int))
    data = _etd_build(basis.mode_numbers, grid, linear, anchor_list)   # (N, M, K)

    d = np.diff(nodes)
    decay = np.exp(-linear.kernel.rate * d)
    half = linear.kernel.c0 * d / 2.0
    mem = np.zeros_like(data)
    for j in range(1, m_count):
        mem[:, j] = decay[j - 1] * mem[:, j - 1] + half[j - 1] * (
            decay[j - 1] * data[:, j - 1] + data[:, j])
        mem[:, j, anchor_list >= j] = 0.0        # no cell before or at the anchor

    fd = (data[:, 2:] - data[:, :-2]) / (nodes[2:] - nodes[:-2])[:, None]
    res = fd + n2[:, None, None] * (tau[1:-1, None] * data[:, 1:-1] + mem[:, 1:-1])
    after = np.arange(1, m_count - 1)[:, None] > anchor_list[None, :]
    per_mode = np.max(np.where(after, np.abs(res), 0.0), axis=(1, 2))
    per_mode_scaled = per_mode / scale
    max_scaled = float(per_mode_scaled.max())
    return PdeReport(float(per_mode.max()), max_scaled, per_mode_scaled, tol_pde,
                     len(anchor_list), bool(max_scaled <= tol_pde))


@dataclass(frozen=True)
class AutonomyReport:
    passed: bool
    max_deviation: float
    tol_auto: float
    anchors_checked: int


def check_autonomous_reduction(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid,
                               tol_auto: float = 1e-6,
                               max_anchors: int = 64) -> AutonomyReport:
    """Check r_n(t,s) = r_n(t-s, 0) on sampled anchors, marching only those (uniform grid)."""
    if not linear.autonomous:
        raise UsageError("autonomous reduction requires constant tau "
                         "and a difference kernel")
    if not grid.is_uniform():
        raise GridError("autonomous reduction check needs a uniform grid")
    m_count = len(grid)
    anchor_list = np.unique(np.linspace(0, m_count - 1, min(max_anchors, m_count)).astype(int))
    data = _etd_build(basis.mode_numbers, grid, linear, anchor_list)
    dev = 0.0
    for i, k in enumerate(anchor_list):
        shifted = data[:, k:, i]
        base = data[:, :m_count - k, 0]
        dev = max(dev, float(np.max(np.abs(shifted - base))) if shifted.size else 0.0)
    return AutonomyReport(bool(dev <= tol_auto), dev, tol_auto, len(anchor_list))
