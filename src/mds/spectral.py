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
time step costs O(modes x anchors).

The step is linear in the column state (r, mem) and does not depend on the
anchor: for each mode it is one 2x2 map, whose four coefficient arrays
``_steps`` works out once per call from the predictor-corrector ``_step``.
Every consumer reads those arrays.  One routine, ``_march``, steps forward:
a resolvent column is the run seeded with 1 at its anchor row, and a sum of
columns against weights is one run seeded with those weights
(``resolvent_sums``, the psi sweep).  The final row r_n(a, .) runs the
transposed maps backward (the discrete adjoint), the subdiagonal
r_n(t_{j+1}, t_j) is a11 itself, and L1 = sup |r| comes from blocks of at
most ANCHOR_BLOCK columns.
None of these holds more than O(N M ANCHOR_BLOCK); the full (N, M, M)
table is built only as a reference for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import trapezoid_prefix_matrix  # noqa: F401 -- wrapped by bench/tracer.py
from .errors import GridError, InstabilityError, UsageError
from .funcs import MemoryKernel, TimeFunction
from .measure import TimeGrid

_OVERFLOW_GUARD = 1e12
ANCHOR_BLOCK = 64      # columns marched at once by the sampled checks and by L1


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


def _steps(modes: np.ndarray, grid: TimeGrid, linear: LinearPart):
    """The step coefficients a11, a12, a21, a22 of the recurrence, each (N, M-1).

    Step j maps the column state at row j to row j+1,

        r <- a11[:, j] r + a12[:, j] mem,   mem <- a21[:, j] r + a22[:, j] mem,

    and is the same for every column.  The coefficients are ``_step``
    applied to the unit states (1, 0) and (0, 1), worked out once per call.
    """
    d = np.diff(grid.nodes)
    n2 = modes.astype(float)[:, None] ** 2
    ex = np.exp(-n2 * np.diff(linear.tau.antiderivative(grid.nodes)))   # exact
    kq, decay = -n2 * linear.kernel.c0, np.exp(-linear.kernel.rate * d)
    a11, a21 = _step(1.0, 0.0, ex, kq, d, decay)
    a12, a22 = _step(0.0, 1.0, ex, kq, d, decay)
    return a11, a12, a21, a22


def _step(r, mem, ex, kq, d, decay):
    """One step of the column state (r, mem); elementwise, so it broadcasts.

    ex is the exact diffusion factor exp(-n^2 int tau) over the step, d the
    step length, decay = exp(-rate d) and kq = -n^2 c0 the memory coefficient.
    mem is the trapezoid rule of exp(-rate (t_j - u)) r(u) over the column's
    past and the memory term of r' is kq * mem.  One step decays mem and adds
    one cell; the predicted r closes the new cell, and the corrected r closes
    it again for the next step.  The map is linear in (r, mem) and does not
    depend on the anchor.
    """
    half = d / 2.0
    q = kq * mem
    pred = ex * (r + d * q)
    carried = decay * (mem + half * r)
    r = ex * r + half * (ex * q + kq * (carried + half * pred))
    return r, carried + half * r


def _guard(r: np.ndarray, modes: np.ndarray) -> None:
    if not np.abs(r).max() < _OVERFLOW_GUARD:
        worst = int(np.argmax(np.abs(r)))
        raise InstabilityError(int(modes[worst // (r.size // len(modes))]), _OVERFLOW_GUARD)


def _march(modes: np.ndarray, grid: TimeGrid, linear: LinearPart,
           seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forced run of the recurrence: out[:, j] = sum_{s<=j} r_n(t_j, t_s) seeds[s].

    The state has the shape of out[:, 0], (N, B); seeds[j] broadcasts to it
    and is added to r at row j, before r is recorded.  Each step is the 2x2
    map of ``_steps``.  A resolvent column is the seed 1 at its anchor row:
    before it r and mem are exactly zero, so the column is bitwise the same
    whatever else is marched beside it, and the rows before the first
    nonzero seed are not stepped at all.  Every marched state is held to the
    overflow guard.
    """
    a11, a12, a21, a22 = (a.T[:, :, None] for a in _steps(modes, grid, linear))
    seeded = np.flatnonzero(np.any(np.reshape(seeds, (len(seeds), -1)), axis=1))
    first = int(seeded[0]) if seeded.size else len(grid)
    out[:, :first] = 0.0
    r = np.zeros(out[:, 0].shape)
    mem = np.zeros_like(r)
    for j in range(first, len(grid)):
        r = r + seeds[j]
        out[:, j] = r
        if j == len(grid) - 1:
            break
        r, mem = a11[j] * r + a12[j] * mem, a21[j] * r + a22[j] * mem
        _guard(r, modes)
    return out


def _etd_build(modes: np.ndarray, grid: TimeGrid, linear: LinearPart,
               anchors: np.ndarray) -> np.ndarray:
    """The resolvent columns r_n(t_j, t_k) for the given anchors, (N, M, K).

    Entries before a column's anchor row are exactly zero; the anchor entry
    is exactly 1.
    """
    seeds = np.equal.outer(np.arange(len(grid)), anchors)
    return _march(modes, grid, linear, seeds,
                  np.empty((len(modes), len(grid), len(anchors))))


def resolvent_sums(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid,
                   seeds: np.ndarray) -> np.ndarray:
    """Row j of the result is sum_{s<=j} r_n(t_j, t_s) seeds[s, n], shape (M, N).

    One forced run of the recurrence, O(N M): no resolvent column is formed.
    """
    out = np.empty((basis.n_modes, len(grid), 1))
    _march(basis.mode_numbers, grid, linear, seeds[:, :, None], out)
    return out[:, :, 0].T


def resolvent_subdiagonal(basis: SpectralBasis, linear: LinearPart,
                          grid: TimeGrid) -> np.ndarray:
    """r_n(t_{j+1}, t_j) for every mode and step, shape (N, M-1): the a11 of every step."""
    return _steps(basis.mode_numbers, grid, linear)[0]


def resolvent_final_row(basis: SpectralBasis, linear: LinearPart,
                        grid: TimeGrid) -> np.ndarray:
    """r_n(a, t_k) for every mode and anchor, shape (N, M), by the discrete adjoint.

    lambda starts at (1, 0) on the last row and runs backward through the
    transposes of the forward steps' 2x2 maps (``_steps``); its first
    component at row k is r_n(a, t_k).  O(N M), and guarded like every
    forward march.
    """
    modes = basis.mode_numbers
    a11, a12, a21, a22 = _steps(modes, grid, linear)
    out = np.empty((len(modes), len(grid)))
    lam, lam_mem = np.ones(len(modes)), np.zeros(len(modes))
    out[:, -1] = lam
    for j in range(len(grid) - 2, -1, -1):
        lam, lam_mem = (a11[:, j] * lam + a21[:, j] * lam_mem,
                        a12[:, j] * lam + a22[:, j] * lam_mem)
        _guard(lam, modes)
        out[:, j] = lam
    return out


def resolvent_sup(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid) -> float:
    """sup_{n, s<=t} |r_n(t,s)|, the diagonal operator-norm estimate L1.

    Marches the anchors in blocks of at most ANCHOR_BLOCK columns and keeps
    a running max, so every entry is formed, guarded and compared once
    without holding the table.
    """
    sup = 0.0
    for start in range(0, len(grid), ANCHOR_BLOCK):
        block = np.arange(start, min(start + ANCHOR_BLOCK, len(grid)))
        sup = max(sup, float(np.max(np.abs(
            _etd_build(basis.mode_numbers, grid, linear, block)))))
    return sup


@dataclass(frozen=True)
class ResolventTable:
    """Sampled r_n(t_j, t_k) for every mode and anchor (0 for j < k).

    No command builds it: the commands run on O(N M) marches.  It is the
    dense reference the tests compare those against.
    """

    basis: SpectralBasis
    linear: LinearPart
    grid: TimeGrid
    data: np.ndarray        # (N, M, M)


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
                         tol_pde: float = 1e-3, max_anchors: int = ANCHOR_BLOCK) -> PdeReport:
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
    mem = np.zeros((basis.n_modes, len(anchor_list)))
    per_mode = np.zeros(basis.n_modes)
    for j in range(1, m_count - 1):
        k = int(np.searchsorted(anchor_list, j))   # columns [:k] are anchored before row j
        mem[:, :k] = decay[j - 1] * mem[:, :k] + half[j - 1] * (
            decay[j - 1] * data[:, j - 1, :k] + data[:, j, :k])
        fd = (data[:, j + 1, :k] - data[:, j - 1, :k]) / (nodes[j + 1] - nodes[j - 1])
        res = fd + n2[:, None] * (tau[j] * data[:, j, :k] + mem[:, :k])
        per_mode = np.maximum(per_mode, np.max(np.abs(res), axis=1))
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
                               max_anchors: int = ANCHOR_BLOCK) -> AutonomyReport:
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
