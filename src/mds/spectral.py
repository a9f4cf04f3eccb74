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
anchor: for each mode it is one 2x2 map.  ``step_maps`` works out the four
coefficient arrays from the predictor-corrector ``_step``, and a Scenario
holds them for the whole run, so every consumer reads the same arrays.  One
routine, ``_march``, steps forward: a resolvent column is the run seeded
with 1 at its anchor row, and a sum of columns against weights is one run
seeded with those weights (``resolvent_sums``, the psi sweep).

The march is a two-level blocked scan (Blelloch, "Prefix sums and their
applications", 1990).  The marched rows first..M-1 are cut into blocks of
L = ceil(sqrt(rows)) rows, block i starting at row first + i L; only the
last block can be short.  Three passes replace the loop over rows:

1. Every full block runs from a zero state, vectorized across blocks (row p
   of every block is one step).  The unit states (1, 0) and (0, 1) ride
   beside the seeded columns, so the same pass gives each block's 2x2
   transfer map T_i and its forced end state z_i.
2. One short pass over the block boundaries gives each block's state on
   entry: x_0 = 0 and x_{i+1} = T_i x_i + z_i.
3. Every block runs again from its entry state, vectorized across blocks,
   and writes its rows straight into ``out`` through the strided views
   out[:, first + p::L].

That is about 3 sqrt(M) vectorized steps instead of M row steps, with the
same numbers up to the regrouped rounding.  The first block starts from
zero and runs the row steps themselves, and a unit-seed column is exactly 0
before its anchor and exactly 1 on it.  Overflow is checked after the
passes: each row's per-mode max |state| is kept, and the earliest row in
time that is not below the guard names the mode.

The final row r_n(a, .) is the discrete adjoint: the same march on the
transposed maps (a12 and a21 swapped) with the rows reversed, seeded 1 at
its first row.  The subdiagonal r_n(t_{j+1}, t_j) is a11 itself.  L1 =
sup |r| is one pass over the rows that marches every anchor column at once:
column k joins at row k, each step is the row step on the columns that have
joined, and a running max is kept, so L1 holds O(N M) state.
``sample_resolvent`` marches the one set of at most ANCHOR_BLOCK columns
both resolvent checks read, and refuses a sample that does not fit in
physical memory before it marches.  None of these holds more than O(N M
ANCHOR_BLOCK); the full (N, M, M) table is built only as a reference for
tests.

``verify_resolvent_pde`` sums each sampled column's memory integral by a
trapezoid recurrence of its own.  It runs the rows in chunks of about
sqrt(M): a chunk's trapezoid cells, central differences and residuals are
formed for every row and column at once, on (chunk, N, K) arrays, and the
per-mode max is taken over the live entries (columns anchored before the
row) by selection.  Only mem <- decay mem + cell steps row by row, two
in-place operations on an (N, K) row, so the report is bitwise that of the
row-by-row loop.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._quad import trapezoid_prefix_matrix  # noqa: F401 -- wrapped by bench/tracer.py
from .errors import GridError, InstabilityError, UsageError
from .funcs import MemoryKernel, TimeFunction
from .measure import TimeGrid

_OVERFLOW_GUARD = 1e12
ANCHOR_BLOCK = 64      # columns the sampled resolvent checks march
TOL_AUTO = 1e-6        # largest |r_n(t,s) - r_n(t-s,0)| the autonomy check passes


def physical_memory() -> int:
    """Bytes of physical memory, the limit of every byte budget."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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


@dataclass(frozen=True)
class StepMaps:
    """The step coefficients a11, a12, a21, a22 of the recurrence, each (N, M-1).

    Step j maps the column state at row j to row j+1,

        r <- a11[:, j] r + a12[:, j] mem,   mem <- a21[:, j] r + a22[:, j] mem,

    and is the same for every column, so a11 is also the subdiagonal
    r_n(t_{j+1}, t_j).  ``modes`` are the mode numbers of the rows, which
    the overflow guard names.
    """

    modes: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.a11.shape[1] + 1


def step_maps(modes: np.ndarray, linear: LinearPart, grid: TimeGrid) -> StepMaps:
    """``_step`` applied to the unit states (1, 0) and (0, 1) on every step.

    A growing mode can make a coefficient overflow; the march that reads it
    then meets the overflow guard, so no numpy warning is raised here.
    """
    d = np.diff(grid.nodes)
    n2 = modes.astype(float)[:, None] ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.exp(-n2 * np.diff(linear.tau.antiderivative(grid.nodes)))   # exact
        kq, decay = -n2 * linear.kernel.c0, np.exp(-linear.kernel.rate * d)
        a11, a21 = _step(1.0, 0.0, ex, kq, d, decay)
        a12, a22 = _step(0.0, 1.0, ex, kq, d, decay)
    return StepMaps(modes, a11, a12, a21, a22)


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


def _guard(r: np.ndarray, modes: np.ndarray) -> float:
    """max |r|, or InstabilityError naming the mode of the first largest entry."""
    peak = float(np.abs(r).max())
    if not peak < _OVERFLOW_GUARD:
        worst = int(np.argmax(np.abs(r)))
        raise InstabilityError(int(modes[worst // (r.size // len(modes))]), _OVERFLOW_GUARD)
    return peak


def _step_blocks(steps: StepMaps, rows: slice, r: np.ndarray, mem: np.ndarray,
                 work: np.ndarray) -> None:
    """Step the states (r, mem), one per block, from the rows ``rows`` in place.

    ``work`` holds two scratch arrays at least the size of r for the cross
    products, so a step allocates nothing.  Each entry is rounded as in a
    single row step, a11 r + a12 mem and a21 r + a22 mem.
    """
    c11, c12, c21, c22 = (a[:, rows, None] for a in
                          (steps.a11, steps.a12, steps.a21, steps.a22))
    count = r.shape[1]
    from_mem = np.multiply(c12, mem, out=work[0, :, :count])
    from_r = np.multiply(c21, r, out=work[1, :, :count])
    r *= c11
    r += from_mem
    mem *= c22
    mem += from_r


def _entry_states(steps: StepMaps, seeds: np.ndarray, first: int, size: int,
                  width: int) -> tuple[np.ndarray, np.ndarray]:
    """Passes 1 and 2 of ``_march``: each block's state (r, mem) on entry.

    Pass 1 runs the full blocks from zero with the unit states (1, 0) and
    (0, 1) in two extra columns, so block i ends in its forced state z_i and
    its transfer map T_i.  Pass 2 gives the entry states x_0 = 0 and x_{i+1}
    = T_i x_i + z_i, before each block's first seed.  Both are (N, blocks, B).
    """
    full = -(-(steps.n_nodes - first) // size) - 1     # every block but the last
    n_count = len(steps.modes)
    ends_r, ends_m = np.zeros((2, n_count, full, width + 2))
    ends_r[:, :, width] = ends_m[:, :, width + 1] = 1.0
    work = np.empty((2, n_count, full, width + 2))
    for p in range(size):
        row = first + p
        ends_r[:, :, :width] += seeds[row:row + full * size:size].transpose(1, 0, 2)
        _step_blocks(steps, slice(row, row + full * size, size), ends_r, ends_m, work)
    del work                                           # before pass 2 allocates
    r, mem = np.zeros((2, n_count, full + 1, width))
    for i in range(full):
        r[:, i + 1] = (ends_r[:, i, width:width + 1] * r[:, i]
                       + ends_r[:, i, width + 1:] * mem[:, i] + ends_r[:, i, :width])
        mem[:, i + 1] = (ends_m[:, i, width:width + 1] * r[:, i]
                         + ends_m[:, i, width + 1:] * mem[:, i] + ends_m[:, i, :width])
    return r, mem


def _march(steps: StepMaps, seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forced run of the recurrence: out[:, j] = sum_{s<=j} r_n(t_j, t_s) seeds[s].

    The state has the shape of out[:, 0], (N, B); seeds[j] broadcasts to it
    and is added to r at row j, before r is recorded.  The rows before the
    first nonzero seed are zero and not stepped.  The marched rows are cut
    into blocks of L = ceil(sqrt(rows)) rows and run in three vectorized
    passes (see the module docstring), so a march takes about 3 L steps
    instead of one per row.  Every stepped state is held to the overflow
    guard, and the earliest row in time that is not below it raises.
    """
    m_count = steps.n_nodes
    seeds = np.reshape(seeds, (len(seeds), -1, np.shape(seeds)[-1]))   # (M, N or 1, B)
    seeded = np.flatnonzero(np.any(np.reshape(seeds, (len(seeds), -1)), axis=1))
    first = int(seeded[0]) if seeded.size else m_count
    out[:, :first] = 0.0
    if first == m_count:
        return out
    size = math.isqrt(m_count - first - 1) + 1       # L = ceil(sqrt(rows))
    peak = np.zeros((len(steps.modes), m_count))   # per-mode max |state| of each row
    with np.errstate(over="ignore", invalid="ignore"):
        r, mem = _entry_states(steps, seeds, first, size, out.shape[2])
        work = np.empty((2,) + r.shape)
        peak[:, first + size::size] = np.abs(r[:, 1:], out=work[0, :, 1:]).max(axis=2)
        # pass 3: every block again from its entry state; row p of each block
        # is written through the strided view out[:, first + p::L]
        for p in range(size):
            row = first + p
            r += seeds[row::size].transpose(1, 0, 2)
            out[:, row::size] = r
            if p == size - 1:
                break
            count = len(range(row, m_count - 1, size))     # blocks with a next row
            r, mem = r[:, :count], mem[:, :count]
            _step_blocks(steps, slice(row, m_count - 1, size), r, mem, work)
            peak[:, row + 1::size] = np.abs(r, out=work[0, :, :count]).max(axis=2)
    bad = np.flatnonzero(~np.all(peak < _OVERFLOW_GUARD, axis=0))
    if bad.size:
        raise InstabilityError(int(steps.modes[np.argmax(peak[:, bad[0]])]), _OVERFLOW_GUARD)
    return out


def _etd_build(steps: StepMaps, anchors: np.ndarray) -> np.ndarray:
    """The resolvent columns r_n(t_j, t_k) for the given anchors, (N, M, K).

    Entries before a column's anchor row are exactly zero; the anchor entry
    is exactly 1.
    """
    seeds = np.equal.outer(np.arange(steps.n_nodes), anchors)
    return _march(steps, seeds, np.empty((len(steps.modes), steps.n_nodes, len(anchors))))


def resolvent_sums(steps: StepMaps, seeds: np.ndarray) -> np.ndarray:
    """Row j of the result is sum_{s<=j} r_n(t_j, t_s) seeds[s, n], shape (M, N).

    One forced run of the recurrence, O(N M): no resolvent column is formed.
    """
    out = np.empty((len(steps.modes), steps.n_nodes, 1))
    _march(steps, seeds[:, :, None], out)
    return out[:, :, 0].T


def resolvent_final_row(steps: StepMaps) -> np.ndarray:
    """r_n(a, t_k) for every mode and anchor, shape (N, M), by the discrete adjoint.

    The adjoint state starts at (1, 0) on the last row and runs backward
    through the transposes of the forward steps' 2x2 maps; its first
    component at row k is r_n(a, t_k).  That is ``_march`` on the maps with
    a12 and a21 swapped and the rows reversed, seeded 1 at its first row, so
    it is O(N M) and guarded like every forward march.
    """
    back = StepMaps(steps.modes, *(a[:, ::-1] for a in
                                   (steps.a11, steps.a21, steps.a12, steps.a22)))
    seeds = np.zeros((steps.n_nodes, 1))
    seeds[0] = 1.0
    final = np.empty((len(steps.modes), steps.n_nodes))
    _march(back, seeds, final[:, ::-1, None])
    return final


def resolvent_sup(steps: StepMaps) -> float:
    """sup_{n, s<=t} |r_n(t,s)|, the diagonal operator-norm estimate L1.

    One pass over the rows marches every anchor column at once: column k
    joins with r = 1 at row k, and each step maps the columns that have
    joined with the same arithmetic as a single column's march.  A running
    max over the guarded states gives L1 without holding the table, on
    O(N M) state.
    """
    a11, a12, a21, a22 = steps.a11, steps.a12, steps.a21, steps.a22
    r = np.zeros((len(steps.modes), steps.n_nodes))
    mem = np.zeros_like(r)
    sup = 1.0                                   # the diagonal r_n(s, s)
    for j in range(steps.n_nodes - 1):
        r[:, j] = 1.0
        rj, mj = r[:, :j + 1], mem[:, :j + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = a11[:, j, None] * rj + a12[:, j, None] * mj
            mj *= a22[:, j, None]
            mj += a21[:, j, None] * rj
        rj[...] = stepped
        sup = max(sup, _guard(rj, steps.modes))
    return sup


@dataclass(frozen=True)
class ResolventTable:
    """Resolvent columns r_n(t_j, t_k) for every mode at the sorted anchors k.

    data[n - 1, j, i] is r_n(t_j, t_anchors[i]), 0 for j < anchors[i].  The
    full table (every node an anchor) is the dense reference the tests
    compare the O(N M) marches against; ``sample_resolvent`` builds the
    sampled one that ``verify-resolvent`` checks.
    """

    basis: SpectralBasis
    linear: LinearPart
    grid: TimeGrid
    anchors: np.ndarray     # (K,)
    data: np.ndarray        # (N, M, K)


def _table(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid,
           anchors: np.ndarray) -> ResolventTable:
    data = _etd_build(step_maps(basis.mode_numbers, linear, grid), anchors)
    data.setflags(write=False)
    return ResolventTable(basis, linear, grid, anchors, data)


def build_resolvent_table(basis: SpectralBasis, linear: LinearPart,
                          grid: TimeGrid) -> ResolventTable:
    """The full table, every node an anchor: the tests' dense reference.

    No command calls it; it stays while bench/tracer.py wraps and builds it.
    """
    return _table(basis, linear, grid, np.arange(len(grid)))


def sample_resolvent(basis: SpectralBasis, linear: LinearPart,
                     grid: TimeGrid) -> ResolventTable:
    """The columns both resolvent checks read, in one march.

    At most ANCHOR_BLOCK anchors, spread evenly from 0 to M-3, so that every
    column has the two rows after its anchor a central difference needs;
    anchor 0 is the base the autonomy check shifts the others onto.  The
    sample is refused before it is marched if its 8 M N ANCHOR_BLOCK bytes
    exceed physical memory.
    """
    m_count = len(grid)
    if m_count < 3:
        raise GridError(f"the central-difference check needs 3 or more nodes, got {m_count}")
    need = 8 * m_count * basis.n_modes * ANCHOR_BLOCK
    have = physical_memory()
    if need > have:
        raise GridError(f"the resolvent sample of {m_count} nodes x {basis.n_modes} modes "
                        f"needs about {need:.3g} bytes, more than the {have:.3g} bytes "
                        f"of physical memory")
    if m_count - 2 <= ANCHOR_BLOCK:
        anchors = np.arange(m_count - 2)
    else:
        anchors = np.unique(np.linspace(0, m_count - 3, ANCHOR_BLOCK).astype(int))
    return _table(basis, linear, grid, anchors)


@dataclass(frozen=True)
class PdeReport:
    """Finite-difference residual of the defining equation over the triangle."""

    max_raw_residual: float
    max_scaled_residual: float
    per_mode_scaled: np.ndarray
    tol_pde: float
    anchors_checked: int
    passed: bool


def verify_resolvent_pde(table: ResolventTable, tol_pde: float = 1e-3) -> PdeReport:
    """Central-difference check of r' = -n^2 tau r - n^2 int G r du per anchor.

    Reads the table's columns.  Their memory integrals are summed from the
    marched r by a trapezoid recurrence of their own (decay by exp(-rate d),
    add one cell), so the check does not reuse the build's state.  The raw
    residual of mode n scales like n^2 (sup|tau| + a sup|G|) times the
    finite-difference truncation, so the pass verdict uses residuals divided
    by that per-mode scale; raw maxima are reported alongside.

    The rows 1..M-2 run in chunks of ceil(sqrt(M - 2)) rows.  A column is
    live on row j once its anchor is before j.  Per chunk, the trapezoid
    cells, the central differences and the residuals of every row and column
    are formed at once, and the per-mode max is taken over the live entries
    only (a cell of a column not yet live is set to 0, not multiplied by
    it).  Only the memory recurrence mem <- decay mem + cell runs row by row,
    with the arithmetic of a single row, so every field of the report is
    bitwise that of a row-by-row loop.  The chunk's arrays are (chunk, N, K).
    """
    basis, linear, grid, anchors, data = (table.basis, table.linear, table.grid,
                                          table.anchors, table.data)
    nodes = grid.nodes
    m_count = len(nodes)
    n2 = basis.mode_numbers.astype(float)[:, None] ** 2
    tau = linear.tau.value(nodes)
    scale = np.array([linear.residual_scale(n, grid.end) for n in basis.mode_numbers])
    scale = np.maximum(scale, 1e-30)

    d = np.diff(nodes)
    decay = np.exp(-linear.kernel.rate * d)
    half = linear.kernel.c0 * d / 2.0
    mem = np.zeros((basis.n_modes, len(anchors)))
    per_mode = np.zeros(basis.n_modes)
    size = math.isqrt(max(m_count - 3, 0)) + 1          # ceil(sqrt(M - 2))
    for lo in range(1, m_count - 1, size):
        hi = min(lo + size, m_count - 1)
        rows, before, after = slice(lo, hi), slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
        live = (anchors < np.arange(lo, hi)[:, None])[:, None]      # (rows, 1, K)
        # row-major (rows, N, K) chunks, so that each row below is contiguous
        r_before, r, r_after = (data[:, s].transpose(1, 0, 2) for s in (before, rows, after))
        cells = np.multiply(decay[before, None, None], r_before, order="C")
        cells += r
        cells *= half[before, None, None]
        np.copyto(cells, 0.0, where=~live)
        for row, factor in zip(cells, decay[before].tolist()):
            row += mem * factor                        # the row's mem, in place of its cell
            mem = row
        res = np.multiply(tau[rows, None, None], r, order="C")
        res += cells
        res *= n2
        fd = np.subtract(r_after, r_before, order="C")
        fd /= (nodes[after] - nodes[before])[:, None, None]
        res += fd
        np.abs(res, out=res)
        per_mode = np.maximum(per_mode, np.max(res, axis=(0, 2), where=live, initial=0.0))
    per_mode_scaled = per_mode / scale
    max_scaled = float(per_mode_scaled.max())
    return PdeReport(float(per_mode.max()), max_scaled, per_mode_scaled, tol_pde,
                     len(anchors), bool(max_scaled <= tol_pde))


@dataclass(frozen=True)
class AutonomyReport:
    passed: bool
    max_deviation: float
    tol_auto: float
    anchors_checked: int


def check_autonomous_reduction(table: ResolventTable) -> AutonomyReport:
    """Check r_n(t,s) = r_n(t-s, 0) on the table's anchors (uniform grid).

    Each column is compared with the column of anchor 0, which comes first.
    """
    if not table.linear.autonomous:
        raise UsageError("autonomous reduction requires constant tau "
                         "and a difference kernel")
    if not table.grid.is_uniform():
        raise GridError("autonomous reduction check needs a uniform grid")
    m_count = len(table.grid)
    data = table.data
    dev = 0.0
    for i, k in enumerate(table.anchors):
        dev = max(dev, float(np.max(np.abs(data[:, k:, i] - data[:, :m_count - k, 0]))))
    return AutonomyReport(bool(dev <= TOL_AUTO), dev, TOL_AUTO, len(table.anchors))
