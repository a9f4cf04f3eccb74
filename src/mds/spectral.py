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
anchor: for each mode it is one 2x2 map.  ``step_maps`` works out the
coefficients from the predictor-corrector ``_step`` and stacks them row by
row, shape (M-1, 2, 2, N), so that step j reads one contiguous slab; a
Scenario holds them for the whole run, so every consumer reads the same
array.  One routine, ``_march``, steps forward: a resolvent column is the
run seeded with 1 at its anchor row, and a sum of columns against weights is
one run seeded with those weights (``resolvent_sums``, the psi sweep).

The march is a two-level blocked scan (Blelloch, "Prefix sums and their
applications", 1990).  The marched rows first..M-1 are cut into blocks of
L = ceil(sqrt(rows)) rows, block i starting at row first + i L; only the
last block can be short.  Three passes replace the loop over rows:

1. Every full block runs its seeded columns from a zero state, vectorized
   across blocks (row p of every block is one step), to its forced end
   state z_i.
2. One short pass over the block boundaries gives each block's state on
   entry: x_0 = 0 and x_{i+1} = T_i x_i + z_i, with T_i the block's 2x2
   transfer map.
3. Every block runs again from its entry state, vectorized across blocks,
   and writes its rows straight into ``out`` through the strided views
   out[:, first + p::L].

That is about 2 sqrt(M) vectorized steps and sqrt(M) boundary steps
instead of M row steps.  The first block starts from zero and runs the row
steps themselves, and a unit-seed column is exactly 0 before its anchor and
exactly 1 on it.  Overflow is checked after the passes: each row's
per-mode max |state| is kept, and the earliest row in time that is not
below the guard names the mode.

What a march reads does not depend on its seeds, so it is laid out once.
The first march from a row on a StepMaps makes the block layout
(``_block_layout``), and the StepMaps keeps it for the next march from the
same row; the Picard seed and the sweeps all start on row 0, so a run makes
it once.  The layout holds, for each p, the view maps[first + p::L] of the
steps from row p of every block (no copy of the maps), and each full
block's T_i, made by running the unit states (1, 0) and (0, 1) alone
through the block.  A step is one fused update of the stacked state (2, N,
blocks, B): one broadcast product into a (2, 2, N, blocks, B) scratch,
scratch[k, i] = maps[k, i] state[k], and one sum of its two halves, so r =
a11 r + a12 mem and mem = a21 r + a22 mem.  Pass 1 leaves each z_i in the
array of entry states, where pass 2 turns it into x_{i+1} in place, and
passes 1 and 3 step every mode at once.  So a march holds its entry
states, a scratch twice their size and its row peaks beside ``out``.

The result is bitwise that of the march that stepped every row through
``a[:, p::L]`` and carried the unit states beside the seeded columns.
Each entry is still the sum of the same two products, a11 r + a12 mem and
a21 r + a22 mem, in the same order or with the two terms swapped, and
IEEE multiplication and addition are commutative.  Every column is stepped
elementwise apart from the others, so T_i from the unit states alone is
the T_i they gave beside the seeds, and pass 2 still adds the two
products of T_i x_i first and z_i last.

The final row r_n(a, .) is the discrete adjoint: the same march on the
transposed maps (a12 and a21 swapped, a view) with the rows reversed,
seeded 1 at its first row.  The subdiagonal r_n(t_{j+1}, t_j) is a11
itself.  L1 = sup |r| is one pass over the rows that marches every anchor
column at once: column k joins at row k, and row j's step is the same
fused step of the columns that have joined, on maps[j], so L1 holds
O(N M) state.  It keeps each row's per-mode peak, and one guard reads the
peaks of every march.  ``sample_resolvent`` marches the one set of at most
ANCHOR_BLOCK columns both resolvent checks read, and refuses a sample that
does not fit in physical memory before it marches.  None of these holds
more than O(N M ANCHOR_BLOCK); the full (N, M, M) table is built only as a
reference for tests.

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
from dataclasses import dataclass, field

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
    """The step coefficients of the recurrence, stacked: ``maps`` is (M-1, 2, 2, N).

    Step j maps the column state at row j to row j+1,

        r <- a11 r + a12 mem,   mem <- a21 r + a22 mem,

    with maps[j, k, i] the coefficient of component k of the state (r, mem)
    in component i of the next, so that step j reads one contiguous slab
    maps[j]: a11 = maps[:, 0, 0], a12 = maps[:, 1, 0], a21 = maps[:, 0, 1]
    and a22 = maps[:, 1, 1].  The step is the same for every column, so a11
    is also the subdiagonal r_n(t_{j+1}, t_j).  ``modes`` are the mode
    numbers, which the overflow guard names.  ``layouts`` keeps the block
    layout of the last row a march started from (``_block_layout``), so the
    maps must not change once they have been marched.
    """

    modes: np.ndarray
    maps: np.ndarray
    layouts: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.maps) + 1

    @property
    def a11(self) -> np.ndarray:
        """The subdiagonal r_n(t_{j+1}, t_j), (N, M-1)."""
        return self.maps[:, 0, 0].T


def step_maps(modes: np.ndarray, linear: LinearPart, grid: TimeGrid) -> StepMaps:
    """``_step`` applied to the unit states (1, 0) and (0, 1) on every step.

    A growing mode can make a coefficient overflow; the march that reads it
    then meets the overflow guard, so no numpy warning is raised here.  The
    maps are read-only: marches read them through views.
    """
    d = np.diff(grid.nodes)[:, None]
    n2 = modes.astype(float) ** 2
    maps = np.empty((len(d), 2, 2, len(modes)))
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.exp(-n2 * np.diff(linear.tau.antiderivative(grid.nodes))[:, None])  # exact
        kq, decay = -n2 * linear.kernel.c0, np.exp(-linear.kernel.rate * d)
        maps[:, 0, 0], maps[:, 0, 1] = _step(1.0, 0.0, ex, kq, d, decay)
        maps[:, 1, 0], maps[:, 1, 1] = _step(0.0, 1.0, ex, kq, d, decay)
    maps.setflags(write=False)
    return StepMaps(modes, maps)


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


def _guard_peaks(peak: np.ndarray, modes: np.ndarray) -> None:
    """The overflow guard on per-mode row peaks max |state|, shape (N, ...).

    The trailing axes hold the rows in time order, in C order.  The earliest
    row that is not below the guard raises InstabilityError naming the mode
    with the largest peak on it (the first on a tie or a NaN).
    """
    below = np.all(peak < _OVERFLOW_GUARD, axis=0)
    if not below.all():
        row = np.unravel_index(np.argmin(below), below.shape)
        raise InstabilityError(int(modes[np.argmax(peak[(slice(None),) + row])]),
                               _OVERFLOW_GUARD)


class _States:
    """Stacked column states, state[0] = r and state[1] = mem, stepped in place.

    ``state`` is (2, N, blocks, B) and ``scratch`` (2, 2, N, blocks, B).  A
    step reads a (2, 2, N, blocks, 1) view of maps, maps[k, i] the
    coefficient of component k in the next component i: one broadcast
    product scratch[k, i] = maps[k, i] state[k], and one sum of its halves,
    state = scratch[0] + scratch[1].  So r = a11 r + a12 mem and mem = a21 r
    + a22 mem, each entry rounded as in a single row step.  The views a step
    reads are made once, here.
    """

    def __init__(self, state: np.ndarray, scratch: np.ndarray):
        self.state, self.r, self.wide = state, state[0], state[:, None]
        self.scratch, (self.lo, self.hi) = scratch, scratch
        self.abs_r = scratch[0, 0]

    def step(self, maps: np.ndarray) -> None:
        np.multiply(maps, self.wide, out=self.scratch)
        np.add(self.lo, self.hi, out=self.state)

    def peaks(self, out: np.ndarray) -> None:
        """Each block's per-mode max |r| over the columns, into ``out`` (N, blocks)."""
        np.abs(self.r, out=self.abs_r).max(axis=-1, out=out)


@dataclass(frozen=True)
class _BlockLayout:
    """The blocks of every march from row ``first`` on one StepMaps.

    The rows first..M-1 are cut into ``count`` blocks of L = ``size`` rows,
    block i starting at row first + i L; only the last can be short, with
    ``last`` rows.  ``slabs[p]`` is the maps of the step from row p of
    every block that has one, a (2, 2, N, blocks, 1) view of the stacked
    maps (no copy), and ``full_slabs[p]`` its full blocks' part.
    ``transfer[b]`` is full block b's 2x2 transfer map T_b,
    in the same order: the unit states (1, 0) and (0, 1) stepped alone
    through the block.
    """

    first: int
    size: int
    count: int
    last: int
    slabs: list             # L views, (2, 2, N, blocks, 1)
    full_slabs: list        # L views, (2, 2, N, count - 1, 1)
    transfer: np.ndarray    # (count - 1, 2, 2, N, 1)


def _block_layout(steps: StepMaps, first: int) -> _BlockLayout:
    """The layout of the marches from row ``first``, made by the first of them.

    ``steps`` keeps the one made last: every march of a run starts from the
    same row.  Its views cost nothing, and T_i holds 4 N sqrt(M) floats.
    """
    if steps.layouts and steps.layouts[0].first == first:
        return steps.layouts[0]
    rows = steps.n_nodes - first
    size = math.isqrt(rows - 1) + 1              # L = ceil(sqrt(rows))
    count = -(-rows // size)
    full = count - 1
    slabs = [steps.maps[first + p::size].transpose(1, 2, 3, 0)[..., None]
             for p in range(size)]
    full_slabs = [slab[..., :full, :] for slab in slabs]
    unit = np.zeros((2, len(steps.modes), full, 2))   # column k starts as the unit state k
    unit[0, :, :, 0] = unit[1, :, :, 1] = 1.0
    states = _States(unit, np.empty((2,) + unit.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for slab in full_slabs:
            states.step(slab)
    transfer = np.ascontiguousarray(unit.transpose(2, 3, 0, 1)[..., None])
    layout = _BlockLayout(first, size, count, rows - full * size, slabs, full_slabs,
                          transfer)
    steps.layouts[:] = [layout]
    return layout


def _march(steps: StepMaps, seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forced run of the recurrence: out[:, j] = sum_{s<=j} r_n(t_j, t_s) seeds[s].

    The state has the shape of out[:, 0], (N, B); seeds[j] broadcasts to it
    and is added to r at row j, before r is recorded.  The rows before the
    first nonzero seed are zero and not stepped.  The marched rows are cut
    into blocks of L = ceil(sqrt(rows)) rows and run in three vectorized
    passes on the block layout of ``steps`` (see the module docstring), so a
    march takes about 2 L fused steps and one short pass over the blocks
    instead of one step per row.  Every stepped state is held to the
    overflow guard, and the earliest row in time that is not below it raises.
    """
    m_count = steps.n_nodes
    seeds = np.reshape(seeds, (len(seeds), -1, np.shape(seeds)[-1]))   # (M, N or 1, B)
    seeded = np.flatnonzero(np.any(np.reshape(seeds, (len(seeds), -1)), axis=1))
    first = int(seeded[0]) if seeded.size else m_count
    out[:, :first] = 0.0
    if first == m_count:
        return out
    lay = _block_layout(steps, first)
    size, count, last, full = lay.size, lay.count, lay.last, lay.count - 1
    n_count, width = out.shape[0], out.shape[2]
    # the state of block i on entry, x_i, in entry[:, :, i]; pass 1 leaves
    # full block i's forced end state z_i in entry[:, :, i + 1] for pass 2
    entry = np.zeros((2, n_count, count, width))
    # per-mode max |state| of row first + i L + p in peak[p, :, i], 0 where
    # no state is stepped: row first and the rows past the last
    peak = np.zeros((size, n_count, count))
    scratch = np.empty(4 * n_count * count * width)
    blocks = _States(entry, scratch.reshape((2, 2, n_count, count, width)))
    # the full blocks' scratch is a contiguous part of it
    full_scratch = scratch[:4 * n_count * full * width].reshape((2, 2, n_count, full, width))
    ends = _States(entry[:, :, 1:], full_scratch)
    full_blocks = _States(entry[:, :, :full], full_scratch)
    rows = [seeds[first + p::size].transpose(1, 0, 2) for p in range(size)]
    with np.errstate(over="ignore", invalid="ignore"):
        # pass 1: the seeded columns of each full block from zero to z_i
        for slab, seed in zip(lay.full_slabs, rows):
            ends.r += seed[:, :full]
            ends.step(slab)
        # pass 2: x_0 = 0 and x_{i+1} = T_i x_i + z_i
        carry = np.empty((2, 2, n_count, width))
        lo, hi = carry
        for t, x, x_next in zip(lay.transfer, entry[:, None].transpose(3, 0, 1, 2, 4),
                                entry.transpose(2, 0, 1, 3)[1:]):
            np.multiply(t, x, out=carry)
            np.add(lo, hi, out=lo)
            np.add(lo, x_next, out=x_next)                 # z_i, held there, added last
        # pass 3: every block again from its entry state, row p of each written
        # through out[:, first + p::L]; the last block has rows while p < last
        # and steps while it has a next row
        ends.peaks(peak[0, :, 1:])                         # x_i, stepped into block i >= 1
        for p in range(size):
            states, with_row = (blocks, count) if p < last else (full_blocks, full)
            states.r += rows[p][:, :with_row]
            out[:, first + p::size] = states.r
            if p == size - 1:
                break
            if p < last - 1:                               # every block has a next row
                blocks.step(lay.slabs[p])
                blocks.peaks(peak[p + 1])
            else:
                full_blocks.step(lay.full_slabs[p])
                full_blocks.peaks(peak[p + 1, :, :full])
    _guard_peaks(peak.transpose(1, 2, 0), steps.modes)     # rows in time order from first
    return out


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
    it is O(N M) and guarded like every forward march.  The reversed maps
    are a view, and their block layout lives only as long as this march.
    """
    back = StepMaps(steps.modes, steps.maps[::-1].swapaxes(1, 2))
    seeds = np.zeros((steps.n_nodes, 1))
    seeds[0] = 1.0
    final = np.empty((len(steps.modes), steps.n_nodes))
    _march(back, seeds, final[:, ::-1, None])
    return final


def resolvent_sup(steps: StepMaps) -> float:
    """sup_{n, s<=t} |r_n(t,s)|, the diagonal operator-norm estimate L1.

    One pass over the rows marches every anchor column at once: column k
    joins with r = 1 at row k, and row j's step is the fused step of
    ``_States`` on the columns that have joined, read from maps[j].  Each
    row's per-mode peak is kept for the overflow guard, and L1 is their max
    beside the diagonal r_n(s, s) = 1, without holding the table: O(N M)
    state.
    """
    m_count, n_count = steps.n_nodes, len(steps.modes)
    state = np.zeros((2, n_count, m_count))
    scratch = np.empty((2,) + state.shape)
    r, wide, (lo, hi), abs_r = state[0], state[:, None], scratch, scratch[0, 0]
    peak = np.zeros((n_count, m_count))   # per-mode max |r| of each row
    with np.errstate(over="ignore", invalid="ignore"):
        for j, maps in enumerate(steps.maps[..., None]):
            r[:, j] = 1.0
            joined = slice(0, j + 1)
            np.multiply(maps, wide[..., joined], out=scratch[..., joined])
            np.add(lo[..., joined], hi[..., joined], out=state[..., joined])
            np.abs(r[:, joined], out=abs_r[:, joined]).max(axis=1, out=peak[:, j + 1])
    _guard_peaks(peak, steps.modes)
    return max(1.0, float(peak.max()))


@dataclass(frozen=True)
class ResolventTable:
    """Resolvent columns r_n(t_j, t_k) for every mode at the sorted anchors k.

    data[n - 1, j, i] is r_n(t_j, t_anchors[i]), one march seeded 1 on each
    anchor row: exactly 0 for j < anchors[i] and exactly 1 for j =
    anchors[i].  The march writes a row-major (M, N, K) array and ``data`` is
    its (N, M, K) view, so row j of every column is one contiguous slab.
    The full table (every node an anchor) is the dense reference the tests
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
    seeds = np.equal.outer(np.arange(len(grid)), anchors)
    data = np.empty((len(grid), basis.n_modes, len(anchors))).transpose(1, 0, 2)  # row-major
    _march(step_maps(basis.mode_numbers, linear, grid), seeds, data)
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
    else:   # a step (M-3)/63 > 1 keeps the truncated anchors strictly increasing
        anchors = np.linspace(0, m_count - 3, ANCHOR_BLOCK).astype(int)
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
    bitwise that of a row-by-row loop.  The chunk's arrays are (chunk, N, K),
    read as contiguous slices of the row-major table.
    """
    basis, linear, grid, anchors = table.basis, table.linear, table.grid, table.anchors
    data = table.data.transpose(1, 0, 2)              # (M, N, K), row-major as marched
    nodes = grid.nodes
    m_count = len(nodes)
    n2 = basis.mode_numbers.astype(float)[:, None] ** 2
    tau = linear.tau.value(nodes)
    scale = np.maximum([linear.residual_scale(n, grid.end) for n in basis.mode_numbers], 1e-30)

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
        r_before, r, r_after = data[before], data[rows], data[after]
        cells = decay[before, None, None] * r_before
        cells += r
        cells *= half[before, None, None]
        np.copyto(cells, 0.0, where=~live)
        for row, factor in zip(cells, decay[before].tolist()):
            row += mem * factor                        # the row's mem, in place of its cell
            mem = row
        res = tau[rows, None, None] * r
        res += cells
        res *= n2
        res += (r_after - r_before) / (nodes[after] - nodes[before])[:, None, None]
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

    Each column is compared with the column of anchor 0, which comes first,
    in one (M, N) buffer.
    """
    if not table.linear.autonomous:
        raise UsageError("autonomous reduction requires constant tau "
                         "and a difference kernel")
    if not table.grid.is_uniform():
        raise GridError("autonomous reduction check needs a uniform grid")
    data = table.data.transpose(1, 0, 2)              # (M, N, K)
    diff = np.empty(data.shape[:2])
    dev = 0.0
    for i, k in enumerate(table.anchors):
        part = np.subtract(data[k:, :, i], data[:len(data) - k, :, 0], out=diff[k:])
        dev = max(dev, float(np.max(np.abs(part, out=part))))
    return AutonomyReport(bool(dev <= TOL_AUTO), dev, TOL_AUTO, len(table.anchors))
