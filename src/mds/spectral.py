"""Dirichlet sine basis and the diagonalized resolvent family R(t,s).

Each mode n solves the scalar Volterra integrodifferential equation

    r'(t) = -n^2 tau(t) r(t) - n^2 int_s^t G(t,u) r(u) du,   r(s) = 1,

and R(t,s) acts diagonally with factors r_n(t,s).  The stepper is a
trapezoid predictor-corrector whose local propagation uses the exact
factor exp(-n^2 int tau), so the stiff diagonal part carries no
quadrature error; only the memory integral is approximated.  Every
catalog kernel is one exponential c0 exp(-rate (t-s)), so each column's
trapezoid memory integral is carried as state and updated by an exact
one-term recurrence.

The step is linear in the column state (r, mem) and does not depend on the
anchor: for each mode it is one 2x2 map.  ``step_maps`` stacks them row by
row, shape (M-1, 2, 2, N), so that step j reads one contiguous slab; a
Scenario holds them for the whole run.  One routine, ``_march_windows``,
steps forward: a resolvent column is the run seeded with 1 at its anchor
row, and a sum of columns against weights is one run seeded with those
weights (``resolvent_sums``, the psi sweep).

The march is a two-level blocked scan (Blelloch, "Prefix sums and their
applications", 1990).  Every march starts at row 0: the rows 0..M-1 are cut
into blocks of L = ceil(sqrt(M)) rows, block i starting at row i L; only the
last block can be short.  Three passes replace the loop over rows:

1. Every full block runs its seeded columns from a zero state, vectorized
   across blocks (row p of every block is one step), to its forced end
   state z_i.
2. One short pass over the block boundaries gives each block's state on
   entry: x_0 = 0 and x_{i+1} = T_i x_i + z_i, with T_i the block's 2x2
   transfer map.
3. Every block runs again from its entry state and writes its rows through
   strided views.  This pass can run over consecutive windows of whole
   blocks, which hands the rows out in time order, one window at a time.

That is about 2 sqrt(M) vectorized steps and sqrt(M) boundary steps
instead of M row steps, and L more steps for each window past the first.
A column is stepped from row 0 whatever its first seed: before it r and
mem stay 0 on finite maps, so a unit-seed column is exactly 0 before its
anchor and exactly 1 on it.  A march with no nonzero seed writes zeros
and steps nothing.  After each window the overflow guard reads the rows
the march wrote, seeds added: the earliest row in time with a value not
below it names the mode.  The first march on a StepMaps makes its block layout, a
cached property: the views maps[p::L] of the steps from row p of every
block, and each full block's T_i, from the unit states (1, 0) and (0, 1)
run alone through it.  A step is one fused update of the stacked state
(2, N, blocks, B): one broadcast product into a (2, 2, N, blocks, B)
scratch and one sum of its halves, so r = a11 r + a12 mem and mem = a21 r
+ a22 mem.  Pass 1 leaves each z_i in the array of entry states, where
pass 2 turns it into x_{i+1} in place.  A march holds its entry states and
a scratch twice their size beside its rows.

The first block runs the row steps themselves and the second enters with
x_1 = T_0 x_0 + z_0 = z_0, so their rows are bitwise those of the march
that steps every row; later blocks enter through another sum of the same
terms (a demo column at 1025 nodes moves by up to 1.2e-15).  Columns are stepped
apart, so T_i from the unit states alone is the T_i they gave beside the
seeds, and a window steps a slice of the blocks with the same arithmetic:
no row depends on the window count.

The final row r_n(a, .) is the discrete adjoint: the same march on the
transposed maps with the rows reversed.  The subdiagonal r_n(t_{j+1}, t_j)
is a11 itself.  L1 = sup |r| is one pass over the rows that marches every
anchor column at once in O(N M) state, refused over a budget of
entry-steps.  verify-resolvent (``mds.verify``) marches its sampled
columns in windows of about as many floats as the solver's (M, N) arrays.
So no command holds more than O(N M) floats beside a march's
O(N sqrt(M) B) entry states; the full (N, M, M) table is built only as a
reference for tests.
"""

from __future__ import annotations

import math
import os
from functools import cached_property

import numpy as np

from ._quad import trapezoid_prefix_matrix  # noqa: F401 -- wrapped by bench/tracer.py
from .errors import GridError, InstabilityError, UsageError
from .funcs import MemoryKernel, TimeFunction
from .measure import TimeGrid
from .record import Record, read_only

MAX_MODES = 256             # modes a basis may have, and so a document
_OVERFLOW_GUARD = 1e12
# entry-steps N M^2 / 2 the L1 pass may take: about 100 s at the 6 ns an
# entry-step took on a 2-core host (6.4 s for 8 modes at 16386 nodes), and
# exactly what 8 modes take at 65536 nodes
L1_ENTRY_STEPS = 2 ** 34


def physical_memory() -> int:
    """Bytes of physical memory, the limit of every byte budget."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class SpectralBasis(Record):
    """Sine eigenbasis e_n(x) = sqrt(2/pi) sin(n x) on (0, pi), n = 1..N.

    Built from the mode count N and the collocation count J alone
    (``make_basis`` checks both).  ``synthesis`` maps mode coefficients to
    values at the collocation nodes ``x``; ``analysis`` maps values back via
    the quadrature ``weights``.  With the default J = 2N+1 uniform interior
    nodes the discrete inner products reproduce orthonormality exactly.
    ``synthesis`` is (J, N) and ``analysis`` (N, J); the four arrays are
    cached properties, formed on first read and read-only, so a command that
    never leaves mode space (verify-resolvent, a linear steer) forms none.
    """

    def __init__(self, n_modes: int, collocation: int):
        self.n_modes, self.collocation = n_modes, collocation

    @cached_property
    def x(self) -> np.ndarray:
        j = np.arange(1, self.collocation + 1)
        return read_only(j * math.pi / (self.collocation + 1))

    @cached_property
    def weights(self) -> np.ndarray:
        return read_only(np.full(self.collocation, math.pi / (self.collocation + 1)))

    @cached_property
    def synthesis(self) -> np.ndarray:
        return read_only(math.sqrt(2.0 / math.pi) * np.sin(np.outer(self.x, self.mode_numbers)))

    @cached_property
    def analysis(self) -> np.ndarray:
        return read_only(self.synthesis.T * self.weights)

    @property
    def mode_numbers(self) -> np.ndarray:
        return np.arange(1, self.n_modes + 1)

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.synthesis.T

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) @ self.analysis.T


def make_basis(n_modes: int, collocation: int | None = None) -> SpectralBasis:
    if not 1 <= n_modes <= MAX_MODES:
        raise UsageError(f"mode count must be in 1..{MAX_MODES}, got {n_modes}")
    j_count = 2 * n_modes + 1 if collocation is None else collocation
    if j_count < n_modes:
        raise UsageError("need at least as many collocation nodes as modes")
    return SpectralBasis(n_modes, j_count)


class LinearPart(Record):
    """Time coefficient tau(t) and memory kernel G(t,s) of the linear part."""

    def __init__(self, tau: TimeFunction, kernel: MemoryKernel):
        self.tau, self.kernel = tau, kernel

    @property
    def autonomous(self) -> bool:
        # catalog kernels all depend on t-s only, so autonomy is decided by tau
        return self.tau.kind == "const"

    def residual_scale(self, horizon: float) -> float:
        """Magnitude of the stiff terms over n^2; n^2 times it scales mode n's PDE residuals."""
        return self.tau.sup_abs(horizon) + horizon * self.kernel.sup_abs(horizon)


class StepMaps(Record):
    """The step coefficients of the recurrence, stacked: ``maps`` is (M-1, 2, 2, N).

    Step j maps the column state at row j to row j+1,

        r <- a11 r + a12 mem,   mem <- a21 r + a22 mem,

    with maps[j, k, i] the coefficient of component k of the state (r, mem)
    in component i of the next, so that step j reads one contiguous slab
    maps[j]: a11 = maps[:, 0, 0], a12 = maps[:, 1, 0], a21 = maps[:, 0, 1]
    and a22 = maps[:, 1, 1].  The step is the same for every column, so a11
    is also the subdiagonal r_n(t_{j+1}, t_j).  ``modes`` are the mode
    numbers, which the overflow guard names; both arrays are read-only.
    ``layout``, the block layout every march on these maps runs on, is made
    by the first of them.
    """

    def __init__(self, modes: np.ndarray, maps: np.ndarray):
        modes.setflags(write=False)
        maps.setflags(write=False)
        self.modes, self.maps = modes, maps

    @property
    def n_nodes(self) -> int:
        return len(self.maps) + 1

    @property
    def a11(self) -> np.ndarray:
        """The subdiagonal r_n(t_{j+1}, t_j), (N, M-1)."""
        return self.maps[:, 0, 0].T

    @cached_property
    def layout(self) -> _BlockLayout:
        """The blocks of every march on these maps.  Its views cost nothing,
        and T_i holds 4 N sqrt(M) floats."""
        size, count = _blocks(self.n_nodes)
        full = count - 1
        slabs = [self.maps[p::size].transpose(1, 2, 3, 0)[..., None] for p in range(size)]
        full_slabs = [slab[..., :full, :] for slab in slabs]
        unit = np.zeros((2, len(self.modes), full, 2))  # column k starts as the unit state k
        unit[0, :, :, 0] = unit[1, :, :, 1] = 1.0
        states = _States(unit, np.empty((2,) + unit.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            for slab in full_slabs:
                states.step(slab)
        transfer = np.ascontiguousarray(unit.transpose(2, 3, 0, 1)[..., None])
        return _BlockLayout(size, count, self.n_nodes - full * size, slabs, full_slabs,
                            transfer)


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


def _guard_rows(rows: np.ndarray, modes: np.ndarray) -> None:
    """The overflow guard on rows (N, rows, B), in time order along axis 1.

    A row is over the guard when a value on it has |value| >= the guard, or
    is NaN.  The earliest such row raises InstabilityError naming the mode
    with the largest max |value| on it (the first on a tie or a NaN).  When
    every value is inside, one max and one min find it, with no temporary.
    """
    if rows.max() < _OVERFLOW_GUARD and rows.min() > -_OVERFLOW_GUARD:
        return
    peak = np.abs(rows).max(axis=-1)
    row = np.argmin(np.all(peak < _OVERFLOW_GUARD, axis=0))
    raise InstabilityError(int(modes[np.argmax(peak[:, row])]), _OVERFLOW_GUARD)


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

    def step(self, maps: np.ndarray) -> None:
        np.multiply(maps, self.wide, out=self.scratch)
        np.add(self.lo, self.hi, out=self.state)


class _BlockLayout(Record):
    """The blocks of every march on one StepMaps (``StepMaps.layout``).

    The rows 0..M-1 are cut into ``count`` blocks of L = ``size`` rows,
    block i starting at row i L; only the last can be short, with ``last``
    rows.  ``slabs[p]`` is the maps of the step from row p of every block
    that has one, a (2, 2, N, blocks, 1) view of the stacked maps (no
    copy), and ``full_slabs[p]`` its full blocks' part.  ``transfer[b]`` is
    full block b's 2x2 transfer map T_b, in the same order: the unit states
    (1, 0) and (0, 1) stepped alone through the block.  The slabs are L
    views, (2, 2, N, blocks, 1) and (2, 2, N, count - 1, 1); ``transfer`` is
    (count - 1, 2, 2, N, 1), read-only.
    """

    def __init__(self, size: int, count: int, last: int, slabs: list, full_slabs: list,
                 transfer: np.ndarray):
        transfer.setflags(write=False)
        self.size, self.count, self.last = size, count, last
        self.slabs, self.full_slabs, self.transfer = slabs, full_slabs, transfer


def _blocks(rows: int) -> tuple[int, int]:
    """The block length L = ceil(sqrt(rows)) of a march over ``rows`` rows and its
    block count."""
    size = math.isqrt(rows - 1) + 1
    return size, -(-rows // size)


def _march(steps: StepMaps, seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forced run of the recurrence: out[:, j] = sum_{s<=j} r_n(t_j, t_s) seeds[s].

    ``_march_windows`` in one window, which writes every row of ``out``.
    """
    for _ in _march_windows(steps, seeds, out, 1):
        pass
    return out


def _march_windows(steps: StepMaps, seeds: np.ndarray, out: np.ndarray, windows: int):
    """Forced run of the recurrence, handed out in time order window by window.

    Row j is sum_{s<=j} r_n(t_j, t_s) seeds[s]: the state has the shape of
    out[:, 0], (N, B), and seeds[j] broadcasts to it and is added to r at
    row j, before r is recorded.  With no nonzero seed every row is zero and
    none is stepped.  The three passes run on ``steps.layout`` (see the
    module docstring), pass 3 over consecutive windows of ceil(blocks /
    ``windows``) whole blocks.  A window's rows start..stop-1 are written to
    out[:, :stop - start], held to the overflow guard (``_guard_rows``) and
    yielded as (start, stop); the next window overwrites them, so ``out``
    holds the longest window's rows.  The rows, and the row the guard
    raises on, do not depend on the window count.
    """
    m_count = steps.n_nodes
    seeds = np.reshape(seeds, (len(seeds), -1, np.shape(seeds)[-1]))   # (M, N or 1, B)
    if not seeds.any():
        out[...] = 0.0
        yield 0, m_count
        return
    lay = steps.layout
    size, count, last, full = lay.size, lay.count, lay.last, lay.count - 1
    n_count, width = out.shape[0], out.shape[2]
    # the state of block i on entry, x_i, in entry[:, :, i]; pass 1 leaves
    # full block i's forced end state z_i in entry[:, :, i + 1] for pass 2
    entry = np.zeros((2, n_count, count, width))
    scratch = np.empty(4 * n_count * count * width)

    def states(lo: int, hi: int) -> _States:
        """Blocks lo..hi-1, stepped on a contiguous part of the scratch."""
        part = scratch[:4 * n_count * (hi - lo) * width]
        return _States(entry[:, :, lo:hi], part.reshape((2, 2, n_count, hi - lo, width)))

    ends = states(1, count)
    rows = [seeds[p::size].transpose(1, 0, 2) for p in range(size)]
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
    per = -(-count // windows)
    for b0 in range(0, count, per):
        # pass 3 on blocks b0..b1-1: every block again from its entry state,
        # row p of each written through out[:, p::L]; a window's last block
        # has rows while p < ends_at and steps while it has a next row
        b1 = min(b0 + per, count)
        start, stop = b0 * size, min(b1 * size, m_count)
        ends_at = last if b1 == count else size
        blocks, full_blocks = states(b0, b1), states(b0, min(b1, full))
        slabs = [slab[..., b0:b1, :] for slab in lay.slabs]
        full_slabs = [slab[..., b0:, :] for slab in lay.full_slabs]
        with np.errstate(over="ignore", invalid="ignore"):
            for p in range(size):
                part, with_row = (blocks, b1) if p < ends_at else (full_blocks, full)
                part.r += rows[p][:, b0:with_row]
                out[:, p:stop - start:size] = part.r
                if p == size - 1:
                    break
                if p < ends_at - 1:                        # every block has a next row
                    blocks.step(slabs[p])
                else:
                    full_blocks.step(full_slabs[p])
        _guard_rows(out[:, :stop - start], steps.modes)
        yield start, stop


def resolvent_sums(steps: StepMaps, seeds: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Row j of the result is sum_{s<=j} r_n(t_j, t_s) seeds[s, n], shape (M, N).

    One forced run of the recurrence, O(N M): no resolvent column is formed.
    """
    # out (M, N), when given, may be seeds itself: the one-window march reads
    # each seed row before it writes that row, and never reads it again
    if out is None:
        return _march(steps, seeds[:, :, None],
                      np.empty((len(steps.modes), steps.n_nodes, 1)))[:, :, 0].T
    _march(steps, seeds[:, :, None], out.T[:, :, None])
    return out


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
    final.setflags(write=False)
    return final


def resolvent_sup(steps: StepMaps) -> float:
    """sup_{n, s<=t} |r_n(t,s)|, the diagonal operator-norm estimate L1.

    One pass over the rows marches every anchor column at once: column k
    joins with r = 1 at row k, and row j's step is the fused step of
    ``_States`` on the columns that have joined, read from maps[j].  Each
    row's per-mode peak is kept, and the overflow guard reads the peaks as
    rows of one column; L1 is their max beside the diagonal r_n(s, s) = 1,
    without holding the table: O(N M) state.  So L1 is the max over
    row-stepped entries, not the blocked march's; on every shipped config
    it is the diagonal's 1.0.  The pass takes N M^2 / 2 entry-steps; over
    L1_ENTRY_STEPS it is refused before it starts.
    """
    m_count, n_count = steps.n_nodes, len(steps.modes)
    work = n_count * m_count * m_count // 2
    if work > L1_ENTRY_STEPS:
        raise GridError(f"the L1 pass over {m_count} nodes x {n_count} modes takes about "
                        f"{work:.3g} entry-steps, more than the budget of "
                        f"{L1_ENTRY_STEPS:.3g}")
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
    _guard_rows(peak[:, :, None], steps.modes)
    return max(1.0, float(peak.max()))


def build_resolvent_table(basis: SpectralBasis, linear: LinearPart,
                          grid: TimeGrid) -> np.ndarray:
    """The full table r_n(t_j, t_k), (N, M, M) read-only: the tests' dense reference.

    Column k is one march seeded 1 on row k, so it is exactly 0 before row k
    and exactly 1 on it; the march writes it row-major.  No command calls
    it; it stays while bench/tracer.py wraps and builds it.
    """
    anchors = np.arange(len(grid))
    data = np.empty((len(grid), basis.n_modes, len(grid))).transpose(1, 0, 2)  # row-major
    _march(step_maps(basis.mode_numbers, linear, grid), np.equal.outer(anchors, anchors), data)
    data.setflags(write=False)
    return data
