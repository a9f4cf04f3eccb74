"""Differential tests for the table-free consumers of the resolvent.

The solver's psi sweep, the Picard seed, the final row r_n(a, t_k) and
L1 = sup |r| run on O(N M) marches of the resolvent recurrence.  The
versions they replaced contracted the dense (N, M, M) table against the
dense prefix-weight matrices; those contractions are kept here, and only
here, as the reference, on the table ``build_resolvent_table`` still builds.

The march is blocked: the rows are cut into blocks of L = ceil(sqrt(M))
and run in three vectorized passes (``mds.spectral``) on the block layout
the StepMaps makes on its first march and keeps.  It is held to the
row-by-row march it replaced, kept here, and only here, as ``row_march``,
and to the elementwise march before that, which ran the predictor-corrector
``_step`` on every row (``elementwise_march``).  Every march steps from row
0, whatever the first seeded row.  A march that reuses a layout must give
the bits of one that makes it afresh.

Bounds, fixed before the first run.  They are running-error bounds (Higham,
Accuracy and Stability, 2nd ed., 3.3).  Let m be the majorant recurrence:
the same step with |kq| in place of kq.  All its 2x2 step coefficients are
then nonnegative and bound the true ones in magnitude, so m(t_j, t_s) >=
|r(t_j, t_s)| and m bounds every intermediate state.  Each computed value
is a sum of products of coefficients and seeds; rounding counts are per
product, each rounding at most eps relative.

The coefficients are ``_step`` applied to the unit states: a11 carries at
most 5 roundings, a12 and a21 7, a22 9.  A row step adds two products and a
sum, so it rounds each term at most 11 times, and adding the row's seed
rounds it once more: j steps of ``row_march`` are off by at most 12 (j + 1)
eps times the majorant sum.  The elementwise march rounds at most 13 times
per step (10 in the r update, 2 more for mem, 1 for the seed).

The blocked march takes a term from its seed to row j through three kinds
of arithmetic.  Inside a block it runs the same row steps and seed
additions, 12 per step.  A block it crosses whole enters through the
block's transfer map: L unit-state steps without seeds (11 L) and then one
product and two sums in the carry (3), against 12 L in the row march.
Entering a block adds the carry's sum and then the block's first seed, 2
where a row step has 1.  So over d = j - s steps a term rounds at most
12 d + 3 c times, with c <= d / L + 1 block boundaries crossed, and L >= 2
whenever there are two blocks: at most 13.5 d + 3 <= 14 (d + 1).  The
blocked march is off by at most 14 (j + 1) eps times the majorant sum, and
a table column by at most 14 (j - s + 1) eps m(t_j, t_s).

- Blocked march against ``row_march``: 14 + 12 = 26 per step, so
  |new - old| <= 26 (j + 1) eps S_j, with S_j the majorant run on |seeds|.
  The bound used is 32 (j + 1) eps S_j.  Exact forms that still hold: the
  first block starts from zero and runs the row steps themselves, so its
  rows equal ``row_march`` bitwise; a unit-seed column is exactly 0 before
  its anchor and exactly 1 on it; L1 is one pass with the row arithmetic, so
  it equals max |row_march table| bitwise.
- Blocked march against the elementwise march: 14 + 13 = 27 per step; the
  bound used is 32 (j + 1) eps S_j.  With no memory (kq = 0) a11 is ex and
  a12 is 0 exactly, so each term is a product of ex factors and seeds: one
  rounding per step and per seed in both marches, plus at most 2 per block
  boundary in the blocked one, at most 5 (j + 1) in all; the bound used is
  6 (j + 1) eps S_j.  ``row_march`` and the elementwise march both reduce
  to r <- ex r there, and must be equal.
- Forced runs against the dense contraction: the forced run's and the table
  column's 13.5 j + 3 each, j + 2 in the contraction and about 4 in the
  closure make at most 28 j + 12 <= 32 (j + 1), in units of eps B_j, with

      B_j = sum_s m(t_j, t_s) |f_s| (|C_s| + |W[j, s]|)

  summed over every forcing f with full-span weights C and prefix rows W
  (zeta0 at s = 0 with weight 1).  The bound used is 32 (j + 1) eps B_j.
- The adjoint final row is the blocked march on the transposed maps, whose
  coefficients carry at most 9 roundings too.  With no seed after its first
  row it rounds at most 11 d + 3 c <= 12.5 d + 3 times over d = M - 1 - k
  steps, against 13.5 d + 3 in the table column: |final - table| <=
  (26 d + 6) eps m(a, t_k) <= 32 (M - k) eps m(a, t_k), the bound used.
- With no memory and tau = 3 - 6t, r(t, 0) = exp(-n^2 3t(1 - t)) <= 1 and
  is its own majorant, so the blocked forced run exceeds 1 by at most
  14 M eps.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mds.spectral
from mds._quad import simpson_prefix_matrix, trapezoid_prefix_matrix
from mds.errors import InstabilityError
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import (JumpMeasure, RegulatedTrajectory, build_time_grid, constant_measure,
                         density_on_grid, lebesgue_measure, zeno_measure)
from mds.scenario import NonlinearityEval
from mds.scenario_io import _SOLVER_ARRAYS
from mds.solver import apply_psi
from mds.spectral import (_OVERFLOW_GUARD, LinearPart, StepMaps, _blocks, _guard_rows, _march,
                          _march_windows, _step, build_resolvent_table, make_basis,
                          resolvent_final_row, resolvent_sums, resolvent_sup, step_maps)

from conftest import assemble_scenario, sample_reports

EPS = np.finfo(float).eps
RUNNING_ULPS = 32.0


def majorant_linear(linear: LinearPart) -> LinearPart:
    """The same tau with the kernel coefficient c0 -> -|c0|, so kq -> |kq|."""
    kernel = linear.kernel
    return LinearPart(linear.tau, MemoryKernel("exp_diff", c0=-abs(kernel.c0),
                                               rate=kernel.rate))


def row_march(steps: StepMaps, seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forced run of the recurrence: out[:, j] = sum_{s<=j} r_n(t_j, t_s) seeds[s].

    The state has the shape of out[:, 0], (N, B); seeds[j] broadcasts to it
    and is added to r at row j, before r is recorded.  Each step is the 2x2
    map of ``steps``, from row 0 on.  A resolvent column is the seed 1 at its
    anchor row: before it r and mem are zero on finite maps, so the column
    is bitwise the same whatever else is marched beside it.  Every written
    row is held to the overflow guard; its InstabilityError carries the row
    it stopped on.
    """
    (a11, a21), (a12, a22) = steps.maps.transpose(1, 2, 0, 3)[..., None]
    m_count = steps.n_nodes
    r = np.zeros(out[:, 0].shape)
    mem = np.zeros_like(r)
    for j in range(m_count):
        r = r + seeds[j]
        out[:, j] = r
        try:
            _guard_rows(out[:, j:j + 1], steps.modes)
        except InstabilityError as exc:
            exc.row = j                 # the row the guard stopped on
            raise
        if j == m_count - 1:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            r, mem = a11[j] * r + a12[j] * mem, a21[j] * r + a22[j] * mem
    return out


def row_table(steps: StepMaps) -> np.ndarray:
    """Every resolvent column by ``row_march``, (N, M, M)."""
    anchors = np.arange(steps.n_nodes)
    return row_march(steps, np.equal.outer(anchors, anchors),
                     np.empty((len(steps.modes), steps.n_nodes, steps.n_nodes)))


def resolvent_columns(steps: StepMaps, anchors: np.ndarray) -> np.ndarray:
    """The resolvent columns of ``anchors`` by ``_march``, (N, M, K): the
    march ``build_resolvent_table`` runs."""
    return _march(steps, np.equal.outer(np.arange(steps.n_nodes), anchors),
                  np.empty((len(steps.modes), steps.n_nodes, len(anchors))))


def elementwise_march(modes, grid, linear, seeds, out):
    """The march ``row_march`` replaced: the elementwise ``_step`` on every row.

    Same contract as ``row_march``: seeds added before recording, every row
    stepped from row 0, every written row guarded.
    """
    d = np.diff(grid.nodes)
    n2 = modes.astype(float)[:, None] ** 2
    ex = np.exp(-n2 * np.diff(linear.tau.antiderivative(grid.nodes)))
    kq, decay = -n2 * linear.kernel.c0, np.exp(-linear.kernel.rate * d)
    ex, d, decay = ex.T[:, :, None], d.tolist(), decay.tolist()
    r = np.zeros(out[:, 0].shape)
    mem = np.zeros_like(r)
    for j in range(len(grid)):
        r = r + seeds[j]
        out[:, j] = r
        _guard_rows(out[:, j:j + 1], modes)
        if j == len(grid) - 1:
            break
        r, mem = _step(r, mem, ex[j], kq, d[j], decay[j])
    return out


def dense_rules(scn):
    """The dense prefix-weight matrices the Scenario used to hold (dt, dh)."""
    nodes = scn.grid.nodes
    dh_rows = trapezoid_prefix_matrix(nodes)
    dh_rows *= density_on_grid(scn.h, scn.grid)
    for i in scn.jump_rows:
        dh_rows[i + 1:, i] += scn.jump_sizes[i]   # jump at t_i acts only for t > t_i
    return simpson_prefix_matrix(nodes), dh_rows


def contract(rows: np.ndarray, data: np.ndarray, f: np.ndarray) -> np.ndarray:
    """out[j, n] = sum_s rows[j, s] r_n(t_j, t_s) f[s, n], one mode at a time."""
    out = np.empty((rows.shape[0], len(data)))
    for n in range(len(data)):
        out[:, n] = (rows * data[n]) @ f[:, n]
    return out


def running_bound(maj: np.ndarray, terms) -> np.ndarray:
    """32 (j + 1) eps B_j per row and mode; terms are (weights C, rows W, f)."""
    total = 0.0
    for full, rows, f in terms:
        total = total + contract(np.abs(full)[None, :] + np.abs(rows), maj, np.abs(f))
    j = np.arange(maj.shape[1])[:, None]
    return RUNNING_ULPS * (j + 1) * EPS * total


coef = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def time_functions(draw):
    kind = draw(st.sampled_from(["const", "affine", "sine", "cosine"]))
    return TimeFunction(kind, c0=draw(st.floats(min_value=-1.0, max_value=3.0)),
                        c1=draw(coef), freq=draw(st.floats(min_value=0.5, max_value=6.0)))


# zero or |c0| >= 1e-3: a rounding bound is relative and cannot hold once the
# memory terms underflow into the subnormal range
kernel_coef = (st.just(0.0) | st.floats(min_value=1e-3, max_value=2.0)
               | st.floats(min_value=-2.0, max_value=-1e-3))


@st.composite
def kernels(draw):
    kind = draw(st.sampled_from(["zero", "const", "exp_diff"]))
    return MemoryKernel(kind, c0=draw(kernel_coef),
                        rate=draw(st.floats(min_value=0.0, max_value=5.0)))


@st.composite
def measures(draw):
    """Uniform grids (no or unit density), Zeno grids, explicit jumps plus density."""
    family = draw(st.sampled_from(["constant", "lebesgue", "zeno", "jumps"]))
    base = draw(st.integers(min_value=3, max_value=100))
    if family == "constant":
        return constant_measure(draw(st.sampled_from([1.0, 2.5]))), base
    if family == "lebesgue":
        return lebesgue_measure(draw(st.sampled_from([1.0, 2.5]))), base
    if family == "zeno":
        return zeno_measure(draw(st.integers(min_value=2, max_value=30))), base
    locs = np.sort(np.array(draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                                          max_size=25, unique=True))))
    assume(np.all(np.diff(locs) > 1e-12))   # closer jumps are refused by the measure
    sizes = np.array([draw(st.floats(min_value=1e-3, max_value=2.0)) for _ in locs])
    level = st.just(0.0) | st.floats(min_value=1e-3, max_value=2.0)
    nodes = np.linspace(0.0, 1.0, 2)
    return JumpMeasure(1.0, nodes, np.array([draw(level), draw(level)]), locs, sizes), base


@settings(max_examples=150, deadline=None)
@given(time_functions(), kernels(), measures(), st.integers(min_value=1, max_value=4),
       st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
def test_march_matches_the_elementwise_march(tau, kernel, measure, n_count, columns, seed):
    grid = build_time_grid(*measure)
    m_count = len(grid)
    modes = np.arange(1, n_count + 1)
    linear = LinearPart(tau, kernel)
    rng = np.random.default_rng(seed)
    anchors = np.arange(m_count)
    if columns:
        # every resolvent column, one seed 1 at each anchor row
        seeds = np.equal.outer(anchors, anchors)
    else:
        # one forced run, unforced before a random first row
        seeds = rng.uniform(-1.0, 1.0, (m_count, n_count, 1))
        seeds[:rng.integers(m_count)] = 0.0
    shape = (n_count, m_count, m_count if columns else 1)
    try:
        old = elementwise_march(modes, grid, linear, seeds, np.empty(shape))
    except InstabilityError as exc:
        with pytest.raises(InstabilityError) as new_exc:
            _march(step_maps(modes, linear, grid), seeds, np.empty(shape))
        assert new_exc.value.mode == exc.mode
        return
    try:
        maj = elementwise_march(modes, grid, majorant_linear(linear), np.abs(seeds),
                                np.empty(shape))
    except InstabilityError:
        assume(False)
    new = _march(step_maps(modes, linear, grid), seeds, np.empty(shape))
    j = np.arange(m_count)[:, None]
    assert np.all(np.abs(new - old) <= RUNNING_ULPS * (j + 1) * EPS * maj)
    if kernel.c0 == 0.0:
        steps = step_maps(modes, linear, grid)
        assert np.array_equal(row_march(steps, seeds, np.empty(shape)), old)
        assert np.all(np.abs(new - old) <= 6.0 * (j + 1) * EPS * maj)
    if columns:
        assert np.all(new[:, anchors, anchors] == 1.0)
        assert np.all(new[:, j < anchors] == 0.0)


@settings(max_examples=120, deadline=None)
@given(time_functions(), kernels(), measures(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_marches_match_the_dense_table(tau, kernel, measure, n_count, seed):
    h, base = measure
    basis = make_basis(n_count)
    linear = LinearPart(tau, kernel)
    grid = build_time_grid(h, base)
    m_count = len(grid)
    try:
        data = build_resolvent_table(basis, linear, grid)
    except InstabilityError:
        # the table guards every entry, and so does the streamed L1
        try:
            resolvent_sup(step_maps(basis.mode_numbers, linear, grid))
        except InstabilityError:
            return
        raise AssertionError("L1 missed an entry over the overflow guard")
    try:
        maj = build_resolvent_table(basis, majorant_linear(linear), grid)
    except InstabilityError:
        assume(False)

    steps = step_maps(basis.mode_numbers, linear, grid)
    rows = row_table(steps)
    assert resolvent_sup(steps) == np.max(np.abs(rows))
    j = np.arange(m_count)[:, None]
    assert np.all(np.abs(data - rows) <= RUNNING_ULPS * (j + 1) * EPS * maj)

    rng = np.random.default_rng(seed)
    zeta0 = rng.uniform(-1.0, 1.0, n_count)
    theta = rng.uniform(0.1, 2.0, n_count)
    c = rng.uniform(-1.0, 1.0, n_count)
    delta = rng.uniform(-1.0, 1.0, (m_count, n_count))
    scn = assemble_scenario(basis, linear, h, base, zeta0, np.zeros(n_count),
                            nonlinearity=NonlinearityEval("table", table=delta),
                            theta=theta)
    c = c / np.abs(scn.final_row).max(axis=1)   # |u_n| <= 1; r_n(a, a) = 1 keeps the max >= 1
    wq_rows, dh_rows = dense_rules(scn)
    first = np.zeros((m_count, n_count))
    first[0] = zeta0
    anchor0 = (np.eye(m_count)[0], np.zeros((m_count, m_count)), first)

    seed_traj = scn.picard_seed.values
    old_seed = data[:, :, 0].T * zeta0
    assert np.all(np.abs(seed_traj - old_seed) <= running_bound(maj, [anchor0]))

    vu = scn.final_row.T * c * theta
    traj = RegulatedTrajectory(scn.grid, seed_traj, scn.jump_rows, seed_traj[scn.jump_rows])
    new = apply_psi(scn, traj, c)
    old = old_seed + contract(wq_rows, data, vu) + contract(dh_rows, data, delta)
    bound = running_bound(maj, [anchor0, (scn.wq_full, wq_rows, vu),
                                (scn.dh_full, dh_rows, delta)])
    assert np.all(np.abs(new.values - old) <= bound)
    jumps = delta[scn.jump_rows] * scn.jump_sizes[scn.jump_rows, None]
    assert np.array_equal(new.right, new.values[scn.jump_rows] + jumps)

    steps_left = (m_count - np.arange(m_count))[None, :]
    assert np.all(np.abs(scn.final_row - data[:, -1, :])
                  <= RUNNING_ULPS * steps_left * EPS * maj[:, -1, :])


def test_demo_marches_match_the_dense_table(demo_scn, demo_solution):
    scn = demo_scn
    data = build_resolvent_table(scn.basis, scn.linear, scn.grid)
    maj = build_resolvent_table(scn.basis, majorant_linear(scn.linear), scn.grid)
    assert resolvent_sup(scn.steps) == np.max(np.abs(data))
    assert resolvent_sup(scn.steps) == np.max(np.abs(row_table(scn.steps)))

    traj = demo_solution.trajectory
    rng = np.random.default_rng(5)
    c = rng.uniform(-1.0, 1.0, scn.n_modes)
    u = scn.final_row.T * c
    vu = u * scn.theta
    delta = scn.delta_values(traj.values)
    g = scn.g_of(traj.values)
    wq_rows, dh_rows = dense_rules(scn)
    new = apply_psi(scn, traj, c).values
    old = (data[:, :, 0].T * (scn.zeta0 - g) + contract(wq_rows, data, vu)
           + contract(dh_rows, data, delta))
    first = np.zeros_like(u)
    first[0] = scn.zeta0 - g
    bound = running_bound(maj, [(np.eye(len(u))[0], np.zeros_like(wq_rows), first),
                                (scn.wq_full, wq_rows, vu), (scn.dh_full, dh_rows, delta)])
    assert np.all(np.abs(new - old) <= bound)
    steps_left = (len(u) - np.arange(len(u)))[None, :]
    assert np.all(np.abs(scn.final_row - data[:, -1, :])
                  <= RUNNING_ULPS * steps_left * EPS * maj[:, -1, :])


def test_final_row_is_guarded():
    # tau = 3 - 6t, no memory: r(t, 0) <= 1 but r(1, 1/2) = exp(n^2 * 0.75)
    basis = make_basis(16)
    linear = LinearPart(TimeFunction("affine", c0=3.0, c1=-6.0), MemoryKernel("zero"))
    grid = build_time_grid(constant_measure(1.0), 257)
    steps = step_maps(basis.mode_numbers, linear, grid)
    first = resolvent_sums(steps, np.eye(len(grid))[:, :1] * np.ones(16))
    assert np.max(np.abs(first)) <= 1.0 + 14 * len(grid) * EPS
    with pytest.raises(InstabilityError) as exc:
        resolvent_final_row(steps)
    assert exc.value.mode == 16


def test_a_march_without_a_seed_writes_zeros_and_steps_nothing():
    # the one march that does not step from row 0: simulate's with zeta0 = 0
    # and no forcing, in one window whatever the window count
    linear = LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero"))
    steps = step_maps(np.arange(1, 3), linear, build_time_grid(constant_measure(1.0), 9))
    out = np.full((2, 9, 3), np.nan)
    assert list(_march_windows(steps, np.zeros((9, 1, 3)), out, 4)) == [(0, 9)]
    assert np.array_equal(out, np.zeros_like(out)) and "layout" not in vars(steps)
    assert np.array_equal(resolvent_sums(steps, np.zeros((9, 2))), np.zeros((9, 2)))


small_grids = st.tuples(st.just(constant_measure(1.0)), st.integers(min_value=3, max_value=5))


@settings(max_examples=150, deadline=None)
@given(time_functions(), kernels(), small_grids | measures(),
       st.integers(min_value=1, max_value=4), st.sampled_from([1, 64]) | st.integers(2, 5),
       st.data())
def test_blocked_march_matches_the_row_march(tau, kernel, measure, n_count, width, data):
    grid = build_time_grid(*measure)
    m_count = len(grid)
    modes = np.arange(1, n_count + 1)
    linear = LinearPart(tau, kernel)
    steps = step_maps(modes, linear, grid)
    first = data.draw(st.integers(min_value=0, max_value=m_count - 1), label="first")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # column 0 starts the march; with two or more columns the last one's first
    # seed is on the last row, inside the last block
    starts = rng.integers(first, m_count, width)
    starts[0], starts[-1] = first, m_count - 1 if width > 1 else first
    unit = rng.random(width) < 0.5          # resolvent columns; the rest are forced
    seeds = np.zeros((m_count, n_count, width))
    for b, start in enumerate(starts):
        if unit[b]:
            seeds[start, :, b] = 1.0
        else:
            seeds[start:, :, b] = rng.uniform(0.5, 1.0, (m_count - start, n_count))
            seeds[start:, :, b] *= rng.choice([-1.0, 1.0], (m_count - start, n_count))
    shape = (n_count, m_count, width)
    try:
        old = row_march(steps, seeds, np.empty(shape))
    except InstabilityError as exc:
        with pytest.raises(InstabilityError) as new_exc:
            _march(steps, seeds, np.empty(shape))
        assert new_exc.value.mode == exc.mode
        return
    try:
        maj = row_march(step_maps(modes, majorant_linear(linear), grid), np.abs(seeds),
                        np.empty(shape))
    except InstabilityError:
        assume(False)
    new = _march(steps, seeds, np.empty(shape))
    j = np.arange(m_count)[:, None]
    assert np.all(np.abs(new - old) <= RUNNING_ULPS * (j + 1) * EPS * maj)
    size = math.isqrt(m_count - 1) + 1          # the first block runs the row steps
    assert np.array_equal(new[:, :size], old[:, :size])
    for b in np.flatnonzero(unit):
        assert np.all(new[:, starts[b], b] == 1.0)
        assert np.all(new[:, :starts[b], b] == 0.0)


@pytest.mark.parametrize("early, late", [(1, 2), (2, 1)])
def test_guard_names_the_mode_of_the_earliest_row(early, late):
    # 101 rows make blocks of L = 11.  The late mode crosses the guard on row 23,
    # the second row of the third block, which the blocked march steps first,
    # and then overflows to inf and NaN.  The early mode is over the guard on
    # row 20 only, the tenth row of the second block, stepped ninth.  L1's pass
    # marches column 0 as the others do, and no column that joins later
    # crosses the guard before row 23.
    m_count = 101
    a11 = np.ones((2, m_count - 1))
    a11[early - 1, 19:21] = 1e13, 1e-13
    a11[late - 1, 22] = 1e13
    a11[late - 1, 23:] = 1e300
    zero = np.zeros_like(a11)
    steps = stacked_maps(np.array([1, 2]), a11, zero, zero, np.ones_like(a11))
    seeds = np.zeros((m_count, 2, 1))
    seeds[0] = 1.0
    for march in (row_march, _march, lambda steps, *_: resolvent_sup(steps)):
        with pytest.raises(InstabilityError) as exc:
            march(steps, seeds, np.empty((2, m_count, 1)))
        assert exc.value.mode == early
    assert guarded_row(steps, seeds, (2, m_count, 1)) == (20, early)


def stacked_maps(modes: np.ndarray, a11, a12, a21, a22) -> StepMaps:
    """StepMaps from its four (N, M-1) coefficient arrays."""
    stacked = np.array([[a11, a21], [a12, a22]], dtype=float).transpose(3, 0, 1, 2)
    return StepMaps(modes, np.ascontiguousarray(stacked))


def adjoint_maps(steps: StepMaps) -> StepMaps:
    """The maps the final row marches: a12 and a21 swapped, rows reversed."""
    (a11, a21), (a12, a22) = steps.maps.transpose(1, 2, 0, 3)      # each (M-1, N)
    return stacked_maps(steps.modes, *(a[::-1].T for a in (a11, a21, a12, a22)))


def over_guard(rows: np.ndarray) -> np.ndarray:
    """Which rows of (N, rows, B) hold a value with |value| >= the guard or a NaN."""
    return ~np.all(np.abs(rows) < _OVERFLOW_GUARD, axis=(0, 2))


def guarded_row(steps: StepMaps, seeds: np.ndarray, shape) -> tuple[int, int]:
    """The row and mode on which ``_march`` meets the overflow guard.

    The row is read from the rows the march hands the guard, its written
    rows in time order from row 0.
    """
    seen = []

    def guard(rows, modes):
        seen.append(rows.copy())
        _guard_rows(rows, modes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mds.spectral, "_guard_rows", guard)
        with pytest.raises(InstabilityError) as exc:
            _march(steps, seeds, np.empty(shape))
    return int(np.argmax(over_guard(seen[0]))), exc.value.mode


def forced_seeds(rng, m_count: int, n_count: int, width: int, first: int) -> np.ndarray:
    """Seeds of magnitude 0.5..1 from row ``first`` on, zero before it; each
    column after the first starts on a random row, half of them as unit
    seeds (resolvent columns)."""
    seeds = np.zeros((m_count, n_count, width))
    starts = rng.integers(first, m_count, width)
    starts[0] = first
    for b, start in enumerate(starts):
        if b and rng.random() < 0.5:
            seeds[start, :, b] = 1.0
        else:
            seeds[start:, :, b] = rng.uniform(0.5, 1.0, (m_count - start, n_count))
            seeds[start:, :, b] *= rng.choice([-1.0, 1.0], (m_count - start, n_count))
    return seeds


# tau = c0 < 0 makes r(t, s) = exp(n^2 |c0| (t - s)): with n up to 4 these
# meet the overflow guard
growing = st.builds(TimeFunction, st.just("const"), c0=st.floats(min_value=-40.0,
                                                                  max_value=-8.0))


@settings(max_examples=120, deadline=None)
@given(time_functions() | growing, kernels(), small_grids | measures(),
       st.integers(min_value=1, max_value=4), st.booleans(), st.data())
def test_marches_on_one_step_maps_reuse_its_layout(tau, kernel, measure, n_count,
                                                    adjoint, data):
    # Several marches on one StepMaps, seeded from one first row, then from
    # the row before and from the first row again: the first march makes the
    # block layout and every later one reuses it, whatever its first seeded
    # row.  Each must equal, bitwise, the same march on fresh maps, and meet
    # the guard on the row and mode the row march meets it on.
    grid = build_time_grid(*measure)
    m_count = len(grid)
    modes = np.arange(1, n_count + 1)
    linear = LinearPart(tau, kernel)

    def maps(linear):
        steps = step_maps(modes, linear, grid)
        return adjoint_maps(steps) if adjoint else steps

    steps = maps(linear)
    first = data.draw(st.integers(min_value=1, max_value=m_count - 1), label="first")
    j = np.arange(m_count)[:, None]
    for start in (first, first, first, first - 1, first):
        width = data.draw(st.integers(min_value=1, max_value=64), label="width")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        seeds = forced_seeds(rng, m_count, n_count, width, start)
        shape = (n_count, m_count, width)
        try:
            old = row_march(steps, seeds, np.empty(shape))
        except InstabilityError as exc:
            assert guarded_row(steps, seeds, shape) == (exc.row, exc.mode)
            assert guarded_row(maps(linear), seeds, shape) == (exc.row, exc.mode)
            continue
        before = vars(steps).get("layout")
        new = _march(steps, seeds, np.empty(shape))
        layout = vars(steps)["layout"]
        assert before is None or layout is before        # reused, not made again
        assert (layout.size, layout.count) == _blocks(m_count)
        assert np.array_equal(new, _march(maps(linear), seeds, np.empty(shape)))
        size = math.isqrt(m_count - 1) + 1
        assert np.array_equal(new[:, :size], old[:, :size])
        try:
            maj = row_march(maps(majorant_linear(linear)), np.abs(seeds), np.empty(shape))
        except InstabilityError:
            continue
        assert np.all(np.abs(new - old) <= RUNNING_ULPS * (j + 1) * EPS * maj)


@pytest.mark.parametrize("m_count, first, n_count, count, last", [
    (2, 0, 1, 1, 2),        # the smallest grid: one block of two rows
    (5, 3, 2, 1, 2),        # 2 rows, no full block
    (5, 4, 3, 1, 1),        # one row and no step, L = 1
    (4, 1, 1, 2, 1),        # a last block of one row
    (9, 1, 1, 3, 2),
    (29, 1, 2, 5, 4),
    (44, 1, 1, 7, 1),       # N = 1, a last block of one row
])
def test_edge_layouts_march_like_fresh_maps_and_rows(m_count, first, n_count, count, last):
    # The march on the steps from row ``first`` of an M-node grid on: the
    # maps of its M - first rows, which the layout cuts into ``count``
    # blocks, the last of ``last`` rows.
    grid = build_time_grid(constant_measure(1.0), m_count)
    linear = LinearPart(TimeFunction("cosine", c0=1.5, c1=0.5, freq=1.0),
                        MemoryKernel("exp_diff", c0=0.7, rate=1.0))
    modes = np.arange(1, n_count + 1)
    rng = np.random.default_rng(m_count)
    forward, majorant = (StepMaps(modes, step_maps(modes, lin, grid).maps[first:])
                         for lin in (linear, majorant_linear(linear)))
    rows = m_count - first
    j = np.arange(rows)[:, None]
    for steps, maj_steps in ((forward, majorant),
                             (adjoint_maps(forward), adjoint_maps(majorant))):
        for width in (1, 5, 64):
            seeds = forced_seeds(rng, rows, n_count, width, 0)
            shape = (n_count, rows, width)
            new = _march(steps, seeds, np.empty(shape))
            layout = steps.layout
            assert (layout.count, layout.last) == (count, last)
            fresh = StepMaps(steps.modes, np.array(steps.maps))
            assert np.array_equal(new, _march(fresh, seeds, np.empty(shape)))
            old = row_march(steps, seeds, np.empty(shape))
            if count == 1:       # one block runs the row steps themselves
                assert np.array_equal(new, old)
            maj = row_march(maj_steps, np.abs(seeds), np.empty(shape))
            assert np.all(np.abs(new - old) <= RUNNING_ULPS * (j + 1) * EPS * maj)


def test_a_sample_march_holds_less_than_one_more_output(resolvent_scn):
    # The verify-resolvent sample at 2048 nodes marched in one window, as the
    # solver's marches run: 64 unit-seed columns, every mode marched at
    # once.  With E the bytes of the stacked entry states
    # (2, N, blocks, 64), the march holds beside ``out``:
    # - the entry states, E, and one step's scratch (2, 2, N, blocks, 64),
    #   2 E, of which the full blocks' scratch is a part: 3 E
    # - the transfer maps (blocks - 1, 2, 2, N); the layout's unit states are
    #   freed before the march's arrays are made
    # - numpy's iteration buffers: a step's broadcast product and a bool seed
    #   added to r are buffered, at most np.getbufsize() doubles for each of
    #   a ufunc's 3 operands
    # - 64 KiB more for the pass-2 carry (2, 2, N, 64), 8 KiB, and the
    #   views of the layout and of the seed rows, about 200 of them
    # At N = 4 that is about 0.82 MB, below the 4.2 MB of one more output.
    steps = step_maps(resolvent_scn.basis.mode_numbers, resolvent_scn.linear,
                      build_time_grid(resolvent_scn.h, 2048))
    m_count, n_count = steps.n_nodes, len(steps.modes)
    anchors = np.unique(np.linspace(0, m_count - 3, 64).astype(int))
    seeds = np.equal.outer(np.arange(m_count), anchors)
    out = np.empty((n_count, m_count, len(anchors)))
    tracemalloc.start()
    try:
        _march(steps, seeds, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "layout" in vars(steps)      # the layout was made inside the traced march
    size = math.isqrt(m_count - 1) + 1
    blocks = -(-m_count // size)
    entry = 2 * n_count * blocks * len(anchors) * 8
    held = 3 * entry + (blocks - 1) * 4 * n_count * 8
    bound = held + 3 * np.getbufsize() * 8 + 64 * 1024
    assert peak < bound < out.nbytes


@settings(max_examples=60, deadline=None)
@given(time_functions() | growing, kernels(), small_grids | measures(),
       st.sampled_from([1, 80]) | st.integers(min_value=2, max_value=80),
       st.sampled_from([1, 5, 64]), st.booleans(), st.booleans(), st.data())
def test_all_modes_march_like_each_mode_alone(tau, kernel, measure, n_count, width,
                                               adjoint, broadcast, data):
    # Passes 1 and 3 step every mode at once on one scratch.  The modes never
    # mix, so each mode's rows, and the rows handed to the guard, are bitwise
    # those of the mode marched alone on its slice of the maps, overflowing
    # modes included.
    grid = build_time_grid(*measure)
    m_count = len(grid)
    steps = step_maps(np.arange(1, n_count + 1), LinearPart(tau, kernel), grid)
    if adjoint:
        steps = adjoint_maps(steps)
    first = data.draw(st.integers(min_value=0, max_value=m_count - 1), label="first")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    seeds = forced_seeds(rng, m_count, 1 if broadcast else n_count, width, first)

    def march(steps, seeds):
        """The march's rows and the rows it hands the guard."""
        handed = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mds.spectral, "_guard_rows",
                          lambda rows, modes: handed.append(rows.copy()))
            out = _march(steps, seeds, np.empty((len(steps.modes), m_count, width)))
        return out, handed[0]

    out, guarded = march(steps, seeds)
    assert np.array_equal(guarded, out, equal_nan=True)
    for i in range(n_count):
        alone = StepMaps(steps.modes[i:i + 1], steps.maps[..., i:i + 1])
        out_i, guarded_i = march(alone, seeds if broadcast else seeds[:, i:i + 1])
        assert np.array_equal(out[i:i + 1], out_i, equal_nan=True)
        assert np.array_equal(guarded[i:i + 1], guarded_i, equal_nan=True)


def test_verify_resolvent_holds_one_window_of_the_sample(resolvent_scn):
    # verify-resolvent at 2048 nodes, N = 4 and K = 64 anchors: L = 46-row
    # blocks, 45 of them, in ceil(64 / 12) = 6 windows of 8 blocks.  Beside
    # the step maps (M - 1, 2, 2, N) it holds:
    # - the window of 368 rows and its 2-row halo, (370, N, K)
    # - the march's entry states E = (2, N, blocks, K) and their 2 E
    #   scratch, its transfer maps and the seeds (M, K) as bools
    # - the anchor-0 column (M, N) and a (window rows, N) difference buffer
    # - the PDE check's chunks of ceil(sqrt(M - 2)) = 46 rows: cells,
    #   residuals, the central differences, formed in place, and the previous
    #   chunk's cells, which hold the memory sums; tau, d, decay and half on
    #   the nodes
    # - numpy's iteration buffers, at most np.getbufsize() doubles for each of
    #   a ufunc's 3 operands, and 64 KiB for the carry and the views
    # That is about 2.5 MB, below the 4.2 MB of the whole (M, N, K) sample.
    grid = build_time_grid(resolvent_scn.h, 2048)
    m_count, n_count, k_count = len(grid), resolvent_scn.basis.n_modes, 64
    size = math.isqrt(m_count - 1) + 1
    blocks = -(-m_count // size)
    windows = -(-k_count // _SOLVER_ARRAYS)
    rows = -(-blocks // windows) * size
    assert (size, blocks, windows, rows) == (46, 45, 6, 368)
    window = 8 * (rows + 2) * n_count * k_count
    march = (8 * (m_count - 1) * 4 * n_count + 3 * 8 * 2 * n_count * blocks * k_count
             + 8 * (blocks - 1) * 4 * n_count + m_count * k_count)
    checks = (8 * m_count * n_count + 8 * rows * n_count
              + 4 * 8 * size * n_count * k_count + 4 * 8 * m_count)
    bound = window + march + checks + 3 * np.getbufsize() * 8 + 64 * 1024
    tracemalloc.start()
    try:
        sample_reports(resolvent_scn.basis, resolvent_scn.linear, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert window < peak < bound < 8 * m_count * n_count * k_count


@settings(max_examples=60, deadline=None)
@given(time_functions() | growing, kernels(), small_grids | measures(),
       st.integers(min_value=1, max_value=4), st.sampled_from([1, 64]) | st.integers(2, 5),
       st.booleans(), st.data())
def test_windows_join_to_the_one_window_march(tau, kernel, measure, n_count, width,
                                              adjoint, data):
    # Pass 3 run window by window hands out the rows of the one-window march
    # in time order, bitwise, for every window count from 1 to the block
    # count and one past it, and hands the guard those rows.  With the guard
    # on, an overflowing march raises in the window that holds the earliest
    # row not below the guard, naming the same mode.
    grid = build_time_grid(*measure)
    m_count = len(grid)
    steps = step_maps(np.arange(1, n_count + 1), LinearPart(tau, kernel), grid)
    if adjoint:
        steps = adjoint_maps(steps)
    first = data.draw(st.integers(min_value=0, max_value=m_count - 1), label="first")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    seeds = forced_seeds(rng, m_count, n_count, width, first)
    shape = (n_count, m_count, width)

    def windows(count):
        """The windows' rows joined, and the rows they hand the guard."""
        parts, handed = [], []
        out = np.empty(shape)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mds.spectral, "_guard_rows",
                          lambda rows, modes: handed.append(rows.copy()))
            for start, stop in _march_windows(steps, seeds, out, count):
                assert start == sum(part.shape[1] for part in parts)
                parts.append(out[:, :stop - start].copy())
        return np.concatenate(parts, axis=1), np.concatenate(handed, axis=1)

    rows, guarded = windows(1)
    assert np.array_equal(guarded, rows, equal_nan=True)
    size, blocks = _blocks(m_count)
    for count in range(2, blocks + 2):
        rows_w, guarded_w = windows(count)
        assert np.array_equal(rows_w, rows, equal_nan=True)
        assert np.array_equal(guarded_w, rows, equal_nan=True)
    over = over_guard(rows)                                    # rows 0.. in time order
    if not over.any():
        return
    row = int(np.argmax(over))
    with pytest.raises(InstabilityError) as one:
        _march(steps, seeds, np.empty(shape))
    for count in range(2, blocks + 2):
        stops = []
        with pytest.raises(InstabilityError) as exc:
            for _, stop in _march_windows(steps, seeds, np.empty(shape), count):
                stops.append(stop)
        per = -(-blocks // count)
        assert exc.value.mode == one.value.mode
        assert (stops[-1] if stops else 0) <= row < (len(stops) + 1) * per * size


def raising_window(steps: StepMaps, seeds: np.ndarray, shape, count: int):
    """The rows start..stop-1 of the window whose guard raises when ``_march_windows``
    runs in ``count`` windows, and the mode it names."""
    starts = [0]

    def guard(rows, modes):
        starts.append(starts[-1] + rows.shape[1])
        _guard_rows(rows, modes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mds.spectral, "_guard_rows", guard)
        with pytest.raises(InstabilityError) as exc:
            for _ in _march_windows(steps, seeds, np.empty(shape), count):
                pass
    return starts[-2], starts[-1], exc.value.mode


@pytest.mark.parametrize("row", [0, 50, 100])
def test_a_seed_that_reaches_the_guard_raises_on_its_row(row):
    # 101 rows (blocks of 11) and three modes, each step r <- r with no memory
    # but the step from ``row``, which is 0: the value the seed put on that
    # row is never stepped into a later one.  Every row is seeded with
    # 0.5..1, and mode 2 of column 1 with the guard on ``row``, so that row is
    # the only one over the guard, in every window count.
    m_count = 101
    a11 = np.ones((3, m_count - 1))
    a11[:, row:row + 1] = 0.0
    zero = np.zeros_like(a11)
    steps = stacked_maps(np.array([1, 2, 3]), a11, zero, zero, np.ones_like(a11))
    seeds = np.random.default_rng(row).uniform(0.5, 1.0, (m_count, 3, 2))
    seeds[row, 1, 1] = _OVERFLOW_GUARD
    shape = (3, m_count, 2)
    assert guarded_row(steps, seeds, shape) == (row, 2)
    for count in range(1, 11):
        start, stop, mode = raising_window(steps, seeds, shape, count)
        assert start <= row < stop and mode == 2


@settings(max_examples=80, deadline=None)
@given(time_functions() | growing, kernels(), small_grids | measures(),
       st.integers(min_value=1, max_value=4), st.sampled_from([1, 64]) | st.integers(2, 5),
       st.booleans(), st.data())
def test_the_guard_raises_on_the_earliest_written_row_over_it(tau, kernel, measure, n_count,
                                                             width, adjoint, data):
    # A march raises if and only if a row it writes holds a value with
    # |value| >= the guard or a NaN.  For every window count it raises in the
    # window that holds the earliest such row, naming the mode with the
    # largest max |value| on that row (the first on a tie or a NaN).
    grid = build_time_grid(*measure)
    m_count = len(grid)
    steps = step_maps(np.arange(1, n_count + 1), LinearPart(tau, kernel), grid)
    if adjoint:
        steps = adjoint_maps(steps)
    first = data.draw(st.integers(min_value=0, max_value=m_count - 1), label="first")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    seeds = forced_seeds(rng, m_count, n_count, width, first)
    shape = (n_count, m_count, width)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mds.spectral, "_guard_rows", lambda rows, modes: None)
        rows = _march(steps, seeds, np.empty(shape))
    over = over_guard(rows)
    blocks = _blocks(m_count)[1]
    if not over.any():
        for count in range(1, blocks + 2):
            for _ in _march_windows(steps, seeds, np.empty(shape), count):
                pass
        return
    row = int(np.argmax(over))
    mode = steps.modes[np.argmax(np.abs(rows[:, row]).max(axis=-1))]
    for count in range(1, blocks + 2):
        start, stop, named = raising_window(steps, seeds, shape, count)
        assert start <= row < stop and named == mode
