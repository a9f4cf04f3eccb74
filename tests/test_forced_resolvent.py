"""Differential tests for the table-free consumers of the resolvent.

The solver's psi sweep, the Picard seed, the final row r_n(a, t_k) and
L1 = sup |r| run on O(N M) marches of the resolvent recurrence.  The
versions they replaced contracted the dense (N, M, M) table against the
dense prefix-weight matrices; those contractions are kept here, and only
here, as the reference, on the table ``build_resolvent_table`` still builds.

The march itself is held to the elementwise march it replaced, which ran
the predictor-corrector ``_step`` on every row; that march is kept here, and
only here, as ``elementwise_march``.

Bounds, fixed before the first run.  L1 is a max over bitwise-equal columns,
so it must be equal.  The others add in another order, so they are held to a
running-error bound (Higham, Accuracy and Stability, 2nd ed., 3.3).  Let m
be the majorant recurrence: the same step with |kq| in place of kq.  All its
2x2 step coefficients are then nonnegative and bound the true ones in
magnitude, so m(t_j, t_s) >= |r(t_j, t_s)| and m bounds every intermediate
state.  Rounding counts are per term, each rounding at most eps relative.

The march steps with the 2x2 coefficients, which are ``_step`` applied to
the unit states: a11 carries at most 5 roundings, a12 and a21 7, a22 9.
Two products and a sum add 2, so one step rounds each term at most 9 times
in the r update and 11 in mem, and the seed adds 1: j steps of a forced run
are off by at most 12 (j + 1) eps times the majorant sum, and a table column
by at most 11 (j - s) eps m(t_j, t_s).  The elementwise march rounds at most
13 times per step (10 in the r update, 2 more for mem, 1 for the seed).

- March against the elementwise march: 12 + 13 = 25 per step, so
  |new - old| <= 25 (j + 1) eps S_j, with S_j the majorant run on |seeds|.
  The bound used is 32 (j + 1) eps S_j.  With no memory (kq = 0) both
  reduce to r <- ex r exactly and must be equal.
- Forced runs against the dense contraction: the forced run's 12 (j + 1),
  the table column's 11 j, j + 2 in the contraction and about 4 in the
  closure make at most 26 (j + 1) eps B_j, with

      B_j = sum_s m(t_j, t_s) |f_s| (|C_s| + |W[j, s]|)

  summed over every forcing f with full-span weights C and prefix rows W
  (zeta0 at s = 0 with weight 1).  The bound used is 32 (j + 1) eps B_j.
- The adjoint final row takes 2 roundings per backward step on coefficients
  that carry at most 9, against 11 per step in the table column, so
  |final - table| <= 22 (M - k) eps m(a, t_k); the bound used is 32.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mds import (InstabilityError, JumpMeasure, LinearPart, MemoryKernel,
                 NonlinearityEval, RegulatedTrajectory, TimeFunction, apply_psi,
                 assemble_scenario, build_resolvent_table, build_time_grid,
                 constant_measure, density_on_grid, initial_iterate,
                 lebesgue_measure, make_basis, zeno_measure)
from mds._quad import simpson_prefix_matrix, trapezoid_prefix_matrix
from mds.spectral import (_guard, _march, _step, resolvent_final_row, resolvent_sums,
                          resolvent_sup, step_maps)

EPS = np.finfo(float).eps
RUNNING_ULPS = 32.0


def majorant_linear(linear: LinearPart) -> LinearPart:
    """The same tau with the kernel coefficient c0 -> -|c0|, so kq -> |kq|."""
    kernel = linear.kernel
    return LinearPart(linear.tau, MemoryKernel("exp_diff", c0=-abs(kernel.c0),
                                               rate=kernel.rate))


def elementwise_march(modes, grid, linear, seeds, out):
    """The march ``_march`` replaced: the elementwise ``_step`` on every row.

    Same contract as ``_march``: seeds added before recording, rows before
    the first nonzero seed not stepped, every state guarded.
    """
    d = np.diff(grid.nodes)
    n2 = modes.astype(float)[:, None] ** 2
    ex = np.exp(-n2 * np.diff(linear.tau.antiderivative(grid.nodes)))
    kq, decay = -n2 * linear.kernel.c0, np.exp(-linear.kernel.rate * d)
    ex, d, decay = ex.T[:, :, None], d.tolist(), decay.tolist()
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
        r, mem = _step(r, mem, ex[j], kq, d[j], decay[j])
        _guard(r, modes)
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
    if kernel.is_zero:
        assert np.array_equal(new, old)
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
        data = build_resolvent_table(basis, linear, grid).data
    except InstabilityError:
        # the table guards every entry, and so does the streamed L1
        try:
            resolvent_sup(step_maps(basis.mode_numbers, linear, grid))
        except InstabilityError:
            return
        raise AssertionError("L1 missed an entry over the overflow guard")
    try:
        maj = build_resolvent_table(basis, majorant_linear(linear), grid).data
    except InstabilityError:
        assume(False)

    assert resolvent_sup(step_maps(basis.mode_numbers, linear, grid)) == np.max(np.abs(data))

    rng = np.random.default_rng(seed)
    zeta0 = rng.uniform(-1.0, 1.0, n_count)
    theta = rng.uniform(0.1, 2.0, n_count)
    u = rng.uniform(-1.0, 1.0, (m_count, n_count))
    delta = rng.uniform(-1.0, 1.0, (m_count, n_count))
    scn = assemble_scenario(basis, linear, h, base, zeta0, np.zeros(n_count),
                            nonlinearity=NonlinearityEval("table", table=delta),
                            theta=theta)
    wq_rows, dh_rows = dense_rules(scn)
    first = np.zeros((m_count, n_count))
    first[0] = zeta0
    anchor0 = (np.eye(m_count)[0], np.zeros((m_count, m_count)), first)

    seed_traj = initial_iterate(scn).values
    old_seed = data[:, :, 0].T * zeta0
    assert np.all(np.abs(seed_traj - old_seed) <= running_bound(maj, [anchor0]))

    vu = u * theta
    traj = RegulatedTrajectory(scn.grid, seed_traj, seed_traj)
    new = apply_psi(scn, traj, u)
    old = old_seed + contract(wq_rows, data, vu) + contract(dh_rows, data, delta)
    bound = running_bound(maj, [anchor0, (scn.wq_full, wq_rows, vu),
                                (scn.dh_full, dh_rows, delta)])
    assert np.all(np.abs(new.values - old) <= bound)
    jumps = delta[scn.jump_rows] * scn.jump_sizes[scn.jump_rows, None]
    assert np.array_equal(new.right_values[scn.jump_rows], new.values[scn.jump_rows] + jumps)

    steps_left = (m_count - np.arange(m_count))[None, :]
    assert np.all(np.abs(scn.final_row - data[:, -1, :])
                  <= RUNNING_ULPS * steps_left * EPS * maj[:, -1, :])


def test_demo_marches_match_the_dense_table(demo_scn, demo_solution):
    scn = demo_scn
    data = build_resolvent_table(scn.basis, scn.linear, scn.grid).data
    maj = build_resolvent_table(scn.basis, majorant_linear(scn.linear), scn.grid).data
    assert resolvent_sup(scn.steps) == np.max(np.abs(data))

    traj = demo_solution.trajectory
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.0, 1.0, traj.values.shape)
    vu = u * scn.theta
    delta = scn.delta_values(traj.values)
    g = scn.g_of(traj.values)
    wq_rows, dh_rows = dense_rules(scn)
    new = apply_psi(scn, traj, u).values
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
    assert np.max(np.abs(first)) == 1.0
    with pytest.raises(InstabilityError) as exc:
        resolvent_final_row(steps)
    assert exc.value.mode == 16
