"""Differential tests for the Scenario's single Stieltjes (dh) rule.

The rule is held in O(M): row j of the dh operator is ``dh_full`` on the
columns before j and ``dh_diag[j]`` on the diagonal.  Those rows must equal
the dense operator the Scenario used to build, bitwise, and reproduce the
measure-level references ``ls_integral`` and ``cumulative`` row by row.  The
solver's and the steering residual's dh terms must match the per-jump
computation that the operator replaced (kept here, and only here, as the
reference): the dense contraction to 64 ulps, the recurrence that replaced
it to the running-error bound of ``test_forced_resolvent``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mds import (JumpMeasure, LinearPart, MemoryKernel, NonlinearityEval,
                 NonlocalEval, RegulatedTrajectory, TimeFunction, apply_psi,
                 density_on_grid, make_basis, steering_residual, zeno_measure)
from mds._quad import trapezoid_prefix_matrix, trapezoid_weights
from mds.spectral import build_resolvent_table

from conftest import assemble_scenario
from test_forced_resolvent import EPS, RUNNING_ULPS, dense_rules, majorant_linear
from test_measure import cumulative, ls_integral

# fixed before any run: 64 ulps of the absolute-value sum of each product
TOL_ULPS = 64.0


@st.composite
def zeno_measures(draw):
    return zeno_measure(draw(st.integers(min_value=2, max_value=60))), \
        draw(st.integers(min_value=5, max_value=65))


@st.composite
def explicit_measures(draw):
    """Constant or affine density plus jumps within half a base step of a base node."""
    base = draw(st.integers(min_value=5, max_value=65))
    end = draw(st.sampled_from([1.0, 2.5]))
    step = end / (base - 1)
    near = st.sampled_from([0.0, 0.2, -0.3, 0.44, -0.45, 0.46, -0.49, 0.499])
    picks = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=base - 2),
                  near | st.floats(min_value=-0.499, max_value=0.499),
                  st.floats(min_value=1e-3, max_value=2.0)),
        max_size=12, unique_by=lambda p: p[0]))
    picks.sort()
    locs = np.array([(k + frac) * step for k, frac, _ in picks])
    sizes = np.array([size for _, _, size in picks])
    # end values zero or >= 1e-3: a ulp bound is relative and cannot hold
    # once products underflow into the subnormal range
    level = st.just(0.0) | st.floats(min_value=1e-3, max_value=2.0)
    v0 = draw(level)
    v1 = v0 if draw(st.booleans()) else draw(level)
    nodes = np.linspace(0.0, end, base)
    values = np.maximum(v0 + (v1 - v0) / end * nodes, 0.0)
    return JumpMeasure(end, nodes, values, locs, sizes), base


measures = zeno_measures() | explicit_measures()


def _scenario(h, base, n_modes=1, **kw):
    return assemble_scenario(
        make_basis(n_modes),
        LinearPart(TimeFunction("const", c0=1.0),
                   MemoryKernel("exp_diff", c0=0.1, rate=1.0)),
        h, base, np.zeros(n_modes), np.zeros(n_modes), **kw)


def dh_rows(scn) -> np.ndarray:
    """The dense dh operator spelled out from the Scenario's O(M) rule."""
    m_count = len(scn.grid)
    rows = np.tril(np.broadcast_to(scn.dh_full, (m_count, m_count)), k=-1)
    rows[np.diag_indices(m_count)] = scn.dh_diag
    return rows


# ---------------------------------------------------------------- operator vs measure references

@settings(max_examples=60, deadline=None)
@given(measures)
def test_dh_rule_rows_equal_the_dense_operator(measure):
    h, base = measure
    scn = _scenario(h, base)
    assert np.array_equal(dh_rows(scn), dense_rules(scn)[1])


@settings(max_examples=60, deadline=None)
@given(measures, st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
def test_dh_rows_match_ls_integral_and_cumulative(measure, vector, seed):
    h, base = measure
    scn = _scenario(h, base)
    grid = scn.grid
    rng = np.random.default_rng(seed)
    f = rng.uniform(-2.0, 2.0, (len(grid), 3) if vector else len(grid))
    rows = dh_rows(scn)
    ops = rows @ f
    tol = TOL_ULPS * EPS * (np.abs(rows) @ np.abs(f))
    running = cumulative(f, h, grid).values
    assert np.all(np.abs(ops - running) <= tol)
    for j, t in enumerate(grid.nodes):
        ref = ls_integral(f, h, grid, 0.0, float(t))
        assert np.all(np.abs(ops[j] - ref) <= tol[j])


def test_zero_density_dh_rows_hold_only_jump_columns():
    scn = _scenario(zeno_measure(20), 65)
    expected = np.zeros((len(scn.grid), len(scn.grid)))
    for i in scn.jump_rows:
        expected[i + 1:, i] = scn.jump_sizes[i]     # jump at t_i counts only for t > t_i
    assert np.array_equal(dh_rows(scn), expected)


# ---------------------------------------------------------------- consumers vs the per-jump reference

def _reference_psi_dh(scn, data, delta):
    """The dh term of psi as computed before the shared operator existed."""
    density = density_on_grid(scn.h, scn.grid)
    forced = delta * density[:, None]
    values = np.einsum("js,njs,sn->jn", trapezoid_prefix_matrix(scn.grid.nodes),
                       data, forced, optimize=True)
    for i in scn.jump_rows:
        contrib = data[:, :, i].T * (delta[i] * scn.jump_sizes[i])
        contrib[:i + 1] = 0.0
        values = values + contrib
    return values


def _reference_terminal_dh(scn, data, delta):
    """int_[0,a) R(a,s) delta(s) dh(s) as computed before the shared operator."""
    final = data[:, -1, :]
    density = density_on_grid(scn.h, scn.grid)
    acc = (final * (delta * density[:, None]).T) @ trapezoid_weights(scn.grid.nodes)
    for i in scn.jump_rows:
        acc = acc + final[:, i] * delta[i] * scn.jump_sizes[i]
    return acc


def _check_consumers(scn, values):
    """apply_psi and steering_residual against the references, zeta0 = zeta1 = g = 0.

    With those zero, psi's left values are exactly its dh term and the
    steering residual is exactly minus its dh term.  The dense contraction
    over the operator's rows matches the per-jump reference to 64 ulps of
    its absolute terms; the recurrence and the adjoint final row match the
    dense contraction to the running-error bound.
    """
    traj = RegulatedTrajectory(scn.grid, values, values)
    delta = scn.delta_values(values)
    data = build_resolvent_table(scn.basis, scn.linear, scn.grid)
    maj = build_resolvent_table(scn.basis, majorant_linear(scn.linear), scn.grid)
    rows = dense_rules(scn)[1]
    scale = np.einsum("js,njs,sn->jn", np.abs(rows), np.abs(data),
                      np.abs(delta), optimize=True)
    dense = np.einsum("js,njs,sn->jn", rows, data, delta, optimize=True)
    assert np.all(np.abs(dense - _reference_psi_dh(scn, data, delta))
                  <= TOL_ULPS * EPS * scale)
    majsum = np.einsum("js,njs,sn->jn", np.abs(scn.dh_full)[None, :] + np.abs(rows),
                       maj, np.abs(delta), optimize=True)
    steps = np.arange(1, len(scn.grid) + 1)[:, None]
    running = RUNNING_ULPS * steps * EPS * majsum
    got = apply_psi(scn, traj).values
    assert np.all(np.abs(got - dense) <= running)
    p = steering_residual(scn, traj)
    terminal = _reference_terminal_dh(scn, data, delta)
    assert np.all(np.abs(dense[-1] - terminal) <= TOL_ULPS * EPS * scale[-1])
    # the adjoint row is off by 32 (M - s) eps m(a, s) per column and both sums
    # round M times more; |C| + |W| = 2 |W| off the diagonal leaves room for both
    assert np.all(np.abs(-p - dense[-1]) <= running[-1])


def test_psi_dh_term_matches_per_jump_reference_on_demo(demo_scn, demo_solution):
    n = demo_scn.n_modes
    scn = dataclasses.replace(demo_scn, zeta0=np.zeros(n), zeta1=np.zeros(n),
                              nonlocal_term=NonlocalEval("zero"))
    _check_consumers(scn, demo_solution.trajectory.values)


@settings(max_examples=25, deadline=None)
@given(measures, st.integers(min_value=0, max_value=2**32 - 1))
def test_psi_dh_term_matches_per_jump_reference(measure, seed):
    h, base = measure
    scn = _scenario(h, base, n_modes=3,
                    nonlinearity=NonlinearityEval("cosine", amplitude=0.7))
    rng = np.random.default_rng(seed)
    _check_consumers(scn, rng.uniform(-1.0, 1.0, (len(scn.grid), 3)))
