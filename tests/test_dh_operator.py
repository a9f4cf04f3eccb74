"""Differential tests for the Scenario's single Stieltjes (dh) operator.

``dh_rows`` must reproduce the measure-level references ``ls_integral`` and
``cumulative`` row by row, and the solver's and the steering residual's dh
terms must match the per-jump computation that the operator replaced (kept
here, and only here, as the reference).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mds import (JumpMeasure, LinearPart, MemoryKernel, NonlinearityEval,
                 NonlocalEval, RegulatedTrajectory, TimeFunction, apply_psi,
                 assemble_scenario, cumulative, density_on_grid, ls_integral,
                 make_basis, steering_residual, zeno_measure)
from mds._quad import trapezoid_prefix_matrix, trapezoid_weights

EPS = np.finfo(float).eps
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


# ---------------------------------------------------------------- operator vs measure references

@settings(max_examples=60, deadline=None)
@given(measures, st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
def test_dh_rows_match_ls_integral_and_cumulative(measure, vector, seed):
    h, base = measure
    scn = _scenario(h, base)
    grid = scn.grid
    rng = np.random.default_rng(seed)
    f = rng.uniform(-2.0, 2.0, (len(grid), 3) if vector else len(grid))
    ops = scn.dh_rows @ f
    tol = TOL_ULPS * EPS * (np.abs(scn.dh_rows) @ np.abs(f))
    running = cumulative(f, h, grid).values
    assert np.all(np.abs(ops - running) <= tol)
    for j, t in enumerate(grid.nodes):
        ref = ls_integral(f, h, grid, 0.0, float(t))
        assert np.all(np.abs(ops[j] - ref) <= tol[j])


def test_zero_density_dh_rows_hold_only_jump_columns():
    scn = _scenario(zeno_measure(20), 65)
    expected = np.zeros_like(scn.dh_rows)
    for i in scn.jump_rows:
        expected[i + 1:, i] = scn.jump_sizes[i]     # jump at t_i counts only for t > t_i
    assert np.array_equal(scn.dh_rows, expected)


# ---------------------------------------------------------------- consumers vs the per-jump reference

def _reference_psi_dh(scn, delta):
    """The dh term of psi as computed before the shared operator existed."""
    data = scn.resolvent().data
    density = density_on_grid(scn.h, scn.grid)
    forced = delta * density[:, None]
    values = np.einsum("js,njs,sn->jn", trapezoid_prefix_matrix(scn.grid.nodes),
                       data, forced, optimize=True)
    for i in scn.jump_rows:
        contrib = data[:, :, i].T * (delta[i] * scn.jump_sizes[i])
        contrib[:i + 1] = 0.0
        values = values + contrib
    return values


def _reference_terminal_dh(scn, delta):
    """int_[0,a) R(a,s) delta(s) dh(s) as computed before the shared operator."""
    final = scn.resolvent().final_row()
    density = density_on_grid(scn.h, scn.grid)
    acc = (final * (delta * density[:, None]).T) @ trapezoid_weights(scn.grid.nodes)
    for i in scn.jump_rows:
        acc = acc + final[:, i] * delta[i] * scn.jump_sizes[i]
    return acc


def _check_consumers(scn, values):
    """apply_psi and steering_residual against the references, zeta0 = zeta1 = g = 0.

    With those zero, psi's left values are exactly its dh term and the
    steering residual is exactly minus its dh term.
    """
    traj = RegulatedTrajectory(scn.grid, values, values)
    delta = scn.delta_values(values)
    data = scn.resolvent().data
    scale = np.einsum("js,njs,sn->jn", np.abs(scn.dh_rows), np.abs(data),
                      np.abs(delta), optimize=True)
    got = apply_psi(scn, traj).values
    assert np.all(np.abs(got - _reference_psi_dh(scn, delta)) <= TOL_ULPS * EPS * scale)
    p = steering_residual(scn, traj)
    assert np.all(np.abs(-p - _reference_terminal_dh(scn, delta))
                  <= TOL_ULPS * EPS * scale[-1])


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
