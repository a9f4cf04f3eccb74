from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mds.errors import GridError, InstabilityError, UsageError
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import build_time_grid, constant_measure
from mds.spectral import LinearPart, build_resolvent_table, make_basis, resolvent_sup, step_maps
from mds.verify import sample_anchors

from conftest import sample_reports
from test_forced_resolvent import resolvent_columns


def _grid(nodes: int, end: float = 1.0):
    return build_time_grid(constant_measure(end), nodes)


def _const_linear(tau0: float, g0: float = 0.0) -> LinearPart:
    kernel = MemoryKernel("zero") if g0 == 0.0 else MemoryKernel("const", c0=g0)
    return LinearPart(TimeFunction("const", c0=tau0), kernel)


def solve_mode_resolvent(n: int, anchor: int, linear: LinearPart,
                         grid) -> np.ndarray:
    """r_n(t_j, t_anchor) on the whole grid (zeros before the anchor row)."""
    return resolvent_columns(step_maps(np.array([n]), linear, grid),
                             np.array([anchor]))[0, :, 0]


def second_order_oracle(n: int, tau0: float, g0: float, t: np.ndarray) -> np.ndarray:
    """Independent closed form for constant tau and constant kernel.

    Differentiating the mode equation once gives y'' = a y' + b y with
    a = -n^2 tau0, b = -n^2 g0, y(0) = 1, y'(0) = a; solved by the
    characteristic roots mu = (a +- sqrt(a^2+4b)) / 2.
    """
    a = -float(n * n) * tau0
    b = -float(n * n) * g0
    root = cmath.sqrt(a * a + 4.0 * b)
    mu_p = (a + root) / 2.0
    mu_m = (a - root) / 2.0
    if mu_p == mu_m:
        return np.real((1.0 + (a - mu_p) * t) * np.exp(mu_p * t))
    c_p = (a - mu_m) / (mu_p - mu_m)
    out = c_p * np.exp(mu_p * np.asarray(t, dtype=complex)) \
        + (1.0 - c_p) * np.exp(mu_m * np.asarray(t, dtype=complex))
    return np.real(out)


# ---------------------------------------------------------------- basis

def test_basis_discrete_orthonormality_is_exact():
    basis = make_basis(8)
    gram = basis.analysis @ basis.synthesis
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_basis_orthonormality_any_mode_count(n_modes):
    basis = make_basis(n_modes)
    gram = basis.analysis @ basis.synthesis
    assert np.max(np.abs(gram - np.eye(n_modes))) < 1e-10


def test_basis_round_trip_through_collocation():
    basis = make_basis(6)
    coeffs = np.array([1.0, -0.5, 0.25, 0.0, 0.125, -2.0])
    assert np.allclose(basis.to_modes(basis.to_physical(coeffs)), coeffs, atol=1e-12)


def test_basis_guards():
    with pytest.raises(UsageError):
        make_basis(0)
    with pytest.raises(UsageError):
        make_basis(257)
    with pytest.raises(UsageError):
        make_basis(8, collocation=4)


# ---------------------------------------------------------------- evolution factor
# The stepper's diffusion factor over [s, t] is exp(-n^2 (F(t) - F(s))) with F
# the antiderivative of tau, so these checks hold F to its closed form.

def _factor(n: int, s: float, t: float, tau: TimeFunction) -> float:
    return math.exp(-float(n * n) * float(tau.antiderivative(t) - tau.antiderivative(s)))


def test_antiderivative_constant_tau():
    tau = TimeFunction("const", c0=1.0)
    assert _factor(1, 0.3, 0.4, tau) == pytest.approx(math.exp(-0.1), rel=1e-14)


def test_antiderivative_vanishes_at_zero():
    for kind in ("const", "affine", "sine", "cosine"):
        assert TimeFunction(kind, c0=2.0, c1=0.5, freq=3.0).antiderivative(0.0) == 0.0


def test_antiderivative_affine_tau():
    tau = TimeFunction("affine", c0=0.0, c1=2.0)     # integral over [0,1] is 1
    assert _factor(2, 0.0, 1.0, tau) == pytest.approx(math.exp(-4.0), rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
def test_antiderivative_composition_law(r_off, t_off):
    tau = TimeFunction("cosine", c0=1.5, c1=0.5)
    s, r, t = 0.1, 0.1 + r_off, 0.1 + r_off + t_off
    whole = _factor(2, s, t, tau)
    split = _factor(2, r, t, tau) * _factor(2, s, r, tau)
    assert split == pytest.approx(whole, rel=1e-12)


# ---------------------------------------------------------------- mode resolvent

def test_pure_ode_mode_matches_exponential():
    grid = _grid(257)
    for n in (1, 2, 3):
        r = solve_mode_resolvent(n, 0, _const_linear(1.0), grid)
        assert np.max(np.abs(r - np.exp(-n * n * grid.nodes))) < 1e-6


def test_constant_kernel_matches_two_root_oracle():
    grid = _grid(1025)
    for n, tau0, g0 in [(1, 1.0, -0.2), (2, 1.5, -0.2), (3, 1.0, -0.2)]:
        r = solve_mode_resolvent(n, 0, _const_linear(tau0, g0), grid)
        oracle = second_order_oracle(n, tau0, g0, grid.nodes)
        assert np.max(np.abs(r - oracle)) < 1e-6


def test_interior_anchor_starts_at_one():
    grid = _grid(65)
    r = solve_mode_resolvent(2, 17, _const_linear(1.5, -0.2), grid)
    assert r[17] == 1.0
    assert np.all(r[:17] == 0.0)
    oracle = second_order_oracle(2, 1.5, -0.2, grid.nodes[17:] - grid.nodes[17])
    assert np.max(np.abs(r[17:] - oracle)) < 1e-4


def test_oracle_error_shrinks_second_order():
    errs = []
    for nodes in (257, 513):
        grid = _grid(nodes)
        r = solve_mode_resolvent(3, 0, _const_linear(1.5, -0.2), grid)
        errs.append(np.max(np.abs(r - second_order_oracle(3, 1.5, -0.2, grid.nodes))))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.0


def test_growth_beyond_guard_raises_with_mode():
    grid = _grid(129)
    linear = _const_linear(-40.0)      # e^{40 n^2 t} passes 1e12 well before t=1
    with pytest.raises(InstabilityError) as exc:
        build_resolvent_table(make_basis(3), linear, grid)
    assert exc.value.mode in (1, 2, 3)


# ---------------------------------------------------------------- full table

def test_table_diagonal_is_exactly_one():
    grid = _grid(129)
    table = build_resolvent_table(make_basis(4), _const_linear(1.0, -0.2), grid)
    for n in range(4):
        assert np.all(np.diag(table[n]) == 1.0)


def test_table_vanishes_below_the_anchor():
    grid = _grid(65)
    table = build_resolvent_table(make_basis(3), _const_linear(1.0, -0.2), grid)
    for n in range(3):
        assert np.all(table[n][np.tril_indices(65, k=-1)[::-1]] == 0.0)


def test_table_matches_single_anchor_solves():
    grid = _grid(97)
    linear = LinearPart(TimeFunction("cosine", c0=1.5, c1=0.5),
                        MemoryKernel("exp_diff", c0=0.1, rate=1.0))
    table = build_resolvent_table(make_basis(3), linear, grid)
    for n, k in [(1, 0), (2, 31), (3, 64)]:
        single = solve_mode_resolvent(n, k, linear, grid)
        assert np.max(np.abs(table[n - 1, :, k] - single)) < 1e-13


def test_contraction_config_has_unit_sup():
    grid = _grid(129)
    table = build_resolvent_table(make_basis(4), _const_linear(1.0), grid)
    assert np.max(np.abs(table)) == 1.0
    assert resolvent_sup(step_maps(np.arange(1, 5), _const_linear(1.0), grid)) == 1.0


def test_successive_node_continuity_bound():
    grid = _grid(257)
    table = build_resolvent_table(make_basis(4),
                                  LinearPart(TimeFunction("const", c0=1.0),
                                             MemoryKernel("exp_diff", c0=1.0, rate=1.0)),
                                  grid)
    dt = grid.nodes[1] - grid.nodes[0]
    diffs = np.abs(np.diff(table[:, :, 0], axis=1)).max()
    # |r'| <= n^2 (sup tau + a sup G) * sup|r| = 32 here
    assert diffs <= 40.0 * dt


# ---------------------------------------------------------------- verification

def test_pde_residual_passes_on_smooth_config(resolvent_scn):
    scn = resolvent_scn
    report, _ = sample_reports(scn.basis, scn.linear, scn.grid, tol_pde=1e-3)
    assert report.passed
    assert report.max_scaled_residual <= 1e-3
    assert report.anchors_checked <= 64


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=67, max_value=65536))
@example(67)
@example(65536)
def test_sampled_anchors_are_strictly_increasing(m_count):
    # From 67 nodes the 64 anchors are linspace(0, M - 3, 64) truncated.  Its
    # step (M - 3) / 63 is above 1, so no two anchors coincide and np.unique
    # (which imports numpy.ma) would change nothing.
    anchors = sample_anchors(m_count)
    assert len(anchors) == 64 and anchors[0] == 0 and anchors[-1] == m_count - 3
    assert np.all(np.diff(anchors) > 0)
    assert np.array_equal(anchors, np.unique(anchors))


def test_pde_residual_on_coarse_grid_is_finite_only():
    report, _ = sample_reports(make_basis(2), _const_linear(1.0, -0.2), _grid(16), tol_pde=1e-3)
    assert math.isfinite(report.max_scaled_residual)
    assert report.max_scaled_residual > 1e-5   # visibly coarser than 512 nodes


def test_pde_residual_needs_an_interior_node():
    linear = LinearPart(TimeFunction("const", c0=1.0),
                        MemoryKernel("exp_diff", c0=1.0, rate=1.0))
    with pytest.raises(GridError):
        sample_reports(make_basis(2), linear, _grid(2))
    report, _ = sample_reports(make_basis(2), linear, _grid(3))
    # one residual point
    assert report.anchors_checked == 1
    assert math.isfinite(report.max_raw_residual) and report.max_raw_residual > 0.0


def test_autonomous_reduction_difference_kernel():
    _, report = sample_reports(
        make_basis(4),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("exp_diff", c0=1.0, rate=1.0)),
        _grid(257))
    assert report.passed
    assert report.max_deviation <= 1e-6


def test_autonomous_reduction_pure_ode_is_machine_exact():
    _, report = sample_reports(make_basis(3), _const_linear(1.0), _grid(129))
    assert report.max_deviation <= 1e-8


def _never(*args):
    raise AssertionError("the autonomy check ran")


def test_autonomous_reduction_is_skipped_for_time_dependence():
    linear = LinearPart(TimeFunction("affine", c0=1.0, c1=1.0), MemoryKernel("zero"))
    report, auto = sample_reports(make_basis(2), linear, _grid(33), autonomy_check=_never)
    assert auto is None and report.anchors_checked == 31


def test_autonomous_reduction_is_skipped_on_a_nonuniform_grid():
    from mds.measure import zeno_measure
    grid = build_time_grid(zeno_measure(5), 65)
    assert not grid.is_uniform()
    report, auto = sample_reports(make_basis(2), _const_linear(1.0), grid,
                                  autonomy_check=_never)
    assert auto is None and report.anchors_checked == len(sample_anchors(len(grid)))
