from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mds import (DomainError, GridError, JumpMeasure, RegulatedTrajectory,
                 TimeGrid, UsageError, build_time_grid, constant_measure,
                 cumulative, jump_sizes_on_grid, ls_integral, zeno_measure)


def _unit_jump(loc: float = 0.5, size: float = 1.0) -> JumpMeasure:
    return JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                       np.array([loc]), np.array([size]))


# ---------------------------------------------------------------- construction

def test_zeno_has_exactly_k_jumps_and_half_mass():
    h = zeno_measure(20)
    assert len(h.jump_locs) == 20
    assert h.total_jump_mass() == 0.5


def test_zeno_jump_locations_accumulate_below_one():
    h = zeno_measure(20)
    assert np.all(np.diff(h.jump_locs) > 0)
    assert h.jump_locs[-1] == 1.0 - 1.0 / 21.0
    assert h.jump_locs[0] == 0.5


def test_zeno_needs_at_least_two_terms():
    with pytest.raises(UsageError):
        zeno_measure(1)


def test_jump_outside_open_interval_rejected():
    # within the node-matching tolerance of an end a jump would resolve to it
    for loc in (0.0, 1.0, 1e-13, 1.0 - 1e-13):
        with pytest.raises(DomainError):
            _unit_jump(loc=loc)


def test_decreasing_jump_locations_rejected():
    # one ulp apart, both jumps would resolve to the same grid node
    for locs in ([0.6, 0.4], [0.3, np.nextafter(0.3, 1.0)]):
        with pytest.raises(UsageError):
            JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                        np.array(locs), np.array([1.0, 1.0]))


def test_negative_density_rejected():
    with pytest.raises(UsageError):
        JumpMeasure(1.0, np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                    np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------- mass

def test_affine_density_cumulative():
    # density 2t -> h(1) - h(0) = 1
    nodes = np.linspace(0.0, 1.0, 401)
    h = JumpMeasure(1.0, nodes, 2.0 * nodes, np.zeros(0), np.zeros(0))
    assert h.density_mass() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- grids

def test_grid_contains_every_jump_node_exactly():
    h = zeno_measure(20)
    grid = build_time_grid(h, 129)
    for loc in h.jump_locs:
        assert loc in grid.nodes
    assert np.count_nonzero(jump_sizes_on_grid(h, grid)) == 20


def test_grid_drops_base_nodes_colliding_with_jumps():
    h = _unit_jump(0.5 + 1e-4)
    grid = build_time_grid(h, 11)      # base spacing 0.1; 0.5 is dropped
    assert 0.5 not in grid.nodes
    assert 0.5 + 1e-4 in grid.nodes
    assert len(grid) == 11


def test_grid_keeps_endpoints():
    h = _unit_jump(1e-4)
    grid = build_time_grid(h, 5)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 1.0


def test_node_index_tolerance_and_failure():
    grid = build_time_grid(zeno_measure(5), 65)
    loc = 1.0 - 1.0 / 3.0
    # 1 - 1/3 and 2/3 differ by one ulp; both must resolve to the jump node
    assert grid.nodes[grid.node_index(2.0 / 3.0)] == loc
    with pytest.raises(GridError):
        grid.node_index(0.1234567)


def test_jump_sizes_on_grid_alignment():
    h = zeno_measure(10)
    grid = build_time_grid(h, 65)
    sizes = jump_sizes_on_grid(h, grid)
    assert math.fsum(sizes) == h.total_jump_mass()
    assert np.all((sizes > 0) == np.isin(grid.nodes, h.jump_locs))


# ---------------------------------------------------------------- integration

def test_ls_integral_of_one_is_total_mass():
    h = zeno_measure(20)
    grid = build_time_grid(h, 65)
    assert ls_integral(np.ones(len(grid)), h, grid, 0.0, 1.0) == 0.5


def test_ls_integral_half_open_window():
    h = _unit_jump(0.5)
    grid = build_time_grid(h, 9)
    f = np.ones(len(grid))
    # jump at the lower endpoint counts, at the upper endpoint it does not
    assert ls_integral(f, h, grid, 0.5, 1.0) == 1.0
    assert ls_integral(f, h, grid, 0.0, 0.5) == 0.0


def test_ls_integral_uses_left_values_at_jumps():
    h = _unit_jump(0.5, 2.0)
    grid = build_time_grid(h, 9)
    f = np.where(grid.nodes < 0.5, 3.0, 7.0)
    i = grid.node_index(0.5)
    f[i] = 3.0                     # left value at the jump node
    assert ls_integral(f, h, grid, 0.0, 1.0) == 6.0


def test_ls_integral_vector_valued():
    h = _unit_jump(0.5)
    grid = build_time_grid(h, 9)
    f = np.stack([np.ones(len(grid)), 2.0 * np.ones(len(grid))], axis=1)
    out = ls_integral(f, h, grid, 0.0, 1.0)
    assert out.shape == (2,)
    assert np.allclose(out, [1.0, 2.0])


def test_ls_integral_window_errors():
    h = zeno_measure(5)
    grid = build_time_grid(h, 33)
    f = np.ones(len(grid))
    with pytest.raises(UsageError):
        ls_integral(f, h, grid, 0.5, 0.25)
    with pytest.raises(GridError):
        ls_integral(f, h, grid, 0.0, 0.1234567)
    with pytest.raises(GridError):
        ls_integral(np.ones(7), h, grid, 0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=62), st.integers(min_value=0, max_value=9))
def test_ls_integral_additive_over_adjacent_windows(split, seed):
    h = zeno_measure(12)
    grid = build_time_grid(h, 52)
    rng = np.random.default_rng(seed)
    f = rng.uniform(-2.0, 2.0, len(grid))
    split = min(split, len(grid) - 2)
    tm = float(grid.nodes[split])
    whole = ls_integral(f, h, grid, 0.0, 1.0)
    parts = ls_integral(f, h, grid, 0.0, tm) + ls_integral(f, h, grid, tm, 1.0)
    assert parts == pytest.approx(whole, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=9))
def test_ls_integral_monotone_for_nonnegative_integrand(seed):
    h = zeno_measure(8)
    grid = build_time_grid(h, 40)
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 3.0, len(grid))
    vals = [ls_integral(f, h, grid, 0.0, float(t)) for t in grid.nodes[1:]]
    assert vals[0] >= 0.0
    assert np.all(np.diff(vals) >= -1e-15)


# ---------------------------------------------------------------- cumulative

def test_cumulative_right_value_identity_is_bitwise():
    h = zeno_measure(20)
    grid = build_time_grid(h, 65)
    rng = np.random.default_rng(3)
    f = rng.uniform(-1.0, 1.0, len(grid))
    sizes = jump_sizes_on_grid(h, grid)
    traj = cumulative(f, h, grid)
    for j in np.where(sizes > 0)[0]:
        assert traj.right_values[j] == traj.values[j] + f[j] * sizes[j]


def test_cumulative_agrees_with_ls_integral_at_nodes():
    h = zeno_measure(10)
    grid = build_time_grid(h, 48)
    rng = np.random.default_rng(11)
    f = rng.uniform(-1.0, 1.0, len(grid))
    traj = cumulative(f, h, grid)
    for j in (1, 7, 19, len(grid) - 1):
        ref = ls_integral(f, h, grid, 0.0, float(grid.nodes[j]))
        assert traj.values[j] == pytest.approx(ref, abs=1e-12)


def test_cumulative_of_unit_jump_is_a_step():
    h = _unit_jump(0.5)
    grid = build_time_grid(h, 9)
    traj = cumulative(np.ones(len(grid)), h, grid)
    i = grid.node_index(0.5)
    assert np.all(traj.values[:i + 1] == 0.0)
    assert traj.right_values[i] == 1.0
    assert np.all(traj.values[i + 1:] == 1.0)


def test_cumulative_respects_start_time():
    h = _unit_jump(0.25)
    grid = build_time_grid(h, 9)
    traj = cumulative(np.ones(len(grid)), h, grid, t0=0.5)
    i = grid.node_index(0.5)
    assert np.all(traj.values[:i + 1] == 0.0)
    assert traj.values[-1] == 0.0      # no density, jump was before t0


# ---------------------------------------------------------------- trajectories

def test_trajectory_sup_norm_covers_right_values():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    vals = np.zeros((3, 2))
    right = vals.copy()
    right[1] = [3.0, 4.0]
    traj = RegulatedTrajectory(grid, vals, right)
    assert traj.sup_norm() == 5.0


def test_trajectory_shape_mismatch_rejected():
    grid = TimeGrid(np.array([0.0, 1.0]))
    with pytest.raises(GridError):
        RegulatedTrajectory(grid, np.zeros((3, 2)), np.zeros((3, 2)))


def test_constant_measure_integrates_to_zero():
    h = constant_measure(2.0)
    grid = build_time_grid(h, 17)
    assert ls_integral(np.ones(17), h, grid, 0.0, 2.0) == 0.0
