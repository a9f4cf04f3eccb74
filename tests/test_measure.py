from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mds.errors import DomainError, GridError, UsageError
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import (JumpMeasure, RegulatedTrajectory, TimeGrid, _location_tol,
                         build_time_grid, constant_measure, density_on_grid, jump_rows_on_grid,
                         zeno_measure)
from mds.scenario import NonlinearityEval, NonlocalEval, Scenario, Tolerances
from mds.spectral import LinearPart, make_basis


def node_index(grid: TimeGrid, t: float) -> int:
    """Index of the node equal to t (within tolerance); GridError otherwise."""
    i = int(np.searchsorted(grid.nodes, t))
    tol = _location_tol(grid.end)
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(grid.nodes) and abs(grid.nodes[j] - t) <= tol:
            return j
    raise GridError(f"t={t!r} is not a grid node")


def _samples_for(grid: TimeGrid, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim == 0:
        return np.full(len(grid), float(f))
    if f.shape[0] != len(grid) or not np.all(np.isfinite(f)):
        raise GridError("integrand must provide one finite sample per grid node")
    return f


def ls_integral(f, h: JumpMeasure, grid: TimeGrid, t0: float, t1: float):
    """Stieltjes integral of f against dh over the half-open window [t0, t1).

    A test reference, written apart from the Scenario's dh rule.  f is
    node-sampled on the grid (scalar per node, or a vector per node).  The
    density part is a composite trapezoid over [t0, t1]; jumps located in
    [t0, t1) contribute f(t_i) * d_i using the LEFT value of f.

    Both endpoints must be grid nodes.
    """
    if t1 < t0:
        raise UsageError(f"integration window reversed: [{t0}, {t1})")
    f = _samples_for(grid, f)
    i0 = node_index(grid, t0)
    i1 = node_index(grid, t1)
    hp = density_on_grid(h, grid)
    fh = f * (hp if f.ndim == 1 else hp[:, None])
    d = np.diff(grid.nodes[i0:i1 + 1])
    if f.ndim == 1:
        acc = float(np.sum(d * (fh[i0:i1] + fh[i0 + 1:i1 + 1]) / 2.0)) if i1 > i0 else 0.0
    else:
        acc = (d[:, None] * (fh[i0:i1] + fh[i0 + 1:i1 + 1]) / 2.0).sum(axis=0) \
            if i1 > i0 else np.zeros(f.shape[1])
    tol = _location_tol(h.domain_end)
    terms = [f[node_index(grid, loc)] * size
             for loc, size in zip(h.jump_locs, h.jump_sizes)
             # half-open: jump at t0 in, jump at t1 out
             if t0 - tol <= loc < t1 - tol]
    if not terms:
        return acc
    # compensated summation so telescoping jump families cancel exactly
    if f.ndim == 1:
        return acc + math.fsum(terms)
    return acc + np.array([math.fsum(col) for col in zip(*terms)])


Cumulative = namedtuple("Cumulative", "values right_values")


def cumulative(f, h: JumpMeasure, grid: TimeGrid, t0: float = 0.0) -> Cumulative:
    """Running Stieltjes integral p(t) = int_{[t0, t)} f dh at every node.

    A test oracle; nothing under src/ needs it.  It keeps a right value at
    every node, (M,) or (M, N) like its left values.  Right values at jump
    nodes satisfy p(t+) = p(t) + f(t)*jump(t) bitwise: the accumulation
    advances through each jump via its right value.  Nodes before t0 carry 0.
    """
    f = _samples_for(grid, f)
    i0 = node_index(grid, t0)
    hp = density_on_grid(h, grid)
    sizes = jump_sizes_on_grid_loop(h, grid)
    shape = (len(grid),) if f.ndim == 1 else (len(grid), f.shape[1])
    values = np.zeros(shape)
    right = np.zeros(shape)
    for j in range(i0, len(grid) - 1):
        right[j] = values[j] + f[j] * sizes[j]
        cell = (grid.nodes[j + 1] - grid.nodes[j]) * (f[j] * hp[j] + f[j + 1] * hp[j + 1]) / 2.0
        values[j + 1] = right[j] + cell
    last = len(grid) - 1
    right[last] = values[last] + f[last] * sizes[last]
    return Cumulative(values, right)


def _unit_jump(loc: float = 0.5, size: float = 1.0) -> JumpMeasure:
    return JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                       np.array([loc]), np.array([size]))


def _scenario(h: JumpMeasure, grid: TimeGrid) -> Scenario:
    """A one-mode Scenario on ``grid``, which places h's jumps on it."""
    return Scenario(make_basis(1), LinearPart(TimeFunction("const", c0=1.0),
                                              MemoryKernel("zero")),
                    h, grid, np.zeros(1), np.zeros(1), NonlinearityEval("zero"),
                    NonlocalEval("zero"), 1.0, Tolerances())


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
    # a jump within the least gap of an end would make a cell of roundoff width
    for loc in (0.0, 1.0, 1e-13, 1.0 - 1e-13):
        with pytest.raises(DomainError):
            _unit_jump(loc=loc)


def test_decreasing_jump_locations_rejected():
    # one ulp apart, two jumps would make a cell of roundoff width
    for locs in ([0.6, 0.4], [0.3, np.nextafter(0.3, 1.0)]):
        with pytest.raises(UsageError):
            JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                        np.array(locs), np.array([1.0, 1.0]))


def test_negative_density_rejected():
    with pytest.raises(UsageError):
        JumpMeasure(1.0, np.array([0.0, 1.0]), np.array([0.0, -1.0]),
                    np.zeros(0), np.zeros(0))


# NaN fails every comparison, so each check must be one that NaN fails; each
# input is refused as an out-of-order or out-of-range value is

def test_grid_with_a_nan_node_rejected():
    with pytest.raises(GridError, match="strictly increasing"):
        TimeGrid(np.array([0.0, np.nan, 1.0]))


def test_grid_with_an_infinite_last_node_rejected():
    with pytest.raises(GridError, match="finite"):
        TimeGrid(np.array([0.0, 0.5, np.inf]))


def test_lone_nan_jump_location_rejected():
    with pytest.raises(DomainError):
        _unit_jump(loc=np.nan)


def test_nan_among_jump_locations_rejected():
    with pytest.raises(UsageError):
        JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                    np.array([0.3, np.nan, 0.6]), np.ones(3))


def test_nan_density_node_rejected():
    with pytest.raises(UsageError):
        JumpMeasure(1.0, np.array([0.0, np.nan, 1.0]), np.zeros(3),
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
    assert np.count_nonzero(_scenario(h, grid).jump_sizes) == 20


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
    assert grid.nodes[node_index(grid, 2.0 / 3.0)] == loc
    with pytest.raises(GridError):
        node_index(grid, 0.1234567)


def test_jump_sizes_on_grid_alignment():
    h = zeno_measure(10)
    grid = build_time_grid(h, 65)
    scn = _scenario(h, grid)
    sizes = scn.jump_sizes
    assert math.fsum(sizes) == h.total_jump_mass()
    assert np.all((sizes > 0) == np.isin(grid.nodes, h.jump_locs))
    assert scn.jump_rows.tolist() == np.flatnonzero(sizes).tolist()


def build_time_grid_loop(h: JumpMeasure, base_nodes: int) -> TimeGrid:
    """Reference for ``build_time_grid``: one jump at a time."""
    a = h.domain_end
    base = np.linspace(0.0, a, base_nodes)
    step = a / (base_nodes - 1)
    keep = np.ones(base_nodes, dtype=bool)
    for loc in h.jump_locs:
        idx = int(round(loc / step))
        if 0 < idx < base_nodes - 1 and abs(base[idx] - loc) < 0.45 * step:
            keep[idx] = False
    return TimeGrid(np.sort(np.concatenate([base[keep], h.jump_locs])))


def jump_sizes_on_grid_loop(h: JumpMeasure, grid: TimeGrid) -> np.ndarray:
    """Reference for the Scenario's per-node ``jump_sizes``: one ``node_index``
    per jump."""
    out = np.zeros(len(grid))
    for loc, size in zip(h.jump_locs, h.jump_sizes):
        out[node_index(grid, loc)] = size
    return out


@st.composite
def jump_grids(draw):
    """A jump measure, a base node count, and offsets to move the jump nodes by."""
    end = draw(st.sampled_from([0.5, 1.0, 3.0]))
    base = draw(st.integers(min_value=2, max_value=64))
    step, tol = end / (base - 1), _location_tol(end)
    # on a base node, half-way between two (a rounding tie), near the 0.45
    # step cut-off, or anywhere
    node = st.integers(min_value=0, max_value=base - 1)
    loc = (node.map(lambda i: i * step) | node.map(lambda i: (i + 0.5) * step)
           | node.map(lambda i: (i + 0.45) * step) | st.floats(min_value=0.0, max_value=end))
    # some jumps get a neighbour just over one tolerance away, so that a moved
    # node can lie within one tolerance of two jumps and still be refused
    near = st.sampled_from([None, 1.1 * tol, 1.6 * tol])
    drawn = [(t, draw(near)) for t in draw(st.lists(loc, max_size=20))]
    locs = []
    for t in sorted([t for t, _ in drawn] + [t + d for t, d in drawn if d]):
        if tol < t < end - tol and (not locs or t - locs[-1] > tol):
            locs.append(t)
    sizes = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                          min_size=len(locs), max_size=len(locs)))
    offsets = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5 * tol, -0.5 * tol, tol, -tol,
                                             1.5 * tol, -1.5 * tol]),
                            min_size=len(locs), max_size=len(locs)))
    h = JumpMeasure(end, np.array([0.0, end]), np.zeros(2), np.array(locs), np.array(sizes))
    return h, base, np.array(offsets)


@settings(max_examples=300, deadline=None)
@given(jump_grids())
def test_vectorized_jump_loops_match_the_references(case):
    h, base, offsets = case
    grid = build_time_grid(h, base)
    assert grid.nodes.tobytes() == build_time_grid_loop(h, base).nodes.tobytes()
    rows = jump_rows_on_grid(h, grid)
    assert grid.nodes[rows].tobytes() == h.jump_locs.tobytes()
    scn = _scenario(h, grid)
    assert scn.jump_rows.tobytes() == rows.tobytes()
    assert scn.jump_sizes.tobytes() == jump_sizes_on_grid_loop(h, grid).tobytes()
    # jump nodes moved by up to 1.5 tolerances: any move at all is refused
    nodes = grid.nodes.copy()
    nodes[rows] += offsets
    try:
        moved = TimeGrid(nodes)
    except GridError:
        return
    if offsets.any():
        with pytest.raises(GridError, match="is not a grid node"):
            _scenario(h, moved)
    else:
        assert jump_rows_on_grid(h, moved).tobytes() == rows.tobytes()


def test_a_node_near_a_jump_but_not_on_it_is_refused():
    loc = 1.2e-12
    h = _unit_jump(loc)
    assert _scenario(h, TimeGrid(np.array([0.0, loc, 0.5, 1.0]))).jump_rows.tolist() == [1]
    # one least gap from the jump, which the tolerance matched, and one ulp from it
    for node in (loc + _location_tol(1.0), np.nextafter(loc, 1.0)):
        assert node != loc
        with pytest.raises(GridError, match=f"t={loc!r} is not a grid node"):
            _scenario(h, TimeGrid(np.array([0.0, node, 0.5, 1.0])))


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
    i = node_index(grid, 0.5)
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
    sizes = jump_sizes_on_grid_loop(h, grid)
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
    i = node_index(grid, 0.5)
    assert np.all(traj.values[:i + 1] == 0.0)
    assert traj.right_values[i] == 1.0
    assert np.all(traj.values[i + 1:] == 1.0)


def test_cumulative_respects_start_time():
    h = _unit_jump(0.25)
    grid = build_time_grid(h, 9)
    traj = cumulative(np.ones(len(grid)), h, grid, t0=0.5)
    i = node_index(grid, 0.5)
    assert np.all(traj.values[:i + 1] == 0.0)
    assert traj.values[-1] == 0.0      # no density, jump was before t0


# ---------------------------------------------------------------- trajectories

def test_trajectory_shape_mismatch_rejected():
    grid = TimeGrid(np.array([0.0, 1.0]))
    rows = np.array([1])
    with pytest.raises(GridError):
        RegulatedTrajectory(grid, np.zeros((3, 2)), rows, np.zeros((1, 2)))
    with pytest.raises(GridError):
        RegulatedTrajectory(grid, np.zeros(2), rows, np.zeros(1))
    # the block is one row of N right limits per jump row: K - 1 rows, K + 1
    # rows, a row of another N and a flat row are each refused
    for block in (np.zeros((0, 2)), np.zeros((2, 2)), np.zeros((1, 3)), np.zeros(2)):
        with pytest.raises(GridError):
            RegulatedTrajectory(grid, np.zeros((2, 2)), rows, block)
    traj = RegulatedTrajectory(grid, np.zeros((2, 2)), rows, np.ones((1, 2)))
    assert traj.jump_rows is rows and traj.right.shape == (1, 2)
    # no jumps: an empty (0, N) block
    assert RegulatedTrajectory(grid, np.zeros((2, 2)), rows[:0],
                               np.zeros((0, 2))).right.shape == (0, 2)
    with pytest.raises(GridError):
        RegulatedTrajectory(grid, np.zeros((2, 2)), rows[:0], np.zeros((0, 3)))


def test_constant_measure_integrates_to_zero():
    h = constant_measure(2.0)
    grid = build_time_grid(h, 17)
    assert ls_integral(np.ones(17), h, grid, 0.0, 2.0) == 0.0
