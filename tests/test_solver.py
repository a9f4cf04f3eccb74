from __future__ import annotations

import numpy as np
import pytest

import mds.solver
import mds.spectral
from mds.control import steer
from mds.errors import ConvergenceError, GridError
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import JumpMeasure, RegulatedTrajectory, constant_measure, lebesgue_measure
from mds.scenario import NonlinearityEval, Tolerances
from mds.scenario_io import parse_scenario, write_trajectory_csv
from mds.solver import apply_psi, discontinuity_count, jump_consistency, picard_solve
from mds.spectral import LinearPart, make_basis

from conftest import assemble_scenario, load_config


def _linear_scn(n_modes=3, nodes=129, zeta0=None, **kw):
    zeta0 = np.ones(n_modes) if zeta0 is None else zeta0
    return assemble_scenario(
        make_basis(n_modes),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), nodes, zeta0, np.zeros(n_modes), **kw)


def _one_jump_scn(d0, nodes=129):
    """Pure heat semigroup plus a single unit jump at t = 0.5 forcing d0."""
    n = len(d0)
    h = JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                    np.array([0.5]), np.array([1.0]))
    return assemble_scenario(
        make_basis(n),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        h, nodes, np.ones(n), np.zeros(n),
        nonlinearity=NonlinearityEval("table", table=np.asarray(d0)))


# ---------------------------------------------------------------- linear path

def test_linear_solution_is_the_propagated_initial_state():
    scn = _linear_scn()
    res = picard_solve(scn)
    assert res.iterations == 1
    assert res.final_delta == 0.0
    n2 = np.arange(1, scn.n_modes + 1) ** 2
    exact = np.exp(-np.outer(scn.grid.nodes, n2))
    assert np.max(np.abs(res.trajectory.values - exact)) < 1e-12
    # no jumps: an empty block of right limits, and a continuous path
    assert res.trajectory.jump_rows is scn.jump_rows and scn.jump_rows.size == 0
    assert res.trajectory.right.shape == (0, scn.n_modes)


def test_zero_initial_state_stays_zero():
    scn = _linear_scn(zeta0=np.zeros(3))
    res = picard_solve(scn)
    assert np.all(res.trajectory.values == 0.0)


def test_initial_iterate_row_zero_is_zeta0():
    scn = _linear_scn()
    seed = scn.picard_seed
    assert np.array_equal(seed.values[0], scn.zeta0)


def test_iterate_independent_psi_marches_once_per_solve(linear_scn, monkeypatch):
    marches = []

    def counted(*args):
        marches.append(args)
        return resolvent_sums(*args)

    resolvent_sums = mds.solver.resolvent_sums
    monkeypatch.setattr(mds.solver, "resolvent_sums", counted)
    c = np.full(linear_scn.n_modes, 0.25)
    res = picard_solve(linear_scn, c)
    assert len(marches) == 1
    # the one sweep from the zero path equals the sweep from the Picard seed
    seeded = apply_psi(linear_scn, linear_scn.picard_seed, c)
    assert np.array_equal(res.trajectory.values, seeded.values)
    assert np.array_equal(res.trajectory.right, seeded.right)
    marches.clear()
    # steer starts from the Picard seed, which the Scenario marches, and
    # sweeps once with the control
    assert steer(linear_scn).report.outer_iterations == 1
    assert len(marches) == 1


def test_picard_seed_is_marched_once_per_scenario(monkeypatch):
    # the demo's steer: nine passes of one synthesis and one sweep each from
    # the seed R(t, 0) zeta0, which is marched once, and the final row once
    marches = []

    def counted(*args):
        marches.append(args)
        return march(*args)

    march = mds.spectral._march
    monkeypatch.setattr(mds.spectral, "_march", counted)
    scn = parse_scenario(load_config("demo.json"))
    seed = scn.picard_seed
    assert len(marches) == 1
    assert scn.picard_seed is seed
    assert not seed.values.flags.writeable
    outcome = steer(scn)
    assert outcome.report.outer_iterations == 9
    assert len(marches) == 11           # 9 sweeps, the seed and the final row


def test_zero_control_matches_no_control():
    scn = _linear_scn()
    seed = scn.picard_seed
    a = apply_psi(scn, seed)
    b = apply_psi(scn, seed, np.zeros(scn.n_modes))
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------- one jump

def test_single_jump_matches_closed_form():
    d0 = np.array([0.5, -0.25, 0.125])
    scn = _one_jump_scn(d0)
    res = picard_solve(scn)
    assert res.iterations == 2            # forcing is state independent
    t = scn.grid.nodes
    n2 = np.arange(1, 4) ** 2
    exact = np.exp(-np.outer(t, n2)) * scn.zeta0
    after = t > 0.5
    exact[after] += np.exp(-np.outer(t[after] - 0.5, n2)) * d0
    assert np.max(np.abs(res.trajectory.values - exact)) < 1e-12
    # right limit at the jump node carries the full increment
    k = scn.jump_rows[0]
    assert t[k] == 0.5 and res.trajectory.right.shape == (1, 3)
    assert np.max(np.abs(res.trajectory.right[0]
                         - (res.trajectory.values[k] + d0))) < 1e-15
    assert discontinuity_count(res.trajectory) == 1


def test_single_jump_consistency_is_bitwise_zero():
    scn = _one_jump_scn(np.array([1.0, 2.0]))
    res = picard_solve(scn)
    assert jump_consistency(res.trajectory, scn) == 0.0


# ---------------------------------------------------------------- iteration control

def test_zero_sweep_budget_rejected():
    scn = _linear_scn(tol=Tolerances(max_picard=0))
    with pytest.raises(ConvergenceError):
        picard_solve(scn)


def test_huge_nonlinearity_fails_to_converge():
    scn = assemble_scenario(
        make_basis(4),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        lebesgue_measure(1.0), 129, np.ones(4) * 0.5, np.zeros(4),
        nonlinearity=NonlinearityEval("cosine", amplitude=1e6),
        tol=Tolerances(max_picard=16))
    with pytest.raises(ConvergenceError) as exc:
        picard_solve(scn)
    assert len(exc.value.deltas) == 16
    assert exc.value.deltas[-1] > 1.0


def test_demo_iteration_contracts_geometrically(demo_solution):
    deltas = demo_solution.deltas
    assert demo_solution.final_delta < 1e-10
    for prev, cur in zip(deltas[1:-1], deltas[2:]):
        assert cur <= 0.5 * prev


def test_demo_solution_is_a_fixed_point(demo_scn, demo_solution):
    traj = demo_solution.trajectory
    again = apply_psi(demo_scn, traj)
    dv = np.sqrt(np.sum((again.values - traj.values) ** 2, axis=-1)).max()
    dr = np.sqrt(np.sum((again.right - traj.right) ** 2, axis=-1)).max()
    assert max(dv, dr) <= 2.0 * demo_scn.tol.tol_picard


# ---------------------------------------------------------------- structure

def test_demo_discontinuities_exactly_at_jump_rows(demo_scn, demo_solution):
    traj = demo_solution.trajectory
    assert traj.jump_rows is demo_scn.jump_rows and len(traj.jump_rows) == 20
    assert np.all(np.any(traj.right != traj.values[traj.jump_rows], axis=-1))
    assert discontinuity_count(traj) == 20


def test_demo_solution_stays_bounded(demo_solution):
    traj = demo_solution.trajectory
    assert np.linalg.norm(np.concatenate([traj.values, traj.right]), axis=-1).max() < 10.0


def test_a_path_without_jumps_holds_an_empty_block(tmp_path):
    # K = 0: the sup distance reads the left values alone, no node is a
    # discontinuity, the jump consistency is 0.0 and the CSV has no right row
    scn = _linear_scn(nodes=17)
    a = picard_solve(scn).trajectory
    b = apply_psi(scn, scn.picard_seed, np.full(3, 0.5))
    assert a.right.shape == b.right.shape == (0, 3)
    left = np.sqrt(np.sum((a.values - b.values) ** 2, axis=-1)).max()
    assert mds.solver._sup_distance(a, b) == left > 0.0
    assert mds.solver._sup_distance(a, a) == 0.0
    assert discontinuity_count(a) == 0
    assert jump_consistency(a, scn) == 0.0
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), scn, a)
    assert [line.split(",")[1] for line in path.read_text().splitlines()[1:]] == ["left"] * 17


def test_foreign_grid_rejected():
    scn = _linear_scn(nodes=65)
    other = _linear_scn(nodes=129)
    with pytest.raises(GridError):
        apply_psi(scn, other.picard_seed)


def test_misshapen_control_rejected():
    scn = _linear_scn(nodes=65)
    # one coefficient per mode; the (M, N) samples are refused as well
    for c in (np.zeros(scn.n_modes + 1), np.zeros((1, scn.n_modes)),
              np.zeros((len(scn.grid), scn.n_modes)), 0.5):
        with pytest.raises(GridError):
            apply_psi(scn, scn.picard_seed, c)
        with pytest.raises(GridError):
            picard_solve(scn, c)
