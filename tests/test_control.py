from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mds.solver
from mds.conditions import build_report, estimate_constants
from mds.control import (gramians, min_norm_inverse, steer, steering_residual,
                         synthesize_control, terminal_error)
from mds.errors import (ConfigError, DegenerateModeError, DomainError, GridError,
                        InstabilityError, SteeringError, UsageError)
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import constant_measure
from mds.scenario import Tolerances
from mds.scenario_io import MAX_ITERATIONS, parse_scenario, run_command
from mds.solver import _sup_distance, apply_psi, picard_solve
from mds.spectral import LinearPart, make_basis

from conftest import assemble_scenario, load_config, replaced, terms
from test_config_fuzz import documents


def z_apply(scn, u: np.ndarray) -> np.ndarray:
    """Mode n of Zu: int_0^a r_n(a,s) theta_n u_n(s) ds (the test oracle for Z)."""
    return scn.theta * ((scn.final_row * u.T) @ scn.wq_full)


def samples(final: np.ndarray, c) -> np.ndarray:
    """u(t_k) = r(a, t_k) c: the control's samples, (M, N), from its coefficients."""
    return final.T * c


def l2_norm(u: np.ndarray, weights: np.ndarray) -> float:
    """(int ||u(t)||^2 dt)^(1/2) under the quadrature weights, as steer's control_norm."""
    return float(np.sqrt(weights @ np.sum(u ** 2, axis=-1)))


@pytest.fixture(scope="module")
def small_scn():
    n = 3
    return assemble_scenario(
        make_basis(n),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 257, np.ones(n), np.zeros(n))


# ---------------------------------------------------------------- gramians

def test_first_mode_gramian_closed_form(small_scn):
    gam = gramians(small_scn)
    exact = [(1.0 - math.exp(-2 * k * k)) / (2 * k * k) for k in (1, 2, 3)]
    assert gam[0] == pytest.approx(0.432332, abs=1e-6)
    assert np.max(np.abs(gam - exact)) < 1e-6


def test_min_norm_control_profile(small_scn):
    final = small_scn.final_row
    p = np.array([1.0, 0.0, 0.0])
    c = min_norm_inverse(small_scn, p)
    assert c.shape == (3,) and not c.flags.writeable
    u = samples(final, c)
    s = small_scn.grid.nodes
    gamma1 = (1.0 - math.exp(-2.0)) / 2.0
    assert np.max(np.abs(u[:, 0] - np.exp(-(1.0 - s)) / gamma1)) < 1e-6
    assert np.all(u[:, 1:] == 0.0)
    reached = z_apply(small_scn, u)
    assert reached[0] == pytest.approx(1.0, abs=1e-6)


def test_zero_target_gives_zero_control(small_scn):
    c = min_norm_inverse(small_scn, np.zeros(3))
    assert np.all(c == 0.0)


def test_zero_gain_is_degenerate(small_scn):
    with pytest.raises(DegenerateModeError) as exc:
        min_norm_inverse(replaced(small_scn, theta=np.zeros(3)), np.ones(3))
    assert exc.value.mode == 1


def test_preimage_round_trip(small_scn):
    rng = np.random.default_rng(7)
    final = small_scn.final_row
    for _ in range(5):
        p = rng.uniform(-2.0, 2.0, size=3)
        c = min_norm_inverse(small_scn, p)
        back = z_apply(small_scn, samples(final, c))
        assert np.max(np.abs(back - p)) < 1e-10


def test_control_norm_identity(small_scn):
    final = small_scn.final_row
    p = np.array([0.3, -1.2, 0.8])
    gam = gramians(small_scn)
    c = min_norm_inverse(small_scn, p)
    norm = l2_norm(samples(final, c), small_scn.wq_full)
    assert norm == pytest.approx(math.sqrt(np.sum(p * p / gam)), rel=1e-12)


def test_minimality_against_kernel_perturbations(small_scn):
    rng = np.random.default_rng(11)
    final = small_scn.final_row
    w = small_scn.wq_full
    p = np.array([1.0, -0.5, 0.25])
    u = samples(final, min_norm_inverse(small_scn, p))
    base = l2_norm(u, w)
    for _ in range(5):
        v0 = rng.standard_normal((len(small_scn.grid), 3))
        # project v0 onto ker Z: subtract the preimage of its image
        hit = z_apply(small_scn, v0)
        v = v0 - samples(final, min_norm_inverse(small_scn, hit))
        assert base <= l2_norm(u + v, w) + 1e-12


# ---------------------------------------------------------------- synthesis and steering

def test_reachable_target_needs_no_control():
    n = 3
    n2 = np.arange(1, n + 1) ** 2
    zeta0 = np.array([1.0, -0.5, 0.25])
    scn = assemble_scenario(
        make_basis(n),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 257, zeta0, np.exp(-n2.astype(float)) * zeta0)
    from mds.solver import picard_solve
    traj = picard_solve(scn).trajectory
    u = samples(scn.final_row, synthesize_control(scn, *terms(scn, traj)))
    assert np.max(np.abs(u)) < 1e-14


def test_trivial_steer_does_nothing():
    scn = assemble_scenario(
        make_basis(2),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 129, np.zeros(2), np.zeros(2))
    out = steer(scn)
    assert out.report.outer_iterations == 0
    assert out.report.converged
    assert out.control is None          # no pass: no control, u = 0
    assert out.report.terminal_error == 0.0


def test_zero_pass_steer_never_forms_the_gramians():
    # theta = 0 makes every Gramian degenerate; a steer whose seed already
    # meets its target makes no pass, so it must not form them
    scn = assemble_scenario(
        make_basis(2),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 129, np.zeros(2), np.zeros(2), theta=0.0)
    out = steer(scn)
    assert out.control is None and out.report.outer_iterations == 0
    with pytest.raises(DegenerateModeError) as exc:
        build_report(scn)
    assert exc.value.mode == 1


def test_linear_steering_hits_target_in_one_pass(linear_scn):
    out = steer(linear_scn)
    assert out.report.outer_iterations == 1
    assert out.report.terminal_error < 1e-12
    assert terminal_error(linear_scn, out.trajectory) == out.report.terminal_error


def test_steering_residual_matches_defect_for_linear(linear_scn):
    from mds.solver import picard_solve
    traj = picard_solve(linear_scn).trajectory
    p = steering_residual(linear_scn, *terms(linear_scn, traj))
    gap = linear_scn.zeta1 - traj.values[-1]
    assert np.max(np.abs(p - gap)) < 1e-12


def test_unreachable_tolerance_raises_with_history(demo_scn):
    tight = replaced(
        demo_scn, tol=Tolerances(tol_target=1e-13, max_outer=2), config=None)
    with pytest.raises(SteeringError) as exc:
        steer(tight)
    assert len(exc.value.history) == 3
    hist = exc.value.history
    assert hist[1] < hist[0]          # the loop was making progress


def test_demo_steer_report_is_consistent(tmp_path, demo_scn, demo_steered):
    rep = demo_steered.report
    assert rep.converged
    # the demo is nonlinear: the last pass's sweep confirms the fixed point
    assert rep.history[-2] == rep.terminal_error
    assert rep.terminal_error == terminal_error(demo_scn, demo_steered.trajectory)
    assert rep.outer_iterations == len(rep.history) - 1
    assert rep.control_norm == pytest.approx(
        l2_norm(samples(demo_scn.final_row, demo_steered.control), demo_scn.wq_full),
        rel=1e-15)
    assert run_command("steer", load_config("demo.json"), str(tmp_path), quiet=True) == 0
    lines = (tmp_path / "steering.txt").read_text().splitlines()
    assert lines[0] == "converged=true"
    assert f"control_norm={rep.control_norm:.17g}" in lines


def test_demo_control_norm_within_apriori_bound(demo_scn, demo_steered):
    k = estimate_constants(demo_scn)
    traj = demo_steered.trajectory
    r = np.linalg.norm(np.concatenate([traj.values, traj.right]), axis=-1).max()
    rhs = k.L3 * (np.linalg.norm(demo_scn.zeta1) + k.L1 * np.linalg.norm(demo_scn.zeta0)
                  + (1.0 + k.L1) * (k.c * r + k.d) + k.L1 * r * k.n_mass)
    assert demo_steered.report.control_norm <= rhs


# ---------------------------------------------------------------- the fixed point of Phi

def _phi_defect(scn, out) -> float:
    """||psi(zeta, u) - zeta||_sup for the path and the control steer returned."""
    again = apply_psi(scn, out.trajectory, out.control)
    return _sup_distance(again, out.trajectory)


def _assert_fixed_point_of_phi(scn, out):
    """The returned control is u_zeta for the returned path zeta, psi moves
    (zeta, u) by less than tol_picard, and the report is zeta's."""
    rep = out.report
    assert rep.converged and rep.terminal_error <= scn.tol.tol_target
    assert rep.terminal_error == terminal_error(scn, out.trajectory)
    assert rep.outer_iterations == len(rep.history) - 1
    linear = scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero
    if rep.outer_iterations == 0:       # the seed already met the target
        assert linear
        assert out.trajectory is scn.picard_seed
        assert out.control is None
        return
    assert rep.terminal_error == rep.history[-1 if linear else -2]
    if not linear:
        c = synthesize_control(scn, *terms(scn, out.trajectory))
        assert out.control.tobytes() == c.tobytes()
    assert _phi_defect(scn, out) < scn.tol.tol_picard


def test_demo_steer_is_a_fixed_point_of_phi(demo_scn, demo_steered):
    _assert_fixed_point_of_phi(demo_scn, demo_steered)
    assert demo_steered.report.outer_iterations == 9


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from([None, 64]))
def test_steer_returns_a_fixed_point_of_phi(doc, max_outer):
    # the document's own max_outer (at most 4), and room for the nonlinear
    # documents to reach their fixed point
    if max_outer is not None:
        doc["tolerances"]["max_outer"] = max_outer
    try:
        scn = parse_scenario(doc)
        out = steer(scn)
    except (ConfigError, DomainError, GridError, UsageError, SteeringError,
            InstabilityError, DegenerateModeError):
        return
    _assert_fixed_point_of_phi(scn, out)


def _nested_reference(scn):
    """The nested loop's linear case: an uncontrolled Picard solve, then one
    synthesis and one controlled Picard solve when the target is missed."""
    traj = picard_solve(scn, None).trajectory
    history = [terminal_error(scn, traj)]
    c = None
    if history[0] > scn.tol.tol_target and scn.tol.max_outer > 0:
        c = synthesize_control(scn, *terms(scn, traj))
        traj = picard_solve(scn, c).trajectory
        history.append(terminal_error(scn, traj))
    return c, traj, history


def _assert_steers_like_the_nested_loop(scn):
    try:
        c, traj, history = _nested_reference(scn)
    except (InstabilityError, DegenerateModeError) as exc:
        with pytest.raises(type(exc)):
            steer(scn)
        return
    if history[-1] > scn.tol.tol_target:
        with pytest.raises(SteeringError) as exc:
            steer(scn)
        assert exc.value.history == history
        return
    out = steer(scn)
    assert out.report.history == tuple(history)
    assert out.report.outer_iterations == len(history) - 1
    assert out.control is c is None or out.control.tobytes() == c.tobytes()
    assert out.trajectory.values.tobytes() == traj.values.tobytes()
    assert out.trajectory.right.tobytes() == traj.right.tobytes()


def test_linear_steering_matches_the_nested_loop(linear_scn):
    _assert_steers_like_the_nested_loop(linear_scn)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_linear_documents_steer_like_the_nested_loop(doc):
    doc["nonlinearity"] = {"kind": "zero"}
    doc["nonlocal"] = {"kind": "zero"}
    doc["tolerances"]["max_picard"] = 1     # the reference's Picard solves sweep once
    try:
        scn = parse_scenario(doc)
    except ConfigError:
        return
    _assert_steers_like_the_nested_loop(scn)


def test_unreachable_target_stops_at_the_fixed_point(demo_scn, monkeypatch):
    # the nested loop ran all 1024 outer passes here (8199 sweeps) while the
    # terminal error sat at 1.1e-13
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    sweep = mds.solver.apply_psi
    monkeypatch.setattr(mds.solver, "apply_psi", counted)
    tol = replaced(demo_scn.tol, tol_target=1e-300, max_outer=MAX_ITERATIONS)
    with pytest.raises(SteeringError, match="at the fixed point") as exc:
        steer(replaced(demo_scn, tol=tol, config=None))
    assert len(sweeps) == len(exc.value.history) - 1 <= demo_scn.tol.max_outer
