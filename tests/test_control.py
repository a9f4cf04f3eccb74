from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from mds import (ControlSignal, DegenerateModeError, GridError, LinearPart,
                 MemoryKernel, SteeringError, TimeFunction, Tolerances,
                 constant_measure, estimate_constants, gramians, make_basis,
                 min_norm_inverse, run_command, steer, steering_residual,
                 synthesize_control, terminal_error)
from mds.control import _weights_for

from conftest import assemble_scenario, load_config


def z_apply(final: np.ndarray, theta, u: ControlSignal, weights) -> np.ndarray:
    """Mode n of Zu: int_0^a r_n(a,s) theta_n u_n(s) ds (the test oracle for Z)."""
    w = _weights_for(final, weights)
    samples = u.samples if isinstance(u, ControlSignal) else np.asarray(u, dtype=float)
    return np.asarray(theta, dtype=float) * ((final * samples.T) @ w)


@pytest.fixture(scope="module")
def small_scn():
    n = 3
    return assemble_scenario(
        make_basis(n),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 257, np.ones(n), np.zeros(n))


# ---------------------------------------------------------------- gramians

def test_first_mode_gramian_closed_form(small_scn):
    gam = gramians(small_scn.final_row, small_scn.theta, small_scn.wq_full)
    exact = [(1.0 - math.exp(-2 * k * k)) / (2 * k * k) for k in (1, 2, 3)]
    assert gam[0] == pytest.approx(0.432332, abs=1e-6)
    assert np.max(np.abs(gam - exact)) < 1e-6


def test_min_norm_control_profile(small_scn):
    final = small_scn.final_row
    p = np.array([1.0, 0.0, 0.0])
    u = min_norm_inverse(final, small_scn.theta, p, small_scn.wq_full)
    s = small_scn.grid.nodes
    gamma1 = (1.0 - math.exp(-2.0)) / 2.0
    assert np.max(np.abs(u.samples[:, 0] - np.exp(-(1.0 - s)) / gamma1)) < 1e-6
    assert np.all(u.samples[:, 1:] == 0.0)
    reached = z_apply(final, small_scn.theta, u, small_scn.wq_full)
    assert reached[0] == pytest.approx(1.0, abs=1e-6)


def test_zero_target_gives_zero_control(small_scn):
    u = min_norm_inverse(small_scn.final_row, small_scn.theta,
                         np.zeros(3), small_scn.wq_full)
    assert np.all(u.samples == 0.0)


def test_zero_gain_is_degenerate(small_scn):
    with pytest.raises(DegenerateModeError) as exc:
        min_norm_inverse(small_scn.final_row, np.zeros(3),
                         np.ones(3), small_scn.wq_full)
    assert exc.value.mode == 1


def test_preimage_round_trip(small_scn):
    rng = np.random.default_rng(7)
    final = small_scn.final_row
    for _ in range(5):
        p = rng.uniform(-2.0, 2.0, size=3)
        u = min_norm_inverse(final, small_scn.theta, p, small_scn.wq_full)
        back = z_apply(final, small_scn.theta, u, small_scn.wq_full)
        assert np.max(np.abs(back - p)) < 1e-10


def test_control_norm_identity(small_scn):
    final = small_scn.final_row
    p = np.array([0.3, -1.2, 0.8])
    gam = gramians(final, small_scn.theta, small_scn.wq_full)
    u = min_norm_inverse(final, small_scn.theta, p, small_scn.wq_full)
    norm = u.l2_norm(small_scn.wq_full)
    assert norm == pytest.approx(math.sqrt(np.sum(p * p / gam)), rel=1e-12)


def test_minimality_against_kernel_perturbations(small_scn):
    rng = np.random.default_rng(11)
    final = small_scn.final_row
    w = small_scn.wq_full
    p = np.array([1.0, -0.5, 0.25])
    u = min_norm_inverse(final, small_scn.theta, p, w)
    base = u.l2_norm(w)
    for _ in range(5):
        v0 = rng.standard_normal((len(small_scn.grid), 3))
        # project v0 onto ker Z: subtract the preimage of its image
        hit = z_apply(final, small_scn.theta, v0, w)
        v = v0 - min_norm_inverse(final, small_scn.theta, hit, w).samples
        competitor = ControlSignal(u.samples + v)
        assert base <= competitor.l2_norm(w) + 1e-12


def test_weights_length_checked(small_scn):
    with pytest.raises(GridError):
        gramians(small_scn.final_row, small_scn.theta, np.ones(5))


# ---------------------------------------------------------------- synthesis and steering

def test_reachable_target_needs_no_control():
    n = 3
    n2 = np.arange(1, n + 1) ** 2
    zeta0 = np.array([1.0, -0.5, 0.25])
    scn = assemble_scenario(
        make_basis(n),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 257, zeta0, np.exp(-n2.astype(float)) * zeta0)
    from mds import picard_solve
    traj = picard_solve(scn).trajectory
    u = synthesize_control(scn, traj)
    assert np.max(np.abs(u.samples)) < 1e-14


def test_trivial_steer_does_nothing():
    scn = assemble_scenario(
        make_basis(2),
        LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 129, np.zeros(2), np.zeros(2))
    out = steer(scn)
    assert out.report.outer_iterations == 0
    assert out.report.converged
    assert np.all(out.control.samples == 0.0)
    assert out.report.terminal_error == 0.0


def test_linear_steering_hits_target_in_one_pass(linear_scn):
    out = steer(linear_scn)
    assert out.report.outer_iterations == 1
    assert out.report.terminal_error < 1e-12
    assert terminal_error(linear_scn, out.trajectory) == out.report.terminal_error


def test_steering_residual_matches_defect_for_linear(linear_scn):
    from mds import picard_solve
    traj = picard_solve(linear_scn).trajectory
    p = steering_residual(linear_scn, traj)
    gap = linear_scn.zeta1 - traj.values[-1]
    assert np.max(np.abs(p - gap)) < 1e-12


def test_unreachable_tolerance_raises_with_history(demo_scn):
    tight = dataclasses.replace(
        demo_scn, tol=Tolerances(tol_target=1e-13, max_outer=2), config=None)
    with pytest.raises(SteeringError) as exc:
        steer(tight)
    assert len(exc.value.history) == 3
    hist = exc.value.history
    assert hist[1] < hist[0]          # the loop was making progress


def test_demo_steer_report_is_consistent(tmp_path, demo_scn, demo_steered):
    rep = demo_steered.report
    assert rep.converged
    assert rep.history[-1] == rep.terminal_error
    assert rep.outer_iterations == len(rep.history) - 1
    assert rep.control_norm == pytest.approx(
        demo_steered.control.l2_norm(demo_scn.wq_full), rel=1e-15)
    assert run_command("steer", load_config("demo.json"), str(tmp_path), quiet=True) == 0
    lines = (tmp_path / "steering.txt").read_text().splitlines()
    assert lines[0] == "converged=true"
    assert f"control_norm={rep.control_norm:.17g}" in lines


def test_demo_control_norm_within_apriori_bound(demo_scn, demo_steered):
    k = estimate_constants(demo_scn)
    traj = demo_steered.trajectory
    r = np.linalg.norm(np.concatenate([traj.values, traj.right_values]), axis=-1).max()
    rhs = k.L3 * (np.linalg.norm(demo_scn.zeta1) + k.L1 * np.linalg.norm(demo_scn.zeta0)
                  + (1.0 + k.L1) * (k.c * r + k.d) + k.L1 * r * k.n_mass)
    assert demo_steered.report.control_norm <= rhs
