"""Steering operator Z, its minimal-norm inverse, and the outer loop.

Z u = int_0^a R(a,s) V u(s) ds with V = diag(theta).  Because R acts
diagonally, the normal equations decouple into scalar mode Gramians
gamma_n = theta_n^2 Q[r_n(a,.)^2] under the shared quadrature Q, and the
minimal-L2 preimage of p is u_n(s) = theta_n r_n(a,s) p_n / gamma_n.

Sharing Q between z_apply, the Gramians, the control norm and the
solver's u integral makes z_apply(min_norm_inverse(p)) = p and the
linear-case terminal identity hold to roundoff, not just to quadrature
order.  Likewise the steering residual's dh integral uses the last row of
the Scenario's dh rule, the same weights the solver uses at t = a.

Everything here reads the resolvent only through its final row
r_n(a, t_k), an (N, M) array the Scenario builds once by the discrete
adjoint of the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, GridError, SteeringError
from .measure import RegulatedTrajectory
from .scenario import Scenario
from .solver import picard_solve

GAMMA_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Mode-coefficient control samples, one row per grid node."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def l2_norm(self, weights: np.ndarray) -> float:
        """(int ||u(t)||^2 dt)^(1/2) under the supplied quadrature weights."""
        return float(np.sqrt(weights @ np.sum(self.samples ** 2, axis=-1)))


def _weights_for(final: np.ndarray, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != final.shape[1:]:
        raise GridError("quadrature weights must match the grid")
    return w


def gramians(final: np.ndarray, theta: np.ndarray, weights) -> np.ndarray:
    """gamma_n = theta_n^2 int_0^a r_n(a,s)^2 ds, from the final row r_n(a, t_k).

    Raises DegenerateModeError naming the first mode whose gamma_n is at or
    below GAMMA_FLOOR: the minimal-norm inverse divides by every gamma_n.
    """
    w = _weights_for(final, weights)
    gam = np.asarray(theta, dtype=float) ** 2 * ((final * final) @ w)
    bad = np.where(gam <= GAMMA_FLOOR)[0]
    if bad.size:
        raise DegenerateModeError(int(bad[0]) + 1, float(gam[bad[0]]), GAMMA_FLOOR)
    return gam


def z_apply(final: np.ndarray, theta, u: ControlSignal, weights) -> np.ndarray:
    """Mode n of Zu: int_0^a r_n(a,s) theta_n u_n(s) ds."""
    w = _weights_for(final, weights)
    samples = u.samples if isinstance(u, ControlSignal) else np.asarray(u, dtype=float)
    return np.asarray(theta, dtype=float) * ((final * samples.T) @ w)


def min_norm_inverse(final: np.ndarray, theta, p: np.ndarray, weights) -> ControlSignal:
    """Minimal-L2-norm grid preimage of p under Z (per-mode normal equations)."""
    theta = np.asarray(theta, dtype=float)
    gam = gramians(final, theta, weights)
    p = np.asarray(p, dtype=float)
    samples = final.T * (theta * p / gam)
    return ControlSignal(samples)


def steering_residual(scn: Scenario, traj: RegulatedTrajectory) -> np.ndarray:
    """p = zeta1 - g(zeta) - R(a,0)(zeta0 - g(zeta)) - int R(a,s) delta dh."""
    g = scn.g_of(traj.values)
    final = scn.final_row
    delta = scn.delta_values(traj.values)
    last = np.append(scn.dh_full[:-1], scn.dh_diag[-1])   # the dh rule's row at t = a
    return (scn.zeta1 - g - final[:, 0] * (scn.zeta0 - g)
            - (final * delta.T) @ last)


def synthesize_control(scn: Scenario, traj: RegulatedTrajectory) -> ControlSignal:
    """The steering control for the current iterate: Z^-1 of the residual."""
    p = steering_residual(scn, traj)
    return min_norm_inverse(scn.final_row, scn.theta, p, scn.wq_full)


def terminal_error(scn: Scenario, traj: RegulatedTrajectory) -> float:
    """||zeta(a) + g(zeta) - zeta1||: the exact-controllability defect."""
    gap = traj.values[-1] + scn.g_of(traj.values) - scn.zeta1
    return float(np.sqrt(gap @ gap))


@dataclass(frozen=True)
class SteeringReport:
    terminal_error: float
    outer_iterations: int
    control_norm: float
    history: tuple
    converged: bool

    def as_lines(self) -> list[str]:
        lines = [
            f"converged={str(self.converged).lower()}",
            f"terminal_error={self.terminal_error:.17g}",
            f"outer_iterations={self.outer_iterations}",
            f"control_norm={self.control_norm:.17g}",
        ]
        lines += [f"history_{i}={e:.17g}" for i, e in enumerate(self.history)]
        return lines


@dataclass(frozen=True, eq=False)
class SteerOutcome:
    control: ControlSignal
    trajectory: RegulatedTrajectory
    report: SteeringReport


def steer(scn: Scenario) -> SteerOutcome:
    """Alternate control synthesis and Picard solves until the target is hit.

    Starts from the uncontrolled solution; each outer pass synthesizes the
    control for the current trajectory and re-solves.  Raises SteeringError
    with the error history when max_outer passes do not reach tol_target.
    """
    traj = picard_solve(scn, None).trajectory
    u = ControlSignal(np.zeros((len(scn.grid), scn.n_modes)))
    history = [terminal_error(scn, traj)]
    outer = 0
    while history[-1] > scn.tol.tol_target:
        if outer >= scn.tol.max_outer:
            raise SteeringError(
                f"terminal error {history[-1]:.3e} after {outer} outer "
                f"iterations (target {scn.tol.tol_target:g})", history)
        u = synthesize_control(scn, traj)
        traj = picard_solve(scn, u.samples).trajectory
        outer += 1
        history.append(terminal_error(scn, traj))
    report = SteeringReport(history[-1], outer, u.l2_norm(scn.wq_full),
                            tuple(history), True)
    return SteerOutcome(u, traj, report)
