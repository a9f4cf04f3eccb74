"""Steering operator Z, its minimal-norm inverse, and the steering loop.

Z u = int_0^a R(a,s) V u(s) ds with V = diag(theta).  Because R acts
diagonally, the normal equations decouple into scalar mode Gramians
gamma_n = theta_n^2 Q[r_n(a,.)^2] under the shared quadrature Q, and the
minimal-L2 preimage of p is u_n(s) = theta_n r_n(a,s) p_n / gamma_n.

Sharing Q between Z itself (mode n of Zu is Q[r_n(a,.) theta_n u_n]), the
Gramians, the control norm and the solver's u integral makes
Z(min_norm_inverse(p)) = p and the linear-case terminal identity hold to
roundoff, not just to quadrature order.  Likewise the steering residual's
dh integral uses the last row of the Scenario's dh rule, the same weights
the solver uses at t = a.

Everything here reads the resolvent only through its final row
r_n(a, t_k), an (N, M) array the Scenario builds once by the discrete
adjoint of the recurrence.

``steer`` looks for a fixed point of the combined operator
Phi(zeta) = psi(zeta, u_zeta), where u_zeta = Z^-1 p(zeta) is the
minimal-norm control for the steering residual of zeta: one loop of
synthesis and one psi sweep per pass, from the Picard seed.  At a fixed
point zeta(a) + g(zeta) = zeta1 up to the rounding of the preimage, which
is what the smallness conditions on Phi guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver
from .errors import DegenerateModeError, GridError, SteeringError
from .measure import RegulatedTrajectory
from .scenario import Scenario
from .solver import picard_solve  # noqa: F401 -- wrapped by bench/tracer.py

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


@dataclass(frozen=True, eq=False)
class SteerOutcome:
    control: ControlSignal
    trajectory: RegulatedTrajectory
    report: SteeringReport


def steer(scn: Scenario) -> SteerOutcome:
    """Iterate Phi(zeta) = psi(zeta, u_zeta) from the Picard seed to its fixed point.

    Each pass synthesizes the control for the current iterate, applies psi
    once with it and records the new iterate's terminal error; the loop
    stops when the sweep moves the path by less than tol_picard, and returns
    the path that sweep started from with its control, a pair psi moves by
    less than tol_picard.  With no nonlinearity and no nonlocal term psi
    does not depend on its iterate: the seed R(t, 0) zeta0 is the
    uncontrolled solution (returned with u = 0 when it already meets
    tol_target), and one pass reaches the fixed point.  Raises SteeringError
    with the error history when max_outer passes reach no fixed point, or
    when the fixed point misses tol_target.
    """
    tol = scn.tol
    traj = scn.picard_seed
    u = ControlSignal(np.zeros((len(scn.grid), scn.n_modes)))
    history = [terminal_error(scn, traj)]
    linear = scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero
    fixed = linear and history[0] <= tol.tol_target
    while not fixed:
        if len(history) > tol.max_outer:
            raise SteeringError(
                f"no fixed point after {tol.max_outer} outer iterations "
                f"(terminal error {history[-1]:.3e})", history)
        # through the module attributes, which bench/tracer.py wraps
        u = synthesize_control(scn, traj)
        new = solver.apply_psi(scn, traj, u.samples)
        history.append(terminal_error(scn, new))
        # psi(traj, u) = new; psi(new, u) = new too when psi does not read its iterate
        fixed = linear or solver._sup_distance(new, traj) < tol.tol_picard
        if linear or not fixed:
            traj = new
    error = history[-1] if linear else history[-2]
    outer = len(history) - 1
    if error > tol.tol_target:
        raise SteeringError(
            f"terminal error {error:.3e} at the fixed point after {outer} "
            f"outer iterations (target {tol.tol_target:g})", history)
    report = SteeringReport(error, outer, u.l2_norm(scn.wq_full), tuple(history), True)
    return SteerOutcome(u, traj, report)
