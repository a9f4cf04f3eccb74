"""Steering operator Z, its minimal-norm inverse, and the steering loop.

Z u = int_0^a R(a,s) V u(s) ds with V = diag(theta).  Because R acts
diagonally, the normal equations decouple into scalar mode Gramians
gamma_n = theta_n^2 Q[r_n(a,.)^2] under the shared quadrature Q, and the
minimal-L2 preimage of p is u_n(s) = r_n(a,s) c_n, rank one per mode, with
c_n = theta_n p_n / gamma_n.  The control is held as the coefficients c,
(N,); a consumer forms the samples r(a, t_k) c from the final row inside
the row loop it already runs.

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

import numpy as np

from . import solver
from .errors import DegenerateModeError, SteeringError
from .measure import RegulatedTrajectory
from .record import Record
from .scenario import Scenario
from .solver import picard_solve  # noqa: F401 -- wrapped by bench/tracer.py

GAMMA_FLOOR = 1e-12


def gramians(scn: Scenario) -> np.ndarray:
    """gamma_n = theta_n^2 int_0^a r_n(a,s)^2 ds, from the final row r_n(a, t_k).

    Raises DegenerateModeError naming the first mode whose gamma_n is at or
    below GAMMA_FLOOR: the minimal-norm inverse divides by every gamma_n.
    """
    final = scn.final_row
    gam = scn.theta ** 2 * ((final * final) @ scn.wq_full)
    bad = np.where(gam <= GAMMA_FLOOR)[0]
    if bad.size:
        raise DegenerateModeError(int(bad[0]) + 1, float(gam[bad[0]]), GAMMA_FLOOR)
    return gam


def min_norm_inverse(scn: Scenario, p: np.ndarray) -> np.ndarray:
    """Minimal-L2-norm preimage of p under Z (per-mode normal equations).

    The control's coefficients c, (N,), read-only: u(t_k) = scn.final_row[:, k] * c.
    """
    c = scn.theta * p / gramians(scn)
    c.setflags(write=False)
    return c


def steering_residual(scn: Scenario, g, delta) -> np.ndarray:
    """p = zeta1 - g(zeta) - R(a,0)(zeta0 - g(zeta)) - int R(a,s) delta dh.

    ``g`` and ``delta`` are the iterate's g(zeta), (N,), and delta(zeta), (M, N).
    """
    final = scn.final_row
    last = np.append(scn.dh_full[:-1], scn.dh_diag[-1])   # the dh rule's row at t = a
    return (scn.zeta1 - g - final[:, 0] * (scn.zeta0 - g)
            - (final * delta.T) @ last)


def synthesize_control(scn: Scenario, g, delta) -> np.ndarray:
    """The steering control for the current iterate: Z^-1 of its residual."""
    return min_norm_inverse(scn, steering_residual(scn, g, delta))


def terminal_error(scn: Scenario, traj: RegulatedTrajectory, g=None) -> float:
    """||zeta(a) + g(zeta) - zeta1||: the exact-controllability defect."""
    gap = traj.values[-1] + (scn.g_of(traj.values) if g is None else g) - scn.zeta1
    return float(np.sqrt(gap @ gap))


class SteeringReport(Record):
    def __init__(self, terminal_error: float, outer_iterations: int, control_norm: float,
                 history: tuple, converged: bool):
        self.terminal_error, self.outer_iterations = terminal_error, outer_iterations
        self.control_norm, self.history, self.converged = control_norm, history, converged


class SteerOutcome(Record):
    def __init__(self, control: np.ndarray, trajectory: RegulatedTrajectory,
                 report: SteeringReport):
        # control: the coefficients c, (N,) and read-only, on the final row, or
        # None when no pass ran
        self.control, self.trajectory, self.report = control, trajectory, report


def steer(scn: Scenario) -> SteerOutcome:
    """Iterate Phi(zeta) = psi(zeta, u_zeta) from the Picard seed to its fixed point.

    Each pass synthesizes the control for the current iterate, applies psi
    once with it and records the new iterate's terminal error; the loop
    stops when the sweep moves the path by less than tol_picard, and returns
    the path that sweep started from with its control, a pair psi moves by
    less than tol_picard.  A path holds its right limits only at the jump
    rows and the control is its N coefficients, so the only (M, N) arrays a
    pass keeps are the old path and the new one.  With no nonlinearity and
    no nonlocal term psi does not depend on its iterate: the seed
    R(t, 0) zeta0 is the uncontrolled solution (returned with no control,
    u = 0, when it already meets tol_target), and one pass reaches the fixed
    point.  Raises SteeringError with the error history when max_outer
    passes reach no fixed point, or when the fixed point misses tol_target.
    """
    tol = scn.tol
    traj, c = scn.picard_seed, None
    g = scn.g_of(traj.values)
    history = [terminal_error(scn, traj, g)]
    linear = scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero
    fixed = linear and history[0] <= tol.tol_target
    while not fixed:
        if len(history) > tol.max_outer:
            raise SteeringError(
                f"no fixed point after {tol.max_outer} outer iterations "
                f"(terminal error {history[-1]:.3e})", history)
        # through the module attributes, which bench/tracer.py wraps
        delta = scn.delta_values(traj.values)
        c = synthesize_control(scn, g, delta)
        new = solver.apply_psi(scn, traj, c, g, delta)
        del delta
        # psi(traj, u) = new; psi(new, u) = new too when psi does not read its iterate
        fixed = linear or solver._sup_distance(new, traj) < tol.tol_picard
        # g(new) is formed once the old path goes
        if linear or not fixed:
            traj = new
            g = scn.g_of(traj.values)
            history.append(terminal_error(scn, traj, g))
        else:
            history.append(terminal_error(scn, new))
    error = history[-1] if linear else history[-2]
    outer = len(history) - 1
    if error > tol.tol_target:
        raise SteeringError(
            f"terminal error {error:.3e} at the fixed point after {outer} "
            f"outer iterations (target {tol.tol_target:g})", history)
    norm = 0.0                                      # (int ||u||^2 dt)^(1/2)
    if c is not None:
        norm = float(np.sqrt(scn.wq_full @ np.sum((scn.final_row.T * c) ** 2, axis=-1)))
    report = SteeringReport(error, outer, norm, tuple(history), True)
    return SteerOutcome(c, traj, report)
