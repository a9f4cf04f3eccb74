"""The solution operator psi and Picard iteration for mild solutions.

    (psi zeta)(t) = R(t,0)(zeta0 - g(zeta))
                  + int_0^t R(t,s) V u(s) ds
                  + int_[0,t) R(t,s) delta(s, zeta(s)) dh(s)

The u integral is Lebesgue (Simpson prefix rows); the dh integral goes
through the Scenario's single dh rule: the density by trapezoid over
[0, t] plus f(t_i) d_i for each jump t_i < t, at the left value of f, so a
jump counts only after its node.  Right values at jump nodes carry the
increment delta(t, zeta(t)) * jump(t) because R(t,t) = Id.

One sweep is one forced run of the resolvent recurrence, O(N M), on the
step maps the Scenario holds for the whole run: the seed at row s is the
full-span weight times the forcing, plus zeta0 - g(zeta) at row 0.  A
prefix row differs from the full-span rule only in its last two entries,
so a row-local closure finishes each row: its own diagonal weight, and on
odd Simpson rows one cell through r(t_j, t_{j-1}), the step maps' a11.
Iteration starts from the Picard seed R(t, 0) zeta0, which the Scenario
marches once and keeps read-only (``picard_seed``).  ``picard_solve``
iterates psi at a fixed control (``simulate``'s solve); ``steer`` in
``mds.control`` sweeps psi itself, once per control synthesis, from the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridError
from .measure import RegulatedTrajectory
from .scenario import Scenario
from .spectral import resolvent_sums


def _check_grid(scn: Scenario, traj: RegulatedTrajectory) -> None:
    if len(traj.grid) != len(scn.grid) or not np.array_equal(traj.grid.nodes, scn.grid.nodes):
        raise GridError("trajectory is sampled on a different grid than the scenario")


def _as_control(scn: Scenario, u) -> np.ndarray | None:
    if u is None:
        return None
    u = np.asarray(u, dtype=float)
    if u.shape != (len(scn.grid), scn.n_modes):
        raise GridError("control samples must be one mode vector per grid node")
    return u


def apply_psi(scn: Scenario, traj: RegulatedTrajectory, u=None) -> RegulatedTrajectory:
    """One application of the solution operator to the iterate ``traj``."""
    _check_grid(scn, traj)
    u = _as_control(scn, u)
    g = scn.g_of(traj.values)
    seeds = np.zeros((len(scn.grid), scn.n_modes))
    seeds[0] = scn.zeta0 - g
    closure = np.zeros_like(seeds)
    if u is not None:
        vu = u * scn.theta
        seeds += scn.wq_full[:, None] * vu
        closure += (scn.wq_diag - scn.wq_full)[:, None] * vu
        closure[1:] += ((scn.wq_sub[1:] - scn.wq_full[:-1])[:, None]
                        * scn.steps.a11.T * vu[:-1])

    delta = scn.delta_values(traj.values)
    if not scn.nonlinearity.is_zero:
        seeds += scn.dh_full[:, None] * delta
        closure += (scn.dh_diag - scn.dh_full)[:, None] * delta
    values = resolvent_sums(scn.steps, seeds) + closure

    right = values                 # RegulatedTrajectory freezes both
    rows = scn.jump_rows
    if rows.size:
        right = values.copy()
        right[rows] += delta[rows] * scn.jump_sizes[rows, None]
    return RegulatedTrajectory(scn.grid, values, right)


def initial_iterate(scn: Scenario) -> RegulatedTrajectory:
    """Picard seed zeta^0(t) = R(t,0) zeta0, the same for every solve of the run."""
    return scn.picard_seed


def _sup_distance(a: RegulatedTrajectory, b: RegulatedTrajectory) -> float:
    dv = np.sqrt(np.sum((a.values - b.values) ** 2, axis=-1)).max()
    dr = np.sqrt(np.sum((a.right_values - b.right_values) ** 2, axis=-1)).max()
    return float(max(dv, dr))


@dataclass(frozen=True)
class PicardResult:
    trajectory: RegulatedTrajectory
    iterations: int
    final_delta: float
    deltas: tuple


def picard_solve(scn: Scenario, u=None) -> PicardResult:
    """Iterate psi from the seed until successive sup-node distance < tol_picard.

    With no nonlinearity and no nonlocal term psi does not depend on its
    iterate, so a single sweep from the zero path is the fixed point and the
    seed is not marched.
    """
    if scn.tol.max_picard < 1:
        raise ConvergenceError("max_picard exhausted before any sweep", [])
    if scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero:
        zero = np.zeros((len(scn.grid), scn.n_modes))
        return PicardResult(apply_psi(scn, RegulatedTrajectory(scn.grid, zero, zero), u),
                            1, 0.0, (0.0,))
    current = initial_iterate(scn)
    deltas = []
    for sweep in range(1, scn.tol.max_picard + 1):
        new = apply_psi(scn, current, u)
        delta = _sup_distance(new, current)
        deltas.append(delta)
        if delta < scn.tol.tol_picard:
            return PicardResult(new, sweep, delta, tuple(deltas))
        current = new
    raise ConvergenceError(
        f"no Picard convergence in {scn.tol.max_picard} sweeps "
        f"(last delta {deltas[-1]:.3e}); the smallness conditions "
        f"are likely violated", deltas)


def jump_consistency(traj: RegulatedTrajectory, scn: Scenario) -> float:
    """Max over jump nodes of ||zeta(t+) - zeta(t) - delta(t, zeta(t)) jump(t)||."""
    _check_grid(scn, traj)
    rows = scn.jump_rows
    if rows.size == 0:
        return 0.0
    delta = scn.delta_values(traj.values[rows])
    gap = traj.right_values[rows] - traj.values[rows] - delta * scn.jump_sizes[rows, None]
    return float(np.sqrt(np.sum(gap * gap, axis=-1)).max())


def discontinuity_count(traj: RegulatedTrajectory) -> int:
    """Number of nodes where the right value differs from the left value."""
    return int(np.sum(np.any(traj.right_values != traj.values, axis=-1)))
