"""The solution operator psi and Picard iteration for mild solutions.

    (psi zeta)(t) = R(t,0)(zeta0 - g(zeta))
                  + int_0^t R(t,s) V u(s) ds
                  + int_[0,t) R(t,s) delta(s, zeta(s)) dh(s)

The u integral is Lebesgue (Simpson prefix rows); the dh integral goes
through the Scenario's single dh rule: the density by trapezoid over
[0, t] plus f(t_i) d_i for each jump t_i < t, at the left value of f, so a
jump counts only after its node.  A sweep's right limits, the (K, N) block
at the K jump nodes that a trajectory holds beside its (M, N) left values,
carry the increment delta(t, zeta(t)) * jump(t) because R(t,t) = Id; off
the jump nodes the path is continuous.

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

import numpy as np

from .errors import ConvergenceError, GridError
from .measure import RegulatedTrajectory
from .record import Record
from .scenario import Scenario
from .spectral import resolvent_sums

_BLOCKS = 8      # row blocks of a sweep's seeds and closure


def _check_grid(scn: Scenario, traj: RegulatedTrajectory) -> None:
    if len(traj.grid) != len(scn.grid) or not np.array_equal(traj.grid.nodes, scn.grid.nodes):
        raise GridError("trajectory is sampled on a different grid than the scenario")


def apply_psi(scn: Scenario, traj: RegulatedTrajectory, c=None, g=None,
              delta=None) -> RegulatedTrajectory:
    """One application of the solution operator to the iterate ``traj``.

    ``c`` is the control's coefficients on the final row, (N,), or None for
    no control: u(t_k) = r(a, t_k) c, formed a row block at a time.
    """
    # g and delta, g(traj) and delta(traj), are evaluated here unless given.
    # The march overwrites the seeds with its sums, and the closure is added a
    # row block at a time, each entry by the same operations in the same order
    # as from full arrays of zeros (so a -0.0 term seeds +0.0).
    _check_grid(scn, traj)
    if c is not None:
        c = np.asarray(c, dtype=float)
        if c.shape != (scn.n_modes,):
            raise GridError("the control must be one coefficient per mode")
        final = scn.final_row.T
    if g is None:
        g = scn.g_of(traj.values)
    nonlinear = not scn.nonlinearity.is_zero
    if delta is None and nonlinear:
        delta = scn.delta_values(traj.values)
    m_count = len(scn.grid)
    size = -(-m_count // _BLOCKS)
    blocks = [slice(lo, min(lo + size, m_count)) for lo in range(0, m_count, size)]
    values = np.empty((m_count, scn.n_modes))       # the seeds, then the path
    for rows in blocks:
        seeds = values[rows]
        seeds[:] = 0.0
        if rows.start == 0:
            seeds[0] = scn.zeta0 - g
        if c is not None:
            seeds += scn.wq_full[rows, None] * (final[rows] * c * scn.theta)
        if nonlinear:
            seeds += scn.dh_full[rows, None] * delta[rows]
    resolvent_sums(scn.steps, values, values)
    a11 = scn.steps.a11.T
    for rows in blocks:
        lo, hi = rows.start, rows.stop
        closure = np.zeros((hi - lo, scn.n_modes))
        if c is not None:
            first = max(lo - 1, 0)
            vu = final[first:hi] * c * scn.theta
            closure += (scn.wq_diag[rows] - scn.wq_full[rows])[:, None] * vu[lo - first:]
            j = max(lo, 1)                  # row j's cell reads a11 and vu at j - 1
            closure[j - lo:] += ((scn.wq_sub[j:hi] - scn.wq_full[j - 1:hi - 1])[:, None]
                                 * a11[j - 1:hi - 1] * vu[j - 1 - first:hi - 1 - first])
        if nonlinear:
            closure += (scn.dh_diag[rows] - scn.dh_full[rows])[:, None] * delta[rows]
        values[rows] += closure

    rows = scn.jump_rows              # + 0.0: a -0.0 left value's right limit is +0.0
    right = values[rows] + (delta[rows] * scn.jump_sizes[rows, None] if nonlinear else 0.0)
    return RegulatedTrajectory(scn.grid, values, rows, right)


def _sup_distance(a: RegulatedTrajectory, b: RegulatedTrajectory) -> float:
    def sup(x, y):
        diff = np.subtract(x, y)
        return np.sqrt(np.sum(np.multiply(diff, diff, out=diff), axis=-1)).max(initial=0.0)
    return float(max(sup(a.values, b.values), sup(a.right, b.right)))


class PicardResult(Record):
    def __init__(self, trajectory: RegulatedTrajectory, iterations: int, final_delta: float,
                 deltas: tuple):
        self.trajectory, self.iterations = trajectory, iterations
        self.final_delta, self.deltas = final_delta, deltas


def picard_solve(scn: Scenario, c=None) -> PicardResult:
    """Iterate psi at the control ``c`` (as in ``apply_psi``) from the seed until
    successive sup-node distance < tol_picard.

    With no nonlinearity and no nonlocal term psi does not depend on its
    iterate, so a single sweep from the zero path is the fixed point and the
    seed is not marched.
    """
    if scn.tol.max_picard < 1:
        raise ConvergenceError("max_picard exhausted before any sweep", [])
    if scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero:
        zero = np.zeros((len(scn.grid), scn.n_modes))
        start = RegulatedTrajectory(scn.grid, zero, scn.jump_rows, zero[scn.jump_rows])
        return PicardResult(apply_psi(scn, start, c), 1, 0.0, (0.0,))
    current = scn.picard_seed
    deltas = []
    for sweep in range(1, scn.tol.max_picard + 1):
        new = apply_psi(scn, current, c)
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
    rows = traj.jump_rows
    if rows.size == 0:
        return 0.0
    table = scn.nonlinearity.table
    per_node = np.ndim(table) == 2 and len(table) > 1      # a table with a row per node
    delta = table[rows] if per_node else scn.delta_values(traj.values[rows])
    gap = traj.right - traj.values[rows] - delta * scn.jump_sizes[rows, None]
    return float(np.sqrt(np.sum(gap * gap, axis=-1)).max())


def discontinuity_count(traj: RegulatedTrajectory) -> int:
    """Number of nodes where the right limit differs from the left value."""
    return int(np.sum(np.any(traj.right != traj.values[traj.jump_rows], axis=-1)))
