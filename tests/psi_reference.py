"""Reference copies of the psi sweep, the Picard solve and the steering loop as
they were before the sweep built its seeds and closure in place, and before a
trajectory held its right limits only at the jump rows.

Each evaluates g and delta wherever it needs them, builds the full (M, N)
seeds and closure from zeros with one temporary per term, and forms g from
freshly sampled f and trapezoid weights.  Each path is a ``Path``: its left
values and a full (M, N) array of right values, equal to the left values off
the jump rows.  A control is its full (M, N) array of samples u(t_k), as it
was before the package held the N coefficients c with u(t_k) = r(a, t_k) c;
the reference steering loop forms the samples from the package's
``min_norm_inverse``.  ``tests/test_psi_reference.py`` checks that the
package's solver and steering loop give bitwise the same paths, controls,
histories and deltas.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from mds._quad import trapezoid_weights
from mds.control import SteeringReport, SteerOutcome, min_norm_inverse
from mds.errors import ConvergenceError, SteeringError
from mds.solver import PicardResult
from mds.spectral import resolvent_sums

Path = namedtuple("Path", "values right_values")


def _start(scn):
    """The Picard seed, whose right values are its left values."""
    values = scn.picard_seed.values
    return Path(values, values)


def g_of(scn, values):
    """g of the sampled path, with f and the trapezoid weights formed on each call."""
    term, basis = scn.nonlocal_term, scn.basis
    if term.kind == "zero":
        return np.zeros(basis.n_modes)
    ft = term.f_time.value(scn.grid.nodes)
    fx = term.f_space.value(basis.x) if term.f_space is not None else np.ones_like(basis.x)
    phys = basis.to_physical(values)
    np.abs(phys, out=phys)
    np.sqrt(phys, out=phys)
    inner = np.log1p(phys, out=phys) @ basis.weights
    t_int = float(trapezoid_weights(scn.grid.nodes) @ (ft * inner))
    return basis.to_modes(fx * t_int)


def apply_psi(scn, traj, u=None):
    g = g_of(scn, traj.values)
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
    right = values
    rows = scn.jump_rows
    if rows.size:
        right = values.copy()
        right[rows] += delta[rows] * scn.jump_sizes[rows, None]
    return Path(values, right)


def sup_distance(a, b):
    dv = np.sqrt(np.sum((a.values - b.values) ** 2, axis=-1)).max()
    dr = np.sqrt(np.sum((a.right_values - b.right_values) ** 2, axis=-1)).max()
    return float(max(dv, dr))


def picard_solve(scn, u=None):
    if scn.tol.max_picard < 1:
        raise ConvergenceError("max_picard exhausted before any sweep", [])
    if scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero:
        zero = np.zeros((len(scn.grid), scn.n_modes))
        return PicardResult(apply_psi(scn, Path(zero, zero), u), 1, 0.0, (0.0,))
    current = _start(scn)
    deltas = []
    for sweep in range(1, scn.tol.max_picard + 1):
        new = apply_psi(scn, current, u)
        delta = sup_distance(new, current)
        deltas.append(delta)
        if delta < scn.tol.tol_picard:
            return PicardResult(new, sweep, delta, tuple(deltas))
        current = new
    raise ConvergenceError(
        f"no Picard convergence in {scn.tol.max_picard} sweeps "
        f"(last delta {deltas[-1]:.3e}); the smallness conditions "
        f"are likely violated", deltas)


def steering_residual(scn, traj):
    g = g_of(scn, traj.values)
    final = scn.final_row
    delta = scn.delta_values(traj.values)
    last = np.append(scn.dh_full[:-1], scn.dh_diag[-1])
    return (scn.zeta1 - g - final[:, 0] * (scn.zeta0 - g)
            - (final * delta.T) @ last)


def terminal_error(scn, traj):
    gap = traj.values[-1] + g_of(scn, traj.values) - scn.zeta1
    return float(np.sqrt(gap @ gap))


def steer(scn):
    tol = scn.tol
    traj = _start(scn)
    u = np.zeros((len(scn.grid), scn.n_modes))
    u.setflags(write=False)
    history = [terminal_error(scn, traj)]
    linear = scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero
    fixed = linear and history[0] <= tol.tol_target
    while not fixed:
        if len(history) > tol.max_outer:
            raise SteeringError(
                f"no fixed point after {tol.max_outer} outer iterations "
                f"(terminal error {history[-1]:.3e})", history)
        u = scn.final_row.T * min_norm_inverse(scn, steering_residual(scn, traj))
        new = apply_psi(scn, traj, u)
        history.append(terminal_error(scn, new))
        fixed = linear or sup_distance(new, traj) < tol.tol_picard
        if linear or not fixed:
            traj = new
    error = history[-1] if linear else history[-2]
    outer = len(history) - 1
    if error > tol.tol_target:
        raise SteeringError(
            f"terminal error {error:.3e} at the fixed point after {outer} "
            f"outer iterations (target {tol.tol_target:g})", history)
    norm = float(np.sqrt(scn.wq_full @ np.sum(u ** 2, axis=-1)))
    return SteerOutcome(u, traj, SteeringReport(error, outer, norm, tuple(history), True))
