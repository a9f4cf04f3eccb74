"""Smallness conditions that guarantee steerability.

Constants are measured from the scenario, then plugged into two
sufficient inequalities (both must be strictly below 1):

  cond1: c [L1 + L1 L2 L3 sqrt(a) (1+L1)] + L1 g [1 + L1 L2 L3 sqrt(a)] n_mass
  cond2: (2 L1 + 4 L1^2 L2 PZ_mass) U_mass

plus the specialized forms for the worked configuration, which are the
same expressions after substituting its constants.  L1 = sup |r| comes
from one pass over the rows that marches every anchor column at once with
the Scenario's step maps; everything else reads its final row r_n(a, t_k).
No resolvent table is held.
"""

from __future__ import annotations

import math

import numpy as np

from .control import gramians
from .errors import UsageError
from .record import Record
from .scenario import Scenario
from .spectral import resolvent_sup


class ConditionConstants(Record):
    """Measured constants feeding the sufficient inequalities.

    L1: sup resolvent norm.  L2: gain norm max theta_n.  L3: operator-norm
    estimate of the minimal-norm inverse into L2.  c, d: nonlocal growth.
    gamma: asymptotic slope of the nonlinearity's growth modulus.
    n_mass / U_mass: bound and Lipschitz constants integrated against dh.
    PZ_mass: int_0^a P_Z(s) ds for the inverse's pointwise kernel bound.
    The attributes are set in this order, which conditions.txt keeps.
    """

    def __init__(self, L1: float, L2: float, L3: float, c: float, d: float, gamma: float,
                 n_mass: float, U_mass: float, PZ_mass: float, horizon: float):
        self.L1, self.L2, self.L3, self.c, self.d, self.gamma = L1, L2, L3, c, d, gamma
        self.n_mass, self.U_mass, self.PZ_mass, self.horizon = n_mass, U_mass, PZ_mass, horizon
        if self.L1 < 1.0:
            raise UsageError("L1 below 1 contradicts r_n(s,s) = 1")
        for name in ("L2", "L3", "c", "d", "gamma", "n_mass", "U_mass", "PZ_mass"):
            if getattr(self, name) < 0.0:
                raise UsageError(f"{name} must be nonnegative")
        if not self.horizon > 0.0:
            raise UsageError("horizon must be positive")


def pz_samples(scn: Scenario) -> np.ndarray:
    """P_Z(s) = max_n |theta_n r_n(a,s)| / gamma_n on the grid."""
    final = scn.final_row
    gam = gramians(final, scn.theta, scn.wq_full)
    return np.max(np.abs(scn.theta[:, None] * final) / gam[:, None], axis=0)


def estimate_constants(scn: Scenario) -> ConditionConstants:
    """Measure every constant from the scenario."""
    a = scn.horizon
    sqrt_a = math.sqrt(a)
    pz = pz_samples(scn)
    # L3: mode-diagonal bound of p -> u_p, ||u_p|| <= sup_s P_Z(s) * sqrt(a) ||p||
    l3 = float(np.max(pz)) * sqrt_a
    dh_mass = scn.h.density_mass() + scn.h.total_jump_mass()
    c = scn.nonlocal_term.growth_c(scn.basis, scn.grid)
    d = 0.0 if scn.nonlocal_term.is_zero else scn.nonlocal_term.offset
    return ConditionConstants(
        L1=resolvent_sup(scn.steps),
        L2=float(np.max(np.abs(scn.theta))),
        L3=l3,
        c=c,
        d=d,
        gamma=1.0,
        n_mass=scn.nonlinearity.bound_const() * dh_mass,
        U_mass=scn.nonlinearity.lipschitz_const() * dh_mass,
        PZ_mass=float(scn.wq_full @ pz),
        horizon=a,
    )


def check_cond1(k: ConditionConstants) -> tuple[float, bool]:
    sqrt_a = math.sqrt(k.horizon)
    lhs = (k.c * (k.L1 + k.L1 * k.L2 * k.L3 * sqrt_a * (1.0 + k.L1))
           + k.L1 * k.gamma * (1.0 + k.L1 * k.L2 * k.L3 * sqrt_a) * k.n_mass)
    return lhs, lhs < 1.0


def check_cond2(k: ConditionConstants) -> tuple[float, bool]:
    lhs = (2.0 * k.L1 + 4.0 * k.L1 ** 2 * k.L2 * k.PZ_mass) * k.U_mass
    return lhs, lhs < 1.0


def check_example_conditions(k: ConditionConstants, m0: float, theta: float,
                             f_norm: float) -> tuple[float, float, bool]:
    """cond1 and cond2 at the worked configuration: gain theta, nonlocal growth
    f_norm, unit horizon, and bound and Lipschitz masses m0/2 (1/2 is the
    driver's mass)."""
    worked = ConditionConstants(**{**vars(k), "L2": theta, "c": f_norm, "gamma": 1.0,
                                   "n_mass": m0 / 2.0, "U_mass": m0 / 2.0, "horizon": 1.0})
    (lhs5, ok5), (lhs6, ok6) = check_cond1(worked), check_cond2(worked)
    return lhs5, lhs6, (ok5 and ok6)


class ConditionReport(Record):
    def __init__(self, constants: ConditionConstants, lhs_cond1: float, lhs_cond2: float,
                 lhs_worked1: float, lhs_worked2: float, pass_cond1: bool, pass_cond2: bool,
                 pass_examples: bool):
        self.constants, self.lhs_cond1, self.lhs_cond2 = constants, lhs_cond1, lhs_cond2
        self.lhs_worked1, self.lhs_worked2, self.pass_cond1 = lhs_worked1, lhs_worked2, pass_cond1
        self.pass_cond2, self.pass_examples = pass_cond2, pass_examples

    @property
    def all_pass(self) -> bool:
        return self.pass_cond1 and self.pass_cond2

    @property
    def margins(self) -> tuple[float, float]:
        return 1.0 - self.lhs_cond1, 1.0 - self.lhs_cond2


def build_report(scn: Scenario) -> ConditionReport:
    """Full condition report; the specialized forms use the measured constants."""
    k = estimate_constants(scn)
    lhs1, ok1 = check_cond1(k)
    lhs2, ok2 = check_cond2(k)
    m0 = scn.nonlinearity.bound_const()
    lhs5, lhs6, ok56 = check_example_conditions(k, m0, k.L2, k.c)
    return ConditionReport(k, lhs1, lhs2, lhs5, lhs6, ok1, ok2, ok56)
