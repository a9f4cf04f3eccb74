from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mds.conditions import (ConditionConstants, build_report, check_cond1, check_cond2,
                            check_example_conditions, estimate_constants, pz_samples)
from mds.errors import UsageError
from mds.scenario_io import run_command

from conftest import load_config, replaced

WORKED = ConditionConstants(L1=1.0, L2=0.1, L3=1.0, c=0.05, d=1.0, gamma=1.0,
                            n_mass=0.05, U_mass=0.05, PZ_mass=1.0, horizon=1.0)


# ---------------------------------------------------------------- arithmetic

def test_worked_constants_first_inequality():
    lhs, ok = check_cond1(WORKED)
    assert abs(lhs - 0.115) < 1e-12
    assert ok


def test_worked_constants_second_inequality():
    lhs, ok = check_cond2(WORKED)
    assert abs(lhs - 0.12) < 1e-12
    assert ok


def test_worked_specialized_forms():
    lhs5, lhs6, ok = check_example_conditions(WORKED, 0.1, 0.1, 0.05)
    assert abs(lhs5 - 0.115) < 1e-12
    assert abs(lhs6 - 0.12) < 1e-12
    assert ok


def test_boundary_value_fails_strictly():
    k = ConditionConstants(L1=1.0, L2=0.0, L3=0.0, c=1.0, d=0.0, gamma=0.0,
                           n_mass=0.0, U_mass=0.0, PZ_mass=0.0, horizon=1.0)
    lhs, ok = check_cond1(k)
    assert lhs == 1.0
    assert not ok


def test_all_zero_forcing_passes():
    k = ConditionConstants(L1=1.0, L2=0.0, L3=0.0, c=0.0, d=0.0, gamma=0.0,
                           n_mass=0.0, U_mass=0.0, PZ_mass=0.0, horizon=1.0)
    assert check_cond1(k) == (0.0, True)
    assert check_cond2(k) == (0.0, True)


def test_zero_gain_reduces_second_form_to_bound_times_l1():
    lhs5, lhs6, _ = check_example_conditions(WORKED, 0.3, 0.0, 0.0)
    assert lhs6 == 0.3 * WORKED.L1
    assert lhs5 == 0.5 * 0.3 * WORKED.L1


def test_l1_below_one_rejected():
    with pytest.raises(UsageError):
        ConditionConstants(L1=0.5, L2=0.0, L3=0.0, c=0.0, d=0.0, gamma=0.0,
                           n_mass=0.0, U_mass=0.0, PZ_mass=0.0, horizon=1.0)
    with pytest.raises(UsageError):
        replaced(WORKED, n_mass=-0.1)
    with pytest.raises(UsageError):
        replaced(WORKED, horizon=0.0)


_FIELDS = ("L1", "L2", "L3", "c", "gamma", "n_mass", "U_mass", "PZ_mass", "horizon")


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(_FIELDS),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_both_sides_monotone_in_every_constant(l1, l2, l3, c, n_mass, u_mass,
                                               field, bump):
    k = ConditionConstants(L1=l1, L2=l2, L3=l3, c=c, d=0.5, gamma=0.7,
                           n_mass=n_mass, U_mass=u_mass, PZ_mass=0.9, horizon=0.8)
    bigger = replaced(k, **{field: getattr(k, field) + bump})
    for check in (check_cond1, check_cond2):
        lo, _ = check(k)
        hi, _ = check(bigger)
        assert hi >= lo - 1e-12 * max(1.0, abs(lo))


# ---------------------------------------------------------------- measured constants

def test_linear_scenario_constants(linear_scn):
    k = estimate_constants(linear_scn)
    assert k.L1 == 1.0
    assert k.L2 == 1.0
    assert k.c == 0.0 and k.d == 0.0
    assert k.n_mass == 0.0 and k.U_mass == 0.0
    assert k.horizon == 1.0
    # driver is constant, so cond2 is trivially satisfied
    assert check_cond2(k) == (0.0, True)


def test_demo_nonlinearity_mass_is_exact(demo_scn):
    k = estimate_constants(demo_scn)
    assert k.n_mass == 0.1 * 0.5
    assert k.U_mass == 0.1 * 0.5
    assert k.d == 1.0
    assert k.c == 0.05


def test_pz_samples_shape_and_sign(demo_scn):
    pz = pz_samples(demo_scn)
    assert pz.shape == (len(demo_scn.grid),)
    assert np.all(pz > 0.0)
    k = estimate_constants(demo_scn)
    assert k.L3 == pytest.approx(np.max(pz) * math.sqrt(demo_scn.horizon), rel=1e-15)
    assert k.PZ_mass == pytest.approx(demo_scn.wq_full @ pz, rel=1e-15)


def test_demo_specialized_forms_agree_with_general(demo_scn):
    rep = build_report(demo_scn)
    scale1 = max(1.0, abs(rep.lhs_cond1))
    scale2 = max(1.0, abs(rep.lhs_cond2))
    assert abs(rep.lhs_cond1 - rep.lhs_worked1) <= 1e-12 * scale1
    assert abs(rep.lhs_cond2 - rep.lhs_worked2) <= 1e-12 * scale2


def test_demo_report_structure(tmp_path, demo_scn):
    rep = build_report(demo_scn)
    run_command("check-conditions", load_config("demo.json"), str(tmp_path), quiet=True)
    lines = (tmp_path / "conditions.txt").read_text().splitlines()
    assert len(lines) == 19
    assert lines[0] == f"L1={rep.constants.L1:.17g}"
    m1, m2 = rep.margins
    assert m1 == 1.0 - rep.lhs_cond1
    assert m2 == 1.0 - rep.lhs_cond2
    assert rep.all_pass == (rep.pass_cond1 and rep.pass_cond2)
