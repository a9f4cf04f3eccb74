from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from mds.measure import JumpMeasure, build_time_grid, constant_measure
from mds.scenario import NonlinearityEval, NonlocalEval, Scenario, Tolerances
from mds.scenario_io import _SOLVER_ARRAYS, parse_scenario
from mds.spectral import LinearPart, SpectralBasis
from mds.verify import check_autonomous_reduction, verify_resolvent, verify_resolvent_pde

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

_criterion_lines: list[str] = []


def record_criterion(label: str, passed: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion for the summary."""
    line = f"{'PASS' if passed else 'FAIL'}  criterion {label}: {detail}"
    _criterion_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


def replaced(record, **changes):
    """A new record of ``record``'s class, built from its constructor's arguments
    as ``record`` holds them, with ``changes`` in place of some; the new
    record's ``__init__`` validates them."""
    names = inspect.signature(type(record)).parameters
    assert set(changes) <= set(names), sorted(set(changes) - set(names))
    return type(record)(**{name: changes.get(name, vars(record)[name]) for name in names})


def assemble_scenario(basis: SpectralBasis, linear: LinearPart, h: JumpMeasure,
                      base_nodes: int, zeta0, zeta1,
                      nonlinearity: NonlinearityEval | None = None,
                      nonlocal_term: NonlocalEval | None = None,
                      theta=1.0, tol: Tolerances | None = None,
                      config: dict | None = None) -> Scenario:
    """A Scenario built in code on the merged grid (uniform base + jump nodes)."""
    grid = build_time_grid(h, base_nodes)
    return Scenario(basis, linear, h, grid, np.asarray(zeta0, dtype=float),
                    np.asarray(zeta1, dtype=float),
                    nonlinearity or NonlinearityEval("zero"),
                    nonlocal_term or NonlocalEval("zero"),
                    theta, tol or Tolerances(), config)


def sample_reports(basis: SpectralBasis, linear: LinearPart, grid, tol_pde: float = 1e-3,
                   arrays: int = _SOLVER_ARRAYS, pde_check=verify_resolvent_pde,
                   autonomy_check=check_autonomous_reduction):
    """The PDE and autonomy reports of verify-resolvent, run window by window
    as the command runs them, on a Scenario over ``grid``.

    The autonomy report is None where the check does not run (tau not
    constant or the grid not uniform).  ``arrays`` sets the window rule's
    budget; a test can pass its own window checks, each called as the
    command's are.  The driver, which verify-resolvent never reads, has no
    jump and ends where ``grid`` does.
    """
    n = basis.n_modes
    scn = Scenario(basis, linear, constant_measure(grid.end), grid, np.zeros(n), np.zeros(n),
                   NonlinearityEval("zero"), NonlocalEval("zero"), 1.0,
                   Tolerances(tol_pde=tol_pde))
    return verify_resolvent(scn, arrays, pde_check, autonomy_check)


def terms(scn, traj) -> tuple:
    """g and delta of a path, which the control synthesis and its residual take."""
    return scn.g_of(traj.values), scn.delta_values(traj.values)


def load_config(name: str) -> dict:
    with open(CONFIG_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def demo_scn():
    return parse_scenario(load_config("demo.json"))


@pytest.fixture(scope="session")
def linear_scn():
    return parse_scenario(load_config("linear_steering.json"))


@pytest.fixture(scope="session")
def resolvent_scn():
    return parse_scenario(load_config("resolvent_check.json"))


@pytest.fixture(scope="session")
def demo_solution(demo_scn):
    from mds.solver import picard_solve
    return picard_solve(demo_scn, None)


@pytest.fixture(scope="session")
def demo_steered(demo_scn):
    from mds.control import steer
    return steer(demo_scn)
