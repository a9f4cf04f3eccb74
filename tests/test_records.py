"""Every record of the package refuses change once it is built.

A record class derives from ``mds.record.Record``: its attributes are set
once, by its ``__init__`` or a cached property, and every array it holds,
alone or in a tuple or list, is read-only.  The
records are found by walking the base's subclasses, so a new record class
is checked as soon as some run below builds one: a demo ``steer`` and
``simulate``, ``check-conditions`` on the demo and ``verify-resolvent`` on
resolvent_check.json.  The demo's ``steer`` reads every array a Scenario or
its basis forms on first use, so the walk sees those too.
"""

from __future__ import annotations

import pkgutil
from importlib import import_module

import numpy as np
import pytest

import mds
from mds.conditions import build_report
from mds.control import steer
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import JumpMeasure, RegulatedTrajectory, TimeGrid, constant_measure
from mds.record import Record
from mds.scenario import NonlinearityEval
from mds.scenario_io import parse_scenario
from mds.solver import picard_solve
from mds.spectral import LinearPart, make_basis

from conftest import assemble_scenario, load_config, sample_reports


def _record_classes() -> set[type]:
    for info in pkgutil.iter_modules(mds.__path__):
        import_module(f"mds.{info.name}")
    classes, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            classes.add(cls)
            stack.append(cls)
    return classes


def _reachable(roots) -> list[Record]:
    """Every record reachable from ``roots`` through record attributes, lists and tuples."""
    found, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, Record) and id(obj) not in found:
            found[id(obj)] = obj
            stack.extend(vars(obj).values())
    return list(found.values())


def test_every_record_refuses_change():
    demo = parse_scenario(load_config("demo.json"))     # fresh: the test tries to change it
    check = parse_scenario(load_config("resolvent_check.json"))
    roots = [demo, steer(demo), picard_solve(demo, None), build_report(demo),
             *sample_reports(check.basis, check.linear, check.grid)]
    records = _reachable(roots)
    assert {"final_row", "steps"} <= set(vars(demo))            # the cached data is built
    assert roots[1].control.shape == (demo.n_modes,)            # the control's coefficients
    assert "layout" in vars(demo.steps)
    assert {"wq_full", "wq_diag", "wq_sub", "dh_full", "dh_diag"} <= set(vars(demo))
    assert {"x", "weights", "synthesis", "analysis"} <= set(vars(demo.basis))
    missing = _record_classes() - {type(record) for record in records}
    assert not missing, "no instance built: " + ", ".join(sorted(c.__name__ for c in missing))
    for record in records:
        for name, value in list(vars(record).items()):
            where = f"{type(record).__name__}.{name}"
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert vars(record)[name] is value, where
            for item in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(item, np.ndarray):
                    assert not item.flags.writeable, where


def test_a_table_nonlinearity_holds_a_read_only_copy():
    table = np.array([[0.1, 0.0], [0.2, 0.3]])
    nonlinearity = NonlinearityEval("table", table=table)
    assert table.flags.writeable
    assert not nonlinearity.table.flags.writeable
    assert not np.shares_memory(table, nonlinearity.table)
    assert np.array_equal(nonlinearity.table, table)


def test_grids_and_measures_copy_what_they_are_given_and_trajectories_take_it():
    nodes = np.linspace(0.0, 1.0, 5)
    grid = TimeGrid(nodes)
    assert nodes.flags.writeable and not grid.nodes.flags.writeable
    assert not np.shares_memory(nodes, grid.nodes)
    h = constant_measure(2)
    assert type(h.domain_end) is float and h.domain_end == 2.0
    given = (nodes, np.ones(5), np.array([0.5]), np.array([0.25]))
    h = JumpMeasure(1.0, *given)
    held = (h.density_nodes, h.density_values, h.jump_locs, h.jump_sizes)
    for mine, its in zip(given, held):
        assert mine.flags.writeable and not np.shares_memory(mine, its)
    # a Scenario copies the states and the gains it is given
    zeta0, zeta1, theta = np.zeros(2), np.ones(2), np.full(2, 0.5)
    scn = assemble_scenario(make_basis(2), LinearPart(TimeFunction("const", c0=1.0),
                                                      MemoryKernel("zero")),
                            constant_measure(1.0), 5, zeta0, zeta1, theta=theta)
    for mine, its in zip((zeta0, zeta1, theta), (scn.zeta0, scn.zeta1, scn.theta)):
        assert mine.flags.writeable and not its.flags.writeable
        assert not np.shares_memory(mine, its) and np.array_equal(mine, its)
    # a trajectory owns the fresh arrays a sweep hands it: frozen, not copied
    values, right = np.zeros((5, 2)), np.zeros((1, 2))
    traj = RegulatedTrajectory(grid, values, np.array([2]), right)
    assert traj.values is values and traj.right is right
    assert not values.flags.writeable and not right.flags.writeable
