"""Every function in ``src/mds`` runs under some CLI command.

``mds.cli.main`` runs under ``sys.setprofile`` on a fixed set of documents:
all four commands on the three shipped configs (cut to 65 nodes), a
lebesgue-family and an explicit-measure document, one ``--physical`` run,
and documents that exit 1, 2 and 3.  Every function, method, property and
cached property defined in a module of the package must be called at least
once; the only exceptions are the names in ``KEPT``, each with its reason.
A helper that only the tests or the benchmark call belongs in ``tests/`` or
``bench/``, not in the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import pkgutil
import sys
from importlib import import_module

import mds
import mds.cli

from conftest import load_config
from test_scenario_io import tiny_doc

KEPT = {
    "mds._quad.simpson_prefix_matrix":
        "bench/tracer.py wraps it by attribute until the benchmark drops the span",
    "mds._quad.trapezoid_prefix_matrix":
        "bench/tracer.py wraps it by attribute until the benchmark drops the span",
    "mds.spectral.build_resolvent_table":
        "bench/tracer.py wraps it and builds the dense table for its extras",
    "mds.scenario_io.serialize_scenario":
        "the run record will hash the canonical document it returns",
}


def _runs() -> list[tuple[dict, list[str], int]]:
    """(document, CLI command and flags, expected exit code) for every run."""
    runs = []
    # verify-resolvent exits 1 at 65 nodes: the residual tolerance is set for
    # the shipped grids; demo.json and the explicit document fail cond1
    for name, checks in (("demo.json", 1), ("linear_steering.json", 0),
                         ("resolvent_check.json", 0)):
        doc = load_config(name)
        doc["grid"]["nodes"] = 65
        runs += [(doc, ["simulate"], 0), (doc, ["steer"], 0),
                 (doc, ["check-conditions"], checks), (doc, ["verify-resolvent"], 1)]
    lebesgue = tiny_doc(measure={"family": "lebesgue", "end": 1.0},
                        nonlinearity={"kind": "table", "values": [0.1, 0.0]})
    explicit = tiny_doc(measure={"end": 1.0, "jumps": [[0.25, 0.1], [0.5, 0.2]],
                                 "density": {"kind": "sine", "c0": 1.0, "c1": 0.5,
                                             "freq": 2.0}},
                        nonlinearity={"kind": "cosine", "M0": 0.05},
                        control={"theta": [1.0, 0.5]})
    explicit["nonlocal"] = {"kind": "log_kernel", "f": {"kind": "const", "c0": 0.01},
                            "f_space": {"kind": "affine", "c0": 1.0, "c1": 0.1}}
    for doc, checks in ((lebesgue, 0), (explicit, 1)):
        runs += [(doc, ["simulate"], 0), (doc, ["steer"], 0),
                 (doc, ["check-conditions"], checks), (doc, ["verify-resolvent"], 0)]
    # r_16(1, 1/2) = e^192 trips the overflow guard
    growing = tiny_doc(basis={"N": 16}, states={"zeta0": [1.0] * 16},
                       linear={"tau": {"kind": "affine", "c0": 3.0, "c1": -6.0}})
    runs += [
        (explicit, ["simulate", "--physical"], 0),
        (tiny_doc(basis={"N": 0}), ["simulate"], 1),
        (tiny_doc(tolerances={"max_picard": 0}), ["simulate"], 2),
        (tiny_doc(tolerances={"max_outer": 0}), ["steer"], 2),
        (growing, ["check-conditions"], 2),
        (tiny_doc(control={"theta": 0.0}), ["steer"], 3),
    ]
    return runs


def _defined() -> dict[str, object]:
    """Qualified name -> code object of every function a module of mds defines.

    Methods count, and so do the getters of properties and cached
    properties; the methods a dataclass generates do not, since their code
    is not in the module's file.
    """
    codes = {}
    for info in pkgutil.iter_modules(mds.__path__):
        module = import_module(f"mds.{info.name}")
        members = []
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()]
            else:
                members.append((name, obj))
        for name, fn in members:
            if isinstance(fn, property):
                fn = fn.fget
            elif isinstance(fn, functools.cached_property):
                fn = fn.func
            elif isinstance(fn, (staticmethod, classmethod)):
                fn = fn.__func__
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                codes[f"{module.__name__}.{name}"] = fn.__code__
    return codes


def test_every_package_function_runs_under_a_cli_command(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    exits = []
    for i, (doc, args, expected) in enumerate(_runs()):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        sys.setprofile(profile)
        try:
            code = mds.cli.main([args[0], str(path), "--out", str(tmp_path / f"out{i}"),
                                 "--quiet", *args[1:]])
        finally:
            sys.setprofile(None)
        exits.append((args, code, expected))
    assert all(code == expected for _, code, expected in exits), exits

    defined = _defined()
    assert set(KEPT) <= set(defined)
    unreached = sorted(name for name, code in defined.items()
                       if code not in called and name not in KEPT)
    assert not unreached, "unreached: " + ", ".join(unreached)
    # an entry of KEPT that a command now reaches no longer needs its exception
    assert not [name for name in KEPT if defined[name] in called]
