"""Every function in ``src/mds`` runs under some CLI command.

``mds.cli.main`` runs under ``sys.setprofile`` on a fixed set of documents:
all four commands on the three shipped configs (cut to 65 nodes), a
lebesgue-family and an explicit-measure document, one ``--physical`` run,
and documents that exit 1, 2 and 3.  Every function, method, property and
cached property defined in a module of the package must be called at least
once; the only exceptions are the names in ``KEPT``, each with its reason.
A helper that only the tests or the benchmark call belongs in ``tests/`` or
``bench/``, not in the package.  A fresh interpreter running every command
must also never import ``numpy.ma`` or ``dataclasses``: no module of the
package generates code, which ``ast`` checks by the names in ``CODEGEN``.

Every name has one home: ``import mds`` loads no module of the package and
not numpy, and no module imports a name it never references, apart from the
re-exports in ``REEXPORTS`` that ``bench/tracer.py`` wraps by attribute.
"""

from __future__ import annotations

import ast
import functools
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

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

# names a module imports and never references: bench/tracer.py wraps each by
# attribute, as tracer.wrap(mds.<module>, "<name>", ...), for one of its spans
REEXPORTS = {
    "mds.scenario.simpson_prefix_matrix": "the quad.simpson_prefix_matrix span",
    "mds.scenario.trapezoid_prefix_matrix": "the quad.trapezoid_prefix_matrix span",
    "mds.scenario.build_resolvent_table": "the spectral.build_resolvent_table span",
    "mds.spectral.trapezoid_prefix_matrix": "the quad.trapezoid_prefix_matrix span",
    "mds.control.picard_solve": "the solver.picard_solve span",
}
# names whose use generates code at import or run time; a record class is a
# plain class on mds.record.Record with its __init__ written in its module
CODEGEN = {"dataclass", "make_dataclass", "namedtuple", "NamedTuple", "exec", "eval"}
ROOT = Path(__file__).resolve().parents[1]


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
    properties.  A function whose code is not in the module's file does not
    count, but the package generates none (``CODEGEN``).
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


@pytest.fixture(scope="module")
def command_modules(tmp_path_factory):
    """The modules a fresh interpreter holds after running every command on
    every shipped config at 257 nodes, where verify-resolvent spreads its 64
    anchors by linspace."""
    tmp_path = tmp_path_factory.mktemp("commands")
    runs = []
    for name in ("demo.json", "linear_steering.json", "resolvent_check.json"):
        doc = load_config(name)
        doc["grid"]["nodes"] = 257
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        runs += [[command, str(path), "--out", str(tmp_path / f"{path.stem}-{command}"),
                  "--quiet"]
                 for command in ("simulate", "steer", "check-conditions", "verify-resolvent")]
    child = ("import json, sys\n"
             "import mds.cli\n"
             "codes = [mds.cli.main(args) for args in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(sys.modules)]))\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout)
    assert codes[-1] == 0                      # the resolvent_check sample passed
    return modules


def test_no_command_imports_numpy_ma(command_modules):
    # numpy.ma costs a run that imports it about 14 ms and close to 1 MiB,
    # and no command needs it; np.unique once imported it
    assert "numpy.ma" not in command_modules


def test_no_command_imports_dataclasses(command_modules):
    # @dataclass(frozen=True) compiled about 112 methods through exec for the
    # 20 record classes, 11-22 ms of every cold start; numpy does not import it
    assert "dataclasses" not in command_modules


def test_import_mds_loads_no_module():
    # the package root binds only __version__, so every name is imported from
    # the module that defines it
    child = ("import json, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import mds\n"
             "print(json.dumps([mds.__file__, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", child, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    path, loaded = json.loads(proc.stdout)
    assert Path(path) == ROOT / "src" / "mds" / "__init__.py"
    assert not [name for name in loaded
                if name.startswith("mds.") or name.split(".")[0] == "numpy"]


def _scan_modules() -> tuple[set[str], set[str]]:
    """``mds.<module>.<name>`` of every name a module imports and never
    references, and of every name in ``CODEGEN`` a module imports or reads,
    as a name or an attribute."""
    unreferenced, generating = set(), set()
    for path in sorted((ROOT / "src" / "mds").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read = referenced | {node.attr for node in ast.walk(tree)
                             if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                read |= {alias.name.split(".")[-1] for alias in node.names}
                if getattr(node, "module", None) != "__future__":
                    bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                    unreferenced |= {f"mds.{path.stem}.{name}" for name in bound
                                     if name not in referenced}
        generating |= {f"mds.{path.stem}.{name}" for name in read & CODEGEN}
    return unreferenced, generating


def _tracer_wraps() -> set[str]:
    """``mds.<module>.<name>`` of every ``tracer.wrap(mds.<module>, "<name>", ...)``."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return {f"mds.{call.args[0].attr}.{call.args[1].value}" for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "wrap" and isinstance(call.args[0], ast.Attribute)
            and isinstance(call.args[0].value, ast.Name) and call.args[0].value.id == "mds"}


def test_every_import_is_referenced_but_the_tracer_reexports():
    found, _ = _scan_modules()
    assert not found - set(REEXPORTS), "imported, never referenced: " + ", ".join(
        sorted(found - set(REEXPORTS)))
    # an entry that is now referenced or no longer imported needs no exception
    assert not set(REEXPORTS) - found, "no longer a bare re-export: " + ", ".join(
        sorted(set(REEXPORTS) - found))
    # once the tracer stops wrapping a name, the re-export that kept it can go
    unwrapped = set(REEXPORTS) - _tracer_wraps()
    assert not unwrapped, "bench/tracer.py no longer wraps: " + ", ".join(sorted(unwrapped))


def test_no_module_generates_code():
    _, generating = _scan_modules()
    assert not generating, "generates code: " + ", ".join(sorted(generating))
