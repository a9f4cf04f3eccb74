"""Config parsing, canonical serialization, CSV export, command runner.

Configs are JSON documents with fixed sections; unknown keys anywhere are
rejected with the dotted path of the offender.  Function-valued entries
(tau, kernel, density, f) come from the closed catalog in funcs.py, so
validation is total and parsing is deterministic.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .conditions import build_report
from .control import steer
from .errors import (ConfigError, ConvergenceError, DegenerateModeError,
                     DomainError, GridError, InstabilityError, SteeringError,
                     UsageError)
from .funcs import MemoryKernel, TimeFunction
from .measure import JumpMeasure, build_time_grid, lebesgue_measure, zeno_measure, constant_measure
from .scenario import NonlinearityEval, NonlocalEval, Scenario, Tolerances
from .solver import discontinuity_count, jump_consistency, picard_solve
from .spectral import (ANCHOR_BLOCK, LinearPart, check_autonomous_reduction,
                       make_basis, sample_resolvent, verify_resolvent_pde)

MAX_MODES = 256
MAX_NODES = 65536
_SOLVER_ARRAYS = 16     # (M, N) arrays a psi sweep or a steering pass holds at once
_TOLERANCE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Tolerances)}

_TIME_FIELDS = {"const": ("c0",), "affine": ("c0", "c1"),
                "sine": ("c0", "c1", "freq"), "cosine": ("c0", "c1", "freq")}
_KERNEL_FIELDS = {"zero": (), "const": ("c0",), "exp_diff": ("c0", "rate")}


def _expect_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ConfigError(f"{path}.{extra[0]}", "unknown key")


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required number")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


def _integer(obj: dict, key: str, path: str, default=None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required integer")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _vector(obj: dict, key: str, path: str, length: int) -> np.ndarray:
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required coefficient list")
    v = obj[key]
    if not isinstance(v, list) or len(v) != length:
        raise ConfigError(f"{path}.{key}", f"expected a list of {length} numbers")
    for i, entry in enumerate(v):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)) \
                or not math.isfinite(entry):
            raise ConfigError(f"{path}.{key}[{i}]", "expected a finite number")
    return np.array(v, dtype=float)


def _parse_time_spec(obj, path: str) -> TimeFunction:
    obj = _expect_map(obj, path)
    kind = obj.get("kind")
    if kind not in _TIME_FIELDS:
        raise ConfigError(f"{path}.kind",
                          f"expected one of {sorted(_TIME_FIELDS)}, got {kind!r}")
    _reject_unknown(obj, ("kind",) + _TIME_FIELDS[kind], path)
    kwargs = {f: _number(obj, f, path, default=1.0 if f == "freq" else 0.0)
              for f in _TIME_FIELDS[kind]}
    try:
        return TimeFunction(kind, **kwargs)
    except UsageError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_kernel_spec(obj, path: str) -> MemoryKernel:
    obj = _expect_map(obj, path)
    kind = obj.get("kind")
    if kind not in _KERNEL_FIELDS:
        raise ConfigError(f"{path}.kind",
                          f"expected one of {sorted(_KERNEL_FIELDS)}, got {kind!r}")
    _reject_unknown(obj, ("kind",) + _KERNEL_FIELDS[kind], path)
    kwargs = {f: _number(obj, f, path, default=0.0) for f in _KERNEL_FIELDS[kind]}
    return MemoryKernel(kind, **kwargs)


def _parse_measure(obj, path: str, base_nodes: int) -> JumpMeasure:
    obj = _expect_map(obj, path)
    if "family" in obj:
        family = obj["family"]
        if family == "zeno":
            _reject_unknown(obj, ("family", "K"), path)
            k = _integer(obj, "K", path, default=20)
            if not 2 <= k <= MAX_NODES:
                raise ConfigError(f"{path}.K", f"zeno truncation K must be in 2..{MAX_NODES}")
            return zeno_measure(k)
        if family in ("constant", "lebesgue"):
            _reject_unknown(obj, ("family", "end"), path)
            end = _number(obj, "end", path, default=1.0)
            if not end > 0.0:
                raise ConfigError(f"{path}.end", "horizon must be positive")
            if family == "constant":
                return constant_measure(end)
            return lebesgue_measure(end, base_nodes)
        raise ConfigError(f"{path}.family",
                          f"expected zeno, constant or lebesgue, got {family!r}")
    _reject_unknown(obj, ("end", "density", "jumps"), path)
    end = _number(obj, "end", path, default=1.0)
    if not end > 0.0:
        raise ConfigError(f"{path}.end", "horizon must be positive")
    density = _parse_time_spec(obj.get("density", {"kind": "const", "c0": 0.0}),
                               f"{path}.density")
    nodes = np.linspace(0.0, end, max(base_nodes, 2))
    values = density.value(nodes)
    if np.any(values < 0.0):
        raise ConfigError(f"{path}.density", "density must be nonnegative on [0, end]")
    jumps = obj.get("jumps", [])
    if not isinstance(jumps, list):
        raise ConfigError(f"{path}.jumps", "expected a list of [t, size] pairs")
    if len(jumps) > MAX_NODES:
        raise ConfigError(f"{path}.jumps", f"at most {MAX_NODES} jumps")
    locs, sizes = [], []
    for i, pair in enumerate(jumps):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                        and math.isfinite(x) for x in pair)):
            raise ConfigError(f"{path}.jumps[{i}]", "expected a finite [t, size] pair")
        locs.append(float(pair[0]))
        sizes.append(float(pair[1]))
    try:
        return JumpMeasure(end, nodes, values, np.array(locs), np.array(sizes))
    except (DomainError, UsageError) as exc:
        raise ConfigError(f"{path}.jumps", str(exc)) from exc


_SECTIONS = ("basis", "grid", "linear", "measure", "nonlinearity", "nonlocal",
             "control", "states", "tolerances")


def parse_scenario(doc: dict) -> Scenario:
    """Validate a config document and assemble the Scenario it describes."""
    doc = _expect_map(doc, "$")
    _reject_unknown(doc, _SECTIONS, "$")
    for section in ("basis", "grid", "linear", "measure", "states"):
        if section not in doc:
            raise ConfigError(f"$.{section}", "missing required section")

    b = _expect_map(doc["basis"], "$.basis")
    _reject_unknown(b, ("N", "collocation"), "$.basis")
    n_modes = _integer(b, "N", "$.basis")
    if not 1 <= n_modes <= MAX_MODES:
        raise ConfigError("$.basis.N", f"mode count must be in 1..{MAX_MODES}")
    collocation = _integer(b, "collocation", "$.basis", default=2 * n_modes + 1)
    if not n_modes <= collocation <= 8 * MAX_MODES:
        raise ConfigError("$.basis.collocation",
                          f"collocation must be in N..{8 * MAX_MODES}")

    g = _expect_map(doc["grid"], "$.grid")
    _reject_unknown(g, ("nodes",), "$.grid")
    base_nodes = _integer(g, "nodes", "$.grid")
    if not 2 <= base_nodes <= MAX_NODES:
        raise ConfigError("$.grid.nodes", f"node count must be in 2..{MAX_NODES}")

    lin = _expect_map(doc["linear"], "$.linear")
    _reject_unknown(lin, ("tau", "kernel"), "$.linear")
    if "tau" not in lin:
        raise ConfigError("$.linear.tau", "missing required spec")
    tau = _parse_time_spec(lin["tau"], "$.linear.tau")
    kernel = _parse_kernel_spec(lin.get("kernel", {"kind": "zero"}), "$.linear.kernel")

    h = _parse_measure(doc["measure"], "$.measure", base_nodes)

    nl = _expect_map(doc.get("nonlinearity", {"kind": "zero"}), "$.nonlinearity")
    kind = nl.get("kind")
    if kind == "zero":
        _reject_unknown(nl, ("kind",), "$.nonlinearity")
        nonlinearity = NonlinearityEval("zero")
    elif kind == "cosine":
        _reject_unknown(nl, ("kind", "M0"), "$.nonlinearity")
        nonlinearity = NonlinearityEval("cosine", amplitude=_number(nl, "M0", "$.nonlinearity"))
    elif kind == "table":
        _reject_unknown(nl, ("kind", "values"), "$.nonlinearity")
        values = nl.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("$.nonlinearity.values", "expected a coefficient list")
        rows = values if isinstance(values[0], list) else [values]
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == n_modes
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                            and math.isfinite(x) for x in row)):
                raise ConfigError(f"$.nonlinearity.values[{i}]",
                                  f"expected {n_modes} finite numbers")
        nonlinearity = NonlinearityEval("table", table=np.array(rows, dtype=float))
    else:
        raise ConfigError("$.nonlinearity.kind",
                          f"expected zero, cosine or table, got {kind!r}")

    nc = _expect_map(doc.get("nonlocal", {"kind": "zero"}), "$.nonlocal")
    kind = nc.get("kind")
    if kind == "zero":
        _reject_unknown(nc, ("kind",), "$.nonlocal")
        nonlocal_term = NonlocalEval("zero")
    elif kind == "log_kernel":
        _reject_unknown(nc, ("kind", "f", "f_space", "d"), "$.nonlocal")
        if "f" not in nc:
            raise ConfigError("$.nonlocal.f", "missing required spec")
        f_time = _parse_time_spec(nc["f"], "$.nonlocal.f")
        f_space = (_parse_time_spec(nc["f_space"], "$.nonlocal.f_space")
                   if "f_space" in nc else None)
        d = _number(nc, "d", "$.nonlocal", default=1.0)
        if d < 0.0:
            raise ConfigError("$.nonlocal.d", "growth offset must be nonnegative")
        nonlocal_term = NonlocalEval("log_kernel", f_time=f_time, f_space=f_space, offset=d)
    else:
        raise ConfigError("$.nonlocal.kind",
                          f"expected zero or log_kernel, got {kind!r}")

    ctl = _expect_map(doc.get("control", {}), "$.control")
    _reject_unknown(ctl, ("theta",), "$.control")
    theta_raw = ctl.get("theta", 1.0)
    if isinstance(theta_raw, list):
        theta = _vector(ctl, "theta", "$.control", n_modes)
    elif isinstance(theta_raw, (int, float)) and not isinstance(theta_raw, bool) \
            and math.isfinite(theta_raw):
        theta = np.full(n_modes, float(theta_raw))
    else:
        raise ConfigError("$.control.theta", "expected a number or coefficient list")

    st = _expect_map(doc["states"], "$.states")
    _reject_unknown(st, ("zeta0", "zeta1"), "$.states")
    zeta0 = _vector(st, "zeta0", "$.states", n_modes)
    zeta1 = (_vector(st, "zeta1", "$.states", n_modes) if "zeta1" in st
             else np.zeros(n_modes))

    tl = _expect_map(doc.get("tolerances", {}), "$.tolerances")
    _reject_unknown(tl, _TOLERANCE_DEFAULTS, "$.tolerances")
    try:
        tol = Tolerances(**{
            name: (_integer if isinstance(default, int) else _number)(
                tl, name, "$.tolerances", default=default)
            for name, default in _TOLERANCE_DEFAULTS.items()})
    except UsageError as exc:
        raise ConfigError("$.tolerances", str(exc)) from exc

    try:
        basis = make_basis(n_modes, collocation)
        grid = build_time_grid(h, base_nodes)
        if len(grid) > MAX_NODES:
            raise ConfigError("$.grid.nodes", f"merged grid has {len(grid)} nodes, "
                              f"more than {MAX_NODES}")
        # the largest live block: ANCHOR_BLOCK marched resolvent columns of
        # every mode, plus the solver's few (M, N) arrays
        need = 8 * len(grid) * n_modes * (ANCHOR_BLOCK + _SOLVER_ARRAYS)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ConfigError("$.grid.nodes", f"{len(grid)} merged nodes x {n_modes} modes "
                              f"need about {need:.3g} bytes, more than the "
                              f"{have:.3g} bytes of physical memory")
        scn = Scenario(basis, LinearPart(tau, kernel), h, grid, zeta0, zeta1,
                       nonlinearity, nonlocal_term, theta, tol,
                       config=_canonical_doc(doc, n_modes, collocation, base_nodes))
    except (UsageError, DomainError, GridError) as exc:
        raise ConfigError("$", str(exc)) from exc
    return scn


def _canonical_doc(doc: dict, n_modes: int, collocation: int, base_nodes: int) -> dict:
    """The parsed document with defaults made explicit (JSON round-trip form)."""
    out = json.loads(json.dumps(doc))        # deep copy, JSON-clean
    out["basis"] = {"N": n_modes, "collocation": collocation}
    out["grid"] = {"nodes": base_nodes}
    out.setdefault("linear", {}).setdefault("kernel", {"kind": "zero"})
    out.setdefault("nonlinearity", {"kind": "zero"})
    out.setdefault("nonlocal", {"kind": "zero"})
    out.setdefault("control", {})
    out["control"].setdefault("theta", 1.0)
    tol = out.setdefault("tolerances", {})
    for name, default in _TOLERANCE_DEFAULTS.items():
        tol.setdefault(name, default)
    out.setdefault("states", {}).setdefault("zeta1", [0.0] * n_modes)
    return out


def serialize_scenario(scn: Scenario) -> dict:
    """The canonical document this scenario was parsed from."""
    if scn.config is None:
        raise UsageError("scenario was assembled in code; no source document to emit")
    return json.loads(json.dumps(scn.config))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(path: str, scn: Scenario, traj, physical: bool = False) -> None:
    """One row per node (kind=left), plus a kind=right row at each jump node."""
    header = ["t", "node_kind"] + [f"coeff_{n}" for n in scn.basis.mode_numbers]
    if physical:
        header += [f"phys_{j + 1}" for j in range(scn.basis.collocation)]
    jump_rows = set(int(i) for i in scn.jump_rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for j, t in enumerate(scn.grid.nodes):
            rows = [("left", traj.values[j])]
            if j in jump_rows:
                rows.append(("right", traj.right_values[j]))
            for kind, coeffs in rows:
                cells = [_fmt(t), kind] + [_fmt(c) for c in coeffs]
                if physical:
                    cells += [_fmt(v) for v in scn.basis.to_physical(coeffs)]
                fh.write(",".join(cells) + "\n")


def write_control_csv(path: str, scn: Scenario, samples: np.ndarray) -> None:
    header = ["t"] + [f"u_coeff_{n}" for n in scn.basis.mode_numbers]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for j, t in enumerate(scn.grid.nodes):
            fh.write(",".join([_fmt(t)] + [_fmt(c) for c in samples[j]]) + "\n")


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_command(cmd: str, doc: dict, out_dir: str = ".",
                physical: bool = False, quiet: bool = False) -> int:
    """Execute one pipeline command; returns the process exit code."""

    def say(*parts):
        if not quiet:
            print(*parts)

    try:
        scn = parse_scenario(doc)
        os.makedirs(out_dir, exist_ok=True)
        if cmd == "simulate":
            result = picard_solve(scn, None)
            traj = result.trajectory
            write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"),
                                 scn, traj, physical)
            violation = jump_consistency(traj, scn)
            lines = [
                f"picard_iterations={result.iterations}",
                f"final_delta={_fmt(result.final_delta)}",
                f"jump_consistency={_fmt(violation)}",
                f"discontinuities={discontinuity_count(traj)}",
            ]
            _write_lines(os.path.join(out_dir, "simulate.txt"), lines)
            say(f"simulate: {result.iterations} sweeps, "
                f"jump consistency {violation:.3e}")
            return 0
        if cmd == "steer":
            outcome = steer(scn)
            write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"),
                                 scn, outcome.trajectory, physical)
            write_control_csv(os.path.join(out_dir, "control.csv"),
                              scn, outcome.control.samples)
            _write_lines(os.path.join(out_dir, "steering.txt"),
                         outcome.report.as_lines())
            say(f"steer: terminal error {outcome.report.terminal_error:.3e} "
                f"in {outcome.report.outer_iterations} outer iterations, "
                f"control norm {outcome.report.control_norm:.6g}")
            return 0
        if cmd == "check-conditions":
            report = build_report(scn)
            _write_lines(os.path.join(out_dir, "conditions.txt"), report.as_lines())
            m1, m2 = report.margins
            say(f"cond1: lhs {report.lhs_cond1:.6g} margin {m1:.6g} "
                f"{'pass' if report.pass_cond1 else 'FAIL'}")
            say(f"cond2: lhs {report.lhs_cond2:.6g} margin {m2:.6g} "
                f"{'pass' if report.pass_cond2 else 'FAIL'}")
            return 0 if report.all_pass else 1
        if cmd == "verify-resolvent":
            sample = sample_resolvent(scn.basis, scn.linear, scn.grid)
            pde = verify_resolvent_pde(sample, scn.tol.tol_pde)
            lines = [
                f"max_raw_residual={_fmt(pde.max_raw_residual)}",
                f"max_scaled_residual={_fmt(pde.max_scaled_residual)}",
                f"tol_pde={_fmt(pde.tol_pde)}",
                f"anchors_checked={pde.anchors_checked}",
                f"pde_pass={str(pde.passed).lower()}",
            ]
            ok = pde.passed
            if scn.linear.autonomous and scn.grid.is_uniform():
                auto = check_autonomous_reduction(sample)
                lines += [
                    f"autonomy_max_deviation={_fmt(auto.max_deviation)}",
                    f"autonomy_pass={str(auto.passed).lower()}",
                ]
                ok = ok and auto.passed
            _write_lines(os.path.join(out_dir, "resolvent_report.txt"), lines)
            say(f"resolvent: scaled residual {pde.max_scaled_residual:.3e} "
                f"({'pass' if ok else 'FAIL'})")
            return 0 if ok else 1
        raise UsageError(f"unknown command {cmd!r}")
    except ConfigError as exc:
        say(f"config error: {exc}")
        return 1
    except (UsageError, DomainError, GridError) as exc:
        say(f"validation error: {exc}")
        return 1
    except (ConvergenceError, SteeringError, InstabilityError) as exc:
        say(f"no convergence: {exc}")
        return 2
    except DegenerateModeError as exc:
        say(f"degenerate control: {exc}")
        return 3
