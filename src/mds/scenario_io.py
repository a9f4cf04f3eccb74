"""Config parsing, canonical serialization, CSV and report output, command runner.

Configs are JSON documents with fixed sections; unknown keys anywhere are
rejected with the dotted path of the offender.  Function-valued entries
(tau, kernel, density, f) come from the closed catalog in funcs.py, so
validation is total and parsing is deterministic.

Every number a document carries, whether a scalar, a list entry, a table
row, a jump pair or a tolerance, passes one check: a number, not a bool,
finite and of magnitude at most MAX_COEFFICIENT; an explicit jump list
passes it in one array pass, and pair by pair only to name a bad pair.
Each kinded map (time spec, kernel, measure family, nonlinearity, nonlocal
term) is checked against one table of the keys its kind allows.  Each
entry is read once,
and the value the parse used, default or not, is written into the
canonical document the Scenario keeps, so two documents that describe the
same scenario serialize alike.

Every report file is a record, an ordered map of name to value (a float,
an int or a bool), written one ``name=value`` line per entry by
``_write_record``.  ``_text`` is the one place a report value becomes
text: ``%.17g`` (_NUMBER_FORMAT) for a number, ``true``/``false`` for a
bool; the CSV rows use the same format.

Each command is one function in ``COMMANDS``, the table the CLI also takes
its choices from.  ``run_command`` parses, looks the command up, runs it,
writes its record and prints its lines, and maps each typed error to its
stdout line and exit code.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os

# spectral is imported before numpy.  Where no bytecode cache can be written,
# each module compiles on import; a compile after numpy has loaded grows the
# heap, which stays resident.  spectral's compile is the largest after this
# module's (1.2 MB under tracemalloc), so it runs here, in the memory this
# module's compile has just freed.
from .spectral import MAX_MODES, LinearPart, make_basis, physical_memory

import numpy as np

from .conditions import build_report
from .control import steer
from .errors import (ConfigError, ConvergenceError, DegenerateModeError,
                     DomainError, GridError, InstabilityError, SteeringError,
                     UsageError)
from .funcs import _KERNEL_KINDS, _TIME_KINDS, MemoryKernel, TimeFunction
from .measure import JumpMeasure, build_time_grid, lebesgue_measure, zeno_measure, constant_measure
from .scenario import (_NL_KINDS, _NONLOCAL_KINDS, NonlinearityEval, NonlocalEval,
                       Scenario, Tolerances)
from .solver import discontinuity_count, jump_consistency, picard_solve
from .verify import check_autonomous_reduction, verify_resolvent, verify_resolvent_pde

MAX_NODES = 65536
# max_picard and max_outer: a document can ask for at most this many sweeps
# per Picard solve and steering passes; a steering pass is one sweep, so no
# command runs more than this many sweeps and a run's work is bounded by its grid
MAX_ITERATIONS = 1024
# |v| of every number a document carries (a coefficient of a time function,
# kernel or nonlinearity, a gain, a state, a jump size, d, a tolerance) and
# exp(-rate a) of a kernel: a product of three such numbers stays finite
MAX_COEFFICIENT = 1e100
# horizons a: base nodes stay farther apart than 1e-12 max(1, a), the least gap
# a driver keeps between two jumps and from either end, and a few horizons
# times coefficients stay finite
HORIZON_RANGE = (1e-6, 1e6)
# (M, N) arrays a command holds at once (the step maps, the final row, the
# Picard seed, a steering pass's paths and nonlinearity, a sweep's march):
# the largest tracemalloc peak of simulate, steer and check-conditions
# on the demo at 2049 and 16385 nodes, rounded up, which
# tests/test_scenario_io.py holds from both sides
_SOLVER_ARRAYS = 12
_COLLOCATION_ARRAYS = 1     # (M, J) arrays a psi sweep holds at once at the J nodes
_NUMBER_FORMAT = "%.17g"     # every number a report or a CSV row writes
_CSV_ROWS = 1024             # rows of control.csv formed at once
_DEFAULTS = {cls: {name: p.default for name, p in inspect.signature(cls).parameters.items()}
             for cls in (TimeFunction, MemoryKernel, Tolerances)}

_SECTIONS = ("basis", "grid", "linear", "measure", "nonlinearity", "nonlocal",
             "control", "states", "tolerances")
_REQUIRED_SECTIONS = ("basis", "grid", "linear", "measure", "states")
# the keys each measure family allows besides its family; the other kinded
# maps read the tables of the classes they build
_MEASURE_FIELDS = {"zeno": ("K",), "constant": ("end",), "lebesgue": ("end",)}
_EXPLICIT_MEASURE_FIELDS = ("end", "density", "jumps")


def _number(v, path: str) -> float:
    """The one check on every number a document carries."""
    # nan and inf fail the comparison; an int compares exactly, never overflowing
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= MAX_COEFFICIENT:
        raise ConfigError(path, f"expected a finite number of magnitude at most "
                                f"{MAX_COEFFICIENT:g}, got {v!r}")
    return float(v)


def _numbers(v, path: str, length: int, by_entry: bool = True) -> list[float]:
    """A list of ``length`` numbers; a bad entry is named by its index when
    ``by_entry``, else by the list's own path."""
    if not isinstance(v, list) or len(v) != length:
        raise ConfigError(path, f"expected a list of {length} numbers")
    return [_number(x, f"{path}[{i}]" if by_entry else path) for i, x in enumerate(v)]


class _Reader:
    """One map of a document, read entry by entry into its canonical copy.

    ``out`` receives every value the parse used, defaults included, in the
    form it was checked in; a map read below this one is linked into it.
    """

    def __init__(self, obj, path: str, allowed=None):
        if not isinstance(obj, dict):
            raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
        self.obj = obj
        self.path = path
        self.out = {}
        if allowed is not None:
            self.only(allowed)

    def only(self, allowed) -> None:
        extra = sorted(set(self.obj) - set(allowed))
        if extra:
            raise ConfigError(f"{self.path}.{extra[0]}", "unknown key")

    def raw(self, key: str, default=None):
        """The entry at ``key``, or ``default`` when it is absent; required when None."""
        if key in self.obj:
            return self.obj[key]
        if default is None:
            raise ConfigError(f"{self.path}.{key}", "missing required entry")
        return default

    def map(self, key: str, allowed, default=None) -> _Reader:
        sub = _Reader(self.raw(key, default), f"{self.path}.{key}", allowed)
        self.out[key] = sub.out
        return sub

    def kinded(self, key: str, table: dict, default=None,
               tag: str = "kind") -> tuple[str, _Reader]:
        """The kind at ``key`` and the reader of its map, once the kind is one
        of ``table`` and the map holds no key that kind does not allow."""
        sub = _Reader(self.raw(key, default), f"{self.path}.{key}")
        kind = sub.obj.get(tag)
        if not isinstance(kind, str) or kind not in table:
            raise ConfigError(f"{sub.path}.{tag}",
                              f"expected one of {sorted(table)}, got {kind!r}")
        sub.only((tag,) + table[kind])
        sub.out[tag] = kind
        self.out[key] = sub.out
        return kind, sub

    def number(self, key: str, default=None) -> float:
        self.out[key] = _number(self.raw(key, default), f"{self.path}.{key}")
        return self.out[key]

    def integer(self, key: str, low=-math.inf, high=math.inf, default=None) -> int:
        v = self.raw(key, default)
        if isinstance(v, bool) or not isinstance(v, int) or not low <= v <= high:
            raise ConfigError(f"{self.path}.{key}",
                              f"expected an integer in {low}..{high}, got {v!r}")
        self.out[key] = v
        return v

    def vector(self, key: str, length: int, default=None) -> np.ndarray:
        self.out[key] = _numbers(self.raw(key, default), f"{self.path}.{key}", length)
        return np.array(self.out[key])

    def function(self, key: str, table: dict, cls, default=None):
        """A TimeFunction or MemoryKernel from a kinded map of numbers."""
        kind, spec = self.kinded(key, table, default)
        for name in table[kind]:
            spec.number(name, _DEFAULTS[cls][name])
        try:
            return cls(**spec.out)
        except UsageError as exc:
            raise ConfigError(spec.path, str(exc)) from exc

    def horizon(self) -> float:
        end = self.number("end", default=1.0)
        low, high = HORIZON_RANGE
        if not low <= end <= high:
            raise ConfigError(f"{self.path}.end", f"horizon must be in {low:g}..{high:g}")
        return end


def _plain_pairs(jumps: list) -> np.ndarray | None:
    """The jump list as an (n, 2) float array when every entry is a list of
    two numbers that ``_number`` accepts, in one pass over the whole list;
    None when some entry may fail, for the per-pair check to name."""
    if not (set(map(type, jumps)) <= {list} and set(map(len, jumps)) <= {2}):
        return None
    flat = list(itertools.chain.from_iterable(jumps))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:       # an integer beyond the float range
        return None
    # strictly below: an integer that rounds onto the bound is left to
    # _number's exact comparison, and nan and inf fail here too
    if not np.all(np.abs(values) < MAX_COEFFICIENT):
        return None
    return values.reshape(-1, 2)


def _parse_measure(doc: _Reader, base_nodes: int) -> JumpMeasure:
    spec = doc.obj["measure"]
    if isinstance(spec, dict) and "family" in spec:
        family, m = doc.kinded("measure", _MEASURE_FIELDS, tag="family")
        if family == "zeno":
            return zeno_measure(m.integer("K", 2, MAX_NODES, default=20))
        if family == "constant":
            return constant_measure(m.horizon())
        return lebesgue_measure(m.horizon(), base_nodes)
    m = doc.map("measure", _EXPLICIT_MEASURE_FIELDS)
    end = m.horizon()
    density = m.function("density", _TIME_KINDS, TimeFunction,
                         default={"kind": "const", "c0": 0.0})
    nodes = np.linspace(0.0, end, max(base_nodes, 2))
    values = density.value(nodes)
    if np.any(values < 0.0):
        raise ConfigError(f"{m.path}.density", "density must be nonnegative on [0, end]")
    jumps = m.raw("jumps", [])
    if not isinstance(jumps, list):
        raise ConfigError(f"{m.path}.jumps", "expected a list of [t, size] pairs")
    if len(jumps) > MAX_NODES:
        raise ConfigError(f"{m.path}.jumps", f"at most {MAX_NODES} jumps")
    pairs = _plain_pairs(jumps)
    if pairs is None:       # some pair fails: the per-pair check names the first
        pairs = np.array([_numbers(pair, f"{m.path}.jumps[{i}]", 2, by_entry=False)
                          for i, pair in enumerate(jumps)], dtype=float)
    m.out["jumps"] = pairs.tolist()
    locs, sizes = pairs.T
    try:
        return JumpMeasure(end, nodes, values, locs, sizes)
    except (DomainError, UsageError) as exc:
        raise ConfigError(f"{m.path}.jumps", str(exc)) from exc


# bytes a run on M nodes holds at once, which the parse refuses above physical
# memory: the solver's few (M, N) arrays, plus the (M, J) path values a sweep
# synthesizes at the J = j_count collocation nodes for a nonzero cosine
# nonlinearity or the log-kernel nonlocal term (0 when neither is), plus the
# basis: its (J, N) synthesis and analysis matrices and its nodes, weights and
# f_space samples, which outweigh a few (M, N) arrays when J is large beside M
# and N is small
def solver_charge(m_count: int, n_modes: int, collocation: int, j_count: int) -> int:
    basis = collocation * (2 * n_modes + 3)
    return 8 * (m_count * (n_modes * _SOLVER_ARRAYS + j_count * _COLLOCATION_ARRAYS) + basis)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a config document and assemble the Scenario it describes."""
    doc = _Reader(doc, "$", _SECTIONS)
    for section in _REQUIRED_SECTIONS:     # a missing section is named before any is read
        doc.raw(section)

    b = doc.map("basis", ("N", "collocation"))
    n_modes = b.integer("N", 1, MAX_MODES)
    collocation = b.integer("collocation", n_modes, 8 * MAX_MODES, default=2 * n_modes + 1)
    base_nodes = doc.map("grid", ("nodes",)).integer("nodes", 2, MAX_NODES)

    lin = doc.map("linear", ("tau", "kernel"))
    tau = lin.function("tau", _TIME_KINDS, TimeFunction)
    kernel = lin.function("kernel", _KERNEL_KINDS, MemoryKernel, default={"kind": "zero"})

    h = _parse_measure(doc, base_nodes)
    if -kernel.rate * h.domain_end > math.log(MAX_COEFFICIENT):
        raise ConfigError("$.linear.kernel.rate", f"the kernel grows by more than "
                          f"{MAX_COEFFICIENT:g} over the horizon {h.domain_end:g}")

    kind, nl = doc.kinded("nonlinearity", _NL_KINDS, default={"kind": "zero"})
    if kind == "cosine":
        nonlinearity = NonlinearityEval(kind, amplitude=nl.number("M0"))
    elif kind == "table":
        values = nl.raw("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("$.nonlinearity.values", "expected a coefficient list")
        rows = values if isinstance(values[0], list) else [values]
        nl.out["values"] = [_numbers(row, f"$.nonlinearity.values[{i}]", n_modes,
                                     by_entry=False) for i, row in enumerate(rows)]
        nonlinearity = NonlinearityEval(kind, table=np.array(nl.out["values"]))
    else:
        nonlinearity = NonlinearityEval(kind)

    kind, nc = doc.kinded("nonlocal", _NONLOCAL_KINDS, default={"kind": "zero"})
    if kind == "log_kernel":
        f_time = nc.function("f", _TIME_KINDS, TimeFunction)
        f_space = (nc.function("f_space", _TIME_KINDS, TimeFunction)
                   if "f_space" in nc.obj else None)
        d = nc.number("d", default=1.0)
        if d < 0.0:
            raise ConfigError("$.nonlocal.d", "growth offset must be nonnegative")
        nonlocal_term = NonlocalEval(kind, f_time=f_time, f_space=f_space, offset=d)
    else:
        nonlocal_term = NonlocalEval(kind)

    ctl = doc.map("control", ("theta",), default={})
    theta = (ctl.vector("theta", n_modes) if isinstance(ctl.obj.get("theta"), list)
             else np.full(n_modes, ctl.number("theta", default=1.0)))

    st = doc.map("states", ("zeta0", "zeta1"))
    zeta0 = st.vector("zeta0", n_modes)
    zeta1 = st.vector("zeta1", n_modes, default=[0.0] * n_modes)

    tl = doc.map("tolerances", _DEFAULTS[Tolerances], default={})
    try:
        tol = Tolerances(**{
            name: (tl.integer(name, 0, MAX_ITERATIONS, default=default)
                   if isinstance(default, int)
                   else tl.number(name, default))
            for name, default in _DEFAULTS[Tolerances].items()})
    except UsageError as exc:
        raise ConfigError("$.tolerances", str(exc)) from exc

    try:
        basis = make_basis(n_modes, collocation)
        grid = build_time_grid(h, base_nodes)
        if len(grid) > MAX_NODES:
            raise ConfigError("$.grid.nodes", f"merged grid has {len(grid)} nodes, "
                              f"more than {MAX_NODES}")
        # verify-resolvent marches its sampled columns in windows of about as
        # many floats as the solver's arrays, and verify_resolvent charges a
        # window with the march's entry states and the autonomy check's column
        synthesized = ((nonlinearity.kind == "cosine" and not nonlinearity.is_zero)
                       or not nonlocal_term.is_zero)
        j_count = collocation if synthesized else 0
        need = solver_charge(len(grid), n_modes, collocation, j_count)
        have = physical_memory()
        if need > have:
            raise ConfigError("$.grid.nodes", f"{len(grid)} merged nodes x {n_modes} modes "
                              f"and {j_count} collocation nodes need about {need:.3g} "
                              f"bytes, more than the {have:.3g} bytes of physical memory")
        scn = Scenario(basis, LinearPart(tau, kernel), h, grid, zeta0, zeta1,
                       nonlinearity, nonlocal_term, theta, tol, config=doc.out)
    except (UsageError, DomainError, GridError) as exc:
        raise ConfigError("$", str(exc)) from exc
    return scn


def serialize_scenario(scn: Scenario) -> dict:
    """The canonical document this scenario was parsed from.

    No command calls it yet; a run record is to hash the document it returns.
    """
    if scn.config is None:
        raise UsageError("scenario was assembled in code; no source document to emit")
    return json.loads(json.dumps(scn.config))


def _text(value) -> str:
    """A report value as text: _NUMBER_FORMAT for a number, true or false for
    a bool, numpy's included."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return _NUMBER_FORMAT % value


def _write_record(path: str, record: dict) -> None:
    """One name=value line per entry of the record, in its order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{name}={_text(value)}\n" for name, value in record.items())


def write_trajectory_csv(path: str, scn: Scenario, traj, physical: bool = False) -> None:
    """One row per node (kind=left), plus a kind=right row at each jump node.

    Every number is written in _NUMBER_FORMAT, the same text as ``_text``;
    each row is one format over ``.tolist()`` values.  The physical columns
    are synthesized one row at a time: one product over all rows can round
    differently.
    """
    header = ["t", "node_kind"] + [f"coeff_{n}" for n in scn.basis.mode_numbers]
    numbers = scn.basis.n_modes
    if physical:
        header += [f"phys_{j + 1}" for j in range(scn.basis.collocation)]
        numbers += scn.basis.collocation
    row_format = ",".join([_NUMBER_FORMAT, "%s"] + [_NUMBER_FORMAT] * numbers) + "\n"
    right = dict(zip(traj.jump_rows.tolist(), traj.right))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for j, t in enumerate(scn.grid.nodes.tolist()):
            rows = [("left", traj.values[j])]
            if j in right:
                rows.append(("right", right[j]))
            for kind, coeffs in rows:
                cells = coeffs.tolist()
                if physical:
                    cells += scn.basis.to_physical(coeffs).tolist()
                fh.write(row_format % (t, kind, *cells))


def write_control_csv(path: str, scn: Scenario, c) -> None:
    """One row per node of u(t_k) = r(a, t_k) c, or of zeros when ``c`` is None.

    u is formed _CSV_ROWS rows at a time, each entry the same single product
    as row by row, so the write never holds an (M, N) array or its floats.
    """
    header = ["t"] + [f"u_coeff_{n}" for n in scn.basis.mode_numbers]
    row_format = ",".join([_NUMBER_FORMAT] * (1 + scn.basis.n_modes)) + "\n"
    nodes = scn.grid.nodes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(nodes), _CSV_ROWS):
            rows = slice(start, start + _CSV_ROWS)
            t = nodes[rows].tolist()
            u = np.zeros((len(t), scn.n_modes)) if c is None else scn.final_row[:, rows].T * c
            fh.writelines(row_format % (s, *row) for s, row in zip(t, u.tolist()))


def _simulate(scn: Scenario, out_dir: str, physical: bool):
    result = picard_solve(scn, None)
    traj = result.trajectory
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), scn, traj, physical)
    violation = jump_consistency(traj, scn)
    record = dict(picard_iterations=result.iterations, final_delta=result.final_delta,
                  jump_consistency=violation, discontinuities=discontinuity_count(traj))
    return "simulate.txt", record, [f"simulate: {result.iterations} sweeps, "
                                    f"jump consistency {violation:.3e}"], 0


def _steer(scn: Scenario, out_dir: str, physical: bool):
    outcome = steer(scn)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), scn, outcome.trajectory,
                         physical)
    write_control_csv(os.path.join(out_dir, "control.csv"), scn, outcome.control)
    report = outcome.report
    record = dict(converged=report.converged, terminal_error=report.terminal_error,
                  outer_iterations=report.outer_iterations, control_norm=report.control_norm)
    record.update((f"history_{i}", e) for i, e in enumerate(report.history))
    return "steering.txt", record, [f"steer: terminal error {report.terminal_error:.3e} "
                                    f"in {report.outer_iterations} outer iterations, "
                                    f"control norm {report.control_norm:.6g}"], 0


def _check_conditions(scn: Scenario, out_dir: str, physical: bool):
    report = build_report(scn)
    m1, m2 = report.margins
    record = dict(vars(report.constants))   # a copy, L1 .. horizon in __init__ order
    record.update(cond1_lhs=report.lhs_cond1, cond1_pass=report.pass_cond1, cond1_margin=m1,
                  cond2_lhs=report.lhs_cond2, cond2_pass=report.pass_cond2, cond2_margin=m2,
                  worked1_lhs=report.lhs_worked1, worked2_lhs=report.lhs_worked2,
                  examples_pass=report.pass_examples)
    lines = [f"cond1: lhs {report.lhs_cond1:.6g} margin {m1:.6g} "
             f"{'pass' if report.pass_cond1 else 'FAIL'}",
             f"cond2: lhs {report.lhs_cond2:.6g} margin {m2:.6g} "
             f"{'pass' if report.pass_cond2 else 'FAIL'}"]
    return "conditions.txt", record, lines, 0 if report.all_pass else 1


def _verify_resolvent(scn: Scenario, out_dir: str, physical: bool):
    # this module's bindings of the two checks, which bench/tracer.py wraps
    pde, auto = verify_resolvent(scn, _SOLVER_ARRAYS, verify_resolvent_pde,
                                 check_autonomous_reduction)
    record = dict(max_raw_residual=pde.max_raw_residual,
                  max_scaled_residual=pde.max_scaled_residual, tol_pde=pde.tol_pde,
                  anchors_checked=pde.anchors_checked, pde_pass=pde.passed)
    if auto is not None:
        record.update(autonomy_max_deviation=auto.max_deviation, autonomy_pass=auto.passed)
    ok = pde.passed and (auto is None or auto.passed)
    return "resolvent_report.txt", record, [f"resolvent: scaled residual "
                                            f"{pde.max_scaled_residual:.3e} "
                                            f"({'pass' if ok else 'FAIL'})"], 0 if ok else 1


# each command runs its engine calls and writes its CSVs into out_dir; it
# returns its report's file name and record, its stdout lines and its exit code
COMMANDS = {"simulate": _simulate, "steer": _steer,
            "check-conditions": _check_conditions, "verify-resolvent": _verify_resolvent}


def run_command(cmd: str, doc: dict, out_dir: str = ".",
                physical: bool = False, quiet: bool = False) -> int:
    """Execute one pipeline command; returns the process exit code."""

    def say(*parts):
        if not quiet:
            print(*parts)

    try:
        scn = parse_scenario(doc)
        if cmd not in COMMANDS:      # an unknown command makes no output directory
            raise UsageError(f"unknown command {cmd!r}")
        os.makedirs(out_dir, exist_ok=True)
        name, record, lines, code = COMMANDS[cmd](scn, out_dir, physical)
        _write_record(os.path.join(out_dir, name), record)
        say("\n".join(lines))
        return code
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
    except OSError as exc:       # out_dir is not a directory that can be written
        say(f"cannot write outputs: {exc}")
        return 1
