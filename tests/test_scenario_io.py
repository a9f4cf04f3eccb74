from __future__ import annotations

import copy
import functools
import inspect
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import mds._quad
import mds.scenario
import mds.spectral
import mds.verify
from mds import scenario_io
from mds.cli import main as cli_main
from mds.conditions import build_report
from mds.control import steer
from mds.errors import (ConfigError, ConvergenceError, DegenerateModeError, DomainError,
                        GridError, InstabilityError, SteeringError, UsageError)
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import RegulatedTrajectory, constant_measure
from mds.scenario import Tolerances
from mds.scenario_io import (MAX_NODES, parse_scenario, run_command, serialize_scenario,
                             solver_charge, write_control_csv, write_trajectory_csv)
from mds.solver import apply_psi, discontinuity_count, jump_consistency, picard_solve
from mds.spectral import (LinearPart, SpectralBasis, StepMaps, build_resolvent_table,
                          make_basis)

from conftest import assemble_scenario, load_config


def tiny_doc(**overrides):
    doc = {
        "basis": {"N": 2},
        "grid": {"nodes": 65},
        "linear": {"tau": {"kind": "const", "c0": 1.0}},
        "measure": {"family": "constant", "end": 1.0},
        "states": {"zeta0": [1.0, 0.5]},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------- parsing

def test_shipped_demo_config_parses():
    scn = parse_scenario(load_config("demo.json"))
    assert scn.n_modes == 8
    assert np.all(scn.theta == 0.1)
    assert len(scn.jump_rows) == 20
    assert scn.horizon == 1.0
    assert scn.nonlinearity.kind == "cosine"
    assert scn.nonlocal_term.kind == "log_kernel"


def test_shipped_linear_config_parses():
    scn = parse_scenario(load_config("linear_steering.json"))
    assert scn.nonlinearity.is_zero and scn.nonlocal_term.is_zero
    assert len(scn.grid) == 1025
    assert scn.tol.tol_target == 1e-6


def test_shipped_resolvent_config_parses():
    scn = parse_scenario(load_config("resolvent_check.json"))
    assert scn.n_modes == 4
    assert scn.linear.kernel.c0 != 0.0


def test_minimal_document_gets_defaults():
    scn = parse_scenario(tiny_doc())
    assert np.all(scn.theta == 1.0)
    assert np.all(scn.zeta1 == 0.0)
    assert scn.tol.tol_picard == 1e-10
    assert scn.tol.max_picard == 64
    assert scn.basis.collocation == 5
    assert scn.linear.kernel.c0 == 0.0


@pytest.mark.parametrize("mutate, path_fragment", [
    (lambda d: d.update(surprise=1), "$.surprise"),
    (lambda d: d["basis"].update(order=3), "$.basis.order"),
    (lambda d: d["linear"]["tau"].update(slope=2.0), "$.linear.tau.slope"),
    (lambda d: d["basis"].update(N=0), "$.basis.N"),
    (lambda d: d["basis"].update(N=257), "$.basis.N"),
    (lambda d: d["grid"].update(nodes=1), "$.grid.nodes"),
    (lambda d: d["grid"].update(nodes=70000), "$.grid.nodes"),
    (lambda d: d["states"].update(zeta0=[1.0]), "$.states.zeta0"),
    (lambda d: d["states"].update(zeta0=[1.0, float("inf")]), "$.states.zeta0"),
    (lambda d: d.update(measure={"end": 1.0, "jumps": [[1.0, 0.5]]}), "$.measure.jumps"),
    (lambda d: d.update(measure={"family": "weird"}), "$.measure.family"),
    (lambda d: d.update(nonlinearity={"kind": "cubic"}), "$.nonlinearity.kind"),
    (lambda d: d.update(control={"theta": "big"}), "$.control.theta"),
    (lambda d: d.update(tolerances={"tol_picard": 0.0}), "$.tolerances"),
])
def test_invalid_documents_name_the_offending_path(mutate, path_fragment):
    doc = tiny_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as exc:
        parse_scenario(doc)
    assert path_fragment in str(exc.value)


def test_negative_density_rejected():
    doc = tiny_doc(measure={"end": 1.0,
                            "density": {"kind": "affine", "c0": 0.1, "c1": -1.0}})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(doc)
    assert "$.measure.density" in str(exc.value)


def test_non_mapping_document_rejected():
    with pytest.raises(ConfigError):
        parse_scenario([1, 2, 3])


def _forbid(monkeypatch, *names):
    """Make the named scenario_io builders fail if a rejected config reaches them."""
    def refuse(*args, **kwargs):
        raise AssertionError("oversized config was not rejected first")
    for name in names:
        monkeypatch.setattr(scenario_io, name, refuse)


def test_oversized_zeno_truncation_rejected_before_building(monkeypatch):
    _forbid(monkeypatch, "zeno_measure", "Scenario")
    doc = tiny_doc(measure={"family": "zeno", "K": MAX_NODES + 1})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.measure.K"


def test_overlong_jump_list_rejected_before_pair_checks(monkeypatch):
    _forbid(monkeypatch, "Scenario")
    # entries that are not pairs at all: the length check must come first
    doc = tiny_doc(measure={"end": 1.0, "jumps": [None] * (MAX_NODES + 1)})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.measure.jumps"


def _pair_by_pair(jumps, path="$.measure.jumps"):
    """The per-pair check the whole-list one stands in for: its first error."""
    for i, pair in enumerate(jumps):
        try:
            scenario_io._numbers(pair, f"{path}[{i}]", 2, by_entry=False)
        except ConfigError as exc:
            return exc
    return None


BAD_PAIRS = [None, "x", [0.5], [0.5, 0.1, 0.2], (0.5, 0.1), [0.5, True], [False, 0.1],
             [0.5, "0.1"], [0.5, None], [float("nan"), 0.1], [0.5, float("inf")],
             [0.5, 1e101], [-1e300, 0.1], [0.5, 10 ** 400], [0.5, int(1e100) + 1],
             [0.5, [0.1]], {"t": 0.5}]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", BAD_PAIRS, ids=repr)
def test_bad_jump_pair_is_named_as_pair_by_pair(where, bad):
    # 9 good pairs with the bad one at index 0, 4 or 9: the message and path
    # are those of the per-pair check, character for character
    jumps = [[(i + 1) / 20, 0.1] for i in range(9)]
    index = {"first": 0, "middle": 4, "last": 9}[where]
    jumps.insert(index, bad)
    with pytest.raises(ConfigError) as exc:
        parse_scenario(tiny_doc(measure={"end": 1.0, "jumps": jumps}))
    expected = _pair_by_pair(jumps)
    assert (exc.value.path, str(exc.value)) == (expected.path, str(expected))
    assert exc.value.path == f"$.measure.jumps[{index}]"


def test_good_jump_lists_are_checked_in_one_pass(monkeypatch):
    # plain ints and floats below the bound pass without the per-pair check;
    # a value on the bound (float or int) or a numpy float is left to it,
    # which accepts them too
    checked = []
    numbers = scenario_io._numbers

    def counted(v, path, *args, **kwargs):
        checked.append(path)
        return numbers(v, path, *args, **kwargs)

    monkeypatch.setattr(scenario_io, "_numbers", counted)
    for jumps, canonical, per_pair in [
            ([[0.25, 1], [0.5, 2.5e99], [0.75, 10 ** 99]],
             [[0.25, 1.0], [0.5, 2.5e99], [0.75, 1e99]], False),
            ([[0.25, 1e100]], [[0.25, 1e100]], True),
            ([[0.25, 10 ** 100]], [[0.25, 1e100]], True),
            ([[np.float64(0.25), 0.5]], [[0.25, 0.5]], True)]:
        checked.clear()
        scn = parse_scenario(tiny_doc(measure={"end": 1.0, "jumps": jumps}))
        assert serialize_scenario(scn)["measure"]["jumps"] == canonical
        pairs = [p for p in checked if ".jumps" in p]
        assert pairs == ([f"$.measure.jumps[{i}]" for i in range(len(jumps))]
                         if per_pair else [])


@pytest.mark.parametrize("nodes, k", [(2, MAX_NODES), (MAX_NODES, 20)])
def test_merged_grid_over_node_limit_rejected(monkeypatch, tmp_path, nodes, k):
    _forbid(monkeypatch, "Scenario")
    doc = tiny_doc(grid={"nodes": nodes}, measure={"family": "zeno", "K": k})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.grid.nodes"
    assert run_command("simulate", doc, str(tmp_path), quiet=True) == 1


def _physical_memory(monkeypatch, pages: int) -> None:
    """Make the byte budgets see 4 KiB x pages of physical memory, whatever the host."""
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(scenario_io.os, "sysconf", sizes.__getitem__)


def test_table_beyond_physical_memory_rejected(monkeypatch, tmp_path):
    _forbid(monkeypatch, "Scenario")
    _physical_memory(monkeypatch, 2 ** 18)            # 1 GiB
    # the solver's 8 * 65536 * 256 * 12 bytes and the basis's, about 1.61e9,
    # pass every count limit
    doc = tiny_doc(basis={"N": 256}, grid={"nodes": MAX_NODES},
                   states={"zeta0": [0.0] * 256})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.grid.nodes"
    need = solver_charge(MAX_NODES, 256, 513, 0)
    assert need == 8 * (MAX_NODES * 256 * scenario_io._SOLVER_ARRAYS + 513 * (2 * 256 + 3))
    assert f"{need:.3g} bytes" in str(exc.value)
    assert run_command("simulate", doc, str(tmp_path), quiet=True) == 1


def test_steer_parses_where_verify_resolvent_is_refused(monkeypatch, tmp_path, capsys):
    # 65 nodes x 2 modes: the solver's 12 columns and the basis take 12760
    # bytes, against 32768 bytes of "memory".  The resolvent sample's 63
    # anchors march in 8 blocks of 9 rows, in ceil(63 / 12) = 6 windows of 2
    # blocks, so verify-resolvent holds the window with its 2-row halo (20
    # rows), the entry states and their scratch (6 x 8 blocks) and the
    # anchor-0 column (65 rows): 69584 bytes
    _physical_memory(monkeypatch, 8)
    parse_scenario(tiny_doc())
    assert run_command("steer", tiny_doc(), str(tmp_path / "steer"), quiet=True) == 0
    capsys.readouterr()
    assert run_command("verify-resolvent", tiny_doc(), str(tmp_path / "verify")) == 1
    out = capsys.readouterr().out
    assert out.startswith("validation error: the resolvent sample of 65 nodes x 2 modes")
    assert f"{8 * 2 * (20 * 63 + 6 * 8 * 63 + 65):.3g} bytes" in out
    assert not (tmp_path / "verify" / "resolvent_report.txt").exists()


def test_synthesized_collocation_values_are_charged(monkeypatch, tmp_path, capsys):
    # 65 nodes x 2 modes: the solver's 12 columns take 12480 bytes, the
    # cosine nonlinearity's (M, J) array at J = 2048 takes 1064960 and the
    # basis 114688, against 1 MiB of "memory"; the J values were not charged
    # before
    _physical_memory(monkeypatch, 256)
    doc = tiny_doc(basis={"N": 2, "collocation": 2048})
    parse_scenario(doc)                                 # nothing is synthesized
    doc["nonlinearity"] = {"kind": "cosine", "M0": 0.0}
    parse_scenario(doc)                                 # a zero cosine synthesizes nothing
    doc["nonlinearity"] = {"kind": "cosine", "M0": 0.1}
    assert run_command("simulate", doc, str(tmp_path), quiet=True) == 1
    assert run_command("steer", doc, str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert out.startswith("config error: $.grid.nodes: 65 merged nodes x 2 modes "
                          "and 2048 collocation nodes")
    assert f"{8 * (65 * (2 * 12 + 2048) + 2048 * 7):.3g} bytes" in out
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("term", [
    {"nonlinearity": {"kind": "cosine", "M0": 0.1}},
    {"nonlocal": {"kind": "log_kernel", "f": {"kind": "const", "c0": 0.05}}},
])
def test_a_sweep_stays_within_the_collocation_charge(term):
    # N = 1 and J = 2048: the (M, J) path values are nearly all of what a sweep
    # holds, so a sweep that held one more of them than the parse charges
    # would be far over the charge
    doc = tiny_doc(basis={"N": 1, "collocation": 2048}, grid={"nodes": 1025},
                   states={"zeta0": [1.0]}, **term)
    scn = parse_scenario(doc)
    current = scn.picard_seed      # the run's step maps are built here
    charge = solver_charge(len(scn.grid), scn.n_modes, 2048, 2048)
    tracemalloc.start()
    try:
        apply_psi(scn, current)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * len(scn.grid) * 2048 <= peak <= charge


def _simulate(scn):
    traj = picard_solve(scn).trajectory
    jump_consistency(traj, scn)
    discontinuity_count(traj)


SOLVER_COMMANDS = {"simulate": _simulate, "steer": steer, "check-conditions": build_report}


@pytest.fixture(scope="module")
def demo_peaks():
    """The demo at 2049 nodes: each solver command's tracemalloc peak after the
    parse, and the parse's charge."""
    doc = load_config("demo.json")
    doc["grid"]["nodes"] = 2049
    peaks = {}
    for command, run in SOLVER_COMMANDS.items():
        scn = parse_scenario(doc)
        tracemalloc.start()
        try:
            run(scn)
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    charge = solver_charge(len(scn.grid), scn.n_modes, scn.basis.collocation,
                           scn.basis.collocation)
    return peaks, charge, 8 * len(scn.grid) * scn.n_modes


@pytest.mark.parametrize("command", ["steer", "check-conditions", "simulate"])
def test_a_command_stays_within_the_solver_charge(demo_peaks, command):
    # a steer, a simulate or a check holds its sweeps' arrays, the Picard
    # seed, the step maps, and at the end L1's or the adjoint's state
    peaks, charge, _ = demo_peaks
    assert peaks[command] <= charge


def test_the_solver_charge_is_the_largest_command_peak_rounded_up(demo_peaks):
    # the charge is no more than one (M, N) array above what a command
    # holds, so _SOLVER_ARRAYS cannot drift loose again
    peaks, charge, array = demo_peaks
    assert charge - array < max(peaks.values()) <= charge


def test_large_grid_parses_without_a_square_budget(monkeypatch):
    _physical_memory(monkeypatch, 2 ** 21)            # 8 GiB
    doc = load_config("demo.json")
    doc["grid"]["nodes"] = 16385
    scn = parse_scenario(doc)
    m_count, n_count = len(scn.grid), scn.n_modes
    # the old M^2 estimate refused this grid
    assert 8 * m_count ** 2 * (n_count + 2) > 4096 * 2 ** 21


@pytest.mark.parametrize("name, nodes", [("demo.json", 1025), ("resolvent_check.json", 2048)])
def test_benchmark_sizes_fit_the_byte_budget(name, nodes):
    doc = load_config(name)
    doc["grid"]["nodes"] = nodes
    assert len(parse_scenario(doc).grid) == nodes


# ---------------------------------------------------------------- round trip

def test_serialize_round_trip_is_stable():
    scn = parse_scenario(tiny_doc())
    doc1 = serialize_scenario(scn)
    scn2 = parse_scenario(doc1)
    doc2 = serialize_scenario(scn2)
    assert doc1 == doc2
    assert doc1["control"]["theta"] == 1.0           # defaults made explicit
    assert doc2["states"]["zeta1"] == [0.0, 0.0]
    assert json.loads(json.dumps(doc1)) == doc1      # JSON clean


def test_missing_tolerances_serialize_to_the_field_defaults():
    scn = parse_scenario(tiny_doc())
    defaults = {name: p.default for name, p in inspect.signature(Tolerances).parameters.items()}
    assert defaults == {"tol_picard": 1e-10, "tol_target": 1e-4, "tol_pde": 1e-3,
                        "max_picard": 64, "max_outer": 20}
    assert serialize_scenario(scn)["tolerances"] == defaults
    assert vars(scn.tol) == vars(Tolerances())


def test_round_trip_preserves_shipped_demo():
    doc = load_config("demo.json")
    scn = parse_scenario(doc)
    doc2 = serialize_scenario(scn)
    scn2 = parse_scenario(doc2)
    assert np.array_equal(scn.zeta0, scn2.zeta0)
    assert np.array_equal(scn.grid.nodes, scn2.grid.nodes)
    assert serialize_scenario(scn2) == doc2


TAU = {"kind": "const", "c0": 1.0}


@pytest.mark.parametrize("section, short, full", [
    ("measure", {"family": "zeno"}, {"family": "zeno", "K": 20}),
    ("measure", {"family": "constant"}, {"family": "constant", "end": 1.0}),
    ("measure", {"end": 1.0}, {"end": 1.0, "density": {"kind": "const", "c0": 0.0},
                               "jumps": []}),
    ("linear", {"tau": {"kind": "sine", "c0": 1.0}},
     {"tau": {"kind": "sine", "c0": 1.0, "c1": 0.0, "freq": 1.0}}),
    ("linear", {"tau": {"kind": "const", "c0": 1}}, {"tau": TAU}),
    ("linear", {"tau": TAU, "kernel": {"kind": "exp_diff", "c0": 0.5}},
     {"tau": TAU, "kernel": {"kind": "exp_diff", "c0": 0.5, "rate": 0.0}}),
    ("nonlocal", {"kind": "log_kernel", "f": TAU},
     {"kind": "log_kernel", "f": TAU, "d": 1.0}),
    ("nonlinearity", {"kind": "table", "values": [0.5, 0.25]},
     {"kind": "table", "values": [[0.5, 0.25]]}),
])
def test_documents_that_differ_by_a_default_serialize_alike(section, short, full):
    a, b = (serialize_scenario(parse_scenario(tiny_doc(**{section: spec})))
            for spec in (short, full))
    assert json.dumps(a) == json.dumps(b)


def test_code_assembled_scenario_has_no_document():
    scn = assemble_scenario(
        make_basis(2), LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
        constant_measure(1.0), 33, np.ones(2), np.zeros(2))
    with pytest.raises(UsageError):
        serialize_scenario(scn)


# ---------------------------------------------------------------- command runner

def test_simulate_writes_outputs(tmp_path):
    code = run_command("simulate", tiny_doc(), str(tmp_path), quiet=True)
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    report = (tmp_path / "simulate.txt").read_text().splitlines()
    assert report[0] == "picard_iterations=1"
    assert any(line.startswith("discontinuities=0") for line in report)


def test_simulate_exhausted_budget_exits_two(tmp_path):
    doc = tiny_doc(tolerances={"max_picard": 0})
    assert run_command("simulate", doc, str(tmp_path), quiet=True) == 2


def test_steer_with_zero_gain_exits_three(tmp_path):
    doc = tiny_doc(control={"theta": 0.0},
                   states={"zeta0": [1.0, 0.5], "zeta1": [0.5, 0.25]})
    assert run_command("steer", doc, str(tmp_path), quiet=True) == 3


@pytest.mark.parametrize("theta, mode", [(0.0, 1), ([0.1, 0.0] + [0.1] * 6, 2)])
def test_check_conditions_with_zero_gain_exits_three(tmp_path, capsys, theta, mode):
    doc = load_config("demo.json")
    doc["control"]["theta"] = theta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command("check-conditions", doc, str(tmp_path)) == 3
    assert f"degenerate control: mode {mode} Gramian" in capsys.readouterr().out


def test_steer_linear_config_succeeds(tmp_path):
    doc = load_config("linear_steering.json")
    assert run_command("steer", doc, str(tmp_path), quiet=True) == 0
    for name in ("trajectory.csv", "control.csv", "steering.txt"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "steering.txt").read_text().splitlines()
    assert lines[0] == "converged=true"
    assert "outer_iterations=1" in lines


def test_check_conditions_reports_failure_for_demo(tmp_path):
    doc = load_config("demo.json")
    assert run_command("check-conditions", doc, str(tmp_path), quiet=True) == 1
    text = (tmp_path / "conditions.txt").read_text()
    assert "cond1_pass=false" in text
    assert "L1=" in text


def test_verify_resolvent_passes_shipped_config(tmp_path):
    doc = load_config("resolvent_check.json")
    assert run_command("verify-resolvent", doc, str(tmp_path), quiet=True) == 0
    text = (tmp_path / "resolvent_report.txt").read_text()
    assert "pde_pass=true" in text
    assert "autonomy_pass=true" in text


COMMAND_RUNS = [("simulate", "demo.json"), ("steer", "demo.json"),
                ("check-conditions", "demo.json"), ("verify-resolvent", "resolvent_check.json")]
RULES = ("wq_full", "wq_diag", "wq_sub", "dh_full", "dh_diag")
BASIS_MATRICES = ("x", "weights", "synthesis", "analysis")
# what a Scenario forms its rules from, through mds.scenario's bindings; the
# trapezoid weights serve the dh rule and g
RULE_FUNCTIONS = ("simpson_weights", "simpson_prefix_edges", "density_on_grid",
                  "trapezoid_weights")


def _count_calls(monkeypatch, calls: dict, module, name: str) -> None:
    """Patch ``module.name`` to add one to ``calls[name]`` on each call."""
    inner = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return inner(*args)
    monkeypatch.setattr(module, name, counted)


def test_verify_resolvent_and_parsing_build_no_square_array(monkeypatch, tmp_path):
    codes = [run_command(command, load_config(config), str(tmp_path / "plain" / command),
                         quiet=True) for command, config in COMMAND_RUNS]

    def refuse(*args, **kwargs):
        raise AssertionError("an M x M array was built")

    for module in (mds.scenario, mds.spectral, mds._quad):
        for name in ("build_resolvent_table", "simpson_prefix_matrix",
                     "trapezoid_prefix_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for (command, config), code in zip(COMMAND_RUNS, codes):
        lean = tmp_path / "lean" / command
        assert run_command(command, load_config(config), str(lean), quiet=True) == code
        for path in (tmp_path / "plain" / command).iterdir():
            assert (lean / path.name).read_bytes() == path.read_bytes()
    scn = parse_scenario(load_config("demo.json"))
    # a parse forms no rule and no basis matrix; each is formed on first read
    assert not set(RULES) & set(vars(scn))
    assert not set(BASIS_MATRICES) & set(vars(scn.basis))

    def unread(*args, **kwargs):
        raise AssertionError("verify-resolvent formed a rule or a basis matrix")

    for name in RULE_FUNCTIONS:
        monkeypatch.setattr(mds.scenario, name, unread)
    for name in BASIS_MATRICES:
        monkeypatch.setattr(SpectralBasis, name, property(unread))
    unformed = tmp_path / "unformed"
    assert run_command("verify-resolvent", load_config("resolvent_check.json"),
                       str(unformed), quiet=True) == codes[-1]
    for path in (tmp_path / "plain" / "verify-resolvent").iterdir():
        assert (unformed / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("command, config", COMMAND_RUNS)
def test_each_command_computes_the_step_maps_once(monkeypatch, tmp_path, command, config):
    calls = {"_step": 0, "_march_windows": 0}
    # the verify-resolvent sample marches through mds.verify's binding
    for module, name in ((mds.spectral, "_step"), (mds.verify, "_march_windows")):
        _count_calls(monkeypatch, calls, module, name)
    run_command(command, load_config(config), str(tmp_path), quiet=True)
    assert calls["_step"] == 2          # the unit states (1, 0) and (0, 1), once each
    if command == "verify-resolvent":
        assert calls["_march_windows"] == 1     # one march, handed out in windows


@pytest.mark.parametrize("command, config", COMMAND_RUNS)
def test_each_command_makes_one_block_layout_per_step_maps(monkeypatch, tmp_path, command,
                                                           config):
    # Every march on a StepMaps runs on the layout the first one made: at
    # most one layout on the Scenario's steps, and one on the final row's
    # reversed maps where the command reads the final row.  The layout is
    # set once.
    made, scenarios = [], []
    make = vars(StepMaps)["layout"].func

    def counted(steps):
        made.append(steps)
        return make(steps)

    layout = functools.cached_property(counted)
    layout.__set_name__(StepMaps, "layout")
    monkeypatch.setattr(StepMaps, "layout", layout)
    parse = scenario_io.parse_scenario
    monkeypatch.setattr(scenario_io, "parse_scenario",
                        lambda doc: scenarios.append(parse(doc)) or scenarios[-1])
    run_command(command, load_config(config), str(tmp_path), quiet=True)
    (scn,) = scenarios
    steps = scn.steps
    forward = [other for other in made if other is steps]
    back = [other for other in made if other is not steps]
    # check-conditions marches only the final row (L1 reads the maps row by row)
    assert len(forward) == (command != "check-conditions")
    assert len(back) == ("final_row" in vars(scn)) == (command in ("steer", "check-conditions"))
    for other in back:
        assert np.shares_memory(other.maps, steps.maps)
        assert np.array_equal(other.maps, steps.maps[::-1].swapaxes(1, 2))
    with pytest.raises(AttributeError):
        steps.layout = steps.layout


@pytest.mark.parametrize("command, config", COMMAND_RUNS)
def test_each_command_forms_each_rule_at_most_once(monkeypatch, tmp_path, command, config):
    calls = dict.fromkeys(RULE_FUNCTIONS, 0)
    for name in RULE_FUNCTIONS:
        _count_calls(monkeypatch, calls, mds.scenario, name)
    run_command(command, load_config(config), str(tmp_path), quiet=True)
    # once each for the rules the command reads: simulate (no control) reads
    # only the dh rule and g, check-conditions only wq_full, verify-resolvent none
    formed = {"simulate": {"density_on_grid", "trapezoid_weights"},
              "steer": set(RULE_FUNCTIONS),
              "check-conditions": {"simpson_weights"}, "verify-resolvent": set()}[command]
    assert calls == {name: int(name in formed) for name in RULE_FUNCTIONS}


def _unstable_demo(tau, zero_nonlinearity=False, zero_kernel=False):
    doc = load_config("demo.json")
    doc["basis"]["N"] = 16
    doc["states"] = {"zeta0": [1.0 / (n * n) for n in range(1, 17)],
                     "zeta1": [0.5 / (n * n) for n in range(1, 17)]}
    doc["linear"]["tau"] = tau
    if zero_nonlinearity:
        doc["nonlinearity"] = {"kind": "zero"}
    if zero_kernel:
        doc["linear"]["kernel"] = {"kind": "zero"}
    return doc


NEGATIVE_TAU = {"kind": "const", "c0": -50.0}
TURNING_TAU = {"kind": "affine", "c0": 3.0, "c1": -6.0}


@pytest.mark.parametrize("command", ["simulate", "steer", "check-conditions"])
@pytest.mark.parametrize("zero_nl", [False, True])
def test_overflowing_resolvent_exits_two(tmp_path, command, zero_nl):
    doc = _unstable_demo(NEGATIVE_TAU, zero_nl)
    assert run_command(command, doc, str(tmp_path), quiet=True) == 2


@pytest.mark.parametrize("command", ["steer", "check-conditions"])
@pytest.mark.parametrize("zero_nl, zero_kernel", [(False, False), (True, True)])
def test_resolvent_overflow_after_the_start_exits_two(tmp_path, command, zero_nl,
                                                      zero_kernel):
    # r(1, s) ~ exp(256 * 0.75) for s near 1/2: the final row and L1 overflow
    doc = _unstable_demo(TURNING_TAU, zero_nl, zero_kernel)
    assert run_command(command, doc, str(tmp_path), quiet=True) == 2


def test_simulate_guards_only_the_columns_it_marches(tmp_path):
    # with no memory r(t, 0) = exp(-256 * 3t (1 - t)) <= 1, while r(1, 1/2) =
    # exp(192) overflows: with no nonlinearity the sweep marches only forcing
    # seeded at t = 0 and never meets the overflow
    doc = _unstable_demo(TURNING_TAU, zero_nonlinearity=True, zero_kernel=True)
    scn = parse_scenario(doc)
    with pytest.raises(InstabilityError):
        build_resolvent_table(scn.basis, scn.linear, scn.grid)
    assert run_command("simulate", doc, str(tmp_path), quiet=True) == 0
    # forcing at the jumps (t >= 1/2) or the demo's memory kernel overflow again
    for flags in ((False, True), (True, False)):
        assert run_command("simulate", _unstable_demo(TURNING_TAU, *flags),
                           str(tmp_path), quiet=True) == 2


def test_verify_resolvent_refuses_grid_without_interior_node(tmp_path):
    cfg = tmp_path / "two_nodes.json"
    cfg.write_text(json.dumps(tiny_doc(grid={"nodes": 2})))
    out = tmp_path / "out"
    assert cli_main(["verify-resolvent", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert not (out / "resolvent_report.txt").exists()
    cfg.write_text(json.dumps(tiny_doc(grid={"nodes": 3})))
    # one residual point: a 2-cell grid is far too coarse to pass, but it is checked
    assert cli_main(["verify-resolvent", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert "anchors_checked=1" in (out / "resolvent_report.txt").read_text()


def test_invalid_document_exits_one(tmp_path):
    assert run_command("simulate", {"nope": 1}, str(tmp_path), quiet=True) == 1


def test_unknown_command_exits_one(tmp_path, capsys):
    # the command is looked up before the output directory is made
    out = tmp_path / "out"
    assert run_command("bogus", tiny_doc(), str(out)) == 1
    assert capsys.readouterr().out == "validation error: unknown command 'bogus'\n"
    assert not out.exists()
    # a bad document is reported first, whatever the command
    assert run_command("bogus", tiny_doc(bogus=1), str(out)) == 1
    assert capsys.readouterr().out == "config error: $.bogus: unknown key\n"
    assert not out.exists()


# the engine call each command makes first, through scenario_io's binding
FIRST_CALLS = {"simulate": "picard_solve", "steer": "steer",
               "check-conditions": "build_report", "verify-resolvent": "verify_resolvent"}
EXIT_PATHS = [
    (ConfigError("$.x", "bad"), 1, "config error: $.x: bad"),
    (UsageError("bad"), 1, "validation error: bad"),
    (DomainError("bad"), 1, "validation error: bad"),
    (GridError("bad"), 1, "validation error: bad"),
    (ConvergenceError("bad", [1.0]), 2, "no convergence: bad"),
    (SteeringError("bad", [1.0]), 2, "no convergence: bad"),
    (InstabilityError(3, 1e12), 2, "no convergence: mode 3 exceeded the overflow guard 1e+12"),
    (DegenerateModeError(2, 0.0, 1e-12), 3,
     "degenerate control: mode 2 Gramian 0.000e+00 is at or below the floor 1.000e-12; "
     "the system is not steerable at this resolution"),
    (OSError("bad"), 1, "cannot write outputs: bad"),
]


@pytest.mark.parametrize("command", FIRST_CALLS)
@pytest.mark.parametrize("error, code, line", EXIT_PATHS,
                         ids=[type(error).__name__ for error, _, _ in EXIT_PATHS])
def test_every_error_has_its_exit_code_and_line(monkeypatch, tmp_path, capsys, command,
                                                 error, code, line):
    def fail(*args):
        raise error

    monkeypatch.setattr(scenario_io, FIRST_CALLS[command], fail)
    assert run_command(command, tiny_doc(), str(tmp_path)) == code
    assert capsys.readouterr().out == line + "\n"
    assert run_command(command, tiny_doc(), str(tmp_path), quiet=True) == code
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())      # no report, no CSV


def test_csv_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_command("simulate", tiny_doc(), str(a), quiet=True)
    run_command("simulate", copy.deepcopy(tiny_doc()), str(b), quiet=True)
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


# ---------------------------------------------------------------- CSV shape

def test_demo_trajectory_csv_has_right_rows(tmp_path, demo_scn, demo_solution):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), demo_scn, demo_solution.trajectory)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["t", "node_kind"]
    right = [ln for ln in lines[1:] if ln.split(",")[1] == "right"]
    assert len(right) == 20
    assert len(lines) == 1 + len(demo_scn.grid) + 20


def test_physical_columns_appended(tmp_path):
    scn = parse_scenario(tiny_doc())
    from mds.solver import picard_solve
    traj = picard_solve(scn).trajectory
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), scn, traj, physical=True)
    header = path.read_text().splitlines()[0].split(",")
    assert header[-1] == f"phys_{scn.basis.collocation}"
    assert len(header) == 2 + scn.n_modes + scn.basis.collocation


EDGE_VALUES = [-0.0, 5e-324, 1e308, 1 / 3]


def _per_cell_text(header: str, rows) -> bytes:
    """The CSV text with each number formatted on its own by ``_text``."""
    fmt = scenario_io._text
    lines = [header] + [",".join([fmt(t)] + kind + [fmt(x) for x in cells])
                        for t, kind, cells in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("physical", [False, True])
def test_trajectory_csv_bytes_equal_per_cell_format(tmp_path, demo_scn, physical):
    scn = demo_scn
    shape = (len(scn.grid), scn.n_modes)
    right = np.resize(EDGE_VALUES[::-1], shape)
    traj = RegulatedTrajectory(scn.grid, np.resize(EDGE_VALUES, shape), scn.jump_rows,
                               right[scn.jump_rows])
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(str(path), scn, traj, physical=physical)
    rows = []
    for j, t in enumerate(scn.grid.nodes):
        sides = [("left", traj.values[j])]
        if j in scn.jump_rows:
            sides.append(("right", right[j]))
        for kind, coeffs in sides:
            cells = list(coeffs)
            if physical:
                cells += list(scn.basis.to_physical(coeffs))
            rows.append((t, [kind], cells))
    assert len(rows) == len(scn.grid) + 20
    header = path.read_text().splitlines()[0]
    assert path.read_bytes() == _per_cell_text(header, rows)


def test_control_csv_bytes_equal_per_cell_format(tmp_path, demo_scn):
    # u(t_k) = r(a, t_k) c formed one node at a time
    scn = demo_scn
    c = np.resize(EDGE_VALUES, scn.n_modes)
    path = tmp_path / "control.csv"
    write_control_csv(str(path), scn, c)
    header = ",".join(["t"] + [f"u_coeff_{n}" for n in scn.basis.mode_numbers])
    rows = [(t, [], scn.final_row[:, j] * c) for j, t in enumerate(scn.grid.nodes)]
    assert path.read_bytes() == _per_cell_text(header, rows)
    # no control: +0 in every cell, where a zero c would write -0 at r(a, t_k) < 0
    assert np.any(scn.final_row < 0.0)
    write_control_csv(str(path), scn, None)
    rows = [(t, [], [0.0] * scn.n_modes) for t in scn.grid.nodes]
    assert path.read_bytes() == _per_cell_text(header, rows)


@pytest.mark.parametrize("c", [np.ones(8), None])
def test_control_csv_holds_less_than_one_control(tmp_path, c):
    # the demo at 16385 nodes: u is formed and turned into text by row blocks,
    # never as a whole (M, N) array nor as its list of floats
    doc = load_config("demo.json")
    doc["grid"]["nodes"] = 16385
    scn = parse_scenario(doc)
    scn.final_row      # formed before the write is traced
    tracemalloc.start()
    try:
        write_control_csv(str(tmp_path / "control.csv"), scn, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(scn.grid) * scn.n_modes


# ---------------------------------------------------------------- CLI

def test_cli_simulate_quiet(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    code = cli_main(["simulate", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "simulate.txt").exists()


def test_cli_simulate_checks_the_jump_of_a_per_node_table(tmp_path):
    # one table row per node, 5 nodes with the jump on row 1: delta is read at
    # the jump row of the whole path, not broadcast to the jump rows alone
    doc = tiny_doc(grid={"nodes": 5}, measure={"end": 1.0, "jumps": [[0.3, 0.1]]},
                   nonlinearity={"kind": "table",
                                 "values": [[0.1, 0.0], [0.2, 0.1], [0.0, 0.3],
                                            [0.1, 0.1], [0.4, 0.0]]})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "simulate.txt").read_text().splitlines()
    record = dict(line.split("=") for line in lines)
    assert record["discontinuities"] == "1"
    assert float(record["jump_consistency"]) < 1e-15


def test_cli_reports_summary_by_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path)]) == 0
    assert "simulate:" in capsys.readouterr().out


def test_cli_rejects_unknown_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    assert cli_main(["launch", str(cfg)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("below", [None, "sub"])
def test_cli_out_that_is_not_a_directory_exits_one(tmp_path, capsys, below):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    out = tmp_path / "a_file"
    out.write_text("")
    if below:
        out = out / below
    assert cli_main(["steer", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith("cannot write outputs: ")
    assert cli_main(["steer", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().out == ""


def test_cli_missing_config_file(tmp_path):
    assert cli_main(["simulate", str(tmp_path / "absent.json"), "--quiet"]) == 1


def test_cli_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for content in (b"{not json",
                    b"\xff\xfe{}",      # a UTF-16 byte-order mark: not UTF-8
                    b"[" * 100000,      # nested past the interpreter's recursion limit
                    b"[" + b"1" * 5000 + b"]"):   # past the integer digit limit
        bad.write_bytes(content)
        assert cli_main(["simulate", str(bad), "--quiet"]) == 1
        assert capsys.readouterr() == ("", "")
        assert cli_main(["steer", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config is not valid JSON: ") and err.count("\n") == 1
