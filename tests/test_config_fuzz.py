"""Config-level fuzzing of the command runner.

Valid documents with moderate magnitudes span every measure family and
explicit jump lists, every tau, kernel, nonlinearity and nonlocal kind,
scalar or per-mode gains (0 included) and iteration budgets down to 0.  A
few are mutated into invalid ones: an unknown key, a wrong type, a
non-finite number or an out-of-range count.  Every command must map each
document to a documented exit code (0 ok, 1 refused or failed check, 2 no
convergence, 3 degenerate control) without raising; the suite's
``filterwarnings = error`` setting also fails any numpy warning.

Extreme magnitudes, from 1e-300 to 1e308, go into one number of a valid
document at a time: any coefficient, gain, state entry, table value, jump
time or size, d or tolerance.  A number above MAX_COEFFICIENT, a horizon
outside HORIZON_RANGE or a kernel that grows by more than MAX_COEFFICIENT
over the horizon is refused with exit 1 and a config error naming the field
(a jump pair or a table row is named as a whole); any other value still
maps to a documented exit code with no warning, an overflowing mode ending
in exit 2.

The canonical document that ``serialize_scenario`` writes is a fixed
point of parsing, and deleting any entry that holds its documented default
leaves it unchanged.

Grids near MAX_NODES come from base nodes, a Zeno K or an explicit jump
list, merging to about 65536 nodes, some of them over the limit.  The
physical-memory reading is patched low, so the byte budgets refuse them
before anything of the grid's size times the mode count is allocated: below
the solver's budget every command exits 1, and between it and the resolvent
sample's only ``verify-resolvent`` is run, which must exit 1.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mds.scenario_io
import mds.spectral
import mds.verify
from mds.errors import ConfigError
from mds.measure import JumpMeasure, build_time_grid, constant_measure, zeno_measure
from mds.scenario_io import (_SOLVER_ARRAYS, HORIZON_RANGE, MAX_COEFFICIENT, MAX_ITERATIONS,
                             MAX_NODES, parse_scenario, run_command, serialize_scenario)
from mds.verify import ANCHOR_BLOCK

COMMANDS = ("simulate", "steer", "check-conditions", "verify-resolvent")

moderate = st.floats(min_value=-3.0, max_value=3.0)
positive = st.floats(min_value=0.05, max_value=3.0)


@st.composite
def time_specs(draw, nonnegative=False):
    kind = draw(st.sampled_from(["const", "affine", "sine", "cosine"]))
    spec = {"kind": kind, "c0": draw(positive if nonnegative else moderate)}
    if kind != "const":
        spec["c1"] = draw(moderate)
    if kind in ("sine", "cosine"):
        spec["freq"] = draw(st.floats(min_value=0.5, max_value=6.0))
    return spec


@st.composite
def kernel_specs(draw):
    kind = draw(st.sampled_from(["zero", "const", "exp_diff"]))
    spec = {"kind": kind}
    if kind != "zero":
        spec["c0"] = draw(moderate)
    if kind == "exp_diff":
        spec["rate"] = draw(moderate)
    return spec


@st.composite
def measure_specs(draw):
    family = draw(st.sampled_from(["zeno", "constant", "lebesgue", "explicit"]))
    if family == "zeno":
        return {"family": "zeno", "K": draw(st.integers(min_value=2, max_value=8))}
    end = draw(st.sampled_from([0.5, 1.0, 2.0]))
    if family != "explicit":
        return {"family": family, "end": end}
    locs = draw(st.lists(st.floats(min_value=0.02 * end, max_value=0.98 * end),
                         max_size=5, unique=True))
    jumps = [[t, draw(st.floats(min_value=0.01, max_value=1.0))] for t in sorted(locs)]
    return {"end": end, "density": draw(time_specs(nonnegative=True)), "jumps": jumps}


@st.composite
def nonlinearity_specs(draw, n_modes):
    kind = draw(st.sampled_from(["zero", "cosine", "table"]))
    if kind == "zero":
        return {"kind": "zero"}
    if kind == "cosine":
        return {"kind": "cosine", "M0": draw(st.floats(min_value=-0.5, max_value=0.5))}
    return {"kind": "table", "values": draw(st.lists(moderate, min_size=n_modes,
                                                     max_size=n_modes))}


@st.composite
def nonlocal_specs(draw):
    if draw(st.booleans()):
        return {"kind": "zero"}
    spec = {"kind": "log_kernel", "f": draw(time_specs()),
            "d": draw(st.floats(min_value=0.0, max_value=2.0))}
    if draw(st.booleans()):
        spec["f_space"] = draw(time_specs())
    return spec


gains = st.sampled_from([0.0, 0.1, 1.0]) | st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def documents(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    coeffs = st.lists(moderate, min_size=n, max_size=n)
    theta = draw(gains | st.lists(gains, min_size=n, max_size=n))
    return {
        "basis": {"N": n},
        "grid": {"nodes": draw(st.integers(min_value=2, max_value=40))},
        "linear": {"tau": draw(time_specs()), "kernel": draw(kernel_specs())},
        "measure": draw(measure_specs()),
        "nonlinearity": draw(nonlinearity_specs(n)),
        "nonlocal": draw(nonlocal_specs()),
        "control": {"theta": theta},
        "states": {"zeta0": draw(coeffs), "zeta1": draw(coeffs)},
        "tolerances": {"max_picard": draw(st.integers(min_value=0, max_value=8)),
                       "max_outer": draw(st.integers(min_value=0, max_value=4))},
    }


def _set(*path):
    """A mutation that stores a value at the dotted path of a document."""
    *parents, key = path

    def mutate(doc, value):
        for part in parents:
            doc = doc[part]
        doc[key] = value
    return mutate


# (mutation, replacement values): each makes a valid document invalid
MUTATIONS = [
    (_set("extra"), [{}]),                                         # unknown keys
    (_set("linear", "extra"), [1]),
    (_set("tolerances", "tol_cheap"), [1e-3]),
    (_set("grid", "nodes"), ["many", 17.0, True, None]),          # wrong types
    (_set("basis"), [[2]]),
    (_set("control", "theta"), ["big", {"n": 1}]),
    (_set("states", "zeta0"), [0.5]),
    (_set("linear", "tau", "c0"), [float("nan"), float("inf")]),   # non-finite
    (_set("control", "theta"), [float("-inf")]),
    (_set("tolerances", "tol_picard"), [float("nan")]),
    (_set("basis", "N"), [0, 257]),                                # counts out of range
    (_set("grid", "nodes"), [1, 65537]),
    (_set("measure"), [{"family": "zeno", "K": 1}]),
    (_set("tolerances", "max_picard"), [-1, MAX_ITERATIONS + 1, 10 ** 9]),
    (_set("tolerances", "max_outer"), [-1, MAX_ITERATIONS + 1]),
]


@st.composite
def mutations(draw):
    mutate, values = draw(st.sampled_from(MUTATIONS))
    return mutate, draw(st.sampled_from(values))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.none() | mutations())
def test_every_document_maps_to_a_documented_exit_code(tmp_path_factory, doc, mutation):
    if mutation is not None:
        mutate, value = mutation
        mutate(doc, value)
    out = tmp_path_factory.mktemp("fuzz")
    for command in COMMANDS:
        code = run_command(command, copy.deepcopy(doc), str(out), quiet=True)
        assert code in (0, 1, 2, 3)
        if mutation is not None:
            assert code == 1


def _run(command, doc, out):
    """Exit code and printed output of one command."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = run_command(command, copy.deepcopy(doc), str(out))
    return code, text.getvalue()


def _small_doc():
    return {"basis": {"N": 2}, "grid": {"nodes": 17},
            "linear": {"tau": {"kind": "const", "c0": 1.0},
                       "kernel": {"kind": "exp_diff", "c0": 0.1, "rate": 1.0}},
            "measure": {"family": "constant", "end": 1.0},
            "nonlinearity": {"kind": "cosine", "M0": 0.1},
            "states": {"zeta0": [1.0, 0.5], "zeta1": [0.5, 0.2]}}


@pytest.mark.parametrize("path, value, code", [
    (("measure", "end"), 1e300, 1), (("measure", "end"), 1e-300, 1),
    (("linear", "kernel", "rate"), -1e6, 1), (("linear", "kernel", "c0"), 1e300, 1),
    (("linear", "tau", "c0"), 1e308, 1),
    # within the limits: the step maps overflow and the march's guard stops the run
    (("linear", "tau", "c0"), -MAX_COEFFICIENT, 2),
    (("linear", "kernel", "c0"), MAX_COEFFICIENT, 2)])
@pytest.mark.parametrize("command", COMMANDS)
def test_extreme_magnitude_ends_in_a_typed_error(tmp_path, command, path, value, code):
    doc = _small_doc()
    _set(*path)(doc, value)
    got, text = _run(command, doc, tmp_path)
    assert got == code
    if code == 1:
        assert text.startswith("config error: $." + ".".join(path) + ":")
    else:
        assert "exceeded the overflow guard" in text


@pytest.mark.parametrize("key", ["max_picard", "max_outer"])
@pytest.mark.parametrize("command", COMMANDS)
def test_iteration_limits_above_the_cap_are_refused(tmp_path, command, key):
    # simulate with max_picard 1e9 and an unreachable tol_picard was still sweeping after 20 s
    doc = _small_doc()
    doc["tolerances"] = {key: MAX_ITERATIONS}
    assert getattr(parse_scenario(doc).tol, key) == MAX_ITERATIONS
    doc["tolerances"] = {key: 10 ** 9}
    code, text = _run(command, doc, tmp_path)
    assert code == 1
    assert text.startswith(f"config error: $.tolerances.{key}:")


@pytest.mark.parametrize("command", COMMANDS)
def test_jump_sizes_above_the_limit_are_refused(tmp_path, command):
    # their sum overflowed math.fsum in check-conditions' jump mass
    doc = _small_doc()
    doc["measure"] = {"end": 1, "jumps": [[0.3, 1e308], [0.6, 1e308]]}
    code, text = _run(command, doc, tmp_path)
    assert code == 1
    assert text.startswith("config error: $.measure.jumps[0]:")


extreme = st.sampled_from([1e308, -1e308, 1e300, -1e300, 1e100, -1e100, 1e6, -1e6,
                           1e-6, 1e-300, -1e-300])


def _refused(path, value, doc) -> bool:
    """Whether the documented limits refuse ``value`` at ``path`` of ``doc``."""
    if path == ("measure", "end"):
        return not HORIZON_RANGE[0] <= value <= HORIZON_RANGE[1]
    if path == ("linear", "kernel", "rate"):        # a zeno measure ends at 1
        return (abs(value) > MAX_COEFFICIENT
                or -value * doc["measure"].get("end", 1.0) > math.log(MAX_COEFFICIENT))
    return abs(value) > MAX_COEFFICIENT


def _number_fields(obj, path=()) -> list[tuple]:
    """The path of every non-integer number in a document."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [p for key, value in items for p in _number_fields(value, path + (key,))]
    return [path] if isinstance(obj, float) else []


def _named(path) -> str:
    """The path a config error names for a value at ``path``: a jump pair or
    a row of a table is named as a whole."""
    if path[:2] == ("measure", "jumps") or path[:2] == ("nonlinearity", "values"):
        path = path[:3] if len(path) == 4 else path[:2] + (0,)
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.data())
def test_extreme_magnitudes_map_to_a_documented_exit_code(tmp_path_factory, doc, data):
    fields = _number_fields(doc)
    fields += [("tolerances", name) for name in ("tol_picard", "tol_target", "tol_pde")]
    path = data.draw(st.sampled_from(fields), label="field")
    value = data.draw(extreme, label="value")
    try:
        parse_scenario(copy.deepcopy(doc))
        valid = True            # so a refusal can only come from the extreme field
    except ConfigError:
        valid = False
    _set(*path)(doc, value)
    out = tmp_path_factory.mktemp("extreme")
    for command in COMMANDS:
        code, text = _run(command, doc, out)
        assert code in (0, 1, 2, 3)
        if valid and _refused(path, value, doc):
            assert code == 1
            assert text.startswith(f"config error: {_named(path)}:")


# the documented default of each optional entry, by key (a time spec's or a
# kernel's c0 alike)
def _defaults(n_modes: int) -> dict:
    tolerances = {"tol_picard": 1e-10, "tol_target": 1e-4, "tol_pde": 1e-3,
                  "max_picard": 64, "max_outer": 20}
    return {"collocation": 2 * n_modes + 1, "kernel": {"kind": "zero"},
            "K": 20, "end": 1.0, "density": {"kind": "const", "c0": 0.0}, "jumps": [],
            "c0": 0.0, "c1": 0.0, "freq": 1.0, "rate": 0.0,
            "nonlinearity": {"kind": "zero"}, "nonlocal": {"kind": "zero"}, "d": 1.0,
            "control": {"theta": 1.0}, "theta": 1.0, "zeta1": [0.0] * n_modes,
            "tolerances": tolerances, **tolerances}


def _maps(obj):
    """Every map in a document, the document included, in a fixed order."""
    if isinstance(obj, dict):
        yield obj
        obj = list(obj.values())
    if isinstance(obj, list):
        for value in obj:
            yield from _maps(value)


def _canonical(doc) -> str:
    return json.dumps(serialize_scenario(parse_scenario(copy.deepcopy(doc))))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_the_canonical_document_is_stable_and_complete(doc):
    try:
        canonical = serialize_scenario(parse_scenario(doc))
    except ConfigError:
        return
    text = json.dumps(canonical)
    assert _canonical(canonical) == text
    defaults = _defaults(canonical["basis"]["N"])
    for index, owner in enumerate(_maps(canonical)):
        for key, value in owner.items():
            if json.dumps(value) == json.dumps(defaults.get(key)):
                reduced = copy.deepcopy(canonical)
                del list(_maps(reduced))[index][key]
                assert _canonical(reduced) == text, key


@st.composite
def large_grid_documents(draw):
    """A valid document whose grid merges to about MAX_NODES nodes."""
    n = draw(st.sampled_from([1, 2, 3, 256]))
    family = draw(st.sampled_from(["base", "zeno", "jumps"]))
    if family == "base":
        nodes = draw(st.integers(min_value=MAX_NODES - 64, max_value=MAX_NODES))
        measure = {"family": "constant", "end": 1.0}
    elif family == "zeno":
        nodes = draw(st.integers(min_value=2, max_value=300))
        measure = {"family": "zeno", "K": draw(st.integers(min_value=MAX_NODES - 400,
                                                           max_value=MAX_NODES))}
    else:
        nodes = draw(st.integers(min_value=2, max_value=600))
        count = draw(st.integers(min_value=MAX_NODES - 600, max_value=MAX_NODES))
        measure = {"end": 1.0, "jumps": [[(i + 0.5) / count, 0.1] for i in range(count)]}
    return {"basis": {"N": n}, "grid": {"nodes": nodes},
            "linear": {"tau": {"kind": "const", "c0": 1.0},
                       "kernel": {"kind": "exp_diff", "c0": 0.5, "rate": 1.0}},
            "measure": measure, "states": {"zeta0": [1.0] * n}}


def _merged_nodes(doc) -> int:
    """The node count of the document's merged grid, built on its own."""
    spec, base = doc["measure"], doc["grid"]["nodes"]
    if spec.get("family") == "zeno":
        return len(build_time_grid(zeno_measure(spec["K"]), base))
    if spec.get("family") == "constant":
        return len(build_time_grid(constant_measure(spec["end"]), base))
    locs, sizes = np.array(spec["jumps"]).T
    h = JumpMeasure(spec["end"], np.linspace(0.0, spec["end"], 2), np.zeros(2), locs, sizes)
    return len(build_time_grid(h, base))


def _forbidden(*args, **kwargs):
    raise AssertionError("allocated past a byte budget")


def _sample_bytes(m_count: int, n_count: int) -> int:
    """What verify-resolvent charges for its sample, from the window rule.

    ceil(K / _SOLVER_ARRAYS) windows of whole blocks (L = ceil(sqrt(M))
    rows each), spread evenly: the window with its 2-row halo, the march's
    entry states and their scratch (6 N blocks K floats) and the anchor-0
    column (M, N).
    """
    size = math.isqrt(m_count - 1) + 1
    blocks = -(-m_count // size)
    k_count = min(m_count - 2, ANCHOR_BLOCK)
    windows = -(-k_count // _SOLVER_ARRAYS)
    rows = -(-blocks // windows) * size + 2
    return 8 * n_count * (rows * k_count + 6 * blocks * k_count + m_count)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(large_grid_documents(), st.sampled_from(COMMANDS), st.sampled_from(["solver", "sample"]))
def test_grids_near_the_limits_are_refused_without_a_large_allocation(
        tmp_path_factory, doc, command, budget):
    m_count, n_count = _merged_nodes(doc), doc["basis"]["N"]
    over = m_count > MAX_NODES
    # memory for 8 of the solver's 12 (M, N) columns, or one byte less than
    # the sample's charge
    memory = (8 * m_count * n_count * 8 if budget == "solver"
              else _sample_bytes(m_count, n_count) - 1)
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
    if budget == "sample" and not over:
        command = "verify-resolvent"     # the other commands would run the full grid
        # near the limits the window fills most of the solver's arrays, so the
        # sample needs more than the parse charges and the parse passes
        assert memory >= 8 * m_count * n_count * _SOLVER_ARRAYS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sysconf", sizes.__getitem__)
        patch.setattr(mds.verify, "step_maps", _forbidden)          # the sample's march
        if budget == "solver" or over:
            patch.setattr(mds.scenario_io, "Scenario", _forbidden)  # its O(M N) arrays
        code, text = _run(command, doc, tmp_path_factory.mktemp("large"))
    assert code == 1
    if budget == "solver" or over:
        assert text.startswith("config error: $.grid.nodes:")
    else:
        assert text.startswith(f"validation error: the resolvent sample of "
                               f"{m_count} nodes x {n_count} modes")


@pytest.mark.parametrize("over", [True, False])
def test_an_l1_pass_over_its_budget_is_refused_before_it_starts(tmp_path, over):
    # check-conditions' L1 pass takes N M^2 / 2 entry-steps: 2 x 17^2 / 2 =
    # 289 on the small document.  One over the budget, the command exits 1
    # naming the grid and writes no report; at the budget it runs.
    doc = _small_doc()
    steps = 2 * 17 * 17 // 2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mds.spectral, "L1_ENTRY_STEPS", steps - 1 if over else steps)
        code, text = _run("check-conditions", doc, tmp_path)
    if over:
        assert code == 1
        assert text.startswith("validation error: the L1 pass over 17 nodes x 2 modes "
                               "takes about 289 entry-steps, more than the budget of 288")
        assert not (tmp_path / "conditions.txt").exists()
    else:
        assert (tmp_path / "conditions.txt").exists()
