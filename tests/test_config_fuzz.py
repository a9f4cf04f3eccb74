"""Config-level fuzzing of the command runner.

Valid documents with moderate magnitudes span every measure family and
explicit jump lists, every tau, kernel, nonlinearity and nonlocal kind,
scalar or per-mode gains (0 included) and iteration budgets down to 0.  A
few are mutated into invalid ones: an unknown key, a wrong type, a
non-finite number or an out-of-range count.  Every command must map each
document to a documented exit code (0 ok, 1 refused or failed check, 2 no
convergence, 3 degenerate control) without raising; the suite's
``filterwarnings = error`` setting also fails any numpy warning.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mds import run_command

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
    (_set("tolerances", "max_picard"), [-1]),
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
