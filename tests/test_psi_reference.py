"""The lean psi sweep and steering pass against reference copies of the old ones.

``psi_reference`` keeps the sweep that built its full (M, N) seeds and
closure from zeros, the Picard solve and the steering loop that evaluated g
and delta wherever they were needed, g from freshly sampled f and
trapezoid weights, and paths that held a full (M, N) array of right values.
On small documents of every shape the package's ``apply_psi``,
``picard_solve`` and ``steer`` give bitwise the same values, right limits,
controls, histories and deltas, or raise the same error.  The package takes
and returns a control as its coefficients c on the final row, the reference
as its samples r(a, t_k) c.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import psi_reference
from mds.control import steer
from mds.errors import ConfigError
from mds.measure import RegulatedTrajectory
from mds.scenario_io import parse_scenario
from mds.solver import _BLOCKS, apply_psi, picard_solve

from conftest import load_config

moderate = st.floats(min_value=-3.0, max_value=3.0)
positive = st.floats(min_value=0.05, max_value=3.0)
# signed zeros among the samples: a -0.0 term must still seed +0.0
samples = st.sampled_from([0.0, -0.0]) | st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def time_specs(draw):
    kind = draw(st.sampled_from(["const", "affine", "cosine"]))
    spec = {"kind": kind, "c0": draw(moderate)}
    if kind != "const":
        spec["c1"] = draw(moderate)
    if kind == "cosine":
        spec["freq"] = draw(st.floats(min_value=0.5, max_value=6.0))
    return spec


@st.composite
def documents(draw):
    """A small document with each knob drawn: jumps or none, a cosine, table or
    zero nonlinearity, the log-kernel nonlocal term or none."""
    n = draw(st.integers(min_value=1, max_value=3))
    coeffs = st.lists(moderate, min_size=n, max_size=n)
    measure = draw(st.sampled_from(["none", "zeno", "explicit"]))
    if measure == "none":
        measure = {"family": "constant", "end": 1.0}
    elif measure == "zeno":
        measure = {"family": "zeno", "K": draw(st.integers(min_value=2, max_value=6))}
    else:
        locs = draw(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1,
                             max_size=4, unique=True))
        measure = {"end": 1.0, "density": {"kind": "const", "c0": 1.0},
                   "jumps": [[t, draw(st.floats(min_value=0.01, max_value=1.0))]
                             for t in sorted(locs)]}
    kind = draw(st.sampled_from(["zero", "cosine", "table"]))
    nonlinearity = {"kind": kind}
    if kind == "cosine":
        nonlinearity["M0"] = draw(st.sampled_from([0.0, 0.3]) | st.floats(-0.5, 0.5))
    elif kind == "table":
        nonlinearity["values"] = draw(st.lists(samples, min_size=n, max_size=n))
    nonlocal_term = {"kind": "zero"}
    if draw(st.booleans()):
        nonlocal_term = {"kind": "log_kernel", "f": draw(time_specs()),
                         "d": draw(st.floats(min_value=0.0, max_value=2.0))}
        if draw(st.booleans()):
            nonlocal_term["f_space"] = draw(time_specs())
    return {
        "basis": {"N": n},
        "grid": {"nodes": draw(st.integers(min_value=2, max_value=40))},
        "linear": {"tau": {"kind": "const", "c0": draw(positive)},
                   "kernel": draw(st.sampled_from([{"kind": "zero"},
                                                   {"kind": "exp_diff", "c0": 0.1,
                                                    "rate": 1.0}]))},
        "measure": measure,
        "nonlinearity": nonlinearity,
        "nonlocal": nonlocal_term,
        "control": {"theta": draw(st.sampled_from([0.1, 1.0, 2.0]) | moderate)},
        "states": {"zeta0": draw(coeffs), "zeta1": draw(coeffs)},
        "tolerances": {"max_picard": draw(st.integers(min_value=1, max_value=8)),
                       "max_outer": draw(st.integers(min_value=0, max_value=10))},
    }


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.tobytes()


def _same_trajectory(got: RegulatedTrajectory, want: psi_reference.Path, scn) -> None:
    """``got`` is ``want``: the same left values, and the block of right limits
    at the jump rows is the only place where ``want``'s right values differ."""
    rows = scn.jump_rows
    assert got.jump_rows is rows
    assert _bits(got.values) == _bits(want.values)
    off = np.ones(len(want.values), dtype=bool)
    off[rows] = False
    assert _bits(want.right_values[off]) == _bits(want.values[off])
    assert _bits(got.right) == _bits(want.right_values[rows])


def _outcome(run, *args):
    """What ``run(*args)`` returns, or the type, text and record of what it raises."""
    try:
        return run(*args)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "history", getattr(exc, "deltas", None))


def _parse(doc):
    try:
        return parse_scenario(doc)
    except ConfigError:
        return None


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.booleans(), st.lists(samples, min_size=1, max_size=64), st.data())
def test_lean_solver_matches_the_reference_bitwise(doc, controlled, pool, data):
    scn, ref = _parse(doc), _parse(doc)
    if scn is None:
        return
    m_count, n_count = len(scn.grid), scn.n_modes
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    c = rng.choice(pool, size=n_count) if controlled else None
    u = ref.final_row.T * c if controlled else None         # the reference's samples
    wild = rng.choice(pool, size=(2, m_count, n_count))
    iterates = [RegulatedTrajectory(scn.grid, wild[0], scn.jump_rows, wild[1][scn.jump_rows])]
    seed = _outcome(lambda: scn.picard_seed)
    if isinstance(seed, RegulatedTrajectory):
        iterates.append(seed)
    for traj in iterates:
        want = _outcome(psi_reference.apply_psi, ref, traj, u)
        for got in (_outcome(apply_psi, scn, traj, c),
                    _outcome(apply_psi, scn, traj, c, scn.g_of(traj.values),
                             scn.delta_values(traj.values))):
            if isinstance(want, psi_reference.Path):
                _same_trajectory(got, want, scn)
            else:
                assert got == want

    got, want = _outcome(picard_solve, scn, c), _outcome(psi_reference.picard_solve, ref, u)
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_trajectory(got.trajectory, want.trajectory, scn)
        assert (got.iterations, got.deltas) == (want.iterations, want.deltas)
        assert _bits(got.final_delta) == _bits(want.final_delta)

    got, want = _outcome(steer, scn), _outcome(psi_reference.steer, ref)
    if isinstance(want, tuple):
        assert got == want
    else:
        # no pass: no control, where the reference holds zeros
        assert _bits(np.zeros((m_count, n_count)) if got.control is None
                     else scn.final_row.T * got.control) == _bits(want.control)
        _same_trajectory(got.trajectory, want.trajectory, scn)
        assert got.report.history == want.report.history
        assert _bits([got.report.terminal_error, got.report.control_norm]) == \
            _bits([want.report.terminal_error, want.report.control_norm])
        assert got.report.outer_iterations == want.report.outer_iterations


def _traced(run, *args) -> tuple[int, int]:
    """The tracemalloc peak of ``run(*args)``, and what its result still holds."""
    tracemalloc.start()
    try:
        result = run(*args)
        held, peak = tracemalloc.get_traced_memory()
        del result
        return peak, held
    finally:
        tracemalloc.stop()


def test_a_sweep_holds_only_the_march_beside_the_path_it_returns():
    # the demo at 16385 nodes with a control, g and delta given: a sweep
    # returns its (M, N) values and the (K, N) right limits at its K jump rows,
    # and marches in the values' own array, so beside them it holds only the
    # march's entry states and scratch, 6 N blocks floats, its row views
    # (under one (M,) vector; it lets go of its (M,) mask of seeded rows
    # before it steps) and numpy's iteration buffers, and after the march a
    # row block's closure, vu and the two products of its cell term, 4 (b, N)
    # arrays with b = ceil(M / 8), and a few (b,) vectors; the closure is the
    # larger share
    doc = load_config("demo.json")
    doc["grid"]["nodes"] = 16385
    scn = parse_scenario(doc)
    traj = scn.picard_seed
    m_count, n_count = len(scn.grid), scn.n_modes
    c = np.full(n_count, 0.25)
    g, delta = scn.g_of(traj.values), scn.delta_values(traj.values)
    apply_psi(scn, traj, c, g, delta)     # forms the rules, the layout and the final row
    array = 8 * m_count * n_count
    path = array + 8 * len(scn.jump_rows) * n_count
    size = math.isqrt(m_count - 1) + 1
    march = 8 * n_count * -(-m_count // size) * 6
    closure = 4 * 8 * -(-m_count // _BLOCKS) * n_count
    lean, held = _traced(apply_psi, scn, traj, c, g, delta)
    # the returned path is one (M, N) array and the block; a full (M, N) array
    # of right values beside the left ones would be twice the array
    assert path <= held < path + 4096
    buffers = 3 * np.getbufsize() * 8
    assert march < closure
    assert array + closure < lean < path + closure + 8 * m_count + buffers
    # each evaluating g and delta itself, the reference sweep also held the
    # seeds, the closure, vu, a product and the march's output (measured 3.0
    # arrays more)
    u = scn.final_row.T * c
    assert (_traced(psi_reference.apply_psi, scn, traj, u)[0]
            > _traced(apply_psi, scn, traj, c)[0] + 2.5 * array)


def test_a_steer_holds_its_control_as_the_n_coefficients():
    # the demo at 16385 nodes, steered once already so that the Scenario's
    # seed, step maps, final row and rules are built: a steer returns its
    # path, the (M, N) values and the (K, N) right limits at its K jump rows,
    # and the control's N coefficients, with no (M, N) samples of u beside
    # them
    doc = load_config("demo.json")
    doc["grid"]["nodes"] = 16385
    scn = parse_scenario(doc)
    steer(scn)
    m_count, j_count = len(scn.grid), scn.basis.collocation
    path = 8 * (m_count + len(scn.jump_rows)) * scn.n_modes
    peak, held = _traced(steer, scn)
    assert path <= held < path + 4096
    # the peak is the last pass's g of the new path beside the old one: two
    # paths, and g's (M, J) physical values and its two (M,) vectors, under
    # one (M,) vector more; the control's samples would be a third (M, N)
    # array
    g_eval = 8 * m_count * (j_count + 2)
    assert 2 * path + 8 * m_count * j_count < peak < 2 * path + g_eval + 8 * m_count
