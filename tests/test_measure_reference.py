"""The grid merge and the Zeno driver against reference copies of the old ones.

``measure_reference`` keeps the merge that every driver went through, jumps
or none, and the Zeno driver formed from a list of Python floats.  The
package's ``build_time_grid`` and ``zeno_measure`` must give bitwise the same
nodes, jump locations and sizes, or raise the same error.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measure_reference
from mds.errors import GridError
from mds.measure import (JumpMeasure, _location_tol, build_time_grid, constant_measure,
                         lebesgue_measure, zeno_measure)

ends = st.sampled_from([1.0, 0.5, 3.0, 1e-3, 1e3]) | st.floats(min_value=1e-6, max_value=1e6)


def _outcome(build, *args):
    """The grid's node bytes, or the type and message of the error raised."""
    try:
        return build(*args).nodes.tobytes()
    except ValueError as exc:       # GridError, or a driver's DomainError or UsageError
        return type(exc), str(exc)


@st.composite
def jump_lists(draw, end, base):
    """Increasing jump locations in (tol, end - tol), more than tol apart:
    near base nodes (up to half a step off, and at the 0.45-step cut-off),
    at the accepted locations nearest either end, just over tol after
    another jump, or anywhere."""
    step, tol = end / (base - 1), _location_tol(end)
    node = st.integers(min_value=0, max_value=base - 1)
    off = st.sampled_from([0.0, 0.45, -0.45, 0.5, -0.5]) | st.floats(min_value=-0.5,
                                                                     max_value=0.5)
    loc = (st.tuples(node, off).map(lambda p: (p[0] + p[1]) * step)
           | st.sampled_from([np.nextafter(tol, math.inf), np.nextafter(end - tol, 0.0)])
           | st.floats(min_value=0.0, max_value=end))
    near = st.sampled_from([None, tol * (1.0 + 2.0 ** -40), 1.1 * tol, 0.45 * step])
    drawn = [(t, draw(near)) for t in draw(st.lists(loc, min_size=1, max_size=30))]
    locs = []
    for t in sorted([t for t, _ in drawn] + [t + d for t, d in drawn if d]):
        if tol < t < end - tol and (not locs or t - locs[-1] > tol):
            locs.append(t)
    return locs


@st.composite
def drivers(draw):
    """A driver with jumps, or one without from each family, and a base count."""
    end = draw(ends)
    base = draw(st.integers(min_value=2, max_value=300) | st.sampled_from([2, 3, 4]))
    kind = draw(st.sampled_from(["jumps", "constant", "lebesgue", "explicit"]))
    if kind == "constant":
        return constant_measure(end), base
    if kind == "lebesgue":
        return lebesgue_measure(end, draw(st.integers(min_value=2, max_value=9))), base
    locs = draw(jump_lists(end, base)) if kind == "jumps" else []
    density = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=5))
    return (JumpMeasure(end, np.linspace(0.0, end, len(density)), np.array(density),
                        np.array(locs), np.full(len(locs), 0.25)), base)


@settings(max_examples=400, deadline=None)
@given(drivers())
def test_grid_matches_the_reference_merge_bitwise(case):
    h, base = case
    assert (_outcome(build_time_grid, h, base)
            == _outcome(measure_reference.build_time_grid, h, base))


@pytest.mark.parametrize("h", [constant_measure(1.0), lebesgue_measure(3.0, 5),
                               zeno_measure(20)], ids=["constant", "lebesgue", "zeno"])
def test_too_few_base_nodes_refused_like_the_reference(h):
    for base in (1, 0, -3):
        assert (_outcome(build_time_grid, h, base)
                == _outcome(measure_reference.build_time_grid, h, base))
        assert _outcome(build_time_grid, h, base)[0] is GridError


def _same_zeno(k_max: int):
    h, ref = zeno_measure(k_max), measure_reference.zeno_measure(k_max)
    assert h.jump_locs.tobytes() == ref.jump_locs.tobytes()
    assert h.jump_sizes.tobytes() == ref.jump_sizes.tobytes()
    return h, ref


def test_zeno_matches_the_reference_list_formula_for_every_small_k():
    for k_max in range(2, 300):
        _same_zeno(k_max)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=5000), st.integers(min_value=2, max_value=2049))
def test_zeno_and_its_grid_match_the_references_bitwise(k_max, base):
    h, ref = _same_zeno(k_max)
    assert (_outcome(build_time_grid, h, base)
            == _outcome(measure_reference.build_time_grid, ref, base))
