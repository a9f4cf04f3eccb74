"""The cumulative Simpson prefix rows equal the per-prefix rule bitwise.

``simpson_prefix_matrix`` builds each row from an earlier one.  The
reference below is the loop it replaced: ``simpson_weights`` called
afresh on every prefix.  Both add the same terms in the same order, so
the property is exact equality, not a tolerance.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mds import (LinearPart, TimeFunction, assemble_scenario, build_time_grid,
                 constant_measure, make_basis, zero_kernel, zeno_measure)
from mds._quad import simpson_prefix_matrix, simpson_weights


def reference_simpson_prefix_matrix(nodes: np.ndarray) -> np.ndarray:
    m = len(nodes)
    w = np.zeros((m, m))
    for j in range(1, m):
        w[j, : j + 1] = simpson_weights(nodes[: j + 1])
    return w


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0),
       st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=80))
def test_simpson_prefix_rows_equal_per_prefix_rule(start, cells):
    nodes = start + np.cumsum(np.concatenate([[0.0], cells]))
    assume(np.all(np.diff(nodes) > 0.0))
    assert np.array_equal(simpson_prefix_matrix(nodes),
                          reference_simpson_prefix_matrix(nodes))


def test_simpson_prefix_rows_equal_per_prefix_rule_on_a_zeno_grid():
    nodes = build_time_grid(zeno_measure(20), 1025).nodes
    assert np.array_equal(simpson_prefix_matrix(nodes),
                          reference_simpson_prefix_matrix(nodes))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=300),
       st.one_of(st.none(), st.integers(min_value=2, max_value=60)))
def test_scenario_full_weights_are_the_last_simpson_prefix_row(base, zeno_k):
    h = constant_measure(1.0) if zeno_k is None else zeno_measure(zeno_k)
    scn = assemble_scenario(make_basis(1), LinearPart(TimeFunction("const", c0=1.0),
                                                      zero_kernel()),
                            h, base, np.zeros(1), np.zeros(1))
    assert np.array_equal(scn.wq_full, simpson_prefix_matrix(scn.grid.nodes)[-1])
    assert np.array_equal(scn.wq_full, scn.wq_rows[-1])
