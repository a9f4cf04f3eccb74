"""The cumulative Simpson prefix rows equal the per-prefix rule bitwise.

``simpson_prefix_matrix`` builds each row from an earlier one.  The
reference below is the loop it replaced: ``simpson_weights`` called
afresh on every prefix.  Both add the same terms in the same order, so
the property is exact equality, not a tolerance.  The same holds for the
O(M) form the solver uses: a prefix row is the full-span rule except in
its last two entries, which ``simpson_prefix_edges`` gives.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mds._quad import simpson_prefix_edges, simpson_prefix_matrix, simpson_weights
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import build_time_grid, constant_measure, zeno_measure
from mds.spectral import LinearPart, make_basis

from conftest import assemble_scenario


def reference_simpson_weights(nodes: np.ndarray) -> np.ndarray:
    """The pair-by-pair loop that ``simpson_weights`` vectorizes."""
    m = len(nodes)
    w = np.zeros(m)
    i = 0
    while i + 2 < m:
        h0 = nodes[i + 1] - nodes[i]
        h1 = nodes[i + 2] - nodes[i + 1]
        s = h0 + h1
        w[i] += s / 6.0 * (2.0 - h1 / h0)
        w[i + 1] += s / 6.0 * (s * s / (h0 * h1))
        w[i + 2] += s / 6.0 * (2.0 - h0 / h1)
        i += 2
    if i + 1 < m:
        h = nodes[m - 1] - nodes[m - 2]
        w[m - 2] += h / 2.0
        w[m - 1] += h / 2.0
    return w


def reference_simpson_prefix_matrix(nodes: np.ndarray) -> np.ndarray:
    m = len(nodes)
    w = np.zeros((m, m))
    for j in range(1, m):
        w[j, : j + 1] = reference_simpson_weights(nodes[: j + 1])
    return w


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0),
       st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=80))
def test_simpson_prefix_rows_equal_per_prefix_rule(start, cells):
    nodes = start + np.cumsum(np.concatenate([[0.0], cells]))
    assume(np.all(np.diff(nodes) > 0.0))
    assert np.array_equal(simpson_weights(nodes), reference_simpson_weights(nodes))
    assert np.array_equal(simpson_prefix_matrix(nodes),
                          reference_simpson_prefix_matrix(nodes))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=80))
def test_prefix_rows_differ_from_the_full_rule_only_in_their_last_two_entries(cells):
    nodes = np.cumsum(np.concatenate([[0.0], cells]))
    assume(np.all(np.diff(nodes) > 0.0))
    rows = reference_simpson_prefix_matrix(nodes)
    full = reference_simpson_weights(nodes)
    diag, sub = simpson_prefix_edges(nodes)
    assert np.array_equal(np.diag(rows), diag)
    assert sub[0] == 0.0 and np.array_equal(np.diag(rows, k=-1), sub[1:])
    for j in range(len(nodes)):
        assert np.array_equal(rows[j, :max(j - 1, 0)], full[:max(j - 1, 0)])
        if j >= 2 and j % 2 == 0:
            assert rows[j, j - 1] == full[j - 1]


def test_simpson_prefix_rows_equal_per_prefix_rule_on_a_zeno_grid():
    nodes = build_time_grid(zeno_measure(20), 1025).nodes
    assert np.array_equal(simpson_weights(nodes), reference_simpson_weights(nodes))
    assert np.array_equal(simpson_prefix_matrix(nodes),
                          reference_simpson_prefix_matrix(nodes))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=300),
       st.one_of(st.none(), st.integers(min_value=2, max_value=60)))
def test_scenario_full_weights_are_the_last_simpson_prefix_row(base, zeno_k):
    h = constant_measure(1.0) if zeno_k is None else zeno_measure(zeno_k)
    scn = assemble_scenario(make_basis(1), LinearPart(TimeFunction("const", c0=1.0),
                                                      MemoryKernel("zero")),
                            h, base, np.zeros(1), np.zeros(1))
    assert np.array_equal(scn.wq_full, simpson_prefix_matrix(scn.grid.nodes)[-1])
