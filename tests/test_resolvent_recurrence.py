"""Differential tests for the recurrence resolvent build.

``_etd_build`` carries each column's memory integral as a one-exponential
recurrence.  The build it replaced re-summed the trapezoid over the whole
prefix at every step with the M x M kernel matrix; that O(M^3) build is
kept here, and only here, as the reference.  It is the replaced code with
the two forwarding wrappers and the kernel-matrix helper it called spelled
out.

With no memory kernel both builds reduce to products of the exact factors
ex = exp(-n^2 int tau) > 0.  The reference computes r <- ex r (its memory
terms are exact zeros), one rounding per step, and so does the row-by-row
march ``row_march``: the two are bitwise equal.  The blocked build regroups
the product: a block it crosses enters as one transfer factor, the product
of the block's L factors (L - 1 roundings, the first factor times 1 is
exact), times the carry (1 more), and its zero memory terms and zero seeds
add exactly.  So column entry (j, s) is a product of j - s positive factors
with at most j - s roundings in either build, each at most eps relative:
|new - old| <= 2 (j - s) eps |old| to first order.  The bound used is
3 (j - s + 1) eps |old|.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mds import (InstabilityError, JumpMeasure, LinearPart, MemoryKernel,
                 TimeFunction, build_time_grid, constant_measure, zeno_measure)
from mds.spectral import _OVERFLOW_GUARD, _etd_build, step_maps

from test_forced_resolvent import row_table

# fixed before any run: |new - old| <= 1e-13 * max(1, max|old|)
REL_TOL = 1e-13


def reference_etd_build(modes, grid, linear, anchors):
    """The full-prefix predictor-corrector build: O(N M^2) work per step."""
    nodes = grid.nodes
    m_count = len(nodes)
    n_count = len(modes)
    k_count = len(anchors)
    c_count = n_count * k_count
    d = np.diff(nodes)

    n2 = modes.astype(float) ** 2
    tau_cum = linear.tau.antiderivative(nodes)
    exmat = np.exp(-np.outer(n2, np.diff(tau_cum)))     # (n_count, M-1), exact
    kernel = linear.kernel.c0 * np.exp(-linear.kernel.rate * (nodes[:, None] - nodes[None, :]))

    wfull = np.empty(m_count)
    wfull[0] = d[0] / 2.0
    if m_count > 2:
        wfull[1:-1] = (d[:-1] + d[1:]) / 2.0
    wfull[-1] = d[-1] / 2.0
    half_left = np.zeros(m_count)
    half_left[1:] = d / 2.0

    kvec = np.tile(anchors, n_count)
    n2col = np.repeat(n2, k_count)
    cols_at = {int(k): np.where(anchors == k)[0][None, :] + k_count * np.arange(n_count)[:, None]
               for k in np.unique(anchors)}
    cols_at = {k: idx.ravel() for k, idx in cols_at.items()}

    table = np.zeros((m_count, c_count))
    q = np.zeros(c_count)
    active = np.zeros(c_count, dtype=bool)
    anchor_halves = half_left[kvec]

    for j in range(m_count):
        if j in cols_at:
            cols = cols_at[j]
            table[j, cols] = 1.0
            q[cols] = 0.0
            active[cols] = True
        if j == m_count - 1:
            break
        dt = d[j]
        ex = np.repeat(exmat[:, j], k_count)
        pred = ex * (table[j] + dt * q)
        arow = kernel[j + 1]
        raw = (wfull[:j + 1] * arow[:j + 1]) @ table[:j + 1]
        raw += (dt / 2.0) * arow[j + 1] * pred
        q_next = -n2col * (raw - anchor_halves * arow[kvec])
        q_next[~active] = 0.0
        table[j + 1] = ex * table[j] + (dt / 2.0) * (ex * q + q_next)
        q_next += -n2col * (dt / 2.0) * arow[j + 1] * (table[j + 1] - pred)
        q_next[~active] = 0.0
        q = q_next
        peak = np.max(np.abs(table[j + 1]))
        if not peak < _OVERFLOW_GUARD:
            worst = int(np.argmax(np.abs(table[j + 1])))
            raise InstabilityError(int(modes[worst // k_count]), _OVERFLOW_GUARD)
    return table.T.reshape(n_count, k_count, m_count).transpose(0, 2, 1).copy()


coef = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def time_functions(draw):
    kind = draw(st.sampled_from(["const", "affine", "sine", "cosine"]))
    freq = draw(st.floats(min_value=0.5, max_value=6.0))
    return TimeFunction(kind, c0=draw(st.floats(min_value=-3.0, max_value=3.0)),
                        c1=draw(coef), freq=freq)


@st.composite
def kernels(draw):
    kind = draw(st.sampled_from(["zero", "const", "exp_diff"]))
    return MemoryKernel(kind, c0=draw(coef),
                        rate=draw(st.floats(min_value=0.0, max_value=5.0)))


@st.composite
def grids(draw):
    family = draw(st.sampled_from(["uniform", "zeno", "jumps"]))
    base = draw(st.integers(min_value=2, max_value=90))
    if family == "uniform":
        return build_time_grid(constant_measure(draw(st.sampled_from([1.0, 2.5]))), base)
    if family == "zeno":
        return build_time_grid(zeno_measure(draw(st.integers(min_value=2, max_value=30))),
                               base)
    locs = draw(st.lists(st.floats(min_value=0.01, max_value=0.99), max_size=25,
                         unique=True))
    locs = np.sort(np.array(locs))
    assume(np.all(np.diff(locs) > 1e-12))   # closer jumps are refused by the measure
    nodes = np.linspace(0.0, 1.0, 2)
    h = JumpMeasure(1.0, nodes, np.zeros(2), locs, np.full(len(locs), 0.5))
    return build_time_grid(h, base)


@settings(max_examples=150, deadline=None)
@given(time_functions(), kernels(), grids(), st.integers(min_value=1, max_value=4),
       st.data())
def test_recurrence_matches_full_prefix_build(tau, kernel, grid, n_count, data):
    m_count = len(grid)
    assert m_count <= 120
    linear = LinearPart(tau, kernel)
    modes = np.arange(1, n_count + 1)
    if data.draw(st.booleans(), label="full anchors"):
        anchors = np.arange(m_count)
    else:
        anchors = np.array([data.draw(st.integers(min_value=0, max_value=m_count - 1),
                                      label="anchor")])
    try:
        old = reference_etd_build(modes, grid, linear, anchors)
    except InstabilityError as exc:
        with pytest.raises(InstabilityError) as new_exc:
            _etd_build(step_maps(modes, linear, grid), anchors)
        assert new_exc.value.mode == exc.mode
        return
    new = _etd_build(step_maps(modes, linear, grid), anchors)
    assert new.shape == old.shape == (n_count, m_count, len(anchors))
    scale = max(1.0, float(np.max(np.abs(old))))
    assert np.max(np.abs(new - old)) <= REL_TOL * scale
    rows = anchors[None, :] > np.arange(m_count)[:, None]      # time before anchor
    assert np.all(new[:, rows] == 0.0)
    assert np.all(new[:, anchors, np.arange(len(anchors))] == 1.0)


def test_zero_kernel_build_matches_reference_to_rounding():
    grid = build_time_grid(zeno_measure(20), 257)
    linear = LinearPart(TimeFunction("cosine", c0=1.5, c1=0.5), MemoryKernel("zero"))
    modes = np.arange(1, 5)
    anchors = np.arange(len(grid))
    steps = step_maps(modes, linear, grid)
    old = reference_etd_build(modes, grid, linear, anchors)
    assert np.array_equal(row_table(steps), old)
    span = np.maximum(anchors[:, None] - anchors[None, :], 0)     # j - s, 0 above the anchor
    assert np.all(np.abs(_etd_build(steps, anchors) - old)
                  <= 3.0 * (span + 1) * np.finfo(float).eps * np.abs(old))


def test_unstable_tau_raises_same_mode_on_both_builds():
    grid = build_time_grid(constant_measure(1.0), 65)
    linear = LinearPart(TimeFunction("affine", c0=-5.0, c1=-20.0),
                        MemoryKernel("exp_diff", c0=-1.0, rate=2.0))
    modes = np.arange(1, 5)
    anchors = np.arange(len(grid))
    with pytest.raises(InstabilityError) as old:
        reference_etd_build(modes, grid, linear, anchors)
    with pytest.raises(InstabilityError) as new:
        _etd_build(step_maps(modes, linear, grid), anchors)
    assert new.value.mode == old.value.mode
