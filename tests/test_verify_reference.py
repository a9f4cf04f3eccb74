"""Differential tests for the windowed, table-free resolvent verifier.

``verify_resolvent_pde`` and ``check_autonomous_reduction`` read the sampled
columns window by window as ``verify_resolvent`` marches them, and the
verifier sums each column's memory integral by a running trapezoid
recurrence.  The versions they replaced read the full (N, M, M) resolvent
table and, for the PDE check, formed an M x M kernel, prefix and weight
matrix per anchor.  Those are kept here, and only here, as the reference.
They are the replaced code with the kernel-matrix helper it called spelled
out; both references pick their anchors by ``reference_anchors``, the PDE
check's rule.

The checks form their cells, differences and residuals a chunk of rows at a
time and step only the memory recurrence row by row, with the same
arithmetic per entry.  The row-by-row loop they replaced is kept here as
``row_verify_resolvent_pde``, on the whole sample marched at once
(``sample_resolvent``, which the command held before it ran in windows), and
the reports must be bitwise equal whatever the window count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mds._quad import trapezoid_prefix_matrix
from mds.errors import GridError, InstabilityError, UsageError
from mds.funcs import MemoryKernel, TimeFunction
from mds.measure import JumpMeasure, TimeGrid, build_time_grid, constant_measure, zeno_measure
from mds.scenario_io import _SOLVER_ARRAYS, parse_scenario, run_command
from mds.spectral import (LinearPart, SpectralBasis, _march, build_resolvent_table, make_basis,
                          step_maps)
from mds.verify import AutonomyReport, PdeReport, sample_anchors, verify_resolvent_pde

from conftest import load_config, sample_reports

EPS = np.finfo(float).eps
# Residual maxima agree to 1e-12 relative, plus the rounding of the memory sum.
# Both verifiers read bitwise-equal r columns and differ only in how they sum
# the memory integral: a dense dot product against G(t_j, t_u) on one side, a
# product of per-cell decay factors on the other.  The two sums differ by
# about 3 (M + 2) roundings of the sum of their absolute terms, plus the
# rounding of exp and of its argument (rate * horizon <= 12.5 here); the bound
# allows 8 (M + 2).  A residual where the stiff terms cancel can therefore
# differ by more than 1e-12 of itself (tau = 0, G = 1/32, 8 nodes:
# 1.8e-11 relative, 7e-17 absolute).
REL_TOL = 1e-12
SUM_ULPS_PER_NODE = 8.0


def reference_anchors(m_count: int, max_anchors: int = 64) -> np.ndarray:
    """At most max_anchors anchors from 0 to M-3, each with two rows after it."""
    if m_count - 2 <= max_anchors:
        return np.arange(0, max(m_count - 2, 1))
    return np.unique(np.linspace(0, m_count - 3, max_anchors).astype(int))


@dataclass(frozen=True)
class ResolventTable:
    """Resolvent columns r_n(t_j, t_k) at the sorted anchors k: data[n - 1, j, i]
    is r_n(t_j, t_anchors[i]), (N, M, K)."""

    basis: SpectralBasis
    linear: LinearPart
    grid: TimeGrid
    anchors: np.ndarray
    data: np.ndarray


def dense_table(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid) -> ResolventTable:
    """Every node an anchor: the table the replaced verifiers read."""
    return ResolventTable(basis, linear, grid, np.arange(len(grid)),
                          build_resolvent_table(basis, linear, grid))


def sample_resolvent(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid) -> ResolventTable:
    """The sampled columns in one march, the whole (N, M, K) sample the
    command held before it checked it in windows."""
    anchors = sample_anchors(len(grid))
    data = np.empty((len(grid), basis.n_modes, len(anchors))).transpose(1, 0, 2)
    _march(step_maps(basis.mode_numbers, linear, grid),
           np.equal.outer(np.arange(len(grid)), anchors), data)
    return ResolventTable(basis, linear, grid, anchors, data)


def windowed_columns(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid,
                     arrays: int) -> np.ndarray:
    """The sampled columns as ``verify_resolvent`` hands them to its checks,
    joined, (N, M, K).

    The windows must follow each other, and each window's halo must hold the
    two rows before it.
    """
    parts = []

    def keep(check, start, stop):
        assert start == sum(len(part) for part in parts)
        if parts:
            assert np.array_equal(check.rows[:2], np.concatenate(parts)[-2:])
        parts.append(check.rows[2:2 + stop - start].copy())

    sample_reports(basis, linear, grid, arrays=arrays, pde_check=keep)
    return np.concatenate(parts).transpose(1, 0, 2)


def reference_verify_resolvent_pde(table: ResolventTable, tol_pde: float = 1e-3) -> PdeReport:
    nodes = table.grid.nodes
    m_count = len(nodes)
    n2 = table.basis.mode_numbers.astype(float) ** 2
    tau = table.linear.tau.value(nodes)
    kernel = table.linear.kernel.c0 * np.exp(-table.linear.kernel.rate
                                             * (nodes[:, None] - nodes[None, :]))
    prefix = trapezoid_prefix_matrix(nodes)
    horizon = table.grid.end
    scale = np.array([n * n * table.linear.residual_scale(horizon)
                      for n in table.basis.mode_numbers])
    scale = np.maximum(scale, 1e-30)
    anchor_list = reference_anchors(m_count)

    max_raw = 0.0
    per_mode = np.zeros(table.basis.n_modes)
    for k in anchor_list:
        weights = (prefix - prefix[k]) * kernel          # (M, M)
        datak = table.data[:, :, k]                      # (N, M)
        mem = weights @ datak.T                          # (M, N)
        lo, hi = k + 1, m_count - 1
        if lo >= hi:
            continue
        j = np.arange(lo, hi)
        fd = (datak[:, j + 1] - datak[:, j - 1]) / (nodes[j + 1] - nodes[j - 1])
        res = fd + n2[:, None] * (tau[j] * datak[:, j] + mem[j].T)
        mode_max = np.max(np.abs(res), axis=1)
        per_mode = np.maximum(per_mode, mode_max)
        max_raw = max(max_raw, float(mode_max.max()))
    per_mode_scaled = per_mode / scale
    max_scaled = float(per_mode_scaled.max())
    return PdeReport(max_raw, max_scaled, per_mode_scaled, tol_pde,
                     len(anchor_list), bool(max_scaled <= tol_pde))


def row_verify_resolvent_pde(table: ResolventTable, tol_pde: float = 1e-3) -> PdeReport:
    basis, linear, grid, anchors, data = (table.basis, table.linear, table.grid,
                                          table.anchors, table.data)
    nodes = grid.nodes
    n2 = basis.mode_numbers.astype(float) ** 2
    tau = linear.tau.value(nodes)
    scale = np.array([n * n * linear.residual_scale(grid.end) for n in basis.mode_numbers])
    scale = np.maximum(scale, 1e-30)

    d = np.diff(nodes)
    decay = np.exp(-linear.kernel.rate * d)
    half = linear.kernel.c0 * d / 2.0
    mem = np.zeros((basis.n_modes, len(anchors)))
    per_mode = np.zeros(basis.n_modes)
    for j in range(1, len(nodes) - 1):
        k = int(np.searchsorted(anchors, j))   # columns [:k] are anchored before row j
        mem[:, :k] = decay[j - 1] * mem[:, :k] + half[j - 1] * (
            decay[j - 1] * data[:, j - 1, :k] + data[:, j, :k])
        fd = (data[:, j + 1, :k] - data[:, j - 1, :k]) / (nodes[j + 1] - nodes[j - 1])
        res = fd + n2[:, None] * (tau[j] * data[:, j, :k] + mem[:, :k])
        per_mode = np.maximum(per_mode, np.max(np.abs(res), axis=1))
    per_mode_scaled = per_mode / scale
    max_scaled = float(per_mode_scaled.max())
    return PdeReport(float(per_mode.max()), max_scaled, per_mode_scaled, tol_pde,
                     len(anchors), bool(max_scaled <= tol_pde))


def reference_check_autonomous_reduction(table: ResolventTable,
                                         tol_auto: float = 1e-6) -> AutonomyReport:
    if not table.linear.autonomous:
        raise UsageError("autonomous reduction requires constant tau "
                         "and a difference kernel")
    if not table.grid.is_uniform():
        raise GridError("autonomous reduction check needs a uniform grid")
    m_count = len(table.grid)
    anchor_list = reference_anchors(m_count)
    dev = 0.0
    for k in anchor_list:
        shifted = table.data[:, k:, k]
        base = table.data[:, :m_count - k, 0]
        dev = max(dev, float(np.max(np.abs(shifted - base))) if shifted.size else 0.0)
    return AutonomyReport(bool(dev <= tol_auto), dev, tol_auto, len(anchor_list))


coef = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def time_functions(draw):
    kind = draw(st.sampled_from(["const", "affine", "sine", "cosine"]))
    freq = draw(st.floats(min_value=0.5, max_value=6.0))
    return TimeFunction(kind, c0=draw(st.floats(min_value=-3.0, max_value=3.0)),
                        c1=draw(coef), freq=freq)


# kernel coefficients zero or >= 1e-3 in magnitude: a rounding bound is relative
# and cannot hold once the memory terms underflow into the subnormal range
kernel_coef = (st.just(0.0) | st.floats(min_value=1e-3, max_value=2.0)
               | st.floats(min_value=-2.0, max_value=-1e-3))


@st.composite
def kernels(draw):
    kind = draw(st.sampled_from(["zero", "const", "exp_diff"]))
    return MemoryKernel(kind, c0=draw(kernel_coef),
                        rate=draw(st.floats(min_value=0.0, max_value=5.0)))


@st.composite
def grids(draw):
    family = draw(st.sampled_from(["uniform", "zeno", "jumps"]))
    base = draw(st.integers(min_value=3, max_value=170))
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


def memory_rounding_bound(table: ResolventTable) -> np.ndarray:
    """Per mode: 8 (M + 2) eps n^2 max_(k, j>k) sum_u |w_u G(t_j, t_u) r_n(t_u, t_k)|."""
    nodes = table.grid.nodes
    m_count = len(nodes)
    kernel = np.abs(table.linear.kernel.c0 * np.exp(-table.linear.kernel.rate
                                                    * (nodes[:, None] - nodes[None, :])))
    prefix = trapezoid_prefix_matrix(nodes)
    anchor_list = reference_anchors(m_count)
    worst = np.zeros(table.basis.n_modes)
    for k in anchor_list:
        absmem = (np.abs(prefix - prefix[k]) * kernel) @ np.abs(table.data[:, :, k]).T
        worst = np.maximum(worst, absmem[k + 1:m_count - 1].max(axis=0))
    n2 = table.basis.mode_numbers.astype(float) ** 2
    return SUM_ULPS_PER_NODE * (m_count + 2) * EPS * n2 * worst


def _close(new: float, old: float, rounding: float) -> bool:
    return abs(new - old) <= REL_TOL * abs(old) + rounding


@settings(max_examples=150, deadline=None)
@given(time_functions(), kernels(), grids(), st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 2, _SOLVER_ARRAYS]))
def test_sampled_verifier_matches_table_verifier(tau, kernel, grid, n_count, arrays):
    assert 3 <= len(grid) <= 200
    basis = make_basis(n_count)
    linear = LinearPart(tau, kernel)
    try:
        table = dense_table(basis, linear, grid)
    except InstabilityError as exc:
        # the table guards every column, the sample only its own
        try:
            sample_reports(basis, linear, grid, arrays=arrays)
        except InstabilityError as new_exc:
            assert new_exc.mode == exc.mode
        return
    anchors = sample_anchors(len(grid))
    assert np.array_equal(anchors, reference_anchors(len(grid)))
    assert np.array_equal(windowed_columns(basis, linear, grid, arrays),
                          table.data[:, :, anchors])
    old = reference_verify_resolvent_pde(table)
    new, new_auto = sample_reports(basis, linear, grid, arrays=arrays)
    rounding = memory_rounding_bound(table)
    scale = np.maximum([n * n * linear.residual_scale(grid.end) for n in basis.mode_numbers],
                       1e-30)
    assert _close(new.max_raw_residual, old.max_raw_residual, rounding.max())
    assert _close(new.max_scaled_residual, old.max_scaled_residual,
                  float(np.max(rounding / scale)))
    assert new.passed == old.passed
    assert new.anchors_checked == old.anchors_checked
    if linear.autonomous and grid.is_uniform():
        old_auto = reference_check_autonomous_reduction(table)
        assert new_auto.max_deviation == old_auto.max_deviation
        assert (new_auto.passed, new_auto.anchors_checked) == \
            (old_auto.passed, old_auto.anchors_checked)
    else:
        assert new_auto is None


def test_shipped_resolvent_config_matches_table_verifier(resolvent_scn):
    scn = resolvent_scn
    table = dense_table(scn.basis, scn.linear, scn.grid)
    old = reference_verify_resolvent_pde(table, scn.tol.tol_pde)
    new, auto = sample_reports(scn.basis, scn.linear, scn.grid, scn.tol.tol_pde)
    assert new.max_raw_residual == old.max_raw_residual
    assert new.max_scaled_residual == old.max_scaled_residual
    assert np.array_equal(new.per_mode_scaled, old.per_mode_scaled)
    assert auto.max_deviation == reference_check_autonomous_reduction(table).max_deviation


@pytest.mark.parametrize("tau", [{"kind": "const", "c0": -50.0},
                                 {"kind": "affine", "c0": 3.0, "c1": -6.0}])
def test_overflowing_sampled_column_raises_same_mode(tau, tmp_path):
    doc = load_config("resolvent_check.json")
    doc["basis"]["N"] = 16
    doc["states"] = {"zeta0": [1.0] * 16}
    doc["linear"]["tau"] = tau
    scn = parse_scenario(doc)
    with pytest.raises(InstabilityError) as old:
        build_resolvent_table(scn.basis, scn.linear, scn.grid)
    with pytest.raises(InstabilityError) as new:
        sample_reports(scn.basis, scn.linear, scn.grid)
    assert new.value.mode == old.value.mode
    assert run_command("verify-resolvent", doc, str(tmp_path), quiet=True) == 2


def _report_bits(report: PdeReport) -> tuple:
    return (np.float64(report.max_raw_residual).tobytes(),
            np.float64(report.max_scaled_residual).tobytes(),
            report.per_mode_scaled.dtype, report.per_mode_scaled.tobytes(),
            np.float64(report.tol_pde).tobytes(), report.anchors_checked, report.passed)


@st.composite
def chunked_cases(draw):
    """tau, kernel and grid: uniform or jump-merged, 3 to about 300 nodes."""
    kind = draw(st.sampled_from(["const", "affine", "cosine"]))
    tau = TimeFunction(kind, c0=draw(st.floats(min_value=-3.0, max_value=3.0)),
                       c1=draw(coef), freq=draw(st.floats(min_value=0.5, max_value=6.0)))
    if draw(st.booleans()):
        kernel = MemoryKernel("zero")
    else:
        kernel = MemoryKernel("exp_diff", c0=draw(kernel_coef),
                              rate=draw(st.floats(min_value=0.0, max_value=5.0)))
    # below 66 merged nodes every row up to M - 3 is an anchor (fewer than 64),
    # from 66 on there are 64
    base = draw(st.integers(min_value=3, max_value=65) | st.integers(min_value=66, max_value=280))
    if draw(st.booleans()):
        grid = build_time_grid(constant_measure(draw(st.sampled_from([1.0, 2.5]))), base)
    else:
        locs = np.sort(np.array(draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                                              max_size=20, unique=True))))
        assume(np.all(np.diff(locs) > 1e-12))
        h = JumpMeasure(1.0, np.linspace(0.0, 1.0, 2), np.zeros(2), locs,
                        np.full(len(locs), 0.5))
        grid = build_time_grid(h, base)
    return LinearPart(tau, kernel), grid


@settings(max_examples=150, deadline=None)
@given(chunked_cases(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=_SOLVER_ARRAYS))
@example((LinearPart(TimeFunction("const", c0=1.0), MemoryKernel("zero")),
          build_time_grid(constant_measure(1.0), 3)), 1, _SOLVER_ARRAYS)
@example((LinearPart(TimeFunction("affine", c0=1.0, c1=-1.0),
                     MemoryKernel("exp_diff", c0=1.0, rate=1.0)),
          build_time_grid(constant_measure(1.0), 66)), 2, _SOLVER_ARRAYS)
def test_chunked_verifier_is_bitwise_the_row_loop(case, n_count, arrays):
    linear, grid = case
    assert 3 <= len(grid) <= 300
    basis = make_basis(n_count)
    try:
        table = sample_resolvent(basis, linear, grid)
        report, _ = sample_reports(basis, linear, grid, arrays=arrays)
    except InstabilityError:
        return
    assert len(table.anchors) == min(len(grid) - 2, 64)
    assert _report_bits(report) == _report_bits(row_verify_resolvent_pde(table))
    # entries before each column's anchor are never live: poisoning them with
    # NaN and inf in every window changes nothing, so they are dropped, not
    # multiplied by 0

    def poisoned_check(check, start, stop):
        window = check.rows[:stop - start + 2]                          # the halo too
        before = (np.arange(start - 2, stop)[:, None] < check.anchors)[:, None]
        np.copyto(window, np.inf, where=before)
        np.copyto(window[:, 1::2], np.nan, where=before)
        verify_resolvent_pde(check, start, stop)

    with np.errstate(invalid="ignore", over="ignore"):
        poisoned, _ = sample_reports(basis, linear, grid, arrays=arrays,
                                     pde_check=poisoned_check, autonomy_check=lambda *_: None)
    assert _report_bits(poisoned) == _report_bits(report)
