"""The verify-resolvent checks, on sampled resolvent columns marched window by window.

The command checks R numerically on at most ANCHOR_BLOCK columns: the PDE
residual of the defining equation and, for constant tau on a uniform grid,
the autonomy identity r_n(t, s) = r_n(t - s, 0).  ``sample_windows`` marches
the columns by the blocked scan of ``spectral._march_windows`` and hands
them out in time order, one window of whole blocks at a time, so the
(M, N, ANCHOR_BLOCK) sample is never held.  The checks read each window as
it comes and carry what they need to the next: the PDE check each column's
trapezoid memory sum and its per-mode maxima, the autonomy check anchor 0's
column.  Every report is bitwise that of the checks on the whole sample.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridError, UsageError
from .measure import TimeGrid
from .record import Record
from .spectral import (LinearPart, SpectralBasis, _blocks, _march_windows, physical_memory,
                       step_maps)

ANCHOR_BLOCK = 64      # columns the sampled resolvent checks march
TOL_AUTO = 1e-6        # largest |r_n(t,s) - r_n(t-s,0)| the autonomy check passes


def sample_anchors(m_count: int) -> np.ndarray:
    """At most ANCHOR_BLOCK anchors from 0 to M-3, so that every column has
    the two rows after its anchor a central difference needs."""
    if m_count - 2 <= ANCHOR_BLOCK:
        return np.arange(m_count - 2)
    # a step (M-3)/63 > 1 keeps the truncated anchors strictly increasing
    return np.linspace(0, m_count - 3, ANCHOR_BLOCK).astype(int)


class ResolventSample:
    """One window of the sampled columns, and what both checks carry past it.

    rows[i] holds row start - 2 + i of every column, (N, K): the window's
    rows start..stop-1 after two rows of the one before, the halo a central
    difference reads.  The PDE check carries ``mem`` and ``per_mode``, the
    autonomy check the anchor-0 column ``base`` (M, N) and ``deviation``.
    """

    def __init__(self, basis: SpectralBasis, linear: LinearPart, grid: TimeGrid,
                 anchors: np.ndarray, held: int):
        self.basis, self.linear, self.grid, self.anchors = basis, linear, grid, anchors
        self.rows = np.empty((held, basis.n_modes, len(anchors)))
        self.base = np.empty((len(grid), basis.n_modes))
        self.mem = np.zeros((basis.n_modes, len(anchors)))
        self.per_mode = np.zeros(basis.n_modes)
        self.start, self.stop, self.deviation = 0, 0, 0.0


def sample_windows(basis: SpectralBasis, linear: LinearPart, grid: TimeGrid,
                   arrays: int):
    """March the columns of ``sample_anchors``, yielding the sample after each window.

    The window rule: the K columns are K (M, N) arrays, so they are marched
    in ceil(K / ``arrays``) windows of whole blocks, spread evenly; a window
    holds about ``arrays`` (M, N) arrays, rounded up to whole blocks.  The
    window with its halo, the march's entry states and scratch (6 N blocks K
    floats) and the anchor-0 column are charged, and refused before the
    march if they exceed physical memory.
    """
    m_count, n_count = len(grid), basis.n_modes
    if m_count < 3:
        raise GridError(f"the central-difference check needs 3 or more nodes, got {m_count}")
    anchors = sample_anchors(m_count)
    k_count = len(anchors)
    size, count = _blocks(m_count)                 # anchor 0 starts the march on row 0
    windows = -(-k_count // arrays)
    held = -(-count // windows) * size + 2
    need = 8 * n_count * (held * k_count + 6 * count * k_count + m_count)
    have = physical_memory()
    if need > have:
        raise GridError(f"the resolvent sample of {m_count} nodes x {n_count} modes "
                        f"needs about {need:.3g} bytes, more than the {have:.3g} bytes "
                        f"of physical memory")
    steps = step_maps(basis.mode_numbers, linear, grid)
    sample = ResolventSample(basis, linear, grid, anchors, held)
    rows, seeds = sample.rows, np.equal.outer(np.arange(m_count), anchors)
    for start, stop in _march_windows(steps, seeds, rows[2:].transpose(1, 0, 2), windows):
        sample.start, sample.stop = start, stop
        yield sample
        rows[:2] = rows[stop - start:stop - start + 2]       # the next window's halo


class PdeReport(Record):
    """Finite-difference residual of the defining equation over the triangle."""

    def __init__(self, max_raw_residual: float, max_scaled_residual: float,
                 per_mode_scaled: np.ndarray, tol_pde: float, anchors_checked: int,
                 passed: bool):
        per_mode_scaled.setflags(write=False)
        self.max_raw_residual, self.max_scaled_residual = max_raw_residual, max_scaled_residual
        self.per_mode_scaled, self.tol_pde = per_mode_scaled, tol_pde
        self.anchors_checked, self.passed = anchors_checked, passed


def verify_resolvent_pde(sample: ResolventSample, tol_pde: float = 1e-3) -> PdeReport:
    """Central-difference check of r' = -n^2 tau r - n^2 int G r du per anchor.

    The memory integrals are summed from the marched r by a trapezoid
    recurrence of their own (decay by exp(-rate d), add one cell).  The raw
    residual of mode n scales like n^2 (sup|tau| + a sup|G|) times the
    finite-difference truncation, so the verdict uses residuals divided by
    that per-mode scale; raw maxima are reported alongside.

    A window checks rows start-1..stop-2, so the windows check the rows
    1..M-2 once each; the report covers every row checked so far.  The rows
    run in chunks of ceil(sqrt(M - 2)): the trapezoid cells, differences
    and residuals of a chunk are formed at once, on (chunk, N, K) slices of
    the window, and the per-mode max is taken over the live entries (columns
    anchored before the row; a cell not yet live is set to 0, not multiplied
    by it).  Only mem <- decay mem + cell runs row by row, so the report is
    bitwise that of a row-by-row loop, whatever the windows.
    """
    basis, linear, grid, anchors = sample.basis, sample.linear, sample.grid, sample.anchors
    nodes = grid.nodes
    m_count = len(nodes)
    n2 = basis.mode_numbers.astype(float)[:, None] ** 2
    tau = linear.tau.value(nodes)
    scale = np.maximum([linear.residual_scale(n, grid.end) for n in basis.mode_numbers], 1e-30)

    d = np.diff(nodes)
    decay = np.exp(-linear.kernel.rate * d)
    half = linear.kernel.c0 * d / 2.0
    mem, per_mode = sample.mem, sample.per_mode
    shift = 2 - sample.start                            # row j is sample.rows[j + shift]
    size = math.isqrt(max(m_count - 3, 0)) + 1          # ceil(sqrt(M - 2))
    slopes = np.empty((size,) + sample.rows.shape[1:])  # a chunk's central differences
    for lo in range(max(sample.start - 1, 1), sample.stop - 1, size):
        hi = min(lo + size, sample.stop - 1)
        rows, before, after = slice(lo, hi), slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
        live = (anchors < np.arange(lo, hi)[:, None])[:, None]      # (rows, 1, K)
        r_before, r, r_after = (sample.rows[s.start + shift:s.stop + shift]
                                for s in (before, rows, after))
        cells = decay[before, None, None] * r_before
        cells += r
        cells *= half[before, None, None]
        np.copyto(cells, 0.0, where=~live)
        for row, factor in zip(cells, decay[before].tolist()):
            row += mem * factor                        # the row's mem, in place of its cell
            mem = row
        res = tau[rows, None, None] * r
        res += cells
        res *= n2
        slope = np.subtract(r_after, r_before, out=slopes[:hi - lo])
        slope /= (nodes[after] - nodes[before])[:, None, None]
        res += slope
        np.abs(res, out=res)
        per_mode = np.maximum(per_mode, np.max(res, axis=(0, 2), where=live, initial=0.0))
    sample.mem, sample.per_mode = mem, per_mode
    per_mode_scaled = per_mode / scale
    max_scaled = float(per_mode_scaled.max())
    return PdeReport(float(per_mode.max()), max_scaled, per_mode_scaled, tol_pde,
                     len(anchors), bool(max_scaled <= tol_pde))


class AutonomyReport(Record):
    def __init__(self, passed: bool, max_deviation: float, tol_auto: float,
                 anchors_checked: int):
        self.passed, self.max_deviation = passed, max_deviation
        self.tol_auto, self.anchors_checked = tol_auto, anchors_checked


def check_autonomous_reduction(sample: ResolventSample) -> AutonomyReport:
    """Check r_n(t,s) = r_n(t-s, 0) on the sample's window (uniform grid).

    The window's rows of anchor 0's column, which comes first, are kept in
    ``base``; each column's rows in the window are compared with it, shifted
    by the column's anchor, in one (rows, N) buffer.  The report covers
    every window checked so far.
    """
    if not sample.linear.autonomous:
        raise UsageError("autonomous reduction requires constant tau "
                         "and a difference kernel")
    if not sample.grid.is_uniform():
        raise GridError("autonomous reduction check needs a uniform grid")
    start, stop = sample.start, sample.stop
    data = sample.rows[2:2 + stop - start]             # rows start..stop-1, (rows, N, K)
    sample.base[start:stop] = data[:, :, 0]
    diff = np.empty(data.shape[:2])
    for i, k in enumerate(sample.anchors[sample.anchors < stop]):
        lo = max(start, k)
        part = np.subtract(data[lo - start:, :, i], sample.base[lo - k:stop - k],
                           out=diff[lo - start:])
        sample.deviation = max(sample.deviation, float(np.max(np.abs(part, out=part))))
    return AutonomyReport(bool(sample.deviation <= TOL_AUTO), sample.deviation, TOL_AUTO,
                          len(sample.anchors))
