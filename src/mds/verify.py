"""The verify-resolvent checks, on sampled resolvent columns marched window by window.

The command checks R numerically on at most ANCHOR_BLOCK columns: the PDE
residual of the defining equation and, for constant tau on a uniform grid,
the autonomy identity r_n(t, s) = r_n(t - s, 0).  ``verify_resolvent``
marches the columns on the Scenario's step maps by the blocked scan of
``spectral._march_windows``, which hands them out in time order, one
window of whole blocks at a time, so the (M, N, ANCHOR_BLOCK) sample is
never held.  Each check reads every window as it comes and carries what it
needs to the next: the PDE check each column's trapezoid memory sum and its
per-mode maxima, the autonomy check anchor 0's column and the largest
deviation.  The reports are made once, after the last window, and are
bitwise those of the checks on the whole sample.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridError
from .record import Record
from .scenario import Scenario
from .spectral import _march_windows, physical_memory

ANCHOR_BLOCK = 64      # columns the sampled resolvent checks march
TOL_AUTO = 1e-6        # largest |r_n(t,s) - r_n(t-s,0)| the autonomy check passes


def sample_anchors(m_count: int) -> np.ndarray:
    """At most ANCHOR_BLOCK anchors from 0 to M-3, so that every column has
    the two rows after its anchor a central difference needs."""
    if m_count - 2 <= ANCHOR_BLOCK:
        return np.arange(m_count - 2)
    # a step (M-3)/63 > 1 keeps the truncated anchors strictly increasing
    return np.linspace(0, m_count - 3, ANCHOR_BLOCK).astype(int)


class PdeReport(Record):
    """Finite-difference residual of the defining equation over the triangle."""

    def __init__(self, max_raw_residual: float, max_scaled_residual: float,
                 per_mode_scaled: np.ndarray, tol_pde: float, anchors_checked: int,
                 passed: bool):
        per_mode_scaled.setflags(write=False)
        self.max_raw_residual, self.max_scaled_residual = max_raw_residual, max_scaled_residual
        self.per_mode_scaled, self.tol_pde = per_mode_scaled, tol_pde
        self.anchors_checked, self.passed = anchors_checked, passed


class AutonomyReport(Record):
    def __init__(self, passed: bool, max_deviation: float, tol_auto: float,
                 anchors_checked: int):
        self.passed, self.max_deviation = passed, max_deviation
        self.tol_auto, self.anchors_checked = tol_auto, anchors_checked


class _PdeCheck:
    """The PDE check's constants, formed once per run, and what it carries
    from window to window: each column's memory sum ``mem`` and the per-mode
    maxima ``per_mode``."""

    def __init__(self, scn: Scenario, anchors: np.ndarray, rows: np.ndarray):
        linear, nodes, modes = scn.linear, scn.grid.nodes, scn.steps.modes
        d = np.diff(nodes)
        self.anchors, self.rows, self.nodes = anchors, rows, nodes
        self.n2 = modes.astype(float)[:, None] ** 2
        self.tau = linear.tau.value(nodes)
        self.scale = np.maximum([linear.residual_scale(n, scn.grid.end) for n in modes], 1e-30)
        self.decay, self.half = np.exp(-linear.kernel.rate * d), linear.kernel.c0 * d / 2.0
        self.size = math.isqrt(max(len(nodes) - 3, 0)) + 1      # ceil(sqrt(M - 2))
        self.slopes = np.empty((self.size,) + rows.shape[1:])  # a chunk's central differences
        self.mem, self.per_mode = np.zeros(rows.shape[1:]), np.zeros(len(modes))


class _AutonomyCheck:
    """The autonomy check's anchor-0 column ``base`` (M, N), filled window by
    window, and the largest ``deviation`` so far."""

    def __init__(self, anchors: np.ndarray, rows: np.ndarray, m_count: int):
        self.anchors, self.rows = anchors, rows
        self.base, self.deviation = np.empty((m_count, rows.shape[1])), 0.0


def verify_resolvent_pde(check: _PdeCheck, start: int, stop: int) -> None:
    """Central-difference check of r' = -n^2 tau r - n^2 int G r du on rows start-1..stop-2.

    check.rows[i] holds row start - 2 + i of every column, (N, K): the
    window's rows start..stop-1 after two rows of the one before, the halo a
    central difference reads.  The memory integrals are summed from the
    marched r by a trapezoid recurrence of their own (decay by exp(-rate d),
    add one cell).  The windows check the rows 1..M-2 once each.  The rows
    run in chunks of ceil(sqrt(M - 2)): the trapezoid cells, differences and
    residuals of a chunk are formed at once, on (chunk, N, K) slices of the
    window, and the per-mode max is taken over the live entries (columns
    anchored before the row; a cell not yet live is set to 0, not multiplied
    by it).  Only mem <- decay mem + cell runs row by row, so the maxima are
    bitwise those of a row-by-row loop, whatever the windows.
    """
    nodes, decay, half, anchors = check.nodes, check.decay, check.half, check.anchors
    mem, per_mode, size = check.mem, check.per_mode, check.size
    shift = 2 - start                                   # row j is check.rows[j + shift]
    for lo in range(max(start - 1, 1), stop - 1, size):
        hi = min(lo + size, stop - 1)
        rows, before, after = slice(lo, hi), slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
        live = (anchors < np.arange(lo, hi)[:, None])[:, None]      # (rows, 1, K)
        r_before, r, r_after = (check.rows[s.start + shift:s.stop + shift]
                                for s in (before, rows, after))
        cells = decay[before, None, None] * r_before
        cells += r
        cells *= half[before, None, None]
        np.copyto(cells, 0.0, where=~live)
        for row, factor in zip(cells, decay[before].tolist()):
            row += mem * factor                        # the row's mem, in place of its cell
            mem = row
        res = check.tau[rows, None, None] * r
        res += cells
        res *= check.n2
        slope = np.subtract(r_after, r_before, out=check.slopes[:hi - lo])
        slope /= (nodes[after] - nodes[before])[:, None, None]
        res += slope
        np.abs(res, out=res)
        per_mode = np.maximum(per_mode, np.max(res, axis=(0, 2), where=live, initial=0.0))
    check.mem, check.per_mode = mem, per_mode


def check_autonomous_reduction(check: _AutonomyCheck, start: int, stop: int) -> None:
    """Check r_n(t,s) = r_n(t-s, 0) on the window's rows start..stop-1 (uniform grid).

    The window's rows of anchor 0's column, which comes first, are kept in
    ``base``; each column's rows in the window are compared with it, shifted
    by the column's anchor, in one (rows, N) buffer.
    """
    data = check.rows[2:2 + stop - start]              # rows start..stop-1, (rows, N, K)
    check.base[start:stop] = data[:, :, 0]
    diff = np.empty(data.shape[:2])
    for i, k in enumerate(check.anchors[check.anchors < stop]):
        lo = max(start, k)
        part = np.subtract(data[lo - start:, :, i], check.base[lo - k:stop - k],
                           out=diff[lo - start:])
        check.deviation = max(check.deviation, float(np.max(np.abs(part, out=part))))


def verify_resolvent(scn: Scenario, arrays: int, pde_check, autonomy_check):
    """The PDE report and, for constant tau on a uniform grid, the autonomy
    report of the columns of ``sample_anchors``; None in its place elsewhere.

    The columns are marched on ``scn.steps``, and ``pde_check`` and
    ``autonomy_check`` (``verify_resolvent_pde`` and
    ``check_autonomous_reduction``) read each window as check(state, start,
    stop): the verify-resolvent command function passes scenario_io's
    bindings of the two, which bench/tracer.py wraps to time each check
    apart from the march.

    The window rule: the K columns are K (M, N) arrays, so they are marched
    in ceil(K / ``arrays``) windows of whole blocks of the march's layout,
    spread evenly; a window holds about ``arrays`` (M, N) arrays, rounded up
    to whole blocks.  The window with its halo, the march's entry states and
    scratch (6 N blocks K floats) and the anchor-0 column are charged, and
    refused before the march if they exceed physical memory.
    """
    grid, steps = scn.grid, scn.steps
    m_count, n_count = len(grid), len(steps.modes)
    if m_count < 3:
        raise GridError(f"the central-difference check needs 3 or more nodes, got {m_count}")
    anchors = sample_anchors(m_count)
    k_count, lay = len(anchors), steps.layout
    windows = -(-k_count // arrays)
    held = -(-lay.count // windows) * lay.size + 2
    need = 8 * n_count * (held * k_count + 6 * lay.count * k_count + m_count)
    have = physical_memory()
    if need > have:
        raise GridError(f"the resolvent sample of {m_count} nodes x {n_count} modes "
                        f"needs about {need:.3g} bytes, more than the {have:.3g} bytes "
                        f"of physical memory")
    rows = np.empty((held, n_count, k_count))
    pde = _PdeCheck(scn, anchors, rows)
    auto = (_AutonomyCheck(anchors, rows, m_count)
            if scn.linear.autonomous and grid.is_uniform() else None)
    seeds = np.equal.outer(np.arange(m_count), anchors)
    for start, stop in _march_windows(steps, seeds, rows[2:].transpose(1, 0, 2), windows):
        pde_check(pde, start, stop)
        if auto is not None:
            autonomy_check(auto, start, stop)
        rows[:2] = rows[stop - start:stop - start + 2]       # the next window's halo
    per_mode_scaled = pde.per_mode / pde.scale
    max_scaled, tol_pde = float(per_mode_scaled.max()), scn.tol.tol_pde
    report = PdeReport(float(pde.per_mode.max()), max_scaled, per_mode_scaled, tol_pde,
                       k_count, bool(max_scaled <= tol_pde))
    if auto is None:
        return report, None
    return report, AutonomyReport(bool(auto.deviation <= TOL_AUTO), auto.deviation, TOL_AUTO,
                                  k_count)
