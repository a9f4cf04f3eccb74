"""Reference copies of the grid merge and the Zeno driver as they were before a
driver without jumps got its base grid unmerged and the Zeno sizes came from
one array of reciprocals.

``build_time_grid`` merges every driver's jumps into the base grid, jumps or
none, and sorts the result; ``zeno_measure`` forms its locations and sizes
one Python float at a time.  ``tests/test_measure_reference.py`` checks that
the package's versions give bitwise the same nodes, locations and sizes.
"""

from __future__ import annotations

import numpy as np

from mds.errors import GridError, UsageError
from mds.measure import JumpMeasure, TimeGrid


def build_time_grid(h: JumpMeasure, base_nodes: int) -> TimeGrid:
    if base_nodes < 2:
        raise GridError("need at least 2 base nodes")
    a = h.domain_end
    base = np.linspace(0.0, a, base_nodes)
    step = a / (base_nodes - 1)
    idx = np.rint(h.jump_locs / step).astype(np.intp)
    inner = (idx > 0) & (idx < base_nodes - 1)
    idx, locs = idx[inner], h.jump_locs[inner]
    keep = np.ones(base_nodes, dtype=bool)
    keep[idx[np.abs(base[idx] - locs) < 0.45 * step]] = False
    return TimeGrid(np.sort(np.concatenate([base[keep], h.jump_locs])))


def zeno_measure(k_max: int = 20) -> JumpMeasure:
    if k_max < 2:
        raise UsageError("zeno truncation needs k_max >= 2")
    locs = [1.0 - 1.0 / k for k in range(2, k_max + 1)]
    sizes = [1.0 / k - 1.0 / (k + 1) for k in range(2, k_max + 1)]
    locs.append(1.0 - 1.0 / (k_max + 1))
    sizes.append(1.0 / (k_max + 1))
    return JumpMeasure(1.0, np.array([0.0, 1.0]), np.zeros(2),
                       np.array(locs), np.array(sizes))
