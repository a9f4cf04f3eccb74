"""Quadrature weight builders on arbitrary strictly increasing node sets.

Two rules are used package-wide: composite trapezoid for the density part
of measure (dh) integration, which the Scenario turns into its one dh
operator, and a composite Simpson rule for plain dt integration.  Every
dt integral (Gramians, Z application, control norms, the u-integral of the
solution operator) draws its weights from the same builder so that discrete
identities (minimal-norm preimage, terminal exactness) hold to roundoff.
"""

from __future__ import annotations

import numpy as np


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for the full span of ``nodes``."""
    w = np.zeros(len(nodes))
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def trapezoid_prefix_matrix(nodes: np.ndarray) -> np.ndarray:
    """Lower-triangular matrix W with row j = trapezoid weights on [t_0, t_j].

    W[j] @ f equals the composite trapezoid of f over the first j cells; row 0
    is zero.  Rows are cumulative, so subdividing an integration range at any
    node is exact.
    """
    m = len(nodes)
    d = np.diff(nodes)
    w = np.zeros((m, m))
    half = d / 2.0
    # row j adds the cell [t_{j-1}, t_j] on top of row j-1
    for j in range(1, m):
        w[j, : j + 1] = w[j - 1, : j + 1]
        w[j, j - 1] += half[j - 1]
        w[j, j] += half[j - 1]
    return w


def _simpson_pairs(nodes: np.ndarray):
    """Start, middle and end weights of the pairs (t_2i, t_2i+1, t_2i+2)."""
    d = np.diff(nodes)
    h0, h1 = d[:-1:2], d[1::2]
    s = h0 + h1
    return (s / 6.0 * (2.0 - h1 / h0), s / 6.0 * (s * s / (h0 * h1)),
            s / 6.0 * (2.0 - h0 / h1))


def simpson_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite Simpson weights for the full span of ``nodes``.

    Pairs of consecutive cells get the non-uniform three-point rule; an odd
    trailing cell is closed by trapezoid.  Exact for quadratics on any
    spacing when the cell count is even.  A node shared by two pairs gets
    the end weight of the left pair plus the start weight of the right one,
    added in that order.
    """
    m = len(nodes)
    w = np.zeros(m)
    start, mid, end = _simpson_pairs(nodes)
    stop = 2 * len(mid)
    w[2:stop + 1:2] = end
    w[1:stop:2] = mid
    w[0:stop:2] += start
    if m % 2 == 0:
        h = nodes[m - 1] - nodes[m - 2]
        w[m - 2] += h / 2.0
        w[m - 1] += h / 2.0
    return w


def simpson_prefix_edges(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of ``simpson_prefix_matrix(nodes)`` in O(M).

    Entry j of each is W[j, j] and W[j, j-1] (0 at j = 0), bitwise equal to
    the matrix.  Every other entry of row j, W[j, s] for s <= j - 2, equals
    ``simpson_weights(nodes)[s]``, and so does W[j, j-1] on even rows: the
    prefix rows differ from the full-span rule only in their last two
    entries.
    """
    m = len(nodes)
    d = np.diff(nodes)
    diag, sub = np.zeros(m), np.zeros(m)
    _, sub[2::2], diag[2::2] = _simpson_pairs(nodes)   # even rows end a pair
    diag[1::2] = d[0::2] / 2.0          # odd rows close their last cell by trapezoid
    sub[1::2] = diag[0:-1:2] + d[0::2] / 2.0
    return diag, sub


def simpson_prefix_matrix(nodes: np.ndarray) -> np.ndarray:
    """Lower-triangular matrix with row j = Simpson weights on [t_0, t_j].

    Each row pairs cells from the left; a row over an odd cell count closes
    its last cell with trapezoid.  The final row coincides with
    ``simpson_weights`` of the full node set.  Rows are built cumulatively
    and bitwise equal to ``simpson_weights(nodes[:j + 1])``: an even row is
    the even row before it plus one Simpson pair, an odd row is the row
    before it plus one trapezoid cell.
    """
    m = len(nodes)
    d = np.diff(nodes)
    w = np.zeros((m, m))
    for j in range(1, m):
        if j % 2:
            w[j, :j] = w[j - 1, :j]
            w[j, j - 1] += d[j - 1] / 2.0
            w[j, j] += d[j - 1] / 2.0
        else:
            w[j, :j - 1] = w[j - 2, :j - 1]
            w[j, j - 2:j + 1] += simpson_weights(nodes[j - 2:j + 1])
    return w
