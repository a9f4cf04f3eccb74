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


def simpson_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite Simpson weights for the full span of ``nodes``.

    Pairs of consecutive cells get the non-uniform three-point rule; an odd
    trailing cell is closed by trapezoid.  Exact for quadratics on any
    spacing when the cell count is even.
    """
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
