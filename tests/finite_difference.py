"""Finite-difference derivatives of sampled data, for tests that re-check
an operator without analytic derivatives: integrated ODE solutions and
wavefunctions read back from CSV.  Independent of the package's own
derivative code, so it serves as a reference."""

import numpy as np


def fd_derivatives(x: np.ndarray, y: np.ndarray, order: int, stencil: int = 9) -> np.ndarray:
    """d^order y/dx^order at every x by Fornberg weights on a sliding
    stencil, one-sided near the ends."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    half = stencil // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, min(i - half, n - stencil))
        nodes = x[lo : lo + stencil]
        w = _fornberg(x[i], nodes, order)
        out[i] = w @ y[lo : lo + stencil]
    return out


def _fornberg(x0: float, nodes: np.ndarray, order: int) -> np.ndarray:
    """Fornberg (1988) finite-difference weights for d^order/dx^order at x0."""
    n = len(nodes)
    d = np.zeros((n, order + 1))
    d[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        prev_row = d[i - 1].copy()
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            for k in range(min(i, order), -1, -1):
                d[j, k] = ((nodes[i] - x0) * d[j, k] - (k * d[j, k - 1] if k else 0.0)) / c3
        for k in range(min(i, order), -1, -1):
            d[i, k] = c1 / c2 * ((k * prev_row[k - 1] if k else 0.0) - (nodes[i - 1] - x0) * prev_row[k])
        c1 = c2
    return d[:, order]
