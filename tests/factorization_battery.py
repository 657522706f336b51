"""The sampled factorization check: both sides of x^2 * (outer o inner) =
direct applied to a battery of test functions with analytic derivatives.
verify.factorization_identity compares coefficients instead; this
independent route stays as a reference for it."""

import math

import numpy as np


def default_battery(x) -> list[tuple[str, list[np.ndarray]]]:
    """(name, [phi, phi', phi'', phi''', phi'''']) on x for the test functions
    x^d, d = 1..6, and sin(kx), k = 1, 2, 3, with analytic derivatives."""
    x = np.asarray(x, dtype=float)
    out = []
    for d in range(1, 7):
        derivs = [
            math.factorial(d) / math.factorial(d - k) * x ** (d - k) if k <= d else np.zeros_like(x)
            for k in range(5)
        ]
        out.append((f"x^{d}", derivs))
    for k in (1, 2, 3):
        s, c = np.sin(k * x), np.cos(k * x)
        out.append((f"sin({k}x)", [s, k * c, -(k**2) * s, -(k**3) * c, k**4 * s]))
    return out


def compose_apply(outer, inner, x, derivs) -> np.ndarray:
    """(outer o inner) phi from derivatives of phi to order outer.order+inner.order.

    psi = inner(phi) and its derivatives follow by the Leibniz rule on the
    coefficient functions; no coefficient-level composition is formed.
    """
    x = np.asarray(x, dtype=float)
    # psi^(m) = sum_k sum_{i<=m} C(m,i) c_k^(m-i) phi^(k+i)
    coeff_derivs = []
    for c in inner.coeffs:
        row = [c]
        for _ in range(outer.order):
            row.append(row[-1].derivative())
        coeff_derivs.append(row)
    psi_derivs = []
    for mth in range(outer.order + 1):
        acc = np.zeros_like(x)
        for k in range(inner.order + 1):
            for i in range(mth + 1):
                acc = acc + math.comb(mth, i) * coeff_derivs[k][mth - i](x) * np.asarray(
                    derivs[k + i], dtype=float
                )
        psi_derivs.append(acc)
    return outer.apply(x, psi_derivs)


def battery_residual(outer, inner, direct) -> float:
    """Largest |x^2 (outer o inner) phi - direct phi| over the battery at 91
    points on [0.05, 0.95], relative to the larger of |composed| and the
    largest term of direct phi."""
    x = np.linspace(0.05, 0.95, 91)
    worst = 0.0
    for _, derivs in default_battery(x):
        composed = x**2 * compose_apply(outer, inner, x, derivs)
        scale = np.maximum(direct.term_magnitudes(x, derivs).max(axis=0), np.abs(composed))
        rel = np.abs(composed - direct.apply(x, derivs)) / np.where(scale > 0, scale, 1.0)
        worst = max(worst, float(rel.max()))
    return worst
