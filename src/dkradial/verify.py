"""Numerical verification: operator residuals, factorization identity,
Wronskian independence, cross-consistency of a family's four amplitudes and
the j=0 pair residual.  Every check returns a VerificationReport.

Cross-consistency is the residual of the coupled first-order system.  L and
N are eliminated from its K' and M' rows, so its rows 2 and 4 (L' and N')
are the coupled second-order relations that give the lacking amplitude from
the lead one: one residual checks both the explicit formula and the
elimination.  The j=0 pair residual is the same residual of the (M, N)
block.  Both sample their amplitudes and r-derivatives from one factor
table, on an r-grid of this module, and add the terms of each row column by
column.

Structural zeros are taken from the constant matrices, not computed: the
system residuals form only the nonzero entries of A(r), each one weight
of FirstOrderSystem (eps +- mu, a/sin r or cot r) times a constant.  A
structural zero adds only a signed zero, and every report takes absolute
values, so the reports are those of the dense matrix bit for bit.  The
factorization check evaluates every coefficient from one table of pole
powers.

One allocation per term in the check kernels too: an operator's
coefficients are evaluated by Horner's rule and pole sums in place
(RationalCoefficient.values), its term rows c_k y^(k) are one stacked
product (term_rows), and the operator residual sums them with one reduce
over the rows.  The reduce adds the rows in order, k = 0 first (row by row on
a grid, one by one at a single point, for fewer than 8 rows), so it can
differ from the sum onto zeros only in the sign of a zero, which the
report's |resid| never shows.

Residuals are normalized by the largest participating term, not by the
solution value, because the solutions vanish at the interval endpoints.
Each check passes against a fixed gate (RESIDUAL_TOL, IDENTITY_TOL, or 1e6
on the inverse Wronskian) that no caller can change, and keeps its worst
points by falling residual, ties in grid order.  All checks are pure
functions of their inputs and deterministic for a fixed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._exprs import Expr, eval_r_cos2_all
from .closedform import Family, family_exprs, j0_exprs
from .model import (
    SYSTEM_J,
    SYSTEM_J0,
    LinearDifferentialOperator,
    ModeParams,
    QuantumNumbers,
    RationalCoefficient,
    system,
)

__all__ = [
    "VerificationReport",
    "chebyshev_grid",
    "residual_operator",
    "residual_operator_expr",
    "factorization_identity",
    "wronskian4",
    "wronskian_report",
    "cross_consistency",
    "j0_pair_residual",
]

END_BUFFER = 1e-6
# Fixed gates on the max relative residual: the fourth-order operator and
# j = 0 pair residuals, and the factorization and cross-consistency checks.
RESIDUAL_TOL = 1e-9
IDENTITY_TOL = 1e-10


@dataclass
class VerificationReport:
    check_name: str
    max_rel_residual: float
    sample_count: int
    tolerance: float
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_residual < self.tolerance

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "pass": bool(self.passed),
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "samples": self.sample_count,
            "worst_points": [list(map(float, p)) for p in self.details],
        }


def chebyshev_grid(n: int = 200, lo: float = 0.02, hi: float = 0.98) -> np.ndarray:
    """n Chebyshev-distributed points on [lo, hi], clustered at the ends."""
    k = np.arange(n)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * n))
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)


def _relative(resid, scale):
    """|resid| / scale, with a zero scale read as 1."""
    return np.abs(resid) / np.where(scale > 0, scale, 1.0)


def _report(name, x, rel, tol, keep=3) -> VerificationReport:
    x = np.atleast_1d(x)
    worst = np.lexsort((np.arange(rel.size), -rel))[:keep]  # falling rel, ties in grid order
    return VerificationReport(name, float(np.max(rel)), len(x), tol, [(float(x[i]), float(rel[i])) for i in worst])


def residual_operator(op: LinearDifferentialOperator, x, derivs,
                      name: str = "operator-residual") -> VerificationReport:
    """Pointwise sum_k c_k(x) y^(k)(x), term-scaled.

    derivs[k] must hold y^(k) on x, k = 0..op.order.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < END_BUFFER) or np.any(x > 1.0 - END_BUFFER):
        raise ValueError(f"grid touches the singular endpoints within {END_BUFFER}")
    rows = op.term_rows(x, derivs)  # each coefficient evaluated once
    resid = np.add.reduce(rows, axis=0)
    return _report(name, x, _relative(resid, np.abs(rows).max(axis=0)), RESIDUAL_TOL)


def residual_operator_expr(op: LinearDifferentialOperator, expr: Expr, x,
                           name: str = "operator-residual") -> VerificationReport:
    return residual_operator(op, x, expr.derivative_column(x, op.order), name)


def factorization_identity(outer: LinearDifferentialOperator, inner: LinearDifferentialOperator,
                           direct: LinearDifferentialOperator,
                           name: str = "factorization-identity") -> VerificationReport:
    """Compare the coefficients of x^2 * (outer o inner) with direct's.

    The x^2 factor restores the direct operator's leading coefficient; the
    factor pair is monic.  By the Leibniz rule the d^s coefficient of
    outer o inner is sum_i o_i sum_l C(i, l) n_{s-l}^(i-l); each difference
    is relative to the larger of |direct.coeffs[s]| and its largest term.
    If every coefficient of the three operators is an int or a Fraction,
    the comparison is exact at d + 1 rational points and a zero residual
    proves the identity; otherwise it runs in floats at 91 points on
    [0.05, 0.95].
    """
    if outer.order + inner.order != direct.order:
        raise ValueError("the factor orders must add up to the direct order")
    dn = []  # dn[k][m]: the m-th derivative of inner.coeffs[k]
    for c in inner.coeffs:
        dn.append([c])
        for _ in range(outer.order):
            dn[-1].append(dn[-1][-1].derivative())
    coeffs = [*outer.coeffs, *inner.coeffs, *direct.coeffs]
    if all(isinstance(v, (int, Fraction)) for c in coeffs for v in c.poly + c.poles0 + c.poles1):
        # Every term x^2 o_i n^(m) and every direct coefficient is rational
        # with poles only at 0 and 1.  With (E, P0, P1) bounding their degree
        # at infinity and pole orders, each coefficient difference times
        # x^P0 (1-x)^P1 is a polynomial of degree at most d = E + P0 + P1,
        # so zero at d + 1 distinct points means zero.
        def bound(cs):
            return np.max([(len(c.poly) - 1, len(c.poles0), len(c.poles1)) for c in cs], axis=0)

        terms_b = bound(outer.coeffs) + bound([c for row in dn for c in row]) + (2, 0, 0)
        d = int(np.maximum(terms_b, bound(direct.coeffs)).sum())
        x = np.array([Fraction(k, d + 2) for k in range(1, d + 2)], dtype=object)
    else:
        x = np.linspace(0.05, 0.95, 91)
    # every coefficient from one table of pole powers, taken in this order
    values = iter(RationalCoefficient.values([*outer.coeffs, *(c for row in dn for c in row), *direct.coeffs], x))
    ov = [next(values) for _ in outer.coeffs]
    nv = [[next(values) for _ in row] for row in dn]
    x2, resid, scale = x**2, [], []
    for s in range(direct.order + 1):
        terms = [math.comb(i, l) * x2 * ov[i] * nv[s - l][i - l]
                 for i in range(outer.order + 1) for l in range(i + 1) if 0 <= s - l <= inner.order]
        straight = next(values)
        resid.append(sum(terms) - straight)
        scale.append(np.maximum(np.abs(straight), np.max(np.abs(terms), axis=0)))
    rel = _relative(np.array(resid), np.array(scale)).max(axis=0).astype(float)
    return _report(name, x.astype(float), rel, IDENTITY_TOL)


def wronskian4(solutions, x0: float) -> float:
    """Determinant of [y_i^(k)(x0)], k = 0..3, after equilibration.

    Each derivative-order row is scaled to unit sup first (the four orders
    live on wildly different scales near the singular endpoints, which
    would leave every column nearly parallel to the top-derivative axis),
    then each solution column to unit sup.  Both scalings preserve
    "zero iff linearly dependent".

    solutions: four objects with .derivative_column(x0, 3), e.g. Expr.
    """
    if not 0.05 <= x0 <= 0.95:
        raise ValueError("x0 must sit at least 0.05 away from the endpoints")
    mat = np.array([s.derivative_column(x0, 3) for s in solutions]).T
    row_sup = np.abs(mat).max(axis=1, keepdims=True)
    mat = mat / np.where(row_sup > 0, row_sup, 1.0)
    col_sup = np.abs(mat).max(axis=0, keepdims=True)
    mat = mat / np.where(col_sup > 0, col_sup, 1.0)
    return float(np.linalg.det(mat))


def wronskian_report(w: float, x0: float, name: str) -> VerificationReport:
    """Independence report for a wronskian4 determinant w taken at x0.

    The residual is 1/|w| against a tolerance of 1e6, so the check passes
    exactly when |w| > 1e-6; the worst point records (x0, |w|).
    """
    inv = 1.0 / abs(w) if w else math.inf
    return VerificationReport(
        check_name=name,
        max_rel_residual=inv,
        sample_count=1,
        tolerance=1e6,
        details=[(x0, abs(w))],
    )


# The r-grids of the system checks, built once: r = arccos sqrt(x) on
# chebyshev_grid() and its mirror pi - r; 101 even steps for the j = 0 pair.
_CROSS_R = np.arccos(np.sqrt(chebyshev_grid()))
_CROSS_R = np.concatenate([_CROSS_R, np.pi - _CROSS_R])
_J0_R = np.linspace(0.05, np.pi - 0.05, 101)


def cross_consistency(family: Family, qn: QuantumNumbers, params: ModeParams) -> VerificationReport:
    """Residual of the coupled first-order system for the family's
    (K, L, M, N) on the r points of chebyshev_grid(), mirrored across the
    equator.  L and N come from rows 1 and 3 (K', M'); with them
    substituted, row 2 (L') is the coupled relation M = sin^2 r/(2a cos r)
    [K'' + (p^2 - a^2/sin^2 r) K], and row 4 (N') the matching relation for
    K from M."""
    return _system_report(family_exprs(family, qn, params), qn, params, _CROSS_R,
                          f"cross-consistency[{family.value} j={qn.j} n={qn.n}]", IDENTITY_TOL)


def j0_pair_residual(n: int, params: ModeParams) -> VerificationReport:
    """Residual of the j=0 first-order pair (M, N)' = A(r) (M, N) for the
    j0_exprs amplitudes of level n, on 101 r points across the sphere."""
    return _system_report(j0_exprs(n, params), QuantumNumbers(0, n), params, _J0_R,
                          f"j0-pair[n={n} lambda={params.lambda_sign:+d}]", RESIDUAL_TOL)


# The nonzero entries of A(r) row by row, for the j >= 1 system and the j = 0
# block (keyed by the state size), taken once from the constant matrices:
# (column, k, constant) for the k-th of P, Q, S and T, which weigh eps + mu,
# eps - mu, a/sin r and cot r and share no entry.
_ENTRIES = {
    len(sysm.state): [
        [(c, k, float(X[i, c])) for c in range(len(sysm.state))
         for k, X in enumerate((sysm.P, sysm.Q, sysm.S, sysm.T)) if X[i, c]]
        for i in range(len(sysm.state))
    ]
    for sysm in (SYSTEM_J, SYSTEM_J0)
}


def _system_report(exprs: dict, qn: QuantumNumbers, params: ModeParams, r, name: str,
                   tol: float) -> VerificationReport:
    """Rows dY - A(r) Y of the system at params on the grid r, with Y the
    amplitudes of exprs in state order and dY their r-derivatives, all
    sampled from one factor table: at each point the worst row, relative to
    that row's largest term.  Only the nonzero entries of A(r) are formed
    (10 of 16 for j >= 1; the j = 0 block is dense), each weight from
    system(j, eps + mu, eps - mu), and the terms A_ic Y_c of a row are added
    column by column, left to right."""
    sysm = system(qn.j, *params.eps_pm)
    state = sysm.state
    sampled = eval_r_cos2_all([*(exprs[k] for k in state), *(exprs[k].diff_r_cos2() for k in state)], r)
    Y, dY = sampled[:len(state)], np.array(sampled[len(state):])
    weights = (sysm.plus, sysm.minus, *sysm.r_weights(r))
    rows = [[weights[k] * const * Y[c] for c, k, const in row] for row in _ENTRIES[len(state)]]
    total = [sum(terms[1:], terms[0]) for terms in rows]  # left to right
    big = [np.abs(terms).max(axis=0) for terms in rows]
    rel = _relative(dY - np.array(total), np.maximum(np.abs(dY), big))
    return _report(name, r, rel.max(axis=0), tol)
