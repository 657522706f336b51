"""Internal algebra for closed-form radial amplitudes.

An amplitude is a finite sum of terms

    coef * x^xp * (1-x)^yp * 2F1(a, b; c; x)

with half-integer exponents held as floats (exact in binary, as are their
sums) and a 2F1 on every term.  The set is closed under d/dx (the contiguous
derivative raises the 2F1 parameters), under multiplication by powers of x and
(1-x), and therefore under d/dr for both radial substitutions used by the
model, x = cos^2 r (dx/dr = -2 x^{1/2} (1-x)^{1/2}) and x = (1-cos r)/2
(dx/dr = +x^{1/2} (1-x)^{1/2}).

Half-integer powers of x encode parity about r = pi/2 for the x = cos^2 r
chart: x^{1/2} stands for the *signed* cos r, so evaluation on the right half
of the sphere flips the sign of every term whose x-exponent is half-odd.

Amplitudes and their r-derivatives carry x-exponents >= 0, so the plain sum
of terms is finite at x = 0; x-derivatives, genuinely singular there, reach
negative exponents and are summed the same way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hypergeo import Hyp2F1Params, gauss_2f1


class Term(NamedTuple):
    coef: float
    xp: float
    yp: float
    f: Hyp2F1Params


class Expr:
    """Canonicalized sum of Terms."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict = {}
        for t in terms:
            key = (t.xp, t.yp, t.f.alpha, t.f.beta, t.f.gamma)  # floats hash faster than the dataclass
            merged[key] = (merged.get(key, (0.0,))[0] + t.coef, t.f)
        self.terms = tuple(Term(c, k[0], k[1], f) for k, (c, f) in merged.items() if c != 0.0)

    def __add__(self, other: "Expr") -> "Expr":
        return Expr(self.terms + other.terms)

    def __sub__(self, other: "Expr") -> "Expr":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "Expr":
        return Expr([Term(t.coef * c, t.xp, t.yp, t.f) for t in self.terms])

    def shift(self, dxp=0, dyp=0) -> "Expr":
        """Multiply by x^dxp * (1-x)^dyp."""
        return Expr([Term(t.coef, t.xp + dxp, t.yp + dyp, t.f) for t in self.terms])

    def diff(self) -> "Expr":
        out = []
        for t in self.terms:
            if t.xp != 0:
                out.append(Term(t.coef * t.xp, t.xp - 1, t.yp, t.f))
            if t.yp != 0:
                out.append(Term(-t.coef * t.yp, t.xp, t.yp - 1, t.f))
            fac = t.f.alpha * t.f.beta / t.f.gamma
            if fac != 0.0:
                out.append(Term(t.coef * fac, t.xp, t.yp, t.f.raised(1)))
        return Expr(out)

    # d/dr for the two radial charts
    def diff_r_cos2(self) -> "Expr":
        """d/dr under x = cos^2 r (dx/dr = -2 sqrt(x) sqrt(1-x), signed)."""
        return self.diff().shift(0.5, 0.5).scale(-2.0)

    def diff_r_half(self) -> "Expr":
        """d/dr under x = (1-cos r)/2 (dx/dr = sqrt(x(1-x)))."""
        return self.diff().shift(0.5, 0.5)

    def eval_x(self, x) -> np.ndarray:
        """Evaluate on the principal chart (x^{1/2} taken positive)."""
        return self._eval(_Factors(x))

    def _eval(self, table: _Factors) -> np.ndarray:
        """eval_x on the grid of table, taking each factor from it."""
        out = np.zeros_like(table.x)
        for t in self.terms:
            out += table.term(t)
        return out[0] if table.scalar else out

    def eval_r_cos2(self, r) -> np.ndarray:
        """Evaluate at radial points under x = cos^2 r with signed sqrt(x)."""
        return eval_r_cos2_all([self], r)[0]

    def eval_r_half(self, r) -> np.ndarray:
        """Evaluate at radial points under x = (1-cos r)/2 (single cover)."""
        r = np.asarray(r, dtype=float)
        return self.eval_x((1.0 - np.cos(r)) / 2.0)

    def derivative_column(self, x, upto: int) -> np.ndarray:
        """[y(x), y'(x), ..., y^(upto)(x)] on the principal chart; for an
        array x, row k holds y^(k) on x."""
        table = _Factors(x)  # one table for every order
        exprs = [self]
        for _ in range(upto):
            exprs.append(exprs[-1].diff())
        return np.array([e._eval(table) for e in exprs])


class _Factors(dict):
    """Factors of terms on one grid x, each evaluated once, when first asked
    for: ("x", xp) -> x^xp, ("y", yp) -> (1-x)^yp, ("f", params) -> 2F1."""

    def __init__(self, x):
        super().__init__()
        x = np.asarray(x, dtype=float)
        self.scalar, self.x = x.ndim == 0, np.atleast_1d(x)

    def __missing__(self, key):
        kind, v = key
        self[key] = gauss_2f1(v, self.x) if kind == "f" else (1.0 - self.x if kind == "y" else self.x) ** v
        return self[key]

    def term(self, t: Term) -> np.ndarray:
        """coef * x^xp * (1-x)^yp * 2F1, multiplied in that order (a zero
        exponent gives a factor of exactly 1)."""
        return t.coef * self["x", t.xp] * self["y", t.yp] * self["f", t.f]


def eval_r_cos2_all(exprs, r) -> list:
    """Each Expr of exprs at radial points under x = cos^2 r with signed
    sqrt(x), every factor from one table.  Per expression, the terms with
    even and with half-odd x-exponent are summed apart, in term order, and
    the result is even + sign(cos r) * odd; a scalar r gives scalars."""
    u = np.cos(np.asarray(r, dtype=float))
    table = _Factors(u * u)  # one table for both halves and every expression
    sign = np.where(np.atleast_1d(u) >= 0, 1.0, -1.0)
    out = []
    for e in exprs:
        even, odd = np.zeros_like(table.x), np.zeros_like(table.x)
        for t in e.terms:
            if (2 * t.xp) % 2 != 0:
                odd += table.term(t)
            else:
                even += table.term(t)
        v = even + sign * odd
        out.append(v[0] if table.scalar else v)
    return out


def hyp_expr(coef, xp, yp, a, b, c) -> Expr:
    return Expr([Term(float(coef), float(xp), float(yp), Hyp2F1Params(float(a), float(b), float(c)))])

