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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hypergeo import Hyp2F1Params, gauss_2f1

# Below this x, terms with negative x-exponents are summed via their exact
# Taylor behaviour to dodge the structural cancellation at x=0.
NEAR_ZERO = 1e-5
TAYLOR_ORDER = 4


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
            key = (t.xp, t.yp, t.f)
            merged[key] = merged.get(key, 0.0) + t.coef
        self.terms = tuple(Term(c, xp, yp, f) for (xp, yp, f), c in merged.items() if c != 0.0)

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

    def _term_value(self, t: Term, x: np.ndarray) -> np.ndarray:
        v = np.full_like(x, t.coef)
        if t.xp != 0:
            v = v * x ** t.xp
        if t.yp != 0:
            v = v * (1.0 - x) ** t.yp
        return v * gauss_2f1(t.f, x)

    def eval_x(self, x) -> np.ndarray:
        """Evaluate on the principal chart (x^{1/2} taken positive)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        regular = [t for t in self.terms if t.xp >= 0]
        singular = [t for t in self.terms if t.xp < 0]
        for t in regular:
            out += self._term_value(t, x)
        if singular:
            near = x < NEAR_ZERO
            far = ~near
            if far.any():
                xf = x[far]
                acc = np.zeros_like(xf)
                for t in singular:
                    acc += self._term_value(t, xf)
                out[far] += acc
            if near.any():
                out[near] += self._eval_singular_near_zero(singular, x[near])
        return out[0] if scalar else out

    def _eval_singular_near_zero(self, terms, x: np.ndarray) -> np.ndarray:
        # Each term expands to coef * x^(xp+t) per Taylor order t of its
        # analytic part; finiteness of the amplitude forces the total
        # coefficient of every negative power to cancel (possibly across
        # different xp).  Summing the Taylor residue avoids subtracting
        # large floats.
        total: dict = {}
        xp_min = min(t.xp for t in terms)
        for t in terms:
            upto = TAYLOR_ORDER + int(2 * (t.xp - xp_min))
            coefs = t.coef * _taylor_pref_f(t.yp, t.f, upto)
            for order in range(upto + 1):
                q = t.xp + order
                if q <= xp_min + TAYLOR_ORDER:
                    total[q] = total.get(q, 0.0) + coefs[order]
        scale = sum(abs(t.coef) for t in terms) or 1.0
        out = np.zeros_like(x)
        for q, c in sorted(total.items()):
            if q < 0:
                if abs(c) > 1e-9 * scale:
                    raise ArithmeticError(
                        f"x^{q} contributions do not cancel at x=0; amplitude singular"
                    )
            else:
                out += c * x ** q
        return out

    def eval_r_cos2(self, r) -> np.ndarray:
        """Evaluate at radial points under x = cos^2 r with signed sqrt(x)."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        u = np.cos(r)
        x = u * u
        sign = np.where(u >= 0, 1.0, -1.0)
        out = np.zeros_like(r)
        odd = [t for t in self.terms if (2 * t.xp) % 2 != 0]
        even = [t for t in self.terms if (2 * t.xp) % 2 == 0]
        if even:
            out += Expr(even).eval_x(x)
        if odd:
            out += sign * Expr(odd).eval_x(x)
        return out[0] if scalar else out

    def eval_r_half(self, r) -> np.ndarray:
        """Evaluate at radial points under x = (1-cos r)/2 (single cover)."""
        r = np.asarray(r, dtype=float)
        return self.eval_x((1.0 - np.cos(r)) / 2.0)

    def derivative_column(self, x, upto: int) -> np.ndarray:
        """[y(x), y'(x), ..., y^(upto)(x)] on the principal chart; for an
        array x, row k holds y^(k) on x."""
        exprs = [self]
        for _ in range(upto):
            exprs.append(exprs[-1].diff())
        return np.array([e.eval_x(x) for e in exprs])


def hyp_expr(coef, xp, yp, a, b, c) -> Expr:
    return Expr([Term(float(coef), float(xp), float(yp), Hyp2F1Params(float(a), float(b), float(c)))])


def _taylor_pref_f(yp: float, f: Hyp2F1Params, upto: int) -> np.ndarray:
    """Taylor coefficients of (1-x)^yp * 2F1(a,b;c;x) around x=0."""
    b = np.zeros(upto + 1)
    b[0] = 1.0
    for k in range(upto):
        b[k + 1] = b[k] * (k - yp) / (k + 1)
    h = np.zeros(upto + 1)
    h[0] = 1.0
    for k in range(upto):
        h[k + 1] = h[k] * (f.alpha + k) * (f.beta + k) / ((f.gamma + k) * (k + 1))
    return np.convolve(b, h)[: upto + 1]
