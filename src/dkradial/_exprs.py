"""Internal algebra for closed-form radial amplitudes.

An amplitude is a finite sum of terms

    coef * x^xp * (1-x)^yp * 2F1(a, b; c; x)

with half-integer exponents held as floats (exact in binary, as are their
sums) and a 2F1 on every term.  The set is closed under d/dx (the contiguous
derivative raises the 2F1 parameters), under multiplication by powers of x and
(1-x), and therefore under d/dr in the one radial chart of the package,
x = cos^2 r (dx/dr = -2 x^{1/2} (1-x)^{1/2}).

Half-integer powers of x encode parity about r = pi/2: x^{1/2} stands for
the *signed* cos r, so evaluation on the right half of the sphere flips the
sign of every term whose x-exponent is half-odd.

Amplitudes and their r-derivatives carry x-exponents >= 0, so the plain sum
of terms is finite at x = 0; x-derivatives, genuinely singular there, reach
negative exponents and are summed the same way.

Exact ones are taken from the key, not computed: a term is multiplied only by
the factors that are not exactly 1, and x^0, (1-x)^0 and a 2F1 with a zero
upper parameter are.  Multiplying by an exact 1 changes no bit, so skipping
it is exact.  Every sum starts from its first term plus 0.0, as a sum onto
zeros does, so an exact zero is +0.0.

One allocation per term: a term's value is coef times its first factor, a new
array, and every later factor is multiplied into it in place; diff adds each
new coefficient straight into its result dict; each expression's terms are
split by parity in one pass.  In-place products and sums round as the
out-of-place ones do, so the values are the same bits.
"""

from __future__ import annotations

from typing import NamedTuple

from ._numpy import np
from .hypergeo import Hyp2F1Params, gauss_2f1, in_domain


class Term(NamedTuple):
    coef: float
    xp: float
    yp: float
    f: Hyp2F1Params


def _merged(pairs) -> dict:
    """Sum the coefficients of equal keys, each from 0.0 and in order, keep
    the keys in first-occurrence order and drop those that sum to zero."""
    out: dict = {}
    get = out.get
    for key, c in pairs:
        out[key] = get(key, 0.0) + c
    return {key: c for key, c in out.items() if c != 0.0}


class Expr:
    """Canonicalized sum of terms, held as one dict from the float key
    (xp, yp, alpha, beta, gamma) to its nonzero coefficient.

    Keys keep the order of their first occurrence, and equal keys merge by
    summing their coefficients from 0.0 in that order; a key whose sum is
    zero is dropped.  shift and scale keep the order, + puts the left
    operand's keys first, and diff emits, term by term, the x-lowered,
    (1-x)-lowered and 2F1-raised keys.  Evaluation sums the terms in this
    order, so these rules fix the bits of every value.  ``terms`` is a view
    of the dict as Term tuples.
    """

    __slots__ = ("_coefs",)

    def __init__(self, terms):
        self._coefs = _merged(((t.xp, t.yp, t.f.alpha, t.f.beta, t.f.gamma), t.coef) for t in terms)

    @classmethod
    def _of(cls, coefs: dict) -> "Expr":
        e = cls.__new__(cls)
        e._coefs = coefs
        return e

    @property
    def terms(self) -> tuple:
        return tuple(Term(c, k[0], k[1], Hyp2F1Params(*k[2:])) for k, c in self._coefs.items())

    def __add__(self, other: "Expr") -> "Expr":
        return Expr._of(_merged([*self._coefs.items(), *other._coefs.items()]))

    def __sub__(self, other: "Expr") -> "Expr":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "Expr":
        return Expr._of({k: s for k, v in self._coefs.items() if (s := v * c) != 0.0})

    def shift(self, dxp=0, dyp=0) -> "Expr":
        """Multiply by x^dxp * (1-x)^dyp.  Shifting every key by the same
        amount keeps distinct half-integer exponents distinct, so no two
        terms merge."""
        return Expr._of({(k[0] + dxp, k[1] + dyp, *k[2:]): c for k, c in self._coefs.items()})

    def diff(self) -> "Expr":
        """d/dx, term by term: x-lowered, (1-x)-lowered, then the contiguous
        derivative of the 2F1 at (alpha+1, beta+1, gamma+1)."""
        out: dict = {}
        get = out.get
        for (xp, yp, a, b, g), c in self._coefs.items():
            if xp != 0:
                key = (xp - 1, yp, a, b, g)
                out[key] = get(key, 0.0) + c * xp
            if yp != 0:
                key = (xp, yp - 1, a, b, g)
                out[key] = get(key, 0.0) - c * yp
            fac = a * b / g
            if fac != 0.0:
                key = (xp, yp, a + 1, b + 1, g + 1)
                out[key] = get(key, 0.0) + c * fac
        if 0.0 in out.values():  # a merge cancelled
            out = {key: c for key, c in out.items() if c != 0.0}
        return Expr._of(out)

    def diff_r_cos2(self) -> "Expr":
        """d/dr under x = cos^2 r (dx/dr = -2 sqrt(x) sqrt(1-x), signed): diff,
        then every key shifted by (1/2, 1/2) and every coefficient scaled by
        -2 (exact, and never zero: diff keeps no zero coefficient), in one
        pass."""
        return Expr._of({(xp + 0.5, yp + 0.5, a, b, g): c * -2.0
                         for (xp, yp, a, b, g), c in self.diff()._coefs.items()})

    def eval_x(self, x) -> np.ndarray:
        """Evaluate on the principal branch (x^{1/2} taken positive)."""
        return self._eval(_Factors(x))

    def _eval(self, table: _Factors) -> np.ndarray:
        """eval_x on the grid of table, taking each factor from it."""
        out = table.sum_terms(self._coefs.items())
        if out is None:
            out = np.zeros_like(table.x)
        return out[0] if table.scalar else out

    def derivative_column(self, x, upto: int) -> np.ndarray:
        """[y(x), y'(x), ..., y^(upto)(x)] on the principal branch; for an
        array x, row k holds y^(k) on x."""
        table = _Factors(x)  # one table for every order
        exprs = [self]
        for _ in range(upto):
            exprs.append(exprs[-1].diff())
        return np.array([e._eval(table) for e in exprs])


class _Factors:
    """Factors of terms on one grid x, each evaluated once, when first asked
    for, and keyed by floats: x^xp by xp, (1-x)^yp by yp, and the 2F1 by
    (alpha, beta, gamma).  The table checks once that x lies in [0, 1), so
    a table of exact ones raises Hyp2F1DomainError as any other does."""

    __slots__ = ("scalar", "x", "_xpow", "_ypow", "_hyp")

    def __init__(self, x):
        x = in_domain(x)  # the one check of x, for every factor of the table
        self.scalar, self.x = x.ndim == 0, np.atleast_1d(x)
        self._xpow, self._ypow, self._hyp = {}, {}, {}

    def term(self, key: tuple, coef: float) -> np.ndarray:
        """coef * x^xp * (1-x)^yp * 2F1 for key (xp, yp, alpha, beta, gamma),
        multiplied in that order by each factor that is not exactly 1."""
        xp, yp, a, b, g = key
        out = None  # coef times the first factor, a new array; the others in place
        if xp != 0.0:
            xf = self._xpow.get(xp)
            if xf is None:
                xf = self._xpow[xp] = self.x**xp
            out = coef * xf
        if yp != 0.0:
            yf = self._ypow.get(yp)
            if yf is None:
                yf = self._ypow[yp] = (1.0 - self.x) ** yp
            if out is None:
                out = coef * yf
            else:
                out *= yf
        if a != 0.0 and b != 0.0:
            abc = (a, b, g)
            f = self._hyp.get(abc)
            if f is None:
                f = self._hyp[abc] = gauss_2f1(Hyp2F1Params(a, b, g), self.x)
            if out is None:
                out = coef * f
            else:
                out *= f
        return np.full_like(self.x, coef) if out is None else out

    def sum_terms(self, items):
        """The terms of items, (key, coef) pairs, summed in order from the
        first term plus 0.0; None when there are none."""
        out = None
        for key, c in items:
            if out is None:
                out = self.term(key, c)  # a new array
                out += 0.0
            else:
                out += self.term(key, c)
        return out


def eval_r_cos2_all(exprs, r) -> list:
    """Each Expr of exprs at radial points under x = cos^2 r with signed
    sqrt(x), every factor from one table.  Per expression, the terms with
    even and with half-odd x-exponent are summed apart, in term order, and
    the result is even + sign(cos r) * odd; a scalar r gives scalars.  An
    empty half is left out (no sum is ever -0.0, so a signed zero added to
    it changes nothing): an empty even half leaves sign(cos r) * odd + 0.0."""
    u = np.cos(np.asarray(r, dtype=float))
    table = _Factors(u * u)  # one table for both halves and every expression
    sign = np.where(np.atleast_1d(u) >= 0, 1.0, -1.0)
    out = []
    for e in exprs:
        halves = ([], [])  # even, odd
        for item in e._coefs.items():
            halves[(2 * item[0][0]) % 2 != 0].append(item)
        even, odd = table.sum_terms(halves[0]), table.sum_terms(halves[1])
        if odd is not None:
            v = sign * odd + 0.0 if even is None else even + sign * odd
        else:
            v = np.zeros_like(table.x) if even is None else even
        out.append(v[0] if table.scalar else v)
    return out


def hyp_expr(coef, xp, yp, a, b, c) -> Expr:
    """coef * x^xp * (1-x)^yp * 2F1(a, b; c; x); raises ValueError for a
    non-positive integer c."""
    Hyp2F1Params.check_gamma(c)  # as Hyp2F1Params(a, b, c) checks it
    coef = float(coef)
    return Expr._of({(float(xp), float(yp), float(a), float(b), float(c)): coef} if coef != 0.0 else {})
