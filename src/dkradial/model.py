"""Radial ODE systems and differential operators on the spherical 3-space.

Everything is kept as evaluable closed-form coefficient data so that the
verification and oracle modules can sample operators on arbitrary grids;
system(j, plus, minus) is the one builder of the radial first-order system
both of them integrate or check.  Coefficients are evaluated together, from
one table of 1 - x and of the pole powers x^k and (1-x)^k, each computed once.
Importing the module calls no numpy: the constant matrices of system() are
built on its first call and kept, so that the exact spectra never load it.
Units: curvature radius 1, radial coordinate r in (0, pi), natural units for
the mass and energy.

Branch conventions: the mass and the constraint branch lambda enter only
through plus = eps + lambda m and minus = eps - lambda m, which
ModeParams.eps_pm forms and system takes; as plus minus = p^2, (K, L, M, N)
-> (K, kappa L, M, kappa N), kappa = plus/p, takes system(j, plus, minus)
onto the mass-free system(j, p, p).  The reflection-parity branch delta
enters no radial equation, so nothing here carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from fractions import Fraction

from ._numpy import np

__all__ = [
    "QuantumNumbers",
    "ModeParams",
    "RationalCoefficient",
    "LinearDifferentialOperator",
    "FirstOrderSystem",
    "system",
    "operator_K4",
    "operator_M4",
    "factor_pair_K",
    "factor_pair_M",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Total angular momentum j and radial index n."""

    j: int
    n: int

    def __post_init__(self):
        if self.j < 0 or self.n < 0:
            raise ValueError(f"j={self.j}, n={self.n} must be non-negative")

    @property
    def a_sq(self) -> int:
        """j(j+1), kept exact wherever it enters spectra and operators."""
        return self.j * (self.j + 1)

    @property
    def a(self) -> float:
        return math.sqrt(self.a_sq)


@dataclass(frozen=True)
class ModeParams:
    """Mass, energy and the constraint branch lambda, the one place the mass
    meets the radial problem: as eps +- mu, mu = lambda m (eps_pm).
    ModeParams(m=..., eps=...) derives p_sq = eps^2 - m^2; from_p_sq keeps
    the p^2 it is given, in no public field."""

    m: float
    eps: float
    lambda_sign: int = +1
    _p_sq: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("mass must be non-negative")
        if self.lambda_sign not in (-1, +1):
            raise ValueError("lambda_sign must be +1 or -1")

    @property
    def p_sq(self) -> float:
        return self.eps**2 - self.m**2 if self._p_sq is None else self._p_sq

    @property
    def eps_pm(self) -> tuple[float, float]:
        """(eps + mu, eps - mu): the one that adds like signs is a sum and the
        other p^2 over it, so neither cancels, at either sign of eps or lambda."""
        mu = self.lambda_sign * self.m
        if (self.eps < 0) != (mu < 0):
            minus = self.eps - mu
            return self.p_sq / minus, minus
        plus = self.eps + mu
        return plus, self.p_sq / plus if plus else 0.0  # plus = 0 only at eps = mu = 0

    @classmethod
    def from_p_sq(cls, m, p_sq, lambda_sign=+1, eps_sign=+1) -> "ModeParams":
        """eps = eps_sign sqrt(p_sq + m^2), with p_sq kept."""
        params = cls(float(m), eps_sign * math.sqrt(float(p_sq) + float(m) ** 2), lambda_sign)
        object.__setattr__(params, "_p_sq", float(p_sq))
        return params


class RationalCoefficient:
    """Coefficient function: polynomial plus pole sums at x=0 and x=1.

        sum_k poly[k] x^k + sum_k poles0[k-1]/x^k + sum_k poles1[k-1]/(1-x)^k

    Closed under differentiation; finite anywhere in (0,1).
    """

    __slots__ = ("poly", "poles0", "poles1")

    def __init__(self, poly=(), poles0=(), poles1=()):
        self.poly = tuple(poly)
        self.poles0 = tuple(poles0)
        self.poles1 = tuple(poles1)

    def __call__(self, x):
        """Value at x: in floats, each coefficient as float(c), for float x
        (a scalar or an array); exactly for an object array of Fractions."""
        return RationalCoefficient.values((self,), x)[0]

    @staticmethod
    def values(coeffs, x) -> list:
        """[c(x) for c in coeffs] from one table: 1 - x and each pole power
        x^k or (1-x)^k is computed once, when a nonzero pole first needs it.
        Each value is the Horner sum of poly, then the nonzero poles added
        in order, x first, all in place on one array from zeros."""
        x = np.asarray(x)
        x, num = (x, Fraction) if x.dtype == object else (np.asarray(x, dtype=float), float)
        bases, powers = (x, 1 - x), {}
        out = []
        for c in coeffs:
            v = np.zeros(x.shape, x.dtype)
            for k in range(len(c.poly) - 1, -1, -1):
                v *= x
                v += num(c.poly[k])
            for side, poles in enumerate((c.poles0, c.poles1)):
                for k, p in enumerate(poles, start=1):
                    if p:
                        power = powers.get((side, k))
                        if power is None:
                            power = powers[side, k] = bases[side] ** k
                        v += num(p) / power
            out.append(v)
        return out

    def derivative(self) -> "RationalCoefficient":
        # d/dx c/x^k = -k c/x^(k+1); d/dx c/(1-x)^k = +k c/(1-x)^(k+1)
        poly = tuple((k + 1) * c for k, c in enumerate(self.poly[1:]))
        poles = []
        for series, sign in ((self.poles0, -1), (self.poles1, 1)):
            poles.append([0] * (len(series) + 1 if series else 0))
            for k, c in enumerate(series, start=1):
                poles[-1][k] = sign * k * c
        return RationalCoefficient(poly, *poles)

    def perturbed(self, factor: float) -> "RationalCoefficient":
        return RationalCoefficient(
            tuple(c * factor for c in self.poly),
            tuple(c * factor for c in self.poles0),
            tuple(c * factor for c in self.poles1),
        )


@dataclass(frozen=True)
class LinearDifferentialOperator:
    """sum_k coeffs[k](x) d^k/dx^k with closed-form coefficients."""

    order: int
    coeffs: tuple[RationalCoefficient, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need order+1 coefficient functions")

    def term_rows(self, x, derivs) -> np.ndarray:
        """Rows c_k(x) y^(k)(x), k = 0..order, of a function given as
        derivative rows derivs[k] = y^(k)(x)."""
        x = np.asarray(x, dtype=float)
        if len(derivs) < self.order + 1:
            raise ValueError("not enough derivatives supplied")
        rows = np.array(RationalCoefficient.values(self.coeffs, x))
        rows *= np.asarray(derivs[: self.order + 1], dtype=float)
        return rows

    def apply(self, x, derivs) -> np.ndarray:
        """Apply to a function given as derivative rows derivs[k] = y^(k)(x):
        the term rows summed onto zeros, k = 0 first, as one reduce plus 0.0,
        bit for bit: the reduce can differ from the sum onto zeros only in the
        sign of a zero, and + 0.0 makes every zero +0.0, as a sum from +0.0 is."""
        return np.add.reduce(self.term_rows(x, derivs), axis=0) + 0.0

    def term_magnitudes(self, x, derivs) -> np.ndarray:
        """|c_k y^(k)| rows, for term-scaled relative residuals."""
        return np.abs(self.term_rows(x, derivs))

    def with_perturbed_coeff(self, k: int, factor: float) -> "LinearDifferentialOperator":
        coeffs = list(self.coeffs)
        coeffs[k] = coeffs[k].perturbed(factor)
        return LinearDifferentialOperator(self.order, tuple(coeffs))


@dataclass(frozen=True, eq=False)
class FirstOrderSystem:
    """dY/dr = A(r) Y with A(r) = plus P + minus Q + (a/sin r) S + (cot r) T.

    P, Q, S and T are constant matrices with entries in {0, +-1} and no
    nonzero entry in common; E = P + Q has E^2 = -I.  _systems() holds them
    with plus = minus = a = 0, the j = 0 system being the (M, N) block (where
    S vanishes), both built on first use, and system(j, plus, minus) picks
    the block and fills in the weights.  A(r) has simple poles at r=0 and
    r=pi.

    D is the diagonal of the reflection parity, D A(pi - r) D = -A(r): if
    Y(r) solves the system, so does D Y(pi - r), for every plus, minus and a.
    """

    state: tuple[str, ...]
    P: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    T: np.ndarray
    D: np.ndarray
    plus: float | np.ndarray = 0.0
    minus: float | np.ndarray = 0.0
    a: float = 0.0

    @cached_property
    def p_part(self) -> np.ndarray:
        """plus P + minus Q, stacked over the shape of the weights: (..., n, n); built once."""
        return np.multiply.outer(self.plus, self.P) + np.multiply.outer(self.minus, self.Q)

    def matrix(self, r) -> np.ndarray:
        """A(r), stacked over the broadcast shape of the weights and r: (..., n, n);
        the cot r term added in place (at a float r by plain products), the
        same bits as the out-of-place sum at less cost."""
        s, c = self.a * (1.0 / np.sin(r)), 1.0 / np.tan(r)
        if isinstance(r, float):
            A = self.p_part + s * self.S
            A += c * self.T
        else:
            A = self.p_part + np.multiply.outer(s, self.S)
            A += np.multiply.outer(c, self.T)
        return A


@cache
def _systems() -> dict:
    """The constant systems at j >= 1 and j = 0, keyed "SYSTEM_J" and
    "SYSTEM_J0", built once, on first use, so that importing this module
    calls no numpy."""
    system_j = FirstOrderSystem(
        state=("K", "L", "M", "N"),
        P=np.array([[0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]], dtype=float),
        Q=np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]], dtype=float),
        S=np.array([[0, 0, -1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 0]], dtype=float),
        T=np.diag([0.0, 0.0, -1.0, 1.0]),
        D=np.array([1.0, -1.0, -1.0, 1.0]),
    )
    system_j0 = replace(
        system_j, state=system_j.state[2:], D=system_j.D[2:], **{k: getattr(system_j, k)[2:, 2:] for k in "PQST"}
    )
    return {"SYSTEM_J": system_j, "SYSTEM_J0": system_j0}


def system(j: int, plus, minus) -> FirstOrderSystem:
    """The radial system at angular momentum j, with the weights plus = eps + mu
    and minus = eps - mu (floats or arrays of lanes); a = sqrt(j(j+1)).

    j >= 1, state (K, L, M, N):
        K' = -(eps+mu) L - (a/sin r) M
        L' =  (eps-mu) K + (a/sin r) N
        M' = -(a/sin r) K - (cot r) M - (eps+mu) N
        N' =  (a/sin r) L + (eps-mu) M + (cot r) N
    j = 0, state (M, N), where a = 0 decouples (K, L):
        M' = -(cot r) M - (eps+mu) N,  N' = (cot r) N + (eps-mu) M.
    """
    if j < 0:
        raise ValueError(f"j={j} must be non-negative")
    base = _systems()["SYSTEM_J0" if j == 0 else "SYSTEM_J"]
    return replace(base, plus=plus, minus=minus, a=math.sqrt(j * (j + 1)))


def _exact(p_sq, a_sq) -> tuple:
    """(p2, a2, num): p_sq and a_sq as Fractions, with num = Fraction, when
    both are int or Fraction; otherwise both as floats, with num = float.
    Operator coefficients are built from p2, a2 and constants num(k) / n."""
    if isinstance(p_sq, (int, Fraction)) and isinstance(a_sq, (int, Fraction)):
        return Fraction(p_sq), Fraction(a_sq), Fraction
    return float(p_sq), float(a_sq), float


def _operator4(p_sq, a_sq, shift: int) -> LinearDifferentialOperator:
    """The fourth-order operator of K (shift 0) or M (shift 1).  The shift
    enters only the (1-x)^-1 part of c1 and the c0 numerators, as it enters
    the c0 numerators of the factor pairs."""
    p2, a2, num = _exact(p_sq, a_sq)
    c4 = RationalCoefficient(poly=(0, 0, 1))
    c3 = RationalCoefficient(poly=(5, 7), poles1=(-5,))
    c2 = RationalCoefficient(
        poly=(10 - p2 / 2,),
        poles1=((p2 + a2 - 28) / 2, (15 - 2 * a2) / 4),
    )
    c1 = RationalCoefficient(
        poles0=(num(1) / 4,),
        poles1=((3 * p2 - (7 - shift)) / 4, -(3 * p2 + a2 - 9) / 4, a2 / 4),
    )
    c0 = RationalCoefficient(
        poles0=((p2 - a2 - shift) / 8,),
        poles1=(
            (p2 - a2 - shift) / 8,
            (p2**2 + 2 * p2 - 2 * a2 - 3 * shift) / 16,
            -a2 * (p2 - 1) / 8,
            a2 * (a2 - 2) / 16,
        ),
    )
    return LinearDifferentialOperator(4, (c0, c1, c2, c3, c4))


def operator_K4(p_sq, a_sq) -> LinearDifferentialOperator:
    """Fourth-order operator annihilating K(x), x = cos^2 r.  Its
    coefficients are exact (ints and Fractions) when both p_sq and a_sq are
    int or Fraction; otherwise they are floats."""
    return _operator4(p_sq, a_sq, 0)


def operator_M4(p_sq, a_sq) -> LinearDifferentialOperator:
    """Companion fourth-order operator annihilating M(x): the K operator at
    shift 1."""
    return _operator4(p_sq, a_sq, 1)


def _factor_pair(p_sq, a_sq, shift: int) -> tuple[LinearDifferentialOperator, LinearDifferentialOperator]:
    """(outer, inner) factors of the K (shift 0) or M (shift 1) operator:
    monic, with the shift 10 - shift (outer) and shift (inner) in their c0
    numerators."""
    p2, a2, num = _exact(p_sq, a_sq)

    def monic(h0, h1, s, q):
        # d^2 + ((h0/2)/x + (h1/2)/(1-x)) d + (p2-a2-s)/4 (1/x + 1/(1-x)) + q/(1-x)^2
        c0 = RationalCoefficient(poles0=((p2 - a2 - s) / 4,), poles1=((p2 - a2 - s) / 4, q))
        c1 = RationalCoefficient(poles0=(num(h0) / 2,), poles1=(num(h1) / 2,))
        return LinearDifferentialOperator(2, (c0, c1, RationalCoefficient(poly=(1,))))

    return monic(3, -7, 10 - shift, -(a2 - 6) / 4), monic(1, -3, shift, -a2 / 4)


def factor_pair_K(p_sq, a_sq) -> tuple[LinearDifferentialOperator, LinearDifferentialOperator]:
    """(outer, inner) second-order factors of the K operator.

    Both factors are monic; the fourth-order operator equals x^2 times the
    composition outer(inner(.)) -- the x^2 restores its leading coefficient.
    """
    return _factor_pair(p_sq, a_sq, 0)


def factor_pair_M(p_sq, a_sq) -> tuple[LinearDifferentialOperator, LinearDifferentialOperator]:
    """(outer, inner) factors of the M operator: the K pair at shift 1."""
    return _factor_pair(p_sq, a_sq, 1)
