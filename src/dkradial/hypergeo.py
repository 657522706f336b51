"""Gauss hypergeometric function 2F1 on the real interval [0, 1), at a
scalar x or on a whole array of x.

Terminating series (a negative-integer upper parameter) are polynomials,
summed in floats by Horner's rule in one pass over the array; the float sum
is not exact and loses accuracy as the degree grows.  Non-terminating series
use the defining power series for x <= 1/2 and the x -> 1-x connection
formula beyond, element by element, which keeps the number of summed terms
small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._numpy import np

__all__ = [
    "Hyp2F1Params",
    "Hyp2F1DomainError",
    "Hyp2F1DegenerateError",
    "Hyp2F1ConvergenceError",
    "Hyp2F1OverflowError",
    "gauss_2f1",
    "in_domain",
]

# Series control: stop once |term| < SERIES_RTOL*|sum| three times in a row.
SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 100_000
# Connection formula is rejected when c-a-b is this close to an integer and
# the direct series would need too many terms (x > 0.9).
INTEGER_GAP = 1e-8


class Hyp2F1DomainError(ValueError):
    """Argument x outside [0, 1)."""


class Hyp2F1DegenerateError(ValueError):
    """c-a-b too close to an integer for the connection formula."""


class Hyp2F1ConvergenceError(ArithmeticError):
    """Series failed its tail bound within the iteration cap."""


class Hyp2F1OverflowError(ValueError):
    """The connection formula overflows a float: a Gamma factor, or its
    value from finite factors."""


def _nonpositive_int(v: float) -> bool:
    return v <= 0 and v == round(v)


@dataclass(frozen=True)
class Hyp2F1Params:
    """Parameter triple (alpha, beta, gamma) of 2F1.

    ``terminating`` and ``degree`` are derived: the series terminates when
    alpha or beta is a non-positive integer, and is then a polynomial of
    degree -alpha (or -beta, whichever terminates first); otherwise
    ``degree`` is None.
    """

    alpha: float
    beta: float
    gamma: float
    terminating: bool = field(init=False)
    degree: int | None = field(init=False)

    @staticmethod
    def check_gamma(gamma: float) -> None:
        """Raise ValueError for a non-positive integer gamma, where 2F1 is
        undefined: the one rule, for the triples built here and for the
        float keys of _exprs, which build none."""
        if _nonpositive_int(gamma):
            raise ValueError(f"gamma={gamma} must not be a non-positive integer")

    def __post_init__(self):
        self.check_gamma(self.gamma)
        degrees = [int(-v) for v in (self.alpha, self.beta) if _nonpositive_int(v)]
        object.__setattr__(self, "terminating", bool(degrees))
        object.__setattr__(self, "degree", min(degrees) if degrees else None)


def _rgamma(v: float) -> float:
    """1/Gamma(v); zero at the poles of Gamma."""
    try:
        return 1.0 / math.gamma(v)
    except ValueError:
        return 0.0


def _series(a: float, b: float, c: float, x: float) -> float:
    term = 1.0
    s = 1.0
    small = 0
    for k in range(SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
        s += term
        if abs(term) < SERIES_RTOL * abs(s):
            small += 1
            if small >= 3:
                return s
        else:
            small = 0
    raise Hyp2F1ConvergenceError(
        f"2F1 series did not meet tail bound for a={a}, b={b}, c={c}, x={x}"
    )


def _connection(a: float, b: float, c: float, x: float) -> float:
    # F(a,b;c;x) via the two solutions at x=1; valid off integer c-a-b.
    s = c - a - b
    y = 1.0 - x
    try:
        coef1 = math.gamma(c) * math.gamma(s) * _rgamma(c - a) * _rgamma(c - b)
        coef2 = math.gamma(c) * math.gamma(-s) * _rgamma(a) * _rgamma(b)
    except OverflowError:
        raise Hyp2F1OverflowError(f"2F1(a={a}, b={b}; c={c}; x={x}): a connection-formula Gamma overflows") from None
    f1 = _series(a, b, 1.0 - s, y) if coef1 != 0.0 else 0.0
    f2 = _series(c - a, c - b, 1.0 + s, y) if coef2 != 0.0 else 0.0
    out = coef1 * f1 + coef2 * y**s * f2
    if not math.isfinite(out):  # finite Gamma factors whose products with the series overflow
        raise Hyp2F1OverflowError(f"2F1(a={a}, b={b}; c={c}; x={x}): the connection formula overflows")
    return out


def _nonterminating(a: float, b: float, c: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    if x <= 0.5:
        return _series(a, b, c, x)
    s = c - a - b
    near_integer = abs(s - round(s)) <= INTEGER_GAP
    if near_integer:
        if x > 0.9:
            raise Hyp2F1DegenerateError(
                f"c-a-b={s} within {INTEGER_GAP} of an integer: "
                f"connection formula near-singular at x={x}"
            )
        # Slowly convergent but safe fallback on (0.5, 0.9].
        return _series(a, b, c, x)
    return _connection(a, b, c, x)


def in_domain(x) -> np.ndarray:
    """x as a float array, every value in [0, 1) or Hyp2F1DomainError."""
    xs = np.asarray(x, dtype=float)
    outside = ~((xs >= 0.0) & (xs < 1.0))  # NaN included
    if outside.any():
        raise Hyp2F1DomainError(f"x={xs[outside][0]} outside [0, 1)")
    return xs


def gauss_2f1(params: Hyp2F1Params, x):
    """Evaluate 2F1(alpha, beta; gamma; x) for x in [0, 1): a float for a
    scalar x, an array of its shape for an array x."""
    xs = in_domain(x)
    a, b, c = params.alpha, params.beta, params.gamma
    if params.terminating:
        coeffs = [1.0]  # lowest power first; built once per call
        for k in range(params.degree):
            coeffs.append(coeffs[-1] * ((a + k) * (b + k) / ((c + k) * (k + 1))))
            if not math.isfinite(coeffs[-1]):  # Horner's rule carries it to every x (inf * 0 is nan)
                coeffs = [math.nan]
                break
        out = np.polyval(coeffs[::-1], xs)
    else:
        out = np.array([_nonterminating(a, b, c, float(v)) for v in xs.flat]).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out
