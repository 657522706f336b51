"""Exact quasi-polynomial wavefunctions and discrete spectra.

The j >= 1 system has four fundamental solutions, the seeds
x^xp (1-x)^(j/2) F(c0 - lam/2, c0 + lam/2; 1/2 + 2xp; x), c0 = (j+1)/2 + xp,
in x = cos^2 r: each gives K (lam^2 = p^2 + 1) or M (lam = p) directly,
with xp = 1/2 or 0.  Families i-iv are the seeds at the integer lam where
the 2F1 terminates (one FAMILIES row each); twins share a lead amplitude
and lam.  The j=0 sector reduces to a single second-order problem.  Spectra
are exact rationals: integers (families iii, iv), integers minus one
(i, ii and j=0), or squares of half-odd integers (spin-1/2 comparison).

Family (iii) caution: its degree is n-1, so its p^2 formula (j+2n)^2 admits
n=0, but p^2 = j^2 carries no normalizable state.  spectrum() still returns
the n=0 entry, flagged ``bound=False``, because the exact j-shift identities
quantify over it; wavefunction constructors reject it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._exprs import Expr, hyp_expr
from .model import ModeParams, QuantumNumbers

__all__ = [
    "Family",
    "FAMILIES",
    "SpectrumEntry",
    "OffSpectrumError",
    "EliminationSingularError",
    "RadialSolution",
    "spectrum",
    "family_levels",
    "family_KM_exprs",
    "companion_from_relation",
    "wavefunction_j0",
    "wavefunction_family",
    "general_basis",
    "degeneracy_map",
    "DegeneratePair",
    "j0_ratio",
]

SPECTRUM_RTOL = 1e-9


class Family(str, Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"
    J0 = "j0"
    DIRAC = "dirac"


class OffSpectrumError(ValueError):
    """Requested energy is not on the discrete spectrum."""


class EliminationSingularError(ZeroDivisionError):
    """eps + m = 0: the first-order elimination for (L, N) is singular."""


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot convert {v!r} to an exact rational")


@dataclass(frozen=True)
class SpectrumEntry:
    family: Family
    j_or_J: Fraction
    n: int
    p_sq: Fraction
    eps_sq: Fraction
    bound: bool = True
    degenerate_partner: tuple[Family, int, int] | None = None

    def eps(self, eps_sign: int = +1) -> float:
        return eps_sign * math.sqrt(float(self.eps_sq))


class _Seed(NamedTuple):
    lead: str  # the amplitude given directly: "K" (lam^2 = p^2 + 1) or "M" (lam = p)
    xp: float  # x-exponent, 1/2 or 0
    offset: int  # polynomial degree k = n + offset


FAMILIES = {
    Family.F1: _Seed("K", 0.5, 0),
    Family.F2: _Seed("K", 0.0, 0),
    Family.F3: _Seed("M", 0.5, -1),
    Family.F4: _Seed("M", 0.0, 0),
}


def _lam(family: Family, j, n: int):
    """The integer lam = j + 1 + 2 xp + 2k at which the family's 2F1 terminates."""
    seed = FAMILIES[family]
    return j + 1 + int(2 * seed.xp) + 2 * (n + seed.offset)


def _seed_expr(j: int, lam, xp: float) -> Expr:
    """x^xp (1-x)^(j/2) F(c0 - lam/2, c0 + lam/2; 1/2 + 2 xp; x), c0 = (j+1)/2 + xp;
    x^{1/2} is the signed cos r, so the amplitude is smooth across the equator."""
    c0 = (j + 1) / 2 + xp
    return hyp_expr(1.0, xp, j / 2, c0 - lam / 2, c0 + lam / 2, 0.5 + 2 * xp)


def _p_sq_formula(family: Family, j: Fraction, n: int) -> Fraction:
    if family in FAMILIES:
        return Fraction(_lam(family, j, n)) ** 2 - (1 if FAMILIES[family].lead == "K" else 0)
    if family is Family.J0:
        return Fraction(2 + n) ** 2 - 1
    if family is Family.DIRAC:
        return Fraction(n + j + 1) ** 2
    raise ValueError(f"unknown family {family}")


def _partner(family: Family, j: int, n: int) -> tuple[Family, int, int] | None:
    """The same-n twin: the other seed with the same lead amplitude, at the
    j where lam is equal (F1(j) <-> F2(j+1), F4(j) <-> F3(j+1))."""
    lead = FAMILIES[family].lead
    twin = next(f for f, s in FAMILIES.items() if s.lead == lead and f is not family)
    j_twin = _lam(family, j, n) - _lam(twin, 0, n)
    return (twin, j_twin, n) if j_twin >= 1 else None


def spectrum(family: Family, j_or_J, n: int, m) -> SpectrumEntry:
    """Exact spectrum entry (p^2, eps^2) for one state label."""
    family = Family(family)
    if n < 0:
        raise ValueError("n must be non-negative")
    j = _as_fraction(j_or_J)
    seed = FAMILIES.get(family)
    if seed is not None:
        if j.denominator != 1 or j < 1:
            raise ValueError(f"families i-iv need integer j >= 1, got {j}")
    elif family is Family.DIRAC:
        if j.denominator != 2 or j < Fraction(1, 2):
            raise ValueError(f"the comparison series needs half-odd J >= 1/2, got {j}")
    elif family is Family.J0 and j != 0:
        raise ValueError(f"the j=0 family needs j = 0, got {j}")
    p_sq = _p_sq_formula(family, j, n)
    eps_sq = p_sq + _as_fraction(m) ** 2
    return SpectrumEntry(
        family=family, j_or_J=j, n=n, p_sq=p_sq, eps_sq=eps_sq,
        bound=seed is None or n + seed.offset >= 0,
        degenerate_partner=_partner(family, int(j), n) if seed is not None else None,
    )


def family_levels(j: int, n_max: int, m, families=tuple(FAMILIES)) -> list[SpectrumEntry]:
    """All bound family entries with n <= n_max at fixed j, sorted by p^2."""
    out = []
    for fam in families:
        for n in range(n_max + 1):
            e = spectrum(fam, j, n, m)
            if e.bound:
                out.append(e)
    return sorted(out, key=lambda e: e.p_sq)


@dataclass
class RadialSolution:
    """Amplitudes sampled on an r-grid, with branch metadata.

    j=0 solutions carry only (M, N); families i-iv carry the full
    (K, L, M, N).
    """

    qn: QuantumNumbers
    params: ModeParams
    grid: np.ndarray
    K: np.ndarray | None = None
    L: np.ndarray | None = None
    M: np.ndarray | None = None
    N: np.ndarray | None = None
    exprs: dict = field(default_factory=dict, repr=False)


def j0_ratio(eps: float, m: float, lambda_sign: int) -> float:
    """Amplitude ratio M0/N0 connecting the two j=0 functions.

    Branch-dependent: -(2/3)(eps + m) on the lambda=+1 pair and
    -(2/3)(eps - m) on the lambda=-1 pair (the mass-sign substitution).
    """
    return -(2.0 / 3.0) * (eps + lambda_sign * m)


def wavefunction_j0(n: int, params: ModeParams, grid) -> RadialSolution:
    """j=0 solution pair in x = (1-cos r)/2, N0 = 1.

    N = N0 sqrt(x(1-x)) F(-n-1, 3+n; 3/2; x)
    M = M0 x(1-x)      F(-n,   4+n; 5/2; x)
    """
    eps, m = params.eps, params.m
    target = float(spectrum(Family.J0, 0, n, m).eps_sq)
    if abs(eps * eps - target) > SPECTRUM_RTOL * max(1.0, abs(target)):
        raise OffSpectrumError(
            f"eps^2={eps*eps} is off the j=0 spectrum value {target} for n={n}"
        )
    ratio = j0_ratio(eps, m, params.lambda_sign)
    N_expr = hyp_expr(1.0, 0.5, 0.5, -n - 1, 3 + n, 1.5)
    M_expr = hyp_expr(ratio, 1, 1, -n, 4 + n, 2.5)
    grid = np.asarray(grid, dtype=float)
    return RadialSolution(
        qn=QuantumNumbers(0, n),
        params=params,
        grid=grid,
        M=M_expr.eval_r_half(grid),
        N=N_expr.eval_r_half(grid),
        exprs={"M": M_expr, "N": N_expr},
    )


# -- families i-iv ----------------------------------------------------------

def _family_companion_expr(family: Family, j: int, n: int) -> Expr:
    """The lacking amplitude (M when K leads, K when M leads), explicitly:
    x^(xp-1/2) (1-x)^(j/2) / a times the bracket, vanishing at x = 0 for xp = 0,
        2k(x-1) F(1-k, b; g; x) - (cx + 2k(x-1) + d) F(-k, b; g; x),
    g = 1/2 + 2xp, b = j+k+1+2xp, c = j + 2xp (+1 when M leads), d = -1 if xp = 1/2."""
    lead, xp, offset = FAMILIES[family]
    a = math.sqrt(j * (j + 1))
    k = n + offset
    g, b = 0.5 + 2 * xp, j + k + 1 + 2 * xp
    c = j + 2 * xp + (1 if lead == "M" else 0)
    head = hyp_expr(2.0 * k, 1, 0, 1 - k, b, g) - hyp_expr(2.0 * k, 0, 0, 1 - k, b, g)
    sub = (
        hyp_expr(c, 1, 0, -k, b, g)
        + hyp_expr(2.0 * k, 1, 0, -k, b, g)
        - hyp_expr(2.0 * k, 0, 0, -k, b, g)
    )
    if xp:
        sub = sub + hyp_expr(-1.0, 0, 0, -k, b, g)
    return (head - sub).shift(xp - 0.5, j / 2).scale(1.0 / a)


def family_KM_exprs(family: Family, j: int, n: int) -> tuple[Expr, Expr]:
    """(K, M) expression pair for one terminating family state: the lead
    amplitude is the family's seed at its terminating lam."""
    seed = FAMILIES[family]
    direct = _seed_expr(j, _lam(family, j, n), seed.xp)
    companion = _family_companion_expr(family, j, n)
    return (direct, companion) if seed.lead == "K" else (companion, direct)


def companion_from_relation(direct: Expr, p_sq: float, a_sq: float, source: str) -> Expr:
    """Partner amplitude through the coupled second-order relations.

    source='K': M = (1-x)/(2a sqrt(x)) * [4x(1-x) K'' + 2(1-2x) K' + (p^2 - a^2/(1-x)) K]
    source='M': K = same with the shifted potential (p^2+1, a^2+2).
    """
    a = math.sqrt(a_sq)
    d1 = direct.diff()
    d2 = d1.diff()
    if source == "K":
        pot0, pole1 = p_sq, a_sq
    elif source == "M":
        pot0, pole1 = p_sq + 1.0, a_sq + 2.0
    else:
        raise ValueError("source must be 'K' or 'M'")
    lhs = (
        d2.shift(1, 1).scale(4.0)
        + (d1.scale(2.0) + d1.shift(1).scale(-4.0))
        + direct.scale(pot0)
        - direct.shift(0, -1).scale(pole1)
    )
    return lhs.shift(-0.5, 1).scale(1.0 / (2.0 * a))


def _elimination_LN(K: Expr, M: Expr, a: float, eps_plus_m: float) -> tuple[Expr, Expr]:
    """L, N from the first two rows of the coupled system (x = cos^2 r).

    L = -(K'_r + (a/sin r) M) / (eps+m)
    N = -(M'_r + M/tan r + (a/sin r) K) / (eps+m)
    """
    L = (K.diff_r_cos2() + M.shift(0, -0.5).scale(a)).scale(-1.0 / eps_plus_m)
    N = (
        M.diff_r_cos2() + M.shift(0.5, -0.5) + K.shift(0, -0.5).scale(a)
    ).scale(-1.0 / eps_plus_m)
    return L, N


def _km_solution(qn: QuantumNumbers, params: ModeParams, grid, K: Expr, M: Expr) -> RadialSolution:
    """(K, M) completed by the (L, N) elimination, all four sampled on grid."""
    eps_plus_m = params.eps + params.m_eff
    if abs(eps_plus_m) < 1e-12:
        raise EliminationSingularError(
            f"eps+m={eps_plus_m}: cannot recover (L, N); the elimination is "
            "singular at this parameter point"
        )
    L, N = _elimination_LN(K, M, qn.a, eps_plus_m)
    exprs = {"K": K, "L": L, "M": M, "N": N}
    grid = np.asarray(grid, dtype=float)
    samples = {name: e.eval_r_cos2(grid) for name, e in exprs.items()}
    return RadialSolution(qn=qn, params=params, grid=grid, **samples, exprs=exprs)


def wavefunction_family(family: Family, qn: QuantumNumbers, params: ModeParams, grid) -> RadialSolution:
    """Terminating quasi-polynomial solution of one family at j >= 1."""
    family = Family(family)
    if family not in FAMILIES:
        raise ValueError(f"wavefunction_family handles families i-iv, got {family}")
    entry = spectrum(family, qn.j, qn.n, params.m)
    if not entry.bound:
        raise OffSpectrumError(
            f"family iii formula level n=0 (p^2=j^2={entry.p_sq}) carries no "
            "normalizable state; bound states exist for n >= 1"
        )
    if abs(params.p_sq - float(entry.p_sq)) > SPECTRUM_RTOL * max(1.0, float(entry.p_sq)):
        raise OffSpectrumError(
            f"p^2={params.p_sq} is off the {family.value} spectrum value "
            f"{entry.p_sq} at j={qn.j}, n={qn.n}"
        )
    K, M = family_KM_exprs(family, qn.j, qn.n)
    return _km_solution(qn, params, grid, K, M)


def general_basis(j: int, p: float, params: ModeParams, grid) -> list[RadialSolution]:
    """Four independent solutions at arbitrary p > 0.

    The four seeds of families i-iv, in that order, at a real lam: two
    K-led ones (x-exponents 1/2 and 0, lam = sqrt(p^2+1)) and two M-led
    ones (lam = p); the partner of each follows from the coupled relations.
    """
    if j < 1:
        raise ValueError("general basis defined for j >= 1")
    if p <= 0:
        raise ValueError("p must be positive")
    a_sq = j * (j + 1)
    p_sq = p * p
    lam = {"K": math.sqrt(p_sq + 1.0), "M": p}
    out = []
    for lead, xp, _ in FAMILIES.values():
        direct = _seed_expr(j, lam[lead], xp)
        partner = companion_from_relation(direct, p_sq, a_sq, source=lead)
        K, M = (direct, partner) if lead == "K" else (partner, direct)
        out.append(_km_solution(QuantumNumbers(j, 0), params, grid, K, M))
    return out


@dataclass(frozen=True)
class DegeneratePair:
    """Two states of identical energy built by different constructors, so
    their wavefunctions are always distinct."""

    left: tuple[Family, int, int]
    right: tuple[Family, int, int]
    p_sq: Fraction
    right_bound: bool = True


def degeneracy_map(j_max: int, n_max: int) -> list[DegeneratePair]:
    """Same-n, j-shifted twin levels: F1(j,n)=F2(j+1,n), F4(j,n)=F3(j+1,n).

    j runs 1..j_max inclusive (the shifted partner may reference j_max+1);
    n runs 0..n_max-1.  Verified in exact integer arithmetic.
    """
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    pairs = []
    for j in range(1, j_max + 1):
        for n in range(n_max):
            for fam in (Family.F1, Family.F4):
                twin, j_twin, _ = _partner(fam, j, n)
                p_left = _p_sq_formula(fam, Fraction(j), n)
                p_right = _p_sq_formula(twin, Fraction(j_twin), n)
                if p_left != p_right:
                    raise ArithmeticError(
                        f"{fam.value}(j={j}) and {twin.value}(j={j_twin}) differ at n={n}: {p_left} != {p_right}"
                    )
                bound = n + FAMILIES[twin].offset >= 0
                pairs.append(DegeneratePair((fam, j, n), (twin, j_twin, n), p_left, right_bound=bound))
    return pairs
