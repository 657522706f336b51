"""Exact quasi-polynomial wavefunctions and discrete spectra.

The j >= 1 system has four fundamental solutions, the seeds
x^xp (1-x)^(j/2) F(c0 - lam/2, c0 + lam/2; 1/2 + 2xp; x), c0 = (j+1)/2 + xp,
in x = cos^2 r: each gives K (lam^2 = p^2 + 1) or M (lam = p) directly,
with xp = 1/2 or 0.  Families i-iv are the seeds at the integer lam where
the 2F1 terminates (one FAMILIES row each); twins share a lead amplitude
and lam.  The j=0 amplitudes are seeds too, at lam = n + 2 and times
(1-x)^{1/2}: N from the j=0 seed, M from the j=1 one.  Spectra are exact
rationals: integers (families iii, iv), integers minus one (i, ii and
j=0), or squares of half-odd integers (spin-1/2 comparison).

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

from ._exprs import Expr, eval_r_cos2_all, hyp_expr
from ._numpy import np
from .model import ModeParams, QuantumNumbers

__all__ = [
    "Family",
    "FAMILIES",
    "SpectrumEntry",
    "OffSpectrumError",
    "RadialSolution",
    "spectrum",
    "family_levels",
    "family_KM_exprs",
    "family_exprs",
    "j0_exprs",
    "wavefunction_j0",
    "wavefunction_family",
    "general_basis_exprs",
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


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(int(v)) if v.is_integer() else Fraction(v).limit_denominator(10**12)
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
        try:
            eps_sq = float(self.eps_sq)
        except OverflowError:
            raise ValueError(f"eps^2 at n={self.n} is too large for a float") from None
        return eps_sign * math.sqrt(eps_sq)


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


def _seed_2f1(j: int, lam, xp: float) -> tuple:
    """The seed's 2F1 parameters (c0 - lam/2, c0 + lam/2, 1/2 + 2 xp), c0 = (j+1)/2 + xp."""
    c0 = (j + 1) / 2 + xp
    return c0 - lam / 2, c0 + lam / 2, 0.5 + 2 * xp


def _seed_expr(j: int, lam, xp: float) -> Expr:
    """x^xp (1-x)^(j/2) F(c0 - lam/2, c0 + lam/2; 1/2 + 2 xp; x), c0 = (j+1)/2 + xp;
    x^{1/2} is the signed cos r, so the amplitude is smooth across the equator."""
    return hyp_expr(1.0, xp, j / 2, *_seed_2f1(j, lam, xp))


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


def _p_sq_matches(p_sq: float, params: ModeParams) -> bool:
    """params.p_sq is p_sq to SPECTRUM_RTOL, plus 4 * 2^-52 eps^2: what
    eps^2 - m^2, the p^2 that ModeParams(m=..., eps=...) derives, cannot
    resolve at large mass."""
    return abs(params.p_sq - p_sq) <= SPECTRUM_RTOL * max(1.0, p_sq) + 4 * np.finfo(float).eps * params.eps**2


def _on_spectrum(entry: SpectrumEntry, params: ModeParams) -> None:
    """Raise OffSpectrumError unless params.p_sq is entry's p^2 (_p_sq_matches)."""
    if not _p_sq_matches(float(entry.p_sq), params):
        raise OffSpectrumError(
            f"p^2={params.p_sq} is off the {entry.family.value} spectrum value "
            f"{entry.p_sq} at j={entry.j_or_J}, n={entry.n}"
        )


def j0_ratio(params: ModeParams) -> float:
    """Amplitude ratio M0/N0 connecting the two j=0 functions:
    -(2/3)(eps + lambda m), so -(2/3)(eps - m) on the lambda=-1 pair."""
    return -(2.0 / 3.0) * params.eps_pm[0]


def j0_exprs(n: int, params: ModeParams) -> dict:
    """{M, N} expressions of the j=0 level n, checked against the spectrum and
    normalised so that N ~ r/2 at r = 0:

    N = sin((n+2) r) / (2(n+2)),  M = ratio sin^2 r C_n(cos r) / (4 C_n(1)),

    C_n the Gegenbauer polynomial C^(2)_n and ratio = j0_ratio.  Both are
    seeds at lam = n + 2 = sqrt(p^2+1) times (1-x)^{1/2}, x = cos^2 r:
    N = x^xp (1-x)^{1/2} F(-k, k+1+2xp; 1/2+2xp; x) with 2k + 2xp = n + 1, and
    M = x^xp (1-x) F(-k, k+2+2xp; 1/2+2xp; x) with 2k + 2xp = n, each scaled
    by a closed form of its value at x = 1 (Chu-Vandermonde, F(-k, b; c; 1)
    = (c-b)_k/(c)_k).  wavefunction_j0 and the j=0 pair residual sample them.
    """
    _on_spectrum(spectrum(Family.J0, 0, n, params.m), params)
    ratio = j0_ratio(params)
    xp_N = 0.0 if n % 2 else 0.5  # N has degree n + 1 in cos r, M degree n
    xp_M = 0.5 - xp_N
    k_N, k_M = (n + 1) // 2, n // 2
    N_scale = (-1) ** k_N / (2 if xp_N else 2 * (2 * k_N + 1))
    M_scale = ratio * (-1) ** k_M * 3 / (4 * (2 * k_M + 3) * (1 if xp_M else 2 * k_M + 1))
    N_expr = _seed_expr(0, n + 2, xp_N).shift(0, 0.5).scale(N_scale)
    M_expr = _seed_expr(1, n + 2, xp_M).shift(0, 0.5).scale(M_scale)
    return {"M": M_expr, "N": N_expr}


def wavefunction_j0(n: int, params: ModeParams, grid) -> RadialSolution:
    """The j0_exprs pair sampled on grid; r = 0 and pi (x = 1) raise Hyp2F1DomainError."""
    return _sampled(QuantumNumbers(0, n), params, grid, j0_exprs(n, params))


# -- families i-iv ----------------------------------------------------------

def _km_exprs(j: int, lead: str, xp: float, lam) -> tuple[Expr, Expr]:
    """(K, M) for one seed at any lam.  The lead amplitude is the seed
    x^xp (1-x)^(j/2) F(-k, b; g; x); the lacking one (M when K leads, K when
    M leads) is x^(xp-1/2) (1-x)^(j/2) / a times the bracket
        x [-(2kb/g)(1-x) F(1-k, b+1; g+1; x) - c F(-k, b; g; x)] + 2xp F(-k, b; g; x),
    k = (lam - j - 1 - 2xp)/2, not necessarily an integer, g = 1/2 + 2xp,
    b = j+k+1+2xp, c = j + 2xp (+1 when M leads).  It is
    2k(x-1) F(1-k, b; g; x) - (cx + 2k(x-1) - 2xp) F(-k, b; g; x) with the
    contiguous relation F(1-k,b;g;x) - F(-k,b;g;x) = (bx/g) F(1-k,b+1;g+1;x)
    (DLMF 15.5), for any k, in place of the difference: no two terms cancel,
    and no term carries a negative power of x."""
    a, b, g = _seed_2f1(j, lam, xp)  # the seed's own 2F1, so L and N terms merge with it
    direct, k = hyp_expr(1.0, xp, j / 2, a, b, g), -a
    c = j + 2 * xp + (1 if lead == "M" else 0)
    bracket = (
        hyp_expr(-2.0 * k * b / g, 1, 1, 1 - k, b + 1, g + 1) - hyp_expr(c, 1, 0, -k, b, g)
        + hyp_expr(2 * xp, 0, 0, -k, b, g)
    )
    companion = bracket.shift(xp - 0.5, j / 2).scale(1.0 / math.sqrt(j * (j + 1)))
    return (direct, companion) if lead == "K" else (companion, direct)


def family_KM_exprs(family: Family, j: int, n: int) -> tuple[Expr, Expr]:
    """(K, M) expression pair for one terminating family state: the family's
    seed at its terminating lam."""
    seed = FAMILIES[family]
    return _km_exprs(j, seed.lead, seed.xp, _lam(family, j, n))


def _completed(qn: QuantumNumbers, params: ModeParams, K: Expr, M: Expr, lead: str) -> dict:
    """{K, L, M, N}: (K, M) completed in the invariant sector of its lead
    amplitude, with s = a/sin r and sin r = (1-x)^{1/2}: L = 0 and
    N = -(eps - mu) K/s when K leads, N = 0 and L = -(eps - mu) M/s when M
    leads, mu = lambda m."""
    scale = -params.eps_pm[1] / qn.a
    if lead == "K":
        return {"K": K, "L": Expr(()), "M": M, "N": K.shift(0, 0.5).scale(scale)}
    return {"K": K, "L": M.shift(0, 0.5).scale(scale), "M": M, "N": Expr(())}


def _sampled(qn: QuantumNumbers, params: ModeParams, grid, exprs: dict) -> RadialSolution:
    """The amplitudes of exprs, all sampled on grid from one factor table."""
    grid = np.asarray(grid, dtype=float)
    samples = dict(zip(exprs, eval_r_cos2_all(exprs.values(), grid)))
    return RadialSolution(qn=qn, params=params, grid=grid, **samples, exprs=exprs)


def family_exprs(family: Family, qn: QuantumNumbers, params: ModeParams) -> dict:
    """{K, L, M, N} expressions of one terminating family state at j >= 1:
    the state is checked against the spectrum, (K, M) is the family's seed
    pair, and (L, N) are its lead's invariant sector: L = 0 and N from K
    (F1, F2), or N = 0 and L from M (F3, F4).  wavefunction_family samples
    them; cross-consistency samples them with their r-derivatives from one
    factor table."""
    family = Family(family)
    if family not in FAMILIES:
        raise ValueError(f"wavefunction_family handles families i-iv, got {family}")
    entry = spectrum(family, qn.j, qn.n, params.m)
    if not entry.bound:
        raise OffSpectrumError(
            f"family iii formula level n=0 (p^2=j^2={entry.p_sq}) carries no "
            "normalizable state; bound states exist for n >= 1"
        )
    _on_spectrum(entry, params)
    return _completed(qn, params, *family_KM_exprs(family, qn.j, qn.n), FAMILIES[family].lead)


def wavefunction_family(family: Family, qn: QuantumNumbers, params: ModeParams, grid) -> RadialSolution:
    """Terminating quasi-polynomial solution of one family at j >= 1: the
    family_exprs amplitudes sampled on grid."""
    return _sampled(qn, params, grid, family_exprs(family, qn, params))


def general_basis_exprs(j: int, p: float, params: ModeParams) -> list[dict]:
    """{K, L, M, N} expressions of four independent solutions at arbitrary p > 0.

    The four seeds of families i-iv, in that order, at a real lam: two
    K-led ones (x-exponents 1/2 and 0, lam = sqrt(p^2+1)) and two M-led
    ones (lam = p), each with its lacking amplitude from the same builder
    and (L, N) from its lead's sector.  params must hold p^2 (_p_sq_matches):
    the sector constraint reads eps - mu, and at any other p^2 the four
    would solve nothing.  general_basis samples them; the Wronskian check
    reads their K.
    """
    if j < 1:
        raise ValueError("general basis defined for j >= 1")
    if p <= 0:
        raise ValueError("p must be positive")
    if not _p_sq_matches(p * p, params):
        raise ValueError(f"params carry p^2={params.p_sq}, not the basis's p^2={p * p}")
    lam = {"K": math.sqrt(p * p + 1.0), "M": p}
    qn = QuantumNumbers(j, 0)
    return [_completed(qn, params, *_km_exprs(j, lead, xp, lam[lead]), lead) for lead, xp, _ in FAMILIES.values()]


def general_basis(j: int, p: float, params: ModeParams, grid) -> list[RadialSolution]:
    """The general_basis_exprs solutions sampled on grid."""
    return [_sampled(QuantumNumbers(j, 0), params, grid, exprs) for exprs in general_basis_exprs(j, p, params)]


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
