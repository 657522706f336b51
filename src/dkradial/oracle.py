"""Eigenvalue recovery straight from the radial ODE systems.

Nothing here touches the closed forms: bound states are located by
integrating the regular solution space of model.system(j, eps, m), the
first-order system verify reads too, from r = R_START_OFFSET to the equator
and finding the energies where the matched solution matrix turns singular.
Serves as the ground truth the hypergeometric construction is checked
against.

Regular initial data comes from a short Frobenius expansion of the system
at r = 0, built from the Laurent series of 1/sin r and cot r.  The regular
space at r = pi is the reflection D Y(pi - r) of the one at r = 0 (D the
system's parity diagonal), so one integration gives both halves: at the
equator the match matrix is [Y | D Y], 4x4 for j >= 1 and 2x2 for j = 0.

scipy loads on the first integration, not on import: solve_ivp and brentq
are thin functions, the seams that tests and perfbench's tracer patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import SpectrumEntry
from .model import SYSTEM_J0, FirstOrderSystem, system

__all__ = [
    "IntegrationError",
    "ShootingConfig",
    "OracleEigenvalue",
    "SpectrumComparison",
    "shoot_j0",
    "shoot_j",
    "compare_spectra",
]

FROBENIUS_TERMS = 5
# Radius of the Frobenius start at r = 0; halved once when the scan
# integration fails, and every level then carries "r-start-offset-halved".
R_START_OFFSET = 1e-3
# Integrator tolerances: the sign-change scan runs loose, root refinement tight.
INTEGRATOR_RTOL = 1e-10
INTEGRATOR_ATOL = 1e-13
SCAN_RTOL = 1e-8
METHOD = "DOP853"
BISECT_XTOL = 1e-10
# Smallest/largest singular value above this flags a weak singularity.
DET_TOLERANCE = 1e-8
# Relative accuracy an oracle eigenvalue is trusted to (both the j = 0 and
# the j >= 1 levels are good to about 1e-10): compare_spectra's default
# matching tolerance, and how far a root may lie outside its scan window
# and still count as in it.
REL_TOL = 1e-5
# Samples of the half solution r0..pi/2 a j = 0 node count reads.
NODE_SAMPLES = 100


class IntegrationError(RuntimeError):
    """An integration from the Frobenius start to the equator failed."""


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on the first call."""
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


@dataclass(frozen=True)
class ShootingConfig:
    eps_scan: tuple[float, float, float] = (0.1, 5.0, 0.02)

    def __post_init__(self):
        lo, hi, step = self.eps_scan
        if not (0 <= lo < hi and step > 0):
            raise ValueError(f"bad eps scan range {self.eps_scan}")


@dataclass
class OracleEigenvalue:
    eps: float
    p_sq: float
    j: int
    bracket: tuple[float, float]
    node_count: int | None = None
    multiplicity: int = 1
    matched_family_guess: str | None = None
    flags: list = field(default_factory=list)


@dataclass
class SpectrumComparison:
    matched: list
    unmatched_oracle: list
    unmatched_closed: list

    @property
    def passed(self) -> bool:
        return not self.unmatched_oracle and not self.unmatched_closed

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "matched": [
                {
                    "eps_oracle": ev.eps,
                    "p_sq_oracle": ev.p_sq,
                    "family": entry.family.value,
                    "j": str(entry.j_or_J),
                    "n": entry.n,
                    "p_sq_exact": str(entry.p_sq),
                    "rel_error": rel,
                }
                for ev, entry, rel in self.matched
            ],
            "unmatched_oracle": [{"eps": ev.eps, "p_sq": ev.p_sq} for ev in self.unmatched_oracle],
            "unmatched_closed": [
                {"family": e.family.value, "j": str(e.j_or_J), "n": e.n, "p_sq": str(e.p_sq)}
                for e in self.unmatched_closed
            ],
        }


def _scan_grid(config: ShootingConfig) -> np.ndarray:
    """lo, lo + step, ... up to hi, and one step past hi: a level on hi then
    lies inside a bracket instead of on the last point, where the loose scan
    value has no reliable sign."""
    lo, hi, step = config.eps_scan
    eps_grid = np.arange(lo, hi + 2 * step, step)
    return eps_grid[: np.count_nonzero(eps_grid <= hi + 1e-12) + 1]


def _roots(eps_grid: np.ndarray, values: np.ndarray, objective, window):
    """(bracket, root) for each sign change of the scanned values, in grid
    order; each root is objective's zero refined by brentq.  Roots more than
    REL_TOL outside the (lo, hi) window are dropped."""
    lo, hi = window
    for i in range(len(eps_grid) - 1):
        a, b = values[i], values[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or np.sign(a) == np.sign(b):
            continue
        bracket = (float(eps_grid[i]), float(eps_grid[i + 1]))
        root = brentq(objective, *bracket, xtol=BISECT_XTOL)
        if lo - REL_TOL * abs(root) <= root <= hi + REL_TOL * abs(root):
            yield bracket, root


def _series_matrices(sysm: FirstOrderSystem) -> list:
    """A(r) = A_-1/r + A_0 + A_1 r + A_3 r^3 + ... around r=0; A_0 is
    stacked over the shape of sysm.eps, the other terms do not depend on eps."""
    # 1/sin r = 1/r + r/6 + 7 r^3/360 + ...; cot r = 1/r - r/3 - r^3/45 - ...
    aS, T = sysm.a * sysm.S, sysm.T
    A_0 = np.asarray(sysm.eps)[..., None, None] * sysm.E + sysm.m * sysm.U
    return [aS + T, A_0, aS / 6 - T / 3, np.zeros_like(T), 7 * aS / 360 - T / 45]


def _frobenius_initial(j: int, sysm: FirstOrderSystem, r0: float) -> np.ndarray:
    """Regular columns at r0 for every lane of sysm.eps, (lanes, n, n/2): (K, L, M, N)
    with leading powers r^j and r^(j+1) for j >= 1, (M, N) ~ (0, r) for j = 0.

    Resonant orders (s+k an exponent of A_-1) are solved in the
    least-squares sense; any homogeneous admixture only re-mixes the
    regular basis.  A_-1 - (s+k) I does not depend on eps, so each order is
    one least-squares solve with every lane as a right-hand side.
    """
    mats = _series_matrices(sysm)
    A_m1, lanes, a = mats[0], len(sysm.eps), sysm.a
    if j == 0:
        seeds = [(1, np.array([0.0, 1.0]))]
    else:
        seeds = [
            (j, np.array([1.0, 0.0, -j / a, 0.0])),
            (j + 1, np.array([0.0, 1.0, 0.0, (j + 1) / a])),
        ]
    cols = []
    eye = np.eye(len(A_m1))
    for s, c0 in seeds:
        coeffs = [np.broadcast_to(c0, (lanes, len(c0)))]
        for k in range(1, FROBENIUS_TERMS):
            rhs = np.zeros_like(coeffs[0])
            for power, Ap in enumerate(mats[1:], start=0):
                if k - 1 - power >= 0:
                    rhs -= (Ap @ coeffs[k - 1 - power][..., None])[..., 0]
            sol, *_ = np.linalg.lstsq(A_m1 - (s + k) * eye, rhs.T, rcond=None)
            coeffs.append(sol.T)
        cols.append(sum(ck * r0 ** (s + k) for k, ck in enumerate(coeffs)))
    return np.stack(cols, axis=2)


def _match(eps_vec: np.ndarray, m: float, j: int, r0: float, rtol: float, t_eval=None):
    """Stacked match matrices [Y | D Y] at the equator, and the regular
    columns Y sampled at t_eval (the integrator's steps when None).

    One solve_ivp carries every lane from r0 to pi/2; D Y(pi/2) is the
    regular space of r = pi brought to the equator by the reflection.
    """
    sysm = system(j, np.atleast_1d(np.asarray(eps_vec, dtype=float)), m)
    cols_init = _frobenius_initial(j, sysm, r0)
    shape = cols_init.shape  # (lanes, n, n/2)

    def rhs(r, y):
        return (sysm.matrix(r) @ y.reshape(shape)).reshape(-1)

    sol = solve_ivp(
        rhs, (r0, math.pi / 2), cols_init.reshape(-1),
        rtol=rtol, atol=INTEGRATOR_ATOL, method=METHOD, t_eval=t_eval,
    )
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    cols = sol.y.reshape(*shape, -1)
    Y = cols[..., -1]
    return np.concatenate([Y, sysm.D[:, None] * Y], axis=2), cols


def _unit_columns(mats: np.ndarray) -> np.ndarray:
    """mats (..., n, n) with every nonzero column scaled to unit length."""
    norms = np.linalg.norm(mats, axis=-2, keepdims=True)
    return mats / np.where(norms > 0, norms, 1.0)


def _j0_nodes(mat: np.ndarray, M: np.ndarray) -> int:
    """Interior nodes of M over (0, pi): the half solution M sampled on
    r0..pi/2 and its mirror image c D_M M(pi - r), c = +-1 the parity that
    matches the two halves at the equator (D Y(pi/2) = c Y(pi/2))."""
    Y, DY = mat[:, 0], mat[:, 1]
    track = np.concatenate([M, np.sign(Y @ DY) * SYSTEM_J0.D[0] * M[-2::-1]])
    track = track[np.abs(track) > 1e-8 * np.abs(track).max()]
    return int(np.sum(np.diff(np.sign(track)) != 0))


def _shoot(m: float, j: int, config: ShootingConfig) -> list[OracleEigenvalue]:
    """Levels of the j system in the scan window: sign changes of the
    normalized match determinant, refined by brentq; then one integration
    at each root for its SVD diagnostics (and its node count at j = 0)."""
    eps_grid = _scan_grid(config)
    # The (L, N) elimination scale eps+m never vanishes off eps=|m|; skip a
    # small window around it where the j >= 1 regular-space columns
    # degenerate (no j = 0 level lies there: its p^2 is at least 3).
    eps_grid = eps_grid[np.abs(eps_grid - abs(m)) > 1e-6]
    r0, flags = R_START_OFFSET, []

    def dets(eps, rtol):
        return np.linalg.det(_unit_columns(_match(eps, m, j, r0, rtol)[0]))

    try:
        scanned = dets(eps_grid, SCAN_RTOL)
    except IntegrationError:
        r0, flags = r0 / 2, ["r-start-offset-halved"]
        scanned = dets(eps_grid, SCAN_RTOL)

    out = []
    refined = _roots(eps_grid, scanned, lambda e: float(dets(e, INTEGRATOR_RTOL)[0]), config.eps_scan[:2])
    for bracket, root in refined:
        mats, cols = _match(root, m, j, r0, INTEGRATOR_RTOL, np.linspace(r0, math.pi / 2, NODE_SAMPLES))
        mat = mats[0]
        sv = np.linalg.svd(_unit_columns(mat), compute_uv=False)
        ev_flags = list(flags)
        if sv[0] > 0 and sv[-1] / sv[0] > DET_TOLERANCE:
            ev_flags.append("weak-singularity")
        out.append(
            OracleEigenvalue(
                eps=root, p_sq=root * root - m * m, j=j, bracket=bracket,
                node_count=_j0_nodes(mat, cols[0, 0, 0]) if j == 0 else None,
                multiplicity=2 if sv[0] > 0 and sv[-2] / sv[0] < 1e-6 else 1,
                matched_family_guess="j0" if j == 0 else None, flags=ev_flags,
            )
        )
    return out


def shoot_j0(m: float, lambda_sign: int = +1, config: ShootingConfig | None = None) -> list[OracleEigenvalue]:
    """Eigenvalues of the j=0 problem in the configured scan range, in
    order, with node counts 0, 1, 2, ... from the lowest level found.

    Always shoots the lambda = +1 pair; lambda_sign is accepted and
    ignored.  Its p^2 spectrum is the j=0 spectrum of both branches, but
    the lambda = -1 realization (m -> -m) also has the decoupled regular
    solution (M, N) = (0, sin r) at eps = m (p^2 = 0), which no closed form
    lists and which would show up here as an extra level.

    Raises ValueError when two consecutive levels found differ by more
    than one node: a level between them was missed (two levels inside
    one scan step), and a smaller step is needed.
    """
    if m < 0:
        raise ValueError("mass must be non-negative")
    del lambda_sign
    out = _shoot(m, 0, config or ShootingConfig())
    for lower, upper in zip(out, out[1:]):
        if upper.node_count - lower.node_count != 1:
            raise ValueError(
                f"j=0 levels at eps {lower.eps:.6g} and {upper.eps:.6g} have "
                f"{lower.node_count} and {upper.node_count} nodes: a level between "
                "them was missed; use a smaller eps scan step"
            )
    return out


def shoot_j(m: float, j: int, lambda_sign: int = +1, config: ShootingConfig | None = None) -> list[OracleEigenvalue]:
    """Bound-state energies of the coupled j >= 1 system.

    The two-parameter regular space is integrated from r = 0 to the
    equator and matched to its reflection; eigenvalues are the sign changes
    of the normalized 4x4 determinant, refined by brentq.
    """
    if j < 1:
        raise ValueError("shoot_j requires j >= 1; use shoot_j0")
    if m < 0:
        raise ValueError("mass must be non-negative")
    return _shoot(lambda_sign * m, j, config or ShootingConfig())


def compare_spectra(oracle: list[OracleEigenvalue], closed: list[SpectrumEntry],
                    rel_tol: float = REL_TOL) -> SpectrumComparison:
    """Greedy nearest-eps matching of oracle eigenvalues to closed entries."""
    remaining = list(closed)
    matched, unmatched_oracle = [], []
    for ev in sorted(oracle, key=lambda e: e.eps):
        best, best_rel = None, None
        for entry in remaining:
            target = entry.eps()
            rel = abs(ev.eps - target) / max(abs(target), 1e-300)
            if best_rel is None or rel < best_rel:
                best, best_rel = entry, rel
        if best is not None and best_rel <= rel_tol:
            matched.append((ev, best, best_rel))
            ev.matched_family_guess = best.family.value
            remaining.remove(best)
        else:
            unmatched_oracle.append(ev)
    return SpectrumComparison(matched, unmatched_oracle, remaining)
