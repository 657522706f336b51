"""Eigenvalue recovery straight from the radial ODE systems.

Nothing here touches the closed forms: bound states are located by
integrating the regular solution spaces of model's first-order system
(SYSTEM_J, the coefficient matrices verify reads too) inward from both
poles of the sphere and finding the energies where the matched solution
matrix turns singular.  Serves as the ground truth the hypergeometric
construction is checked against.

Regular initial data comes from a short Frobenius expansion of each system
at its pole, built from the Laurent series of 1/sin r and cot r; the r=pi
data is the r=0 data pushed through the reflection symmetry
(K, L, M, N)(r) -> (K, -L, -M, N)(pi - r) of the coupled system.  The j=0
problem is shot through its scalar second-order equation for M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .closedform import SpectrumEntry
from .model import SYSTEM_J

__all__ = [
    "ShootingConfig",
    "OracleEigenvalue",
    "SpectrumComparison",
    "shoot_j0",
    "shoot_j",
    "compare_spectra",
]

FROBENIUS_TERMS = 5
# Integrator tolerances: the sign-change scan runs loose, root refinement tight.
INTEGRATOR_RTOL = 1e-10
INTEGRATOR_ATOL = 1e-13
SCAN_RTOL = 1e-8
METHOD = "DOP853"
BISECT_XTOL = 1e-10
# Smallest/largest singular value above this flags a weak singularity.
DET_TOLERANCE = 1e-8
# Relative accuracy an oracle eigenvalue is trusted to (the j = 0 levels
# reach about 5e-9): compare_spectra's default matching tolerance, and how
# far a root may lie outside its scan window and still count as in it.
REL_TOL = 1e-5


@dataclass(frozen=True)
class ShootingConfig:
    r_start_offset: float = 1e-3
    eps_scan: tuple[float, float, float] = (0.1, 5.0, 0.02)
    match_point: float = math.pi / 2

    def __post_init__(self):
        lo, hi, step = self.eps_scan
        if not (0 < self.r_start_offset < self.match_point < math.pi - self.r_start_offset):
            raise ValueError("need 0 < r_start_offset < match_point < pi - r_start_offset")
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


# -- j = 0: scalar equation M'' + (eps^2 - m^2 - (1+cos^2 r)/sin^2 r) M = 0 --

def _j0_rhs_factory(p_sq_vec: np.ndarray):
    n = len(p_sq_vec)

    def rhs(r, y):
        y = y.reshape(2, n)
        pot = (1.0 + math.cos(r) ** 2) / math.sin(r) ** 2
        return np.concatenate([y[1], (pot - p_sq_vec) * y[0]])

    return rhs


def _j0_initial(r0: float, p_sq: np.ndarray) -> np.ndarray:
    # Regular branch M ~ r^2 (1 + c2 r^2), c2 = -(1/3 + p^2)/10.
    c2 = -(1.0 / 3.0 + p_sq) / 10.0
    M = r0**2 * (1.0 + c2 * r0**2)
    dM = 2.0 * r0 + 4.0 * c2 * r0**3
    return M, dM


def _j0_boundary_value(eps_vec: np.ndarray, m: float, config: ShootingConfig,
                       rtol: float, count_nodes: bool = False):
    """Value of the left-regular solution at pi - offset (zero iff eigen)."""
    eps_vec = np.atleast_1d(np.asarray(eps_vec, dtype=float))
    p_sq = eps_vec**2 - m * m
    r0 = config.r_start_offset
    M0, dM0 = _j0_initial(r0, p_sq)
    y0 = np.concatenate([np.broadcast_to(M0, eps_vec.shape), np.broadcast_to(dM0, eps_vec.shape)])
    t_eval = np.linspace(r0, math.pi - r0, 200) if count_nodes else None
    sol = solve_ivp(
        _j0_rhs_factory(p_sq), (r0, math.pi - r0), y0,
        rtol=rtol, atol=INTEGRATOR_ATOL, method=METHOD, t_eval=t_eval,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    end = sol.y[: len(eps_vec), -1]
    if count_nodes:
        # Interior sign alternations; endpoint regions are dropped because
        # the residual singular admixture flips sign there at no cost.
        track = sol.y[: len(eps_vec), :]
        trim = track.shape[1] // 20
        nodes = []
        for row in track:
            row = row[trim:-trim]
            row = row[np.abs(row) > 1e-8 * np.abs(row).max()]
            nodes.append(int(np.sum(np.diff(np.sign(row)) != 0)))
        return end, nodes
    return end


def shoot_j0(m: float, lambda_sign: int = +1, config: ShootingConfig | None = None) -> list[OracleEigenvalue]:
    """Eigenvalues of the j=0 problem in the configured scan range.

    lambda_sign only flips the mass sign, which the scalar equation does
    not see; the argument is kept for interface symmetry.
    """
    del lambda_sign  # enters only as m -> -m; the equation depends on m^2
    config = config or ShootingConfig()
    eps_grid = _scan_grid(config)
    vals = _j0_boundary_value(eps_grid, m, config, SCAN_RTOL)
    out = []
    for bracket, root in _roots(
        eps_grid, vals, lambda e: float(_j0_boundary_value(e, m, config, INTEGRATOR_RTOL)[0]),
        config.eps_scan[:2],
    ):
        _, nodes = _j0_boundary_value(np.array([root]), m, config, INTEGRATOR_RTOL, count_nodes=True)
        out.append(
            OracleEigenvalue(
                eps=root, p_sq=root * root - m * m, j=0, bracket=bracket,
                node_count=nodes[0], matched_family_guess="j0",
            )
        )
    out.sort(key=lambda ev: ev.node_count if ev.node_count is not None else ev.eps)
    return out


# -- j >= 1: 4-channel determinant matching ---------------------------------

def _series_matrices(j: int, eps: float, m: float) -> list:
    """A(r) = A_-1/r + A_0 + A_1 r + A_3 r^3 + ... around r=0."""
    # 1/sin r = 1/r + r/6 + 7 r^3/360 + ...; cot r = 1/r - r/3 - r^3/45 - ...
    aS, T = math.sqrt(j * (j + 1)) * SYSTEM_J.S, SYSTEM_J.T
    A_0 = eps * SYSTEM_J.E + m * SYSTEM_J.U
    return [aS + T, A_0, aS / 6 - T / 3, np.zeros_like(T), 7 * aS / 360 - T / 45]


def _frobenius_initial(j: int, eps: float, m: float, r0: float) -> np.ndarray:
    """Two regular columns (K, L, M, N)(r0); leading powers r^j and r^(j+1).

    Resonant orders (s+k an exponent of A_-1) are solved in the
    least-squares sense; any homogeneous admixture only re-mixes the
    regular basis.
    """
    mats = _series_matrices(j, eps, m)
    A_m1 = mats[0]
    a = math.sqrt(j * (j + 1))
    seeds = [
        (j, np.array([1.0, 0.0, -j / a, 0.0])),
        (j + 1, np.array([0.0, 1.0, 0.0, (j + 1) / a])),
    ]
    cols = []
    eye = np.eye(4)
    for s, c0 in seeds:
        coeffs = [c0]
        for k in range(1, FROBENIUS_TERMS):
            rhs = np.zeros(4)
            for power, Ap in enumerate(mats[1:], start=0):
                if k - 1 - power >= 0:
                    rhs -= Ap @ coeffs[k - 1 - power]
            Mk = A_m1 - (s + k) * eye
            sol, *_ = np.linalg.lstsq(Mk, rhs, rcond=None)
            coeffs.append(sol)
        y = np.zeros(4)
        for k, ck in enumerate(coeffs):
            y += ck * r0 ** (s + k)
        cols.append(y)
    return np.array(cols).T  # 4 x 2


MIRROR = np.array([1.0, -1.0, -1.0, 1.0])


def _match_matrix_batch(eps_vec: np.ndarray, m: float, j: int, config: ShootingConfig,
                        rtol: float) -> np.ndarray:
    """Stacked 4x4 match matrices [left cols | right cols] at the match point."""
    eps_vec = np.atleast_1d(np.asarray(eps_vec, dtype=float))
    nb = len(eps_vec)
    sysm = replace(SYSTEM_J, eps=eps_vec, m=m, a=math.sqrt(j * (j + 1)))

    def rhs(r, y):
        return (sysm.matrix(r) @ y.reshape(nb, 4, 2)).reshape(-1)

    r0 = config.r_start_offset
    mp = config.match_point
    cols_init = np.array([_frobenius_initial(j, e, m, r0) for e in eps_vec])
    sol = solve_ivp(
        rhs, (r0, mp), cols_init.reshape(-1),
        rtol=rtol, atol=INTEGRATOR_ATOL, method=METHOD,
    )
    if not sol.success:
        raise RuntimeError(f"left integration failed: {sol.message}")
    cols_left = sol.y[:, -1].reshape(nb, 4, 2)

    # Mirror construction at r = pi: the reflection symmetry maps the
    # regular space at 0 onto the regular space at pi.
    sol = solve_ivp(
        rhs, (math.pi - r0, mp), (cols_init * MIRROR[:, None]).reshape(-1),
        rtol=rtol, atol=INTEGRATOR_ATOL, method=METHOD,
    )
    if not sol.success:
        raise RuntimeError(f"right integration failed: {sol.message}")
    cols_right = sol.y[:, -1].reshape(nb, 4, 2)
    return np.concatenate([cols_left, cols_right], axis=2)


def _normalized_det(mats: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mats, axis=1, keepdims=True)
    norms = np.where(norms > 0, norms, 1.0)
    return np.linalg.det(mats / norms)


def _det_at(eps: float, m: float, j: int, config: ShootingConfig, rtol: float) -> float:
    return float(_normalized_det(_match_matrix_batch(np.array([eps]), m, j, config, rtol))[0])


def shoot_j(m: float, j: int, lambda_sign: int = +1, config: ShootingConfig | None = None) -> list[OracleEigenvalue]:
    """Bound-state energies of the coupled j >= 1 system.

    Two-parameter regular spaces are integrated from both poles to the
    match point; eigenvalues are the sign changes of the normalized 4x4
    determinant, refined by bisection.
    """
    if j < 1:
        raise ValueError("shoot_j requires j >= 1; use shoot_j0")
    config = config or ShootingConfig()
    m_eff = lambda_sign * m
    eps_grid = _scan_grid(config)
    # The (L, N) elimination scale eps+m never vanishes off eps=|m|; skip a
    # small window around it where the regular-space columns degenerate.
    eps_grid = eps_grid[np.abs(eps_grid - abs(m_eff)) > 1e-6]

    def scan():
        return _normalized_det(_match_matrix_batch(eps_grid, m_eff, j, config, SCAN_RTOL))

    try:
        dets = scan()
    except RuntimeError:
        config = replace(config, r_start_offset=config.r_start_offset / 2)
        dets = scan()

    out = []
    for bracket, root in _roots(
        eps_grid, dets, lambda e: _det_at(e, m_eff, j, config, INTEGRATOR_RTOL), config.eps_scan[:2]
    ):
        mats = _match_matrix_batch(np.array([root]), m_eff, j, config, INTEGRATOR_RTOL)
        norms = np.linalg.norm(mats[0], axis=0)
        sv = np.linalg.svd(mats[0] / np.where(norms > 0, norms, 1.0), compute_uv=False)
        flags = []
        if sv[0] > 0 and sv[-1] / sv[0] > DET_TOLERANCE:
            flags.append("weak-singularity")
        multiplicity = 2 if sv[0] > 0 and sv[-2] / sv[0] < 1e-6 else 1
        out.append(
            OracleEigenvalue(
                eps=root, p_sq=root * root - m * m, j=j, bracket=bracket,
                multiplicity=multiplicity, flags=flags,
            )
        )
    return out


def compare_spectra(oracle: list[OracleEigenvalue], closed: list[SpectrumEntry],
                    rel_tol: float = REL_TOL, eps_sign: int = +1) -> SpectrumComparison:
    """Greedy nearest-eps matching of oracle eigenvalues to closed entries."""
    remaining = list(closed)
    matched, unmatched_oracle = [], []
    for ev in sorted(oracle, key=lambda e: e.eps):
        best, best_rel = None, None
        for entry in remaining:
            target = entry.eps(eps_sign)
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
