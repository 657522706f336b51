"""Eigenvalue recovery straight from the radial ODE systems.

The ground truth the closed forms are checked against, solved in p: with
mu = lambda m, p = sqrt(eps^2 - m^2) and kappa = (eps + mu)/p, (K, L, M, N)
-> (K, kappa L, M, kappa N) takes system(j, eps + mu, eps - mu) onto the
mass-free system(j, p, p), on which levels are located by collocation and
confirmed by shooting; a level p is reported at eps = hypot(p, m).  There
A(r) = p E + A(r)|p=0, E = P + Q, and as E^2 = -I, Y' = A(r) Y is
p Y = H Y with H = -E (d/dr - A(r)|p=0), discretised on an even number N
of Chebyshev-Gauss points of (0, pi), which exclude the poles.  H commutes
with the reflection Y(r) -> D Y(pi - r) (D the parity diagonal), so it is
solved as two blocks on the first N/2 points, one per reflection-parity
sector.  A level is an eigenvalue that is real and whose rebuilt
eigenvector has a decayed Chebyshev tail; a j = 0 level's nodes are counted
on its eigenvector's M block.  One integration of FirstOrderSystem.matrix
carries the regular space from a Frobenius start at r = 0 (Laurent series of
1/sin r and cot r) to the equator for every level at once; the regular space
at r = pi is its reflection D Y(pi - r), so the match matrix is [Y | D Y],
4x4 for j >= 1 and 2x2 for j = 0, and its normalized determinant must change
sign across each level.

solve_ivp, a numpy-only extrapolation integrator, is a module function:
the seam that tests and perfbench's tracer patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .model import FirstOrderSystem, system

if TYPE_CHECKING:  # the oracle never builds a closed form
    from .closedform import SpectrumEntry

__all__ = [
    "IntegrationError",
    "SpectrumError",
    "ShootingConfig",
    "OracleEigenvalue",
    "SpectrumComparison",
    "p_window",
    "in_window",
    "shoot_j0",
    "shoot_j",
    "compare_spectra",
]

FROBENIUS_TERMS = 5
# Radius of the Frobenius start at r = 0; halved once when the confirming
# integration fails, and every level then carries "r-start-offset-halved".
R_START_OFFSET = 1e-3
INTEGRATOR_RTOL = 1e-10
INTEGRATOR_ATOL = 1e-13
GBS_STAGES = 6  # solve_ivp's modified-midpoint substeps: n = 2, 4, ..., 2 GBS_STAGES
# Collocation: the largest N tried, and the two acceptance tests: IMAG_TOL
# bounds |Im p| relative to max(1, |p|), TAIL_TOL the Chebyshev tail.
COLLOCATION_MAX_N = 256
IMAG_TOL = 1e-10
TAIL_TOL = 1e-8
# The p = 0 rule: at j = 0 and p = 0 the M row decouples (M' = -cot r M),
# and collocation holds a double eigenvalue, the level (0, sin r) at
# eps = -mu, which no closed form lists, and its twin 1/sin r, split by
# rounding to at most 3.5e-8 (N from 16 to 512), far above IMAG_TOL.  Both
# lie within this cut, far below the lowest j = 0 level sqrt(3): no level.
P_ZERO_CUT = 1e-6
# Half-width of a level's confirming bracket, relative to max(1, p).
CONFIRM_DELTA = 1e-7
# Smallest/largest singular value above this flags a weak singularity.
DET_TOLERANCE = 1e-8
# How far, relative to p, a level may lie outside its window and still
# count as in it.
WINDOW_SLACK = 1e-5
# compare_spectra's default matching tolerance, relative in p^2: the
# accuracy an oracle level is trusted to (collocation gives about 1e-13).
MATCH_TOL = 1e-10


class IntegrationError(RuntimeError):
    """An integration from the Frobenius start to the equator failed."""


class SpectrumError(ValueError):
    """Not every level of a window could be established: collocation did not
    resolve it, shooting did not confirm a level, or j = 0 nodes skip one."""


def solve_ivp(fun, t_span, y0, *, rtol, atol) -> SimpleNamespace:
    """y' = fun(t, y) from t_span[0] to t_span[1] > t_span[0] by Gragg-Bulirsch-Stoer
    extrapolation (Hairer, Norsett & Wanner, Solving ODEs I, II.9): modified
    midpoint with n = 2, 4, ..., 2 GBS_STAGES substeps, Aitken-Neville in h^2,
    a clipped power-law step factor from the RMS of the last two extrapolants
    over atol + rtol |y|.  Returns success, message, y (the state at
    t_span[1]), nfev, naccept and nreject; a failure raises nothing, and its
    message names the r where the step collapsed and the last step tried."""
    t, end = (float(s) for s in t_span)
    ns, tiny = range(2, 2 * GBS_STAGES + 1, 2), 1e-14 * max(abs(t), abs(end))
    y = np.asarray(y0, dtype=float)
    f, nfev, naccept, nreject = fun(t, y), 1, 0, 0
    d0, d1 = (math.sqrt(np.mean((v / (atol + rtol * np.abs(y))) ** 2)) for v in (y, f))
    h = 0.01 * d0 / d1 if min(d0, d1) > 1e-5 else 1e-6 * (end - t)

    def result(message, success=False):
        return SimpleNamespace(success=success, message=message, y=y, nfev=nfev, naccept=naccept, nreject=nreject)

    while t < end:
        H = end - t if h > 0.99 * (end - t) else h
        row = []
        for k, n in enumerate(ns):
            z0, z1 = y, y + H / n * f
            for i in range(1, n):
                z0, z1 = z1, z0 + 2 * H / n * fun(t + i * H / n, z1)
            row = [z1] + row  # row[l] is T(k-1, l-1) until it becomes T(k, l)
            for l in range(1, k + 1):
                row[l] = row[l - 1] + (row[l - 1] - row[l]) / ((n / ns[k - l]) ** 2 - 1)
        nfev += GBS_STAGES**2
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(row[-1]))
        err = math.sqrt(np.mean(((row[-1] - row[-2]) / scale) ** 2))
        h = H * min(4.0, max(0.2, 0.9 * max(err, 1e-10) ** (-1 / (2 * GBS_STAGES - 1))))
        if not err <= 1:  # rejected, also when err is nan
            nreject += 1
            if h < tiny or not math.isfinite(err):
                return result(f"step collapsed at r = {t:.15g}: last step {H:.3e}, error estimate {err:.3g}")
            continue
        t, y, naccept = (end if H == end - t else t + H), row[-1], naccept + 1
        f, nfev = fun(t, y), nfev + 1
    return result("reached the end of the interval", success=True)


def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on the first call: the package's only
    scipy reference, kept as the seam perfbench's tracer binds; nothing calls it."""
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


@dataclass(frozen=True)
class ShootingConfig:
    """The energy window (lo, hi), 0 <= lo < hi < inf.  A trailing third
    entry, the step of the old scan grid, is accepted and ignored:
    perfbench still passes one."""

    eps_scan: tuple[float, ...] = (0.1, 5.0)

    def __post_init__(self):
        if len(self.eps_scan) not in (2, 3) or not 0 <= self.eps_scan[0] < self.eps_scan[1] < math.inf:
            raise ValueError(f"bad eps window {self.eps_scan}")


@dataclass
class OracleEigenvalue:
    eps: float
    p_sq: float
    j: int
    bracket: tuple[float, float]
    node_count: int | None = None
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


def _series_matrices(sysm: FirstOrderSystem) -> list:
    """A(r) = A_-1/r + A_0 + A_1 r + A_3 r^3 + ... around r=0; A_0 is
    sysm.p_part, over the lanes of the weights; no other term has them."""
    # 1/sin r = 1/r + r/6 + 7 r^3/360 + ...; cot r = 1/r - r/3 - r^3/45 - ...
    aS, T = sysm.a * sysm.S, sysm.T
    return [aS + T, sysm.p_part, aS / 6 - T / 3, np.zeros_like(T), 7 * aS / 360 - T / 45]


def _frobenius_initial(j: int, sysm: FirstOrderSystem, r0: float) -> np.ndarray:
    """Regular columns at r0 for every lane of sysm.plus, (lanes, n, n/2): (K, L, M, N)
    with leading powers r^j and r^(j+1) for j >= 1, (M, N) ~ (0, r) for j = 0,
    each divided by its norm.  Of size r0^j, a column would sit under
    INTEGRATOR_ATOL from j ~ 5, where the step control checks none of its
    error; the problem is linear, so the scale changes no determinant sign.

    Resonant orders (s+k an exponent of A_-1) are solved in the
    least-squares sense; any homogeneous admixture only re-mixes the
    regular basis.  A_-1 - (s+k) I does not depend on p, so each order is
    one least-squares solve with every lane as a right-hand side.
    """
    mats = _series_matrices(sysm)
    A_m1, lanes, a = mats[0], len(sysm.plus), sysm.a
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
        col = sum(ck * r0 ** (s + k) for k, ck in enumerate(coeffs))
        cols.append(col / np.linalg.norm(col, axis=1, keepdims=True))
    return np.stack(cols, axis=2)


def _match(p_vec: np.ndarray, j: int, r0: float) -> np.ndarray:
    """Stacked match matrices [Y | D Y] of system(j, p, p) at the equator
    for the float array p_vec, Y the regular columns there: one solve_ivp
    carries every lane from r0 to pi/2, and D Y(pi/2) is the regular space of
    r = pi brought to the equator by the reflection."""
    sysm = system(j, p_vec, p_vec)
    cols_init = _frobenius_initial(j, sysm, r0)
    matrix, shape = sysm.matrix, cols_init.shape
    sol = solve_ivp(lambda r, y: (matrix(r) @ y.reshape(shape)).reshape(-1), (r0, math.pi / 2),
                    cols_init.reshape(-1), rtol=INTEGRATOR_RTOL, atol=INTEGRATOR_ATOL)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    Y = sol.y.reshape(cols_init.shape)
    return np.concatenate([Y, sysm.D[:, None] * Y], axis=2)


def _collocation_matrix(j: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """H = -E (d/dr - A(r)|p=0) of system(j, p, p) on the N Chebyshev-Gauss
    points r = pi (1 - cos theta) / 2 of (0, pi), (n N, n N) in blocks by
    state component, and the angles theta."""
    theta = (2 * np.arange(N) + 1) * math.pi / (2 * N)
    x, w = np.cos(theta), (-1.0) ** np.arange(N) * np.sin(theta)  # barycentric weights
    Dx = w[None, :] / w[:, None] / (x[:, None] - x[None, :] + np.eye(N))  # d/dx off the diagonal
    np.fill_diagonal(Dx, 0.0)
    np.fill_diagonal(Dx, -Dx.sum(axis=1))  # the rows of a differentiation matrix sum to zero
    sysm = system(j, 0.0, 0.0)
    E = sysm.P + sysm.Q
    H = (2 / math.pi) * E[:, None, :, None] * Dx[None, :, None, :]  # -E d/dr, d/dr = -(2/pi) d/dx
    k = np.arange(N)
    H[:, k, :, k] += E @ sysm.matrix(math.pi * (1 - x) / 2)
    return H.reshape(len(E) * N, -1), theta


def _chebyshev_tails(vecs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per eigenvector (a column of vecs): the largest Chebyshev coefficient
    of its last quarter over the largest of all, over every component."""
    N = len(theta)
    coef = np.abs(np.cos(np.outer(np.arange(N), theta)) @ vecs.reshape(len(vecs) // N, N, vecs.shape[-1]))
    return coef[:, 3 * N // 4:].max(axis=(0, 1)) / coef.max(axis=(0, 1))


def _sign_changes(block: np.ndarray) -> np.ndarray:
    """Per column of block (eigenvector entries in order of rising r): its
    sign changes once the column is turned real by the conjugate of its
    largest entry; entries below 1e-8 of the largest carry no sign."""
    real = (block * block[np.abs(block).argmax(axis=0), np.arange(block.shape[1])].conj()).real
    kept = (col[np.abs(col) > 1e-8 * np.abs(col).max()] for col in real.T)
    return np.array([np.count_nonzero(np.diff(np.sign(col))) for col in kept], dtype=int)


def _sector_blocks(j: int, N: int) -> tuple[list, np.ndarray, np.ndarray]:
    """H commutes with the reflection R: Y(r) -> D Y(pi - r), which maps
    Chebyshev-Gauss point k to N-1-k, so for even N it splits into the
    sectors y(N-1-k) = s D y(k), s = +1 and -1.  Returns the two sector
    blocks H_s = H_tt + s H_tb (D x J) on the first N/2 points (J the point
    reversal), each (n N/2, n N/2), with D and the angles theta."""
    H, theta = _collocation_matrix(j, N)
    n, half, D = len(H) // N, N // 2, system(j, 0.0, 0.0).D
    top = H.reshape(n, N, n, N)[:, :half]
    tt, tb = top[..., :half], top[..., ::-1][..., :half] * D[:, None]
    return [(tt + s * tb).reshape(n * half, -1) for s in (1, -1)], D, theta


def _sector_solve(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eig of one sector block: every dense solve of _locate, a
    module function so that tests can count and perturb it."""
    return np.linalg.eig(block)


def _sector_eigs(j: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues of H at N points from its two sector blocks, + then -,
    the eigenvectors in full coordinates, (n N, count), rebuilt by
    y(N-1-k) = s D y(k), and theta."""
    blocks, D, theta = _sector_blocks(j, N)
    vals, vecs = [], []
    for s, block in zip((1, -1), blocks):
        v, w = _sector_solve(block)
        top = w.reshape(len(D), N // 2, -1)
        vals.append(v)
        vecs.append(np.concatenate([top, s * D[:, None, None] * top[:, ::-1]], axis=1).reshape(len(D) * N, -1))
    return np.concatenate(vals), np.concatenate(vecs, axis=1), theta


def p_window(m: float, eps_window) -> tuple[float, float]:
    """The p window of an eps window at mass m: p = sqrt(max(eps^2 - m^2, 0))."""
    return tuple(math.sqrt(max(e * e - m * m, 0.0)) for e in eps_window)


def in_window(p, window: tuple[float, float]):
    """Whether each p lies in the p window, up to WINDOW_SLACK |p| outside it:
    the one rule for oracle levels and the closed-form levels they are
    compared with."""
    lo, hi = window
    slack = WINDOW_SLACK * np.abs(p)
    return (p >= lo - slack) & (p <= hi + slack)


def _locate(j: int, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray | None]:
    """The levels p of the window (in_window), in order, and at j = 0 the
    sign changes of each one's M over (0, pi), None at j >= 1 (no caller reads them).
    Levels are the eigenvalues of H, less the p = 0 pair at j = 0, found by
    sector solves at N points: real to IMAG_TOL, with a Chebyshev tail of at
    most TAIL_TOL on the rebuilt eigenvector.  N starts at 4 hi + 8, rounded
    up to even, and doubles until every eigenvalue in the window passes, or,
    past COLLOCATION_MAX_N, raises SpectrumError: never a short list."""
    lo, hi = window
    N, tried = 2 * math.ceil(2 * hi) + 8, []  # 4 hi + 8 rounded up to even
    while N <= COLLOCATION_MAX_N:
        vals, vecs, theta = _sector_eigs(j, N)
        raw = in_window(vals.real, window) & ((j > 0) | (np.abs(vals) > P_ZERO_CUT))
        p, vecs = vals[raw], vecs[:, raw]
        ok = (np.abs(p.imag) <= IMAG_TOL * np.maximum(1.0, np.abs(p))) & (_chebyshev_tails(vecs, theta) <= TAIL_TOL)
        tried.append(f"N={N}: {int(raw.sum())} raw, {int(ok.sum())} accepted")
        if ok.all():
            order = np.argsort(p.real)
            return p.real[order], _sign_changes(vecs[:N])[order] if j == 0 else None
        N *= 2
    raise SpectrumError(
        f"collocation did not resolve p in [{lo:g}, {hi:g}] (j={j}): "
        f"{'; '.join(tried) or 'no N'} up to COLLOCATION_MAX_N={COLLOCATION_MAX_N}"
    )


def _shoot(m: float, j: int, config: ShootingConfig) -> list[OracleEigenvalue]:
    """The levels of the eps window, as p = sqrt(max(eps^2 - m^2, 0)), all
    confirmed in one integration: the determinant must change sign across
    each level's bracket (p -+ delta), and its p lane gives the SVD
    diagnostics.  p and the bracket ends are reported as eps = hypot(p, m)."""
    if m < 0:
        raise ValueError("mass must be non-negative")
    levels, nodes = _locate(j, p_window(m, config.eps_scan[:2]))
    if not len(levels):
        return []
    delta = CONFIRM_DELTA * np.maximum(1.0, levels)
    lanes = np.stack([levels - delta, levels, levels + delta], axis=1).ravel()
    flags = []
    try:
        mats = _match(lanes, j, R_START_OFFSET)
    except IntegrationError:
        flags = ["r-start-offset-halved"]
        mats = _match(lanes, j, R_START_OFFSET / 2)
    unit = mats / np.linalg.norm(mats, axis=-2, keepdims=True)  # no column of Y vanishes
    below, _, above = np.linalg.det(unit).reshape(-1, 3).T
    sv = np.linalg.svd(unit[1::3], compute_uv=False)
    sv /= sv[:, :1]  # relative to the largest
    out = []
    for i, (p, d) in enumerate(zip(levels.tolist(), delta.tolist())):
        if not below[i] * above[i] < 0:
            raise SpectrumError(
                f"shooting does not confirm the level p={p!r} (j={j}): the "
                f"determinant is {below[i]:.3e} at p-{d:.1e} and {above[i]:.3e} at p+{d:.1e}"
            )
        out.append(
            OracleEigenvalue(
                eps=math.hypot(p, m), p_sq=p * p, j=j, bracket=(math.hypot(p - d, m), math.hypot(p + d, m)),
                node_count=None if nodes is None else int(nodes[i]), matched_family_guess="j0" if j == 0 else None,
                flags=flags + (["weak-singularity"] if sv[i, -1] > DET_TOLERANCE else []),
            )
        )
    return out


def shoot_j0(m: float, lambda_sign: int = +1, config: ShootingConfig | None = None) -> list[OracleEigenvalue]:
    """Eigenvalues of the j=0 problem in the configured window, in order,
    with node counts 0, 1, 2, ... from the lowest level found.  The p
    spectrum does not depend on lambda, so lambda_sign is accepted and
    ignored; the p = 0 level is never reported (P_ZERO_CUT).

    Raises SpectrumError when two consecutive levels found differ by more
    than one node: a level between them was missed.
    """
    del lambda_sign
    out = _shoot(m, 0, config or ShootingConfig())
    for lower, upper in zip(out, out[1:]):
        if upper.node_count - lower.node_count != 1:
            raise SpectrumError(
                f"j=0 levels at eps {lower.eps:.6g} and {upper.eps:.6g} have "
                f"{lower.node_count} and {upper.node_count} nodes: a level between them was missed"
            )
    return out


def shoot_j(m: float, j: int, lambda_sign: int = +1, config: ShootingConfig | None = None) -> list[OracleEigenvalue]:
    """Bound-state energies of the coupled j >= 1 system.

    Levels are collocation eigenvalues, each confirmed by a sign change of
    the normalized 4x4 determinant that matches the two-parameter regular
    space at r = 0 to its reflection at the equator.  The p spectrum does
    not depend on lambda, so lambda_sign is accepted and ignored.
    """
    if j < 1:
        raise ValueError("shoot_j requires j >= 1; use shoot_j0")
    del lambda_sign
    return _shoot(m, j, config or ShootingConfig())


def compare_spectra(oracle: list[OracleEigenvalue], closed: list[SpectrumEntry],
                    rel_tol: float = MATCH_TOL) -> SpectrumComparison:
    """Greedy nearest-p^2 matching of oracle eigenvalues to closed entries;
    a pair matches when their p^2 agree to rel_tol."""
    remaining = list(closed)
    matched, unmatched_oracle = [], []
    for ev in sorted(oracle, key=lambda e: e.p_sq):
        best, best_rel = None, None
        for entry in remaining:
            target = float(entry.p_sq)
            rel = abs(ev.p_sq - target) / max(abs(target), 1e-300)
            if best_rel is None or rel < best_rel:
                best, best_rel = entry, rel
        if best is not None and best_rel <= rel_tol:
            matched.append((ev, best, best_rel))
            ev.matched_family_guess = best.family.value
            remaining.remove(best)
        else:
            unmatched_oracle.append(ev)
    return SpectrumComparison(matched, unmatched_oracle, remaining)
