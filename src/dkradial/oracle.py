"""Eigenvalue recovery straight from the radial ODE systems.

The ground truth the closed forms are checked against: bound states of
model.system(j, eps, m), located by collocation and confirmed by shooting.
As E^2 = -I, Y' = A(r) Y is eps Y = H Y with H = -E (d/dr - A(r)|eps=0),
discretised on Chebyshev-Gauss points of (0, pi), which exclude the poles;
a j = 0 level's nodes are counted on its eigenvector's M block.  One
integration carries the regular space from a Frobenius start at r = 0
(Laurent series of 1/sin r and cot r) to the equator for every level at
once; the regular space at r = pi is its reflection D Y(pi - r) (D the
parity diagonal), so the match matrix is [Y | D Y], 4x4 for j >= 1 and 2x2
for j = 0, and its normalized determinant must change sign across each level.

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
# Collocation: the largest N tried (the drift solve then has 2N points), and
# the two acceptance tests; DRIFT_TOL is relative to max(1, |eps|).
COLLOCATION_MAX_N = 256
DRIFT_TOL = 1e-10
TAIL_TOL = 1e-8
# Half-width of a level's confirming bracket, relative to max(1, eps).
CONFIRM_DELTA = 1e-7
# Smallest/largest singular value above this flags a weak singularity.
DET_TOLERANCE = 1e-8
# How far, relative to eps, a level may lie outside its window and still
# count as in it.
WINDOW_SLACK = 1e-5
# compare_spectra's default matching tolerance: the relative accuracy an
# oracle eigenvalue is trusted to (collocation levels are good to about 1e-13).
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


def _rhs(sysm: FirstOrderSystem, shape: tuple):
    """y' = A(r) y for the lanes of sysm.eps, y flat and (lanes, n, cols)
    when reshaped.  eps E + m U (the series' A_0) is formed once, and
    (a/sin r) S + (cot r) T added to it at every call, in the order of
    FirstOrderSystem.matrix, so A(r) and the product are its bit for bit."""
    const = _series_matrices(sysm)[1]

    def rhs(r, y):
        A = const + sysm.a * (1.0 / np.sin(r)) * sysm.S + 1.0 / np.tan(r) * sysm.T
        return (A @ y.reshape(shape)).reshape(-1)

    return rhs


def _match(eps_vec: np.ndarray, m: float, j: int, r0: float) -> np.ndarray:
    """Stacked match matrices [Y | D Y] at the equator, Y the regular
    columns there: one solve_ivp carries every lane from r0 to pi/2, and
    D Y(pi/2) is the regular space of r = pi brought to the equator by the
    reflection."""
    sysm = system(j, np.atleast_1d(np.asarray(eps_vec, dtype=float)), m)
    cols_init = _frobenius_initial(j, sysm, r0)
    rhs = _rhs(sysm, cols_init.shape)
    sol = solve_ivp(rhs, (r0, math.pi / 2), cols_init.reshape(-1), rtol=INTEGRATOR_RTOL, atol=INTEGRATOR_ATOL)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    Y = sol.y.reshape(cols_init.shape)
    return np.concatenate([Y, sysm.D[:, None] * Y], axis=2)


def _collocation_matrix(j: int, m: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """H = -E (d/dr - A(r)|eps=0) on the N Chebyshev-Gauss points
    r = pi (1 - cos theta) / 2 of (0, pi), (n N, n N) in blocks by state
    component, and the angles theta."""
    theta = (2 * np.arange(N) + 1) * math.pi / (2 * N)
    x, w = np.cos(theta), (-1.0) ** np.arange(N) * np.sin(theta)  # barycentric weights
    Dx = w[None, :] / w[:, None] / (x[:, None] - x[None, :] + np.eye(N))  # d/dx off the diagonal
    np.fill_diagonal(Dx, 0.0)
    np.fill_diagonal(Dx, -Dx.sum(axis=1))  # the rows of a differentiation matrix sum to zero
    sysm = system(j, 0.0, m)
    H = (2 / math.pi) * sysm.E[:, None, :, None] * Dx[None, :, None, :]  # -E d/dr, d/dr = -(2/pi) d/dx
    k = np.arange(N)
    H[:, k, :, k] += sysm.E @ sysm.matrix(math.pi * (1 - x) / 2)
    return H.reshape(len(sysm.E) * N, -1), theta


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


def _locate(j: int, m: float, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The levels of the window (up to WINDOW_SLACK outside it), in order,
    and the sign changes of each one's first component, M at j = 0, over
    (0, pi).  Levels are the eigenvalues of H that drift by at most
    DRIFT_TOL between N and 2N points and whose Chebyshev tail is at most
    TAIL_TOL.  N starts at 4 hi + 8 and doubles until every eigenvalue in
    the window passes, or, past COLLOCATION_MAX_N, raises SpectrumError:
    never a short list."""
    lo, hi = window
    N, tried = math.ceil(4 * hi) + 8, []
    while N <= COLLOCATION_MAX_N:
        H, theta = _collocation_matrix(j, m, N)
        vals, vecs = np.linalg.eig(H)
        slack = WINDOW_SLACK * np.abs(vals.real)
        raw = (vals.real >= lo - slack) & (vals.real <= hi + slack)
        eps, vecs = vals[raw], vecs[:, raw]
        scale = DRIFT_TOL * np.maximum(1.0, np.abs(eps))
        finer = np.linalg.eigvals(_collocation_matrix(j, m, 2 * N)[0])
        drift = np.abs(eps[:, None] - finer[None, :]).min(axis=1)
        ok = (np.abs(eps.imag) <= scale) & (drift <= scale) & (_chebyshev_tails(vecs, theta) <= TAIL_TOL)
        # j = 0 has eps = +m at every N (component N = sin r, M singular at
        # r = pi): the tail test must reject it, and every other one pass.
        decoupled = (j == 0) & (np.abs(eps - m) <= scale)
        tried.append(f"N={N}: {int(raw.sum())} raw, {int(ok.sum())} accepted")
        if np.array_equal(ok, ~decoupled):
            order = np.argsort(eps[ok].real)
            return eps[ok].real[order], _sign_changes(vecs[:N, ok])[order]
        N *= 2
    raise SpectrumError(
        f"collocation did not resolve eps in [{lo:g}, {hi:g}] (j={j}, m={m:g}): "
        f"{'; '.join(tried) or 'no N'} up to COLLOCATION_MAX_N={COLLOCATION_MAX_N}"
    )


def _shoot(m: float, j: int, config: ShootingConfig) -> list[OracleEigenvalue]:
    """The collocation levels of the window, all confirmed in one integration:
    the determinant must change sign across each level's bracket (eps -+
    delta), and its eps lane gives the SVD diagnostics."""
    levels, nodes = _locate(j, m, config.eps_scan[:2])
    if not len(levels):
        return []
    delta = CONFIRM_DELTA * np.maximum(1.0, levels)
    lanes = np.stack([levels - delta, levels, levels + delta], axis=1).ravel()
    flags = []
    try:
        mats = _match(lanes, m, j, R_START_OFFSET)
    except IntegrationError:
        flags = ["r-start-offset-halved"]
        mats = _match(lanes, m, j, R_START_OFFSET / 2)
    unit = mats / np.linalg.norm(mats, axis=-2, keepdims=True)  # no column of Y vanishes
    below, _, above = np.linalg.det(unit).reshape(-1, 3).T
    sv = np.linalg.svd(unit[1::3], compute_uv=False)
    sv /= sv[:, :1]  # relative to the largest
    out = []
    for i, eps in enumerate(levels.tolist()):
        if not below[i] * above[i] < 0:
            raise SpectrumError(
                f"shooting does not confirm the level eps={eps!r} (j={j}, m={m:g}): the "
                f"determinant is {below[i]:.3e} at eps-{delta[i]:.1e} and {above[i]:.3e} at eps+{delta[i]:.1e}"
            )
        out.append(
            OracleEigenvalue(
                eps=eps, p_sq=eps * eps - m * m, j=j, bracket=(eps - delta[i].item(), eps + delta[i].item()),
                node_count=int(nodes[i]) if j == 0 else None, matched_family_guess="j0" if j == 0 else None,
                flags=flags + (["weak-singularity"] if sv[i, -1] > DET_TOLERANCE else []),
            )
        )
    return out


def shoot_j0(m: float, lambda_sign: int = +1, config: ShootingConfig | None = None) -> list[OracleEigenvalue]:
    """Eigenvalues of the j=0 problem in the configured window, in order,
    with node counts 0, 1, 2, ... from the lowest level found.

    Always shoots the lambda = +1 pair; lambda_sign is accepted and
    ignored.  Its p^2 spectrum is the j=0 spectrum of both branches, but
    the lambda = -1 realization (m -> -m) also has the decoupled regular
    solution (M, N) = (0, sin r) at eps = m (p^2 = 0), which no closed form
    lists and which would show up here as an extra level.

    Raises SpectrumError when two consecutive levels found differ by more
    than one node: a level between them was missed.
    """
    if m < 0:
        raise ValueError("mass must be non-negative")
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
    space at r = 0 to its reflection at the equator.
    """
    if j < 1:
        raise ValueError("shoot_j requires j >= 1; use shoot_j0")
    if m < 0:
        raise ValueError("mass must be non-negative")
    return _shoot(lambda_sign * m, j, config or ShootingConfig())


def compare_spectra(oracle: list[OracleEigenvalue], closed: list[SpectrumEntry],
                    rel_tol: float = MATCH_TOL) -> SpectrumComparison:
    """Greedy nearest-eps matching of oracle eigenvalues to closed entries;
    a pair matches when their eps agree to rel_tol."""
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
