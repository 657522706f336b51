"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are exact-value and property-based reproductions of the closed-form
results at desk scale, checked at the stated tolerances.  The family-iii
caveat applies throughout: its p^2 formula (j+2n)^2 only carries bound
states for n >= 1, which the independent shooting oracle confirms (no
eigenvalue at p^2 = j^2); spectrum identities still quantify over the full
formula range.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from dkradial._exprs import eval_r_cos2_all, hyp_expr
from dkradial.closedform import (
    Family,
    family_KM_exprs,
    family_levels,
    general_basis,
    spectrum,
    wavefunction_family,
)
from dkradial.hypergeo import Hyp2F1Params, gauss_2f1
from dkradial.model import (
    ModeParams,
    QuantumNumbers,
    factor_pair_K,
    factor_pair_M,
    operator_K4,
    operator_M4,
)
from dkradial.oracle import ShootingConfig, compare_spectra, shoot_j, shoot_j0
from dkradial.verify import (
    chebyshev_grid,
    factorization_identity,
    residual_operator_expr,
    wronskian4,
)
from factorization_battery import battery_residual

ALL_FAMILIES = (Family.F1, Family.F2, Family.F3, Family.F4)


def report(criterion: int, name: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion} [{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert passed, line


def test_criterion_1_j0_spectrum_reproduction():
    """shoot_j0 at m in {0,1,2} recovers eps^2 = m^2 - 1 + (2+n)^2 for
    n = 0..5, relative error <= 1e-6, runtime <= 10 s."""
    t0 = time.time()
    worst = 0.0
    ok = True
    for m in (0.0, 1.0, 2.0):
        hi = math.sqrt(m * m - 1 + 7.3**2)
        cfg = ShootingConfig(eps_scan=(0.2, hi))
        evs = shoot_j0(m, +1, cfg)
        expect = [math.sqrt(m * m - 1 + (2 + n) ** 2) for n in range(6)]
        if len(evs) != 6:
            ok = False
            break
        for ev, ex in zip(evs, expect):
            worst = max(worst, abs(ev.eps - ex) / ex)
    elapsed = time.time() - t0
    ok = ok and worst <= 1e-6 and elapsed <= 10.0
    report(1, "j=0 spectrum via shooting", ok,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def _scan_setup(j, m):
    required = [e for e in family_levels(j, 3, m)]  # bound only; F3 from n=1
    wider = family_levels(j, 8, m)
    p2_max = max(float(e.p_sq) for e in required)
    nxt = min(float(e.p_sq) for e in wider if float(e.p_sq) > p2_max + 1e-9)
    hi = math.sqrt((p2_max + nxt) / 2.0 + m * m)
    return required, ShootingConfig(eps_scan=(0.15, hi))


def test_criterion_2_j_spectrum_reproduction():
    """shoot_j at m in {0,1}, j in {1,2,3} recovers the union of the four
    family spectra for n = 0..3: no extra and no missing levels in range,
    relative error <= 1e-5, runtime <= 2 min.  The family-iii series
    contributes its bound levels (n >= 1); the shooting confirms the
    absence of a state at the formula's n=0 value p^2 = j^2."""
    t0 = time.time()
    ok = True
    detail = []
    for m in (0.0, 1.0):
        for j in (1, 2, 3):
            required, cfg = _scan_setup(j, m)
            evs = shoot_j(m, j, +1, cfg)
            cmp = compare_spectra(evs, required, rel_tol=1e-5)
            no_phantom = all(abs(ev.p_sq - j * j) > 0.5 for ev in evs)
            here = cmp.passed and no_phantom
            ok = ok and here
            if not here:
                detail.append(
                    f"j={j} m={m}: {len(cmp.matched)} matched, "
                    f"{len(cmp.unmatched_oracle)} extra, {len(cmp.unmatched_closed)} missing"
                )
    elapsed = time.time() - t0
    ok = ok and elapsed <= 120.0
    report(2, "j>=1 spectra via determinant shooting", ok,
           "; ".join(detail) or f"all 6 runs matched, {elapsed:.0f}s")


def _bound_states(j_max=3, n_max=3):
    for j in range(1, j_max + 1):
        for fam in ALL_FAMILIES:
            for n in range(n_max + 1):
                e = spectrum(fam, j, n, 0)
                if e.bound:
                    yield fam, j, n, float(e.p_sq)


def test_criterion_3_closed_form_residuals():
    """Every family wavefunction (j <= 3, n <= 3) annihilates its
    fourth-order operator to <= 1e-9 on the 200-point grid and satisfies
    the first-order system to <= 1e-9."""
    xg = chebyshev_grid()
    rg = np.concatenate([np.arccos(np.sqrt(xg)), math.pi - np.arccos(np.sqrt(xg))])
    worst_op, worst_sys = 0.0, 0.0
    for fam, j, n, p2 in _bound_states():
        a2 = j * (j + 1)
        K, M = family_KM_exprs(fam, j, n)
        worst_op = max(worst_op, residual_operator_expr(operator_K4(p2, a2), K, xg).max_rel_residual)
        worst_op = max(worst_op, residual_operator_expr(operator_M4(p2, a2), M, xg).max_rel_residual)

        params = ModeParams.from_p_sq(1.0, p2)
        sol = wavefunction_family(fam, QuantumNumbers(j, n), params, rg)
        eps, meff, a = params.eps, params.lambda_sign * params.m, math.sqrt(a2)
        d = dict(zip("KLMN", eval_r_cos2_all([sol.exprs[k].diff_r_cos2() for k in "KLMN"], rg)))
        s, ct = 1 / np.sin(rg), 1 / np.tan(rg)
        rows = [
            d["K"] + a * s * sol.M + (eps + meff) * sol.L,
            d["L"] - a * s * sol.N - (eps - meff) * sol.K,
            d["M"] + ct * sol.M + a * s * sol.K + (eps + meff) * sol.N,
            d["N"] - ct * sol.N - a * s * sol.L - (eps - meff) * sol.M,
        ]
        scale = max(np.abs(sol.K).max(), np.abs(sol.M).max(), np.abs(sol.L).max(),
                    np.abs(sol.N).max()) * max(eps + 1.0, a * np.abs(s).max())
        worst_sys = max(worst_sys, max(np.max(np.abs(r)) for r in rows) / scale)
    ok = worst_op <= 1e-9 and worst_sys <= 1e-9
    report(3, "closed-form operator and system residuals", ok,
           f"operator {worst_op:.2e}, system {worst_sys:.2e}")


def test_criterion_4_factorization_identity():
    """Composed outer.inner agrees with the direct fourth-order operator to
    <= 1e-10 for 10 random (p^2, a^2) pairs, both coefficient by
    coefficient and applied to the sampled battery of test functions;
    1%-perturbation negative controls fail both checks."""
    rng = random.Random(41)
    pairs = [(rng.uniform(0.5, 30.0), j * (j + 1)) for j in
             [rng.randint(1, 6) for _ in range(10)]]
    worst = battery_worst = 0.0
    controls_fail = True
    for idx, (p2, a2) in enumerate(pairs):
        for make_pair, make_direct in ((factor_pair_K, operator_K4), (factor_pair_M, operator_M4)):
            outer, inner = make_pair(p2, a2)
            direct = make_direct(p2, a2)
            worst = max(worst, factorization_identity(outer, inner, direct).max_rel_residual)
            battery_worst = max(battery_worst, battery_residual(outer, inner, direct))
        if idx < 2:
            outer, inner = factor_pair_K(p2, a2)
            direct = operator_K4(p2, a2)
            for k in range(3):
                for o, i in ((outer.with_perturbed_coeff(k, 1.01), inner),
                             (outer, inner.with_perturbed_coeff(k, 1.01))):
                    controls_fail &= not factorization_identity(o, i, direct).passed
                    controls_fail &= battery_residual(o, i, direct) >= 1e-10
    ok = worst <= 1e-10 and battery_worst <= 1e-10 and controls_fail
    report(4, "factorization identity + negative controls", ok,
           f"worst {worst:.2e}, battery {battery_worst:.2e}, controls fail: {controls_fail}")


def test_criterion_5_fundamental_system_independence():
    """4x4 Wronskian of the general basis at p = 2.3 exceeds 1e-6 after
    column normalization for j in {1,2}, x0 in {0.3, 0.6}; a dependent
    quadruple stays below 1e-12."""
    smallest = math.inf
    for j in (1, 2):
        basis = general_basis(j, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))
        for x0 in (0.3, 0.6):
            smallest = min(smallest, abs(wronskian4([b.exprs["K"] for b in basis], x0)))
    f1 = hyp_expr(1.0, 0, 0, 0.3, 1.7, 1.25)
    f2 = hyp_expr(1.0, 1, 0, -0.4, 2.1, 0.75)
    dependent = abs(wronskian4([f1, f2, f1 + f2, f1.scale(2.0)], 0.4))
    ok = smallest > 1e-6 and dependent < 1e-12
    report(5, "Wronskian independence of the general basis", ok,
           f"min |W| {smallest:.2e}, dependent {dependent:.2e}")


def test_criterion_6_degeneracy_identities():
    """p2_F2(j+1,n) = p2_F1(j,n) and p2_F3(j+1,n) = p2_F4(j,n) for all
    j <= 20, n <= 20, exact integer arithmetic, zero tolerance."""
    ok = True
    for j in range(1, 21):
        for n in range(21):
            ok &= spectrum(Family.F2, j + 1, n, 0).p_sq == spectrum(Family.F1, j, n, 0).p_sq
            ok &= spectrum(Family.F3, j + 1, n, 0).p_sq == spectrum(Family.F4, j, n, 0).p_sq
    report(6, "exact j-shift degeneracy identities", bool(ok), "420 pairs each, exact")


def test_criterion_7_no_coincidence_with_dirac():
    """The DK p^2 set (j <= 20, n <= 20, four families plus j0) and the
    Dirac set (J <= 41/2, n <= 20) are disjoint, exactly."""
    dk = set()
    for j in range(1, 21):
        for n in range(21):
            for fam in ALL_FAMILIES:
                dk.add(spectrum(fam, j, n, 0).p_sq)
    for n in range(21):
        dk.add(spectrum(Family.J0, 0, n, 0).p_sq)
    dirac = set()
    J = Fraction(1, 2)
    while J <= Fraction(41, 2):
        for n in range(21):
            dirac.add(spectrum(Family.DIRAC, J, n, 0).p_sq)
        J += 1
    inter = dk & dirac
    report(7, "DK and Dirac p^2 sets disjoint", not inter,
           f"|DK|={len(dk)}, |Dirac|={len(dirac)}, intersection={len(inter)}")


def _j0_pair_residual(n: int, m: float, ratio: float, lambda_sign: int) -> float:
    """Term-scaled residual of the first-order pair for amplitudes built
    with the given connecting ratio M0/N0.  lambda=-1 is the mass-sign
    substitution of the lambda=+1 pair.

    In x = cos^2 r, N = x^xp (1-x)^(1/2) F(-k, k+1+2xp; 1/2+2xp; x) with
    2k + 2xp = n + 1 and M = x^xp (1-x) F(-k, k+2+2xp; 1/2+2xp; x) with
    2k + 2xp = n, normalised at r -> 0 (x -> 1) to N ~ r/2 and
    M ~ ratio sin^2 r / 4 by F(-k, b; c; 1) = (c-b)_k / (c)_k."""
    eps = math.sqrt(m * m - 1.0 + (2 + n) ** 2)
    meff = lambda_sign * m

    def amplitude(value_at_0, xp, yp, degree, b0):
        k, c = int((degree - 2 * xp) / 2), 0.5 + 2 * xp
        b = k + b0 + 2 * xp
        at_1 = math.prod(c - b + i for i in range(k)) / math.prod(c + i for i in range(k))
        return hyp_expr(value_at_0 / at_1, xp, yp, -k, b, c)

    N = amplitude(0.5, Fraction(1, 2) * (n % 2 == 0), Fraction(1, 2), n + 1, 1)
    M = amplitude(ratio / 4, Fraction(1, 2) * (n % 2 == 1), 1, n, 2)
    grid = np.linspace(0.15, math.pi - 0.15, 161)
    Mv, Nv, dM, dN = eval_r_cos2_all([M, N, M.diff_r_cos2(), N.diff_r_cos2()], grid)
    ct = 1.0 / np.tan(grid)
    r1 = dM + ct * Mv + (eps + meff) * Nv
    r2 = dN - ct * Nv - (eps - meff) * Mv
    scale = max(np.abs(dM).max(), np.abs(dN).max(),
                (abs(eps) + abs(meff)) * max(np.abs(Mv).max(), np.abs(Nv).max()))
    return max(np.max(np.abs(r1)), np.max(np.abs(r2))) / scale


def test_criterion_8_j0_connecting_ratio():
    """M0/N0 = -(2/3)(eps - m) verified by substituting the assembled
    (M, N) into the first-order pair with residual <= 1e-9; a 1% ratio
    perturbation fails.  The printed ratio satisfies the pair on the
    lambda = -1 realization (mass-sign substitution); at m = 0 the two
    branches coincide and the pair is the lambda = +1 system verbatim."""
    worst = 0.0
    controls = True
    for m in (0.0, 1.0, 2.0):
        for n in (0, 1, 2):
            eps = math.sqrt(m * m - 1.0 + (2 + n) ** 2)
            ratio = -(2.0 / 3.0) * (eps - m)
            lam = -1 if m > 0 else +1
            worst = max(worst, _j0_pair_residual(n, m, ratio, lam))
            controls &= _j0_pair_residual(n, m, ratio * 1.01, lam) > 1e-9
    ok = worst <= 1e-9 and controls
    report(8, "j=0 connecting ratio -(2/3)(eps-m)", ok,
           f"worst residual {worst:.2e}, perturbed controls fail: {controls}")


def test_criterion_9_hypergeometric_kernel():
    """Gauss-ODE residual <= 1e-9 at 50 sample points for 20 random
    parameter sets; terminating series match a rational-arithmetic oracle
    to 1e-14 at ulp scale."""
    rng = random.Random(99)
    worst_ode = 0.0
    for _ in range(20):
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        c = rng.uniform(0.4, 4.0)
        kernel = hyp_expr(1.0, 0, 0, a, b, c)  # differentiated by Expr.diff, as verify does
        for x in np.linspace(0.02, 0.95, 50):
            s = c - a - b
            if x > 0.9 and abs(s - round(s)) <= 1e-8:
                continue
            f, f1, f2 = kernel.derivative_column(float(x), 2)
            terms = [x * (1 - x) * f2, (c - (a + b + 1) * x) * f1, -a * b * f]
            worst_ode = max(worst_ode, abs(sum(terms)) / max(abs(t) for t in terms))

    worst_poly = 0.0
    for _ in range(20):
        nn = rng.randint(1, 16)
        b = Fraction(rng.randint(1, 12))
        c = Fraction(rng.choice([1, 3, 5]), 2)
        xr = Fraction(rng.randrange(0, 980), 1000)
        term, total, scale = Fraction(1), Fraction(1), 1.0
        for k in range(nn):
            term *= (-nn + k) * (b + k) * xr / ((c + k) * (k + 1))
            total += term
            scale += abs(float(term))
        got = gauss_2f1(Hyp2F1Params(float(-nn), float(b), float(c)), float(xr))
        worst_poly = max(worst_poly, abs(got - float(total)) / scale)
    ok = worst_ode <= 1e-9 and worst_poly <= 1e-14
    report(9, "hypergeometric kernel (ODE residual + rational oracle)", ok,
           f"ODE {worst_ode:.2e}, oracle {worst_poly:.2e}")
