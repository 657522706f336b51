import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dkradial._exprs import Expr, hyp_expr
from dkradial.closedform import (
    FAMILIES,
    Family,
    family_KM_exprs,
    general_basis,
    spectrum,
    wavefunction_family,
    wavefunction_j0,
)
from dkradial.hypergeo import gauss_2f1
from dkradial.model import (
    ModeParams,
    QuantumNumbers,
    factor_pair_K,
    factor_pair_M,
    operator_K4,
    operator_M4,
)
from dkradial.verify import (
    chebyshev_grid,
    cross_consistency,
    factorization_identity,
    j0_pair_residual,
    residual_operator,
    residual_operator_expr,
    wronskian4,
    wronskian_report,
)
from factorization_battery import compose_apply, default_battery
from finite_difference import fd_derivatives


class TestGrid:
    def test_chebyshev_properties(self):
        g = chebyshev_grid()
        assert len(g) == 200
        assert g[0] >= 0.02 and g[-1] <= 0.98
        # clustering: end gaps much smaller than the middle gap
        gaps = np.diff(g)
        assert gaps[0] < gaps[len(gaps) // 2] / 10


class TestResidualOperator:
    def test_zero_function_passes(self):
        op = operator_K4(8.0, 2.0)
        x = chebyshev_grid(50)
        z = np.zeros_like(x)
        rep = residual_operator(op, x, [z, z, z, z, z])
        assert rep.passed and rep.max_rel_residual == 0.0

    def test_on_spectrum_solution_passes(self):
        e = spectrum(Family.F1, 1, 0, 0)
        K, _ = family_KM_exprs(Family.F1, 1, 0)
        rep = residual_operator_expr(operator_K4(float(e.p_sq), 2.0), K, chebyshev_grid())
        assert rep.passed and rep.max_rel_residual < 1e-9

    def test_wrong_p_sq_fails(self):
        K, _ = family_KM_exprs(Family.F1, 1, 0)
        rep = residual_operator_expr(operator_K4(8.5, 2.0), K, chebyshev_grid())
        assert not rep.passed and rep.max_rel_residual > 1e-2

    def test_endpoint_grid_rejected(self):
        op = operator_K4(8.0, 2.0)
        with pytest.raises(ValueError):
            residual_operator(op, np.array([1e-8, 0.5]), [np.zeros(2)] * 5)

    def test_grid_down_to_end_buffer(self):
        """A grid the END_BUFFER admits: x-derivatives of x^(1/2) terms are
        singular at x = 0 but finite on it, and every residual passes."""
        x = np.array([1e-6, 2e-6, 5e-6, 0.5])
        for fam in FAMILIES:
            p_sq = float(spectrum(fam, 2, 1, 0).p_sq)
            K, M = family_KM_exprs(fam, 2, 1)
            for op, expr in ((operator_K4(p_sq, 6.0), K), (operator_M4(p_sq, 6.0), M)):
                rep = residual_operator_expr(op, expr, x)
                assert rep.passed and rep.sample_count == 4

    def test_report_deterministic(self):
        e = spectrum(Family.F2, 2, 1, 0)
        K, _ = family_KM_exprs(Family.F2, 2, 1)
        r1 = residual_operator_expr(operator_K4(float(e.p_sq), 6.0), K, chebyshev_grid())
        r2 = residual_operator_expr(operator_K4(float(e.p_sq), 6.0), K, chebyshev_grid())
        assert r1.max_rel_residual == r2.max_rel_residual
        assert r1.details == r2.details


class TestExprEvaluation:
    @staticmethod
    def count_gauss_2f1(monkeypatch):
        """Patch _exprs.gauss_2f1 to record the grid size of every call."""
        from dkradial import _exprs

        sizes = []
        original = _exprs.gauss_2f1

        def counted(params, x):
            sizes.append(np.size(x))
            return original(params, x)

        monkeypatch.setattr(_exprs, "gauss_2f1", counted)
        return sizes

    def test_one_gauss_2f1_call_per_distinct_2f1(self, monkeypatch):
        """eval_x on a 200-point grid calls gauss_2f1 once per distinct
        hypergeometric factor with the whole grid, not once per term or point."""
        sizes = self.count_gauss_2f1(monkeypatch)
        x = chebyshev_grid()
        K, M = family_KM_exprs(Family.F3, 2, 2)
        for expr in (K, M, K.diff().diff(), M.diff().diff().diff()):
            sizes.clear()
            expr.eval_x(x)
            assert expr.terms and sizes == [len(x)] * len({t.f for t in expr.terms})

    def test_derivative_column_shares_2f1_across_orders(self, monkeypatch):
        """derivative_column(x, 4) evaluates each distinct 2F1 of all five
        orders once, with the whole grid."""
        sizes = self.count_gauss_2f1(monkeypatch)
        x = chebyshev_grid()
        K, _ = family_KM_exprs(Family.F1, 3, 2)
        exprs = [K]
        for _ in range(4):
            exprs.append(exprs[-1].diff())
        distinct = {t.f for e in exprs for t in e.terms}
        K.derivative_column(x, 4)
        assert sizes == [len(x)] * len(distinct)
        assert len(distinct) < sum(len({t.f for t in e.terms}) for e in exprs)

    def test_term_reached_two_ways_cancels(self):
        """Exponents are floats whatever the caller passes, so x^(1/2) * x^(1/2)
        and x^1 are one term and cancel."""
        a, b, c = -2.0, 3.5, 1.5
        half = hyp_expr(1, Fraction(1, 2), 0, a, b, c)
        assert (half.shift(Fraction(1, 2)) - hyp_expr(1, 1, 0, a, b, c)).terms == ()
        (term,) = hyp_expr(2, Fraction(-1, 2), 3, a, b, c).terms
        assert [type(v) for v in term[:3]] == [float, float, float]
        assert term[:3] == (2.0, -0.5, 3.0)

    def test_derivative_column_on_array(self):
        K, _ = family_KM_exprs(Family.F1, 1, 1)
        x = np.array([0.3, 0.6])
        rows = K.derivative_column(x, 4)
        assert rows.shape == (5, 2)
        for i, x0 in enumerate(x):
            assert np.array_equal(rows[:, i], K.derivative_column(x0, 4))


def reference_eval_x(expr, x):
    """Reference: every term evaluated from scratch, its products in the
    order coef, x^xp, (1-x)^yp, 2F1, and the terms summed in order."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for t in expr.terms:
        v = np.full_like(x, t.coef)
        if t.xp != 0:
            v = v * x ** t.xp
        if t.yp != 0:
            v = v * (1.0 - x) ** t.yp
        out += v * gauss_2f1(t.f, x)
    return out


def reference_eval_r_cos2(expr, r):
    """Reference: the even and the half-odd x-exponent terms each through
    reference_eval_x, the half-odd sum signed by cos r."""
    u = np.cos(r)
    out = np.zeros_like(r)
    odd = [t for t in expr.terms if (2 * t.xp) % 2 != 0]
    even = [t for t in expr.terms if (2 * t.xp) % 2 == 0]
    if even:
        out += reference_eval_x(Expr(even), u * u)
    if odd:
        out += np.where(u >= 0, 1.0, -1.0) * reference_eval_x(Expr(odd), u * u)
    return out


def same_bits(got, want):
    """Equal bit for bit: the sign of a zero counts, as a CSV prints it."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestEvaluationBitIdentity:
    """eval_x, eval_r_cos2 and derivative_column share each factor across
    terms and orders; every value equals the per-term reference bit for bit."""

    @staticmethod
    def check(expr, size=200):
        """Values on grids that reach x = 0 (r = pi/2 is one of the odd
        number of r points); x-derivatives, singular at x = 0 for a
        half-odd x-exponent, on the Chebyshev grid."""
        G = chebyshev_grid(size)
        X = np.concatenate([G, [0.0, 1e-7, 5e-6, 1e-5, 0.5]])
        R = np.linspace(1e-3, math.pi - 1e-3, size // 2 + 1)
        assert (np.abs(np.cos(R)) < 1e-12).sum() == 1
        assert same_bits(expr.eval_x(X), reference_eval_x(expr, X))
        on_r = reference_eval_r_cos2(expr, R)
        assert same_bits(expr.eval_r_cos2(R), on_r)
        assert same_bits(expr.eval_r_cos2(R[size // 4]), on_r[size // 4])
        want, e = [], expr
        for _ in range(5):
            want.append(reference_eval_x(e, G))
            e = e.diff()
        want = np.array(want)
        assert same_bits(expr.derivative_column(G, 4), want)
        assert same_bits(expr.derivative_column(G[7], 4), want[:, 7])

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_family_states(self, j):
        checked = 0
        for fam, seed in FAMILIES.items():
            for n in range(max(0, -seed.offset), 4):
                for expr in family_KM_exprs(fam, j, n):
                    self.check(expr)
                    self.check(expr.diff_r_cos2())
                    checked += 1
        assert checked == 2 * 15

    def test_general_basis_series_path(self):
        """Every non-empty amplitude runs the series path.  At j = 2 the L of
        the K-led seed with x-exponent 0 cancels term by term: it is empty and
        exactly zero."""
        empty = []
        for i, sol in enumerate(general_basis(2, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))):
            for name in "KLMN":
                expr = sol.exprs[name]
                self.check(expr, size=20)  # the series sums point by point
                if expr.terms:
                    assert any(not t.f.terminating for t in expr.terms)
                else:
                    empty.append((i, name))
                    assert not np.any(expr.eval_x(chebyshev_grid(20))) and not np.any(getattr(sol, name))
        assert empty == [(1, "L")]


class TestAmplitudesNearEquator:
    """Amplitudes and their r-derivatives are sums of terms finite at x = 0
    (r = pi/2), so one summation serves the whole interval."""

    def test_no_negative_x_exponent(self):
        solutions = []
        for fam, seed in FAMILIES.items():
            for j in range(1, 7):
                for n in range(max(0, -seed.offset), 5):
                    params = ModeParams.from_p_sq(1.0, float(spectrum(fam, j, n, 1).p_sq))
                    solutions.append(wavefunction_family(fam, QuantumNumbers(j, n), params, np.array([1.0])))
        for j in range(1, 7):
            solutions += general_basis(j, 2.3, ModeParams(m=1.0, eps=math.sqrt(2.3**2 + 1)), np.array([1.0]))
        assert len(solutions) == 4 * 6 * 5 - 6 + 4 * 6
        for sol in solutions:
            for name in "KLMN":
                expr = sol.exprs[name]
                for order in range(3):  # the amplitude and its first two r-derivatives
                    assert all(t.xp >= 0 for t in expr.terms), (sol.qn, name, order)
                    expr = expr.diff_r_cos2()

    NEAR = (0.0, 1e-12, 1e-7, 5e-6)

    @staticmethod
    def reference(j, lead, xp, lam, x):
        """(K, M) at x in 50 digits: the seed, and the lacking amplitude as
        x^(xp-1/2) (1-x)^(j/2) / a times the bracket
        2k(x-1) F(1-k, b; g; x) - (cx + 2k(x-1) + d) F(-k, b; g; x), whose
        limit at x = 0 is 0 for xp = 0 (the bracket vanishes there)."""
        with mpmath.workdps(50):
            x, xp, lam = mpmath.mpf(x), mpmath.mpf(xp), mpmath.mpf(lam)
            k = (lam - j - 1 - 2 * xp) / 2
            g, b = mpmath.mpf(1) / 2 + 2 * xp, j + k + 1 + 2 * xp
            c, d = j + 2 * xp + (1 if lead == "M" else 0), -1 if xp else 0
            seed = x**xp * (1 - x) ** (mpmath.mpf(j) / 2) * mpmath.hyp2f1(-k, b, g, x)
            if x == 0 and xp == 0:
                lacking = mpmath.mpf(0)
            else:
                bracket = (2 * k * (x - 1) * mpmath.hyp2f1(1 - k, b, g, x)
                           - (c * x + 2 * k * (x - 1) + d) * mpmath.hyp2f1(-k, b, g, x))
                lacking = x ** (xp - mpmath.mpf(1) / 2) * (1 - x) ** (mpmath.mpf(j) / 2) * bracket
                lacking /= mpmath.sqrt(j * (j + 1))
            return [float(v) for v in ((seed, lacking) if lead == "K" else (lacking, seed))]

    def check(self, j, lead, xp, lam, K, M):
        x = np.concatenate([self.NEAR, chebyshev_grid(16)])
        want = np.array([self.reference(j, lead, xp, lam, v) for v in x]).T
        for got, ref in zip((K.eval_x(x), M.eval_x(x)), want):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("family", [Family.F2, Family.F4])
    def test_families_against_mpmath(self, family):
        seed = FAMILIES[family]
        for j in (1, 2, 4):
            for n in range(4):
                lam = seed.xp * 2 + j + 1 + 2 * (n + seed.offset)
                self.check(j, seed.lead, seed.xp, lam, *family_KM_exprs(family, j, n))

    def test_general_basis_against_mpmath(self):
        p = 2.3
        for j in (1, 2, 3):
            basis = general_basis(j, p, ModeParams(m=0.0, eps=p), np.array([1.0]))
            for sol, (lead, xp, _) in zip(basis, FAMILIES.values()):
                lam = math.sqrt(p * p + 1) if lead == "K" else p
                self.check(j, lead, xp, lam, sol.exprs["K"], sol.exprs["M"])


class TestFactorization:
    # (8, 6) is j = 2 family ii n = 0, where every term of the direct K
    # operator applied to phi = x vanishes at x = 1/2
    @pytest.mark.parametrize("p_sq,a_sq", [(8.0, 2.0), (3.3, 6.0), (15.0, 12.0), (8.0, 6.0), (8, 6)])
    def test_identity(self, p_sq, a_sq):
        rep = factorization_identity(*factor_pair_K(p_sq, a_sq), operator_K4(p_sq, a_sq))
        assert rep.passed
        rep = factorization_identity(*factor_pair_M(p_sq, a_sq), operator_M4(p_sq, a_sq))
        assert rep.passed

    def test_exact_input_gives_exact_zero(self):
        """Every family level for j = 1..6, n <= 3, and integer p^2 off the
        spectrum: the exact comparison leaves no residual at all."""
        for j in range(1, 7):
            a_sq = j * (j + 1)
            levels = {spectrum(fam, j, n, 0).p_sq for fam in (Family.F1, Family.F2, Family.F3, Family.F4)
                      for n in range(4)}
            for p_sq in sorted(levels | {0, 2, 5, Fraction(7, 3)}):
                for make_pair, make_direct in ((factor_pair_K, operator_K4), (factor_pair_M, operator_M4)):
                    rep = factorization_identity(*make_pair(p_sq, a_sq), make_direct(p_sq, a_sq))
                    assert rep.max_rel_residual == 0.0, (j, p_sq, make_direct.__name__)

    def test_constant_function_gives_c0(self):
        # phi == 1: both sides reduce to the zero-order coefficients
        outer, inner = factor_pair_K(8.0, 2.0)
        direct = operator_K4(8.0, 2.0)
        x = np.linspace(0.05, 0.95, 19)
        one = [np.ones_like(x)] + [np.zeros_like(x)] * 4
        lhs = x**2 * compose_apply(outer, inner, x, one)
        rhs = direct.apply(x, one)
        assert np.allclose(lhs, direct.coeffs[0](x), rtol=1e-12)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_every_coefficient_perturbation_detected(self):
        for p_sq, a_sq, factor in ((8.0, 2.0, 1.01), (8, 2, Fraction(101, 100))):
            outer, inner = factor_pair_K(p_sq, a_sq)
            direct = operator_K4(p_sq, a_sq)
            for which, k in (("outer", 0), ("outer", 1), ("outer", 2),
                             ("inner", 0), ("inner", 1), ("inner", 2)):
                o, i = outer, inner
                if which == "outer":
                    o = o.with_perturbed_coeff(k, factor)
                else:
                    i = i.with_perturbed_coeff(k, factor)
                rep = factorization_identity(o, i, direct)
                assert not rep.passed, f"{which} c{k} perturbation by {factor} went unnoticed"

    @pytest.mark.parametrize("p_sq,a_sq", [(8.0, 2.0), (8, 2)])
    def test_wrong_direct_operator_detected(self, p_sq, a_sq):
        rep = factorization_identity(*factor_pair_K(p_sq, a_sq), operator_M4(p_sq, a_sq))
        assert not rep.passed


class TestWronskian:
    def test_dependent_quadruple_vanishes(self):
        f1 = hyp_expr(1.0, 0, 0, 0.3, 1.7, 1.25)
        f2 = hyp_expr(1.0, 1, 0, -0.4, 2.1, 0.75)
        f3 = f1 + f2
        f4 = f1.scale(2.0)
        w = wronskian4([f1, f2, f3, f4], 0.4)
        assert abs(w) < 1e-12

    def test_general_basis_independent(self):
        for j in (1, 2):
            basis = general_basis(j, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))
            for x0 in (0.3, 0.6):
                w = wronskian4([b.exprs["K"] for b in basis], x0)
                assert abs(w) > 1e-6

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the equilibrated |W| falls with j")
    def test_general_basis_independent_j3(self):
        """Known false failure: the j = 3 basis is independent (its raw Wronskian
        obeys Abel's identity), but the equilibrated |W| at x0 = 0.6 is 2.6e-7,
        under the 1e-6 gate, so `verify --suite wronskian --j 3` exits 1."""
        basis = general_basis(3, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))
        assert wronskian_report(wronskian4([b.exprs["K"] for b in basis], 0.6), 0.6, "w").passed

    def test_antisymmetry_under_swap(self):
        basis = general_basis(1, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))
        sols = [b.exprs["K"] for b in basis]
        w = wronskian4(sols, 0.4)
        sols[1], sols[2] = sols[2], sols[1]
        w_swapped = wronskian4(sols, 0.4)
        assert w_swapped == pytest.approx(-w, rel=1e-12)

    def test_x0_bounds(self):
        basis = general_basis(1, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))
        with pytest.raises(ValueError):
            wronskian4([b.exprs["K"] for b in basis], 0.01)

    def test_report_threshold(self):
        """Passes exactly when |w| > 1e-6."""
        assert not wronskian_report(1e-6, 0.3, "w").passed
        assert wronskian_report(math.nextafter(1e-6, 1), 0.3, "w").passed
        assert wronskian_report(-1e-3, 0.3, "w").passed
        zero = wronskian_report(0.0, 0.3, "w")
        assert not zero.passed and zero.max_rel_residual == math.inf
        assert wronskian_report(0.25, 0.6, "w").to_dict()["worst_points"] == [[0.6, 0.25]]


class TestJ0Pair:
    def solution(self, lam):
        eps = math.sqrt(1.0 - 1.0 + 3.0**2)  # m=1, n=1
        grid = np.linspace(0.05, math.pi - 0.05, 101)
        return wavefunction_j0(1, ModeParams(m=1.0, eps=eps, lambda_sign=lam), grid)

    @pytest.mark.parametrize("lam", [1, -1])
    def test_on_spectrum_passes(self, lam):
        rep = j0_pair_residual(self.solution(lam))
        assert rep.passed and rep.max_rel_residual < 1e-12
        assert rep.sample_count == 101 and len(rep.details) == 3
        assert rep.check_name == f"j0-pair[n=1 lambda={lam:+d}]"

    def test_perturbed_amplitude_fails(self):
        sol = self.solution(1)
        rep = j0_pair_residual(dataclasses.replace(sol, M=sol.M * 1.01))
        assert not rep.passed


class TestCrossConsistency:
    @pytest.mark.parametrize(
        "family,j,n",
        [(Family.F1, 1, 0), (Family.F2, 2, 1), (Family.F3, 1, 1), (Family.F4, 3, 2)],
    )
    def test_families(self, family, j, n):
        entry = spectrum(family, j, n, 1)
        params = ModeParams.from_p_sq(1.0, float(entry.p_sq))
        rep = cross_consistency(family, QuantumNumbers(j, n), params)
        assert rep.passed and rep.max_rel_residual < 1e-10

    MUTATIONS = {
        "scaled": lambda lack, j, xp: lack.scale(1 + 1e-8),
        "first-term-dropped": lambda lack, j, xp: Expr(lack.terms[1:]),
        "seed-shape-added": lambda lack, j, xp: lack + hyp_expr(1e-6, xp, j / 2, 0, 1, 1),
    }

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_mutated_lacking_amplitude_fails(self, monkeypatch, family, mutation):
        """A lacking amplitude (M when K leads, K when M leads) that is off in
        any of three ways fails the system residual at every state."""
        from dkradial import closedform

        original, mutate = closedform._km_exprs, self.MUTATIONS[mutation]

        def mutated(j, lead, xp, lam):
            K, M = original(j, lead, xp, lam)
            return (K, mutate(M, j, xp)) if lead == "K" else (mutate(K, j, xp), M)

        monkeypatch.setattr(closedform, "_km_exprs", mutated)
        for j in (1, 2, 3):
            for n in range(-FAMILIES[family].offset, 4):
                entry = spectrum(family, j, n, 1)
                rep = cross_consistency(family, QuantumNumbers(j, n), ModeParams.from_p_sq(1.0, float(entry.p_sq)))
                assert not rep.passed, (j, n, rep.max_rel_residual)


class TestBattery:
    def test_derivatives_consistent(self):
        """Each listed derivative is the central difference of the one before."""
        x = np.linspace(0.1, 0.9, 41)
        h = 1e-6
        battery = default_battery(x)
        assert [name for name, _ in battery] == [f"x^{d}" for d in range(1, 7)] + [f"sin({k}x)" for k in (1, 2, 3)]
        for (name, d), (_, dp), (_, dm) in zip(battery, default_battery(x + h), default_battery(x - h)):
            assert len(d) == 5
            for k in range(4):
                num = (dp[k] - dm[k]) / (2 * h)
                assert np.allclose(d[k + 1], num, rtol=1e-7, atol=1e-7), (name, k)


class TestFiniteDifference:
    def test_matches_analytic_on_nonuniform_nodes(self):
        x = np.sort(np.concatenate([np.linspace(0.1, 0.9, 120), [0.33, 0.57]]))
        y = np.exp(x) * np.sin(2 * x)
        d1 = fd_derivatives(x, y, 1)
        expect = np.exp(x) * (np.sin(2 * x) + 2 * np.cos(2 * x))
        assert np.allclose(d1, expect, rtol=1e-8, atol=1e-8)
