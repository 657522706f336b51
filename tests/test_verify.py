import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dkradial import closedform
from dkradial._exprs import Expr, Term, eval_r_cos2_all, hyp_expr
from dkradial.closedform import (
    FAMILIES,
    Family,
    family_KM_exprs,
    general_basis,
    spectrum,
    wavefunction_family,
    wavefunction_j0,
)
from dkradial.hypergeo import Hyp2F1DomainError, Hyp2F1Params, gauss_2f1
from dkradial.model import (
    LinearDifferentialOperator,
    ModeParams,
    QuantumNumbers,
    RationalCoefficient,
    factor_pair_K,
    factor_pair_M,
    operator_K4,
    operator_M4,
    system,
)
from dkradial import verify
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
from test_exact_structure import reference_matrix


class TestGrid:
    def test_chebyshev_properties(self):
        g = chebyshev_grid()
        assert len(g) == 200
        assert g[0] >= 0.02 and g[-1] <= 0.98
        # clustering: end gaps much smaller than the middle gap
        gaps = np.diff(g)
        assert gaps[0] < gaps[len(gaps) // 2] / 10

    def test_default_nodes(self):
        """200 points strictly inside (0.02, 0.98), the extreme ones at the
        Chebyshev nodes 0.5 -+ 0.48 cos(pi/400), sorted and symmetric about 0.5."""
        g = chebyshev_grid()
        assert g.shape == (200,) and np.all(np.diff(g) > 0)
        assert g[0] > 0.02 and g[-1] < 0.98
        assert g[0] == pytest.approx(0.5 - 0.48 * math.cos(math.pi / 400), rel=1e-15)
        assert g[-1] == pytest.approx(0.5 + 0.48 * math.cos(math.pi / 400), rel=1e-15)
        assert np.allclose(g + g[::-1], 1.0, rtol=0, atol=1e-15)

    def test_cross_consistency_grid(self, monkeypatch):
        """cross_consistency samples r = arccos sqrt(x) on chebyshev_grid()
        followed by its mirror pi - r: 400 points, every worst point among them."""
        seen = []
        original = verify._system_report

        def recorded(exprs, qn, params, r, *args):
            seen.append(r)
            return original(exprs, qn, params, r, *args)

        monkeypatch.setattr(verify, "_system_report", recorded)
        r = np.arccos(np.sqrt(chebyshev_grid()))
        want = np.concatenate([r, np.pi - r])
        for fam in FAMILIES:
            params = ModeParams.from_p_sq(1.0, float(spectrum(fam, 2, 1, 1).p_sq))
            rep = cross_consistency(fam, QuantumNumbers(2, 1), params)
            assert rep.sample_count == 400 and same_bits(seen.pop(), want)
            assert all(p[0] in want for p in rep.details)

    def test_check_grids_pinned(self):
        """The grids every check runs on: 200 Chebyshev points on
        [0.02, 0.98], their 400 mirrored r, and 101 even r steps 0.05 away
        from both poles for the j = 0 pair."""
        g, half = chebyshev_grid(), np.cos(math.pi / 400)
        assert g.size == 200 and (g[0], g[-1]) == pytest.approx((0.5 - 0.48 * half, 0.5 + 0.48 * half), rel=1e-15)
        r = verify._CROSS_R
        assert r.size == 400 and same_bits(r[200:], np.pi - r[:200])
        assert same_bits(r[:200], np.arccos(np.sqrt(g)))
        assert (r[0], r[199]) == pytest.approx((math.acos(math.sqrt(0.5 - 0.48 * half)),
                                                math.acos(math.sqrt(0.5 + 0.48 * half))), rel=1e-14)
        r0 = verify._J0_R
        assert r0.size == 101 and (r0[0], r0[-1]) == (0.05, math.pi - 0.05)
        assert np.allclose(np.diff(r0), (math.pi - 0.1) / 100, rtol=1e-12, atol=0)


class TestWorstPoints:
    """A report keeps its worst points by falling residual, ties by
    ascending grid index, whatever sort numpy would pick."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        for size in (1, 2, 3, 4, 17, 400):
            for rel in (rng.random(size), rng.integers(0, 3, size).astype(float), np.zeros(size),
                        np.where(rng.random(size) < 0.3, np.nan, rng.integers(0, 2, size).astype(float))):
                x = np.arange(size) / size
                for keep in (1, 3, 5):
                    got = verify._report("t", x, rel, 1.0, keep).details
                    assert [xi for xi, _ in got] == [x[i] for i in np.argsort(-rel, kind="stable")[:keep]]

    def test_ties_take_the_first_points(self):
        x = np.linspace(0.1, 0.9, 9)
        rep = verify._report("t", x, np.array([0, 2, 1, 2, 0, 2, 1, 0, 2], dtype=float), 1.0)
        assert rep.details == [(x[1], 2.0), (x[3], 2.0), (x[5], 2.0)]
        assert verify._report("t", x, np.zeros(9), 1.0).details == [(x[0], 0.0), (x[1], 0.0), (x[2], 0.0)]


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

    @staticmethod
    def family_states(j_max=3, n_max=3):
        """(K4, M4, K, M) for every family state with j <= j_max, n <= n_max."""
        for fam, seed in FAMILIES.items():
            for j in range(1, j_max + 1):
                for n in range(max(0, -seed.offset), n_max + 1):
                    p_sq = float(spectrum(fam, j, n, 0).p_sq)
                    yield (operator_K4(p_sq, j * (j + 1)), operator_M4(p_sq, j * (j + 1)),
                           *family_KM_exprs(fam, j, n))

    def test_same_bits_as_apply_and_term_magnitudes(self):
        """The residual and scale from one pass over the term rows equal,
        bit for bit, apply's sum (zeros, then k = 0..order) and the largest
        term magnitude, each coefficient evaluated on its own."""
        x = chebyshev_grid()
        checked = 0
        for K4, M4, K, M in self.family_states():
            for op, expr in ((K4, K), (M4, M)):
                derivs = expr.derivative_column(x, 4)
                resid, mags = np.zeros_like(x), []
                for k in range(5):
                    resid = resid + op.coeffs[k](x) * derivs[k]
                    mags.append(np.abs(op.coeffs[k](x) * derivs[k]))
                scale = np.array(mags).max(axis=0)
                want = verify._report("r", x, np.abs(resid) / np.where(scale > 0, scale, 1.0), verify.RESIDUAL_TOL)
                got = residual_operator(op, x, derivs, "r")
                assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
                assert same_bits(op.apply(x, derivs), resid)
                assert same_bits(op.term_magnitudes(x, derivs), np.array(mags))
                checked += 1
        assert checked == 2 * 3 * 15

    @pytest.mark.parametrize("k", range(5))
    def test_perturbed_coefficient_fails(self, k):
        """Every family state with j, n <= 3 fails K4 and M4 with c_k off by
        a factor 1 + 1e-6, unless its y^(k) vanishes identically (a
        polynomial amplitude of degree below k, e.g. K = 1 - x)."""
        x = chebyshev_grid()
        checked = 0
        for K4, M4, K, M in self.family_states():
            for op, expr in ((K4, K), (M4, M)):
                assert residual_operator_expr(op, expr, x).passed
                if not np.any(expr.derivative_column(x, 4)[k]):
                    continue
                rep = residual_operator_expr(op.with_perturbed_coeff(k, 1 + 1e-6), expr, x)
                assert not rep.passed, (k, rep.max_rel_residual)
                checked += 1
        assert checked >= 80

    def test_too_few_derivative_rows(self):
        x = chebyshev_grid(20)
        op = operator_K4(8.0, 2.0)
        with pytest.raises(ValueError, match="not enough derivatives"):
            residual_operator(op, x, [np.zeros_like(x)] * 4)

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
        """Patch _exprs.gauss_2f1 to record (params, grid size) of every call."""
        from dkradial import _exprs

        calls = []
        original = _exprs.gauss_2f1

        def counted(params, x):
            calls.append((params, np.size(x)))
            return original(params, x)

        monkeypatch.setattr(_exprs, "gauss_2f1", counted)
        return calls

    @staticmethod
    def distinct_2f1(exprs):
        """The distinct 2F1 of exprs that are not exactly 1 (no zero upper
        parameter): the ones a table evaluates."""
        return {t.f for e in exprs for t in e.terms if t.f.alpha != 0.0 and t.f.beta != 0.0}

    @staticmethod
    def one_call_each(calls, params, size) -> bool:
        """calls holds exactly one call per entry of params, each with size points."""
        return sorted(calls, key=repr) == sorted(((f, size) for f in params), key=repr)

    def test_one_gauss_2f1_call_per_distinct_2f1(self, monkeypatch):
        """eval_x on a 200-point grid calls gauss_2f1 once per distinct
        hypergeometric factor that is not exactly 1, with the whole grid, not
        once per term or point."""
        calls = self.count_gauss_2f1(monkeypatch)
        x = chebyshev_grid()
        K, M = family_KM_exprs(Family.F3, 2, 2)
        for expr in (K, M, K.diff().diff(), M.diff().diff().diff()):
            calls.clear()
            expr.eval_x(x)
            assert expr.terms and self.one_call_each(calls, self.distinct_2f1([expr]), len(x))

    def test_derivative_column_shares_2f1_across_orders(self, monkeypatch):
        """derivative_column(x, 4) evaluates each distinct non-exact-one 2F1
        of all five orders once, with the whole grid."""
        calls = self.count_gauss_2f1(monkeypatch)
        x = chebyshev_grid()
        K, _ = family_KM_exprs(Family.F1, 3, 2)
        exprs = [K]
        for _ in range(4):
            exprs.append(exprs[-1].diff())
        distinct = self.distinct_2f1(exprs)
        K.derivative_column(x, 4)
        assert self.one_call_each(calls, distinct, len(x))
        assert len(distinct) < sum(len(self.distinct_2f1([e])) for e in exprs)

    def test_sampled_solution_shares_2f1_across_amplitudes(self, monkeypatch):
        """wavefunction_family samples K, L, M and N from one table: one
        gauss_2f1 call per distinct non-exact-one 2F1 over the four
        amplitudes, with the whole grid."""
        calls = self.count_gauss_2f1(monkeypatch)
        r = np.linspace(0.05, math.pi - 0.05, 101)
        for fam in FAMILIES:
            calls.clear()
            entry = spectrum(fam, 2, 2, 1)
            sol = wavefunction_family(fam, QuantumNumbers(2, 2), ModeParams.from_p_sq(1.0, float(entry.p_sq)), r)
            distinct = self.distinct_2f1(sol.exprs.values())
            assert self.one_call_each(calls, distinct, len(r))
            assert len(distinct) < sum(len(self.distinct_2f1([e])) for e in sol.exprs.values())

    def test_wavefunction_j0_one_table(self, monkeypatch):
        """wavefunction_j0 samples M and N from one table: one gauss_2f1
        call per distinct non-exact-one 2F1, with the whole grid (none at
        n = 0, where both are exact ones)."""
        calls = self.count_gauss_2f1(monkeypatch)
        r = np.linspace(0.05, math.pi - 0.05, 101)
        for n in (0, 1, 6):
            calls.clear()
            eps = math.sqrt(-1.0 + (n + 2) ** 2)
            sol = wavefunction_j0(n, ModeParams(m=0.0, eps=eps), r)
            assert self.one_call_each(calls, self.distinct_2f1(sol.exprs.values()), len(r))

    def test_cross_consistency_one_table(self, monkeypatch):
        """cross_consistency samples the four amplitudes and their four
        r-derivatives from one table: one gauss_2f1 call per distinct
        non-exact-one 2F1 of all eight, each with all 400 r points."""
        calls = self.count_gauss_2f1(monkeypatch)
        for fam in FAMILIES:
            entry = spectrum(fam, 3, 2, 1)
            params = ModeParams.from_p_sq(1.0, float(entry.p_sq))
            exprs = wavefunction_family(fam, QuantumNumbers(3, 2), params, np.array([1.0])).exprs.values()
            calls.clear()
            assert cross_consistency(fam, QuantumNumbers(3, 2), params).passed
            distinct = self.distinct_2f1([*exprs, *(e.diff_r_cos2() for e in exprs)])
            assert self.one_call_each(calls, distinct, 400)
            assert len(distinct) < len(self.distinct_2f1(exprs)) + len(self.distinct_2f1(e.diff_r_cos2() for e in exprs))

    def test_wronskian_suite_evaluates_only_at_its_points(self, monkeypatch, capsys):
        """The CLI Wronskian check takes its expressions from
        general_basis_exprs: every gauss_2f1 call it makes is at x0 = 0.3
        or 0.6, where wronskian4 reads them, none on a sampling grid."""
        from dkradial import _exprs
        from dkradial.cli import main

        xs, original = [], _exprs.gauss_2f1
        monkeypatch.setattr(_exprs, "gauss_2f1", lambda params, x: xs.append(float(x[0])) or original(params, x))
        assert main(["verify", "--suite", "wronskian", "--j", "2"]) == 0
        capsys.readouterr()
        assert xs and set(xs) == {0.3, 0.6}

    def test_no_exact_one_reaches_gauss_2f1(self, monkeypatch):
        """Over the 45 family states with j, n <= 3 (operator residuals and
        cross-consistency), the j = 0 pair and the general basis, every
        2F1 that reaches gauss_2f1 has nonzero upper parameters, although
        the family and j = 0 amplitudes hold exact ones (the general basis,
        at real lam, holds none)."""
        calls = self.count_gauss_2f1(monkeypatch)
        exact_one = {"family": 0, "j0": 0}

        def count(part, exprs):
            exact_one[part] += sum(t.f.alpha == 0.0 or t.f.beta == 0.0 for e in exprs for t in e.terms)

        x, states = chebyshev_grid(), 0
        for fam, seed in FAMILIES.items():
            for j in range(1, 4):
                for n in range(max(0, -seed.offset), 4):
                    p_sq = float(spectrum(fam, j, n, 0).p_sq)
                    K, M = family_KM_exprs(fam, j, n)
                    residual_operator_expr(operator_K4(p_sq, j * (j + 1)), K, x)
                    residual_operator_expr(operator_M4(p_sq, j * (j + 1)), M, x)
                    params = ModeParams.from_p_sq(1.0, p_sq)
                    cross_consistency(fam, QuantumNumbers(j, n), params)
                    exprs = closedform.family_exprs(fam, QuantumNumbers(j, n), params).values()
                    count("family", [*exprs, *(e.diff_r_cos2() for e in exprs)])
                    states += 1
        for n in range(4):
            for lam in (1, -1):
                params = ModeParams.from_p_sq(1.0, spectrum(Family.J0, 0, n, 1).p_sq, lam)
                j0_pair_residual(n, params)
                exprs = closedform.j0_exprs(n, params).values()
                count("j0", [*exprs, *(e.diff_r_cos2() for e in exprs)])
        for j in (1, 2, 3):
            basis = general_basis(j, 2.3, ModeParams(m=1.0, eps=math.sqrt(2.3**2 + 1)), verify._CROSS_R)
            wronskian4([sol.exprs["K"] for sol in basis], 0.3)
            for sol in basis:
                verify._system_report(sol.exprs, sol.qn, sol.params, sol.grid, "g", verify.IDENTITY_TOL)
        assert states == 45 and all(exact_one.values()), exact_one
        assert calls and not [f for f, _ in calls if f.alpha == 0.0 or f.beta == 0.0]

    def test_exact_one_table_checks_its_grid(self):
        """At n = 0 both j = 0 amplitudes are exact-one 2F1 terms; r = 0
        (x = 1) still raises Hyp2F1DomainError, from the table's one check."""
        params = ModeParams(m=0.0, eps=math.sqrt(3.0))
        exprs = closedform.j0_exprs(0, params).values()
        assert all(t.f.alpha == 0.0 or t.f.beta == 0.0 for e in exprs for t in e.terms)
        with pytest.raises(Hyp2F1DomainError, match="outside"):
            wavefunction_j0(0, params, [0.0])

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


class ReferenceExpr:
    """Reference: the term algebra as a tuple of Terms, merged on
    (xp, yp, alpha, beta, gamma) by summing from 0.0 in order of first
    occurrence and dropping zero sums, after every operation."""

    def __init__(self, terms):
        merged = {}
        for t in terms:
            key = (t.xp, t.yp, t.f.alpha, t.f.beta, t.f.gamma)
            merged[key] = (merged.get(key, (0.0,))[0] + t.coef, t.f)
        self.terms = tuple(Term(c, k[0], k[1], f) for k, (c, f) in merged.items() if c != 0.0)

    def __add__(self, other):
        return ReferenceExpr(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return ReferenceExpr([Term(t.coef * c, t.xp, t.yp, t.f) for t in self.terms])

    def shift(self, dxp=0, dyp=0):
        return ReferenceExpr([Term(t.coef, t.xp + dxp, t.yp + dyp, t.f) for t in self.terms])

    def diff(self):
        out = []
        for t in self.terms:
            if t.xp != 0:
                out.append(Term(t.coef * t.xp, t.xp - 1, t.yp, t.f))
            if t.yp != 0:
                out.append(Term(-t.coef * t.yp, t.xp, t.yp - 1, t.f))
            fac = t.f.alpha * t.f.beta / t.f.gamma
            if fac != 0.0:
                f = Hyp2F1Params(t.f.alpha + 1, t.f.beta + 1, t.f.gamma + 1)
                out.append(Term(t.coef * fac, t.xp, t.yp, f))
        return ReferenceExpr(out)

    def diff_r_cos2(self):
        return self.diff().shift(0.5, 0.5).scale(-2.0)


def reference_hyp_expr(coef, xp, yp, a, b, c):
    return ReferenceExpr([Term(float(coef), float(xp), float(yp), Hyp2F1Params(float(a), float(b), float(c)))])


def same_bits(got, want):
    """Equal bit for bit: the sign of a zero counts, as a CSV prints it."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestEvaluationBitIdentity:
    """eval_x, eval_r_cos2_all and derivative_column share each factor across
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
        assert same_bits(eval_r_cos2_all([expr], R)[0], on_r)
        assert same_bits(eval_r_cos2_all([expr], R[size // 4])[0], on_r[size // 4])
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

    @staticmethod
    def check_all(exprs, size=200):
        """eval_r_cos2_all on a list equals the reference for each entry, on
        check's r grid and at a scalar r."""
        R = np.linspace(1e-3, math.pi - 1e-3, size // 2 + 1)
        got = eval_r_cos2_all(exprs, R)
        assert len(got) == len(exprs)
        for g, e in zip(got, exprs):
            assert same_bits(g, reference_eval_r_cos2(e, R))
        for i in (0, size // 4, size // 2):  # r = pi/2 (x = 0) included
            for g, e in zip(eval_r_cos2_all(exprs, R[i]), exprs):
                assert same_bits(g, reference_eval_r_cos2(e, R)[i])

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_family_solutions_in_one_table(self, j):
        """The four amplitudes of every family state, and their
        r-derivatives, evaluated together."""
        for fam, seed in FAMILIES.items():
            for n in range(max(0, -seed.offset), 4):
                params = ModeParams.from_p_sq(1.0, float(spectrum(fam, j, n, 1).p_sq))
                exprs = list(wavefunction_family(fam, QuantumNumbers(j, n), params, np.array([1.0])).exprs.values())
                self.check_all(exprs)
                self.check_all([e.diff_r_cos2() for e in exprs])

    def test_general_basis_in_one_table(self):
        """The four amplitudes of each general-basis solution (one of them
        empty) through the series path."""
        for sol in general_basis(2, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0])):
            self.check_all(list(sol.exprs.values()), size=20)
        self.check_all([])

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


class TestTermAlgebraBitIdentity:
    """Every Expr built by the amplitude builders, and each of its
    derivatives, holds the terms of ReferenceExpr in the same order with the
    same coefficient bits."""

    @staticmethod
    def same_terms(got, want) -> bool:
        def key(e):
            return [(t.coef.hex(), t.xp, t.yp, t.f) for t in e.terms]

        return key(got) == key(want)

    def check(self, monkeypatch, j, lead, xp, lam, eps_plus_m):
        """(K, M) from _km_exprs, their diff chains to order 4, their
        diff_r_cos2 and their (L, N) elimination, against the same
        builders run on ReferenceExpr."""
        K, M = closedform._km_exprs(j, lead, xp, lam)
        with monkeypatch.context() as m:
            m.setattr(closedform, "hyp_expr", reference_hyp_expr)
            RK, RM = closedform._km_exprs(j, lead, xp, lam)
        assert isinstance(RK, ReferenceExpr) and isinstance(RM, ReferenceExpr)
        for e, r in ((K, RK), (M, RM)):
            assert e.terms and self.same_terms(e, r)
            assert self.same_terms(e.diff_r_cos2(), r.diff_r_cos2())
            for _ in range(4):
                e, r = e.diff(), r.diff()
                assert self.same_terms(e, r)
        a = math.sqrt(j * (j + 1))
        for e, r in zip(closedform._elimination_LN(K, M, a, eps_plus_m),
                        closedform._elimination_LN(RK, RM, a, eps_plus_m)):
            assert self.same_terms(e, r)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_family_states(self, monkeypatch, j):
        checked = 0
        for fam, seed in FAMILIES.items():
            for n in range(max(0, -seed.offset), 4):
                eps_plus_m = spectrum(fam, j, n, 1).eps() + 1.0
                self.check(monkeypatch, j, seed.lead, seed.xp, closedform._lam(fam, j, n), eps_plus_m)
                checked += 1
        assert checked == 15

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_general_basis_seeds(self, monkeypatch, j):
        p = 2.3
        lam = {"K": math.sqrt(p * p + 1.0), "M": p}
        for seed in FAMILIES.values():
            self.check(monkeypatch, j, seed.lead, seed.xp, lam[seed.lead], p)

    def test_diff_builds_no_hyp2f1_params(self, monkeypatch):
        """diff works on the float keys alone; only .terms builds a
        Hyp2F1Params."""
        from dkradial import _exprs

        built = []
        original = _exprs.Hyp2F1Params

        def counted(*args):
            built.append(args)
            return original(*args)

        K, M = family_KM_exprs(Family.F2, 3, 2)
        monkeypatch.setattr(_exprs, "Hyp2F1Params", counted)
        for e in (K, M):
            for _ in range(4):
                e = e.diff()
                e.diff_r_cos2()
        assert built == []
        terms = e.terms  # the patch is live: .terms builds one per term
        assert terms and len(built) == len(terms)


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

    @pytest.mark.parametrize("odd", range(1, 6))
    def test_exact_path_uses_every_point(self, odd):
        """outer = 1 and inner = d/dx + 1 compose, times x^2, to
        x^2 d/dx + x^2.  A direct operator off from that by a degree-4
        polynomial in c0 sets d = 4, so the exact path compares at the
        d + 1 = 5 points k/6; a difference that vanishes at all of them but
        k = odd must fail there."""
        one = RationalCoefficient((1,))
        outer = LinearDifferentialOperator(0, (one,))
        inner = LinearDifferentialOperator(1, (one, one))
        diff = (Fraction(1),)
        for k in range(1, 6):
            if k != odd:  # diff *= (x - k/6)
                diff = tuple(a - Fraction(k, 6) * b for a, b in zip((0, *diff), (*diff, 0)))
        square = (0, 0, 1)
        c0 = tuple(a + b for a, b in zip((*square, 0, 0), diff))
        direct = LinearDifferentialOperator(1, (RationalCoefficient(c0), RationalCoefficient(square)))
        rep = factorization_identity(outer, inner, direct)
        assert rep.sample_count == 5 and not rep.passed
        assert rep.details[0][0] == odd / 6 and rep.details[1][1] == 0.0
        exact = LinearDifferentialOperator(1, (RationalCoefficient(square), RationalCoefficient(square)))
        assert factorization_identity(outer, inner, exact).max_rel_residual == 0.0

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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the equilibrated |W| falls with j")
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
    @staticmethod
    def params(lam, n=1):
        return ModeParams(m=1.0, eps=float(n + 2), lambda_sign=lam)  # p^2 = (n+2)^2 - 1, on the spectrum

    @staticmethod
    def report(n, params, **exprs):
        """The j = 0 pair residual of level n with some amplitudes replaced,
        on the grid of j0_pair_residual."""
        exprs = {**closedform.j0_exprs(n, params), **exprs}
        return verify._system_report(exprs, QuantumNumbers(0, n), params, verify._J0_R, "j0", verify.RESIDUAL_TOL)

    @pytest.mark.parametrize("lam", [1, -1])
    def test_on_spectrum_passes(self, lam):
        rep = j0_pair_residual(1, self.params(lam))
        assert rep.passed and rep.max_rel_residual < 1e-12
        assert rep.sample_count == 101 and len(rep.details) == 3
        assert rep.check_name == f"j0-pair[n=1 lambda={lam:+d}]"

    def test_perturbed_amplitude_fails(self):
        params = self.params(1)
        assert not self.report(1, params, N=closedform.j0_exprs(1, params)["N"].scale(1.01)).passed

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lam", [1, -1])
    def test_controls_fail(self, n, lam):
        """The on-spectrum pair passes; a ratio 1% off, M with its 2F1
        degree k off by one, and N from the seed with the other x-exponent
        (a second solution of N'' = -(n+2)^2 N, matched to no M) fail."""
        params = self.params(lam, n)
        sol = wavefunction_j0(n, params, verify._J0_R)
        (M_seed,), (N_seed,) = sol.exprs["M"].terms, sol.exprs["N"].terms

        def as_large_as(e, k):  # e scaled to the largest value of sol's amplitude k
            return e.scale(np.abs(getattr(sol, k)).max() / np.abs(eval_r_cos2_all([e], sol.grid)[0]).max())

        M_k1 = as_large_as(closedform._seed_expr(1, n + 4, M_seed.xp).shift(0, 0.5), "M")
        N_other = as_large_as(closedform._seed_expr(0, n + 2, 0.5 - N_seed.xp).shift(0, 0.5), "N")
        assert j0_pair_residual(n, params).max_rel_residual < 1e-12
        assert self.report(n, params).max_rel_residual < 1e-12
        assert M_k1.terms[0].f.alpha == M_seed.f.alpha - 1 and not N_other.terms[0].f.terminating
        for bad in ({"M": sol.exprs["M"].scale(1.01)}, {"M": M_k1}, {"N": N_other}):
            assert not self.report(n, params, **bad).passed


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


def reference_system_report(sol, name, tol):
    """Reference: the system residual with Y the solution's samples and dY
    from a second table on its grid, the terms A_ic Y_c held as (point, row,
    column) and summed over the last axis."""
    r, state = sol.grid, system(sol.qn.j, 0.0, 0.0).state
    Y = [getattr(sol, k) for k in state]
    dY = np.asarray(eval_r_cos2_all([sol.exprs[k].diff_r_cos2() for k in state], r))
    terms = reference_matrix(sol) * np.transpose(Y)[:, None, :]
    rows = dY - terms.sum(axis=2).T
    scales = np.maximum(np.abs(dY), np.abs(terms).max(axis=2).T)
    rel = np.abs(rows) / np.where(scales > 0, scales, 1.0)
    return verify._report(name, r, rel.max(axis=0), tol)


def reference_cross_consistency(family, qn, params):
    """Reference: wavefunction_family's samples on the mirrored r-grid,
    then reference_system_report."""
    r = np.arccos(np.sqrt(chebyshev_grid()))
    sol = wavefunction_family(family, qn, params, np.concatenate([r, np.pi - r]))
    name = f"cross-consistency[{family.value} j={qn.j} n={qn.n}]"
    return reference_system_report(sol, name, verify.IDENTITY_TOL), sol


class TestSystemReportBitIdentity:
    """cross_consistency (one table, columns added one by one) and
    j0_pair_residual give the reference's reports bit for bit."""

    @staticmethod
    def same_report(got, want) -> bool:
        return repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_cross_consistency(self, monkeypatch, j):
        used = []
        original = verify._system_report

        def recorded(exprs, qn, params, r, *args):
            used.append((exprs, r))
            return original(exprs, qn, params, r, *args)

        monkeypatch.setattr(verify, "_system_report", recorded)
        checked = 0
        for fam, seed in FAMILIES.items():
            for n in range(max(0, -seed.offset), 4):
                p_sq = float(spectrum(fam, j, n, 0).p_sq)
                for m in (0.0, 1.0, 3.7):
                    for lam in (1, -1):
                        params = ModeParams.from_p_sq(m, p_sq, lambda_sign=lam)
                        got = cross_consistency(fam, QuantumNumbers(j, n), params)
                        want, sol = reference_cross_consistency(fam, QuantumNumbers(j, n), params)
                        assert self.same_report(got, want), (fam, j, n, m, lam)
                        ((exprs, r),) = used
                        used.clear()
                        assert same_bits(r, sol.grid)
                        for name, got in zip("KLMN", eval_r_cos2_all([exprs[k] for k in "KLMN"], r)):
                            assert same_bits(got, getattr(sol, name)), (fam, j, n, name)
                        checked += 1
        assert checked == 15 * 3 * 2

    @pytest.mark.parametrize("lam", [1, -1])
    def test_j0_pair(self, lam):
        """On both grids _system_report gives the reference's report; on the
        first, j0_pair_residual's grid, so does j0_pair_residual."""
        grids = (np.linspace(0.05, math.pi - 0.05, 101), TestGeneralBasisSystem.R)
        for n in range(8):
            for m in (0.0, 1.0):
                params = ModeParams(m=m, eps=spectrum(Family.J0, 0, n, m).eps(), lambda_sign=lam)
                name = f"j0-pair[n={n} lambda={lam:+d}]"
                for r in grids:
                    sol = wavefunction_j0(n, params, r)
                    want = reference_system_report(sol, name, verify.RESIDUAL_TOL)
                    got = verify._system_report(sol.exprs, sol.qn, params, r, name, verify.RESIDUAL_TOL)
                    assert self.same_report(got, want), (n, m, len(r))
                    if r is grids[0]:
                        assert self.same_report(j0_pair_residual(n, params), want), (n, m)


class TestGeneralBasisSystem:
    """Every general-basis solution, lead and lacking amplitude alike, meets
    the first-order system at non-integer k, on the r-grid of
    cross_consistency."""

    _r = np.arccos(np.sqrt(chebyshev_grid()))
    R = np.concatenate([_r, np.pi - _r])

    @pytest.mark.parametrize("j", [1, 2, 3, 5])
    def test_meets_identity_tol(self, j):
        for p in (0.7, 2.3, 5.9):
            for m in (0.0, 1.0):
                basis = general_basis(j, p, ModeParams(m=m, eps=math.sqrt(p * p + m * m)), self.R)
                for i, sol in enumerate(basis):
                    rep = verify._system_report(sol.exprs, sol.qn, sol.params, sol.grid, f"general-basis[{i}]",
                                                verify.IDENTITY_TOL)
                    assert rep.passed, (j, p, m, i, rep.max_rel_residual)

    def test_off_shell_params_fail(self):
        """Control: the same solutions checked against an energy 1e-6 off
        the p they were built at fail."""
        p, m = 2.3, 1.0
        basis = general_basis(2, p, ModeParams(m=m, eps=math.sqrt(p * p + m * m) * (1 + 1e-6)), self.R)
        for sol in basis:
            assert not verify._system_report(sol.exprs, sol.qn, sol.params, sol.grid, "general-basis",
                                             verify.IDENTITY_TOL).passed


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
