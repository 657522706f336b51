import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from dkradial._exprs import hyp_expr
from dkradial.closedform import (
    Family,
    family_KM_exprs,
    general_basis,
    spectrum,
    wavefunction_j0,
)
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

    def test_report_deterministic(self):
        e = spectrum(Family.F2, 2, 1, 0)
        K, _ = family_KM_exprs(Family.F2, 2, 1)
        r1 = residual_operator_expr(operator_K4(float(e.p_sq), 6.0), K, chebyshev_grid())
        r2 = residual_operator_expr(operator_K4(float(e.p_sq), 6.0), K, chebyshev_grid())
        assert r1.max_rel_residual == r2.max_rel_residual
        assert r1.details == r2.details


class TestExprEvaluation:
    def test_one_gauss_2f1_call_per_term(self, monkeypatch):
        """eval_x on a 200-point grid calls gauss_2f1 once per hypergeometric
        term with the whole grid, not once per point."""
        from dkradial import _exprs

        sizes = []
        original = _exprs.gauss_2f1

        def counted(params, x):
            sizes.append(np.size(x))
            return original(params, x)

        monkeypatch.setattr(_exprs, "gauss_2f1", counted)
        x = chebyshev_grid()
        K, M = family_KM_exprs(Family.F3, 2, 2)
        for expr in (K, M, K.diff().diff(), M.diff().diff().diff()):
            sizes.clear()
            expr.eval_x(x)
            assert expr.terms and sizes == [len(x)] * len(expr.terms)

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
