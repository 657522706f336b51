import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkradial._exprs import hyp_expr
from dkradial.closedform import general_basis
from dkradial.hypergeo import (
    Hyp2F1DegenerateError,
    Hyp2F1DomainError,
    Hyp2F1OverflowError,
    Hyp2F1Params,
    gauss_2f1,
)
from dkradial.model import ModeParams
from dkradial.verify import chebyshev_grid


def derivative(p: Hyp2F1Params, x, order: int):
    """order-th derivative of 2F1 at x by Expr.diff, the contiguous relation
    every residual and cross check of the package differentiates with."""
    return hyp_expr(1.0, 0, 0, p.alpha, p.beta, p.gamma).derivative_column(x, order)[order]


def hyp2f1_exact(a: Fraction, b: Fraction, c: Fraction, x: Fraction) -> Fraction:
    """Rational-arithmetic oracle for terminating series."""
    assert a <= 0 and a.denominator == 1
    total = Fraction(1)
    term = Fraction(1)
    for k in range(-int(a)):
        term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
        total += term
    return total


def horner_loop(p: Hyp2F1Params, x: float) -> float:
    """Reference: the terminating sum as a scalar Python Horner loop."""
    coeffs, t = [1.0], 1.0
    for k in range(p.degree):
        t *= (p.alpha + k) * (p.beta + k) / ((p.gamma + k) * (k + 1))
        coeffs.append(t)
    s = coeffs[p.degree]
    for k in range(p.degree - 1, -1, -1):
        s = s * x + coeffs[k]
    return s


def brute_series(a, b, c, x, terms=4000):
    t, s = 1.0, 1.0
    for k in range(terms):
        t *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
        s += t
    return s


class TestValues:
    def test_at_zero_is_one(self):
        assert gauss_2f1(Hyp2F1Params(0.3, -2.7, 1.9), 0.0) == 1.0

    def test_terminating_polynomial(self):
        # F(-1, 3; 3/2; x) = 1 - 2x
        assert gauss_2f1(Hyp2F1Params(-1, 3, 1.5), 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_log_identity(self):
        # F(1, 1; 2; x) = -ln(1-x)/x
        v = gauss_2f1(Hyp2F1Params(1, 1, 2), 0.5)
        assert v == pytest.approx(-math.log(0.5) / 0.5, rel=1e-12)

    def test_log_identity_beyond_half(self):
        for x in (0.55, 0.7, 0.85, 0.95):
            v = gauss_2f1(Hyp2F1Params(1.0, 0.75, 2.25), x)
            assert v == pytest.approx(brute_series(1.0, 0.75, 2.25, x, 40000), rel=1e-11)

    def test_binomial_identity(self):
        # F(a, b; b; x) = (1-x)^-a
        for x in (0.12, 0.48, 0.63):
            v = gauss_2f1(Hyp2F1Params(0.7, 2.3, 2.3), x)
            assert v == pytest.approx((1 - x) ** -0.7, rel=1e-12)


class TestDerivatives:
    def test_first_coefficient_at_zero(self):
        p = Hyp2F1Params(0.4, -1.3, 2.2)
        assert derivative(p, 0.0, 1) == pytest.approx(0.4 * -1.3 / 2.2, rel=1e-15)

    def test_terminating_slope(self):
        assert derivative(Hyp2F1Params(-1, 3, 1.5), 0.7, 1) == pytest.approx(-2.0, abs=1e-14)

    def test_log_identity_derivative(self):
        v = derivative(Hyp2F1Params(1, 1, 2), 0.5, 1)
        x = 0.5
        exact = 1 / ((1 - x) * x) + math.log(1 - x) / x**2
        assert v == pytest.approx(exact, rel=1e-11)

    def test_derivative_beyond_termination_is_zero(self):
        assert derivative(Hyp2F1Params(-1, 3, 1.5), 0.3, 2) == 0.0

    @pytest.mark.parametrize("order", [0, 4, 5])
    @pytest.mark.parametrize("x", [0.12, 0.63])
    def test_any_order_binomial(self, order, x):
        # F(a, b; b; x) = (1-x)^-a, so its k-th derivative is (a)_k (1-x)^(-a-k)
        a = 0.7
        exact = math.prod(a + i for i in range(order)) * (1 - x) ** (-a - order)
        got = derivative(Hyp2F1Params(a, 2.3, 2.3), x, order)
        assert got == pytest.approx(exact, rel=1e-12)


class TestErrors:
    def test_domain(self):
        for x in (-0.1, 1.0, 1.5):
            with pytest.raises(Hyp2F1DomainError):
                gauss_2f1(Hyp2F1Params(0.3, 0.4, 1.1), x)

    def test_gamma_pole_rejected(self):
        with pytest.raises(ValueError):
            Hyp2F1Params(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Hyp2F1Params(1.0, 1.0, -2.0)

    def test_degenerate_connection(self):
        # c-a-b integer and x > 0.9: connection formula near-singular
        with pytest.raises(Hyp2F1DegenerateError):
            gauss_2f1(Hyp2F1Params(0.25, 0.75, 2.0), 0.95)

    def test_connection_gamma_overflow_is_typed(self):
        # c - a - b = -172.5: Gamma(172.5) is past the largest float
        with pytest.raises(Hyp2F1OverflowError, match=r"a=87\.85, b=89\.15; c=4\.5; x=0\.6") as err:
            gauss_2f1(Hyp2F1Params(87.85, 89.15, 4.5), 0.6)
        assert isinstance(err.value, ValueError)

    def test_degenerate_falls_back_below_090(self):
        # same parameters are fine at x <= 0.9 via the direct series
        v = gauss_2f1(Hyp2F1Params(0.25, 0.75, 2.0), 0.8)
        assert v == pytest.approx(brute_series(0.25, 0.75, 2.0, 0.8, 20000), rel=1e-11)


class TestRationalOracle:
    @pytest.mark.parametrize(
        "a,b,c",
        [(-3, 5, Fraction(3, 2)), (-7, Fraction(9, 2), Fraction(1, 2)),
         (-12, 14, Fraction(5, 2)), (-1, 3, Fraction(3, 2)), (-20, 22, Fraction(3, 2))],
    )
    def test_matches_exact_summation(self, a, b, c):
        import random

        rng = random.Random(20240 + int(a))
        for _ in range(20):
            xr = Fraction(rng.randrange(0, 999), 1000)
            exact = hyp2f1_exact(Fraction(a), Fraction(b), Fraction(c), xr)
            got = gauss_2f1(Hyp2F1Params(float(a), float(b), float(c)), float(xr))
            # ulp scale of the summation: sum of absolute term magnitudes
            term, scale = Fraction(1), 1.0
            for k in range(-int(a)):
                term *= (a + k) * (b + k) * xr / ((c + k) * (k + 1))
                scale += abs(float(term))
            assert abs(got - float(exact)) <= 1e-14 * scale


class TestOdeResidual:
    def residual(self, p: Hyp2F1Params, x: float) -> float:
        f = gauss_2f1(p, x)
        f1 = derivative(p, x, 1)
        f2 = derivative(p, x, 2)
        terms = [
            x * (1 - x) * f2,
            (p.gamma - (p.alpha + p.beta + 1) * x) * f1,
            -p.alpha * p.beta * f,
        ]
        scale = max(abs(t) for t in terms) or 1.0
        return abs(sum(terms)) / scale

    def test_gauss_ode(self):
        import random

        rng = random.Random(7)
        for _ in range(20):
            a = rng.uniform(-3, 3)
            b = rng.uniform(-3, 3)
            c = rng.uniform(0.4, 4)
            if abs(c - round(c)) < 0.05 and c < 1:
                c += 0.21
            p = Hyp2F1Params(a, b, c)
            for x in [0.02 + 0.93 * k / 49 for k in range(50)]:
                s = c - a - b
                if x > 0.9 and abs(s - round(s)) <= 1e-8:
                    continue
                assert self.residual(p, x) <= 1e-9


class TestConnectionConsistency:
    def test_both_sides_of_split(self):
        p = Hyp2F1Params(0.37, 1.21, 2.63)
        for x in (0.45, 0.55):
            ref = brute_series(p.alpha, p.beta, p.gamma, x, 20000)
            assert gauss_2f1(p, x) == pytest.approx(ref, rel=1e-10)


class TestMpmathReference:
    """Non-terminating paths against mpmath.hyp2f1 at 30 digits."""

    @staticmethod
    def reference(p: Hyp2F1Params, x: float, order: int = 0) -> float:
        with mpmath.workdps(30):
            return float(mpmath.diff(lambda t: mpmath.hyp2f1(p.alpha, p.beta, p.gamma, t), x, order))

    @pytest.mark.parametrize("a,b,c", [(0.3, -2.7, 1.9), (1.0, 0.75, 2.25), (2.5, -1.3, 0.7), (-0.4, 3.1, 2.2)])
    def test_power_series_and_connection(self, a, b, c):
        p = Hyp2F1Params(a, b, c)
        assert not p.terminating
        for x in (0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.97):
            assert gauss_2f1(p, x) == pytest.approx(self.reference(p, x), rel=1e-13)

    @pytest.mark.parametrize("j", [1, 2])
    def test_general_basis_parameters_and_derivatives(self, j):
        sols = general_basis(j, 2.3, ModeParams(m=0.0, eps=2.3), [0.5])
        params = {t.f for s in sols for k in "KM" for t in s.exprs[k].terms}
        assert params and not any(p.terminating for p in params)
        for p in params:
            for x0 in (0.3, 0.6):
                for order in range(4):
                    ref = self.reference(p, x0, order)
                    assert derivative(p, x0, order) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 2.0), (0.25, 0.75, 2.0), (0.5, 0.75, 2.25 + 5e-9)])
    def test_near_integer_direct_series(self, a, b, c):
        p = Hyp2F1Params(a, b, c)
        s = c - a - b
        assert abs(s - round(s)) <= 1e-8
        for x in (0.55, 0.7, 0.8, 0.9):
            assert gauss_2f1(p, x) == pytest.approx(self.reference(p, x), rel=1e-13)


def _terminating_params(deg):
    """Degree-deg polynomials with their contiguous derivative parameters."""
    ps = (Hyp2F1Params(float(-deg), deg + 4.0, 2.5), Hyp2F1Params(deg + 1.5, float(-deg), 0.5))
    return [p.raised(k) for p in ps for k in range(deg + 1)]


def _general_basis_params(j):
    """Non-terminating parameters of general_basis at p = 2.3 and their
    first three contiguous derivatives."""
    sols = general_basis(j, 2.3, ModeParams(m=0.0, eps=2.3), [0.5])
    params = {t.f for s in sols for k in "KM" for t in s.exprs[k].terms}
    return sorted({p.raised(k) for p in params for k in range(4)}, key=repr)


class TestArrayArgument:
    """An array x gives, element for element, the scalar result bit for bit."""

    X = np.concatenate([chebyshev_grid(), [0.0, 1e-6, 0.5, 0.999]])

    def check_bit_for_bit(self, params):
        got = gauss_2f1(params, self.X)
        want = np.array([gauss_2f1(params, float(x)) for x in self.X])
        assert got.shape == self.X.shape and got.dtype == np.float64
        assert np.array_equal(got, want), params
        grid = self.X[:200].reshape(20, 10)
        assert np.array_equal(gauss_2f1(params, grid), want[:200].reshape(20, 10)), params
        return got

    @pytest.mark.parametrize("deg", range(9))
    def test_terminating(self, deg):
        for params in _terminating_params(deg):
            assert params.terminating
            got = self.check_bit_for_bit(params)
            assert np.array_equal(got, [horner_loop(params, float(x)) for x in self.X]), params

    @pytest.mark.parametrize("j", [1, 2])
    def test_general_basis(self, j):
        for params in _general_basis_params(j):
            assert not params.terminating
            self.check_bit_for_bit(params)

    @pytest.mark.parametrize("order", [0, 1, 3, 9])
    def test_derivative_matches_scalar(self, order):
        for params in (Hyp2F1Params(-4.0, 8.0, 2.5), _general_basis_params(1)[0]):
            got = derivative(params, self.X, order)
            want = np.array([derivative(params, float(x), order) for x in self.X])
            assert got.shape == self.X.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [1.0, -0.1, math.nan])
    @pytest.mark.parametrize("params", [Hyp2F1Params(-3.0, 5.0, 1.5), Hyp2F1Params(0.3, 0.4, 1.1)])
    def test_domain_checked_per_element(self, params, bad):
        with pytest.raises(Hyp2F1DomainError):
            gauss_2f1(params, np.array([0.2, bad, 0.4]))

    @pytest.mark.parametrize("params", [Hyp2F1Params(-3.0, 5.0, 1.5), Hyp2F1Params(0.3, 0.4, 1.1)])
    def test_empty_and_scalar(self, params):
        empty = gauss_2f1(params, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert type(gauss_2f1(params, 0.25)) is float
        assert type(gauss_2f1(params, np.float64(0.25))) is float

    def test_overflowing_coefficients_give_nan_at_once(self):
        """A non-finite coefficient makes Horner's sum non-finite at every x,
        so the sum stops there: NaN everywhere and no numpy warning, however
        high the degree (the CLI tests take n with 30 digits)."""
        params = Hyp2F1Params(-2000.0, 2004.0, 2.5)  # M of the j = 0 state n = 2000
        assert not any(math.isfinite(horner_loop(params, float(x))) for x in self.X)
        for n in (2000, 10**6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = gauss_2f1(Hyp2F1Params(-float(n), 4.0 + n, 2.5), self.X)
            assert got.shape == self.X.shape and np.isnan(got).all()


def test_degree_is_the_first_termination():
    assert Hyp2F1Params(-3.0, -5.0, 1.5).degree == 3
    assert Hyp2F1Params(2.0, -4.0, 1.5).degree == 4
    assert Hyp2F1Params(0.3, 0.4, 1.1).degree is None


@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=1, max_value=20),
    st.sampled_from([0.5, 1.5, 2.5]),
    st.integers(min_value=0, max_value=970),
)
@settings(max_examples=60, deadline=None)
def test_terminating_is_polynomial(n, b, c, k):
    """Degree--n truth: the value equals the Horner sum of n+1 exact terms."""
    xr = Fraction(k, 1000)
    p = Hyp2F1Params(float(-n), float(b), c)
    assert p.terminating and p.degree == n
    exact = hyp2f1_exact(Fraction(-n), Fraction(b), Fraction(c), xr)
    term, scale = Fraction(1), 1.0
    for i in range(n):
        term *= (-n + i) * (b + i) * xr / ((Fraction(c) + i) * (i + 1))
        scale += abs(float(term))
    assert abs(gauss_2f1(p, float(xr)) - float(exact)) <= 1e-12 * scale
