import dataclasses
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dkradial.closedform import Family, family_levels, spectrum
from dkradial.model import (
    ModeParams,
    QuantumNumbers,
    RationalCoefficient,
    factor_pair_K,
    factor_pair_M,
    operator_K4,
    operator_M4,
    system,
)
from dkradial.verify import residual_operator
from finite_difference import fd_derivatives

# The constant P, Q, S, T and D of every j >= 1 system and of the j = 0 one.
BASE_J, BASE_J0 = system(1, 0.0, 0.0), system(0, 0.0, 0.0)


class TestModeParams:
    def test_p_sq_single_source(self):
        p = ModeParams(m=1.0, eps=-2.0)
        assert p.p_sq == 3.0
        assert p.eps_pm == (-1.0, -3.0)

    def test_from_p_sq(self):
        p = ModeParams.from_p_sq(1.0, 8.0, lambda_sign=-1)
        assert p.eps == pytest.approx(3.0)
        assert p.p_sq == pytest.approx(8.0)
        assert p.eps_pm == (2.0, 4.0)

    def test_from_p_sq_keeps_p_sq(self):
        """At m = 1e5, eps^2 - m^2 no longer holds p^2 = 35; from_p_sq keeps it,
        in no public field, and compares equal to the params of its (m, eps)."""
        kept = ModeParams.from_p_sq(1e5, 35, eps_sign=-1)
        derived = ModeParams(m=1e5, eps=kept.eps)
        assert kept.p_sq == 35.0 and derived.p_sq != 35.0 and kept == derived
        assert [f.name for f in dataclasses.fields(kept) if not f.name.startswith("_")] == ["m", "eps", "lambda_sign"]
        assert "_p_sq" not in repr(kept)
        assert ModeParams.from_p_sq(1.0, 8.0, eps_sign=-1).eps == -3.0

    @pytest.mark.parametrize("m", [0.7, 1e5, 1e9])
    @pytest.mark.parametrize("lam", [+1, -1])
    @pytest.mark.parametrize("eps_sign", [+1, -1])
    def test_eps_pm_does_not_cancel(self, m, lam, eps_sign):
        """eps + mu and eps - mu, mu = lam m, to a few ulp of their exact
        values (50 digits, from the kept p^2 and the float eps) on both
        branches and at both signs of eps: the like-signed one is a sum, the
        other p^2 over it."""
        p_sq = 24
        params = ModeParams.from_p_sq(m, p_sq, lam, eps_sign)
        with mpmath.workdps(50):
            eps = eps_sign * mpmath.sqrt(p_sq + mpmath.mpf(m) ** 2)
            exact = (eps + lam * m, eps - lam * m)
            for got, want in zip(params.eps_pm, exact):
                assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_eps_pm_at_zero(self):
        assert ModeParams(m=0.0, eps=0.0).eps_pm == (0.0, 0.0)
        assert ModeParams(m=3.0, eps=-3.0).eps_pm[0] == 0.0

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            ModeParams(m=1.0, eps=1.0, lambda_sign=0)

    def test_quantum_numbers_exact_a_sq(self):
        qn = QuantumNumbers(7, 3)
        assert qn.a_sq == 56
        assert qn.a == pytest.approx(math.sqrt(56))


class TestSystems:
    def test_j0_zero_mode(self):
        A = system(0, 0.0, 0.0).matrix(math.pi / 2)
        assert np.allclose(A, 0.0, atol=1e-15)

    def test_j0_values(self):
        A = system(0, *ModeParams(m=1.0, eps=2.0).eps_pm).matrix(math.pi / 2)
        assert np.allclose(A, [[0, -3], [1, 0]], atol=1e-15)

    def test_j0_lambda_branch_is_mass_flip(self):
        params = ModeParams(m=1.0, eps=2.0, lambda_sign=-1)
        A = system(0, *params.eps_pm).matrix(math.pi / 2)
        assert np.allclose(A, [[0, -1], [3, 0]], atol=1e-15)

    def test_j_massless_at_equator(self):
        A = system(1, 0.0, 0.0).matrix(math.pi / 2)
        a = math.sqrt(2)
        expect = np.zeros((4, 4))
        expect[0, 2] = -a
        expect[1, 3] = a
        expect[2, 0] = -a
        expect[3, 1] = a
        assert np.allclose(A, expect, atol=1e-15)

    def test_j_coupling_entries(self):
        A = system(1, *ModeParams(m=1.0, eps=1.0).eps_pm).matrix(math.pi / 2)
        assert A[0, 1] == pytest.approx(-2.0)  # K' <- L is -(eps+m)
        assert A[1, 0] == pytest.approx(0.0)   # eps-m = 0

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            system(-1, 1.0, 1.0)

    def test_sector_follows_j(self):
        """j = 0 is the (M, N) block with a = 0; j >= 1 the full system."""
        weights = ModeParams(m=0.7, eps=2.3).eps_pm
        j0, j2 = system(0, *weights), system(2, *weights)
        assert (j0.state, j0.a) == (("M", "N"), 0.0)
        assert (j2.state, j2.a) == (("K", "L", "M", "N"), math.sqrt(6))

    @pytest.mark.parametrize("lam", [+1, -1])
    @pytest.mark.parametrize("r", [0.3, 1.1, 2.6])
    def test_docstring_equations(self, r, lam):
        eps, m = 2.3, 0.7
        em_plus, em_minus = eps + lam * m, eps - lam * m
        weights = ModeParams(m=m, eps=eps, lambda_sign=lam).eps_pm
        ct = 1.0 / math.tan(r)
        np.testing.assert_allclose(
            system(0, *weights).matrix(r), [[-ct, -em_plus], [em_minus, ct]], rtol=1e-15, atol=0
        )
        for j in (1, 3):
            s = math.sqrt(j * (j + 1)) / math.sin(r)
            expect = [
                [0.0, -em_plus, -s, 0.0],
                [em_minus, 0.0, 0.0, s],
                [-s, 0.0, -ct, -em_plus],
                [0.0, s, em_minus, ct],
            ]
            np.testing.assert_allclose(
                system(j, *weights).matrix(r), expect, rtol=1e-15, atol=0
            )

    def test_matrix_stacks_over_r_and_eps(self):
        r = np.array([0.3, 1.1, 2.6])
        sysm = system(2, *ModeParams(m=0.7, eps=2.3).eps_pm)
        assert np.array_equal(sysm.matrix(r), [sysm.matrix(float(t)) for t in r])
        lanes = dataclasses.replace(sysm, plus=np.array([0.5, sysm.plus]), minus=np.array([0.1, sysm.minus]))
        stacked = lanes.matrix(1.1)
        assert stacked.shape == (2, 4, 4)
        assert np.array_equal(stacked[1], sysm.matrix(1.1))

    @pytest.mark.parametrize("lam", [+1, -1])
    def test_reflection_parity(self, lam):
        """D A(pi - r) D = -A(r): D Y(pi - r) solves the system when Y does."""
        weights = ModeParams(m=0.7, eps=2.3, lambda_sign=lam).eps_pm
        for sysm in (system(0, *weights), system(2, *weights)):
            D = np.diag(sysm.D)
            for r in (0.3, 1.1, 2.6):
                np.testing.assert_allclose(
                    D @ sysm.matrix(math.pi - r) @ D, -sysm.matrix(r), rtol=1e-14, atol=1e-14
                )

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_j0_lambda_minus_zero_mode(self, m):
        """At eps = m (p^2 = 0) the lambda = -1 pair has the regular solution
        (M, N) = (0, sin r), a level no closed form lists; the lambda = +1 pair
        does not."""
        r = np.array([0.3, 1.1, 2.6])
        Y = np.stack([np.zeros_like(r), np.sin(r)], axis=-1)[..., None]
        dY = np.stack([np.zeros_like(r), np.cos(r)], axis=-1)[..., None]
        minus = system(0, 0.0, 2 * m)  # eps + mu = 0, eps - mu = 2m
        np.testing.assert_allclose(minus.matrix(r) @ Y, dY, rtol=0, atol=1e-15)
        plus = system(0, 2 * m, 0.0)
        assert np.abs(plus.matrix(r) @ Y - dY).max() > 0.1


class TestConstantMatrices:
    """The facts the sparse system residual and the mass-free p path rest on."""

    BASES = pytest.mark.parametrize("base", [BASE_J, BASE_J0], ids=["j", "j0"])

    @BASES
    def test_no_shared_nonzero_entry(self, base):
        support = [X != 0 for X in (base.P, base.Q, base.S, base.T)]
        for one, other in itertools.combinations(support, 2):
            assert not (one & other).any()

    @BASES
    def test_E_squares_to_minus_identity(self, base):
        E = base.P + base.Q
        assert np.array_equal(E @ E, -np.eye(len(E)))

    @BASES
    def test_minus_E_times_each_part_is_symmetric(self, base):
        """-E X symmetric for X in {E, P - Q, S, T}: the collocation operator
        -E (d/dr - A(r)) is built from these products."""
        E = base.P + base.Q
        for X in (E, base.P - base.Q, base.S, base.T):
            assert np.array_equal(-E @ X, (-E @ X).T)

    @pytest.mark.parametrize("p", [2.7, -2.7, np.array([0.4, -1.9, 13.0])], ids=["p", "minus-p", "lanes"])
    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_mass_free_matrix_is_p_E(self, j, p):
        """system(j, p, p).matrix(r) is p E + (a/sin r) S + (cot r) T bit for
        bit, signed zeros included."""
        sysm = system(j, p, p)
        E = sysm.P + sysm.Q
        for r in (0.1, 1.1, 3.0):
            want = np.multiply.outer(p, E) + sysm.a * (1.0 / np.sin(r)) * sysm.S + 1.0 / np.tan(r) * sysm.T
            assert sysm.matrix(r).tobytes() == want.tobytes()


def _sector_defects(P, Q, S, T, point) -> list:
    """Each sector identity's two sides subtracted, in Fractions, at one
    point (s, c, eps+, eps-, K, M): s = a/sin r and c = cot r, so s' = -s c
    and c' = -1 - c^2.  Sector L = 0 takes Y = (K, 0, M, -eps- K/s), sector
    N = 0 takes Y = (K, -eps- M/s, M, 0); Y' takes K' and M' from the K and
    M rows of A Y and differentiates the constrained amplitude.  The defects
    are the L and N rows of A Y - Y', and the radial Helmholtz equation of
    the lead amplitude, at p^2 (K, sector L = 0) or p^2 - 1 (M, sector N = 0),
    with its second derivative from (A Y)' = A' Y + A Y'.  All are 0 for the
    radial system."""
    s, c, plus, minus = point[:4]
    A = [[plus * P[i][k] + minus * Q[i][k] + s * S[i][k] + c * T[i][k] for k in range(4)] for i in range(4)]
    dA = [[-s * c * S[i][k] - (1 + c * c) * T[i][k] for k in range(4)] for i in range(4)]

    def times(X, y):
        return [sum(X[i][k] * y[k] for k in range(4)) for i in range(4)]

    K, M = point[4:]
    out = []
    for row, lead, shift in ((1, 0, 0), (3, 2, 1)):  # (constrained row, lead amplitude, p^2 shift)
        Y = [K, 0, M, -minus * K / s] if row == 1 else [K, -minus * M / s, M, 0]
        AY = times(A, Y)
        dY = [AY[0], 0, AY[2], 0]
        dY[4 - row] = -minus * (dY[row - 1] + c * Y[row - 1]) / s  # d/dr (-eps- X/s), X = K or M
        d2 = [u + v for u, v in zip(times(dA, Y), times(A, dY))][lead]
        out += [AY[1] - dY[1], AY[3] - dY[3],
                d2 + 2 * c * dY[lead] + (plus * minus - shift - s * s) * Y[lead]]
    return out


class TestInvariantSectors:
    """The j >= 1 system is two invariant 2x2 sectors, L = 0 and N = 0, each
    a radial Helmholtz equation on the 3-sphere, pinned exactly from the
    j >= 1 system's P, Q, S and T alone; the closed-form spectra are the
    two Laplacian sets."""

    POINTS = [tuple(map(Fraction, p)) for p in (
        ("5/2", "1/3", "7/4", "3/2", "2/5", "-3/7"),
        (3, -2, "-1/2", "-5/3", 1, "4/3"),
        ("7/5", 0, 2, 2, -1, "1/2"),
    )]

    @staticmethod
    def exact(base):
        return [[[Fraction(v) for v in row] for row in getattr(base, k).tolist()] for k in "PQST"]

    def test_both_sectors_hold_exactly(self):
        parts = self.exact(BASE_J)
        for point in self.POINTS:
            assert _sector_defects(*parts, point) == [0] * 6

    @pytest.mark.parametrize("entry", [(k, i, c) for k in range(4) for i in range(4) for c in range(4)
                                       if getattr(BASE_J, "PQST"[k])[i, c]],
                             ids=lambda e: f"{'PQST'[e[0]]}{e[1]}{e[2]}")
    def test_a_flipped_sign_breaks_a_sector(self, entry):
        parts = self.exact(BASE_J)
        k, i, c = entry
        parts[k][i][c] = -parts[k][i][c]
        assert any(any(_sector_defects(*parts, point)) for point in self.POINTS)

    @pytest.mark.parametrize("j", [1, 2, 3, 7])
    def test_family_spectra_are_the_sector_laplacian_sets(self, j):
        """F1 and F2 (K-led) are {(l+1)^2 - 1 : l >= j}, F3 and F4 (M-led)
        {(l+1)^2 : l >= j}, each l once; the unbound F3 n = 0 is l = j - 1."""
        n_max = 5
        k_led = family_levels(j, n_max, 0, (Family.F1, Family.F2))
        m_led = family_levels(j, n_max, 0, (Family.F3, Family.F4))
        assert [e.p_sq for e in k_led] == [(l + 1) ** 2 - 1 for l in range(j, j + 2 * n_max + 2)]
        assert [e.p_sq for e in m_led] == [(l + 1) ** 2 for l in range(j, j + 2 * n_max + 1)]
        assert all(type(e.p_sq) is Fraction for e in k_led + m_led)
        phantom = spectrum(Family.F3, j, 0, 0)
        assert (phantom.bound, phantom.p_sq) == (False, j**2)


class TestOperators:
    def test_K4_leading_coefficient(self):
        op = operator_K4(3.7, 12.0)
        x = np.array([0.2, 0.5, 0.77])
        assert np.allclose(op.coeffs[4](x), x**2)

    def test_K4_c0_vanishes_at_origin_params(self):
        op = operator_K4(0.0, 0.0)
        x = np.linspace(0.05, 0.95, 11)
        assert np.allclose(op.coeffs[0](x), 0.0, atol=1e-14)

    def test_K4_c3_value(self):
        assert operator_K4(8.0, 2.0).coeffs[3](0.5) == pytest.approx(-1.5)

    def test_M4_c0_shift(self):
        p2, a2 = 5.3, 6.0
        x = np.linspace(0.1, 0.9, 9)
        d = operator_M4(p2, a2).coeffs[0](x) - operator_K4(p2, a2).coeffs[0](x)
        expect = -1 / (8 * x) - 1 / (8 * (1 - x)) - 3 / (16 * (1 - x) ** 2)
        assert np.allclose(d, expect, rtol=1e-13)

    def test_M4_c3_identical(self):
        x = np.linspace(0.05, 0.95, 21)
        assert np.allclose(operator_M4(2.0, 6.0).coeffs[3](x), operator_K4(9.0, 12.0).coeffs[3](x))

    def test_coefficient_derivative(self):
        c = RationalCoefficient(poly=(1.0, 2.0, 3.0), poles0=(0.5,), poles1=(-1.5, 0.25))
        x = np.linspace(0.1, 0.9, 7)
        h = 1e-6
        num = (c(x + h) - c(x - h)) / (2 * h)
        assert np.allclose(c.derivative()(x), num, rtol=1e-8)


class TestExactCoefficients:
    @staticmethod
    def operators(p_sq, a_sq):
        return [operator_K4(p_sq, a_sq), operator_M4(p_sq, a_sq),
                *factor_pair_K(p_sq, a_sq), *factor_pair_M(p_sq, a_sq)]

    @staticmethod
    def values(op):
        return [v for c in op.coeffs for v in c.poly + c.poles0 + c.poles1]

    @pytest.mark.parametrize("p_sq,a_sq", [(8, 2), (0, 6), (35, 12), (Fraction(7, 3), 42)])
    def test_exact_input_keeps_exact_coefficients(self, p_sq, a_sq):
        for op in self.operators(p_sq, a_sq):
            assert all(isinstance(v, (int, Fraction)) for v in self.values(op))

    @pytest.mark.parametrize("p_sq,a_sq", [(8, 2), (15, 6), (24, 12), (63, 42), (35, 0)])
    def test_float_input_is_float_of_exact(self, p_sq, a_sq):
        """At a float p^2, with a float or an int a^2, the operators are
        built in floats (no coefficient is a Fraction), and every
        coefficient, and its first two derivatives on a grid, is
        bit-identical to float() of the exact one."""
        x = np.linspace(0.05, 0.95, 19)
        for a_in in (float(a_sq), a_sq):
            for exact, fl in zip(self.operators(p_sq, a_sq), self.operators(float(p_sq), a_in)):
                assert not any(isinstance(v, Fraction) for v in self.values(fl))
                assert [float(v) for v in self.values(exact)] == self.values(fl)
                for ce, cf in zip(exact.coeffs, fl.coeffs):
                    for _ in range(3):
                        assert np.array_equal(ce(x), cf(x))
                        ce, cf = ce.derivative(), cf.derivative()

    def test_fraction_points_evaluate_exactly(self):
        c = RationalCoefficient(poly=(1, Fraction(1, 2)), poles0=(Fraction(1, 4),), poles1=(0, 3))
        x = np.array([Fraction(1, 3), Fraction(3, 4)], dtype=object)
        assert list(c(x)) == [1 + Fraction(1, 6) + Fraction(3, 4) + Fraction(27, 4),
                              1 + Fraction(3, 8) + Fraction(1, 3) + 48]


class TestFactorPairs:
    def test_inner_c1(self):
        _, inner = factor_pair_K(8.0, 2.0)
        x = np.array([0.25, 0.4, 0.8])
        assert np.allclose(inner.coeffs[1](x), 0.5 * (1 / x - 3 / (1 - x)))

    def test_outer_second_order_pole(self):
        outer, _ = factor_pair_K(8.0, 2.0)
        poles1 = outer.coeffs[0].poles1
        assert len(poles1) == 2
        assert poles1[1] == pytest.approx(-(2.0 - 6.0) / 4.0)

    def test_inner_c0_at_half_equal_params(self):
        for a2 in (2.0, 6.0, 12.0):
            _, inner = factor_pair_K(a2, a2)
            assert inner.coeffs[0](0.5) == pytest.approx(-a2)

    def test_M_pair_shifts(self):
        outerM, innerM = factor_pair_M(8.0, 2.0)
        assert innerM.coeffs[0].poles0[0] == pytest.approx((8.0 - 2.0 - 1.0) / 4.0)
        assert outerM.coeffs[0].poles0[0] == pytest.approx((8.0 - 2.0 - 9.0) / 4.0)

    def test_outer_c1_shared(self):
        x = np.linspace(0.1, 0.9, 9)
        oK, _ = factor_pair_K(5.0, 6.0)
        oM, _ = factor_pair_M(11.0, 20.0)
        assert np.allclose(oK.coeffs[1](x), oM.coeffs[1](x))


class TestIndicial:
    @pytest.mark.parametrize("make", [operator_K4, operator_M4])
    def test_exponents_solve_operator_indicial_equation(self, make):
        """(1-x)^gamma balances the strongest x = 1 poles of the operator:
        sum_k (-1)^k gamma (gamma-1) ... (gamma-k+1) lead_k = 0 in exact
        arithmetic, lead_k the (1-x)^-(4-k) coefficient of c_k.  The roots
        are (j+2)/2 and j/2, the two that can carry bound states, and
        (1-j)/2 and -(j+1)/2."""
        def indicial(op, g):
            leads = [Fraction(c.poles1[-1]) for c in op.coeffs[:4]] + [Fraction(1)]
            return sum((-1) ** k * math.prod(g - i for i in range(k)) * lead for k, lead in enumerate(leads))

        for j in range(1, 7):
            op = make((j + 2) ** 2 - 1, j * (j + 1))
            assert op.coeffs[4].poly == (0.0, 0.0, 1.0)  # lead_4 = 1
            assert [len(c.poles1) for c in op.coeffs[:4]] == [4, 3, 2, 1]
            for g in (Fraction(j + 2, 2), Fraction(j, 2), Fraction(1 - j, 2), Fraction(-(j + 1), 2)):
                assert indicial(op, g) == 0
            assert indicial(op, Fraction(1, 3)) != 0


class TestVariableChangeConsistency:
    """The first-order system, pushed through x = cos^2 r and eliminated,
    must reproduce the fourth-order operators on numerically integrated
    solutions (finite differences, uniform r-step 1e-3)."""

    @pytest.mark.parametrize("j,eps,m", [(1, 2.1, 0.0), (2, 3.3, 1.0)])
    def test_fd_residual(self, j, eps, m):
        params = ModeParams(m=m, eps=eps)
        sysm = system(j, *params.eps_pm)
        # Window keeps x = cos^2 r away from x=0, where generic solutions
        # carry an x^(1/2) branch with unbounded higher derivatives.
        r = np.arange(0.45, 1.25, 1e-3)
        sol = solve_ivp(
            lambda t, y: sysm.matrix(t) @ y,
            (r[0], r[-1]),
            [0.7, -0.3, 0.45, 0.9],
            t_eval=r, rtol=1e-12, atol=1e-14, method="DOP853", max_step=1e-3,
        )
        assert sol.success
        # Subsample so the x-step stays clear of the eps/h^4 roundoff floor
        # of fourth-order finite differences.
        sub = slice(None, None, 6)
        x = np.cos(r[sub]) ** 2
        for comp, make in ((0, operator_K4), (2, operator_M4)):
            y = sol.y[comp][sub]
            derivs = [y] + [fd_derivatives(x, y, k, stencil=11) for k in range(1, 5)]
            inner = slice(11, len(x) - 11)
            rep = residual_operator(make(params.p_sq, j * (j + 1)), x[inner], [d[inner] for d in derivs])
            assert rep.max_rel_residual < 1e-6


class TestPoleStructure:
    def test_leading_pole_dominates_near_ends(self):
        ops = [operator_K4(8.0, 2.0), operator_M4(8.0, 2.0),
               *factor_pair_K(8.0, 2.0), *factor_pair_M(8.0, 2.0)]
        for op in ops:
            for c in op.coeffs:
                for at, xv in ((0, 1e-6), (1, 1.0 - 1e-6)):
                    val = float(c(np.array([xv]))[0])
                    assert math.isfinite(val)
                    poles = c.poles0 if at == 0 else c.poles1
                    if any(poles):
                        order = max(k for k, coef in enumerate(poles, start=1) if coef)
                        lead = poles[order - 1] / (xv**order if at == 0 else (1 - xv) ** order)
                        assert abs(val - lead) <= 0.01 * abs(lead)
