import math
from fractions import Fraction

import numpy as np
import pytest

from dkradial import closedform
from dkradial._exprs import eval_r_cos2_all, hyp_expr
from dkradial.closedform import (
    DegeneratePair,
    EliminationSingularError,
    Family,
    OffSpectrumError,
    degeneracy_map,
    family_KM_exprs,
    family_exprs,
    family_levels,
    general_basis,
    j0_ratio,
    spectrum,
    wavefunction_family,
    wavefunction_j0,
)
from dkradial.hypergeo import Hyp2F1DomainError
from dkradial.model import ModeParams, QuantumNumbers, system
from dkradial.verify import _CROSS_R


class TestSpectrum:
    @pytest.mark.parametrize(
        "family,j,n,m,p_sq",
        [
            (Family.F1, 1, 0, 0, 8),
            (Family.F1, 1, 2, 0, 48),
            (Family.F2, 3, 2, 0, 63),
            (Family.F3, 2, 1, 0, 16),
            (Family.F4, 1, 1, 0, 16),
            (Family.J0, 0, 0, 1, 3),
        ],
    )
    def test_values(self, family, j, n, m, p_sq):
        assert spectrum(family, j, n, m).p_sq == Fraction(p_sq)

    def test_dirac_half_odd(self):
        e = spectrum(Family.DIRAC, "1/2", 0, 0)
        assert e.p_sq == Fraction(9, 4)
        assert spectrum(Family.DIRAC, Fraction(3, 2), 1, 0).p_sq == Fraction(49, 4)

    def test_j0_eps_sq(self):
        e = spectrum(Family.J0, 0, 0, 1)
        assert e.eps_sq == Fraction(4)

    def test_partner_links(self):
        for j in range(1, 21):
            for n in range(21):
                expect = {
                    Family.F1: (Family.F2, j + 1, n),
                    Family.F2: (Family.F1, j - 1, n) if j >= 2 else None,
                    Family.F4: (Family.F3, j + 1, n),
                    Family.F3: (Family.F4, j - 1, n) if j >= 2 else None,
                }
                for fam, partner in expect.items():
                    assert spectrum(fam, j, n, 0).degenerate_partner == partner, (fam, j, n)

    def test_lead_2f1_terminates_at_degree(self):
        # The degree is n for families i, ii, iv and n - 1 for iii.
        lead = {Family.F1: 0, Family.F2: 0, Family.F3: 1, Family.F4: 1}
        offset = {Family.F1: 0, Family.F2: 0, Family.F3: -1, Family.F4: 0}
        for fam in lead:
            for j in range(1, 7):
                for n in range(1 if fam is Family.F3 else 0, 7):
                    (term,) = family_KM_exprs(fam, j, n)[lead[fam]].terms
                    assert term.f.terminating and term.f.degree == n + offset[fam], (fam, j, n)

    def test_family3_lowest_formula_level_not_bound(self):
        e = spectrum(Family.F3, 2, 0, 0)
        assert e.p_sq == 4 and not e.bound
        assert spectrum(Family.F3, 2, 1, 0).bound

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spectrum(Family.F1, 0, 0, 0)
        with pytest.raises(ValueError):
            spectrum(Family.DIRAC, 1, 0, 0)
        with pytest.raises(ValueError):
            spectrum(Family.F1, 1, -1, 0)

    def test_j0_family_rejects_nonzero_j(self):
        with pytest.raises(ValueError, match="j = 0"):
            spectrum(Family.J0, 3, 0, 0)
        assert spectrum(Family.J0, Fraction(0), 1, 0).p_sq == 8

    def test_parallel_series_identities_exact(self):
        for j in range(1, 21):
            for n in range(21):
                assert spectrum(Family.F2, j + 1, n, 0).p_sq == spectrum(Family.F1, j, n, 0).p_sq
                assert spectrum(Family.F3, j + 1, n, 0).p_sq == spectrum(Family.F4, j, n, 0).p_sq

    def test_dk_dirac_value_sets_disjoint(self):
        dk = set()
        for j in range(1, 21):
            for n in range(21):
                for fam in (Family.F1, Family.F2, Family.F3, Family.F4):
                    dk.add(spectrum(fam, j, n, 0).p_sq)
        for n in range(21):
            dk.add(spectrum(Family.J0, 0, n, 0).p_sq)
        dirac = set()
        J = Fraction(1, 2)
        while J <= Fraction(41, 2):
            for n in range(21):
                dirac.add(spectrum(Family.DIRAC, J, n, 0).p_sq)
            J += 1
        assert dk.isdisjoint(dirac)


class TestWavefunctionJ0:
    def test_ratio_is_branch_dependent(self):
        # lam=+1 pair carries -(2/3)(eps+m); lam=-1 the printed -(2/3)(eps-m)
        assert j0_ratio(ModeParams(m=1.0, eps=2.0, lambda_sign=-1)) == pytest.approx(-2.0 / 3.0)
        assert j0_ratio(ModeParams(m=1.0, eps=2.0, lambda_sign=+1)) == pytest.approx(-2.0)

    def test_n0_values_at_equator(self):
        params = ModeParams(m=1.0, eps=2.0, lambda_sign=-1)
        sol = wavefunction_j0(0, params, [math.pi / 2])
        assert sol.N[0] == pytest.approx(0.0, abs=1e-14)  # 1-2x factor
        assert sol.M[0] == pytest.approx(-2.0 / 3.0 / 4.0)  # M0/4

    def test_vanishes_at_poles(self):
        params = ModeParams(m=0.0, eps=math.sqrt(3.0))
        sol = wavefunction_j0(0, params, [1e-4, math.pi - 1e-4])
        assert np.all(np.abs(sol.M) < 1e-7)
        assert np.all(np.abs(sol.N) < 1e-3)

    def test_off_spectrum_rejected(self):
        with pytest.raises(OffSpectrumError):
            wavefunction_j0(0, ModeParams(m=0.0, eps=1.8), [1.0])

    def test_N_is_pure_sinusoid(self):
        # Constant-coefficient reduction: N = const * sin(sqrt(p^2+1) r)
        for n, m in ((0, 0.0), (2, 1.0)):
            eps = math.sqrt(m * m - 1 + (2 + n) ** 2)
            grid = np.linspace(0.3, math.pi - 0.3, 57)
            sol = wavefunction_j0(n, ModeParams(m=m, eps=eps), grid)
            k = math.sqrt(eps * eps - m * m + 1)
            c = sol.N[0] / math.sin(k * grid[0])
            assert np.allclose(sol.N, c * np.sin(k * grid), atol=1e-12 * abs(c))

    def test_second_order_residuals(self):
        # M satisfies the trigonometric-potential equation, N the
        # constant-coefficient one, on both branches.
        for lam in (+1, -1):
            n, m = 1, 1.0
            eps = math.sqrt(m * m - 1 + (2 + n) ** 2)
            grid = np.linspace(0.2, math.pi - 0.2, 101)
            sol = wavefunction_j0(n, ModeParams(m=m, eps=eps, lambda_sign=lam), grid)
            Me, Ne = sol.exprs["M"], sol.exprs["N"]
            d2M, d2N = eval_r_cos2_all([Me.diff_r_cos2().diff_r_cos2(), Ne.diff_r_cos2().diff_r_cos2()], grid)
            p2 = eps * eps - m * m
            rM = d2M + (p2 - (1 + np.cos(grid) ** 2) / np.sin(grid) ** 2) * sol.M
            rN = d2N + (p2 + 1) * sol.N
            scale = max(np.abs(d2M).max(), np.abs(d2N).max())
            assert np.max(np.abs(rM)) / scale < 1e-9
            assert np.max(np.abs(rN)) / scale < 1e-9


    @staticmethod
    def j0_state(n, m, lam, grid):
        eps = math.sqrt(m * m - 1 + (2 + n) ** 2)
        return wavefunction_j0(n, ModeParams(m=m, eps=eps, lambda_sign=lam), grid), -(2.0 / 3.0) * (eps + lam * m)

    def test_exact_forms(self):
        """N = sin((n+2) r)/(2(n+2)) and M = ratio sin^2 r C_n(cos r)/(4 C_n(1)),
        C_n = C^(2)_n by its three-term recurrence, for n <= 14 on both
        branches.  M holds to 1e-12 of its largest value; N to 5e-12, since
        the float Horner sum of its degree-7 2F1 reads 3.0e-12 at n = 14."""
        r = np.linspace(0.05, math.pi - 0.05, 101)
        u = np.cos(r)
        gegenbauer = [np.ones_like(u), 4 * u]
        for i in range(2, 15):
            gegenbauer.append((2 * (i + 1) * u * gegenbauer[-1] - (i + 2) * gegenbauer[-2]) / i)
        worst_N = worst_M = 0.0
        for n in range(15):
            N = np.sin((n + 2) * r) / (2 * (n + 2))
            for m in (0.0, 1.0):
                for lam in (+1, -1):
                    sol, ratio = self.j0_state(n, m, lam, r)
                    M = ratio * np.sin(r) ** 2 * gegenbauer[n] / (4 * (n + 1) * (n + 2) * (n + 3) / 6)
                    worst_N = max(worst_N, np.abs(sol.N - N).max() / np.abs(N).max())
                    worst_M = max(worst_M, np.abs(sol.M - M).max() / np.abs(M).max())
        assert worst_N <= 5e-12 and worst_M <= 1e-12

    def test_matches_half_angle_construction(self):
        """For n <= 3 the amplitudes equal the earlier construction in
        x = (1 - cos r)/2, N = sqrt(x(1-x)) F(-n-1, n+3; 3/2; x) and
        M = ratio x(1-x) F(-n, n+4; 5/2; x), to 5e-14 of the largest value;
        that construction's own Horner error reaches 2.3e-14 at n = 3, r near pi."""
        r = np.linspace(0.05, math.pi - 0.05, 101)
        x = (1 - np.cos(r)) / 2
        for n in range(4):
            for m in (0.0, 1.0):
                for lam in (+1, -1):
                    sol, ratio = self.j0_state(n, m, lam, r)
                    N = hyp_expr(1.0, 0.5, 0.5, -n - 1, 3 + n, 1.5).eval_x(x)
                    M = hyp_expr(ratio, 1, 1, -n, 4 + n, 2.5).eval_x(x)
                    big = max(np.abs(M).max(), np.abs(N).max())
                    assert max(np.abs(sol.N - N).max(), np.abs(sol.M - M).max()) <= 5e-14 * big

    def test_poles_are_outside_the_domain(self):
        """r = 0 and r = pi are both x = cos^2 r = 1, where the 2F1 is not
        evaluated."""
        for r in (0.0, math.pi):
            with pytest.raises(Hyp2F1DomainError):
                self.j0_state(1, 1.0, +1, [r])


class TestWavefunctionFamilies:
    def test_f1_point_values(self):
        r = math.acos(0.5)  # x = 1/4
        sol = wavefunction_family(
            Family.F1, QuantumNumbers(1, 0), ModeParams.from_p_sq(0.0, 8.0), [r]
        )
        assert sol.K[0] == pytest.approx(math.sqrt(0.25) * math.sqrt(0.75), rel=1e-12)
        assert sol.M[0] == pytest.approx(math.sqrt(0.75) * 0.5 / math.sqrt(2), rel=1e-12)

    def test_f4_vanishes_like_sin_j(self):
        for j in (1, 2, 3):
            e = spectrum(Family.F4, j, 0, 0)
            r = np.array([1e-3, math.pi - 1e-3])
            sol = wavefunction_family(
                Family.F4, QuantumNumbers(j, 0), ModeParams.from_p_sq(0.0, float(e.p_sq)), r
            )
            expect = np.sin(r) ** j
            ratio = np.abs(sol.K / expect)
            assert ratio[0] == pytest.approx(ratio[1], rel=1e-4)
            assert np.all(np.abs(sol.M[0]) < 2 * expect[0])

    def test_off_spectrum_rejected(self):
        with pytest.raises(OffSpectrumError):
            wavefunction_family(Family.F1, QuantumNumbers(1, 0), ModeParams(m=0.0, eps=2.9), [1.0])

    def test_family3_n0_rejected(self):
        with pytest.raises(OffSpectrumError):
            wavefunction_family(Family.F3, QuantumNumbers(1, 0), ModeParams(m=0.0, eps=1.0), [1.0])

    def test_elimination_singular_rejected(self):
        # eps = -m puts eps+m at zero; reachable via the general basis where
        # p and the mode parameters are independent.  On-spectrum parameters
        # always have |eps| > m, so the family constructor rejects earlier
        # with an off-spectrum diagnostic.
        with pytest.raises(EliminationSingularError):
            general_basis(1, 2.3, ModeParams(m=3.0, eps=-3.0), [1.0])
        with pytest.raises(OffSpectrumError):
            wavefunction_family(
                Family.F1, QuantumNumbers(1, 0), ModeParams(m=3.0, eps=-3.0), [1.0]
            )

    @pytest.mark.parametrize("eps", [0.9e-12, -0.9e-12])
    def test_elimination_guard_raises_below_its_threshold(self, eps):
        """|eps + mu| = 0.9e-12 lies under the 1e-12 guard, at either sign."""
        params = ModeParams(m=0.0, eps=eps)
        assert abs(params.eps_pm[0]) == pytest.approx(0.9e-12, rel=1e-12)
        with pytest.raises(EliminationSingularError):
            closedform._completed(QuantumNumbers(1, 0), params, *family_KM_exprs(Family.F1, 1, 0))

    @pytest.mark.parametrize("eps", [1.1e-12, -1.1e-12])
    def test_elimination_guard_passes_above_its_threshold(self, eps):
        """|eps + mu| = 1.1e-12 lies over the guard: (L, N) are built, scaled
        by -1/(eps + mu)."""
        params = ModeParams(m=0.0, eps=eps)
        assert abs(params.eps_pm[0]) == pytest.approx(1.1e-12, rel=1e-12)
        exprs = closedform._completed(QuantumNumbers(1, 0), params, *family_KM_exprs(Family.F1, 1, 0))
        assert list(exprs) == ["K", "L", "M", "N"] and exprs["L"]._coefs and exprs["N"]._coefs

    def test_smooth_across_equator(self):
        # No kink at r = pi/2: the signed-sqrt convention keeps amplitudes
        # differentiable; compare symmetric finite differences.
        e = spectrum(Family.F1, 2, 1, 1)
        sol = wavefunction_family(
            Family.F1, QuantumNumbers(2, 1), ModeParams.from_p_sq(1.0, float(e.p_sq)),
            [math.pi / 2 - 1e-5, math.pi / 2, math.pi / 2 + 1e-5],
        )
        for amp in (sol.K, sol.L, sol.M, sol.N):
            second_diff = amp[0] - 2 * amp[1] + amp[2]
            assert abs(second_diff) < 1e-8


class TestOnSpectrum:
    """Both constructors accept a level's own (m, eps) up to what floats
    resolve of eps^2 - m^2, and reject the neighbouring level."""

    MASSES = (1e2, 1e4, 1e5, 1e7)

    @staticmethod
    def params(entry, m, how):
        if how == "from_p_sq":
            return ModeParams.from_p_sq(m, float(entry.p_sq))
        return ModeParams(m=m, eps=entry.eps())

    @staticmethod
    def family_states():
        for fam, seed in closedform.FAMILIES.items():
            for j in (1, 2, 3):
                for n in range(max(0, -seed.offset), 4):
                    yield fam, j, n

    @pytest.mark.parametrize("how", ["from_p_sq", "eps"])
    def test_large_mass_states_accepted(self, how):
        for m in self.MASSES:
            for fam, j, n in self.family_states():
                params = self.params(spectrum(fam, j, n, m), m, how)
                wavefunction_family(fam, QuantumNumbers(j, n), params, [1.0])
            for n in range(5):
                wavefunction_j0(n, self.params(spectrum(Family.J0, 0, n, m), m, how), [1.0])

    @pytest.mark.parametrize("how", ["from_p_sq", "eps"])
    @pytest.mark.parametrize("m", [1e3, 1e5, 1e6])
    def test_neighbouring_level_rejected(self, how, m):
        for fam, j, n in self.family_states():
            params = self.params(spectrum(fam, j, n + 1, m), m, how)
            with pytest.raises(OffSpectrumError, match=f"off the {fam.value} spectrum"):
                wavefunction_family(fam, QuantumNumbers(j, n), params, [1.0])
        for n in range(5):
            params = self.params(spectrum(Family.J0, 0, n + 1, m), m, how)
            with pytest.raises(OffSpectrumError, match=f"off the j0 spectrum value {(n + 2) ** 2 - 1} at j=0, n={n}"):
                wavefunction_j0(n, params, [1.0])


class TestMassRescaling:
    """With mu = lam m, sigma the sign of eps and kappa = (eps + mu)/(sigma p),
    (K, kappa L, M, kappa N) of a massive state solves the mass-free
    system(j, sigma p, sigma p): the mass is one scalar on L and N."""

    @pytest.mark.parametrize("m,lam,sigma", [(0.5, +1, +1), (3.7, -1, +1), (2.0, +1, -1), (1e5, +1, +1)])
    def test_rescaled_state_meets_the_massless_system(self, m, lam, sigma):
        r, worst = _CROSS_R, 0.0
        for fam in closedform.FAMILIES:
            for j in (1, 2, 3):
                for n in (1, 2):
                    p_sq = spectrum(fam, j, n, 0).p_sq
                    params = ModeParams.from_p_sq(m, p_sq, lam, sigma)
                    exprs = family_exprs(fam, QuantumNumbers(j, n), params)
                    q = sigma * math.sqrt(p_sq)
                    kappa = params.eps_pm[0] / q
                    amps = [exprs["K"], exprs["L"].scale(kappa), exprs["M"], exprs["N"].scale(kappa)]
                    Y = np.array(eval_r_cos2_all(amps, r))
                    dY = np.array(eval_r_cos2_all([e.diff_r_cos2() for e in amps], r))
                    terms = system(j, q, q).matrix(r).transpose(1, 2, 0) * Y  # (row, column, point)
                    scale = np.maximum(np.abs(dY), np.abs(terms).max(axis=1))
                    worst = max(worst, (np.abs(dY - terms.sum(axis=1)) / scale).max())
        assert worst <= 1e-12


class TestGeneralBasis:
    def test_prefactor_carries_bound_exponent(self):
        # Every term of every basis amplitude carries at least (1-x)^(j/2):
        # the bound-exponent prefactor.  (Pointwise vanishing at the poles
        # holds only on-spectrum, where the series terminates; at generic p
        # the hypergeometric factor diverges at x=1 -- that imbalance is the
        # quantization mechanism.)
        for j in (1, 2):
            params = ModeParams(m=0.0, eps=2.3)
            basis = general_basis(j, 2.3, params, np.array([1.0]))
            for b in basis:
                for name in ("K", "M"):
                    assert all(t.yp >= Fraction(j, 2) for t in b.exprs[name].terms)

    def test_reduces_to_terminating_on_spectrum(self):
        # Seed i of the general basis, at a level of family i, is that
        # family's lead amplitude: K for families i, ii and M for iii, iv.
        leads = ((Family.F1, "K"), (Family.F2, "K"), (Family.F3, "M"), (Family.F4, "M"))
        for seed, (family, lead) in enumerate(leads):
            for j in (1, 2, 3):
                for n in (1, 2):
                    p_sq = float(spectrum(family, j, n, 0).p_sq)
                    p = math.sqrt(p_sq)
                    basis = general_basis(j, p, ModeParams(m=0.0, eps=p), np.array([1.0]))
                    sol = wavefunction_family(
                        family, QuantumNumbers(j, n), ModeParams.from_p_sq(0.0, p_sq), np.array([1.0])
                    )
                    for x0 in (0.2, 0.45, 0.7):
                        ratio = basis[seed].exprs[lead].eval_x(x0) / sol.exprs[lead].eval_x(x0)
                        assert ratio == pytest.approx(1.0, rel=1e-9), (family, j, n, x0)

    @pytest.mark.parametrize("j,m", [(1, 0.0), (2, 0.5), (3, 1.0)])
    def test_samples_general_basis_exprs(self, j, m):
        """general_basis samples the four {K, L, M, N} dicts of
        general_basis_exprs, bit for bit, and holds them as its exprs."""
        params, r = ModeParams(m=m, eps=math.hypot(2.3, m)), np.linspace(0.1, 3.0, 7)
        exprs = closedform.general_basis_exprs(j, 2.3, params)
        basis = general_basis(j, 2.3, params, r)
        assert len(exprs) == len(basis) == 4
        for e, sol in zip(exprs, basis):
            assert list(e) == list(sol.exprs) == list("KLMN")
            for name, values in zip(e, eval_r_cos2_all(e.values(), r)):
                assert getattr(sol, name).tobytes() == values.tobytes()
                assert sol.exprs[name].terms == e[name].terms

    def test_rejects_bad_inputs(self):
        for bad_j, bad_p in ((0, 2.3), (1, -1.0), (1, 0.0)):
            with pytest.raises(ValueError):
                closedform.general_basis_exprs(bad_j, bad_p, ModeParams(m=0.0, eps=2.3))
        with pytest.raises(ValueError):
            general_basis(0, 2.3, ModeParams(m=0.0, eps=2.3), [1.0])
        with pytest.raises(ValueError):
            general_basis(1, -1.0, ModeParams(m=0.0, eps=1.0), [1.0])

    def test_rejects_p_zero(self):
        """p = 0 is not positive: it raises, and returns no finite values."""
        with pytest.raises(ValueError, match="p must be positive"):
            general_basis(1, 0.0, ModeParams(m=0.0, eps=1.0), [1.0])


class TestDegeneracyMap:
    def test_counts(self):
        pairs = degeneracy_map(5, 5)
        assert len(pairs) == 50
        f12 = [p for p in pairs if p.left[0] is Family.F1]
        f43 = [p for p in pairs if p.left[0] is Family.F4]
        assert len(f12) == 25 and len(f43) == 25

    def test_example_pairs(self):
        pairs = degeneracy_map(5, 5)
        assert DegeneratePair((Family.F1, 2, 2), (Family.F2, 3, 2), Fraction(63)) in pairs
        match = [p for p in pairs if p.left == (Family.F4, 1, 1)]
        assert match[0].right == (Family.F3, 2, 1) and match[0].p_sq == 16

    def test_no_dirac_pairs(self):
        assert all(
            Family.DIRAC not in (p.left[0], p.right[0]) for p in degeneracy_map(8, 8)
        )

    def test_unbound_partner_flagged(self):
        pairs = degeneracy_map(3, 3)
        low = [p for p in pairs if p.left[0] is Family.F4 and p.left[2] == 0]
        assert all(not p.right_bound for p in low)
        rest = [p for p in pairs if p.left[0] is Family.F4 and p.left[2] >= 1]
        assert all(p.right_bound for p in rest)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            degeneracy_map(3, -1)
        assert degeneracy_map(3, 0) == []

    @pytest.mark.parametrize("shifted", [Family.F2, Family.F3])
    def test_broken_identity_raises(self, monkeypatch, shifted):
        """The twin identity is checked by a raised error, which python -O keeps."""
        formula = closedform._p_sq_formula

        def broken(family, j, n):
            return formula(family, j, n) + (1 if family is shifted else 0)

        monkeypatch.setattr(closedform, "_p_sq_formula", broken)
        with pytest.raises(ArithmeticError):
            degeneracy_map(2, 1)


class TestFamilyLevels:
    def test_bound_only_excludes_phantom(self):
        levels = family_levels(1, 1, 0)
        p_sqs = [e.p_sq for e in levels]
        assert Fraction(1) not in p_sqs
        assert sorted(p_sqs) == [3, 4, 8, 9, 15, 16, 24]

    def test_levels_at_one_j_are_simple(self):
        """No two bound family levels at one j share p^2 (nor, then, eps at
        any mass): F1/F2 and F3/F4 differ in the parity of lam, and a
        K-led p^2 = s^2 - 1 never equals an M-led t^2 for s >= 2."""
        for j in range(1, 7):
            p_sqs = [e.p_sq for e in family_levels(j, 10, 0)]
            assert all(isinstance(p, Fraction) for p in p_sqs)
            assert len(set(p_sqs)) == len(p_sqs) == 4 * 11 - 1  # F3 has no bound n = 0
