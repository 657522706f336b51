import dataclasses
import math

import numpy as np
import pytest

from dkradial import oracle
from dkradial.closedform import Family, family_levels, spectrum
from dkradial.model import system
from dkradial.oracle import (
    OracleEigenvalue,
    ShootingConfig,
    _frobenius_initial,
    _series_matrices,
    compare_spectra,
    shoot_j,
    shoot_j0,
)

J0_CFG = ShootingConfig(eps_scan=(0.2, 4.0, 0.05))


class TestShootJ0:
    def test_massless_levels(self):
        evs = shoot_j0(0.0, +1, J0_CFG)
        expect = [math.sqrt((2 + n) ** 2 - 1) for n in range(3)]
        assert len(evs) == 3
        for ev, ex in zip(evs, expect):
            assert abs(ev.eps - ex) / ex < 1e-6

    def test_massive_lowest(self):
        evs = shoot_j0(1.0, +1, ShootingConfig(eps_scan=(1.2, 2.4, 0.05)))
        assert len(evs) == 1
        assert abs(evs[0].eps - 2.0) < 1e-6

    def test_empty_scan_range(self):
        assert shoot_j0(0.0, +1, ShootingConfig(eps_scan=(0.1, 1.0, 0.05))) == []

    @pytest.mark.parametrize("hi,levels", [(3.0, [3.0]), (2.99, [])])
    def test_window_edge(self, hi, levels):
        """A level on hi (eps = 3 at m = 1) is found; the scan step past hi
        returns nothing beyond the window."""
        evs = shoot_j0(1.0, +1, ShootingConfig(eps_scan=(2.5, hi, 0.05)))
        assert [round(ev.eps, 6) for ev in evs] == levels

    def test_node_counts_order_levels(self):
        evs = shoot_j0(0.0, +1, ShootingConfig(eps_scan=(0.2, 5.0, 0.05)))
        assert [ev.node_count for ev in evs] == list(range(len(evs)))

    def test_missed_level_raises(self):
        """eps = sqrt(15) and sqrt(24) share the scan step (3.8, 5.0): the
        levels found have 1 and 4 nodes, and the gap is an error."""
        with pytest.raises(ValueError, match="1 and 4 nodes.*smaller eps scan step"):
            shoot_j0(0.0, +1, ShootingConfig(eps_scan=(0.2, 6.0, 1.2)))

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
    def test_criterion_1_windows_to_1e10(self, m):
        hi = math.sqrt(m * m - 1 + 7.3**2)
        evs = shoot_j0(m, +1, ShootingConfig(eps_scan=(0.2, hi, 0.05)))
        expect = [math.sqrt(m * m - 1 + (2 + n) ** 2) for n in range(6)]
        assert [ev.node_count for ev in evs] == list(range(6))
        for ev, ex in zip(evs, expect):
            assert abs(ev.eps - ex) / ex <= 1e-10

    def test_lambda_branch_immaterial_at_zero_mass(self):
        a = shoot_j0(0.0, +1, J0_CFG)
        b = shoot_j0(0.0, -1, J0_CFG)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.eps == pytest.approx(y.eps, abs=1e-12)


class TestShootJ:
    def test_j1_levels_and_no_phantom(self):
        cfg = ShootingConfig(eps_scan=(0.3, 4.3, 0.02))
        evs = shoot_j(0.0, 1, +1, cfg)
        got = sorted(ev.p_sq for ev in evs)
        assert np.allclose(got, [3.0, 4.0, 8.0, 9.0, 15.0, 16.0], rtol=1e-6)
        # nothing at p^2 = j^2 = 1: the family-iii formula's n=0 entry
        assert all(abs(p - 1.0) > 0.5 for p in got)

    def test_j0_rejected(self):
        with pytest.raises(ValueError):
            shoot_j(0.0, 0)

    @pytest.mark.parametrize("lam", [+1, -1])
    @pytest.mark.parametrize("shoot", [
        lambda m, lam: shoot_j(m, 1, lam, ShootingConfig(eps_scan=(0.5, 3.2, 0.05))),
        lambda m, lam: shoot_j0(m, lam, ShootingConfig(eps_scan=(0.5, 3.2, 0.05))),
    ], ids=["shoot_j", "shoot_j0"])
    def test_negative_mass_rejected(self, shoot, lam):
        # Checked before lambda_sign flips the mass: m = -1 is no branch.
        with pytest.raises(ValueError, match="mass must be non-negative"):
            shoot(-1.0, lam)

    def test_shifted_runs_share_degenerate_values(self):
        # F2(j+1, n) = F1(j, n) and F3(j+1, n) = F4(j, n): the j=2 run must
        # reproduce the matching j=1 values.
        evs1 = shoot_j(0.0, 1, +1, ShootingConfig(eps_scan=(0.3, 4.3, 0.02)))
        evs2 = shoot_j(0.0, 2, +1, ShootingConfig(eps_scan=(0.3, 4.3, 0.02)))
        p1 = {round(ev.p_sq, 6) for ev in evs1}
        p2 = {round(ev.p_sq, 6) for ev in evs2}
        # j=1: F1(n=0) = 8 appears at j=2 as F2(n=0); F4(j=1,n=0) = 4 appears
        # at j=2 as F3... F3(2,n) starts at n=1 -> 16; shared here: {8, 9, 15, 16}
        shared = p1 & p2
        for want in (8.0, 9.0, 15.0, 16.0):
            assert any(abs(s - want) < 1e-5 for s in shared)

    def test_discretization_independence(self, monkeypatch):
        cfg = ShootingConfig(eps_scan=(2.7, 2.95, 0.02))
        base = shoot_j(0.0, 1, +1, cfg)
        assert len(base) == 1  # sqrt(8)
        monkeypatch.setattr(oracle, "R_START_OFFSET", oracle.R_START_OFFSET / 2)
        halved = shoot_j(0.0, 1, +1, cfg)
        assert abs(halved[0].eps - base[0].eps) < 1e-9

    def test_j0_pendant_discretization_independence(self, monkeypatch):
        cfg = ShootingConfig(eps_scan=(1.6, 1.85, 0.05))
        base = shoot_j0(0.0, +1, cfg)
        monkeypatch.setattr(oracle, "R_START_OFFSET", oracle.R_START_OFFSET / 2)
        halved = shoot_j0(0.0, +1, cfg)
        assert abs(base[0].eps - halved[0].eps) < 1e-9

    def test_weak_singularity_flag(self, monkeypatch):
        """No level of the sqrt(8) window is weakly singular at the default
        DET_TOLERANCE; with the threshold at 0 every level is flagged."""
        cfg = ShootingConfig(eps_scan=(2.7, 2.95, 0.02))
        assert [ev.flags for ev in shoot_j(0.0, 1, +1, cfg)] == [[]]
        monkeypatch.setattr(oracle, "DET_TOLERANCE", 0.0)
        evs = shoot_j(0.0, 1, +1, cfg)
        assert evs and all(ev.flags == ["weak-singularity"] for ev in evs)


class TestSharedShooting:
    @pytest.mark.parametrize("shoot", [
        lambda cfg: shoot_j0(0.0, +1, cfg), lambda cfg: shoot_j(0.0, 1, +1, cfg),
    ], ids=["j0", "j1"])
    def test_one_integration_per_objective_call(self, monkeypatch, shoot):
        """One solve_ivp for the scan, one per brentq objective call and one
        per root for its diagnostics."""
        counts = {"ivp": 0, "fcalls": 0}
        real_ivp, real_brentq = oracle.solve_ivp, oracle.brentq

        def ivp(*a, **k):
            counts["ivp"] += 1
            return real_ivp(*a, **k)

        def counted_brentq(f, *a, **k):
            def g(x):
                counts["fcalls"] += 1
                return f(x)
            return real_brentq(g, *a, **k)

        monkeypatch.setattr(oracle, "solve_ivp", ivp)
        monkeypatch.setattr(oracle, "brentq", counted_brentq)
        evs = shoot(ShootingConfig(eps_scan=(1.6, 2.1, 0.05)))
        assert evs
        assert counts["ivp"] == 1 + counts["fcalls"] + len(evs)

    @pytest.mark.parametrize("shoot", [
        lambda cfg: shoot_j0(0.0, +1, cfg), lambda cfg: shoot_j(0.0, 1, +1, cfg),
    ], ids=["j0", "j1"])
    def test_failed_scan_halves_offset_and_says_so(self, monkeypatch, shoot):
        cfg = ShootingConfig(eps_scan=(1.6, 2.1, 0.05))
        clean = shoot(cfg)
        real_ivp, seen = oracle.solve_ivp, []

        def fail_once(fun, t_span, y0, **k):
            seen.append(t_span[0])
            sol = real_ivp(fun, t_span, y0, **k)
            if len(seen) == 1:
                sol.success, sol.message = False, "forced failure"
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", fail_once)
        evs = shoot(cfg)
        assert seen[0] == oracle.R_START_OFFSET
        assert set(seen[1:]) == {oracle.R_START_OFFSET / 2}
        assert [ev.flags for ev in evs] == [["r-start-offset-halved"]] * len(clean)
        assert [ev.eps for ev in evs] == pytest.approx([ev.eps for ev in clean], abs=1e-9)

    @pytest.mark.parametrize("first_failure", [1, 2], ids=["every", "in-brentq"])
    @pytest.mark.parametrize("shoot", [
        lambda cfg: shoot_j0(0.0, +1, cfg), lambda cfg: shoot_j(0.0, 1, +1, cfg),
    ], ids=["j0", "j1"])
    def test_failed_integration_raises_typed_error(self, monkeypatch, shoot, first_failure):
        """From the first_failure-th integration on every one fails: when
        that is the scan (and its retry) or a brentq objective call, no
        level can be had and IntegrationError says why."""
        real_ivp, calls = oracle.solve_ivp, []

        def fail_from(*a, **k):
            calls.append(k["rtol"])
            sol = real_ivp(*a, **k)
            if len(calls) >= first_failure:
                sol.success, sol.message = False, "forced failure"
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", fail_from)
        with pytest.raises(oracle.IntegrationError, match="integration failed: forced failure"):
            shoot(ShootingConfig(eps_scan=(1.6, 2.1, 0.05)))
        scan, refine = oracle.SCAN_RTOL, oracle.INTEGRATOR_RTOL
        assert calls == ([scan, scan] if first_failure == 1 else [scan, refine])


class TestFrobeniusSeries:
    @pytest.mark.parametrize("j,lam", [(0, +1), (0, -1), (1, +1), (3, -1)])
    def test_truncation_error_is_fifth_order(self, j, lam):
        sysm = system(j, 2.3, lam * 0.7)
        A_m1, A_0, A_1, A_2, A_3 = _series_matrices(sysm)
        err = [
            np.abs(A_m1 / r + A_0 + A_1 * r + A_2 * r**2 + A_3 * r**3 - sysm.matrix(r)).max()
            for r in (2e-2, 1e-2)
        ]
        assert 24 < err[0] / err[1] < 40

    @pytest.mark.parametrize("j,m", [(0, 0.7), (1, 0.0), (3, -0.7)])
    def test_batched_start_equals_single_lanes(self, j, m):
        eps = np.array([0.4, 1.7, 2.3, 5.1])
        batched = _frobenius_initial(j, system(j, eps, m), 1e-3)
        n = 2 if j == 0 else 4
        assert batched.shape == (len(eps), n, n // 2)
        for lane, e in enumerate(eps):
            single = _frobenius_initial(j, system(j, np.array([e]), m), 1e-3)[0]
            assert np.allclose(batched[lane], single, rtol=1e-15, atol=0)


class TestCompare:
    def test_full_match(self):
        cfg = ShootingConfig(eps_scan=(0.3, 4.3, 0.02))
        evs = shoot_j(0.0, 1, +1, cfg)
        closed = [e for e in family_levels(1, 2, 0) if math.sqrt(float(e.eps_sq)) <= 4.3]
        cmp = compare_spectra(evs, closed)
        assert cmp.passed
        fams = {(c.family, c.n) for _, c, _ in cmp.matched}
        assert (Family.F3, 1) in fams and (Family.F3, 0) not in fams

    def test_empty_oracle_reports_all_closed_unmatched(self):
        closed = [spectrum(Family.F1, 1, n, 0) for n in range(3)]
        cmp = compare_spectra([], closed)
        assert not cmp.passed
        assert len(cmp.unmatched_closed) == 3

    def test_extra_oracle_value_flagged(self):
        fake = OracleEigenvalue(eps=1.23, p_sq=1.23**2, j=1, bracket=(1.2, 1.25))
        cmp = compare_spectra([fake], [])
        assert not cmp.passed and cmp.unmatched_oracle == [fake]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShootingConfig(eps_scan=(3.0, 1.0, 0.1))

    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(ShootingConfig)] == ["eps_scan"]
