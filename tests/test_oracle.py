import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp as reference_ivp

from dkradial import oracle
from dkradial.closedform import FAMILIES, Family, family_levels, spectrum, wavefunction_j0
from dkradial.model import ModeParams, system
from dkradial.oracle import (
    OracleEigenvalue,
    ShootingConfig,
    _frobenius_initial,
    _series_matrices,
    compare_spectra,
    shoot_j,
    shoot_j0,
)
from test_acceptance import _scan_setup

J0_CFG = ShootingConfig(eps_scan=(0.2, 4.0))


def _weights(m: float, lam: int, eps) -> np.ndarray:
    """(plus, minus) lanes, eps + mu and eps - mu from ModeParams, one lane
    per entry of eps."""
    return np.array([ModeParams(m=m, eps=float(e), lambda_sign=lam).eps_pm for e in eps]).T


def _criterion_1_config(m: float) -> ShootingConfig:
    """The acceptance window that holds the six lowest j = 0 levels."""
    return ShootingConfig(eps_scan=(0.2, math.sqrt(m * m - 1 + 7.3**2)))


class TestShootJ0:
    def test_massless_levels(self):
        evs = shoot_j0(0.0, +1, J0_CFG)
        expect = [math.sqrt((2 + n) ** 2 - 1) for n in range(3)]
        assert len(evs) == 3
        for ev, ex in zip(evs, expect):
            assert abs(ev.eps - ex) / ex < 1e-6

    def test_massive_lowest(self):
        evs = shoot_j0(1.0, +1, ShootingConfig(eps_scan=(1.2, 2.4)))
        assert len(evs) == 1
        assert abs(evs[0].eps - 2.0) < 1e-6

    def test_empty_scan_range(self):
        assert shoot_j0(0.0, +1, ShootingConfig(eps_scan=(0.1, 1.0))) == []

    @pytest.mark.parametrize("hi,levels", [(3.0, [3.0]), (2.99, [])])
    def test_window_edge(self, hi, levels):
        """A level on hi (eps = 3 at m = 1) is found; nothing beyond the
        window is returned."""
        evs = shoot_j0(1.0, +1, ShootingConfig(eps_scan=(2.5, hi)))
        assert [round(ev.eps, 6) for ev in evs] == levels

    @pytest.mark.parametrize("window", [(2.5, 3.0 - 1e-9), (3.0 + 1e-9, 3.5)], ids=["hi", "lo"])
    def test_level_just_outside_an_edge_is_kept(self, window):
        """eps = 3 at m = 1 lies 1e-9 outside the window, well inside WINDOW_SLACK."""
        evs = shoot_j0(1.0, +1, ShootingConfig(eps_scan=window))
        assert [ev.eps for ev in evs] == pytest.approx([3.0], rel=1e-13)

    def test_node_counts_order_levels(self):
        evs = shoot_j0(0.0, +1, ShootingConfig(eps_scan=(0.2, 5.0)))
        assert [ev.node_count for ev in evs] == list(range(len(evs)))

    def test_missed_level_raises(self, monkeypatch):
        """With eps = sqrt(8) dropped from the located levels and their node
        counts, the levels confirmed have 0 and 2 nodes, and the gap is an error."""
        real = oracle._locate
        monkeypatch.setattr(oracle, "_locate", lambda *a: tuple(np.delete(x, 1) for x in real(*a)))
        with pytest.raises(oracle.SpectrumError, match="0 and 2 nodes: a level between them was missed"):
            shoot_j0(0.0, +1, ShootingConfig(eps_scan=(0.2, 6.0)))

    @pytest.mark.parametrize("N", [16, 64, 512])
    def test_p_zero_pair_lies_within_the_cut(self, N):
        """At p = 0 the M row decouples: the j = 0 collocation holds exactly
        two eigenvalues within P_ZERO_CUT, the level (0, sin r) and its
        singular twin, split by rounding to far more than IMAG_TOL."""
        vals = np.linalg.eigvals(oracle._collocation_matrix(0, N)[0])
        near = np.abs(vals[np.abs(vals) < 0.5])
        assert len(near) == 2 and near.max() <= oracle.P_ZERO_CUT and near.max() > oracle.IMAG_TOL

    @pytest.mark.parametrize("N", [16, 64, 512])
    def test_p_zero_pair_lies_within_the_cut_over_both_sectors(self, N):
        """The sector solves hold the same pair: exactly two eigenvalues within
        P_ZERO_CUT over both sectors, each above IMAG_TOL."""
        vals = np.concatenate([np.linalg.eigvals(b) for b in oracle._sector_blocks(0, N)[0]])
        near = np.abs(vals[np.abs(vals) < 0.5])
        assert len(near) == 2 and near.max() <= oracle.P_ZERO_CUT and near.min() > oracle.IMAG_TOL

    @pytest.mark.parametrize("m,levels", [
        (3.0, [math.sqrt(12.0), math.sqrt(17.0), math.sqrt(24.0)]),
        (0.0, [math.sqrt(3.0)]),
    ])
    def test_window_from_zero_drops_the_p_zero_pair(self, m, levels):
        """A window from eps = 0 maps to p from 0: the p = 0 pair is no
        level, and the levels above it keep nodes 0, 1, 2, ..."""
        evs = shoot_j0(m, +1, ShootingConfig(eps_scan=(0.0, 5.0 if m else 2.0)))
        assert [ev.eps for ev in evs] == pytest.approx(levels, rel=1e-12)
        assert [ev.node_count for ev in evs] == list(range(len(levels)))

    def test_p_zero_cut_at_imag_tol_fails(self, monkeypatch):
        """Negative control: the pair's split is above IMAG_TOL, so a cut
        there leaves an eigenvalue that never resolves."""
        monkeypatch.setattr(oracle, "P_ZERO_CUT", oracle.IMAG_TOL)
        with pytest.raises(oracle.SpectrumError, match="collocation did not resolve"):
            shoot_j0(3.0, +1, ShootingConfig(eps_scan=(0.0, 5.0)))

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
    def test_criterion_1_windows_to_1e10(self, m):
        evs = shoot_j0(m, +1, _criterion_1_config(m))
        expect = [math.sqrt(m * m - 1 + (2 + n) ** 2) for n in range(6)]
        assert [ev.node_count for ev in evs] == list(range(6))
        for ev, ex in zip(evs, expect):
            assert abs(ev.eps - ex) / ex <= 1e-10

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
    def test_node_counts_match_closed_form(self, m):
        """Each level's node count is the sign changes of the closed-form M
        of its n on a fine grid of (0, pi)."""
        grid = np.linspace(1e-3, math.pi - 1e-3, 2000)  # pi/2, a node of odd n, is no grid point
        evs = shoot_j0(m, +1, _criterion_1_config(m))
        closed = [np.count_nonzero(np.diff(np.sign(wavefunction_j0(n, ModeParams(m=m, eps=ev.eps), grid).M)))
                  for n, ev in enumerate(evs)]
        assert len(evs) == 6 and [ev.node_count for ev in evs] == closed == list(range(6))

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
    def test_confirmation_cost(self, monkeypatch, m):
        """A j = 0 shot costs about what a j >= 1 one does (the criterion-2
        windows take 1,037-1,481 RHS evaluations): the integration stops
        only where its own step control puts it."""
        real_ivp, nfev = oracle.solve_ivp, []

        def counted(*a, **k):
            sol = real_ivp(*a, **k)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", counted)
        assert len(shoot_j0(m, +1, _criterion_1_config(m))) == 6
        assert len(nfev) == 1 and nfev[0] <= 1500

    def test_lambda_branch_immaterial_at_zero_mass(self):
        a = shoot_j0(0.0, +1, J0_CFG)
        b = shoot_j0(0.0, -1, J0_CFG)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.eps == pytest.approx(y.eps, abs=1e-12)


class TestShootJ:
    def test_j1_levels_and_no_phantom(self):
        cfg = ShootingConfig(eps_scan=(0.3, 4.3))
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
        lambda m, lam: shoot_j(m, 1, lam, ShootingConfig(eps_scan=(0.5, 3.2))),
        lambda m, lam: shoot_j0(m, lam, ShootingConfig(eps_scan=(0.5, 3.2))),
    ], ids=["shoot_j", "shoot_j0"])
    def test_negative_mass_rejected(self, shoot, lam):
        # Checked before lambda_sign flips the mass: m = -1 is no branch.
        with pytest.raises(ValueError, match="mass must be non-negative"):
            shoot(-1.0, lam)

    def test_shifted_runs_share_degenerate_values(self):
        # F2(j+1, n) = F1(j, n) and F3(j+1, n) = F4(j, n): the j=2 run must
        # reproduce the matching j=1 values.
        evs1 = shoot_j(0.0, 1, +1, ShootingConfig(eps_scan=(0.3, 4.3)))
        evs2 = shoot_j(0.0, 2, +1, ShootingConfig(eps_scan=(0.3, 4.3)))
        p1 = {round(ev.p_sq, 6) for ev in evs1}
        p2 = {round(ev.p_sq, 6) for ev in evs2}
        # j=1: F1(n=0) = 8 appears at j=2 as F2(n=0); F4(j=1,n=0) = 4 appears
        # at j=2 as F3... F3(2,n) starts at n=1 -> 16; shared here: {8, 9, 15, 16}
        shared = p1 & p2
        for want in (8.0, 9.0, 15.0, 16.0):
            assert any(abs(s - want) < 1e-5 for s in shared)

    def test_discretization_independence(self, monkeypatch):
        cfg = ShootingConfig(eps_scan=(2.7, 2.95))
        base = shoot_j(0.0, 1, +1, cfg)
        assert len(base) == 1  # sqrt(8)
        monkeypatch.setattr(oracle, "R_START_OFFSET", oracle.R_START_OFFSET / 2)
        halved = shoot_j(0.0, 1, +1, cfg)
        assert abs(halved[0].eps - base[0].eps) < 1e-9

    def test_j0_pendant_discretization_independence(self, monkeypatch):
        cfg = ShootingConfig(eps_scan=(1.6, 1.85))
        base = shoot_j0(0.0, +1, cfg)
        monkeypatch.setattr(oracle, "R_START_OFFSET", oracle.R_START_OFFSET / 2)
        halved = shoot_j0(0.0, +1, cfg)
        assert abs(base[0].eps - halved[0].eps) < 1e-9

    def test_weak_singularity_flag(self, monkeypatch):
        """No level of the sqrt(8) window is weakly singular at the default
        DET_TOLERANCE; with the threshold at 0 every level is flagged."""
        cfg = ShootingConfig(eps_scan=(2.7, 2.95))
        assert [ev.flags for ev in shoot_j(0.0, 1, +1, cfg)] == [[]]
        monkeypatch.setattr(oracle, "DET_TOLERANCE", 0.0)
        evs = shoot_j(0.0, 1, +1, cfg)
        assert evs and all(ev.flags == ["weak-singularity"] for ev in evs)

    @pytest.mark.parametrize("j, window, levels", [(12, (0.1, 30.3), 36), (10, (34.0, 36.0), 5)])
    def test_high_j_windows_confirmed_from_unit_start(self, j, window, levels):
        """From start columns of size r0^j these windows raised "shooting does
        not confirm the level"; from unit columns every level is confirmed
        and none is weakly singular."""
        evs = shoot_j(0.0, j, +1, ShootingConfig(eps_scan=window))
        assert len(evs) == levels and all(ev.flags == [] for ev in evs)


class TestSharedShooting:
    @pytest.mark.parametrize("shoot", [
        lambda cfg: shoot_j0(0.0, +1, cfg), lambda cfg: shoot_j(0.0, 1, +1, cfg),
    ], ids=["j0", "j1"])
    def test_one_integration_per_shot(self, monkeypatch, shoot):
        """Every level of the window is confirmed in a single solve_ivp
        over three lanes per level; nothing is refined by brentq."""
        real_ivp, lanes = oracle.solve_ivp, []

        def ivp(fun, t_span, y0, **k):
            lanes.append(len(y0))
            return real_ivp(fun, t_span, y0, **k)

        def no_brentq(*a, **k):
            raise AssertionError("brentq called")

        monkeypatch.setattr(oracle, "solve_ivp", ivp)
        monkeypatch.setattr(oracle, "brentq", no_brentq)
        evs = shoot(ShootingConfig(eps_scan=(1.6, 3.0)))
        n = 2 if evs[0].j == 0 else 8  # state entries per lane
        assert len(evs) >= 2 and lanes == [3 * len(evs) * n]

    @pytest.mark.parametrize("first_failure", [1], ids=["every"])
    @pytest.mark.parametrize("shoot", [
        lambda cfg: shoot_j0(0.0, +1, cfg), lambda cfg: shoot_j(0.0, 1, +1, cfg),
    ], ids=["j0", "j1"])
    def test_failed_integration_raises_typed_error(self, monkeypatch, shoot, first_failure):
        """When the confirming integration fails, no level can be had:
        IntegrationError says why at once, with no second integration."""
        real_ivp, calls = oracle.solve_ivp, []

        def fail_from(*a, **k):
            calls.append(k["rtol"])
            sol = real_ivp(*a, **k)
            if len(calls) >= first_failure:
                sol.success, sol.message = False, "forced failure"
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", fail_from)
        with pytest.raises(oracle.IntegrationError, match="integration failed: forced failure"):
            shoot(ShootingConfig(eps_scan=(1.6, 2.1)))
        assert calls == [oracle.INTEGRATOR_RTOL]


class TestIntegrator:
    TOL = {"rtol": oracle.INTEGRATOR_RTOL, "atol": oracle.INTEGRATOR_ATOL}

    def test_rotation_ends_on_the_circle(self):
        """y' = [[0, w], [-w, 0]] y over five periods is (cos wt, -sin wt);
        the result is the state at the end of t_span alone."""
        w, t0, t1 = 3.0, 0.25, 0.25 + 10 * math.pi / 3.0
        sol = oracle.solve_ivp(lambda t, y: np.array([[0, w], [-w, 0]]) @ y, (t0, t1),
                               [math.cos(w * t0), -math.sin(w * t0)], **self.TOL)
        assert sol.success and sol.naccept > 0 and sol.y.shape == (2,)
        assert np.abs(sol.y - [math.cos(w * t1), -math.sin(w * t1)]).max() <= 1e-8

    def test_takes_no_sample_points(self):
        with pytest.raises(TypeError, match="t_eval"):
            oracle.solve_ivp(lambda t, y: -y, (0.5, 2.0), [1.0], t_eval=[0.5, 1.0, 2.0], **self.TOL)

    def test_nfev_counts_every_rhs_call(self):
        calls = []

        def fun(t, y):
            calls.append(t)
            return np.array([y[1], -y[0]])

        sol = oracle.solve_ivp(fun, (0.0, 7.0), [0.0, 1.0], **self.TOL)
        assert sol.success and sol.nfev == len(calls) > 0

    def test_blow_up_fails_without_raising(self):
        """y' = y^2, y(0) = 1 is 1 / (1 - t): the step collapses at the pole,
        and the result says where."""
        sol = oracle.solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], **self.TOL)
        assert not sol.success and sol.nreject > 0
        assert re.fullmatch(r"step collapsed at r = 1\.0000000\d*: last step \S+, error estimate \S+", sol.message)

    def test_step_counts_pinned(self):
        """Van der Pol at mu = 3 from (2, 0) over (0, 7.9) rejects some steps:
        the accepted, rejected and RHS-call counts pin the acceptance test
        err <= 1 and the rule that stretches a step within 0.99 of the end."""
        sol = oracle.solve_ivp(lambda t, y: np.array([y[1], 3.0 * (1 - y[0] ** 2) * y[1] - y[0]]),
                               (0.0, 7.9), [2.0, 0.0], **self.TOL)
        assert sol.success
        assert (sol.naccept, sol.nreject, sol.nfev) == (53, 9, 2286)

    def test_blow_up_collapse_pinned(self):
        """y' = y^2, y(0) = 1: the step falls under the floor 1e-14 max|t| at
        a pinned r with a pinned last step."""
        sol = oracle.solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], **self.TOL)
        assert sol.message.startswith("step collapsed at r = 1.00000000002427: last step 2.601e-14,")
        assert (sol.naccept, sol.nreject, sol.nfev) == (113, 111, 8178)

    def test_blow_up_through_match_is_integration_error(self, monkeypatch):
        """y' = 4 (1 + y^2) from y(r0) = 0, a start of its own, is
        tan(4 (r - r0)): it has a pole at r0 + pi/8, before the equator."""
        real_ivp = oracle.solve_ivp
        monkeypatch.setattr(oracle, "solve_ivp", lambda fun, span, y0, **k: real_ivp(
            lambda r, y: 4 * (1 + y * y), span, np.zeros_like(y0), **k))
        with pytest.raises(oracle.IntegrationError, match=r"integration failed: step collapsed at r = 0\.39"):
            oracle._match(np.array([2.0]), 1, oracle.R_START_OFFSET)


class TestPPart:
    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_built_once_per_integration(self, j, monkeypatch):
        """plus P + minus Q is formed once per _match, however many RHS calls
        the integration makes: the lanes, an ndarray subclass that counts the
        ufunc calls it enters, enter two (plus P and minus Q), and the match
        matrices are those of plain lanes bit for bit."""
        calls, nfev, real_ivp = [], [], oracle.solve_ivp

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                calls.append(ufunc.__name__)
                inputs = [v.view(np.ndarray) if isinstance(v, Counted) else v for v in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        def counted_ivp(*args, **kwargs):
            sol = real_ivp(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", counted_ivp)
        p = np.linspace(0.3, 14.0, 18)
        got = oracle._match(p.view(Counted), j, oracle.R_START_OFFSET)
        assert calls == ["multiply", "multiply"] and nfev[0] > 100
        assert got.tobytes() == oracle._match(p, j, oracle.R_START_OFFSET).tobytes()


class TestNodeCounts:
    def test_counted_at_j0_only(self, monkeypatch):
        """Only shoot_j0 reads node counts: with _sign_changes made to raise,
        shoot_j at j = 1 returns the same levels, and shoot_j0 raises."""
        cfg = ShootingConfig(eps_scan=(0.1, 4.5))
        want = shoot_j(0.0, 1, +1, cfg)

        def refuse(block):
            raise AssertionError("nodes counted")

        monkeypatch.setattr(oracle, "_sign_changes", refuse)
        got = shoot_j(0.0, 1, +1, cfg)
        assert len(got) == 6 and got == want
        with pytest.raises(AssertionError, match="nodes counted"):
            shoot_j0(0.0, +1, J0_CFG)


def _principal_sine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sine of the largest principal angle between the column spaces of
    each pair of stacked matrices."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return np.linalg.norm(qb - qa @ (qa.swapaxes(-1, -2) @ qb), ord=2, axis=(-2, -1))


class TestAgainstReferenceIntegrator:
    @staticmethod
    def check(j, m, lam, hi):
        """The regular space _match carries to the equator in p, mapped by
        diag(1, 1/kappa, 1, 1/kappa) (diag(1, 1/kappa) at j = 0), kappa =
        (eps + lam m)/p, agrees with scipy's DOP853 at rtol 1e-13 on the
        massive system(j, eps + lam m, eps - lam m) from its own Frobenius
        start, at the levels of the window and 0.25 above each; at m > 0 the
        unmapped space does not, off the levels."""
        p, _ = oracle._locate(j, (0.1, math.sqrt(hi * hi - m * m)))
        p = np.concatenate([p, p + 0.25])
        r0 = oracle.R_START_OFFSET
        mats = oracle._match(p, j, r0)
        plus, minus = _weights(m, lam, np.hypot(p, m))
        sysm = system(j, plus, minus)
        start = _frobenius_initial(j, sysm, r0)
        ref = reference_ivp(lambda r, y: (sysm.matrix(r) @ y.reshape(start.shape)).reshape(-1),
                            (r0, math.pi / 2), start.reshape(-1), method="DOP853", rtol=1e-13, atol=1e-16)
        assert ref.success and len(p) >= 3
        ref, unmapped = ref.y[:, -1].reshape(start.shape), mats[..., :start.shape[-1]]
        unkappa = np.ones(start.shape[:2])
        unkappa[:, 1::2] = (p / plus)[:, None]
        assert _principal_sine(unkappa[..., None] * unmapped, ref).max() <= 1e-6
        assert m == 0 or _principal_sine(unmapped, ref)[len(p) // 2:].min() > 1e-3

    @pytest.mark.parametrize("j,m,hi", [(0, 1.0, 7.4), (1, 0.0, 4.5), (3, 1.0, 12.0), (6, 0.0, 10.0)])
    def test_equator_regular_space_matches_dop853(self, j, m, hi):
        self.check(j, m, +1, hi)

    @pytest.mark.parametrize("lam", [+1, -1])
    @pytest.mark.parametrize("m", [0.5, 3.7])
    @pytest.mark.parametrize("j", [0, 2])
    def test_mass_term_matches_dop853(self, j, m, lam):
        """The levels with p up to 9, at both branches."""
        self.check(j, m, lam, math.hypot(9.0, m))

    @pytest.mark.parametrize("j,m", [(0, 0.0), (0, 1.0), (0, 2.0), *((j, m) for m in (0.0, 1.0) for j in (1, 2, 3))])
    def test_acceptance_windows_are_clean(self, j, m):
        """Criteria 1 and 2: no level is flagged."""
        if j == 0:
            evs = shoot_j0(m, +1, _criterion_1_config(m))
        else:
            evs = shoot_j(m, j, +1, _scan_setup(j, m)[1])
        assert evs and [ev.flags for ev in evs] == [[]] * len(evs)


class TestLocateAndConfirm:
    def test_levels_closer_than_the_old_scan_step(self):
        """eps = sqrt(675) and 26 (j = 1, m = 0) lie 0.019 apart."""
        evs = shoot_j(0.0, 1, +1, ShootingConfig(eps_scan=(25.9, 26.05)))
        assert [ev.p_sq for ev in evs] == pytest.approx([675.0, 676.0], rel=1e-12)

    def test_too_small_n_cap_raises(self, monkeypatch):
        """At N = 26 two of the six j = 1 levels below 4.5 fail the tail
        test; with no larger N allowed the window is an error, not a short
        list, and the message names each N with its counts."""
        monkeypatch.setattr(oracle, "COLLOCATION_MAX_N", 51)
        with pytest.raises(oracle.SpectrumError, match=r"N=26: 6 raw, 4 accepted up to COLLOCATION_MAX_N=51"):
            shoot_j(0.0, 1, +1, ShootingConfig(eps_scan=(0.1, 4.5)))

    def test_window_past_the_cap_raises_at_once(self):
        """p_hi = 63, or sqrt(120^2 - 100^2) = 66.3 at m = 100, would start at
        N = 260 or more > COLLOCATION_MAX_N: no N is tried."""
        for m, window, p_window in ((0.0, (62.5, 63.0), "[62.5, 63]"), (100.0, (100.0, 120.0), "[0, 66.3325]")):
            with pytest.raises(oracle.SpectrumError, match=re.escape(
                    f"did not resolve p in {p_window} (j=1): no N up to COLLOCATION_MAX_N=256")):
                shoot_j(m, 1, +1, ShootingConfig(eps_scan=window))

    def test_unconfirmed_level_raises(self, monkeypatch):
        """p = 2.5 is no j = 0 level: the shooting determinant keeps its
        sign across the bracket, and the error names both values."""
        monkeypatch.setattr(oracle, "_locate", lambda *a: (np.array([2.5]), np.array([2])))
        with pytest.raises(oracle.SpectrumError,
                           match=r"does not confirm the level p=2\.5 \(j=0\): the determinant is "
                                 r"\S+ at p-2\.5e-07 and \S+ at p\+2\.5e-07$"):
            shoot_j0(1.0, +1, ShootingConfig(eps_scan=(2.0, 3.0)))


def _counted_solves(monkeypatch) -> list:
    """The block size of every sector solve from here on, in order."""
    real, sizes = oracle._sector_solve, []
    monkeypatch.setattr(oracle, "_sector_solve", lambda block: sizes.append(len(block)) or real(block))
    return sizes


class TestSolves:
    """_locate makes one np.linalg.eig per sector at each size it tries and
    no other dense solve."""

    def test_readme_window(self, monkeypatch):
        """N = 26 fails the tail test and N = 52 passes: four solves."""
        sizes = _counted_solves(monkeypatch)
        assert len(shoot_j(0.0, 1, +1, ShootingConfig(eps_scan=(0.1, 4.5)))) == 6
        assert sizes == [52, 52, 104, 104]

    def test_window_passing_at_its_first_size(self, monkeypatch):
        """(25.9, 26.05) passes at its first size, N = 114: two solves, none
        at 2N."""
        sizes = _counted_solves(monkeypatch)
        assert oracle._locate(1, (25.9, 26.05))[0] == pytest.approx([math.sqrt(675.0), 26.0], rel=1e-13)
        assert sizes == [228, 228]


class TestSweep:
    """The imaginary-part and tail tests alone return exactly a window's
    closed-form levels, each to 1e-12 relative in p^2, from j = 0 to 12 and
    up to p = 30.7, and with a window end on a level."""

    WINDOWS = [(j, (0.1, hi)) for j in (0, 1, 2, 3, 5, 8, 12) for hi in (2.0, 4.5, 12.3, 30.7)] + [(1, (0.1, 4.0))]

    @staticmethod
    def worst_error(j: int, window: tuple) -> float:
        """The largest |p^2 - p^2_exact| / p^2_exact over the window's levels;
        inf when the counts differ."""
        p, _ = oracle._locate(j, window)
        families = (Family.J0,) if j == 0 else tuple(FAMILIES)
        exact = sorted(float(e.p_sq) for e in family_levels(j, 60, 0.0, families)
                       if oracle.in_window(math.sqrt(e.p_sq), window))
        if len(p) != len(exact):
            return math.inf
        return max((abs(a * a - b) / b for a, b in zip(p, exact)), default=0.0)

    def test_levels_equal_the_closed_form(self):
        bad = {(j, w): e for j, w in self.WINDOWS if not (e := self.worst_error(j, w)) <= 1e-12}
        assert bad == {}

    def test_loose_tail_test_fails_the_gate(self, monkeypatch):
        """Negative control: with TAIL_TOL = 1, j = 0 on (0.2, 2.0) is accepted
        at N = 16, off by 5.2e-12."""
        monkeypatch.setattr(oracle, "TAIL_TOL", 1.0)
        assert 1e-12 < self.worst_error(0, (0.2, 2.0)) < math.inf


class TestSectors:
    """H commutes with the reflection R: Y(r) -> D Y(pi - r), which maps
    Chebyshev-Gauss point k to N-1-k, and _locate solves its two sectors."""

    @staticmethod
    def sector_of(j: int, p: list, N: int = 96) -> list:
        """The sector, +1 or -1, whose block at N points holds each level p."""
        blocks = [np.linalg.eigvals(b) for b in oracle._sector_blocks(j, N)[0]]
        return [s for level in p for s, vals in zip((1, -1), blocks)
                if np.abs(vals - level).min() <= 1e-9 * max(1.0, level)]

    @pytest.mark.parametrize("N", [16, 26, 64])
    @pytest.mark.parametrize("j", [0, 1, 3, 6])
    def test_reflection_commutes_with_h(self, j, N):
        H = oracle._collocation_matrix(j, N)[0]
        D, H4 = system(j, 0.0, 0.0).D, H.reshape(len(H) // N, N, len(H) // N, N)
        RH, HR = D[:, None, None, None] * H4[:, ::-1], H4[..., ::-1] * D[:, None]
        assert np.abs(RH - HR).max() <= 1e-11 * np.abs(H).max()

    @pytest.mark.parametrize("N", [16, 26, 64])
    @pytest.mark.parametrize("j", [0, 1, 3, 6])
    def test_sectors_hold_the_full_spectrum(self, j, N):
        """Both sectors together are eigvals of the full H, relative to
        max(1, |p|), less the j = 0 p = 0 pair, whose split differs."""
        full = np.linalg.eigvals(oracle._collocation_matrix(j, N)[0])
        sectors = np.concatenate([np.linalg.eigvals(b) for b in oracle._sector_blocks(j, N)[0]])
        full, sectors = (v[np.abs(v) >= 0.5] if j == 0 else v for v in (full, sectors))
        assert len(full) == len(sectors)
        for a, b in ((full, sectors), (sectors, full)):
            assert (np.abs(a[:, None] - b[None, :]).min(axis=1) <= 1e-11 * np.maximum(1.0, np.abs(a))).all()

    @pytest.mark.parametrize("N", [16, 26, 64])
    @pytest.mark.parametrize("j", [0, 1, 3, 6])
    def test_rebuilt_vectors_are_reflection_symmetric(self, j, N):
        """y(N-1-k) = s D y(k) bit for bit, s = +1 on the first half of the
        columns (the + block) and -1 on the second."""
        vals, vecs, _ = oracle._sector_eigs(j, N)
        D, half = system(j, 0.0, 0.0).D, len(vals) // 2
        y = vecs.reshape(len(D), N, -1)
        s = np.repeat([1.0, -1.0], half)
        assert np.array_equal(y[:, ::-1], s * D[:, None, None] * y)

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
    def test_j0_sector_follows_the_node_count(self, m):
        """At j = 0 a level's sector times (-1)^nodes is -1."""
        evs = shoot_j0(m, +1, _criterion_1_config(m))
        sectors = self.sector_of(0, [math.sqrt(ev.p_sq) for ev in evs])
        assert len(evs) == 6 and [s * (-1) ** ev.node_count for s, ev in zip(sectors, evs)] == [-1] * 6

    @pytest.mark.parametrize("j,m", [(j, m) for m in (0.0, 1.0) for j in (1, 2, 3)])
    def test_sector_follows_the_family(self, j, m):
        """At j >= 1 the sector is +1 for F2 and F3 levels and -1 for F1 and
        F4 levels, as compare_spectra matches them."""
        required, cfg = _scan_setup(j, m)
        cmp = compare_spectra(shoot_j(m, j, +1, cfg), required, rel_tol=1e-5)
        sectors = self.sector_of(j, [math.sqrt(ev.p_sq) for ev, _, _ in cmp.matched])
        expect = {Family.F1: -1, Family.F2: 1, Family.F3: 1, Family.F4: -1}
        assert cmp.passed and sectors == [expect[entry.family] for _, entry, _ in cmp.matched]


class TestFrobeniusSeries:
    @pytest.mark.parametrize("j,lam", [(0, +1), (0, -1), (1, +1), (3, -1)])
    def test_truncation_error_is_fifth_order(self, j, lam):
        sysm = system(j, *ModeParams(m=0.7, eps=2.3, lambda_sign=lam).eps_pm)
        A_m1, A_0, A_1, A_2, A_3 = _series_matrices(sysm)
        err = [
            np.abs(A_m1 / r + A_0 + A_1 * r + A_2 * r**2 + A_3 * r**3 - sysm.matrix(r)).max()
            for r in (2e-2, 1e-2)
        ]
        assert 24 < err[0] / err[1] < 40

    @pytest.mark.parametrize("j,m", [(0, 0.7), (1, 0.0), (3, -0.7)])
    def test_batched_start_equals_single_lanes(self, j, m):
        """m < 0 is the lambda = -1 branch at mass |m|."""
        eps = np.array([0.4, 1.7, 2.3, 5.1])
        lam = -1 if m < 0 else +1
        batched = _frobenius_initial(j, system(j, *_weights(abs(m), lam, eps)), 1e-3)
        n = 2 if j == 0 else 4
        assert batched.shape == (len(eps), n, n // 2)
        for lane, e in enumerate(eps):
            single = _frobenius_initial(j, system(j, *_weights(abs(m), lam, [e])), 1e-3)[0]
            assert np.allclose(batched[lane], single, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("j", [0, 1, 5, 20, 60])
    def test_start_columns_have_unit_norm(self, j):
        """Each regular start column is divided by its norm, at every lane:
        no column starts at r0^j, which underflows the determinant at high j
        and, from j ~ 53, the norm itself."""
        cols = _frobenius_initial(j, system(j, *_weights(0.0, +1, [0.3, 4.5, 61.9])), oracle.R_START_OFFSET)
        assert np.abs(np.linalg.norm(cols, axis=1) - 1.0).max() <= 4 * np.finfo(float).eps


class TestCompare:
    def test_full_match(self):
        cfg = ShootingConfig(eps_scan=(0.3, 4.3))
        evs = shoot_j(0.0, 1, +1, cfg)
        closed = [e for e in family_levels(1, 2, 0) if math.sqrt(float(e.eps_sq)) <= 4.3]
        cmp = compare_spectra(evs, closed)
        assert cmp.passed
        fams = {(c.family, c.n) for _, c, _ in cmp.matched}
        assert (Family.F3, 1) in fams and (Family.F3, 0) not in fams

    def test_level_off_by_1e8_fails(self):
        """Negative control: a closed-form level whose p^2 is moved by a
        relative 1e-8 is no longer matched by the default tolerance, though
        it lies well inside the 1e-5 the acceptance criteria pass explicitly."""
        evs = shoot_j(1.0, 2, +1, ShootingConfig(eps_scan=(0.5, 12.0)))
        closed = [e for e in family_levels(2, 8, 1) if e.bound and e.eps() <= 12.0]
        assert len(closed) >= 4 and compare_spectra(evs, closed).passed
        moved = dataclasses.replace(closed[2], p_sq=closed[2].p_sq * Fraction(1 + 1e-8))
        assert float(moved.p_sq / closed[2].p_sq) - 1 == pytest.approx(1e-8, rel=1e-6)
        shifted = [*closed[:2], moved, *closed[3:]]
        cmp = compare_spectra(evs, shifted)
        assert not cmp.passed and cmp.unmatched_closed == [moved]
        assert compare_spectra(evs, shifted, rel_tol=1e-5).passed

    def test_empty_oracle_reports_all_closed_unmatched(self):
        closed = [spectrum(Family.F1, 1, n, 0) for n in range(3)]
        cmp = compare_spectra([], closed)
        assert not cmp.passed
        assert len(cmp.unmatched_closed) == 3

    def test_compare_leaves_its_arguments_as_they_were(self):
        """The README window's six levels, compared with the closed levels
        and then with none: each comparison reads its arguments only, so the
        second leaves all six unmatched and no level carries a family."""
        evs = shoot_j(0.0, 1, config=ShootingConfig(eps_scan=(0.1, 4.5)))
        closed = family_levels(1, 3, 0)
        levels, entries = [dataclasses.asdict(ev) for ev in evs], list(closed)
        assert len(compare_spectra(evs, closed).matched) == len(evs) == 6
        assert [dataclasses.asdict(ev) for ev in evs] == levels and closed == entries
        again = compare_spectra(evs, [])
        assert again.matched == [] and again.unmatched_oracle == evs
        assert [dataclasses.asdict(ev) for ev in evs] == levels
        assert not any("family" in name for level in levels for name in level)

    def test_extra_oracle_value_flagged(self):
        fake = OracleEigenvalue(eps=1.23, p_sq=1.23**2, j=1, bracket=(1.2, 1.25))
        cmp = compare_spectra([fake], [])
        assert not cmp.passed and cmp.unmatched_oracle == [fake]


class TestConfig:
    def test_validation(self):
        for window in [(3.0, 1.0), (3.0, 1.0, 0.1), (-0.1, 1.0), (1.0,), (0.1, 1.0, 0.02, 0.0),
                       (0.1, math.inf), (0.1, math.nan), (0.1, -math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="bad eps window"):
                ShootingConfig(eps_scan=window)

    def test_unbounded_window_is_value_error(self):
        """Not an OverflowError from sizing the collocation grid by hi."""
        with pytest.raises(ValueError, match=r"bad eps window \(0\.1, inf\)"):
            shoot_j(0.0, 1, +1, ShootingConfig(eps_scan=(0.1, math.inf)))

    def test_trailing_step_is_ignored(self):
        """(lo, hi, step), the old scan window, still constructs; the step
        changes nothing."""
        want = shoot_j0(0.0, +1, ShootingConfig(eps_scan=(1.6, 2.1)))
        for step in (0.05, 10.0):
            got = shoot_j0(0.0, +1, ShootingConfig(eps_scan=(1.6, 2.1, step)))
            assert [(ev.eps, ev.bracket) for ev in got] == [(ev.eps, ev.bracket) for ev in want]

    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(ShootingConfig)] == ["eps_scan"]
