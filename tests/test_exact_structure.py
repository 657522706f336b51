"""The L1 amplitude evaluation and the L2 check kernels take exact ones,
structural zeros and repeated pole powers from structure instead of
computing them.  The bodies that computed them are kept here as references,
and every value, report and sign of zero must equal theirs bit for bit."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from dkradial import verify
from dkradial._exprs import eval_r_cos2_all
from dkradial.closedform import (
    FAMILIES,
    Family,
    RadialSolution,
    family_exprs,
    general_basis,
    spectrum,
    wavefunction_j0,
)
from dkradial.hypergeo import Hyp2F1Params, gauss_2f1
from dkradial.model import (
    ModeParams,
    QuantumNumbers,
    factor_pair_K,
    factor_pair_M,
    operator_K4,
    operator_M4,
    system,
)
from dkradial.verify import chebyshev_grid, cross_consistency, factorization_identity, j0_pair_residual

# -- reference bodies ---------------------------------------------------------


class ReferenceFactors:
    """Factor table that multiplies every factor, exact ones included."""

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        self.scalar, self.x = x.ndim == 0, np.atleast_1d(x)
        self._xpow, self._ypow, self._hyp = {}, {}, {}

    def term(self, key, coef):
        xp, yp, abc = key[0], key[1], key[2:]
        xf = self._xpow.get(xp)
        if xf is None:
            xf = self._xpow[xp] = self.x**xp
        yf = self._ypow.get(yp)
        if yf is None:
            yf = self._ypow[yp] = (1.0 - self.x) ** yp
        f = self._hyp.get(abc)
        if f is None:
            f = self._hyp[abc] = gauss_2f1(Hyp2F1Params(*abc), self.x)
        return coef * xf * yf * f


def reference_eval_x(expr, x):
    """Every term summed onto zeros, in term order."""
    table = ReferenceFactors(x)
    out = np.zeros_like(table.x)
    for key, c in expr._coefs.items():
        out += table.term(key, c)
    return out[0] if table.scalar else out


def reference_eval_r_cos2_all(exprs, r):
    """Both parity halves summed onto zeros from one table, then
    even + sign(cos r) * odd, empty halves included."""
    u = np.cos(np.asarray(r, dtype=float))
    table = ReferenceFactors(u * u)
    sign = np.where(np.atleast_1d(u) >= 0, 1.0, -1.0)
    out = []
    for e in exprs:
        even, odd = np.zeros_like(table.x), np.zeros_like(table.x)
        for key, c in e._coefs.items():
            if (2 * key[0]) % 2 != 0:
                odd += table.term(key, c)
            else:
                even += table.term(key, c)
        v = even + sign * odd
        out.append(v[0] if table.scalar else v)
    return out


def reference_diff_r_cos2(expr):
    return expr.diff().shift(0.5, 0.5).scale(-2.0)


def reference_coefficient(c, x):
    """RationalCoefficient value with 1 - x and every pole power computed
    afresh."""
    x = np.asarray(x)
    x, num = (x, Fraction) if x.dtype == object else (np.asarray(x, dtype=float), float)
    out = np.zeros_like(x)
    for k in range(len(c.poly) - 1, -1, -1):
        out = out * x + num(c.poly[k])
    for poles, base in ((c.poles0, x), (c.poles1, 1 - x)):
        for k, v in enumerate(poles, start=1):
            if v:
                out = out + num(v) / base**k
    return out


def reference_term_rows(op, x, derivs):
    x = np.asarray(x, dtype=float)
    return np.array([reference_coefficient(op.coeffs[k], x) * np.asarray(derivs[k], dtype=float)
                     for k in range(op.order + 1)])


def reference_factorization_identity(outer, inner, direct, name="factorization-identity"):
    """factorization_identity with each coefficient evaluated on its own
    and x**2 formed in every term."""
    dn = []
    for c in inner.coeffs:
        dn.append([c])
        for _ in range(outer.order):
            dn[-1].append(dn[-1][-1].derivative())
    coeffs = [*outer.coeffs, *inner.coeffs, *direct.coeffs]
    if all(isinstance(v, (int, Fraction)) for c in coeffs for v in c.poly + c.poles0 + c.poles1):
        def bound(cs):
            return np.max([(len(c.poly) - 1, len(c.poles0), len(c.poles1)) for c in cs], axis=0)

        terms_b = bound(outer.coeffs) + bound([c for row in dn for c in row]) + (2, 0, 0)
        d = int(np.maximum(terms_b, bound(direct.coeffs)).sum())
        x = np.array([Fraction(k, d + 2) for k in range(1, d + 2)], dtype=object)
    else:
        x = np.linspace(0.05, 0.95, 91)
    ov = [reference_coefficient(c, x) for c in outer.coeffs]
    nv = [[reference_coefficient(c, x) for c in row] for row in dn]
    resid, scale = [], []
    for s in range(direct.order + 1):
        terms = [math.comb(i, l) * x**2 * ov[i] * nv[s - l][i - l]
                 for i in range(outer.order + 1) for l in range(i + 1) if 0 <= s - l <= inner.order]
        straight = reference_coefficient(direct.coeffs[s], x)
        resid.append(sum(terms) - straight)
        scale.append(np.maximum(np.abs(straight), np.max(np.abs(terms), axis=0)))
    scale = np.array(scale)
    rel = (np.abs(np.array(resid)) / np.where(scale > 0, scale, 1)).max(axis=0).astype(float)
    return verify._report(name, x.astype(float), rel, np.ones(len(x)), verify.IDENTITY_TOL)


def reference_matrix(sol) -> np.ndarray:
    """The dense A(r) stack (point, row, column) at sol.params on sol's grid:
    (eps + mu)(E + U)/2 + (eps - mu)(E - U)/2 + (a/sin r) S + (cot r) T, every
    entry of all four matrices formed, with eps +- mu as ModeParams gives them."""
    r, sysm = sol.grid, system(sol.qn.j, 0.0, 0.0)
    weights = (*sol.params.eps_pm, sysm.a * (1.0 / np.sin(r)), 1.0 / np.tan(r))
    w = [np.asarray(v)[..., None, None] for v in weights]
    return w[0] * ((sysm.E + sysm.U) / 2) + w[1] * ((sysm.E - sysm.U) / 2) + w[2] * sysm.S + w[3] * sysm.T


def reference_system_report(sol, name, tol, dY=None):
    """The system residual from the dense A(r) stack, its terms held as
    (row, column, point) and added column by column, left to right."""
    r, state = sol.grid, system(sol.qn.j, 0.0, 0.0).state
    Y = np.array([getattr(sol, k) for k in state])
    if dY is None:
        dY = reference_eval_r_cos2_all([reference_diff_r_cos2(sol.exprs[k]) for k in state], r)
    dY = np.asarray(dY)
    terms = reference_matrix(sol).transpose(1, 2, 0) * Y
    total, big = terms[:, 0], np.abs(terms[:, 0])
    for c in range(1, len(Y)):
        total = total + terms[:, c]
        big = np.maximum(big, np.abs(terms[:, c]))
    scales = np.maximum(np.abs(dY), big)
    rel = np.abs(dY - total) / np.where(scales > 0, scales, 1.0)
    return verify._report(name, r, rel.max(axis=0), np.ones_like(r), tol)


# -- comparisons --------------------------------------------------------------


def same_bits(got, want):
    """Equal bit for bit: the sign of a zero counts, as a CSV prints it."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def same_report(got, want):
    return repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))


def same_terms(got, want):
    return [(k, c.hex()) for k, c in got._coefs.items()] == [(k, c.hex()) for k, c in want._coefs.items()]


# One point (the equator, x = cos^2 r about 4e-33), the 200 r of
# chebyshev_grid() and the 2001 r of the wavefunction CLI grid, whose middle
# point is the equator too.
R_GRIDS = (
    np.array([math.pi / 2]),
    np.arccos(np.sqrt(chebyshev_grid())),
    np.linspace(verify.END_BUFFER, math.pi - verify.END_BUFFER, 2001),
)
X_GRID = np.concatenate([[0.0, 1e-7], chebyshev_grid(), [0.5]])


def family_states(j_max=4):
    for fam, seed in FAMILIES.items():
        for j in range(1, j_max + 1):
            for n in range(max(0, -seed.offset), 4):
                yield fam, QuantumNumbers(j, n), float(spectrum(fam, j, n, 0).p_sq)


def check_exprs(exprs, grids=R_GRIDS):
    """Values of exprs and of their r-derivatives, together and one by one,
    under x = cos^2 r on every grid and on the principal branch; the
    r-derivatives hold the reference's terms."""
    derivs = [e.diff_r_cos2() for e in exprs]
    for e, d in zip(exprs, derivs):
        assert same_terms(d, reference_diff_r_cos2(e))
    both = [*exprs, *derivs]
    for r in grids:
        for got, want in zip(eval_r_cos2_all(both, r), reference_eval_r_cos2_all(both, r)):
            assert same_bits(got, want)
        for e in both:
            assert same_bits(e.eval_r_cos2(r[len(r) // 2]), reference_eval_r_cos2_all([e], r[len(r) // 2])[0])
    for e in both:
        assert same_bits(e.eval_x(X_GRID), reference_eval_x(e, X_GRID))
        assert same_bits(e.eval_x(0.0), reference_eval_x(e, 0.0))


class TestAmplitudeEvaluation:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_family_states(self, j):
        """Every family state with n <= 3 at this j, for masses 0 and 1.7."""
        seen = {"empty halves": 0, "degree-0 2F1": 0, "unit x or (1-x) power": 0}
        for fam, qn, p_sq in family_states():
            if qn.j != j:
                continue
            for m in (0.0, 1.7):
                exprs = list(family_exprs(fam, qn, ModeParams.from_p_sq(m, p_sq)).values())
                check_exprs(exprs)
                keys = [k for e in exprs for k in e._coefs]
                seen["degree-0 2F1"] += any(0.0 in k[2:4] for k in keys)
                seen["unit x or (1-x) power"] += any(0.0 in k[:2] for k in keys)
                seen["empty halves"] += any(len({(2 * k[0]) % 2 for k in e._coefs}) < 2 for e in exprs)
        assert all(seen.values()), seen  # every skipped structure is met

    def test_general_basis(self):
        """The four general-basis solutions run the series 2F1 path."""
        for j in (1, 2):
            for sol in general_basis(j, 2.3, ModeParams(m=0.5, eps=math.sqrt(2.3**2 + 0.25)), np.array([1.0])):
                check_exprs(list(sol.exprs.values()), grids=R_GRIDS[:2])

    def test_j0_pair(self):
        for n in range(6):
            params = ModeParams(m=1.0, eps=spectrum(Family.J0, 0, n, 1.0).eps())
            check_exprs(list(wavefunction_j0(n, params, np.array([1.0])).exprs.values()))

    def test_empty_expression_is_positive_zero(self):
        """At j = 2 the L of the K-led seed with x-exponent 0 cancels term by
        term: no term, and +0.0 at every point."""
        e = general_basis(2, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))[1].exprs["L"]
        assert not e._coefs
        for r in R_GRIDS:
            assert same_bits(eval_r_cos2_all([e], r)[0], np.zeros_like(r))


class TestSystemReport:
    """_system_report forms only the nonzero entries of A(r); the reports
    equal those of the dense stack."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_cross_consistency(self, j):
        for fam, qn, p_sq in family_states():
            if qn.j != j:
                continue
            for m, lam in ((0.0, 1), (1.0, -1), (3.7, 1)):
                params = ModeParams.from_p_sq(m, p_sq, lambda_sign=lam)
                exprs = family_exprs(fam, qn, params)
                r = verify._CROSS_R
                K, L, M, N, *dY = reference_eval_r_cos2_all(
                    [*exprs.values(), *(reference_diff_r_cos2(e) for e in exprs.values())], r)
                sol = RadialSolution(qn=qn, params=params, grid=r, K=K, L=L, M=M, N=N, exprs=exprs)
                name = f"cross-consistency[{fam.value} j={qn.j} n={qn.n}]"
                want = reference_system_report(sol, name, verify.IDENTITY_TOL, dY)
                assert same_report(cross_consistency(fam, qn, params), want), (fam, qn, m, lam)

    @pytest.mark.parametrize("r", R_GRIDS, ids=["1", "200", "2001"])
    def test_j0_pair(self, r):
        for n in range(8):
            for m, lam in ((0.0, 1), (1.0, -1)):
                sol = wavefunction_j0(n, ModeParams(m=m, eps=spectrum(Family.J0, 0, n, m).eps(), lambda_sign=lam), r)
                name = f"j0-pair[n={n} lambda={lam:+d}]"
                assert same_report(j0_pair_residual(sol), reference_system_report(sol, name, verify.RESIDUAL_TOL))

    def test_general_basis(self):
        for r in R_GRIDS[:2]:
            for j in (1, 3):
                for m in (0.0, 1.0):
                    for sol in general_basis(j, 2.3, ModeParams(m=m, eps=math.sqrt(2.3**2 + m * m)), r):
                        want = reference_system_report(sol, "g", verify.IDENTITY_TOL)
                        assert same_report(verify._system_report(sol, "g", verify.IDENTITY_TOL), want)

    def test_pattern_from_the_constant_matrices(self):
        """10 of the 16 entries of A(r) are structurally nonzero for j >= 1,
        all 4 of the j = 0 block."""
        assert sum(len(row) for row in verify._ENTRIES[4]) == 10
        assert sum(len(row) for row in verify._ENTRIES[2]) == 4


class TestCoefficientTable:
    POINTS = (0.3, chebyshev_grid(), np.linspace(0.001, 0.999, 2001),
              np.array([Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)], dtype=object))

    @staticmethod
    def operators():
        for j in (1, 2, 3):
            a_sq = j * (j + 1)
            for p_sq in (3, Fraction(7, 3), 8.5, 24.0):
                yield from (operator_K4(p_sq, a_sq), operator_M4(p_sq, a_sq),
                            *factor_pair_K(p_sq, a_sq), *factor_pair_M(p_sq, a_sq))

    def test_values_and_term_rows(self):
        for op in self.operators():
            for x in self.POINTS:
                for c in op.coeffs:
                    got, want = c(x), reference_coefficient(c, x)
                    assert (repr(got) == repr(want)) if np.asarray(x).dtype == object else same_bits(got, want)
                if np.asarray(x).dtype != object and np.ndim(x):
                    derivs = np.cos(np.outer(np.arange(1, op.order + 2), x))
                    assert same_bits(op.term_rows(x, derivs), reference_term_rows(op, x, derivs))

    def test_operator_residual_reports(self):
        x = chebyshev_grid()
        for fam, qn, p_sq in family_states(3):
            K, M = (family_exprs(fam, qn, ModeParams.from_p_sq(0.0, p_sq))[k] for k in "KM")
            for op, e in ((operator_K4(p_sq, qn.a_sq), K), (operator_M4(p_sq, qn.a_sq), M)):
                derivs = e.derivative_column(x, 4)
                rows = reference_term_rows(op, x, derivs)
                want = verify._report("r", x, sum(rows, np.zeros_like(x)), np.abs(rows).max(axis=0),
                                      verify.RESIDUAL_TOL)
                assert same_report(verify.residual_operator(op, x, derivs, "r"), want)

    def test_factorization_both_paths(self):
        paths = set()
        for j in (1, 2, 4):
            a_sq = j * (j + 1)
            for p_sq in (3, Fraction(7, 3), 3.0, 8.5, 24):
                for pair, direct in ((factor_pair_K, operator_K4), (factor_pair_M, operator_M4)):
                    got = factorization_identity(*pair(p_sq, a_sq), direct(p_sq, a_sq))
                    want = reference_factorization_identity(*pair(p_sq, a_sq), direct(p_sq, a_sq))
                    assert same_report(got, want), (j, p_sq)
                    paths.add(got.sample_count == 91)
        assert paths == {True, False}  # the float path and the exact path
