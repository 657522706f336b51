"""The L1 amplitude evaluation and the L2 check kernels take exact ones,
structural zeros and repeated pole powers from structure instead of
computing them, and allocate once per term.  The bodies that computed them,
and the bodies that allocated per term, are kept here as references, and
every value, report and sign of zero must equal theirs bit for bit.  Last,
the fourth-order operators annihilate the family amplitudes exactly, in
Fraction arithmetic."""

import dataclasses
import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from dkradial import verify
from dkradial._exprs import Expr, _Factors, _merged, eval_r_cos2_all
from dkradial.closedform import (
    FAMILIES,
    Family,
    RadialSolution,
    family_KM_exprs,
    family_exprs,
    general_basis,
    spectrum,
    wavefunction_j0,
)
from dkradial.hypergeo import Hyp2F1Params, gauss_2f1
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
    return verify._report(name, x.astype(float), rel, verify.IDENTITY_TOL)


def reference_matrix(sol) -> np.ndarray:
    """The dense A(r) stack (point, row, column) at sol.params on sol's grid,
    every entry of P, Q, S and T formed: system(j, eps + mu, eps - mu).matrix,
    with eps +- mu as ModeParams gives them."""
    return system(sol.qn.j, *sol.params.eps_pm).matrix(sol.grid)


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
    return verify._report(name, r, rel.max(axis=0), tol)


# -- parent bodies of the per-term kernels ------------------------------------
# The kernels below now add into one dict, multiply in place or stack their
# rows; these are the bodies they replaced, which allocated per term.


def parent_diff(expr):
    """Expr.diff by a list of (key, coefficient) pairs, then _merged."""
    out = []
    for (xp, yp, a, b, g), c in expr._coefs.items():
        if xp != 0:
            out.append(((xp - 1, yp, a, b, g), c * xp))
        if yp != 0:
            out.append(((xp, yp - 1, a, b, g), -c * yp))
        fac = a * b / g
        if fac != 0.0:
            out.append(((xp, yp, a + 1, b + 1, g + 1), c * fac))
    return Expr._of(_merged(out))


class ParentFactors(_Factors):
    """_Factors whose term slices the key and multiplies out of place."""

    __slots__ = ()

    def term(self, key, coef):
        xp, yp, abc = key[0], key[1], key[2:]
        out = coef
        if xp != 0.0:
            xf = self._xpow.get(xp)
            if xf is None:
                xf = self._xpow[xp] = self.x**xp
            out = out * xf
        if yp != 0.0:
            yf = self._ypow.get(yp)
            if yf is None:
                yf = self._ypow[yp] = (1.0 - self.x) ** yp
            out = out * yf
        if abc[0] != 0.0 and abc[1] != 0.0:
            f = self._hyp.get(abc)
            if f is None:
                f = self._hyp[abc] = gauss_2f1(Hyp2F1Params(*abc), self.x)
            out = out * f
        return out if isinstance(out, np.ndarray) else np.full_like(self.x, coef)


def parent_eval_r_cos2_all(exprs, r):
    """eval_r_cos2_all with ParentFactors and one generator pass per parity
    half."""
    u = np.cos(np.asarray(r, dtype=float))
    table = ParentFactors(u * u)
    sign = np.where(np.atleast_1d(u) >= 0, 1.0, -1.0)
    out = []
    for e in exprs:
        even = table.sum_terms((key, c) for key, c in e._coefs.items() if (2 * key[0]) % 2 == 0)
        odd = table.sum_terms((key, c) for key, c in e._coefs.items() if (2 * key[0]) % 2 != 0)
        if odd is not None:
            v = sign * odd + 0.0 if even is None else even + sign * odd
        else:
            v = np.zeros_like(table.x) if even is None else even
        out.append(v[0] if table.scalar else v)
    return out


def parent_values(coeffs, x):
    """RationalCoefficient.values with a new array for every Horner step and
    pole, from zeros_like(x)."""
    x = np.asarray(x)
    x, num = (x, Fraction) if x.dtype == object else (np.asarray(x, dtype=float), float)
    bases, powers = (x, 1 - x), {}
    out = []
    for c in coeffs:
        v = np.zeros_like(x)
        for k in range(len(c.poly) - 1, -1, -1):
            v = v * x + num(c.poly[k])
        for side, poles in enumerate((c.poles0, c.poles1)):
            for k, p in enumerate(poles, start=1):
                if p:
                    power = powers.get((side, k))
                    if power is None:
                        power = powers[side, k] = bases[side] ** k
                    v = v + num(p) / power
        out.append(v)
    return out


def parent_term_rows(op, x, derivs):
    """term_rows as one product per row, stacked."""
    x = np.asarray(x, dtype=float)
    values = parent_values(op.coeffs, x)
    return np.array([values[k] * np.asarray(derivs[k], dtype=float) for k in range(op.order + 1)])


def parent_sum(rows, x):
    """The rows summed onto zeros, k = 0 first, as apply and the operator
    residual summed them."""
    return sum(rows, np.zeros_like(np.asarray(x, dtype=float)))


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
        mid = r[len(r) // 2]
        for e in both:
            assert same_bits(eval_r_cos2_all([e], mid)[0], reference_eval_r_cos2_all([e], mid)[0])
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

    @pytest.mark.parametrize("r", [*R_GRIDS, verify._J0_R], ids=["1", "200", "2001", "j0"])
    def test_j0_pair(self, r):
        """On every grid _system_report gives the reference's report; on the
        grid of j0_pair_residual, so does j0_pair_residual."""
        for n in range(8):
            for m, lam in ((0.0, 1), (1.0, -1)):
                params = ModeParams(m=m, eps=spectrum(Family.J0, 0, n, m).eps(), lambda_sign=lam)
                sol = wavefunction_j0(n, params, r)
                name = f"j0-pair[n={n} lambda={lam:+d}]"
                want = reference_system_report(sol, name, verify.RESIDUAL_TOL)
                assert same_report(verify._system_report(sol.exprs, sol.qn, params, r, name, verify.RESIDUAL_TOL), want)
                if r is verify._J0_R:
                    assert same_report(j0_pair_residual(n, params), want)

    def test_general_basis(self):
        for r in R_GRIDS[:2]:
            for j in (1, 3):
                for m in (0.0, 1.0):
                    for sol in general_basis(j, 2.3, ModeParams(m=m, eps=math.sqrt(2.3**2 + m * m)), r):
                        want = reference_system_report(sol, "g", verify.IDENTITY_TOL)
                        got = verify._system_report(sol.exprs, sol.qn, sol.params, sol.grid, "g", verify.IDENTITY_TOL)
                        assert same_report(got, want)

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
        """Each coefficient alone equals the reference (every pole power
        afresh), the whole table equals the parent body (a new array per
        step), and so do the term rows, given as an array or as a list."""
        for op in self.operators():
            for x in self.POINTS:
                exact = np.asarray(x).dtype == object
                table = RationalCoefficient.values(op.coeffs, x)
                for c, value, parent in zip(op.coeffs, table, parent_values(op.coeffs, x), strict=True):
                    for got, want in ((c(x), reference_coefficient(c, x)), (value, parent)):
                        assert (repr(got) == repr(want)) if exact else same_bits(got, want)
                if not exact and np.ndim(x):
                    derivs = np.cos(np.outer(np.arange(1, op.order + 2), x))
                    assert same_bits(op.term_rows(x, derivs), reference_term_rows(op, x, derivs))
                    assert same_bits(op.term_rows(x, derivs), parent_term_rows(op, x, derivs))
                    assert same_bits(op.term_rows(x, list(derivs)), parent_term_rows(op, x, derivs))

    def test_operator_residual_reports(self):
        """apply and the residual report equal the sum onto zeros, for family
        states and for the general basis's K and M (series 2F1)."""
        x = chebyshev_grid()
        pairs = []
        for fam, qn, p_sq in family_states(3):
            K, M = (family_exprs(fam, qn, ModeParams.from_p_sq(0.0, p_sq))[k] for k in "KM")
            pairs += [(operator_K4(p_sq, qn.a_sq), K), (operator_M4(p_sq, qn.a_sq), M)]
        for j in (1, 2):
            sol = general_basis(j, 2.3, ModeParams(m=0.0, eps=2.3), np.array([1.0]))[0]
            pairs += [(operator_K4(2.3**2, j * (j + 1)), sol.exprs["K"]),
                      (operator_M4(2.3**2, j * (j + 1)), sol.exprs["M"])]
        for op, e in pairs:
            derivs = e.derivative_column(x, 4)
            rows = reference_term_rows(op, x, derivs)
            resid = parent_sum(rows, x)
            assert same_bits(op.apply(x, derivs), resid)
            scale = np.abs(rows).max(axis=0)
            rel = np.abs(resid) / np.where(scale > 0, scale, 1.0)
            want = verify._report("r", x, rel, verify.RESIDUAL_TOL)
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


class TestPerTermKernels:
    """Expr.diff, _Factors.term and the parity split of eval_r_cos2_all equal
    the parent bodies above bit for bit, and so do the operator sums at
    signed zeros (TestCoefficientTable compares RationalCoefficient.values,
    term_rows and the sums on the operators)."""

    @staticmethod
    def expression_sets():
        """The amplitudes of every family state with n <= 3 and j <= 3 (masses
        0 and 1.7), of the general basis at j = 1, 2 (series 2F1) and of the
        j = 0 pair, n <= 5."""
        for fam, qn, p_sq in family_states(3):
            for m in (0.0, 1.7):
                yield list(family_exprs(fam, qn, ModeParams.from_p_sq(m, p_sq)).values())
        for j in (1, 2):
            for sol in general_basis(j, 2.3, ModeParams(m=0.5, eps=math.sqrt(2.3**2 + 0.25)), np.array([1.0])):
                yield list(sol.exprs.values())
        for n in range(6):
            params = ModeParams(m=1.0, eps=spectrum(Family.J0, 0, n, 1.0).eps())
            yield list(wavefunction_j0(n, params, np.array([1.0])).exprs.values())

    def test_diff(self):
        """Four x-derivatives and the r-derivative of every amplitude hold
        the parent's keys, in its order, with its coefficient bits; some
        merge cancels a key."""
        cancelled = 0
        for exprs in self.expression_sets():
            for e in exprs:
                assert same_terms(e.diff_r_cos2(), reference_diff_r_cos2(e))
                for _ in range(4):
                    got, want = e.diff(), parent_diff(e)
                    assert same_terms(got, want)
                    cancelled += len(got._coefs) < sum((k[0] != 0) + (k[1] != 0) + (k[2] * k[3] != 0)
                                                       for k in e._coefs)
                    e = got
        assert cancelled

    def test_term(self):
        """Every term of every amplitude and derivative, on the x grid, at a
        scalar x and under x = cos^2 r; a table asked twice answers alike."""
        grids = (X_GRID, np.float64(0.3), *(np.cos(r) ** 2 for r in R_GRIDS[1:]))
        for exprs in self.expression_sets():
            both = [*exprs, *(e.diff() for e in exprs)]
            for x in grids:
                table, parent = _Factors(x), ParentFactors(x)
                for e in both:
                    for _ in range(2):
                        for key, c in e._coefs.items():
                            with np.errstate(divide="ignore"):  # x-derivatives are infinite at x = 0
                                assert same_bits(table.term(key, c), parent.term(key, c))

    def test_parity_split(self):
        """eval_r_cos2_all equals the two-pass split on every r grid and at a
        scalar r, for amplitudes and r-derivatives together."""
        for exprs in self.expression_sets():
            both = [*exprs, *(e.diff_r_cos2() for e in exprs)]
            for r in (*R_GRIDS, 0.7):
                for got, want in zip(eval_r_cos2_all(both, r), parent_eval_r_cos2_all(both, r)):
                    assert same_bits(got, want)

    @pytest.mark.parametrize("x", [chebyshev_grid(), np.array([0.3]), 0.3], ids=["200", "1", "scalar"])
    def test_signed_zero_sums(self, x):
        """Rows that are all -0.0, or mixed +-0.0, sum to +0.0, as onto zeros,
        on a grid, at one point and at a scalar."""
        op = operator_K4(24, 2)
        values = np.array(RationalCoefficient.values(op.coeffs, x))
        negative = -0.0 * np.where(values >= 0, 1.0, -1.0)  # every c_k y^(k) is -0.0
        mixed = np.where(np.arange(5).reshape((5,) + (1,) * np.ndim(x)) % 2 == 0, negative, -negative)
        for derivs in (negative, mixed):
            rows = op.term_rows(x, derivs)
            assert same_bits(rows, parent_term_rows(op, x, derivs))
            got, want = op.apply(x, derivs), parent_sum(rows, x)
            assert same_bits(got, want) and not np.signbit(got).any()


# -- exact annihilation of the family amplitudes -------------------------------
# Each family amplitude is x^alpha (1-x)^beta P(x), P in Q[x]; a polynomial is
# its list of Fraction coefficients, lowest degree first.


def poly_add(p, q):
    return [a + b for a, b in zip_longest(p, q, fillvalue=0)]


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for k, b in enumerate(q):
                out[i + k] += a * b
    return out


def poly_pow(p, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def poly_x_1mx(e0, e1):
    """x^e0 (1-x)^e1."""
    return [Fraction(0)] * e0 + poly_pow([Fraction(1), Fraction(-1)], e1)


def hyp_poly(k: int, b: Fraction, g: Fraction) -> list:
    """F(-k, b; g; x) for an integer k >= 0."""
    out, t = [], Fraction(1)
    for i in range(k + 1):
        out.append(t)
        t = t * (i - k) * (b + i) / ((g + i) * (i + 1))
    return out


def exact_amplitudes(family: Family, j: int, n: int) -> dict:
    """{K, M}: (alpha, beta, P) of the family state, from the seed and the
    lacking-amplitude bracket of closedform._km_exprs in exact arithmetic;
    the lacking amplitude without its 1/a."""
    seed = FAMILIES[family]
    xp = Fraction(seed.xp)
    lam = j + 1 + 2 * xp + 2 * (n + seed.offset)
    c0 = Fraction(j + 1, 2) + xp
    k, b, g = lam / 2 - c0, c0 + lam / 2, Fraction(1, 2) + 2 * xp
    assert k.denominator == 1 and k >= 0
    k = int(k)
    F = hyp_poly(k, b, g)
    c = j + 2 * xp + (1 if seed.lead == "M" else 0)
    inner = poly_mul([0, -c], F)  # -c x F
    if k:  # -(2kb/g) x (1-x) F(1-k, b+1; g+1; x)
        inner = poly_add(inner, poly_mul([0, -2 * k * b / g, 2 * k * b / g], hyp_poly(k - 1, b + 1, g + 1)))
    bracket = poly_add(inner, [2 * xp * f for f in F])
    lead, lacking = (xp, Fraction(j, 2), F), (xp - Fraction(1, 2), Fraction(j, 2), bracket)
    return {"K": lead, "M": lacking} if seed.lead == "K" else {"K": lacking, "M": lead}


def derivative_polys(alpha, beta, P, order: int = 4) -> list:
    """P_0..P_order with y^(s) = x^(alpha-s) (1-x)^(beta-s) P_s for y = x^alpha (1-x)^beta P:
    P_(s+1) = x(1-x) P_s' + [(alpha-s)(1-x) - (beta-s) x] P_s."""
    out = [P]
    for s in range(order):
        Ps = out[-1]
        dP = [i * c for i, c in enumerate(Ps)][1:] or [Fraction(0)]
        out.append(poly_add(poly_mul([0, 1, -1], dP), poly_mul([alpha - s, -(alpha + beta - 2 * s)], Ps)))
    return out


def cleared(c: RationalCoefficient, e: int) -> list:
    """c(x) x^e (1-x)^e as a polynomial: no pole of c is of order above e."""
    assert len(c.poles0) <= e and len(c.poles1) <= e
    out = [Fraction(0)]
    for k, v in enumerate(c.poly):
        out = poly_add(out, [v * t for t in poly_x_1mx(k + e, e)])
    for k, v in enumerate(c.poles0, start=1):
        out = poly_add(out, [v * t for t in poly_x_1mx(e - k, e)])
    for k, v in enumerate(c.poles1, start=1):
        out = poly_add(out, [v * t for t in poly_x_1mx(e, e - k)])
    return out


def annihilated(op, Ps) -> bool:
    """Whether op y = 0 exactly: op y is x^(alpha-4) (1-x)^(beta-4) times
    sum_s c_s x^(4-s) (1-x)^(4-s) P_s, and every coefficient of the sum is 0."""
    total = [Fraction(0)]
    for s, (c, P) in enumerate(zip(op.coeffs, Ps)):
        total = poly_add(total, poly_mul(cleared(c, op.order - s), P))
    return not any(total)


class TestExactAnnihilation:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_family_amplitudes(self, family):
        """operator_K4 annihilates K and operator_M4 annihilates M exactly, for
        j = 1..6 and every bound n <= 6, in Fraction arithmetic; the operator
        at p^2 + 1 or p^2 - 1, or with c0 perturbed, does not.  The exact
        amplitudes (the lacking one times 1/a) are family_KM_exprs's to 1e-12."""
        xs = [0.05, 0.37, 0.8]
        for j in range(1, 7):
            a_sq, a = j * (j + 1), math.sqrt(j * (j + 1))
            for n in range(max(0, -FAMILIES[family].offset), 7):
                p_sq = spectrum(family, j, n, 0).p_sq
                amps = exact_amplitudes(family, j, n)
                for (name, build), expr in zip((("K", operator_K4), ("M", operator_M4)),
                                               family_KM_exprs(family, j, n)):
                    alpha, beta, P = amps[name]
                    Ps = derivative_polys(alpha, beta, P)
                    label = f"{family.value} j={j} n={n} {name}"
                    assert annihilated(build(p_sq, a_sq), Ps), label
                    for op in (build(p_sq + 1, a_sq), build(p_sq - 1, a_sq),
                               build(p_sq, a_sq).with_perturbed_coeff(0, Fraction(1001, 1000))):
                        assert not annihilated(op, Ps), label
                    scale = 1.0 if name == FAMILIES[family].lead else 1.0 / a
                    want = [scale * x**alpha * (1 - x) ** beta
                            * float(sum(v * Fraction(x) ** i for i, v in enumerate(P))) for x in xs]
                    got = expr.eval_x(np.array(xs))
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), label
