"""Command-line surface: spectrum tables, sampled wavefunctions, degeneracy
maps, verification and oracle reports.

Output contract: CSV with LF line endings and '#'-prefixed comment headers,
floats in shortest round-trip form; JSON in UTF-8 with stable key order.
Exit status 0 on success / all checks passing, 1 on a verification or
comparison failure or a failed oracle integration, 2 on usage errors.  An
argument @FILE reads one `key=value` (`--key=value`) or bare `key`
(`--key`) option per line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import closedform, oracle, verify
from .closedform import Family
from .model import ModeParams, QuantumNumbers, factor_pair_K, factor_pair_M, operator_K4, operator_M4

END_BUFFER = 1e-3
# The two amplitudes with a fourth-order operator: (name, factor pair, operator).
_SIDES = (("K", factor_pair_K, operator_K4), ("M", factor_pair_M, operator_M4))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip decimal
    return str(v)


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(comments: list[str], header: list[str], rows: list[list]) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"


def _table(args, comments: list[str], header: list[str], rows: list[list]) -> int:
    """Write a table command's rows: CSV, or with --format json a list of
    objects keyed by header (the comments are CSV-only)."""
    if args.format == "json":
        _write(args.out, _json([dict(zip(header, r)) for r in rows]))
    else:
        _write(args.out, _csv(comments, header, rows))
    return 0


def _rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{s!r} is not a rational number") from None


def _mass(s: str) -> Fraction:
    mass = _rational(s)
    if mass < 0:
        raise argparse.ArgumentTypeError("mass must be non-negative")
    if mass * mass > sys.float_info.max:  # eps^2 = p^2 + m^2 is printed and used as a float
        raise argparse.ArgumentTypeError(f"mass must be at most {math.sqrt(sys.float_info.max):.6g}")
    return mass


def _grid_size(s: str) -> int:
    try:
        size = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {s!r}") from None
    if size < 1:
        raise argparse.ArgumentTypeError(f"the grid needs at least 1 point, got {size}")
    return size


def _radial_grid(size: int) -> np.ndarray:
    return np.linspace(END_BUFFER, math.pi - END_BUFFER, size)


def cmd_spectrum(args) -> int:
    if args.n_max < 0:
        raise ValueError("n_max must be non-negative")
    fams: list[Family]
    if args.family == "all-dk":
        fams = list(closedform.FAMILIES) if args.j and args.j >= 1 else [Family.J0]
    else:
        fams = [Family(args.family)]
    n_values = range(args.n_max + 1) if args.n is None else [args.n]
    rows = []
    for fam in fams:
        j_or_J = args.J if fam is Family.DIRAC else (args.j or 0)
        for n in n_values:
            e = closedform.spectrum(fam, j_or_J, n, args.mass)
            eps = e.eps(args.eps_sign)  # before float(p_sq): names n when eps^2 >= p^2 overflows
            twin = e.degenerate_partner
            rows.append([fam.value, str(e.j_or_J), n, str(e.p_sq), float(e.p_sq), eps,
                         "yes" if e.bound else "no", f"{twin[0].value} j={twin[1]} n={twin[2]}" if twin else ""])
    comments = [f"mass={args.mass}", f"eps_sign={args.eps_sign:+d}"]
    header = ["family", "j", "n", "p_sq_exact", "p_sq", "eps", "bound", "degenerate_partner"]
    return _table(args, comments, header, rows)


def cmd_wavefunction(args) -> int:
    mass = float(args.mass)
    grid = _radial_grid(args.grid)
    fam = Family(args.family)
    entry = closedform.spectrum(fam, args.j, args.n, mass)
    entry.eps()  # names n when eps^2 is too large for a float
    params = ModeParams.from_p_sq(mass, entry.p_sq, args.lam, args.eps_sign)
    comments = [
        f"family={fam.value}",
        f"j={entry.j_or_J}",
        f"n={args.n}",
        f"p_sq={entry.p_sq}",
        f"mass={args.mass}",
        f"lambda={args.lam:+d}",
        f"eps={params.eps!r}",
    ]
    if fam is Family.J0:
        sol = closedform.wavefunction_j0(args.n, params, grid)
    else:
        sol = closedform.wavefunction_family(fam, QuantumNumbers(args.j, args.n), params, grid)
    names = list(sol.exprs)
    bad = next((name for name in names if not np.isfinite(getattr(sol, name)).all()), None)
    if bad is not None:
        raise ValueError(f"{bad} has non-finite samples at n={args.n}: the terminating 2F1 coefficients overflow")
    columns = [grid, np.cos(grid) ** 2, *(getattr(sol, name) for name in names)]
    _write(args.out, _csv(comments, ["r", "x", *names], zip(*columns)))
    return 0


def _verify_reports(args) -> list[verify.VerificationReport]:
    mass = float(args.mass)
    j, n = args.j, args.n
    if n < 0:
        raise ValueError("n must be non-negative")
    suites = (
        ("operators", "factorization", "wronskian", "cross", "j0")
        if args.suite == "all"
        else (args.suite,)
    )
    reports = []
    xg = verify.chebyshev_grid()
    if "operators" in suites or "cross" in suites:
        entries = [closedform.spectrum(fam, j, max(n, -seed.offset), mass)
                   for fam, seed in closedform.FAMILIES.items()]
        for entry in entries:
            entry.eps()  # names n when eps^2 is too large for a float
    if "operators" in suites:
        for entry in entries:
            fam, nn, p2, a2 = entry.family, entry.n, float(entry.p_sq), j * (j + 1)
            for (side, _, direct), amp in zip(_SIDES, closedform.family_KM_exprs(fam, j, nn)):
                reports.append(verify.residual_operator_expr(
                    direct(p2, a2), amp, xg, name=f"operator-{side}[{fam.value} j={j} n={nn}]"))
    if "factorization" in suites:
        entry = closedform.spectrum(Family.F1, j, n, mass)
        p2, a2 = entry.p_sq, j * (j + 1)  # exact, so the identity check is exact
        for side, pair, direct in _SIDES:
            reports.append(verify.factorization_identity(
                *pair(p2, a2), direct(p2, a2), name=f"factorization-{side}[p2={p2}]"))
    if "wronskian" in suites:
        p = 2.3
        basis = closedform.general_basis_exprs(j, p, ModeParams.from_p_sq(mass, p * p))
        for x0 in (0.3, 0.6):
            w = verify.wronskian4([exprs["K"] for exprs in basis], x0)
            reports.append(verify.wronskian_report(w, x0, f"wronskian[j={j} p={p} x0={x0}]"))
    if "cross" in suites:
        for entry in entries:
            params = ModeParams.from_p_sq(mass, entry.p_sq, args.lam)
            reports.append(verify.cross_consistency(entry.family, QuantumNumbers(j, entry.n), params))
    if "j0" in suites:
        entry = closedform.spectrum(Family.J0, 0, n, mass)
        entry.eps()  # names n when eps^2 is too large for a float
        reports.append(verify.j0_pair_residual(n, ModeParams.from_p_sq(mass, entry.p_sq, args.lam)))
    return reports


def cmd_verify(args) -> int:
    with np.errstate(all="ignore"):  # a non-finite residual is reported below, in one line
        reports = _verify_reports(args)
    bad = next((r.check_name for r in reports if not math.isfinite(r.max_rel_residual)), None)
    if bad is not None:
        raise ValueError(f"{bad} has a non-finite residual at n={args.n}: the terminating 2F1 coefficients overflow")
    _write(args.out, _json([r.to_dict() for r in reports]))
    return 0 if all(r.passed for r in reports) else 1


def _closed_levels(j: int, mass: float, eps_min: float, eps_max: float) -> list:
    """Closed-form bound levels at j in the oracle's window, by its rule
    (oracle.in_window).  Each family's p^2 rises with n, so the list stops at
    the first n where every family's level lies past the window."""
    lo, hi = oracle.p_window(mass, (eps_min, eps_max))
    families = (Family.J0,) if j == 0 else tuple(closedform.FAMILIES)
    n = 0
    while any(oracle.in_window(math.sqrt(closedform.spectrum(fam, j, n, mass).p_sq), (0.0, hi)) for fam in families):
        n += 1
    return [e for e in closedform.family_levels(j, n, mass, families) if oracle.in_window(math.sqrt(e.p_sq), (lo, hi))]


def cmd_oracle(args) -> int:
    if args.j == 0 and args.lam == -1:
        raise ValueError(
            "oracle --j 0 takes only --lambda 1: the lambda = -1 pair has the extra "
            "regular solution (0, sin r) at eps = m, which no closed form lists"
        )
    mass = float(args.mass)
    cfg = oracle.ShootingConfig(eps_scan=(args.eps_min, args.eps_max))
    evs = oracle.shoot_j0(mass, config=cfg) if args.j == 0 else oracle.shoot_j(mass, args.j, args.lam, cfg)
    comparison = None
    if args.compare:
        # Matching fills in each eigenvalue's matched_family_guess.
        comparison = oracle.compare_spectra(evs, _closed_levels(args.j, mass, args.eps_min, args.eps_max))
    payload = {
        "j": args.j,
        "mass": mass,
        "eigenvalues": [
            {
                "eps": e.eps,
                "p_sq": e.p_sq,
                "bracket": list(e.bracket),
                "nodes": e.node_count,
                "family_guess": e.matched_family_guess,
            }
            for e in evs
        ],
    }
    if comparison is not None:
        payload["comparison"] = comparison.to_dict()
    _write(args.out, _json(payload))
    return 0 if comparison is None or comparison.passed else 1


def cmd_degeneracy(args) -> int:
    pairs = closedform.degeneracy_map(args.j_max, args.n_max)
    header = [
        "family_a", "j_a", "n_a", "family_b", "j_b", "n_b", "p_sq",
        "distinct_wavefunctions", "both_bound",
    ]
    rows = [
        [
            p.left[0].value, p.left[1], p.left[2],
            p.right[0].value, p.right[1], p.right[2],
            str(p.p_sq),
            "yes",
            "yes" if p.right_bound else "no",
        ]
        for p in pairs
    ]
    comments = [f"j_max={args.j_max}", f"n_max={args.n_max}", f"pairs={len(rows)}"]
    return _table(args, comments, header, rows)


class _Parser(argparse.ArgumentParser):
    """Reads an @file as flat lines: `key=value` is `--key=value`, a bare
    `key` is `--key`, and blank lines and `#` comments are skipped."""

    def convert_arg_line_to_args(self, arg_line):
        line = arg_line.strip()
        if not line or line.startswith("#"):
            return []
        key, eq, value = line.partition("=")
        return [f"--{key.strip()}{eq}{value.strip()}"]


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="dkradial", description=__doc__, fromfile_prefix_chars="@")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.allow_abbrev = False  # an option is named in full, on the command line or in an @file

    p = sub.add_parser("spectrum", help="exact discrete spectrum tables")
    p.add_argument("--family", required=True,
                   choices=("f1", "f2", "f3", "f4", "j0", "dirac", "all-dk"))
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--J", type=_rational, help="half-odd J for the comparison series, e.g. 1/2")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-max", type=int, default=0)
    p.add_argument("--mass", type=_mass, default="0")
    p.add_argument("--eps-sign", type=int, choices=(-1, 1), default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="sampled radial amplitudes")
    p.add_argument("--family", required=True, choices=("f1", "f2", "f3", "f4", "j0"))
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mass", type=_mass, default="0")
    p.add_argument("--lambda", dest="lam", type=int, choices=(-1, 1), default=1)
    p.add_argument("--eps-sign", type=int, choices=(-1, 1), default=1)
    p.add_argument("--grid", type=_grid_size, default=2001)
    common(p)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("verify", help="closed-form verification suite")
    p.add_argument("--suite", default="all",
                   choices=("all", "operators", "factorization", "wronskian", "cross", "j0"))
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--mass", type=_mass, default="0")
    p.add_argument("--lambda", dest="lam", type=int, choices=(-1, 1), default=1)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="shooting-method eigenvalues")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--mass", type=_mass, default="0")
    p.add_argument("--lambda", dest="lam", type=int, choices=(-1, 1), default=1)
    p.add_argument("--eps-min", type=float, default=0.1)
    p.add_argument("--eps-max", type=float, default=5.0)
    p.add_argument("--compare", action="store_true",
                   help="match against the closed-form spectra; exit 1 on mismatch")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("degeneracy", help="j-shifted twin level map")
    p.add_argument("--j-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(func=cmd_degeneracy)
    return ap


def _is_utf8(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "spectrum":
            if args.family == "dirac":
                if args.J is None:
                    ap.error("--J is required for the dirac family")
            elif args.family not in ("j0", "all-dk") and args.j is None:
                ap.error(f"--j is required for family {args.family}")
        return args.func(args)
    except UnicodeDecodeError as exc:  # argparse reads an @file itself and does not name it
        files = [arg[1:] for arg in (sys.argv[1:] if argv is None else argv) if arg.startswith("@")]
        # argparse reads the files left to right and stops at the first it cannot decode
        failed = next((f for f in files if not _is_utf8(f)), ", ".join(files))
        print(f"dkradial: {failed}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, oracle.IntegrationError) as exc:
        print(f"dkradial: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, oracle.IntegrationError) else 2  # 1: the oracle has no result


if __name__ == "__main__":
    sys.exit(main())
