"""Fast self-test of the benchmark:

    python3 perfbench/selftest.py

Runs every workload once on its tiny inputs, untraced and traced, and checks
that each metric BENCHMARK.json names is emitted, with its unit and a finite
value, and that no operation failed.  Negative controls: a perturbed
eigenvalue, a phantom level at p^2 = j^2, an over-tolerance residual and a
CLI output that differs from its golden file must each count as failed.
The golden files are checked against the exact p^2 formulas.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run  # perfbench/run.py; sets the child environment on import
import inputs

SEED = 7


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest: FAIL {what}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok   {what}")


def metric_names() -> dict[bool, dict[str, str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def test_workloads() -> None:
    names = metric_names()
    for workload in run.WORKLOADS:
        for trace in (False, True):
            r, metrics = run.benchmark(workload, SEED, 0.0, trace, tiny=True)
            label = f"{workload} trace={int(trace)}"
            check(r.tally.attempted > 0 and r.tally.failed == 0,
                  f"{label}: {r.tally.attempted} operations, none failed {r.tally.failures}")
            got = {k: u for k, (_, u) in metrics.items()}
            check(got == names[trace], f"{label}: every named metric, with its unit")
            bad = [k for k, (v, _) in metrics.items() if not isinstance(v, (int, float)) or v != v]
            check(not bad, f"{label}: finite values {bad}")


def test_negative_controls() -> None:
    from dkradial import model, verify
    from dkradial.closedform import Family, family_KM_exprs

    rows = inputs.make("oracle", SEED, tiny=True)["rows"]
    results = run.oracle_pass(rows)
    tally = run.Tally()
    for row, evs, cmp in results:
        run.check_oracle(tally, row, evs, cmp)
    check(tally.failed == 0, "oracle: tiny rows pass as computed")

    row, evs, cmp = next(res for res in results if res[0]["j"] >= 1)
    perturbed = [dataclasses.replace(ev, eps=ev.eps * (1 + 1e-4)) for ev in evs]
    tally = run.Tally()
    run.check_oracle(tally, row, perturbed, cmp)
    check(tally.failed == 1, "oracle: an eigenvalue off by 1e-4 counts as failed")

    j = row["j"]
    phantom = evs + [dataclasses.replace(evs[0], eps=float(j), p_sq=float(j * j))]
    tally = run.Tally()
    run.check_oracle(tally, row, phantom, cmp)
    check(tally.failed == 1, "oracle: a level at p^2 = j^2 counts as failed")

    K, _ = family_KM_exprs(Family.F1, 1, 0)
    xg = verify.chebyshev_grid()
    good = verify.residual_operator_expr(model.operator_K4(8.0, 2.0), K, xg).max_rel_residual
    off = verify.residual_operator_expr(model.operator_K4(8.0 * 1.01, 2.0), K, xg).max_rel_residual
    tally = run.Tally()
    run.check_verify(tally, "operator", "f1 j=1 n=0", good)
    run.check_verify(tally, "operator", "f1 j=1 n=0 at 1.01 p^2", off)
    check(tally.failed == 1 and tally.attempted == 2,
          f"verify: residual {off:.1e} off the spectrum counts as failed, {good:.1e} passes")

    outdir = run.OUT / "selftest"
    outdir.mkdir(parents=True, exist_ok=True)
    golden = (run.GOLDEN / "spectrum.csv").read_text()
    (outdir / "spectrum.out").write_text(golden.replace("48.0", "48.000001"))
    tally = run.Tally()
    run.CliChecker().check(tally, {"name": "spectrum", "code": 0, "outdir": outdir})
    check(tally.failed == 1, "cli: output off the golden file counts as failed")
    tally = run.Tally()
    run.CliChecker().check(tally, {"name": "spectrum", "code": 1, "outdir": outdir})
    check(tally.failed == 1, "cli: a non-zero exit counts as failed")


def csv_rows(name: str):
    lines = (run.GOLDEN / f"{name}.csv").read_text().splitlines()
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return [dict(zip(body[0], row)) for row in body[1:]]


def test_golden() -> None:
    from fractions import Fraction

    rows = csv_rows("spectrum")
    check([r["p_sq_exact"] for r in rows] == [str(inputs.p_sq("f1", 1, n)) for n in range(3)],
          "golden spectrum: f1 j=1 p^2 = (j+2+2n)^2 - 1")
    rows = csv_rows("spectrum_dirac")
    check([Fraction(r["p_sq_exact"]) for r in rows]
          == [(n + Fraction(1, 2) + 1) ** 2 for n in range(2)],
          "golden spectrum_dirac: p^2 = (n+J+1)^2")
    rows = csv_rows("degeneracy")
    ok = len(rows) == 2 * 5 * 5 and all(
        inputs.p_sq(r["family_a"], int(r["j_a"]), int(r["n_a"]))
        == inputs.p_sq(r["family_b"], int(r["j_b"]), int(r["n_b"]))
        == int(r["p_sq"])
        for r in rows
    )
    check(ok, "golden degeneracy: 50 pairs, both sides on the exact p^2")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    test_golden()
    test_negative_controls()
    test_workloads()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
