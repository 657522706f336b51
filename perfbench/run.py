"""Benchmark of dkradial: the oracle, verify and cli workloads.

    python3 perfbench/run.py --workload {oracle,verify,cli} --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is used from ``src/`` and only
through its public functions and its command line.  A run

1. times ``import dkradial`` plus input generation in fresh interpreters
   (``setup_s``, median of several);
2. repeats passes over the seeded inputs for ``--seconds`` seconds and
   checks every result (``wall_s`` is the median pass);
3. rescales every pass and set-up time by a reference kernel run between
   its items (calib.py): the host this was written on drifts in speed by up
   to 1.75x over minutes;
4. runs a small fixed probe (the tiny oracle and verify inputs), so that
   every run measures every accuracy metric, and in a traced run every layer.

With ``--trace 0`` nothing is wrapped and the last stdout line carries the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate; the last line carries the per-layer metrics (see tracer.py)
and ``trace.overhead_s``, the traced minus the untraced median pass.
Spans and a full record with the environment go to ``perfbench/_out/``.

A wrong eigenvalue set, a residual over tolerance, a non-zero CLI exit or
output that differs from the golden files counts as a failed operation.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread here and in every child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
GOLDEN = HERE / "golden"

import calib  # noqa: E402  (perfbench/ is sys.path[0])
import inputs  # noqa: E402

WORKLOADS = ("oracle", "verify", "cli")
SETUP_REPEATS = 7
# Timed reference-kernel runs per sample (calib.py), one sample between the
# items of a pass: verify items take ~0.1 s, oracle rows and cli commands
# take seconds.  Set-up takes one sample before each child and after the last.
REF_RUNS = {"verify": 1, "oracle": 8, "cli": 8}
SETUP_REF_RUNS = 8
PROBE_SEED = 0  # the probe is the same in every run
IMPORTTIME_REPEATS = 3
SETUP_CODE = "import sys, dkradial, inputs; inputs.make(sys.argv[1], int(sys.argv[2]))"

# Correctness gates, at the package's own tolerances.
ORACLE_REL_TOL = 1e-5      # compare_spectra default, acceptance criterion 2
PHANTOM_WIDTH = 0.5        # no oracle level within this of p^2 = j^2
OPERATOR_TOL = 1e-9        # residual_operator default, criterion 3
CROSS_TOL = 1e-10          # cross_consistency default
FACTORIZATION_TOL = 1e-10  # factorization_identity default, criterion 4
WRONSKIAN_MIN = 1e-6       # criterion 5
WAVEFUNCTION_TOL = 1e-12   # f1 j=1 n=0: K(r) = sin(2r)/2 exactly
DIGITS_CAP = 16.0

ACCURACY = ("oracle_digits", "oracle_j0_digits", "residual_digits")
GOLDEN_COMMANDS = ("spectrum", "spectrum_dirac", "degeneracy")  # outputs in golden/


def child_env(*paths) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    return env


class Tally:
    """Operations attempted and failed, and the worst error per accuracy metric."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.worst: dict[str, float] = {}

    def add(self, ok: bool, label: str, metric: str | None = None, err: float | None = None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)
        if metric is not None and err is not None and math.isfinite(err):
            self.worst[metric] = max(self.worst.get(metric, 0.0), err)

    def digits(self, metric: str) -> float:
        if metric not in self.worst:
            return float("nan")
        return min(DIGITS_CAP, -math.log10(max(self.worst[metric], 10.0**-DIGITS_CAP)))


# -- oracle -----------------------------------------------------------------

def _no_tick():
    pass


def oracle_pass(rows, tick=_no_tick):
    """``tick`` runs between items (the reference kernel in timed passes)."""
    from dkradial import closedform, oracle

    results = []
    for row in rows:
        tick()
        m, j, lo, hi = row["m"], row["j"], row["lo"], row["hi"]
        cfg = oracle.ShootingConfig(eps_scan=(lo, hi, row["step"]))
        try:
            if j == 0:
                evs = oracle.shoot_j0(m, +1, cfg)
                closed = [closedform.spectrum("j0", 0, n, m) for n in range(12)]
            else:
                evs = oracle.shoot_j(m, j, +1, cfg)
                closed = closedform.family_levels(j, 8, m)
            closed = [e for e in closed if lo <= e.eps() <= hi]
            results.append((row, evs, oracle.compare_spectra(evs, closed, rel_tol=ORACLE_REL_TOL)))
        except Exception as exc:  # one failed operation; the run goes on
            results.append((row, exc, None))
    return results


def check_oracle(tally: Tally, row, evs, cmp) -> None:
    j = row["j"]
    label = f"oracle m={row['m']} j={j}"
    if cmp is None:
        tally.add(False, f"{label}: {evs!r}")
        return
    expected = [lvl[0] for lvl in row["levels"]]
    got = sorted(ev.eps for ev in evs)
    rel = [abs(g - e) / e for g, e in zip(got, expected)]
    worst = max(rel, default=math.inf)
    phantom = j >= 1 and any(abs(ev.p_sq - j * j) <= PHANTOM_WIDTH for ev in evs)
    ok = cmp.passed and len(got) == len(expected) and not phantom and worst <= ORACLE_REL_TOL
    tally.add(ok, label, "oracle_j0_digits" if j == 0 else "oracle_digits", worst)


# -- verify -----------------------------------------------------------------

def verify_pass(inp, tick=_no_tick):
    """(kind, label, value) records; value is an exception when the call failed.
    ``tick`` runs between items."""
    import numpy as np
    from dkradial import closedform, model, verify

    out = []
    xg = verify.chebyshev_grid()
    for fam, j, n, p2 in inp["states"]:
        tick()
        label = f"{fam} j={j} n={n}"
        try:
            family = closedform.Family(fam)
            entry = closedform.spectrum(family, j, n, 0)
            out.append(("spectrum", label, abs(float(entry.p_sq - p2))))
            pe, a2 = float(entry.p_sq), j * (j + 1)
            K, M = closedform.family_KM_exprs(family, j, n)
            rep = verify.residual_operator_expr(model.operator_K4(pe, a2), K, xg)
            out.append(("operator", "K4 " + label, rep.max_rel_residual))
            rep = verify.residual_operator_expr(model.operator_M4(pe, a2), M, xg)
            out.append(("operator", "M4 " + label, rep.max_rel_residual))
            params = model.ModeParams.from_p_sq(inputs.VERIFY_CROSS_MASS, pe)
            rep = verify.cross_consistency(family, model.QuantumNumbers(j, n), params)
            out.append(("cross", label, rep.max_rel_residual))
        except Exception as exc:  # one failed operation; the run goes on
            out.append(("error", label, exc))
    for p2, a2 in inp["pairs"]:
        tick()
        for side, pair, direct in (("K", model.factor_pair_K, model.operator_K4),
                                   ("M", model.factor_pair_M, model.operator_M4)):
            label = f"factorization-{side} p2={p2!r} a2={a2}"
            try:
                rep = verify.factorization_identity(*pair(p2, a2), direct(p2, a2))
                out.append(("factorization", label, rep.max_rel_residual))
            except Exception as exc:  # one failed operation; the run goes on
                out.append(("error", label, exc))
    for j, p, x0s in inp["wronskian"]:
        tick()
        try:
            basis = closedform.general_basis(j, p, model.ModeParams(m=0.0, eps=p), np.array([1.0]))
            for x0 in x0s:
                w = verify.wronskian4([b.exprs["K"] for b in basis], x0)
                out.append(("wronskian", f"wronskian j={j} p={p} x0={x0}", abs(w)))
        except Exception as exc:  # one failed operation; the run goes on
            out.append(("error", f"wronskian j={j} p={p}", exc))
    return out


VERIFY_GATES = {
    "spectrum": lambda v: v == 0.0,
    "operator": lambda v: v <= OPERATOR_TOL,
    "cross": lambda v: v <= CROSS_TOL,
    "factorization": lambda v: v <= FACTORIZATION_TOL,
    "wronskian": lambda v: v > WRONSKIAN_MIN,
}
RESIDUAL_KINDS = ("operator", "cross", "factorization")


def check_verify(tally: Tally, kind: str, label: str, value) -> None:
    if kind == "error":
        tally.add(False, f"{label}: {value!r}")
        return
    ok = VERIFY_GATES[kind](value)
    tally.add(ok, f"{kind} {label}", "residual_digits" if kind in RESIDUAL_KINDS else None, value)


# -- cli --------------------------------------------------------------------

def cli_argv(argv, outdir: Path):
    return [a.format(out=outdir / "wf.csv") for a in argv]


def run_child(cmd, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; returns (wall_s, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env(SRC))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_pass(commands, outdir: Path, traced: bool, tick=_no_tick):
    """Run each command in a fresh interpreter, one at a time; ``tick`` runs
    between commands."""
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for name, argv in commands:
        tick()
        argv = cli_argv(argv, outdir)
        stats = outdir / f"{name}.trace.json"
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(stats), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "dkradial.cli", *argv]
        wall, code, rss = run_child(cmd, outdir / f"{name}.out", outdir / f"{name}.err")
        results.append({"name": name, "wall": wall, "code": code, "rss": rss,
                        "outdir": outdir, "stats": stats if traced else None})
    return results


class CliChecker:
    """Checks CLI results; wavefunction output must repeat byte for byte."""

    def __init__(self):
        self.wavefunction_ref: bytes | None = None

    def check(self, tally: Tally, res) -> None:
        name, outdir = res["name"], res["outdir"]
        label = f"cli {name}"
        if res["code"] != 0:
            tally.add(False, f"{label}: exit {res['code']}")
            return
        try:
            text = (outdir / f"{name}.out").read_bytes()
            if name in GOLDEN_COMMANDS:
                tally.add(text == (GOLDEN / f"{name}.csv").read_bytes(), label)
            else:
                getattr(self, "_" + name)(tally, label, text, outdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            tally.add(False, f"{label}: {exc!r}")

    def _wavefunction(self, tally, label, text, outdir):
        data = (outdir / "wf.csv").read_bytes()
        if self.wavefunction_ref is None:
            self.wavefunction_ref = data
        lines = data.decode().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
        r = [row[0] for row in rows]
        err = max(abs(row[2] - math.sin(2.0 * rv) / 2.0) for row, rv in zip(rows, r))
        ok = (data == self.wavefunction_ref and body[0] == "r,x,K,L,M,N" and len(rows) == 2001
              and all(len(row) == 6 and all(map(math.isfinite, row)) for row in rows)
              and err <= WAVEFUNCTION_TOL)
        tally.add(ok, label)

    def _verify(self, tally, label, text, outdir):
        reports = json.loads(text)
        worst = max(rep["max_rel_residual"] for rep in reports
                    if not rep["check_name"].startswith("wronskian"))
        ok = len(reports) > 0 and all(rep["pass"] is True for rep in reports) and worst <= OPERATOR_TOL
        tally.add(ok, label, "residual_digits", worst)

    def _oracle(self, tally, label, text, outdir):
        payload = json.loads(text)
        expected = [lvl[0] for lvl in inputs.window_levels(0.0, 1, 0.1, 4.5)]
        evs = payload["eigenvalues"]
        got = sorted(ev["eps"] for ev in evs)
        rel = [abs(g - e) / e for g, e in zip(got, expected)]
        worst = max(rel, default=math.inf)
        phantom = any(abs(ev["p_sq"] - 1.0) <= PHANTOM_WIDTH for ev in evs)
        ok = (payload["comparison"]["pass"] is True and len(got) == len(expected)
              and not phantom and worst <= ORACLE_REL_TOL)
        tally.add(ok, label, "oracle_digits", worst)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(dkradial.cli import s, scipy import s) from ``-X importtime`` output."""
    rows = []  # (depth, name, cumulative_us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cum)))
    pkg_us = 0
    for depth, name, cum in rows:
        if depth == 0 and (name == "dkradial" or name.startswith("dkradial.")):
            pkg_us += cum
            if name == "dkradial.cli":
                break
    # Children print before their parent: a scipy line is a root of scipy
    # work when the next shallower line is not scipy.
    scipy_us = 0
    for i, (depth, name, cum) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            scipy_us += cum
    return pkg_us / 1e6, scipy_us / 1e6


def import_probe() -> tuple[float, float]:
    """Median import cost of dkradial.cli, and of scipy as the oracle pulls it in."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dkradial.cli, dkradial.oracle"],
            cwd=ROOT, env=child_env(SRC), capture_output=True, text=True, check=True,
        )
        a, b = parse_importtime(proc.stderr)
        cli_s.append(a)
        scipy_s.append(b)
    return statistics.median(cli_s), statistics.median(scipy_s)


# -- one run ----------------------------------------------------------------

def measure_setup(workload: str, seed: int, repeats: int) -> tuple[float, list[float]]:
    """Median wall of fresh interpreters that import dkradial and make the
    inputs, rescaled by the median reference run of samples taken before
    each and after the last (calib.py); also returns the raw walls."""
    ref = calib.Reference(SETUP_REF_RUNS)
    start, walls = ref.mark(), []
    for _ in range(repeats):
        ref.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, workload, str(seed)],
                       cwd=ROOT, env=child_env(SRC, HERE), check=True)
        walls.append(time.perf_counter() - t0)
    ref.sample()
    return calib.scale(statistics.median(walls), ref.per_run_since(start)), walls


def environment() -> dict:
    import numpy
    import scipy

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError, IndexError):
        commit = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "commit": commit,
            "machine": platform.machine()}


class Run:
    """One benchmark run: probes, then passes until the deadline, then metrics."""

    def __init__(self, workload: str, seed: int, trace: bool, tiny: bool = False):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.inputs = inputs.make(workload, seed, tiny=tiny)
        self.probe_inputs = {"oracle": inputs.make("oracle", PROBE_SEED, tiny=True)["rows"],
                             "verify": inputs.make("verify", PROBE_SEED, tiny=True)}
        self.tally = Tally()
        self.cli = CliChecker()
        self.outdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.walls = {False: [], True: []}  # raw pass walls, untraced and traced
        self.times = {False: [], True: []}  # the same, rescaled (calib.py)
        self.ref_per_run: list[float] = []   # median reference run in each pass
        self.ref = calib.Reference(REF_RUNS[workload])
        self.snaps: list[dict] = []          # tracer snapshot of each traced pass
        self.cli_walls = {name: [] for name, _ in inputs.CLI_COMMANDS}
        self.cli_rss: list[float] = []
        self.tracer = None
        if trace:
            from tracer import Tracer
            self.tracer = Tracer()

    def execute(self, seconds: float) -> dict:
        """Probe, then measure until ``seconds`` after the start; returns the metrics."""
        deadline = time.perf_counter() + seconds
        probe_snap = self.probe()
        if self.trace:
            ran = {name for name, _ in self.inputs.get("commands", ())}
            missing = [cmd for cmd in inputs.CLI_COMMANDS if cmd[0] not in ran]
            self.cli_results(cli_pass(missing, self.outdir / "probe-cli", False))
            imports = import_probe()
        self.measure(deadline)
        if self.trace:
            return self.per_layer(probe_snap, imports)
        return self.end_to_end()

    def probe(self) -> dict | None:
        """Tiny oracle and verify inputs, checked like the workloads (traced with --trace 1)."""
        with self.traced(self.tracer is not None, "perfbench.probe"):
            ora = oracle_pass(self.probe_inputs["oracle"])
            ver = verify_pass(self.probe_inputs["verify"])
        for res in ora:
            check_oracle(self.tally, *res)
        for rec in ver:
            check_verify(self.tally, *rec)
        return self.tracer.snapshot() if self.tracer is not None else None

    @contextlib.contextmanager
    def traced(self, on: bool, span: str):
        """Install the tracer (zeroed) around in-process work when ``on``."""
        if not on:
            yield
            return
        self.tracer.reset()
        self.tracer.install()
        try:
            with self.tracer.span(span):
                yield
        finally:
            self.tracer.uninstall()

    def run_pass(self, traced: bool, index: int):
        tick = self.ref.sample
        if self.workload == "oracle":
            return oracle_pass(self.inputs["rows"], tick)
        if self.workload == "verify":
            return verify_pass(self.inputs, tick)
        return cli_pass(self.inputs["commands"], self.outdir / f"pass{index}", traced, tick)

    def check(self, results) -> None:
        if self.workload == "oracle":
            for res in results:
                check_oracle(self.tally, *res)
        elif self.workload == "verify":
            for rec in results:
                check_verify(self.tally, *rec)
        else:
            self.cli_results(results)

    def cli_results(self, results) -> None:
        for res in results:
            self.cli.check(self.tally, res)
            self.cli_walls[res["name"]].append(res["wall"])
            self.cli_rss.append(res["rss"])

    def measure(self, deadline: float) -> None:
        """Passes until the next would end after ``deadline``; with --trace 1
        untraced and traced passes alternate, at least one of each."""
        walls, totals = self.walls, {False: [], True: []}
        while True:
            traced = self.trace and len(walls[True]) < len(walls[False])
            index = len(walls[False]) + len(walls[True])
            mark = self.ref.mark()
            # cli children trace themselves; in-process passes are traced here
            with self.traced(traced and self.workload != "cli", f"perfbench.pass{index}"):
                t0 = time.perf_counter()
                results = self.run_pass(traced, index)
                total = time.perf_counter() - t0
            closing = self.ref.sample()  # the first item's tick opens the pass
            # the pass wall excludes the kernel samples taken inside it
            wall = total - (self.ref.spent_since(mark) - closing)
            self.ref_per_run.append(self.ref.per_run_since(mark))
            walls[traced].append(wall)
            totals[traced].append(total + closing)
            self.times[traced].append(calib.scale(wall, self.ref_per_run[-1]))
            if traced:
                self.snaps.append(self.snapshot(results))
                if self.workload == "cli":
                    for res in results:
                        self.cli.check(self.tally, res)
            else:
                self.check(results)
            following = self.trace and len(walls[True]) < len(walls[False])
            if self.trace and not walls[True]:
                continue
            if time.perf_counter() + statistics.median(totals[following]) > deadline:
                break
        self.rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def snapshot(self, results) -> dict:
        from tracer import merge

        if self.workload != "cli":
            return self.tracer.snapshot()
        return merge(json.loads(res["stats"].read_text()) for res in results
                     if res["stats"].is_file())

    def end_to_end(self) -> dict:
        rss = max(self.cli_rss) if self.workload == "cli" else self.rss
        out = {"wall_s": (median(self.times[False]), "s"),
               "peak_rss_mb": (rss, "MB")}
        for metric in ACCURACY:
            out[metric] = (self.tally.digits(metric), "digits")
        return out

    def per_layer(self, probe_snap: dict, imports: tuple[float, float]) -> dict:
        from tracer import UNITS, layer_metrics, merge

        per_pass = [layer_metrics(merge([snap, probe_snap])) for snap in self.snaps]
        out = {}
        for name in per_pass[0]:
            unit = UNITS.get(name, "s")
            values = [p[name] for p in per_pass]
            # counts repeat exactly: report the first pass; times: the median
            out[name] = (values[0] if unit in ("count", "ratio") else median(values), unit)
        for name, walls in self.cli_walls.items():
            out[f"cli.{name}_s"] = (median(walls), "s")
        out["cli.import_s"] = (imports[0], "s")
        out["cli.scipy_import_s"] = (imports[1], "s")
        out["trace.overhead_s"] = (median(self.times[True]) - median(self.times[False]), "s")
        return out


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One run; returns the Run (tally, walls, tracer) and its metrics."""
    setup_s, setup_walls = (None, []) if trace else measure_setup(
        workload, seed, 1 if tiny else SETUP_REPEATS)
    run = Run(workload, seed, trace, tiny=tiny)
    run.setup_walls = setup_walls
    metrics = run.execute(seconds)
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dkradial" / "__init__.py").is_file():
        print(f"perfbench: no dkradial package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    run, metrics = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    spans = 0
    if run.trace:
        spans = run.tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = {
        "correct": run.tally.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "pass_walls": {"untraced": run.walls[False], "traced": run.walls[True]},
              "pass_times": {"untraced": run.times[False], "traced": run.times[True]},
              "ref_per_run_s": run.ref_per_run, "ref_nominal_s": calib.REF_NOMINAL_S,
              "setup_walls": run.setup_walls,
              "spans": spans, "failures": run.tally.failures, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for label in run.tally.failures:
        print(f"perfbench: FAILED {label}", file=sys.stderr)
    print("perfbench env " + json.dumps(record["env"]))
    print("perfbench raw " + json.dumps({"pass_wall_s": median(run.walls[False]),
                                         "ref_per_run_s": median(run.ref_per_run)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
