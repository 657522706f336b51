"""Runtime tracing of dkradial, installed from outside the package.

``Tracer.install()`` wraps, at runtime:

* every public function defined in a dkradial module (this covers every
  function named in the module's ``__all__``);
* the hot methods that carry the L1/L2 work: ``Expr.eval_x``, ``Expr.diff``,
  ``LinearDifferentialOperator.apply`` and ``.term_magnitudes``;
* ``solve_ivp`` and ``brentq`` as bound in ``dkradial.oracle``.

Every alias of a wrapped object in a loaded ``dkradial.*`` namespace is
rebound too (``_exprs`` holds its own ``gauss_2f1`` binding, ``verify`` its
own ``spectrum``), so calls through ``from .x import f`` are seen.
``uninstall()`` restores the originals; classes in ``__all__`` are left
alone because replacing them would break ``isinstance`` checks.

Each call records its name, inclusive ("busy") and self time; the
outermost call into a layer adds to that layer's busy time. Spans
``(name, start, end, parent)`` are kept in memory for every call except
the per-point L0 ``gauss_2f1`` calls, which number in the millions per
pass and are counted only. ``write_spans`` writes them at the end.

Counters are taken where the work happens: RHS evaluations from
``OdeResult.nfev``, integrations that return ``success=False``, objective
calls inside ``brentq``, and the terminating/series split of ``gauss_2f1``.
A ``solve_ivp`` call is classed as *refine* when it runs inside ``brentq``,
as *scan* when it runs in a ``shoot_*`` call before that call's first
``brentq``, and as *post* after it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = {
    "dkradial.hypergeo": "hypergeo",
    "dkradial._exprs": "exprs",
    "dkradial.model": "model",
    "dkradial.closedform": "closedform",
    "dkradial.verify": "verify",
    "dkradial.oracle": "oracle",
    "dkradial.cli": "cli",
}
METHODS = {
    ("dkradial._exprs", "Expr"): ("eval_x", "diff"),
    ("dkradial.model", "LinearDifferentialOperator"): ("apply", "term_magnitudes"),
}
ORACLE_IMPORTS = ("solve_ivp", "brentq")
NO_SPAN = {"hypergeo.gauss_2f1", "hypergeo.gauss_2f1_derivative"}
SHOOT = {"oracle.shoot_j": 8, "oracle.shoot_j0": 2}  # state size per lane
VERIFY_CHECKS = {
    "verify.residual_operator", "verify.residual_operator_expr",
    "verify.factorization_identity", "verify.cross_consistency", "verify.wronskian4",
}
WAVEFUNCTIONS = (
    "closedform.wavefunction_family", "closedform.wavefunction_j0", "closedform.general_basis",
)


def _after_gauss(tracer, frame, args, result, dur):
    kind = "terminating" if args[0].terminating else "series"
    tracer.counters["hypergeo.calls_" + kind] += 1


def _after_eval(tracer, frame, args, result, dur):
    tracer.counters["exprs.eval_points"] += int(np.size(args[1]))


def _after_verify(tracer, frame, args, result, dur):
    if frame[0] in VERIFY_CHECKS and tracer.stack[-1][1] != "verify":
        tracer.counters["verify.checks"] += 1
        tracer.counters["verify.samples"] += getattr(result, "sample_count", 1)


def _after_compare(tracer, frame, args, result, dur):
    tracer.counters["oracle.matched"] += len(result.matched)


def _before_brentq(tracer, args, kwargs):
    for f in reversed(tracer.stack):
        if f[0] in SHOOT:
            f[4] = True  # this shoot call has started refining
            break
    objective = args[0]

    def counted(*a, **k):
        tracer.counters["oracle.refine_fcalls"] += 1
        return objective(*a, **k)

    return (counted,) + tuple(args[1:]), kwargs


def _after_brentq(tracer, frame, args, result, dur):
    tracer.counters["oracle.refine_brackets"] += 1


def _after_ivp(tracer, frame, args, result, dur):
    c = tracer.counters
    phase, lane_size = "other", None
    for f in reversed(tracer.stack):
        if f[0] == "oracle.brentq":
            phase = "refine"
            break
        if f[0] in SHOOT:
            phase, lane_size = ("post" if f[4] else "scan"), SHOOT[f[0]]
            break
    c[f"oracle.{phase}_ivp_calls"] += 1
    c[f"oracle.{phase}_rhs_evals"] += int(result.nfev)
    c[f"oracle.{phase}_ivp_busy_s"] += dur
    c["oracle.ivp_busy_s"] += dur
    c["oracle.rhs_evals"] += int(result.nfev)
    if phase == "scan":
        c["oracle.scan_lanes"] += int(np.size(args[2])) // lane_size
    if not result.success:
        c["oracle.ivp_failed"] += 1


HOOKS = {
    "hypergeo.gauss_2f1": (None, _after_gauss),
    "exprs.Expr.eval_x": (None, _after_eval),
    "oracle.compare_spectra": (None, _after_compare),
    "oracle.brentq": (_before_brentq, _after_brentq),
    "oracle.solve_ivp": (None, _after_ivp),
}


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Call statistics, counters and spans for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.layer_busy = _Counters()
        self.counters = _Counters()
        self.spans: list = []
        self.stack = [["<root>", None, 0.0, -1, False]]  # name, layer, child_s, span, refined
        self._patches: list = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import dkradial  # noqa: F401  (loads every module the package imports)
        import dkradial.cli  # noqa: F401

        wrappers = {}  # id(original) -> (original, wrapper)
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            names = set(getattr(mod, "__all__", ()))
            names |= {k for k in vars(mod) if not k.startswith("_")}
            for k in sorted(names):
                v = getattr(mod, k)
                if inspect.isfunction(v) and v.__module__ == modname:
                    wrappers[id(v)] = (v, self._wrap(v, f"{layer}.{k}", layer))
            for (cmod, cname), meths in METHODS.items():
                if cmod == modname:
                    cls = getattr(mod, cname)
                    for meth in meths:
                        orig = cls.__dict__[meth]
                        self._patch(cls, meth, orig, self._wrap(orig, f"{layer}.{cname}.{meth}", layer))
        oracle = sys.modules["dkradial.oracle"]
        for k in ORACLE_IMPORTS:
            v = getattr(oracle, k)
            wrappers[id(v)] = (v, self._wrap(v, f"oracle.{k}", "oracle"))
        for modname, mod in list(sys.modules.items()):
            if modname != "dkradial" and not modname.startswith("dkradial."):
                continue
            for k, v in list(vars(mod).items()):
                hit = wrappers.get(id(v))
                if hit is not None and hit[0] is v:
                    self._patch(mod, k, v, hit[1])

    def uninstall(self) -> None:
        for owner, k, orig in reversed(self._patches):
            setattr(owner, k, orig)
        self._patches.clear()

    def _patch(self, owner, k, orig, wrapper) -> None:
        self._patches.append((owner, k, orig))
        setattr(owner, k, wrapper)

    def _wrap(self, fn, name, layer):
        before, after = HOOKS.get(name, (None, None))
        if layer == "verify":
            after = _after_verify
        span = name not in NO_SPAN
        stack, spans, layer_busy, tracer = self.stack, self.spans, self.layer_busy, self
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            parent = stack[-1]
            if span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[3]
            frame = [name, layer, 0.0, sid, False]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if parent[1] != layer:
                    layer_busy[layer] += dur
                if span:
                    spans[sid] = (name, t0, t1, parent[3])
            if after is not None:
                after(tracer, frame, args, result, dur)
            return result

        return wrapper

    # -- results ----------------------------------------------------------
    def reset(self) -> None:
        """Zero the statistics and counters; spans are kept for the run."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.layer_busy.clear()
        self.counters.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark-side work."""
        parent = self.stack[-1]
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append([name, "perfbench", 0.0, sid, False])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, t0, t1, parent[3])

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "layer_busy": dict(self.layer_busy),
            "counters": dict(self.counters),
        }

    def write_spans(self, path) -> int:
        """Write the spans kept so far as JSON lines; returns their number."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                if s is not None:
                    fh.write(json.dumps([sid, s[0], s[1], s[2], s[3]]) + "\n")
        return len(self.spans)


def merge(snapshots) -> dict:
    """Sum snapshots (e.g. of several child processes)."""
    out = {"stats": {}, "layer_busy": _Counters(), "counters": _Counters()}
    for snap in snapshots:
        for k, v in snap["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for key in ("layer_busy", "counters"):
            for k, v in snap[key].items():
                out[key][k] += v
    return out


def layer_metrics(snap: dict) -> dict:
    """Per-layer metric values (name -> number) from one snapshot."""
    stats = snap["stats"]
    busy = _Counters(snap["layer_busy"])
    c = _Counters(snap["counters"])

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def busy_of(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_of(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    brackets = c["oracle.refine_brackets"]
    return {
        "hypergeo.calls": calls("hypergeo.gauss_2f1"),
        "hypergeo.calls_terminating": c["hypergeo.calls_terminating"],
        "hypergeo.calls_series": c["hypergeo.calls_series"],
        "hypergeo.busy_s": busy["hypergeo"],
        "exprs.eval_calls": calls("exprs.Expr.eval_x"),
        "exprs.eval_points": c["exprs.eval_points"],
        "exprs.eval_self_s": self_of("exprs.Expr.eval_x"),
        "exprs.diff_calls": calls("exprs.Expr.diff"),
        "exprs.diff_busy_s": busy_of("exprs.Expr.diff"),
        "model.apply_calls": calls("model.LinearDifferentialOperator.apply"),
        "model.apply_busy_s": busy_of("model.LinearDifferentialOperator.apply"),
        "verify.checks": c["verify.checks"],
        "verify.samples": c["verify.samples"],
        "verify.self_s": sum(v[2] for k, v in stats.items() if k.startswith("verify.")),
        "closedform.spectrum_calls": calls("closedform.spectrum"),
        "closedform.spectrum_busy_s": busy_of("closedform.spectrum"),
        "closedform.wavefunction_busy_s": busy_of(*WAVEFUNCTIONS),
        "oracle.shoot_busy_s": busy_of(*SHOOT),
        "oracle.scan_ivp_calls": c["oracle.scan_ivp_calls"],
        "oracle.scan_lanes": c["oracle.scan_lanes"],
        "oracle.scan_rhs_evals": c["oracle.scan_rhs_evals"],
        "oracle.scan_busy_s": c["oracle.scan_ivp_busy_s"],
        "oracle.refine_brackets": brackets,
        "oracle.refine_fcalls": c["oracle.refine_fcalls"],
        "oracle.refine_ivp_calls": c["oracle.refine_ivp_calls"],
        "oracle.refine_rhs_evals": c["oracle.refine_rhs_evals"],
        "oracle.refine_busy_s": busy_of("oracle.brentq"),
        "oracle.post_ivp_calls": c["oracle.post_ivp_calls"],
        "oracle.us_per_rhs": 1e6 * c["oracle.ivp_busy_s"] / c["oracle.rhs_evals"] if c["oracle.rhs_evals"] else 0.0,
        "oracle.fcalls_per_root": c["oracle.refine_fcalls"] / brackets if brackets else 0.0,
        "oracle.useful_ratio": c["oracle.matched"] / brackets if brackets else 0.0,
        "oracle.ivp_failed": c["oracle.ivp_failed"],
    }


# Units of the metrics layer_metrics returns; the rest are seconds.
UNITS = {
    "hypergeo.calls": "count", "hypergeo.calls_terminating": "count",
    "hypergeo.calls_series": "count", "exprs.eval_calls": "count",
    "exprs.eval_points": "count", "exprs.diff_calls": "count", "model.apply_calls": "count",
    "verify.checks": "count", "verify.samples": "count", "closedform.spectrum_calls": "count",
    "oracle.scan_ivp_calls": "count", "oracle.scan_lanes": "count",
    "oracle.scan_rhs_evals": "count", "oracle.refine_brackets": "count",
    "oracle.refine_fcalls": "count", "oracle.refine_ivp_calls": "count",
    "oracle.refine_rhs_evals": "count", "oracle.post_ivp_calls": "count",
    "oracle.us_per_rhs": "us", "oracle.fcalls_per_root": "ratio",
    "oracle.useful_ratio": "ratio", "oracle.ivp_failed": "count",
}
