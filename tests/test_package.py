"""The package surface: what each module lists in __all__ exists, every
name one public module gives another is defined and listed there, every
module-level private name is used somewhere, no module or README command
loads scipy, numpy loads on first use and the exact-spectrum commands run
without it, the benchmark's tracer still finds the oracle functions it
wraps, and the benchmark's self-test passes."""

import ast
import importlib
import json
import pkgutil
import shlex
import subprocess
import sys
import types
from pathlib import Path

import dkradial

SOURCE = Path(dkradial.__file__).parent


def test_module_all_names_exist():
    for info in pkgutil.iter_modules(dkradial.__path__):
        module = importlib.import_module(f"dkradial.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"dkradial.{info.name}.__all__ lists missing names {missing}"


def _listed_definitions(tree: ast.Module) -> set:
    """Names one module defines at top level and lists in its __all__."""
    defined, listed = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                listed = set(ast.literal_eval(node.value))
    return defined & listed


def _taken(tree: ast.Module):
    """(module, name) for every name taken from a sibling module:
    `from .mod import name`, and `mod.name` after `from . import mod`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    yield node.module, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield aliases[node.value.id], node.attr


def test_modules_take_only_listed_names_from_each_other():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    public = {name: _listed_definitions(tree) for name, tree in trees.items()}
    bad = sorted(
        f"{importer} takes {module}.{name}"
        for importer, tree in trees.items()
        for module, name in set(_taken(tree))
        if not module.startswith("_") and name not in public[module]
    )
    assert bad == [], "names taken from a module that does not define and list them: " + ", ".join(bad)


def _unreferenced_private(trees: dict) -> list:
    """module.name for every module-level private function, class or
    constant (one leading underscore, not a dunder) that no ast.Name or
    ast.Attribute anywhere in trees refers to outside its own definition."""
    defs, refs = [], []  # (module, top-level node index, name)
    for module, tree in trees.items():
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs += [(module, i, node.name)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(module, i, t.id) for t in targets if isinstance(t, ast.Name)]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.append((module, i, sub.id))
                elif isinstance(sub, ast.Attribute):
                    refs.append((module, i, sub.attr))
    return sorted(
        f"{module}.{name}"
        for module, i, name in defs
        if name.startswith("_") and not name.startswith("__")
        and not any(n == name and (m, k) != (module, i) for m, k, n in refs)
    )


def test_no_unreferenced_private_names():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    assert _unreferenced_private(trees) == [], "private names nothing in the package uses"
    # The guard sees an unused helper, and a use from another module or by attribute.
    probe = {
        "a": ast.parse("_LIMIT = 1\ndef _dead(): return _dead()\ndef _used(): return _LIMIT\nclass _Kept: pass"),
        "b": ast.parse("from . import a\nfrom .a import _used\na._Kept\n_used()"),
    }
    assert _unreferenced_private(probe) == ["a._dead"]


def test_closed_form_modules_load_without_scipy():
    """Importing the closed-form modules, the oracle or the CLI loads no
    scipy, nor does shooting; the oracle alone, shooting included, loads
    none of the closed-form modules; the oracle's solve_ivp and brentq
    stay patchable attributes."""
    code = (
        "import sys, dkradial\n"
        "loaded = [m for m in sys.modules if m.startswith('dkradial.')]\n"
        "import dkradial.oracle as o\n"
        "cfg = o.ShootingConfig(eps_scan=(1.6, 3.0))\n"
        "shot = [len(o.shoot_j(0.0, 1, config=cfg))]\n"
        "closed = [m for m in ('closedform', '_exprs', 'hypergeo') if 'dkradial.' + m in sys.modules]\n"
        "import dkradial.verify, dkradial.cli\n"
        "shot.append(len(o.shoot_j0(0.0, config=cfg)))\n"
        "print(loaded, closed, shot, [m for m in sys.modules if m.split('.')[0] == 'scipy'],\n"
        "      callable(o.solve_ivp), callable(o.brentq))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[] [] [4, 2] [] True True"


def _readme_commands() -> list:
    """The argv of each `dkradial` line in the README's command-line block."""
    readme = (SOURCE.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("dkradial ")]


def _tracer():
    """perfbench/tracer.py as a module."""
    path = SOURCE.parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    return tracer


def test_readme_commands_need_no_scipy(tmp_path):
    """With scipy blocked, all six README commands exit 0, and the oracle
    command's comparison passes."""
    commands = _readme_commands()
    for argv in commands:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "out.csv")
    (shoot,) = [argv for argv in commands if argv[0] == "oracle"]
    assert len(commands) == 6 and "--compare" in shoot
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from dkradial.cli import main\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        return main(argv), out.getvalue()\n"
        "codes, outs = zip(*(run(argv) for argv in json.loads(sys.argv[1])))\n"
        "print(list(codes), json.loads(outs[int(sys.argv[2])])['comparison']['pass'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands), str(commands.index(shoot))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0] True"


def test_exact_spectrum_commands_run_without_numpy():
    """With numpy blocked, both README spectrum forms and degeneracy exit 0
    and print what they print with numpy, and importing the CLI still loads
    every module the benchmark's tracer wraps."""
    commands = [argv for argv in _readme_commands() if argv[0] in ("spectrum", "degeneracy")]
    assert [argv[0] for argv in commands] == ["spectrum", "spectrum", "degeneracy"]
    code = (
        "import contextlib, io, json, sys\n"
        "if sys.argv[2] == 'block':\n"
        "    sys.modules['numpy'] = None\n"
        "import dkradial.cli\n"
        "missing = [m for m in json.loads(sys.argv[3]) if m not in sys.modules]\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        return dkradial.cli.main(argv), out.getvalue()\n"
        "codes, outs = zip(*(run(argv) for argv in json.loads(sys.argv[1])))\n"
        "print(json.dumps([missing, codes, outs, sys.modules['numpy'] is None]))\n"
    )
    layers = json.dumps(list(_tracer().LAYERS))
    runs = {}
    for mode in ("block", "normal"):
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands), mode, layers],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    missing, codes, outs, blocked = runs["block"]
    assert (missing, codes, blocked) == ([], [0, 0, 0], True)
    assert outs == runs["normal"][2] and all(outs)
    assert runs["normal"][3] is False


def test_numpy_is_one_module_whichever_loads_first():
    """numpy imported first is the package's numpy as it is; imported after
    the package, it is the same module, fully loaded; the constant systems
    and grids built on first use keep their identity."""
    code = (
        "import sys, types\n"
        "if sys.argv[1] == 'numpy-first':\n"
        "    import numpy\n"
        "from dkradial import _numpy, model, verify\n"
        "lazy = type(_numpy.np) is not types.ModuleType\n"
        "import numpy\n"
        "print(lazy, numpy is _numpy.np is sys.modules['numpy'], type(numpy) is types.ModuleType,\n"
        "      float(numpy.linalg.det(numpy.eye(2))), model._systems() is model._systems(),\n"
        "      verify._r_grids() is verify._r_grids(), hasattr(model, 'SYSTEM_J'),\n"
        "      hasattr(model, '__getattr__'), hasattr(verify, '__getattr__'))\n"
    )
    for order, lazy in (("numpy-first", False), ("package-first", True)):
        proc = subprocess.run([sys.executable, "-c", code, order], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{lazy} True True 1.0 True True False False False"


def test_benchmark_tracing_points_still_count():
    """perfbench's tracer wraps oracle functions by name; run in-process,
    it still sees one confirming integration per shot, three lanes per
    level, its RHS evaluations and no failure."""
    tracer = _tracer()
    from dkradial import oracle

    t = tracer.Tracer()
    t.install()
    try:
        cfg = oracle.ShootingConfig(eps_scan=(1.6, 3.0))
        levels = len(oracle.shoot_j0(0.0, config=cfg)) + len(oracle.shoot_j(0.0, 1, config=cfg))
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t.snapshot())
    assert levels == 6
    assert (metrics["oracle.scan_ivp_calls"], metrics["oracle.scan_lanes"]) == (2, 3 * levels)
    assert metrics["oracle.scan_rhs_evals"] > 0 and metrics["oracle.ivp_failed"] == 0


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs each workload on its tiny inputs through the
    calls the benchmark makes (ShootingConfig with a trailing step, lambda
    by position, ModeParams(m=..., eps=...), the tracer's bindings), so a
    broken seam fails here, not first in a benchmark run.  It writes only
    under the git-ignored perfbench/_out/."""
    selftest = SOURCE.parents[1] / "perfbench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("selftest: all checks passed")
