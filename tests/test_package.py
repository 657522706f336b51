"""The package surface: what each module lists in __all__ exists, every
name one public module gives another is defined and listed there, and
no module or README command loads scipy."""

import ast
import importlib
import json
import pkgutil
import shlex
import subprocess
import sys
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


def test_closed_form_modules_load_without_scipy():
    """Importing the closed-form modules, the oracle or the CLI loads no
    scipy, nor does shooting; the oracle's solve_ivp and brentq stay
    patchable attributes."""
    code = (
        "import sys, dkradial\n"
        "loaded = [m for m in sys.modules if m.startswith('dkradial.')]\n"
        "import dkradial.verify, dkradial.cli, dkradial.oracle as o\n"
        "cfg = o.ShootingConfig(eps_scan=(1.6, 3.0))\n"
        "shot = [len(o.shoot_j(0.0, 1, config=cfg)), len(o.shoot_j0(0.0, config=cfg))]\n"
        "print(loaded, shot, [m for m in sys.modules if m.split('.')[0] == 'scipy'],\n"
        "      callable(o.solve_ivp), callable(o.brentq))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[] [4, 2] [] True True"


def test_readme_commands_need_no_scipy(tmp_path):
    """With scipy blocked, all six README commands exit 0, and the oracle
    command's comparison passes."""
    readme = (SOURCE.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("dkradial ")]
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
