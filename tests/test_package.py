"""The package surface: what each module lists in __all__ exists, every
name one public module gives another is defined and listed there, and
importing the closed-form side of the package does not load scipy."""

import ast
import importlib
import pkgutil
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
    code = (
        "import sys, dkradial\n"
        "loaded = [m for m in sys.modules if m.startswith('dkradial.')]\n"
        "import dkradial.verify\n"
        "print(loaded, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[] []"
