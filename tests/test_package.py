"""The package surface: what each module lists in __all__ exists, and every
name the top-level package re-exports is listed by its module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import dkradial


def test_module_all_names_exist():
    for info in pkgutil.iter_modules(dkradial.__path__):
        module = importlib.import_module(f"dkradial.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"dkradial.{info.name}.__all__ lists missing names {missing}"


def test_package_exports_are_listed_by_their_modules():
    tree = ast.parse(Path(dkradial.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dkradial.{node.module}")
        unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert unlisted == [], f"dkradial re-exports {unlisted} from {node.module} outside its __all__"
