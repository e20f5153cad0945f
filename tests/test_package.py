"""The package stays dependency-free: no runtime dependency is declared and
every module imports only the standard library and ``whitney`` itself."""

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_runtime_dependencies():
    path = os.path.join(ROOT, "pyproject.toml")
    try:
        import tomllib
    except ModuleNotFoundError:             # Python 3.10
        with open(path, encoding="utf-8") as fh:
            assert re.search(r"^dependencies = \[\]$", fh.read(), re.M)
        return
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_imports_are_stdlib_or_whitney():
    allowed = set(sys.stdlib_module_names) | {"whitney"}
    package = os.path.join(ROOT, "src", "whitney")
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "cli.py" in modules
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            for module in imported:
                assert module.split(".")[0] in allowed, (name, module)
