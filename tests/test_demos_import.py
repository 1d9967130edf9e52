"""Every name a demo imports from the package exists.

The demos take over a minute to run in total, so they are not run here; this
parses them instead, so that trimming an export cannot silently break one.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_imports(path):
    """``(module, name)`` for each name the file imports from the package;
    ``name`` is None for a plain ``import thermistor_fem...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "thermistor_fem":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "thermistor_fem":
                    yield alias.name, None


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(path):
    imports = list(package_imports(path))
    assert imports, f"{path.name} imports nothing from the package"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            # ``from package import submodule`` also works for a submodule
            # that the package does not import itself.
            assert importlib.util.find_spec(f"{module}.{name}"), (
                f"{path.name} imports {name!r} from {module}, which does not exist"
            )
