"""Every name a demo imports from the package exists, and the package root
exports exactly the names the demos and README's library section name.

Two demos run here, each in its own interpreter, and must exit 0:
``single_run.py`` (a run through `run_simulation`, the potential solve and
the step trace) and ``cli_workflow.py`` (the command line and its CSV); they
take about a second each.  The other four take over half a minute together,
so they are only parsed, so that trimming an export cannot silently break one.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thermistor_fem

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_the_root_exports_exactly_what_the_docs_and_demos_name():
    # Bare backticked names of the section count if some module exports them;
    # a qualified one such as `fem.DirichletSystem` names a module's export.
    section = (ROOT / "README.md").read_text().split("## Using the library", 1)[1].split("\n## ", 1)[0]
    modules = [importlib.import_module(f"thermistor_fem.{m.name}") for m in pkgutil.iter_modules(thermistor_fem.__path__)]
    public = {name for module in modules for name in module.__all__}
    named = {name for name in re.findall(r"`(\w+)`", section) if name in public}
    named |= {name for path in DEMOS for module, name in package_imports(path) if module == "thermistor_fem"}
    exported = {
        name for name, value in vars(thermistor_fem).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == named


@pytest.mark.parametrize("name", ["single_run.py", "cli_workflow.py"])
def test_demo_runs(name, tmp_path):
    # Run outside the repository, with the demo's temporary files under tmp_path.
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("tmp*")), "the demo left temporary files behind"
