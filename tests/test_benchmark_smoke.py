"""The benchmark's hooks into the package.

The traced benchmark times layers by replacing module attributes (for example
``fem.solve_spd``, ``schemes.assemble_*`` and ``harness.macroelements``) with
wrappers at the names their callers look up.  The smoke run fails when one of
those names is renamed away; the call-through test fails when the package
stops calling one of them by that name, so its layer would silently read 0.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from thermistor_fem import harness

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_bench", ROOT / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    spec.loader.exec_module(bench)
    return bench


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_traced_layer_is_called_through_its_wrapped_name():
    bench = load_bench()
    targets = [
        (owner, attr, f"{i}:{getattr(owner, '__name__', owner)}.{attr}", None)
        for i, (owner, attr, _, _) in enumerate(bench.LAYERS)
    ]
    tracer = bench.Tracer()
    with bench.patched(tracer, targets):
        for make_plan in bench.WORKLOADS.values():
            result = harness.run_plan(make_plan(True))
            assert not result.failures
    called = {name for name, *_ in tracer.spans}
    missing = [name for _, _, name, _ in targets if name not in called]
    assert not missing, f"wrapped but never called: {missing}"
