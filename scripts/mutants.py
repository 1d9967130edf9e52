"""Mutation probe: apply each of a fixed table of one-line bugs to a copy of
the repository, run the fast test suite there, and report which bugs the
suite sees.

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py gao-swap   # the named ones

The fast suite is tier-1 without ``test_acceptance.py`` and
``test_benchmark_smoke.py``; it stops at the first failing test.  A mutant
is "killed" when a test fails and "survived" when the suite passes; an
"equivalent" mutant is expected to survive, for the reason the table gives.
The unmutated copy runs first and must pass.  Prints one row per mutant and
exits 1 if any verdict differs from the table's.  The probe lives outside
``tests/`` (``testpaths``), so tier-1 does not run it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SUITE = [
    "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", "tests",
    "--ignore=tests/test_acceptance.py", "--ignore=tests/test_benchmark_smoke.py",
]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    expected: str  # "killed", or "equivalent: <why no test can see it>"


SCHEMES = "src/thermistor_fem/schemes.py"
FEM = "src/thermistor_fem/fem.py"
ANALYSIS = "src/thermistor_fem/analysis.py"

MUTANTS = [
    Mutant("bdf2-extrap", SCHEMES, '"bdf2": ImexTable(extrap=(2, -1),', '"bdf2": ImexTable(extrap=(1, 0),', "killed"),
    Mutant("f2-time", SCHEMES, "problem.f2(x, y, t)", "problem.f2(x, y, t - 0.05)", "killed"),
    Mutant("record-max", SCHEMES, "float(sigma_star.min())", "float(sigma_star.max())", "killed"),
    Mutant("tau-guard-sign", SCHEMES, "* (1 - 1e-12)", "* (1 + 1e-12)", "killed"),
    Mutant("cg-loose", FEM, "CG_RTOL = 1e-12", "CG_RTOL = 1e-10", "killed"),
    Mutant("lift-base", ANALYSIS, "block_coeffs[:, 0] += base", "block_coeffs[:, 0] += 0.999999 * base", "killed"),
    Mutant("lift-axis", ANALYSIS, "self._table(lo, hi, 1 + axis)", "self._table(lo, hi, 2 - axis)", "killed"),
    Mutant("joule-no-sigma", FEM, "_scatter(space, sigma_star * g2)", "_scatter(space, g2)", "killed"),
    Mutant("bdf3-history", SCHEMES, "history=(18, -9, 2)", "history=(18, -9, 1)", "killed"),
    Mutant("gao-swap", SCHEMES, "(state.phi_n, state.phi_nm1)", "(state.phi_nm1, state.phi_n)", "killed"),
    Mutant("gao-old-sigma", SCHEMES, "_sigma_at_quad(ops, u_new)", "_sigma_at_quad(ops, us[0])", "killed"),
    Mutant("gao-phi0-time", SCHEMES, "with ops.loads(0.0) as loads:", "with ops.loads(0.01) as loads:", "killed"),
    Mutant("ext1-extrap", SCHEMES, '"ext1": ImexTable(extrap=(1,),', '"ext1": ImexTable(extrap=(2, -1),', "killed"),
    Mutant("order-log2", ANALYSIS, "/ np.log(ratio)", "/ np.log(2.0)", "killed"),
    Mutant("floor-geq", FEM, "if not smin > POSITIVITY_FLOOR:", "if not smin >= POSITIVITY_FLOOR:", "killed"),
    # The FE gradients summed over the element nodes in reverse order: on
    # triangles each sum has two nonzero terms and its bits do not move,
    # on squares they do.
    Mutant(
        "gradients-node-order",
        FEM,
        "for i in range(nodal.shape[0]):",
        "for i in reversed(range(nodal.shape[0])):",
        "killed",
    ),
    # The two element ranges of `fem._fill`, which the error report and the
    # table builds share: the helper's range never filled; the second range
    # shifted down by one row, so that one row is filled twice and the last
    # never; the exact partials subtracted on the calling thread's range
    # only; the table weights one ulp off on the second range only.
    Mutant(
        "report-helper-idle",
        FEM,
        '_beside("element-range", run, ranges[1])',
        '_beside("element-range", run, [])',
        "killed",
    ),
    Mutant("report-split-shift", FEM, "(split, n_elements))", "(split - row, n_elements - row))", "killed"),
    Mutant(
        "report-exact-one-range",
        ANALYSIS,
        "d -= exact[1 + axis][lo:hi]",
        "d -= exact[1 + axis][lo:hi] * (__import__('threading').current_thread()"
        " is __import__('threading').main_thread())",
        "killed",
    ),
    Mutant(
        "tables-second-range",
        FEM,
        "rule.weights, out=wdet[lo:hi])",
        "rule.weights * (1 + 2e-16 * (lo >= ne // 2)), out=wdet[lo:hi])",
        "killed",
    ),
]


def run_suite(copy: Path) -> tuple[str, str, float]:
    """Run the fast suite in ``copy``: (verdict, first failing test, seconds)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *SUITE], cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.M)
    if proc.returncode == 0:
        return "survived", "", seconds
    if proc.returncode == 1 and failed:
        return "killed", failed[0], seconds
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return f"error (pytest exit {proc.returncode})", last, seconds


def probe(mutant: Mutant | None, workdir: Path) -> tuple[str, str, float]:
    """Copy the repository into ``workdir``, apply ``mutant`` and run the suite."""
    copy = workdir / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    if mutant is not None:
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
    return run_suite(copy)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        verdict, failed, seconds = probe(None, Path(tmp))
    if verdict != "survived":
        print(f"the unmutated suite does not pass: {verdict} {failed}")
        return 1
    print(f"unmutated suite passes ({seconds:.0f} s)")
    print(f"{'mutant':22} {'expected':10} {'verdict':9} {'s':>4}  first failing test")
    mismatches = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            verdict, failed, seconds = probe(mutant, Path(tmp))
        expected = "survived" if mutant.expected.startswith("equivalent") else "killed"
        mismatches += verdict != expected
        print(f"{mutant.name:22} {mutant.expected.split(':')[0]:10} {verdict:9} {seconds:4.0f}  {failed}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
