"""Workloads, call tracing and metrics of the thermistor-fem benchmark.

`run.py` pins the thread count and puts the checkout's ``src`` on the path
before importing this module.  Everything here drives the package through its
public API: every operation is one ``harness.run_plan`` call, and the layers
are timed from outside by replacing module attributes with timing wrappers at
the names their callers look up.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
import math
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thermistor_fem import analysis, fem, harness, schemes
from thermistor_fem.harness import ExperimentPlan, preset_plan
from thermistor_fem.manufactured import make_problem
from thermistor_fem.schemes import SchemeConfig

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Error columns may move by this relative amount (round-off after a
#: reordering of floating-point work) before a run counts as failed.
RTOL = 1e-10
#: Experimental orders are logs of ratios of error columns; this absolute
#: tolerance is what RTOL allows them to move, with margin.
EOC_ATOL = 1e-8

#: Set-up is repeated before the timed operations, at least this many times
#: and for at least this long, so that `setup_s` is a median of several
#: samples on every workload (one bdf2-tri-m256 operation outlasts a run).
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: Share of the traced wall time that may fall outside every named layer
#: (``harness.self_s`` + ``schemes.self_s``) before the traced run warns.
UNATTRIBUTED_LIMIT = 0.10


# ----------------------------------------------------------------------------
# Workloads.  The manufactured problem has no random input: the seed is
# recorded but changes nothing.  Smoke plans run the same code paths at M <= 16.
# ----------------------------------------------------------------------------


def _single(study: str, config: SchemeConfig) -> ExperimentPlan:
    return ExperimentPlan(study=study, runs=(config,))


def _first_runs(plan: ExperimentPlan, n) -> ExperimentPlan:
    return dataclasses.replace(plan, runs=plan.runs[:n])


WORKLOADS = {
    # Assembly and sparse LU factorization dominate the steps.
    "bdf2-tri-m256": lambda smoke: _single(
        "bdf2-tri-m256", SchemeConfig("bdf2", 8 if smoke else 256, "tri", tau_rule="fixed:0.1")
    ),
    # Small systems, many steps, CSV and order rows: the preset sweep.
    "sweep-fig-u": lambda smoke: _first_runs(preset_plan("fig-u"), 2 if smoke else None),
    # Q1 assembly and the CG solver; no factorization; the report dominates.
    "bdf2-quad-m256-cg": lambda smoke: _single(
        "bdf2-quad-m256-cg",
        SchemeConfig("bdf2", 8 if smoke else 256, "quad", tau_rule="fixed:0.5", solver="cg"),
    ),
}


# ----------------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------------


class Tracer:
    """Spans of wrapped calls, ``[name, start, end, parent index]``, and counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def _count_factor(counts, args, lu):
    # ``lu.nnz`` is what SuperLU stores for L and U; reading ``lu.L`` or
    # ``lu.U`` would copy the factor inside the caller's span.
    counts["fem.n_factorizations"] += 1
    counts["fem.factor_nnz"] += lu.nnz


def _count_steps(counts, args, result):
    counts["schemes.n_steps"] += result[0].n


def _count_tables(counts, args, result):
    space = args[0]
    counts["fem.table_bytes"] += sum(
        a.nbytes
        for tb in (space.tables, space.error_tables)
        for a in (tb.N, tb.grad, tb.wdet, tb.x)
    )


def _count_call(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


# (owner, attribute, span name, count).  PHASES are timed in every run and
# give the end-to-end split; LAYERS only in traced runs.
PHASES = [
    (harness, "build_mesh", "mesh.build_mesh", None),
    (harness, "FeSpace", "fem.FeSpace", None),
    (harness, "run_simulation", "schemes.run_simulation", _count_steps),
    (harness, "compute_error_report", "harness.compute_error_report", _count_tables),
]
LAYERS = PHASES + [
    (harness, "run_one", "harness.run_one", None),
    (harness, "reports_to_csv", "harness.reports_to_csv", None),
    (harness, "macroelements", "mesh.macroelements", None),
    (analysis, "interpolate_nodal", "analysis.interpolate_nodal", None),
    (schemes, "interpolate_nodal", "analysis.interpolate_nodal", None),
    (analysis, "l2_error", "analysis.fe_norm", None),
    (analysis, "h1_error", "analysis.fe_norm", None),
    (analysis, "fe_l2_norm", "analysis.fe_norm", None),
    (analysis, "fe_h1_norm", "analysis.fe_norm", None),
    (analysis, "i2h_postprocess", "analysis.i2h_postprocess", None),
    (analysis, "h1_error_postprocessed", "analysis.postprocessed_norm", None),
    (schemes, "assemble_mass", "fem.assemble_mass", None),
    (schemes, "assemble_stiffness", "fem.assemble_stiffness", None),
    (schemes, "assemble_weighted_stiffness", "fem.assemble_weighted_stiffness", None),
    (schemes, "assemble_load", "fem.assemble_load", None),
    (schemes, "assemble_joule_load", "fem.assemble_joule_load", None),
    (fem.DirichletSystem, "__init__", "fem.dirichlet_reduce", None),
    (fem.DirichletSystem, "solve", "fem.solve", _count_call("fem.n_solves")),
    (fem.DirichletSystem, "residual", "fem.residual", None),
    (fem.spla, "splu", "fem.factorize", _count_factor),
    (fem, "solve_spd", "fem.cg", None),
]
# ProblemData callables, wrapped through dataclasses.replace.
PROBLEM_FIELDS = {
    "f1": "manufactured.f1",
    "f2": "manufactured.f2",
    "sigma": "manufactured.sigma",
    "exact_u": "manufactured.exact",
    "exact_phi": "manufactured.exact",
    "grad_u": "manufactured.exact",
    "grad_phi": "manufactured.exact",
}
ROOT = "harness.run_plan"
# Spans whose self time is reported under a shared name; every other span
# reports its self time under its own name.
SELF_NAME = {
    ROOT: "harness.self",
    "harness.run_one": "harness.self",
    "harness.compute_error_report": "harness.self",
    "schemes.run_simulation": "schemes.self",
}
SELF_TIMES = sorted(
    {SELF_NAME.get(name, name) for _, _, name, _ in LAYERS}
    | set(PROBLEM_FIELDS.values())
    | {SELF_NAME[ROOT]}
)
COUNTS = [
    "fem.factor_nnz",
    "fem.n_factorizations",
    "fem.n_solves",
    "manufactured.n_evals",
    "schemes.n_steps",
]

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "step_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SELF_TIMES},
    "harness.run_one_s": "s",
    "fem.table_mb": "MB",
    **{name: "count" for name in COUNTS},
    "trace.n_spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@contextmanager
def patched(tracer: Tracer, targets):
    saved = []
    try:
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_problem(tracer: Tracer):
    problem = make_problem()
    count = _count_call("manufactured.n_evals")
    return dataclasses.replace(
        problem,
        **{
            field: tracer.wrap(name, getattr(problem, field), count)
            for field, name in PROBLEM_FIELDS.items()
        },
    )


# ----------------------------------------------------------------------------
# One operation: one run_plan call
# ----------------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    tracer: Tracer
    csv_text: str | None = None
    error: str | None = None

    def inclusive(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.tracer.spans if n == name)

    @property
    def wall(self) -> float:
        _, start, end, _ = self.tracer.spans[0]
        return end - start

    def end_to_end(self) -> dict:
        return {
            "wall_s": self.wall,
            "setup_s": self.inclusive("mesh.build_mesh") + self.inclusive("fem.FeSpace"),
            "step_s": self.inclusive("schemes.run_simulation") / self.tracer.counts["schemes.n_steps"],
            "report_s": self.inclusive("harness.compute_error_report"),
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        self_times = defaultdict(float)
        for (name, start, end, _), inner in zip(spans, children):
            self_times[SELF_NAME.get(name, name)] += end - start - inner
        counts = self.tracer.counts
        return {
            **{f"{name}_s": self_times[name] for name in SELF_TIMES},
            "harness.run_one_s": self.inclusive("harness.run_one"),
            "fem.table_mb": counts["fem.table_bytes"] / 2**20,
            **{name: counts[name] for name in COUNTS},
            "trace.n_spans": len(spans),
            "trace.wall_s": self.wall,
        }


def run_op(plan: ExperimentPlan, traced: bool) -> Op:
    """Run the plan once with phase timers (and, if traced, every layer)."""
    tracer = Tracer()
    op = Op(tracer)
    problem = traced_problem(tracer) if traced else make_problem()
    run_plan = tracer.wrap(ROOT, harness.run_plan)
    try:
        with patched(tracer, LAYERS if traced else PHASES):
            op.csv_text = run_plan(plan, problem=problem).csv_text
    except Exception:  # any raise is a failed operation, not a crash
        op.error = traceback.format_exc()
    return op


def time_setup(plan: ExperimentPlan) -> float:
    """Build the mesh and FE space of every run of the plan; return seconds."""
    start = time.perf_counter()
    for config in plan.runs:
        mesh = harness.build_mesh(config.M, config.elem_kind)
        harness.FeSpace(mesh, config.assembly_points, config.error_points)
    return time.perf_counter() - start


# ----------------------------------------------------------------------------
# Correctness: compare the CSV with the reference recorded at the seed commit
# ----------------------------------------------------------------------------


def _parse_csv(text: str):
    """Error columns of the run rows and of the order rows, keyed by run."""
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    runs, orders = {}, {}
    for row in rows:
        key = (row["scheme"].removeprefix("eoc:"), row["elem"], row["M"], row["N"])
        values = [float(row[c]) for c in harness.CSV_COLUMNS[6:]]
        (orders if row["scheme"].startswith("eoc:") else runs)[key] = values
    return runs, orders


def _close(got, ref, rtol, atol) -> bool:
    return got is not None and all(math.isclose(g, r, rel_tol=rtol, abs_tol=atol) for g, r in zip(got, ref))


def count_failed(csv_text: str, reference_text: str) -> int:
    """Number of runs whose error columns or order row leave the reference.

    A run missing from the CSV (it failed, leaving a ``# run failed``
    comment) counts as failed; a row the reference does not have fails all.
    """
    runs, orders = _parse_csv(csv_text)
    ref_runs, ref_orders = _parse_csv(reference_text)
    if set(runs) - set(ref_runs) or set(orders) - set(ref_orders):
        return len(ref_runs)
    return sum(
        not _close(runs.get(key), ref, RTOL, 0.0)
        or (key in ref_orders and not _close(orders.get(key), ref_orders[key], 0.0, EOC_ATOL))
        for key, ref in ref_runs.items()
    )


# ----------------------------------------------------------------------------
# A benchmark run
# ----------------------------------------------------------------------------


def measure(workload: str, seconds: float, trace: bool, smoke: bool):
    """Run the workload for ``seconds``; return (result, traced ops, problems, warnings).

    An untraced run times operations until ``seconds`` have passed.  A traced
    run times one untraced operation, the base of the tracing overhead, then
    traced ones until ``seconds`` have passed, at least two so that the
    counts can be seen to repeat.
    """
    plan = WORKLOADS[workload](smoke)
    ref_path = REFERENCE_DIR / f"{workload}{'-smoke' if smoke else ''}.csv"
    reference = ref_path.read_text()
    attempted = failed = 0
    problems, warnings = [], []

    def run_checked(traced: bool) -> Op:
        nonlocal attempted, failed
        op = run_op(plan, traced)
        attempted += len(plan.runs)
        if op.error is not None:
            failed += len(plan.runs)
            problems.append(op.error)
            return op
        bad = count_failed(op.csv_text, reference)
        failed += bad
        if bad:
            problems.append(f"{bad} run(s) left the reference error columns")
        return op

    setups = []
    while not trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS):
        setups.append(time_setup(plan))
    gc.collect()
    ops = []
    base = run_checked(traced=False) if trace else None
    start = time.perf_counter()
    while len(ops) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        ops.append(run_checked(traced=trace))
        if len(ops) == 1:
            # Later operations raise the peak through heap fragmentation,
            # so the peak is read after a fixed amount of work.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced_ops = ops if trace else []
    if any(op.error is not None for op in ops + [base] if op is not None):
        return _result(attempted, failed, problems, {}, {}), traced_ops, problems, warnings

    if trace:
        layers = [op.per_layer() for op in ops]
        for name in COUNTS + ["fem.table_mb", "trace.n_spans"]:
            if len({layer[name] for layer in layers}) > 1:
                problems.append(f"count {name} differs between operations")
        if any(op.csv_text != base.csv_text for op in ops):
            problems.append("traced and untraced error columns differ")
        # All layers from one operation, so that its self times partition its
        # wall time: the one with the (lower) median wall time.
        metrics = sorted(layers, key=lambda layer: layer["trace.wall_s"])[(len(layers) - 1) // 2]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base.wall
        share = (metrics["harness.self_s"] + metrics["schemes.self_s"]) / metrics["trace.wall_s"]
        print(f"unattributed share {share:.4f} of trace.wall_s (limit {UNATTRIBUTED_LIMIT})")
        if share > UNATTRIBUTED_LIMIT:
            warnings.append(
                f"{share:.1%} of the traced wall time is in no named layer (limit {UNATTRIBUTED_LIMIT:.0%})"
            )
        units = PER_LAYER_UNITS
    else:
        phases = [op.end_to_end() for op in ops]
        metrics = {name: statistics.median(p[name] for p in phases) for name in phases[0]}
        metrics["setup_s"] = statistics.median(setups + [p["setup_s"] for p in phases])
        metrics["peak_rss_mb"] = rss_mb
        units = END_TO_END_UNITS
    return _result(attempted, failed, problems, metrics, units), traced_ops, problems, warnings


def _result(attempted, failed, problems, metrics, units) -> dict:
    return {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }


def host_probe(reps: int = 5) -> float:
    """Median seconds of a fixed sparse LU and dense product, none of it the package's.

    It is timed before and after a run's operations so that runs made while
    the host was slower or faster than usual can be told apart.
    """
    n = 120
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    laplacian = (sp.kron(sp.eye(n), line) + sp.kron(line, sp.eye(n))).tocsc()
    dense = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)
    times = []
    for _ in range(reps + 1):  # the first call warms up and is dropped
        start = time.perf_counter()
        spla.splu(laplacian)
        dense @ dense
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def write_spans(path: Path, header: dict, ops) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, op in enumerate(ops):
            origin = op.tracer.spans[0][1] if op.tracer.spans else 0.0
            for i, (name, start, end, parent) in enumerate(op.tracer.spans):
                fh.write(
                    json.dumps(
                        {"op": k, "id": i, "parent": parent, "name": name,
                         "start": start - origin, "end": end - origin}
                    )
                    + "\n"
                )
