"""Convergence-study harness: reports, CSV serialization, presets, CLI."""

import ast
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense_oracle as oracle

from thermistor_fem import (
    CSV_COLUMNS,
    ConductivityNotPositive,
    ErrorReport,
    ExperimentPlan,
    NoConvergence,
    PRESETS,
    SchemeConfig,
    make_problem,
    preset_plan,
    render_order_table,
    reports_to_csv,
    run_one,
    run_plan,
)
from thermistor_fem import harness
from thermistor_fem.cli import _build_parser, main
from thermistor_fem.harness import PlanResult, RunFailure
from thermistor_fem.schemes import SCHEMES

SCHEMA = (
    "scheme,elem,M,h,tau,N,err_u_l2,err_u_h1,superclose_u_h1,superconv_u_h1,"
    "err_phi_l2,err_phi_h1,superclose_phi_h1,superconv_phi_h1,combined_l2"
)


def tiny(**kw):
    base = dict(scheme="bdf2", M=4, elem_kind="tri", T=0.5, tau_rule="fixed:0.25")
    base.update(kw)
    return SchemeConfig(**base)


def report(**kw):
    base = dict(
        scheme="bdf2",
        elem="tri",
        M=4,
        h=math.sqrt(2) / 4,
        tau=0.25,
        N=4,
        err_u_l2=0.1,
        err_u_h1=0.1,
        superclose_u_h1=0.1,
        superconv_u_h1=0.1,
        err_phi_l2=0.1,
        err_phi_h1=0.1,
        superclose_phi_h1=0.1,
        superconv_phi_h1=0.1,
        combined_l2=0.1,
        superclose_u_l2=0.1,
        superclose_phi_l2=0.1,
    )
    base.update(kw)
    return ErrorReport(**base)


def scaled(template, M, factor):
    """A copy of a synthetic report at mesh M with all errors scaled."""
    fields = {
        name: getattr(template, name) * factor
        for name in CSV_COLUMNS[6:] + ["superclose_u_l2", "superclose_phi_l2"]
    }
    return replace(template, M=M, h=math.sqrt(2) / M, **fields)


# ----------------------------------------------------------------------------
# Error reports
# ----------------------------------------------------------------------------


def test_run_one_fills_every_report_field():
    r = run_one(tiny())
    assert (r.scheme, r.elem, r.M, r.N) == ("bdf2", "tri", 4, 2)
    assert r.h == pytest.approx(math.sqrt(2) / 4)
    assert r.tau == pytest.approx(0.25)
    for name in CSV_COLUMNS[6:] + ["superclose_u_l2", "superclose_phi_l2"]:
        value = getattr(r, name)
        assert np.isfinite(value) and value > 0
    assert r.combined_l2 == pytest.approx(math.hypot(r.err_u_l2, r.err_phi_l2), rel=1e-12)


# ----------------------------------------------------------------------------
# CSV serialization
# ----------------------------------------------------------------------------


def test_csv_header_matches_the_fixed_schema():
    assert ",".join(CSV_COLUMNS) == SCHEMA
    assert reports_to_csv([]).splitlines()[0] == SCHEMA


def _schemas(text):
    """Every ``scheme,elem,...`` column list written out in ``text``, with
    whitespace and backticks dropped."""
    return [re.sub(r"\s", "", m) for m in re.findall(r"scheme,\s*elem(?:\s*,\s*\w+)*", text.replace("`", ""))]


def test_the_schema_in_the_docs_is_the_one_in_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text in (readme, harness.__doc__):
        assert _schemas(text) == [",".join(CSV_COLUMNS)]


def test_csv_data_rows_round_trip_floats():
    r = report(err_u_l2=1.0 / 3.0)
    line = reports_to_csv([r]).splitlines()[1]
    cells = line.split(",")
    assert cells[0] == "bdf2"
    assert cells[1] == "tri"
    assert cells[2] == "4"
    assert float(cells[6]) == 1.0 / 3.0  # shortest round-trip representation


def test_csv_appends_order_rows_for_matching_consecutive_runs():
    a = report()
    b = scaled(a, 8, 0.25)  # halving h quarters every error: order 2
    lines = reports_to_csv([a, b]).splitlines()
    assert len(lines) == 4
    eoc = lines[3].split(",")
    assert eoc[0] == "eoc:bdf2"
    assert float(eoc[6]) == pytest.approx(2.0, abs=1e-12)


def test_csv_orders_use_tau_when_only_the_step_refines():
    a = report()
    b = replace(scaled(a, 4, 0.5), tau=0.125, N=8)
    b = replace(b, h=a.h)
    lines = reports_to_csv([a, b]).splitlines()
    assert float(lines[3].split(",")[6]) == pytest.approx(1.0, abs=1e-12)


def test_csv_emits_no_order_row_across_scheme_or_kind_changes():
    a = report()
    b = replace(scaled(a, 8, 0.25), scheme="gao")
    assert len(reports_to_csv([a, b]).splitlines()) == 3
    c = replace(scaled(a, 8, 0.25), elem="quad")
    assert len(reports_to_csv([a, c]).splitlines()) == 3


def test_orders_pair_only_neighbouring_runs_in_the_csv_and_the_table():
    # bdf2 M=4, ext1 M=4, bdf2 M=8: the two bdf2 runs are not neighbours.
    a = report()
    runs = [a, replace(a, scheme="ext1"), scaled(a, 8, 0.25)]
    assert not any(line.startswith("eoc:") for line in reports_to_csv(runs).splitlines())
    text = render_order_table(runs)
    assert text.count("scheme=bdf2 elem=tri") == 2
    assert "order" not in text


def test_an_infinite_error_has_no_order_in_the_csv_or_the_table():
    a = report()
    runs = [a, scaled(a, 8, 0.25), replace(scaled(a, 16, 0.0625), err_u_l2=math.inf)]
    rows = [line.split(",") for line in reports_to_csv(runs).splitlines() if line.startswith("eoc:")]
    assert [row[6] for row in rows] == ["2.0", "nan"]
    table = render_order_table(runs).splitlines()
    i = next(i for i, line in enumerate(table) if line.startswith("u: L2 error"))
    assert table[i + 1].split() == ["order", "--", "2.00", "--"]


def test_csv_reports_failures_as_comment_lines():
    text = reports_to_csv([report()], failures=[RunFailure(tiny(M=6), NoConvergence("boom"))])
    last = text.splitlines()[-1]
    assert last.startswith("# run failed:")
    assert "M=6" in last and "NoConvergence: boom" in last


_ERROR_VALUES = st.one_of(
    st.floats(1e-9, 10.0),
    st.sampled_from([0.0, -0.0, -1e-3, -1.0, math.nan, math.inf]),
)


@st.composite
def report_sequences(draw):
    """Short report sequences whose neighbours refine in h, in tau, not at
    all or the wrong way, within and across scheme/element stretches."""
    runs = []
    for _ in range(draw(st.integers(0, 7))):
        M = draw(st.sampled_from([4, 8, 16]))
        tau = draw(st.sampled_from([0.25, 0.125, 0.125 * (1 + 1e-13), 0.0625]))
        errors = {name: draw(_ERROR_VALUES) for name in list(ErrorReport.__dataclass_fields__)[6:]}
        runs.append(
            ErrorReport(
                scheme=draw(st.sampled_from(["bdf2", "gao"])),
                elem=draw(st.sampled_from(["tri", "quad"])),
                M=M,
                h=math.sqrt(2) / M,
                tau=tau,
                N=round(1 / tau),
                **errors,
            )
        )
    return runs


_ONE_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    reports=report_sequences(),
    failures=st.lists(
        st.builds(
            RunFailure,
            st.builds(tiny, M=st.sampled_from([4, 6]), tau_rule=st.sampled_from(["fixed:0.25", "sqrt-h"])),
            st.one_of(st.builds(NoConvergence, _ONE_LINE_TEXT), st.builds(ValueError, _ONE_LINE_TEXT)),
        ),
        max_size=2,
    ),
)
def test_csv_and_table_equal_the_pairwise_reference(reports, failures):
    # One walk over neighbouring runs gives the orders the CSV and the table
    # used to take pair by pair, byte for byte, failure lines included.
    assert reports_to_csv(reports, failures) == oracle.pairwise_reports_to_csv(reports, failures)
    assert render_order_table(reports) == oracle.pairwise_order_table(reports)


def test_a_failure_is_one_line_in_the_csv_and_on_the_command_line(tmp_path, monkeypatch, capsys):
    def sigma(s):
        raise ValueError("sigma table\nout of range")

    # A second line would read as a data row whose scheme is "out of range".
    result = run_plan(ExperimentPlan(study="t", runs=(tiny(),)), problem=replace(make_problem(), sigma=sigma))
    assert result.csv_text.splitlines()[1:] == [
        "# run failed: scheme=bdf2 elem=tri M=4 tau_rule=fixed:0.25: ValueError: sigma table out of range"
    ]

    def fake_run_plan(plan, out_path=None):
        return PlanResult(reports=[], failures=[RunFailure(plan.runs[0], NoConvergence("no\r\nconvergence"))], csv_text="")

    monkeypatch.setattr("thermistor_fem.cli.run_plan", fake_run_plan)
    main(["run", "--scheme", "bdf2", "--elem", "tri", "--M", "4", "--tau-rule", "fixed:0.25", "--out", str(tmp_path / "x")])
    assert capsys.readouterr().err == (
        "run failed: scheme=bdf2 elem=tri M=4 tau_rule=fixed:0.25: NoConvergence: no convergence\n"
    )


# ----------------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------------


def test_run_plan_is_deterministic_and_writes_the_file(tmp_path):
    plan = ExperimentPlan(study="t", runs=(tiny(), tiny(M=8)))
    out = tmp_path / "a.csv"
    first = run_plan(plan, out_path=out)
    second = run_plan(plan)
    assert first.csv_text == second.csv_text
    assert out.read_text() == first.csv_text
    lines = first.csv_text.splitlines()
    assert len(lines) == 4  # header, two runs, one order row
    assert lines[3].startswith("eoc:bdf2")


def test_run_plan_continues_past_failures():
    # a conductivity that is not positive kills the very first solve
    bad = replace(make_problem(), sigma=lambda s: np.full_like(np.asarray(s, float), -1.0))
    plan = ExperimentPlan(study="t", runs=(tiny(), tiny(M=8)))
    result = run_plan(plan, problem=bad)
    assert result.reports == []
    assert len(result.failures) == 2
    assert all(isinstance(f.error, ConductivityNotPositive) for f in result.failures)
    assert result.csv_text.count("# run failed:") == 2


def test_run_plan_records_invalid_horizons_as_failures():
    plan = ExperimentPlan(study="t", runs=(tiny(), tiny(tau_rule="fixed:0.5")))
    result = run_plan(plan)
    assert len(result.reports) == 1
    assert len(result.failures) == 1
    assert result.failures[0].message.startswith("ValueError")


def test_run_plan_records_bad_config_types_as_value_errors():
    # Validated before anything is built: a string horizon or a missing tau
    # rule is a recorded ValueError, not a TypeError or AttributeError that
    # aborts the plan.
    plan = ExperimentPlan(study="t", runs=(tiny(), tiny(T="1.0"), tiny(tau_rule=None)))
    result = run_plan(plan)
    assert len(result.reports) == 1
    assert len(result.failures) == 2
    assert all(f.message.startswith("ValueError") for f in result.failures)


@pytest.mark.parametrize("field", ["exact_u", "exact_phi"])
def test_run_plan_accepts_exact_fields_that_return_a_scalar(field):
    # A constant field is broadcast to the nodes, as a constant source is to
    # the quadrature points: every run completes.
    plan = ExperimentPlan(study="t", runs=(tiny(), tiny(elem_kind="quad"), tiny(scheme="bdf3", T=0.75), tiny(scheme="gao")))
    result = run_plan(plan, problem=replace(make_problem(), **{field: lambda x, y, t: 0.5}))
    assert result.failures == []
    assert len(result.reports) == 4


def test_run_plan_records_coarse_quad_rules_as_value_errors():
    # FeSpace refuses quad Gauss rules below 3 points; the run fails as a
    # ValueError, which the CLI maps to exit code 2.
    plan = ExperimentPlan(study="t", runs=(tiny(elem_kind="quad", error_points=2),))
    result = run_plan(plan)
    assert result.reports == []
    assert len(result.failures) == 1
    assert result.failures[0].message.startswith("ValueError: quads need Gauss rules")


def _memory_error_on_first_call():
    """The manufactured problem with an ``f2`` that runs out of memory once."""
    problem = make_problem()
    calls = []

    def f2(x, y, t):
        calls.append(t)
        if len(calls) == 1:
            raise MemoryError("cannot allocate the f2 table")
        return problem.f2(x, y, t)

    return replace(problem, f2=f2)


def test_run_plan_records_a_memory_error_and_goes_on():
    plan = ExperimentPlan(study="t", runs=(tiny(), tiny(M=8)))
    result = run_plan(plan, problem=_memory_error_on_first_call())
    assert [r.M for r in result.reports] == [8]
    lines = result.csv_text.splitlines()
    assert len(lines) == 3 and lines[1].startswith("bdf2,tri,8,")
    assert lines[2] == "# run failed: scheme=bdf2 elem=tri M=4 tau_rule=fixed:0.25: MemoryError: cannot allocate the f2 table"


# ----------------------------------------------------------------------------
# Order table rendering
# ----------------------------------------------------------------------------


def test_render_order_table_shows_values_and_orders():
    a = report()
    b = scaled(a, 8, 0.25)
    text = render_order_table([a, b])
    assert "scheme=bdf2 elem=tri" in text
    assert "u: L2 error" in text and "phi: postprocessed H1" in text
    assert "2.00" in text
    assert "1.000e-01" in text and "2.500e-02" in text


def test_render_order_table_single_run_has_no_orders():
    text = render_order_table([report()])
    assert "order" not in text


def test_render_order_table_empty():
    assert render_order_table([]) == "(no runs)\n"


# ----------------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------------


def test_spatial_presets_pair_the_step_to_the_mesh():
    for name in ("fig-u", "fig-phi"):
        plan = preset_plan(name)
        assert plan.study == name
        assert [c.M for c in plan.runs] == [8, 16, 32, 64]
        for c in plan.runs:
            assert (c.scheme, c.elem_kind) == ("bdf2", "tri")
            assert c.tau_rule == f"fixed:{math.sqrt(2) / (2 * c.M)}"


def test_comparison_presets_use_the_coarse_step_rule():
    for name, scheme in (("table-gao", "gao"), ("table-ext1", "ext1")):
        plan = preset_plan(name)
        assert [c.M for c in plan.runs] == [8, 16, 32, 64]
        assert all(c.scheme == scheme and c.tau_rule == "sqrt-h" for c in plan.runs)


def test_saturation_and_temporal_presets():
    plan = preset_plan("fig-fixed-tau")
    assert len(plan.runs) == 24
    assert [c.M for c in plan.runs[:6]] == [8, 16, 32, 64, 128, 256]
    assert all(c.tau_rule == "fixed:0.1" for c in plan.runs[:6])

    plan = preset_plan("fig-temporal")
    assert [c.M for c in plan.runs] == [64] * 4 + [256] * 4
    assert [c.tau_rule for c in plan.runs[:4]] == [
        "fixed:0.1",
        "fixed:0.05",
        "fixed:0.025",
        "fixed:0.0125",
    ]

    plan = preset_plan("fig-bdf3")
    assert len(plan.runs) == 3
    assert all(c.scheme == "bdf3" and c.M == 256 for c in plan.runs)


def test_presets_equal_the_per_study_builders():
    assert set(PRESETS) == set(oracle.PRESET_BUILDERS)
    for name, plan in PRESETS.items():
        assert isinstance(plan, ExperimentPlan)
        assert preset_plan(name) == oracle.PRESET_BUILDERS[name](), name


def _preset_names(text):
    return re.findall(r"\b(?:fig|table)-[a-z0-9]+(?:-[a-z0-9]+)*", text)


def test_the_preset_lists_in_the_docs_are_the_presets():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    backticked = [name for name in re.findall(r"`([^`\s]+)`", readme) if _preset_names(name) == [name]]
    assert set(backticked) == set(PRESETS)
    demo = ast.get_docstring(ast.parse((root / "demos" / "cli_workflow.py").read_text()))
    assert set(_preset_names(demo)) == set(PRESETS)


def test_unknown_preset_raises():
    with pytest.raises(ValueError):
        preset_plan("fig-nope")
    assert set(PRESETS) == {
        "fig-u",
        "fig-phi",
        "fig-fixed-tau",
        "fig-temporal",
        "fig-bdf3",
        "table-gao",
        "table-ext1",
    }


# ----------------------------------------------------------------------------
# Command line interface
# ----------------------------------------------------------------------------


def test_cli_run_succeeds_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        ["run", "--scheme", "euler", "--elem", "tri", "--M", "4",
         "--tau-rule", "fixed:0.25", "--T", "0.5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SCHEMA
    assert len(lines) == 2
    stdout = capsys.readouterr().out
    assert "wrote 1 run(s)" in stdout
    assert "u: L2 error" in stdout


def test_cli_rejects_invalid_configuration(tmp_path, capsys):
    code = main(
        ["run", "--scheme", "bdf2", "--M", "5", "--tau-rule", "fixed:0.25",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_cli_rejects_a_non_finite_horizon(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["run", "--scheme", "bdf2", "--M", "4", "--T", "inf", "--out", str(out)])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_cli_refuses_an_unwritable_out_before_any_run(tmp_path, monkeypatch, capsys, out):
    def no_run_plan(plan, out_path=None):
        raise AssertionError("run_plan called")

    monkeypatch.setattr("thermistor_fem.cli.run_plan", no_run_plan)
    code = main(
        ["run", "--scheme", "bdf2", "--elem", "tri", "--M", "4",
         "--tau-rule", "fixed:0.25", "--out", str(tmp_path / out)]
    )
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_offers_every_scheme():
    parser = _build_parser()
    for scheme in SCHEMES:
        args = parser.parse_args(["run", "--scheme", scheme, "--M", "4", "--out", "x.csv"])
        assert args.scheme == scheme


def test_cli_run_maps_startup_horizon_errors_to_exit_2(tmp_path, capsys):
    # A horizon shorter than the start-up is refused before any run: no file is written.
    for scheme, rule in (("bdf2", "fixed:1.0"), ("bdf3", "fixed:0.5")):
        out = tmp_path / f"{scheme}.csv"
        code = main(
            ["run", "--scheme", scheme, "--elem", "tri", "--M", "4",
             "--tau-rule", rule, "--out", str(out)]
        )
        assert code == 2
        assert "invalid configuration: " in capsys.readouterr().err
        assert not out.exists()


def test_cli_unknown_preset_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--preset", "fig-nope", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2


def test_cli_maps_solver_failures_to_exit_3(tmp_path, monkeypatch, capsys):
    def fake_run_plan(plan, out_path=None):
        return PlanResult(
            reports=[], failures=[RunFailure(plan.runs[0], NoConvergence("fake"))], csv_text=""
        )

    monkeypatch.setattr("thermistor_fem.cli.run_plan", fake_run_plan)
    code = main(
        ["run", "--scheme", "bdf2", "--elem", "tri", "--M", "4",
         "--tau-rule", "fixed:0.25", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "NoConvergence" in capsys.readouterr().err

    code = main(["sweep", "--preset", "fig-u", "--out", str(tmp_path / "y.csv")])
    assert code == 3


def test_cli_writes_the_csv_and_exits_3_on_a_memory_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("thermistor_fem.harness.make_problem", _memory_error_on_first_call)
    out = tmp_path / "x.csv"
    code = main(
        ["run", "--scheme", "bdf2", "--elem", "tri", "--M", "4",
         "--tau-rule", "fixed:0.25", "--out", str(out)]
    )
    assert code == 3
    line = "run failed: scheme=bdf2 elem=tri M=4 tau_rule=fixed:0.25: MemoryError: cannot allocate the f2 table"
    assert out.read_text() == f"{SCHEMA}\n# {line}\n"
    assert capsys.readouterr().err == line + "\n"


def test_cli_maps_other_value_errors_to_exit_2(tmp_path, monkeypatch, capsys):
    # A ValueError subclass that is not a solver failure (numpy's LinAlgError
    # here) is a configuration error, whatever its name.
    def fake_run_plan(plan, out_path=None):
        error = np.linalg.LinAlgError("Last 2 dimensions of the array must be square")
        return PlanResult(reports=[], failures=[RunFailure(plan.runs[0], error)], csv_text="")

    monkeypatch.setattr("thermistor_fem.cli.run_plan", fake_run_plan)
    code = main(
        ["run", "--scheme", "bdf2", "--elem", "tri", "--M", "4",
         "--tau-rule", "fixed:0.25", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "LinAlgError" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "thermistor_fem.cli", "run", "--scheme", "euler",
         "--elem", "tri", "--M", "4", "--tau-rule", "fixed:0.5", "--T", "0.5",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
