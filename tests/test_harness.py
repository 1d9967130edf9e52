"""Convergence-study harness: reports, CSV serialization, presets, CLI."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

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


def test_csv_reports_failures_as_comment_lines():
    text = reports_to_csv([report()], failures=[RunFailure(tiny(M=6), NoConvergence("boom"))])
    last = text.splitlines()[-1]
    assert last.startswith("# run failed:")
    assert "M=6" in last and "NoConvergence: boom" in last


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


def test_run_plan_records_coarse_quad_rules_as_value_errors():
    # FeSpace refuses quad Gauss rules below 3 points; the run fails as a
    # ValueError, which the CLI maps to exit code 2.
    plan = ExperimentPlan(study="t", runs=(tiny(elem_kind="quad", error_points=2),))
    result = run_plan(plan)
    assert result.reports == []
    assert len(result.failures) == 1
    assert result.failures[0].message.startswith("ValueError: quads need Gauss rules")


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
    code = main(
        ["run", "--scheme", "bdf2", "--elem", "tri", "--M", "4",
         "--tau-rule", "fixed:1.0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "run failed" in capsys.readouterr().err


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
