"""Acceptance gate: the standard convergence studies against their reference
values, plus the exact property suite.

Each criterion is one or more test functions named ``test_criterion_NN_*``.
The reference numbers (``REF_*``) are the target values of the standard
studies for the manufactured problem; value comparisons allow 10% relative
deviation (15% where noted) and order comparisons +-0.15 / +-0.2 / +-0.3 as
noted, reflecting that the reference data is read off at limited precision
and that quadrature and solver details may differ legitimately.

Where a comparison is known not to hold for this implementation, the test
still states the reference and fails with the measured number: the gap is a
finding, not a bug to paper over.  The suite shares three expensive sweeps
through module-scoped fixtures; everything else runs in seconds.

Norms: the reference L2 series for the temperature and the combined
error track the distance to the *nodal interpolant* of the exact solution
(the supercloseness quantity in L2), which is what these studies plot; the
H1 references are plain errors against the exact fields.  The combined error
is the sum of the two nodal-L2 distances.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import _dense_oracle as oracle
from thermistor_fem import (
    TABLES,
    ExperimentPlan,
    FeSpace,
    SchemeConfig,
    TimeState,
    build_mesh,
    imex_step,
    i2h_postprocess,
    interpolate_nodal,
    macroelements,
    make_problem,
    preset_plan,
    run_one,
    run_plan,
)
from thermistor_fem.cli import main
from thermistor_fem.manufactured import source_f1, source_f2
from thermistor_fem.schemes import OperatorCache

mp.mp.dps = 50


# ----------------------------------------------------------------------------
# Reference values
# ----------------------------------------------------------------------------

# Spatial sweep of the workhorse scheme, M = 8, 16, 32, 64 (criteria 1-5).
REF_U_L2 = (1.062e-3, 2.660e-4, 6.693e-5, 1.705e-5)  # nodal L2, +-10%
REF_U_H1_ENDS = (5.594e-2, 7.424e-3)  # first and last value, +-10%
REF_U_SUPERCLOSE_H1 = (5.730e-3, 1.311e-3, 3.163e-4, 7.904e-5)  # +-10%
REF_U_POSTPROCESSED_H1 = (4.772e-2, 1.191e-2, 2.688e-3, 6.241e-4)  # +-10%
REF_PHI_SUPERCLOSE_H1_ENDS = (1.007e-4, 2.273e-6)  # +-10%
REF_PHI_POSTPROCESSED_H1_ENDS = (1.493e-2, 1.373e-4)  # +-10%

# Fixed-step saturation and temporal refinement (criteria 6-7).
REF_PLATEAU_M256_TAU01 = 1.31e-4  # +-10%
REF_TEMPORAL_M256 = (1.50e-4, 3.49e-5, 9.09e-6, 3.00e-6)  # tau = 0.1 ... 0.0125, +-10%

# Third-order scheme on the finest mesh (criterion 8).
REF_BDF3_TAU005 = 2.47e-6  # +-15%
REF_BDF3_ORDER = 3.0  # +-0.3

# Comparison schemes on the coarse-step rule (criteria 9-10).
REF_GAO_U_L2_ORDERS = (0.37, 0.80, 1.05)  # +-0.15
REF_GAO_PHI_POSTPROCESSED_ORDERS = (2.22, 1.95, 1.72)  # +-0.2
REF_EXT1_FIRST_ORDER = -0.88  # +-0.3


def orders(values):
    """EOC for a series on a 2x-refined knob (h or tau halves each step)."""
    return [math.log2(a / b) for a, b in zip(values[:-1], values[1:])]


def check_values(measured, reference, rel, label):
    problems = []
    for k, (m, r) in enumerate(zip(measured, reference)):
        if abs(m - r) > rel * abs(r):
            problems.append(
                f"{label}[{k}]: measured {m:.4e} vs reference {r:.4e} "
                f"({m / r - 1.0:+.1%}, allowed +-{rel:.0%})"
            )
    assert not problems, "\n".join(problems)


def check_orders(measured, reference, tol, label):
    problems = []
    for k, (m, r) in enumerate(zip(measured, reference)):
        if abs(m - r) > tol:
            problems.append(
                f"{label} leg {k}: measured order {m:.3f} vs reference {r:.2f} "
                f"(allowed +-{tol})"
            )
    assert not problems, "\n".join(problems)


def combined(report):
    """Combined nodal-L2 error of one run (sum of the two field distances)."""
    return report.superclose_u_l2 + report.superclose_phi_l2


# ----------------------------------------------------------------------------
# Shared sweeps
# ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spatial():
    """Spatial sweep of the workhorse scheme (criteria 1-5), ~5 s."""
    result = run_plan(preset_plan("fig-u"))
    assert not result.failures
    return result.reports


@pytest.fixture(scope="module")
def fixed_tau():
    """Mesh sweeps at four fixed steps (criteria 6-7), ~3 min.

    Returns {tau: [report(M=8), ..., report(M=256)]}.
    """
    result = run_plan(preset_plan("fig-fixed-tau"))
    assert not result.failures
    series = {}
    for r in result.reports:
        series.setdefault(r.tau, []).append(r)
    assert sorted(series) == [0.0125, 0.025, 0.05, 0.1]
    assert all([r.M for r in rs] == [8, 16, 32, 64, 128, 256] for rs in series.values())
    return series


@pytest.fixture(scope="module")
def bdf3_finest():
    """Third-order scheme on the finest mesh at tau = 0.1 and 0.05, ~30 s."""
    reports = [
        run_one(SchemeConfig(scheme="bdf3", M=256, elem_kind="tri", tau_rule=f"fixed:{tau}"))
        for tau in (0.1, 0.05)
    ]
    return reports


@pytest.fixture(scope="module")
def gao_table():
    result = run_plan(preset_plan("table-gao"))
    assert not result.failures
    return result.reports


@pytest.fixture(scope="module")
def ext1_table():
    result = run_plan(preset_plan("table-ext1"))
    assert not result.failures
    return result.reports


# ----------------------------------------------------------------------------
# Criteria 1-5: spatial sweep of the workhorse scheme
# ----------------------------------------------------------------------------


def test_criterion_01_temperature_l2_values_and_order(spatial):
    measured = [r.superclose_u_l2 for r in spatial]
    check_values(measured, REF_U_L2, 0.10, "u nodal L2")
    final = orders(measured)[-1]
    assert abs(final - 2.0) <= 0.15, f"final EOC {final:.3f} vs 2.0 +-0.15"


def test_criterion_02_temperature_h1_values_and_order(spatial):
    measured = [r.err_u_h1 for r in spatial]
    check_values(
        [measured[0], measured[-1]], REF_U_H1_ENDS, 0.10, "u H1 (first/last)"
    )
    final = orders(measured)[-1]
    assert abs(final - 1.0) <= 0.15, f"final EOC {final:.3f} vs 1.0 +-0.15"


def test_criterion_03_temperature_supercloseness(spatial):
    measured = [r.superclose_u_h1 for r in spatial]
    check_values(measured, REF_U_SUPERCLOSE_H1, 0.10, "u superclose H1")
    final = orders(measured)[-1]
    assert abs(final - 2.0) <= 0.15, f"final EOC {final:.3f} vs 2.0 +-0.15"


def test_criterion_04_postprocessed_temperature_order(spatial):
    measured = [r.superconv_u_h1 for r in spatial]
    final = orders(measured)[-1]
    assert abs(final - 2.0) <= 0.2, f"final EOC {final:.3f} vs 2.0 +-0.2"


def test_criterion_04_postprocessed_temperature_values(spatial):
    measured = [r.superconv_u_h1 for r in spatial]
    check_values(measured, REF_U_POSTPROCESSED_H1, 0.10, "u postprocessed H1")


def test_criterion_05_potential_h1_order(spatial):
    measured = [r.err_phi_h1 for r in spatial]
    final = orders(measured)[-1]
    assert abs(final - 1.0) <= 0.15, f"final EOC {final:.3f} vs 1.0 +-0.15"


def test_criterion_05_potential_supercloseness_values(spatial):
    measured = [r.superclose_phi_h1 for r in spatial]
    check_values(
        [measured[0], measured[-1]],
        REF_PHI_SUPERCLOSE_H1_ENDS,
        0.10,
        "phi superclose H1 (first/last)",
    )


def test_criterion_05_potential_postprocessed_values(spatial):
    measured = [r.superconv_phi_h1 for r in spatial]
    check_values(
        [measured[0], measured[-1]],
        REF_PHI_POSTPROCESSED_H1_ENDS,
        0.10,
        "phi postprocessed H1 (first/last)",
    )


# ----------------------------------------------------------------------------
# Criteria 6-7: fixed-step saturation and temporal refinement
# ----------------------------------------------------------------------------


def test_criterion_06_error_decreases_then_plateaus(fixed_tau):
    values = [combined(r) for r in fixed_tau[0.1]]
    assert values[0] > 4.0 * values[-1], f"no initial decrease: {values}"
    assert abs(values[-1] - values[-2]) <= 0.15 * values[-1], f"no plateau: {values}"
    for a, b in zip(values[:-1], values[1:]):
        assert b <= 1.05 * a, f"error grew under mesh refinement: {values}"


def test_criterion_06_plateau_level(fixed_tau):
    measured = combined(fixed_tau[0.1][-1])
    assert abs(measured - REF_PLATEAU_M256_TAU01) <= 0.10 * REF_PLATEAU_M256_TAU01, (
        f"plateau at M=256, tau=0.1: measured {measured:.4e} vs reference "
        f"{REF_PLATEAU_M256_TAU01:.4e} ({measured / REF_PLATEAU_M256_TAU01 - 1.0:+.1%}, "
        f"allowed +-10%)"
    )


def test_criterion_06_no_blowup_at_any_tested_step(fixed_tau):
    for tau, series in fixed_tau.items():
        values = [combined(r) for r in series]
        assert all(np.isfinite(values)), f"tau={tau}: non-finite error"
        assert max(values) < 0.1, f"tau={tau}: error blew up: {values}"


def test_criterion_07_finest_mesh_temporal_values(fixed_tau):
    measured = [combined(fixed_tau[tau][-1]) for tau in (0.1, 0.05, 0.025, 0.0125)]
    check_values(measured, REF_TEMPORAL_M256, 0.10, "combined L2, M=256")


def test_criterion_07_temporal_order_is_two(fixed_tau):
    measured = [combined(fixed_tau[tau][-1]) for tau in (0.1, 0.05, 0.025, 0.0125)]
    pre_plateau = orders(measured)[:2]  # the last leg already feels the mesh
    for k, value in enumerate(pre_plateau):
        assert abs(value - 2.0) <= 0.2, (
            f"temporal EOC leg {k}: measured {value:.3f} vs 2.0 +-0.2 "
            f"(series {[f'{v:.3e}' for v in measured]})"
        )


# ----------------------------------------------------------------------------
# Criterion 8: third-order scheme
# ----------------------------------------------------------------------------


def test_criterion_08_bdf3_value(bdf3_finest):
    measured = combined(bdf3_finest[1])
    assert abs(measured - REF_BDF3_TAU005) <= 0.15 * REF_BDF3_TAU005, (
        f"combined L2 at tau=0.05: measured {measured:.4e} vs reference "
        f"{REF_BDF3_TAU005:.4e} ({measured / REF_BDF3_TAU005 - 1.0:+.1%}, allowed +-15%)"
    )


def test_criterion_08_bdf3_temporal_order(bdf3_finest):
    measured = [combined(r) for r in bdf3_finest]
    leg = orders(measured)[0]
    assert abs(leg - REF_BDF3_ORDER) <= 0.3, (
        f"temporal EOC: measured {leg:.3f} vs reference {REF_BDF3_ORDER} +-0.3 "
        f"(series {[f'{v:.3e}' for v in measured]})"
    )


# ----------------------------------------------------------------------------
# Criteria 9-10: comparison schemes
# ----------------------------------------------------------------------------


def test_criterion_09_gao_temperature_l2_orders(gao_table):
    measured = orders([r.superclose_u_l2 for r in gao_table])
    check_orders(measured, REF_GAO_U_L2_ORDERS, 0.15, "gao u nodal L2")


def test_criterion_09_gao_potential_postprocessed_orders(gao_table):
    measured = orders([r.superconv_phi_h1 for r in gao_table])
    check_orders(
        measured, REF_GAO_PHI_POSTPROCESSED_ORDERS, 0.2, "gao phi postprocessed H1"
    )


def test_criterion_10_ext1_negative_apparent_order(ext1_table):
    measured = orders([r.superclose_u_l2 for r in ext1_table])[0]
    assert abs(measured - REF_EXT1_FIRST_ORDER) <= 0.3, (
        f"first-order-extrapolation scheme, u nodal L2, first leg: measured order "
        f"{measured:+.3f} vs reference {REF_EXT1_FIRST_ORDER} +-0.3 (series "
        f"{[f'{r.superclose_u_l2:.3e}' for r in ext1_table]})"
    )


# ----------------------------------------------------------------------------
# Criterion 11: property suite (exact identities, oracles, determinism)
# ----------------------------------------------------------------------------


def test_criterion_11_telescope_identity():
    # Testing the two-step backward difference against its newest level
    # telescopes exactly into energy differences plus a dissipation term.
    # The difference is the one the solver applies: the ``bdf2`` row.
    table = TABLES["bdf2"]
    rng = np.random.default_rng(7)
    u = rng.standard_normal((6, 40))
    tau = 0.1

    def energy(a, b):
        return 0.5 * (a @ a + (2 * a - b) @ (2 * a - b))

    for n in range(2, 6):
        alpha, history = table.difference((u[n - 1], u[n - 2]), tau)
        lhs = 2 * tau * ((alpha * u[n] - history) @ u[n])
        jump = u[n] - 2 * u[n - 1] + u[n - 2]
        rhs = energy(u[n], u[n - 1]) - energy(u[n - 1], u[n - 2]) + 0.5 * (jump @ jump)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_criterion_11_quadratic_reproduction(kind):
    space = FeSpace(build_mesh(8, kind))
    blocks = macroelements(space.mesh)
    p = lambda x, y, t: 0.5 - x + 2 * y + x * x - x * y + 3 * y * y  # noqa: E731
    field = i2h_postprocess(space, blocks, interpolate_nodal(space, p, 0.0))
    pts = np.random.default_rng(8).uniform(0, 1, size=(100, 2))
    got = oracle.block_values(field, oracle.locate_blocks(space.mesh, pts), pts)
    assert np.abs(got - p(pts[:, 0], pts[:, 1], 0.0)).max() <= 1e-12


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_criterion_11_postprocessing_interpolation_identity(kind):
    # The lift reads only nodal values, so applied after nodal interpolation
    # it must return the anchor values untouched, for any smooth field.
    space = FeSpace(build_mesh(8, kind))
    blocks = macroelements(space.mesh)
    w = lambda x, y, t: np.sin(2.1 * x) * np.cosh(y) + x  # noqa: E731
    coeffs = interpolate_nodal(space, w, 0.0)
    field = i2h_postprocess(space, blocks, coeffs)
    for b, anchors in enumerate(blocks[0]):
        got = oracle.block_values(field, np.full(anchors.size, b), space.mesh.nodes[anchors])
        assert np.abs(got - coeffs[anchors]).max() <= 1e-11


def test_criterion_11_pde_residual_oracle():
    # The closed-form sources satisfy the governing equations to 50 digits.
    def mp_u(x, y, t):
        return mp.e ** (-2 * t) * mp.sin(mp.pi * x) * mp.sin(mp.pi * y)

    def mp_phi(x, y, t):
        return 1 + mp.sin(x + y + t)

    def mp_sigma(s):
        return 1 / (1 + s * s) + 1

    rng = np.random.default_rng(9)
    pts = [(mp.mpf(float(x)), mp.mpf(float(y))) for x, y in rng.uniform(0.1, 0.9, (6, 2))]
    for t in (0.0, 0.37, 1.0):
        tm = mp.mpf(t)
        for x, y in pts:
            u_t = mp.diff(lambda s: mp_u(x, y, s), tm)
            lap_u = mp.diff(lambda s: mp_u(s, y, tm), x, 2) + mp.diff(
                lambda s: mp_u(x, s, tm), y, 2
            )
            p_x = mp.diff(lambda s: mp_phi(s, y, tm), x)
            p_y = mp.diff(lambda s: mp_phi(x, s, tm), y)
            want_f1 = u_t - lap_u - mp_sigma(mp_u(x, y, tm)) * (p_x**2 + p_y**2)
            assert abs(source_f1(float(x), float(y), t) - float(want_f1)) <= 1e-9

            flux_x = lambda s: mp_sigma(mp_u(s, y, tm)) * mp.diff(  # noqa: E731
                lambda r: mp_phi(r, y, tm), s
            )
            flux_y = lambda s: mp_sigma(mp_u(x, s, tm)) * mp.diff(  # noqa: E731
                lambda r: mp_phi(x, r, tm), s
            )
            want_f2 = -(mp.diff(flux_x, x) + mp.diff(flux_y, y))
            assert abs(source_f2(float(x), float(y), t) - float(want_f2)) <= 1e-9


@pytest.mark.parametrize("kind", ["tri", "quad"])
def test_criterion_11_dense_reference_step(kind):
    space = FeSpace(build_mesh(8, kind))
    problem = make_problem()
    tau = 0.1
    u_nm1 = interpolate_nodal(space, problem.exact_u, 0.1)
    u_n = interpolate_nodal(space, problem.exact_u, 0.2)
    state = TimeState(n=2, t=0.2, u_n=u_n, u_nm1=u_nm1)
    new = imex_step(TABLES["bdf2"], state, tau, OperatorCache(space, problem))
    u_ref, phi_ref = oracle.oracle_bdf2_step(space.mesh, problem, u_n, u_nm1, tau, 0.3)
    assert np.abs(new.u_n - u_ref).max() <= 1e-9
    assert np.abs(new.phi_n - phi_ref).max() <= 1e-9


def test_criterion_11_csv_determinism(tmp_path):
    plan = ExperimentPlan(
        study="determinism",
        runs=(
            SchemeConfig(scheme="bdf2", M=4, elem_kind="tri", T=0.5, tau_rule="fixed:0.25"),
            SchemeConfig(scheme="bdf2", M=8, elem_kind="tri", T=0.5, tau_rule="fixed:0.25"),
        ),
    )
    a = run_plan(plan)
    b = run_plan(plan)
    assert a.csv_text.encode() == b.csv_text.encode()
    # The file the command line writes, twice.
    args = ["run", "--scheme", "bdf2", "--elem", "tri", "--M", "8", "--T", "0.5", "--tau-rule", "fixed:0.25"]
    for name in ("a.csv", "b.csv"):
        assert main([*args, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
