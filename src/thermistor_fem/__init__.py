"""Decoupled IMEX BDF-Galerkin solver for the 2D thermistor system.

The package solves the nonlinear Joule heating problem (a heat equation
coupled to a quasi-static potential equation through a temperature dependent
conductivity) on the unit square with conforming bilinear or linear elements.
Time stepping decouples the two equations by extrapolating the conductivity
from known levels, so every step costs two symmetric positive definite
solves.  A macroelement post-processing operator lifts the gradient accuracy
of both fields by one order, and a harness reproduces the standard
convergence studies.
"""

from .analysis import (
    FeEvaluation,
    eoc,
    fe_h1_norm,
    fe_l2_norm,
    h1_error,
    h1_error_postprocessed,
    i2h_postprocess,
    interpolate_nodal,
    l2_error,
    quadrature_norm,
)
from .fem import (
    ConductivityNotPositive,
    DirichletSystem,
    FeSpace,
    NoConvergence,
    assemble_joule_load,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_stiffness,
    gauss_rule_square,
    gauss_rule_triangle,
    solve_spd,
)
from .harness import (
    CSV_COLUMNS,
    ErrorReport,
    ExperimentPlan,
    PRESETS,
    preset_plan,
    render_order_table,
    reports_to_csv,
    run_one,
    run_plan,
)
from .manufactured import make_problem
from .mesh import build_mesh, macroelements
from .schemes import (
    TABLES,
    OperatorCache,
    SchemeConfig,
    TimeState,
    gao_step,
    imex_step,
    potential_solve,
    resolve_tau,
    run_simulation,
    validate_config,
)

__version__ = "0.1.0"
