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
)
from .fem import ConductivityNotPositive, FeSpace, NoConvergence
from .harness import (
    ErrorReport,
    ExperimentPlan,
    preset_plan,
    render_order_table,
    run_one,
    run_plan,
)
from .manufactured import make_problem
from .mesh import build_mesh, macroelements
from .schemes import (
    TABLES,
    SchemeConfig,
    TimeState,
    gao_step,
    imex_step,
    resolve_tau,
    run_simulation,
)

__version__ = "0.1.0"
