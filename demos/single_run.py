"""Solve the thermistor system once and look at everything the run produces.

The model problem on the unit square couples a heat equation for the
temperature u with a quasi-static potential equation for phi:

    u_t - Laplace(u) = sigma(u) |grad phi|^2 + f1,
    -div(sigma(u) grad phi) = f2,

where sigma is the temperature-dependent electric conductivity and the
|grad phi|^2 term is Joule heating.  The solver decouples the system: each
step extrapolates sigma from known temperature levels, solves the potential
equation, then advances the temperature with a two-step backward
differentiation formula.  Both linear systems are symmetric positive
definite, so a step costs two fast solves.

Sources and boundary data come from a manufactured solution with known
closed form, which is what lets us print exact errors at the end.
"""

import numpy as np

from thermistor_fem import (
    FeEvaluation,
    FeSpace,
    SchemeConfig,
    build_mesh,
    l2_error,
    make_problem,
    resolve_tau,
    run_simulation,
)

# ----------------------------------------------------------------------------
# Configure one run: bilinear elements on a 32 x 32 quad mesh, BDF2 stepping
# with a fixed time step, integrated to T = 1.
# ----------------------------------------------------------------------------

config = SchemeConfig(
    scheme="bdf2",
    M=32,
    elem_kind="quad",
    T=1.0,
    tau_rule="fixed:0.05",
)
problem = make_problem()

mesh = build_mesh(config.M, config.elem_kind)
space = FeSpace(mesh)
tau, N = resolve_tau(config, mesh.h)
print(f"mesh: {mesh.n_elements} {config.elem_kind} elements, "
      f"{mesh.n_nodes} nodes, h = {mesh.h:.4f}")
print(f"time: {N} steps of tau = {tau}")

# ----------------------------------------------------------------------------
# Run it.  The trace records one entry per time step: the minimum of the
# extrapolated conductivity (it must stay positive for the potential solve to
# be elliptic) and the relative residuals of the two linear solves.
# ----------------------------------------------------------------------------

state, trace = run_simulation(config, problem, space)

sigma_min = min(r.sigma_star_min for r in trace)
print(f"\nextrapolated conductivity stayed in "
      f"[{sigma_min:.3f}, 2.0] over all steps (needs > 0)")
print(f"worst potential-solve residual:   {max(r.res_phi for r in trace):.2e}")
print(f"worst temperature-solve residual: {max(r.res_u for r in trace):.2e}")

# ----------------------------------------------------------------------------
# Compare with the exact solution at the final time.  The norms integrate
# with the space's finer error rule: the FE fields and the exact ones are
# evaluated at its points.
# ----------------------------------------------------------------------------

t = state.t
points = space.error_tables.x
x, y = points[..., 0], points[..., 1]
err_u = l2_error(FeEvaluation(space, state.u_n), problem.exact_u(x, y, t))
err_phi = l2_error(FeEvaluation(space, state.phi_n), problem.exact_phi(x, y, t))
print(f"\nat t = {t}:")
print(f"  |U - u|_L2     = {err_u:.3e}")
print(f"  |Phi - phi|_L2 = {err_phi:.3e}")

# The fields themselves are plain nodal vectors; peek at the temperature
# along the horizontal midline of the square.
mid = np.flatnonzero(np.isclose(mesh.nodes[:, 1], 0.5))
line = mid[np.argsort(mesh.nodes[mid, 0])]
u_exact = problem.exact_u(mesh.nodes[line, 0], mesh.nodes[line, 1], t)
print("\ntemperature along y = 0.5 (computed vs exact), every 4th node:")
for i in line[::4]:
    x = mesh.nodes[i, 0]
    print(f"  x = {x:4.2f}   U = {state.u_n[i]: .6f}   "
          f"u = {problem.exact_u(x, 0.5, t): .6f}")
