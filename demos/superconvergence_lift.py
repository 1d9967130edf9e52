"""The macroelement post-processing operator and the order it buys.

A linear (or bilinear) finite element solution approximates gradients at
first order -- that cannot be improved by looking at one element at a time.
But on structured meshes the error has structure: the FE solution is
*superclose* to the nodal interpolant (their H1 distance is one order
smaller than either one's error).  Post-processing exploits this: group four
fine elements into one macroelement (a 2x2 patch of squares, or one triangle
of the doubled mesh), fit the single biquadratic (squares) or quadratic
(triangles) that interpolates the solution's nodal values at the block's
anchor nodes, and use that polynomial's gradient instead.

The lift is a purely local, linear operation on the nodal vector.  Below we
apply it to (a) the nodal interpolant of a smooth function -- superconvergence
of the interpolant is a property of the operator alone -- and (b) an actual
BDF2 solve of the thermistor system, where it also has to survive the time
stepping and the nonlinear coupling.
"""

from thermistor_fem import (
    FeEvaluation,
    FeSpace,
    SchemeConfig,
    build_mesh,
    eoc,
    h1_error,
    h1_error_postprocessed,
    i2h_postprocess,
    interpolate_nodal,
    macroelements,
    make_problem,
    run_simulation,
)

problem = make_problem()
t = 1.0


def exact_on_error_rule(space, exact, grad, t):
    """The exact values and the pair of exact partials at the points of the
    space's error rule, where every error norm integrates."""
    points = space.error_tables.x
    x, y = points[..., 0], points[..., 1]
    return exact(x, y, t), grad(x, y, t)


# ----------------------------------------------------------------------------
# (a) Interpolation only: the operator recovers one order on the gradient.
# ----------------------------------------------------------------------------

print("(a) nodal interpolant of the exact temperature, triangle meshes")
print(f"{'M':>4} {'|I_h u - u|_H1':>16} {'|I_2h I_h u - u|_H1':>20}")
plain, lifted = [], []
for M in (8, 16, 32, 64):
    space = FeSpace(build_mesh(M, "tri"))
    blocks = macroelements(space.mesh)
    coeffs = interpolate_nodal(space, problem.exact_u, t)
    field = i2h_postprocess(space, blocks, coeffs)
    exact = exact_on_error_rule(space, problem.exact_u, problem.grad_u, t)
    e1 = h1_error(FeEvaluation(space, coeffs), *exact)
    e2 = h1_error_postprocessed(field, *exact)
    plain.append((space.mesh.h, e1))
    lifted.append((space.mesh.h, e2))
    print(f"{M:>4} {e1:>16.3e} {e2:>20.3e}")
print(f"orders: plain {[f'{o:.2f}' for o in eoc(plain)]}, "
      f"lifted {[f'{o:.2f}' for o in eoc(lifted)]}\n")

# ----------------------------------------------------------------------------
# (b) The full solver: post-process the final-time temperature and potential.
# ----------------------------------------------------------------------------

print("(b) BDF2 solve, post-processing applied at the final time")
print(f"{'M':>4} {'|U-u|_H1':>12} {'|I_2h U-u|_H1':>15} "
      f"{'|Phi-phi|_H1':>14} {'|I_2h Phi-phi|_H1':>19}")
rows_u, rows_phi = [], []
for M in (8, 16, 32, 64):
    space = FeSpace(build_mesh(M, "tri"))
    config = SchemeConfig(
        scheme="bdf2", M=M, elem_kind="tri",
        tau_rule=f"fixed:{space.mesh.h / 2}",
    )
    state, _ = run_simulation(config, problem, space)
    blocks = macroelements(space.mesh)
    exact_u = exact_on_error_rule(space, problem.exact_u, problem.grad_u, state.t)
    u_raw = h1_error(FeEvaluation(space, state.u_n), *exact_u)
    u_lift = h1_error_postprocessed(i2h_postprocess(space, blocks, state.u_n), *exact_u)
    exact_phi = exact_on_error_rule(space, problem.exact_phi, problem.grad_phi, state.t)
    p_raw = h1_error(FeEvaluation(space, state.phi_n), *exact_phi)
    p_lift = h1_error_postprocessed(i2h_postprocess(space, blocks, state.phi_n), *exact_phi)
    rows_u.append((space.mesh.h, u_lift))
    rows_phi.append((space.mesh.h, p_lift))
    print(f"{M:>4} {u_raw:>12.3e} {u_lift:>15.3e} {p_raw:>14.3e} {p_lift:>19.3e}")

print(f"orders of the lifted errors: "
      f"u {[f'{o:.2f}' for o in eoc(rows_u)]}, "
      f"phi {[f'{o:.2f}' for o in eoc(rows_phi)]}")
print("\nBoth fields gain a full order over the raw H1 errors, for the cost")
print("of one small polynomial interpolation solve per macroelement.")
