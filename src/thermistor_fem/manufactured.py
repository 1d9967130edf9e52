"""Manufactured solution used for all verification studies.

The exact fields on the unit square are

    u(x, y, t)   = exp(-2 t) sin(pi x) sin(pi y),
    phi(x, y, t) = 1 + sin(x + y + t),

with the bounded conductivity ``sigma(s) = 1 / (1 + s^2) + 1`` (so
``1 < sigma <= 2``).  The sources ``f1``, ``f2`` are whatever the governing
equations require:

    f1 = u_t - Laplace(u) - sigma(u) |grad phi|^2,
    f2 = -div(sigma(u) grad phi)
       = -sigma'(u) grad(u) . grad(phi) - sigma(u) Laplace(phi).

``u`` vanishes on the whole boundary, so the homogeneous temperature boundary
condition is consistent; the potential's boundary data is the trace of the
exact ``phi``.
"""

from __future__ import annotations

import numpy as np

from .schemes import ProblemData

__all__ = [
    "sigma",
    "sigma_prime",
    "exact_u",
    "grad_u",
    "exact_phi",
    "grad_phi",
    "source_f1",
    "source_f2",
    "make_problem",
]

PI = np.pi


def sigma(s):
    """Electric conductivity ``1/(1 + s^2) + 1``, bounded in ``(1, 2]``."""
    s = np.asarray(s, dtype=float)
    return 1.0 / (1.0 + s * s) + 1.0


def sigma_prime(s):
    """Derivative ``-2 s / (1 + s^2)^2``."""
    s = np.asarray(s, dtype=float)
    return -2.0 * s / (1.0 + s * s) ** 2


def exact_u(x, y, t):
    return np.exp(-2.0 * t) * np.sin(PI * x) * np.sin(PI * y)


def grad_u(x, y, t):
    common = PI * np.exp(-2.0 * t)
    return (
        common * np.cos(PI * x) * np.sin(PI * y),
        common * np.sin(PI * x) * np.cos(PI * y),
    )


def exact_phi(x, y, t):
    return 1.0 + np.sin(x + y + t)


def grad_phi(x, y, t):
    c = np.cos(x + y + t)
    return (c, np.copy(np.broadcast_to(c, np.shape(c))))


def source_f1(x, y, t):
    """Heat equation source: ``u_t - Laplace(u) - sigma(u) |grad phi|^2``."""
    u = exact_u(x, y, t)
    c = np.cos(x + y + t)
    return (-2.0 + 2.0 * PI**2) * u - sigma(u) * 2.0 * c * c


def source_f2(x, y, t):
    """Potential equation source: ``-div(sigma(u) grad phi)``.

    That is ``-sigma'(u) (u_x + u_y) cos(x + y + t) + 2 sigma(u) sin(x + y + t)``,
    with each factor rounded as `exact_u`, `grad_u`, `sigma` and
    `sigma_prime` round it.  The arrays are updated in place and released
    once read, so that at most four of the points' shape are alive at once.
    ``t`` is a scalar.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def of_pi(f, v):  # f(pi v), in a new array
        out = np.multiply(PI, v, out=np.empty(x.shape))
        return f(out, out=out)

    common = PI * np.exp(-2.0 * t)
    sx, sy = of_pi(np.sin, x), of_pi(np.sin, y)
    u = np.multiply(np.exp(-2.0 * t), sx, out=np.empty(x.shape))
    u *= sy
    du = of_pi(np.cos, x)
    du *= common
    du *= sy  # u_x
    sx *= common
    sx *= np.cos(np.multiply(PI, y, out=sy), out=sy)  # u_y
    del sy
    du += sx
    del sx
    q = np.multiply(u, u, out=np.empty(x.shape))
    q += 1.0
    two_sigma = np.divide(1.0, q, out=np.empty(x.shape))
    two_sigma += 1.0
    two_sigma *= 2.0
    q **= 2
    u *= -2.0
    u /= q  # sigma'(u)
    del q
    np.negative(u, out=u)
    u *= du
    del du
    z = np.add(x, y, out=np.empty(x.shape))
    z += t
    two_sigma *= np.sin(z)
    u *= np.cos(z, out=z)
    del z
    u += two_sigma
    return u[()]  # a scalar for scalar points, as the other fields give


def make_problem() -> ProblemData:
    """The manufactured thermistor problem as `ProblemData`."""
    return ProblemData(
        sigma=sigma,
        exact_u=exact_u,
        exact_phi=exact_phi,
        f1=source_f1,
        f2=source_f2,
        grad_u=grad_u,
        grad_phi=grad_phi,
    )
