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
    return (c, np.copy(c))


def source_f1(x, y, t):
    """Heat equation source: ``u_t - Laplace(u) - sigma(u) |grad phi|^2``."""
    u = exact_u(x, y, t)
    c = np.cos(x + y + t)
    return (-2.0 + 2.0 * PI**2) * u - sigma(u) * 2.0 * c * c


def source_f2(x, y, t):
    """Potential equation source: ``-div(sigma(u) grad phi)``.

    That is ``-sigma'(u) (u_x + u_y) cos(x + y + t) + 2 sigma(u) sin(x + y + t)``,
    with ``u`` and its partials rounded as `exact_u` and `grad_u` round them.
    """
    sx, sy = np.sin(PI * x), np.sin(PI * y)
    u = np.exp(-2.0 * t) * sx * sy
    common = PI * np.exp(-2.0 * t)
    ux = common * np.cos(PI * x) * sy
    uy = common * sx * np.cos(PI * y)
    return -sigma_prime(u) * (ux + uy) * np.cos(x + y + t) + 2.0 * sigma(u) * np.sin(x + y + t)


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
