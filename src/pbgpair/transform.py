"""Transform-domain amplitudes of the coupled two-atom / band-edge system.

Eliminating the field modes from the single-excitation equations of motion
leaves a 4x4 linear system for the Laplace amplitudes

    [A1(x), A2(x'), A3(x), A4(x')],   x' = x - i*omega12,

with self kernel G = beta'(x) on both transitions and cross kernel
G*cos(eta).  No engine solves it: ``solve_system``, a direct numerical
solve, is the tests' Laplace-domain reference for the closed form of
:mod:`pbgpair.inversion`, and the benchmark's tracer patches it by name.
The system decouples exactly in exchange-symmetric combinations

    u1 = A1 + A3,  v1 = A1 - A3,  u2 = A2 + A4,  v2 = A2 - A4:

the antisymmetric v's never couple to the field (the mode equation is
driven by u's only), giving simple poles at x = i*gamma1 and
x' = i*gamma2, while the u's obey a 2x2 system with determinant

    Delta(x) = (x + i g1 + 2G)(x' + i g2 + 2G) - 4 G^2 cos^2(eta).

Only the u-sector depends on the kernel, and ``u_sector`` gives it in
closed form for the branch-cut jump; the tests check it and the 4x4 solve
against each other.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem


def system_matrix(x, config, gamma):
    """4x4 matrix of the transform-domain linear system at kernel value gamma.

    ``x`` may be an array; the result is stacked with shape (..., 4, 4).
    """
    x = np.asarray(x, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    xp = x - 1j * config.omega12
    c = config.cos_eta
    ig1 = 1j * config.gamma1
    ig2 = 1j * config.gamma2
    zero = np.zeros_like(x)
    rows = [
        [x + g, g * c + zero, ig1 + g, g * c + zero],
        [g * c + zero, xp + g, g * c + zero, ig2 + g],
        [ig1 + g, g * c + zero, x + g, g * c + zero],
        [g * c + zero, ig2 + g, g * c + zero, xp + g],
    ]
    m = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return m


def solve_system(x, config, init, gamma):
    """Solve the 4x4 system at kernel value(s) gamma; vectorized over x.

    Returns an array of shape (..., 4) with [A1(x), A2(x'), A3(x), A4(x')].
    """
    m = system_matrix(x, config, gamma)
    rhs = np.broadcast_to(
        np.asarray(init.as_tuple(), dtype=complex), m.shape[:-1]
    )
    try:
        sol = np.linalg.solve(m, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return sol


def u_sector(x, config, init, gamma):
    """Symmetric combinations (u1, u2) = (A1 + A3, A2 + A4) at [x, x'],
    the only part of the solution that depends on the kernel value gamma.
    Vectorized over x / gamma."""
    x = np.asarray(x, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    c = config.cos_eta
    a10, a20, a30, a40 = init.as_tuple()
    u10, u20 = a10 + a30, a20 + a40
    h1 = x + 1j * config.gamma1
    h2 = x - 1j * config.omega12 + 1j * config.gamma2
    f1, f2 = h1 + 2 * g, h2 + 2 * g
    # f1 f2 - 4 g^2 cos^2(eta) without the cancellation of the g^2 terms
    delta = h1 * h2 + 2 * g * (h1 + h2) + 4 * g * g * (1.0 - c * c)
    return (f2 * u10 - 2 * g * c * u20) / delta, (f1 * u20 - 2 * g * c * u10) / delta

