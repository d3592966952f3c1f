"""Transform-domain amplitudes of the coupled two-atom / band-edge system.

Eliminating the field modes from the single-excitation equations of motion
leaves a 4x4 linear system for the Laplace amplitudes

    [A1(x), A2(x'), A3(x), A4(x')],   x' = x - i*omega12,

with self kernel G = beta'(x) on both transitions and cross kernel
G*cos(eta).  The authoritative evaluation is a direct numerical solve of
that system.  The system decouples exactly in exchange-symmetric
combinations

    u1 = A1 + A3,  v1 = A1 - A3,  u2 = A2 + A4,  v2 = A2 - A4:

the antisymmetric v's never couple to the field (the mode equation is
driven by u's only), giving simple poles at x = i*gamma1 and
x' = i*gamma2, while the u's obey a 2x2 system with determinant

    Delta(x) = (x + i g1 + 2G)(x' + i g2 + 2G) - 4 G^2 cos^2(eta).

The closed form below is used to cross-check the matrix solve and to form
residues; the two routes must agree to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import SingularSystem

SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class TransformAmplitudes:
    """Values of A1(x), A2(x'), A3(x), A4(x') and the shared denominator."""

    a1x: complex
    a2x: complex
    a3x: complex
    a4x: complex
    denom: complex


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
    f1 = x + 1j * config.gamma1 + 2 * g
    f2 = x - 1j * config.omega12 + 1j * config.gamma2 + 2 * g
    delta = f1 * f2 - 4 * g * g * c * c
    return (f2 * u10 - 2 * g * c * u20) / delta, (f1 * u20 - 2 * g * c * u10) / delta


def uv_solution(x, config, init, gamma):
    """Closed-form solution via the exchange-symmetric decomposition.

    Returns (a1, a2, a3, a4) at [x, x', x, x'] like :func:`solve_system`.
    Vectorized over x / gamma.
    """
    x = np.asarray(x, dtype=complex)
    xp = x - 1j * config.omega12
    a10, a20, a30, a40 = init.as_tuple()
    u1, u2 = u_sector(x, config, init, gamma)
    v1 = (a10 - a30) / (x - 1j * config.gamma1)
    v2 = (a20 - a40) / (xp - 1j * config.gamma2)
    return 0.5 * np.stack(
        [u1 + v1, u2 + v2, u1 - v1, u2 - v2], axis=-1
    )


def denominator(x, config, gamma):
    """D(x) = (x - i gamma1) * Delta(x), the common denominator of A1/A3."""
    x = np.asarray(x, dtype=complex)
    g = np.asarray(gamma, dtype=complex)
    xp = x - 1j * config.omega12
    f1 = x + 1j * config.gamma1 + 2 * g
    f2 = xp + 1j * config.gamma2 + 2 * g
    delta = f1 * f2 - 4 * g * g * config.cos_eta ** 2
    return (x - 1j * config.gamma1) * delta


def transform_amplitudes(x, config, init) -> TransformAmplitudes:
    """Transform-domain amplitudes at a single point x (principal kernel).

    Raises SingularSystem when x is a pole of the system and propagates
    BranchPointError from the kernel.
    """
    g = kernel.beta_prime(x, config.omega1c, config.beta)
    m = system_matrix(complex(x), config, g)
    scale = np.max(np.abs(m))
    det = np.linalg.det(m)
    if abs(det) < SINGULAR_TOL * scale ** 4:
        raise SingularSystem(f"transform-domain system is singular at x={x}")
    sol = np.linalg.solve(m, np.asarray(init.as_tuple(), dtype=complex))
    return TransformAmplitudes(
        a1x=complex(sol[0]),
        a2x=complex(sol[1]),
        a3x=complex(sol[2]),
        a4x=complex(sol[3]),
        denom=complex(denominator(complex(x), config, g)),
    )


def printed_closed_form(x, config, init):
    """Transcribed closed-form amplitudes, kept only as a cross-check.

    This is the published single-denominator form reproduced verbatim.  It
    is NOT trusted: against the direct linear solve it agrees only on the
    A1 component when the other three initial amplitudes vanish.  The
    identified defects: the a3(0) coefficient of A1/A3 carries the
    interference term with the wrong sign (-2 Gamma12^2 where +2 Gamma12^2
    reproduces the solve), the exchange-antisymmetric part of A2/A4 is
    divided by (x - i gamma1) instead of (x' - i gamma2), and one bracket
    mixes gamma1 into the second-transition factor.  The regression test
    anchors the agreeing component and logs the measured discrepancies of
    the rest.
    """
    g11, g22, g12 = kernel.kernel_values(x, config)
    a10, a20, a30, a40 = init.as_tuple()
    xp = x - 1j * config.omega12
    ig1, ig2 = 1j * config.gamma1, 1j * config.gamma2
    d = (x - ig1) * ((x + ig1 + 2 * g11) * (xp + ig2 + 2 * g22) - 4 * g12 ** 2)
    a1 = (g12 * (x - ig1) * (a20 + a40) - 2 * g12 ** 2 * (a10 + a30)
          - a30 * (ig1 + g11) * (xp + ig1 + 2 * g22)
          + a10 * (x + g11) * (xp + ig2 + 2 * g22)) / d
    a2 = (2 * g12 ** 2 * (a20 + a40) - g22 * (xp - ig2) * (a10 + a30)
          + (x + ig1 + 2 * g11) * (a20 * (xp + g22) - a40 * (ig2 + g22))) / d
    a3 = (g12 * (x - ig1) * (a20 + a40) - 2 * g12 ** 2 * (a10 + a30)
          - a10 * (ig1 + g11) * (xp + ig1 + 2 * g22)
          + a30 * (x + g11) * (xp + ig2 + 2 * g22)) / d
    a4 = (2 * g12 ** 2 * (a20 + a40) - g22 * (xp - ig2) * (a10 + a30)
          - (x + ig1 + 2 * g11) * (a20 * (ig2 + g22) - a40 * (xp + g22))) / d
    return np.array([a1, a2, a3, a4])


def spectral_functions(x, config):
    """Classification functions (G1, G2, H1, H2) at x.

    Factored dressed-level form: a linear prefactor times the two
    exchange-split level factors times the band-edge interference factor
    (1 +/- 2 beta'), with beta' the principal kernel.  Their roots are the
    dressed-state table reported by the pole finder; the inversion itself
    uses the transform denominator, not these functions.
    """
    x = np.asarray(x, dtype=complex)
    g = kernel.beta_prime(x, config.omega1c, config.beta)
    ix = 1j * x
    lower1 = ix - config.gamma1                      # root x = -i gamma1
    lower2 = ix + config.omega12 - config.gamma2     # root x = -i (gamma2 - omega12)
    pre_g = ix + config.gamma1                       # root x = +i gamma1
    pre_h = ix + config.omega12 + config.gamma2      # root x = +i (gamma2 + omega12)
    core1 = lower1 * lower2 * (1 + 2 * g)
    core2 = lower1 * lower2 * (1 - 2 * g)
    g1 = 1j * pre_g * core1
    g2 = -1j * pre_g * core2
    h1 = 1j * pre_h * core1
    h2 = -1j * pre_h * core2
    if np.asarray(g1).ndim:
        return g1, g2, h1, h2
    return complex(g1), complex(g2), complex(h1), complex(h2)
