"""Transform-domain damping kernels of the band-edge reservoir.

The isotropic quadratic dispersion near the band edge produces the
self-energy

    Gamma(x) = beta^{3/2} / (i * sqrt(-i x - omega1c)),

a square-root multifunction of the Laplace variable ``x``.  Two branch
conventions are needed in practice:

``beta_prime``
    Principal square root of (-i x - omega1c), cut along the negative real
    axis of that argument.  This is the plain single-valued definition used
    by classification functions and by callers probing Re x > 0.

``beta_prime_sheet``
    The analytic continuation picked out by deforming the inversion
    contour: single-valued on the plane cut along the leftward horizontal
    ray {x = i*omega1c - u, u >= 0}.  It agrees with ``beta_prime`` on and
    right of the imaginary axis above the branch point, and differs by a
    sign in the lower-left region swept when the contour is closed.  All
    residue and cut computations use this sheet; the second branch is its
    negative.

Both canonicalize an exactly-on-axis argument to the +0.0 imaginary side
so that values on the respective cuts are well defined.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchPointError, DomainError

_EXP_M_IPI4 = np.exp(-0.25j * np.pi)


def _principal_sqrt_top(w):
    """Principal sqrt with the negative real axis mapped to +i sqrt(|w|)."""
    w = np.asarray(w, dtype=complex)
    on_cut = (w.imag == 0.0) & (w.real < 0.0)
    s = np.sqrt(np.where(on_cut, w.real + 0j, w))
    if np.any(on_cut):
        s = np.where(on_cut, 1j * np.sqrt(-w.real + 0j), s)
    return s


def beta_prime(x, omega1c: float, beta: float = 1.0):
    """Band-edge kernel beta' = beta^{3/2} / (i sqrt(-i x - omega1c)).

    Principal square root (cut on the negative real axis of the argument,
    approached from above).  Accepts scalars or arrays; raises
    BranchPointError if any point sits exactly on the branch point.
    """
    x = np.asarray(x, dtype=complex)
    w = -1j * x - omega1c
    if np.any(w == 0):
        raise BranchPointError(f"kernel branch point: -i x - omega1c = 0 at omega1c={omega1c}")
    val = beta ** 1.5 / (1j * _principal_sqrt_top(w))
    return val if val.ndim else complex(val)


def sheet_sqrt(x, omega1c: float):
    """sqrt(-i x - omega1c) on the inversion sheet.

    Equals exp(-i pi/4) * sqrt(x - i omega1c) with the principal root, so
    the cut runs along {x = i omega1c - u, u > 0}; values exactly on the
    cut are the limit from above the ray.
    """
    x = np.asarray(x, dtype=complex)
    z = x - 1j * omega1c
    if np.any(z == 0):
        raise BranchPointError(f"kernel branch point at x = i*omega1c (omega1c={omega1c})")
    s = _EXP_M_IPI4 * _principal_sqrt_top(z)
    return s if s.ndim else complex(s)


def beta_prime_sheet(x, omega1c: float, beta: float = 1.0, branch: int = +1):
    """Kernel on the inversion sheet; ``branch=-1`` selects the second branch."""
    if branch not in (+1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    s = sheet_sqrt(x, omega1c)
    val = beta ** 1.5 / (1j * branch * np.asarray(s))
    return val if np.asarray(val).ndim else complex(val)


def spectral_density(nu, config) -> float:
    """Band-edge spectral density as a function of nu = omega - omega_c.

    J(nu) = beta^{3/2} / (pi sqrt(nu)) above the edge, 0 inside the gap.
    Its resolvent integral against 1/(x + i(omega - omega13)) reproduces
    beta_prime(x); the test suite verifies the identity by quadrature.
    """
    nu = np.asarray(nu, dtype=float)
    safe = np.where(nu > 0, nu, 1.0)
    out = np.where(nu > 0, config.beta ** 1.5 / (np.pi * np.sqrt(safe)), 0.0)
    return out if out.ndim else float(out)


def memory_kernel(tau: float, config) -> complex:
    """Time-domain kernel K(tau) = int J(omega) e^{-i(omega-omega13) tau} domega.

    Closed form: beta^{3/2} e^{i omega1c tau - i pi/4} / sqrt(pi tau).
    Its Laplace transform equals beta_prime(x) for Re x > 0, which the
    test suite checks numerically.
    """
    if tau <= 0:
        raise DomainError(f"memory kernel requires tau > 0, got {tau}")
    b = config.beta
    return (
        b ** 1.5
        * np.exp(1j * (config.omega1c * tau - 0.25 * np.pi))
        / np.sqrt(np.pi * tau)
    )
