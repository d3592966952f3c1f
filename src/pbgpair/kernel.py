"""Transform-domain damping kernels of the band-edge reservoir.

The isotropic quadratic dispersion near the band edge produces the
self-energy

    Gamma(x) = 1 / (i * sqrt(-i x - omega1c))

in units of beta (beta^{3/2} / (i sqrt(...)) in physical units), a
square-root multifunction of the Laplace variable ``x``.  Two branch
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

from .errors import BranchPointError

_EXP_M_IPI4 = np.exp(-0.25j * np.pi)


def _principal_sqrt_top(w):
    """Principal sqrt with the negative real axis mapped to +i sqrt(|w|)."""
    w = np.asarray(w, dtype=complex)
    on_cut = (w.imag == 0.0) & (w.real < 0.0)
    s = np.sqrt(np.where(on_cut, w.real + 0j, w))
    if np.any(on_cut):
        s = np.where(on_cut, 1j * np.sqrt(-w.real + 0j), s)
    return s


def beta_prime(x, omega1c: float):
    """Band-edge kernel beta' = 1 / (i sqrt(-i x - omega1c)).

    Principal square root (cut on the negative real axis of the argument,
    approached from above).  Accepts scalars or arrays; raises
    BranchPointError if any point sits exactly on the branch point.
    """
    x = np.asarray(x, dtype=complex)
    w = -1j * x - omega1c
    if np.any(w == 0):
        raise BranchPointError(f"kernel branch point: -i x - omega1c = 0 at omega1c={omega1c}")
    val = 1 / (1j * _principal_sqrt_top(w))
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


def beta_prime_sheet(x, omega1c: float):
    """Kernel on the inversion sheet; the second branch is its negative."""
    val = 1 / (1j * np.asarray(sheet_sqrt(x, omega1c)))
    return val if val.ndim else complex(val)
