"""Independent reference routes for the inversion, used only by the tests.

* ``branch_cut_integral``: the cut integral at one time by QUADPACK
  (scipy's adaptive Gauss-Kronrod), against the reusable panels of
  :class:`pbgpair.inversion.CutIntegrator`;
* ``delta_sheet``: the symmetric-sector determinant evaluated from the
  kernel, and ``residue_weight_fd``: pole weights by central differences
  of it, against the closed-form weights of :func:`pbgpair.poles.find_poles`;
* ``residue_by_limit``: residues as lim (x - x0) A(x) from the 4x4 solve,
  against ``residue_numerators * weight``.
"""

import numpy as np
from scipy.integrate import quad

from pbgpair import kernel, transform
from pbgpair.errors import DomainError, QuadratureError
from pbgpair.inversion import CUT_FAIL_TOL, EXP_FLOOR, cut_discontinuity


def branch_cut_integral(t: float, config, init):
    """Reference cut integral at a single time, via QUADPACK panels.

    Integrates the branch difference in the q = sqrt(u) variable with
    scipy's adaptive Gauss-Kronrod rule component by component; raises
    QuadratureError when the error estimate exceeds tolerance.
    """
    if t < 0:
        raise DomainError("cut integral requires t >= 0")
    if t > 0:
        q_max = np.sqrt(EXP_FLOOR / t)
    else:
        # undamped: the branch difference has an integrable ~q^-4 tail
        q_max = 2000.0 * max(1.0, config.beta ** 0.75)
    breaks = [0.0] + [b for b in (1.0, 8.0, 50.0, 400.0) if b < q_max] + [q_max]
    out = np.zeros(4, dtype=complex)
    err_total = 0.0
    for i in range(4):
        for part in (np.real, np.imag):

            def f(qv):
                d = cut_discontinuity(np.array([qv]), config, init)[0, i]
                return part(d * 2 * qv * np.exp(-qv * qv * t))

            val = 0.0
            for a, b in zip(breaks[:-1], breaks[1:]):
                v, err = quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=300)
                val += v
                err_total = max(err_total, err)
            out[i] += val if part is np.real else 1j * val
    if err_total > CUT_FAIL_TOL:
        raise QuadratureError(f"cut integral error estimate {err_total:.3g}")
    pref = np.exp(1j * config.omega1c * t) / (2j * np.pi)
    out *= pref
    shift = np.exp(-1j * config.omega12 * t)
    out[1] *= shift
    out[3] *= shift
    return out


def delta_sheet(x, config):
    """Symmetric-sector determinant Delta(x) on the inversion sheet."""
    x = np.asarray(x, dtype=complex)
    g = kernel.beta_prime_sheet(x, config.omega1c, config.beta)
    f1 = x + 1j * config.gamma1 + 2 * g
    f2 = x - 1j * config.omega12 + 1j * config.gamma2 + 2 * g
    return f1 * f2 - 4 * g * g * config.cos_eta ** 2


def residue_weight_fd(record, config, step=1e-6):
    """Denominator slope reciprocal by central differences with one
    Richardson refinement; the dual route against the analytic weight.

    The denominator is Delta for 'u' records and f +/- 2 beta' cos(eta),
    f = x + i gamma1 + 2 beta', for the 'u+'/'u-' records of identical
    transitions.
    """
    if record.kind in ("v1", "v2"):
        return 1.0 + 0j  # linear factor, slope exactly 1

    def denom(x):
        if record.kind in ("u+", "u-"):
            sign = 1.0 if record.kind == "u+" else -1.0
            g = kernel.beta_prime_sheet(x, config.omega1c, config.beta)
            return x + 1j * config.gamma1 + 2 * g * (1.0 + sign * config.cos_eta)
        return delta_sheet(x, config)

    def deriv(h):
        return (denom(record.x + h) - denom(record.x - h)) / (2 * h)

    d1 = deriv(step)
    d2 = deriv(step / 2)
    return 1.0 / complex((4 * d2 - d1) / 3)


def residue_by_limit(record, config, init, eps=1e-5):
    """Residues via lim (x - x0) A_i(x) on a shrinking ring around x0."""
    x0 = record.x

    def ring(r):
        ang = np.exp(2j * np.pi * (np.arange(8) + 0.37) / 8)
        xs = x0 + r * ang
        g = kernel.beta_prime_sheet(xs, config.omega1c, config.beta)
        sol = transform.solve_system(xs, config, init, g)
        return np.mean((xs - x0)[:, None] * sol, axis=0)

    r1 = ring(eps)
    r2 = ring(eps / 2)
    return (4 * r2 - r1) / 3
