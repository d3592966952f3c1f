"""Independent reference routes, used only by the tests.

Inversion:

* ``branch_cut_integral``: the cut integral at one time by QUADPACK
  (scipy's adaptive Gauss-Kronrod), against the reusable panels of
  :class:`pbgpair.transform.CutIntegrator`;
* ``delta_sheet``: the symmetric-sector determinant evaluated from the
  kernel, and ``residue_weight_fd``: pole weights by central differences
  of it, against the closed-form weights of :func:`pbgpair.poles.find_poles`;
* ``residue_by_limit``: residues as lim (x - x0) A(x) from the 4x4 solve,
  against ``pole_terms``, the simple poles of the closed form with their
  residues, which the acceptance tests and ``bound_states`` also read;
* ``closed_form_reference``: the closed form of
  :mod:`pbgpair.inversion` in 40-digit arithmetic, with the roots from
  ``mpmath.polyroots`` and w(z) = e^{-z^2} erfc(-iz) from ``mpmath.erfc``,
  against :func:`pbgpair.inversion.amplitudes_analytic`.

CSV emission: ``entanglement_csv_by_field``, ``poles_csv_by_field``,
``trajectory_csv_by_field`` and ``sweep_summary_csv_by_field``, one
``format`` call per field (``format_field``), against the block-formatted
tables of :mod:`pbgpair.csvio`.

Negativity: the 9x9 two-atom density matrix (``reduced_density_matrix``,
with the optical phase pattern of ``phase_amplitudes``), its partial
transpose and a Hermitian eigensolve (``log_negativity``,
``negativity_series``), against the closed form of
:func:`pbgpair.negativity.entanglement_series`.

Transform domain: the band-edge kernel ``beta_prime`` on the principal
branch (the package works in S = sqrt(-i x - omega1c) alone), the
table weights ``table_weight_kernel`` from it, against the weights in S of
the pole table, the exchange-symmetric closed form ``uv_solution``, the
single-point solve ``transform_amplitudes`` with its denominator, the
classification functions ``spectral_functions``, the kernel triple
``kernel_values`` and the published single-denominator amplitudes
``printed_closed_form`` (known to be wrong), against
:func:`pbgpair.transform.solve_system` and the pole table.

Oracle propagation: ``integrate_dense``, the exact unitary propagation
by a dense ``eigh`` of each coupled block, and ``integrate_rk4``, a
fixed-step fourth-order exponential integrator, both against the
secular-equation spectrum of :func:`pbgpair.bath.integrate`;
``evaluate_direct``, the secular sums over every pole, against the
near/far-field evaluation of the secular solver, and ``far_field_walk``,
the far field by one walk per panel down the tree of panel groups with
proxy weights from all of a group's poles, against the level-by-level
build of :func:`pbgpair.bath._far_field` and its upward pass.
``mode_probs`` and ``mode_spectrum`` give the photon's mode distribution
from the secular spectrum, against the dense route's.  ``bound_states``
pairs the bound states of the oracle's secular spectrum with the real
sheet roots of :func:`pbgpair.inversion.closed_form_terms`.

Measures read only by the tests: the band-edge ``spectral_density`` and
the time-domain ``memory_kernel``, checked against ``beta_prime`` by
quadrature, and the E_N ``oscillation_envelope`` of acceptance
criterion 8.
"""

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.integrate import quad

from pbgpair import inversion, poles, transform
from pbgpair.bath import (ADMISSIBLE, CHEB_DEGREE, EPS, PANEL, SIN_ETA_FLOOR,
                          DiscreteBath, _barycentric, _CHEB_X, _FarField,
                          _symmetric_spectrum)
from pbgpair.config import AmplitudeTrajectory
from pbgpair.errors import (BranchPointError, DomainError, NormError, QuadratureError,
                            RecurrenceHorizonExceeded, SingularSystem, StepSizeError)
from pbgpair.transform import CUT_FAIL_TOL, EXP_FLOOR, _beta_prime_sheet, cut_discontinuity
from pbgpair.negativity import NORM_SLACK

# populated product states: |a1 a6>, |a2 a6>, |a3 a4>, |a3 a5>, |a3 a6>
_IDX = (2, 5, 6, 7, 8)
EIG_CLAMP = -1e-12
SINGULAR_TOL = 1e-12
CUT_ABS_TOL = 1e-10  # absolute tolerance of the tests' CutIntegrator runs
RK4_NORM_TOL = 1e-6  # stiff-tail aliasing floor of the stepper
DENSE_NORM_TOL = 1e-8  # norm drift of integrate_dense, times max(1, t_max)
REFERENCE_DPS = 40
CHUNK_ELEMS = 1 << 20  # entries per work array of the direct sums below
BOUND_FLOOR = 1e-12  # bound-state amplitude below which a state is not populated
_ZERO = np.zeros(0, dtype=complex)


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
        q_max = 2000.0
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
    g = _beta_prime_sheet(x, config.omega1c)
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
            g = _beta_prime_sheet(x, config.omega1c)
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
        g = _beta_prime_sheet(xs, config.omega1c)
        sol = transform.solve_system(xs, config, init, g)
        return np.mean((xs - x0)[:, None] * sol, axis=0)

    r1 = ring(eps)
    r2 = ring(eps / 2)
    return (4 * r2 - r1) / 3


class PoleTerms(NamedTuple):
    """Simple poles ``x`` with their (poles x 4) residues ``res``; ``root``
    marks the sheet roots in S and ``axis`` the poles on the imaginary axis."""

    x: np.ndarray
    res: np.ndarray
    axis: np.ndarray
    root: np.ndarray


def pole_terms(config, init):
    """The simple poles of the closed form, read from
    :func:`pbgpair.inversion.closed_form_terms`, against the residues by
    limit of the transform system.

    By w(z) = 2 e^{-z^2} - w(-z), sheet root j (Re a_j > 0; the midpoints
    of the confluent pairs are left out) adds 2 rows_j e^{x_j t} beside its
    cut share, x_j = a_j^2 + i omega1c; the exchange and dark poles ``xs``
    follow with their residues ``exps``.  ``axis`` holds the poles within
    poles.AXIS_TOL of the imaginary axis, as the pole table snaps them.
    Components 2 and 4 are residues in the shifted frame.
    """
    terms = inversion.closed_form_terms(config, init, poles.symmetric_sectors(config))
    simple = terms.a.size - terms.pair_t.shape[0]
    a, rows = terms.a[:simple], terms.rows[:simple]
    sheet = a.real > 0
    x = np.concatenate([a[sheet] ** 2 + 1j * config.omega1c, terms.xs])
    root = np.arange(x.size) < np.count_nonzero(sheet)
    return PoleTerms(x, np.concatenate([2.0 * rows[sheet], terms.exps]),
                     np.abs(x.real) <= poles.AXIS_TOL, root)


def _mp_roots(coeffs):
    """All roots of a monic polynomial (mp coefficients, highest first).

    Trailing zero coefficients give exact zero roots.  The others come from
    ``mpmath.polyroots``, unrounded, at a precision raised by the binary
    range of the coefficients, so that a cluster of roots near S = 0 (of
    size sqrt(gamma1) down to 1e-154) is resolved to full relative accuracy.
    """
    coeffs = list(coeffs)
    zeros = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zeros += 1
    roots = []
    if len(coeffs) > 1:
        tiny = min(abs(c) for c in coeffs if c != 0)
        extra = 64 + 2 * int(max(0, -mpmath.log(tiny, 2)))
        roots = mpmath.polyroots(coeffs, maxsteps=500, cleanup=False, extraprec=extra)
    return list(roots) + [mpmath.mpc(0)] * zeros


def closed_form_reference(times, config, init, da=0.0):
    """The four amplitudes at ``times`` by the closed form, to REFERENCE_DPS
    digits: the same sectors, partial fractions and exchange and dark terms
    as :func:`pbgpair.inversion.closed_form_terms`, every root a simple
    term.  With w entire, the one sum holds the sheet poles and the cut
    for any root; no sheet test and no confluent pair are needed.

    ``da`` shifts a1 and a2 in that arithmetic: an exact double root, where
    the partial fractions do not exist, is reached by continuity from
    a +/- da.
    """
    with mpmath.workdps(REFERENCE_DPS):
        g1, g2 = mpmath.mpf(config.gamma1), mpmath.mpf(config.gamma2)
        w12, w1c = mpmath.mpf(config.omega12), mpmath.mpf(config.omega1c)
        c = mpmath.mpf(config.cos_eta)
        a1, a2 = w1c + g1 + da, w1c - w12 + g2 + da
        a10, a20, a30, a40 = (mpmath.mpc(a) for a in init.as_tuple())
        u10, u20 = a10 + a30, a20 + a40
        v1, v2 = (a10 - a30) / 2, (a20 - a40) / 2
        xs = [1j * g1, 1j * (g2 + w12)]
        exps = [[v1, 0, -v1, 0], [0, v2, 0, -v2]]
        sectors = []  # (denominator D, the four numerators S V(S)), highest power first
        if a1 != a2:
            q1 = [u10 / 2, 0, a2 * u10 / 2, c * u20 - u10, 0]
            q2 = [u20 / 2, 0, a1 * u20 / 2, c * u10 - u20, 0]
            sectors.append(([1, 0, a1 + a2, -4, a1 * a2, -2 * (a1 + a2), 4 * (1 - c * c)],
                            [q1, q2, q1, q2]))
        else:
            for sign in (1, -1):
                u = (u10 + sign * u20) / 4
                rows = [u, sign * u, u, sign * u]
                if 1 + sign * c == 0:  # dark: the single pole x = -i gamma1
                    xs.append(-1j * g1)
                    exps.append(rows)
                else:
                    sectors.append(([1, 0, a1, -2 * (1 + sign * c)], [[r, 0] for r in rows]))
        terms = []  # (a_j, the four weights S_j^2 V(S_j) / D'(S_j))
        for den, num in sectors:
            s = _mp_roots([mpmath.mpf(d) for d in den])
            for j, sj in enumerate(s):
                if sj == 0:
                    continue
                slope = mpmath.fprod(sj - sk for k, sk in enumerate(s) if k != j)
                terms.append((mpmath.expjpi(0.25) * sj,
                              [sj * mpmath.polyval(n, sj) / slope for n in num]))
        out = np.empty((len(times), 4), dtype=complex)
        for i, t in enumerate(times):
            t = mpmath.mpf(t)
            amps = [0] * 4
            for a, rows in terms:
                z = -1j * a * mpmath.sqrt(t)
                w = mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
                amps = [amp + row * w for amp, row in zip(amps, rows)]
            amps = [amp * mpmath.expj(w1c * t) for amp in amps]
            for x, e in zip(xs, exps):
                amps = [amp + mpmath.exp(x * t) * ek for amp, ek in zip(amps, e)]
            shift = mpmath.expj(-w12 * t)
            out[i] = [complex(amp * (shift if k % 2 else 1)) for k, amp in enumerate(amps)]
        return out


def phase_amplitudes(amps, t: float, omega12: float):
    """Apply the optical phase pattern of the state expansion.

    The physical state carries e^{i w13 t} on the A1/A3 components and
    e^{i w23 t} on A2/A4.  Only the difference omega12 = w13 - w23 is a
    model parameter; the common phase is a global one, so A1/A3 are
    rotated by e^{i omega12 t} relative to A2/A4.  Entanglement measures
    are invariant under this pattern (it is local).
    """
    ph = cmath.exp(1j * omega12 * t)
    a1, a2, a3, a4 = amps
    return (a1 * ph, a2, a3 * ph, a4)


def reduced_density_matrix(amps, t: float = 0.0, config=None) -> np.ndarray:
    """9x9 two-atom density matrix from the four amplitudes at time t.

    When ``config`` is given the optical phase pattern of the state
    expansion is applied (it is a local unitary, so entanglement measures
    do not depend on it; keeping it makes the matrix itself faithful).
    """
    a = [complex(v) for v in amps]
    norm = sum(abs(v) ** 2 for v in a)
    if norm > 1.0 + NORM_SLACK:
        raise NormError(f"amplitude norm {norm!r} exceeds 1")
    if config is not None:
        a = list(phase_amplitudes(a, t, config.omega12))
    rho = np.zeros((9, 9), dtype=complex)
    vec = np.zeros(9, dtype=complex)
    for value, k in zip(a, _IDX):
        vec[k] = value
    rho += np.outer(vec, vec.conj())
    rho[8, 8] += 1.0 - norm
    return rho


def partial_transpose_B(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second atom: <i j|r^G|k l> = <i l|r|k j>."""
    r = np.asarray(rho, dtype=complex).reshape(3, 3, 3, 3)
    return r.transpose(0, 3, 2, 1).reshape(9, 9)


def log_negativity(rho: np.ndarray):
    """(N, E_N) of a two-atom density matrix.

    N is the absolute sum of negative eigenvalues of the partial
    transpose; eigenvalues above -1e-12 are clamped so floating-point
    jitter never registers as entanglement.  E_N = log2(1 + 2N).
    """
    lam = np.linalg.eigvalsh(partial_transpose_B(rho))
    neg = lam[lam < EIG_CLAMP]
    n = float(-np.sum(neg))
    return n, float(np.log2(1.0 + 2.0 * n))


def negativity_series(trajectory: AmplitudeTrajectory, config):
    """(times, N, E_N) along a trajectory, vectorized over the grid.

    The density matrices are assembled in a batch and diagonalized with a
    single stacked Hermitian eigensolve.
    """
    amps = np.asarray(trajectory.amps, dtype=complex)
    times = np.asarray(trajectory.times, dtype=float)
    norm = np.sum(np.abs(amps) ** 2, axis=1)
    if np.any(norm > 1.0 + NORM_SLACK):
        k = int(np.argmax(norm))
        raise NormError(f"amplitude norm {norm[k]!r} exceeds 1 at t={times[k]:g}")
    phased = amps.copy()
    ph = np.exp(1j * config.omega12 * times)
    phased[:, 0] *= ph
    phased[:, 2] *= ph

    vec = np.zeros((times.size, 9), dtype=complex)
    for col, k in zip(range(4), _IDX):
        vec[:, k] = phased[:, col]
    rho = vec[:, :, None] * vec[:, None, :].conj()
    rho[:, 8, 8] += 1.0 - norm

    rho_pt = rho.reshape(-1, 3, 3, 3, 3).transpose(0, 1, 4, 3, 2).reshape(-1, 9, 9)
    lam = np.linalg.eigvalsh(rho_pt)
    neg = np.where(lam < EIG_CLAMP, lam, 0.0)
    n_vals = -np.sum(neg, axis=1)
    en = np.log2(1.0 + 2.0 * n_vals)
    return times, n_vals, en


def oscillation_envelope(times, en, center: float, window: float) -> float:
    """Half the peak-to-trough swing of E_N inside [center-window, center+window]."""
    times = np.asarray(times, dtype=float)
    en = np.asarray(en, dtype=float)
    mask = (times >= center - window) & (times <= center + window)
    if not np.any(mask):
        raise ValueError(f"window around t={center:g} lies outside the series")
    seg = en[mask]
    return 0.5 * float(np.max(seg) - np.min(seg))


@dataclass(frozen=True)
class TransformAmplitudes:
    """Values of A1(x), A2(x'), A3(x), A4(x') and the shared denominator."""

    a1x: complex
    a2x: complex
    a3x: complex
    a4x: complex
    denom: complex


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


def table_weight_kernel(x, config):
    """Reciprocal slope of H1 at a table root x from the principal kernel,
    against the weight in S of :func:`pbgpair.poles._table_weight`.

    H1 = i * prefactor * lower1 * lower2 * (1 + 2 beta') by the product
    rule, with d beta'/dx = -beta' / (x - i omega1c); factors within
    MERGE_TOL of zero count as zero, and the weight is 0 at a double root
    and at the branch point.
    """
    w = x - 1j * config.omega1c
    if w == 0:
        return 0j
    g = beta_prime(x, config.omega1c)
    ix = 1j * x
    pre = config.omega12 + config.gamma2
    factors = [ix + pre, ix - config.gamma1, ix + config.omega12 - config.gamma2, 1 + 2 * g]
    factors = [f if abs(f) > poles.MERGE_TOL else 0j for f in factors]
    slopes = [1j, 1j, 1j, -g / w]
    deriv = 1j * sum(slopes[k] * np.prod(factors[:k] + factors[k + 1:]) for k in range(4))
    return 0j if deriv == 0 else complex(1.0 / deriv)


def kernel_values(x, config):
    """(Gamma11, Gamma22, Gamma12) at x for identical atoms.

    Gamma11 = Gamma22 = beta'(x); the cross kernel carries the dipole
    angle as Gamma12 = beta'(x) * cos(eta), exactly.
    """
    g = beta_prime(x, config.omega1c)
    return g, g, g * config.cos_eta


def spectral_density(nu) -> float:
    """Band-edge spectral density as a function of nu = omega - omega_c.

    J(nu) = 1 / (pi sqrt(nu)) above the edge, 0 inside the gap.
    Its resolvent integral against 1/(x + i(omega - omega13)) reproduces
    beta_prime(x).
    """
    nu = np.asarray(nu, dtype=float)
    safe = np.where(nu > 0, nu, 1.0)
    out = np.where(nu > 0, 1 / (np.pi * np.sqrt(safe)), 0.0)
    return out if out.ndim else float(out)


def memory_kernel(tau: float, config) -> complex:
    """Time-domain kernel K(tau) = int J(omega) e^{-i(omega-omega13) tau} domega.

    Closed form: e^{i omega1c tau - i pi/4} / sqrt(pi tau).  Its
    Laplace transform equals beta_prime(x) for Re x > 0.
    """
    if tau <= 0:
        raise DomainError(f"memory kernel requires tau > 0, got {tau}")
    return np.exp(1j * (config.omega1c * tau - 0.25 * np.pi)) / np.sqrt(np.pi * tau)


def uv_solution(x, config, init, gamma):
    """Closed-form solution via the exchange-symmetric decomposition.

    Returns (a1, a2, a3, a4) at [x, x', x, x'] like
    :func:`pbgpair.transform.solve_system`.
    Vectorized over x / gamma.
    """
    x = np.asarray(x, dtype=complex)
    xp = x - 1j * config.omega12
    a10, a20, a30, a40 = init.as_tuple()
    u1, u2 = transform.u_sector(x, config, init, gamma)
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
    g = beta_prime(x, config.omega1c)
    m = transform.system_matrix(complex(x), config, g)
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
    g11, g22, g12 = kernel_values(x, config)
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
    g = beta_prime(x, config.omega1c)
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


def evaluate_direct(d, w, value, origin, tau):
    """Secular function F(z) = mu(z) - sum_j w_j / (z - d_j) at z = d[origin] + tau.

    Returns F, F', the share of s2 = sum_j w_j / (z - d_j)^2 from the
    poles below z, s2 itself, mu'(z), an estimate of the rounding error of
    F and sigma(z) = sum_j w_j / (z - d_j).  The estimate is not a bound
    beside a pole, where one term dominates the sum: against ``math.fsum``
    of the same terms the error of F exceeded it by up to 1.7 times.  The
    differences z - d_j are
    formed as (d_j - d[origin]) - tau, which keeps them accurate to
    relative rounding even beside the pole.
    """
    mu, mu_p = value(d[origin] + tau)
    s1, s1lo, s2, s2lo = (np.empty(tau.size) for _ in range(4))
    step = max(1, CHUNK_ELEMS // d.size)
    for a in range(0, tau.size, step):
        sl = slice(a, a + step)
        r = d[None, :] - d[origin[sl], None]
        r -= tau[sl, None]
        np.reciprocal(r, out=r)          # 1 / (d_j - z)
        lower = np.minimum(r, 0.0)       # the poles below z
        s1[sl] = r @ w
        s1lo[sl] = lower @ w
        r *= r
        lower *= lower
        s2[sl] = r @ w
        s2lo[sl] = lower @ w
    # s1 - 2 s1lo = sum_j w_j / |d_j - z| scales the rounding of the sum
    err = EPS * (8.0 * (np.abs(mu) + s1 - 2.0 * s1lo) + 2.0 * np.abs(d[origin] + tau) * mu_p)
    return mu + s1, mu_p + s2, s2lo, s2, mu_p, err, -s1


def far_field_walk(d, w) -> _FarField:
    """The far field of ``bath._far_field`` by one walk per panel down the
    dyadic tree of panel groups, with each admissible group's proxy weights
    summed from all of its poles, against the level-by-level build and its
    upward pass.

    For each panel the tree is walked down from the group of all panels.
    A group, poles [a, b) on [d[a], d[a] + 2 h], is split until it lies
    wholly inside or wholly outside the panel's near range and can be
    summed: either it is admissible, its centre at least ADMISSIBLE h from
    every point of the panel's interval and its poles more than
    CHEB_DEGREE + 1, or it is one panel.  An admissible group is summed as
    CHEB_DEGREE + 1 proxies d[a] + h (1 + X_m) at its Chebyshev points
    X_m, with weights W_m = sum_j w_j l_m(x_j).
    """
    n = d.size
    first = np.arange(0, n, PANEL)
    panel = np.arange(first.size)
    anchor = np.maximum(first - 1, 0)
    half = 0.5 * (d[np.minimum(first + PANEL, n - 1)] - d[anchor])
    centre = d[anchor] + half
    inner = np.searchsorted(d, centre - ADMISSIBLE * half, side="right")
    outer = np.searchsorted(d, centre + ADMISSIBLE * half, side="left")
    # the near range [start, stop), in panels
    start = np.maximum(np.minimum(panel - 1, inner // PANEL), 0)
    stop = np.minimum(np.maximum(panel + 1, (outer - 1) // PANEL) + 1, first.size)
    values = np.zeros((first.size, CHEB_DEGREE + 1, 4))
    # scalar work, so in Python floats and ints
    dl, zeros, top = d.tolist(), np.zeros(PANEL), 1 << (first.size - 1).bit_length()
    proxies, parts, ptr = {}, [], [0]
    for p, s, e, lo, h2 in zip(panel.tolist(), start.tolist(), stop.tolist(),
                               d[anchor].tolist(), (2.0 * half).tolist()):
        hi, near, far, todo = lo + h2, [], ([], []), [(0, top)]
        while todo:
            g, size = todo.pop()
            a, b = PANEL * g, min(PANEL * (g + size), n)
            if a >= n:
                continue
            h = 0.5 * (dl[b - 1] - dl[a])
            admissible = (b - a > CHEB_DEGREE + 1
                          and max(lo - dl[a] - h, dl[a] + h - hi) >= ADMISSIBLE * h)
            inside = s <= g and g + size <= e
            if not (admissible or b - a <= PANEL) or not (inside or g + size <= s or g >= e):
                todo += [(g + size // 2, size // 2), (g, size // 2)]
                continue
            if admissible and (a, b) not in proxies:
                q, total = _barycentric((d[a:b] - dl[a]) / h - 1.0)
                proxies[a, b] = (np.full(CHEB_DEGREE + 1, dl[a]), h * (1.0 + _CHEB_X),
                                 (w[a:b] / total) @ q)
            src = proxies[a, b] if admissible else (d[a:b], zeros[:b - a], w[a:b])
            (near if inside else far[g >= e]).append(src)
        # the far sums below and above at the interval's points, as offsets
        # from the anchor pole, as for the roots
        t = half[p] * (1.0 + _CHEB_X)
        for col, sources in zip((0, 2), far):
            if sources:
                base, offset, weight = (np.concatenate(x) for x in zip(*sources))
                r = ((base - lo) + offset)[None, :] - t[:, None]
                np.reciprocal(r, out=r)
                values[p, :, col] = r @ weight
                r *= r
                values[p, :, col + 1] = r @ weight
        ptr.append(ptr[-1] + sum(src[2].size for src in near))
        parts += near
    base, offset, weight = (np.concatenate(x) for x in zip(*parts))
    return _FarField(anchor, half, values, np.array(ptr), base, offset, weight)


def integrate_dense(config, init, bath: DiscreteBath, t_max: float,
                    dt_out: float = 0.5, store_modes: bool = False) -> AmplitudeTrajectory:
    """Exact unitary propagation by a dense ``eigh`` of each coupled block.

    Basis: [A1, A2 e^{i w12 t}, A3, A4 e^{i w12 t}, C_1..C_N, D_1..D_N]
    with C/D the co-rotating mode amplitudes referenced to the first
    transition.  In this frame the generator is a constant real-symmetric
    matrix, diagonalized once per coupled block; the norm is conserved to
    machine precision.  With orthogonal dipoles the two transitions see
    disjoint mode families and split into two blocks, a block whose
    initial amplitudes vanish is skipped, and the second family exists
    only when sin(eta) != 0.

    Samples every ``dt_out``.  Raises RecurrenceHorizonExceeded when
    ``t_max`` exceeds the bath rephasing time and StepSizeError on norm
    drift.
    """
    horizon = bath.recurrence_time()
    if t_max > horizon:
        raise RecurrenceHorizonExceeded(
            f"t_max={t_max:g} exceeds the bath recurrence time {horizon:g}; "
            "increase n_modes or shorten the run"
        )
    has_b = abs(config.sin_eta) > SIN_ETA_FLOOR
    n_m = bath.n_modes
    n_out = int(np.floor(t_max / dt_out + 1e-9))
    times = np.arange(n_out + 1) * dt_out
    delta = bath.nu - config.omega1c
    a0 = np.asarray(init.as_tuple(), dtype=complex)

    def solve_block(atom_idx, h_atom, mode_groups):
        """Propagate one coupled block: the atomic generator ``h_atom`` and,
        per mode family, the coupling factor of each atomic row.  Returns
        (atom amplitudes, mode probabilities summed over families)."""
        na = len(atom_idx)
        y0 = np.zeros(na + n_m * len(mode_groups), dtype=complex)
        y0[:na] = a0[list(atom_idx)]
        if not np.any(y0):
            return np.zeros((times.size, na), dtype=complex), 0.0
        h = np.zeros((y0.size, y0.size))
        h[:na, :na] = h_atom
        for k, coupling in enumerate(mode_groups):
            sl = slice(na + k * n_m, na + (k + 1) * n_m)
            ii = np.arange(na + k * n_m, na + (k + 1) * n_m)
            h[ii, ii] = delta
            h[:na, sl] = np.outer(coupling, bath.g)
            h[sl, :na] = h[:na, sl].T
        w, v = np.linalg.eigh(h)
        coef = v.T @ y0
        phases = np.exp(-1j * np.outer(times, w)) * coef
        atom = phases @ v[:na].T
        probs = 0.0
        if mode_groups:
            mode_amps = phases @ v[na:].T
            probs = np.abs(mode_amps[:, :n_m]) ** 2
            for k in range(1, len(mode_groups)):
                probs = probs + np.abs(mode_amps[:, k * n_m:(k + 1) * n_m]) ** 2
        norms = np.sum(np.abs(phases) ** 2, axis=1)
        drift = float(np.max(np.abs(norms - np.sum(np.abs(y0) ** 2))))
        if drift > DENSE_NORM_TOL * max(1.0, t_max):
            raise StepSizeError(f"unitary propagation norm defect {drift:.3g}")
        return atom, probs

    g1, g2, w12 = config.gamma1, config.gamma2, config.omega12
    c, s = config.cos_eta, config.sin_eta
    if c == 0.0:
        amps = np.zeros((times.size, 4), dtype=complex)
        amps[:, [0, 2]], p1 = solve_block((0, 2), [[0.0, g1], [g1, 0.0]], [(1.0, 1.0)])
        amps[:, [1, 3]], p2 = solve_block((1, 3), [[-w12, g2], [g2, -w12]],
                                          [(s, s)] if has_b else [])
        probs = p1 + p2
    else:
        # rows (A1, A2-frame, A3, A4-frame)
        h_atom = [[0.0, 0.0, g1, 0.0], [0.0, -w12, 0.0, g2],
                  [g1, 0.0, 0.0, 0.0], [0.0, g2, 0.0, -w12]]
        groups = [(1.0, c, 1.0, c)] + ([(0.0, s, 0.0, s)] if has_b else [])
        amps, probs = solve_block((0, 1, 2, 3), h_atom, groups)

    shift = np.exp(-1j * w12 * times)
    amps[:, 1] *= shift
    amps[:, 3] *= shift
    meta = {"engine": "oracle", "horizon": horizon}
    if store_modes:
        meta["mode_probs"] = probs
    return AmplitudeTrajectory(times=times, amps=amps, meta=meta)


def deflated_roots(sp, delta):
    """Rows of the spectrum ``sp`` that sit exactly on a mode frequency
    (tau = 0, base one of ``delta``): the roots deflated onto a mode."""
    return np.flatnonzero((sp.tau == 0.0) & np.isin(sp.base, delta))


def mode_probs(config, init, bath: DiscreteBath, times):
    """|C_n(t)|^2 + |D_n(t)|^2 at ``times`` from the secular spectrum of
    :func:`pbgpair.bath.integrate`.

    Eigenvector k has the mode parts sqrt2 g_n (a_k1 + c a_k2, s a_k2) /
    (lambda_k - delta_n) in the two families (a_k its atomic part), except
    the eigenvector that parallel dipoles deflate onto a mode j where h22 =
    (gamma1 + gamma2 - omega12)/2 sits on delta_j: it has tau = 0 and the
    mode part h12 / sqrt(4 g_j^2 + h12^2), h12 = (gamma1 - gamma2 +
    omega12)/2.
    """
    a0 = np.asarray(init.as_tuple(), dtype=complex)
    u0 = (a0[:2] + a0[2:]) / np.sqrt(2.0)
    sp = _symmetric_spectrum(config, bath, u0)
    coef = sp.atom @ u0
    c, s = config.cos_eta, config.sin_eta
    if abs(s) <= SIN_ETA_FLOOR:
        c, s = np.sign(c), 0.0
    times = np.asarray(times, dtype=float)
    delta = bath.nu - config.omega1c
    scale = np.sqrt(2.0) * bath.g
    families = [sp.atom[:, 0] + c * sp.atom[:, 1]] + ([s * sp.atom[:, 1]] if s else [])
    live = np.flatnonzero(np.any([f != 0.0 for f in families], axis=0))
    amps = [np.zeros((times.size, delta.size), dtype=complex) for _ in families]
    step = max(1, CHUNK_ELEMS // max(delta.size, times.size))
    for a in range(0, live.size, step):
        k = live[a:a + step]
        ph = np.exp(-1j * np.outer(times, sp.base[k] + sp.tau[k])) * coef[k]
        cauchy = 1.0 / ((sp.base[k, None] - delta) + sp.tau[k, None])
        for f, amp in zip(families, amps):
            amp += (ph * f[k]) @ cauchy
    h12 = 0.5 * (config.gamma1 - (config.gamma2 - config.omega12))
    for row in deflated_roots(sp, delta):
        j = int(np.searchsorted(delta, sp.base[row]))
        part = h12 / np.sqrt(4.0 * bath.g[j] ** 2 + h12 * h12)
        amps[0][:, j] += np.exp(-1j * sp.base[row] * times) * (coef[row] * part / scale[j])
    return sum(np.abs(amp * scale) ** 2 for amp in amps)


def mode_spectrum(probs, times, bath: DiscreteBath, t: float):
    """Per-mode excitation probabilities (nu_n, |B_n(t)|^2) at a grid time t,
    from ``probs`` (times x modes) on the grid ``times``."""
    times = np.asarray(times)
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
        raise DomainError(f"t={t:g} is not on the stored output grid")
    return bath.nu.copy(), probs[idx].copy()


def bound_states(config, init, bath: DiscreteBath):
    """The populated bound states of both engines, each as (energies,
    amplitudes), sorted by energy: the closed form's, then the oracle's.

    A bound state contributes amplitude e^{-i E t} to (A1, A2) (A2 in the
    shifted frame), without decay.  In the closed form it is a real sheet
    root S > 0 of ``pole_terms``, on the axis above the branch point, with
    E = -Im x = -(S^2 + omega1c) and its residue as amplitude.  In the
    oracle it is a secular root below the lowest mode, with amplitude
    (atom @ u0) atom / sqrt2.  Both engines agree in the limit of a perfect bath.  A state
    whose amplitudes are below BOUND_FLOOR is not populated: a sector that
    the initial state does not reach keeps rows of rounding size in the
    sextic (1e-16, the second cubic of the orthogonal bright presets), and
    the oracle does not solve it.
    """
    pt = pole_terms(config, init)
    closed = (-pt.x.imag, pt.res[:, :2], pt.root & pt.axis & (pt.x.imag > config.omega1c))
    a0 = np.asarray(init.as_tuple(), dtype=complex)
    u0 = (a0[:2] + a0[2:]) / np.sqrt(2.0)
    sp = _symmetric_spectrum(config, bath, u0)
    lam = sp.base + sp.tau
    oracle = (lam, (sp.atom @ u0)[:, None] * sp.atom / np.sqrt(2.0),
              lam < bath.nu[0] - config.omega1c)
    out = []
    for energy, amps, bound in (closed, oracle):
        keep = bound & (np.max(np.abs(amps), axis=1) > BOUND_FLOOR)
        order = np.argsort(energy[keep])
        out.append((energy[keep][order], amps[keep][order]))
    return out


def _phi1(z):
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs = z[small]
    out[small] = 1 + zs / 2 + zs ** 2 / 6 + zs ** 3 / 24 + zs ** 4 / 120 + zs ** 5 / 720
    zb = z[~small]
    out[~small] = (np.exp(zb) - 1) / zb
    return out


def _phi2(z):
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs = z[small]
    out[small] = 0.5 + zs / 6 + zs ** 2 / 24 + zs ** 3 / 120 + zs ** 4 / 720 + zs ** 5 / 5040
    zb = z[~small]
    out[~small] = (np.exp(zb) - 1 - zb) / zb ** 2
    return out


def _etd_coeffs(z):
    """Fourth-order exponential-integrator weights f1, f2, f3."""
    f1 = np.empty_like(z)
    f2 = np.empty_like(z)
    f3 = np.empty_like(z)
    small = np.abs(z) < 0.5
    zs = z[small]
    f1[small] = 1 / 6 + zs / 6 + 3 * zs ** 2 / 40 + zs ** 3 / 45 + 5 * zs ** 4 / 1008
    f2[small] = 1 / 6 + zs / 12 + zs ** 2 / 40 + zs ** 3 / 180 + zs ** 4 / 1008
    f3[small] = 1 / 6 - zs ** 2 / 120 - zs ** 3 / 360 - zs ** 4 / 1680
    zb = z[~small]
    ez = np.exp(zb)
    zb3 = zb ** 3
    f1[~small] = (-4 - zb + ez * (4 - 3 * zb + zb ** 2)) / zb3
    f2[~small] = (2 + zb + ez * (-2 + zb)) / zb3
    f3[~small] = (-4 - 3 * zb - zb ** 2 + ez * (4 - zb)) / zb3
    return f1, f2, f3


def _startup_schedule(dt, max_span):
    """Graded sub-steps for the switch-on transient.

    Returns (steps, span) with sum(steps) == span * dt for an integer span
    bounded by ``max_span`` regular steps.
    """
    blocks = [(512, 64), (256, 64), (64, 40), (16, 32), (8, 24), (4, 40), (2, 32)]
    checkpoints = [3, 4, 5, 6, 7]  # block counts whose spans are 1, 3, 6, 16, 32 dt
    spans = [1, 3, 6, 16, 32]
    n_blocks, span = 0, 0
    for nb, sp in zip(checkpoints, spans):
        if sp <= max_span:
            n_blocks, span = nb, sp
    if n_blocks == 0:
        return [dt], 1
    steps = []
    for div, count in blocks[:n_blocks]:
        steps += [dt / div] * count
    return steps, span


class _Rhs:
    """Nonlinear (coupling) part of the amplitude equations."""

    def __init__(self, config, bath):
        self.cfg = config
        self.g = bath.g
        self.ceta = config.cos_eta
        self.seta = config.sin_eta
        self.has_b = abs(self.seta) > SIN_ETA_FLOOR

    def __call__(self, t, a, c, d):
        cfg = self.cfg
        sa = self.g @ c
        sb = self.g @ d if self.has_b else 0.0
        ph = np.exp(1j * cfg.omega12 * t)
        drive2 = self.ceta * sa / ph + self.seta * sb
        na = -1j * np.array([
            cfg.gamma1 * a[2] + sa,
            cfg.gamma2 * a[3] + drive2,
            cfg.gamma1 * a[0] + sa,
            cfg.gamma2 * a[1] + drive2,
        ])
        u_a = a[0] + a[2]
        u_b = a[1] + a[3]
        nc = (-1j) * self.g * (u_a + self.ceta * ph * u_b)
        nd = (-1j) * self.g * (self.seta * u_b) if self.has_b else None
        return na, nc, nd


def integrate_rk4(config, init, bath, t_max: float, dt: float,
                  dt_out: float = 0.5) -> AmplitudeTrajectory:
    """Fixed-step fourth-order exponential integrator of the amplitude
    equations against the discrete bath, against the exact unitary
    propagation of :func:`pbgpair.bath.integrate`.

    The mode detunings are integrated exactly (exponential in them) with
    step ``dt`` (rounded down to divide ``dt_out``); the norm error is
    dominated by stage-sampling aliasing of the stiff tail cells at the
    1e-6 level.  Raises StepSizeError when the norm drifts past
    RK4_NORM_TOL.
    """
    n_sub = max(1, int(np.ceil(dt_out / dt)))
    dt = dt_out / n_sub
    n_out = int(np.floor(t_max / dt_out + 1e-9))

    rhs = _Rhs(config, bath)
    delta_a = bath.nu - config.omega1c
    delta_b = bath.nu - config.omega2c if rhs.has_b else None

    coeff_cache = {}

    def coeffs(h):
        """Exponential-integrator coefficient bundle for step size h.

        Krogstad stage corrections (the phi2 terms in the third and fourth
        stages) are required here: the plain Cox-Matthews stages lose two
        orders on the stiff tail modes and the norm contract fails.
        """
        try:
            return coeff_cache[h]
        except KeyError:
            pass
        out = []
        for delta in (delta_a, delta_b):
            if delta is None:
                out.append(None)
                continue
            z = -1j * delta * h
            f1, f2, f3 = (h * f for f in _etd_coeffs(z))
            out.append((
                np.exp(z), np.exp(0.5 * z),
                0.5 * h * _phi1(0.5 * z), h * _phi2(0.5 * z),
                h * _phi1(z), h * _phi2(z),
                f1, f2, f3,
            ))
        coeff_cache[h] = tuple(out)
        return coeff_cache[h]

    def stage2(co, y, n1):
        if co is None:
            return _ZERO
        _, e2, p2, _, _, _, _, _, _ = co
        return e2 * y + p2 * n1

    def stage3(co, y, n1, n2):
        if co is None:
            return _ZERO
        _, e2, p2, q2, _, _, _, _, _ = co
        return e2 * y + p2 * n1 + q2 * (n2 - n1)

    def stage4(co, y, n1, n3):
        if co is None:
            return _ZERO
        e, _, _, _, p1, q1, _, _, _ = co
        return e * y + p1 * n1 + 2 * q1 * (n3 - n1)

    def final(co, y, n1, n2, n3, n4):
        if co is None:
            return _ZERO
        e, _, _, _, _, _, f1, f2, f3 = co
        return e * y + f1 * n1 + f2 * (n2 + n3) * 2 + f3 * n4

    def step(h, t, a, c, d):
        co_c, co_d = coeffs(h)
        na1, nc1, nd1 = rhs(t, a, c, d)
        na2, nc2, nd2 = rhs(t + 0.5 * h, a + 0.5 * h * na1,
                            stage2(co_c, c, nc1), stage2(co_d, d, nd1))
        na3, nc3, nd3 = rhs(t + 0.5 * h, a + 0.5 * h * na2,
                            stage3(co_c, c, nc1, nc2), stage3(co_d, d, nd1, nd2))
        na4, nc4, nd4 = rhs(t + h, a + h * na3,
                            stage4(co_c, c, nc1, nc3), stage4(co_d, d, nd1, nd3))
        a = a + h / 6 * (na1 + 2 * (na2 + na3) + na4)
        c = final(co_c, c, nc1, nc2, nc3, nc4)
        d = final(co_d, d, nd1, nd2, nd3, nd4)
        return a, c, d

    a = np.asarray(init.as_tuple(), dtype=complex)
    c = np.zeros(bath.n_modes, dtype=complex)
    d = np.zeros(bath.n_modes, dtype=complex) if rhs.has_b else _ZERO

    times = np.arange(n_out + 1) * dt_out
    amps = np.empty((n_out + 1, 4), dtype=complex)
    amps[0] = a

    # The memory kernel has a sqrt kink at t=0; a graded startup mesh keeps
    # that transient (and the stiff-cell ringing it launches) out of the
    # norm budget.
    startup, startup_span = _startup_schedule(dt, max_span=n_sub)

    t = 0.0
    first = True
    for k_out in range(1, n_out + 1):
        j = 0
        while j < n_sub:
            if first:
                for h in startup:
                    a, c, d = step(h, t, a, c, d)
                    t += h
                first = False
                j += startup_span
            else:
                a, c, d = step(dt, t, a, c, d)
                t += dt
                j += 1
        t = k_out * dt_out  # suppress accumulation of float rounding
        amps[k_out] = a
        norm = np.sum(np.abs(a) ** 2) + np.sum(np.abs(c) ** 2)
        if rhs.has_b:
            norm += np.sum(np.abs(d) ** 2)
        if abs(norm - 1.0) > RK4_NORM_TOL * max(1.0, t):
            raise StepSizeError(
                f"norm drifted to {norm!r} at t={t:g}; reduce dt"
            )

    return AmplitudeTrajectory(times=times, amps=amps, meta={"engine": "rk4", "dt": dt})


def format_field(x) -> str:
    return format(float(x) + 0.0, ".12g")


def entanglement_csv_by_field(series, trajectory) -> str:
    amps = np.abs(np.asarray(trajectory.amps))
    rows = ["t,N,E_N,field_prob,abs_A1,abs_A2,abs_A3,abs_A4"]
    for k, t in enumerate(series.times):
        rows.append(",".join([
            format_field(t), format_field(series.negativity[k]),
            format_field(series.log_negativity[k]), format_field(trajectory.field_prob[k]),
            format_field(amps[k, 0]), format_field(amps[k, 1]),
            format_field(amps[k, 2]), format_field(amps[k, 3]),
        ]))
    return "\n".join(rows) + "\n"


def poles_csv_by_field(pole_set) -> str:
    rows = ["function_tag,re_x,im_x,class,residue_re,residue_im"]
    for r in pole_set.records:
        rows.append(",".join([
            r.tag, format_field(r.x.real), format_field(r.x.imag), r.klass,
            format_field(r.weight.real), format_field(r.weight.imag),
        ]))
    return "\n".join(rows) + "\n"


def trajectory_csv_by_field(trajectory) -> str:
    amps = np.asarray(trajectory.amps)
    rows = ["t,re_a1,im_a1,re_a2,im_a2,re_a3,im_a3,re_a4,im_a4,field_prob"]
    for k, t in enumerate(trajectory.times):
        vals = [format_field(t)]
        for j in range(4):
            vals += [format_field(amps[k, j].real), format_field(amps[k, j].imag)]
        vals.append(format_field(trajectory.field_prob[k]))
        rows.append(",".join(vals))
    return "\n".join(rows) + "\n"


def sweep_summary_csv_by_field(entries) -> str:
    rows = ["value,half_life,integrated_EN"]
    for label, hl, idx in entries:
        rows.append(f"{label},{format_field(hl)},{format_field(idx)}")
    return "\n".join(rows) + "\n"
