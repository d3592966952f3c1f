"""Inversion of the transform amplitudes in closed form.

The antisymmetric combinations A1 - A3 and A2 - A4 are single exchange
poles.  The symmetric ones are proper rational functions of
S = sqrt(-i x - omega1c) on the inversion sheet: with the sextic P of
:mod:`pbgpair.poles` and P1, P2 its two cubic factors,

    u1 = A1 + A3 = -i S [P2(S) u10 + 2 cos(eta) u20] / P(S),

and u2 = A2 + A4 the same with the indices swapped.  Partial fractions
over all six roots S_j give u1 = sum_j r_j / (S - S_j), and the inverse
transform of 1/(sqrt(p) - a) is 1/sqrt(pi t) + a e^{a^2 t} erfc(-a sqrt t).
The first terms cancel (sum_j r_j = 0), so

    u1(t) = e^{i omega1c t} sum_j i S_j r_j w(-i a_j sqrt t),   a_j = e^{i pi/4} S_j,

with w the Faddeeva function: six terms that hold the residues and the
branch cut together (John & Quang, PRA 50, 1764 (1994), for both
transitions).  A root on the inversion sheet (Re a_j > 0) puts w in the
lower half plane, where w(z) = 2 e^{-z^2} - w(-z) yields its residue
e^{x_j t}; a root off the sheet adds to the cut only.  Identical
transitions use the cubics of u1 +/- u2, three terms each, and a dark
combination is the single pole x = -i gamma1.  A2 and A4 are inverted in
their own shifted variable, which contributes the factor e^{-i omega12 t}
on assembly.

Since w(0) = 1, the t -> 0+ limit is the algebraic sum i sum_j r_j S_j:
inversion completeness costs nothing, is stored in the trajectory's meta
and fails the run above COMPLETENESS_TOL.  With P'(S_j) formed as
prod_k (S_j - S_k) the identity holds for any distinct roots, so it
guards against a lost or coincident root, not an inaccurate one.

The closed form reads the roots of :func:`pbgpair.poles.symmetric_sectors`
alone; the sectors raise DegeneratePole, for the pole table and the closed
form alike.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import poles
from .config import AmplitudeTrajectory
from .errors import CompletenessError, DomainError, NumericalError
from .poles import sector_parameters
# the previous route, for perfbench/tracing.py, which patches it by these names here
from .transform import CutIntegrator, cut_discontinuity, residue_sum  # noqa: F401

COMPLETENESS_TOL = 1e-9
EXP_MAX = 700.0  # e^{x t} of a sheet root stays below ~1e304 up to x t = EXP_MAX
EVAL_BLOCK_ELEMS = 16384  # (times x roots) elements per block of closed_form

# Weideman's rational approximation of w in the upper half plane (SIAM J.
# Numer. Anal. 31, 1497 (1994)), N = 32: w(z) = 2 p(Z) / (L - iz)^2 +
# pi^{-1/2} / (L - iz) with Z = (L + iz)/(L - iz) and L = sqrt(N / sqrt 2).
# The coefficients of p, highest power first, are the cosine transform of
# e^{-t^2} (L^2 + t^2) at t = L tan(theta/2); the tests recompute them.
# They are kept as numbers so that importing the package evaluates no tan
# and cos (their code pages cost 0.4-0.5 MB of resident memory each with
# numpy 2.4 on x86-64).
_W_L = np.sqrt(32 / np.sqrt(2.0))
_W_COEFFS = np.array([
    -1.3035062288633228e-12, 3.740557987570532e-12, 8.03042238440143e-12,
    -2.1543317859693647e-11, -5.5442043745092787e-11, 1.165825533014134e-10,
    4.15374629483472e-10, -5.231019074481361e-10, -3.208015390591298e-09,
    8.12488986439816e-10, 2.3797556785020835e-08, 2.293043893430885e-08,
    -1.4813078923284726e-07, -4.184076370348819e-07, 4.255833137263323e-07,
    4.401531731419301e-06, 6.821031944049749e-06, -2.1409619201675663e-05,
    -0.00013075449254616958, -0.0002453298027001752, 0.00039259136070072105,
    0.004519541105349276, 0.019006155784845387, 0.05730440352983703,
    0.1406071622689377, 0.2954445107150872, 0.5460139720639342,
    0.9019254893648001, 1.345544169234545, 1.825669629632481,
    2.2635372999002676, 2.5722534081245696,
])


def faddeeva(z):
    """w(z) = e^{-z^2} erfc(-iz) for Im z >= 0, to about 3e-13 relative;
    the lower half plane needs w(z) = 2 e^{-z^2} - w(-z)."""
    d = _W_L - 1j * np.asarray(z, dtype=complex)
    zz = (2 * _W_L - d) / d
    p = np.full_like(zz, _W_COEFFS[0])
    for c in _W_COEFFS[1:]:
        p *= zz
        p += c
    p *= 2.0 / d
    p += 1.0 / np.sqrt(np.pi)
    p /= d
    return p


class Terms(NamedTuple):
    """The closed form of one configuration and initial state.

    ``a`` are the points a_j = e^{i pi/4} S_j at which w is needed: the
    simple roots of every sector, then the midpoints of the double-root
    pairs.  To (A1, A2, A3, A4) each a_j contributes e^{i omega1c t} rows[j]
    w_j, and the k-th pair also e^{i omega1c t} pair_t[k] t w_k; the pairs
    together add e^{i omega1c t} pair_sqrt sqrt t.  ``xs`` are the simple
    poles that are no root in S (the exchange poles and a dark
    combination), with their (poles x 4) residues ``exps``.  Components 2
    and 4 are in the shifted frame.
    """

    a: np.ndarray
    rows: np.ndarray
    pair_t: np.ndarray
    pair_sqrt: np.ndarray  # (4,)
    xs: np.ndarray
    exps: np.ndarray


def _polyval4(num, s):
    """The (len(s) x 4) values of the four polynomials ``num`` at s."""
    out = np.zeros((s.size, 4), dtype=complex)
    for c in num.T:
        out = out * s[:, None] + c
    return out


def closed_form_terms(config, init, sectors):
    """:class:`Terms` of the closed form from the roots of ``sectors``.

    A sector's amplitudes are u = -i S V(S) / D(S) with D its monic
    polynomial in S and V (roots x 4) polynomials.  A simple root S_j has
    weight i S_j r_j = S_j^2 V(S_j) / D'(S_j); an exact root S = 0 has
    weight 0 and is left out.  Where roots coincide the weights are not
    finite, and the completeness check fails.  A pair of ``Sector.pairs``,
    two roots that nearly coincide, whose r_j would cancel, enters as one
    term: their divided difference (g G)[S_1, S_2], with g = S V / R,
    R = D / ((S - S_1)(S - S_2)) and G(S) = i S w(e^{-i pi/4} S sqrt t),
    taken at the pair's midpoint m as g'(m) G(m) + g(m) G'(m), where
    G' = i [w (1 - 2 z^2) + 2 i z / sqrt pi].
    """
    a10, a20, a30, a40 = init.as_tuple()
    u10, u20 = a10 + a30, a20 + a40
    a1, a2, c = sector_parameters(config)
    v1, v2 = 0.5 * (a10 - a30), 0.5 * (a20 - a40)
    xs = [1j * config.gamma1, 1j * (config.gamma2 + config.omega12)]
    exps = [[v1, 0.0, -v1, 0.0], [0.0, v2, 0.0, -v2]]
    single, single_rows = [], []
    mids, mid_rows, pair_t, pair_sqrt = [], [], [], []
    for sec in sectors:
        sign = -1.0 if sec.kind == "u-" else 1.0
        if sec.dark:
            u = 0.25 * (u10 + sign * u20)
            xs.append(-1j * config.gamma1)
            exps.append([u, sign * u, u, sign * u])
            continue
        if sec.kind == "u":  # S V(S): S Q1 / 2 and S Q2 / 2 of the module docstring
            q1 = 0.5 * np.array([u10, 0.0, a2 * u10, 2 * (c * u20 - u10), 0.0])
            q2 = 0.5 * np.array([u20, 0.0, a1 * u20, 2 * (c * u10 - u20), 0.0])
            num = np.stack([q1, q2, q1, q2])
        else:
            u = 0.25 * (u10 + sign * u20)
            num = np.outer([u, sign * u, u, sign * u], [1.0, 0.0])
        s = sec.roots
        paired = np.zeros(s.size, dtype=bool)
        for j, k in sec.pairs:
            paired[[j, k]] = True
            m = 0.5 * (s[j] + s[k])
            others = np.delete(s, [j, k])
            r = np.prod(m - others)
            g = _polyval4(num, np.array([m]))[0] / r
            dnum = num[:, :-1] * np.arange(num.shape[1] - 1, 0, -1)
            dg = _polyval4(dnum, np.array([m]))[0] / r - g * np.sum(1.0 / (m - others))
            mids.append(m)
            mid_rows.append(dg * m + g)
            pair_t.append(2j * g * m * m)
            pair_sqrt.append(2j * np.exp(-0.25j * np.pi) * g * m / np.sqrt(np.pi))
        keep = ~paired & (s != 0)
        diff = s[:, None] - s[None, :]
        np.fill_diagonal(diff, 1.0)
        sk = s[keep]
        single.append(sk)
        with np.errstate(divide="ignore", invalid="ignore"):
            single_rows.append(sk[:, None] * _polyval4(num, sk)
                               / np.prod(diff[keep], axis=1)[:, None])
    rot = np.exp(0.25j * np.pi)
    return Terms(a=rot * np.concatenate(single + [np.array(mids, dtype=complex)]),
                 rows=np.concatenate(single_rows + [np.array(mid_rows, dtype=complex).reshape(-1, 4)]),
                 pair_t=np.array(pair_t, dtype=complex).reshape(-1, 4),
                 pair_sqrt=np.array(pair_sqrt, dtype=complex).reshape(-1, 4).sum(axis=0),
                 xs=np.array(xs), exps=np.array(exps, dtype=complex))


def closed_form(t, config, terms: Terms):
    """The four amplitudes at times t >= 0 from ``closed_form_terms``; at
    t = 0 the limit t -> 0+.

    The times go in blocks of at most EVAL_BLOCK_ELEMS (times x roots).
    Off the sheet (Re a <= 0) w is taken at -i a sqrt t in the upper half
    plane; on it, at i a sqrt t, and e^{a^2 t} = e^{x t} of the pole x is
    formed for those roots alone.  It cannot overflow: a pole on the sheet
    never grows, Re x <= 0, which is checked.
    """
    a = terms.a
    n_pairs = terms.pair_t.shape[0]
    t = np.asarray(t, dtype=float)
    sheet = a.real > 0
    a2 = a[sheet] ** 2
    if a2.size and t.size and np.max(a2.real) * np.max(t) > EXP_MAX:
        raise NumericalError(f"a pole on the inversion sheet grows: Re x = "
                             f"{np.max(a2.real):.3g} > 0")
    arg = np.where(sheet, 1j, -1j) * a
    out = np.empty((t.size, 4), dtype=complex)
    step = max(1, EVAL_BLOCK_ELEMS // max(1, a.size))
    for lo in range(0, t.size, step):
        tb = t[lo:lo + step]
        rt = np.sqrt(tb)
        w = faddeeva(np.outer(rt, arg))
        if a2.size:
            w[:, sheet] = 2.0 * np.exp(np.outer(tb, a2)) - w[:, sheet]
        blk = w @ terms.rows
        if n_pairs:
            blk += (tb[:, None] * w[:, a.size - n_pairs:]) @ terms.pair_t
            blk += rt[:, None] * terms.pair_sqrt
        blk *= np.exp(1j * config.omega1c * tb)[:, None]
        blk += np.exp(np.outer(tb, terms.xs)) @ terms.exps
        out[lo:lo + step] = blk
    shift = np.exp(-1j * config.omega12 * t)
    out[:, 1] *= shift
    out[:, 3] *= shift
    return out


def amplitudes_analytic(times, config, init) -> AmplitudeTrajectory:
    """Amplitude trajectory by the closed form over the roots of
    ``poles.symmetric_sectors(config)``.

    ``times`` must be non-decreasing and non-negative; entries at t = 0
    return the initial amplitudes exactly (continuity of the inversion).
    ``meta["completeness"]`` is the largest deviation of the t -> 0+ limit
    from the initial amplitudes; above COMPLETENESS_TOL the call raises
    CompletenessError.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise DomainError("times must be non-decreasing and non-negative")
    terms = closed_form_terms(config, init, poles.symmetric_sectors(config))
    u0 = np.asarray(init.as_tuple(), dtype=complex)
    completeness = float(np.max(np.abs(terms.rows.sum(axis=0) + terms.exps.sum(axis=0) - u0)))
    if not completeness <= COMPLETENESS_TOL:
        raise CompletenessError(f"inversion completeness residual {completeness:.3g} "
                                f"exceeds {COMPLETENESS_TOL}")
    pos = times > 0
    amps = np.zeros((times.size, 4), dtype=complex)
    amps[~pos] = u0
    if np.any(pos):
        amps[pos] = closed_form(times[pos], config, terms)
    return AmplitudeTrajectory(times=times, amps=amps,
                               meta={"engine": "analytic", "completeness": completeness})
