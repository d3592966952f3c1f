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

The residue sum and the Gauss-Kronrod cut integral below are the previous
route.  They no longer run in ``amplitudes_analytic``; the tests keep
them as an independent cross-check of the closed form, and the benchmark's
tracer patches them by name.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import poles, transform
from .config import AmplitudeTrajectory
from .errors import (BranchPointError, CompletenessError, DomainError, NumericalError,
                     QuadratureError)
from .poles import PoleSet, sector_parameters

COMPLETENESS_TOL = 1e-9
EXP_MAX = 700.0  # e^{x t} of a sheet root stays below ~1e304 up to x t = EXP_MAX
CUT_FAIL_TOL = 1e-9
CUT_MAX_ROUNDS = 60  # panel refinement rounds of CutIntegrator
EXP_FLOOR = 32.3  # e^{-q^2 t} < 1e-14 beyond q^2 t = EXP_FLOOR
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

# Gauss-Kronrod 7/15 nodes on [-1, 1] and the two weight sets.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
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


def _beta_prime_sheet(x, omega1c: float):
    """beta' = 1 / (i S) on the inversion sheet, S = e^{-i pi/4} sqrt(x - i omega1c)
    with the principal root: cut along {x = i omega1c - u, u > 0}, with the
    limit from above on it.  The second branch is its negative."""
    z = np.asarray(x, dtype=complex) - 1j * omega1c
    if np.any(z == 0):
        raise BranchPointError(f"kernel branch point at x = i*omega1c (omega1c={omega1c})")
    val = 1 / (1j * (np.exp(-0.25j * np.pi) * np.sqrt(np.where(z.imag == 0, z.real + 0j, z))))
    return val if val.ndim else complex(val)


def residue_numerators(record, config, init):
    """Per-amplitude residue numerators N_i with Res[A_i] = N_i * weight.

    The exchange poles carry only the antisymmetric combinations; the
    symmetric-sector poles carry the 2x2 adjugate applied to the symmetric
    initial data; with identical transitions the 'u+'/'u-' poles carry
    u1 +/- u2 alone.  Components 2 and 4 are residues in the shifted frame
    of those amplitudes.
    """
    a10, a20, a30, a40 = init.as_tuple()
    if record.kind == "v1":
        v = 0.5 * (a10 - a30)
        return np.array([v, 0.0, -v, 0.0], dtype=complex)
    if record.kind == "v2":
        v = 0.5 * (a20 - a40)
        return np.array([0.0, v, 0.0, -v], dtype=complex)
    if record.kind in ("u+", "u-"):
        sign = 1.0 if record.kind == "u+" else -1.0
        u = 0.25 * (a10 + a30 + sign * (a20 + a40))
        return np.array([u, sign * u, u, sign * u], dtype=complex)
    if record.kind != "u":
        return np.zeros(4, dtype=complex)
    x0 = record.x
    g = _beta_prime_sheet(x0, config.omega1c)
    c = config.cos_eta
    u10, u20 = a10 + a30, a20 + a40
    f1 = x0 + 1j * config.gamma1 + 2 * g
    f2 = x0 - 1j * config.omega12 + 1j * config.gamma2 + 2 * g
    n1 = 0.5 * (f2 * u10 - 2 * g * c * u20)
    n2 = 0.5 * (f1 * u20 - 2 * g * c * u10)
    return np.array([n1, n2, n1, n2], dtype=complex)


def residue_sum(t, pole_set: PoleSet, config, init):
    """Sum of pole contributions to (A1, A2, A3, A4) at time(s) t.

    Only dynamic records contribute; components 2/4 include the shifted-frame
    phase e^{-i omega12 t}.
    """
    if pole_set.config != config:
        raise DomainError("pole set was built for a different configuration")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    dyn = pole_set.dynamic()
    out = np.zeros((t.size, 4), dtype=complex)
    if dyn:
        locs = np.array([r.x for r in dyn])
        res = np.array([residue_numerators(r, config, init) * r.weight for r in dyn])
        out = np.exp(np.outer(t, locs)) @ res
    shift = np.exp(-1j * config.omega12 * t)
    out[:, 1] *= shift
    out[:, 3] *= shift
    return out[0] if scalar else out


def cut_discontinuity(q, config, init):
    """Branch difference of the four transform amplitudes on the cut.

    At x = i*omega1c - q^2 the two boundary values correspond to the two
    signs of sqrt(-i x - omega1c) = -/+ e^{i pi/4} q; returns
    (below - above) as shape (len(q), 4).  Only the symmetric sector
    depends on the kernel, so the exchange poles drop out exactly, also
    when one of them sits on the branch point.
    """
    q = np.asarray(q, dtype=float)
    x = 1j * config.omega1c - q * q
    s_top = np.exp(0.25j * np.pi) * q
    g_top = 1 / (1j * s_top)
    top = transform.u_sector(x, config, init, g_top)
    bot = transform.u_sector(x, config, init, -g_top)
    du1, du2 = 0.5 * (bot[0] - top[0]), 0.5 * (bot[1] - top[1])
    return np.stack([du1, du2, du1, du2], axis=-1)


class CutIntegrator:
    """Adaptive Gauss-Kronrod panels for the cut integral, reusable in t.

    The branch difference is t-independent, so the panel nodes and the
    values of ``disc(q) * 2q`` are computed once; each time only the
    Gaussian damping e^{-q^2 t} changes.  Panels are refined, at most
    CUT_MAX_ROUNDS times, until the G7/K15 discrepancy under the
    least-damped requested time is below tolerance.
    """

    def __init__(self, config, init, t_min, abs_tol):
        if t_min <= 0:
            raise DomainError("cut integral requires t > 0")
        self.config = config
        self.init = init
        q_max = np.sqrt(EXP_FLOOR / t_min)
        edges, val = [0.0], min(1.0, q_max / 8.0)
        while val < q_max:
            edges.append(val)
            val *= 1.9
        edges.append(q_max)
        self._nodes, self._fvals, self._panels = [], [], []
        for a, b in zip(edges[:-1], edges[1:]):
            self._add_panel(a, b)
        for _ in range(CUT_MAX_ROUNDS):
            errs = self._panel_errors(t_min)
            if float(np.sum(errs)) <= abs_tol:
                break
            order = np.argsort(errs)[::-1]
            n_split = max(1, len(order) // 8)
            for i in sorted(order[:n_split], reverse=True):
                a, b = self._panels[i]
                del self._panels[i], self._nodes[i], self._fvals[i]
                mid = 0.5 * (a + b)
                self._add_panel(a, mid)
                self._add_panel(mid, b)
        self.error_estimate = float(np.sum(self._panel_errors(t_min)))
        if not self.error_estimate <= CUT_FAIL_TOL:
            raise QuadratureError(
                f"cut integral error estimate {self.error_estimate:.3g} exceeds {CUT_FAIL_TOL}"
            )

    def _add_panel(self, a, b):
        half = 0.5 * (b - a)
        qs = 0.5 * (a + b) + half * _GK_NODES
        disc = cut_discontinuity(qs, self.config, self.init)
        self._panels.append((a, b))
        self._nodes.append(qs)
        self._fvals.append(disc * (2 * qs)[:, None] * half)

    def _panel_errors(self, t):
        errs = []
        for qs, fv in zip(self._nodes, self._fvals):
            damp = np.exp(-qs * qs * t)
            k = (_K_WEIGHTS * damp) @ fv
            g = (_G_WEIGHTS * damp) @ fv
            errs.append(np.max(np.abs(k - g)))
        return np.array(errs)

    def evaluate(self, t):
        """Cut contribution to the four amplitudes at time(s) t > 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        total = np.zeros((t.size, 4), dtype=complex)
        for qs, fv in zip(self._nodes, self._fvals):
            total += (np.exp(-np.outer(t, qs * qs)) * _K_WEIGHTS) @ fv
        total *= (np.exp(1j * self.config.omega1c * t) / (2j * np.pi))[:, None]
        shift = np.exp(-1j * self.config.omega12 * t)
        total[:, 1] *= shift
        total[:, 3] *= shift
        return total


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
