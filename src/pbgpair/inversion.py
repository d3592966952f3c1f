"""Contour inversion of the transform amplitudes: residues plus branch cut.

For t > 0 the Bromwich integral closes around the leftward cut attached to
the band-edge branch point x = i*omega1c, so each amplitude is a sum of
residues at the dynamic poles plus the cut integral

    (e^{i w1c t} / 2 pi i) * int_0^inf [A(below) - A(above)](i w1c - u) e^{-u t} du,

evaluated here after the substitution u = q^2 that removes the
inverse-square-root edge of the branch difference.  A2 and A4 are inverted
in their own shifted variable; relative to the common x-plane machinery
that contributes the extra factor e^{-i omega12 t} applied on assembly.

The t -> 0+ limit of residues + cut must reproduce the initial amplitudes
(inversion completeness), which the test suite enforces; that check is the
strongest guard against a wrong sheet or a missed pole.
"""

from __future__ import annotations

import numpy as np

from . import kernel, transform
from .config import AmplitudeTrajectory
from .errors import DomainError, QuadratureError
from .poles import PoleSet, find_poles

CUT_ABS_TOL = 1e-10
CUT_FAIL_TOL = 1e-9
EXP_FLOOR = 32.3  # e^{-q^2 t} < 1e-14 beyond q^2 t = EXP_FLOOR
EXP_UNDERFLOW = 708.0  # e^{-q^2 t} is below the smallest normal double beyond
EVAL_BLOCK_ELEMS = 16384  # damping factors per block of CutIntegrator.evaluate

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
    g = kernel.beta_prime_sheet(x0, config.omega1c, config.beta)
    c = config.cos_eta
    u10, u20 = a10 + a30, a20 + a40
    f1 = x0 + 1j * config.gamma1 + 2 * g
    f2 = x0 - 1j * config.omega12 + 1j * config.gamma2 + 2 * g
    n1 = 0.5 * (f2 * u10 - 2 * g * c * u20)
    n2 = 0.5 * (f1 * u20 - 2 * g * c * u10)
    return np.array([n1, n2, n1, n2], dtype=complex)


def residue_sum(t, poles: PoleSet, config, init):
    """Sum of pole contributions to (A1, A2, A3, A4) at time(s) t.

    Only dynamic records contribute; components 2/4 include the shifted-frame
    phase e^{-i omega12 t}.
    """
    if poles.config is not None and poles.config != config:
        raise DomainError("pole set was built for a different configuration")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    dyn = poles.dynamic()
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
    b32 = config.beta ** 1.5
    g_top = b32 / (1j * s_top)
    top = transform.u_sector(x, config, init, g_top)
    bot = transform.u_sector(x, config, init, -g_top)
    du1, du2 = 0.5 * (bot[0] - top[0]), 0.5 * (bot[1] - top[1])
    return np.stack([du1, du2, du1, du2], axis=-1)


class CutIntegrator:
    """Adaptive Gauss-Kronrod panels for the cut integral, reusable in t.

    The branch difference is t-independent, so the panel nodes and the
    values of ``disc(q) * 2q`` are computed once; each time only the
    Gaussian damping e^{-q^2 t} changes.  Panels are refined until the
    G7/K15 discrepancy under the least-damped requested time is below
    tolerance.  The nodes of all panels are then kept sorted by q, with
    their Kronrod-weighted values as one (nodes x 4) matrix, so that a
    time only meets the prefix of nodes whose damping is not below the
    smallest normal double.
    """

    def __init__(self, config, init, t_min, abs_tol=CUT_ABS_TOL, max_rounds=60):
        if t_min <= 0:
            raise DomainError("cut integral requires t > 0")
        self.config = config
        self.init = init
        q_max = np.sqrt(EXP_FLOOR / t_min)
        edges = [0.0]
        step0 = min(1.0, q_max / 8.0)
        val = step0
        while val < q_max:
            edges.append(val)
            val *= 1.9
        edges.append(q_max)
        panels = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
        self._nodes = []
        self._fvals = []
        self._panels = []
        for a, b in panels:
            self._add_panel(a, b)
        for _ in range(max_rounds):
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
        errs = self._panel_errors(t_min)
        self.error_estimate = float(np.sum(errs))
        if not self.error_estimate <= CUT_FAIL_TOL:
            raise QuadratureError(
                f"cut integral error estimate {self.error_estimate:.3g} exceeds {CUT_FAIL_TOL}"
            )
        qs = np.concatenate(self._nodes)
        order = np.argsort(qs)
        self._q2 = qs[order] ** 2
        self._kvals = np.concatenate([_K_WEIGHTS[:, None] * fv for fv in self._fvals])[order]

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
        """Cut contribution to the four amplitudes at time(s) t > 0, in any order.

        The times go in blocks of consecutive entries.  A block ends where t
        leaves [t0, 2 t0], t0 its first time and so its minimum, or where
        its rows times the nodes live at t0 would pass ``EVAL_BLOCK_ELEMS``.
        Each block is one matrix product over the nodes live at t0, those
        with q^2 t0 <= EXP_UNDERFLOW, with the exponent clamped at
        -EXP_UNDERFLOW, so that no exp takes the slow subnormal path: every
        damping factor that the clamp raises or the skipped nodes drop is
        below e^-708 = 3.3e-308.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        total = np.empty((t.size, 4), dtype=complex)
        a = 0
        while a < t.size:
            t0 = t[a]
            n = int(np.count_nonzero(self._q2 * t0 <= EXP_UNDERFLOW))
            seg = t[a:a + max(1, EVAL_BLOCK_ELEMS // max(1, n))]
            leave = np.flatnonzero((seg < t0) | (seg > 2.0 * t0))
            rows = int(leave[0]) if leave.size else seg.size
            damp = np.outer(seg[:rows], -self._q2[:n])
            np.maximum(damp, -EXP_UNDERFLOW, out=damp)
            np.exp(damp, out=damp)
            total[a:a + rows] = damp @ self._kvals[:n]
            a += rows
        total *= (np.exp(1j * self.config.omega1c * t) / (2j * np.pi))[:, None]
        shift = np.exp(-1j * self.config.omega12 * t)
        total[:, 1] *= shift
        total[:, 3] *= shift
        return total


def amplitudes_analytic(times, config, init, poles: PoleSet | None = None,
                        cut_tol=CUT_ABS_TOL) -> AmplitudeTrajectory:
    """Amplitude trajectory by residues plus branch-cut integral.

    ``times`` must be non-decreasing and non-negative; entries at t = 0
    return the initial amplitudes exactly (continuity of the inversion).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise DomainError("times must be non-decreasing and non-negative")
    if poles is None:
        poles = find_poles(config)
    pos = times > 0
    amps = np.zeros((times.size, 4), dtype=complex)
    amps[~pos] = np.asarray(init.as_tuple(), dtype=complex)
    if np.any(pos):
        tpos = times[pos]
        res = residue_sum(tpos, poles, config, init)
        cut = CutIntegrator(config, init, t_min=float(tpos[0]), abs_tol=cut_tol)
        amps[pos] = res + cut.evaluate(tpos)
    field_prob = 1.0 - np.sum(np.abs(amps) ** 2, axis=1)
    return AmplitudeTrajectory(times=times, amps=amps, field_prob=field_prob,
                               meta={"engine": "analytic"})
