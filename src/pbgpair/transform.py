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

The residue sum and the Gauss-Kronrod cut integral below, on ``u_sector``,
are the previous inversion route.  No engine runs them; only the tests
(their own, three time-domain comparisons with the closed form and the
transform-domain helpers) and the benchmark's tracer (by name, in
:mod:`pbgpair.inversion`) read them.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchPointError, DomainError, QuadratureError, SingularSystem

CUT_FAIL_TOL = 1e-9
CUT_MAX_ROUNDS = 60  # panel refinement rounds of CutIntegrator
EXP_FLOOR = 32.3  # e^{-q^2 t} < 1e-14 beyond q^2 t = EXP_FLOOR

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


def _u_parts(x, config, init, g):
    """(n1, n2, Delta) with (u1, u2) = (n1, n2) / Delta at [x, x'] and kernel value g."""
    c = config.cos_eta
    a10, a20, a30, a40 = init.as_tuple()
    u10, u20 = a10 + a30, a20 + a40
    h1 = x + 1j * config.gamma1
    h2 = x - 1j * config.omega12 + 1j * config.gamma2
    f1, f2 = h1 + 2 * g, h2 + 2 * g
    # f1 f2 - 4 g^2 cos^2(eta) without the cancellation of the g^2 terms
    delta = h1 * h2 + 2 * g * (h1 + h2) + 4 * g * g * (1.0 - c * c)
    return f2 * u10 - 2 * g * c * u20, f1 * u20 - 2 * g * c * u10, delta


def u_sector(x, config, init, gamma):
    """Symmetric combinations (u1, u2) = (A1 + A3, A2 + A4) at [x, x'],
    the only part of the solution that depends on the kernel value gamma.
    Vectorized over x / gamma."""
    n1, n2, delta = _u_parts(np.asarray(x, dtype=complex), config, init,
                             np.asarray(gamma, dtype=complex))
    return n1 / delta, n2 / delta


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
    n1, n2, _ = _u_parts(record.x, config, init, _beta_prime_sheet(record.x, config.omega1c))
    return 0.5 * np.array([n1, n2, n1, n2], dtype=complex)


def residue_sum(t, pole_set, config, init):
    """Sum of pole contributions to (A1, A2, A3, A4) at time(s) t.

    Only the dynamic records of the PoleSet contribute; components 2/4
    include the shifted-frame phase e^{-i omega12 t}.
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
    top = u_sector(x, config, init, g_top)
    bot = u_sector(x, config, init, -g_top)
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

