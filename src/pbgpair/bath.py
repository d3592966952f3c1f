"""Discretized-bath reference integrator (independent ground truth).

The band-edge continuum is replaced by discrete modes on a grid uniform in
u = sqrt(omega - omega_c), which resolves the inverse-square-root density
of states with constant per-mode weights.  A geometrically stretched far
tail is appended so that the discrete resolvent sum reproduces the
transform-domain kernel to the contracted tolerance; a sharp cutoff at
omega_c + 50 beta would miss ~9% of the kernel and visibly shift the
bound-state frequencies.

Two independent mode families realize the kernel triple
(Gamma11, Gamma22, Gamma12) = beta' * (1, 1, cos eta): family ``a``
couples to transition 1 with g and to transition 2 with g cos(eta);
family ``b`` couples only to transition 2 with g sin(eta).  A single real
family cannot produce Gamma12^2 < Gamma11 * Gamma22.

The amplitude equations are integrated in the co-rotating mode variables
C_n = B^a_n e^{-i(omega_n - omega13) t}, D_n = B^b_n e^{-i(omega_n -
omega23) t}, an exact substitution that leaves a linear autonomous
Hermitian system.  Propagation diagonalizes that generator once per
coupled block and applies the exact unitary evolution, so the norm is
conserved to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .config import AmplitudeTrajectory
from .errors import (
    DiscretizationError,
    DomainError,
    RecurrenceHorizonExceeded,
    StepSizeError,
)

RESOLVENT_TOL = 1e-3
NORM_DRIFT_TOL = 1e-8   # per unit beta*t
# The tail cutoff sets a kernel deficit ~ (2/pi)/TAIL_U_FACTOR that shifts
# bound-state frequencies; 2^16 keeps the t=50 phase error well under the
# engine-agreement budget at a cost of ~240 extra modes.
TAIL_U_FACTOR = 65536.0
TAIL_RATIO = 1.045
DENSE_WINDOW = 50.0     # default densely sampled window above the edge, in beta
SIN_ETA_FLOOR = 1e-12  # sin(pi) in floats is ~1.2e-16; treat as exactly dark


@dataclass
class DiscreteBath:
    """Mode grid and couplings for the two channel families.

    ``nu`` are mode frequencies measured from the band edge; ``g`` the raw
    couplings of family a to transition 1.  Family a couples to
    transition 2 with ``g*cos(eta)``; family b (same grid) couples to
    transition 2 with ``g*sin(eta)`` only.
    """

    nu: np.ndarray
    g: np.ndarray
    n_main: int
    config: "object" = field(repr=False, default=None)

    @property
    def n_modes(self) -> int:
        return int(self.nu.size)

    def recurrence_time(self) -> float:
        """Earliest rephasing time of the main grid, 2 pi / max spacing."""
        main = self.nu[: self.n_main]
        return 2.0 * np.pi / float(np.max(np.diff(main)))

    def resolvent(self, x):
        """Discrete kernel sum  sum_n g_n^2 / (x + i (nu_n - omega1c))."""
        x = np.asarray(x, dtype=complex)
        den = x[..., None] + 1j * (self.nu - self.config.omega1c)
        return np.sum(self.g ** 2 / den, axis=-1)


def _tail_count(u_max, beta) -> int:
    """Number of geometric tail cells from u_max up to TAIL_U_FACTOR sqrt(beta)."""
    return int(np.ceil(np.log(TAIL_U_FACTOR * np.sqrt(beta) / u_max) / np.log(TAIL_RATIO)))


def block_dim(config, n_modes: int) -> int:
    """Dimension of the largest block ``integrate`` diagonalizes for the
    default ``build_bath(config, n_modes)``, worked out without building it."""
    n = n_modes + _tail_count(np.sqrt(DENSE_WINDOW * config.beta), config.beta)
    if config.cos_eta == 0.0:
        return 2 + n
    return 4 + n * (2 if abs(config.sin_eta) > SIN_ETA_FLOOR else 1)


def build_bath(config, n_modes: int = 4000, omega_max: float | None = None,
               tail: bool = True) -> DiscreteBath:
    """Discretize the band-edge continuum for the given configuration.

    ``omega_max`` bounds the densely sampled window above the edge
    (default edge + 50 beta); the geometric tail beyond it is controlled
    by ``tail``.  Raises DiscretizationError when the resolvent sum fails
    to reproduce the kernel.
    """
    if n_modes < 100:
        raise DomainError(f"n_modes must be at least 100, got {n_modes}")
    beta = config.beta
    nu_max = DENSE_WINDOW * beta if omega_max is None else float(omega_max)
    if nu_max <= 20.0 * beta:
        raise DomainError("omega_max must exceed the band edge by more than 20 beta")
    weight = 2.0 * beta ** 1.5 / np.pi  # exact integral of J over a unit u-cell

    u_max = np.sqrt(nu_max)
    du = u_max / n_modes
    u_mid = (np.arange(n_modes) + 0.5) * du
    nu = u_mid ** 2
    g2 = np.full(n_modes, weight * du)

    if tail:
        n_tail = _tail_count(u_max, beta)
        edges = u_max * TAIL_RATIO ** np.arange(n_tail + 1)
        e0, e1 = edges[:-1], edges[1:]
        # frequency at the J-weighted cell centroid keeps the first moment exact
        nu_tail = (e0 * e0 + e0 * e1 + e1 * e1) / 3.0
        g2_tail = weight * (e1 - e0)
        nu = np.concatenate([nu, nu_tail])
        g2 = np.concatenate([g2, g2_tail])

    bath = DiscreteBath(nu=nu, g=np.sqrt(g2), n_main=n_modes, config=config)

    test_x = np.array([0.5, 1.0, 2.0, 0.5 + 1j, 1.0 - 0.7j]) * beta
    target = kernel.beta_prime(test_x, config.omega1c, beta)
    err = np.max(np.abs(bath.resolvent(test_x) - target))
    if err > RESOLVENT_TOL * beta:
        raise DiscretizationError(
            f"discrete resolvent misses the kernel by {err:.3g} (tol {RESOLVENT_TOL})"
        )
    return bath


def integrate(config, init, bath: DiscreteBath, t_max: float, dt_out: float = 0.5,
              store_modes: bool = False) -> AmplitudeTrajectory:
    """Exact unitary propagation of the amplitude equations against the bath.

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
        if drift > NORM_DRIFT_TOL * max(1.0, t_max):
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
        meta["bath"] = bath
    field_prob = 1.0 - np.sum(np.abs(amps) ** 2, axis=1)
    return AmplitudeTrajectory(times=times, amps=amps, field_prob=field_prob, meta=meta)


def mode_spectrum(trajectory: AmplitudeTrajectory, bath: DiscreteBath, t: float):
    """Per-mode excitation probabilities (nu_n, |B_n(t)|^2) at a stored time.

    Requires a trajectory produced with ``store_modes=True``; probabilities
    of the two families at the same grid point are summed.
    """
    probs = trajectory.meta.get("mode_probs")
    if probs is None:
        raise DomainError("trajectory was not integrated with store_modes=True")
    times = np.asarray(trajectory.times)
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
        raise DomainError(f"t={t:g} is not on the stored output grid")
    return bath.nu.copy(), probs[idx].copy()
