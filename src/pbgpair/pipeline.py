"""Run orchestration shared by the command line and the sweep driver."""

from __future__ import annotations

import logging

import numpy as np

from . import bath, inversion, negativity
from .config import RunSpec, n_points, time_grid
from .errors import DomainError

log = logging.getLogger("pbgpair")

# Size budget, checked before anything is allocated.  An analytic run peaks
# at about 0.3 kB per output point (30-34 MB traced at 100,001 points on
# fig2b and fig5c), and formatting and writing its CSV at about 0.2 kB per
# point (21 MB for the 11 MB text of fig2b).  The oracle never forms its (dim x dim)
# generator: its memory is the CHUNK_ELEMS work arrays of bath.py plus
# O(dim x CHEB_DEGREE) for the roots and the far-field interpolants (a
# 93 MB process at dim 51,212).  Its work is the
# far-field build, about dim^2 CHEB_DEGREE / PANEL pole-node terms per
# secular equation (2.6 s at dim 51,212, 10 s at MAX_BLOCK_DIM: 21 s for the
# two equations of orthogonal dipoles with both transitions populated), a
# few passes of dim x 3 PANEL near-field terms, and the time sum, output
# points x dim complex multiply-adds (MAX_PROPAGATION_SIZE; 0.5 s at
# 3.3e8).  The oracle's output grid is a cross-check of a run's window and
# is capped at MAX_ORACLE_POINTS, six times the longest preset grid (fig5c,
# 8,401 points).
MAX_POINTS = 1_000_000
MAX_BLOCK_DIM = 100_000
MAX_PROPAGATION_SIZE = 1_000_000_000
MAX_ORACLE_POINTS = 50_000


def analytic_trajectory(config, init, t_max, dt_out):
    times = time_grid(t_max, dt_out)
    return inversion.amplitudes_analytic(times, config, init)


def oracle_trajectory(config, init, t_max, dt_out, n_modes, clip_to_horizon=False):
    b = bath.build_bath(config, n_modes=n_modes)
    horizon = b.recurrence_time()
    if clip_to_horizon and t_max > horizon:
        t_max = dt_out * np.floor(horizon / dt_out)
        log.info("oracle horizon %.6g limits the reference run to t=%.6g",
                 horizon, t_max)
    # past the horizon integrate() raises before allocating anything
    points = n_points(min(t_max, horizon), dt_out)
    if points > MAX_ORACLE_POINTS:
        raise DomainError(f"oracle output grid of {points} points exceeds the budget of "
                          f"{MAX_ORACLE_POINTS}; raise dt_out or lower t_max")
    size = points * bath.block_dim(config, n_modes)
    if size > MAX_PROPAGATION_SIZE:
        raise DomainError(f"oracle time sum of {size} terms (points x block dimension) "
                          f"exceeds the budget of {MAX_PROPAGATION_SIZE}; raise dt_out or "
                          "lower t_max")
    traj = bath.integrate(config, init, b, t_max=t_max, dt_out=dt_out)
    log.info("oracle: %d secular roots, spectral weight defect %.3g, horizon %.6g",
             traj.meta["n_roots"], traj.meta["weight_defect"], horizon)
    return traj


def run_spec(spec: RunSpec, n_modes: int):
    """Execute a run: returns (series, trajectory, deviation).

    ``deviation`` is None unless engine='both', in which case it is the
    maximum amplitude difference between the engines over the oracle
    horizon (also written to the run log).
    """
    # n_points > MAX_POINTS, decided on the float: past the budget the ratio
    # may not fit an int
    ratio = spec.t_max / spec.dt_out + 1e-9
    if ratio >= MAX_POINTS:
        raise DomainError(f"output grid of {ratio + 1:.3g} points exceeds the budget of "
                          f"{MAX_POINTS}; raise dt_out or lower t_max")
    if spec.engine != "analytic":
        dim = bath.block_dim(spec.config, n_modes)
        if dim > MAX_BLOCK_DIM:
            raise DomainError(f"oracle block of dimension {dim} exceeds the budget of "
                              f"{MAX_BLOCK_DIM}; lower the number of modes")
    deviation = None
    if spec.engine == "oracle":
        traj = oracle_trajectory(spec.config, spec.init, spec.t_max, spec.dt_out,
                                 n_modes=n_modes)
    else:
        traj = analytic_trajectory(spec.config, spec.init, spec.t_max, spec.dt_out)
        if spec.engine == "both":
            ref = oracle_trajectory(spec.config, spec.init, spec.t_max, spec.dt_out,
                                    n_modes=n_modes, clip_to_horizon=True)
            k = ref.times.size
            deviation = float(np.max(np.abs(ref.amps - traj.amps[:k])))
            log.info("engine=both: max amplitude deviation %.6g over t in [0, %.6g]",
                     deviation, ref.times[-1])
    series = negativity.entanglement_series(traj)
    return series, traj, deviation
