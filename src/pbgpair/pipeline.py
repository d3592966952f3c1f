"""Run orchestration shared by the command line and the sweep driver."""

from __future__ import annotations

import logging

import numpy as np

from . import bath, inversion, negativity
from .config import RunSpec, validate
from .errors import DomainError

log = logging.getLogger("pbgpair")

DEFAULT_MODES = 4000
# Size budget, checked before anything is allocated.  An analytic run peaks
# at about 1 kB per output point (114 MB at 100,000 points); the oracle
# diagonalizes a dense float64 block (8 dim^2 bytes, held about three times
# by eigh) and propagates it into complex (points x dim) arrays, also held
# about three times.
MAX_POINTS = 1_000_000
MAX_BLOCK_DIM = 12_000
MAX_PROPAGATION_SIZE = 25_000_000


def n_points(t_max: float, dt_out: float) -> int:
    """Number of points of the output grid [0, dt_out, ..., <= t_max]."""
    return int(np.floor(t_max / dt_out + 1e-9)) + 1


def time_grid(t_max: float, dt_out: float):
    return np.arange(n_points(t_max, dt_out)) * dt_out


def analytic_trajectory(config, init, t_max, dt_out, poles=None):
    times = time_grid(t_max, dt_out)
    return inversion.amplitudes_analytic(times, config, init, poles=poles)


def oracle_trajectory(config, init, t_max, dt_out, n_modes=DEFAULT_MODES,
                      clip_to_horizon=False):
    b = bath.build_bath(config, n_modes=n_modes)
    horizon = b.recurrence_time()
    if clip_to_horizon and t_max > horizon:
        t_max = dt_out * np.floor(horizon / dt_out)
        log.info("oracle horizon %.6g limits the reference run to t=%.6g",
                 horizon, t_max)
    # past the horizon integrate() raises before allocating anything
    size = n_points(min(t_max, horizon), dt_out) * bath.block_dim(config, n_modes)
    if size > MAX_PROPAGATION_SIZE:
        raise DomainError(f"oracle propagation array of {size} entries exceeds the "
                          f"budget of {MAX_PROPAGATION_SIZE}; raise dt_out or lower t_max")
    return bath.integrate(config, init, b, t_max=t_max, dt_out=dt_out)


def run_spec(spec: RunSpec, n_modes: int = DEFAULT_MODES):
    """Execute a validated run: returns (series, trajectory, deviation).

    ``deviation`` is None unless engine='both', in which case it is the
    maximum amplitude difference between the engines over the oracle
    horizon (also written to the run log).
    """
    validate(spec.config, spec.init)
    if not (0 < spec.t_max < np.inf and 0 < spec.dt_out < np.inf):
        raise DomainError(f"t_max and dt_out must be positive and finite, "
                          f"got {spec.t_max}, {spec.dt_out}")
    points = n_points(spec.t_max, spec.dt_out)
    if points > MAX_POINTS:
        raise DomainError(f"output grid of {points} points exceeds the budget of "
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
