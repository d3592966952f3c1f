"""Run orchestration shared by the command line and the sweep driver.  A
run is refused, if at all, before either engine starts."""

from __future__ import annotations

import logging

import numpy as np

from . import bath, inversion, negativity
from .config import RunSpec, n_points, time_grid
from .errors import DomainError

log = logging.getLogger("pbgpair")

# Size budget, checked before either engine starts.  An analytic run peaks
# at about 0.3 kB per output point (30-34 MB traced at 100,001 points on
# fig2b and fig5c), and formatting and writing its CSV at about 0.2 kB per
# point (21 MB for the 11 MB text of fig2b).  The oracle never forms its (dim x dim)
# generator: its memory is the CHUNK_ELEMS work arrays of bath.py plus a few
# hundred bytes per mode for the roots, the far-field interpolants and the
# near-field sources (a 70-76 MB process at dim 51,212).  Its work is the
# far-field build, about dim CHEB_DEGREE log2(dim / PANEL) terms per
# secular equation (0.4-0.5 s at dim 51,212; 1.6-1.9 s for the two
# equations of orthogonal dipoles with both transitions populated at
# MAX_BLOCK_DIM, whose whole oracle run takes 4-5 s), a
# few passes of about 4 PANEL near-field terms per root (direct poles and
# Chebyshev proxies, 492 at most at dim 51,212), and the time sum, output
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


def check_budgets(spec: RunSpec, n_modes: int):
    """Check every size budget of a run, before any engine work.

    For engine='oracle' or 'both' the oracle's bath is built, and its
    recurrence horizon is one of the budgets for engine='oracle'; for
    engine='both' the oracle is clipped to it instead.  Returns the bath
    and the end of the oracle's window, or (None, None) for
    engine='analytic'.
    """
    # n_points > MAX_POINTS, decided on the float: past the budget the ratio
    # may not fit an int
    ratio = spec.t_max / spec.dt_out + 1e-9
    if ratio >= MAX_POINTS:
        raise DomainError(f"output grid of {ratio + 1:.3g} points exceeds the budget of "
                          f"{MAX_POINTS}; raise dt_out or lower t_max")
    if spec.engine == "analytic":
        return None, None
    dim = bath.block_dim(spec.config, n_modes)
    if dim > MAX_BLOCK_DIM:
        raise DomainError(f"oracle block of dimension {dim} exceeds the budget of "
                          f"{MAX_BLOCK_DIM}; lower the number of modes")
    b = bath.build_bath(spec.config, n_modes=n_modes)
    horizon = b.recurrence_time()
    t_oracle = spec.t_max
    if t_oracle > horizon:
        if spec.engine == "oracle":
            raise DomainError(f"t_max={spec.t_max:g} exceeds the oracle horizon "
                              f"{horizon:.6g} of {n_modes} modes; raise --modes or "
                              "lower t_max")
        t_oracle = spec.dt_out * np.floor(horizon / spec.dt_out)
    points = n_points(t_oracle, spec.dt_out)
    if points > MAX_ORACLE_POINTS:
        raise DomainError(f"oracle output grid of {points} points exceeds the budget of "
                          f"{MAX_ORACLE_POINTS}; raise dt_out or lower t_max")
    if points * dim > MAX_PROPAGATION_SIZE:
        raise DomainError(f"oracle time sum of {points * dim} terms (points x block "
                          f"dimension) exceeds the budget of {MAX_PROPAGATION_SIZE}; "
                          "raise dt_out or lower t_max")
    return b, t_oracle


def run_spec(spec: RunSpec, n_modes: int):
    """Execute a run: returns (series, trajectory, deviation).

    Every size budget is checked, and the oracle's bath built, before
    either engine starts (``check_budgets``).  ``deviation`` is None
    unless engine='both', in which case it is the maximum amplitude
    difference between the engines over the oracle horizon, to which that
    run's oracle is clipped (both are written to the run log).
    """
    b, t_oracle = check_budgets(spec, n_modes)
    if spec.engine != "analytic" and t_oracle < spec.t_max:
        log.info("oracle horizon %.6g limits the reference run to t=%.6g",
                 b.recurrence_time(), t_oracle)
    if spec.engine != "oracle":
        traj = analytic_trajectory(spec.config, spec.init, spec.t_max, spec.dt_out)
    deviation = None
    if spec.engine != "analytic":
        ref = bath.integrate(spec.config, spec.init, b, t_max=t_oracle, dt_out=spec.dt_out)
        log.info("oracle: %d secular roots, spectral weight defect %.3g, horizon %.6g",
                 ref.meta["n_roots"], ref.meta["weight_defect"], ref.meta["horizon"])
        if spec.engine == "oracle":
            traj = ref
        else:
            k = ref.times.size
            deviation = float(np.max(np.abs(ref.amps - traj.amps[:k])))
            log.info("engine=both: max amplitude deviation %.6g over t in [0, %.6g]",
                     deviation, ref.times[-1])
    series = negativity.entanglement_series(traj)
    return series, traj, deviation
