"""Run orchestration shared by the command line and the sweep driver.  A
run is one :class:`RunSpec`; it is refused, if at all, before either engine starts."""

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
# point (21 MB for the 11 MB text of fig2b).  The oracle never forms its
# (dim x dim) generator, and its work arrays are a block of bath.BLOCK
# roots long: its memory is a few hundred bytes per mode for the
# far-field interpolants, the near-field sources, the lattice start and
# the roots (a 47 MB process at dim 51,212, 64 MB at MAX_BLOCK_DIM).  Its
# work is the far-field build once per spectrum, an upward pass of about
# 45 barycentric terms per mode and the far sums, CHEB_DEGREE + 1 points
# per panel times about 14 far sources per mode at dim 51,212, growing as
# log2(dim / PANEL) (0.08 s at dim 51,212; 0.15 s for the two equations
# of orthogonal dipoles with both transitions populated at MAX_BLOCK_DIM,
# whose whole oracle run takes 1.3-1.4 s), a few passes of
# about 4 PANEL near-field terms per root (direct poles and Chebyshev
# proxies, 492 at most at dim 51,212), and the time sum, two exponentials
# per root and output points x dim complex multiply-adds
# (MAX_PROPAGATION_SIZE; 0.3 s at 3.3e8).  The oracle's output grid is a
# cross-check of a run's window and is capped at MAX_ORACLE_POINTS, six
# times the longest preset grid (fig5c, 8,401 points).
MAX_POINTS = 1_000_000
MAX_BLOCK_DIM = 100_000
MAX_PROPAGATION_SIZE = 1_000_000_000
MAX_ORACLE_POINTS = 50_000


def check_budgets(spec: RunSpec):
    """Check every size budget of a run, before any engine work.

    For engine='oracle' or 'both' the oracle's bath of ``spec.n_modes``
    modes is built, and its recurrence horizon is one of the budgets for
    engine='oracle'; for engine='both' the oracle is clipped to it
    instead.  Returns the bath and the end of the oracle's window, or
    (None, None) for engine='analytic'.
    """
    # n_points > MAX_POINTS, decided on the float: past the budget the ratio
    # may not fit an int
    ratio = spec.t_max / spec.dt_out + 1e-9
    if ratio >= MAX_POINTS:
        raise DomainError(f"output grid of {ratio + 1:.3g} points exceeds the budget of "
                          f"{MAX_POINTS}; raise dt_out or lower t_max")
    if spec.engine == "analytic":
        return None, None
    dim = bath.block_dim(spec.config, spec.n_modes)
    if dim > MAX_BLOCK_DIM:
        raise DomainError(f"oracle block of dimension {dim} exceeds the budget of "
                          f"{MAX_BLOCK_DIM}; lower the number of modes")
    b = bath.build_bath(spec.config, n_modes=spec.n_modes)
    horizon = b.recurrence_time()
    t_oracle = spec.t_max
    if t_oracle > horizon:
        if spec.engine == "oracle":
            raise DomainError(f"t_max={spec.t_max:g} exceeds the oracle horizon "
                              f"{horizon:.6g} of {spec.n_modes} modes; raise --modes or "
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


def run_spec(spec: RunSpec):
    """Execute a run: returns (series, trajectory, deviation).

    Every size budget is checked, and the oracle's bath built, before
    either engine starts (``check_budgets``).  ``deviation`` is None
    unless engine='both', in which case it is the maximum amplitude
    difference between the engines over the oracle horizon, to which that
    run's oracle is clipped (both are written to the run log).
    """
    b, t_oracle = check_budgets(spec)
    if spec.engine != "analytic" and t_oracle < spec.t_max:
        log.info("oracle horizon %.6g limits the reference run to t=%.6g",
                 b.recurrence_time(), t_oracle)
    if spec.engine != "oracle":
        traj = inversion.amplitudes_analytic(time_grid(spec.t_max, spec.dt_out), spec.config,
                                             spec.init)
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
