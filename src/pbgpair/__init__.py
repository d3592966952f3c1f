"""Entanglement dynamics of two V-type atoms near a photonic band edge.

Core surface: configuration records (:mod:`pbgpair.config`), the
symmetric-sector polynomials in S = sqrt(-i x - omega1c), in which the
band-edge kernel is beta' = 1 / (i S), and the pole tables
(:mod:`pbgpair.poles`), the closed-form inversion
(:mod:`pbgpair.inversion`), a discretized-bath reference integrator
(:mod:`pbgpair.bath`) and two-atom negativity (:mod:`pbgpair.negativity`).
:mod:`pbgpair.transform` holds the previous inversion route, kept for
the tests' cross-check.
"""

from .config import (
    AmplitudeTrajectory,
    InitialState,
    SystemConfig,
    parse_run_file,
    preset_initial,
)

__all__ = [
    "AmplitudeTrajectory",
    "InitialState",
    "SystemConfig",
    "parse_run_file",
    "preset_initial",
]

__version__ = "0.1.0"
