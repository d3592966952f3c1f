"""Named run configurations for the figure and pole-table scenarios."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .config import InitialState, SystemConfig, preset_initial
from .errors import UnknownPreset

PI = math.pi


@dataclass(frozen=True)
class FigurePreset:
    name: str
    config: SystemConfig
    init: InitialState
    t_max: float
    kind: str = "series"  # 'series' -> entanglement CSV, 'poles' -> pole CSV
    dt_out: ClassVar[float] = 0.5  # the output spacing of every preset


def _cfg(gamma, eta, w1c, w2c):
    return SystemConfig(
        gamma1=gamma, gamma2=gamma, omega12=w1c - w2c,
        omega1c=w1c, omega2c=w2c, eta=eta,
    )


def _series(name, gamma, eta, w1c, w2c, initial, t_max):
    return FigurePreset(
        name=name, config=_cfg(gamma, eta, w1c, w2c),
        init=preset_initial(initial), t_max=t_max,
    )


def _poles(name, gamma, eta, w1c, w2c):
    return FigurePreset(
        name=name, config=_cfg(gamma, eta, w1c, w2c),
        init=preset_initial("unentangled"), t_max=0.0, kind="poles",
    )


_PRESETS = {
    p.name: p
    for p in [
        # unentangled start, anti-parallel dipoles, levels above the edge
        _series("fig2a", 1.5, PI, 0.6, 0.2, "unentangled", 300.0),
        _series("fig2b", 6.0, PI, 0.6, 0.2, "unentangled", 1200.0),
        _series("fig2c", 10.0, PI, 0.6, 0.2, "unentangled", 3200.0),
        # bright start, anti-parallel dipoles, levels inside the gap
        _series("fig4a", 1.5, PI, -0.6, -1.0, "bright", 200.0),
        _series("fig4b", 6.0, PI, -0.6, -1.0, "bright", 1200.0),
        _series("fig4c", 10.0, PI, -0.6, -1.0, "bright", 2500.0),
        # bright start, orthogonal dipoles
        _series("fig5a", 1.5, PI / 2, -0.6, -1.0, "bright", 200.0),
        _series("fig5b", 6.0, PI / 2, -0.6, -1.0, "bright", 1200.0),
        _series("fig5c", 10.0, PI / 2, -0.6, -1.0, "bright", 4200.0),
        # edge-position ladder at fixed exchange strength; fig7a and fig7b
        # differ only in omega2c, which the bright orthogonal start never
        # populates, so their series are identical (to 8.6e-16)
        _series("fig7a", 5.0, PI / 2, 0.6, 0.2, "bright", 500.0),
        _series("fig7b", 5.0, PI / 2, 0.6, -0.4, "bright", 500.0),
        _series("fig7c", 5.0, PI / 2, -0.6, -1.0, "bright", 500.0),
        _series("fig7d", 5.0, PI / 2, -1.6, -2.6, "bright", 500.0),
        # dressed-state tables
        _poles("poles3a", 6.0, PI / 2, 0.6, 0.2),
        _poles("poles3b", 6.0, PI, 0.6, 0.2),
        _poles("poles6a", 10.0, PI / 2, -0.6, -1.0),
        _poles("poles6b", 6.0, PI, -0.6, -1.0),
    ]
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> FigurePreset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
