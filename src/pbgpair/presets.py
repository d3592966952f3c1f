"""Named runs of the paper's figures and dressed-state tables: a series
preset (``fig*``) is the :class:`RunSpec` of its run file, a pole preset
(``poles*``) the :class:`SystemConfig` whose table the ``poles`` verb writes."""

from __future__ import annotations

import math

from .config import RunSpec, SystemConfig, preset_initial
from .errors import UnknownPreset

PI = math.pi
DT_OUT = 0.5  # the output spacing of every series preset


def _cfg(gamma, eta, w1c, w2c):
    return SystemConfig(
        gamma1=gamma, gamma2=gamma, omega12=w1c - w2c,
        omega1c=w1c, omega2c=w2c, eta=eta,
    )


_PRESETS = {
    # unentangled start, anti-parallel dipoles, levels above the edge
    "fig2a": RunSpec(_cfg(1.5, PI, 0.6, 0.2), preset_initial("unentangled"), 300.0, DT_OUT),
    "fig2b": RunSpec(_cfg(6.0, PI, 0.6, 0.2), preset_initial("unentangled"), 1200.0, DT_OUT),
    "fig2c": RunSpec(_cfg(10.0, PI, 0.6, 0.2), preset_initial("unentangled"), 3200.0, DT_OUT),
    # bright start, anti-parallel dipoles, levels inside the gap
    "fig4a": RunSpec(_cfg(1.5, PI, -0.6, -1.0), preset_initial("bright"), 200.0, DT_OUT),
    "fig4b": RunSpec(_cfg(6.0, PI, -0.6, -1.0), preset_initial("bright"), 1200.0, DT_OUT),
    "fig4c": RunSpec(_cfg(10.0, PI, -0.6, -1.0), preset_initial("bright"), 2500.0, DT_OUT),
    # bright start, orthogonal dipoles
    "fig5a": RunSpec(_cfg(1.5, PI / 2, -0.6, -1.0), preset_initial("bright"), 200.0, DT_OUT),
    "fig5b": RunSpec(_cfg(6.0, PI / 2, -0.6, -1.0), preset_initial("bright"), 1200.0, DT_OUT),
    "fig5c": RunSpec(_cfg(10.0, PI / 2, -0.6, -1.0), preset_initial("bright"), 4200.0, DT_OUT),
    # edge-position ladder at fixed exchange strength; fig7a and fig7b
    # differ only in omega2c, which the bright orthogonal start never
    # populates, so their series are identical (to 8.6e-16)
    "fig7a": RunSpec(_cfg(5.0, PI / 2, 0.6, 0.2), preset_initial("bright"), 500.0, DT_OUT),
    "fig7b": RunSpec(_cfg(5.0, PI / 2, 0.6, -0.4), preset_initial("bright"), 500.0, DT_OUT),
    "fig7c": RunSpec(_cfg(5.0, PI / 2, -0.6, -1.0), preset_initial("bright"), 500.0, DT_OUT),
    "fig7d": RunSpec(_cfg(5.0, PI / 2, -1.6, -2.6), preset_initial("bright"), 500.0, DT_OUT),
    # dressed-state tables
    "poles3a": _cfg(6.0, PI / 2, 0.6, 0.2),
    "poles3b": _cfg(6.0, PI, 0.6, 0.2),
    "poles6a": _cfg(10.0, PI / 2, -0.6, -1.0),
    "poles6b": _cfg(6.0, PI, -0.6, -1.0),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> RunSpec | SystemConfig:
    """The run of a series preset, or the configuration of a pole preset."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
