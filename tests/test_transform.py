import math

import numpy as np
import pytest

from pbgpair import transform
from pbgpair.config import InitialState, SystemConfig, preset_initial
from pbgpair.errors import SingularSystem
from reference_routes import (beta_prime, printed_closed_form, spectral_functions,
                              transform_amplitudes, uv_solution)

FIG2B = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                     omega2c=0.2, eta=math.pi)


def random_config(rng):
    w1c = rng.uniform(-2, 2)
    w12 = rng.uniform(0.1, 1.0)
    return SystemConfig(
        gamma1=rng.uniform(0, 8), gamma2=rng.uniform(0, 8),
        omega12=w12, omega1c=w1c, omega2c=w1c - w12,
        eta=rng.uniform(0, math.pi),
    )


def random_init(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return InitialState(*v)


def test_matrix_solve_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(12):
        cfg = random_config(rng)
        init = random_init(rng)
        xs = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = beta_prime(xs, cfg.omega1c)
        a = transform.solve_system(xs, cfg, init, g)
        b = uv_solution(xs, cfg, init, g)
        assert np.max(np.abs(a - b)) < 1e-12


def test_free_atom_limit():
    cfg = SystemConfig(gamma1=0, gamma2=0, omega12=0.4, omega1c=0.6,
                       omega2c=0.2, eta=math.pi)
    init = InitialState(1, 0, 0, 0)
    x = np.array([0.7 + 0.2j])
    sol = transform.solve_system(x, cfg, init, np.array([0.0 + 0.0j]))
    assert sol[0, 0] == pytest.approx(1.0 / x[0], rel=1e-14)
    assert np.allclose(sol[0, 1:], 0.0)


def test_orthogonal_dipoles_null_second_transition():
    cfg = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                       omega2c=0.2, eta=math.pi / 2)
    init = InitialState(1, 0, 0, 0)
    rng = np.random.default_rng(1)
    xs = rng.normal(size=8) + 1j * rng.normal(size=8)
    g = beta_prime(xs, cfg.omega1c)
    sol = transform.solve_system(xs, cfg, init, g)
    assert np.max(np.abs(sol[:, [1, 3]])) == 0.0


def test_transform_amplitudes_against_literal_system():
    # independent oracle: write the linear system down from scratch
    cfg = FIG2B
    init = preset_initial("bright")
    x = 2.0 + 0.0j
    ta = transform_amplitudes(x, cfg, init)
    g = beta_prime(x, cfg.omega1c)
    c = math.cos(cfg.eta)
    xp = x - 1j * cfg.omega12
    ig1, ig2 = 1j * cfg.gamma1, 1j * cfg.gamma2
    m = np.array([
        [x + g, g * c, ig1 + g, g * c],
        [g * c, xp + g, g * c, ig2 + g],
        [ig1 + g, g * c, x + g, g * c],
        [g * c, ig2 + g, g * c, xp + g],
    ])
    ref = np.linalg.solve(m, np.array(init.as_tuple()))
    got = np.array([ta.a1x, ta.a2x, ta.a3x, ta.a4x])
    assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))


def test_transform_amplitudes_exchange_symmetry():
    cfg = FIG2B
    rng = np.random.default_rng(5)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    x = 1.3 + 0.7j
    a = transform_amplitudes(x, cfg, InitialState(*v))
    b = transform_amplitudes(x, cfg, InitialState(v[2], v[3], v[0], v[1]))
    assert b.a1x == pytest.approx(a.a3x, abs=1e-14)
    assert b.a3x == pytest.approx(a.a1x, abs=1e-14)
    assert b.a2x == pytest.approx(a.a4x, abs=1e-14)
    assert b.a4x == pytest.approx(a.a2x, abs=1e-14)


def test_singular_system_at_exchange_pole():
    with pytest.raises(SingularSystem):
        transform_amplitudes(6j, FIG2B, preset_initial("unentangled"))


def test_spectral_functions_prefactor_roots():
    g1, g2, h1, h2 = spectral_functions(6j, FIG2B)
    assert abs(g1) < 1e-9 and abs(g2) < 1e-9
    h1_at = spectral_functions(6.4j, FIG2B)[2]
    assert abs(h1_at) < 1e-9


def test_spectral_functions_level_factor_root():
    vals = spectral_functions(-5.6j, FIG2B)
    assert all(abs(v) < 1e-9 for v in vals)


def test_printed_closed_form_anchor_and_logged_discrepancy():
    # the transcribed closed form anchors only the A1 component for the
    # bare |a1 a6> start; elsewhere its defects are logged, not asserted
    rng = np.random.default_rng(21)
    xs = rng.normal(size=6) + 1j * rng.normal(size=6)
    init = preset_initial("unentangled")
    g = beta_prime(xs, FIG2B.omega1c)
    truth = transform.solve_system(xs, FIG2B, init, g)
    anchored = np.array([printed_closed_form(x, FIG2B, init)
                         for x in xs])
    assert np.max(np.abs(anchored[:, 0] - truth[:, 0])) < 1e-10

    generic = random_init(rng)
    truth_g = transform.solve_system(xs, FIG2B, generic, g)
    printed_g = np.array([printed_closed_form(x, FIG2B, generic)
                          for x in xs])
    gap = np.max(np.abs(printed_g - truth_g), axis=0)
    print(f"\nprinted closed form vs solve, per-component max gap: "
          f"{np.array2string(gap, precision=3)}")
    assert np.max(gap) > 1e-3  # the defects are real, not rounding


def test_spectral_functions_interference_root():
    # (1 + 2 beta') vanishes at x = i (omega1c - 4)
    g1 = spectral_functions(-3.4j, FIG2B)[0]
    assert abs(g1) < 1e-9
    g2 = spectral_functions(-3.4j, FIG2B)[1]
    assert abs(g2) > 1.0
