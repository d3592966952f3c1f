import math

import numpy as np
import pytest

from pbgpair import bath, kernel
from pbgpair.config import InitialState, SystemConfig, preset_initial
from pbgpair.errors import (
    DiscretizationError,
    DomainError,
    RecurrenceHorizonExceeded,
    StepSizeError,
)
from reference_routes import integrate_rk4

PI = math.pi
FIG2B = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                     omega2c=0.2, eta=PI)


def test_build_bath_resolvent_reproduction():
    b = bath.build_bath(FIG2B, n_modes=4000)
    xs = np.array([1.0 + 0j, 0.5 + 0j, 2.0 + 0j, 1.0 + 1.0j])
    target = kernel.beta_prime(xs, FIG2B.omega1c)
    err = np.max(np.abs(b.resolvent(xs) - target))
    assert err <= 1e-3


def test_build_bath_without_tail_misses_kernel():
    with pytest.raises(DiscretizationError):
        bath.build_bath(FIG2B, n_modes=4000, tail=False)


def test_build_bath_refinement_does_not_worsen():
    # the dense-grid error saturates against the fixed tail quadrature at
    # the few-1e-5 level; refinement must never degrade the reproduction
    errs = []
    for n in (1000, 2000):
        b = bath.build_bath(FIG2B, n_modes=n)
        x = np.array([1.0 + 0j])
        errs.append(abs(b.resolvent(x)[0] - kernel.beta_prime(1.0, FIG2B.omega1c)))
    assert errs[1] <= errs[0] + 1e-6
    assert errs[0] < 2e-4


def test_build_bath_domain_checks():
    with pytest.raises(DomainError):
        bath.build_bath(FIG2B, n_modes=50)
    with pytest.raises(DomainError):
        bath.build_bath(FIG2B, n_modes=500, omega_max=10.0)


def test_near_free_limit_rabi_oscillation():
    # beta -> 0 with the band edge scaled along: pure exchange Rabi flopping
    beta = 1e-4
    config = SystemConfig(gamma1=1.5, gamma2=1.5, omega12=0.4 * beta,
                          omega1c=0.6 * beta, omega2c=0.2 * beta, eta=PI,
                          beta=beta)
    init = InitialState(1, 0, 0, 0)
    b = bath.build_bath(config, n_modes=400)
    tr = bath.integrate(config, init, b, t_max=10.0, dt_out=0.5)
    ref1 = np.cos(config.gamma1 * tr.times)
    ref3 = -1j * np.sin(config.gamma1 * tr.times)
    assert np.max(np.abs(tr.amps[:, 0] - ref1)) < 2e-3
    assert np.max(np.abs(tr.amps[:, 2] - ref3)) < 2e-3
    assert np.max(tr.field_prob) < 1e-3


def test_orthogonal_dipoles_exact_null():
    config = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI / 2)
    init = InitialState(1, 0, 0, 0)
    b = bath.build_bath(config, n_modes=600)
    tr = bath.integrate(config, init, b, t_max=20.0, dt_out=1.0)
    assert np.max(np.abs(tr.amps[:, [1, 3]])) == 0.0


def test_norm_conservation_default_path():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=800)
    tr = bath.integrate(FIG2B, init, b, t_max=30.0, dt_out=0.5, store_modes=True)
    probs = tr.meta["mode_probs"]
    norms = np.sum(np.abs(tr.amps) ** 2, axis=1) + probs.sum(axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_rk4_agrees_with_unitary_path():
    init = preset_initial("bright")
    config = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI)
    b = bath.build_bath(config, n_modes=600)
    te = bath.integrate(config, init, b, t_max=4.0, dt_out=0.5)
    tr = integrate_rk4(config, init, b, t_max=4.0, dt=2e-4, dt_out=0.5)
    assert np.max(np.abs(te.amps - tr.amps)) < 1e-5


def test_rk4_step_size_guard():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=300)
    with pytest.raises(StepSizeError):
        integrate_rk4(FIG2B, init, b, t_max=4.0, dt=0.1, dt_out=2.0)


def test_recurrence_horizon_guard():
    b = bath.build_bath(FIG2B, n_modes=150)
    with pytest.raises(RecurrenceHorizonExceeded):
        bath.integrate(FIG2B, preset_initial("unentangled"), b, t_max=1e5)


def test_bath_size_convergence():
    init = preset_initial("unentangled")
    runs = []
    for n in (1000, 2000):
        b = bath.build_bath(FIG2B, n_modes=n)
        runs.append(bath.integrate(FIG2B, init, b, t_max=20.0, dt_out=0.5).amps)
    assert np.max(np.abs(runs[0] - runs[1])) < 1e-3


def test_mode_spectrum_probabilities():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=800)
    tr = bath.integrate(FIG2B, init, b, t_max=10.0, dt_out=1.0, store_modes=True)
    nu, p0 = bath.mode_spectrum(tr, b, 0.0)
    assert np.max(p0) < 1e-20
    nu, p = bath.mode_spectrum(tr, b, 10.0)
    assert p.sum() == pytest.approx(tr.field_prob[-1], abs=1e-6)
    with pytest.raises(DomainError):
        bath.mode_spectrum(tr, b, 0.37)
    tr2 = bath.integrate(FIG2B, init, b, t_max=2.0, dt_out=1.0)
    with pytest.raises(DomainError):
        bath.mode_spectrum(tr2, b, 1.0)


def test_deep_gap_spectrum_line_positions():
    # strong exchange pushes the symmetric level into the band: the photon
    # leaves in a line at nu = omega1c + gamma, not at the edge
    config = SystemConfig(gamma1=5, gamma2=5, omega12=1.0, omega1c=-1.6,
                          omega2c=-2.6, eta=PI / 2)
    init = preset_initial("bright")
    b = bath.build_bath(config, n_modes=1200)
    tr = bath.integrate(config, init, b, t_max=40.0, dt_out=2.0, store_modes=True)
    nu, p = bath.mode_spectrum(tr, b, 40.0)
    total = p.sum()
    line = config.omega1c + config.gamma1
    assert p[np.abs(nu - line) < 1.6].sum() > 0.55 * total
    assert p[nu < 1.0].sum() < 0.25 * total

    # weak exchange keeps the shifted level inside the gap: the leaked
    # radiation is edge-weighted instead
    config2 = SystemConfig(gamma1=1.0, gamma2=1.0, omega12=1.0, omega1c=-1.6,
                           omega2c=-2.6, eta=PI / 2)
    b2 = bath.build_bath(config2, n_modes=1200)
    tr2 = bath.integrate(config2, init, b2, t_max=40.0, dt_out=2.0, store_modes=True)
    nu2, p2 = bath.mode_spectrum(tr2, b2, 40.0)
    assert p2[nu2 < 1.0].sum() > 0.4 * p2.sum()
