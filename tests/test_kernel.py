import math

import numpy as np
import pytest
from scipy.integrate import quad

from pbgpair.inversion import _beta_prime_sheet
from pbgpair.config import SystemConfig
from pbgpair.errors import BranchPointError, DomainError
from reference_routes import beta_prime, kernel_values, memory_kernel, spectral_density

CFG0 = SystemConfig(gamma1=1, gamma2=1, omega12=0.0, omega1c=0.0,
                    omega2c=0.0, eta=0.0)


def test_beta_prime_at_unit_point():
    # sqrt(-i) on the principal branch gives e^{-i pi/4}
    val = beta_prime(1.0, 0.0)
    assert val == pytest.approx(0.7071067811865475 - 0.7071067811865475j, abs=1e-12)


def test_beta_prime_localized_root_value():
    # -i x - w1c = -4 exactly; principal sqrt from above gives 2i
    val = beta_prime(-3.4j, 0.6)
    assert val == pytest.approx(-0.5, abs=1e-12)


def test_beta_prime_branch_point_error():
    with pytest.raises(BranchPointError):
        beta_prime(0.6j, 0.6)
    with pytest.raises(BranchPointError):
        _beta_prime_sheet(0.6j, 0.6)


def test_sheet_value_on_lower_axis_is_other_branch():
    assert _beta_prime_sheet(-3.4j, 0.6) == pytest.approx(0.5, abs=1e-12)


def test_kernel_values_angle_dependence():
    cfg90 = SystemConfig(1, 1, 0.0, 0.0, 0.0, math.pi / 2)
    g11, g22, g12 = kernel_values(1.0 + 0.3j, cfg90)
    assert g11 == g22
    assert g12 == 0.0
    cfg180 = SystemConfig(1, 1, 0.0, 0.0, 0.0, math.pi)
    g11, _, g12 = kernel_values(0.7 - 0.2j, cfg180)
    assert g12 == pytest.approx(-g11, abs=0)
    g11, _, g12 = kernel_values(1.0, CFG0)
    assert g12 == g11 == pytest.approx(0.7071067811865475 - 0.7071067811865475j, abs=1e-12)


def test_gamma12_odd_about_orthogonal():
    x = 0.8 + 0.1j
    for eta in (0.3, 1.0, 1.4):
        a = kernel_values(x, SystemConfig(1, 1, 0, 0, 0, eta))[2]
        b = kernel_values(x, SystemConfig(1, 1, 0, 0, 0, math.pi - eta))[2]
        assert b == pytest.approx(-a, rel=1e-12)


def test_branch_continuity_above_discontinuity_below():
    w1c = 0.6
    y_above = w1c + 1.3
    left = beta_prime(complex(-1e-9, y_above), w1c)
    right = beta_prime(complex(+1e-9, y_above), w1c)
    assert abs(left - right) < 1e-8
    y_below = w1c - 2.0
    left = beta_prime(complex(-1e-9, y_below), w1c)
    right = beta_prime(complex(+1e-9, y_below), w1c)
    assert abs(left - right) > 0.5 * abs(left)


def test_sheet_continuity_below_cut_across_ray():
    w1c = 0.6
    y_below = w1c - 2.0
    left = _beta_prime_sheet(complex(-1e-9, y_below), w1c)
    right = _beta_prime_sheet(complex(+1e-9, y_below), w1c)
    assert abs(left - right) < 1e-8
    # across the leftward horizontal ray the sheet flips sign
    up = _beta_prime_sheet(complex(-2.0, w1c + 1e-9), w1c)
    dn = _beta_prime_sheet(complex(-2.0, w1c - 1e-9), w1c)
    assert abs(up + dn) < 1e-8


def test_spectral_density_shape():
    assert spectral_density(-0.5) == 0.0
    assert spectral_density(0.0) == 0.0
    assert spectral_density(1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def _resolvent(x, cfg):
    # integrate in u = sqrt(nu): J(nu) dnu = (2/pi) du; truncation at U
    # leaves a tail below (2/pi)/U ~ 6e-8
    def fre(u):
        nu = u * u
        return (2.0 / math.pi * 1.0 / (x + 1j * (nu - cfg.omega1c))).real

    def fim(u):
        nu = u * u
        return (2.0 / math.pi * 1.0 / (x + 1j * (nu - cfg.omega1c))).imag

    tot = 0.0 + 0.0j
    for a, b in ((0, 3.0), (3.0, 30.0), (30.0, 300.0), (300.0, 1e4), (1e4, 1e7)):
        tot += quad(fre, a, b, limit=300)[0] + 1j * quad(fim, a, b, limit=300)[0]
    return tot


def test_spectral_density_resolvent_identity_unit_point():
    assert abs(_resolvent(1.0 + 0j, CFG0) - beta_prime(1.0, 0.0)) < 1e-6


def test_spectral_density_resolvent_identity_random_points():
    cfg = SystemConfig(1, 1, 0.4, 0.6, 0.2, math.pi)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = complex(rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0))
        assert abs(_resolvent(x, cfg) - beta_prime(x, cfg.omega1c)) < 1e-6


def test_memory_kernel_envelope_and_phase():
    cfg = SystemConfig(1, 1, 0.4, 0.6, 0.2, math.pi)
    taus = np.array([0.2, 1.0, 3.7, 12.0])
    vals = np.array([memory_kernel(t, cfg) for t in taus])
    envelope = np.abs(vals) * np.sqrt(taus)
    assert np.allclose(envelope, 1.0 / math.sqrt(math.pi), rtol=1e-13)
    phase = np.angle(vals) - cfg.omega1c * taus
    phase = np.unwrap(phase)
    assert np.allclose(phase, phase[0], atol=1e-12)


def test_memory_kernel_defining_integral():
    cfg = SystemConfig(1, 1, 0.4, 0.6, 0.2, math.pi)
    tau = 0.9
    # K(tau) = e^{i w1c tau} (2/pi) int_0^inf e^{-i u^2 tau} du; the tail
    # beyond U is added from its leading stationary-phase form, keeping the
    # oracle independent of the closed form under test.
    U = 80.0

    def fre(u):
        return math.cos(u * u * tau)

    def fim(u):
        return -math.sin(u * u * tau)

    n_half = int(U * U * tau / math.pi)
    breaks = np.concatenate([[0.0],
                             np.sqrt(math.pi * np.arange(1, n_half + 1) / tau), [U]])
    breaks = np.unique(breaks[breaks <= U])
    val = 0.0 + 0.0j
    for a, b in zip(breaks[:-1], breaks[1:]):
        val += quad(fre, a, b, limit=50)[0] + 1j * quad(fim, a, b, limit=50)[0]
    val += np.exp(-1j * U * U * tau) / (2j * U * tau)
    val *= 2.0 / math.pi * np.exp(1j * cfg.omega1c * tau)
    assert abs(val - memory_kernel(tau, cfg)) < 1e-4


def test_memory_kernel_laplace_transform_matches_kernel():
    cfg = SystemConfig(1, 1, 0.4, 0.0, -0.4, math.pi)
    x = 1.0

    def fre(tau):
        return (memory_kernel(tau, cfg) * np.exp(-x * tau)).real

    def fim(tau):
        return (memory_kernel(tau, cfg) * np.exp(-x * tau)).imag

    val = quad(fre, 0, 60, limit=400, points=[1e-6, 0.1])[0] \
        + 1j * quad(fim, 0, 60, limit=400, points=[1e-6, 0.1])[0]
    assert abs(val - beta_prime(1.0, 0.0)) < 1e-6


def test_memory_kernel_domain():
    with pytest.raises(DomainError):
        memory_kernel(0.0, CFG0)
    with pytest.raises(DomainError):
        memory_kernel(-1.0, CFG0)
