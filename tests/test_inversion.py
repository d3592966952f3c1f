import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbgpair import bath, inversion
from pbgpair.config import InitialState, SystemConfig, preset_initial
from pbgpair.errors import DomainError
from pbgpair.poles import find_poles
from pbgpair.presets import get_preset
from reference_routes import branch_cut_integral, cut_evaluate_by_panel

PI = math.pi
FIG2B = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                     omega2c=0.2, eta=PI)


def extrapolated_inversion_at_zero(config, init, poles):
    t1, t2 = 2e-5, 1e-5
    s1 = inversion.residue_sum(t1, poles, config, init) \
        + branch_cut_integral(t1, config, init)
    s2 = inversion.residue_sum(t2, poles, config, init) \
        + branch_cut_integral(t2, config, init)
    return 2 * s2 - s1


def test_completeness_small_time_scaling():
    init = preset_initial("unentangled")
    poles = find_poles(FIG2B)
    target = np.array(init.as_tuple())
    for t in (1e-4, 1e-6):
        total = inversion.residue_sum(t, poles, FIG2B, init) \
            + branch_cut_integral(t, FIG2B, init)
        # departure from the initial data is the physical gamma*t drift
        assert np.max(np.abs(total - target)) < 2.0 * FIG2B.gamma1 * t


def test_completeness_random_configs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        w1c = rng.uniform(-1.5, 1.5)
        w12 = rng.uniform(0.1, 0.8)
        config = SystemConfig(
            gamma1=rng.uniform(0.5, 8), gamma2=rng.uniform(0.5, 8),
            omega12=w12, omega1c=w1c, omega2c=w1c - w12,
            eta=rng.choice([PI, PI / 2, rng.uniform(0.2, PI)]),
        )
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        init = InitialState(*v)
        poles = find_poles(config)
        total = extrapolated_inversion_at_zero(config, init, poles)
        assert np.max(np.abs(total - v)) < 1e-6


def test_completeness_exact_time_zero():
    config = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI)
    init = preset_initial("bright")
    poles = find_poles(config)
    total = inversion.residue_sum(0.0, poles, config, init) \
        + branch_cut_integral(0.0, config, init)
    assert np.max(np.abs(total - np.array(init.as_tuple()))) < 1e-9


def test_residue_sum_requires_matching_config():
    poles = find_poles(FIG2B)
    other = SystemConfig(gamma1=5, gamma2=5, omega12=0.4, omega1c=0.6,
                         omega2c=0.2, eta=PI)
    with pytest.raises(DomainError):
        inversion.residue_sum(1.0, poles, other, preset_initial("unentangled"))


def test_near_free_limit_exchange_oscillation():
    # beta -> 0: A1 = cos(g1 t), A3 = -i sin(g1 t)
    config = SystemConfig(gamma1=1.5, gamma2=1.5, omega12=0.4, omega1c=0.6,
                          omega2c=0.2, eta=PI, beta=1e-4)
    init = preset_initial("unentangled")
    times = np.linspace(0.0, 6.0, 13)
    traj = inversion.amplitudes_analytic(times, config, init)
    ref1 = np.cos(config.gamma1 * times)
    ref3 = -1j * np.sin(config.gamma1 * times)
    assert np.max(np.abs(traj.amps[:, 0] - ref1)) < 1e-3
    assert np.max(np.abs(traj.amps[:, 2] - ref3)) < 1e-3
    # second-transition amplitudes are driven only at O(beta^{3/2})
    assert np.max(np.abs(traj.amps[:, [1, 3]])) < 1e-3


def test_analytic_traj_matches_oracle_fig2b_short():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=1500)
    tro = bath.integrate(FIG2B, init, b, t_max=10.0, dt_out=0.5)
    tra = inversion.amplitudes_analytic(tro.times, FIG2B, init)
    assert np.max(np.abs(tro.amps - tra.amps)) < 5e-3
    # residue part alone carries the trajectory at t=10 up to the cut tail
    poles = find_poles(FIG2B)
    res_only = inversion.residue_sum(10.0, poles, FIG2B, init)
    assert np.max(np.abs(res_only - tro.amps[-1])) < 5e-3


def test_cut_integral_decay_slope():
    init = preset_initial("unentangled")
    ts = np.array([500.0, 1000.0, 2000.0, 5000.0])
    cut = inversion.CutIntegrator(FIG2B, init, t_min=float(ts[0]))
    mags = np.array([np.max(np.abs(cut.evaluate(np.array([t])))) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(mags), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.1)


def test_cut_discontinuity_vanishes_without_coupling():
    config = SystemConfig(gamma1=2, gamma2=2, omega12=0.4, omega1c=0.6,
                          omega2c=0.2, eta=PI, beta=1e-8)
    init = preset_initial("unentangled")
    disc = inversion.cut_discontinuity(np.array([0.5, 2.0]), config, init)
    assert np.max(np.abs(disc)) < 1e-10


def test_cut_integrator_matches_reference_quadrature():
    init = preset_initial("bright")
    config = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI)
    cut = inversion.CutIntegrator(config, init, t_min=0.5)
    for t in (0.5, 3.0, 12.0):
        fast = cut.evaluate(np.array([t]))[0]
        ref = branch_cut_integral(t, config, init)
        assert np.max(np.abs(fast - ref)) < 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 5.0),
       st.sampled_from(["sorted", "shuffled", "single", "linear"]))
def test_cut_evaluate_matches_per_panel_reference(seed, t_min, grid):
    # blocks of live nodes against every node of every panel, for times
    # from t_min to 1e4 t_min in any order
    rng = np.random.default_rng(seed)
    w1c = rng.uniform(-1.5, 1.5)
    w12 = rng.uniform(0.0, 0.8)
    config = SystemConfig(gamma1=rng.uniform(0.1, 8), gamma2=rng.uniform(0.1, 8),
                          omega12=w12, omega1c=w1c, omega2c=w1c - w12,
                          eta=rng.choice([0.0, PI / 2, PI, rng.uniform(0.0, PI)]))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    init = InitialState(*(v / np.linalg.norm(v)))
    cut = inversion.CutIntegrator(config, init, t_min=t_min)
    n = int(rng.integers(2, 3000))
    times = {"sorted": np.sort(t_min * 10.0 ** rng.uniform(0, 4, n)),
             "shuffled": t_min * 10.0 ** rng.uniform(0, 4, n),
             "single": np.array([t_min * 10.0 ** rng.uniform(0, 4)]),
             "linear": np.linspace(t_min, 1e4 * t_min, n)}[grid]
    times[rng.integers(times.size)] = t_min
    ref = cut_evaluate_by_panel(cut, times)
    assert np.all(np.abs(cut.evaluate(times) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def test_amplitudes_analytic_memory_peak():
    # the cut is evaluated in blocks of EVAL_BLOCK_ELEMS damping factors
    # (29.7 MB); a (points x panel nodes) damping array per panel peaks at 77 MB
    p = get_preset("fig2b")
    times = np.linspace(0.0, p.t_max, 100_001)
    tracemalloc.start()
    try:
        inversion.amplitudes_analytic(times, p.config, p.init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45e6


def test_amplitudes_analytic_grid_validation():
    init = preset_initial("unentangled")
    with pytest.raises(DomainError):
        inversion.amplitudes_analytic(np.array([1.0, 0.5]), FIG2B, init)
    with pytest.raises(DomainError):
        inversion.amplitudes_analytic(np.array([-1.0, 0.5]), FIG2B, init)
    with pytest.raises(DomainError):
        inversion.CutIntegrator(FIG2B, init, t_min=0.0)


def test_trajectory_invariants():
    init = preset_initial("bright")
    times = np.arange(0.0, 40.5, 0.5)
    traj = inversion.amplitudes_analytic(times, FIG2B, init)
    assert abs(traj.field_prob[0]) < 1e-12
    assert np.all(traj.field_prob > -1e-9)
    assert np.all(traj.field_prob < 1 + 1e-9)
    assert np.array_equal(traj.amps[0], np.array(init.as_tuple()))


def test_localized_pole_signal_has_constant_envelope():
    # contributions of the purely imaginary poles keep their modulus
    init = preset_initial("unentangled")
    poles = find_poles(FIG2B)
    dyn = [r for r in poles.dynamic() if abs(r.x.real) < 1e-12]
    times = np.linspace(100.0, 130.0, 31)
    total = np.zeros((times.size, 4), dtype=complex)
    for r in dyn:
        contrib = inversion.residue_numerators(r, FIG2B, init) * r.weight
        total += np.exp(np.outer(times, r.x)) * contrib
    env = np.abs(total[:, 0])
    beat = env.max() - env.min()
    assert beat > 1e-3  # genuine beating between two tones
    single = np.abs(np.exp(times * dyn[0].x) *
                    (inversion.residue_numerators(dyn[0], FIG2B, init) * dyn[0].weight)[0])
    assert single.max() - single.min() < 1e-12


def test_exchange_pole_on_the_branch_point():
    # gamma1 = omega1c puts x = i*gamma1 on the branch point; the exchange
    # pole does not jump across the cut, so the cut integrand stays finite
    config = SystemConfig(gamma1=1.0, gamma2=1.0, omega12=0.4, omega1c=1.0,
                          omega2c=0.6, eta=1.0)
    init = InitialState(1, 0, 0, 0)
    traj = inversion.amplitudes_analytic(np.array([1e-5, 2e-5]), config, init)
    limit = 2 * traj.amps[0] - traj.amps[1]
    assert np.max(np.abs(limit - np.array(init.as_tuple()))) < 1e-6
