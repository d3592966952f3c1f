import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.special import wofz

from pbgpair import bath, inversion, poles, transform
from pbgpair.cli import main
from pbgpair.config import InitialState, SystemConfig, preset_initial, time_grid
from pbgpair.errors import CompletenessError, DegeneratePole, DomainError, NumericalError
from pbgpair.poles import find_poles
from pbgpair.presets import get_preset
from reference_routes import (CUT_ABS_TOL, beta_prime, branch_cut_integral, closed_form_reference,
                              pole_terms)

PI = math.pi
FIG2B = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                     omega2c=0.2, eta=PI)


def extrapolated_inversion_at_zero(config, init, poles):
    t1, t2 = 2e-5, 1e-5
    s1 = transform.residue_sum(t1, poles, config, init) \
        + branch_cut_integral(t1, config, init)
    s2 = transform.residue_sum(t2, poles, config, init) \
        + branch_cut_integral(t2, config, init)
    return 2 * s2 - s1


def test_completeness_small_time_scaling():
    init = preset_initial("unentangled")
    poles = find_poles(FIG2B)
    target = np.array(init.as_tuple())
    for t in (1e-4, 1e-6):
        total = transform.residue_sum(t, poles, FIG2B, init) \
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
    total = transform.residue_sum(0.0, poles, config, init) \
        + branch_cut_integral(0.0, config, init)
    assert np.max(np.abs(total - np.array(init.as_tuple()))) < 1e-9


def test_residue_sum_requires_matching_config():
    poles = find_poles(FIG2B)
    other = SystemConfig(gamma1=5, gamma2=5, omega12=0.4, omega1c=0.6,
                         omega2c=0.2, eta=PI)
    with pytest.raises(DomainError):
        transform.residue_sum(1.0, poles, other, preset_initial("unentangled"))


def test_near_free_limit_exchange_oscillation():
    # exchange and detunings 1/s times the band-edge coupling, times of
    # order s: A1 = cos(g1 t), A3 = -i sin(g1 t), off by O(s^{3/2}) (1.3e-4
    # here); s keeps the levels within poles.MAX_DETUNING of the edge
    s = 1e-3
    config = SystemConfig(gamma1=1.5 / s, gamma2=1.5 / s, omega12=0.4 / s,
                          omega1c=0.6 / s, omega2c=0.2 / s, eta=PI)
    init = preset_initial("unentangled")
    times = np.linspace(0.0, 6.0, 13) * s
    traj = inversion.amplitudes_analytic(times, config, init)
    ref1 = np.cos(config.gamma1 * times)
    ref3 = -1j * np.sin(config.gamma1 * times)
    assert np.max(np.abs(traj.amps[:, 0] - ref1)) < 1e-3
    assert np.max(np.abs(traj.amps[:, 2] - ref3)) < 1e-3
    # second-transition amplitudes are driven only at O(s^{3/2})
    assert np.max(np.abs(traj.amps[:, [1, 3]])) < 1e-3


def test_analytic_traj_matches_oracle_fig2b_short():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=1500)
    tro = bath.integrate(FIG2B, init, b, t_max=10.0, dt_out=0.5)
    tra = inversion.amplitudes_analytic(tro.times, FIG2B, init)
    assert np.max(np.abs(tro.amps - tra.amps)) < 5e-3
    # the closed form's poles alone carry the trajectory at t=10 up to the
    # cut tail
    pt = pole_terms(FIG2B, init)
    res_only = np.exp(10.0 * pt.x) @ pt.res
    res_only[[1, 3]] *= np.exp(-10j * FIG2B.omega12)
    assert np.max(np.abs(res_only - tro.amps[-1])) < 5e-3


def test_cut_integral_decay_slope():
    init = preset_initial("unentangled")
    ts = np.array([500.0, 1000.0, 2000.0, 5000.0])
    cut = transform.CutIntegrator(FIG2B, init, t_min=float(ts[0]),
                                  abs_tol=CUT_ABS_TOL)
    mags = np.array([np.max(np.abs(cut.evaluate(np.array([t])))) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(mags), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.1)


def test_cut_discontinuity_vanishes_without_coupling():
    # frequencies 1/s times the band-edge coupling, q on the cut scaled by
    # 1/sqrt(s); the transform amplitudes carry a unit of time and scale
    # by s, and so does the bound
    s = 1e-8
    config = SystemConfig(gamma1=2 / s, gamma2=2 / s, omega12=0.4 / s, omega1c=0.6 / s,
                          omega2c=0.2 / s, eta=PI)
    init = preset_initial("unentangled")
    disc = transform.cut_discontinuity(np.array([0.5, 2.0]) / np.sqrt(s), config, init)
    assert np.max(np.abs(disc)) < 1e-10 * s


def test_cut_integrator_matches_reference_quadrature():
    init = preset_initial("bright")
    config = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI)
    cut = transform.CutIntegrator(config, init, t_min=0.5, abs_tol=CUT_ABS_TOL)
    for t in (0.5, 3.0, 12.0):
        fast = cut.evaluate(np.array([t]))[0]
        ref = branch_cut_integral(t, config, init)
        assert np.max(np.abs(fast - ref)) < 1e-9


def test_amplitudes_analytic_memory_peak():
    # w is evaluated in blocks of EVAL_BLOCK_ELEMS (times x roots) values
    # (17.2 MB); unblocked, the (points x roots) arrays peak at 54.5 MB
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
        transform.CutIntegrator(FIG2B, init, t_min=0.0, abs_tol=CUT_ABS_TOL)


@pytest.mark.parametrize("times", [np.array([]), np.zeros((3, 2))])
def test_amplitudes_analytic_rejects_empty_and_2d_times(times):
    with pytest.raises(DomainError, match="non-empty 1-d"):
        inversion.amplitudes_analytic(times, FIG2B, preset_initial("unentangled"))


def test_trajectory_invariants():
    init = preset_initial("bright")
    times = np.arange(0.0, 40.5, 0.5)
    traj = inversion.amplitudes_analytic(times, FIG2B, init)
    assert abs(traj.field_prob[0]) < 1e-12
    assert np.all(traj.field_prob > -1e-9)
    assert np.all(traj.field_prob < 1 + 1e-9)
    assert np.array_equal(traj.amps[0], np.array(init.as_tuple()))


def test_localized_pole_signal_has_constant_envelope():
    # contributions of the closed form's purely imaginary poles keep their
    # modulus
    pt = pole_terms(FIG2B, preset_initial("unentangled"))
    x, res = pt.x[pt.axis], pt.res[pt.axis]
    times = np.linspace(100.0, 130.0, 31)
    env = np.abs(np.exp(np.outer(times, x)) @ res[:, 0])
    beat = env.max() - env.min()
    assert beat > 1e-3  # genuine beating between two tones
    single = np.abs(np.exp(times * x[0]) * res[0, 0])
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


# --- the closed form on the presets' full grids ------------------------------

SERIES_PRESETS = ("fig2a", "fig2b", "fig2c", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b",
                  "fig5c", "fig7a", "fig7b", "fig7c", "fig7d")


@pytest.mark.parametrize("name", SERIES_PRESETS)
def test_closed_form_does_not_depend_on_the_block_size(name, monkeypatch):
    # every output time of the preset, in blocks of 97 (times x roots)
    # elements, a few times each, against the default blocks: at most
    # 3.1e-17 apart
    p = get_preset(name)
    times = time_grid(p.t_max, p.dt_out)
    ref = inversion.amplitudes_analytic(times, p.config, p.init).amps
    monkeypatch.setattr(inversion, "EVAL_BLOCK_ELEMS", 97)
    traj = inversion.amplitudes_analytic(times, p.config, p.init)
    assert np.max(np.abs(traj.amps - ref)) <= 1e-15


@st.composite
def cross_check_cases(draw):
    """Random configurations, half of them identical transitions (a1 = a2)
    with cos eta in {0, +-1}, and a random normalised complex state."""
    gamma1 = draw(st.floats(0.0, 10.0))
    w1c = draw(st.floats(-2.0, 1.5))
    if draw(st.booleans()):
        gamma2, w12, eta = gamma1, 0.0, draw(st.sampled_from([0.0, PI / 2, PI]))
    else:
        gamma2, w12 = draw(st.floats(0.0, 10.0)), draw(st.floats(-1.0, 1.0))
        eta = draw(st.floats(0.0, PI))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    v = parts[:4] + 1j * parts[4:]
    if np.linalg.norm(v) < 0.1:
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    config = SystemConfig(gamma1=gamma1, gamma2=gamma2, omega12=w12, omega1c=w1c,
                          omega2c=w1c - w12, eta=eta)
    return config, InitialState(*(v / np.linalg.norm(v)))


# --- the closed form against the residue sum plus the cut integral --------

def cut_route(times, config, init, abs_tol=CUT_ABS_TOL):
    """The previous engine: residues at the sheet poles plus the adaptive
    Gauss-Kronrod cut integral, at times t > 0."""
    poles = find_poles(config)
    cut = transform.CutIntegrator(config, init, t_min=float(times[0]), abs_tol=abs_tol)
    return transform.residue_sum(times, poles, config, init) + cut.evaluate(times)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cross_check_cases())
def test_closed_form_matches_cut_route_property(case):
    config, init = case
    times = np.array([0.05, 0.5, 2.0, 10.0, 50.0])
    try:
        find_poles(config)
    except DegeneratePole:
        with pytest.raises(DegeneratePole):
            inversion.amplitudes_analytic(times, config, init)
        return
    traj = inversion.amplitudes_analytic(times, config, init)
    assert traj.meta["completeness"] <= 1e-9
    # the cut route is a reference only where it is complete itself: near a
    # cluster of roots at the branch point its residues are off by up to
    # 5.3e-9 (gamma1 = 6.1e-5, gamma2 = omega1c = eta = 0, against a 50-digit
    # evaluation that the closed form meets to 1e-14)
    early = cut_route(np.array([1e-5, 2e-5]), config, init, abs_tol=1e-12)
    if np.max(np.abs(2 * early[0] - early[1] - np.array(init.as_tuple()))) <= 1e-6:
        ref = cut_route(times, config, init, abs_tol=1e-12)
        assert np.max(np.abs(traj.amps - ref)) <= 1e-8


# --- the closed form against the transform system, in the Laplace domain --

def laplace_deviation(config, init):
    """Largest relative deviation of the closed form's partial fractions,
    sum_j r_j / (S - S_j) + sum_k exps_k / (x - xs_k) at the principal
    S = sqrt(-i x - omega1c), from the 4x4 transform solve at 50 random x
    with Re x > 0; None when the terms hold a confluent pair, which enters
    as a divided difference and not as partial fractions.  This checks the
    roots, the weights and the sheet convention at once.

    S_j = a_j e^{-i pi/4}, and a simple root's row is i S_j r_j.  Since
    sum_j r_j = 0 (asserted, relative to sum_j |r_j|),
    sum_j r_j / (S - S_j) = -(i/S) sum_j rows_j / (S - S_j), which is
    summed instead: beside a cluster of roots at S = 0 the r_j reach 1e7
    and their direct sum cancels to 1e-9 relative.
    """
    terms = inversion.closed_form_terms(config, init, poles.symmetric_sectors(config))
    if terms.pair_t.shape[0]:
        return None
    s_j = terms.a * np.exp(-0.25j * PI)
    r = terms.rows / (1j * s_j)[:, None]
    assert np.max(np.abs(r.sum(axis=0))) <= 1e-12 * np.sum(np.abs(r))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.01, 5.0, 50) + 1j * rng.uniform(-5.0, 5.0, 50)
    s = np.sqrt(-1j * x - config.omega1c)
    got = ((-1j / s)[:, None] * ((1.0 / (s[:, None] - s_j)) @ terms.rows)
           + (1.0 / (x[:, None] - terms.xs)) @ terms.exps)
    ref = transform.solve_system(x, config, init, beta_prime(x, config.omega1c))
    return float(np.max(np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)))


@pytest.mark.parametrize("name", SERIES_PRESETS)
def test_closed_form_matches_transform_system_on_presets(name):
    p = get_preset(name)
    assert laplace_deviation(p.config, p.init) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cross_check_cases())
def test_closed_form_matches_transform_system_property(case):
    config, init = case
    try:
        dev = laplace_deviation(config, init)
    except DegeneratePole:
        event("skipped: double root (DegeneratePole)")
        return
    if dev is None:
        event("skipped: confluent pair")
        return
    assert dev <= 1e-12


# identical transitions with a double root S = 3 b k / a1 < 0 of the cubic
# S^3 + a1 S - 2 b k (k = 1 + cos eta = 1.5), off the sheet; gamma2 > 0 moves
# it into the sextic as a pair about sqrt(gamma2) apart
DOUBLE_A1 = -3.0 * 1.5 ** (2.0 / 3.0)


@pytest.mark.parametrize("gamma2", [0.0, 1e-14, 1e-10, 1e-8, 1e-4])
def test_double_root_off_the_sheet(gamma2):
    config = SystemConfig(gamma1=0.0, gamma2=gamma2, omega12=0.0, omega1c=DOUBLE_A1,
                          omega2c=DOUBLE_A1, eta=PI / 3)
    init = InitialState(0.5, 0.5j, -0.5, 0.5)
    times = np.linspace(0.5, 60.0, 120)
    traj = inversion.amplitudes_analytic(times, config, init)
    assert traj.meta["completeness"] <= 1e-9
    assert np.max(np.abs(traj.amps - cut_route(times, config, init, abs_tol=1e-12))) <= 1e-10


@pytest.mark.parametrize("omega1c", [-3.0, -3.0 + 1e-12, -3.0 - 1e-9])
def test_orthogonal_double_root_off_the_sheet(omega1c):
    # cos eta = 0: both cubics are S^3 - 3 S - 2 = (S + 1)^2 (S - 2) at omega1c = -3
    config = SystemConfig(gamma1=0.0, gamma2=0.0, omega12=0.0, omega1c=omega1c,
                          omega2c=omega1c, eta=PI / 2)
    init = InitialState(0.5, 0.5j, -0.5, 0.5)
    times = np.linspace(0.5, 60.0, 120)
    traj = inversion.amplitudes_analytic(times, config, init)
    assert traj.meta["completeness"] <= 1e-9
    assert np.max(np.abs(traj.amps - cut_route(times, config, init, abs_tol=1e-12))) <= 1e-10


@pytest.mark.parametrize("gamma1", [1e-30, 2.3e-121, 1e-300, 2.2e-309])
def test_branch_cluster_below_root_resolution(gamma1):
    # parallel dipoles, gamma = omega1c = 0 and a1 = gamma1 tiny: the dark
    # pole of identical transitions becomes sextic roots +-i sqrt(gamma1 / 2)
    # beside S = 0, which np.roots returns as exact zeros; the closed form
    # recovers them and stays continuous with the identical pair
    init = preset_initial("unentangled")
    times = np.linspace(0.0, 50.0, 101)
    near = SystemConfig(gamma1=gamma1, gamma2=0.0, omega12=0.0, omega1c=0.0,
                        omega2c=0.0, eta=0.0)
    same = SystemConfig(gamma1=0.0, gamma2=0.0, omega12=0.0, omega1c=0.0,
                        omega2c=0.0, eta=0.0)
    traj = inversion.amplitudes_analytic(times, near, init)
    assert traj.meta["completeness"] <= 1e-9
    ref = inversion.amplitudes_analytic(times, same, init).amps
    assert np.max(np.abs(traj.amps - ref)) <= 1e-12


@pytest.mark.parametrize("gamma1", [1e-100, 1e-150])
def test_branch_cluster_dark_pole_in_the_table(gamma1):
    # the cluster is resolved in the sectors themselves, so the pole table
    # lists the dark pole S = -i sqrt(gamma1 / 2) beside the exchange poles
    # and the bright ones; the closed form of these configurations is
    # checked at 40 digits (SPECIAL_CASES)
    config = SystemConfig(gamma1=gamma1, gamma2=0.0, omega12=0.0, omega1c=0.0,
                          omega2c=0.0, eta=0.0)
    assert len(find_poles(config).dynamic()) == 5


def test_pole_on_the_branch_cut():
    # S^3 - 2 S - 4 = (S - 2)(S^2 + 2 S + 2): the root S = -1 - i lies on the
    # sheet boundary, a pole at x = -2 - 2i on the cut itself, where the cut
    # quadrature fails; w is entire, so the closed form is continuous there
    init = InitialState(0.5, 0.5j, -0.5, 0.5)
    times = np.array([1e-3, 0.1, 1.0, 30.0])
    amps = []
    for w1c in (-2.0, -2.0 + 1e-9, -2.0 - 1e-9):
        config = SystemConfig(gamma1=0.0, gamma2=0.0, omega12=0.0, omega1c=w1c,
                              omega2c=w1c, eta=0.0)
        traj = inversion.amplitudes_analytic(times, config, init)
        assert traj.meta["completeness"] <= 1e-9
        amps.append(traj.amps)
    assert np.max(np.abs(amps[1] - amps[0])) <= 1e-7
    assert np.max(np.abs(amps[2] - amps[0])) <= 1e-7


def test_near_double_root_on_the_sheet_still_raises():
    config = SystemConfig(gamma1=3.0, gamma2=3.0000000000001, omega12=0.0,
                          omega1c=0.5, omega2c=0.5, eta=PI / 2)
    with pytest.raises(DegeneratePole):
        inversion.amplitudes_analytic(np.array([0.0, 1.0]), config, preset_initial("bright"))


# --- the closed form against a 40-digit evaluation of itself ----------------

def reference_deviation(times, config, init, da=0.0):
    """Largest deviation of ``amplitudes_analytic`` from
    ``closed_form_reference``: the rounding of the roots, the weights, the
    pair terms and the Faddeeva approximation together."""
    traj = inversion.amplitudes_analytic(times, config, init)
    return float(np.max(np.abs(traj.amps - closed_form_reference(times, config, init, da))))


@pytest.mark.parametrize("name", SERIES_PRESETS)
def test_closed_form_matches_40_digit_reference_on_presets(name):
    # 15 points of the output grid, up to the end of the window
    p = get_preset(name)
    grid = time_grid(p.t_max, p.dt_out)
    times = grid[np.linspace(0, grid.size - 1, 16).astype(int)[1:]]
    assert reference_deviation(times, p.config, p.init) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cross_check_cases())
@example((SystemConfig(gamma1=3.0, gamma2=3.0000000000001, omega12=0.0, omega1c=0.5,
                       omega2c=0.5, eta=PI / 2), preset_initial("bright")))
def test_closed_form_matches_40_digit_reference_property(case):
    config, init = case
    times = np.geomspace(0.01, 100.0, 15)
    try:
        dev = reference_deviation(times, config, init)
    except DegeneratePole:
        event("skipped: double root on the sheet (DegeneratePole)")
        # the pole table refuses the same configurations
        with pytest.raises(DegeneratePole):
            find_poles(config)
        return
    assert dev <= 1e-12


def _coincident_levels(omega1c, eta, gamma1=0.0, gamma2=0.0):
    return SystemConfig(gamma1=gamma1, gamma2=gamma2, omega12=0.0, omega1c=omega1c,
                        omega2c=omega1c, eta=eta)


MIXED = InitialState(0.5, 0.5j, -0.5, 0.5)
CONTINUITY = (1e-20, -1e-20)  # shifts of a1 and a2 in the reference at an exact double root
# (config, initial state, window, shifts): the cases of the double roots off
# the sheet, the branch cluster and the pole on the cut above; a subnormal
# gamma1 is taken as 0 in the sectors, against the reference at gamma1 itself
SPECIAL_CASES = (
    [pytest.param(_coincident_levels(DOUBLE_A1, PI / 3, gamma2=g2), MIXED, 60.0,
                  CONTINUITY if g2 == 0 else (0.0,), id=f"double-{g2:g}")
     for g2 in (0.0, 1e-14, 1e-10, 1e-8, 1e-4)]
    + [pytest.param(_coincident_levels(w1c, PI / 2), MIXED, 60.0,
                    CONTINUITY if w1c == -3.0 else (0.0,), id=f"orthogonal-double-{w1c!r}")
       for w1c in (-3.0, -3.0 + 1e-12, -3.0 - 1e-9)]
    + [pytest.param(_coincident_levels(0.0, 0.0, gamma1=g1), preset_initial("unentangled"),
                    50.0, (0.0,), id=f"cluster-{g1:g}")
       for g1 in (1e-30, 1e-100, 2.3e-121, 1e-150, 1e-300, 2.2e-309, 2.2e-311, 1e-315,
                  5e-324)]
    + [pytest.param(_coincident_levels(w1c, 0.0), MIXED, 30.0, (0.0,), id=f"cut-{w1c!r}")
       for w1c in (-2.0, -2.0 + 1e-9, -2.0 - 1e-9)]
)


@pytest.mark.parametrize("config,init,window,shifts", SPECIAL_CASES)
def test_closed_form_matches_40_digit_reference_special_cases(config, init, window, shifts):
    times = np.linspace(0.0, window, 16)[1:]
    for da in shifts:
        assert reference_deviation(times, config, init, da) <= 1e-12


def test_faddeeva_matches_wofz_in_the_upper_half_plane():
    rng = np.random.default_rng(3)
    r = 10.0 ** rng.uniform(-3, 8, 20000)
    theta = rng.uniform(0.0, PI, r.size)
    theta[:3000] = np.repeat([0.0, PI / 2, PI], 1000)
    z = r * np.exp(1j * theta)
    ref = wofz(z)
    assert np.max(np.abs(inversion.faddeeva(z) - ref) / np.abs(ref)) <= 1e-12
    assert inversion.faddeeva(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-13)


def test_faddeeva_coefficients_follow_weideman():
    # Weideman (1994), N = 32: the FFT of f = e^{-t^2} (L^2 + t^2) on
    # t = L tan(theta/2), theta = k pi / M, k = -M + 1 .. M - 1, M = 2N
    n = 32
    m = 2 * n
    big_l = np.sqrt(n / np.sqrt(2.0))
    t = big_l * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t ** 2) * (big_l ** 2 + t ** 2)])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    assert inversion._W_L == big_l
    assert np.max(np.abs(inversion._W_COEFFS - a[n:0:-1])) <= 1e-15


def test_faddeeva_reflection_in_the_lower_half_plane():
    # w(z) = 2 e^{-z^2} - w(-z), the form taken for roots on the sheet
    rng = np.random.default_rng(4)
    z = rng.uniform(-6, 6, 5000) - 1j * rng.uniform(0, 6, 5000)
    z = z[np.abs(np.exp(-z * z)) < 1e300]
    ref = wofz(z)
    got = 2.0 * np.exp(-z * z) - inversion.faddeeva(-z)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12


@pytest.mark.parametrize("config", [
    FIG2B, get_preset("fig5c").config,
    SystemConfig(gamma1=3, gamma2=3, omega12=0.0, omega1c=0.5, omega2c=0.5, eta=0.0),
    SystemConfig(gamma1=3, gamma2=3, omega12=0.0, omega1c=0.5, omega2c=0.5, eta=PI / 2),
    SystemConfig(gamma1=0.0, gamma2=0.0, omega12=1e-16, omega1c=0.0, omega2c=-1e-16, eta=0.0),
    SystemConfig(gamma1=0.0, gamma2=0.0, omega12=0.0, omega1c=-3.0, omega2c=-3.0, eta=PI / 2),
])
def test_amplitudes_finite_up_to_late_times(config):
    # bound states keep |e^{x t}| = 1, decaying poles underflow to 0, and
    # nothing overflows or warns out to t = 1e12
    times = np.concatenate([[0.0], np.logspace(-6, 12, 4000)])
    init = InitialState(0.5, 0.5j, -0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = inversion.amplitudes_analytic(times, config, init)
    assert np.all(np.isfinite(traj.amps))
    assert np.all(np.sum(np.abs(traj.amps) ** 2, axis=1) <= 1.0 + 1e-9)


def test_completeness_is_stored_in_meta():
    traj = inversion.amplitudes_analytic(np.array([0.0, 1.0]), FIG2B,
                                         preset_initial("unentangled"))
    assert traj.meta["engine"] == "analytic"
    assert traj.meta["completeness"] <= 1e-12


def _drop_first_root(monkeypatch):
    sectors = poles.symmetric_sectors

    def lose_a_root(config):
        return tuple(dataclasses.replace(sec, roots=sec.roots[1:])
                     for sec in sectors(config))

    monkeypatch.setattr(poles, "symmetric_sectors", lose_a_root)


def test_lost_root_fails_inversion_completeness(monkeypatch):
    _drop_first_root(monkeypatch)
    with pytest.raises(CompletenessError, match="completeness"):
        inversion.amplitudes_analytic(np.array([0.0, 1.0]), FIG2B,
                                      preset_initial("unentangled"))


def test_lost_root_exit_code(tmp_path, monkeypatch, capsys):
    _drop_first_root(monkeypatch)
    assert main(["preset", "fig2b", "-o", str(tmp_path / "fig2b.csv")]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "completeness" in err[0]
    assert not (tmp_path / "fig2b.csv").exists()


def test_analytic_path_builds_no_pole_table(tmp_path, monkeypatch):
    # every pbgpair module attribute bound to find_poles, found the way
    # perfbench/tracing.py finds its targets, raises
    def no_table(config):
        raise NumericalError("the analytic path built a pole table")

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "pbgpair" or name.startswith("pbgpair."):
            for key, value in list(vars(mod).items()):
                if value is find_poles:
                    monkeypatch.setattr(mod, key, no_table)
    p = get_preset("fig2b")
    inversion.amplitudes_analytic(np.linspace(0.0, p.t_max, 201), p.config, p.init)
    assert main(["preset", "fig2b", "-o", str(tmp_path / "fig2b.csv")]) == 0
