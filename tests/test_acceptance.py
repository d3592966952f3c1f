"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
asserted at its stated tolerance.

* Criterion 4 asks how long the entanglement generated from the separable
  anti-parallel start |a1 a6> lives at gamma = 1.5, 6 and 10.  The field
  couples only to the exchange-symmetric combinations A1+A3 and A2+A4, so
  the antisymmetric component A1-A3 is exactly decoherence-free: the pole
  x = i*gamma1 carries it with weight 1 for all time, rotating as
  e^{i gamma1 t}.  Once the symmetric part has radiated, E_N sits at
  log2((1+sqrt 2)/2) = 0.2716 plus the share of the localized poles, so
  the lifetime is unbounded at every gamma.  The test checks that (a) E_N
  stays above 0.01 after its peak over each preset's horizon (minima
  0.234 / 0.269 / 0.2714), (b) over the last 100 time units of fig2b and
  fig2c E_N agrees within 1e-5 with the E_N of the imaginary-axis residues
  alone (1.0e-7 and 6.0e-9; fig2a is left out because at t = 300 its
  pole at Re x = -0.0139 still contributes 1.1e-2), and (c) the
  discretised-bath oracle at n_modes = 4000 (horizon 251) reproduces the
  fig2a E_N over [0, 200] within 5e-3 (1.2e-3; E_N(200) = 0.33256
  against 0.33252).  The test asks neither for decay below 0.01 nor for
  half-lives that increase with gamma: the first contradicts the exact
  dark sector, and half_life is only the settling time onto a plateau
  just below half the early peak, whose ordering in gamma the paper
  does not state.

* Criterion 5 (placing the levels deeper inside the gap lowers the
  [0, 500] integral of E_N) fails: fig7d gives 0.4514 against 0.3398 for
  fig7c.  Over [0, 5] the deeper level is already slightly lower
  (0.3231 against 0.3276); the whole excess comes from [5, 500]
  (0.1283 against 0.0122), where from t = 20 on E_N sits on a
  bound-state plateau, flat to about 1% (2.6e-4 against 2.5e-5).  The
  paper attributes the expected suppression to resonant energy exchange
  through evanescent modes falling exponentially with depth, i.e. gamma
  falling with depth.  In this model that cannot produce it.  With
  orthogonal dipoles and the bright start only transition 1 is
  populated, and u1 = -i S u10 / (S^3 + a1 S - 2) sees omega1c and gamma1
  only through a1 = omega1c + gamma1: |A_i| of fig7d at gamma 5 and of
  fig7c at gamma 4 agree to 1.8e-15.  The ladder at fixed gamma is a scan
  in a1, and a gamma that falls with depth lowers a1 further: the deep
  [0, 500] integral rises as gamma falls, 0.4514, 1.835, 14.21, 68.24 and
  257.8 at gamma 5, 4, 3, 2 and 0, against 0.3398 for the shallow rung.
  It falls below the shallow one for a1 in (4.400, 5.139), gamma at fig7d
  in (6.000, 6.739) (``test_criterion_5_depth_enters_through_a1``).  The
  paper's Fig. 7 parameters, if its deep panel has the larger a1, or a
  measure other than the integral of E_N could mend the verdict; neither
  is in the repository, and the assertion stays as it is.  Beside it, the
  discretised-bath oracle at n_modes = 8000 (horizon 503) reproduces both
  integrals within 1e-5, so the verdict belongs to the model, not to the
  analytic engine.
"""

import dataclasses
import math
import time

import numpy as np
from scipy.optimize import brentq

from pbgpair import bath, inversion, negativity as neg, transform
from pbgpair.config import (AmplitudeTrajectory, InitialState, SystemConfig,
                            preset_initial, time_grid)
from pbgpair.poles import PoleSet, find_poles
from pbgpair.presets import get_preset
from reference_routes import branch_cut_integral, negativity_series, oscillation_envelope

PI = math.pi


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


_SERIES_CACHE = {}


def preset_series(name):
    """Analytic trajectory + entanglement series of a preset, cached."""
    if name not in _SERIES_CACHE:
        p = get_preset(name)
        traj = inversion.amplitudes_analytic(time_grid(p.t_max, p.dt_out), p.config, p.init)
        series = neg.entanglement_series(traj)
        _SERIES_CACHE[name] = (p, traj, series)
    return _SERIES_CACHE[name]


def _cfg(gamma, eta, w1c, w2c):
    return SystemConfig(gamma1=gamma, gamma2=gamma, omega12=w1c - w2c,
                        omega1c=w1c, omega2c=w2c, eta=eta)


def test_criterion_1_pole_tables():
    tables = [
        (_cfg(6, PI, 0.6, 0.2), (-3.4, -6.0, -5.6, 6.0)),
        (_cfg(6, PI, -0.6, -1.0), (-4.6, -6.0, -5.6, 6.0)),
        (_cfg(1.5, PI / 2, -0.6, -1.0), (-1.5, -1.1)),
        (_cfg(10, PI / 2, -0.6, -1.0), (-10.0, -9.6)),
    ]
    worst = 0.0
    slowest = 0.0
    for config, quoted in tables:
        t0 = time.perf_counter()
        ps = find_poles(config)
        slowest = max(slowest, time.perf_counter() - t0)
        ys = [r.x.imag for r in ps.records if abs(r.x.real) < 1e-9]
        for target in quoted:
            err = min(abs(y - target) for y in ys)
            worst = max(worst, err)
    ok = worst < 0.05 and slowest < 1.0
    assert report(1, ok, f"max pole error {worst:.2e} beta (tol 0.05), "
                         f"slowest config {slowest:.2f}s (limit 1s)")


def test_criterion_2_engine_equivalence():
    configs = {
        "fig2a": (_cfg(1.5, PI, 0.6, 0.2), "unentangled"),
        "fig2b": (_cfg(6.0, PI, 0.6, 0.2), "unentangled"),
        "fig4a": (_cfg(1.5, PI, -0.6, -1.0), "bright"),
        "fig4b": (_cfg(6.0, PI, -0.6, -1.0), "bright"),
        "fig5a": (_cfg(1.5, PI / 2, -0.6, -1.0), "bright"),
        "fig5b": (_cfg(6.0, PI / 2, -0.6, -1.0), "bright"),
    }
    worst = 0.0
    slowest = 0.0
    details = []
    for name, (config, ini) in configs.items():
        init = preset_initial(ini)
        t0 = time.perf_counter()
        b = bath.build_bath(config, n_modes=4000)
        oracle = bath.integrate(config, init, b, t_max=50.0, dt_out=0.5)
        analytic = inversion.amplitudes_analytic(oracle.times, config, init)
        wall = time.perf_counter() - t0
        dev = float(np.max(np.abs(oracle.amps - analytic.amps)))
        details.append(f"{name}:{dev:.1e}")
        worst = max(worst, dev)
        slowest = max(slowest, wall)
    ok = worst <= 5e-3 and slowest < 120.0
    assert report(2, ok, f"max |A_i| deviation {worst:.2e} (tol 5e-3) over "
                         f"bt in [0,50], slowest {slowest:.0f}s; " + " ".join(details))


def test_criterion_3_interference_null():
    config = _cfg(6.0, PI / 2, -0.6, -1.0)
    rng = np.random.default_rng(42)
    a1 = complex(rng.normal(), rng.normal())
    a3 = complex(rng.normal(), rng.normal())
    scale = math.sqrt(abs(a1) ** 2 + abs(a3) ** 2)
    worst = 0.0
    for init in (preset_initial("bright"), InitialState(a1 / scale, 0, a3 / scale, 0)):
        traj = inversion.amplitudes_analytic(time_grid(50.0, 0.5), config, init)
        worst = max(worst, float(np.max(np.abs(traj.amps[:, [1, 3]]))))
        b = bath.build_bath(config, n_modes=1500)
        oracle = bath.integrate(config, init, b, t_max=50.0, dt_out=0.5)
        worst = max(worst, float(np.max(np.abs(oracle.amps[:, [1, 3]]))))
    ok = worst <= 1e-10
    assert report(3, ok, f"max |A2|,|A4| = {worst:.2e} (tol 1e-10) in both engines")


def _axis_residue_en(times, preset):
    """E_N of the amplitudes carried by the imaginary-axis poles alone.

    These are the terms that survive t -> inf: every other pole and the
    branch cut decay.
    """
    poles = find_poles(preset.config)
    axis = PoleSet(records=tuple(r for r in poles.dynamic() if r.x.real == 0.0),
                   config=preset.config)
    amps = transform.residue_sum(times, axis, preset.config, preset.init)
    traj = AmplitudeTrajectory(times=times, amps=amps)
    return neg.entanglement_series(traj).log_negativity


def test_criterion_4_lifetime_ordering():
    threshold = 0.01
    t0 = time.perf_counter()
    floor = {}
    asym_dev = {}
    for name in ("fig2a", "fig2b", "fig2c"):
        p, _, series = preset_series(name)
        en = series.log_negativity
        floor[name] = float(np.min(en[int(np.argmax(en)):]))
        if name != "fig2a":
            late = series.times >= p.t_max - 100.0
            asym_dev[name] = float(np.max(np.abs(
                _axis_residue_en(series.times[late], p) - en[late])))
    _, _, strong = preset_series("fig2c")
    en_3000 = float(strong.log_negativity[int(np.searchsorted(strong.times, 3000.0))])

    p, _, series = preset_series("fig2a")
    b = bath.build_bath(p.config, n_modes=4000)
    horizon = b.recurrence_time()
    oracle = bath.integrate(p.config, p.init, b, t_max=200.0, dt_out=p.dt_out)
    en_oracle = neg.entanglement_series(oracle).log_negativity
    oracle_dev = float(np.max(np.abs(
        en_oracle - series.log_negativity[:en_oracle.size])))
    wall = time.perf_counter() - t0

    unbounded = all(v > threshold for v in floor.values())
    dark_plateau = all(v <= 1e-5 for v in asym_dev.values())
    oracle_agrees = oracle_dev <= 5e-3
    strong_persists = en_3000 > threshold
    ok = unbounded and dark_plateau and oracle_agrees and strong_persists and wall < 300.0
    report(4, ok,
           f"min E_N after peak {floor['fig2a']:.3g}/{floor['fig2b']:.3g}/"
           f"{floor['fig2c']:.4g} (>{threshold}: {unbounded}), "
           f"|E_N - axis-residue E_N| over last 100 "
           f"{asym_dev['fig2b']:.1e}/{asym_dev['fig2c']:.1e} (<=1e-5: {dark_plateau}), "
           f"oracle |dE_N| over [0,200]@1.5 {oracle_dev:.1e} (<=5e-3: {oracle_agrees}, "
           f"horizon {horizon:.0f}), E_N(3000)@10={en_3000:.3g} "
           f"(>{threshold}: {strong_persists}), wall {wall:.0f}s")
    assert unbounded, (
        "E_N fell below the threshold after its peak, although the "
        "antisymmetric component A1-A3 is exactly dark")
    assert dark_plateau, (
        "the late E_N differs from the E_N of the imaginary-axis residues")
    assert oracle_agrees, "the oracle and the analytic engine disagree on E_N"
    assert strong_persists
    assert wall < 300.0


def test_criterion_5_deep_gap_ordering():
    _, _, s_ref = preset_series("fig7c")
    _, _, s_deep = preset_series("fig7d")
    i_ref = neg.integrated_en(s_ref.times, s_ref.log_negativity, 500.0)
    i_deep = neg.integrated_en(s_deep.times, s_deep.log_negativity, 500.0)
    early_ref = neg.integrated_en(s_ref.times, s_ref.log_negativity, 5.0)
    early_deep = neg.integrated_en(s_deep.times, s_deep.log_negativity, 5.0)
    ok = i_deep < i_ref
    report(5, ok, f"integrated E_N over [0,500]: deep {i_deep:.4g} vs "
                  f"shallow {i_ref:.4g} (expected deep < shallow); over [0,5] "
                  f"{early_deep:.4g} vs {early_ref:.4g}, over [5,500] "
                  f"{i_deep - early_deep:.4g} vs {i_ref - early_ref:.4g}")
    assert ok, (
        "the excess comes from the late bound-state plateau: the fig7 ladder "
        "holds gamma = 5 at every depth, so the suppression of the exchange "
        "strength with depth that the paper invokes is absent from the model")


def test_criterion_5_depth_enters_through_a1():
    # beside criterion 5, not part of it: with orthogonal dipoles and the
    # bright start only transition 1 is populated, and
    # u1 = -i S u10 / (S^3 + a1 S - 2) sees omega1c and gamma1 only through
    # a1 = omega1c + gamma1.  So fig7d at gamma 5 is fig7c at gamma 4 up to
    # a phase, the ladder at fixed gamma is a scan in a1, and a gamma that
    # falls with depth raises the deep integral further
    _, _, s_ref = preset_series("fig7c")
    i_ref = neg.integrated_en(s_ref.times, s_ref.log_negativity, 500.0)
    p_deep, deep, _ = preset_series("fig7d")

    def rung(name, gamma):
        p = get_preset(name)
        config = dataclasses.replace(p.config, gamma1=gamma, gamma2=gamma)
        return inversion.amplitudes_analytic(time_grid(p.t_max, p.dt_out), config, p.init)

    def integral(gamma):
        series = neg.entanglement_series(rung("fig7d", gamma))
        return neg.integrated_en(series.times, series.log_negativity, 500.0)

    dev = float(np.max(np.abs(np.abs(deep.amps) - np.abs(rung("fig7c", 4.0).amps))))
    gammas = (5.0, 4.0, 3.0, 2.0, 0.0)
    rising = [integral(g) for g in gammas]
    # the deep integral falls below the shallow one between these two gammas
    lo, hi = (brentq(lambda g: integral(g) - i_ref, a, b, xtol=1e-4)
              for a, b in ((5.9, 6.4), (6.4, 6.8)))
    ok = (dev <= 1e-13 and all(a < b for a, b in zip(rising, rising[1:]))
          and rising[0] > i_ref and 5.99 < lo < 6.01 and 6.73 < hi < 6.75
          and integral(6.4) < i_ref)
    assert report("5 (a1)", ok,
                  f"max ||A_i| of fig7d at gamma 5 - |A_i| of fig7c at gamma 4| {dev:.1e} "
                  f"(tol 1e-13); fig7d integral over [0,500] at gamma "
                  f"{'/'.join(f'{g:g}' for g in gammas)}: "
                  f"{'/'.join(f'{v:.4g}' for v in rising)} against shallow {i_ref:.4g}; "
                  f"deep < shallow for gamma in ({lo:.3f}, {hi:.3f}), a1 in "
                  f"({lo + p_deep.config.omega1c:.3f}, {hi + p_deep.config.omega1c:.3f})")


def test_criterion_5_oracle_cross_check():
    # beside criterion 5, not part of it: the discretised-bath oracle at
    # 8000 modes (horizon 503) reproduces the ladder's integrated E_N over
    # [0, 500], so the red verdict belongs to the model (gamma = 5 at every
    # depth), not to the analytic engine
    worst = 0.0
    details = []
    for name in ("fig7c", "fig7d"):
        p, _, series = preset_series(name)
        b = bath.build_bath(p.config, n_modes=8000)
        oracle = neg.entanglement_series(
            bath.integrate(p.config, p.init, b, t_max=500.0, dt_out=p.dt_out))
        i_oracle = neg.integrated_en(oracle.times, oracle.log_negativity, 500.0)
        i_analytic = neg.integrated_en(series.times, series.log_negativity, 500.0)
        worst = max(worst, abs(i_oracle - i_analytic))
        details.append(f"{name} {i_oracle:.4f} vs {i_analytic:.4f}")
    ok = worst <= 1e-3
    assert report("5 (oracle)", ok, f"integrated E_N over [0,500], oracle at 8000 modes "
                                    f"vs analytic: {', '.join(details)}, max difference "
                                    f"{worst:.1e} (tol 1e-3)")


def test_criterion_6_initial_value_exactness():
    _, _, s_bright = preset_series("fig4a")
    assert abs(s_bright.log_negativity[0] - 1.0) <= 1e-9
    _, _, s_unent = preset_series("fig2a")
    assert s_unent.log_negativity[0] == 0.0

    worst = 0.0
    for name in ("fig2b", "fig4b", "fig5c", "fig7d"):
        p = get_preset(name)
        poles = find_poles(p.config)
        t1, t2 = 2e-5, 1e-5
        s1 = transform.residue_sum(t1, poles, p.config, p.init) \
            + branch_cut_integral(t1, p.config, p.init)
        s2 = transform.residue_sum(t2, poles, p.config, p.init) \
            + branch_cut_integral(t2, p.config, p.init)
        extrap = 2 * s2 - s1
        worst = max(worst, float(np.max(np.abs(extrap - np.array(p.init.as_tuple())))))
    ok = worst <= 1e-6
    assert report(6, ok, f"E_N(0) exact for bright/unentangled; inversion "
                         f"completeness at t->0 within {worst:.2e} (tol 1e-6)")


SERIES_PRESETS = ("fig2a", "fig2b", "fig2c", "fig4a", "fig4b", "fig4c",
                  "fig5a", "fig5b", "fig5c", "fig7a", "fig7b", "fig7c", "fig7d")


def test_criterion_7_density_matrix_hygiene():
    worst_trace = worst_herm = worst_eig = worst_pt = 0.0
    for name in SERIES_PRESETS:
        p, traj, series = preset_series(name)
        amps = np.asarray(traj.amps)
        times = np.asarray(traj.times)
        norm = np.sum(np.abs(amps) ** 2, axis=1)

        vec = np.zeros((times.size, 9), dtype=complex)
        phased = amps.copy()
        ph = np.exp(1j * p.config.omega12 * times)
        phased[:, 0] *= ph
        phased[:, 2] *= ph
        for col, k in zip(range(4), (2, 5, 6, 7)):
            vec[:, k] = phased[:, col]
        rho = vec[:, :, None] * vec[:, None, :].conj()
        rho[:, 8, 8] += 1.0 - norm

        worst_trace = max(worst_trace, float(np.max(np.abs(
            np.trace(rho, axis1=1, axis2=2).real - 1.0))))
        worst_herm = max(worst_herm, float(np.max(np.abs(
            rho - rho.conj().transpose(0, 2, 1)))))
        worst_eig = max(worst_eig, float(-np.min(np.linalg.eigvalsh(rho))))

        # the closed form has no phase input: check it against the
        # eigenvalues of the partial transpose of the phased state
        _, n_ref, en_ref = negativity_series(traj, p.config)
        worst_pt = max(worst_pt, float(np.max(np.abs(series.negativity - n_ref))),
                       float(np.max(np.abs(series.log_negativity - en_ref))))
    ok = (worst_trace <= 1e-10 and worst_eig <= 1e-10
          and worst_herm <= 1e-12 and worst_pt <= 1e-10)
    assert report(7, ok, f"trace defect {worst_trace:.1e} (1e-10), "
                         f"min-eig floor {worst_eig:.1e} (1e-10), "
                         f"hermiticity {worst_herm:.1e} (1e-12), "
                         f"closed form vs phased partial transpose "
                         f"{worst_pt:.1e} (1e-10)")


def test_criterion_8_oscillation_envelope():
    _, _, series = preset_series("fig5c")
    env_mid = oscillation_envelope(series.times, series.log_negativity, 1500.0, 150.0)
    env_late = oscillation_envelope(series.times, series.log_negativity, 4000.0, 150.0)
    ratio = env_mid / env_late if env_late > 0 else math.inf
    ok = ratio >= 3.0
    assert report(8, ok, f"envelope(1500)/envelope(4000) = {ratio:.2f} "
                         f"(needs >= 3): {env_mid:.2e} vs {env_late:.2e}")
