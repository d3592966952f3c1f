import dataclasses
import math

import pytest

from pbgpair.config import (
    DEFAULT_MODES,
    InitialState,
    RunSpec,
    SystemConfig,
    parse_run_file,
    preset_initial,
)
from pbgpair.errors import (
    DomainError,
    InconsistentDetunings,
    NormalizationError,
    ParseError,
    UnknownPreset,
)
from reference_routes import phase_amplitudes

PAPER_CFG = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                         omega2c=0.2, eta=math.pi)


def test_validate_paper_configuration():
    spec = RunSpec(PAPER_CFG, preset_initial("unentangled"), t_max=1200.0, dt_out=0.5)
    assert spec.config is PAPER_CFG
    assert spec.init.norm_sq == pytest.approx(1.0, abs=1e-15)


def test_validate_basis_state_norm():
    RunSpec(PAPER_CFG, InitialState(1, 0, 0, 0), t_max=1.0, dt_out=0.5)


def test_inconsistent_detunings_rejected():
    with pytest.raises(InconsistentDetunings):
        SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                     omega2c=0.1, eta=math.pi)


def test_domain_errors():
    with pytest.raises(DomainError):
        SystemConfig(-1, 6, 0.4, 0.6, 0.2, math.pi)
    with pytest.raises(DomainError):
        SystemConfig(6, 6, 0.4, 0.6, 0.2, 3.5)


def test_non_finite_values_rejected():
    with pytest.raises(DomainError, match="gamma1"):
        SystemConfig(math.nan, 6, 0.4, 0.6, 0.2, math.pi)
    with pytest.raises(DomainError, match="omega1c"):
        SystemConfig(6, 6, 0.4, math.inf, 0.2, math.pi)
    with pytest.raises(NormalizationError):
        RunSpec(PAPER_CFG, InitialState(math.nan, 0, 0, 0), t_max=1.0, dt_out=0.5)


def test_normalization_error():
    with pytest.raises(NormalizationError):
        RunSpec(PAPER_CFG, InitialState(1, 0, 0.1, 0), t_max=1.0, dt_out=0.5)


def test_replace_checks_the_config():
    with pytest.raises(DomainError, match="non-negative"):
        dataclasses.replace(PAPER_CFG, gamma1=-1.0)
    with pytest.raises(InconsistentDetunings):
        dataclasses.replace(PAPER_CFG, omega1c=0.7)


@pytest.mark.parametrize("t_max,dt_out", [(-1.0, 0.5), (0.0, 0.5), (math.nan, 0.5),
                                          (1.0, 0.0), (1.0, math.inf)])
def test_replace_checks_the_run(t_max, dt_out):
    spec = RunSpec(PAPER_CFG, preset_initial("bright"), t_max=1.0, dt_out=0.5)
    with pytest.raises(DomainError, match="t_max and dt_out must be positive and finite"):
        dataclasses.replace(spec, t_max=t_max, dt_out=dt_out)


@pytest.mark.parametrize("engine", ["orcale", "", "Analytic"])
def test_replace_checks_the_engine(engine):
    # an engine other than analytic or oracle ran as both
    spec = RunSpec(PAPER_CFG, preset_initial("bright"), t_max=1.0, dt_out=0.5)
    with pytest.raises(DomainError, match="engine must be one of .* got"):
        dataclasses.replace(spec, engine=engine)


def test_replace_n_modes_keeps_the_other_fields():
    # the oracle's bath size is a field of the run like the others
    spec = RunSpec(PAPER_CFG, preset_initial("bright"), t_max=7.0, dt_out=0.25,
                   engine="both")
    assert spec.n_modes == DEFAULT_MODES
    out = dataclasses.replace(spec, n_modes=300)
    assert out.n_modes == 300
    assert all(getattr(out, f.name) == getattr(spec, f.name)
               for f in dataclasses.fields(spec) if f.name != "n_modes")


def test_preset_initial_values():
    u = preset_initial("unentangled")
    assert u.as_tuple() == (1, 0, 0, 0)
    b = preset_initial("bright")
    assert b.a1 == pytest.approx(0.7071067811865475, abs=1e-15)
    assert b.a3 == pytest.approx(0.7071067811865475, abs=1e-15)
    assert b.a2 == 0 and b.a4 == 0
    with pytest.raises(UnknownPreset):
        preset_initial("foo")


def test_fig7_detuning_pairs_consistent():
    for w1c, w2c in ((0.6, 0.2), (0.6, -0.4), (-0.6, -1.0), (-1.6, -2.6)):
        SystemConfig(5, 5, w1c - w2c, w1c, w2c, math.pi / 2)


def test_trig_snapping_at_special_angles():
    assert SystemConfig(1, 1, 0.4, 0.6, 0.2, math.pi).sin_eta == 0.0
    assert SystemConfig(1, 1, 0.4, 0.6, 0.2, math.pi).cos_eta == -1.0
    assert SystemConfig(1, 1, 0.4, 0.6, 0.2, math.pi / 2).cos_eta == 0.0


def test_phase_amplitudes_is_relative():
    amps = (0.3 + 0.1j, 0.2, 0.5, 0.1j)
    out = phase_amplitudes(amps, 2.0, 0.4)
    assert out[1] == amps[1] and out[3] == amps[3]
    assert abs(out[0]) == pytest.approx(abs(amps[0]), abs=1e-15)


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """
# comment line
gamma1 = 6
gamma2 = 6
omega12 = 0.4
omega1c = -0.6
omega2c = -1.0
eta_degrees = 180
initial = bright
t_max = 100
dt_out = 0.5
"""


def test_parse_run_file_roundtrip(tmp_path):
    spec = parse_run_file(_write(tmp_path, GOOD))
    assert spec.config.gamma1 == 6
    assert spec.config.eta == pytest.approx(math.pi)
    assert spec.init.a1 == pytest.approx(1 / math.sqrt(2))
    assert spec.t_max == 100 and spec.dt_out == 0.5
    assert spec.engine == "analytic" and spec.n_modes == DEFAULT_MODES


def test_parse_run_file_engine_key(tmp_path):
    spec = parse_run_file(_write(tmp_path, GOOD + "engine = both\n"))
    assert spec.engine == "both"


def test_parse_unknown_key_names_line(tmp_path):
    with pytest.raises(ParseError, match="line 12"):
        parse_run_file(_write(tmp_path, GOOD + "bogus = 1\n"))


def test_parse_malformed_assignment(tmp_path):
    path = _write(tmp_path, "gamma1 == 3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_run_file(path)


def test_parse_duplicate_key(tmp_path):
    with pytest.raises(ParseError, match="duplicate"):
        parse_run_file(_write(tmp_path, GOOD + "gamma1 = 5\n"))


@pytest.mark.parametrize("extra,line", [("initial = unentangled\n", 12),
                                        ("engine = oracle\nengine = both\n", 13)],
                         ids=["initial", "engine"])
def test_parse_duplicate_word_key(tmp_path, extra, line):
    # a second initial or engine line is refused, not silently taken
    with pytest.raises(ParseError, match=f"line {line}: duplicate key"):
        parse_run_file(_write(tmp_path, GOOD + extra))


@pytest.mark.parametrize("text,match", [
    (GOOD.replace("initial = bright", "initial = dark"),
     r"line 9: initial must be unentangled\|bright\|custom, got 'dark'"),
    (GOOD + "engine = fast\n", "line 12: engine must be one of .* got 'fast'"),
    (GOOD.replace("initial = bright\n", ""), "missing required key: initial"),
    (GOOD.replace("gamma1 = 6", "gamma1 = 1.5.2"),
     "line 3: could not parse number '1.5.2' for 'gamma1'"),
], ids=["bad-initial", "bad-engine", "no-initial", "bad-number"])
def test_parse_word_key_errors(tmp_path, text, match):
    with pytest.raises(ParseError, match=match):
        parse_run_file(_write(tmp_path, text))


def test_parse_missing_keys(tmp_path):
    with pytest.raises(ParseError, match="missing"):
        parse_run_file(_write(tmp_path, "gamma1 = 1\n"))


def test_parse_custom_initial(tmp_path):
    text = GOOD.replace("initial = bright", "initial = custom")
    amps = "\n".join(
        f"a{i}_re = {v}\na{i}_im = 0"
        for i, v in zip((1, 2, 3, 4), (0.6, 0.8, 0.0, 0.0))
    )
    spec = parse_run_file(_write(tmp_path, text + amps + "\n"))
    assert spec.init.a2 == pytest.approx(0.8)


def test_parse_custom_requires_all_amplitudes(tmp_path):
    text = GOOD.replace("initial = bright", "initial = custom")
    with pytest.raises(ParseError, match="a1_im"):
        parse_run_file(_write(tmp_path, text + "a1_re = 1\n"))


def test_parse_amplitudes_only_with_custom(tmp_path):
    with pytest.raises(ParseError, match="custom"):
        parse_run_file(_write(tmp_path, GOOD + "a1_re = 1\n"))


@pytest.mark.parametrize("key,value", [("gamma1", "nan"), ("t_max", "inf"),
                                       ("dt_out", "-inf")])
def test_parse_non_finite_value(tmp_path, key, value):
    text = GOOD.replace(f"{key} = ", f"{key} = {value} # was ")
    with pytest.raises(ParseError, match="finite"):
        parse_run_file(_write(tmp_path, text))
