import os

import numpy as np
import pytest

from pbgpair.cli import main
from pbgpair.sweep import apply_parameter, parse_values, worker_count
from pbgpair.config import parse_run_file
from pbgpair.errors import DomainError

FIG4B_FILE = """
gamma1 = 6
gamma2 = 6
omega12 = 0.4
omega1c = -0.6
omega2c = -1.0
eta_degrees = 180
initial = bright
t_max = 1200
dt_out = 0.5
"""

SHORT_FILE = """
gamma1 = 3
gamma2 = 3
omega12 = 0.4
omega1c = 0.2
omega2c = -0.2
eta_degrees = 90
initial = bright
t_max = 20
dt_out = 0.5
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_preset_pole_table_rows(tmp_path):
    out = tmp_path / "poles.csv"
    assert main(["preset", "poles3b", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "function_tag,re_x,im_x,class,residue_re,residue_im"
    ims = [float(row.split(",")[2]) for row in lines[1:]]
    for target in (-3.4, -6.0, -5.6, 6.0):
        assert any(abs(v - target) < 0.05 for v in ims)


def test_run_config_equals_preset(tmp_path):
    cfgfile = _write(tmp_path, "fig4b.cfg", FIG4B_FILE)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", cfgfile, "-o", str(out_a), "--tmax", "40"]) == 0
    assert main(["preset", "fig4b", "-o", str(out_b), "--tmax", "40"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_preset_output_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["preset", "fig4a", "-o", str(out1), "--tmax", "60"]) == 0
    assert main(["preset", "fig4a", "-o", str(out2), "--tmax", "60"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "gamma1 == 3\n")
    assert main(["run", bad, "-o", str(tmp_path / "x.csv")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_preset_exit_code(tmp_path):
    assert main(["preset", "nope", "-o", str(tmp_path / "x.csv")]) == 2


def test_io_error_exit_code(tmp_path):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    target = os.path.join(str(tmp_path), "no", "such", "dir", "out.csv")
    assert main(["run", cfgfile, "-o", target, "--tmax", "5"]) == 3


def test_poles_verb_with_config(tmp_path):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    out = tmp_path / "p.csv"
    assert main(["poles", cfgfile, "-o", str(out)]) == 0
    assert out.read_text().startswith("function_tag,")


def test_engine_both_logs_deviation(tmp_path, caplog):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    out = tmp_path / "no.csv"
    with caplog.at_level("INFO", logger="pbgpair"):
        assert main(["run", cfgfile, "-o", str(out), "--engine", "both",
                     "--tmax", "15", "--modes", "800"]) == 0
    msgs = [r.getMessage() for r in caplog.records if "deviation" in r.getMessage()]
    assert msgs, caplog.records
    dev = float(msgs[0].split("deviation")[1].split()[0])
    assert dev <= 5e-3


def test_engine_oracle_series(tmp_path):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    out = tmp_path / "orc.csv"
    assert main(["run", cfgfile, "-o", str(out), "--engine", "oracle",
                 "--tmax", "10", "--modes", "600"]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("t,N,E_N")
    first = rows[1].split(",")
    assert float(first[2]) == pytest.approx(1.0, abs=1e-9)  # bright start


def test_csv_header_and_formatting(tmp_path):
    out = tmp_path / "fig7a.csv"
    assert main(["preset", "fig7a", "-o", str(out), "--tmax", "10"]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,N,E_N,field_prob,abs_A1,abs_A2,abs_A3,abs_A4"
    assert len(rows) == 22  # t = 0 .. 10 step 0.5
    assert "-0," not in rows[1]


def test_parse_values_forms():
    assert parse_values("gamma", "1.5, 6,10") == [1.5, 6.0, 10.0]
    assert parse_values("omega1c_omega2c_pair", "0.6:0.2;-0.6:-1") == \
        [(0.6, 0.2), (-0.6, -1.0)]
    assert parse_values("gamma", "") == []
    with pytest.raises(DomainError):
        parse_values("gamma", "a,b")
    with pytest.raises(DomainError):
        parse_values("omega1c_omega2c_pair", "1,2")


def test_apply_parameter_pair_updates_splitting(tmp_path):
    spec = parse_run_file(_write(tmp_path, "s.cfg", SHORT_FILE))
    out = apply_parameter(spec, "omega1c_omega2c_pair", (-1.6, -2.6))
    assert out.config.omega12 == pytest.approx(1.0)
    out = apply_parameter(spec, "eta", 180.0)
    assert out.config.cos_eta == -1.0


def test_sweep_empty_values(tmp_path):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    outdir = tmp_path / "sweep_empty"
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "",
                 "-o", str(outdir)]) == 0
    assert (outdir / "summary.csv").read_text().strip() == "value,half_life,integrated_EN"


def test_sweep_gamma_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("THREADS", "2")
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "2,5",
                 "-o", str(outdir), "--tmax", "30"]) == 0
    rows = (outdir / "summary.csv").read_text().strip().splitlines()
    assert rows[0] == "value,half_life,integrated_EN"
    assert [r.split(",")[0] for r in rows[1:]] == ["2", "5"]
    for v in ("2", "5"):
        body = (outdir / f"gamma_{v}.csv").read_text().splitlines()
        assert len(body) == 62

    # worker count must not change the bytes
    monkeypatch.setenv("THREADS", "1")
    outdir2 = tmp_path / "sweep1"
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "2,5",
                 "-o", str(outdir2), "--tmax", "30"]) == 0
    for name in ("summary.csv", "gamma_2.csv", "gamma_5.csv"):
        assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes()


def test_amplitude_dump_option(tmp_path):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    out = tmp_path / "series.csv"
    dump = tmp_path / "amps.csv"
    assert main(["run", cfgfile, "-o", str(out), "--tmax", "5",
                 "--amplitudes", str(dump)]) == 0
    rows = dump.read_text().strip().splitlines()
    assert rows[0] == "t,re_a1,im_a1,re_a2,im_a2,re_a3,im_a3,re_a4,im_a4,field_prob"
    assert len(rows) == 12
    first = [float(v) for v in rows[1].split(",")]
    assert first[1] == pytest.approx(1 / 2 ** 0.5, abs=1e-12)


def test_preset_table_is_exactly_the_figure_set():
    from pbgpair.presets import PRESET_NAMES

    expected = {f"fig2{s}" for s in "abc"} | {f"fig4{s}" for s in "abc"} \
        | {f"fig5{s}" for s in "abc"} | {f"fig7{s}" for s in "abcd"} \
        | {"poles3a", "poles3b", "poles6a", "poles6b"}
    assert set(PRESET_NAMES) == expected


def test_fig5a_regression_plateau(tmp_path):
    # orthogonal dipoles, weak exchange: E_N falls from 1 to the bound-state
    # plateau (computed once with this implementation, frozen here)
    out = tmp_path / "fig5a.csv"
    assert main(["preset", "fig5a", "-o", str(out), "--tmax", "120"]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    t_vals = np.array([float(r.split(",")[0]) for r in rows])
    en = np.array([float(r.split(",")[2]) for r in rows])
    k100 = int(np.searchsorted(t_vals, 100.0))
    assert en[0] == 1.0
    assert 0.05 < en[k100] < 0.09


def test_sweep_passes_modes_to_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setenv("THREADS", "1")
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    single = tmp_path / "run.csv"
    assert main(["run", cfgfile, "-o", str(single), "--engine", "oracle",
                 "--tmax", "5", "--modes", "200"]) == 0
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "3",
                 "-o", str(outdir), "--engine", "oracle", "--tmax", "5",
                 "--modes", "200"]) == 0
    assert (outdir / "gamma_3.csv").read_bytes() == single.read_bytes()


def test_bad_threads_value_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THREADS", "abc")
    with pytest.raises(DomainError, match="THREADS"):
        worker_count()
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "3",
                 "-o", str(tmp_path / "sweep"), "--tmax", "5"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "THREADS" in err[0]


@pytest.mark.parametrize("key,value", [("gamma1", "nan"), ("t_max", "inf")])
def test_non_finite_run_file_value_exit_code(tmp_path, capsys, key, value):
    text = "\n".join(f"{key} = {value}" if ln.startswith(key + " ") else ln
                     for ln in SHORT_FILE.splitlines())
    cfgfile = _write(tmp_path, "nf.cfg", text)
    assert main(["run", cfgfile, "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "finite" in err[0]


@pytest.mark.parametrize("flag,value", [("--tmax", "inf"), ("--dt", "nan")])
def test_non_finite_grid_override_exit_code(tmp_path, capsys, flag, value):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    assert main(["run", cfgfile, "-o", str(tmp_path / "x.csv"), flag, value]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--tmax", "1e15", "--dt", "1"],                                   # output grid
    ["--engine", "oracle", "--modes", "1000000"],                      # oracle block
    ["--engine", "oracle", "--modes", "200", "--tmax", "10", "--dt", "1e-4"],  # propagation
])
def test_size_budget_exit_code(tmp_path, capsys, extra):
    assert main(["preset", "fig2a", "-o", str(tmp_path / "x.csv")] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "budget" in err[0]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"),
                                   FloatingPointError("overflow encountered in exp")])
def test_numpy_numerical_error_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("pbgpair.inversion.amplitudes_analytic", fail)
    assert main(["preset", "fig2a", "-o", str(tmp_path / "x.csv")]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert type(error).__name__ in err[0] and "pipeline.analytic_trajectory" in err[0]
    assert not (tmp_path / "x.csv").exists()
