import contextlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbgpair import bath
from pbgpair.cli import main
from pbgpair.sweep import apply_parameter, parse_values, run_sweep, worker_count
from pbgpair.config import parse_run_file, preset_initial, RunSpec
from pbgpair.errors import DomainError
from pbgpair.pipeline import n_points
from pbgpair.presets import get_preset, PRESET_NAMES

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


def _preset_run_file(tmp_path, name):
    """The run file with the values of preset ``name``, its amplitudes
    custom; a pole preset's file adds a start and a grid of its own."""
    preset = get_preset(name)
    if not isinstance(preset, RunSpec):
        preset = RunSpec(preset, preset_initial("unentangled"), t_max=1.0, dt_out=0.5)
    cfg = preset.config
    eta_degrees = {math.pi: 180, math.pi / 2: 90}[cfg.eta]
    lines = [f"{key} = {getattr(cfg, key)!r}"
             for key in ("gamma1", "gamma2", "omega12", "omega1c", "omega2c")]
    lines += [f"eta_degrees = {eta_degrees}", "initial = custom",
              f"t_max = {preset.t_max!r}", f"dt_out = {preset.dt_out!r}"]
    lines += [f"a{i}_{part} = {getattr(a, attr)!r}"
              for i, a in enumerate(preset.init.as_tuple(), start=1)
              for part, attr in (("re", "real"), ("im", "imag"))]
    return _write(tmp_path, f"{name}.cfg", "\n".join(lines) + "\n")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_is_its_run_file(tmp_path, name):
    # a series preset writes what `run` writes for its run file, a pole
    # preset what `poles` writes
    verb = "run" if isinstance(get_preset(name), RunSpec) else "poles"
    by_file, by_name = tmp_path / "file.csv", tmp_path / "name.csv"
    assert main([verb, _preset_run_file(tmp_path, name), "-o", str(by_file)]) == 0
    assert main(["preset", name, "-o", str(by_name)]) == 0
    assert by_file.read_bytes() == by_name.read_bytes()


@pytest.mark.parametrize("extra", [["--amplitudes", "amps.csv"], ["--engine", "both"],
                                   ["--tmax", "5"], ["--dt", "0.1"], ["--modes", "50"]])
def test_pole_preset_refuses_series_options(tmp_path, monkeypatch, capsys, extra):
    # like the poles verb, a pole preset refuses the options of a series
    # and writes nothing
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "poles3a", *extra, "-o", "p.csv"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and extra[0] in err[0]
    assert list(tmp_path.iterdir()) == []


def test_preset_output_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["preset", "fig4a", "-o", str(out1), "--tmax", "60"]) == 0
    assert main(["preset", "fig4a", "-o", str(out2), "--tmax", "60"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "gamma1 == 3\n")
    assert main(["run", bad, "-o", str(tmp_path / "x.csv")]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,message", [
    (["--help"], 0, ""),
    ([], 2, "the following arguments are required: command"),
    (["sweep", "s.cfg", "--param", "omega1c_omega2c_pair", "--values", "-0.6:-1;-1:-1",
      "-o", "sweep"], 2, "argument --values: expected one argument"),
], ids=["help", "no-verb", "values-starting-with-dash"])
def test_argparse_exit_codes(tmp_path, monkeypatch, capsys, argv, code, message):
    # argparse's own exits return the code of the contract, with its message
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_successive_calls_share_no_state(tmp_path, caplog):
    # the parser is built once per process; options of one call must not
    # reach the next
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    logged = []
    for argv, out in ((["--engine", "both", "--modes", "200", "--tmax", "5"], first),
                      ([], second)):
        caplog.clear()
        with caplog.at_level("INFO", logger="pbgpair"):
            assert main(["preset", "fig2a", *argv, "-o", str(out)]) == 0
        logged.append(any("engine=both" in r.getMessage() for r in caplog.records))
    assert logged == [True, False]
    p = get_preset("fig2a")
    rows = second.read_text().strip().splitlines()[1:]
    assert len(rows) == n_points(p.t_max, p.dt_out)
    assert float(rows[-1].split(",")[0]) == p.t_max
    assert float(first.read_text().strip().splitlines()[-1].split(",")[0]) == 5.0


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


def test_sweep_in_gap_pairs_in_the_equals_form(tmp_path, monkeypatch):
    # "--values -0.6:-1;..." reads as an option; "--values=..." does not
    monkeypatch.setenv("THREADS", "1")
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfgfile, "--param", "omega1c_omega2c_pair",
                 "--values=-0.6:-1;-1:-1", "-o", str(outdir), "--tmax", "5"]) == 0
    for label in ("-0.6_-1", "-1_-1"):
        assert len((outdir / f"omega1c_omega2c_pair_{label}.csv").read_text().splitlines()) == 12


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


@pytest.mark.parametrize("param,values", [
    ("gamma", "2,3,4,5,6"),
    ("eta", "0,30,90,150,180"),
    ("omega1c_omega2c_pair", "-0.6:-1;-1:-1;0.2:-0.2;0.5:0.5;-0.3:0.1"),
])
def test_sweep_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, param, values):
    # 5 values in shares of 5, 3+2 and 2+2+1; THREADS 7 is past the number
    # of values, and three CPUs keep every run to three processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    runs = {}
    for threads in ("1", "2", "3", "7"):
        monkeypatch.setenv("THREADS", threads)
        outdir = tmp_path / f"sweep{threads}"
        assert main(["sweep", cfgfile, "--param", param, f"--values={values}",
                     "-o", str(outdir), "--tmax", "30"]) == 0
        runs[threads] = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert len(runs["1"]) == 6
    for threads in ("2", "3", "7"):
        assert runs[threads] == runs["1"]


def test_sweep_memory_does_not_grow_with_its_values(tmp_path, monkeypatch):
    # each value's CSV goes to its file as soon as the value has run, so 8
    # values of 5,001 points peak within one value's CSV text of 2 values
    # (a sweep that held every text to the end would peak six texts,
    # 3.6 MB, higher)
    monkeypatch.setenv("THREADS", "1")
    spec = replace(parse_run_file(_write(tmp_path, "s.cfg", FIG4B_FILE)), t_max=2500.0)
    peaks = {}
    for n in (2, 8):
        tracemalloc.start()
        try:
            run_sweep(spec, "eta", [180.0 - 10.0 * i for i in range(n)], tmp_path / f"s{n}")
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = (tmp_path / "s2" / "eta_180.csv").stat().st_size
    assert len(list((tmp_path / "s8").iterdir())) == 9
    assert peaks[8] - peaks[2] < text


def _stale_temporary_files(where, name):
    """Plant the temporary files that a killed process of this pid would
    have left for ``name`` in ``where``, in the form without and with a
    random part; returns their names."""
    paths = [os.path.join(where, f".pbgpair-{os.getpid()}-{name}.tmp"),
             os.path.join(where, f".pbgpair-{os.getpid()}-{os.urandom(6).hex()}-{name}.tmp")]
    for path in paths:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stale\n")
    return [os.path.basename(path) for path in paths]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_sweep_removes_the_files_it_wrote(tmp_path, monkeypatch, capsys, threads):
    # a summary that cannot be written (a directory holds its name) and an
    # interrupt at this process's second value remove the CSVs already
    # renamed and every temporary file they made, and no file that was
    # there before, such as an earlier process's temporary file
    from pbgpair.pipeline import run_spec

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("THREADS", threads)
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    outdir = tmp_path / "sweep"
    (outdir / "summary.csv").mkdir(parents=True)
    stale = _stale_temporary_files(outdir, "gamma_3.csv")
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "2,3,4", "--tmax", "5",
                 "-o", str(outdir)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"'{outdir / 'summary.csv'}'" in err[0]
    assert ".pbgpair-" not in err[0] and " -> " not in err[0]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(["summary.csv", *stale])
    assert all((outdir / f).read_text(encoding="utf-8") == "stale\n" for f in stale)

    def interrupt(spec):
        if spec.config.gamma1 == 3.0:
            raise KeyboardInterrupt
        return run_spec(spec)

    monkeypatch.setattr("pbgpair.sweep.run_spec", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(parse_run_file(cfgfile), "gamma", [2.0, 3.0, 4.0], tmp_path / "sweep2")
    assert list((tmp_path / "sweep2").iterdir()) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("args,name,outputs", [
    (["preset", "fig2a", "-o", "{out}/fig2a.csv"], "fig2a.csv", ["fig2a.csv"]),
    (["sweep", "{cfg}", "--param", "eta", "--values", "30,60", "--tmax", "5", "-o", "{out}"],
     "eta_30.csv", ["eta_30.csv", "eta_60.csv", "summary.csv"]),
], ids=["preset", "sweep"])
def test_stale_temporary_files_are_left_alone(tmp_path, monkeypatch, args, name, outputs):
    # a killed run leaves its temporary file, and a later process may have
    # the same pid (a container's entry process is pid 1 on every run): the
    # run writes beside the file and leaves it as it was
    monkeypatch.setenv("THREADS", "1")
    cfgfile, out = _write(tmp_path, "s.cfg", SHORT_FILE), tmp_path / "out"
    out.mkdir()
    stale = _stale_temporary_files(out, name)
    assert main([a.format(out=out, cfg=cfgfile) for a in args]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + stale)
    assert all((out / f).read_text(encoding="utf-8") == "stale\n" for f in stale)


def test_unknown_sweep_parameter_through_the_library(tmp_path):
    # the CLI's choices refuse such a parameter before the library sees it
    spec, out = parse_run_file(_write(tmp_path, "s.cfg", SHORT_FILE)), tmp_path / "sweep"
    with pytest.raises(DomainError, match="bogus"):
        run_sweep(spec, "bogus", [1.0], out)
    assert not out.exists()
    with pytest.raises(DomainError, match="bogus"):
        apply_parameter(spec, "bogus", 1.0)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the failing stand-in reaches the workers by fork")
def test_failing_sweep_value_names_one_stage(tmp_path, monkeypatch, capsys):
    # a value that fails in this process and one that fails in a worker
    # print the same line, write no value's file and leave no process behind
    from pbgpair.pipeline import run_spec

    def run_or_fail(spec):
        if spec.config.gamma1 == bad:
            raise np.linalg.LinAlgError("Singular matrix")
        return run_spec(spec)

    monkeypatch.setattr("pbgpair.sweep.run_spec", run_or_fail)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    lines = set()
    # at THREADS 2 this process runs 2, 3, 4 and the worker 5, 6
    for threads, bad in (("1", 2.0), ("1", 6.0), ("2", 2.0), ("2", 6.0)):
        monkeypatch.setenv("THREADS", threads)
        outdir = tmp_path / f"sweep{threads}_{bad:g}"
        assert main(["sweep", cfgfile, "--param", "gamma", "--values", "2,3,4,5,6",
                     "-o", str(outdir), "--tmax", "5"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        lines.add(err[0])
        assert list(outdir.iterdir()) == []
        assert multiprocessing.active_children() == []
    assert lines == {"pbgpair sweep: numerical failure in sweep._run_one: "
                     "LinAlgError: Singular matrix"}


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in reaches the worker by fork")
def test_failing_sweep_value_stops_the_other_shares(tmp_path, monkeypatch, capsys):
    # the value in this process's share fails at once and the worker's
    # sleeps: the sweep exits without waiting for the worker, and ends it
    def fail_or_sleep(spec):
        if spec.config.gamma1 == 2.0:
            raise np.linalg.LinAlgError("Singular matrix")
        time.sleep(2.0)

    monkeypatch.setattr("pbgpair.sweep.run_spec", fail_or_sleep)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("THREADS", "2")
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    start = time.perf_counter()
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "2,3",
                 "-o", str(tmp_path / "sweep")]) == 4
    assert time.perf_counter() - start < 1.0
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in reaches the workers by fork")
@pytest.mark.parametrize("threads,values,bad", [("2", "1,2,3,4,5,6", 4.0),
                                                ("3", "1,2,3,4,5,6,7,8,9", 7.0)])
def test_failing_worker_value_is_reported_between_this_process_values(
        tmp_path, monkeypatch, capsys, threads, values, bad):
    # this process runs 1, 2, 3 and every value but a worker's first sleeps
    # 1 s: the failure is seen after this process's first value, not its share
    from pbgpair.pipeline import run_spec

    def fail_or_sleep(spec):
        if spec.config.gamma1 == bad:
            raise np.linalg.LinAlgError("Singular matrix")
        time.sleep(1.0)
        return run_spec(spec)

    monkeypatch.setattr("pbgpair.sweep.run_spec", fail_or_sleep)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setenv("THREADS", threads)
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    outdir = tmp_path / "sweep"
    start = time.perf_counter()
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", values, "--tmax", "5",
                 "-o", str(outdir)]) == 4
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["pbgpair sweep: numerical failure in sweep._run_one: "
                   "LinAlgError: Singular matrix"]
    assert list(outdir.iterdir()) == []
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in reaches the worker by fork")
def test_worker_failure_is_raised_again_in_this_process(tmp_path, monkeypatch):
    # the worker runs 5, 6; its failure, whose attribute does not pickle,
    # is raised here as the exception itself, not as a copy or a stand-in
    from pbgpair.pipeline import run_spec

    def run_or_fail(spec):
        if spec.config.gamma1 == 6.0:
            exc = np.linalg.LinAlgError("Singular matrix")
            exc.hook = lambda: None
            raise exc
        return run_spec(spec)

    monkeypatch.setattr("pbgpair.sweep.run_spec", run_or_fail)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("THREADS", "2")
    spec = parse_run_file(_write(tmp_path, "s.cfg", SHORT_FILE))
    outdir = tmp_path / "sweep"
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix") as info:
        run_sweep(spec, "gamma", [2.0, 3.0, 4.0, 5.0, 6.0], outdir)
    assert callable(info.value.hook)
    assert list(outdir.iterdir()) == []
    assert multiprocessing.active_children() == []


def _in_child(script, *args, timeout=60):
    """``python -c script args`` with this pbgpair on its path, under a
    timeout; its stdout read as JSON, and its stderr lines."""
    import pbgpair

    src = os.path.dirname(os.path.dirname(os.path.abspath(pbgpair.__file__)))
    run = subprocess.run([sys.executable, "-c", script, *args],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, timeout=timeout)
    assert run.stdout, run.stderr
    return json.loads(run.stdout), run.stderr.strip().splitlines()


# A gamma sweep at THREADS 2 on two CPUs in a child interpreter, under a
# timeout so that a sweep that hangs fails the test in place of Tier-1;
# {stand_in} may replace run_spec.  It prints main's exit code and seconds,
# the processes left, whether the process pool module was loaded and
# whether OpenSSL's hash module was (loading it for temporary names raised
# the sweep benchmark's peak resident set by 2-4 MB).
CHILD_SWEEP = """
import json, multiprocessing, os, sys, time
import numpy as np
import pbgpair.sweep
from pbgpair.cli import main
from pbgpair.pipeline import run_spec
{stand_in}
os.sched_getaffinity = lambda pid: {{0, 1}}
os.environ["THREADS"] = "2"
start = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps([code, time.perf_counter() - start, len(multiprocessing.active_children()),
                  "multiprocessing.pool" in sys.modules, "_hashlib" in sys.modules]))
"""


def _sweep_in_child(tmp_path, stand_in=""):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    outdir = tmp_path / "sweep"
    (code, seconds, children, pool, hashlib), err = _in_child(
        CHILD_SWEEP.format(stand_in=stand_in), "sweep", cfgfile, "--param", "gamma",
        "--values", "2,3,4,5,6", "--tmax", "5", "-o", str(outdir))
    return code, seconds, children, pool, hashlib, err, outdir


def test_sweep_workers_load_no_process_pool(tmp_path):
    code, _, children, pool, hashlib, err, outdir = _sweep_in_child(tmp_path)
    assert (code, children, pool, hashlib, err) == (0, 0, False, False, [])
    assert len(list(outdir.iterdir())) == 6


# at THREADS 2 this process runs 2, 3, 4 and the worker 5, 6
DEAD_WORKER = """
def stand_in(spec):
    if spec.config.gamma1 == 5.0:
        os._exit(1)
    return run_spec(spec)
pbgpair.sweep.run_spec = stand_in
"""
# a failure whose attribute does not pickle, one that pickles but cannot be
# rebuilt from its arguments, and one that happens only in the worker
LAMBDA_FAILURE = """
def stand_in(spec):
    if spec.config.gamma1 == 5.0:
        exc = np.linalg.LinAlgError("Singular matrix")
        exc.hook = lambda: None
        raise exc
    return run_spec(spec)
pbgpair.sweep.run_spec = stand_in
"""
TWO_ARGUMENT_FAILURE = """
class TwoArguments(np.linalg.LinAlgError):
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")
def stand_in(spec):
    if spec.config.gamma1 == 5.0:
        raise TwoArguments("Singular", "matrix")
    return run_spec(spec)
pbgpair.sweep.run_spec = stand_in
"""
WORKER_ONLY_FAILURE = """
parent = os.getpid()
def stand_in(spec):
    if spec.config.gamma1 == 5.0 and os.getpid() != parent:
        raise MemoryError("no room for\\nthe grid")
    return run_spec(spec)
pbgpair.sweep.run_spec = stand_in
"""
# the same at the worker's second value, once its first value's temporary
# file is in the output directory (else the worker exits with code 3)
FIRST_FILE_WRITTEN = """
def first_file_written():
    out = sys.argv[sys.argv.index("-o") + 1]
    if not any(name.endswith("-gamma_5.csv.tmp") for name in os.listdir(out)):
        os._exit(3)
"""
DEAD_AT_SECOND = FIRST_FILE_WRITTEN + """
def stand_in(spec):
    if spec.config.gamma1 == 6.0:
        first_file_written()
        os._exit(1)
    return run_spec(spec)
pbgpair.sweep.run_spec = stand_in
"""
WORKER_ONLY_AT_SECOND = FIRST_FILE_WRITTEN + """
parent = os.getpid()
def stand_in(spec):
    if spec.config.gamma1 == 6.0 and os.getpid() != parent:
        first_file_written()
        raise MemoryError("no room for\\nthe grid")
    return run_spec(spec)
pbgpair.sweep.run_spec = stand_in
"""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the stand-in reaches the worker by fork")
@pytest.mark.parametrize("stand_in,failure", [
    (DEAD_WORKER, "NumericalError: the worker of values 5, 6 ended with exit code 1 "
                  "before it sent its results"),
    (LAMBDA_FAILURE, "sweep._run_one: LinAlgError: Singular matrix"),
    (TWO_ARGUMENT_FAILURE, "sweep._run_one: TwoArguments: Singular matrix"),
    (WORKER_ONLY_FAILURE, "NumericalError: value 5 failed only in its worker: "
                          "MemoryError: no room for the grid"),
    (DEAD_AT_SECOND, "NumericalError: the worker of values 5, 6 ended with exit code 1 "
                     "before it sent its results"),
    (WORKER_ONLY_AT_SECOND, "NumericalError: value 6 failed only in its worker: "
                            "MemoryError: no room for the grid"),
], ids=["exit", "unpicklable", "not-rebuilt", "worker-only", "exit-second",
        "worker-only-second"])
def test_worker_that_dies_or_sends_no_failure_ends_the_sweep(tmp_path, stand_in, failure):
    # a worker that exits mid-share, whose failure does not pickle, or whose
    # value fails only there ends the sweep with one line, no file (not the
    # temporary file of a value the worker has run) and no process left; a
    # failure that recurs here names its stage
    code, seconds, children, _, _, err, outdir = _sweep_in_child(tmp_path, stand_in)
    assert code == 4 and seconds < 2.0
    assert err == [f"pbgpair sweep: numerical failure in {failure}"]
    assert list(outdir.iterdir()) == []
    assert children == 0


@pytest.mark.parametrize("verb", ["run", "preset", "sweep"])
@pytest.mark.parametrize("message,failure", [
    ("no room for\nthe grid", "MemoryError: no room for the grid"),
    ("", "MemoryError"),
], ids=["message", "bare"])
def test_memory_error_is_a_numerical_failure(tmp_path, monkeypatch, capsys, verb, message,
                                              failure):
    # a MemoryError in this process (a THREADS=1 sweep runs every value
    # here) exits 4 with one line naming its stage, and writes no file
    def no_room(spec):
        raise MemoryError(message)

    monkeypatch.setattr("pbgpair.cli.run_spec", no_room)
    monkeypatch.setattr("pbgpair.sweep.run_spec", no_room)
    monkeypatch.setenv("THREADS", "1")
    cfgfile, out = _write(tmp_path, "s.cfg", SHORT_FILE), tmp_path / "out"
    args = {"run": ["run", cfgfile, "-o", str(out)],
            "preset": ["preset", "fig2b", "-o", str(out)],
            "sweep": ["sweep", cfgfile, "--param", "gamma", "--values", "2,3",
                      "-o", str(out)]}[verb]
    assert main(args) == 4
    stage = "sweep._run_one" if verb == "sweep" else "cli._emit_series"
    assert capsys.readouterr().err.splitlines() == [
        f"pbgpair {verb}: numerical failure in {stage}: {failure}"]
    assert not out.exists() or list(out.iterdir()) == []


def test_worker_count_reads_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("THREADS", "4")
    assert worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count() == 3
    monkeypatch.setenv("THREADS", "2")
    assert worker_count() == 2


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


@pytest.mark.parametrize("verb", ["preset", "run"])
def test_failed_amplitude_dump_leaves_the_series_file_as_it_was(tmp_path, monkeypatch, capsys,
                                                                 verb):
    # -o and --amplitudes are published together: a dump whose directory is
    # missing leaves an earlier out.csv as it was and no temporary file, and
    # the one error line names the path given
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "s.cfg", SHORT_FILE)
    (tmp_path / "out.csv").write_bytes(b"earlier\n")
    source = ["preset", "fig2a"] if verb == "preset" else ["run", "s.cfg"]
    assert main([*source, "-o", "out.csv", "--tmax", "5", "--amplitudes", "missing/a.csv"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "I/O error" in err[0] and "'missing/a.csv'" in err[0]
    assert ".pbgpair-" not in err[0]
    assert (tmp_path / "out.csv").read_bytes() == b"earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "s.cfg"]


@pytest.mark.parametrize("amplitudes", ["x.csv", "./x.csv", "{cwd}/sub/../x.csv"])
def test_amplitudes_naming_the_output_file_is_refused(tmp_path, monkeypatch, capsys, amplitudes):
    # the dump would replace the series: refused before the engine runs,
    # with one line and no file written
    def fail(*_, **__):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("pbgpair.cli.run_spec", fail)
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "fig2a", "-o", "x.csv",
                 "--amplitudes", amplitudes.format(cwd=tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--amplitudes" in err[0] and "-o" in err[0]
    assert list(tmp_path.iterdir()) == []


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


def test_modes_reaches_the_oracle_through_every_verb(tmp_path, monkeypatch, caplog):
    # --modes is one field of the run whichever verb gives it: the oracle
    # CSV depends on the bath size (horizon 18.9 at 300 modes), and run,
    # sweep and preset write the same bytes and log the same roots
    monkeypatch.setenv("THREADS", "1")
    oracle = ["--engine", "oracle", "--tmax", "15"]

    def call(argv, modes="300"):
        caplog.clear()
        with caplog.at_level("INFO", logger="pbgpair"):
            assert main([*argv, *oracle, "--modes", modes]) == 0
        return [r.getMessage() for r in caplog.records if r.getMessage().startswith("oracle:")]

    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    single, bigger = tmp_path / "run.csv", tmp_path / "run400.csv"
    logged = call(["run", cfgfile, "-o", str(single)])
    call(["run", cfgfile, "-o", str(bigger)], modes="400")
    assert single.read_bytes() != bigger.read_bytes()
    outdir = tmp_path / "sweep"
    assert call(["sweep", cfgfile, "--param", "gamma", "--values", "3",
                 "-o", str(outdir)]) == logged
    assert len(logged) == 1 and "horizon 18.9" in logged[0]
    assert (outdir / "gamma_3.csv").read_bytes() == single.read_bytes()
    by_file, by_name = tmp_path / "fig2b_file.csv", tmp_path / "fig2b_name.csv"
    call(["run", _preset_run_file(tmp_path, "fig2b"), "-o", str(by_file)])
    call(["preset", "fig2b", "-o", str(by_name)])
    assert by_file.read_bytes() == by_name.read_bytes()


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
    ["--dt", "5e-324"],                                                # ratio overflows
    ["--tmax", "1e300", "--dt", "1e-10"],
    ["--tmax", "1e300"],                                               # 3 digits, not 301
])
def test_size_budget_exit_code(tmp_path, capsys, extra):
    assert main(["preset", "fig2a", "-o", str(tmp_path / "x.csv")] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "budget" in err[0] and len(err[0]) < 200
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["poles", "run"])
@pytest.mark.parametrize("eta", ["90", "45"])
def test_overflowing_roots_exit_code(tmp_path, capsys, command, eta):
    # identical transitions 1e300 below the edge: the cubics have roots at
    # |S| ~ 1e150, where S^3 overflows; no warning, no row of nan or inf
    text = (f"gamma1 = 5\ngamma2 = 5\nomega12 = 0\nomega1c = -1e300\nomega2c = -1e300\n"
            f"eta_degrees = {eta}\ninitial = bright\nt_max = 20\ndt_out = 0.5\n")
    cfgfile = _write(tmp_path, "huge.cfg", text)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, cfgfile, "-o", str(out)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "overflows" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "poles"])
@pytest.mark.parametrize("gamma1", ["2.2e-311", "1e-315", "5e-324"])
def test_subnormal_exchange_strength(tmp_path, capsys, command, gamma1):
    # a1 = gamma1 subnormal is taken as 0: the run is the gamma1 = 0 run byte
    # for byte, the pole table holds no nan, and nothing warns
    def run_file(g):
        return _write(tmp_path, f"{g}.cfg", f"gamma1 = {g}\ngamma2 = 0\nomega12 = 0\n"
                      "omega1c = 0\nomega2c = 0\neta_degrees = 0\ninitial = unentangled\n"
                      "t_max = 20\ndt_out = 0.5\n")
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, run_file(gamma1), "-o", str(out)]) == 0
        assert main([command, run_file("0"), "-o", str(ref)]) == 0
    assert capsys.readouterr().err == ""
    if command == "run":
        assert out.read_bytes() == ref.read_bytes()
    else:
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6 and all(np.isfinite(float(v)) for r in rows for v in r[1:3] + r[4:])


def test_table_row_beside_the_branch_point(tmp_path, capsys):
    # the table root x = 0 lies 1e-300 from the branch point, where the slope
    # 1/S^3 of 1 + 2 beta' overflows: its weight is finite, and nothing warns
    cfgfile = _write(tmp_path, "edge.cfg", "gamma1 = 1\ngamma2 = 1\nomega12 = 1\n"
                     "omega1c = 1e-300\nomega2c = -1\neta_degrees = 90\ninitial = bright\n"
                     "t_max = 20\ndt_out = 0.5\n")
    out = tmp_path / "p.csv"
    assert main(["poles", cfgfile, "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in out.read_text()


@pytest.mark.parametrize("gamma", [1e102, 6e102, 1e103, 1e150, 1e204])
def test_table_weight_of_strong_equal_exchange(tmp_path, capsys, gamma):
    # a1 = a2, so the cubic sectors serve (up to about 1e205), and the
    # 1 + 2 beta' row at x = -4.6i has the weight -8 / gamma^3: it underflows
    # towards 0, where the product of three factors of size gamma overflowed
    cfgfile = _write(tmp_path, "strong.cfg", f"gamma1 = {gamma!r}\ngamma2 = {gamma!r}\n"
                     "omega12 = 0.4\nomega1c = -0.6\nomega2c = -1\neta_degrees = 90\n"
                     "initial = bright\nt_max = 20\ndt_out = 0.5\n")
    out = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["poles", cfgfile, "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(np.isfinite(float(v)) for r in rows for v in r[1:3] + r[4:])
    weight = [float(r[4]) for r in rows if float(r[2]) == -4.6]
    assert weight == [pytest.approx(-8 / gamma / gamma / gamma, rel=1e-9, abs=1e-320)]
    # the two roots at x = -i gamma merge with the table's into H1 rows of
    # weight 1: no table row of weight 0 beside two G1 rows (from 6e102)
    assert [(r[0], r[3]) for r in rows] == [("G1", "bandpass"), ("H1", "bandpass")] + \
        [("H1", "localized")] * 3
    assert [float(r[4]) for r in rows if float(r[2]) == -gamma] == [1.0, 1.0]


@pytest.mark.parametrize("command,detuning", [("run", "-1e18"), ("poles", "-1e12")])
def test_far_detuning_exit_code(tmp_path, capsys, command, detuning):
    # both levels far below the edge: x = i (S^2 + omega1c) and the phase
    # e^{i omega1c t} cancel, and at 1e18 a run decayed into the field
    text = (f"gamma1 = 5\ngamma2 = 5\nomega12 = 0\nomega1c = {detuning}\n"
            f"omega2c = {detuning}\neta_degrees = 90\ninitial = bright\nt_max = 20\n"
            "dt_out = 0.5\n")
    cfgfile = _write(tmp_path, "far.cfg", text)
    out = tmp_path / "x.csv"
    assert main([command, cfgfile, "-o", str(out)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "band edge" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("param,values", [("gamma", "1,1.0000001,2"),
                                          ("omega1c_omega2c_pair", "0.6:0.2;0.6000001:0.2")])
def test_sweep_label_collision_exit_code(tmp_path, monkeypatch, capsys, param, values):
    # two values printing the same label would write one file and two summary rows
    monkeypatch.setenv("THREADS", "1")
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfgfile, "--param", param, "--values", values,
                 "-o", str(outdir), "--tmax", "5"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "label" in err[0]
    assert not outdir.exists()


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"),
                                   FloatingPointError("overflow encountered in exp")])
def test_numpy_numerical_error_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("pbgpair.inversion.amplitudes_analytic", fail)
    assert main(["preset", "fig2a", "-o", str(tmp_path / "x.csv")]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert type(error).__name__ in err[0] and "pipeline.run_spec" in err[0]
    assert not (tmp_path / "x.csv").exists()


def test_oracle_budget_accepts_12000_modes(tmp_path):
    # block dimension 12,212, past the 12,000 once sized for a dense eigh
    out = tmp_path / "fig2b.csv"
    assert main(["preset", "fig2b", "--engine", "both", "--modes", "12000",
                 "-o", str(out)]) == 0
    assert out.exists()


# main in a child interpreter: its exit code, its seconds and the child's
# peak resident set in bytes (ru_maxrss is in bytes on macOS, kilobytes
# elsewhere), or None where the resource module is missing
CHILD_RUN = """
import json, sys, time
from pbgpair.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
try:
    import resource
except ImportError:
    peak = None
else:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak *= 1 if sys.platform == "darwin" else 1024
print(json.dumps([code, time.perf_counter() - start, peak]))
"""


def test_oracle_cross_checks_fig2c_full_horizon(tmp_path):
    # 51,000 modes put the horizon (3,204) past fig2c's t_max, so the
    # engines are compared over the whole run; it runs untraced, since
    # tracemalloc tripled its time, and its peak is the child's whole
    # resident set, interpreter and numpy included
    out = tmp_path / "fig2c.csv"
    (code, wall, peak), err = _in_child(CHILD_RUN, "preset", "fig2c", "--engine", "both",
                                        "--modes", "51000", "-o", str(out), timeout=120)
    assert code == 0
    msg = [line for line in err if "deviation" in line][0]
    assert float(msg.split("deviation")[1].split()[0]) <= 5e-3
    assert msg.endswith("[0, 3200]")
    assert wall < 60.0
    # the peak is checked wherever the child can read it
    assert peak is None or peak < 1e9


def test_oracle_budget_refuses_before_building(tmp_path, capsys, monkeypatch):
    # block dimension 10,000,212: refused before the bath is built
    def build_bath(*args, **kwargs):
        raise AssertionError("the bath was built")

    monkeypatch.setattr(bath, "build_bath", build_bath)
    out = tmp_path / "x.csv"
    assert main(["preset", "fig2c", "--engine", "both", "--modes", "10000000",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "budget" in err[0]
    assert not out.exists()


def test_oracle_time_sum_budget_exit_code(tmp_path, capsys):
    # 25,001 points x block dimension 40,212: past the time-sum budget
    out = tmp_path / "x.csv"
    assert main(["preset", "fig2a", "--engine", "oracle", "--modes", "40000",
                 "--tmax", "2500", "--dt", "0.1", "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "time sum" in err[0] and "budget" in err[0]
    assert not out.exists()


def test_oracle_budgets_precede_the_analytic_engine(tmp_path, capsys, monkeypatch):
    # about 75,000 oracle points at 12,000 modes: refused before the
    # analytic engine computes its 420,001
    def fail(*args, **kwargs):
        raise AssertionError("the analytic engine ran")

    monkeypatch.setattr("pbgpair.inversion.amplitudes_analytic", fail)
    out = tmp_path / "x.csv"
    assert main(["preset", "fig5c", "--engine", "both", "--modes", "12000", "--dt", "0.01",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "oracle output grid" in err[0] and "budget" in err[0]
    assert not out.exists()


def test_oracle_past_the_horizon_is_a_budget(tmp_path, capsys, monkeypatch):
    # the horizon follows from --modes alone (12.6 at 200 modes), so an
    # oracle run past it is refused like the other budgets, before either
    # engine starts
    def fail(*args, **kwargs):
        raise AssertionError("an engine ran")

    monkeypatch.setattr("pbgpair.bath.integrate", fail)
    monkeypatch.setattr("pbgpair.inversion.amplitudes_analytic", fail)
    out = tmp_path / "x.csv"
    assert main(["preset", "fig2a", "--engine", "oracle", "--modes", "200",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "horizon 12.6295" in err[0] and "--modes" in err[0]
    assert not out.exists()


def test_each_call_logs_to_its_own_stderr(tmp_path):
    # the log handler is bound to the sys.stderr of each main call, so two
    # in-process calls capture their own log lines, and none is left behind
    captured = []
    for k in range(2):
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            assert main(["preset", "fig2a", "--engine", "both", "--modes", "200",
                         "--tmax", "5", "-o", str(tmp_path / f"{k}.csv")]) == 0
        captured.append(stream.getvalue().splitlines())
    for lines in captured:
        assert len(lines) == 2, lines
        assert lines[0].startswith("pbgpair: oracle: ")
        assert lines[1].startswith("pbgpair: engine=both: ")


def test_refused_oracle_run_prints_one_line(tmp_path):
    # in a real process the horizon-clip log line is emitted only once every
    # budget has passed: a refusal is the one stderr line
    import pbgpair

    src = os.path.dirname(os.path.dirname(os.path.abspath(pbgpair.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "pbgpair.cli", "preset", "fig5c", "--engine",
                           "both", "--modes", "12000", "--dt", "0.01",
                           "-o", str(tmp_path / "x.csv")],
                          env=env, capture_output=True, text=True)
    err = proc.stderr.splitlines()
    assert proc.returncode == 2
    assert len(err) == 1 and "oracle output grid" in err[0], err


SWEEP_TEMPLATE = SHORT_FILE.replace("omega1c = 0.2", "omega1c = -0.6").replace(
    "omega2c = -0.2", "omega2c = -1").replace("t_max = 20", "t_max = 300")
ORACLE_SWEEP = ["--param", "eta", "--values", "90,120", "--engine", "oracle", "--modes", "200"]


@pytest.mark.parametrize("threads,text,args,word", [
    ("1", SHORT_FILE, ["--param", "eta", "--values", "0,200", "--tmax", "5"], "eta"),
    ("abc", SHORT_FILE, ["--param", "gamma", "--values", "3", "--tmax", "5"], "THREADS"),
    ("1", SWEEP_TEMPLATE, ORACLE_SWEEP, "horizon"),
    ("1", SWEEP_TEMPLATE, ORACLE_SWEEP + ["--tmax", "1e9", "--dt", "1e-3"], "output grid"),
], ids=["bad-value", "bad-threads", "oracle-horizon", "output-grid"])
def test_sweep_refuses_before_anything_runs(tmp_path, monkeypatch, capsys, threads, text, args,
                                            word):
    # every value's run, its size budgets and THREADS are checked before the
    # output directory is made and before any value runs
    def fail(*_, **__):
        raise AssertionError("a value ran")

    monkeypatch.setattr("pbgpair.sweep.run_spec", fail)
    monkeypatch.setenv("THREADS", threads)
    cfgfile = _write(tmp_path, "s.cfg", text)
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfgfile, *args, "-o", str(outdir)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and word in err[0]
    assert not outdir.exists()


def test_output_path_naming_a_directory_leaves_no_temp_file(tmp_path, capsys):
    cfgfile = _write(tmp_path, "s.cfg", SHORT_FILE)
    target = tmp_path / "out"
    target.mkdir()
    assert main(["run", cfgfile, "-o", str(target), "--tmax", "5"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "I/O error" in err[0]
    assert list(target.iterdir()) == []
    assert not list(tmp_path.glob(".pbgpair-*.tmp"))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_refuses_a_symlink_at_a_temporary_name(tmp_path, monkeypatch, capsys, threads):
    # a link planted at a value's temporary name (the worker's value at
    # THREADS=2; the name's random part fixed here) fails the sweep with
    # exit 3; the sweep's own files are removed, and the link, which is not
    # this run's, is left as it was, with the file it points to
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "urandom", bytes)
    monkeypatch.setenv("THREADS", threads)
    cfgfile, outdir, target = _write(tmp_path, "s.cfg", SHORT_FILE), tmp_path / "sweep", \
        tmp_path / "target"
    outdir.mkdir()
    target.write_text("kept\n", encoding="utf-8")
    link = outdir / f".pbgpair-{os.getpid()}-000000000000-gamma_3.csv.tmp"
    os.symlink(target, link)
    assert main(["sweep", cfgfile, "--param", "gamma", "--values", "2,3", "--tmax", "5",
                 "-o", str(outdir)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "I/O error" in err[0] and "File exists" in err[0]
    assert [p.name for p in outdir.iterdir()] == [link.name] and link.is_symlink()
    assert target.read_text(encoding="utf-8") == "kept\n"


def test_antisymmetric_start_needs_no_secular_root(tmp_path, caplog):
    # A1 = -A3 = 1/sqrt2 has no symmetric amplitude: the oracle solves no
    # secular equation and both engines give the pure exchange phase
    amps = {"a1_re": 2 ** -0.5, "a3_re": -(2 ** -0.5)}
    text = SHORT_FILE.replace("initial = bright", "initial = custom") + "".join(
        f"a{i}_{part} = {amps.get(f'a{i}_{part}', 0.0)!r}\n"
        for i in (1, 2, 3, 4) for part in ("re", "im"))
    cfgfile = _write(tmp_path, "a.cfg", text)
    with caplog.at_level("INFO", logger="pbgpair"):
        assert main(["run", cfgfile, "-o", str(tmp_path / "a.csv"), "--engine", "both",
                     "--tmax", "10", "--modes", "200"]) == 0
    msgs = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("oracle: 0 secular roots") for m in msgs), msgs
    dev = [m for m in msgs if "deviation" in m][0]
    assert float(dev.split("deviation")[1].split()[0]) <= 1e-12


def test_cli_import_leaves_the_worker_pool_unloaded():
    # multiprocessing loads only for a sweep with more than one worker;
    # the benchmark's tracer needs pbgpair.bath loaded
    import pbgpair

    src = os.path.dirname(os.path.dirname(os.path.abspath(pbgpair.__file__)))
    code = ("import sys, pbgpair.cli; "
            "print('multiprocessing' in sys.modules, 'pbgpair.bath' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["False", "True"]


# a lone 0xff, a stray continuation byte, a truncated sequence, an encoded
# surrogate and Latin-1 text
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", "d\xe9tuning".encode("latin-1")]


@pytest.mark.parametrize("verb", ["run", "poles", "sweep"])
@pytest.mark.parametrize("line,before,after", [(1, b"\xff", b""),
                                               (4, b"", " # d\xe9tuning".encode("latin-1"))],
                         ids=["first-byte", "latin-1-comment"])
def test_run_file_not_utf8_exit_code(tmp_path, monkeypatch, capsys, verb, line, before, after):
    # a run file that is not UTF-8 is a usage error that names its line,
    # in every verb that reads one
    monkeypatch.setenv("THREADS", "1")
    lines = SHORT_FILE.strip().encode("utf-8").split(b"\n")
    lines[line - 1] = before + lines[line - 1] + after
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "out"
    extra = ["--param", "gamma", "--values", "3"] if verb == "sweep" else []
    assert main([verb, str(cfg), *extra, "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"pbgpair {verb}: line {line}: not UTF-8")
    assert not out.exists()


@st.composite
def run_files(draw):
    """Run-file bytes, extra command-line arguments and the fault drawn: a
    valid small run (fault None) or one fault (a NaN/inf or unparsable number, an unknown, duplicate or
    missing key, a line without one '=', detunings that do not sum to
    omega12, custom amplitudes of the wrong norm, a grid past the budget
    or a non-positive one, bytes that are not UTF-8), run by a random
    engine on a bath of random size, past the budget too.  Every accepted
    case is small."""
    gamma = repr(draw(st.floats(0.0, 10.0)))
    w1c, w2c = draw(st.floats(-3.0, 2.0)), draw(st.floats(-3.0, 2.0))
    values = {"gamma1": gamma, "gamma2": gamma, "omega12": repr(w1c - w2c),
              "omega1c": repr(w1c), "omega2c": repr(w2c),
              "eta_degrees": repr(draw(st.floats(0.0, 180.0))),
              "t_max": "20.0", "dt_out": "0.5"}
    norm = 1.0
    fault = draw(st.sampled_from([None, None, None, None, "value", "key", "duplicate",
                                  "equals", "missing", "detuning", "norm", "grid",
                                  "encoding"]))
    if fault == "value":
        values[draw(st.sampled_from(sorted(values)))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", ""]))
    elif fault == "detuning":
        values["omega12"] = repr(w1c - w2c + draw(st.sampled_from([1e-6, 0.5])))
    elif fault == "norm":
        norm = draw(st.sampled_from([1.0 + 1e-9, 0.5, 2.0, 0.0]))
    elif fault == "grid":
        values["t_max"], values["dt_out"] = draw(st.sampled_from(
            [("1e15", "1.0"), ("1e7", "1e-3"), ("10.0", "1e-4"), ("0.0", "0.5"),
             ("20.0", "-1.0"), ("1e300", "1e-10")]))
    lines = [f"{k} = {v}" for k, v in values.items()]
    custom = norm != 1.0 or draw(st.booleans())
    initial = "custom" if custom else draw(st.sampled_from(["bright", "unentangled"]))
    lines.append(f"initial = {initial}")
    if custom:
        amps = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
        size = np.linalg.norm(amps)
        amps = amps * norm / size if size > 0.1 else np.eye(8)[0] * norm
        lines += [f"a{i}_{part} = {float(amps[2 * (i - 1) + j])!r}"
                  for i in (1, 2, 3, 4) for j, part in enumerate(("re", "im"))]
    where = draw(st.integers(0, len(lines) - 1))
    if fault == "missing":
        lines.pop(where)
    elif fault in ("key", "duplicate", "equals"):
        lines.insert(where, {"key": "bogus = 1", "duplicate": lines[where],
                             "equals": draw(st.sampled_from(["t_max", "a = b = c"]))}[fault])
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "encoding":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from(NOT_UTF8)) + data[cut:]
    engine = draw(st.sampled_from(["both", "oracle", "analytic"]))
    modes = draw(st.sampled_from(["300", "100", "10000000", "50"]))
    return data, ["--engine", engine, "--modes", modes], fault


@settings(max_examples=120, deadline=None, derandomize=True)
@given(run_files(), st.sampled_from(["1", "2", "0", "-3", "abc", "", " 4", "1e3",
                                     "99999999999"]))
def test_exit_code_contract_property(case, threads):
    data, extra, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", cfg, "-o", os.path.join(tmp, "out.csv")] + extra)
        written = os.path.exists(os.path.join(tmp, "out.csv"))
    lines = err.getvalue().strip().splitlines()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert written == (code == 0)
    if fault in ("key", "duplicate", "equals", "missing", "value", "detuning", "norm",
                 "encoding"):
        assert code == 2
    if code:
        assert len(lines) == 1 and lines[0].startswith("pbgpair run: ")
    # THREADS only through worker_count, which starts no process
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("THREADS", threads)
        try:
            n = worker_count()
        except DomainError as exc:
            assert "THREADS" in str(exc)
        else:
            assert 1 <= n <= (os.cpu_count() or 1)
