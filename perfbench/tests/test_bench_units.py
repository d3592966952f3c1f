"""Tests for the benchmark's own code: statistics, spans, inputs, counting.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import time

import pytest

import inputs
import speed
import stats
import workload
from checks import OutputResult
from speed import SpeedProbe
from tracing import Span, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# --- percentile rule ---------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(range(99), 90) is None      # 9 beyond rank 90
    assert stats.percentile(range(100), 90) == 89.0     # 10 beyond rank 90
    assert stats.percentile(range(1000), 90) == 899.0
    assert stats.percentile([], 90) is None


def test_spread_is_interquartile_share_of_median():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = (1.5, 3.0, 4.5)
    assert stats.spread(vals) == pytest.approx((q3 - q1) / 3.0)


def test_speed_factor_uses_the_samples_inside_the_pass():
    probe = SpeedProbe()
    probe.samples += [(1.0, 2 * speed.REF_S), (2.0, 4 * speed.REF_S), (5.0, speed.REF_S)]
    assert probe.factor(0.5, 2.5) == pytest.approx(1 / 3)   # mean 3 REF_S
    assert probe.factor(4.0, 6.0) == pytest.approx(1.0)
    assert probe.factor(3.0, 4.0) == pytest.approx(3 / 7)   # none inside: all samples


def test_speed_probe_samples_while_running():
    with SpeedProbe() as probe:
        time.sleep(5 * speed.PERIOD_S)
    n = len(probe.samples)
    assert n >= 2 and all(c > 0 for _, c in probe.samples)
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.samples) == n


# --- self times --------------------------------------------------------------

def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, op=0, phase="traced")


def test_self_time_subtracts_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 4.0, 8.0, 0),
             _span(3, 5.0, 6.0, 2)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert st[2] == pytest.approx(3.0)
    assert st[1] == pytest.approx(2.0)
    assert st[3] == pytest.approx(1.0)


def test_tracer_patches_aliases_and_restores():
    from pbgpair import cli, poles

    original = poles.find_poles
    tracer = Tracer()
    with tracer.installed():
        assert cli.find_poles is not original
        assert poles.find_poles is cli.find_poles
    assert cli.find_poles is original and poles.find_poles is original


def test_tracer_records_nesting():
    from pbgpair import inversion
    from pbgpair.config import SystemConfig, preset_initial

    cfg = SystemConfig(6.0, 6.0, 0.4, 0.6, 0.2, 3.141592653589793)
    tracer = Tracer()
    tracer.op = 7
    with tracer.installed():
        inversion.amplitudes_analytic([0.0, 1.0, 2.0], cfg, preset_initial("unentangled"))
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    top = by_name["inversion.amplitudes_analytic"][0]
    assert top.parent is None and top.attrs == {"points": 3}
    assert by_name["poles.find_poles"][0].parent == top.id
    assert all(s.op == 7 for s in tracer.spans)
    assert all(s.parent is not None for s in tracer.spans if s is not top)


# --- inputs ------------------------------------------------------------------

def _argvs(wl, in_dir):
    return [tuple(a.replace(in_dir, "IN") for a in op.argv) for op in wl.ops]


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    a = inputs.build(name, 5, str(tmp_path / "a"))
    b = inputs.build(name, 5, str(tmp_path / "b"))
    assert _argvs(a, str(tmp_path / "a")) == _argvs(b, str(tmp_path / "b"))
    assert a.inputs == b.inputs
    for fa, fb in zip(sorted(os.listdir(tmp_path / "a")), sorted(os.listdir(tmp_path / "b"))):
        assert (tmp_path / "a" / fa).read_text() == (tmp_path / "b" / fb).read_text()


def test_sweep_values_shape():
    etas, pairs = inputs.sweep_values(3)
    assert len(etas) == len(pairs) == inputs.SWEEP_VALUES
    assert 0.0 in etas and 180.0 in etas
    assert sum(a == b for a, b in pairs) == 1
    assert len({inputs._label(v) for v in etas}) == len(etas)
    assert len({inputs._label(p) for p in pairs}) == len(pairs)
    assert all(-2.0 <= x <= 1.0 for p in pairs for x in p)
    assert inputs.sweep_values(4) != (etas, pairs)


def test_figures_outputs(tmp_path):
    wl = inputs.build("figures", 0, str(tmp_path))
    assert len(wl.ops) == 17
    assert sum(op.outputs[0].kind == "poles" for op in wl.ops) == 4


# --- failure counting ----------------------------------------------------------

class _FakeCli:
    """Exit 0 for 'ok', 1 for 'bad', raises for 'boom'; writes nothing."""

    def main(self, argv):
        if argv[0] == "boom":
            raise RuntimeError("boom")
        return 0 if argv[0] == "ok" else 1


def _op(name, n_outputs):
    outs = tuple(inputs.Output(f"{name}{i}", "series", f"{name}{i}.csv", {})
                 for i in range(n_outputs))
    return inputs.Op(name, (name,), outs)


def _runner(tmp_path, ops, check_result):
    wl = inputs.Workload("figures", 0, ops, {})
    r = workload.Runner(wl, str(tmp_path))
    r.cli = _FakeCli()
    r.checker.check = lambda output, out_dir, deviation=None: check_result(output)
    return r


def _steady_probe():
    probe = SpeedProbe()
    probe.samples.append((0.0, speed.REF_S))
    return probe


def test_failures_are_counted_not_raised(tmp_path):
    ops = [_op("ok", 2), _op("bad", 3), _op("boom", 1)]
    r = _runner(tmp_path, ops, lambda o: OutputResult(o.name, ["wrong"]) if o.name == "ok1"
                else OutputResult(o.name))
    r.run_pass("timed")
    assert (r.ops_attempted, r.ops_failed) == (3, 2)
    assert (r.outputs_attempted, r.outputs_failed) == (6, 1 + 3 + 1)
    assert not r.correct
    metrics = workload.untraced_metrics(r, _steady_probe())["metrics"]
    assert metrics["outputs_ok_frac"] == pytest.approx(1 / 6)


def test_known_defect_counts_but_keeps_correct(tmp_path):
    ops = [_op("ok", 4)]
    r = _runner(tmp_path, ops, lambda o: OutputResult(o.name, ["completeness"], True)
                if o.name == "ok0" else OutputResult(o.name))
    r.run_pass("timed")
    r.run_pass("timed")
    assert (r.outputs_attempted, r.outputs_failed, r.known_defects) == (8, 2, 2)
    assert r.correct
    assert workload.untraced_metrics(r, _steady_probe())["metrics"]["outputs_ok_frac"] == pytest.approx(0.75)


def test_benchmark_json_names_every_layer_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    r = _runner(tmp_path, [_op("ok", 1)], lambda o: OutputResult(o.name))
    r.run_pass("untraced")
    r.run_pass("traced", traced=False)
    produced = set(workload.layer_metrics(r, [])) | {"setup.import_s", "setup.scipy_import_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["workloads"]} == set(inputs.WORKLOADS)
