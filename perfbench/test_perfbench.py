"""Tests of the benchmark's own logic: span self times, medians and sample
counts, seed -> argv determinism and the numpy sliding-root oracle."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import run
import workloads
from tracer import Tracer, self_times

BENCH = Path(__file__).resolve().parent


# ---------------------------------------------------------------- self time

def test_self_times_subtract_direct_children_only():
    # root(10) > a(4) > b(1); root > c(3)
    parent = [-1, 0, 1, 0]
    duration = [10.0, 4.0, 1.0, 3.0]
    assert self_times(parent, duration) == [3.0, 3.0, 1.0, 3.0]
    assert sum(self_times(parent, duration)) == duration[0]


def test_tracer_self_times_add_up_per_op():
    tr = Tracer()
    leaf = tr.leaf("fields.f1_surface", lambda x: x + 1)
    inner = tr.span("sliding.lambda", lambda x: [leaf(x) for _ in range(50)])
    root = tr.root(lambda x: [inner(x) for _ in range(3)])
    for op in range(2):
        tr.begin_op(op)
        root(1.0)
        tr.end_op()
    per_op = tr.op_consistency()
    assert sorted(per_op) == [0, 1]
    for total_root, total_self, lowest in per_op.values():
        assert total_self == pytest.approx(total_root, abs=1e-12)
        assert lowest >= 0.0
    m = tr.layer_metrics()
    assert m["sliding.lambda_calls"] == 6
    assert m["fields.f1_surface_calls"] == 300
    # one aggregated leaf record per enclosing span
    assert tr.name.count("fields.f1_surface") == 6
    assert m["cli.self_s"] + m["sliding.self_s"] + m["fields.self_s"] == pytest.approx(
        sum(tr.duration[i] for i, p in enumerate(tr.parent) if p < 0), abs=1e-12)


# ---------------------------------------------------------------- statistics

def _pass(seconds, rss_kb):
    return {"ops": [{"seconds": s, "scale": 1.0} for s in seconds], "peak_rss_kb": rss_kb}


def test_end_to_end_medians_and_sample_count():
    plain = [_pass([1.0, 2.0, 9.0], 2048), _pass([1.0, 3.0, 4.0], 1024),
             _pass([2.0, 2.0, 2.0], 4096)]
    metrics = run.end_to_end([0.3, 0.1, 0.2, 0.4], plain)
    assert metrics["wall_s"] == 8.0          # walls 12, 8, 6
    assert metrics["op_p50_s"] == 2.0        # pass medians 2, 3, 2
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["peak_rss_mb"] == 2.0


def test_wall_is_in_reference_seconds():
    p = {"ops": [{"seconds": 2.0, "scale": 0.5}, {"seconds": 1.0, "scale": 2.0}]}
    assert run._wall(p) == 3.0


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_removes_its_kernel_runs_and_scales(monkeypatch):
    def kernel():
        _spin(0.01)
        return calibrate.REFERENCE_S / 2
    monkeypatch.setattr(calibrate, "kernel_seconds", kernel)
    probe = calibrate.Probe()
    _, seconds, scale = probe.time(_spin, 3.5 * calibrate.PERIOD)
    assert len(probe.samples) == 5          # before, three ticks, after
    assert probe.paused >= 0.03
    assert seconds == pytest.approx(3.5 * calibrate.PERIOD - probe.paused, abs=5e-3)
    assert scale == 2.0


def test_trace_overhead_is_traced_minus_untraced_wall():
    plain = [_pass([1.0, 1.0], 0), _pass([1.5, 1.5], 0)]
    traced = [dict(_pass([2.0, 2.0], 0), layers={"integrate.steps": 7})]
    m = run.per_layer(plain, traced)
    assert m["trace.wall_s"] == 4.0
    assert m["trace.overhead_s"] == pytest.approx(1.5)
    assert m["integrate.steps"] == 7


# ---------------------------------------------------------------- seeds

@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_seed_determines_argv(workload):
    a = workloads.generate(workload, 11)
    assert a == workloads.generate(workload, 11)
    assert [op.argv for op in a] != [op.argv for op in workloads.generate(workload, 12)]


def test_argv_independent_of_hash_seed():
    code = ("import json, workloads; print(json.dumps([op.argv for w in sorted("
            "workloads.GENERATORS) for op in workloads.generate(w, 5)]))")
    outs = {subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                           text=True, check=True,
                           env={"PYTHONHASHSEED": h, "PATH": ""}).stdout
            for h in ("1", "2")}
    assert len(outs) == 1


@pytest.mark.parametrize("seed", range(8))
def test_every_checked_op_has_a_reference(seed):
    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    for workload in workloads.GENERATORS:
        for op in workloads.generate(workload, seed):
            if op.command in ("simulate", "blowup", "slide-map", "sweep"):
                assert op.ref in refs, op.ref


def test_perturbation_is_bounded():
    for op in workloads.generate("events", 3) + workloads.generate("stiff", 3):
        x0 = [float(v) for v in checks.flag(op.argv, "--x0").split(",")]
        ref = [float(v) for v in checks.flag(op.ref.split(" "), "--x0").split(",")]
        assert max(abs(a - b) for a, b in zip(x0, ref)) <= workloads.PERTURB


# ---------------------------------------------------------------- oracle

def _slide_map_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x2,x3,region,n_roots,lambda_1,lambda_2\n")
        for x2, x3, lams in rows:
            cells = [repr(v) for v in lams] + [""] * (2 - len(lams))
            fh.write(f"{x2!r},{x3!r},r,{len(lams)},{cells[0]},{cells[1]}\n")


def _roots(x2, x3):
    # f1 = -0.2 l^2 + (-x2 - x3)/2 l + (-x2 + x3)/2 + 0.2
    r = np.roots([-0.2, 0.5 * (-x2 - x3), 0.5 * (x3 - x2) + 0.2])
    return sorted(float(v.real) for v in r if abs(v.imag) == 0.0 and -1.0 <= v.real <= 1.0)


def test_lambda_oracle_accepts_roots_and_rejects_perturbed(tmp_path):
    rows = [(x2, x3, _roots(x2, x3)) for x2 in (-1.0, 0.02, 0.4) for x3 in (-0.7, -0.5, 1.1)]
    assert any(len(lams) == 2 for _, _, lams in rows)
    good = tmp_path / "good.csv"
    _slide_map_csv(good, rows)
    assert checks.lambda_problems(good, "example-ii") == []
    x2, x3, lams = next(r for r in rows if r[2])
    bad_rows = [(x2, x3, [lams[0] + 1e-6] + lams[1:])] + rows
    bad = tmp_path / "bad.csv"
    _slide_map_csv(bad, bad_rows)
    assert any("|f1|" in p for p in checks.lambda_problems(bad, "example-ii"))
