"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys

import pytest

import qzeta
from bench import run
from bench.gauge import REF_PROBE_S, Gauge
from bench.tracer import Tracer, layer_metrics, traced
from bench.workloads import judge, load_pins, nichols_setup

ROOT = run.ROOT


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")
    tracer.close(tracer.open("inner"))
    tracer.close(tracer.open("inner"))
    tracer.close(outer)
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_gauge_restates_at_reference_speed_without_its_own_time():
    gauge = Gauge()
    gauge.wall = [REF_PROBE_S] * 5  # probes before the timing: full speed
    gauge.cpu = list(gauge.wall)
    mark = gauge.mark()
    gauge.wall += [2 * REF_PROBE_S, 4 * REF_PROBE_S] * 3  # during it: half and quarter speed
    gauge.cpu = list(gauge.wall)
    gauge.spent_wall = gauge.spent_cpu = 0.5
    restated = gauge.since(mark, 6.5, 6.5)
    assert restated["raw_wall_s"] == 6.0
    assert restated["wall_s"] == pytest.approx(6.0 * 0.375)
    assert restated["cpu_s"] == pytest.approx(6.0 * 0.375)
    # a timing shorter than five probes borrows the latest five
    assert gauge.since(gauge.mark(), 1.0, 1.0)["speed"] == pytest.approx((0.25 * 3 + 0.5 * 2) / 5)


def _workload_sample():
    return (
        qzeta.q_binom_sym(8, 3),
        qzeta.fit_gh(3),
        list(qzeta.hilbert_dims(qzeta.transposition_class(3), 4)),
        3 * qzeta.zeta_cn_series(2, 4),
    )


def test_patch_and_restore_keep_results_and_originals():
    originals = {
        (qzeta.linalg, "solve_linear"): qzeta.linalg.solve_linear,
        (qzeta.zeta_engine, "solve_linear"): qzeta.zeta_engine.solve_linear,
        (qzeta.braided, "sparse_int_rank"): qzeta.braided.sparse_int_rank,
        (qzeta, "fit_gh"): qzeta.fit_gh,
        (qzeta.TSeries, "__rmul__"): vars(qzeta.TSeries)["__rmul__"],
        (qzeta.QLaurent, "__rmul__"): vars(qzeta.QLaurent)["__rmul__"],
    }
    plain = _workload_sample()
    tracer = Tracer()
    with traced(tracer) as patched:
        for holder, attr in originals:
            assert vars(holder)[attr] is not originals[(holder, attr)], (holder, attr)
        traced_results = _workload_sample()
    assert traced_results == plain
    for holder, attr, original in patched:
        assert vars(holder)[attr] is original
    for (holder, attr), original in originals.items():
        assert vars(holder)[attr] is original

    metrics = layer_metrics(tracer)
    # fit_gh reaches solve_linear only through zeta_engine's own binding
    assert metrics["linalg.solve_linear.calls"] == metrics["zeta_engine.fit_gh.attempts"] > 0
    assert metrics["zeta_engine.fit_gh.calls"] == 1
    # 3 * series dispatches to TSeries.__rmul__
    assert metrics["tseries.mul.calls"] >= 1
    assert metrics["braided.extend.calls"] == 3
    assert metrics["linalg.sparse_int_rank.rows_in"] >= metrics["linalg.sparse_int_rank.rank"] > 0
    assert metrics["braided.candidate_rows.self_s"] > 0


def _fail_frac(verdict):
    return sum(err is not None for err in verdict.values()) / len(verdict)


X4 = "hilbert_dims(X_4,7)"
X4_DIMS = [1, 6, 19, 42, 71, 96, 106, 96]


def test_nichols_check_accepts_the_pinned_result():
    _, refs = nichols_setup(0)
    outputs = {X4: qzeta.GradedDims(X4_DIMS, 7)}
    verdict = judge("nichols", refs, outputs, {}, load_pins()["nichols"])
    assert verdict == {X4: None}


def test_partial_result_counts_as_failed():
    _, refs = nichols_setup(0)
    # the default budget (100,000) is below 6^7: hilbert_dims returns a partial result
    partial = qzeta.hilbert_dims(qzeta.transposition_class(4), 7)
    assert not partial.complete
    verdict = judge("nichols", refs, {X4: partial}, {}, load_pins()["nichols"])
    assert _fail_frac(verdict) > 0


def test_sabotaged_reference_counts_as_failed(monkeypatch):
    real = qzeta.fk_reference_series
    monkeypatch.setattr(qzeta, "fk_reference_series", lambda k: real(k) * qzeta.t_bracket(2))
    _, refs = nichols_setup(0)
    outputs = {X4: qzeta.GradedDims(X4_DIMS, 7)}
    verdict = judge("nichols", refs, outputs, {}, load_pins()["nichols"])
    assert _fail_frac(verdict) > 0


def test_raised_operation_counts_as_failed():
    _, refs = nichols_setup(0)
    verdict = judge("nichols", refs, {}, {X4: qzeta.BudgetExceeded("x")}, load_pins()["nichols"])
    assert _fail_frac(verdict) == 1


@pytest.mark.parametrize("module", ["bench/run.py", "-m bench.child"])
def test_refuses_to_run_under_optimize(module):
    cmd = [sys.executable, "-O", *module.split(), "--workload", "series", "--seed", "1"]
    if module.endswith("run.py"):
        cmd += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "-O" in proc.stderr
    assert "{" not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = {"layers": layer_metrics(Tracer()), "op_raw_wall_s": {"op": 1.0}, "crit_s": {}}
    layers = run.layer_report(fake, fake)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layers.items()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
