"""Tests of the benchmark itself: ``python -m pytest qebench/tests -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE_SCALE = 0.12  # keeps >= 5 documents on score-long and >= 10 sentences per fold plan


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("qebench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _smoke(workload, trace, seed=3):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                "--trace", str(trace), "--scale", str(SMOKE_SCALE))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    detail, result = _smoke(workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and value["value"] != 0.0
    sizes = detail["sizes"]
    assert sizes["sentences"] > 0 and sizes["mt_tokens"] > 0 and sizes["input_bytes"] > 0
    assert set(detail["environment"]) == {"python", "numpy", "nproc", "cpu_model"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_reports_every_layer_metric(workload):
    detail, result = _smoke(workload, trace=1)
    assert result["correct"] is True, detail["failures"]
    expected = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, float) for v in metrics.values())
    assert sorted(detail["exact_counts"]) == sorted(spans.EXACT_COUNTS)

    self_times = {layer: metrics[f"{layer}.self.s"] for layer in spans.LAYERS}
    if workload == "ensemble-wide":
        assert max(self_times, key=self_times.get) == "ensemble"
        assert metrics["linearqe.self.s"] == 0.0 and metrics["linearqe.viterbi.calls"] == 0
    else:
        assert metrics["linearqe.viterbi.calls"] == detail["sizes"]["sentences"]
    assert (metrics["doclevel.self.s"] > 0.0) == (workload == "score-long")
    if workload == "train-stack":
        assert metrics["linearqe.mira.train_tokens_per_corpus_token"] == pytest.approx(10.0)
        assert metrics["linearqe.decode.calls_per_sentence"] == pytest.approx(2.0)


def test_two_runs_of_one_seed_write_identical_outputs_and_counts():
    first, _ = _smoke("train-stack", trace=1, seed=5)
    second, _ = _smoke("train-stack", trace=1, seed=5)
    assert first["input_digest"] == second["input_digest"]
    assert first["output_digest"] == second["output_digest"]
    assert first["exact_counts"] == second["exact_counts"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "qebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train-stack", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generator_is_deterministic(tmp_path):
    for workload in workloads.WORKLOADS:
        a = gen.generate(workload, 11, str(tmp_path / workload / "a"), scale=SMOKE_SCALE)
        b = gen.generate(workload, 11, str(tmp_path / workload / "b"), scale=SMOKE_SCALE)
        c = gen.generate(workload, 12, str(tmp_path / workload / "c"), scale=SMOKE_SCALE)
        assert a == b
        digest_a = gen.tree_digest(str(tmp_path / workload / "a"))
        assert digest_a == gen.tree_digest(str(tmp_path / workload / "b"))
        assert digest_a != gen.tree_digest(str(tmp_path / workload / "c"))
        # every seed gets the same number of MT tokens
        assert a["mt_tokens"] == c["mt_tokens"]


def test_self_time_of_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds d
    # [6, 8] and e [7, 8.5], which overlap and must not be subtracted twice
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 6.0, 8.0, 3],
        ["e", 7.0, 8.5, 3],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_layer_metrics_sum_self_time_by_layer():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli.evaluate", 0.0, 4.0, -1],
        ["corpus.read", 0.5, 1.5, 0],
        ["metrics", 2.0, 3.0, 0],
        ["corpus.read", 3.0, 3.5, 0],
    ]
    m = spans.layer_metrics(tracer, sentences=1, mt_tokens=1)
    assert m["cli.evaluate.s"] == pytest.approx(4.0)
    assert m["cli.self.s"] == pytest.approx(1.5)
    assert m["corpus.self.s"] == pytest.approx(1.5)
    assert m["corpus.read.s"] == pytest.approx(1.5)
    assert m["metrics.self.s"] == pytest.approx(1.0)


def test_output_checks_catch_bad_outputs(tmp_path):
    path = tmp_path / "x.probs"
    path.write_text("0.1 0.2\n0.3\n")
    assert workloads.check_probs(str(path), [2, 1]) == []
    assert workloads.check_probs(str(path), [2, 2])
    path.write_text("0.1 1.2\n0.3\n")
    assert workloads.check_probs(str(path), [2, 1])
    gold = np.array([True, False, True, False])
    assert workloads.f1_mult_numpy(gold, gold) == 1.0
    assert workloads.f1_mult_numpy(gold, ~gold) == 0.0


def test_benchmark_json_matches_the_layer_map_and_workloads():
    bench = _bench_json()
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as handle:
        layer_map = json.load(handle)["metrics"]
    assert [m["name"] for m in bench["per_layer"]] == list(layer_map)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {name for name, m in layer_map.items() if m["exact"]} == set(spans.EXACT_COUNTS)
    traced_names = set(spans.layer_metrics(spans.Tracer(), 1, 1)) | {"trace.overhead_pct"}
    assert traced_names == set(layer_map)


def test_probe_samples_in_thread_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        samples = speed.take()
    assert len(samples) >= probe.MIN_SAMPLES and all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_nominal_time_scales_by_the_probe():
    slow = [2 * probe.NOMINAL_S] * 5
    assert probe.nominal(3.0, slow, []) == pytest.approx(1.5)
    # too few samples of its own: the pass's pooled samples decide
    assert probe.nominal(3.0, slow[:1], [probe.NOMINAL_S] * 4) == pytest.approx(3.0)
    assert probe.at_nominal(3.0, None) == 3.0


def test_probe_check_reports_bias_and_spreads():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "probe_check.py"), "--seconds", "2", "--window", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["windows"] >= 2 and result["bias"] > 0
    for kind in ("numpy", "python"):
        assert set(result[kind]) == {"raw_spread", "nominal_spread", "corr_raw_probe"}
