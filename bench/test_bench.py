"""Smoke test of the benchmark at tiny scale.

    python -m pytest bench/test_bench.py -q

Runs every workload untraced and traced on a 4-cluster, 32-px corpus
with one training epoch, and checks the result shape: every declared
metric is emitted, self times are non-negative, spans nest, outputs
pass their checks, and the layers a workload bypasses stay idle.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(clusters=4, images_per_cluster=12,
                       points_per_cluster=60, image_size=32, epochs=1,
                       negatives=2, feature_dim=16)

DETAIL = {
    "synth": {"synth_images_per_s"},
    "finetune": {"train_tuples_per_s", "val_map_best"},
    "index_eval": {"embed_images_per_s", "mine_queries_per_s",
                   "whiten_fit_s", "eval_queries_per_s", "map_full",
                   "map_crop_i", "map_crop_x"},
}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    name = request.param
    return name, {trace: workloads.run(name, 3, 0.0, trace, scale=TINY)
                  for trace in (0, 1)}


def test_untraced_run_emits_end_to_end_metrics(runs):
    name, by_trace = runs
    info, outcome, tracers = by_trace[0]
    assert outcome["correct"], info["errors"]
    assert outcome["failed"] == 0 and outcome["attempted"] > 0
    assert set(outcome["metrics"]) == declared("end_to_end")
    assert all(v > 0 for v in outcome["metrics"].values())
    assert set(info["detail"]) == DETAIL[name] | {"error_rate"}
    assert info["detail"]["error_rate"]["value"] == 0.0
    assert not tracers


def test_traced_run_emits_layer_metrics(runs):
    name, by_trace = runs
    info, outcome, tracers = by_trace[1]
    assert outcome["correct"], info["errors"]
    metrics = outcome["metrics"]
    assert set(metrics) == declared("per_layer")
    assert all(metrics[k] >= 0 for k in metrics if k.endswith("busy_s"))
    assert tracers and all(spans.check_nesting(t.spans) for t in tracers)
    if name == "index_eval":
        assert metrics["backbone.backward.calls"] == 0
        assert metrics["backbone.forward.calls"] > 0
        assert metrics["retrieval.map_crop_i"] != metrics["retrieval.map_full"]
        assert metrics["retrieval.map_crop_x"] != metrics["retrieval.map_full"]
    if name == "finetune":
        assert metrics["numeric.sym_eig.calls"] == 0
        assert metrics["backbone.backward.calls"] > 0
    if name == "synth":
        assert metrics["backbone.forward.calls"] == 0
        assert metrics["synthscene.render.calls"] > 0


def test_traced_and_untraced_artifacts_identical(runs):
    _, by_trace = runs
    assert by_trace[0][0]["artifacts_sha256"] == \
        by_trace[1][0]["artifacts_sha256"]


def test_self_time_subtracts_overlapping_children():
    tracer = spans.Tracer()
    parent = spans.Span("p", None)
    parent.start, parent.end = 0.0, 10.0
    children = []
    for start, end in ((1.0, 4.0), (2.0, 5.0), (7.0, 8.0)):
        child = spans.Span("c", parent)
        child.start, child.end = start, end
        children.append(child)
    tracer.spans = [parent] + children
    busy = spans.self_times(tracer.spans)
    assert busy[id(parent)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert spans.check_nesting(tracer.spans)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
