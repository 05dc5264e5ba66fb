"""Schema test of the benchmark in quick mode (tiny corpus, width_scale 8).

    python3 -m pytest perfbench/tests -q

Checks the result line, the metric names and units against BENCHMARK.json,
and that each metric is measured on the workloads it belongs to. No timing
assertions: shared machines make them noise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAIN = ("train-gru",)
INGEST = ("ingest-predict",)

# Per-layer metrics that must be measured (> 0) on a workload, by name
# prefix; the longest matching prefix wins.
MEASURED_ON = {
    "layer.": TRAIN + INGEST,
    "layer.bwd": TRAIN,
    "model.forward_infer": TRAIN + INGEST,
    "model.forward_train": TRAIN,
    "model.backward": TRAIN,
    "nn.masked_mse": TRAIN,
    "nn.clip_global_norm": TRAIN,
    "nn.rmsprop_step": TRAIN,
    "train.self_ms_per_batch": TRAIN,
    "train.predict_video": TRAIN + INGEST,
    "dataset.load_manifest": TRAIN + INGEST,
    "dataset.load_feature_track": TRAIN + INGEST,
    "dataset.compute_stats": TRAIN,
    "dataset.normalize": TRAIN + INGEST,
    "dataset.build_windows": TRAIN + INGEST,
    "dataset.windows": TRAIN + INGEST,
    "dataset.merge_window_predictions": TRAIN + INGEST,
    "audio_io.": INGEST,
    "dsp.": INGEST,
    "metrics.evaluate": TRAIN + INGEST,
    "checkpoint.save": TRAIN,
    "checkpoint.saves": TRAIN,
    "checkpoint.load": TRAIN + INGEST,
    "train.restore_model": INGEST,
    "cli.self_ms": TRAIN + INGEST,
}
# Spans a workload must never produce.
ABSENT_ON = {
    "train-gru": ("dsp.", "audio_io."),
    "ingest-predict": ("model.backward", "nn.rmsprop_step", "model.forward_train", "layer.audio.rnn1.bwd"),
}


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    return result


def _owner(name: str) -> tuple[str, ...]:
    if name.startswith("layer.") and ".bwd_ms" in name:
        name = "layer.bwd"
    matches = [p for p in MEASURED_ON if name.startswith(p)]
    return MEASURED_ON[max(matches, key=len)] if matches else ()


def test_spec_lists_every_metric_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(TRAIN + INGEST)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == report.PER_LAYER_UNITS
    assert all(_owner(name) or name == "trace.overhead_pct" or name.startswith("nn.clip.")
               for name in report.PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", TRAIN + INGEST)
def test_end_to_end_schema(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    # a one-batch quick run learns nothing, so its CCC may sit either side of 0
    assert -1 <= metrics.pop("val_ccc")["value"] <= 1
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", TRAIN + INGEST)
def test_per_layer_schema(workload):
    metrics = _result(_run(workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == report.PER_LAYER_UNITS
    for name, entry in metrics.items():
        if workload in _owner(name):
            assert entry["value"] > 0, name
        if any(name.startswith(p) for p in ABSENT_ON[workload]):
            assert entry["value"] == 0, name


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "train-gru", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _span_file(tmp_path, layers, spans):
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"resolution_ns": 1, "models": [list(layers)], "spans": spans}))
    return path


def _forward_spans(layers):
    spans = [[0, None, "cli.main", 0, 10_000, None], [1, 0, "model.forward_infer", 100, 9_000, None]]
    for i, name in enumerate(layers):
        spans.append([i + 2, 1, f"layer.{name}.fwd", 200 + 10 * i, 205 + 10 * i, {"train": False}])
    return spans


def test_self_time_excludes_children(tmp_path):
    command = report.Command(_span_file(tmp_path, report.LAYERS, _forward_spans(report.LAYERS)))
    command.check()
    assert command.self_ns[0] == 10_000 - 8_900
    assert command.self_ns[1] == 8_900 - 5 * len(report.LAYERS)


def test_layer_without_span_fails(tmp_path):
    spans = [s for s in _forward_spans(report.LAYERS) if s[2] != "layer.expnet.rnn1.fwd"]
    with pytest.raises(report.TraceError, match="expnet.rnn1"):
        report.Command(_span_file(tmp_path, report.LAYERS, spans)).check()


def test_renamed_layer_fails(tmp_path):
    layers = [n.replace("expnet.rnn1", "expnet.fused") for n in report.LAYERS]
    with pytest.raises(report.TraceError, match="model layers changed"):
        report.Command(_span_file(tmp_path, layers, _forward_spans(layers))).check()


def test_overlapping_children_fail_root_check(tmp_path):
    spans = _forward_spans(report.LAYERS) + [[99, 0, "checkpoint.load", 8_000, 9_500, None]]
    with pytest.raises(report.TraceError, match="root self"):
        report.Command(_span_file(tmp_path, report.LAYERS, spans)).check()


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    value, level = report.tail(values)
    assert sum(v > value for v in values) == 10 and level == 90.0
    assert report.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
