"""Per-layer metrics from the span files of a traced run, with the checks that keep them honest.

Every traced CLI command writes one span file (see ``tracer.py``). This module
checks each file before any number is derived from it and raises
``TraceError`` when:

* a span lies outside the single ``cli.main`` root;
* the root's self time plus its children's durations differs from its wall
  time by more than the clock resolution (children overlap or escape it);
* a built model's top-level layers differ from ``LAYERS`` (a renamed, added
  or fused layer), or a layer of a model that ran forward/backward has no
  ``layer.*`` span for that direction.

Self time of a span is its duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# Top-level layers of the fusion model, in build order. GRU and BiLSTM models
# share these names: a Bidirectional wrapper is one layer.
LAYERS = (
    "audio.rnn1", "audio.act1", "audio.drop1", "audio.rnn2", "audio.act2", "audio.drop2", "audio.norm",
    "expnet.rnn1", "expnet.act1", "expnet.rnn2", "expnet.act2", "expnet.rnn3", "expnet.act3", "expnet.norm",
    "facepose.td1", "facepose.drop1", "facepose.td2", "facepose.drop2", "facepose.norm",
    "head.dense1", "head.act", "head.dense2", "head.out",
)
RECURRENT = ("audio.rnn1", "audio.rnn2", "expnet.rnn1", "expnet.rnn2", "expnet.rnn3")

# Timings reported as median, tail and sample count: (metric base, span name).
_DISTRIBUTIONS = (
    ("model.forward_train.ms_per_batch", "model.forward_train"),
    ("model.forward_infer.ms_per_batch", "model.forward_infer"),
    ("model.backward.ms_per_batch", "model.backward"),
    ("nn.masked_mse.ms_per_batch", "nn.masked_mse"),
    ("nn.clip_global_norm.ms_per_batch", "nn.clip_global_norm"),
    ("nn.rmsprop_step.ms_per_batch", "nn.rmsprop_step"),
    ("train.predict_video.ms", "train.predict_video"),
    ("dataset.load_feature_track.ms", "dataset.load_feature_track"),
    ("audio_io.read_wav.ms", "audio_io.read_wav"),
    ("metrics.evaluate.ms", "metrics.evaluate"),
)
# Timings reported as a median only.
_MEDIANS = (
    ("dataset.load_manifest.ms", "dataset.load_manifest"),
    ("dataset.compute_stats.ms", "dataset.compute_stats"),
    ("dataset.normalize.ms", "dataset.normalize"),
    ("dataset.build_windows.ms", "dataset.build_windows"),
    ("dataset.merge_window_predictions.ms", "dataset.merge_window_predictions"),
    ("dsp.mel_filterbank.ms", "dsp.mel_filterbank"),
    ("checkpoint.save.ms", "checkpoint.save"),
    ("checkpoint.load.ms", "checkpoint.load"),
    ("train.restore_model.ms", "train.restore_model"),
)


def _metric_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"layer.{layer}.fwd_ms"] = "ms"
        units[f"layer.{layer}.bwd_ms"] = "ms"
    for layer in RECURRENT:
        units[f"layer.{layer}.fwd_ms.tail"] = "ms"
        units[f"layer.{layer}.bwd_ms.tail"] = "ms"
    units["layer.fwd_ms.n"] = "count"
    units["layer.bwd_ms.n"] = "count"
    for base, _ in _DISTRIBUTIONS:
        units[base] = "ms"
        units[base + ".tail"] = "ms"
        units[base + ".n"] = "count"
    for base, _ in _MEDIANS:
        units[base] = "ms"
    units.update({
        "nn.clip.rate": "1",
        "train.self_ms_per_batch": "ms",
        "dataset.load_feature_track.mib": "MiB",
        "dataset.windows": "count",
        "audio_io.read_wav.mib_per_s": "MiB/s",
        "dsp.extract_audio_track.ms_per_frame": "ms",
        "dsp.mel_filterbank.calls": "calls/clip",
        "checkpoint.save.mib": "MiB",
        "checkpoint.saves": "count",
        "cli.self_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER_UNITS = _metric_units()


class TraceError(RuntimeError):
    """A traced run broke an invariant; its per-layer numbers cannot be trusted."""


class Command:
    """Spans of one traced CLI command, with self times."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        self.path = path
        self.resolution_ns = blob["resolution_ns"]
        self.models = blob["models"]
        self.spans = blob["spans"]
        self.children = defaultdict(list)
        for span in self.spans:
            self.children[span[1]].append(span)
        self.self_ns = {span[0]: span[4] - span[3] - self._covered(span) for span in self.spans}

    def _covered(self, span) -> int:
        covered, reach = 0, span[3]
        for child in sorted(self.children[span[0]], key=lambda s: s[3]):
            start, end = max(child[3], reach), min(child[4], span[4])
            if end > start:
                covered += end - start
                reach = end
        return covered

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[2] == name]

    def check(self) -> None:
        roots = self.children[None]
        if len(roots) != 1 or roots[0][2] != "cli.main":
            raise TraceError(f"{self.path}: expected one cli.main root span, found {[s[2] for s in roots]}")
        root = roots[0]
        wall = root[4] - root[3]
        accounted = self.self_ns[root[0]] + sum(c[4] - c[3] for c in self.children[root[0]])
        if abs(wall - accounted) > self.resolution_ns:
            raise TraceError(
                f"{self.path}: root self {self.self_ns[root[0]]} ns + children != wall {wall} ns"
            )
        for names in self.models:
            if tuple(names) != LAYERS:
                missing = sorted(set(LAYERS) - set(names))
                extra = sorted(set(names) - set(LAYERS))
                raise TraceError(
                    f"{self.path}: model layers changed (missing {missing}, new {extra}); "
                    "update perfbench/report.py LAYERS and BENCHMARK.json together"
                )
        seen = {s[2] for s in self.spans}
        for direction, model_span in (("fwd", "model.forward_"), ("bwd", "model.backward")):
            if any(name.startswith(model_span) for name in seen):
                lost = [n for n in LAYERS if f"layer.{n}.{direction}" not in seen]
                if lost:
                    raise TraceError(f"{self.path}: layers ran {direction} without a span: {lost}")


def _ms(spans) -> list[float]:
    return [(s[4] - s[3]) / 1e6 for s in spans]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its percentile level.

    Below 21 samples that statistic would sit under the median, so the median
    is reported (level 50).
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(paths, overhead_pct: float) -> tuple[dict[str, float], dict]:
    """Check every command's spans and derive the per-layer metrics.

    Returns the metrics and a table of every span name (median, tail, level,
    count, total self time) for the results file.
    """
    commands = [Command(p) for p in paths]
    for command in commands:
        command.check()
    spans = [s for c in commands for s in c.spans]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    train_mode = bool(by_name["model.forward_train"])
    metrics: dict[str, float] = {}

    def distribution(base, values):
        metrics[base] = _median(values)
        metrics[base + ".tail"] = tail(values)[0]
        metrics[base + ".n"] = float(len(values))

    for layer in LAYERS:
        fwd = _ms(s for s in by_name[f"layer.{layer}.fwd"] if s[5]["train"] == train_mode)
        bwd = _ms(by_name[f"layer.{layer}.bwd"])
        metrics[f"layer.{layer}.fwd_ms"] = _median(fwd)
        metrics[f"layer.{layer}.bwd_ms"] = _median(bwd)
        if layer in RECURRENT:
            metrics[f"layer.{layer}.fwd_ms.tail"] = tail(fwd)[0]
            metrics[f"layer.{layer}.bwd_ms.tail"] = tail(bwd)[0]
        if layer == LAYERS[0]:
            metrics["layer.fwd_ms.n"] = float(len(fwd))
            metrics["layer.bwd_ms.n"] = float(len(bwd))
    for base, name in _DISTRIBUTIONS:
        distribution(base, _ms(by_name[name]))
    for base, name in _MEDIANS:
        metrics[base] = _median(_ms(by_name[name]))

    clips = by_name["nn.clip_global_norm"]
    metrics["nn.clip.rate"] = sum(s[5]["clipped"] for s in clips) / len(clips) if clips else 0.0
    batches = len(by_name["model.forward_train"])
    train_self = sum(c.self_ns[s[0]] for c in commands for s in c.named("train.train"))
    metrics["train.self_ms_per_batch"] = train_self / 1e6 / batches if batches else 0.0

    loaded = [sum(s[5]["bytes"] for s in c.named("dataset.load_feature_track")) for c in commands]
    metrics["dataset.load_feature_track.mib"] = _median([b / 2**20 for b in loaded if b])
    built = [sum(s[5]["windows"] for s in c.named("dataset.build_windows")) for c in commands]
    metrics["dataset.windows"] = float(_median([w for w in built if w]))

    wavs = by_name["audio_io.read_wav"]
    wav_s = sum(_ms(wavs)) / 1e3
    metrics["audio_io.read_wav.mib_per_s"] = (
        sum(s[5]["bytes"] for s in wavs) / 2**20 / wav_s if wav_s else 0.0
    )
    extracts = by_name["dsp.extract_audio_track"]
    frames = sum(s[5]["frames"] for s in extracts)
    metrics["dsp.extract_audio_track.ms_per_frame"] = sum(_ms(extracts)) / frames if frames else 0.0
    metrics["dsp.mel_filterbank.calls"] = (
        len(by_name["dsp.mel_filterbank"]) / len(extracts) if extracts else 0.0
    )

    saves = by_name["checkpoint.save"]
    metrics["checkpoint.save.mib"] = _median([s[5]["bytes"] / 2**20 for s in saves])
    trains = by_name["train.train"]
    metrics["checkpoint.saves"] = len(saves) / len(trains) if trains else 0.0
    metrics["cli.self_ms"] = _median([c.self_ns[s[0]] / 1e6 for c in commands for s in c.named("cli.main")])
    metrics["trace.overhead_pct"] = overhead_pct

    if set(metrics) != set(PER_LAYER_UNITS):
        raise TraceError(f"per-layer metric set drifted: {sorted(set(metrics) ^ set(PER_LAYER_UNITS))}")

    table = {}
    for name, named in sorted(by_name.items()):
        values = _ms(named)
        value, level = tail(values)
        table[name] = {
            "median_ms": _median(values), "tail_ms": value, "tail_pct": level, "n": len(values),
            "self_ms": sum(c.self_ns[s[0]] for c in commands for s in c.spans if s[2] == name) / 1e6,
        }
    return metrics, table


def step_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each top-level layer's forward + backward time as a share of one train step."""
    step = metrics["model.forward_train.ms_per_batch"] + metrics["model.backward.ms_per_batch"]
    if step <= 0:
        return {}
    return {n: (metrics[f"layer.{n}.fwd_ms"] + metrics[f"layer.{n}.bwd_ms"]) / step for n in LAYERS}
