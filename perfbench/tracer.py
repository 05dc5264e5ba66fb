"""In-memory span tracer wrapped around the engine's public functions and methods.

Nothing here edits the engine. ``instrument`` replaces the public functions of
each ``affseq`` module (in every module namespace that imported them) and a
few public methods with timing wrappers, and wraps ``forward``/``backward`` of
every top-level layer of each model as it is built. Spans stay in memory and
are written once, when the traced command ends.

A span is ``[id, parent_id, name, start_ns, end_ns, attrs]``; ``parent_id`` is
the span open on the same thread when it started (``None`` for a root).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# (module, attribute, span name); attribute "Class.method" wraps a method.
TRACED_CALLS = [
    ("affseq.cli", "main", "cli.main"),
    ("affseq.audio_io", "read_wav", "audio_io.read_wav"),
    ("affseq.dsp", "extract_audio_track", "dsp.extract_audio_track"),
    ("affseq.dsp", "mel_filterbank", "dsp.mel_filterbank"),
    ("affseq.dataset", "load_manifest", "dataset.load_manifest"),
    ("affseq.dataset", "load_feature_track", "dataset.load_feature_track"),
    ("affseq.dataset", "load_labels", "dataset.load_labels"),
    ("affseq.dataset", "write_feature_file", "dataset.write_feature_file"),
    ("affseq.dataset", "compute_stats", "dataset.compute_stats"),
    ("affseq.dataset", "normalize", "dataset.normalize"),
    ("affseq.dataset", "build_windows", "dataset.build_windows"),
    ("affseq.dataset", "merge_window_predictions", "dataset.merge_window_predictions"),
    ("affseq.model", "build", "model.build"),
    ("affseq.model", "Model.forward", None),  # named by mode: model.forward_train / _infer
    ("affseq.model", "Model.backward", "model.backward"),
    ("affseq.nn.losses", "masked_mse", "nn.masked_mse"),
    ("affseq.nn.optim", "clip_global_norm", "nn.clip_global_norm"),
    ("affseq.nn.optim", "RMSprop.step", "nn.rmsprop_step"),
    ("affseq.metrics", "evaluate", "metrics.evaluate"),
    ("affseq.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("affseq.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("affseq.train", "train", "train.train"),
    ("affseq.train", "predict", "train.predict"),
    ("affseq.train", "evaluate_checkpoint", "train.evaluate_checkpoint"),
    ("affseq.train", "predict_video", "train.predict_video"),
    ("affseq.train", "restore_model", "train.restore_model"),
]


def _train_flag(args, kwargs, index):
    if "train" in kwargs:
        return bool(kwargs["train"])
    return bool(args[index]) if len(args) > index else False


# Facts each span records about its call, computed after the clock stops.
_ATTRS = {
    "audio_io.read_wav": lambda r, a, k: {"bytes": os.path.getsize(a[0])},
    "dsp.extract_audio_track": lambda r, a, k: {"frames": int(r.shape[0])},
    "dataset.load_feature_track": lambda r, a, k: {"bytes": int(r.data.nbytes)},
    "dataset.build_windows": lambda r, a, k: {"windows": len(r)},
    "nn.clip_global_norm": lambda r, a, k: {"clipped": bool(a[1] > 0 and r > a[1])},
    "checkpoint.save": lambda r, a, k: {"bytes": os.path.getsize(a[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.models: list[list[str]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, name_fn=None, attrs_fn=None):
        """Return ``fn`` recording one span per call; ``name_fn(args, kwargs)`` overrides ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [next(tracer._ids), stack[-1] if stack else None,
                      name_fn(args, kwargs) if name_fn else name, 0, 0, None]
            tracer.spans.append(record)
            stack.append(record[0])
            record[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter_ns()
                stack.pop()
            if attrs_fn is not None:
                record[5] = attrs_fn(result, args, kwargs)
            return result

        return traced

    def dump(self, path) -> None:
        info = time.get_clock_info("perf_counter")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"resolution_ns": max(1, round(info.resolution * 1e9)),
                       "models": self.models, "spans": self.spans}, fh)


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded affseq module namespace."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "affseq" or mod_name.startswith("affseq.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _instrument_layers(tracer: Tracer, model) -> None:
    names = []
    for layers in [*model.branches.values(), model.head]:
        for layer in layers:
            names.append(layer.name)
            layer.forward = tracer.wrap(
                layer.forward, f"layer.{layer.name}.fwd",
                attrs_fn=lambda r, a, k: {"train": _train_flag(a, k, 1)},
            )
            layer.backward = tracer.wrap(layer.backward, f"layer.{layer.name}.bwd")
    tracer.models.append(names)


def instrument(tracer: Tracer) -> None:
    """Install span wrappers on the engine; call before running the CLI."""
    # Import everything first so every ``from .x import y`` binding exists to rebind.
    for module_name in {m for m, _, _ in TRACED_CALLS}:
        importlib.import_module(module_name)
    for module_name, attr, span in TRACED_CALLS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, meth)
            if span is None:
                wrapped = tracer.wrap(original, "", name_fn=lambda a, k: (
                    "model.forward_train" if _train_flag(a, k, 2) else "model.forward_infer"))
            else:
                wrapped = tracer.wrap(original, span, attrs_fn=_ATTRS.get(span))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(original, span, attrs_fn=_ATTRS.get(span)))

    from affseq.model import Model

    init = Model.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _instrument_layers(tracer, self)

    Model.__init__ = traced_init
