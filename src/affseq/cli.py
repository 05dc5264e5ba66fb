"""Command-line interface: extract-audio, train, evaluate, predict.

Every option is a key. Keys live in a flat ``key = value`` config file
(``--config``) or on the command line as ``--`` + key with underscores
turned into dashes; flags win over the file. Unknown config keys are
rejected with their line number.

Exit codes: 0 success, 2 I/O or malformed input files, 3 invalid
configuration or domain violations, 4 numeric faults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .checkpoint import load_checkpoint
from .dataset import load_manifest, write_feature_file
from .dsp import DspParams, extract_audio_track
from .errors import EXIT_DOMAIN, EXIT_IO, EXIT_OK, AffseqError, ConfigError, exit_code_for
from .metrics import CCC_MODES
from .model import CELLS, VARIANTS, ModelConfig
from .train import TrainConfig, evaluate_checkpoint, predict, train
from .audio_io import read_wav


def _parse_int(text: str) -> int:
    return int(text.strip(), 10)


def _parse_float(text: str) -> float:
    value = float(text.strip())
    return value


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_path(text: str) -> Path:
    return Path(text.strip())


def _parse_optional_float(text: str) -> float | None:
    t = text.strip().lower()
    if t in ("", "none", "nyquist"):
        return None
    return float(t)


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        t = text.strip()
        if t not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return t

    return parse


@dataclass(frozen=True)
class Key:
    name: str
    parse: Callable[[str], object]
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def dest(self) -> str:
        return self.name.replace(".", "__").replace("-", "_")


def _threads_default() -> int:
    raw = os.environ.get("AFFSEQ_THREADS")
    if raw is None:
        return 1
    try:
        value = _parse_int(raw)
    except ValueError:
        raise ConfigError(f"AFFSEQ_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"AFFSEQ_THREADS must be ≥ 1, got {value}")
    return value


_DSP = DspParams()


def _dsp_keys() -> list[Key]:
    return [
        Key("n_fft", _parse_int, _DSP.n_fft, help="FFT size for the short-time transform"),
        Key("stft_hop", _parse_int, _DSP.stft_hop, help="hop between transform frames in samples"),
        Key("n_mels", _parse_int, _DSP.n_mels, help="number of mel filterbank bands"),
        Key("n_mfcc", _parse_int, _DSP.n_mfcc, help="number of cepstral coefficients kept"),
        Key("fmin", _parse_float, _DSP.fmin, help="filterbank lower edge in Hz"),
        Key("fmax", _parse_optional_float, _DSP.fmax, help="filterbank upper edge in Hz (default Nyquist)"),
        Key("log_floor", _parse_float, _DSP.log_floor, help="energy floor before the log"),
    ]


def _model_keys() -> list[Key]:
    cfg = ModelConfig()
    return [
        Key("model.variant", _choice(VARIANTS), cfg.variant, help="fusion, audio_only, or video_only"),
        Key("model.cell", _choice(CELLS), cfg.cell, help="recurrent cell: gru or bilstm"),
        Key("model.dropout", _parse_float, cfg.dropout, help="dropout rate inside the branches"),
        Key("model.width_scale", _parse_int, cfg.width_scale, help="divide all layer widths by this factor"),
    ]


def _extract_audio_keys() -> list[Key]:
    return [
        Key("wav", _parse_path, required=True, help="input RIFF/WAVE file"),
        Key("frames", _parse_int, required=True, help="number of video frames to align features to"),
        Key("out", _parse_path, required=True, help="output feature file"),
        *_dsp_keys(),
    ]


def _train_keys() -> list[Key]:
    cfg_defaults = TrainConfig()
    return [
        Key("manifest", _parse_path, required=True, help="corpus manifest CSV"),
        Key("out", _parse_path, required=True, help="output directory for best.ckpt and history.csv"),
        Key("epochs", _parse_int, cfg_defaults.epochs, help="training epochs (0 saves the initialized model)"),
        Key("batch_size", _parse_int, cfg_defaults.batch_size, help="windows per optimizer step"),
        Key("learning_rate", _parse_float, cfg_defaults.learning_rate, help="RMSprop learning rate"),
        Key("seed", _parse_int, cfg_defaults.seed, help="seed for weights, dropout and shuffling"),
        Key("shuffle", _parse_bool, cfg_defaults.shuffle, help="shuffle windows every epoch"),
        Key("ccc_mode", _choice(CCC_MODES), cfg_defaults.ccc_mode, help="validation CCC pooling"),
        Key("clip_norm", _parse_float, cfg_defaults.clip_norm, help="global gradient-norm cap; 0 disables"),
        Key("threads", _parse_int, None, help="worker threads for data loading (default AFFSEQ_THREADS or 1)"),
        *_model_keys(),
    ]


def _evaluate_keys() -> list[Key]:
    return [
        Key("manifest", _parse_path, required=True, help="corpus manifest CSV"),
        Key("checkpoint", _parse_path, required=True, help="trained model checkpoint"),
        Key("ccc_mode", _choice(CCC_MODES), "concat", help="CCC pooling over videos"),
        Key("report", _parse_path, None, help="also write the report as CSV here"),
        Key("threads", _parse_int, None, help="worker threads for data loading (default AFFSEQ_THREADS or 1)"),
        Key("batch_size", _parse_int, 32, help="windows per forward pass"),
    ]


def _predict_keys() -> list[Key]:
    return [
        Key("manifest", _parse_path, required=True, help="corpus manifest CSV"),
        Key("checkpoint", _parse_path, required=True, help="trained model checkpoint"),
        Key("out", _parse_path, required=True, help="directory for per-video prediction CSVs"),
        Key("threads", _parse_int, None, help="worker threads for data loading (default AFFSEQ_THREADS or 1)"),
        Key("batch_size", _parse_int, 32, help="windows per forward pass"),
    ]


def _parse_config_file(path: Path, keys: list[Key]) -> dict[str, object]:
    by_name = {k.name: k for k in keys}
    values: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key = key.strip()
        known = by_name.get(key)
        if known is None:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            values[key] = known.parse(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def _resolve(keys: list[Key], args: argparse.Namespace) -> dict[str, object]:
    file_values: dict[str, object] = {}
    if getattr(args, "config", None) is not None:
        file_values = _parse_config_file(args.config, keys)
    opts: dict[str, object] = {}
    for key in keys:
        raw = getattr(args, key.dest)
        if raw is not None:
            try:
                opts[key.name] = key.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key.flag}: {exc}") from None
        elif key.name in file_values:
            opts[key.name] = file_values[key.name]
        elif key.required:
            raise ConfigError(f"missing required option {key.flag}")
        else:
            opts[key.name] = key.default
    if "threads" in opts and opts["threads"] is None:
        opts["threads"] = _threads_default()
    return opts


def _from_opts(cls, opts: dict, prefix: str = "", **extra):
    """A ``cls`` config whose fields are set from the ``opts`` keys named ``prefix`` + field name."""
    values = {f.name: opts[prefix + f.name] for f in fields(cls) if prefix + f.name in opts}
    return cls(**values, **extra)


def _cmd_extract_audio(opts: dict) -> int:
    params = _from_opts(DspParams, opts)
    clip = read_wav(opts["wav"])
    features = extract_audio_track(clip, opts["frames"], params)
    write_feature_file(opts["out"], features)
    print(f"{opts['out']}: rows={features.shape[0]} cols={features.shape[1]}")
    return EXIT_OK


def _cmd_train(opts: dict) -> int:
    rows = load_manifest(opts["manifest"])
    config = _from_opts(TrainConfig, opts, model=_from_opts(ModelConfig, opts, "model."))
    ckpt, history = train(rows, config, opts["out"])
    out_dir = Path(opts["out"])
    best = ckpt.best_val_score
    if best is None:
        print(f"{out_dir / 'best.ckpt'}: initialized model, no epochs scored")
    else:
        print(f"{out_dir / 'best.ckpt'}: epoch {ckpt.epoch} mean val CCC {best:.4f}")
    print(f"{out_dir / 'history.csv'}: {len(history)} epochs")
    return EXIT_OK


def _cmd_evaluate(opts: dict) -> int:
    rows = load_manifest(opts["manifest"])
    ckpt = load_checkpoint(opts["checkpoint"])
    report = evaluate_checkpoint(
        rows, ckpt, ccc_mode=opts["ccc_mode"], threads=opts["threads"], batch_size=opts["batch_size"]
    )
    sys.stdout.write(report.as_text())
    if opts["report"] is not None:
        Path(opts["report"]).write_text(report.as_csv(), encoding="utf-8")
    return EXIT_OK


def _cmd_predict(opts: dict) -> int:
    rows = load_manifest(opts["manifest"])
    ckpt = load_checkpoint(opts["checkpoint"])
    written = predict(rows, ckpt, opts["out"], threads=opts["threads"], batch_size=opts["batch_size"])
    print(f"{opts['out']}: wrote {len(written)} prediction files")
    return EXIT_OK


_COMMANDS: dict[str, tuple[Callable[[], list[Key]], Callable[[dict], int], str]] = {
    "extract-audio": (_extract_audio_keys, _cmd_extract_audio, "compute per-frame audio features from a WAV file"),
    "train": (_train_keys, _cmd_train, "train a model from a corpus manifest"),
    "evaluate": (_evaluate_keys, _cmd_evaluate, "score a checkpoint on the manifest's val split"),
    "predict": (_predict_keys, _cmd_predict, "write per-video frame prediction CSVs"),
}


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors (exit 3), not argparse's exit 2
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="affseq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (keys_fn, _, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.add_argument("--config", type=Path, default=None, metavar="FILE", help="key = value option file")
        for key in keys_fn():
            cmd.add_argument(key.flag, dest=key.dest, default=None, metavar="VALUE", help=key.help)
    return parser


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_DOMAIN
    keys_fn, run_fn, _ = _COMMANDS[args.command]
    opts = _resolve(keys_fn(), args)
    return run_fn(opts)


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except AffseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
