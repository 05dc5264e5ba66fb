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

from .errors import EXIT_DOMAIN, EXIT_OK, AffseqError, ConfigError, exit_code_for


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


_THREADS_KEY = Key(
    "threads", _parse_int, help="reserved, selects nothing yet; must be ≥ 1 (default AFFSEQ_THREADS or 1)"
)


def _dsp_keys() -> list[Key]:
    return [
        Key("n_fft", _parse_int, help="FFT size for the short-time transform"),
        Key("stft_hop", _parse_int, help="hop between transform frames in samples"),
        Key("n_mels", _parse_int, help="number of mel filterbank bands"),
        Key("n_mfcc", _parse_int, help="number of cepstral coefficients kept"),
        Key("fmin", _parse_float, help="filterbank lower edge in Hz"),
        Key("fmax", _parse_optional_float, help="filterbank upper edge in Hz (default Nyquist)"),
        Key("log_floor", _parse_float, help="energy floor before the log"),
    ]


def _model_keys() -> list[Key]:
    from .model import CELLS, VARIANTS

    return [
        Key("model.variant", _choice(VARIANTS), help="fusion, audio_only, or video_only"),
        Key("model.cell", _choice(CELLS), help="recurrent cell: gru or bilstm"),
        Key("model.dropout", _parse_float, help="dropout rate inside the branches"),
        Key("model.width_scale", _parse_int, help="divide all layer widths by this factor"),
    ]


def _extract_audio_keys() -> list[Key]:
    return [
        Key("wav", _parse_path, required=True, help="input RIFF/WAVE file"),
        Key("frames", _parse_int, required=True, help="number of video frames to align features to"),
        Key("out", _parse_path, required=True, help="output feature file"),
        *_dsp_keys(),
    ]


def _train_keys() -> list[Key]:
    from .metrics import CCC_MODES

    return [
        Key("manifest", _parse_path, required=True, help="corpus manifest CSV"),
        Key("out", _parse_path, required=True, help="output directory for best.ckpt and history.csv"),
        Key("epochs", _parse_int, help="training epochs (0 saves the initialized model)"),
        Key("batch_size", _parse_int, help="windows per optimizer step"),
        Key("learning_rate", _parse_float, help="RMSprop learning rate"),
        Key("seed", _parse_int, help="seed for weights, dropout and shuffling"),
        Key("shuffle", _parse_bool, help="shuffle windows every epoch"),
        Key("ccc_mode", _choice(CCC_MODES), help="validation CCC pooling"),
        Key("clip_norm", _parse_float, help="global gradient-norm cap; 0 disables"),
        _THREADS_KEY,
        *_model_keys(),
    ]


def _evaluate_keys() -> list[Key]:
    from .metrics import CCC_MODES

    return [
        Key("manifest", _parse_path, required=True, help="corpus manifest CSV"),
        Key("checkpoint", _parse_path, required=True, help="trained model checkpoint"),
        Key("ccc_mode", _choice(CCC_MODES), help="CCC pooling over videos"),
        Key("report", _parse_path, help="also write the report as CSV here"),
        _THREADS_KEY,
        Key("batch_size", _parse_int, help="windows per forward pass"),
    ]


def _predict_keys() -> list[Key]:
    return [
        Key("manifest", _parse_path, required=True, help="corpus manifest CSV"),
        Key("checkpoint", _parse_path, required=True, help="trained model checkpoint"),
        Key("out", _parse_path, required=True, help="directory for per-video prediction CSVs"),
        _THREADS_KEY,
        Key("batch_size", _parse_int, help="windows per forward pass"),
    ]


def _parse_config_file(path: Path, keys: list[Key]) -> dict[str, object]:
    from .dataset import read_text

    by_name = {k.name: k for k in keys}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(read_text(path, ConfigError).splitlines(), start=1):
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
    """Key values from the flags, then the config file.

    A key set in neither is left out, so the default of the engine setting it
    feeds applies. Only ``threads`` feeds none: it falls back to
    ``AFFSEQ_THREADS`` or 1 and is checked here (≥ 1), before any input is read.
    """
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
    if any(key.name == "threads" for key in keys):
        if "threads" not in opts:
            opts["threads"] = _threads_default()
        if opts["threads"] < 1:
            raise ConfigError(f"threads must be ≥ 1, got {opts['threads']}")
    return opts


def _from_opts(cls, opts: dict, prefix: str = "", **extra):
    """A ``cls`` config whose fields are set from the ``opts`` keys named ``prefix`` + field name."""
    values = {f.name: opts[prefix + f.name] for f in fields(cls) if prefix + f.name in opts}
    return cls(**values, **extra)


def _given(opts: dict, *names: str) -> dict:
    """The ``opts`` entries among ``names``; a key left unset keeps the callee's default."""
    return {name: opts[name] for name in names if name in opts}


def _cmd_extract_audio(opts: dict) -> int:
    from .audio_io import read_wav
    from .dataset import write_feature_file
    from .dsp import DspParams, extract_audio_track

    params = _from_opts(DspParams, opts)
    clip = read_wav(opts["wav"])
    features = extract_audio_track(clip, opts["frames"], params)
    write_feature_file(opts["out"], features)
    print(f"{opts['out']}: rows={features.shape[0]} cols={features.shape[1]}")
    return EXIT_OK


def _cmd_train(opts: dict) -> int:
    from .dataset import load_manifest
    from .model import ModelConfig
    from .train import TrainConfig, train

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
    from .checkpoint import load_checkpoint
    from .dataset import load_manifest, replace_file
    from .train import evaluate_checkpoint

    rows = load_manifest(opts["manifest"])
    ckpt = load_checkpoint(opts["checkpoint"])
    report = evaluate_checkpoint(rows, ckpt, **_given(opts, "ccc_mode", "batch_size"))
    # the file first: a report that cannot be written fails the command before stdout says anything
    if "report" in opts:
        replace_file(opts["report"], [report.as_csv().encode("utf-8")])
    sys.stdout.write(report.as_text())
    return EXIT_OK


def _cmd_predict(opts: dict) -> int:
    from .checkpoint import load_checkpoint
    from .dataset import load_manifest
    from .train import predict

    rows = load_manifest(opts["manifest"])
    ckpt = load_checkpoint(opts["checkpoint"])
    written = predict(rows, ckpt, opts["out"], **_given(opts, "batch_size"))
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


def _build_parser(command: str | None) -> _Parser:
    """The parser; only ``command``'s subparser gets its key flags, so no other command's keys import anything."""
    parser = _Parser(prog="affseq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (keys_fn, _, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.add_argument("--config", type=Path, default=None, metavar="FILE", help="key = value option file")
        for key in keys_fn() if name == command else ():
            cmd.add_argument(key.flag, dest=key.dest, default=None, metavar="VALUE", help=key.help)
    return parser


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
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
    except (AffseqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
