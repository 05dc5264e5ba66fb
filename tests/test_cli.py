import contextlib
import io
import shutil
import struct
import tracemalloc
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import affseq.train as train_module
from affseq.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from affseq.cli import main
from affseq.dataset import load_feature_track
from affseq.dsp import DspParams
from affseq.errors import FileFormatError, TruncatedFileError

from conftest import FILE_CHANGES, make_corpus
from oracles import float32_wav_bytes, pcm16_wav_bytes


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv("AFFSEQ_THREADS", raising=False)


def _wav(path, n_samples=16000, rate=16000):
    tone = np.sin(2 * np.pi * 440.0 * np.arange(n_samples) / rate)
    path.write_bytes(pcm16_wav_bytes(np.round(tone * 20000).astype(np.int64), rate))
    return path


def _manifest(tmp_path, rng, videos=None):
    videos = videos or [("tr0", "train", 25), ("va0", "val", 20)]
    return make_corpus(tmp_path / "corpus", videos, rng)


def _train_args(manifest, out, *extra):
    return [
        "train",
        "--manifest", str(manifest),
        "--out", str(out),
        "--epochs", "1",
        "--model.width-scale", "32",
        *extra,
    ]


# --- parser shell ----------------------------------------------------------------

def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 3
    assert "extract-audio" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["transcode"]) == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["predict", "--wat", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "extract-audio" in capsys.readouterr().out


def test_command_help_lists_generated_flags(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    for flag in ("--manifest", "--learning-rate", "--model.variant", "--model.width-scale", "--ccc-mode"):
        assert flag in out


def test_missing_required_option(capsys):
    assert main(["predict", "--checkpoint", "x.ckpt", "--out", "y"]) == 3
    assert "missing required option --manifest" in capsys.readouterr().err


def test_bad_flag_value(capsys):
    assert main(["train", "--manifest", "m", "--out", "o", "--epochs", "soon"]) == 3
    assert "bad value for --epochs" in capsys.readouterr().err


# --- extract-audio -------------------------------------------------------

def test_extract_audio_writes_track(tmp_path, capsys):
    wav = _wav(tmp_path / "a.wav")
    out = tmp_path / "a.feat"
    code = main(["extract-audio", "--wav", str(wav), "--frames", "10", "--out", str(out)])
    assert code == 0
    assert f"{out}: rows=10 cols=168" in capsys.readouterr().out
    track = load_feature_track(out, "audio")
    assert track.data.shape == (10, 168)
    assert np.isfinite(track.data).all()


def test_extract_audio_respects_dsp_keys(tmp_path, capsys):
    wav = _wav(tmp_path / "a.wav")
    out = tmp_path / "a.feat"
    code = main(
        [
            "extract-audio", "--wav", str(wav), "--frames", "4", "--out", str(out),
            "--n-mels", "64", "--n-mfcc", "20", "--n-fft", "1024", "--stft-hop", "256",
        ]
    )
    assert code == 0
    assert "rows=4 cols=84" in capsys.readouterr().out


def test_extract_audio_unset_dsp_keys_take_the_dsp_defaults(tmp_path, capsys):
    wav = _wav(tmp_path / "a.wav")
    explicit = []
    for f in fields(DspParams):
        explicit += ["--" + f.name.replace("_", "-"), "none" if f.default is None else repr(f.default)]
    base = ["extract-audio", "--wav", str(wav), "--frames", "12", "--out"]
    assert main([*base, str(tmp_path / "unset.feat")]) == 0
    assert main([*base, str(tmp_path / "explicit.feat"), *explicit]) == 0
    assert (tmp_path / "unset.feat").read_bytes() == (tmp_path / "explicit.feat").read_bytes()


def test_extract_audio_creates_the_out_directory(tmp_path, capsys):
    wav = _wav(tmp_path / "a.wav")
    fresh = tmp_path / "audio" / "tr0" / "audio.feat"
    existing = tmp_path / "audio.feat"
    assert main(["extract-audio", "--wav", str(wav), "--frames", "6", "--out", str(fresh)]) == 0
    assert main(["extract-audio", "--wav", str(wav), "--frames", "6", "--out", str(existing)]) == 0
    assert fresh.read_bytes() == existing.read_bytes()


def test_extract_audio_rejects_zero_frames(tmp_path, capsys):
    wav = _wav(tmp_path / "a.wav")
    code = main(["extract-audio", "--wav", str(wav), "--frames", "0", "--out", str(tmp_path / "x")])
    assert code == 3
    assert "n_frames" in capsys.readouterr().err


def test_extract_audio_missing_wav(tmp_path, capsys):
    code = main(["extract-audio", "--wav", str(tmp_path / "no.wav"), "--frames", "4", "--out", str(tmp_path / "x")])
    assert code == 2


def test_extract_audio_refuses_non_finite_features(tmp_path, capsys):
    samples = 0.3 * np.sin(2 * np.pi * 440.0 * np.arange(16000) / 16000)
    samples[8000] = np.nan  # a float WAV can carry NaN; clipping to [-1, 1] keeps it
    wav = tmp_path / "nan.wav"
    wav.write_bytes(float32_wav_bytes(samples, 16000))
    out = tmp_path / "nan.feat"
    code = main(["extract-audio", "--wav", str(wav), "--frames", "30", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:") and "audio features of 2 of 30 frames are not finite" in err
    assert not out.exists()


def test_extract_audio_garbage_wav(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a riff file at all")
    code = main(["extract-audio", "--wav", str(bad), "--frames", "4", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n-fft", "3", "n_fft must be a power of two ≥ 2, got 3"),
        ("--n-fft", "1", "n_fft must be a power of two ≥ 2, got 1"),
        ("--stft-hop", "0", "stft_hop must be ≥ 1, got 0"),
        ("--n-mels", "0", "n_mels must be ≥ 1, got 0"),
        ("--n-mfcc", "500", "n_mfcc must be between 1 and n_mels=128, got 500"),
        ("--n-mfcc", "0", "n_mfcc must be between 1 and n_mels=128, got 0"),
        ("--log-floor", "0", "log_floor must be finite and > 0, got 0.0"),
        ("--log-floor", "nan", "log_floor must be finite and > 0, got nan"),
    ],
    ids=["n-fft-3", "n-fft-1", "stft-hop-0", "n-mels-0", "n-mfcc-500", "n-mfcc-0", "log-floor-0", "log-floor-nan"],
)
def test_extract_audio_rejects_invalid_dsp_params(tmp_path, capsys, flag, value, message):
    wav = tmp_path / "silent.wav"
    wav.write_bytes(pcm16_wav_bytes(np.zeros(16000), 16000))
    out = tmp_path / "x.feat"
    code = main(["extract-audio", "--wav", str(wav), "--frames", "4", "--out", str(out), flag, value])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_extract_audio_rejects_empty_mel_filters(tmp_path, capsys):
    wav = _wav(tmp_path / "a.wav", n_samples=44100, rate=44100)
    out = tmp_path / "audio" / "a.feat"
    code = main(["extract-audio", "--wav", str(wav), "--frames", "30", "--out", str(out), "--n-mels", "4000"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: 2307 of 4000 mel filters capture no FFT bin (n_fft=2048, sr=44100)")
    assert err.count("\n") == 1
    assert not (tmp_path / "audio").exists()  # the out directory is made only once features exist


# Boundary values every numeric extract-audio key is driven through. Huge
# n_fft and n_mels are left out: a valid one makes the filterbank really
# allocate [n_mels x (n_fft/2 + 1)] floats.
_BOUNDARY = ("0", "-1", "nan", "inf", "-inf", "1.5", "1e308")
_HUGE = "100000000000000000000"
_EXTRACT_VALUES = {
    "frames": ("1", "4", "30", _HUGE),
    "n_fft": ("2", "64", "256", "2048"),
    "stft_hop": ("1", "64", "512", _HUGE),
    "n_mels": ("1", "8", "40", "128"),
    "n_mfcc": ("1", "13", "40", _HUGE),
    "fmin": ("0", "100", "7999.5", _HUGE),
    "fmax": ("none", "4000", "8000", _HUGE),
    "log_floor": ("1e-10", "1e-3", "1e300", _HUGE),
}


@pytest.fixture(scope="module")
def half_silent_wav(tmp_path_factory):
    tone = np.sin(2 * np.pi * 440.0 * np.arange(2000) / 16000)
    tone[:1000] = 0.0
    path = tmp_path_factory.mktemp("exit_codes") / "half_silent.wav"
    path.write_bytes(pcm16_wav_bytes(np.round(tone * 20000).astype(np.int64), 16000))
    return path


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {key: st.none() | st.sampled_from(values + _BOUNDARY) for key, values in _EXTRACT_VALUES.items()}
    )
)
def test_extract_audio_exit_codes_property(half_silent_wav, options):
    """Any mix of boundary option values ends in 0/2/3/4 with one error: line, no traceback."""
    out = half_silent_wav.with_suffix(".feat")
    out.unlink(missing_ok=True)
    argv = ["extract-audio", "--wav", str(half_silent_wav), "--out", str(out), "--frames", options["frames"] or "4"]
    for key, value in options.items():
        if key != "frames" and value is not None:
            argv += ["--" + key.replace("_", "-"), value]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out.exists() and "rows=" in stdout.getvalue()
    else:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert not out.exists()


# --- train -----------------------------------------------------------------

def test_train_writes_outputs(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng)
    out = tmp_path / "run"
    assert main(_train_args(manifest, out, "--seed", "7")) == 0
    stdout = capsys.readouterr().out
    assert "best.ckpt" in stdout and "history.csv" in stdout
    assert (out / "best.ckpt").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header + 1 epoch


def test_train_epochs_zero_reports_initialized(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng)
    args = _train_args(manifest, tmp_path / "run")
    args[args.index("--epochs") + 1] = "0"
    assert main(args) == 0
    assert "initialized model" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
        ("--learning-rate", "nan", "learning_rate must be finite, got nan"),
        ("--learning-rate", "inf", "learning_rate must be finite, got inf"),
        ("--clip-norm", "nan", "clip_norm must be finite and ≥ 0 (0 disables), got nan"),
        ("--clip-norm", "inf", "clip_norm must be finite and ≥ 0 (0 disables), got inf"),
        ("--clip-norm", "-1", "clip_norm must be finite and ≥ 0 (0 disables), got -1.0"),
    ],
    ids=["seed-neg", "lr-nan", "lr-inf", "clip-nan", "clip-inf", "clip-neg"],
)
def test_train_rejects_invalid_numeric_config(tmp_path, rng, capsys, flag, value, message):
    manifest = _manifest(tmp_path, rng)
    args = _train_args(manifest, tmp_path / "run", flag, value)
    args[args.index("--epochs") + 1] = "0"
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_train_variant_flag(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng)
    assert main(_train_args(manifest, tmp_path / "run", "--model.variant", "audio_only")) == 0


def test_train_without_val_split(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng, videos=[("a", "train", 20)])
    assert main(_train_args(manifest, tmp_path / "run")) == 3
    assert "val" in capsys.readouterr().err


def test_train_missing_manifest(tmp_path, capsys):
    assert main(_train_args(tmp_path / "nope.csv", tmp_path / "run")) == 2


def test_train_that_fails_before_its_first_save_leaves_no_out_dir(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng, videos=[("va0", "val", 20)])
    assert main(_train_args(manifest, tmp_path / "fresh" / "x")) == 3
    assert capsys.readouterr().err == "error: manifest has no train rows\n"
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("change", ["touched", "removed"])
def test_train_input_changed_during_the_run_exits_2_with_one_error_line(tmp_path, rng, capsys, monkeypatch, change):
    manifest = _manifest(tmp_path, rng)
    path = tmp_path / "corpus" / "tr0.facepose.feat"
    real_start = train_module._start_run

    def start_then_change(*args):
        run = real_start(*args)
        FILE_CHANGES[change](path)
        return run

    monkeypatch.setattr(train_module, "_start_run", start_then_change)
    assert main(_train_args(manifest, tmp_path / "run")) == 2
    reason = {"touched": "replaced, rewritten or touched", "removed": "No such file or directory"}[change]
    assert capsys.readouterr().err == f"error: {path}: feature file changed after it was checked ({reason})\n"


# --- manifest and label tables ----------------------------------------------------

_MANIFEST_HEADER = "video_id,split,audio_path,expnet_path,facepose_path,label_path,n_frames"


@pytest.mark.parametrize(
    "table, text, message",
    [
        ("labels", "", "{path}: empty label file"),
        ("manifest", "", "{path}: empty manifest"),
        ("labels", "frame,v,a\n0,0,0\n", "{path}: label header must be frame,valence,arousal"),
        ("manifest", "video,split\nv0,train\n", "{path}: manifest header must be " + _MANIFEST_HEADER),
        ("labels", "frame,valence,arousal\n0,0.1\n", "{path}:2: expected 3 fields, got 2"),
        ("manifest", _MANIFEST_HEADER + "\nv0,train,a\n", "{path}:2: expected 7 fields, got 3"),
        # a header is compared stripped; a blank row is skipped but keeps its line number
        ("labels", " frame , valence,arousal\n\n0,0\n", "{path}:3: expected 3 fields, got 2"),
        ("manifest", " " + _MANIFEST_HEADER + " \n\nv0,train,a\n", "{path}:3: expected 7 fields, got 3"),
        ("labels", "frame,valence,arousal\n0,0,0\n2,0,0\n", "{path}:3: frame index 2 out of order (expected 1)"),
        (
            "labels",
            "frame,valence,arousal\n0,abc,0\n",
            "{path}:2: non-numeric field (could not convert string to float: 'abc')",
        ),
        ("manifest", _MANIFEST_HEADER + "\nv0,test,a,e,f,l,10\n", "{path}:2: split must be train or val, got 'test'"),
        ("manifest", _MANIFEST_HEADER + "\nv0,train,a,e,f,l,many\n", "{path}:2: non-numeric n_frames 'many'"),
        ("manifest", _MANIFEST_HEADER + "\nv0,train,a,e,f,l,0\n", "{path}:2: n_frames must be ≥ 1, got 0"),
    ],
    ids=[
        "labels-empty", "manifest-empty", "labels-header", "manifest-header", "labels-fields",
        "manifest-fields", "labels-blank-row", "manifest-blank-row", "labels-frame-order",
        "labels-non-numeric", "manifest-split", "manifest-n-frames-non-numeric", "manifest-n-frames-zero",
    ],
)
def test_table_rule_exits_2_with_one_error_line(tmp_path, rng, capsys, table, text, message):
    manifest = _manifest(tmp_path, rng)
    path = manifest.with_name("tr0.labels.csv") if table == "labels" else manifest
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    assert main(_train_args(manifest, out)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(path=path)}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, target, raw, code, message",
    [
        ("train", "manifest", _MANIFEST_HEADER.encode() + b"\n\xff\n", 2, "{path}:2: line is not valid UTF-8"),
        # a byte-order mark is not a line, and line numbers count from after it
        ("train", "manifest", b"\xef\xbb\xbfvideo_id\nv0\nv\xe9\n", 2, "{path}:3: line is not valid UTF-8"),
        ("train", "labels", b"frame,valence,arousal\n0,0,0\n1,\xe9,0\n", 2, "{path}:3: line is not valid UTF-8"),
        ("train", "labels", b"frame,valence,arousal\n0,0\x00,0\n", 2, "{path}:2: line contains NUL"),
        ("predict", "manifest", _MANIFEST_HEADER.encode() + b"\nv\x000,val,a,e,f,,10\n", 2,
         "{path}:2: line contains NUL"),
        ("train", "config", b"epochs = 1\nseed = \xff\n", 3, "{path}:2: line is not valid UTF-8"),
        ("train", "config", b"epochs = 1\nout = run\x00\n", 3, "{path}:2: line contains NUL"),
    ],
    ids=["manifest-not-utf8", "manifest-bom-not-utf8", "labels-not-utf8", "labels-nul", "manifest-nul-id",
         "config-not-utf8", "config-nul"],
)
def test_undecodable_input_exits_with_one_error_line(tmp_path, rng, capsys, command, target, raw, code, message):
    manifest = _manifest(tmp_path, rng)
    path = {"manifest": manifest, "labels": manifest.with_name("tr0.labels.csv"), "config": tmp_path / "a.conf"}[target]
    path.write_bytes(raw)
    out = tmp_path / "run"
    if command == "predict":
        argv = ["predict", "--manifest", str(manifest), "--checkpoint", str(tmp_path / "none.ckpt"), "--out", str(out)]
    else:
        argv = _train_args(manifest, out, *(["--config", str(path)] if target == "config" else []))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(path=path)}\n")
    assert not out.exists()


# --- config files -------------------------------------------------------------

def test_config_file_supplies_options(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# toy run\n"
        "\n"
        f"manifest = {manifest}\n"
        f"out = {tmp_path / 'run'}\n"
        "epochs = 2\n"
        "model.width_scale = 32\n"
        "seed = 9\n"
    )
    assert main(["train", "--config", str(cfg)]) == 0
    history = (tmp_path / "run" / "history.csv").read_text().splitlines()
    assert len(history) == 3  # header + 2 epochs


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, rng, capsys):
    # the key is read as seed, not as an unknown '\ufeffseed'
    cfg = tmp_path / "train.cfg"
    cfg.write_text("seed = -1\n", encoding="utf-8-sig")
    assert main(_train_args(_manifest(tmp_path, rng), tmp_path / "run", "--config", str(cfg))) == 3
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


def test_flags_override_config_file(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"manifest = {manifest}\nout = {tmp_path / 'a'}\nepochs = 2\nmodel.width_scale = 32\n")
    assert main(["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "b")]) == 0
    history = (tmp_path / "b" / "history.csv").read_text().splitlines()
    assert len(history) == 2  # flag value, not the file's


def test_config_unknown_key_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 1\nlearning_rte = 0.1\n")
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "learning_rte" in err


def test_config_missing_equals_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# fine\nepochs 3\n")
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "key = value" in err


def test_config_bad_value_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = never\n")
    assert main(["train", "--config", str(cfg)]) == 3
    assert f"{cfg}:1" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.cfg")]) == 2


# --- evaluate / predict ----------------------------------------------------------

@pytest.fixture
def trained(tmp_path, rng):
    manifest = _manifest(tmp_path, rng)
    out = tmp_path / "run"
    assert main(_train_args(manifest, out, "--seed", "3")) == 0
    return manifest, out / "best.ckpt"


def test_evaluate_prints_report(trained, tmp_path, capsys):
    manifest, ckpt = trained
    capsys.readouterr()
    code = main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt)])
    assert code == 0
    out = capsys.readouterr().out
    assert "CCC" in out and "MSE" in out and "frames evaluated: 20" in out


def test_evaluate_writes_report_csv(trained, tmp_path, capsys):
    manifest, ckpt = trained
    report = tmp_path / "reports" / "val" / "report.csv"
    code = main(
        ["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--report", str(report)]
    )
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "metric,valence,arousal"
    assert lines[1].startswith("ccc,") and lines[2].startswith("mse,")
    assert len(lines) == 3


def test_evaluate_ccc_mode_choice_is_validated(trained, capsys):
    manifest, ckpt = trained
    code = main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--ccc-mode", "median"])
    assert code == 3
    assert "expected one of" in capsys.readouterr().err


def test_evaluate_missing_checkpoint(trained, tmp_path, capsys):
    manifest, _ = trained
    report = tmp_path / "reports" / "report.csv"
    code = main(
        ["evaluate", "--manifest", str(manifest), "--checkpoint", str(tmp_path / "no.ckpt"), "--report", str(report)]
    )
    assert code == 2
    assert not (tmp_path / "reports").exists()


def test_predict_writes_tracks(trained, tmp_path, capsys):
    manifest, ckpt = trained
    out = tmp_path / "preds"
    capsys.readouterr()
    code = main(["predict", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 0
    assert "wrote 2 prediction files" in capsys.readouterr().out
    for vid, n_frames in (("tr0", 25), ("va0", 20)):
        lines = (out / f"{vid}.csv").read_text().splitlines()
        assert len(lines) == n_frames + 1
        values = np.array([line.split(",")[1:] for line in lines[1:]], dtype=np.float64)
        assert np.all(np.abs(values) <= 1.0)


def _rewrite_manifest(manifest, name, lines):
    path = manifest.with_name(name)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_manifest_rejects_a_repeated_video_id(trained, tmp_path, capsys, command):
    manifest, ckpt = trained
    header, tr0, va0 = manifest.read_text(encoding="utf-8").splitlines()
    repeated = _rewrite_manifest(manifest, "repeated.csv", [header, tr0, va0, va0])
    out = tmp_path / "preds"
    argv = [command, "--manifest", str(repeated), "--checkpoint", str(ckpt)]
    if command == "predict":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {repeated}:4: video_id 'va0' repeats line 3\n"
    assert not out.exists()


@pytest.mark.parametrize("video_id", ["", ".", "..", "../escaped", "sub/va0"])
def test_manifest_rejects_a_video_id_that_is_not_a_plain_file_name(trained, tmp_path, capsys, video_id):
    manifest, ckpt = trained
    header, tr0, va0 = manifest.read_text(encoding="utf-8").splitlines()
    unsafe = _rewrite_manifest(manifest, "unsafe.csv", [header, tr0, video_id + va0.removeprefix("va0")])
    out = tmp_path / "preds"
    capsys.readouterr()
    assert main(["predict", "--manifest", str(unsafe), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {unsafe}:3: video_id must be a plain file name, got {video_id!r}\n"
    assert not out.exists() and not (tmp_path / "escaped.csv").exists()


def _set_model_key(key, value):
    return lambda config: {**config, "model": {**config["model"], key: value}}


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (lambda c: {k: v for k, v in c.items() if k != "model"}, 2, "no model section"),
        (_set_model_key("depth", 3), 2, "unknown model config key 'depth'"),
        (lambda c: [c], 2, "not an object"),
        (_set_model_key("width_scale", "2"), 2, "width_scale must be int"),
        (lambda c: {**c, "model": "fusion"}, 2, "not an object"),
        (_set_model_key("variant", "trimodal"), 3, "unknown model variant"),
        (lambda c: {**c, "seed": -1}, 2, "seed must be a non-negative integer"),
        (_set_model_key("sequence_len", 10), 2, "model config sequence_len must be 15, got 10"),
    ],
    ids=["no-model", "unknown-key", "json-list", "str-width-scale", "model-not-object", "bad-variant",
         "negative-seed", "sequence-len-10"],
)
def test_predict_rejects_malformed_checkpoint_config(trained, tmp_path, capsys, edit, code, message):
    manifest, ckpt_path = trained
    ckpt = load_checkpoint(ckpt_path)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, Checkpoint(config=edit(ckpt.config), tensors=ckpt.tensors))
    capsys.readouterr()
    assert main(["predict", "--manifest", str(manifest), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "preds")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_checkpoint_declaring_a_wider_input_exits_2_before_allocating_it(trained, tmp_path, capsys, command):
    manifest, ckpt_path = trained
    ckpt = load_checkpoint(ckpt_path)
    wide = tmp_path / "wide.ckpt"
    config = _set_model_key("expnet_dim", 10_000_000)(ckpt.config)
    save_checkpoint(wide, Checkpoint(config=config, tensors=ckpt.tensors))
    argv = [command, "--manifest", str(manifest), "--checkpoint", str(wide)]
    if command == "predict":
        argv += ["--out", str(tmp_path / "preds")]
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = "checkpoint tensor param/expnet.rnn1.W_z has shape (2048, 8), model expects (10000000, 8)"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 2**26  # one float64 kernel of the declared width would take 610 MiB
    assert not (tmp_path / "preds").exists()


def _without(*names):
    return lambda tensors: {k: v for k, v in tensors.items() if k not in names}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without("norm/audio/std"), "missing ['norm/audio/std']"),
        (_without("norm/expnet/mean", "norm/expnet/std"), "missing ['norm/expnet/mean', 'norm/expnet/std']"),
        (lambda t: {**t, "norm/audio/mean": np.zeros(5)}, "norm/audio/mean has shape (5,), model expects (168,)"),
        (lambda t: {**t, "norm/audio/median": np.zeros(168)}, "unexpected ['norm/audio/median']"),
        (_without("param/head.dense2.b"), "missing ['param/head.dense2.b']"),
    ],
    ids=["no-audio-std", "no-expnet-norm", "audio-mean-width-5", "extra-audio-median", "no-head-bias"],
)
def test_predict_rejects_checkpoint_tensors_off_the_layout(trained, tmp_path, capsys, edit, message):
    manifest, ckpt_path = trained
    ckpt = load_checkpoint(ckpt_path)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, Checkpoint(config=ckpt.config, tensors=edit(ckpt.tensors)))
    capsys.readouterr()
    assert main(["predict", "--manifest", str(manifest), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "preds")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err



def _flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "spoil",
    [
        _flip_last_byte,
        lambda path: save_checkpoint(path, Checkpoint(
            config=load_checkpoint(path).config,
            tensors=_without("param/head.dense2.b")(load_checkpoint(path).tensors))),
    ],
    ids=["corrupt", "mismatched"],
)
def test_predict_on_bad_checkpoint_leaves_no_out_dir(trained, tmp_path, capsys, spoil):
    manifest, ckpt_path = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(ckpt_path.read_bytes())
    spoil(bad)
    out = tmp_path / "preds" / "nested"
    capsys.readouterr()
    assert main(["predict", "--manifest", str(manifest), "--checkpoint", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "preds").exists()


def _afck(*tensors) -> bytes:
    """An AFCK file holding ``(name, dims, payload)`` tensors in the order given, every CRC consistent."""
    config = b"{}"
    parts = [b"AFCK", struct.pack("<II", 1, len(config)), config, struct.pack("<I", len(tensors))]
    for name, dims, payload in tensors:
        parts += [
            struct.pack("<H", len(name)), name, struct.pack(f"<B{len(dims)}I", len(dims), *dims),
            payload, struct.pack("<I", zlib.crc32(payload)),
        ]
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _evaluate_fails_with_one_error_line(manifest, ckpt, capsys, message):
    capsys.readouterr()
    assert main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


def test_checkpoint_dims_of_2_to_the_64_elements_are_truncated(tmp_path, rng, capsys):
    # 65536**4 = 2**64 elements: a wrapping product reads 0, and the empty payload then fails to reshape
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(_afck((b"w", (65536,) * 4, b"")))
    with pytest.raises(TruncatedFileError, match=f"tensor 'w' payload needs {4 * 2**64} bytes"):
        load_checkpoint(ckpt)
    _evaluate_fails_with_one_error_line(_manifest(tmp_path, rng), ckpt, capsys, "file too short")


def test_checkpoint_tensor_name_must_be_utf8(tmp_path, rng, capsys):
    ckpt = tmp_path / "name.ckpt"
    ckpt.write_bytes(_afck((b"param/\xff", (), struct.pack("<f", 1.0))))
    with pytest.raises(FileFormatError, match="tensor name is not valid UTF-8"):
        load_checkpoint(ckpt)
    _evaluate_fails_with_one_error_line(_manifest(tmp_path, rng), ckpt, capsys, "tensor name is not valid UTF-8")


@pytest.mark.parametrize(
    "names, message",
    [
        ((b"a", b"a"), "tensor 'a' follows 'a'; names must be sorted and unique"),
        ((b"b", b"a"), "tensor 'a' follows 'b'; names must be sorted and unique"),
    ],
    ids=["duplicate", "unsorted"],
)
def test_checkpoint_tensor_names_must_be_sorted_and_unique(tmp_path, rng, capsys, names, message):
    # each file is consistent but for its names; without the check the duplicate loads as {'a': 3.0}
    ckpt = tmp_path / "names.ckpt"
    ckpt.write_bytes(_afck(*[(name, (), struct.pack("<f", value)) for name, value in zip(names, (2.0, 3.0))]))
    with pytest.raises(FileFormatError, match=message):
        load_checkpoint(ckpt)
    _evaluate_fails_with_one_error_line(_manifest(tmp_path, rng), ckpt, capsys, message)


# Boundary values of the inference keys, plus valid ones.
_INFERENCE_VALUES = ("0", "-1", "1.5", _HUGE, "1", "2", "7")


@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    root = tmp_path_factory.mktemp("inference_exit_codes")
    manifest = make_corpus(root / "corpus", [("tr0", "train", 25), ("va0", "val", 20)], np.random.default_rng(5))
    assert main(_train_args(manifest, root / "run", "--seed", "3")) == 0
    return manifest, root / "run" / "best.ckpt"


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(("predict", "evaluate")),
    options=st.fixed_dictionaries(
        {key: st.none() | st.sampled_from(_INFERENCE_VALUES) for key in ("batch_size", "threads")}
    ),
)
def test_inference_exit_codes_property(trained_once, command, options):
    """Any batch size or thread count ends in 0 or 3, with one error: line and no --out on failure."""
    manifest, ckpt = trained_once
    out = ckpt.parent / "preds"
    shutil.rmtree(out, ignore_errors=True)
    argv = [command, "--manifest", str(manifest), "--checkpoint", str(ckpt)]
    if command == "predict":
        argv += ["--out", str(out)]
    for key, value in options.items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), value]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    event(f"exit {code}")
    valid = all(value in (None, "1", "2", "7", _HUGE) for value in options.values())
    assert code == (0 if valid else 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert command == "evaluate" or (out / "va0.csv").exists()
    else:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert not out.exists()


# --- thread environment ----------------------------------------------------------

def test_threads_env_must_be_integer(monkeypatch, trained, capsys):
    manifest, ckpt = trained
    monkeypatch.setenv("AFFSEQ_THREADS", "many")
    code = main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt)])
    assert code == 3
    assert "AFFSEQ_THREADS" in capsys.readouterr().err


def test_threads_env_must_be_positive(monkeypatch, trained, capsys):
    manifest, ckpt = trained
    monkeypatch.setenv("AFFSEQ_THREADS", "0")
    assert main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt)]) == 3


def test_threads_flag_overrides_env(monkeypatch, trained, capsys):
    manifest, ckpt = trained
    monkeypatch.setenv("AFFSEQ_THREADS", "junk")  # ignored when the flag is explicit
    code = main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt), "--threads", "2"])
    assert code == 0


def test_threads_env_used_when_flag_absent(monkeypatch, trained, capsys):
    manifest, ckpt = trained
    monkeypatch.setenv("AFFSEQ_THREADS", "2")
    assert main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(ckpt)]) == 0
