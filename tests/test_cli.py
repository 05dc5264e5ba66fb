import numpy as np
import pytest

from affseq.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from affseq.cli import main
from affseq.dataset import load_feature_track

from conftest import make_corpus
from oracles import pcm16_wav_bytes


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


def test_extract_audio_rejects_zero_frames(tmp_path, capsys):
    wav = _wav(tmp_path / "a.wav")
    code = main(["extract-audio", "--wav", str(wav), "--frames", "0", "--out", str(tmp_path / "x")])
    assert code == 3
    assert "n_frames" in capsys.readouterr().err


def test_extract_audio_missing_wav(tmp_path, capsys):
    code = main(["extract-audio", "--wav", str(tmp_path / "no.wav"), "--frames", "4", "--out", str(tmp_path / "x")])
    assert code == 2


def test_extract_audio_garbage_wav(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a riff file at all")
    code = main(["extract-audio", "--wav", str(bad), "--frames", "4", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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


def test_train_variant_flag(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng)
    assert main(_train_args(manifest, tmp_path / "run", "--model.variant", "audio_only")) == 0


def test_train_without_val_split(tmp_path, rng, capsys):
    manifest = _manifest(tmp_path, rng, videos=[("a", "train", 20)])
    assert main(_train_args(manifest, tmp_path / "run")) == 3
    assert "val" in capsys.readouterr().err


def test_train_missing_manifest(tmp_path, capsys):
    assert main(_train_args(tmp_path / "nope.csv", tmp_path / "run")) == 2


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
    report = tmp_path / "report.csv"
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
    code = main(["evaluate", "--manifest", str(manifest), "--checkpoint", str(tmp_path / "no.ckpt")])
    assert code == 2


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
    ],
    ids=["no-model", "unknown-key", "json-list", "str-width-scale", "model-not-object", "bad-variant",
         "negative-seed"],
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
