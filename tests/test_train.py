import os
import re
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import affseq.dataset as dataset_module
import affseq.nn.layers
import affseq.nn.recurrent
import affseq.train as train_module
from affseq import write_feature_file
from affseq.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from affseq.cli import main
from affseq.dataset import MODALITY_DIMS, SEQUENCE_LEN, FileTrack, NormalizationStats, load_manifest, window_rows
from affseq.errors import ConfigError, CoverageError, DomainError, FileFormatError, NumericFaultError
from affseq.model import ModelConfig, build
from affseq.nn import Dropout
from affseq.train import (
    HISTORY_HEADER,
    TrainConfig,
    evaluate_checkpoint,
    predict,
    restore_model,
    train,
)

from conftest import FILE_CHANGES, make_corpus, smooth_labels, write_label_csv
from oracles import fit_reference


def _tensors(model):
    """The model's param/ and state/ tensors under their stored names."""
    return {name: holder[key] for name, holder, key in model.slots}


def _small_model(**kw):
    # narrow layers for speed; train takes the input widths from the corpus files
    return ModelConfig(width_scale=32, **kw)


def _corpus(tmp_path, rng, videos=None):
    videos = videos or [("tr0", "train", 30), ("tr1", "train", 25), ("va0", "val", 20)]
    manifest = make_corpus(tmp_path / "corpus", videos, rng)
    return load_manifest(manifest)


def _history_cols(line):
    cells = line.split(",")
    return int(cells[0]), [float(c) for c in cells[1:]]


# --- config -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(ccc_mode="pooled")


def test_package_train_name_is_the_submodule():
    assert isinstance(affseq.train, types.ModuleType)
    assert affseq.train is train_module
    assert affseq.train.train is train


# --- train ------------------------------------------------------------------

def test_epochs_zero_saves_initial_state(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(epochs=0, model=_small_model())
    ckpt, history = train(rows, config, tmp_path / "run")
    assert history == []
    assert ckpt.epoch == 0
    assert ckpt.best_val_score is None
    assert (tmp_path / "run" / "best.ckpt").exists()
    text = (tmp_path / "run" / "history.csv").read_text()
    assert text == HISTORY_HEADER + "\n"


def test_history_layout(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(epochs=3, batch_size=4, seed=5, model=_small_model())
    ckpt, history = train(rows, config, tmp_path / "run")
    assert len(history) == 3
    lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
    assert lines[0] == HISTORY_HEADER
    assert lines[1:] == history
    for want_epoch, line in enumerate(history, start=1):
        epoch, values = _history_cols(line)
        assert epoch == want_epoch
        assert len(values) == 5
        assert all(np.isfinite(values))
        assert values[0] >= 0.0  # train loss


def test_same_seed_is_deterministic(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(epochs=2, batch_size=4, seed=11, model=_small_model())
    train(rows, config, tmp_path / "a")
    train(rows, config, tmp_path / "b")
    assert (tmp_path / "a" / "history.csv").read_bytes() == (tmp_path / "b" / "history.csv").read_bytes()
    assert (tmp_path / "a" / "best.ckpt").read_bytes() == (tmp_path / "b" / "best.ckpt").read_bytes()


def test_unshuffled_epochs_feed_windows_in_index_order(tmp_path, rng, monkeypatch):
    rows = _corpus(tmp_path, rng)  # train videos of 30 and 25 frames, every label valid
    fed = []
    real_gather = train_module.gather_windows

    def spy(windows, modality, stats):
        if modality == "audio":
            fed.append(np.stack([windows.video, windows.rows[:, 0]], axis=1))
        return real_gather(windows, modality, stats)

    monkeypatch.setattr(train_module, "gather_windows", spy)
    train(rows, TrainConfig(epochs=2, batch_size=4, shuffle=False, model=_small_model()), tmp_path / "run")
    index_order = np.concatenate(
        [np.stack([np.full(len(w), v), w[:, 0]], axis=1) for v, w in enumerate(map(window_rows, (30, 25)))]
    )
    assert len(fed) == 2 * -(-len(index_order) // 4)  # ceil(windows / batch_size) batches per epoch
    np.testing.assert_array_equal(np.concatenate(fed), np.concatenate([index_order, index_order]))


def test_different_seeds_diverge(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    _, hist_a = train(rows, TrainConfig(epochs=1, seed=1, model=_small_model()), tmp_path / "a")
    _, hist_b = train(rows, TrainConfig(epochs=1, seed=2, model=_small_model()), tmp_path / "b")
    assert hist_a != hist_b


def test_best_checkpoint_tracks_highest_mean_ccc(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(epochs=4, batch_size=4, seed=3, model=_small_model())
    ckpt, history = train(rows, config, tmp_path / "run")
    means = []
    for line in history:
        _, values = _history_cols(line)
        means.append(0.5 * (values[1] + values[2]))
    best_epoch = int(np.argmax(means)) + 1  # ties keep the earliest epoch
    assert ckpt.epoch == best_epoch
    assert ckpt.best_val_score == pytest.approx(max(means), abs=1e-12)


def test_missing_split_raises(tmp_path, rng):
    only_train = _corpus(tmp_path / "t", rng, videos=[("a", "train", 20)])
    with pytest.raises(ConfigError, match="val"):
        train(only_train, TrainConfig(epochs=1, model=_small_model()), tmp_path / "r1")
    only_val = _corpus(tmp_path / "v", rng, videos=[("a", "val", 20)])
    with pytest.raises(ConfigError, match="train"):
        train(only_val, TrainConfig(epochs=1, model=_small_model()), tmp_path / "r2")


def test_train_requires_labels(tmp_path, rng):
    manifest = make_corpus(
        tmp_path / "c", [("a", "train", 20), ("b", "val", 20)], rng
    )
    lines = manifest.read_text().splitlines()
    cells = lines[1].split(",")  # drop the train row's label path
    cells[5] = ""
    lines[1] = ",".join(cells)
    manifest.write_text("\n".join(lines) + "\n")
    rows = load_manifest(manifest)
    with pytest.raises(CoverageError, match="labels"):
        train(rows, TrainConfig(epochs=1, model=_small_model()), tmp_path / "run")


def test_frame_count_mismatch_raises(tmp_path, rng):
    manifest = make_corpus(
        tmp_path / "c", [("a", "train", 20), ("b", "val", 20)], rng
    )
    lines = manifest.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",21"
    manifest.write_text("\n".join(lines) + "\n")
    rows = load_manifest(manifest)
    with pytest.raises(DomainError, match="manifest declares 21"):
        train(rows, TrainConfig(epochs=1, model=_small_model()), tmp_path / "run")


def test_all_invalid_labels_raise(tmp_path, rng):
    manifest = make_corpus(
        tmp_path / "c", [("a", "train", 20), ("b", "val", 20)], rng
    )
    label_path = tmp_path / "c" / "a.labels.csv"
    body = "frame,valence,arousal\n" + "".join(f"{i},-5,-5\n" for i in range(20))
    label_path.write_text(body)
    rows = load_manifest(manifest)
    with pytest.raises(ConfigError, match="valid label"):
        train(rows, TrainConfig(epochs=1, model=_small_model()), tmp_path / "run")


def test_numeric_fault_reports_epoch_and_batch(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(
        epochs=2, batch_size=2, seed=0, learning_rate=1e200, clip_norm=0.0, model=_small_model()
    )
    with np.errstate(over="ignore"), pytest.raises(NumericFaultError, match=r"epoch \d+ batch \d+"):
        train(rows, config, tmp_path / "run")


# --- differential check against the straight-line trainer ---------------------------

def _differential_corpus(tmp_path, rng, zero_val_labels, unlabelled_video=False):
    videos = [("tr0", "train", 30), ("tr1", "train", 25), ("tr2", "train", 9), ("va0", "val", 23), ("va1", "val", 12)]
    if unlabelled_video:
        videos.insert(1, ("trx", "train", 20))
    manifest = make_corpus(tmp_path / "corpus", videos, rng)
    # frames 15.. of tr0 are unannotated, so its window at 15 holds no valid frame and
    # is dropped: 5 train windows, of which tr0's at 10 and the padded tr2's are partly masked
    write_label_csv(tmp_path / "corpus" / "tr0.labels.csv", [*smooth_labels(15), *[(-5, -5)] * 15])
    if unlabelled_video:
        # no frame of trx is annotated: both its windows are dropped, but its rows count in
        # the statistics, and tr1 and tr2 follow it in the split's labels
        write_label_csv(tmp_path / "corpus" / "trx.labels.csv", [(-5, -5)] * 20)
    if zero_val_labels:
        for vid, _, n_frames in (v for v in videos if v[1] == "val"):
            write_label_csv(tmp_path / "corpus" / f"{vid}.labels.csv", [(0.0, 0.0)] * n_frames)
    return load_manifest(manifest)


@pytest.mark.parametrize(
    "cell, zero_val_labels, unlabelled_video",
    [("gru", False, False), ("bilstm", False, False), ("gru", True, False), ("gru", False, True)],
    ids=["gru", "bilstm", "gru-val-labels-all-zero", "gru-train-video-unlabelled"],
)
def test_train_matches_the_straight_line_reference_bit_for_bit(
    tmp_path, rng, monkeypatch, cell, zero_val_labels, unlabelled_video
):
    """``train`` writes the history lines and best tensors of ``oracles.fit_reference``.

    Shuffled, with dropout, a batch size that leaves a last batch of 2 and a
    clip norm that every step exceeds. With every val label 0.0 each epoch's
    mean CCC is exactly 0.0, so only epoch 1 is strictly better than the start.
    A train video with no annotated frame leaves no window in the index.
    """
    rows = _differential_corpus(tmp_path, rng, zero_val_labels, unlabelled_video)
    config = TrainConfig(
        epochs=2, batch_size=3, learning_rate=1e-3, seed=9, shuffle=True, clip_norm=1e-3,
        model=ModelConfig(cell=cell, dropout=0.25, width_scale=16),
    )
    norms = []
    real_clip = train_module.clip_global_norm

    def clip(grads, max_norm):
        norms.append(real_clip(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(train_module, "clip_global_norm", clip)
    ckpt, history = train(rows, config, tmp_path / "run")

    want_history, best_epoch, best_score, want_tensors = fit_reference(rows, config)
    assert (tmp_path / "run" / "history.csv").read_text().splitlines() == [HISTORY_HEADER, *want_history]
    assert history == want_history
    assert (ckpt.epoch, ckpt.best_val_score) == (best_epoch, best_score)
    if zero_val_labels:
        assert [_history_cols(line)[1][1:3] for line in history] == [[0.0, 0.0]] * 2
        assert best_epoch == 1
    assert set(ckpt.tensors) == set(want_tensors)
    for name, want in want_tensors.items():
        assert ckpt.tensors[name].astype(np.float32).tobytes() == want.tobytes(), name
    assert len(norms) == 2 * 2 and min(norms) > config.clip_norm  # 2 batches an epoch, each clipped


# --- training from the feature files ---------------------------------------------

def _started_run(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(epochs=1, batch_size=4, seed=3, model=_small_model())
    train_rows = [r for r in rows if r.split == "train"]
    val_rows = [r for r in rows if r.split == "val"]
    return train_module._start_run(train_rows, val_rows, config), train_rows


def test_a_started_run_keeps_only_the_train_files(tmp_path, rng):
    run, train_rows = _started_run(tmp_path, rng)
    assert [{m: t.path for m, t in v.items()} for v in run.windows.tracks] == [r.features for r in train_rows]
    assert all(isinstance(t, FileTrack) for v in run.windows.tracks for t in v.values())


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
def test_a_train_file_changed_during_the_run_fails_the_next_epoch(tmp_path, rng, change):
    run, train_rows = _started_run(tmp_path, rng)
    path = train_rows[1].features["expnet"]
    FILE_CHANGES[change](path)
    with pytest.raises(FileFormatError, match=f"^{path}: feature file changed after it was checked"):
        train_module._epoch(run)


def test_each_file_is_checked_once_a_run_and_validation_reuses_the_val_files(tmp_path, rng, monkeypatch):
    rows = _corpus(tmp_path, rng)
    checked = []
    real_load = train_module._load_video

    def load(row, *args):
        checked.append(row.video_id)
        return real_load(row, *args)

    monkeypatch.setattr(train_module, "_load_video", load)
    train(rows, TrainConfig(epochs=3, batch_size=4, model=_small_model()), tmp_path / "run")
    assert checked == [r.video_id for r in rows]


def test_each_batch_window_opens_its_file_for_its_read_and_closes_it(tmp_path, rng, monkeypatch):
    run, _ = _started_run(tmp_path, rng)
    opened = []
    real_open, real_gather = open, train_module.gather_windows

    def counting_open(path, *args, **kwargs):
        opened.append(real_open(path, *args, **kwargs))
        return opened[-1]

    def gather(windows, modality, stats):
        before = len(opened)
        batch = real_gather(windows, modality, stats)
        files = [Path(fh.name) for fh in opened[before:]]
        assert files == [windows.tracks[v][modality].path for v in windows.video]  # one open a window, in order
        assert all(fh.closed for fh in opened)
        return batch

    monkeypatch.setattr(dataset_module, "open", counting_open, raising=False)
    monkeypatch.setattr(train_module, "gather_windows", gather)
    train_module._epoch(run)
    assert len(opened) >= 2 * 3  # two train videos, three modalities


def test_open_files_and_threads_stay_flat_over_epochs(tmp_path, rng, monkeypatch):
    rows = _corpus(tmp_path, rng)
    fd_dir = "/proc/self/fd"

    def snapshot():
        return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None, threading.active_count()

    seen = [snapshot()]
    real_validate = train_module._validate_and_keep

    def validate(*args):
        real_validate(*args)
        seen.append(snapshot())

    monkeypatch.setattr(train_module, "_validate_and_keep", validate)
    train(rows, TrainConfig(epochs=3, batch_size=4, model=_small_model()), tmp_path / "run")
    assert len(seen) == 4 and len(set(seen)) == 1, seen


def test_train_peak_memory_does_not_grow_with_the_train_split(tmp_path, rng):
    """Twice the train videos, at one batch size, peaks no higher by even one video's tracks."""
    n_frames = 120
    videos = [(f"tr{i}", "train", n_frames) for i in range(8)] + [("va0", "val", 30)]
    rows = _corpus(tmp_path, rng, videos=videos)
    one_video = n_frames * sum(MODALITY_DIMS.values()) * 4  # float32 bytes of one video's tracks
    config = TrainConfig(epochs=1, seed=1, model=ModelConfig(width_scale=16))

    def peak(subset, out):
        tracemalloc.start()
        try:
            train([*subset, rows[-1]], config, tmp_path / out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(rows[:2], "warm")
    four, eight = peak(rows[:4], "four"), peak(rows[:8], "eight")
    assert eight - four < one_video, (four, eight)


# --- restore / evaluate / predict ------------------------------------------------

def test_restore_round_trip_predicts_identically(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(epochs=1, seed=2, model=_small_model())
    ckpt, _ = train(rows, config, tmp_path / "run")
    report_a = evaluate_checkpoint(rows, ckpt)
    reloaded = load_checkpoint(tmp_path / "run" / "best.ckpt")
    report_b = evaluate_checkpoint(rows, reloaded)
    assert report_a == report_b
    model, stats = restore_model(ckpt)
    assert model.config == config.model
    assert set(stats.mean) == set(config.model.modalities())


def test_best_checkpoint_holds_only_what_restore_reads(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    ckpt, _ = train(rows, TrainConfig(epochs=1, seed=2, model=_small_model()), tmp_path / "run")
    model, _ = restore_model(ckpt)
    want = {name for name, _, _ in model.slots}
    want |= {f"norm/{m}/{k}" for m in model.config.modalities() for k in ("mean", "std")}
    assert set(load_checkpoint(tmp_path / "run" / "best.ckpt").tensors) == want


def _forbid_seeded_init(monkeypatch):
    def forbid(real):
        def initializer(rng, *shape):
            if rng is not None:
                raise AssertionError("seeded initializer called during restore")
            return real(rng, *shape)

        return initializer

    for module, name in (
        (affseq.nn.layers, "glorot_uniform"),
        (affseq.nn.recurrent, "glorot_uniform"),
        (affseq.nn.recurrent, "orthogonal"),
    ):
        monkeypatch.setattr(module, name, forbid(getattr(module, name)))


@pytest.mark.parametrize("cell", ["gru", "bilstm"])
def test_restore_skips_seeded_init_and_installs_stored_tensors(tmp_path, rng, monkeypatch, cell):
    rows = _corpus(tmp_path, rng)
    config = TrainConfig(epochs=1, seed=2, model=_small_model(cell=cell))
    ckpt, _ = train(rows, config, tmp_path / "run")
    _forbid_seeded_init(monkeypatch)
    model, stats = restore_model(ckpt)
    # no initializer drew from the generator dropout uses
    fresh = np.random.default_rng(ckpt.config["seed"])
    assert model.rng.bit_generator.state == fresh.bit_generator.state
    for name, holder, key in model.slots:
        np.testing.assert_array_equal(holder[key], ckpt.tensors[name])
    for modality in config.model.modalities():
        np.testing.assert_array_equal(stats.mean[modality], ckpt.tensors[f"norm/{modality}/mean"])
        np.testing.assert_array_equal(stats.std[modality], ckpt.tensors[f"norm/{modality}/std"])


@pytest.mark.parametrize("cell", ["gru", "bilstm"])
def test_scoring_a_restored_model_builds_no_random_generator(tmp_path, rng, monkeypatch, cell):
    rows = _corpus(tmp_path, rng)
    ckpt, _ = train(rows, TrainConfig(epochs=1, seed=2, model=_small_model(cell=cell)), tmp_path / "run")
    expected = predict(rows, ckpt, tmp_path / "seeded")

    def forbidden(*args, **kwargs):
        raise AssertionError("a scoring path built a random generator")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    model, stats = restore_model(ckpt)
    video = train_module._load_video(rows[-1], dict.fromkeys(model.config.modalities()), need_labels=True)
    assert train_module.predict_video(model, video, stats=stats).shape == (video.row.n_frames, 2)
    assert evaluate_checkpoint(rows, ckpt).n_frames_evaluated == 20
    for vid, path in predict(rows, ckpt, tmp_path / "unseeded").items():
        assert path.read_bytes() == expected[vid].read_bytes()


def test_restored_model_draws_the_dropout_masks_of_the_checkpoint_seed(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    ckpt, _ = train(rows, TrainConfig(epochs=1, seed=5, model=_small_model()), tmp_path / "run")
    model, _ = restore_model(ckpt)
    modalities = model.config.modalities()
    model.forward({m: rng.normal(size=(3, SEQUENCE_LEN, model.config.input_dim(m))) for m in modalities}, train=True)
    reference = np.random.default_rng(ckpt.seed)
    dropouts = [layer for m in modalities for layer in model.branches[m] if isinstance(layer, Dropout)]
    assert [layer.name for layer in dropouts] == ["audio.drop1", "audio.drop2", "facepose.drop1", "facepose.drop2"]
    for layer in dropouts:  # in the order the forward pass drew them
        keep = layer._saved
        np.testing.assert_array_equal(keep, reference.random(keep.shape) >= layer.rate)
    assert model.rng.bit_generator.state == reference.bit_generator.state


def test_checkpoint_with_optimizer_caches_restores_identically(tmp_path, rng):
    """Files written with ``optim/`` caches per parameter still load, and the caches are ignored."""
    rows = _corpus(tmp_path, rng)
    ckpt, _ = train(rows, TrainConfig(epochs=1, seed=4, model=_small_model()), tmp_path / "run")
    tensors = dict(ckpt.tensors)
    params = {name[len("param/") :]: v for name, v in ckpt.tensors.items() if name.startswith("param/")}
    for name, value in params.items():
        tensors[f"optim/{name}"] = rng.random(value.shape)
    save_checkpoint(tmp_path / "legacy.ckpt", Checkpoint(config=ckpt.config, tensors=tensors))
    legacy = load_checkpoint(tmp_path / "legacy.ckpt")

    model_a, stats_a = restore_model(ckpt)
    model_b, stats_b = restore_model(legacy)
    for got, want in (
        (_tensors(model_b), _tensors(model_a)),
        (stats_b.mean, stats_a.mean),
        (stats_b.std, stats_a.std),
    ):
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
    written_a = predict(rows, ckpt, tmp_path / "pred_a")
    written_b = predict(rows, legacy, tmp_path / "pred_b")
    for vid, path in written_a.items():
        assert written_b[vid].read_bytes() == path.read_bytes()


def test_evaluate_counts_valid_val_frames(tmp_path, rng):
    rows = _corpus(tmp_path, rng)  # val split: one 20-frame video, labels all valid
    ckpt, _ = train(rows, TrainConfig(epochs=0, model=_small_model()), tmp_path / "run")
    report = evaluate_checkpoint(rows, ckpt)
    assert report.n_frames_evaluated == 20


def test_evaluate_requires_val_rows(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    ckpt, _ = train(rows, TrainConfig(epochs=0, model=_small_model()), tmp_path / "run")
    with pytest.raises(ConfigError, match="val"):
        evaluate_checkpoint([r for r in rows if r.split == "train"], ckpt)


def test_predict_writes_one_csv_per_video(tmp_path, rng):
    videos = [("tr0", "train", 30), ("va0", "val", 25), ("va1", "val", 15), ("va2", "val", 7)]
    rows = _corpus(tmp_path, rng, videos=videos)
    ckpt, _ = train(rows, TrainConfig(epochs=1, seed=4, model=_small_model()), tmp_path / "run")
    written = predict(rows, ckpt, tmp_path / "preds")
    assert set(written) == {"tr0", "va0", "va1", "va2"}
    for vid, _, n_frames in videos:
        lines = written[vid].read_text().splitlines()
        assert lines[0] == "frame,valence,arousal"
        assert len(lines) == n_frames + 1
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == i
            for cell in cells[1:]:
                assert -1.0 <= float(cell) <= 1.0


def test_predict_is_deterministic(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    ckpt, _ = train(rows, TrainConfig(epochs=1, seed=4, model=_small_model()), tmp_path / "run")
    a = predict(rows, ckpt, tmp_path / "pa")
    b = predict(rows, ckpt, tmp_path / "pb")
    for vid in a:
        assert a[vid].read_bytes() == b[vid].read_bytes()


def test_restore_installs_checkpoint_tensors_without_copies(tmp_path, rng):
    rows = _corpus(tmp_path, rng)
    ckpt, _ = train(rows, TrainConfig(epochs=1, seed=4, model=_small_model()), tmp_path / "run")
    model, _ = restore_model(ckpt)
    for name, holder, key in model.slots:
        assert holder[key] is ckpt.tensors[name]
    assert not model.grad_arena.any()
    # float32 tensors (exact: the file stores float32) are converted and predict the same bytes
    narrow = Checkpoint(config=ckpt.config, tensors={k: v.astype(np.float32) for k, v in ckpt.tensors.items()})
    model_b, _ = restore_model(narrow)
    for name, holder, key in model_b.slots:
        assert holder[key].dtype == np.float64
        np.testing.assert_array_equal(holder[key], ckpt.tensors[name])
    written_a = predict(rows, ckpt, tmp_path / "pred_a")
    written_b = predict(rows, narrow, tmp_path / "pred_b")
    for vid, path in written_a.items():
        assert written_b[vid].read_bytes() == path.read_bytes()


def _scoring_corpus(tmp_path, rng, n_val):
    videos = [("tr0", "train", 20)] + [(f"va{i}", "val", 40) for i in range(n_val)]
    rows = _corpus(tmp_path, rng, videos=videos)
    ckpt, _ = train(rows, TrainConfig(epochs=0, model=_small_model()), tmp_path / "run")
    return rows, ckpt


def test_predict_peak_memory_does_not_grow_with_the_manifest(tmp_path, rng):
    rows, ckpt = _scoring_corpus(tmp_path, rng, n_val=8)
    one_video = 40 * (168 + 2048 + 714) * 4  # float32 bytes of one video's tracks

    def peak(subset, out):
        tracemalloc.start()
        try:
            predict(subset, ckpt, tmp_path / out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(rows[:2], "warm")
    short, long = peak(rows[:5], "short"), peak(rows, "long")
    assert long - short < one_video // 4, (short, long)


def _append_long_video(manifest, video_id, n_frames, rng):
    """Add a val video of ``n_frames`` random frames to ``manifest``, its files written 500 rows at a time."""
    root = manifest.parent
    cells = []
    for modality, width in MODALITY_DIMS.items():
        path = root / f"{video_id}.{modality}.feat"
        with open(path, "wb") as fh:
            fh.write(b"AFFW" + np.array([1, n_frames, width], dtype="<u4").tobytes())
            for lo in range(0, n_frames, 500):
                fh.write(rng.standard_normal((min(500, n_frames - lo), width), dtype=np.float32).tobytes())
        cells.append(path.name)
    write_label_csv(root / f"{video_id}.labels.csv", smooth_labels(n_frames))
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(f"{video_id},val,{','.join(cells)},{video_id}.labels.csv,{n_frames}\n")


def test_no_command_peak_grows_with_the_length_of_a_val_video(tmp_path, rng, capsys):
    """A 9000-frame val video beside a 300-frame one: train, evaluate and predict read it a batch at a time.

    Held whole, as float32, its three tracks would be 100.6 MiB.
    """
    short = make_corpus(tmp_path / "corpus", [("tr0", "train", 60), ("va0", "val", 300)], rng)
    long = short.with_name("long.csv")
    long.write_bytes(short.read_bytes())
    _append_long_video(long, "va1", 9000, rng)
    ckpt = tmp_path / "short" / "best.ckpt"

    def argv(command, manifest, out):
        if command == "train":
            return ["train", "--manifest", str(manifest), "--out", str(tmp_path / out), "--epochs", "1",
                    "--seed", "1", "--model.width-scale", "16"]
        args = [command, "--manifest", str(manifest), "--checkpoint", str(ckpt)]
        return args + (["--out", str(tmp_path / out)] if command == "predict" else [])

    def peak(command, manifest, out):
        tracemalloc.start()
        try:
            assert main(argv(command, manifest, out)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak("train", short, "short")  # also warms every import and cache up
    for command in ("train", "evaluate", "predict"):
        without, with_long = peak(command, short, f"{command}-a"), peak(command, long, f"{command}-b")
        assert with_long - without < 2 * 2**20, (command, without, with_long)


def test_scoring_checks_videos_in_row_order_on_one_thread(tmp_path, rng, monkeypatch):
    """Scoring checks its videos in row order on the calling thread.

    ``predict`` checks every row before it scores the first; ``evaluate``
    checks each video only when it scores it.
    """
    rows, ckpt = _scoring_corpus(tmp_path, rng, n_val=7)
    started, done, ahead = [], [], []
    real_load, real_predict = train_module._load_video, train_module.predict_video

    def load(row, *args):
        started.append(row.video_id)
        return real_load(row, *args)

    def predict_video(model, video, *args, **kwargs):
        ahead.append(len(started) - len(done) - 1)
        frames = real_predict(model, video, *args, **kwargs)
        done.append(video.row.video_id)
        return frames

    monkeypatch.setattr(train_module, "_load_video", load)
    monkeypatch.setattr(train_module, "predict_video", predict_video)
    written = predict(rows, ckpt, tmp_path / "watched")
    assert started == done == [r.video_id for r in rows]
    assert ahead[0] == len(rows) - 1
    for seen in (started, done, ahead):
        seen.clear()
    evaluate_checkpoint(rows, ckpt)
    assert started == done == [r.video_id for r in rows if r.split == "val"]
    assert ahead == [0] * len(done)
    monkeypatch.undo()
    serial = predict(rows, ckpt, tmp_path / "serial")
    for vid, path in serial.items():
        assert written[vid].read_bytes() == path.read_bytes()


def test_training_and_scoring_start_no_thread(tmp_path, rng, monkeypatch):
    """Neither ``train`` nor ``evaluate_checkpoint`` nor ``predict`` starts a thread."""
    rows, ckpt = _scoring_corpus(tmp_path, rng, n_val=2)
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    train(rows, TrainConfig(epochs=1, batch_size=4, model=_small_model()), tmp_path / "two")
    evaluate_checkpoint(rows, ckpt)
    predict(rows, ckpt, tmp_path / "preds")
    assert started == []


def test_predict_video_keeps_batch_size_third_and_takes_stats_by_keyword(tmp_path, rng):
    rows, ckpt = _scoring_corpus(tmp_path, rng, n_val=1)
    model, stats = restore_model(ckpt)
    video = train_module._load_video(rows[1], dict.fromkeys(model.config.modalities()), need_labels=False)
    frames = train_module.predict_video(model, video, 7, stats=stats)
    assert frames.shape == (rows[1].n_frames, 2)
    with pytest.raises(TypeError, match="stats"):
        train_module.predict_video(model, video, 32)


# --- checkpoint layout -------------------------------------------------------------

TINY_DIMS = dict(audio_dim=6, expnet_dim=8, facepose_dim=5)
# Written before the layout moved into one function: its model config still
# carries sequence_len, and every parameter has an optim/ cache beside it.
LEGACY_CKPT = Path(__file__).parent / "data" / "legacy_fusion_gru.ckpt"


def _model_checkpoint(config, seed=1):
    """A seeded model after one train-mode forward (so batch-norm state has moved),
    random normalization stats, and the checkpoint a save makes of them."""
    rng = np.random.default_rng(seed)
    model = build(config, seed=seed)
    model.forward(
        {m: rng.normal(size=(4, SEQUENCE_LEN, config.input_dim(m))) for m in config.modalities()},
        train=True,
    )
    stats = NormalizationStats()
    for m in config.modalities():
        stats.mean[m] = rng.normal(size=config.input_dim(m))
        stats.std[m] = rng.random(config.input_dim(m)) + 0.5
    ckpt = train_module._make_checkpoint(model, stats, epoch=0, best_val_score=None, seed=seed)
    return model, stats, ckpt


def _installed(model, stats):
    """Every tensor a restored model holds, under the name a checkpoint stores it by."""
    tensors = _tensors(model)
    for m in model.config.modalities():
        tensors[f"norm/{m}/mean"] = stats.mean[m]
        tensors[f"norm/{m}/std"] = stats.std[m]
    return tensors


@pytest.mark.parametrize("cell", ["gru", "bilstm"])
@pytest.mark.parametrize("variant", ["fusion", "audio_only", "video_only"])
def test_save_load_restore_installs_every_stored_tensor(tmp_path, variant, cell):
    config = ModelConfig(variant=variant, cell=cell, width_scale=32, **TINY_DIMS)
    model, stats, ckpt = _model_checkpoint(config)
    save_checkpoint(tmp_path / "a.ckpt", ckpt)
    loaded = load_checkpoint(tmp_path / "a.ckpt")
    assert set(loaded.tensors) == set(_installed(model, stats))
    assert any(name.startswith("state/") for name in loaded.tensors) == (variant == "fusion")
    restored, restored_stats = restore_model(loaded)
    installed = _installed(restored, restored_stats)
    assert set(installed) == set(loaded.tensors)
    for name, value in installed.items():
        assert np.array_equal(value, loaded.tensors[name]), name
    resaved = train_module._make_checkpoint(restored, restored_stats, epoch=0, best_val_score=None, seed=1)
    save_checkpoint(tmp_path / "b.ckpt", resaved)
    assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()


def test_restore_rejects_name_mismatch():
    _, _, ckpt = _model_checkpoint(ModelConfig(width_scale=32, **TINY_DIMS))
    renamed = {
        (f"param/x{name[len('param/') :]}" if name.startswith("param/") else name): value
        for name, value in ckpt.tensors.items()
    }
    with pytest.raises(FileFormatError, match=r"missing \['param/audio\..*unexpected \['param/xaudio\."):
        restore_model(Checkpoint(config=ckpt.config, tensors=renamed))


def test_restore_rejects_shape_mismatch():
    _, _, ckpt = _model_checkpoint(ModelConfig(width_scale=32, **TINY_DIMS))
    first = min(name for name in ckpt.tensors if name.startswith("param/"))
    tensors = {**ckpt.tensors, first: np.zeros((1, 1))}
    with pytest.raises(FileFormatError, match=rf"checkpoint tensor {re.escape(first)} has shape \(1, 1\)"):
        restore_model(Checkpoint(config=ckpt.config, tensors=tensors))


def test_restore_round_trip_changes_nothing(rng):
    config = ModelConfig(width_scale=32, **TINY_DIMS)
    model, _, ckpt = _model_checkpoint(config)
    inputs = {m: rng.normal(size=(2, SEQUENCE_LEN, config.input_dim(m))) for m in config.modalities()}
    before = model.forward(inputs, train=False)
    copied = Checkpoint(config=ckpt.config, tensors={k: v.copy() for k, v in ckpt.tensors.items()})
    restored, _ = restore_model(copied)
    np.testing.assert_array_equal(restored.forward(inputs, train=False), before)


def test_legacy_checkpoint_restores_unchanged_and_predicts(tmp_path, rng, capsys):
    ckpt = load_checkpoint(LEGACY_CKPT)
    assert ckpt.config["model"]["sequence_len"] == 15
    assert any(name.startswith("optim/") for name in ckpt.tensors)
    model, stats = restore_model(ckpt)
    assert model.config == ModelConfig(width_scale=64)
    installed = _installed(model, stats)
    assert set(installed) == {name for name in ckpt.tensors if not name.startswith("optim/")}
    for name, value in installed.items():
        assert value is ckpt.tensors[name], name
    manifest = make_corpus(tmp_path / "corpus", [("a", "val", 20), ("b", "val", 7)], rng)
    out = tmp_path / "preds"
    assert main(["predict", "--manifest", str(manifest), "--checkpoint", str(LEGACY_CKPT), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.csv"]


@pytest.mark.parametrize("dims", [TINY_DIMS, dict(audio_dim=170, expnet_dim=2048, facepose_dim=714)])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_scoring_files_of_another_width_than_the_model_fails_on_the_file_width(
    tmp_path, rng, capsys, monkeypatch, dims, command
):
    # the checkpoint is consistent in itself; only the standard-width files disagree with it
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, _model_checkpoint(ModelConfig(width_scale=32, **dims))[2])
    manifest = make_corpus(tmp_path / "corpus", [("a", "val", 40)], rng)
    monkeypatch.setattr(train_module, "predict_video", _never)  # the check comes before any model work
    extra = ["--out", str(tmp_path / "preds")] if command == "predict" else []
    assert main([command, "--manifest", str(manifest), "--checkpoint", str(ckpt), *extra]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {manifest.parent / 'a.audio.feat'}: audio width 168 does not match "
        f"width {dims['audio_dim']} of the checkpoint {ckpt}\n"
    )
    assert not (tmp_path / "preds").exists()


def _never(*args, **kwargs):
    raise AssertionError("reached")


_TRAIN_SPLIT = [("tr0", "train", 30), ("tr1", "train", 25), ("va0", "val", 20)]


def test_train_takes_each_width_from_the_first_train_file_and_scoring_from_the_checkpoint(tmp_path, rng, capsys):
    manifest = make_corpus(tmp_path / "corpus", _TRAIN_SPLIT, rng, dims=dict(MODALITY_DIMS, audio=53))
    run = tmp_path / "run"
    train_args = ["--epochs", "1", "--model.width-scale", "32"]
    assert main(["train", "--manifest", str(manifest), "--out", str(run), *train_args]) == 0
    ckpt = load_checkpoint(run / "best.ckpt")
    assert (ckpt.config["model"]["audio_dim"], ckpt.config["model"]["expnet_dim"]) == (53, 2048)
    assert ckpt.tensors["norm/audio/mean"].shape == (53,)
    scoring = ["--manifest", str(manifest), "--checkpoint", str(run / "best.ckpt")]
    assert main(["evaluate", *scoring]) == 0
    assert main(["predict", *scoring, "--out", str(tmp_path / "preds")]) == 0
    assert sorted(p.name for p in (tmp_path / "preds").iterdir()) == ["tr0.csv", "tr1.csv", "va0.csv"]
    # a library caller's widths give way to the files' too
    config = TrainConfig(epochs=0, model=_small_model(audio_dim=6))
    ckpt, _ = train(load_manifest(manifest), config, tmp_path / "lib")
    assert ckpt.config["model"]["audio_dim"] == 53


@pytest.mark.parametrize("odd", ["tr1", "va0"])
def test_train_refuses_a_file_of_another_width_than_the_first_train_file(tmp_path, rng, capsys, monkeypatch, odd):
    manifest = make_corpus(tmp_path / "corpus", _TRAIN_SPLIT, rng)
    n_frames = {vid: n for vid, _, n in _TRAIN_SPLIT}[odd]
    write_feature_file(manifest.parent / f"{odd}.audio.feat", rng.normal(size=(n_frames, 53)))
    monkeypatch.setattr(train_module, "compute_stats", _never)  # the check comes before any statistics
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--out", str(run), "--model.width-scale", "32"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {manifest.parent / f'{odd}.audio.feat'}: audio width 53 does not match "
        f"width 168 of {manifest.parent / 'tr0.audio.feat'}\n"
    )
    assert not run.exists()
