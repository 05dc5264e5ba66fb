import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affseq import (
    LabelTrack,
    build_windows,
    compute_stats,
    load_feature_track,
    load_labels,
    load_manifest,
    merge_window_predictions,
    normalize,
    window_starts,
    write_feature_file,
)
from affseq.errors import (
    CoverageError,
    DomainError,
    FileFormatError,
    ParseError,
    TruncatedFileError,
    VersionMismatchError,
    WidthMismatchError,
)

from affseq.dataset import (
    MODALITY_DIMS,
    FileTrack,
    concat_windows,
    file_track,
    frame_block,
    gather_windows,
    window_rows,
)
from conftest import FILE_CHANGES
from oracles import merge_windows_loop, read_affw, slice_and_pad_windows, window_starts_oracle


# --- feature file format -------------------------------------------------------

def test_feature_round_trip(tmp_path, rng):
    data = rng.normal(size=(3, 168)).astype(np.float32)
    path = tmp_path / "a.feat"
    write_feature_file(path, data)
    track = load_feature_track(path, "audio", video_id="v0")
    assert track.data.shape == (3, 168)
    assert track.video_id == "v0"
    np.testing.assert_array_equal(track.data, data.astype(np.float64))


def test_feature_header_layout(tmp_path):
    path = tmp_path / "h.feat"
    write_feature_file(path, np.zeros((2, 5)))
    blob = path.read_bytes()
    assert blob[:4] == b"AFFW"
    assert struct.unpack_from("<III", blob, 4) == (1, 2, 5)
    assert len(blob) == 16 + 4 * 2 * 5


def test_feature_width_is_the_one_in_the_header(tmp_path):
    path = tmp_path / "w.feat"
    write_feature_file(path, np.ones((3, 53)))
    assert load_feature_track(path, "audio").data.shape == (3, 53)
    track = file_track(path, "audio", "v")
    assert (track.n_frames, track.width) == (3, 53)
    assert file_track(path, "audio", "v", expect=(53, "x.feat")).width == 53


def test_file_track_refuses_another_width_than_expected_before_reading_the_payload(tmp_path):
    path = tmp_path / "w.feat"
    data = np.zeros((3, 167), dtype="<f4")
    data[1, 2] = np.nan  # a check that read the payload would fail on this instead
    write_feature_file(path, data)
    with pytest.raises(WidthMismatchError) as err:
        file_track(path, "audio", "v", expect=(168, "tr0.audio.feat"))
    assert str(err.value) == f"{path}: audio width 167 does not match width 168 of tr0.audio.feat"


def test_feature_truncated_names_expected_bytes(tmp_path):
    path = tmp_path / "t.feat"
    write_feature_file(path, np.zeros((3, 168)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(TruncatedFileError, match=rf"expected {4 * 3 * 168} payload bytes, found {4 * 3 * 168 - 10}"):
        load_feature_track(path, "audio")


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "m.feat"
    write_feature_file(path, np.zeros((1, 168)))
    blob = path.read_bytes()
    path.write_bytes(b"WAFF" + blob[4:])
    with pytest.raises(FileFormatError) as err:
        load_feature_track(path, "audio")
    assert not isinstance(err.value, (TruncatedFileError, VersionMismatchError))


def test_feature_version_mismatch(tmp_path):
    path = tmp_path / "v.feat"
    write_feature_file(path, np.zeros((1, 168)))
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_feature_track(path, "audio")


def test_feature_trailing_bytes(tmp_path):
    path = tmp_path / "x.feat"
    write_feature_file(path, np.zeros((1, 168)))
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FileFormatError):
        load_feature_track(path, "audio")


# --- labels ----------------------------------------------------------------------

def _labels(tmp_path, rows, header="frame,valence,arousal"):
    path = tmp_path / "l.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_labels_sentinel_masking(tmp_path):
    track = load_labels(_labels(tmp_path, ["0,0.5,-0.25", "1,-5,-5"]))
    assert track.valid.tolist() == [True, False]
    assert track.valence[0] == 0.5
    assert track.arousal[0] == -0.25


def test_labels_boundary_inclusive(tmp_path):
    track = load_labels(_labels(tmp_path, ["0,1.0,-1.0"]))
    assert track.valid.tolist() == [True]
    assert track.valence[0] == 1.0


def test_labels_out_of_range_invalid(tmp_path):
    track = load_labels(_labels(tmp_path, ["0,1.2,0.0", "1,0.0,-1.01"]))
    assert track.valid.tolist() == [False, False]


def test_labels_one_bad_dimension_masks_frame(tmp_path):
    track = load_labels(_labels(tmp_path, ["0,-5,0.3"]))
    assert track.valid.tolist() == [False]


def test_labels_gap_rejected(tmp_path):
    with pytest.raises(FileFormatError):
        load_labels(_labels(tmp_path, ["0,0,0", "2,0,0"]))


def test_labels_disorder_rejected(tmp_path):
    with pytest.raises(FileFormatError):
        load_labels(_labels(tmp_path, ["1,0,0", "0,0,0"]))


def test_labels_non_numeric_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_labels(_labels(tmp_path, ["0,abc,0"]))


def test_labels_header_checked(tmp_path):
    with pytest.raises(FileFormatError):
        load_labels(_labels(tmp_path, ["0,0,0"], header="frame,v,a"))


def test_label_targets_layout(tmp_path):
    track = load_labels(_labels(tmp_path, ["0,0.1,0.2", "1,0.3,0.4"]))
    np.testing.assert_array_equal(track.targets(), [[0.1, 0.2], [0.3, 0.4]])


# --- windowing --------------------------------------------------------------------

def test_window_starts_examples():
    assert window_starts(15) == [0]
    assert window_starts(25) == [0, 10]
    assert window_starts(30) == [0, 10, 15]
    assert window_starts(14) == [0]
    assert window_starts(1) == [0]
    assert window_starts(16) == [0, 1]


def test_window_starts_rejects_zero():
    with pytest.raises(DomainError):
        window_starts(0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 500))
def test_window_starts_match_covering_oracle(n):
    starts = window_starts(n)
    assert starts == window_starts_oracle(n)
    if n >= 15:
        covered = np.zeros(n, dtype=bool)
        for s in starts:
            assert s + 15 <= n  # no window past the end
            covered[s : s + 15] = True
        assert covered.all()


def _stored(data):
    """``data`` as an AFFW file stores it: rounded to float32, widened back to float64."""
    return np.asarray(data, dtype=np.float32).astype(np.float64)


def _track(tmp_path, vid, modality, data):
    """``data`` written to an AFFW file and checked: the kind of track the engine windows and reads."""
    path = tmp_path / f"{vid}.{modality}.feat"
    write_feature_file(path, data)
    return file_track(path, modality, vid)


def _rows(track):
    """Every row of a checked file, as stored."""
    return read_affw(track.path)


def test_build_windows_slices_match_source(tmp_path, rng):
    data = _stored(rng.normal(size=(30, 168)))
    index = build_windows({"audio": _track(tmp_path, "v", "audio", data)})
    assert index.rows[:, 0].tolist() == [0, 10, 15]
    for start, window in zip(index.rows[:, 0], data[index.rows]):
        np.testing.assert_array_equal(window, data[start : start + 15])
    assert index.mask.all()


def test_build_windows_short_track_pads_and_masks(tmp_path, rng):
    data = _stored(rng.normal(size=(10, 168)))
    index = build_windows({"audio": _track(tmp_path, "v", "audio", data)})
    (window,) = data[index.rows]
    assert window.shape == (15, 168)
    np.testing.assert_array_equal(window[:10], data)
    for t in range(10, 15):
        np.testing.assert_array_equal(window[t], data[9])
    assert index.mask.tolist() == [[True] * 10 + [False] * 5]
    np.testing.assert_array_equal(index.targets[0, 10:], 0.0)


def test_build_windows_mask_propagates_invalid_labels(tmp_path, rng):
    n = 30
    features = {"audio": _track(tmp_path, "v", "audio", rng.normal(size=(n, 168)))}
    valence = np.zeros(n)
    valence[12] = -5.0  # invalid frame sits inside windows starting at 0 and 10
    labels = LabelTrack(
        video_id="v",
        valence=valence,
        arousal=np.zeros(n),
        valid=(np.abs(valence) <= 1),
    )
    index = build_windows(features, labels)
    for start, mask in zip(index.rows[:, 0], index.mask):
        for t in range(15):
            frame = start + t
            if frame == 12:
                assert not mask[t]
            else:
                assert mask[t]


def test_build_windows_targets_from_labels(tmp_path, rng):
    n = 20
    features = {"audio": _track(tmp_path, "v", "audio", rng.normal(size=(n, 168)))}
    labels = LabelTrack(
        video_id="v",
        valence=np.linspace(-1, 1, n),
        arousal=np.linspace(1, -1, n),
        valid=np.ones(n, dtype=bool),
    )
    index = build_windows(features, labels)
    assert index.rows[:, 0].tolist() == [0, 5]
    np.testing.assert_array_equal(index.targets[1, :, 0], labels.valence[5:20])


def test_build_windows_rejects_length_mismatch(tmp_path, rng):
    features = {
        "audio": _track(tmp_path, "v", "audio", rng.normal(size=(20, 168))),
        "expnet": _track(tmp_path, "v", "expnet", rng.normal(size=(19, 2048))),
    }
    with pytest.raises(DomainError):
        build_windows(features)


# --- normalization ------------------------------------------------------------------

def test_compute_stats_population_moments(tmp_path, rng):
    data = _stored(rng.normal(size=(50, 168)) * 3 + 1)
    stats = compute_stats([_track(tmp_path, "v", "audio", data)])
    np.testing.assert_allclose(stats.mean["audio"], data.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats.std["audio"], data.std(axis=0), atol=1e-12)


def test_normalize_mean_rows_to_zero(tmp_path, rng):
    data = rng.normal(size=(8, 168))
    stats = compute_stats([_track(tmp_path, "v", "audio", data)])
    constant = np.tile(stats.mean["audio"], (4, 1))
    out = normalize(constant, "audio", stats)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_normalize_z_score_example(tmp_path):
    data = np.zeros((2, 168))
    data[0, 0], data[1, 0] = 1.0, 3.0
    stats = compute_stats([_track(tmp_path, "v", "audio", data)])
    assert stats.mean["audio"][0] == 2.0
    assert stats.std["audio"][0] == 1.0
    out = normalize(data, "audio", stats)
    assert out[0, 0] == -1.0
    assert out[1, 0] == 1.0


def test_normalize_constant_column_floored(tmp_path, rng):
    data = np.full((6, 168), 7.0)
    stats = compute_stats([_track(tmp_path, "v", "audio", data)])
    assert np.all(stats.std["audio"] == 1e-8)
    out = normalize(data, "audio", stats)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_normalized_train_split_has_unit_moments(tmp_path, rng):
    blocks = [_stored(rng.normal(size=(n, 168)) * 2 + 5) for n in (30, 45)]
    stats = compute_stats([_track(tmp_path, f"v{i}", "audio", b) for i, b in enumerate(blocks)])
    pooled = np.concatenate([normalize(b, "audio", stats) for b in blocks], axis=0)
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-10)


def test_normalize_requires_matching_stats(tmp_path, rng):
    stats = compute_stats([_track(tmp_path, "v", "audio", rng.normal(size=(5, 168)))])
    with pytest.raises(DomainError, match="modality 'expnet'"):
        normalize(rng.normal(size=(5, 2048)), "expnet", stats)
    with pytest.raises(DomainError, match="width 100"):
        normalize(rng.normal(size=(5, 100)), "audio", stats)


def test_normalize_into_a_buffer_gives_the_bits_of_a_new_array(tmp_path, rng):
    data = rng.normal(size=(9, 168)).astype(np.float32)
    stats = compute_stats([_track(tmp_path, "v", "audio", rng.normal(size=(20, 168)) * 3 + 2)])
    out = np.empty((9, 168))
    assert normalize(data, "audio", stats, out=out) is out
    _same_bits(out, normalize(data, "audio", stats))


# --- float32 tracks, window index and batch gather -------------------------------------

def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_loaded_track_keeps_float32(tmp_path, rng):
    data = rng.normal(size=(7, 168)).astype(np.float32)
    path = tmp_path / "a.feat"
    write_feature_file(path, data)
    track = load_feature_track(path, "audio")
    assert track.data.dtype == np.float32
    np.testing.assert_array_equal(track.data, data)


def test_compute_stats_of_float32_tracks_equals_widened_copies(tmp_path, rng):
    tracks = [
        _track(tmp_path, f"v{i}", m, (rng.normal(size=(n, d)) * 3 + 1).astype(np.float32))
        for i, n in enumerate((23, 9, 40))
        for m, d in (("audio", 168), ("facepose", 714))
    ]
    got = compute_stats(tracks)
    for modality in ("audio", "facepose"):
        wide = np.concatenate([_rows(t).astype(np.float64) for t in tracks if t.modality == modality])
        _same_bits(got.mean[modality], wide.mean(axis=0))
        _same_bits(got.std[modality], np.maximum(wide.std(axis=0), 1e-8))


@settings(max_examples=40, deadline=None)
@given(
    modality=st.sampled_from(sorted(MODALITY_DIMS)),
    lengths=st.lists(st.integers(1, 150), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(modality="expnet", lengths=[64], seed=0)
@example(modality="audio", lengths=[1, 63, 1, 64, 65], seed=1)
def test_compute_stats_equals_the_stacked_reduction_bitwise(modality, lengths, seed):
    """Chunked stats give the bits of mean/std over all rows stacked, at every modality width."""
    rng = np.random.default_rng(seed)
    width = MODALITY_DIMS[modality]
    blocks = [(rng.normal(size=(n, width)) * rng.uniform(0.1, 50) + rng.uniform(-20, 20)).astype(np.float32)
              for n in lengths]
    with tempfile.TemporaryDirectory() as tmp:  # a fresh directory per example, not a fixture's
        stats = compute_stats([_track(Path(tmp), f"v{i}", modality, b) for i, b in enumerate(blocks)])
    stacked = np.concatenate(blocks, axis=0, dtype=np.float64)
    _same_bits(stats.mean[modality], stacked.mean(axis=0))
    _same_bits(stats.std[modality], np.maximum(stacked.std(axis=0), 1e-8))


def test_compute_stats_memory_is_set_by_a_chunk_not_the_split(tmp_path, rng):
    tracks = [_track(tmp_path, f"v{i}", "expnet", rng.normal(size=(300, 2048))) for i in range(8)]
    tracemalloc.start()
    try:
        compute_stats(tracks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one [65 x 2048] float64 chunk buffer, one [64 x 2048] float32 read and a few row
    # vectors; the split widened is 37.5 MiB
    assert peak < 2 * 2**20, peak


def test_compute_stats_rejects_zero_rows(tmp_path):
    with pytest.raises(DomainError, match="zero rows"):
        compute_stats([_track(tmp_path, "v", "audio", np.zeros((0, 168)))])


def test_window_rows_clamp_to_the_last_frame():
    np.testing.assert_array_equal(window_rows(9), [list(range(9)) + [8] * 6])
    np.testing.assert_array_equal(window_rows(15), [list(range(15))])
    rows = window_rows(30)
    np.testing.assert_array_equal(rows[:, 0], [0, 10, 15])
    np.testing.assert_array_equal(rows, rows[:, :1] + np.arange(15))


def test_gathered_batch_is_bit_equal_to_stacked_normalized_windows(tmp_path, rng):
    """Long, exactly-15, short (padded) and partly unlabeled videos, read from their files."""
    lengths = {"long": 47, "exact": 15, "short": 9, "gaps": 33}
    videos = {}
    for vid, n in lengths.items():
        data = {m: (rng.normal(size=(n, d)) * 2 + 0.5).astype(np.float32) for m, d in (("audio", 168), ("facepose", 714))}
        features = {m: _track(tmp_path, vid, m, block) for m, block in data.items()}
        valence, arousal = rng.uniform(-1, 1, size=(2, n))
        if vid == "gaps":
            valence[10:25] = -5.0  # the whole window at start 10 is invalid
            arousal[3] = 7.0
        labels = LabelTrack(vid, valence, arousal, (np.abs(valence) <= 1) & (np.abs(arousal) <= 1))
        videos[vid] = (features, data, labels)
    stats = compute_stats([t for f, _, _ in videos.values() for t in f.values()])

    index = concat_windows([build_windows(features, labels) for features, _, labels in videos.values()])
    assert not index.mask[index.video == 3][1].any()  # the all-invalid window is indexed, not dropped
    for modality in ("audio", "facepose"):
        batch = gather_windows(index, modality, stats)
        shuffled = np.random.default_rng(5).permutation(len(index))
        _same_bits(gather_windows(index.select(shuffled), modality, stats), batch[shuffled])
        sliced = []
        for _, data, labels in videos.values():
            wide = normalize(data[modality].astype(np.float64), modality, stats)
            starts = window_starts(labels.n_frames)
            sliced.append(slice_and_pad_windows(wide, labels.targets(), labels.valid, starts)[0])
        _same_bits(batch, np.concatenate(sliced))

    targets, masks = [], []
    for _, data, labels in videos.values():
        _, tgt, mask = slice_and_pad_windows(
            data["audio"], labels.targets(), labels.valid, window_starts(labels.n_frames)
        )
        targets.append(tgt)
        masks.append(mask)
    _same_bits(index.targets, np.concatenate(targets))
    _same_bits(index.mask, np.concatenate(masks))


def test_gather_windows_requires_matching_stats(tmp_path, rng):
    stats = compute_stats([_track(tmp_path, "v", "audio", rng.normal(size=(5, 168)))])
    track = _track(tmp_path, "v", "expnet", rng.normal(size=(20, 2048)))
    with pytest.raises(DomainError, match="expnet"):
        gather_windows(build_windows({"expnet": track}), "expnet", stats)


def test_gather_windows_of_no_window_is_an_empty_batch(tmp_path, rng):
    track = _track(tmp_path, "v", "audio", rng.normal(size=(20, 168)))
    index = build_windows({"audio": track})
    batch = gather_windows(index.select([]), "audio", compute_stats([track]))
    assert (batch.shape, batch.dtype) == ((0, 15, 168), np.float64)


def _wide_and_narrow(tmp_path, rng):
    """Two checked audio files of 20 frames, one 168 and one 53 columns wide."""
    return (_track(tmp_path, "wide", "audio", rng.normal(size=(20, 168))),
            _track(tmp_path, "narrow", "audio", rng.normal(size=(20, 53))))


def _width_error(call) -> str:
    with pytest.raises(WidthMismatchError) as err:
        call()
    return str(err.value)


def test_readers_refuse_files_of_unequal_widths_naming_the_file(tmp_path, rng):
    wide, narrow = _wide_and_narrow(tmp_path, rng)
    assert _width_error(lambda: compute_stats([wide, narrow])) == (
        f"{narrow.path}: audio width 53 does not match width 168 of {wide.path}"
    )
    index = concat_windows([build_windows({"audio": wide}), build_windows({"audio": narrow})])
    assert _width_error(lambda: gather_windows(index, "audio", compute_stats([wide]))) == (
        f"{narrow.path}: audio width 53 does not match width 168 of the audio statistics"
    )


def test_readers_refuse_statistics_or_a_buffer_of_another_width_naming_the_file(tmp_path, rng):
    wide, narrow = _wide_and_narrow(tmp_path, rng)
    stats = compute_stats([wide])
    message = f"{narrow.path}: audio width 53 does not match width 168 of the audio statistics"
    assert _width_error(lambda: gather_windows(build_windows({"audio": narrow}), "audio", stats)) == message
    assert _width_error(lambda: frame_block(narrow, 0, stats, np.empty((15, 53)))) == message
    assert _width_error(lambda: frame_block(wide, 0, stats, np.empty((15, 53)))) == (
        f"{wide.path}: audio width 168 does not match width 53 of the block buffer"
    )
    assert _width_error(lambda: next(wide.chunks(0, 15, np.empty((15, 53), dtype="<f4")))) == (
        f"{wide.path}: audio width 168 does not match width 53 of the read buffer"
    )


# --- file-backed tracks ------------------------------------------------------------------

def _file_videos(tmp_path, rng, lengths):
    """{video: ({modality: the file's rows, read whole}, {modality: FileTrack}, labels)} over the same files."""
    videos = {}
    for vid, n in lengths.items():
        loaded, on_disk = {}, {}
        for modality, width in (("audio", 168), ("facepose", 714)):
            path = tmp_path / f"{vid}.{modality}.feat"
            write_feature_file(path, (rng.normal(size=(n, width)) * 2 + 0.5).astype(np.float32))
            loaded[modality] = read_affw(path)
            on_disk[modality] = file_track(path, modality, vid)
        valence, arousal = rng.uniform(-1, 1, size=(2, n))
        videos[vid] = (loaded, on_disk, LabelTrack(vid, valence, arousal, np.ones(n, dtype=bool)))
    return videos


def test_file_tracks_give_the_stats_and_batches_of_loaded_tracks(tmp_path, rng):
    """Long, exactly-15, short (padded) and 64-row videos: file reads against whole loaded arrays."""
    videos = _file_videos(tmp_path, rng, {"long": 130, "exact": 15, "short": 9, "chunk": 64})
    stats = compute_stats([t for _, on_disk, _ in videos.values() for t in on_disk.values()])
    index = concat_windows([build_windows(on_disk, labels) for _, on_disk, labels in videos.values()])
    assert all(isinstance(t, FileTrack) for v in index.tracks for t in v.values())
    shuffled = np.random.default_rng(3).permutation(len(index))
    for modality in ("audio", "facepose"):
        loaded = [v[0][modality] for v in videos.values()]
        stacked = np.concatenate(loaded, dtype=np.float64)
        _same_bits(stats.mean[modality], stacked.mean(axis=0))
        _same_bits(stats.std[modality], np.maximum(stacked.std(axis=0), 1e-8))
        # the windows of every video, cut from its loaded array and stacked in index order
        want = normalize(np.concatenate([a[window_rows(len(a))] for a in loaded]), modality, stats)
        _same_bits(gather_windows(index, modality, stats), want)
        for batch in (shuffled[:7], shuffled[7:]):
            _same_bits(gather_windows(index.select(batch), modality, stats), want[batch])


def test_frame_block_is_the_normalized_clamped_rows_of_the_file(tmp_path, rng):
    """Blocks inside, across 64-row reads, at the end (clamped) and past a short track's end."""
    data = (rng.normal(size=(150, 168)) * 2 + 0.5).astype(np.float32)
    track = _track(tmp_path, "v", "audio", data)
    stats = compute_stats([track])
    for lo, length in ((0, 15), (10, 64), (3, 130), (60, 90), (140, 15), (149, 15), (0, 150)):
        clamped = np.minimum(np.arange(lo, lo + length), 149)
        out = np.empty((length, 168))
        assert frame_block(track, lo, stats, out) is out
        _same_bits(out, normalize(data[clamped], "audio", stats))
    short = _track(tmp_path, "s", "audio", data[:6])
    want = normalize(data[np.minimum(np.arange(15), 5)], "audio", stats)
    _same_bits(frame_block(short, 0, stats, np.empty((15, 168))), want)


def test_frame_block_reads_the_block_not_the_file(tmp_path, rng):
    track = _track(tmp_path, "v", "expnet", rng.normal(size=(3000, 2048)))
    stats = compute_stats([_track(tmp_path, "w", "expnet", rng.normal(size=(20, 2048)))])
    block = np.empty((100, 2048))
    tracemalloc.start()
    try:
        frame_block(track, 1000, stats, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one [64 x 2048] float32 read (0.5 MiB); the file is 23.4 MiB
    assert peak < 2**20, peak


def test_gathered_batch_holds_the_batch_and_one_window_read(tmp_path, rng):
    """32 expnet windows of two files: the float64 batch, one [15 x 2048] float32 read, little more."""
    tracks = [_track(tmp_path, vid, "expnet", rng.normal(size=(n, 2048))) for vid, n in (("a", 330), ("b", 9))]
    stats = compute_stats(tracks)
    index = concat_windows([build_windows({"expnet": t}) for t in tracks])
    index = index.select(np.random.default_rng(2).permutation(len(index))[:32])
    assert len(index) == 32
    gather_windows(index.select([0]), "expnet", stats)  # NumPy's one-time setup is not the batch's
    batch_bytes, read_bytes = 32 * 15 * 2048 * 8, 15 * 2048 * 4
    tracemalloc.start()
    try:
        batch = gather_windows(index, "expnet", stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.nbytes == batch_bytes
    # slack: the float32-to-float64 cast buffer of the z-scoring subtraction (about one read)
    assert peak < batch_bytes + read_bytes + 2**18, peak


def test_file_track_reads_the_rows_it_was_asked_for(tmp_path, rng):
    data = rng.normal(size=(70, 168)).astype(np.float32)
    write_feature_file(tmp_path / "a.feat", data)
    track = file_track(tmp_path / "a.feat", "audio", "a")
    assert (track.n_frames, track.width, track.dtype, track.video_id) == (70, 168, np.float32, "a")
    buf = np.empty((64, 168), dtype=track.dtype)
    for lo, hi in ((0, 15), (55, 70), (64, 70), (3, 3), (0, 70), (3, 70)):
        read = [(start, rows.copy()) for start, rows in track.chunks(lo, hi, buf)]
        assert [start for start, _ in read] == list(range(lo, hi, 64))
        _same_bits(np.concatenate([rows for _, rows in read] or [buf[:0]]), data[lo:hi])


def test_file_track_checks_the_file_as_a_load_does(tmp_path):
    path = tmp_path / "a.feat"
    write_feature_file(path, np.zeros((4, 168)))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedFileError, match="payload bytes"):
        file_track(path, "audio")
    with pytest.raises(FileNotFoundError):
        file_track(tmp_path / "nope.feat", "audio")


def _affw(rows, cols, version=1, magic=b"AFFW", payload=None):
    if payload is None:
        payload = np.arange(rows * cols, dtype="<f4").tobytes()
    return magic + struct.pack("<III", version, rows, cols) + payload


def _with_nonfinite(value, row):
    data = np.zeros((130, 168), dtype="<f4")
    data[row, 7] = value
    return _affw(130, 168, payload=data.tobytes())


# (modality, file bytes or None for no file, the error class and its message with {path})
BROKEN_FILES = {
    "empty": ("audio", b"", TruncatedFileError, "{path}: AFFW header needs 16 bytes, found 0"),
    "short header": ("audio", b"AFFW\x01\x00\x00", TruncatedFileError, "{path}: AFFW header needs 16 bytes, found 7"),
    "bad magic": ("audio", _affw(2, 168, magic=b"WAFF"), FileFormatError, "{path}: bad magic b'WAFF', expected b'AFFW'"),
    "version": ("audio", _affw(2, 168, version=2), VersionMismatchError, "{path}: AFFW version 2, expected 1"),
    "truncated": ("audio", _affw(3, 168)[:-10], TruncatedFileError, "{path}: expected 2016 payload bytes, found 2006"),
    "trailing bytes": ("audio", _affw(3, 168) + b"\x00\x00", FileFormatError, "{path}: 2 trailing bytes after payload"),
    "no columns": ("audio", _affw(70, 0), WidthMismatchError, "v: audio feature track has no columns"),
    "unknown modality": ("thermal", _affw(3, 168), DomainError, "unknown modality 'thermal'"),
    "nan in the last partial chunk": (
        "audio", _with_nonfinite(np.nan, 129), DomainError, "v: feature track has non-finite entries"
    ),
    "inf in the first row": ("audio", _with_nonfinite(-np.inf, 0), DomainError, "v: feature track has non-finite entries"),
    "missing": ("audio", None, FileNotFoundError, "[Errno 2] No such file or directory: '{path}'"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_FILES))
def test_file_track_refuses_a_broken_file_with_the_error_of_a_load(tmp_path, case):
    modality, blob, error, message = BROKEN_FILES[case]
    path = tmp_path / "a.feat"
    if blob is not None:
        path.write_bytes(blob)
    for read in (load_feature_track, file_track):
        with pytest.raises(error) as err:
            read(path, modality, "v")
        assert (type(err.value), str(err.value)) == (error, message.format(path=path))


def test_file_track_holds_a_chunk_of_a_long_file_not_the_file(tmp_path, rng):
    path = tmp_path / "long.feat"
    with open(path, "wb") as fh:  # 5000 frames of expnet, 39 MiB, written 500 rows at a time
        fh.write(_affw(5000, 2048, payload=b""))
        for _ in range(10):
            fh.write(rng.standard_normal((500, 2048), dtype=np.float32).tobytes())
    tracemalloc.start()
    try:
        track = file_track(path, "expnet", "long")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert track.n_frames == 5000
    # one [64 x 2048] float32 read buffer (0.5 MiB) and its finiteness mask
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
def test_file_track_refuses_a_file_changed_after_it_was_checked(tmp_path, rng, change):
    path = tmp_path / "a.feat"
    write_feature_file(path, rng.normal(size=(20, 168)))
    track = file_track(path, "audio")
    FILE_CHANGES[change](path)
    with pytest.raises(FileFormatError, match=f"^{path}: feature file changed after it was checked"):
        next(track.chunks(0, 15, np.empty((15, 168), dtype=track.dtype)))


@pytest.mark.parametrize("change", ["rewritten", "touched"])
def test_file_track_refuses_a_file_changed_while_its_rows_are_read(tmp_path, rng, change):
    path = tmp_path / "a.feat"
    write_feature_file(path, rng.normal(size=(20, 168)))
    track = file_track(path, "audio")
    chunks = track.chunks(0, 20, np.empty((20, 168), dtype=track.dtype))
    next(chunks)
    FILE_CHANGES[change](path)
    with pytest.raises(FileFormatError, match=r"changed after it was checked \(replaced, rewritten or touched\)"):
        next(chunks)  # the check after the last chunk


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open files")
def test_a_reader_that_stops_early_closes_its_file(tmp_path, rng):
    """A consumer that raises inside ``chunks`` leaves no file open, though the error is still held."""
    data = rng.normal(size=(200, 168)).astype(np.float32)
    data[0, 7] = np.nan  # the first of four chunks
    path = tmp_path / "nan.feat"
    write_feature_file(path, data)
    before = _open_descriptors()
    with pytest.raises(DomainError, match="non-finite") as nan_error:
        file_track(path, "audio", "v")
    assert _open_descriptors() == before, nan_error.value

    track = _track(tmp_path, "v", "expnet", rng.normal(size=(200, 2048)))
    stats = compute_stats([_track(tmp_path, "v", "audio", rng.normal(size=(5, 168)))])
    before = _open_descriptors()
    with pytest.raises(DomainError, match="no normalization statistics") as stats_error:
        frame_block(track, 0, stats, np.empty((150, 2048)))
    assert _open_descriptors() == before, stats_error.value


# --- overlap merge --------------------------------------------------------------------

def test_merge_single_window_identity(rng):
    block = rng.normal(size=(15, 2))
    merged = merge_window_predictions(window_rows(15), block[None], 15)
    np.testing.assert_array_equal(merged, block)


def test_merge_two_windows_means_overlap():
    a = np.full((15, 2), 0.2)
    b = np.full((15, 2), 0.4)
    merged = merge_window_predictions(window_rows(25), np.stack([a, b]), 25)
    np.testing.assert_allclose(merged[:10], 0.2)
    np.testing.assert_allclose(merged[10:15], 0.3)
    np.testing.assert_allclose(merged[15:], 0.4)


def test_merge_three_windows_matches_brute_force(rng):
    n = 30
    rows = window_rows(n)
    assert rows[:, 0].tolist() == [0, 10, 15]
    pred = rng.normal(size=(3, 15, 2))
    merged = merge_window_predictions(rows, pred, n)

    total = np.zeros((n, 2))
    count = np.zeros(n)
    for s, block in zip(rows[:, 0], pred):
        for t in range(15):
            if s + t < n:
                total[s + t] += block[t]
                count[s + t] += 1
    np.testing.assert_allclose(merged, total / count[:, None], atol=1e-12)


def test_merge_ignores_positions_past_track_end(rng):
    block = rng.normal(size=(15, 2))
    merged = merge_window_predictions(window_rows(10), block[None], 10)
    assert merged.shape == (10, 2)
    np.testing.assert_array_equal(merged, block[:10])


def test_merge_uncovered_frame_rejected(rng):
    with pytest.raises(CoverageError):
        merge_window_predictions(window_rows(40)[:1], rng.normal(size=(1, 15, 2)), 40)


def test_merge_rejects_mismatched_windows(rng):
    rows = window_rows(30)
    with pytest.raises(DomainError, match="do not match"):
        merge_window_predictions(rows, rng.normal(size=(3, 14, 2)), 30)
    with pytest.raises(DomainError, match="outside track"):
        merge_window_predictions(rows, rng.normal(size=(3, 15, 2)), 25)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 120), c=st.floats(-1, 1, allow_nan=False))
def test_merge_constant_windows_idempotent(n, c):
    rows = window_rows(n)
    merged = merge_window_predictions(rows, np.full(rows.shape + (2,), c), n)
    np.testing.assert_allclose(merged, c, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=9, seed=1)
@example(n=14, seed=2)
@example(n=15, seed=3)
@example(n=16, seed=4)
def test_merge_is_bit_equal_to_per_window_loop(n, seed):
    rows = window_rows(n)
    pred = np.random.default_rng(seed).normal(size=rows.shape + (2,))
    _same_bits(merge_window_predictions(rows, pred, n), merge_windows_loop(rows[:, 0].tolist(), pred, n))


# --- manifest ----------------------------------------------------------------------------

MANIFEST_HEADER = "video_id,split,audio_path,expnet_path,facepose_path,label_path,n_frames"


def test_manifest_loads_and_resolves_paths(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        MANIFEST_HEADER + "\n"
        "v0,train,a.feat,e.feat,f.feat,l.csv,100\n"
        "v1,val,/abs/a.feat,e.feat,f.feat,,50\n"
        "v2,val,, e.feat , ,,5\n",
        encoding="utf-8",
    )
    rows = load_manifest(path)
    assert len(rows) == 3
    assert rows[0].split == "train"
    assert rows[0].features == {
        "audio": tmp_path / "a.feat",
        "expnet": tmp_path / "e.feat",
        "facepose": tmp_path / "f.feat",
    }
    assert rows[1].features["audio"] == Path("/abs/a.feat")
    assert rows[1].label_path is None
    assert rows[1].n_frames == 50
    assert rows[2].features == {"expnet": tmp_path / "e.feat"}  # only the non-empty cells


@pytest.mark.parametrize("kind", ["labels", "manifest"])
def test_table_that_starts_with_a_utf8_bom_loads_as_without_it(tmp_path, kind):
    """Spreadsheet programs often save CSV with a byte-order mark; it is not part of the header."""
    if kind == "labels":
        body, load = "frame,valence,arousal\n0,0.5,-0.25\n1,-5,-5\n", load_labels
    else:
        body, load = MANIFEST_HEADER + "\nv0,train,a.feat,e.feat,f.feat,l.csv,2\n", load_manifest
    (tmp_path / "plain.csv").write_text(body, encoding="utf-8")
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    assert repr(load(tmp_path / "bom.csv")) == repr(load(tmp_path / "plain.csv"))


def test_manifest_rejects_bad_split(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(MANIFEST_HEADER + "\nv0,test,a,e,f,l,10\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_manifest(path)


def test_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("video,split\nv0,train\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_manifest(path)


def test_manifest_rejects_non_numeric_frames(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(MANIFEST_HEADER + "\nv0,train,a,e,f,l,many\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_manifest(path)
