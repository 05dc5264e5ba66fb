import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affseq import (
    FeatureTrack,
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

from affseq.dataset import MODALITY_DIMS, FileTrack, concat_windows, file_track, gather_windows, window_rows
from conftest import FILE_CHANGES
from oracles import merge_windows_loop, slice_and_pad_windows, window_starts_oracle


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


def test_feature_width_mismatch(tmp_path):
    path = tmp_path / "w.feat"
    write_feature_file(path, np.zeros((3, 167)))
    with pytest.raises(WidthMismatchError):
        load_feature_track(path, "audio")


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


def test_feature_track_rejects_nonfinite():
    data = np.zeros((2, 168))
    data[1, 3] = np.nan
    with pytest.raises(DomainError):
        FeatureTrack(video_id="v", modality="audio", data=data)


def test_feature_track_rejects_unknown_modality():
    with pytest.raises(DomainError):
        FeatureTrack(video_id="v", modality="thermal", data=np.zeros((2, 10)))


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


def _track(vid, modality, data):
    return FeatureTrack(video_id=vid, modality=modality, data=np.asarray(data, dtype=np.float64))


def _feature_set(n, rng, dims=(("audio", 168), ("expnet", 2048), ("facepose", 714))):
    return {m: _track("v", m, rng.normal(size=(n, d))) for m, d in dims}


def test_build_windows_slices_match_source(rng):
    features = {"audio": _track("v", "audio", rng.normal(size=(30, 168)))}
    index = build_windows(features)
    data = features["audio"].data
    assert index.rows[:, 0].tolist() == [0, 10, 15]
    for start, window in zip(index.rows[:, 0], data[index.rows]):
        np.testing.assert_array_equal(window, data[start : start + 15])
    assert index.mask.all()


def test_build_windows_short_track_pads_and_masks(rng):
    features = {"audio": _track("v", "audio", rng.normal(size=(10, 168)))}
    index = build_windows(features)
    data = features["audio"].data
    (window,) = data[index.rows]
    assert window.shape == (15, 168)
    np.testing.assert_array_equal(window[:10], data)
    for t in range(10, 15):
        np.testing.assert_array_equal(window[t], data[9])
    assert index.mask.tolist() == [[True] * 10 + [False] * 5]
    np.testing.assert_array_equal(index.targets[0, 10:], 0.0)


def test_build_windows_mask_propagates_invalid_labels(rng):
    n = 30
    features = {"audio": _track("v", "audio", rng.normal(size=(n, 168)))}
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


def test_build_windows_targets_from_labels(rng):
    n = 20
    features = {"audio": _track("v", "audio", rng.normal(size=(n, 168)))}
    labels = LabelTrack(
        video_id="v",
        valence=np.linspace(-1, 1, n),
        arousal=np.linspace(1, -1, n),
        valid=np.ones(n, dtype=bool),
    )
    index = build_windows(features, labels)
    assert index.rows[:, 0].tolist() == [0, 5]
    np.testing.assert_array_equal(index.targets[1, :, 0], labels.valence[5:20])


def test_build_windows_rejects_length_mismatch(rng):
    features = {
        "audio": _track("v", "audio", rng.normal(size=(20, 168))),
        "expnet": _track("v", "expnet", rng.normal(size=(19, 2048))),
    }
    with pytest.raises(DomainError):
        build_windows(features)


# --- normalization ------------------------------------------------------------------

def test_compute_stats_population_moments(rng):
    data = rng.normal(size=(50, 168)) * 3 + 1
    stats = compute_stats([_track("v", "audio", data)])
    np.testing.assert_allclose(stats.mean["audio"], data.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats.std["audio"], data.std(axis=0), atol=1e-12)


def test_normalize_mean_rows_to_zero(rng):
    data = rng.normal(size=(8, 168))
    stats = compute_stats([_track("v", "audio", data)])
    constant = np.tile(stats.mean["audio"], (4, 1))
    out = normalize(constant, "audio", stats)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_normalize_z_score_example():
    data = np.zeros((2, 168))
    data[0, 0], data[1, 0] = 1.0, 3.0
    stats = compute_stats([_track("v", "audio", data)])
    assert stats.mean["audio"][0] == 2.0
    assert stats.std["audio"][0] == 1.0
    out = normalize(data, "audio", stats)
    assert out[0, 0] == -1.0
    assert out[1, 0] == 1.0


def test_normalize_constant_column_floored(rng):
    data = np.full((6, 168), 7.0)
    stats = compute_stats([_track("v", "audio", data)])
    assert np.all(stats.std["audio"] == 1e-8)
    out = normalize(data, "audio", stats)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_normalized_train_split_has_unit_moments(rng):
    tracks = [_track(f"v{i}", "audio", rng.normal(size=(n, 168)) * 2 + 5) for i, n in enumerate((30, 45))]
    stats = compute_stats(tracks)
    pooled = np.concatenate([normalize(t.data, t.modality, stats) for t in tracks], axis=0)
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-10)


def test_normalize_requires_matching_stats(rng):
    stats = compute_stats([_track("v", "audio", rng.normal(size=(5, 168)))])
    with pytest.raises(DomainError, match="modality 'expnet'"):
        normalize(rng.normal(size=(5, 2048)), "expnet", stats)
    with pytest.raises(DomainError, match="width 100"):
        normalize(rng.normal(size=(5, 100)), "audio", stats)


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
    assert FeatureTrack("v", "audio", data).data.dtype == np.float32
    assert FeatureTrack("v", "audio", np.zeros((2, 168), dtype=np.float16)).data.dtype == np.float64
    assert FeatureTrack("v", "audio", np.zeros((2, 168), dtype=np.int32)).data.dtype == np.float64


def test_compute_stats_of_float32_tracks_equals_widened_copies(rng):
    tracks = [
        FeatureTrack(f"v{i}", m, (rng.normal(size=(n, d)) * 3 + 1).astype(np.float32))
        for i, n in enumerate((23, 9, 40))
        for m, d in (("audio", 168), ("facepose", 714))
    ]
    wide = [FeatureTrack(t.video_id, t.modality, t.data.astype(np.float64)) for t in tracks]
    got, want = compute_stats(tracks), compute_stats(wide)
    for modality in ("audio", "facepose"):
        _same_bits(got.mean[modality], want.mean[modality])
        _same_bits(got.std[modality], want.std[modality])


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
    stats = compute_stats([FeatureTrack(f"v{i}", modality, b) for i, b in enumerate(blocks)])
    stacked = np.concatenate(blocks, axis=0, dtype=np.float64)
    _same_bits(stats.mean[modality], stacked.mean(axis=0))
    _same_bits(stats.std[modality], np.maximum(stacked.std(axis=0), 1e-8))


def test_compute_stats_memory_is_set_by_a_chunk_not_the_split(rng):
    tracks = [FeatureTrack(f"v{i}", "expnet", rng.normal(size=(300, 2048)).astype(np.float32)) for i in range(8)]
    tracemalloc.start()
    try:
        compute_stats(tracks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one [65 x 2048] float64 chunk buffer and a few row vectors; the split widened is 37.5 MiB
    assert peak < 2 * 2**20, peak


def test_compute_stats_rejects_zero_rows():
    with pytest.raises(DomainError, match="zero rows"):
        compute_stats([FeatureTrack("v", "audio", np.zeros((0, 168), dtype=np.float32))])


def test_window_rows_clamp_to_the_last_frame():
    np.testing.assert_array_equal(window_rows(9), [list(range(9)) + [8] * 6])
    np.testing.assert_array_equal(window_rows(15), [list(range(15))])
    rows = window_rows(30)
    np.testing.assert_array_equal(rows[:, 0], [0, 10, 15])
    np.testing.assert_array_equal(rows, rows[:, :1] + np.arange(15))


def test_gathered_batch_is_bit_equal_to_stacked_normalized_windows(rng):
    """Long, exactly-15, short (padded) and partly unlabeled videos, float32 as loaded."""
    lengths = {"long": 47, "exact": 15, "short": 9, "gaps": 33}
    videos = {}
    for vid, n in lengths.items():
        features = {
            m: FeatureTrack(vid, m, (rng.normal(size=(n, d)) * 2 + 0.5).astype(np.float32))
            for m, d in (("audio", 168), ("facepose", 714))
        }
        valence, arousal = rng.uniform(-1, 1, size=(2, n))
        if vid == "gaps":
            valence[10:25] = -5.0  # the whole window at start 10 is invalid
            arousal[3] = 7.0
        labels = LabelTrack(vid, valence, arousal, (np.abs(valence) <= 1) & (np.abs(arousal) <= 1))
        videos[vid] = (features, labels)
    stats = compute_stats([t for f, _ in videos.values() for t in f.values()])

    index = concat_windows([build_windows(features, labels) for features, labels in videos.values()])
    assert not index.mask[index.video == 3][1].any()  # the all-invalid window is indexed, not dropped
    for modality in ("audio", "facepose"):
        batch = gather_windows(index, modality, stats)
        shuffled = np.random.default_rng(5).permutation(len(index))
        _same_bits(gather_windows(index.select(shuffled), modality, stats), batch[shuffled])
        sliced = []
        for features, labels in videos.values():
            wide = normalize(features[modality].data.astype(np.float64), modality, stats)
            starts = window_starts(labels.n_frames)
            sliced.append(slice_and_pad_windows(wide, labels.targets(), labels.valid, starts)[0])
        _same_bits(batch, np.concatenate(sliced))

    targets, masks = [], []
    for features, labels in videos.values():
        _, tgt, mask = slice_and_pad_windows(
            features["audio"].data, labels.targets(), labels.valid, window_starts(labels.n_frames)
        )
        targets.append(tgt)
        masks.append(mask)
    _same_bits(index.targets, np.concatenate(targets))
    _same_bits(index.mask, np.concatenate(masks))


def test_gather_windows_requires_matching_stats(rng):
    stats = compute_stats([_track("v", "audio", rng.normal(size=(5, 168)))])
    track = _track("v", "expnet", rng.normal(size=(20, 2048)))
    with pytest.raises(DomainError, match="expnet"):
        gather_windows(build_windows({"expnet": track}), "expnet", stats)


# --- file-backed tracks ------------------------------------------------------------------

def _file_videos(tmp_path, rng, lengths):
    """{video: ({modality: FeatureTrack}, {modality: FileTrack}, labels)} over the same files."""
    videos = {}
    for vid, n in lengths.items():
        loaded, on_disk = {}, {}
        for modality, width in (("audio", 168), ("facepose", 714)):
            path = tmp_path / f"{vid}.{modality}.feat"
            write_feature_file(path, (rng.normal(size=(n, width)) * 2 + 0.5).astype(np.float32))
            loaded[modality] = load_feature_track(path, modality, vid)
            on_disk[modality] = file_track(path, modality, vid)
        valence, arousal = rng.uniform(-1, 1, size=(2, n))
        videos[vid] = (loaded, on_disk, LabelTrack(vid, valence, arousal, np.ones(n, dtype=bool)))
    return videos


def test_file_tracks_give_the_stats_and_batches_of_loaded_tracks(tmp_path, rng):
    """Long, exactly-15, short (padded) and 64-row videos, read back from their files."""
    videos = _file_videos(tmp_path, rng, {"long": 130, "exact": 15, "short": 9, "chunk": 64})
    indices = []
    for kind in (0, 1):
        tracks = [t for v in videos.values() for t in v[kind].values()]
        stats = compute_stats(tracks)
        index = concat_windows([build_windows(v[kind], v[2]) for v in videos.values()])
        indices.append((stats, index))
    (stats, loaded), (file_stats, on_disk) = indices
    assert not any(isinstance(t, FileTrack) for v in loaded.tracks for t in v.values())
    assert all(isinstance(t, FileTrack) for v in on_disk.tracks for t in v.values())
    shuffled = np.random.default_rng(3).permutation(len(loaded))
    for modality in ("audio", "facepose"):
        _same_bits(file_stats.mean[modality], stats.mean[modality])
        _same_bits(file_stats.std[modality], stats.std[modality])
        _same_bits(gather_windows(on_disk, modality, stats), gather_windows(loaded, modality, stats))
        for batch in (shuffled[:7], shuffled[7:]):
            _same_bits(
                gather_windows(on_disk.select(batch), modality, stats),
                gather_windows(loaded.select(batch), modality, stats),
            )


def test_file_track_reads_the_rows_it_was_asked_for(tmp_path, rng):
    data = rng.normal(size=(70, 168)).astype(np.float32)
    write_feature_file(tmp_path / "a.feat", data)
    track = file_track(tmp_path / "a.feat", "audio", "a")
    assert (track.n_frames, track.dtype, track.video_id) == (70, np.float32, "a")
    with track.open_rows() as rows:
        for lo, hi in ((0, 15), (55, 70), (64, 200), (3, 3)):
            _same_bits(rows[lo:hi], data[lo:hi])


def test_file_track_checks_the_file_as_a_load_does(tmp_path):
    path = tmp_path / "a.feat"
    write_feature_file(path, np.zeros((4, 168)))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedFileError, match="payload bytes"):
        file_track(path, "audio")
    write_feature_file(path, np.zeros((4, 10)))
    with pytest.raises(WidthMismatchError):
        file_track(path, "audio")
    with pytest.raises(FileNotFoundError):
        file_track(tmp_path / "nope.feat", "audio")


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
def test_file_track_refuses_a_file_changed_after_it_was_checked(tmp_path, rng, change):
    path = tmp_path / "a.feat"
    write_feature_file(path, rng.normal(size=(20, 168)))
    track = file_track(path, "audio")
    FILE_CHANGES[change](path)
    with pytest.raises(FileFormatError, match=f"^{path}: feature file changed after it was checked"):
        with track.open_rows() as rows:
            rows[0:15]


@pytest.mark.parametrize("change", ["rewritten", "touched"])
def test_file_track_refuses_a_file_changed_while_its_rows_are_read(tmp_path, rng, change):
    path = tmp_path / "a.feat"
    write_feature_file(path, rng.normal(size=(20, 168)))
    track = file_track(path, "audio")
    with pytest.raises(FileFormatError, match="changed after it was checked"):
        with track.open_rows() as rows:
            FILE_CHANGES[change](path)
            rows[0:15]


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
