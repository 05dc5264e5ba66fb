import os

import numpy as np
import pytest

from affseq import MODALITY_DIMS, write_feature_file


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def write_label_csv(path, values):
    """values: iterable of (valence, arousal) rows, frame index implicit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frame,valence,arousal\n")
        for i, (v, a) in enumerate(values):
            fh.write(f"{i},{v},{a}\n")


def smooth_labels(n, phase=0.0):
    t = np.arange(n)
    return np.stack([0.6 * np.sin(0.25 * t + phase), 0.5 * np.cos(0.15 * t + phase)], axis=1)


def make_corpus(root, videos, rng, feature_fn=None, dims=MODALITY_DIMS):
    """Write a synthetic corpus and manifest.

    videos: list of (video_id, split, n_frames). feature_fn(video_id, modality,
    n_frames) may supply deterministic features; default is unit Gaussian noise.
    Returns the manifest path.
    """
    root.mkdir(parents=True, exist_ok=True)
    lines = ["video_id,split,audio_path,expnet_path,facepose_path,label_path,n_frames"]
    for vid, split, n in videos:
        cells = {}
        for modality, dim in dims.items():
            if feature_fn is not None:
                data = feature_fn(vid, modality, n)
            else:
                data = rng.normal(size=(n, dim))
            path = root / f"{vid}.{modality}.feat"
            write_feature_file(path, np.asarray(data, dtype=np.float32))
            cells[modality] = path.name
        label_path = root / f"{vid}.labels.csv"
        write_label_csv(label_path, smooth_labels(n, phase=sum(vid.encode()) % 7))
        lines.append(
            f"{vid},{split},{cells['audio']},{cells['expnet']},{cells['facepose']},{label_path.name},{n}"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _replace(path):
    fresh = path.with_suffix(".new")
    fresh.write_bytes(path.read_bytes())
    os.replace(fresh, path)


def _rewrite(path):
    st = os.stat(path)
    path.write_bytes(path.read_bytes())  # the same bytes, in place
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1))  # a new mtime, however coarse the clock


def _touch(path):
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))


def _truncate(path):
    os.truncate(path, os.path.getsize(path) - 4)


# Ways a feature file can change after it was checked, each by name.
FILE_CHANGES = {"replaced": _replace, "rewritten": _rewrite, "touched": _touch,
                "truncated": _truncate, "removed": os.remove}
