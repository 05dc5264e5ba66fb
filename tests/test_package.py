"""The package namespace, and which submodules each entry point imports."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import affseq

from conftest import make_corpus
from oracles import pcm16_wav_bytes

# What training and scoring need and audio extraction does not.
_TRAINING_STACK = {"affseq.model", "affseq.nn", "affseq.train", "affseq.checkpoint", "affseq.metrics"}


def _fresh_python(code: str, cwd: Path) -> list:
    """Run ``code`` in a new interpreter that imports this affseq; return the JSON it prints."""
    src = str(Path(affseq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m.startswith('affseq'))"


def test_import_affseq_loads_no_submodule(tmp_path):
    assert _fresh_python(f"import json, sys; import affseq; print(json.dumps({_LOADED}))", tmp_path) == ["affseq"]


def test_import_cli_loads_only_errors(tmp_path):
    loaded = _fresh_python(f"import json, sys; import affseq.cli; print(json.dumps({_LOADED}))", tmp_path)
    assert loaded == ["affseq", "affseq.cli", "affseq.errors"]


def test_extract_audio_does_not_import_the_training_stack(tmp_path):
    tone = np.sin(2 * np.pi * 440.0 * np.arange(16000) / 16000)
    (tmp_path / "a.wav").write_bytes(pcm16_wav_bytes(np.round(tone * 20000).astype(np.int64), 16000))
    code = (
        "import json, sys\n"
        "from affseq.cli import main\n"
        "code = main(['extract-audio', '--wav', 'a.wav', '--frames', '8', '--out', 'a.feat'])\n"
        f"print(json.dumps([code, {_LOADED}]))\n"
    )
    exit_code, loaded = _fresh_python(code, tmp_path)
    assert exit_code == 0
    assert (tmp_path / "a.feat").exists()
    assert {"affseq.audio_io", "affseq.dsp", "affseq.dataset"} <= set(loaded)
    assert not _TRAINING_STACK & set(loaded)


@pytest.fixture(scope="module")
def trained_corpus(tmp_path_factory):
    """A two-row corpus and an untrained checkpoint of it, ``run/best.ckpt``."""
    root = tmp_path_factory.mktemp("trained_corpus")
    make_corpus(root / "corpus", [("tr0", "train", 25), ("va0", "val", 20)], np.random.default_rng(5))
    from affseq.cli import main

    assert main(["train", "--manifest", str(root / "corpus" / "manifest.csv"), "--out", str(root / "run"),
                 "--epochs", "0", "--model.width-scale", "32"]) == 0
    return root


def _fresh_predict(root: Path, threads: int) -> dict:
    """What a fresh ``predict --threads <threads>`` process imported, and the threads it started."""
    code = (
        "import json, sys, threading\n"
        "import numpy\n"
        "numpy_loads_random = 'numpy.random' in sys.modules\n"
        "started, real_start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda thread: (started.append(thread.name), real_start(thread))[1]\n"
        "from affseq.cli import main\n"
        "code = main(['predict', '--manifest', 'corpus/manifest.csv', '--checkpoint', 'run/best.ckpt',\n"
        f"             '--out', 'preds-{threads}', '--threads', '{threads}'])\n"
        "print(json.dumps({'exit': code, 'numpy_loads_random': numpy_loads_random, 'started': started,\n"
        "                  'loaded': [m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules]}))\n"
    )
    done = _fresh_python(code, root)
    preds = root / f"preds-{threads}"
    assert done["exit"] == 0 and sorted(p.name for p in preds.iterdir()) == ["tr0.csv", "va0.csv"]
    return done


@pytest.fixture(scope="module")
def one_thread_predict(trained_corpus):
    return _fresh_predict(trained_corpus, 1)


def test_one_thread_predict_never_imports_concurrent_futures(one_thread_predict):
    assert "concurrent.futures" not in one_thread_predict["loaded"]


def test_two_thread_predict_starts_no_thread_and_never_imports_concurrent_futures(trained_corpus):
    done = _fresh_predict(trained_corpus, 2)
    assert done["started"] == []
    assert "concurrent.futures" not in done["loaded"]


def test_one_thread_predict_never_imports_numpy_random(one_thread_predict):
    if one_thread_predict["numpy_loads_random"]:
        pytest.skip("this NumPy imports numpy.random with numpy itself")
    assert "numpy.random" not in one_thread_predict["loaded"]


def test_from_import_of_exported_names_works_in_a_fresh_interpreter(tmp_path):
    code = (
        "import json\n"
        "from affseq import load_checkpoint, restore_model\n"
        "print(json.dumps([load_checkpoint.__module__, restore_model.__module__]))\n"
    )
    assert _fresh_python(code, tmp_path) == ["affseq.checkpoint", "affseq.train"]


def test_every_exported_name_is_its_submodules_object():
    names = [name for name in affseq.__all__ if name != "__version__"]
    assert len(names) == len(set(names))
    for name in names:
        owners = [m for m, exported in affseq._EXPORTS.items() if name in exported]
        assert len(owners) == 1, name
        assert getattr(affseq, name) is getattr(importlib.import_module(f"affseq.{owners[0]}"), name)


def test_every_submodule_is_reachable_as_an_attribute():
    submodules = {info.name for info in pkgutil.iter_modules(affseq.__path__)}
    assert submodules == set(affseq._EXPORTS)
    for name in submodules:
        module = getattr(affseq, name)
        assert isinstance(module, types.ModuleType)
        assert module is importlib.import_module(f"affseq.{name}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        affseq.no_such_name
    assert not hasattr(affseq, "Key")  # a cli name the package does not export
