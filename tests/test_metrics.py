import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affseq.dataset import LabelTrack
from affseq.errors import CoverageError, DomainError
from affseq.metrics import DegenerateInputWarning, EvalReport, ccc, evaluate

from oracles import ccc_direct, ccc_exact


def _track(video_id, targets, valid=None):
    targets = np.asarray(targets, dtype=np.float64)
    if valid is None:
        valid = np.ones(len(targets), dtype=bool)
    return LabelTrack(video_id, targets[:, 0].copy(), targets[:, 1].copy(), np.asarray(valid))


# --- ccc -----------------------------------------------------------------------

def test_ccc_hand_value_scaled_sequence():
    # mean_p=2 mean_g=4 var_p=2/3 var_g=8/3 cov=4/3 -> (8/3)/(2/3+8/3+4) = 8/22
    assert ccc([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(8.0 / 22.0, abs=1e-12)


def test_ccc_hand_value_shifted_sequence():
    # shift by 1: cov=var=2/3 -> (4/3)/(2/3+2/3+1) = 4/7
    assert ccc([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(4.0 / 7.0, abs=1e-12)


def test_ccc_perfect_agreement(rng):
    x = rng.normal(size=200)
    assert ccc(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ccc_symmetry(rng):
    x = rng.normal(size=57)
    y = rng.normal(size=57)
    assert ccc(x, y) == pytest.approx(ccc(y, x), abs=1e-15)


def test_ccc_matches_direct_formula(rng):
    for _ in range(300):
        n = int(rng.integers(2, 80))
        x = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
        y = rng.normal(scale=rng.uniform(0.1, 3.0), size=n) + rng.uniform(-1, 1)
        got = ccc(x, y)
        assert abs(got - ccc_direct(x, y)) < 1e-12
        assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


def test_ccc_penalizes_mean_shift(rng):
    x = rng.normal(size=100)
    assert ccc(x, x + 0.5) < 1.0
    assert ccc(x, x + 0.5) > 0.0


def test_ccc_penalizes_scale(rng):
    x = rng.normal(size=100)
    assert ccc(x, 2.0 * x) < 1.0


def test_ccc_anticorrelated_is_negative(rng):
    x = rng.normal(size=100)
    assert ccc(x, -x) < 0.0


def test_ccc_degenerate_returns_zero_with_warning():
    with pytest.warns(DegenerateInputWarning):
        assert ccc([0.3, 0.3, 0.3], [0.3, 0.3, 0.3]) == 0.0


def test_ccc_constant_vs_varying_is_zero():
    # var_p = cov = 0, denominator > 0: defined, equals 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ccc([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) == 0.0


def test_ccc_rejects_short_and_mismatched():
    with pytest.raises(DomainError):
        ccc([1.0], [1.0])
    with pytest.raises(DomainError):
        ccc([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        ccc(np.zeros((3, 2)), np.zeros((3, 2)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=40),
    st.floats(-5, 5),
    st.floats(0.1, 4.0),
)
# the centred products of this pair are subnormal unless ccc rescales its inputs first
@example(values=[0.0, 6.273424446310657e-160], shift=0.0, scale=0.5)
def test_ccc_affine_property(values, shift, scale):
    x = np.asarray(values)
    y = scale * x + shift
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        got = ccc(x, y)
    oracle = ccc_exact(x, y)  # exact, so tiny inputs do not lose its moments to subnormals
    if oracle is None:
        assert got == 0.0  # 0/0 case is defined as 0
    else:
        assert abs(got - oracle) < 1e-9
    assert -1.0 - 1e-9 <= got <= 1.0 + 1e-9


_finite = st.floats(-1e100, 1e100, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_finite, _finite), min_size=2, max_size=40),
    st.integers(-900, 900),
)
@example(pairs=[(0.0, 0.0), (6.273424446310657e-160, 3.1367122231553285e-160)], shift=0)
@example(pairs=[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)], shift=-1000)
def test_ccc_is_bit_equal_under_a_common_power_of_two(pairs, shift):
    p, g = np.asarray(pairs).T
    with np.errstate(over="ignore", under="ignore"):
        scaled_p, scaled_g = np.ldexp(p, shift), np.ldexp(g, shift)
    assume(np.array_equal(np.ldexp(scaled_p, -shift), p) and np.array_equal(np.ldexp(scaled_g, -shift), g))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        want = ccc(p, g)
        got = ccc(scaled_p, scaled_g)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --- evaluate ----------------------------------------------------------------

def test_evaluate_perfect_predictions(rng):
    targets = rng.uniform(-1, 1, size=(40, 2))
    report = evaluate({"v": targets.copy()}, {"v": _track("v", targets)})
    assert report.ccc_valence == pytest.approx(1.0, abs=1e-12)
    assert report.ccc_arousal == pytest.approx(1.0, abs=1e-12)
    assert report.mse_valence == 0.0
    assert report.mse_arousal == 0.0
    assert report.n_frames_evaluated == 40


def test_evaluate_concat_matches_manual_pool(rng):
    t1 = rng.uniform(-1, 1, size=(30, 2))
    t2 = rng.uniform(-1, 1, size=(20, 2))
    p1 = t1 + rng.normal(scale=0.1, size=t1.shape)
    p2 = t2 + rng.normal(scale=0.1, size=t2.shape)
    report = evaluate(
        {"a": p1, "b": p2},
        {"a": _track("a", t1), "b": _track("b", t2)},
        ccc_mode="concat",
    )
    pred = np.concatenate([p1, p2])
    gold = np.concatenate([t1, t2])
    assert report.ccc_valence == pytest.approx(ccc_direct(pred[:, 0], gold[:, 0]), abs=1e-12)
    assert report.mse_arousal == pytest.approx(np.mean((pred[:, 1] - gold[:, 1]) ** 2), abs=1e-15)


def test_evaluate_per_video_mean_matches_manual(rng):
    t1 = rng.uniform(-1, 1, size=(30, 2))
    t2 = rng.uniform(-1, 1, size=(20, 2))
    p1 = t1 + rng.normal(scale=0.2, size=t1.shape)
    p2 = t2 + rng.normal(scale=0.2, size=t2.shape)
    report = evaluate(
        {"a": p1, "b": p2},
        {"a": _track("a", t1), "b": _track("b", t2)},
        ccc_mode="per-video-mean",
    )
    expected = 0.5 * (ccc_direct(p1[:, 0], t1[:, 0]) + ccc_direct(p2[:, 0], t2[:, 0]))
    assert report.ccc_valence == pytest.approx(expected, abs=1e-12)


def test_evaluate_excludes_invalid_frames(rng):
    targets = rng.uniform(-1, 1, size=(20, 2))
    valid = np.ones(20, dtype=bool)
    valid[5:10] = False
    pred = targets.copy()
    pred[5:10] = 0.99  # wrong only where invalid
    report = evaluate({"v": pred}, {"v": _track("v", targets, valid)})
    assert report.ccc_valence == pytest.approx(1.0, abs=1e-12)
    assert report.mse_valence == 0.0
    assert report.n_frames_evaluated == 15


def test_evaluate_requires_prediction_for_every_labeled_video(rng):
    targets = rng.uniform(-1, 1, size=(10, 2))
    with pytest.raises(CoverageError):
        evaluate({}, {"v": _track("v", targets)})


def test_evaluate_rejects_shape_mismatch(rng):
    targets = rng.uniform(-1, 1, size=(10, 2))
    with pytest.raises(DomainError):
        evaluate({"v": np.zeros((9, 2))}, {"v": _track("v", targets)})


def test_evaluate_rejects_unknown_mode(rng):
    targets = rng.uniform(-1, 1, size=(10, 2))
    with pytest.raises(DomainError):
        evaluate({"v": targets}, {"v": _track("v", targets)}, ccc_mode="median")


def test_evaluate_needs_two_valid_frames(rng):
    targets = rng.uniform(-1, 1, size=(10, 2))
    valid = np.zeros(10, dtype=bool)
    valid[3] = True
    with pytest.raises(DomainError):
        evaluate({"v": targets}, {"v": _track("v", targets, valid)})


def test_report_mean_ccc_and_csv_layout():
    report = EvalReport(0.5, 0.25, 0.01, 0.02, 100)
    assert report.mean_ccc() == 0.375
    lines = report.as_csv().splitlines()
    assert lines[0] == "metric,valence,arousal"
    assert lines[1] == "ccc,0.5,0.25"
    assert lines[2] == "mse,0.01,0.02"
    assert "100" in report.as_text()
