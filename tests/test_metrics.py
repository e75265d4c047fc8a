import json

import numpy as np
import pytest

from signpipe.metrics import confusion_and_metrics


def test_all_correct_identity_pattern():
    preds = np.array([0, 1, 2, 1])
    report = confusion_and_metrics(preds, preds, ["A", "B", "C"])
    assert report["accuracy"] == 1.0
    assert np.array_equal(report["confusion"], np.diag([1, 2, 1]))
    assert np.allclose(report["precision"], 1.0)
    assert np.allclose(report["recall"], 1.0)


def test_hand_counted_half():
    # preds=[A,B], labels=[A,A] -> accuracy 0.5, matrix[A][A]=1, matrix[A][B]=1
    report = confusion_and_metrics(np.array([0, 1]), np.array([0, 0]), ["A", "B"])
    assert report["accuracy"] == 0.5
    assert report["confusion"][0][0] == 1
    assert report["confusion"][0][1] == 1
    assert np.sum(report["confusion"]) == 2
    assert report["recall"][0] == 0.5
    assert report["recall"][1] == 0.0  # empty row, no division error
    assert report["precision"][1] == 0.0


def test_row_sums_are_class_counts(rng):
    labels = rng.integers(0, 4, 50)
    preds = rng.integers(0, 4, 50)
    report = confusion_and_metrics(preds, labels, ["A", "B", "C", "D"])
    confusion = np.array(report["confusion"])
    assert np.array_equal(confusion.sum(axis=1), np.bincount(labels, minlength=4))
    assert report["accuracy"] == pytest.approx(np.trace(confusion) / 50)


def test_length_mismatch_errors():
    with pytest.raises(ValueError):
        confusion_and_metrics(np.array([0, 1]), np.array([0]), ["A", "B"])
    with pytest.raises(ValueError):
        confusion_and_metrics(np.array([]), np.array([]), ["A", "B"])


def test_payload_shape():
    report = confusion_and_metrics(np.array([0, 1]), np.array([0, 1]), ["A", "B"])
    assert report["accuracy"] == 1.0
    assert report["classes"] == ["A", "B"]
    assert "runtime_seconds" not in report  # omitted unless measured
    assert report["confusion"] == [[1, 0], [0, 1]]
    assert json.loads(json.dumps(report)) == report  # plain Python values only
