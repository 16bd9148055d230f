import numpy as np
import pytest

from aucseg import (IGNORE, Batch, FeatureGrid, LabelGrid, ScoreGrid,
                    ValidationError, class_stats)
from aucseg.grids import pool_batch


def test_label_grid_validates_range():
    LabelGrid(labels=np.array([[0, 1], [IGNORE, 1]]), num_classes=2)
    with pytest.raises(ValidationError):
        LabelGrid(labels=np.array([[0, 2]]), num_classes=2)
    with pytest.raises(ValidationError):
        LabelGrid(labels=np.array([[0, -3]]), num_classes=2)
    with pytest.raises(ValidationError):
        LabelGrid(labels=np.array([[0.5, 1.0]]), num_classes=2)


def test_num_classes_bounds():
    with pytest.raises(ValidationError):
        LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=1)
    with pytest.raises(ValidationError):
        LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=65)


def test_num_classes_must_be_an_integer():
    # truncated, 3.7 would make a 3-class grid
    with pytest.raises(ValidationError):
        LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=3.7)
    assert LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=np.int64(3)).num_classes == 3


def test_grids_are_read_only():
    feat = FeatureGrid(values=np.zeros((2, 2, 3), dtype=np.float32))
    lab = LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=2)
    sc = ScoreGrid(scores=np.full((2, 2, 2), 0.5))
    for arr in (feat.values, lab.labels, sc.scores):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_feature_grid_rejects_nonfinite():
    bad = np.zeros((2, 2, 1), dtype=np.float32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        FeatureGrid(values=bad)


def test_batch_shape_and_class_consistency():
    feat = FeatureGrid(values=np.zeros((2, 3, 1), dtype=np.float32))
    lab = LabelGrid(labels=np.zeros((2, 3), dtype=int), num_classes=3)
    batch = Batch(items=((feat, lab),))
    assert len(batch) == 1 and batch.num_classes == 3
    lab_wrong = LabelGrid(labels=np.zeros((3, 3), dtype=int), num_classes=3)
    with pytest.raises(ValidationError):
        Batch(items=((feat, lab_wrong),))
    lab_k = LabelGrid(labels=np.zeros((2, 3), dtype=int), num_classes=4)
    with pytest.raises(ValidationError):
        Batch(items=((feat, lab), (feat, lab_k)))
    with pytest.raises(ValidationError):
        Batch(items=())


def test_class_stats_counts_and_presence():
    g1 = LabelGrid(labels=np.array([[0, 0, 1], [1, 1, IGNORE]]), num_classes=3)
    g2 = LabelGrid(labels=np.array([[2, 2, 2], [0, IGNORE, IGNORE]]), num_classes=3)
    stats = class_stats([g1, g2])
    assert stats.per_image_counts.tolist() == [[2, 3, 0], [1, 0, 3]]
    assert stats.count.tolist() == [3, 3, 3]
    assert stats.present.tolist() == [[True, True, False], [True, False, True]]
    assert stats.num_images == 2


def test_label_grid_counts_are_a_read_only_bincount():
    labels = np.array([[0, 2, IGNORE], [2, 3, 2]])
    lab = LabelGrid(labels=labels, num_classes=5)
    assert lab.counts.dtype == np.int64
    assert lab.counts.tolist() == np.bincount(labels[labels != IGNORE], minlength=5).tolist()
    with pytest.raises(ValueError):
        lab.counts[0] = 1


def test_class_stats_rejects_raw_arrays():
    with pytest.raises(ValidationError):
        class_stats([np.zeros((2, 2), dtype=np.int32)])


def test_class_stats_rejects_empty_and_mixed_k():
    with pytest.raises(ValidationError):
        class_stats([])
    g1 = LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=2)
    g2 = LabelGrid(labels=np.zeros((2, 2), dtype=int), num_classes=3)
    with pytest.raises(ValidationError):
        class_stats([g1, g2])


def test_pool_batch_counts_every_bin_with_ignore_in_bin_k():
    labels = [LabelGrid(labels=np.array([[0, 2], [IGNORE, 2]]), num_classes=4),
              np.array([[3, IGNORE, 0]])]
    scores = [np.full((2, 2, 4), 0.25), ScoreGrid(scores=np.full((1, 3, 4), 0.25))]
    _, bins, k, count, spans = pool_batch(scores, labels)
    assert k == 4
    assert bins.tolist() == [0, 2, 4, 2, 3, 4, 0]
    assert count.tolist() == np.bincount(bins, minlength=k + 1).tolist() == [2, 0, 2, 1, 2]
    assert [span for _, span in spans] == [slice(0, 4), slice(4, 7)]
