import numpy as np
import pytest

from aucseg import (IGNORE, Batch, BankConfig, ClassStats, FeatureGrid, LabelGrid,
                    TailMemoryBank, ValidationError, missing_tail_classes,
                    select_tail_classes)


def stats_from_counts(rows):
    return ClassStats(per_image_counts=np.array(rows, dtype=np.int64),
                      num_classes=len(rows[0]))


def make_item(labels, k, fill=None, channels=2):
    labels = np.asarray(labels, dtype=np.int32)
    h, w = labels.shape
    feats = np.zeros((h, w, channels), dtype=np.float32)
    if fill is not None:
        feats += np.float32(fill)
    else:
        # unique per-pixel values so patches are distinguishable
        feats[..., 0] = np.arange(h * w, dtype=np.float32).reshape(h, w)
    return FeatureGrid(values=feats), LabelGrid(labels=labels, num_classes=k)


# ------------------------------------------------------------- tail selection

def test_select_tail_classes_smallest_nonzero():
    stats = stats_from_counts([[100, 10, 1]])
    assert select_tail_classes(stats, 0.34) == (2,)


def test_select_tail_classes_tie_prefers_smaller_id():
    stats = stats_from_counts([[5, 5, 100]])
    assert select_tail_classes(stats, 0.67) == (0, 1)


def test_select_tail_classes_zero_selection_errors():
    stats = stats_from_counts([[5, 5, 100]])
    with pytest.raises(ValidationError):
        select_tail_classes(stats, 0.1)


def test_select_tail_classes_ignores_absent_classes():
    # class 3 never occurs, so the two smallest nonzero are 1 and 2
    stats = stats_from_counts([[50, 4, 7, 0]])
    assert select_tail_classes(stats, 0.6) == (1, 2)


def test_missing_tail_classes():
    _, lab1 = make_item([[0, 1], [0, 0]], k=4)
    _, lab2 = make_item([[0, 0], [0, 2]], k=4)
    assert missing_tail_classes([lab1, lab2], (1, 2, 3)) == (3,)
    assert missing_tail_classes([lab1], (1,)) == ()


def test_missing_tail_classes_rejects_raw_arrays_and_bad_ids():
    _, lab = make_item([[0, IGNORE], [0, 0]], k=4)
    with pytest.raises(ValidationError):
        missing_tail_classes([lab.labels], (1,))
    # -1 is IGNORE's code, not a class: it must not match ignored pixels
    for bad in (-1, 4):
        with pytest.raises(ValidationError):
            missing_tail_classes([lab], (1, bad))


def test_tail_class_ids_must_be_integers():
    # truncated, 1.5 would read as class 1 and 0.7 as class 0
    _, lab = make_item([[0, 2], [0, 0]], k=4)
    with pytest.raises(ValidationError):
        missing_tail_classes([lab], (1.5,))
    with pytest.raises(ValidationError):
        TailMemoryBank(BankConfig(memory_size=2), tail_classes=(0.7,))
    assert missing_tail_classes([lab], (np.int64(1), 2)) == (1,)
    assert TailMemoryBank(BankConfig(memory_size=2), tail_classes=(np.int32(3),)).tail_classes == (3,)


# -------------------------------------------------------------------- storing

def test_store_one_patch_per_image_class_with_tight_bbox():
    item = make_item([[0, 0, 0], [0, 3, 3], [0, 0, 3]], k=4)
    bank = TailMemoryBank(BankConfig(memory_size=5), tail_classes=(3,), seed=0)
    n = bank.store(Batch(items=(item,)))
    assert n == 1 and bank.store_size(3) == 1
    patch = bank.patches(3)[0]
    # bbox rows 1..2, cols 1..2
    assert patch.mask.shape == (2, 2)
    assert patch.mask.tolist() == [[True, True], [False, True]]
    assert np.array_equal(patch.features[..., 0], item[0].values[1:3, 1:3, 0])


def test_store_capacity_never_exceeded():
    cfg = BankConfig(memory_size=3)
    for strategy in ("random", "fifo", "lifo", "pu"):
        bank = TailMemoryBank(BankConfig(memory_size=3, strategy=strategy), (1,), seed=7)
        for i in range(10):
            item = make_item([[0, 1], [0, 0]], k=2, fill=i)
            bank.store(Batch(items=(item,)))
            assert bank.store_size(1) <= cfg.memory_size


def fill_values(bank, c):
    return [float(p.features[0, 0, 0]) for p in bank.patches(c)]


def test_fifo_evicts_oldest():
    bank = TailMemoryBank(BankConfig(memory_size=2, strategy="fifo"), (1,), seed=0)
    for i in range(4):
        bank.store(Batch(items=(make_item([[1]], k=2, fill=i),)))
    assert fill_values(bank, 1) == [2.0, 3.0]


def test_lifo_replaces_newest():
    bank = TailMemoryBank(BankConfig(memory_size=2, strategy="lifo"), (1,), seed=0)
    for i in range(4):
        bank.store(Batch(items=(make_item([[1]], k=2, fill=i),)))
    assert fill_values(bank, 1) == [0.0, 3.0]


def test_random_eviction_replays_under_same_seed():
    def run(seed):
        bank = TailMemoryBank(BankConfig(memory_size=2, strategy="random"), (1,), seed=seed)
        for i in range(8):
            bank.store(Batch(items=(make_item([[1]], k=2, fill=i),)))
        return fill_values(bank, 1)

    assert run(42) == run(42)
    runs = {tuple(run(s)) for s in range(6)}
    assert len(runs) > 1  # the victim really is random across seeds


def test_pu_prefers_previously_used_patch():
    bank = TailMemoryBank(
        BankConfig(memory_size=2, strategy="pu", sample_ratio=1.0, resize_ratio=1.0),
        (1,), seed=3)
    bank.store(Batch(items=(make_item([[1]], k=2, fill=10),)))
    bank.store(Batch(items=(make_item([[1]], k=2, fill=11),)))
    # a retrieve marks exactly one patch used
    miss_batch = Batch(items=(make_item([[0, 0], [0, 0]], k=2, fill=0),))
    out = bank.retrieve_and_paste(miss_batch)
    assert len(out.records) == 1
    used_idx = bank._used[1].index(True)
    used_value = fill_values(bank, 1)[used_idx]
    # the next eviction must hit that used patch, whatever the rng says
    bank.store(Batch(items=(make_item([[1]], k=2, fill=99),)))
    vals = fill_values(bank, 1)
    assert 99.0 in vals and used_value not in vals


# ------------------------------------------------------------------ retrieval

def two_image_batch(k=4, h=4, w=4):
    a = make_item(np.zeros((h, w), dtype=int), k=k, fill=0)
    b = make_item(np.zeros((h, w), dtype=int), k=k, fill=1)
    return Batch(items=(a, b))


def seeded_bank(seed=5, **kw):
    cfg = BankConfig(**{"memory_size": 4, "sample_ratio": 1.0, "resize_ratio": 1.0,
                        "strategy": "random", **kw})
    bank = TailMemoryBank(cfg, (2, 3), seed=seed)
    src = make_item([[0, 0, 0], [0, 2, 2], [3, 3, 0]], k=4, fill=7)
    bank.store(Batch(items=(src,)))
    return bank


def test_cold_start_empty_bank_returns_batch_unchanged():
    bank = TailMemoryBank(BankConfig(), (2, 3), seed=0)
    batch = two_image_batch()
    out = bank.retrieve_and_paste(batch)
    assert out.batch is batch
    assert out.records == () and out.skipped == ()
    assert not any(m.any() for m in out.pasted_masks)


def test_no_missing_classes_is_a_no_op():
    bank = seeded_bank()
    src = make_item([[0, 2, 3], [0, 0, 0], [0, 0, 0]], k=4)
    batch = Batch(items=(src,))
    out = bank.retrieve_and_paste(batch)
    assert out.batch is batch and out.records == ()


def test_paste_purity_and_label_consistency():
    bank = seeded_bank()
    batch = two_image_batch()
    before = [(f.values.copy(), l.labels.copy()) for f, l in batch]
    out = bank.retrieve_and_paste(batch)
    # input batch untouched
    for (f, l), (bf, bl) in zip(batch, before):
        assert np.array_equal(f.values, bf) and np.array_equal(l.labels, bl)
    assert len(out.records) == 2  # both missing classes pasted (ratio 1.0)
    for (feat, lab), mask, (bfeat, blab) in zip(out.batch, out.pasted_masks, before):
        # outside the pasted mask everything is bit-identical
        assert np.array_equal(feat.values[~mask], bfeat[~mask])
        assert np.array_equal(lab.labels[~mask], blab[~mask])
    for rec in out.records:
        feat, lab = out.batch.items[rec.image_index]
        win = (slice(rec.row, rec.row + rec.height), slice(rec.col, rec.col + rec.width))
        mask = out.pasted_masks[rec.image_index][win]
        # pasted pixels carry exactly the pasted class
        assert np.all(lab.labels[win][mask] == rec.class_id)
        # pasted features come from the stored patch bit-exactly (ratio 1.0)
        patch = next(p for p in bank.patches(rec.class_id))
        assert np.array_equal(feat.values[win][patch.mask], patch.features[patch.mask])


def test_n_sample_ceiling_formula():
    # 10 missing classes at ratio 0.05 -> exactly one attempt
    cfg = BankConfig(memory_size=2, sample_ratio=0.05, resize_ratio=1.0)
    tail = tuple(range(2, 12))
    bank = TailMemoryBank(cfg, tail, seed=1)
    src = make_item([[0, 2], [0, 0]], k=12, fill=3)
    bank.store(Batch(items=(src,)))
    batch = Batch(items=(make_item(np.zeros((3, 3), dtype=int), k=12),))
    out = bank.retrieve_and_paste(batch)
    assert len(out.records) + len(out.skipped) == 1


def test_drawn_empty_store_counts_against_budget():
    # both tail classes missing, ratio 1.0 -> 2 attempts; only class 2 has
    # a patch, so exactly one paste and one recorded skip, no redraw
    cfg = BankConfig(memory_size=2, sample_ratio=1.0, resize_ratio=1.0)
    bank = TailMemoryBank(cfg, (2, 3), seed=2)
    src = make_item([[0, 2], [0, 0]], k=4, fill=5)
    bank.store(Batch(items=(src,)))
    out = bank.retrieve_and_paste(two_image_batch())
    assert len(out.records) == 1 and out.records[0].class_id == 2
    assert out.skipped == (3,)


def test_resize_ratio_nearest_neighbor():
    cfg = BankConfig(memory_size=1, sample_ratio=1.0, resize_ratio=0.5)
    bank = TailMemoryBank(cfg, (1,), seed=4)
    # 4x4 patch of class 1 with a distinctive feature pattern
    lab = np.ones((4, 4), dtype=int)
    feats = np.arange(16, dtype=np.float32).reshape(4, 4)
    item = make_item(lab, k=2)
    item = (FeatureGrid(values=np.dstack([feats, feats])), item[1])
    bank.store(Batch(items=(item,)))
    out = bank.retrieve_and_paste(Batch(items=(make_item(np.zeros((6, 6), dtype=int), k=2, fill=0),)))
    rec = out.records[0]
    assert (rec.height, rec.width) == (2, 2)
    feat, lab = out.batch.items[0]
    win = feat.values[rec.row : rec.row + 2, rec.col : rec.col + 2, 0]
    # nearest-neighbor with floor mapping picks source rows/cols 0 and 2
    assert win.tolist() == [[0.0, 2.0], [8.0, 10.0]]


def test_resize_that_keeps_no_set_pixel_is_skipped():
    # the 3x3 patch is set only at (0, 2) and (2, 0); halved to 2x2, the
    # nearest-neighbour map reads source rows and cols 0 and 1, all unset
    cfg = BankConfig(memory_size=1, sample_ratio=1.0, resize_ratio=0.5)
    bank = TailMemoryBank(cfg, (1,), seed=0)
    bank.store(Batch(items=(make_item([[0, 0, 1], [0, 0, 0], [1, 0, 0]], k=2),)))
    item = make_item(np.zeros((4, 4), dtype=int), k=2, fill=0)
    out = bank.retrieve_and_paste(Batch(items=(item,)))
    assert out.records == () and out.skipped == (1,)
    assert out.batch.items[0] is item
    assert not out.pasted_masks[0].any()


def test_oversized_patch_is_scaled_down_to_fit():
    cfg = BankConfig(memory_size=1, sample_ratio=1.0, resize_ratio=1.0)
    bank = TailMemoryBank(cfg, (1,), seed=9)
    big = make_item(np.ones((8, 8), dtype=int), k=2, fill=2)
    bank.store(Batch(items=(big,)))
    small = Batch(items=(make_item(np.zeros((3, 5), dtype=int), k=2, fill=0),))
    out = bank.retrieve_and_paste(small)
    rec = out.records[0]
    assert rec.height <= 3 and rec.width <= 5
    assert rec.height >= 1 and rec.width >= 1


def test_paste_fits_each_patch_to_its_target_image():
    cfg = BankConfig(memory_size=1, sample_ratio=1.0, resize_ratio=1.0)
    bank = TailMemoryBank(cfg, (1,), seed=0)
    src = np.zeros((8, 8), dtype=int)
    src[2:6, 1:4] = 1
    bank.store(Batch(items=(make_item(src, k=2, fill=3),)))
    batch = Batch(items=(make_item(np.zeros((8, 8), dtype=int), k=2, fill=0),
                         make_item(np.zeros((2, 2), dtype=int), k=2, fill=0)))
    targets = set()
    for _ in range(6):
        out = bank.retrieve_and_paste(batch)
        for rec in out.records:
            h, w = batch.items[rec.image_index][1].labels.shape
            assert 0 <= rec.row and rec.row + rec.height <= h
            assert 0 <= rec.col and rec.col + rec.width <= w
        pasted = {rec.image_index for rec in out.records}
        targets |= pasted
        # an image nothing was pasted into is handed on as it is
        for i, item in enumerate(batch.items):
            assert (out.batch.items[i] is item) == (i not in pasted)
    assert targets == {0, 1}


def test_retrieve_replays_under_same_seed():
    def run(seed):
        bank = seeded_bank(seed=seed)
        return bank.retrieve_and_paste(two_image_batch()).records

    assert run(31) == run(31)


def test_bank_config_validation():
    with pytest.raises(ValidationError):
        BankConfig(memory_size=0)
    with pytest.raises(ValidationError):
        BankConfig(sample_ratio=0.0)
    with pytest.raises(ValidationError):
        BankConfig(resize_ratio=1.5)
    with pytest.raises(ValidationError):
        BankConfig(strategy="mru")
    with pytest.raises(ValidationError):
        BankConfig(tail_fraction=1.0)


def test_bank_config_memory_size_must_be_an_integer():
    # 2.5 would keep 3 patches per class
    with pytest.raises(ValidationError):
        BankConfig(memory_size=2.5, strategy="fifo")
    assert BankConfig(memory_size=np.int32(3)).memory_size == 3
