import hashlib

import numpy as np
import pytest

from aucseg import (IGNORE, FormatError, GenConfig, LabelGrid, ValidationError,
                    class_means, class_stats, generate, read_segd, write_segd,
                    zipf_shares)
from aucseg.rng import Splitmix64
from aucseg.synth import _HEADER


def dataset_digest(items):
    h = hashlib.sha256()
    for feat, lab in items:
        h.update(feat.values.tobytes())
        h.update(lab.labels.tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ generator

def small_config(**kw):
    base = dict(num_classes=4, height=12, width=12, channels=3, images=6,
                zipf_s=1.0, shapes_per_class=2, feature_noise_sigma=0.2, seed=5)
    base.update(kw)
    return GenConfig(**base)


def test_generation_is_bit_exact_per_seed():
    a, _ = generate(small_config())
    b, _ = generate(small_config())
    assert dataset_digest(a) == dataset_digest(b)
    c, _ = generate(small_config(seed=6))
    assert dataset_digest(a) != dataset_digest(c)


def test_truth_counts_equal_independent_recount():
    items, truth = generate(small_config(images=10))
    stats = class_stats([lab for _, lab in items])
    assert np.array_equal(truth.painted_counts, stats.per_image_counts)
    assert np.array_equal(truth.realized, stats.present)


def test_background_is_class_zero_and_head():
    items, truth = generate(small_config())
    totals = truth.painted_counts.sum(axis=0)
    assert totals[0] > 0
    assert totals[0] == totals.max()
    assert all(np.any(lab.labels == 0) for _, lab in items)


def test_zipf_shares_are_normalized_and_decreasing():
    s = zipf_shares(8, 1.2)
    assert abs(s.sum() - 1.0) < 1e-12
    assert all(a > b for a, b in zip(s, s[1:]))
    flat = zipf_shares(5, 0.0)
    assert np.allclose(flat, 0.2)


def test_pixel_counts_follow_zipf_ordering():
    items, truth = generate(small_config(num_classes=6, images=60, height=24,
                                         width=24, zipf_s=1.0, seed=9))
    totals = truth.painted_counts.sum(axis=0)
    assert totals[0] == totals.max()
    # rarest painted class stays well below the most common painted class
    assert totals[5] < totals[1]


def test_presence_probabilities_are_respected():
    presence = (1.0, 1.0, 0.3, 0.7)
    items, truth = generate(small_config(num_classes=4, images=1500, height=16,
                                         width=16, presence=presence,
                                         feature_noise_sigma=0.0, seed=13))
    n = truth.painted_counts.shape[0]
    realized = truth.realized.mean(axis=0)
    for c in (2, 3):
        se = np.sqrt(presence[c] * (1 - presence[c]) / n)
        assert abs(realized[c] - presence[c]) <= 3 * se
    assert truth.drawn[:, 0].all()


def test_zero_presence_class_never_appears():
    presence = (1.0, 1.0, 0.0)
    _, truth = generate(small_config(num_classes=3, presence=presence))
    assert truth.painted_counts[:, 2].sum() == 0


def test_noiseless_features_are_linearly_separable():
    cfg = small_config(feature_noise_sigma=0.0, num_classes=5, channels=3, images=4)
    items, _ = generate(cfg)
    means = class_means(5, 3)
    # nearest-mean classifier is affine: x . mu_c - |mu_c|^2 / 2
    w = means.T
    b = -0.5 * np.sum(means * means, axis=1)
    for feat, lab in items:
        logits = feat.values.astype(np.float64) @ w + b
        assert np.array_equal(logits.argmax(axis=-1), lab.labels)


def test_class_means_are_fixed_and_distinct():
    m1 = class_means(6, 4)
    m2 = class_means(6, 4)
    assert np.array_equal(m1, m2)
    assert np.abs(m1).max() <= 1.0
    assert len({tuple(row) for row in m1}) == 6


def test_gen_config_validation():
    with pytest.raises(ValidationError):
        small_config(num_classes=1)
    with pytest.raises(ValidationError):
        small_config(images=0)
    with pytest.raises(ValidationError):
        small_config(presence=(1.0, 0.5))  # wrong length
    with pytest.raises(ValidationError):
        small_config(presence=(1.0, 0.5, 1.2, 0.1))
    with pytest.raises(ValidationError):
        small_config(feature_noise_sigma=-0.1)
    with pytest.raises(ValidationError):
        small_config(zipf_s=-1.0)


@pytest.mark.parametrize("name", ["num_classes", "height", "width", "channels", "images",
                                  "shapes_per_class", "seed"])
def test_gen_config_integer_fields_reject_non_integers(name):
    # images=2.5 would pass here and fail inside generate; seed=1.5 would
    # generate the seed-1 dataset
    with pytest.raises(ValidationError):
        small_config(**{name: 2.5})
    assert getattr(small_config(**{name: np.int64(3)}), name) == 3


# ------------------------------------------------------------------ splitmix64

def test_splitmix64_known_answers():
    # canonical splitmix64 outputs for seed 0
    g = Splitmix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_block_equals_scalar_stream():
    a = Splitmix64(12345)
    b = Splitmix64(12345)
    xs = [a.next_u64() for _ in range(40)]
    assert xs == [int(v) for v in b.u64_block(40)]
    c = Splitmix64(777)
    d = Splitmix64(777)
    assert [c.random() for _ in range(20)] == list(d.random_block(20))


def test_splitmix64_randint_bounds_and_determinism():
    g = Splitmix64(3)
    vals = [g.randint(7) for _ in range(500)]
    assert min(vals) >= 0 and max(vals) < 7
    assert set(vals) == set(range(7))
    h = Splitmix64(3)
    assert vals == [h.randint(7) for _ in range(500)]


def test_splitmix64_normals_moments():
    ns = Splitmix64(2).normal_block(200000)
    assert abs(ns.mean()) < 0.01
    assert abs(ns.std() - 1.0) < 0.01


# ------------------------------------------------------------------- container

def test_segd_round_trip_bit_exact(tmp_path):
    items, _ = generate(small_config())
    p1 = tmp_path / "a.segd"
    p2 = tmp_path / "b.segd"
    write_segd(p1, items)
    back = read_segd(p1)
    write_segd(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    for (f1, l1), (f2, l2) in zip(items, back):
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(l1.labels, l2.labels)
    # features are read-only views of one file buffer, not copies
    a, b = back[0][0].values, back[1][0].values
    buf = a.base.base
    assert isinstance(buf, bytes) and b.base.base is buf
    whole = np.frombuffer(buf, dtype=np.uint8)
    assert np.shares_memory(a, whole) and np.shares_memory(b, whole)
    assert not (a.flags.owndata or a.flags.writeable)


def test_segd_file_known_answer(tmp_path):
    # digest taken with numpy 2.4.6 on x86-64; the noise goes through
    # np.log, np.cos and np.sin, which numpy may compute differently elsewhere
    items, _ = generate(small_config())
    path = tmp_path / "k.segd"
    write_segd(path, items)
    blob = path.read_bytes()
    assert len(blob) == 12124
    assert hashlib.sha256(blob).hexdigest() == (
        "df3542f2a54245b58aa9425e3465d3b6e54fec60bcf00c6db0578d444d81c2d1")


def test_segd_preserves_ignore_labels(tmp_path):
    items, _ = generate(small_config(images=1))
    feat, lab = items[0]
    patched = lab.labels.copy()
    patched[0, 0] = IGNORE
    items = [(feat, LabelGrid(labels=patched, num_classes=lab.num_classes))]
    path = tmp_path / "i.segd"
    write_segd(path, items)
    assert read_segd(path)[0][1].labels[0, 0] == IGNORE
    # the first label follows the header and the float32 features
    offset = _HEADER.size + 4 * feat.values.size
    assert path.read_bytes()[offset : offset + 2] == b"\xff\xff"


def corrupt(path, offset, payload):
    blob = bytearray(path.read_bytes())
    blob[offset : offset + len(payload)] = payload
    path.write_bytes(bytes(blob))


def test_segd_structured_errors(tmp_path):
    items, _ = generate(small_config(images=2))
    path = tmp_path / "d.segd"
    write_segd(path, items)
    good = path.read_bytes()

    corrupt(path, 0, b"XEGD")
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == 0

    path.write_bytes(good)
    corrupt(path, 4, (9).to_bytes(4, "little"))
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == 4

    path.write_bytes(good)
    corrupt(path, 12, (200).to_bytes(4, "little"))  # class count too large
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == 12

    # image sizes from a corrupt header are not trusted before the length check
    for dims in ((0xFFFFFFFF, 4, 3), (46341, 46341, 1)):
        path.write_bytes(good)
        corrupt(path, 16, b"".join(d.to_bytes(4, "little") for d in dims))
        with pytest.raises(FormatError) as e:
            read_segd(path)
        assert e.value.offset == len(good)

    # truncation points at where the data ran out
    path.write_bytes(good[: len(good) - 10])
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == len(good) - 10

    # trailing garbage points at the expected end
    path.write_bytes(good + b"zz")
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == len(good)


def test_segd_bad_label_names_exact_offset(tmp_path):
    items, _ = generate(small_config(images=1, num_classes=4))
    path = tmp_path / "d.segd"
    write_segd(path, items)
    feat, lab = items[0]
    h, w, ch = feat.values.shape
    # second label word of image 0
    off = _HEADER.size + h * w * ch * 4 + 2
    corrupt(path, off, (4).to_bytes(2, "little"))  # label == K is out of range
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == off
    assert "label 4" in str(e.value)


def test_write_segd_rejects_empty_and_mixed_dims(tmp_path):
    with pytest.raises(ValidationError):
        write_segd(tmp_path / "x.segd", [])
    a, _ = generate(small_config(images=1))
    b, _ = generate(small_config(images=1, height=8))
    with pytest.raises(ValidationError):
        write_segd(tmp_path / "x.segd", [a[0], b[0]])


def test_segd_non_finite_feature_names_exact_offset(tmp_path):
    items, _ = generate(small_config(images=2))
    path = tmp_path / "d.segd"
    write_segd(path, items)
    h, w, ch = items[0][0].values.shape
    # fifth feature value of image 1
    off = _HEADER.size + (h * w * ch * 4 + h * w * 2) + 4 * 4
    corrupt(path, off, np.array([np.nan], dtype="<f4").tobytes())
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == off
    assert "image 1" in str(e.value)


def test_segd_reports_first_problem_in_file_order(tmp_path):
    items, _ = generate(small_config(images=2, num_classes=4))
    path = tmp_path / "d.segd"
    write_segd(path, items)
    h, w, ch = items[0][0].values.shape
    label_off = _HEADER.size + h * w * ch * 4 + 2  # second label of image 0
    inf_off = _HEADER.size + h * w * ch * 4 + h * w * 2  # first feature of image 1
    corrupt(path, inf_off, np.array([np.inf], dtype="<f4").tobytes())
    corrupt(path, label_off, (4).to_bytes(2, "little"))
    with pytest.raises(FormatError) as e:
        read_segd(path)
    assert e.value.offset == label_off
    assert "label 4" in str(e.value)
