"""Synthetic long-tail dense-labeling datasets and their on-disk container.

Images are a class-0 canvas with axis-aligned rectangles painted over
it, one class at a time in ascending class id. Target pixel shares
follow a zipf law in the class id, so higher ids are rarer; painting
rare classes last means they overwrite common ones rather than being
buried. Per-pixel features are a fixed per-class mean vector plus
Gaussian noise, so with zero noise a nearest-mean linear classifier
reproduces the labels exactly.

All randomness comes from the portable splitmix64 stream. Per image the
draw order is: for each class id c = 1..K-1 ascending, one uniform
presence draw, then (when present) per shape one aspect uniform and two
position draws; after painting, one normal per feature entry in
row-major, channel-fastest order. A seed therefore pins the dataset
bit-exactly.

The .segd container: magic "SEGD", then u32 little-endian version (1),
image count, K, height, width, channels, followed per image by float32
features (row-major, channel fastest) and uint16 labels (0xFFFF means
IGNORE).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError, require_integers
from .grids import MAX_CLASSES, FeatureGrid, LabelGrid
from .rng import GOLDEN, Splitmix64, mix64

MAGIC = b"SEGD"
VERSION = 1
IGNORE_CODE = 0xFFFF

_HEADER = struct.Struct("<4sIIIIII")

_MEAN_SALT = 0x5EED5EED5EED5EED


def class_mean(class_id: int, channel: int) -> float:
    """Fixed per-class feature mean in [-1, 1], independent of the seed."""
    h = mix64((_MEAN_SALT + (class_id * 65536 + channel + 1) * GOLDEN) & 0xFFFFFFFFFFFFFFFF)
    return 2.0 * ((h >> 11) / float(1 << 53)) - 1.0


def class_means(num_classes: int, channels: int) -> np.ndarray:
    return np.array(
        [[class_mean(c, ch) for ch in range(channels)] for c in range(num_classes)],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class GenConfig:
    num_classes: int
    height: int
    width: int
    channels: int
    images: int
    zipf_s: float = 1.0
    presence: tuple = ()
    shapes_per_class: int = 2
    feature_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "num_classes", "height", "width", "channels", "images",
                         "shapes_per_class", "seed")
        if not (2 <= self.num_classes <= MAX_CLASSES):
            raise ValidationError("num_classes must be in [2, %d], got %d" % (MAX_CLASSES, self.num_classes))
        if self.height < 1 or self.width < 1:
            raise ValidationError("height and width must be >= 1")
        if self.channels < 1:
            raise ValidationError("channels must be >= 1")
        if self.images < 1:
            raise ValidationError("images must be >= 1")
        if not (self.zipf_s >= 0.0):
            raise ValidationError("zipf_s must be >= 0, got %r" % (self.zipf_s,))
        pres = tuple(float(p) for p in self.presence) if self.presence else (1.0,) * self.num_classes
        if len(pres) != self.num_classes:
            raise ValidationError("presence must have one entry per class, got %d" % len(pres))
        if any(not (0.0 <= p <= 1.0) for p in pres):
            raise ValidationError("presence probabilities must lie in [0, 1]")
        if self.shapes_per_class < 1:
            raise ValidationError("shapes_per_class must be >= 1")
        if not (self.feature_noise_sigma >= 0.0):
            raise ValidationError("feature_noise_sigma must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        object.__setattr__(self, "presence", pres)


@dataclass(frozen=True)
class GeneratorTruth:
    """Exact per-image bookkeeping recorded while painting.

    painted_counts[i, c] is the number of class-c pixels image i ends up
    with, tracked incrementally as rectangles overwrite each other.
    drawn[i, c] says the presence draw admitted class c (class 0, the
    canvas, is always drawn); realized[i, c] says the class survived
    with at least one pixel.
    """

    painted_counts: np.ndarray
    drawn: np.ndarray

    @property
    def realized(self) -> np.ndarray:
        return self.painted_counts > 0


def zipf_shares(num_classes: int, s: float) -> np.ndarray:
    w = np.arange(1, num_classes + 1, dtype=np.float64) ** (-s)
    return w / w.sum()


def generate(config: GenConfig):
    """Build the dataset; returns (items, truth) with items = [(features, labels)]."""
    k = config.num_classes
    h, w = config.height, config.width
    rng = Splitmix64(config.seed)
    shares = zipf_shares(k, config.zipf_s)
    means = class_means(k, config.channels)
    shape_area = np.maximum(1.0, shares * (h * w) / config.shapes_per_class)

    counts = np.zeros((config.images, k), dtype=np.int64)
    drawn = np.zeros((config.images, k), dtype=bool)
    drawn[:, 0] = True
    items = []
    for i in range(config.images):
        labels = np.zeros((h, w), dtype=np.int32)
        counts[i, 0] = h * w
        for c in range(1, k):
            if rng.random() >= config.presence[c]:
                continue
            drawn[i, c] = True
            area = shape_area[c]
            for _ in range(config.shapes_per_class):
                aspect = rng.uniform(0.5, 2.0)
                rh = min(h, max(1, int(round(math.sqrt(area * aspect)))))
                rw = min(w, max(1, int(round(area / rh))))
                r0 = rng.randint(h - rh + 1)
                c0 = rng.randint(w - rw + 1)
                region = labels[r0 : r0 + rh, c0 : c0 + rw]
                counts[i] -= np.bincount(region.ravel(), minlength=k)
                counts[i, c] += rh * rw
                region[:] = c
        feats = means[labels]
        if config.feature_noise_sigma > 0.0:
            noise = rng.normal_block(h * w * config.channels).reshape(h, w, config.channels)
            feats = feats + config.feature_noise_sigma * noise
        items.append(
            (
                FeatureGrid(values=feats.astype(np.float32)),
                LabelGrid(labels=labels, num_classes=k),
            )
        )
    return items, GeneratorTruth(painted_counts=counts, drawn=drawn)


def write_segd(path, items):
    """Serialize a dataset; all images must share dims and class count."""
    items = list(items)
    if not items:
        raise ValidationError("empty dataset")
    feat0, lab0 = items[0]
    h, w, ch = feat0.values.shape
    k = lab0.num_classes
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, len(items), k, h, w, ch))
        for i, (feat, lab) in enumerate(items):
            if feat.values.shape != (h, w, ch) or lab.labels.shape != (h, w) or lab.num_classes != k:
                raise ValidationError("image %d does not match dataset dims" % i)
            f.write(np.ascontiguousarray(feat.values, dtype="<f4").tobytes())
            # int32 IGNORE (-1) wraps to IGNORE_CODE, mirroring read_segd's int16 view
            f.write(lab.labels.astype("<u2").tobytes())


def read_segd(path):
    """Parse a .segd file back into [(FeatureGrid, LabelGrid)].

    Features are read-only views of the file buffer, which stays in
    memory while any of them lives. Malformed input raises FormatError
    carrying the byte offset of the first problem in file order.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise FormatError(len(blob), "file truncated inside the %d-byte header" % _HEADER.size)
    magic, version, n_images, k, h, w, ch = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(0, "bad magic %r, expected %r" % (magic, MAGIC))
    if version != VERSION:
        raise FormatError(4, "unsupported version %d, expected %d" % (version, VERSION))
    if n_images == 0:
        raise FormatError(8, "empty dataset")
    if not (2 <= k <= MAX_CLASSES):
        raise FormatError(12, "class count %d outside [2, %d]" % (k, MAX_CLASSES))
    if h == 0 or w == 0 or ch == 0:
        raise FormatError(16, "zero image dimension (h=%d, w=%d, c=%d)" % (h, w, ch))
    feat_bytes, lab_bytes = h * w * ch * 4, h * w * 2  # Python ints: a corrupt header cannot overflow them
    expected = _HEADER.size + n_images * (feat_bytes + lab_bytes)
    if len(blob) < expected:
        raise FormatError(len(blob), "file truncated, expected %d bytes" % expected)
    if len(blob) > expected:
        raise FormatError(expected, "%d trailing bytes after the last image" % (len(blob) - expected))
    items = []
    for i, off in enumerate(range(_HEADER.size, expected, feat_bytes + lab_bytes)):
        feats = np.frombuffer(blob, dtype="<f4", count=h * w * ch, offset=off).reshape(h, w, ch)
        bad = np.flatnonzero(~np.isfinite(feats.reshape(-1)))
        if bad.size:
            raise FormatError(off + int(bad[0]) * 4, "non-finite feature value in image %d" % i)
        off += feat_bytes
        raw = np.frombuffer(blob, dtype="<u2", count=h * w, offset=off)
        bad = np.flatnonzero((raw != IGNORE_CODE) & (raw >= k))
        if bad.size:
            raise FormatError(off + int(bad[0]) * 2, "label %d outside [0, %d) in image %d" % (int(raw[bad[0]]), k, i))
        # as int16 0xFFFF reads as IGNORE (-1); LabelGrid makes the one int32 copy
        labels = raw.view("<i2").reshape(h, w)
        items.append((FeatureGrid(values=feats), LabelGrid(labels=labels, num_classes=int(k))))
    return items
