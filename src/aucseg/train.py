"""Desk-scale trainer: a per-pixel affine-softmax model under the ranking loss.

The model scores each pixel from its feature vector alone (logits =
x W + b, softmax over classes), which is enough to study the loss and
bank behavior without dragging in a real backbone. Training is plain
gradient descent with a linear warmup into a polynomial decay, batches
drawn without replacement per epoch from a seeded shuffle.

The held-out split is fixed up front from the seed and never touches the
memory bank. Checkpoints use the .segm container: magic "SEGM", u32
little-endian version (1), channels, K, then float32 weights (row-major
channels x K) and float32 bias.
"""
from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .bank import BankConfig, TailMemoryBank, missing_tail_classes, select_tail_classes
from .errors import FormatError, NumericalError, ValidationError, require_integers
from .grids import Batch, FeatureGrid, ScoreGrid, class_stats
from .losses import SURROGATES, ce_loss, combined_loss, softmax, softmax_backward
from .metrics import argmax_labels, auto_partition, iou_report, ovo_auc_metric

MODEL_MAGIC = b"SEGM"
MODEL_VERSION = 1

_MODEL_HEADER = struct.Struct("<4sIII")


class PixelModel:
    """Affine map from features to class logits, one shared set of weights."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        w = np.array(weights, dtype=np.float64)
        b = np.array(bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValidationError("weights must be (channels, K) with bias (K,)")
        self.weights = w
        self.bias = b

    @property
    def channels(self) -> int:
        return self.weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1]


def init_model(channels: int, num_classes: int, seed: int = 0) -> PixelModel:
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal((channels, num_classes))
    return PixelModel(weights=w, bias=np.zeros(num_classes))


def forward(model: PixelModel, feature_grids):
    """Score grids for a list of FeatureGrids.

    Logits are computed class-major, one (H*W,) row per class, so each
    ScoreGrid's scores are a read-only class-last view over class planes.
    """
    out = []
    weights_t, bias = model.weights.T, model.bias[:, None]
    # one errstate for the call: non-finite logits raise below, and from
    # finite logits softmax can only overflow in a difference from the
    # row max, whose exp is 0 either way
    with np.errstate(over="ignore", invalid="ignore"):
        for feat in feature_grids:
            v = feat.values if isinstance(feat, FeatureGrid) else np.asarray(feat)
            if v.shape[-1] != model.channels:
                raise ValidationError("feature channels %d != model channels %d" % (v.shape[-1], model.channels))
            logits = weights_t @ v.reshape(-1, model.channels).T.astype(np.float64)
            logits += bias
            if not np.all(np.isfinite(logits)):
                raise NumericalError("non-finite logits: parameters or features overflow")
            out.append(ScoreGrid(scores=softmax(np.moveaxis(logits.reshape((-1,) + v.shape[:-1]), 0, -1))))
    return out


def save_model(path, model: PixelModel):
    with open(path, "wb") as f:
        f.write(_MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, model.channels, model.num_classes))
        f.write(np.ascontiguousarray(model.weights, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(model.bias, dtype="<f4").tobytes())


def load_model(path) -> PixelModel:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _MODEL_HEADER.size:
        raise FormatError(len(blob), "file truncated inside the %d-byte header" % _MODEL_HEADER.size)
    magic, version, channels, k = _MODEL_HEADER.unpack_from(blob, 0)
    if magic != MODEL_MAGIC:
        raise FormatError(0, "bad magic %r, expected %r" % (magic, MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise FormatError(4, "unsupported version %d, expected %d" % (version, MODEL_VERSION))
    if channels == 0 or k == 0:
        raise FormatError(8, "zero model dimension (channels=%d, K=%d)" % (channels, k))
    expected = _MODEL_HEADER.size + 4 * (channels * k + k)
    if len(blob) < expected:
        raise FormatError(len(blob), "file truncated, expected %d bytes" % expected)
    if len(blob) > expected:
        raise FormatError(expected, "%d trailing bytes after parameters" % (len(blob) - expected))
    w = np.frombuffer(blob, dtype="<f4", count=channels * k, offset=_MODEL_HEADER.size)
    b = np.frombuffer(blob, dtype="<f4", count=k, offset=_MODEL_HEADER.size + 4 * channels * k)
    return PixelModel(weights=w.reshape(channels, k).astype(np.float64), bias=b.astype(np.float64))


@dataclass(frozen=True)
class TrainConfig:
    surrogate: str = "square"
    mode: str = "ovo"
    objective: str = "auc_ce"
    lam: float = 0.25
    pair_norm: str = "union"
    batch_size: int = 8
    max_iter: int = 500
    base_lr: float = 0.5
    lr_floor: float = 1e-6
    warmup_iters: int = 50
    eval_every: int = 100
    eval_fraction: float = 0.2
    head_count: int = 0
    middle_count: int = 0
    bank: BankConfig | None = field(default_factory=BankConfig)
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "batch_size", "max_iter", "warmup_iters", "eval_every",
                         "head_count", "middle_count", "seed")
        if self.surrogate not in SURROGATES:
            raise ValidationError("unknown surrogate %r" % (self.surrogate,))
        if self.mode not in ("ovo", "ova"):
            raise ValidationError("mode must be 'ovo' or 'ova'")
        if self.objective not in ("auc_ce", "ce"):
            raise ValidationError("objective must be 'auc_ce' or 'ce'")
        # chained comparisons, so that NaN and inf fail them
        if not (0 <= self.lam < math.inf):
            raise ValidationError("lam must be finite and >= 0")
        if self.pair_norm not in ("union", "original"):
            raise ValidationError("pair_norm must be 'union' or 'original'")
        if self.batch_size < 1 or self.max_iter < 1:
            raise ValidationError("batch_size and max_iter must be >= 1")
        if not (0 < self.base_lr < math.inf and 0 <= self.lr_floor < math.inf):
            raise ValidationError("base_lr must be finite and > 0, lr_floor finite and >= 0")
        if self.warmup_iters < 0 or self.eval_every < 1:
            raise ValidationError("warmup_iters must be >= 0 and eval_every >= 1")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ValidationError("eval_fraction must be in (0, 1)")
        if self.head_count < 0 or self.middle_count < 0:
            raise ValidationError("head_count and middle_count must be >= 0")


def learning_rate(cfg: TrainConfig, iteration: int) -> float:
    """Linear ramp lr_floor -> base_lr over warmup, then poly decay to 0."""
    if cfg.warmup_iters > 0 and iteration <= cfg.warmup_iters:
        return cfg.lr_floor + (cfg.base_lr - cfg.lr_floor) * iteration / cfg.warmup_iters
    return cfg.base_lr * (1.0 - iteration / cfg.max_iter)


@dataclass(frozen=True)
class StepLog:
    iteration: int
    loss: float
    loss_auc: float
    loss_ce: float
    lr: float
    missing: int
    pasted: int


@dataclass(frozen=True)
class EvalRow:
    iteration: int
    loss: float
    loss_auc: float
    loss_ce: float
    miou: float
    head_miou: float
    middle_miou: float
    tail_miou: float
    ovo_auc: float


METRIC_COLUMNS = tuple(f.name for f in fields(EvalRow))


@dataclass
class TrainResult:
    model: PixelModel
    steps: list
    evals: list
    train_indices: np.ndarray
    eval_indices: np.ndarray


def _backward(model, batch, scores, grads):
    dw = np.zeros_like(model.weights)
    db = np.zeros_like(model.bias)
    for (feat, _), sg, g in zip(batch, scores, grads):
        dlogits = softmax_backward(sg.scores, g)
        flat_x = feat.values.reshape(-1, model.channels).astype(np.float64)
        rows = np.moveaxis(dlogits, -1, 0).reshape(model.num_classes, -1)  # class rows, a view
        dw += flat_x.T @ rows.T
        db += rows.sum(axis=1)
    return dw, db


def evaluate(model, items, partition):
    """The eval metrics of a model on items, by name, in EvalRow's order."""
    feats = [f for f, _ in items]
    labels = [l for _, l in items]
    scores = forward(model, feats)
    report = iou_report(argmax_labels(scores), labels, partition)
    groups = report.group_means
    return {"miou": report.mean_iou, "head_miou": groups["head"], "middle_miou": groups["middle"],
            "tail_miou": groups["tail"], "ovo_auc": ovo_auc_metric(scores, labels)}


def train(items, cfg: TrainConfig) -> TrainResult:
    """Run the full loop; items is a list of (FeatureGrid, LabelGrid)."""
    items = list(items)
    if len(items) < 2:
        raise ValidationError("need at least 2 images to split train/eval")
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_split = np.random.default_rng(seeds[0])
    rng_batch = np.random.default_rng(seeds[1])
    init_seed = int(seeds[2].generate_state(1)[0])
    bank_seed = int(seeds[3].generate_state(1)[0])

    order = rng_split.permutation(len(items))
    n_eval = max(1, int(round(cfg.eval_fraction * len(items))))
    if n_eval >= len(items):
        n_eval = len(items) - 1
    eval_idx = np.sort(order[:n_eval])
    train_idx = np.sort(order[n_eval:])
    train_items = [items[i] for i in train_idx]
    eval_items = [items[i] for i in eval_idx]

    stats = class_stats([lab for _, lab in train_items])
    partition = auto_partition(stats, cfg.head_count, cfg.middle_count)

    bank = None
    if cfg.objective == "auc_ce" and cfg.bank is not None:
        tail = select_tail_classes(stats, cfg.bank.tail_fraction)
        bank = TailMemoryBank(cfg.bank, tail, seed=bank_seed)

    channels = train_items[0][0].channels
    k = train_items[0][1].num_classes
    model = init_model(channels, k, seed=init_seed)

    batch_size = min(cfg.batch_size, len(train_items))
    perm = rng_batch.permutation(len(train_items))
    pos = 0
    steps = []
    evals = []
    for it in range(1, cfg.max_iter + 1):
        if pos + batch_size > len(perm):
            perm = rng_batch.permutation(len(train_items))
            pos = 0
        sel = perm[pos : pos + batch_size]
        pos += batch_size
        batch = Batch(items=tuple(train_items[i] for i in sel))

        n_missing = 0
        n_pasted = 0
        pasted_masks = None
        if bank is not None:
            n_missing = len(missing_tail_classes(batch.labels, bank.tail_classes))
            bank.store(batch)
            res = bank.retrieve_and_paste(batch)
            batch = res.batch
            n_pasted = len(res.records)
            pasted_masks = res.pasted_masks

        scores = forward(model, batch.features)
        if cfg.objective == "ce":
            rep = ce_loss(scores, batch.labels)
            loss_auc, loss_ce = 0.0, rep.loss
        else:
            rep = combined_loss(
                scores, batch.labels, kind=cfg.surrogate, mode=cfg.mode, lam=cfg.lam,
                pasted=pasted_masks, pair_norm=cfg.pair_norm,
            )
            loss_auc, loss_ce = rep.parts["auc"], rep.parts["ce"]
        if not math.isfinite(rep.loss):
            raise NumericalError("loss is not finite at iteration %d" % it)

        dw, db = _backward(model, batch, scores, rep.gradients)
        lr = learning_rate(cfg, it)
        model.weights -= lr * dw
        model.bias -= lr * db
        if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))):
            raise NumericalError("parameters diverged at iteration %d" % it)

        steps.append(StepLog(it, rep.loss, loss_auc, loss_ce, lr, n_missing, n_pasted))
        if it % cfg.eval_every == 0 or it == cfg.max_iter:
            evals.append(EvalRow(iteration=it, loss=rep.loss, loss_auc=loss_auc, loss_ce=loss_ce,
                                 **evaluate(model, eval_items, partition)))
    return TrainResult(model=model, steps=steps, evals=evals,
                       train_indices=train_idx, eval_indices=eval_idx)


def format_number(x) -> str:
    """Integers as they are, floats to 10 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.10g" % x


def write_metrics_csv(path, evals):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRIC_COLUMNS)
        for row in evals:
            writer.writerow([format_number(getattr(row, c)) for c in METRIC_COLUMNS])


def train_and_save(items, cfg: TrainConfig, out_dir) -> TrainResult:
    os.makedirs(out_dir, exist_ok=True)
    result = train(items, cfg)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), result.evals)
    save_model(os.path.join(out_dir, "model.segm"), result.model)
    return result
