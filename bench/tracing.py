"""Spans around the program's public functions, recorded from outside.

The benchmark never edits ``src/``. It replaces module attributes (and
three grid ``__post_init__`` methods) with wrappers for the length of a
traced round and puts the originals back afterwards. Each wrapper
records a span [name, start, end, parent] in memory plus a few counts
taken where the work happens; ``layer_metrics`` turns them into the
per-layer numbers and ``write_spans`` saves them when the run ends.

``aucseg.train`` names the ``train`` function (the package re-exports it
over the submodule), so the submodules come from ``import_module``,
which returns the module itself.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

import numpy as np


def modules():
    """The aucseg submodules, by short name."""
    return {name: importlib.import_module("aucseg." + name)
            for name in ("bank", "cli", "grids", "losses", "train")}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """In-memory spans and counts.

    A span is [name, start, end, parent index or -1, images]; ``images``
    is filled only for read_segd spans, to tell dataset reads from
    held-out reads.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.bank_bytes_peak = 0
        self._open = []

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1, 0]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._open.pop()
            if after is not None:
                after(span, args, out)
            return out

        return traced

    # counts taken at the layer boundaries
    def _pair(self, span, args, out):
        self.counts["pair_calls"] += 1
        self.counts["pair_scores"] += int(np.size(args[0]) + np.size(args[1]))

    def _store(self, span, args, out):
        bank = args[0]
        self.counts["patches_stored"] += out
        held = sum(p.features.nbytes + p.mask.nbytes
                   for c in bank.tail_classes for p in bank.patches(c))
        self.bank_bytes_peak = max(self.bank_bytes_peak, held)

    def _paste(self, span, args, out):
        self.counts["pastes"] += len(out.records)
        self.counts["skipped_draws"] += len(out.skipped)

    def _generate(self, span, args, out):
        self.counts["generated_images"] += len(out[0])

    def _read(self, span, args, out):
        span[4] = len(out)

    def _train(self, span, args, out):
        self.counts["trainings"] += 1
        self.counts["steps"] += len(out.steps)

    def _coverage(self, span, args, out):
        self.counts["trials"] += out.trials

    def install(self, patches):
        m = modules()
        bank, cli, grids, losses, train = (m[n] for n in ("bank", "cli", "grids", "losses", "train"))
        plan = [
            (cli, "generate", "synth.generate", self._generate),
            (cli, "write_segd", "synth.write_segd", None),
            (cli, "read_segd", "synth.read_segd", self._read),
            (cli, "train_and_save", "train.call", None),
            (cli, "evaluate", "cli.eval", None),
            (cli, "class_stats", "metrics.diagnostics", None),
            (cli, "compute_tau", "metrics.diagnostics", None),
            (cli, "imbalance_ratio", "metrics.diagnostics", None),
            (cli, "simulate_coverage", "coverage.simulate", self._coverage),
            (train, "train", "train.loop", self._train),
            (train, "forward", "train.forward", None),
            (train, "softmax_backward", "train.softmax_backward", None),
            (train, "evaluate", "train.eval", None),
            (train, "argmax_labels", "metrics.argmax", None),
            (train, "iou_report", "metrics.iou", None),
            (train, "ovo_auc_metric", "metrics.ovo_auc", None),
            (train, "missing_tail_classes", "bank.missing", None),
            (bank, "missing_tail_classes", "bank.missing", None),
            (train, "ce_loss", "losses.ce", None),
            (losses, "ce_loss", "losses.ce", None),
            (train, "combined_loss", "losses.combined", None),
            (losses, "ovo_auc_loss", "losses.auc", None),
            (losses, "ova_auc_loss", "losses.auc", None),
            (losses, "pair_loss", "losses.pair", self._pair),
            (bank.TailMemoryBank, "store", "bank.store", self._store),
            (bank.TailMemoryBank, "retrieve_and_paste", "bank.paste", self._paste),
            (grids.Batch, "__post_init__", "grids.batch", None),
            (grids.FeatureGrid, "__post_init__", "grids.batch", None),
            (grids.LabelGrid, "__post_init__", "grids.batch", None),
        ]
        for owner, attr, name, after in plan:
            patches.set(owner, attr, self.wrap(name, getattr(owner, attr), after))


def _safe_div(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, dataset_images):
    """Per-layer figures from the spans and counts of the traced rounds.

    Step figures divide by training steps, eval figures by evaluate
    calls. ``dataset_images`` picks the read_segd calls that load the
    whole dataset. A layer that does not run in a workload reads 0.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def parent(i):
        return spans[spans[i][3]][0] if spans[i][3] >= 0 else ""

    def total(name, parents=None, self_only=False):
        acc = 0.0
        for i, s in enumerate(spans):
            if s[0] == name and (parents is None or parent(i) in parents):
                acc += dur[i] - (child[i] if self_only else 0.0)
        return acc

    def count(name, parents=None):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and (parents is None or parent(i) in parents))

    c = tracer.counts
    steps = c["steps"]
    ms = 1e3
    in_loop = ("train.loop",)
    # the eval stage's evaluate is the function cli imported, so its
    # forward and metric calls are children of the cli.eval span
    stage = ("cli.eval",)
    stage_evals = count("cli.eval")
    reads = [dur[i] for i, s in enumerate(spans) if s[0] == "synth.read_segd" and s[4] == dataset_images]
    drawn = c["pastes"] + c["skipped_draws"]
    return {
        "synth.read_segd_ms": ms * _safe_div(sum(reads), len(reads)),
        "synth.generate_ms_per_image": ms * _safe_div(total("synth.generate"), c["generated_images"]),
        "synth.write_segd_ms": ms * _safe_div(total("synth.write_segd"), count("synth.write_segd")),
        "grids.batch_ms_per_step": ms * _safe_div(total("grids.batch", ("train.loop", "bank.paste")), steps),
        "bank.missing_ms_per_step": ms * _safe_div(total("bank.missing"), steps),
        "bank.store_ms_per_step": ms * _safe_div(total("bank.store", self_only=True), steps),
        "bank.paste_ms_per_step": ms * _safe_div(total("bank.paste", self_only=True), steps),
        "bank.patches_stored": _safe_div(c["patches_stored"], c["trainings"]),
        "bank.pastes": _safe_div(c["pastes"], c["trainings"]),
        "bank.skipped_draws": _safe_div(c["skipped_draws"], c["trainings"]),
        "bank.paste_yield": _safe_div(c["pastes"], drawn),
        "bank.bytes_held_peak": float(tracer.bank_bytes_peak),
        "losses.auc_ms_per_step": ms * _safe_div(total("losses.auc"), steps),
        "losses.pair_ms_per_step": ms * _safe_div(total("losses.pair"), steps),
        "losses.auc_self_ms_per_step": ms * _safe_div(total("losses.auc", self_only=True), steps),
        "losses.pair_calls_per_step": _safe_div(c["pair_calls"], steps),
        "losses.pair_scores_per_step": _safe_div(c["pair_scores"], steps),
        "losses.ce_ms_per_step": ms * _safe_div(total("losses.ce"), steps),
        "losses.combined_self_ms_per_step": ms * _safe_div(total("losses.combined", self_only=True), steps),
        "train.forward_ms_per_step": ms * _safe_div(total("train.forward", in_loop), steps),
        "train.softmax_backward_ms_per_step": ms * _safe_div(total("train.softmax_backward"), steps),
        "train.loop_self_ms_per_step": ms * _safe_div(total("train.loop", self_only=True), steps),
        "train.eval_ms_per_eval": ms * _safe_div(total("train.eval", in_loop), count("train.eval", in_loop)),
        "train.forward_ms_per_eval": ms * _safe_div(total("train.forward", stage), stage_evals),
        "metrics.argmax_ms_per_eval": ms * _safe_div(total("metrics.argmax", stage), stage_evals),
        "metrics.iou_ms_per_eval": ms * _safe_div(total("metrics.iou", stage), stage_evals),
        "metrics.ovo_auc_ms_per_eval": ms * _safe_div(total("metrics.ovo_auc", stage), stage_evals),
        "metrics.diagnostics_ms": ms * _safe_div(total("metrics.diagnostics"), stage_evals),
        "coverage.simulate_ms_per_ktrial": ms * _safe_div(total("coverage.simulate"), c["trials"] / 1e3),
    }


def write_spans(path, tracer):
    """Save the spans as JSON lines: name, start, end, parent index."""
    with open(path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}) + "\n")
