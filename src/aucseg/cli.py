"""Command line front end.

Subcommands: gen-data, train, eval, simulate-coverage, bench-loss.
Exit codes: 0 success, 2 usage, 3 input validation, 4 numerical failure.
Structured errors go to stderr as ``error: <code>: <message>``; tabular
output is always CSV. bench-loss times the one-vs-one loss of the
class-pair engine against a sum of all-pairs ``pair_loss_naive`` terms
over the ordered class pairs, and fails unless the two agree to 1e-9.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import fields

import numpy as np

from .bank import STRATEGIES, BankConfig
from .coverage import required_batch_size, simulate_coverage, union_bound
from .errors import NumericalError, ValidationError
from .grids import MAX_CLASSES, class_stats
from .losses import SURROGATES, ovo_auc_loss, pair_loss_naive, softmax
from .metrics import auto_partition, compute_tau, imbalance_ratio
from .synth import GenConfig, generate, read_segd, write_segd
from .train import TrainConfig, evaluate, format_number, load_model, train_and_save


def _size(text: str):
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except Exception:
        raise argparse.ArgumentTypeError("size must look like 64x64, got %r" % text)


def _writer(path):
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", newline="")


def _emit_csv(path, header, rows):
    out = _writer(path)
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_gen_data(args) -> int:
    if not 0 <= args.tail_count < args.classes:
        raise ValidationError("tail_count must be >= 0 and leave at least one non-tail class, got %d"
                              % args.tail_count)
    # class 0 is the canvas, always present; the last tail_count classes are the tail
    head = args.classes - args.tail_count
    presence = (1.0,) + (args.presence,) * (head - 1) + (args.tail_presence,) * args.tail_count
    cfg = GenConfig(
        num_classes=args.classes,
        height=args.size[0],
        width=args.size[1],
        channels=args.channels,
        images=args.images,
        zipf_s=args.zipf,
        presence=presence,
        shapes_per_class=args.shapes_per_class,
        feature_noise_sigma=args.noise,
        seed=args.seed,
    )
    items, truth = generate(cfg)
    write_segd(args.out, items)
    print("wrote %d images (%dx%d, %d classes, %d channels) to %s"
          % (len(items), cfg.height, cfg.width, cfg.num_classes, cfg.channels, args.out))
    return 0


def cmd_train(args) -> int:
    items = read_segd(args.data)
    # the train flags are parsed under their config field names
    flags = vars(args)
    bank = None
    if args.memory_size > 0:
        bank = BankConfig(**{f.name: flags[f.name] for f in fields(BankConfig)})
    config = {f.name: flags[f.name] for f in fields(TrainConfig) if f.name != "bank"}
    config["objective"] = args.objective.replace("-", "_")
    cfg = TrainConfig(bank=bank, **config)
    result = train_and_save(items, cfg, args.out)
    last = result.evals[-1]
    print("finished %d iterations: miou=%s tail_miou=%s ovo_auc=%s (outputs in %s)"
          % (last.iteration, format_number(last.miou), format_number(last.tail_miou),
             format_number(last.ovo_auc), args.out))
    return 0


def cmd_eval(args) -> int:
    items = read_segd(args.data)
    model = load_model(args.model)
    labels = [lab for _, lab in items]
    stats = class_stats(labels)
    partition = auto_partition(stats, args.head_count, args.middle_count)
    row = evaluate(model, items, partition)
    row["tau"] = compute_tau(stats)
    row["tau_mean_normalized"] = compute_tau(stats, mean_normalized=True)
    row["imbalance_ratio"] = imbalance_ratio(stats, partition.head)
    _emit_csv(args.out, list(row), [[format_number(v) for v in row.values()]])
    return 0


def cmd_simulate_coverage(args) -> int:
    required = required_batch_size(args.classes, args.pmin, args.delta)
    presence = np.full(args.classes, args.pmin)
    sizes = [b for b in (required - 1, required, 2 * required) if b >= 1]
    rows = []
    for b in dict.fromkeys(sizes):
        res = simulate_coverage(presence, b, args.trials, seed=args.seed)
        rows.append([b, required, format_number(union_bound(args.classes, args.pmin, b)),
                     res.failures, res.trials, format_number(res.failure_rate)])
    _emit_csv(args.out,
              ["batch_size", "required_batch_size", "union_bound", "failures", "trials", "failure_rate"],
              rows)
    return 0


def _ovo_loss_naive(scores, labels, kind):
    """One-vs-one loss as a sum of all-pairs terms over ordered class pairs."""
    present = np.unique(labels)
    return sum(pair_loss_naive(scores[labels == c, c], scores[labels == j, c], kind).loss
               for c in present for j in present if j != c)


def cmd_bench_loss(args) -> int:
    if not 2 <= args.classes <= MAX_CLASSES or args.pixels < 2 * args.classes or args.repeat < 1:
        raise ValidationError("need 2 to %d classes, 2 pixels per class and 1 repeat" % MAX_CLASSES)
    rng = np.random.default_rng(args.seed)
    labels = np.concatenate([np.arange(args.classes),
                             rng.integers(args.classes, size=args.pixels - args.classes)])
    labels = labels[rng.permutation(args.pixels)].astype(np.int32)
    scores = softmax(rng.standard_normal((args.pixels, args.classes)))
    arms = {
        "naive": lambda kind: _ovo_loss_naive(scores, labels, kind),
        "fast": lambda kind: ovo_auc_loss([scores[None]], [labels[None]], kind=kind).loss,
    }
    kinds = SURROGATES if args.surrogate == "all" else (args.surrogate,)
    rows = []
    for kind in kinds:
        results = {}
        for kernel, fn in arms.items():
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                loss = fn(kind)
                best = min(best, time.perf_counter() - t0)
            results[kernel] = (best, loss)
        naive_loss, fast_loss = results["naive"][1], results["fast"][1]
        if abs(fast_loss - naive_loss) > 1e-9 * max(1.0, abs(naive_loss)):
            raise NumericalError(
                "fast %s loss disagrees with naive: %.17g vs %.17g" % (kind, fast_loss, naive_loss))
        for kernel, (seconds, loss) in results.items():
            rows.append([kind, kernel, args.pixels, args.classes,
                         format_number(seconds), format_number(loss)])
    _emit_csv(args.out, ["surrogate", "kernel", "pixels", "classes", "seconds", "loss"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aucseg",
        description="Pixel-level pairwise ranking losses for long-tail dense labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset (.segd)")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--images", type=int, required=True)
    g.add_argument("--size", type=_size, required=True, help="HxW, e.g. 48x48")
    g.add_argument("--zipf", type=float, default=1.0)
    g.add_argument("--channels", type=int, default=4)
    g.add_argument("--shapes-per-class", type=int, default=2)
    g.add_argument("--noise", type=float, default=0.1)
    g.add_argument("--presence", type=float, default=1.0)
    g.add_argument("--tail-count", type=int, default=0)
    g.add_argument("--tail-presence", type=float, default=0.05)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train the per-pixel model")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--surrogate", choices=SURROGATES, default=TrainConfig.surrogate)
    t.add_argument("--mode", choices=("ovo", "ova"), default=TrainConfig.mode)
    t.add_argument("--objective", choices=("auc-ce", "ce"), default=TrainConfig.objective.replace("_", "-"))
    t.add_argument("--lambda", dest="lam", type=float, default=TrainConfig.lam)
    t.add_argument("--pair-norm", choices=("union", "original"), default=TrainConfig.pair_norm)
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    t.add_argument("--max-iter", type=int, default=TrainConfig.max_iter)
    t.add_argument("--base-lr", type=float, default=TrainConfig.base_lr)
    t.add_argument("--lr-floor", type=float, default=TrainConfig.lr_floor)
    t.add_argument("--warmup-iters", type=int, default=TrainConfig.warmup_iters)
    t.add_argument("--eval-every", type=int, default=TrainConfig.eval_every)
    t.add_argument("--eval-fraction", type=float, default=TrainConfig.eval_fraction)
    t.add_argument("--head-count", type=int, default=TrainConfig.head_count)
    t.add_argument("--middle-count", type=int, default=TrainConfig.middle_count)
    t.add_argument("--memory-size", type=int, default=BankConfig.memory_size, help="0 disables the bank")
    t.add_argument("--sample-ratio", type=float, default=BankConfig.sample_ratio)
    t.add_argument("--resize-ratio", type=float, default=BankConfig.resize_ratio)
    t.add_argument("--strategy", choices=STRATEGIES, default=BankConfig.strategy)
    # deliberately not BankConfig.tail_fraction (0.5): see the README's memory bank note
    t.add_argument("--tail-fraction", type=float, default=0.34)
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--head-count", type=int, default=0)
    e.add_argument("--middle-count", type=int, default=0)
    e.add_argument("--out", default=None, help="CSV path, default stdout")
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("simulate-coverage", help="class coverage bound vs Monte Carlo")
    s.add_argument("--classes", type=int, required=True)
    s.add_argument("--pmin", type=float, required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--trials", type=int, default=100000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None, help="CSV path, default stdout")
    s.set_defaults(fn=cmd_simulate_coverage)

    b = sub.add_parser("bench-loss", help="naive vs decomposed loss timings")
    b.add_argument("--pixels", type=int, required=True)
    b.add_argument("--classes", type=int, default=2)
    b.add_argument("--surrogate", choices=SURROGATES + ("all",), default="all")
    b.add_argument("--repeat", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None, help="CSV path, default stdout")
    b.set_defaults(fn=cmd_bench_loss)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print("error: validation: %s" % exc, file=sys.stderr)
        return 3
    except NumericalError as exc:
        print("error: numerical: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("error: validation: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
