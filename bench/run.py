"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
of the current directory. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run, whose spans are also written to ``.bench_spans/``. Scratch files go
to ``.bench_runs/`` and are removed when the run ends.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# One BLAS thread, set before numpy loads. On the 2-CPU machine of the
# README a second OpenBLAS thread makes timings depend on the state of
# its thread pool: a fixed 32768x8 @ 8x12 matmul took 13 ms in a fresh
# process and 0.4 ms after some work, and a Python loop beside it ran
# 5x slower. The program's matmuls are far too small to gain from it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "aucseg", "__init__.py")):
        print("error: no src/aucseg under %s; run from the root of a checkout" % root,
              file=sys.stderr)
        return 2
    # the program's thread pool stays at its default of one thread
    os.environ.pop("AUCSEG_THREADS", None)
    sys.path.insert(0, src)
    import aucseg
    if os.path.dirname(os.path.abspath(aucseg.__file__)) != os.path.join(src, "aucseg"):
        print("error: aucseg imported from %s, not from %s" % (aucseg.__file__, src),
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(root, ".bench_runs", "%s-%d-%d" % (w.name, args.seed, os.getpid()))
    os.makedirs(scratch)
    run = workloads.Run(workload=w, seed=args.seed, src=src, root=scratch)
    try:
        try:
            report = workloads.measure(run, args.seconds, bool(args.trace))
        except checks.CheckError as exc:
            print("check failed: %s" % exc, file=sys.stderr)
            return 1
        except workloads.OperationFailed as exc:
            # in the untimed check pass, or every timed sample of a stage
            print("operation failed: %s" % exc, file=sys.stderr)
            return 1
        if args.trace:
            metrics = workloads.per_layer(run, report)
            kind = "per_layer"
            spans = os.path.join(root, ".bench_spans")
            os.makedirs(spans, exist_ok=True)
            tracing.write_spans(os.path.join(spans, "%s-seed%d.jsonl" % (w.name, args.seed)),
                                report["tracer"])
        else:
            metrics = workloads.end_to_end(run, report)
            kind = "end_to_end"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    if set(units) != set(metrics):
        print("error: BENCHMARK.json lists %s, the run measured %s"
              % (sorted(units), sorted(metrics)), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
