"""Steadiness check: two sets of runs of every workload on the same code.

    python3 bench/steady.py

Run from the root of a checkout. Set 1 runs every workload once with
each of the seeds 1-10, set 2 with the seeds 11-20; the workloads are
interleaved, each run lasts ``run_seconds`` from BENCHMARK.json and
tracing is off. For every end-to-end metric the table gives each set's
median and quartiles, each set's spread (quartile distance over the
median) and the change of the second median against the first. A
metric passes when both spreads and the size of the change, in either
direction, are within its bound. The share of failed operations must
be the same in both sets. Exits 1 when anything fails.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

SEEDS = 10


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s seed %d failed (%d):\n%s" % (workload, seed, out.returncode,
                                                          out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    results = {w: ([], []) for w in names}
    for s in range(2):
        for i in range(SEEDS):
            seed = 1 + s * SEEDS + i
            for w in names:
                r = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(r)
                print("set %d seed %d %s: failed %d/%d %s" % (
                    s + 1, seed, w, r["failed"], r["attempted"], " ".join(
                        "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                    file=sys.stderr, flush=True)
    ok = True
    print("%-22s %-22s %-36s %-36s %s" % ("workload", "metric", "set1 median [q1, q3] spread",
                                           "set2 median [q1, q3] spread", "change  verdict"))
    for w in names:
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in results[w]]
        if shares[0] != shares[1]:
            ok = False
            print("%s: failed shares differ between the sets: %r" % (w, shares))
        for m in bench["end_to_end"]:
            sets = [summarize([r["metrics"][m["name"]]["value"] for r in runs])
                    for runs in results[w]]
            change = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            good = all(x["spread"] <= m["bound"] for x in sets) and abs(change) <= m["bound"]
            ok &= good
            print("%-22s %-22s %s  %+7.2f%%  %s (bound %g)" % (
                w, m["name"], "  ".join("%-34s" % ("%.5g [%.5g, %.5g] %.2f%%" % (
                    x["median"], x["q1"], x["q3"], 100 * x["spread"])) for x in sets),
                100 * change, "ok" if good else "FAIL", m["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
