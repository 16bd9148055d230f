"""The benchmark's workloads and the timed rounds that run them.

Every workload is a user session of the CLI, repeated in whole rounds
until the run's time is spent. A round is

    C -> train -> C -> eval -> C,   C = twice (gen-data, fresh-process set-up, simulate-coverage)

The long stages (train, eval) run once per round. The cheap stages run
six times, spread around them, because this machine's speed varies by
tens of percent from one second to the next: a time sampled at one
moment would measure the moment, not the program. Each end-to-end rate
is the median of its stage's per-sample rates, and ``setup_s`` the
median set-up time, all as timed.

The sizes and flags of each stage differ per workload, so each stresses
other layers. The program is called in-process through ``aucseg.cli.main``
with the flags a user would type; its inputs are generated from the run's
seed, and every round repeats the same operations on the same inputs.

Before the timed rounds an untimed check pass runs gen-data and a short
training with hooks that keep what the output checks need (one step's
loss inputs, the bank's pastes and store sizes), checks them and drops
them. It also warms the process up. ``peak_rss_mib`` is read after the
check pass and the first round; the other checks run after the timed
rounds.

Each CLI command of a round is one operation. An operation whose
command exits non-zero is counted as failed and gives no sample.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import resource
import statistics
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import checks
import tracing

BATCH = "8"

_K12 = ("--classes", "12", "--images", "400", "--size", "48x48", "--channels", "6",
        "--zipf", "1.2", "--noise", "0.35", "--tail-count", "4", "--tail-presence", "0.05")
_K32 = ("--classes", "32", "--images", "400", "--size", "48x48", "--channels", "8",
        "--zipf", "1.2", "--noise", "0.35", "--tail-count", "10", "--tail-presence", "0.05")
_K19 = ("--classes", "19", "--images", "300", "--size", "64x64", "--channels", "6",
        "--zipf", "1.2", "--noise", "0.35", "--tail-count", "6", "--tail-presence", "0.05")


@dataclass(frozen=True)
class Workload:
    name: str
    data: tuple        # gen-data flags; --out and --seed are added per run
    train: tuple       # train flags; --data, --out and --seed are added
    coverage: tuple    # simulate-coverage flags; --out and --seed are added
    check_iters: int   # length of the hooked training in the check pass
    eval_heldout: bool  # eval the held-out split (True) or the whole dataset

    @property
    def classes(self):
        return int(flag(self.data, "--classes"))

    @property
    def images(self):
        return int(flag(self.data, "--images"))

    @property
    def max_iter(self):
        return int(flag(self.train, "--max-iter"))

    @property
    def auc(self):
        return flag(self.train, "--objective") == "auc-ce"

    @property
    def coverage_args(self):
        """(K, p_min, delta, trials) of the simulate-coverage stage."""
        c = self.coverage
        return (int(flag(c, "--classes")), float(flag(c, "--pmin")),
                float(flag(c, "--delta")), int(flag(c, "--trials")))


def flag(argv, name):
    return argv[argv.index(name) + 1]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_ovo_square_k12",
        data=_K12,
        train=("--objective", "auc-ce", "--surrogate", "square", "--mode", "ovo",
               "--batch-size", BATCH, "--max-iter", "150", "--warmup-iters", "15",
               "--eval-every", "50"),
        coverage=("--classes", "12", "--pmin", "0.05", "--delta", "0.01", "--trials", "10000"),
        check_iters=40,
        eval_heldout=True,
    ),
    Workload(
        name="train_ce_k12",
        data=_K12,
        train=("--objective", "ce", "--batch-size", BATCH, "--max-iter", "300",
               "--warmup-iters", "30", "--eval-every", "300"),
        coverage=("--classes", "12", "--pmin", "0.05", "--delta", "0.01", "--trials", "10000"),
        check_iters=40,
        eval_heldout=True,
    ),
    Workload(
        name="train_ova_hinge_k32",
        data=_K32,
        train=("--objective", "auc-ce", "--surrogate", "hinge", "--mode", "ova",
               "--memory-size", "10", "--sample-ratio", "0.2", "--batch-size", BATCH,
               "--max-iter", "100", "--warmup-iters", "10", "--eval-every", "100"),
        coverage=("--classes", "32", "--pmin", "0.05", "--delta", "0.01", "--trials", "6000"),
        check_iters=40,
        eval_heldout=True,
    ),
    Workload(
        name="diagnose_k19",
        data=_K19,
        train=("--objective", "ce", "--batch-size", BATCH, "--max-iter", "120",
               "--warmup-iters", "12", "--eval-every", "120"),
        coverage=("--classes", "19", "--pmin", "0.01", "--delta", "0.01", "--trials", "2000"),
        check_iters=10,
        eval_heldout=False,
    ),
)}


class OperationFailed(RuntimeError):
    pass


def cli_main(argv):
    """Run one CLI command in-process; its stdout is kept, not printed."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracing.modules()["cli"].main(list(argv))
    if code != 0:
        raise OperationFailed("aucseg %s exited with %d" % (" ".join(argv), code))


def timed(fn, *args):
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


_SETUP_CODE = ("import sys\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "import aucseg\n"
               "aucseg.read_segd(sys.argv[2])\n"
               "if len(sys.argv) > 3:\n"
               "    aucseg.load_model(sys.argv[3])\n")


@dataclass
class Run:
    """Paths and per-run state of one workload run."""

    workload: Workload
    seed: int
    src: str
    root: str
    train_s: float = 0.0
    train_images: int = 0
    train_result: object = None
    eval_images: int = 0
    gen_config: object = None
    gen_truth: object = None

    def path(self, name):
        return os.path.join(self.root, name)

    @property
    def data(self):
        return self.path("data.segd")

    @property
    def eval_data(self):
        return self.path("heldout.segd") if self.workload.eval_heldout else self.data

    @property
    def model(self):
        return self.path(os.path.join("train", "model.segm"))

    def argv(self, command, flags, out):
        return [command, "--out", out, *flags, "--seed", str(self.seed)]

    def train_argv(self, flags, out_dir):
        return ["train", "--data", self.data, "--out", self.path(out_dir), *flags,
                "--seed", str(self.seed)]


def install_capture(run, patches):
    """Keep each training's result, time and images, and each dataset's truth.

    The images are counted where the loop hands a batch to its loss (one
    call per step, ``ce_loss`` or ``combined_loss``), which adds one
    Python call to a step of milliseconds; the rest is one wrapper call
    per CLI command.
    """
    m = tracing.modules()
    cli, train_mod = m["cli"], m["train"]
    train_and_save = cli.train_and_save
    generate = cli.generate

    def capture_train(items, cfg, out_dir):
        run.train_images = 0
        t0 = perf_counter()
        result = train_and_save(items, cfg, out_dir)
        run.train_s = perf_counter() - t0
        run.train_result = result
        return result

    def count_images(fn):
        @functools.wraps(fn)
        def loss(scores, labels, **kw):
            run.train_images += len(labels)
            return fn(scores, labels, **kw)
        return loss

    def capture_generate(config):
        items, truth = generate(config)
        run.gen_config, run.gen_truth = config, truth
        return items, truth

    patches.set(cli, "train_and_save", capture_train)
    patches.set(cli, "generate", capture_generate)
    patches.set(train_mod, "ce_loss", count_images(train_mod.ce_loss))
    patches.set(train_mod, "combined_loss", count_images(train_mod.combined_loss))


@dataclass
class CheckPass:
    """What the hooked training keeps for the output checks."""

    loss_step: tuple = None      # (reported auc loss, scores, labels, kind, mode)
    pastes: list = field(default_factory=list)   # (records, labels before, after, masks)
    max_store: dict = field(default_factory=dict)
    memory_size: int = 0


def check_pass(run):
    """Untimed gen-data plus a short hooked training, and their checks.

    Writes the held-out split for the eval stage. What the hooks kept is
    checked here and dropped, so it holds no memory in the timed rounds.
    """
    w = run.workload
    cli_main(run.argv("gen-data", w.data, run.data))
    m = tracing.modules()
    train_mod, bank_mod = m["train"], m["bank"]
    cp = CheckPass()
    patches = tracing.Patches()

    def hook_combined(fn):
        def combined_loss(scores, labels, **kw):
            rep = fn(scores, labels, **kw)
            pasted = kw.get("pasted")
            if cp.loss_step is None or (pasted is not None and any(p.any() for p in pasted)):
                cp.loss_step = (rep.parts["auc"], [s.scores for s in scores],
                                [l.labels for l in labels], kw["kind"], kw["mode"])
            return rep
        return combined_loss

    def hook_store(fn):
        def store(bank, batch):
            n = fn(bank, batch)
            cp.memory_size = bank.config.memory_size
            for c in bank.tail_classes:
                cp.max_store[c] = max(cp.max_store.get(c, 0), bank.store_size(c))
            return n
        return store

    def hook_retrieve(fn):
        def retrieve_and_paste(bank, batch):
            res = fn(bank, batch)
            if res.records:
                recs = [(r.class_id, r.image_index, r.row, r.col, r.height, r.width)
                        for r in res.records]
                cp.pastes.append((recs, [l.labels for l in batch.labels],
                                  [l.labels for l in res.batch.labels], res.pasted_masks))
            return res
        return retrieve_and_paste

    patches.set(train_mod, "combined_loss", hook_combined(train_mod.combined_loss))
    patches.set(bank_mod.TailMemoryBank, "store", hook_store(bank_mod.TailMemoryBank.store))
    patches.set(bank_mod.TailMemoryBank, "retrieve_and_paste",
                hook_retrieve(bank_mod.TailMemoryBank.retrieve_and_paste))
    flags = list(w.train)
    flags[flags.index("--max-iter") + 1] = str(w.check_iters)
    flags[flags.index("--eval-every") + 1] = str(w.check_iters)
    try:
        cli_main(run.train_argv(flags, "train"))
    finally:
        patches.restore()

    check_steps(run.train_images, len(run.train_result.steps), w.check_iters)
    if w.auc:
        reported, scores, labels, kind, mode = cp.loss_step
        checks.check_auc_loss(reported, scores, labels, kind, mode)
        for records, before, after, masks in cp.pastes:
            checks.check_pastes(records, before, after, masks)
        checks.check_store_sizes(cp.max_store, cp.memory_size)

    run.eval_images = w.images
    if w.eval_heldout:
        aucseg = sys.modules["aucseg"]
        items = aucseg.read_segd(run.data)
        held_out = [items[i] for i in run.train_result.eval_indices]
        aucseg.write_segd(run.eval_data, held_out)
        run.eval_images = len(held_out)


STAGES = ("gen", "setup", "train", "eval", "coverage")


def run_round(run, tracer=None):
    """One timed round: cheap stages, train, cheap stages, eval, cheap stages.

    Returns (work, seconds) samples per stage, the outputs to check, and
    the operations attempted and failed. A failed operation is reported
    on stderr and gives no sample.
    """
    w = run.workload
    samples = {stage: [] for stage in STAGES}
    outputs = {"eval_rows": [], "coverage_rows": [], "train_steps": []}
    counts = {"attempted": 0, "failed": 0}
    model = None if w.eval_heldout else run.model

    def attempt(fn, *args):
        """Seconds that one operation took, or None when it failed."""
        counts["attempted"] += 1
        try:
            return fn(*args)
        except OperationFailed as exc:
            counts["failed"] += 1
            print("operation failed: %s" % exc, file=sys.stderr)
            return None

    def cheap():
        for _ in range(2):
            seconds = attempt(timed, cli_main, run.argv("gen-data", w.data, run.data))
            if seconds is not None:
                samples["gen"].append((w.images, seconds))
            seconds = attempt(setup_once, run.src, run.data, model)
            if seconds is not None:
                samples["setup"].append((1, seconds))
            seconds = attempt(timed, cli_main, run.argv("simulate-coverage", w.coverage,
                                                        run.path("coverage.csv")))
            if seconds is not None:
                rows = read_csv(run.path("coverage.csv"))
                samples["coverage"].append((sum(int(r["trials"]) for r in rows), seconds))
                outputs["coverage_rows"].append(rows)

    patches = tracing.Patches()
    if tracer is not None:
        tracer.install(patches)
    try:
        cheap()
        if attempt(timed, cli_main, run.train_argv(w.train, "train")) is not None:
            samples["train"].append((run.train_images, run.train_s))
            outputs["train_steps"].append(len(run.train_result.steps))
        cheap()
        seconds = attempt(timed, cli_main, ["eval", "--data", run.eval_data, "--model",
                                            run.model, "--out", run.path("eval.csv")])
        if seconds is not None:
            samples["eval"].append((run.eval_images, seconds))
            outputs["eval_rows"].append(read_csv(run.path("eval.csv"))[0])
        cheap()
    finally:
        patches.restore()
    return {"samples": samples, "outputs": outputs, **counts}


def setup_once(src, data, model=None):
    """Wall time of a fresh interpreter importing aucseg and loading the inputs.

    ``wait()`` without a timeout blocks in waitpid; with one, it polls in
    sleeps of up to 50 ms, which would quantize the measurement. A timer
    kills a child that hangs instead.
    """
    argv = [sys.executable, "-c", _SETUP_CODE, src, data] + ([model] if model else [])
    t0 = perf_counter()
    child = subprocess.Popen(argv, stdin=subprocess.DEVNULL)
    timer = threading.Timer(120.0, child.kill)
    timer.start()
    try:
        code = child.wait()
    finally:
        timer.cancel()
    seconds = perf_counter() - t0
    if code != 0:
        raise OperationFailed("set-up exited with %d" % code)
    return seconds


def measure(run, seconds, trace):
    """Timed rounds for about ``seconds``; returns the report.

    Another round starts while, at the mean length of the rounds so far,
    it would end nearer to ``seconds`` than stopping now does, so a run
    measures ``seconds`` to within half a round, and at least one round.
    A traced run alternates untraced and traced rounds, at
    least one of each, and reports the per-layer figures of its traced
    rounds plus the tracing overhead against its untraced ones.
    """
    patches = tracing.Patches()
    install_capture(run, patches)
    try:
        check_pass(run)
        tracer = tracing.Tracer() if trace else None
        rounds, traced = [], []
        start = perf_counter()
        while True:
            on = trace and (len(rounds) + len(traced)) % 2 == 1
            (traced if on else rounds).append(run_round(run, tracer if on else None))
            n = len(rounds) + len(traced)
            if n == 1:
                # Later rounds repeat the same work, but the C heap keeps
                # some of what they free, so the peak after a fixed number
                # of rounds is the one that repeats from run to run.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = perf_counter() - start
            if elapsed + elapsed / n / 2 > seconds and (not trace or traced):
                break
        for kind in (rounds, traced) if trace else (rounds,):
            for stage in STAGES:
                if not any(r["samples"][stage] for r in kind):
                    raise OperationFailed("every %s operation of the run failed" % stage)
        verify(run, rounds + traced)
        extra = trace_extras(run) if trace else {}
    finally:
        patches.restore()
    report = {
        "attempted": sum(r["attempted"] for r in rounds + traced),
        "failed": sum(r["failed"] for r in rounds + traced),
        "peak_rss_mib": peak_rss_mib,
        "rounds": rounds,
        "traced": traced,
    }
    if trace:
        report["tracer"] = tracer
        report["extra"] = extra
    return report


def rate(rounds, stage):
    """Median work per second of the samples of a stage in the given rounds."""
    return statistics.median(w / t for r in rounds for w, t in r["samples"][stage])


def end_to_end(run, report):
    rounds = report["rounds"]
    row = [x for r in rounds for x in r["outputs"]["eval_rows"]][-1]
    return {
        "setup_s": statistics.median(t for r in rounds for _, t in r["samples"]["setup"]),
        "peak_rss_mib": report["peak_rss_mib"],
        "images_per_s": rate(rounds, "train"),
        "gen_images_per_s": rate(rounds, "gen"),
        "eval_images_per_s": rate(rounds, "eval"),
        "coverage_trials_per_s": rate(rounds, "coverage"),
        "miou": float(row["miou"]),
        "ovo_auc": float(row["ovo_auc"]),
    }


def per_layer(run, report):
    rounds, traced = report["rounds"], report["traced"]
    out = tracing.layer_metrics(report["tracer"], run.workload.images)
    out.update(report["extra"])
    out["metrics.tail_miou"] = run.train_result.evals[-1].tail_miou
    for stage, key, name in (("train", "images_per_s", "images"),
                             ("eval", "eval_images_per_s", "eval")):
        traced_rate = rate(traced, stage)
        out["trace.%s" % key] = traced_rate
        out["trace.%s_overhead_pct" % name] = 100.0 * (rate(rounds, stage) / traced_rate - 1.0)
    return out


def trace_extras(run):
    """Peak traced allocations of one eval and one coverage simulation.

    Replayed apart from the timed rounds because tracemalloc slows every
    allocation it records.
    """
    aucseg = sys.modules["aucseg"]
    items = aucseg.read_segd(run.eval_data)
    model = aucseg.load_model(run.model)
    stats = aucseg.class_stats([lab for _, lab in items])
    third = max(1, int((stats.count > 0).sum()) // 3)
    partition = aucseg.make_partition(stats, third, third)
    k, p, delta, trials = run.workload.coverage_args
    batch = 2 * aucseg.required_batch_size(k, p, delta)
    out = {}
    for name, fn in (
        ("metrics.eval_peak_alloc_mib", lambda: aucseg.evaluate(model, items, partition)),
        ("coverage.peak_alloc_mib",
         lambda: aucseg.simulate_coverage([p] * k, batch, trials, seed=run.seed)),
    ):
        tracemalloc.start()
        try:
            fn()
            out[name] = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()
    return out


def check_steps(counted, steps, asked):
    """Images counted at the loss calls against the steps a training logged."""
    checks.check_image_count(counted, steps, int(BATCH))
    if steps != asked:
        raise checks.CheckError("training logged %d steps, asked for %d" % (steps, asked))


def verify(run, rounds):
    """Every output check of the run; raises checks.CheckError on the first miss."""
    aucseg = sys.modules["aucseg"]
    w = run.workload
    k = w.classes
    items, file_k = checks.read_segd_arrays(run.data)
    if file_k != k:
        raise checks.CheckError("data file holds %d classes, expected %d" % (file_k, k))

    # data: generator bookkeeping, and generate -> write -> read bit for bit
    checks.check_truth_counts(run.gen_truth.painted_counts, [lab for _, lab in items], k)
    regenerated, _ = aucseg.generate(run.gen_config)
    want = [(f.values, lab.labels) for f, lab in regenerated]
    checks.check_bit_exact("SEGD bytes", items, want)
    checks.check_bit_exact("read_segd", [(f.values, lab.labels) for f, lab in
                                         aucseg.read_segd(run.data)], want)

    # training: the final eval row, the images of each step, the bank
    result = run.train_result
    last = result.evals[-1]
    checks.check_eval_row({n: getattr(last, n) for n in
                           ("miou", "head_miou", "middle_miou", "tail_miou", "ovo_auc")},
                          result.model.weights, result.model.bias, items,
                          result.train_indices, result.eval_indices, k)
    for r in rounds:
        for (counted, _), steps in zip(r["samples"]["train"], r["outputs"]["train_steps"]):
            check_steps(counted, steps, w.max_iter)
    if w.auc:
        checks.check_pastes_happened(sum(s.pasted for s in result.steps))

    # eval: the CSV row against the saved model and the evaluated file
    weights, bias = checks.read_segm_arrays(run.model)
    eval_items, _ = checks.read_segd_arrays(run.eval_data)
    eval_rows = [x for r in rounds for x in r["outputs"]["eval_rows"]]
    checks.check_eval_csv(eval_rows[-1], weights, bias, eval_items, k)

    # coverage: the bound's B and each simulated failure rate
    cov_k, p, delta, _ = w.coverage_args
    for row in [x for r in rounds for x in r["outputs"]["coverage_rows"]][-1]:
        checks.check_required_batch(cov_k, p, delta, int(row["required_batch_size"]))
        checks.check_failure_rate(cov_k, p, int(row["batch_size"]), int(row["failures"]),
                                  int(row["trials"]))

    # every round repeats the same operations on the same inputs
    for key in ("eval_rows", "coverage_rows"):
        seen = [x for r in rounds for x in r["outputs"][key]]
        if any(x != seen[0] for x in seen):
            raise checks.CheckError("repeated %s differ within the run" % key)
