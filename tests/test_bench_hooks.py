"""The benchmark's tracer and hooks wrap public names of the package; pin them here.

``bench/tracing.py`` replaces module and class attributes with timing
wrappers and puts the originals back afterwards, and ``bench/workloads.py``
wraps ``train.combined_loss`` to count images and keep one step's loss
inputs. A refactor that renames or removes one of those names, or changes
how training calls the loss, fails here instead of in every benchmark run.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

from aucseg import BankConfig, GenConfig, TrainConfig, generate  # noqa: E402
from aucseg.bank import TailMemoryBank  # noqa: E402
from aucseg.grids import Batch, FeatureGrid, LabelGrid, ScoreGrid  # noqa: E402


def _attributes():
    owners = list(tracing.modules().values()) + [TailMemoryBank, Batch, FeatureGrid, LabelGrid]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def _items():
    items, _ = generate(GenConfig(num_classes=4, height=10, width=10, channels=3, images=30,
                                  zipf_s=1.2, presence=(1.0, 1.0, 1.0, 0.15), shapes_per_class=1,
                                  feature_noise_sigma=0.2, seed=21))
    return items


def test_tracer_installs_and_restores_every_wrapped_name():
    before = _attributes()
    patches = tracing.Patches()
    try:
        tracing.Tracer().install(patches)
        assert _attributes() != before
    finally:
        patches.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_training_calls_combined_loss_as_the_benchmark_hooks_read_it(monkeypatch):
    # the hooks read kw["kind"], kw["mode"], kw.get("pasted"), rep.parts["auc"],
    # s.scores, l.labels and len(labels) of every call
    items = _items()
    bank = BankConfig(memory_size=4, sample_ratio=1.0, resize_ratio=0.5, tail_fraction=0.3)
    cfg = TrainConfig(surrogate="hinge", mode="ova", max_iter=20, eval_every=20, batch_size=4,
                      warmup_iters=2, head_count=1, middle_count=1, bank=bank, seed=0)
    train_mod = tracing.modules()["train"]
    real = train_mod.combined_loss
    pasted_steps = []

    def recording(scores, labels, **kw):
        assert sorted(kw) == ["kind", "lam", "mode", "pair_norm", "pasted"]
        assert (kw["kind"], kw["mode"]) == ("hinge", "ova")
        assert len(labels) == len(scores) == cfg.batch_size
        assert all(isinstance(s, ScoreGrid) and s.scores.shape[2] == 4 for s in scores)
        assert all(isinstance(lab, LabelGrid) and lab.labels.ndim == 2 for lab in labels)
        pasted = kw.get("pasted")
        rep = real(scores, labels, **kw)
        assert isinstance(rep.parts["auc"], float)
        pasted_steps.append(pasted is not None and any(p.any() for p in pasted))
        return rep

    monkeypatch.setattr(train_mod, "combined_loss", recording)
    res = train_mod.train(items, cfg)
    assert len(pasted_steps) == len(res.steps) == cfg.max_iter
    assert any(pasted_steps)


def test_training_calls_forward_and_softmax_backward_through_module_attributes(monkeypatch):
    # the tracer reads train.forward_ms_per_step and train.softmax_backward_ms_per_step
    # from these two names; inlining either would read 0 without failing a run
    items = _items()
    cfg = TrainConfig(max_iter=12, eval_every=5, batch_size=4, warmup_iters=2,
                      head_count=1, middle_count=1, seed=0)
    train_mod = tracing.modules()["train"]
    calls = {"forward": [], "softmax_backward": 0}
    real_forward, real_backward = train_mod.forward, train_mod.softmax_backward

    def forward(model, feats):
        calls["forward"].append(len(feats))
        return real_forward(model, feats)

    def softmax_backward(scores, grad):
        calls["softmax_backward"] += 1
        return real_backward(scores, grad)

    monkeypatch.setattr(train_mod, "forward", forward)
    monkeypatch.setattr(train_mod, "softmax_backward", softmax_backward)
    res = train_mod.train(items, cfg)
    n_eval = len(res.eval_indices)
    assert len(res.evals) == 3  # steps 5, 10 and the last
    assert sorted(calls["forward"]) == sorted([cfg.batch_size] * cfg.max_iter + [n_eval] * 3)
    assert calls["softmax_backward"] == cfg.batch_size * cfg.max_iter
