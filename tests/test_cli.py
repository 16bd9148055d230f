import csv
import io
from dataclasses import fields

import numpy as np
import pytest

from aucseg import BankConfig, GenConfig, TrainConfig, generate, read_segd, save_model, write_segd
from aucseg.cli import build_parser, main
from aucseg.train import PixelModel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_args(path, **over):
    base = dict(classes=5, images=20, size="16x16", zipf=1.0, channels=3,
                noise=0.1, seed=4)
    base.update(over)
    argv = ["gen-data", "--out", str(path)]
    for key, val in base.items():
        argv += ["--%s" % key.replace("_", "-"), str(val)]
    return argv


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen-data", "--classes", "5"])  # missing required args
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_train_defaults_are_the_config_defaults():
    args = vars(build_parser().parse_args(["train", "--data", "d", "--out", "o"]))
    for key in ("command", "fn", "data", "out"):
        del args[key]
    # the one deliberate difference, explained in the README's memory bank note
    assert args.pop("tail_fraction") == 0.34
    assert args.pop("objective").replace("-", "_") == TrainConfig.objective
    for key, value in args.items():
        config = TrainConfig if key in TrainConfig.__dataclass_fields__ else BankConfig
        assert value == getattr(config, key), key


def test_every_config_field_is_a_train_flag():
    # cmd_train builds both configs from the flags named after their fields
    args = vars(build_parser().parse_args(["train", "--data", "d", "--out", "o"]))
    names = {f.name for f in fields(TrainConfig) if f.name != "bank"} | {f.name for f in fields(BankConfig)}
    assert names - set(args) == set()


def test_gen_data_writes_parseable_dataset(tmp_path, capsys):
    path = tmp_path / "d.segd"
    code, out, err = run(capsys, *gen_args(path))
    assert code == 0 and err == ""
    items = read_segd(path)
    assert len(items) == 20
    assert items[0][0].values.shape == (16, 16, 3)


def test_gen_data_is_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.segd", tmp_path / "b.segd"
    run(capsys, *gen_args(p1))
    run(capsys, *gen_args(p2))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("tail_count", [-2, 5, 6])
def test_gen_data_rejects_tail_count_outside_range(tmp_path, capsys, tail_count):
    # a negative count must not silently mean "no tail"
    path = tmp_path / "d.segd"
    code, out, err = run(capsys, *gen_args(path, tail_count=tail_count))
    assert code == 3 and "tail_count" in err
    assert not path.exists()


def test_gen_data_presence_marks_the_last_classes_as_tail(tmp_path, capsys):
    path = tmp_path / "d.segd"
    run(capsys, *gen_args(path, presence=0.8, tail_count=2, tail_presence=0.2))
    cfg = GenConfig(num_classes=5, height=16, width=16, channels=3, images=20, zipf_s=1.0,
                    presence=(1.0, 0.8, 0.8, 0.2, 0.2), feature_noise_sigma=0.1, seed=4)
    write_segd(tmp_path / "expected.segd", generate(cfg)[0])
    assert path.read_bytes() == (tmp_path / "expected.segd").read_bytes()


def test_train_then_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "d.segd"
    run(capsys, *gen_args(data, classes=4, images=24))
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "train", "--data", str(data), "--out", str(out_dir),
                         "--max-iter", "40", "--eval-every", "20",
                         "--head-count", "1", "--middle-count", "1", "--seed", "1")
    assert code == 0, err
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "model.segm").exists()
    code, out, err = run(capsys, "eval", "--data", str(data),
                         "--model", str(out_dir / "model.segm"),
                         "--head-count", "1", "--middle-count", "1")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["miou", "head_miou"]
    assert len(rows) == 2
    float(rows[1][0])


def test_missing_data_file_exits_3(tmp_path, capsys):
    code, out, err = run(capsys, "train", "--data", str(tmp_path / "nope.segd"),
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert err.startswith("error: validation: ")


def test_corrupt_dataset_exits_3_with_offset(tmp_path, capsys):
    data = tmp_path / "d.segd"
    run(capsys, *gen_args(data))
    blob = bytearray(data.read_bytes())
    blob[:4] = b"JUNK"
    data.write_bytes(bytes(blob))
    code, out, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "o"))
    assert code == 3
    assert "byte 0" in err


def test_eval_with_overflowed_checkpoint_exits_4(tmp_path, capsys):
    data = tmp_path / "d.segd"
    run(capsys, *gen_args(data, classes=4, channels=2))
    bad = tmp_path / "bad.segm"
    with np.errstate(over="ignore"):
        save_model(bad, PixelModel(weights=np.full((2, 4), 1e308), bias=np.zeros(4)))
    code, out, err = run(capsys, "eval", "--data", str(data), "--model", str(bad),
                         "--head-count", "1", "--middle-count", "1")
    assert code == 4
    assert err.startswith("error: numerical: ")


def test_simulate_coverage_csv(capsys):
    code, out, err = run(capsys, "simulate-coverage", "--classes", "4",
                         "--pmin", "0.3", "--delta", "0.05",
                         "--trials", "2000", "--seed", "7")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "batch_size"
    assert len(rows) == 4  # required-1, required, 2x required
    required = int(rows[1][1])
    assert int(rows[2][0]) == required


def test_simulate_coverage_nan_pmin_exits_3(capsys):
    code, out, err = run(capsys, "simulate-coverage", "--classes", "3",
                         "--pmin", "nan", "--delta", "0.01")
    assert code == 3
    assert err.startswith("error: validation: ")


def test_bench_loss_reports_both_kernels(capsys):
    code, out, err = run(capsys, "bench-loss", "--pixels", "400", "--classes", "3",
                         "--surrogate", "all", "--repeat", "1", "--seed", "2")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["surrogate", "kernel", "pixels", "classes", "seconds", "loss"]
    assert len(rows) == 1 + 6  # 3 surrogates x 2 kernels
    by_kind = {}
    for kind, kernel, _, _, _, loss in rows[1:]:
        by_kind.setdefault(kind, set()).add(loss)
    for kind, losses in by_kind.items():
        assert len(losses) == 1  # fast and naive agree in print precision


def test_bench_loss_rejects_tiny_pixel_budget(capsys):
    code, out, err = run(capsys, "bench-loss", "--pixels", "3", "--classes", "4")
    assert code == 3
    assert err.startswith("error: validation: ")


def test_bench_loss_rejects_more_than_64_classes(capsys):
    code, out, err = run(capsys, "bench-loss", "--pixels", "200", "--classes", "65", "--repeat", "1")
    assert code == 3
    assert err.startswith("error: validation: ")


@pytest.mark.parametrize("flag, value", [("--repeat", "0"), ("--repeat", "-2"), ("--classes", "0"),
                                         ("--classes", "-1"), ("--classes", "1"), ("--classes", "65")])
def test_bench_loss_rejects_too_few_repeats_or_classes(capsys, flag, value):
    # no repeat leaves nothing timed, no class no labels to draw; every
    # class count is checked before the all-pairs arm spends its time
    code, out, err = run(capsys, "bench-loss", "--pixels", "100", "--classes", "3",
                         "--repeat", "1", flag, value)
    assert code == 3
    assert err.startswith("error: validation: ") and out == ""


def test_train_cli_deterministic_across_runs(tmp_path, capsys):
    data = tmp_path / "d.segd"
    run(capsys, *gen_args(data, classes=4, images=20))
    args = ["train", "--data", str(data), "--max-iter", "30", "--eval-every", "15",
            "--head-count", "1", "--middle-count", "1", "--seed", "9"]
    run(capsys, *args, "--out", str(tmp_path / "r1"))
    run(capsys, *args, "--out", str(tmp_path / "r2"))
    assert (tmp_path / "r1/metrics.csv").read_bytes() == (tmp_path / "r2/metrics.csv").read_bytes()
