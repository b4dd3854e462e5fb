"""End-to-end CLI behaviour: exit codes, artifacts, config resolution."""

import numpy as np
import pytest

from couplformer import autograd as ag
from couplformer.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    CliUsageError,
    build_model_config,
    main,
    parse_config_text,
    resolve_config,
)
from couplformer.model import CouplformerModel
from couplformer.verify import SUITES


def _train_args(out, data, *sets, config=None, seed=None):
    args = ["train", "--data", str(data), "--out", str(out)]
    base = [
        "stem=8,16",
        "embed_dim=16",
        "depth=1",
        "heads=2",
        "epochs=1",
        "batch_size=30",
        "limit_train=60",
        "val_size=10",
        "lr=1e-3",
    ]
    for kv in base + list(sets):
        args += ["--set", kv]
    if config is not None:
        args += ["--config", str(config)]
    if seed is not None:
        args += ["--seed", str(seed)]
    return args


# -- config machinery ------------------------------------------------------


def test_parse_config_text_grammar():
    text = "# comment\nepochs = 3\n\nlr=1e-2  # trailing note\n"
    assert parse_config_text(text) == {"epochs": "3", "lr": "1e-2"}
    with pytest.raises(CliUsageError, match="key = value"):
        parse_config_text("epochs 3")


def test_resolve_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 7\nlr = 5e-4\n")
    resolved = resolve_config(str(cfg), ["epochs=2"], seed_flag=9)
    assert resolved["epochs"] == "2"  # --set beats the file
    assert resolved["lr"] == "5e-4"  # file beats the default
    assert resolved["seed"] == "9"  # --seed beats everything
    assert resolved["batch_size"] == "128"  # untouched default


def test_unknown_keys_are_hard_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epohcs = 3\n")
    with pytest.raises(CliUsageError, match="epohcs"):
        resolve_config(str(cfg), [])
    with pytest.raises(CliUsageError, match="unknown config key"):
        resolve_config(None, ["learning_rate=1"])


def test_build_model_config_parses_stem_grammar():
    resolved = resolve_config(None, ["stem=8n,16", "embed_dim=16", "img_size=14x20"])
    cfg = build_model_config(resolved)
    assert cfg.img_size == (14, 20)
    assert cfg.conv_stem[0].pool is False and cfg.conv_stem[1].pool is True
    with pytest.raises(CliUsageError):
        build_model_config(resolve_config(None, ["stem=abc"]))
    with pytest.raises(CliUsageError):  # last stem stage must match embed_dim
        build_model_config(resolve_config(None, ["stem=8,24", "embed_dim=16"]))


# -- verify ----------------------------------------------------------------


def test_verify_all_passes(capsys):
    assert main(["verify", "--suite", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out
    for name in ("lemma1", "fastpath", "kron", "rank", "grad"):
        assert name in out
    thresholds = [line.split("threshold ")[1].split(",")[0] for line in out.splitlines()]
    assert thresholds == ["1e-12", "1e-10", "1e-14", "0e+00", "1e-05"]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("suite", SUITES)
def test_verify_single_suite(capsys, suite, seed):
    assert main(["verify", "--suite", suite, "--seed", str(seed)]) == EXIT_OK
    assert f"[PASS] {suite}:" in capsys.readouterr().out


def _transposed_b(apply):  # forward applies a . X . b, not a . X . b^T
    return lambda a, b, v: apply(a, ag.constant(b.value.data.swapaxes(1, 2)), v)


def _transposed_b_array(factored_map):  # the array helper applies a . X . b, not a . X . b^T
    return lambda a, b, v: factored_map(a, b.swapaxes(1, 2), v)


def _reversed_grad_rows(factored_map):  # vjp reverses the grid rows of its incoming gradient
    def planted(a, b, v):
        out, vjp = factored_map(a, b, v)
        return out, lambda g, v: vjp(g[:, ::-1], v)

    return planted


def _one_entry_off(kron):
    def planted(a, b):
        k = kron(a, b).value.data.copy()
        k.flat[-1] += 1e-9
        return ag.constant(k)

    return planted


def _noisy(kron):
    rng = np.random.default_rng(0)

    def planted(a, b):
        k = kron(a, b).value.data
        return ag.constant(k + 1e-6 * rng.standard_normal(k.shape))

    return planted


@pytest.mark.parametrize(
    "suite, module, attr, plant",
    [
        ("lemma1", ag, "apply_factored_map", _transposed_b),
        ("fastpath", ag, "_factored_map", _transposed_b_array),
        ("grad", ag, "_factored_map", _reversed_grad_rows),
        ("kron", ag, "kron", _one_entry_off),
        ("rank", ag, "kron", _noisy),
    ],
    ids=["lemma1", "fastpath", "grad", "kron", "rank"],
)
def test_verify_fails_on_planted_defect(monkeypatch, capsys, suite, module, attr, plant):
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    worst, threshold, _ = SUITES[suite](0)
    assert worst > threshold
    assert main(["verify", "--suite", suite]) == EXIT_FAIL
    assert f"[FAIL] {suite}:" in capsys.readouterr().out


def test_verify_bogus_suite_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == EXIT_USAGE


# -- bench -----------------------------------------------------------------


def test_bench_writes_csv(tmp_path, capsys):
    assert main(["bench", "--grid", "32,64", "--mechanism", "both", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 sizes x 2 mechanisms
    out = capsys.readouterr().out
    assert "score_elements" in out
    assert "not asserted" in out  # the quoted formula is printed, never checked


def test_bench_single_mechanism_row_count(tmp_path):
    main(["bench", "--grid", "16", "--mechanism", "coupled", "--out", str(tmp_path)])
    assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 2


def test_bench_bad_grid_is_usage_error(tmp_path):
    assert main(["bench", "--grid", "abc", "--out", str(tmp_path)]) == EXIT_USAGE


# -- train / eval ----------------------------------------------------------


def test_train_writes_metrics_checkpoint_and_config(tmp_path, digit_dir):
    out = tmp_path / "run"
    assert main(_train_args(out, digit_dir)) == EXIT_OK
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,step,lr,train_loss,train_acc,val_acc"
    assert len(lines) == 2
    assert (out / "checkpoint" / "manifest.txt").exists()
    echoed = parse_config_text((out / "effective_config.txt").read_text())
    assert echoed["embed_dim"] == "16" and echoed["epochs"] == "1"
    # the echoed config round-trips into the same model
    CouplformerModel.load(out / "checkpoint", build_model_config(echoed))


def test_train_epoch_override_controls_row_count(tmp_path, digit_dir):
    out = tmp_path / "run"
    assert main(_train_args(out, digit_dir, "epochs=2")) == EXIT_OK
    assert len((out / "metrics.csv").read_text().strip().splitlines()) == 3


def test_train_is_deterministic(tmp_path, digit_dir):
    main(_train_args(tmp_path / "a", digit_dir, seed=4))
    main(_train_args(tmp_path / "b", digit_dir, seed=4))
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()


def test_train_without_data_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("COUPLFORMER_DATA", raising=False)
    assert main(["train", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "COUPLFORMER_DATA" in capsys.readouterr().err


def test_train_reads_data_dir_from_env(tmp_path, digit_dir, monkeypatch):
    monkeypatch.setenv("COUPLFORMER_DATA", str(digit_dir))
    args = [a for a in _train_args(tmp_path / "run", "IGNORED", "epochs=1")]
    args.remove("--data")
    args.remove("IGNORED")
    assert main(args) == EXIT_OK


def test_train_rejects_mismatched_image_size(tmp_path, digit_dir, capsys):
    assert main(_train_args(tmp_path / "run", digit_dir, "img_size=16")) == EXIT_USAGE
    assert "img_size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, named",
    [
        ("heads=0", "heads"),
        ("stem=0,16", "stem stage"),
        ("batch_size=0", "batch_size"),
        ("batch_size=-8", "batch_size"),
        ("epochs=0", "epochs"),
        ("num_classes=0", "num_classes"),
        ("limit_train=0", "limit_train"),
        ("limit_test=-1", "limit_test"),
        ("depth=-1", "depth"),
        ("mlp_ratio=0", "mlp_ratio"),
        ("limit_train=5", "no training samples"),
        ("val_size=0", "val_size"),
        ("val_size=-3", "val_size"),
        ("val_size=0.001", "val_size"),
        ("lr=0", "lr"),
        ("lr=-1", "lr"),
        ("warmup_epochs=-2", "warmup_epochs"),
        ("val_size=2.5", "val_size"),
        ("beta1=1", "beta1"),
        ("beta2=1.5", "beta2"),
        ("target_train_acc=90", "target_train_acc"),
    ],
)
def test_train_non_positive_setting_is_usage_error(tmp_path, digit_dir, capsys, setting, named):
    """Each was a traceback, a silent run (0 steps, no validation, a truncated count, an unreachable target) or a NaN run."""
    assert main(_train_args(tmp_path / "run", digit_dir, setting)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_train_unknown_set_key_is_usage_error(tmp_path, digit_dir):
    assert main(_train_args(tmp_path / "run", digit_dir, "bogus_key=1")) == EXIT_USAGE


def test_train_config_file_plus_override(tmp_path, digit_dir):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("epochs = 3\nembed_dim = 16\nstem = 8,16\ndepth = 1\nheads = 2\n")
    out = tmp_path / "run"
    args = [
        "train", "--data", str(digit_dir), "--out", str(out),
        "--config", str(cfg),
        "--set", "epochs=1", "--set", "limit_train=40", "--set", "val_size=10",
        "--set", "batch_size=20", "--set", "lr=1e-3",
    ]
    assert main(args) == EXIT_OK
    assert len((out / "metrics.csv").read_text().strip().splitlines()) == 2


def test_eval_reproduces_final_val_accuracy(tmp_path, digit_dir, capsys):
    out = tmp_path / "run"
    main(_train_args(out, digit_dir, "epochs=2"))
    final_val_acc = float((out / "metrics.csv").read_text().strip().splitlines()[-1].split(",")[-1])
    capsys.readouterr()
    assert main(["eval", "--run", str(out), "--split", "val", "--data", str(digit_dir)]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    split, n, loss, acc = line.split(",")
    assert split == "val" and int(n) == 10
    assert abs(float(acc) - final_val_acc) <= 1e-12
    assert (out / "eval.csv").read_text().splitlines()[0] == "split,n,loss,accuracy"


def test_eval_other_splits_run(tmp_path, digit_dir):
    out = tmp_path / "run"
    main(_train_args(out, digit_dir, "limit_test=20"))
    assert main(["eval", "--run", str(out), "--split", "test", "--data", str(digit_dir)]) == EXIT_OK
    assert main(["eval", "--run", str(out), "--split", "train", "--data", str(digit_dir)]) == EXIT_OK


def test_eval_without_run_dir_is_usage_error(tmp_path, capsys):
    assert main(["eval", "--run", str(tmp_path / "ghost")]) == EXIT_USAGE
    assert "effective_config" in capsys.readouterr().err


def test_eval_wrong_geometry_checkpoint(tmp_path, digit_dir, capsys):
    out = tmp_path / "run"
    main(_train_args(out, digit_dir))
    # tamper: claim a different embedding dim than the checkpoint holds
    cfg_path = out / "effective_config.txt"
    text = cfg_path.read_text().replace("embed_dim = 16", "embed_dim = 32")
    cfg_path.write_text(text.replace("stem = 8,16", "stem = 8,32"))
    assert main(["eval", "--run", str(out), "--data", str(digit_dir)]) == EXIT_USAGE
    assert "checkpoint" in capsys.readouterr().err.lower()


def test_eval_damaged_checkpoint_is_usage_error(tmp_path, digit_dir, capsys, tensors_bin_defects):
    out = tmp_path / "run"
    main(_train_args(out, digit_dir))
    path = out / "checkpoint" / "tensors.bin"
    blob = path.read_bytes()
    for defect, damage in tensors_bin_defects.items():
        path.write_bytes(damage(blob))
        capsys.readouterr()
        assert main(["eval", "--run", str(out), "--data", str(digit_dir)]) == EXIT_USAGE, defect
        assert "checkpoint" in capsys.readouterr().err.lower(), defect
