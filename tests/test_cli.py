"""End-to-end CLI behaviour: exit codes, artifacts, config resolution."""

import dataclasses
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from couplformer import autograd as ag
from couplformer.attention import KINDS
from couplformer.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    _DEFAULTS,
    CliUsageError,
    _prepare_splits,
    build_model_config,
    build_train_config,
    main,
    parse_config_text,
    resolve_config,
    write_effective_config,
)
from couplformer.model import CouplformerModel, StemStage
from couplformer.train import (
    ImageSet,
    evaluate,
    load_dataset,
    mnist_paths,
    read_idx_labels,
    split_indices,
    subset_indices,
    write_idx_labels,
)
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


@pytest.mark.parametrize("item, key", [("data_dir=/tmp/a#b", "data_dir"), ("lr=3e-3 # x", "lr")])
def test_set_value_holding_a_hash_is_usage_error(tmp_path, digit_dir, capsys, item, key):
    """Each resolved, silently, to the value cut at the '#': /tmp/a and 3e-3."""
    with pytest.raises(CliUsageError, match=f"--set {key}: .*'#'"):
        resolve_config(None, [item])
    assert main(_train_args(tmp_path / "run", digit_dir, item)) == EXIT_USAGE
    assert f"--set {key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_defaults_are_the_config_defaults():
    """Every default that TrainConfig or ModelConfig declares is the value the CLI resolves without a file or --set."""
    resolved = resolve_config(None, [])
    checked = 0
    for built in (build_train_config(resolved), build_model_config(resolved)):
        for field in dataclasses.fields(built):
            if field.default is not dataclasses.MISSING:
                assert getattr(built, field.name) == field.default, field.name
                checked += 1
    assert checked == 8


def test_unknown_keys_are_hard_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epohcs = 3\n")
    with pytest.raises(CliUsageError, match="epohcs"):
        resolve_config(str(cfg), [])
    with pytest.raises(CliUsageError, match="unknown config key"):
        resolve_config(None, ["learning_rate=1"])


def test_build_model_config_parses_stem_grammar():
    resolved = resolve_config(None, ["stem=8, 16", "embed_dim=16", "img_size=14x20"])
    cfg = build_model_config(resolved)
    assert cfg.img_size == (14, 20)
    assert cfg.conv_stem == (StemStage(8), StemStage(16))
    for stem in ("abc", "16n,32", "", "16,"):  # no 'n' (no-pool) suffix: every stage pools
        with pytest.raises(CliUsageError, match="config key stem"):
            build_model_config(resolve_config(None, [f"stem={stem}"]))
    with pytest.raises(CliUsageError):  # last stem stage must match embed_dim
        build_model_config(resolve_config(None, ["stem=8,24", "embed_dim=16"]))


_REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("config", sorted((_REPO / "configs").glob("*.cfg")), ids=lambda path: path.name)
def test_every_shipped_config_builds(config):
    resolved = resolve_config(str(config), [])
    build_model_config(resolved)
    build_train_config(resolved)


def test_readme_key_lists_are_the_config_keys():
    """The backticked names of README's "Model keys" and "Training keys" paragraphs, outside parentheses."""
    paragraphs = (_REPO / "README.md").read_text().split("\n\n")
    named = set()
    for heading in ("Model keys:", "Training keys:"):
        (text,) = [p for p in paragraphs if p.startswith(heading)]
        named |= set(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", text)))
    assert named == set(_DEFAULTS)
    (kinds,) = re.findall(r"`attention_kind` \(([^)]*)\)", " ".join(paragraphs))
    assert re.findall(r"`([^`]+)`", kinds) == sorted(KINDS)


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
    assert main(["bench", "--grid", "32,64", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 sizes x 2 kinds
    assert [line.split(",")[0] for line in lines] == ["kind", *KINDS, *KINDS]
    assert "score_elements" in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["abc", "0", "-8"])
def test_bench_bad_grid_is_usage_error(tmp_path, grid):
    assert main(["bench", "--grid", grid, "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
@pytest.mark.parametrize("command", ["bench", "train", "eval"])
def test_out_that_is_no_directory_is_usage_error(tmp_path, digit_dir, capsys, command, under):
    """Each was a FileExistsError or NotADirectoryError traceback, eval's after the whole evaluation."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "run" if under else blocker
    run = tmp_path / "run"  # eval stops at --out, before it reads the checkpoint this run lacks
    run.mkdir()
    write_effective_config(run, resolve_config(None, []))
    args = {
        "bench": ["bench", "--grid", "32", "--out", str(out)],
        "train": _train_args(out, digit_dir),
        "eval": ["eval", "--run", str(run), "--data", str(digit_dir), "--out", str(out)],
    }[command]
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --out {out}: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--out", "--data", "--config", "--run"])
def test_path_the_os_refuses_is_usage_error(tmp_path, digit_dir, capsys, flag):
    """A 300-character file name was an OSError (errno 36) traceback with exit 1."""
    long = str(tmp_path / ("x" * 300))
    args = {
        "--out": ["bench", "--grid", "32", "--out", long],
        "--data": _train_args(tmp_path / "run", long),
        "--config": _train_args(tmp_path / "run", digit_dir, config=long),
        "--run": ["eval", "--run", long, "--data", str(digit_dir)],
    }[flag]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
        ("limit_test=-1", "limit_test"),  # limit_test, warmup_epochs, beta1 and beta2 are unknown keys
        ("depth=-1", "depth"),
        ("mlp_ratio=0", "mlp_ratio"),
        ("limit_train=5", "no training samples"),
        ("val_size=0", "val_size"),
        ("val_size=-3", "val_size"),
        ("val_size=0.001", "val_size"),
        ("lr=0", "lr"),
        ("lr=-1", "lr"),
        ("lr=inf", "lr"),
        ("lr=nan", "lr"),
        ("weight_decay=nan", "weight_decay"),
        ("weight_decay=inf", "weight_decay"),
        ("weight_decay=-5", "weight_decay"),
        ("warmup_epochs=-2", "warmup_epochs"),
        ("val_size=2.5", "val_size"),
        ("beta1=1", "beta1"),
        ("beta2=1.5", "beta2"),
        ("target_train_acc=90", "target_train_acc"),
        ("seed=-1", "seed"),
    ],
)
def test_train_non_positive_setting_is_usage_error(tmp_path, digit_dir, capsys, setting, named):
    """Each was a traceback, a silent run (0 steps, no validation, a truncated count, an unreachable target) or a NaN run."""
    assert main(_train_args(tmp_path / "run", digit_dir, setting)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["train", "verify"])
def test_negative_seed_is_usage_error(tmp_path, digit_dir, capsys, command):
    """Each was numpy's "expected non-negative integer" traceback from the first seeded generator."""
    if command == "train":
        tiny_cfg = Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg"
        args = ["train", "--config", str(tiny_cfg), "--data", str(digit_dir), "--out", str(tmp_path), "--seed", "-3"]
    else:
        args = ["verify", "--suite", "lemma1", "--seed", "-1"]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and "Traceback" not in err


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
    main(_train_args(out, digit_dir))
    assert main(["eval", "--run", str(out), "--split", "test", "--data", str(digit_dir)]) == EXIT_OK
    assert main(["eval", "--run", str(out), "--split", "train", "--data", str(digit_dir)]) == EXIT_OK


def test_eval_whole_test_split_matches_normalizing_every_image(tmp_path, digit_dir, capsys):
    """The 500 test images stay uint8 and are normalized one chunk at a time."""
    out = tmp_path / "run"
    main(_train_args(out, digit_dir))
    capsys.readouterr()
    assert main(["eval", "--run", str(out), "--split", "test", "--data", str(digit_dir)]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    _, _, test_x, test_y = load_dataset(digit_dir)
    config = build_model_config(resolve_config(str(out / "effective_config.txt"), []))
    model = CouplformerModel.load(out / "checkpoint", config)
    loss, acc = evaluate(model, test_x[:], test_y)
    assert line == f"test,500,{loss:.6f},{acc:.6f}"


def test_prepare_splits_are_image_sets_of_the_selected_images(digit_dir):
    """Every split stays uint8 until indexed and indexes to the same float64 images; test is the whole file."""
    splits = _prepare_splits(resolve_config(None, ["limit_train=400", "val_size=40"]), digit_dir)
    train_x, train_y, test_x, test_y = load_dataset(digit_dir)
    keep = subset_indices(3000, 400, 0)
    tr_idx, val_idx = (keep[idx] for idx in split_indices(400, 40, 0))
    wanted = [(train_x, train_y, tr_idx), (train_x, train_y, val_idx), (test_x, test_y, slice(None))]
    for i, (all_x, all_y, idx) in enumerate(wanted):
        images, labels = splits[2 * i : 2 * i + 2]
        assert type(images) is ImageSet and labels.dtype == np.int64
        assert np.array_equal(images[:].view(np.uint64), all_x[idx].view(np.uint64))
        assert np.array_equal(labels, all_y[idx])
    assert [len(images) for images in splits[::2]] == [360, 40, 500]


def test_prepare_splits_peak_stays_near_the_uint8_payload(digit_dir):
    """Float64 train and val splits of 400 images traced about twice the 3,500-image payload."""
    resolved = resolve_config(None, ["limit_train=400", "val_size=40"])
    tracemalloc.start()
    try:
        splits = _prepare_splits(resolved, digit_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = (3000 + 500) * 28 * 28
    assert sum(len(images) for images in splits[::2]) == 900
    assert peak < 1.3 * payload, peak / payload


def _with_labels_of_12(digit_dir, directory, key):
    """A copy of the digit files whose ``key`` label file holds only 12s (num_classes is 10)."""
    shutil.copytree(digit_dir, directory)
    path = mnist_paths(directory)[key]
    write_idx_labels(path, np.full(read_idx_labels(path).shape, 12, dtype=np.uint8))
    return directory


def test_train_label_outside_num_classes_is_usage_error(tmp_path, digit_dir, capsys):
    """Was a ValueError traceback from cross_entropy after the model was built and training began."""
    data = _with_labels_of_12(digit_dir, tmp_path / "data", "train_labels")
    assert main(_train_args(tmp_path / "run", data)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: train split: label 12") and "[0, 10)" in err
    assert not (tmp_path / "run").exists()


def test_eval_label_outside_num_classes_is_usage_error(tmp_path, digit_dir, capsys):
    out = tmp_path / "run"
    main(_train_args(out, digit_dir))
    data = _with_labels_of_12(digit_dir, tmp_path / "data", "test_labels")
    capsys.readouterr()
    assert main(["eval", "--run", str(out), "--split", "test", "--data", str(data)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: test split: label 12") and "[0, 10)" in err


@pytest.mark.parametrize(
    "line",
    ["in_channels = 1", "warmup_epochs =", "beta1 = 0.9", "beta2 = 0.999", "limit_test ="],
    ids=lambda line: line.split()[0],
)
def test_eval_of_a_run_echoing_a_removed_key(tmp_path, digit_dir, capsys, line):
    """An older run's effective_config.txt names a key that no longer exists: exit 2 naming it, no traceback.

    Its checkpoint format is unchanged, so deleting the line makes the run evaluable again.
    """
    out = tmp_path / "run"
    main(_train_args(out, digit_dir))
    assert main(["eval", "--run", str(out), "--split", "test", "--data", str(digit_dir)]) == EXIT_OK
    evaluated = (out / "eval.csv").read_text()
    cfg_path = out / "effective_config.txt"
    current = cfg_path.read_text()
    cfg_path.write_text(current + line + "\n")
    capsys.readouterr()
    assert main(["eval", "--run", str(out), "--split", "test", "--data", str(digit_dir)]) == EXIT_USAGE
    err = capsys.readouterr().err
    key = line.split()[0]
    assert err.startswith("error: ") and f"unknown config key(s) {key};" in err and "Traceback" not in err
    cfg_path.write_text(current)
    (out / "eval.csv").unlink()
    assert main(["eval", "--run", str(out), "--split", "test", "--data", str(digit_dir)]) == EXIT_OK
    assert (out / "eval.csv").read_text() == evaluated


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
