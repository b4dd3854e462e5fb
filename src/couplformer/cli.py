"""Command-line entry point: verify (:mod:`couplformer.verify`), bench, train and eval.

Configuration is plain ``key = value`` text (``#`` starts a comment) merged
in order: built-in defaults, then the ``--config`` file, then repeated
``--set key=value`` overrides.  Unknown keys are hard errors.  Every run
echoes its fully resolved configuration to ``effective_config.txt`` in the
output directory so ``eval`` can rebuild the exact model and data split.

Exit codes: 0 success, 1 verification/numeric failure, 2 usage error or a
malformed dataset or checkpoint (reported on stderr, never as a traceback).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import default_sweep_config, quoted_flops_delta, render_sweep_csv, sweep
from .model import CheckpointError, CouplformerModel, ModelConfig, StemStage
from .tensor import NonFiniteError, ShapeError
from .train import (
    DataFormatError,
    TrainConfig,
    evaluate,
    load_dataset,
    split_indices,
    subset_indices,
    train_loop,
)
from .verify import SUITES

__all__ = ["main", "build_parser", "CliUsageError", "EXIT_OK", "EXIT_FAIL", "EXIT_USAGE"]

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

class CliUsageError(Exception):
    """Bad flags, config keys, or values; maps to exit code 2."""


# --------------------------------------------------------------------------
# config files
# --------------------------------------------------------------------------

_DEFAULTS = {
    # model
    "img_size": "28",
    "in_channels": "1",
    "stem": "16,32",
    "embed_dim": "32",
    "depth": "2",
    "heads": "4",
    "num_classes": "10",
    "mlp_ratio": "2",
    "pos_embedding": "learnable",
    "attention_kind": "coupled_fast",
    # training
    "epochs": "5",
    "batch_size": "128",
    "lr": "3e-4",
    "weight_decay": "3e-2",
    "warmup_epochs": "",
    "beta1": "0.9",
    "beta2": "0.999",
    "seed": "0",
    "val_size": "0.1",
    "target_train_acc": "",
    "limit_train": "",
    "limit_test": "",
    "data_dir": "",
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; comments and blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliUsageError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _check_keys(pairs: dict[str, str], source: str) -> None:
    unknown = [k for k in pairs if k not in _DEFAULTS]
    if unknown:
        raise CliUsageError(
            f"{source}: unknown config key(s) {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(_DEFAULTS))}"
        )


def resolve_config(
    config_path: str | None,
    overrides: list[str],
    seed_flag: int | None = None,
) -> dict[str, str]:
    """Defaults <- config file <- --set overrides <- --seed flag."""
    resolved = dict(_DEFAULTS)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise CliUsageError(f"config file not found: {path}")
        pairs = parse_config_text(path.read_text(), source=str(path))
        _check_keys(pairs, str(path))
        resolved.update(pairs)
    for item in overrides:
        pairs = parse_config_text(item, source="--set")
        _check_keys(pairs, "--set")
        resolved.update(pairs)
    if seed_flag is not None:
        resolved["seed"] = str(seed_flag)
    return resolved


def _parse_int(resolved: dict[str, str], key: str, minimum: int | None = None) -> int:
    try:
        value = int(resolved[key])
    except ValueError:
        raise CliUsageError(f"config key {key}: expected an integer, got {resolved[key]!r}")
    if minimum is not None and value < minimum:
        raise CliUsageError(f"config key {key}: expected an integer >= {minimum}, got {value}")
    return value


def _parse_float(resolved: dict[str, str], key: str) -> float:
    try:
        return float(resolved[key])
    except ValueError:
        raise CliUsageError(f"config key {key}: expected a number, got {resolved[key]!r}")


def _parse_opt_int(resolved: dict[str, str], key: str, minimum: int | None = None) -> int | None:
    value = resolved[key].strip().lower()
    return None if value in ("", "none") else _parse_int(resolved, key, minimum)


def _parse_opt_float(resolved: dict[str, str], key: str) -> float | None:
    value = resolved[key].strip().lower()
    return None if value in ("", "none") else _parse_float(resolved, key)


def _parse_img_size(value: str) -> tuple[int, int]:
    parts = value.lower().split("x")
    try:
        if len(parts) == 1:
            side = int(parts[0])
            return side, side
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise CliUsageError(f"config key img_size: expected '28' or '28x32', got {value!r}")


def _parse_stem(value: str) -> tuple[StemStage, ...]:
    """Comma-separated channel counts; an 'n' suffix disables that stage's pool."""
    stages = []
    for token in value.split(","):
        token = token.strip()
        pool = True
        if token.endswith("n"):
            pool = False
            token = token[:-1]
        try:
            channels = int(token)
        except ValueError:
            raise CliUsageError(
                f"config key stem: expected channel counts like '16,32' or '16n,32', got {value!r}"
            )
        stages.append(StemStage(out_channels=channels, pool=pool))
    if not stages:
        raise CliUsageError("config key stem: at least one stage required")
    return tuple(stages)


def build_model_config(resolved: dict[str, str]) -> ModelConfig:
    try:
        return ModelConfig(
            img_size=_parse_img_size(resolved["img_size"]),
            in_channels=_parse_int(resolved, "in_channels"),
            conv_stem=_parse_stem(resolved["stem"]),
            embed_dim=_parse_int(resolved, "embed_dim"),
            depth=_parse_int(resolved, "depth"),
            heads=_parse_int(resolved, "heads"),
            num_classes=_parse_int(resolved, "num_classes"),
            mlp_ratio=_parse_int(resolved, "mlp_ratio"),
            pos_embedding=resolved["pos_embedding"],
            attention_kind=resolved["attention_kind"],
        )
    except (ShapeError, ValueError) as exc:
        raise CliUsageError(f"invalid model config: {exc}")


def build_train_config(resolved: dict[str, str]) -> TrainConfig:
    try:
        return TrainConfig(
            epochs=_parse_int(resolved, "epochs"),
            batch_size=_parse_int(resolved, "batch_size"),
            lr=_parse_float(resolved, "lr"),
            weight_decay=_parse_float(resolved, "weight_decay"),
            warmup_epochs=_parse_opt_int(resolved, "warmup_epochs"),
            seed=_parse_int(resolved, "seed"),
            target_train_acc=_parse_opt_float(resolved, "target_train_acc"),
            beta1=_parse_float(resolved, "beta1"),
            beta2=_parse_float(resolved, "beta2"),
        )
    except ValueError as exc:
        raise CliUsageError(f"invalid training config: {exc}")


def write_effective_config(out_dir: Path, resolved: dict[str, str]) -> Path:
    lines = [f"{key} = {resolved[key]}" for key in sorted(resolved)]
    path = out_dir / "effective_config.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def _default_out_dir() -> Path:
    return Path("runs") / time.strftime("%Y%m%d-%H%M%S")


def _resolve_data_dir(flag: str | None, resolved: dict[str, str]) -> Path:
    candidate = flag or resolved.get("data_dir") or os.environ.get("COUPLFORMER_DATA")
    if not candidate:
        raise CliUsageError(
            "no dataset directory: pass --data, set the data_dir config key, "
            "or export COUPLFORMER_DATA"
        )
    return Path(candidate)


# --------------------------------------------------------------------------
# verify / bench / train / eval
# --------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        worst, threshold, cases = SUITES[name](args.seed)
        ok = worst <= threshold
        failures += 0 if ok else 1
        tag = "PASS" if ok else "FAIL"
        print(
            f"[{tag}] {name}: worst error {worst:.3e} "
            f"(threshold {threshold:.0e}, {cases} cases)"
        )
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _parse_grid(value: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise CliUsageError(f"--grid: expected comma-separated sizes, got {value!r}")
    if not sizes:
        raise CliUsageError("--grid: at least one image size required")
    return sizes


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _parse_grid(args.grid)
    config = default_sweep_config()
    reports = sweep(sizes, config=config, mechanism=args.mechanism)
    csv_text = render_sweep_csv(reports, sizes, mechanism=args.mechanism)
    print(csv_text, end="")
    for size in sizes:
        geometry = replace(config, img_size=(size, size)).geometry()
        print(
            f"# quoted FLOPs-delta formula at {size}x{size} (reference only, "
            f"not asserted): {quoted_flops_delta(geometry):.6g}"
        )
    out_dir = Path(args.out) if args.out else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text(csv_text)
    print(f"# wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _prepare_splits(
    resolved: dict[str, str], data_dir: Path
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Load the dataset and cut the deterministic train/val/test views."""
    train_x, train_y, test_x, test_y = load_dataset(data_dir)
    seed = _parse_int(resolved, "seed")
    limit_train = _parse_opt_int(resolved, "limit_train", minimum=1)
    limit_test = _parse_opt_int(resolved, "limit_test", minimum=0)
    val_size = _parse_float(resolved, "val_size")
    if not 0 < val_size < float("inf"):
        raise CliUsageError(f"config key val_size: expected a positive fraction or count, got {val_size}")
    keep = subset_indices(train_x.shape[0], limit_train, seed)
    train_x, train_y = train_x[keep], train_y[keep]
    tr_idx, val_idx = split_indices(train_x.shape[0], val_size, seed)
    if limit_test is not None:
        test_keep = subset_indices(test_x.shape[0], limit_test, seed)
        test_x, test_y = test_x[test_keep], test_y[test_keep]
    return (
        train_x[tr_idx],
        train_y[tr_idx],
        train_x[val_idx],
        train_y[val_idx],
        test_x,
        test_y,
    )


def _check_data_shape(model_config: ModelConfig, images: np.ndarray) -> None:
    expected = (model_config.in_channels, *model_config.img_size)
    if images.shape[1:] != expected:
        raise CliUsageError(
            f"dataset images have shape {images.shape[1:]} per sample but the model "
            f"expects {expected}; adjust img_size/in_channels"
        )


def cmd_train(args: argparse.Namespace) -> int:
    resolved = resolve_config(args.config, args.overrides, args.seed)
    model_config = build_model_config(resolved)
    train_config = build_train_config(resolved)
    data_dir = _resolve_data_dir(args.data, resolved)
    tx, ty, vx, vy, _, _ = _prepare_splits(resolved, data_dir)
    if tx.shape[0] == 0:
        raise CliUsageError("no training samples: val_size leaves none of the (limited) training set")
    if vx.shape[0] == 0:
        raise CliUsageError("no validation samples: val_size selects none of the (limited) training set")
    _check_data_shape(model_config, tx)
    out_dir = Path(args.out) if args.out else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_effective_config(out_dir, resolved)
    model = CouplformerModel(model_config, seed=train_config.seed)
    print(f"# {model.param_count()} parameters, {tx.shape[0]} train / {vx.shape[0]} val samples")
    result = train_loop(
        model,
        tx,
        ty,
        vx,
        vy,
        train_config,
        metrics_path=out_dir / "metrics.csv",
        checkpoint_dir=out_dir / "checkpoint",
        log=print,
    )
    print(
        f"# final train_acc={result.final_train_acc:.6f} "
        f"val_acc={result.final_val_acc:.6f} steps={result.steps}"
    )
    print(f"# wrote {out_dir / 'metrics.csv'} and {out_dir / 'checkpoint'}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    config_path = run_dir / "effective_config.txt"
    if not config_path.exists():
        raise CliUsageError(f"no effective_config.txt in {run_dir}: is this a train output dir?")
    resolved = dict(_DEFAULTS)
    pairs = parse_config_text(config_path.read_text(), source=str(config_path))
    _check_keys(pairs, str(config_path))
    resolved.update(pairs)
    model_config = build_model_config(resolved)
    data_dir = _resolve_data_dir(args.data, resolved)
    tx, ty, vx, vy, test_x, test_y = _prepare_splits(resolved, data_dir)
    images, labels = {
        "train": (tx, ty),
        "val": (vx, vy),
        "test": (test_x, test_y),
    }[args.split]
    if images.shape[0] == 0:
        raise CliUsageError(f"split {args.split!r} is empty under this config")
    _check_data_shape(model_config, images)
    model = CouplformerModel.load(run_dir / "checkpoint", model_config)
    loss, acc = evaluate(model, images, labels)
    line = f"{args.split},{images.shape[0]},{loss:.6f},{acc:.6f}"
    print("split,n,loss,accuracy")
    print(line)
    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "eval.csv").write_text("split,n,loss,accuracy\n" + line + "\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplformer",
        description="Kronecker-factored attention image classifier: "
        "verification, cost benchmarks, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run property-check suites with fixed seeds")
    p_verify.add_argument(
        "--suite",
        choices=("all", *SUITES),
        default="all",
        help="which suite to run (default: all)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="emit analytic cost CSV over an image-size grid")
    p_bench.add_argument(
        "--grid", default="32,64,128,256", help="comma-separated square image sizes"
    )
    p_bench.add_argument(
        "--mechanism",
        choices=("standard", "coupled", "both"),
        default="both",
        help="which mechanism(s) to report",
    )
    p_bench.add_argument("--out", default=None, help="output directory (default runs/<timestamp>)")
    p_bench.set_defaults(func=cmd_bench)

    p_train = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    p_train.add_argument("--config", default=None, help="key = value config file")
    p_train.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p_train.add_argument("--seed", type=int, default=None, help="override the seed config key")
    p_train.add_argument("--data", default=None, help="dataset root (default $COUPLFORMER_DATA)")
    p_train.add_argument("--out", default=None, help="output directory (default runs/<timestamp>)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a finished run's checkpoint on a split")
    p_eval.add_argument("--run", required=True, help="output directory of a train run")
    p_eval.add_argument(
        "--split", choices=("train", "val", "test"), default="val", help="dataset split"
    )
    p_eval.add_argument("--data", default=None, help="dataset root (default $COUPLFORMER_DATA)")
    p_eval.add_argument("--out", default=None, help="where to write eval.csv (default: run dir)")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CheckpointError, ShapeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
