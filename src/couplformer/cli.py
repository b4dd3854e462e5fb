"""Command-line entry point: verify (:mod:`couplformer.verify`), bench, train and eval.

Configuration is plain ``key = value`` text (``#`` starts a comment) merged
in order: built-in defaults, then the ``--config`` file, then repeated
``--set key=value`` overrides, whose values cannot hold ``#``.  Unknown keys
are hard errors.  Every run echoes its fully resolved configuration to
``effective_config.txt`` in the output directory so ``eval`` can rebuild the
exact model and data split.

Exit codes: 0 success, 1 verification/numeric failure, 2 usage error or a
malformed dataset or checkpoint (reported on stderr, never as a traceback).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bench import render_sweep_csv, sweep
from .model import CheckpointError, CouplformerModel, ModelConfig, StemStage
from .tensor import NonFiniteError, ShapeError
from .train import (
    DataFormatError,
    ImageSet,
    TrainConfig,
    evaluate,
    load_idx,
    mnist_paths,
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
    "seed": "0",
    "val_size": "0.1",
    "target_train_acc": "",
    "limit_train": "",
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
        if "#" in item:  # effective_config.txt would read the rest of the value as a comment
            raise CliUsageError(f"--set {item.partition('=')[0].strip()}: a value cannot hold '#'")
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
    """Comma-separated output channel counts, one per stage (conv, ReLU, 3x3/2 max pool)."""
    try:
        channels = [int(token) for token in value.split(",")]
    except ValueError:
        raise CliUsageError(f"config key stem: expected channel counts like '16,32', got {value!r}")
    return tuple(StemStage(out_channels=c) for c in channels)


def build_model_config(resolved: dict[str, str]) -> ModelConfig:
    try:
        return ModelConfig(
            img_size=_parse_img_size(resolved["img_size"]),
            in_channels=1,  # IDX images carry one channel
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
            seed=_parse_int(resolved, "seed", minimum=0),
            target_train_acc=_parse_opt_float(resolved, "target_train_acc"),
        )
    except ValueError as exc:
        raise CliUsageError(f"invalid training config: {exc}")


def write_effective_config(out_dir: Path, resolved: dict[str, str]) -> Path:
    lines = [f"{key} = {resolved[key]}" for key in sorted(resolved)]
    path = out_dir / "effective_config.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def _make_out_dir(flag: str | None, default: Path | None = None) -> Path:
    """Create the ``--out`` directory (else ``default``, else runs/<timestamp>) once the inputs are checked."""
    out_dir = Path(flag) if flag else default or Path("runs") / time.strftime("%Y%m%d-%H%M%S")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file at the path or above it
        raise CliUsageError(f"--out {out_dir}: cannot make this directory ({exc.strerror})")
    return out_dir


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
    if args.seed < 0:
        raise CliUsageError(f"--seed: expected an integer >= 0, got {args.seed}")
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
    rows = sweep(_parse_grid(args.grid))
    out_dir = _make_out_dir(args.out)
    csv_text = render_sweep_csv(rows)
    print(csv_text, end="")
    (out_dir / "sweep.csv").write_text(csv_text)
    print(f"# wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _prepare_splits(
    resolved: dict[str, str], data_dir: Path
) -> tuple[ImageSet, np.ndarray, ImageSet, np.ndarray, ImageSet, np.ndarray]:
    """Load the dataset and cut the deterministic train/val/test splits.

    Each split is an :class:`ImageSet` over just its selected uint8 pixels
    (a copy, or for test the whole test payload), so nothing is normalized
    until ``train_loop`` reads a sample or ``evaluate`` a chunk.  The labels
    are int64, as :func:`load_dataset` gives them.
    """
    paths = mnist_paths(data_dir)
    train_x, train_y = load_idx(paths["train_images"], paths["train_labels"])
    test_x, test_y = load_idx(paths["test_images"], paths["test_labels"])
    seed = _parse_int(resolved, "seed", minimum=0)
    limit_train = _parse_opt_int(resolved, "limit_train", minimum=1)
    val_size = _parse_float(resolved, "val_size")
    if not 0 < val_size < float("inf") or (val_size >= 1 and not val_size.is_integer()):
        raise CliUsageError(f"config key val_size: expected a fraction in (0, 1) or a whole count, got {val_size}")
    keep = subset_indices(train_x.shape[0], limit_train, seed)
    tr_idx, val_idx = (keep[idx] for idx in split_indices(keep.size, val_size, seed))

    def split(pixels: np.ndarray, labels: np.ndarray, idx) -> tuple[ImageSet, np.ndarray]:
        return ImageSet(pixels[idx]), labels[idx].astype(np.int64)

    return (*split(train_x, train_y, tr_idx), *split(train_x, train_y, val_idx), *split(test_x, test_y, slice(None)))


def _check_data(model_config: ModelConfig, split: str, images: ImageSet, labels: np.ndarray) -> None:
    """Image shape and label range against the model, before one is built."""
    expected = (model_config.in_channels, *model_config.img_size)
    if images.shape[1:] != expected:
        raise CliUsageError(
            f"dataset images have shape {images.shape[1:]} per sample but the model "
            f"expects {expected}; adjust img_size"
        )
    bad = labels[labels >= model_config.num_classes]  # IDX labels are unsigned
    if bad.size:
        raise CliUsageError(
            f"{split} split: label {bad[0]} lies outside [0, {model_config.num_classes}); "
            "adjust num_classes or the label file"
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
    _check_data(model_config, "train", tx, ty)
    _check_data(model_config, "val", vx, vy)
    out_dir = _make_out_dir(args.out)
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
    resolved = resolve_config(str(config_path), [])
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
    _check_data(model_config, args.split, images, labels)
    out_dir = _make_out_dir(args.out, run_dir)
    model = CouplformerModel.load(run_dir / "checkpoint", model_config)
    loss, acc = evaluate(model, images, labels)
    line = f"{args.split},{images.shape[0]},{loss:.6f},{acc:.6f}"
    print("split,n,loss,accuracy")
    print(line)
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
    except (DataFormatError, CheckpointError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
