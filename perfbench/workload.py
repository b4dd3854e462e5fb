"""One workload in one fresh process: inputs, set-up, timed rounds, checks.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count set.  Four commands:

    workload.py inputs --workload W --seed S --dir D   write the IDX inputs
    workload.py setup  --workload W --seed S --dir D   set up, print READY, exit
    workload.py kernel --workload W --seed S --dir D   run the calibration kernel per stdin line
    workload.py run    --workload W --seed S --dir D --seconds N --trace 0|1

Set-up is what ``couplformer train`` does before its first step: import the
package, ``load_dataset``, ``subset_indices``/``split_indices``, build the
``CouplformerModel``.  ``run`` then repeats whole rounds until ``--seconds``
have passed.  A round is ``train_loop`` (with a checkpoint) on the round's
training images, ``CouplformerModel.load`` of that checkpoint and
``evaluate`` on held-out images.  The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

MIB = 2.0**20


@dataclass(frozen=True)
class Workload:
    img: int  # square image side; the stem's two pools give img // 4 tokens a side
    kind: str  # attention_kind
    files: dict  # "train"/"test" -> (images in the IDX file, distinct renders)
    limit_train: int | None
    val_size: int
    round_train: int  # training images per round, seen once per epoch
    epochs: int  # epochs per round; each epoch is one timed sample
    round_val: int  # validation images per epoch inside train_loop (not timed)
    eval_images: int  # held-out images evaluated per round
    eval_chunk: int  # images per evaluate call; each call is one timed sample
    calib_images: int  # images in the calibration kernel
    calib_ms: float  # the kernel's nominal time: rates are scaled to this machine speed
    batch_size: int = 8
    lr: float = 3e-3
    weight_decay: float = 3e-2

    @property
    def grid(self) -> int:
        return self.img // 4

    def ops_per_round(self) -> int:
        steps = self.epochs * -(-self.round_train // self.batch_size)
        return steps + self.eval_images


# Model settings of configs/tiny.cfg: stem 16,32 (both pooled), d=32, depth 2,
# 4 heads, batch 8, lr 3e-3, weight decay 3e-2.
WORKLOADS = {
    "tiny": Workload(
        img=28,
        kind="coupled_fast",
        files={"train": (60000, 4000), "test": (10000, 1000)},
        limit_train=2000,
        val_size=200,
        round_train=16,
        epochs=8,
        round_val=4,
        eval_images=64,
        eval_chunk=16,
        calib_images=4,
        calib_ms=15.0,
    ),
    "grid28": Workload(
        img=112,
        kind="coupled_fast",
        files={"train": (12, 12), "test": (16, 16)},
        limit_train=None,
        val_size=4,
        round_train=8,
        epochs=3,
        round_val=4,
        eval_images=16,
        eval_chunk=4,
        calib_images=1,
        calib_ms=60.0,
    ),
}
WORKLOADS["grid28-standard"] = Workload(**{**WORKLOADS["grid28"].__dict__, "kind": "standard", "calib_ms": 115.0})

FD_TENSORS = 8  # parameter tensors, one seeded coordinate each, in the gradient check
PROBES = 2  # held-out images in the logit, reload and score-element checks


@dataclass
class Env:
    w: Workload
    seed: int
    dir: Path
    ct: object  # couplformer.train
    cm: object  # couplformer.model
    ag: object  # couplformer.autograd
    ctensor: object  # couplformer.tensor
    config: object
    model: object
    tx: object
    ty: object
    vx: object
    vy: object
    ex: object
    ey: object
    load_peak_mib: float = 0.0


@dataclass
class Round:
    train_rates: list  # (samples/s, calibration s) of each epoch, validation left out
    eval_rates: list  # (images/s, calibration s) of each evaluate call
    evals: list  # (first image, loss, accuracy) of each evaluate call
    history: list
    trained: object
    reloaded: object
    traced: bool


@dataclass
class Outcome:
    rounds: list = field(default_factory=list)
    started: int = 0  # rounds begun, failed ones included
    attempted: int = 0
    failed: int = 0


def setup(w: Workload, seed: int, directory: Path, tracer: Tracer, trace: bool) -> Env:
    with tracer.span("bench.setup"):
        with tracer.span("import"):
            import couplformer
            from couplformer import autograd as ag
            from couplformer import model as cm
            from couplformer import tensor as ctensor
            from couplformer import train as ct
        src = Path.cwd().resolve() / "src"
        if src not in Path(couplformer.__file__).resolve().parents:
            raise SystemExit(f"couplformer imported from {couplformer.__file__}, not from {src}")
        if trace:
            tracer.wrap(ct, "load_dataset", "load_dataset")
            tracer.wrap(cm.CouplformerModel, "__init__", "model_init")
            tracemalloc.start()
        try:
            train_x, train_y, test_x, test_y = ct.load_dataset(directory / "data")
            load_peak = tracemalloc.get_traced_memory()[1] / MIB if trace else 0.0
        finally:
            tracemalloc.stop()
        keep = ct.subset_indices(train_x.shape[0], w.limit_train, seed)
        train_x, train_y = train_x[keep], train_y[keep]
        tr_idx, val_idx = ct.split_indices(train_x.shape[0], w.val_size, seed)
        eval_keep = ct.subset_indices(test_x.shape[0], w.eval_images, seed)
        config = cm.ModelConfig(
            img_size=(w.img, w.img),
            in_channels=1,
            conv_stem=(cm.StemStage(out_channels=16), cm.StemStage(out_channels=32)),
            embed_dim=32,
            depth=2,
            heads=4,
            num_classes=10,
            mlp_ratio=2,
            pos_embedding="learnable",
            attention_kind=w.kind,
        )
        model = cm.CouplformerModel(config, seed=seed)
    return Env(
        w=w, seed=seed, dir=directory, ct=ct, cm=cm, ag=ag, ctensor=ctensor,
        config=config, model=model,
        tx=train_x[tr_idx], ty=train_y[tr_idx],
        vx=train_x[val_idx][: w.round_val], vy=train_y[val_idx][: w.round_val],
        ex=test_x[eval_keep], ey=test_y[eval_keep],
        load_peak_mib=load_peak,
    )


def calibration(w: Workload):
    """A fixed numpy kernel, the reference forward of the workload's model.

    It shares no code with the program and never changes, so its time
    measures the machine's speed at that moment; each timed sample is paired
    with one run of it to factor out the speed of a shared, busy host.  It
    runs in a process of its own (``cmd_kernel``), never in the program's.
    """
    import numpy as np
    import inputs
    import reference as ref

    arch = ref.Arch(grid=(w.grid, w.grid), heads=4, depth=2, kind=w.kind)
    rng = np.random.default_rng(0xCA1B)
    params = ref.random_params(arch, rng)
    pixels, _ = inputs.render(w.calib_images, w.img, rng)
    images = ((pixels / 255.0 - 0.1307) / 0.3081)[:, None]

    def calibrate() -> float:
        t = time.perf_counter()
        ref.forward(params, arch, images)
        return time.perf_counter() - t

    return calibrate


def calibrate() -> float:
    """Seconds one run of the calibration kernel took, in its own process, now.

    ``run.py`` answers the CALIBRATE line on stdin; this process waits meanwhile.
    """
    print("CALIBRATE", flush=True)
    reply = sys.stdin.readline()
    if not reply:
        raise SystemExit("no calibration reply on stdin")
    return float(reply)


def train_config(env: Env, epochs: int):
    w = env.w
    return env.ct.TrainConfig(
        epochs=epochs,
        batch_size=w.batch_size,
        lr=w.lr,
        weight_decay=w.weight_decay,
        seed=env.seed,
        target_train_acc=None,
    )


def run_round(env: Env, k: int, tracer: Tracer, traced: bool) -> Round:
    """One round: train_loop with a checkpoint, reload, evaluate held-out images."""
    w, ct, cm = env.w, env.ct, env.cm
    chunks = max(1, env.tx.shape[0] // w.round_train)
    lo = (k % chunks) * w.round_train
    cx, cy = env.tx[lo : lo + w.round_train], env.ty[lo : lo + w.round_train]
    model = env.model if k == 0 else cm.CouplformerModel(env.config, seed=env.seed)
    out = env.dir / f"round{k}"

    # Each epoch ends at its log call; the validation pass before it is timed
    # through the module's evaluate and left out.  The log call waits for
    # the calibration kernel's run, outside the timed span.
    train_rates, val_s, start = [], [], [0.0]
    inner = ct.evaluate

    def timed_evaluate(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            val_s.append(time.perf_counter() - t)

    def epoch_end(row):
        train_s = time.perf_counter() - start[0] - sum(val_s)
        val_s.clear()
        train_rates.append((cx.shape[0] / train_s, calibrate()))
        start[0] = time.perf_counter()

    ct.evaluate = timed_evaluate
    try:
        with tracer.span("bench.train"):
            start[0] = time.perf_counter()
            result = ct.train_loop(
                model, cx, cy, env.vx, env.vy, train_config(env, w.epochs),
                metrics_path=out / "metrics.csv",
                checkpoint_dir=out / "checkpoint",
                log=epoch_end,
            )
    finally:
        ct.evaluate = inner
    reloaded = cm.CouplformerModel.load(out / "checkpoint", env.config)
    eval_rates, evals = [], []
    with tracer.span("bench.eval"):
        for first in range(0, env.ex.shape[0], w.eval_chunk):
            x, y = env.ex[first : first + w.eval_chunk], env.ey[first : first + w.eval_chunk]
            t = time.perf_counter()
            loss, acc = ct.evaluate(reloaded, x, y)
            eval_rates.append((x.shape[0] / (time.perf_counter() - t), calibrate()))
            evals.append((first, loss, acc))
    return Round(
        train_rates=train_rates, eval_rates=eval_rates, evals=evals,
        history=result.history, trained=model, reloaded=reloaded, traced=traced,
    )


def measure(env: Env, seconds: float, tracer: Tracer, outcome: Outcome, alternate: bool) -> None:
    """Whole rounds until ``seconds`` have passed.

    With ``alternate`` every second round runs with the layers wrapped in
    spans, so traced and untraced rounds share the same conditions; at least
    one of each runs.
    """
    start, k = time.perf_counter(), 0
    while True:
        k += 1
        traced = alternate and k % 2 == 0
        outcome.attempted += env.w.ops_per_round()
        if traced:
            wrap_layers(env, tracer)
        try:
            outcome.rounds.append(run_round(env, outcome.started, tracer if traced else Tracer(), traced))
        except Exception:
            traceback.print_exc()
            outcome.failed += env.w.ops_per_round()
        finally:
            tracer.unwrap_all()
        outcome.started += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (k >= 2 or not alternate):
            break


def one_step(env: Env, track_heap: bool) -> float:
    """One optimizer step at the workload's batch size, through train_loop.

    Run before the timed rounds, it also lets the process warm up.  Returns
    the peak traced heap over the step in MiB when ``track_heap`` is set.
    """
    w = env.w
    model = env.cm.CouplformerModel(env.config, seed=env.seed)
    x, y = env.tx[: w.batch_size], env.ty[: w.batch_size]
    if track_heap:
        tracemalloc.start()
    try:
        env.ct.train_loop(model, x, y, env.vx[:0], env.vy[:0], train_config(env, 1))
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def program_logits(env: Env, model, images):
    import numpy as np

    return np.array([model.forward(env.ctensor.Tensor(x)).value.data for x in images])


def gradient_check(env: Env, model, params, arch, x, y):
    """Backward on one image's loss against central differences of the reference."""
    import numpy as np
    import reference as ref

    variables = model.parameters()
    for v in variables.values():
        v.clear_grad()
    loss = env.ag.cross_entropy(model.forward(env.ctensor.Tensor(x)), int(y))
    env.ag.backward(loss)
    rng = np.random.default_rng((env.seed, 0x4644))
    names = list(variables)
    analytic, central, scales = [], [], []
    for i in sorted(rng.choice(len(names), size=min(FD_TENSORS, len(names)), replace=False)):
        name = names[i]
        grad = variables[name].grad
        g = np.zeros(params[name].size) if grad is None else np.asarray(grad.data).ravel()
        top = float(np.abs(g).max())
        pool = np.flatnonzero(np.abs(g) >= ref.GRAD_PICK_SHARE * top) if top > 0 else np.arange(g.size)
        j = int(rng.choice(pool))
        analytic.append(float(g[j]))
        central.append(ref.central_difference(params, arch, x, int(y), name, j))
        scales.append(top)
    return ref.check_gradients(analytic, central, scales)


def run_checks(env: Env, rounds: list[Round]) -> list[tuple[str, bool, str]]:
    import numpy as np
    import reference as ref

    w = env.w
    arch = ref.Arch(grid=(w.grid, w.grid), heads=4, depth=2, kind=w.kind)
    results, probes = [], env.ex[:PROBES]
    for k, r in enumerate(rounds):
        results.append((f"round {k} training", *ref.check_training(r.history)))
        results.append((f"round {k} reload", *ref.check_reload(
            program_logits(env, r.trained, probes), program_logits(env, r.reloaded, probes))))
    last = rounds[-1]
    model = last.reloaded
    params = {n: np.array(v.value.data, dtype=np.float64) for n, v in model.parameters().items()}
    ref_logits = ref.forward(params, arch, env.ex)
    results.append(("logits", *ref.check_logits(program_logits(env, model, env.ex[:PROBES]), ref_logits[:PROBES])))
    for first, loss, acc in last.evals:
        span = slice(first, first + env.w.eval_chunk)
        results.append((f"evaluate from image {first}", *ref.check_evaluation(loss, acc, ref_logits[span], env.ey[span])))
    with env.ctensor.ScoreTracker() as tracker:
        model.forward(env.ctensor.Tensor(env.ex[0]))
    results.append(("score elements", *ref.check_score_elements(tracker.block_totals, arch)))
    results.append(("gradients", *gradient_check(env, model, params, arch, env.ex[0], env.ey[0])))
    return results


# --------------------------------------------------------------------------
# per-layer metrics from the traced rounds
# --------------------------------------------------------------------------

# span name -> where it is wrapped, relative to the couplformer package
TRACED = {
    "conv_stem_forward": ("model", "conv_stem_forward"),
    "attention_forward": ("model", "attention_forward"),
    "encoder_block_forward": ("model", "encoder_block_forward"),
    "model_forward": ("model", "model_forward"),
    "sequence_pool": ("model", "sequence_pool"),
    "backward": ("autograd", "backward"),
    "evaluate": ("train", "evaluate"),
    "AdamW.step": ("train.AdamW", "step"),
}


def wrap_layers(env: Env, tracer: Tracer) -> None:
    owners = {"model": env.cm, "autograd": env.ag, "train": env.ct, "train.AdamW": env.ct.AdamW}
    for name, (owner, attr) in TRACED.items():
        tracer.wrap(owners[owner], attr, name)


def count_nodes(root) -> int | None:
    """Nodes reachable from ``root`` through recorded parents, root included."""
    if not hasattr(root, "_parents"):
        return None
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def graph_probe(env: Env) -> dict:
    """One training sample's graph: node count, heap held, live score elements."""
    model = env.cm.CouplformerModel(env.config, seed=env.seed)
    image = env.ctensor.Tensor(env.tx[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with env.ctensor.ScoreTracker() as tracker:
            loss = env.ag.cross_entropy(model.forward(image), int(env.ty[0]))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return {"nodes": count_nodes(loss), "graph_mib": held / MIB, "scores": tracker.peak_elements}


def layer_metrics(tracer: Tracer, env: Env, traced: list[Round], untraced: list[Round]) -> tuple[dict, list[str]]:
    own = tracer.self_times()
    totals: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    setup_s: dict[str, float] = {}
    for i, s in enumerate(tracer.spans):
        above = tracer.ancestors(i)
        if "bench.setup" in above:
            setup_s.setdefault(s.name, s.end - s.start)
            continue
        if "bench.eval" in above:
            ctx = "eval"
        elif "bench.train" in above and "evaluate" not in above:
            ctx = "train"
        else:
            continue
        totals[s.name, ctx] = totals.get((s.name, ctx), 0.0) + own[i]
        calls[s.name, ctx] = calls.get((s.name, ctx), 0) + 1
    w = env.w
    samples = {"train": len(traced) * w.epochs * w.round_train, "eval": len(traced) * w.eval_images}
    missing = tracer.missing()
    for name in ("import", "load_dataset", "model_init"):
        if name not in setup_s and name not in missing:
            missing.append(name)

    def per(name, ctx):
        return 1e3 * totals.get((name, ctx), 0.0) / samples[ctx]

    values, needs = {}, {}

    def put(metric, unit, value, *spans):
        values[metric] = (value, unit)
        needs[metric] = spans

    put("couplformer.import_s", "s", setup_s.get("import", 0.0), "import")
    put("train.load_dataset_s", "s", setup_s.get("load_dataset", 0.0), "load_dataset")
    put("train.load_dataset_peak_mib", "MiB", env.load_peak_mib, "load_dataset")
    put("model.init_s", "s", setup_s.get("model_init", 0.0), "model_init")
    for ctx in ("train", "eval"):
        put(f"model.stem_ms.{ctx}", "ms", per("conv_stem_forward", ctx), "conv_stem_forward")
        put(f"attention.fwd_ms.{ctx}", "ms", per("attention_forward", ctx), "attention_forward")
        put(f"model.block_ms.{ctx}", "ms", per("encoder_block_forward", ctx), "encoder_block_forward")
        put(f"model.head_ms.{ctx}", "ms", per("model_forward", ctx) + per("sequence_pool", ctx),
            "model_forward", "sequence_pool")
    put("autograd.backward_ms", "ms", per("backward", "train"), "backward")
    steps = calls.get(("AdamW.step", "train"), 0)
    put("train.optimizer_step_ms", "ms", 1e3 * totals.get(("AdamW.step", "train"), 0.0) / max(1, steps), "AdamW.step")
    probe = graph_probe(env)
    if probe["nodes"] is None:
        missing.append("recorded graph parents")
    else:
        put("autograd.nodes_per_sample", "count", probe["nodes"])
    put("autograd.graph_mib", "MiB", probe["graph_mib"])
    put("attention.score_elements", "count", probe["scores"])
    calib = [c for r in traced + untraced for _, c in r.train_rates + r.eval_rates]
    put("machine.calibration_ms", "ms", 1e3 * statistics.median(calib))
    put("trace.overhead_pct", "%", 100.0 * (median_rate(untraced, "train_rates", w.calib_ms / 1e3) / median_rate(traced, "train_rates", w.calib_ms / 1e3) - 1.0))
    metrics = {
        m: {"value": v, "unit": u}
        for m, (v, u) in values.items()
        if not any(s in missing for s in needs[m])
    }
    return metrics, missing


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_inputs(args) -> int:
    import inputs

    w = WORKLOADS[args.workload]
    inputs.make_inputs(args.dir / "data", w.img, w.files, args.seed)
    import couplformer  # noqa: F401  (compiles the package once, before set-up is timed)

    return 0


def cmd_kernel(args) -> int:
    kernel = calibration(WORKLOADS[args.workload])
    kernel()  # warm up
    print("READY", flush=True)
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


def cmd_setup(args) -> int:
    setup(WORKLOADS[args.workload], args.seed, args.dir, Tracer(), trace=False)
    print("READY", flush=True)
    return 0


def median_rate(rounds: list[Round], field_name: str, nominal_s: float) -> float:
    """Median over the rounds' timed samples (epochs or evaluate calls) of the
    rate scaled to the machine speed at which the calibration takes ``nominal_s``."""
    return statistics.median(rate * calib / nominal_s for r in rounds for rate, calib in getattr(r, field_name))


def cmd_run(args) -> int:
    w = WORKLOADS[args.workload]
    tracer = Tracer()
    env = setup(w, args.seed, args.dir, tracer, trace=bool(args.trace))
    print("READY", flush=True)
    outcome = Outcome(attempted=1)  # the optimizer step of the first pass
    try:
        peak = one_step(env, track_heap=not args.trace)
    except Exception:
        traceback.print_exc()
        outcome.failed, peak = 1, None
    measure(env, args.seconds, tracer, outcome, alternate=bool(args.trace))
    traced = [r for r in outcome.rounds if r.traced]
    untraced = [r for r in outcome.rounds if not r.traced]
    metrics: dict = {}
    if args.trace:
        if traced and untraced:
            metrics, missing = layer_metrics(tracer, env, traced, untraced)
            for name in missing:
                print(f"MISSING span {name} ({tracer.wrapped.get(name, 'benchmark')}): no call recorded")
        spans_file = args.dir.parent / "spans" / f"{args.workload}-s{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(tracer.to_json()))
    elif untraced and peak is not None:
        raw = {k: statistics.median(rate for r in untraced for rate, _ in getattr(r, k)) for k in ("train_rates", "eval_rates")}
        kernel_ms = 1e3 * statistics.median(c for r in untraced for _, c in r.train_rates + r.eval_rates)
        print(f"raw medians: train {raw['train_rates']:.4g} samples/s, eval {raw['eval_rates']:.4g} images/s;"
              f" calibration kernel {kernel_ms:.4g} ms against {w.calib_ms:g} ms nominal")
        metrics = {
            "train_samples_per_s": {"value": median_rate(untraced, "train_rates", w.calib_ms / 1e3), "unit": "samples/s"},
            "eval_images_per_s": {"value": median_rate(untraced, "eval_rates", w.calib_ms / 1e3), "unit": "images/s"},
            "train_peak_mib": {"value": peak, "unit": "MiB"},
        }
    correct = bool(outcome.rounds)
    if outcome.rounds:
        for name, ok, detail in run_checks(env, outcome.rounds):
            print(f"check {name}: {'ok' if ok else 'FAILED'}: {detail}", file=sys.stderr)
            correct = correct and ok
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("inputs", "setup", "kernel", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, help="run: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.command == "run" and args.seconds is None:
        parser.error("run needs --seconds")
    return {"inputs": cmd_inputs, "setup": cmd_setup, "kernel": cmd_kernel, "run": cmd_run}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
