"""Print the score-storage and FLOP tables behind the efficiency claim.

Standard attention keeps heads * (hw)^2 score elements alive; the coupled
mechanism keeps heads * (h^2 + w^2).  Double the image side and the former
grows 16x while the latter grows 4x.  Every analytic number printed here is
also cross-checked against an instrumented forward pass.  Last, the whole
model's measured memory: the traced heap peak of one training step of
configs/tiny.cfg's model, beside each kind's score elements, and, for
one training sample at the benchmark's 28 and 112 px shapes, the bytes each
op's vjp closures keep (parameters left out), the vjp during which the
backward's traced heap peaks and the five highest phases of the sample (an
op's forward or its node's vjp), each with the heap alive before it.
"""

import dataclasses
import inspect
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from couplformer import autograd as ag
from couplformer.attention import KINDS, AttentionGeometry
from couplformer.bench import analytic_cost, default_sweep_config, measured_cost, storage_ratio
from couplformer.cli import build_model_config, resolve_config
from couplformer.model import CouplformerModel
from couplformer.tensor import Tensor
from couplformer.train import TrainConfig, train_loop

config = default_sweep_config()

print(f"{'image':>6} {'grid':>8} {'standard':>12} {'coupled':>10} {'ratio':>8} {'flops std':>12} {'flops cpl':>12}")
prev_std = prev_cpl = None
for size in (32, 64, 128, 256):
    cfg = dataclasses.replace(config, img_size=(size, size))
    h, w = cfg.token_grid()
    std = analytic_cost("standard", cfg.geometry())
    cpl = analytic_cost("coupled_fast", cfg.geometry())
    growth = ""
    if prev_std is not None:
        growth = f"  (x{std.score_elements / prev_std:.0f} vs x{cpl.score_elements / prev_cpl:.0f})"
    print(
        f"{size:>6} {f'{h}x{w}':>8} {std.score_elements:>12,} {cpl.score_elements:>10,} "
        f"{std.score_elements / cpl.score_elements:>7.1f}x {std.flops_total:>12.3g} {cpl.flops_total:>12.3g}{growth}"
    )
    prev_std, prev_cpl = std.score_elements, cpl.score_elements

print(f"\nstorage ratio formula at 56x56 grid: {storage_ratio(AttentionGeometry(h=56, w=56, d=64, heads=4)):.6f}")

# measured peaks from an actual instrumented forward pass, small enough to run
small = dataclasses.replace(config, img_size=(28, 28))
for kind in KINDS:
    report = measured_cost(small, kind)
    print(
        f"28x28 image, {kind:>12}: analytic {report.score_elements:>6}, "
        f"measured {report.measured_peak_elements:>6}, match={report.measured_matches}"
    )

# measured whole-model memory: one optimizer step of tiny.cfg's model on 56x56
# images (a 14x14 token grid), batch 2, with the heap traced over train_loop
tiny_cfg = Path(__file__).resolve().parents[1] / "configs" / "tiny.cfg"
images = np.random.default_rng(0).standard_normal((2, 1, 56, 56))
labels = np.array([3, 7])
for kind in KINDS:
    cfg = build_model_config(resolve_config(str(tiny_cfg), ["img_size=56", f"attention_kind={kind}"]))
    model = CouplformerModel(cfg, seed=0)
    tracemalloc.start()
    train_loop(model, images, labels, images[:0], labels[:0], TrainConfig(epochs=1, batch_size=2))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    elements = analytic_cost(kind, cfg.geometry()).score_elements
    print(
        f"56x56 image, {kind:>12}: score elements per block {elements:>7,}, "
        f"one-step training peak {peak / 2**20:.2f} MiB"
    )


def recorded_nodes(loss):
    """Every recorded node of the graph below ``loss`` (leaves left out)."""
    nodes, stack = {id(loss._op): loss._op}, [loss._op]
    while stack:
        for parent in stack.pop()._parents:
            if parent._parents and id(parent) not in nodes:
                nodes[id(parent)] = parent
                stack.append(parent)
    return list(nodes.values())


def closure_arrays(fn):
    """The arrays a vjp's closure cells hold, through nested functions and containers."""
    stack, seen = [fn], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            yield item
        elif callable(item) and getattr(item, "__closure__", None):
            stack.extend(cell.cell_contents for cell in item.__closure__)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)


def op_name(vjp) -> str:
    """The op whose node ``vjp`` is; a pre-norm sublayer's node vjp closes over its body's, which names it."""
    name = vjp.__qualname__.split(".")[0]
    if name == "_pre_norm":
        name = inspect.getclosurevars(vjp).nonlocals["body_vjp"].__qualname__.split(".")[0]
    return name


# The ops the model's forward calls, each a forward phase of its own.
FORWARD_OPS = (
    "conv_relu_pool", "permute", "reshape", "add", "softmax_attention", "coupling_attention",
    "feedforward", "layernorm", "matmul", "softmax_rows", "cross_entropy",
)


def phase_accounting(model, image, label):
    """Bytes kept per op, and each phase's (peak, phase, bytes alive before it): an op's forward or its node's vjp."""
    owned = {id(p.value.data) for p in model.parameters().values()}  # parameters are left out
    kept: Counter = Counter()
    phases = []

    def measured(fn, phase):
        def call(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            phases.append((tracemalloc.get_traced_memory()[1], phase, before))
            return result

        return call

    originals = {name: getattr(ag, name) for name in FORWARD_OPS}
    tracemalloc.start()  # from the forward on: "alive before" counts the graph
    try:
        for name, fn in originals.items():
            setattr(ag, name, measured(fn, f"forward {name}"))
        try:
            loss = ag.cross_entropy(model.forward(Tensor(image)), label)
        finally:
            for name, fn in originals.items():
                setattr(ag, name, fn)
        for node in recorded_nodes(loss):
            for arr in closure_arrays(node._vjp):
                while arr.base is not None:  # a view keeps its base: count the base once
                    arr = arr.base
                if id(arr) not in owned:
                    owned.add(id(arr))
                    kept[op_name(node._vjp)] += arr.nbytes
            node._vjp = measured(node._vjp, f"backward {op_name(node._vjp)}")
        ag.backward(loss)
    finally:
        tracemalloc.stop()
    return kept, phases


print("\none training sample of tiny.cfg's model: what the vjps keep, and where forward and backward peak")
for size in (28, 112):
    for kind in KINDS:
        cfg = build_model_config(resolve_config(str(tiny_cfg), [f"img_size={size}", f"attention_kind={kind}"]))
        kept, phases = phase_accounting(
            CouplformerModel(cfg, seed=0), np.random.default_rng(1).standard_normal((1, size, size)), 3
        )
        by_op = ", ".join(f"{name} {n / 2**20:.2f}" for name, n in kept.most_common())
        print(f"{size}x{size} image, {kind:>12}: vjps keep {sum(kept.values()) / 2**20:.2f} MiB ({by_op})")
        peak, phase, before = max(p for p in phases if p[1].startswith("backward"))
        print(
            f"{size}x{size} image, {kind:>12}: backward peak {peak / 2**20:.2f} MiB during {phase.split()[1]} vjp, "
            f"{before / 2**20:.2f} MiB alive before it"
        )
        top = sorted(phases, reverse=True)[:5]
        print(
            f"{size}x{size} image, {kind:>12}: five highest phases, MiB (alive before): "
            + ", ".join(f"{phase} {peak / 2**20:.2f} ({before / 2**20:.2f})" for peak, phase, before in top)
        )
