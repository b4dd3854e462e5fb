"""Independent numpy forward of the classifier, and the benchmark's checks.

The forward here shares no code with the program.  It reads the model's
parameters by name and recomputes the logits: the stem through sliding
windows, the coupled map as an explicit ``np.kron(softmax(A), softmax(B))``
and the standard map as a plain ``softmax(Q K^T / sqrt(d_head)) V``.

Every tolerance is relative to the size of the quantity compared and is
loose enough for float32 compute (unit round-off about 6e-8), so a later
change of compute dtype passes while a wrong result does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

# |program - reference| <= LOGIT_TOL * (1 + |reference|), per logit and for
# the mean evaluation loss.  float32 forwards of this model stay near 1e-6.
LOGIT_TOL = 1e-4
# |analytic - central| <= GRAD_RTOL * max(|analytic|, |central|)
#                         + GRAD_ATOL * (largest |analytic| in that tensor)
GRAD_RTOL = 1e-3
GRAD_ATOL = 1e-4
FD_EPS = 1e-5
# Coordinates are drawn among those whose gradient is at least this share of
# the tensor's largest, so that a check cannot pass on a gradient near zero.
GRAD_PICK_SHARE = 0.1


@dataclass(frozen=True)
class Arch:
    """The architecture the reference computes, stated apart from the program."""

    grid: tuple[int, int]
    heads: int
    depth: int
    kind: str  # "standard" or a coupled kind
    stem_pool: tuple[bool, ...] = (True, True)


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1 same-padded convolution of (N, C, H, W) by (O, C, k, k)."""
    k = w.shape[-1]
    p = k // 2
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))  # N C H W k k
    out = np.tensordot(windows, w, axes=([1, 4, 5], [1, 2, 3]))  # N H W O
    return out.transpose(0, 3, 1, 2) + b[None, :, None, None]


def maxpool(x: np.ndarray) -> np.ndarray:
    """3x3 max pool, stride 2, padding 1 with -inf."""
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    return sliding_window_view(padded, (3, 3), axis=(2, 3))[:, :, ::2, ::2].max(axis=(-1, -2))


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * gamma + beta


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _linear(x, p, w, b):
    out = x @ p[w]
    return out + p[b] if b in p else out


def attention(x: np.ndarray, p: dict, arch: Arch, coupling=np.kron) -> np.ndarray:
    """One image's attention output; ``p`` holds w_q.. (and b_q.. if present)."""
    h, w = arch.grid
    d = x.shape[1]
    dh = d // arch.heads
    q, k, v = (_linear(x, p, f"w_{n}", f"b_{n}") for n in "qkv")
    outs = []
    for n in range(arch.heads):
        cols = slice(n * dh, (n + 1) * dh)
        qh, kh, vh = q[:, cols], k[:, cols], v[:, cols]
        if arch.kind == "standard":
            full = softmax(qh @ kh.T / math.sqrt(dh))
        else:
            qg, kg = qh.reshape(h, w, dh), kh.reshape(h, w, dh)
            rows = np.einsum("yxc,zxc->yz", qg, kg) / math.sqrt(w * dh)
            columns = np.einsum("yac,ybc->ab", qg, kg) / math.sqrt(h * dh)
            full = coupling(softmax(rows), softmax(columns))
        outs.append(full @ vh)
    return _linear(np.concatenate(outs, axis=1), p, "w_o", "b_o")


def forward(params: dict[str, np.ndarray], arch: Arch, images: np.ndarray, coupling=np.kron) -> np.ndarray:
    """Logits (N, classes) for images (N, 1, H, W) from named parameters."""
    x = np.asarray(images)
    for i, pool in enumerate(arch.stem_pool):
        x = np.maximum(conv2d(x, params[f"stem.{i}.weight"], params[f"stem.{i}.bias"]), 0.0)
        if pool:
            x = maxpool(x)
    n, d = x.shape[:2]
    tokens = x.reshape(n, d, -1).transpose(0, 2, 1)  # raster order: x + y*w
    if "pos_embedding" in params:
        tokens = tokens + params["pos_embedding"]
    logits = []
    for t in tokens:
        for b in range(arch.depth):
            pre = f"blocks.{b}."
            attn = {k[len(pre) + 5 :]: v for k, v in params.items() if k.startswith(pre + "attn.")}
            t = t + attention(layernorm(t, params[pre + "ln1.gamma"], params[pre + "ln1.beta"]), attn, arch, coupling)
            hidden = gelu(layernorm(t, params[pre + "ln2.gamma"], params[pre + "ln2.beta"]) @ params[pre + "ffn.w1"] + params[pre + "ffn.b1"])
            t = t + hidden @ params[pre + "ffn.w2"] + params[pre + "ffn.b2"]
        t = layernorm(t, params["final_ln.gamma"], params["final_ln.beta"])
        alpha = softmax((t @ params["pool.weight"])[:, 0])
        logits.append(alpha @ t @ params["head.weight"] + params["head.bias"])
    return np.array(logits)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row negative log likelihood."""
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return lse - logits[np.arange(len(labels)), labels]


# --------------------------------------------------------------------------
# checks: each returns (passed, one-line detail)
# --------------------------------------------------------------------------


def check_logits(program: np.ndarray, reference: np.ndarray) -> tuple[bool, str]:
    program, reference = np.asarray(program), np.asarray(reference)
    if program.shape != reference.shape:
        return False, f"shape {program.shape} != reference {reference.shape}"
    err = np.abs(program - reference) / (1.0 + np.abs(reference))
    worst = float(err.max()) if np.all(np.isfinite(err)) else math.inf
    return worst <= LOGIT_TOL, f"worst scaled error {worst:.2e} (tolerance {LOGIT_TOL:.0e})"


def check_gradients(analytic, central, scales) -> tuple[bool, str]:
    """Analytic gradient coordinates against central differences."""
    a, c, s = (np.asarray(v, dtype=np.float64) for v in (analytic, central, scales))
    allowed = GRAD_RTOL * np.maximum(np.abs(a), np.abs(c)) + GRAD_ATOL * s
    err = np.abs(a - c)
    ok = bool(np.all(np.isfinite(a)) and np.all(err <= allowed))
    worst = float(np.max(err / np.where(allowed > 0, allowed, 1.0))) if a.size else 0.0
    return ok, f"{a.size} coordinates, worst error/allowed {worst:.2e}"


def expected_score_elements(arch: Arch) -> int:
    h, w = arch.grid
    per_head = (h * w) ** 2 if arch.kind == "standard" else h * h + w * w
    return arch.heads * per_head


def check_score_elements(block_totals, arch: Arch) -> tuple[bool, str]:
    """Live score elements of every block against the geometry's formula."""
    want = expected_score_elements(arch)
    totals = [int(t) for t in block_totals]
    ok = len(totals) == arch.depth and all(t == want for t in totals)
    return ok, f"blocks {totals}, expected {arch.depth} x {want}"


def check_training(history: list[dict]) -> tuple[bool, str]:
    """Every epoch loss finite, and the last epoch's below the first's."""
    losses = [float(row["train_loss"]) for row in history]
    if len(losses) < 2:
        return False, f"need two epochs, got {len(losses)}"
    ok = all(math.isfinite(v) for v in losses) and losses[-1] < losses[0]
    return ok, f"epoch losses {losses[0]:.4f} -> {losses[-1]:.4f}"


def check_reload(trained: np.ndarray, reloaded: np.ndarray) -> tuple[bool, str]:
    same = np.array_equal(np.asarray(trained), np.asarray(reloaded))
    return same, "bitwise equal" if same else "reloaded logits differ"


def check_evaluation(loss: float, accuracy: float, ref_logits: np.ndarray, labels: np.ndarray) -> tuple[bool, str]:
    """``evaluate``'s mean loss and accuracy against the reference logits.

    Images whose two best reference logits lie within the logit tolerance may
    flip either way; no other prediction may differ.
    """
    labels = np.asarray(labels)
    ref_loss = float(cross_entropy(ref_logits, labels).mean())
    loss_ok = abs(loss - ref_loss) <= LOGIT_TOL * (1.0 + abs(ref_loss))
    top2 = np.sort(ref_logits, axis=1)[:, -2:]
    near_ties = int(np.sum(top2[:, 1] - top2[:, 0] <= 2 * LOGIT_TOL * (1.0 + np.abs(top2[:, 1]))))
    hits = int(np.sum(ref_logits.argmax(axis=1) == labels))
    acc_ok = abs(accuracy * len(labels) - hits) <= near_ties
    return loss_ok and acc_ok, (
        f"loss {loss:.6f} vs {ref_loss:.6f}, accuracy {accuracy:.4f} vs {hits / len(labels):.4f}"
    )


def central_difference(params: dict, arch: Arch, x: np.ndarray, y: int, name: str, index: int, eps: float = FD_EPS) -> float:
    """d(loss)/d(params[name].flat[index]) by central differences of the reference."""
    base = params[name]

    def loss(delta: float) -> float:
        moved = base.copy()
        moved.flat[index] += delta
        logits = forward({**params, name: moved}, arch, x[None])
        return float(cross_entropy(logits, np.array([y]))[0])

    return (loss(eps) - loss(-eps)) / (2.0 * eps)


def random_params(arch: Arch, rng: np.random.Generator, d: int = 32, hidden: int = 64, classes: int = 10) -> dict:
    """Named parameters of the classifier's shapes, drawn from ``rng``."""
    h, w = arch.grid
    p = {}
    in_ch = 1
    for i, out_ch in enumerate((16, d)):
        p[f"stem.{i}.weight"] = rng.normal(0.0, math.sqrt(2.0 / (9 * in_ch)), (out_ch, in_ch, 3, 3))
        p[f"stem.{i}.bias"] = np.zeros(out_ch)
        in_ch = out_ch
    p["pos_embedding"] = rng.normal(0.0, 0.02, (h * w, d))
    for b in range(arch.depth):
        pre = f"blocks.{b}."
        for ln in ("ln1", "ln2"):
            p[pre + ln + ".gamma"], p[pre + ln + ".beta"] = np.ones(d), np.zeros(d)
        for n in "qkvo":
            p[pre + f"attn.w_{n}"] = rng.normal(0.0, 0.2, (d, d))
        p[pre + "ffn.w1"], p[pre + "ffn.b1"] = rng.normal(0.0, 0.1, (d, hidden)), np.zeros(hidden)
        p[pre + "ffn.w2"], p[pre + "ffn.b2"] = rng.normal(0.0, 0.1, (hidden, d)), np.zeros(d)
    p["final_ln.gamma"], p["final_ln.beta"] = np.ones(d), np.zeros(d)
    p["pool.weight"] = rng.normal(0.0, 0.1, (d, 1))
    p["head.weight"], p["head.bias"] = rng.normal(0.0, 0.1, (d, classes)), np.zeros(classes)
    return p
