"""Couplformer image classifier.

Pipeline: convolutional stem -> raster token grid (+ optional learnable
position embedding) -> pre-norm encoder blocks with coupled or standard
attention -> final layer norm -> sequence pooling -> linear head.

Each stem stage is the CCT tokenizer's: a 3x3 stride-1 convolution whose
padding keeps the spatial size, ReLU, and a 3x3/stride-2/padding-1 max pool,
so every stage halves the grid (rounding up).  The token embedding
dimension is the final stage's channel count.  Sequence pooling
replaces a class token: a learned d->1 projection scores every token, the
softmax of those scores weights the token average.

A checkpoint is a directory: ``manifest.txt`` names every parameter with its
shape, and ``tensors.bin`` holds their :func:`couplformer.tensor.to_bytes`
records in the same order and nothing else.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import tensor as T
from .attention import (
    KINDS,
    AttentionGeometry,
    CouplingAttentionParams,
    attention_forward,
    trunc_normal,
)
from .autograd import Var
from .tensor import ShapeError, Tensor

__all__ = [
    "StemStage",
    "ModelConfig",
    "EncoderBlockParams",
    "CouplformerModel",
    "CheckpointError",
    "conv_stem_forward",
    "encoder_block_forward",
    "sequence_pool",
    "model_forward",
    "POS_EMBEDDING_MODES",
]

POS_EMBEDDING_MODES = ("none", "learnable")


class CheckpointError(ValueError):
    """Checkpoint files are malformed or do not match the model being loaded."""


@dataclass(frozen=True)
class StemStage:
    """A 3x3 same-padded convolution to ``out_channels``, ReLU and a 3x3/2 max pool."""

    out_channels: int

    def __post_init__(self) -> None:
        if self.out_channels < 1:
            raise ValueError(f"config: stem stage {self} needs positive channels")


@dataclass(frozen=True)
class ModelConfig:
    img_size: tuple[int, int]
    in_channels: int
    conv_stem: tuple[StemStage, ...]
    embed_dim: int
    depth: int
    heads: int
    num_classes: int
    mlp_ratio: int = 2
    pos_embedding: str = "learnable"
    attention_kind: str = "coupled_fast"

    def __post_init__(self) -> None:
        object.__setattr__(self, "img_size", tuple(self.img_size))
        object.__setattr__(self, "conv_stem", tuple(self.conv_stem))
        if not self.conv_stem:
            raise ShapeError("config: conv_stem needs at least one stage")
        for name in ("in_channels", "embed_dim", "heads", "num_classes", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ValueError(f"config: {name} must be positive, got {getattr(self, name)}")
        if self.depth < 0:
            raise ValueError(f"config: depth must be non-negative, got {self.depth}")
        if self.conv_stem[-1].out_channels != self.embed_dim:
            raise ShapeError(
                f"config: final stem channels {self.conv_stem[-1].out_channels} "
                f"must equal embed_dim {self.embed_dim}"
            )
        if self.embed_dim % self.heads != 0:
            raise ShapeError(f"config: embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.pos_embedding not in POS_EMBEDDING_MODES:
            raise ValueError(f"config: pos_embedding must be one of {POS_EMBEDDING_MODES}")
        if self.attention_kind not in KINDS:
            raise ValueError(f"config: attention_kind must be one of {tuple(KINDS)}")
        self.token_grid()  # fail fast if the stem collapses the image

    def token_grid(self) -> tuple[int, int]:
        h, w = self.img_size
        for _ in self.conv_stem:
            h, w = ag.pooled_size(h), ag.pooled_size(w)
            if h < 1 or w < 1:
                raise ShapeError(f"config: stem collapses {self.img_size} to {h}x{w}")
        return h, w

    def geometry(self) -> AttentionGeometry:
        h, w = self.token_grid()
        return AttentionGeometry(h=h, w=w, d=self.embed_dim, heads=self.heads)


class EncoderBlockParams:
    """Layer norms, attention projections, and FFN weights for one block."""

    def __init__(
        self,
        ln1_gamma: Var,
        ln1_beta: Var,
        attn: CouplingAttentionParams,
        ln2_gamma: Var,
        ln2_beta: Var,
        ffn_w1: Var,
        ffn_b1: Var,
        ffn_w2: Var,
        ffn_b2: Var,
    ) -> None:
        self.ln1_gamma, self.ln1_beta = ln1_gamma, ln1_beta
        self.attn = attn
        self.ln2_gamma, self.ln2_beta = ln2_gamma, ln2_beta
        self.ffn_w1, self.ffn_b1 = ffn_w1, ffn_b1
        self.ffn_w2, self.ffn_b2 = ffn_w2, ffn_b2

    @classmethod
    def initialize(
        cls, geometry: AttentionGeometry, mlp_ratio: int, rng: np.random.Generator
    ) -> "EncoderBlockParams":
        d = geometry.d
        hidden = mlp_ratio * d
        return cls(
            ln1_gamma=ag.parameter(T.ones((d,))),
            ln1_beta=ag.parameter(T.zeros((d,))),
            attn=CouplingAttentionParams.initialize(geometry, rng),
            ln2_gamma=ag.parameter(T.ones((d,))),
            ln2_beta=ag.parameter(T.zeros((d,))),
            ffn_w1=ag.parameter(trunc_normal(rng, (d, hidden))),
            ffn_b1=ag.parameter(T.zeros((hidden,))),
            ffn_w2=ag.parameter(trunc_normal(rng, (hidden, d))),
            ffn_b2=ag.parameter(T.zeros((d,))),
        )

    def parameters(self) -> dict[str, Var]:
        out = {"ln1.gamma": self.ln1_gamma, "ln1.beta": self.ln1_beta}
        for name, var in self.attn.parameters().items():
            out[f"attn.{name}"] = var
        out.update(
            {
                "ln2.gamma": self.ln2_gamma,
                "ln2.beta": self.ln2_beta,
                "ffn.w1": self.ffn_w1,
                "ffn.b1": self.ffn_b1,
                "ffn.w2": self.ffn_w2,
                "ffn.b2": self.ffn_b2,
            }
        )
        return out


def conv_stem_forward(image: Var, stages: list[tuple[Var, Var]]) -> Var:
    """Run the stem's (weight, bias) stages and flatten the final feature map to raster-order tokens.

    One image (C, H, W) gives (h*w, d) tokens, a batch (B, C, H, W) gives (B, h*w, d).
    Each stage is one :func:`~couplformer.autograd.conv_relu_pool` node
    (convolution, ReLU, 3x3/2 max pool, so each stage halves the grid,
    rounding up) that keeps only its output and its pool's one-byte choices;
    its vjp rebuilds the convolution's im2col columns from the stage's input.
    """
    x = image
    for weight, bias in stages:
        x = ag.conv_relu_pool(x, weight, bias)
    *lead, d, h, w = x.value.shape
    k = len(lead)
    return ag.permute(ag.reshape(x, (*lead, d, h * w)), (*range(k), k + 1, k))


def encoder_block_forward(x: Var, block: EncoderBlockParams, kind: str) -> Var:
    """Pre-norm residual block on (L, d) or (B, L, d) tokens: x + Attn(LN(x)), then + FFN(LN(.))."""
    attended = attention_forward(
        ag.layernorm(x, block.ln1_gamma, block.ln1_beta), block.attn, kind
    )
    x = ag.add(x, attended)
    normed = ag.layernorm(x, block.ln2_gamma, block.ln2_beta)
    return ag.add(x, ag.feedforward(normed, block.ffn_w1, block.ffn_b1, block.ffn_w2, block.ffn_b2))


def sequence_pool(x: Var, pool_weight: Var) -> Var:
    """Softmax-weighted token average with a learned d->1 scoring projection.

    (L, d) tokens pool to (d,), a (B, L, d) batch to (B, d).
    """
    *lead, L, d = x.value.shape
    scores = ag.reshape(ag.matmul(x, pool_weight), (*lead, 1, L))
    alpha = ag.softmax_rows(scores)
    return ag.reshape(ag.matmul(alpha, x), (*lead, d))


class CouplformerModel:
    """Parameter container plus forward pass for the classifier."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        self.config = config
        self.geometry = config.geometry()
        rng = np.random.default_rng((int(seed), 0x6D6F64))  # model-init stream

        self.stem: list[tuple[Var, Var]] = []
        in_ch = config.in_channels
        for stage in config.conv_stem:
            # Fan-in-scaled init for the 3x3 kernels: the 0.02 std used for
            # the linear projections would start the stem at near-zero signal.
            std = math.sqrt(2.0 / (9 * in_ch))
            weight = ag.parameter(trunc_normal(rng, (stage.out_channels, in_ch, 3, 3), std=std))
            bias = ag.parameter(T.zeros((stage.out_channels,)))
            self.stem.append((weight, bias))
            in_ch = stage.out_channels

        L, d = self.geometry.tokens, config.embed_dim
        self.pos_embedding: Var | None = None
        if config.pos_embedding == "learnable":
            # Zero init keeps "none" and "learnable" identical at initialization.
            self.pos_embedding = ag.parameter(T.zeros((L, d)))

        self.blocks = [
            EncoderBlockParams.initialize(self.geometry, config.mlp_ratio, rng)
            for _ in range(config.depth)
        ]
        self.final_ln_gamma = ag.parameter(T.ones((d,)))
        self.final_ln_beta = ag.parameter(T.zeros((d,)))
        self.pool_weight = ag.parameter(trunc_normal(rng, (d, 1)))
        self.head_weight = ag.parameter(trunc_normal(rng, (d, config.num_classes)))
        self.head_bias = ag.parameter(T.zeros((config.num_classes,)))

    def parameters(self) -> dict[str, Var]:
        out: dict[str, Var] = {}
        for i, (weight, bias) in enumerate(self.stem):
            out[f"stem.{i}.weight"] = weight
            out[f"stem.{i}.bias"] = bias
        if self.pos_embedding is not None:
            out["pos_embedding"] = self.pos_embedding
        for i, block in enumerate(self.blocks):
            for name, var in block.parameters().items():
                out[f"blocks.{i}.{name}"] = var
        out["final_ln.gamma"] = self.final_ln_gamma
        out["final_ln.beta"] = self.final_ln_beta
        out["pool.weight"] = self.pool_weight
        out["head.weight"] = self.head_weight
        out["head.bias"] = self.head_bias
        return out

    def param_count(self) -> int:
        return sum(v.value.size for v in self.parameters().values())

    def forward(self, image) -> Var:
        return model_forward(image, self)

    # -- checkpointing: manifest (names + shapes, text) plus tensor records --

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        params = self.parameters()
        lines = [
            f"{name} {' '.join(str(s) for s in var.value.shape)}".rstrip()
            for name, var in params.items()
        ]
        files = {
            "tensors.bin": b"".join(T.to_bytes(var.value) for var in params.values()),
            "manifest.txt": ("\n".join(lines) + "\n").encode(),
        }
        for name, blob in files.items():  # stage both: a failed write keeps the old checkpoint
            (directory / f"{name}.tmp").write_bytes(blob)
        for name in files:
            os.replace(directory / f"{name}.tmp", directory / name)

    def load_state(self, directory) -> None:
        """Load what :meth:`save` wrote; every defect is a :class:`CheckpointError`."""
        directory = Path(directory)
        params = self.parameters()
        try:
            entries = [
                (parts[0], tuple(int(p) for p in parts[1:]))
                for parts in map(str.split, (directory / "manifest.txt").read_text().splitlines())
                if parts
            ]
        except ValueError as exc:
            raise CheckpointError(f"checkpoint manifest is malformed: {exc}") from exc
        if [name for name, _ in entries] != list(params):
            raise CheckpointError(
                "checkpoint parameter names do not match this model configuration"
            )
        rest = memoryview((directory / "tensors.bin").read_bytes())
        loaded = []  # assigned only once the whole file has passed
        for name, shape in entries:
            try:
                t, rest = T._read_record(rest)
            except ValueError as exc:
                raise CheckpointError(f"checkpoint tensors.bin, record {name}: {exc}") from exc
            if t.shape != shape or params[name].value.shape != shape:
                raise CheckpointError(
                    f"checkpoint geometry mismatch for {name}: "
                    f"file {t.shape}, manifest {shape}, model {params[name].value.shape}"
                )
            loaded.append((params[name], t))
        if len(rest):
            raise CheckpointError(
                f"checkpoint tensors.bin has {len(rest)} bytes after its last manifest entry"
            )
        for var, t in loaded:
            var.assign(t)

    @classmethod
    def load(cls, directory, config: ModelConfig) -> "CouplformerModel":
        model = cls(config, seed=0)
        model.load_state(directory)
        return model


def model_forward(image, model: CouplformerModel) -> Var:
    """Logits of one image (in_channels, H, W), or of a batch (B, in_channels, H, W).

    The one forward of the classifier.  One image gives (num_classes,)
    logits, a batch (B, num_classes); the batch runs every layer as one op
    (conv as one GEMM, attention with the batch folded into the head axis),
    and each row equals the logits of that image alone up to float round-off.
    """
    if isinstance(image, Tensor):
        image = ag.constant(image)
    expected = (model.config.in_channels, *model.config.img_size)
    shape = image.value.shape
    if len(shape) not in (3, 4) or shape[-3:] != expected:
        raise ShapeError(f"model: expected an image {expected} or a batch (B, *{expected}), got {shape}")
    lead = shape[:-3]
    x = conv_stem_forward(image, model.stem)
    if model.pos_embedding is not None:
        x = ag.add(x, model.pos_embedding)
    for block in model.blocks:
        x = encoder_block_forward(x, block, model.config.attention_kind)
    x = ag.layernorm(x, model.final_ln_gamma, model.final_ln_beta)
    pooled = sequence_pool(x, model.pool_weight)
    logits = ag.add(
        ag.matmul(ag.reshape(pooled, (math.prod(lead), model.config.embed_dim)), model.head_weight),
        model.head_bias,
    )
    return ag.reshape(logits, (*lead, model.config.num_classes))
