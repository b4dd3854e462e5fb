"""Training utilities: AdamW, cosine schedule, IDX data loading, train loop.

Data enters as IDX files (the MNIST container format: big-endian magic and
extent header, uint8 payload).  A built-in glyph renderer can synthesize a
ten-digit dataset in the same container format so the full pipeline runs
offline; point ``COUPLFORMER_DATA`` at a directory with the real files to
train on MNIST instead.

Everything is deterministic given the config seed: shuffles draw from
per-epoch seeded generators, and metrics files are formatted with fixed
precision so repeated runs are byte-identical.
"""

from __future__ import annotations

import ctypes
import gzip
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Var, no_grad
from .model import CouplformerModel
from .tensor import NonFiniteError, Tensor

__all__ = [
    "TrainConfig",
    "TrainResult",
    "AdamW",
    "adamw_step",
    "lr_at",
    "DataFormatError",
    "read_idx_images",
    "read_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "load_idx",
    "normalize_images",
    "mnist_paths",
    "load_dataset",
    "split_indices",
    "subset_indices",
    "render_digits",
    "write_digit_idx",
    "evaluate",
    "train_loop",
    "METRICS_HEADER",
    "MNIST_MEAN",
    "MNIST_STD",
]

METRICS_HEADER = "epoch,step,lr,train_loss,train_acc,val_acc"
MNIST_MEAN = 0.1307
MNIST_STD = 0.3081

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """An IDX file failed validation (magic, header, payload length, or its gzip stream)."""


# --------------------------------------------------------------------------
# optimizer and schedule
# --------------------------------------------------------------------------


def lr_at(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup to ``base_lr`` then cosine decay to zero."""
    if total_steps <= 0:
        raise ValueError("lr_at: total_steps must be positive")
    if step < warmup_steps:
        return base_lr * (step + 1) / max(1, warmup_steps)
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return base_lr * 0.5 * (1.0 + float(np.cos(np.pi * progress)))


def adamw_step(
    value: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One AdamW update (``step`` counts from 1); returns (value, m, v).

    Weight decay is decoupled: the parameter shrinks by ``lr * wd * value``
    independently of the gradient-derived direction.
    """
    value = value - lr * weight_decay * value
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    value = value - lr * m_hat / (np.sqrt(v_hat) + eps)
    return value, m, v


class AdamW:
    """Stateful AdamW over a named parameter dict of autograd variables."""

    def __init__(
        self,
        params: dict[str, Var],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.slots = {
            name: (np.zeros_like(p.value.data), np.zeros_like(p.value.data))
            for name, p in params.items()
        }

    def step(self, lr: float) -> None:
        self.step_count += 1
        for name, p in self.params.items():
            grad = p.grad
            if grad is None:
                continue
            if not np.all(np.isfinite(grad.data)):
                raise NonFiniteError(f"gradient for parameter '{name}' is not finite")
            m, v = self.slots[name]
            new_value, m, v = adamw_step(
                p.value.data,
                grad.data,
                m,
                v,
                self.step_count,
                lr,
                beta1=self.beta1,
                beta2=self.beta2,
                eps=self.eps,
                weight_decay=self.weight_decay,
            )
            self.slots[name] = (m, v)
            p.assign(Tensor._wrap(new_value))

    def clear_grads(self) -> None:
        for p in self.params.values():
            p.clear_grad()


# --------------------------------------------------------------------------
# IDX container format
# --------------------------------------------------------------------------


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    # Unbuffered: read() to the end then fills one buffer sized from the file,
    # where a buffered reader joins its read-ahead to the rest in a second copy.
    return open(path, "rb", buffering=0)


# Decompressed bytes per read of a gzipped IDX payload (see _read_to_end).
_GZIP_CHUNK = 1 << 16


def _read_to_end(fh) -> bytes | bytearray:
    """The rest of ``fh``, in one buffer.

    An unbuffered file's read() sizes that buffer from the file.  A gzip
    stream's read() would join its decompressed chunks into a second copy
    of the payload, so it is read in bounded chunks into one growing buffer.
    """
    if not isinstance(fh, gzip.GzipFile):
        return fh.read()
    payload = bytearray()
    while chunk := fh.read(_GZIP_CHUNK):
        payload += chunk
    return payload


def _read_exact(fh, n: int, path: Path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise DataFormatError(
            f"truncated IDX file {path}: wanted {n} more bytes, got {len(data)}"
        )
    return data


def _read_idx(path, magic: int, kind: str, dims: int) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by the header's ``dims`` extents.

    The stream is read to its end, never by the header's count, and its
    length compared with the extents' product in Python ints: a forged
    extent is a :class:`DataFormatError`, not a request for memory the file
    cannot back.  So are a truncated payload, trailing bytes and a corrupt
    gzip stream.
    """
    path = Path(path)
    try:
        with _open_maybe_gzip(path) as fh:
            found, *extents = struct.unpack(f">{dims + 1}I", _read_exact(fh, 4 * (dims + 1), path))
            if found != magic:
                raise DataFormatError(
                    f"bad magic 0x{found:08X} in {path}: expected {kind} magic 0x{magic:08X}"
                )
            payload = _read_to_end(fh)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise DataFormatError(f"corrupt gzip stream in {path}: {exc}") from exc
    want = math.prod(extents)
    if len(payload) != want:
        problem = "truncated" if len(payload) < want else "trailing bytes after the payload of"
        raise DataFormatError(
            f"{problem} IDX file {path}: extents {tuple(extents)} need {want} bytes, "
            f"{len(payload)} follow the header"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(extents)


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a uint8 array of shape (n, rows, cols)."""
    return _read_idx(path, _IMAGE_MAGIC, "image", 3)


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a uint8 array of shape (n,)."""
    return _read_idx(path, _LABEL_MAGIC, "label", 1)


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise DataFormatError(f"image array must be (n, rows, cols), got {images.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise DataFormatError(f"label array must be 1-D, got {labels.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", _LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Read a matched image/label pair, checking that counts agree."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image/label count mismatch: {images.shape[0]} images in {images_path} "
            f"but {labels.shape[0]} labels in {labels_path}"
        )
    return images, labels


# Every uint8 pixel value, normalized once: indexing this table is the whole
# conversion, with no float64 temporaries of the full dataset.
_NORMALIZED = (np.arange(256) / 255.0 - MNIST_MEAN) / MNIST_STD


def normalize_images(images: np.ndarray) -> np.ndarray:
    """uint8 (n, H, W) -> float64 (n, 1, H, W), scaled to the MNIST statistics."""
    if images.dtype != np.uint8:
        raise DataFormatError(f"normalize_images: expected uint8 pixels, got {images.dtype}")
    return _NORMALIZED[images][:, None, :, :]


_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def mnist_paths(data_dir) -> dict[str, Path]:
    """Locate the four standard IDX files (optionally gzipped) in a directory."""
    data_dir = Path(data_dir)
    out = {}
    for key, stem in _MNIST_FILES.items():
        plain, gz = data_dir / stem, data_dir / (stem + ".gz")
        if plain.exists():
            out[key] = plain
        elif gz.exists():
            out[key] = gz
        else:
            raise FileNotFoundError(f"missing IDX file {stem}[.gz] in {data_dir}")
    return out


def load_dataset(data_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Load (train_x, train_y, test_x, test_y) with images already normalized."""
    paths = mnist_paths(data_dir)
    train_x, train_y = load_idx(paths["train_images"], paths["train_labels"])
    test_x, test_y = load_idx(paths["test_images"], paths["test_labels"])
    return (
        normalize_images(train_x),
        train_y.astype(np.int64),
        normalize_images(test_x),
        test_y.astype(np.int64),
    )


def split_indices(n: int, val_size: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (train, val) index split.

    ``val_size`` below 1 is a fraction of ``n``; otherwise a whole count.
    The same (n, val_size, seed) always yields the same split.
    """
    if n <= 0:
        raise ValueError("split_indices: empty dataset")
    if val_size >= 1 and val_size != int(val_size):
        raise ValueError(f"split_indices: a val_size count must be whole, got {val_size}")
    perm = np.random.default_rng((seed, 0x73706C)).permutation(n)
    count = int(round(n * val_size)) if 0 < val_size < 1 else int(val_size)
    count = max(0, min(n, count))
    return np.sort(perm[count:]), np.sort(perm[:count])


def subset_indices(n: int, limit: int | None, seed: int) -> np.ndarray:
    """First ``limit`` indices of a seeded shuffle, or everything when unset."""
    if limit is None or limit >= n:
        return np.arange(n)
    if limit < 0:
        raise ValueError("subset_indices: limit must be non-negative")
    return np.sort(np.random.default_rng((seed, 0x6C696D)).permutation(n)[:limit])


# --------------------------------------------------------------------------
# synthetic data
# --------------------------------------------------------------------------


_GLYPHS = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


def _glyph_array(digit: int) -> np.ndarray:
    return np.array([[c == "1" for c in row] for row in _GLYPHS[digit]], dtype=np.float64)


def render_digits(
    n: int, img_size: tuple[int, int] = (28, 28), seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Render a ten-class digit dataset as uint8 images.

    Each sample upscales a 5x7 glyph, drops it on the canvas with a small
    random offset, blurs slightly, jitters the contrast, and adds pixel
    noise.  The classes stay well separated but not trivially so.
    """
    # Imported here, its only use: scipy.ndimage adds about 0.1 s to every start of the package.
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng((seed, 0x676C79))
    h, w = img_size
    labels = rng.integers(0, 10, size=n)
    images = np.zeros((n, h, w), dtype=np.float64)
    scale = max(1, min(h // 9, w // 7))
    for i, lab in enumerate(labels):
        glyph = np.kron(_glyph_array(int(lab)), np.ones((scale, scale)))
        gh, gw = glyph.shape
        top = (h - gh) // 2 + int(rng.integers(-2, 3))
        left = (w - gw) // 2 + int(rng.integers(-2, 3))
        top = int(np.clip(top, 0, h - gh))
        left = int(np.clip(left, 0, w - gw))
        canvas = np.zeros((h, w))
        canvas[top : top + gh, left : left + gw] = glyph * rng.uniform(0.65, 1.0)
        canvas = gaussian_filter(canvas, sigma=0.7)
        canvas += rng.normal(0.0, 0.04, size=(h, w))
        images[i] = np.clip(canvas, 0.0, 1.0)
    return np.round(images * 255.0).astype(np.uint8), labels.astype(np.int64)


def write_digit_idx(directory, n_train: int, n_test: int, seed: int = 0) -> dict[str, Path]:
    """Write a rendered-digit dataset under the standard MNIST file names."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    train_x, train_y = render_digits(n_train, seed=seed)
    test_x, test_y = render_digits(n_test, seed=seed + 1)
    write_idx_images(directory / _MNIST_FILES["train_images"], train_x)
    write_idx_labels(directory / _MNIST_FILES["train_labels"], train_y.astype(np.uint8))
    write_idx_images(directory / _MNIST_FILES["test_images"], test_x)
    write_idx_labels(directory / _MNIST_FILES["test_labels"], test_y.astype(np.uint8))
    return mnist_paths(directory)


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    lr: float = 3e-4
    weight_decay: float = 3e-2
    warmup_epochs: int | None = None  # derived from epochs when unset
    seed: int = 0
    target_train_acc: float | None = None  # stop early once reached
    beta1: float = 0.9
    beta2: float = 0.999

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(
                f"epochs and batch_size must be positive, got {self.epochs} and {self.batch_size}"
            )
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.warmup_epochs is not None and self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be non-negative, got {self.warmup_epochs}")
        for name in ("beta1", "beta2"):  # beta1 = 1 zeroes AdamW's bias correction
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.target_train_acc is not None and not 0 <= self.target_train_acc <= 1:
            raise ValueError(f"target_train_acc must lie in [0, 1], got {self.target_train_acc}")

    def resolved_warmup(self) -> int:
        if self.warmup_epochs is not None:
            return self.warmup_epochs
        return min(10, max(1, self.epochs // 5))


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    final_train_acc: float = 0.0
    final_val_acc: float = 0.0
    steps: int = 0
    stopped_early: bool = False


# Input pixels per evaluation forward: 20 images of 28x28, one of 112x112.
# Measured on 500 images of 28x28 (tiny.cfg's model), 2^14 ran as fast as
# 2^15 and 2^16 within their quartiles, at a quarter of 2^16's traced peak;
# 2^13 was slower and 2^17 slower still.
_EVAL_PIXELS = 1 << 14


def evaluate(model: CouplformerModel, images: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy loss and accuracy over a dataset, gradients off.

    The images go through the model in chunks, one batched forward per
    chunk; the chunk holds as many images as fit in a fixed budget of input
    pixels.  Malloc keeps one chunk's freed pages for the next, as in
    :func:`train_loop`.  The loss equals the mean of the per-image losses
    up to float round-off, and no images give (0.0, 0.0).
    """
    n = images.shape[0]
    if n == 0:
        return 0.0, 0.0
    _keep_heap_pages()
    chunk = max(1, _EVAL_PIXELS // math.prod(images.shape[1:]))
    total, hits = 0.0, 0
    with no_grad():
        for start in range(0, n, chunk):
            x, y = images[start : start + chunk], np.asarray(labels[start : start + chunk])
            logits = model.forward(Tensor(x))
            total += ag.cross_entropy(logits, y).item() * y.shape[0]
            hits += int(np.sum(np.argmax(logits.value.data, axis=1) == y))
    return total / n, hits / n


# glibc's mallopt parameters and the values train_loop sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 1 << 30, 32 << 20


def _keep_heap_pages() -> None:
    """Have malloc keep freed pages in the process (glibc; elsewhere a no-op).

    Backward frees each sample's graph, and by default glibc then trims the
    emptied heap top and unmaps every block above its mmap threshold, so the
    next sample's forward faults the same pages back in.  Raising both
    thresholds keeps the pages of one sample's graph for the next: the
    process holds its peak heap instead of returning it.  The setting is
    process-wide and idempotent.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _metrics_row(epoch: int, step: int, lr: float, loss: float, train_acc: float, val_acc: float) -> str:
    return f"{epoch},{step},{lr:.8g},{loss:.6f},{train_acc:.6f},{val_acc:.6f}"


def train_loop(
    model: CouplformerModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: TrainConfig,
    metrics_path=None,
    checkpoint_dir=None,
    log=None,
) -> TrainResult:
    """Train in place; one metrics row per epoch; checkpoint at the end.

    Batches are gradient-accumulated sample by sample, averaged, and applied
    with AdamW under the warmup+cosine schedule.  Each image's backward
    frees that image's graph, so one image's activations are live at a
    time, and malloc is set to keep the freed pages for the next image.
    The validation pass after each epoch is :func:`evaluate`, batched.
    Epoch shuffles use a generator seeded by (seed, epoch), so a rerun with
    the same config reproduces the run bit for bit.
    """
    n = train_x.shape[0]
    if n == 0:
        raise ValueError("train_loop: empty training set")
    _keep_heap_pages()
    params = model.parameters()
    optimizer = AdamW(
        params,
        beta1=config.beta1,
        beta2=config.beta2,
        weight_decay=config.weight_decay,
    )
    steps_per_epoch = max(1, (n + config.batch_size - 1) // config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.resolved_warmup() * steps_per_epoch

    result = TrainResult()
    rows = [METRICS_HEADER]
    global_step = 0
    lr = config.lr
    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, 0x736875, epoch)).permutation(n)
        epoch_losses: list[float] = []
        epoch_hits = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            lr = lr_at(global_step, total_steps, warmup_steps, config.lr)
            optimizer.clear_grads()
            inv = 1.0 / batch.size
            for idx in batch:
                logits = model.forward(Tensor(train_x[idx]))
                loss = ag.cross_entropy(logits, int(train_y[idx]))
                ag.backward(ag.scale(loss, inv))
                epoch_losses.append(loss.item())
                if int(np.argmax(logits.value.data)) == int(train_y[idx]):
                    epoch_hits += 1
            optimizer.step(lr)
            global_step += 1
        train_loss = float(np.mean(epoch_losses))
        train_acc = epoch_hits / n
        _, val_acc = evaluate(model, val_x, val_y)
        row = _metrics_row(epoch, global_step, lr, train_loss, train_acc, val_acc)
        rows.append(row)
        if log is not None:
            log(row)
        result.history.append(
            {
                "epoch": epoch,
                "step": global_step,
                "lr": lr,
                "train_loss": train_loss,
                "train_acc": train_acc,
                "val_acc": val_acc,
            }
        )
        result.final_train_acc, result.final_val_acc = train_acc, val_acc
        if config.target_train_acc is not None and train_acc >= config.target_train_acc:
            result.stopped_early = True
            break
    result.steps = global_step
    if metrics_path is not None:
        Path(metrics_path).parent.mkdir(parents=True, exist_ok=True)
        Path(metrics_path).write_text("\n".join(rows) + "\n")
    if checkpoint_dir is not None:
        model.save(checkpoint_dir)
    return result
