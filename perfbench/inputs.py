"""Seeded benchmark inputs: rendered digits written as MNIST-named IDX files.

The renderer and the IDX writer live here, apart from the program, so that a
change to the program's own renderer or writer cannot change what the
benchmark feeds it.  The same (workload, seed) always gives the same bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# 5x7 bitmaps, one per digit class.
_FONT = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00110", "01000", "10000", "11111"),
    3: ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    4: ("10010", "10010", "10010", "11111", "00010", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00111", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "11100"),
}

FILE_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def render(n: int, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` uint8 digit images of ``size`` x ``size`` and their labels.

    Each image is one upscaled glyph at a random offset and contrast, blurred
    with a 3x3 binomial kernel, plus pixel noise.
    """
    scale = max(1, size // 9)
    shift = max(2, size // 14)
    glyphs = {
        d: np.kron(np.array([[c == "1" for c in row] for row in rows], dtype=np.float32),
                   np.ones((scale, scale), dtype=np.float32))
        for d, rows in _FONT.items()
    }
    gh, gw = glyphs[0].shape
    labels = rng.integers(0, 10, size=n)
    tops = np.clip((size - gh) // 2 + rng.integers(-shift, shift + 1, size=n), 0, size - gh)
    lefts = np.clip((size - gw) // 2 + rng.integers(-shift, shift + 1, size=n), 0, size - gw)
    contrast = rng.uniform(0.65, 1.0, size=n).astype(np.float32)
    canvas = np.zeros((n, size + 2, size + 2), dtype=np.float32)
    for i in range(n):
        top, left = tops[i] + 1, lefts[i] + 1
        canvas[i, top : top + gh, left : left + gw] = glyphs[int(labels[i])] * contrast[i]
    rows = 0.25 * canvas[:, :-2] + 0.5 * canvas[:, 1:-1] + 0.25 * canvas[:, 2:]
    blurred = 0.25 * rows[:, :, :-2] + 0.5 * rows[:, :, 1:-1] + 0.25 * rows[:, :, 2:]
    blurred += rng.normal(0.0, 0.04, size=blurred.shape).astype(np.float32)
    images = np.round(np.clip(blurred, 0.0, 1.0) * 255.0).astype(np.uint8)
    return images, labels.astype(np.uint8)


def write_idx(directory: Path, split: str, images: np.ndarray, labels: np.ndarray) -> None:
    """Write one split as big-endian IDX image (0x0803) and label (0x0801) files."""
    with open(directory / FILE_NAMES[f"{split}_images"], "wb") as fh:
        fh.write(struct.pack(">IIII", 0x0803, *images.shape))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(directory / FILE_NAMES[f"{split}_labels"], "wb") as fh:
        fh.write(struct.pack(">II", 0x0801, labels.shape[0]))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def make_split(n_file: int, n_pool: int, size: int, rng: np.random.Generator):
    """A file of ``n_file`` images drawn from ``n_pool`` distinct renders.

    With ``n_pool == n_file`` every image is rendered once; a smaller pool
    fills an MNIST-sized file without rendering all of it.
    """
    pool_x, pool_y = render(n_pool, size, rng)
    if n_pool == n_file:
        return pool_x, pool_y
    pick = rng.integers(0, n_pool, size=n_file)
    return pool_x[pick], pool_y[pick]


def make_inputs(directory: Path, size: int, files: dict[str, tuple[int, int]], seed: int) -> None:
    """Write the four IDX files for one workload under ``directory``.

    ``files`` maps "train"/"test" to (images in the file, distinct renders).
    """
    directory.mkdir(parents=True, exist_ok=True)
    for i, split in enumerate(("train", "test")):
        n_file, n_pool = files[split]
        rng = np.random.default_rng((seed, 0x6270, i))
        images, labels = make_split(n_file, n_pool, size, rng)
        write_idx(directory, split, images, labels)
