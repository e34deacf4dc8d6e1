"""Deterministic synthetic image sets for desk-scale training.

Three generators, each tying the label to scene geometry rather than to any
single pixel statistic: 'blobs' hides the class in how many soft bumps the
image holds, 'stripes' in the orientation of a sinusoidal grating, and
'checkers' in the cell count of a shifted checkerboard.  ``(seed, index)``
fully determines every sample, and labels cycle through the classes so the
set is balanced within one sample.

A set whose rendered images fit ``MEMO_BYTES`` keeps each image it renders,
so a training loop that revisits the same samples renders each only once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor

GENERATOR_KINDS = ("blobs", "stripes", "checkers")

# Sets whose float32 images take at most this many bytes are rendered once
# per dataset object.  The micro overfit set (32 at 32x32) takes 384 KiB;
# the tiny sets (64 at 224x224, 37 MiB) render per call and hold nothing.
MEMO_BYTES = 8 * 2 ** 20


@dataclass(frozen=True)
class SyntheticDataset:
    kind: str = "blobs"
    num_samples: int = 32
    image_size: int = 32
    num_classes: int = 4
    seed: int = 0
    # rendered images, filled by ``load_batch``; not part of the identity
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        hash=False, repr=False)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(
                f"kind must be one of {GENERATOR_KINDS}, got {self.kind!r}")
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be positive, got {self.num_samples}")
        if self.image_size < 8:
            raise ConfigError(f"image_size must be at least 8, got {self.image_size}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def _grid(s: int) -> tuple[np.ndarray, np.ndarray]:
    ax = (np.arange(s) + 0.5) / s
    return np.meshgrid(ax, ax, indexing="ij")


def _blobs(rng: np.random.Generator, s: int, label: int) -> np.ndarray:
    """label k -> k+1 soft color bumps at random spots.

    Bump radius shrinks with the count so total brightness stays roughly
    flat across classes; a mean-pixel shortcut should not give the count
    away (checked by the nearest-centroid oracle).
    """
    count = label + 1
    yy, xx = _grid(s)
    img = np.zeros((3, s, s))
    for _ in range(count):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        sigma = rng.uniform(0.10, 0.16) / np.sqrt(count)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma ** 2))
        color = rng.uniform(0.6, 1.0, size=3)
        img += color[:, None, None] * bump[None]
    return img


def _stripes(rng: np.random.Generator, s: int, label: int, k: int) -> np.ndarray:
    """label -> orientation bucket of a sinusoidal grating."""
    theta = np.pi * (label + 0.5 + rng.uniform(-0.2, 0.2)) / k
    freq = rng.uniform(2.0, 4.0) * 2.0 * np.pi
    phase = rng.uniform(0.0, 2.0 * np.pi)
    yy, xx = _grid(s)
    proj = xx * np.cos(theta) + yy * np.sin(theta)
    img = np.empty((3, s, s))
    for c in range(3):
        img[c] = 0.5 + 0.5 * np.sin(freq * proj + phase + 0.7 * c)
    return img


def _checkers(rng: np.random.Generator, s: int, label: int) -> np.ndarray:
    """label k -> checkerboard with k+2 cells per side, random shift/palette."""
    cells = label + 2
    oy, ox = rng.uniform(0.0, 1.0, size=2)
    yy, xx = _grid(s)
    parity = (np.floor(yy * cells + oy) + np.floor(xx * cells + ox)) % 2
    lo = rng.uniform(0.0, 0.35, size=3)
    hi = rng.uniform(0.65, 1.0, size=3)
    return lo[:, None, None] + (hi - lo)[:, None, None] * parity[None]


def _as_index(i, where: str) -> int:
    """``i`` as an int: a NumPy integer passes (a shuffled order holds int64),
    a bool, float or str is refused rather than truncated or parsed."""
    if type(i) is bool or not isinstance(i, (int, np.integer)):
        raise ShapeError(f"{where}: {i!r} ({type(i).__name__}) is not an int")
    return int(i)


def generate_sample(ds: SyntheticDataset, index: int) -> tuple[Tensor, int]:
    """Image [S, S, 3] in [0, 1] plus its label; pure in (seed, index)."""
    index = _as_index(index, "generate_sample index")
    if not 0 <= index < ds.num_samples:
        raise IndexError(f"index {index} out of range [0, {ds.num_samples})")
    label = index % ds.num_classes
    rng = np.random.default_rng((ds.seed, index))
    if ds.kind == "blobs":
        img = _blobs(rng, ds.image_size, label)
    elif ds.kind == "stripes":
        img = _stripes(rng, ds.image_size, label, ds.num_classes)
    else:
        img = _checkers(rng, ds.image_size, label)
    img = np.clip(img, 0.0, 1.0, out=img).transpose(1, 2, 0)
    return Tensor(img.astype(np.float32, order="C")), label


def load_batch(ds: SyntheticDataset, indices) -> tuple[Tensor, np.ndarray]:
    """Stack samples into [B, S, S, 3] plus an int label vector.

    The batch is always a fresh array: writing into it never changes a
    later batch.
    """
    idx = [_as_index(i, "load_batch indices") for i in indices]
    if not idx:
        raise ShapeError("load_batch needs at least one sample in indices, got none")
    labels = np.asarray([i % ds.num_classes for i in idx], dtype=np.int64)
    n, s = ds.num_samples, ds.image_size
    if n * 3 * s * s * 4 > MEMO_BYTES:
        return Tensor(np.stack([generate_sample(ds, i)[0].data for i in idx])), labels
    if not ds._memo:
        ds._memo.update(images=np.empty((n, s, s, 3), dtype=np.float32),
                        rendered=np.zeros(n, dtype=bool))
    images, rendered = ds._memo["images"], ds._memo["rendered"]
    for i in idx:
        if not 0 <= i < n or not rendered[i]:
            images[i] = generate_sample(ds, i)[0].data  # raises when out of range
            rendered[i] = True
    return Tensor(images[idx]), labels


def nearest_centroid_accuracy(ds: SyntheticDataset) -> float:
    """Assign each sample to the closest class-mean image (raw pixels).

    A development oracle for task difficulty: scoring near chance means the
    label is not linearly readable from pixel averages.
    """
    images, labels = load_batch(ds, range(ds.num_samples))
    images = images.data.reshape(ds.num_samples, -1).astype(np.float64)
    centroids = np.stack([images[labels == k].mean(axis=0)
                          for k in range(ds.num_classes)])
    dists = ((images[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return float((dists.argmin(axis=1) == labels).mean())
