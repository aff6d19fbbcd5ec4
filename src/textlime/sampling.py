"""Perturbed-document sampling, binary presence features, and kernel weights.

A perturbed sample removes a uniformly random nonempty subset of the
distinct words of the explained document: first the number of deletions s
is drawn uniformly in {1, ..., d}, then a uniform size-s subset of word
indices. Every occurrence of a removed word disappears. Each sample gets
an exponential kernel weight in the cosine distance between its binary
presence vector and the all-ones vector, which reduces to psi(s / d).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import Document, IdfTable, LocalDictionary, tfidf_weights


def psi(t, nu: float):
    """Weight of a sample with a fraction t of its distinct words removed.

    psi(t) = exp(-(1 - sqrt(1 - t))^2 / (2 nu^2)), decreasing on [0, 1]
    with psi(0) = 1. Accepts scalars or numpy arrays.
    """
    if nu <= 0:
        raise ValueError("bandwidth nu must be positive")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > 1):
        raise ValueError("deletion fraction t must lie in [0, 1]")
    out = np.exp(-((1.0 - np.sqrt(1.0 - t_arr)) ** 2) / (2.0 * nu * nu))
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


def cosine_distance(u, v) -> float:
    """1 - cos(angle(u, v)); requires both vectors to have positive norm."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu_ = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu_ == 0.0 or nv == 0.0:
        raise ValueError("undefined cosine distance for zero-norm input")
    return float(1.0 - float(u @ v) / (nu_ * nv))


@dataclass(frozen=True)
class RemovalDraw:
    """One deletion draw: the number s of removed words and their indices."""

    s: int
    removed: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.removed) != self.s:
            raise ValueError("removed index set size must equal s")


@dataclass(frozen=True)
class PerturbedSample:
    """One perturbed document with its binary features and kernel weight."""

    draw: RemovalDraw
    survivor: Document
    z: np.ndarray
    weight: float


def draw_removal(d: int, rng: np.random.Generator) -> RemovalDraw:
    """Draw s uniform in {1..d} and a uniform size-s index subset.

    The subset comes from the first s entries of a random permutation.
    """
    if d < 1:
        raise ValueError("empty local dictionary")
    s = int(rng.integers(1, d + 1))
    removed = frozenset(int(i) for i in rng.permutation(d)[:s])
    return RemovalDraw(s=s, removed=removed)


def apply_removal(
    doc: Document, local: LocalDictionary, removed: frozenset[int] | set[int]
) -> Document:
    """Delete every occurrence of the indexed words, preserving token order."""
    if any(i < 0 or i >= local.d for i in removed):
        raise ValueError("removed indices out of range of the local dictionary")
    removed_words = {local.words[i] for i in removed}
    return Document(tokens=tuple(t for t in doc.tokens if t not in removed_words))


def weight(z, nu: float) -> float:
    """Kernel weight of a binary presence vector.

    Computed through the cosine distance to the all-ones vector, so it
    equals psi(s / d) when s words were removed. The all-removed vector
    (zero norm, undefined cosine) gets the continuous limit psi(1).
    """
    z = np.asarray(z, dtype=float)
    if not np.any(z):
        return psi(1.0, nu)
    dist = cosine_distance(np.ones(len(z)), z)
    return float(math.exp(-(dist * dist) / (2.0 * nu * nu)))


def draw_feature_matrix(
    rng: np.random.Generator, n: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n removal sizes and the matching binary feature matrix.

    Returns (sizes, z) with sizes of shape (n,) and z of shape (n, d),
    z[i, j] = 1 iff word j survives in sample i. Each row's removed set is
    the sizes[i] smallest entries of an i.i.d. uniform key row, hence a
    uniform subset of that size. One sort per row finds the sizes[i]-th
    smallest key, and the words whose key exceeds it survive.
    """
    if d < 1:
        raise ValueError("empty local dictionary")
    if n < 1:
        raise ValueError("need at least one sample")
    sizes = rng.integers(1, d + 1, size=n)
    keys = rng.random((n, d))
    cut = np.sort(keys, axis=1)[np.arange(n), sizes - 1]
    z = (keys > cut[:, None]).astype(np.int8)
    return sizes, z


def renormalized_tfidf(z: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Row i = normalized TF-IDF of the words that z[i] keeps.

    `masses` holds the per-word TF-IDF mass of the full document
    (`tfidf_weights`). Deleting words changes the normalization, so
    surviving coordinates are rescaled per row; the all-removed row maps
    to the zero vector.
    """
    values = z * masses
    norms = np.sqrt(values @ masses)[:, None]
    np.divide(values, norms, out=values, where=norms > 0)
    return values


class SampleBatch(Sequence[PerturbedSample]):
    """n i.i.d. perturbed samples of one document, dense-array backed.

    The per-sample view (`batch[i]`, iteration) materializes survivor
    documents lazily; the hot paths use the `z`, `sizes` and `weights`
    arrays directly. Immutable once built.
    """

    def __init__(
        self,
        document: Document,
        local: LocalDictionary,
        nu: float,
        seed,
        sizes: np.ndarray,
        z: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.document = document
        self.local = local
        self.nu = nu
        self.seed = seed
        self.sizes = sizes
        self.z = z
        self.weights = weights

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def d(self) -> int:
        return self.local.d

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> PerturbedSample:
        row = self.z[i]
        removed = frozenset(int(j) for j in np.flatnonzero(row == 0))
        draw = RemovalDraw(s=int(self.sizes[i]), removed=removed)
        return PerturbedSample(
            draw=draw,
            survivor=apply_removal(self.document, self.local, removed),
            z=row,
            weight=float(self.weights[i]),
        )

    def __iter__(self) -> Iterator[PerturbedSample]:
        return (self[i] for i in range(self.n))

    def tfidf_matrix(self, idf: IdfTable) -> np.ndarray:
        """Row i = normalized TF-IDF of survivor i over the local words."""
        return renormalized_tfidf(self.z, tfidf_weights(self.local, idf))

    def to_csv(self, path: str | Path, run: int = 0) -> None:
        """Dump the batch for debugging: run, sample, s, z-bitstring, weight."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "sample", "s", "z_bitstring", "weight"])
            for i in range(self.n):
                bits = "".join(str(int(b)) for b in self.z[i])
                writer.writerow([run, i, int(self.sizes[i]), bits, "%.10g" % self.weights[i]])


def sample_batch(
    document: Document,
    local: LocalDictionary,
    n: int,
    nu: float,
    seed,
) -> SampleBatch:
    """Draw n i.i.d. perturbed samples; fully determined by the seed."""
    if local.d < 1:
        raise ValueError("empty local dictionary")
    if n < 1:
        raise ValueError("need at least one sample")
    if nu <= 0:
        raise ValueError("bandwidth nu must be positive")
    rng = np.random.default_rng(seed)
    sizes, z = draw_feature_matrix(rng, n, local.d)
    weights = psi(sizes / local.d, nu)
    return SampleBatch(
        document=document,
        local=local,
        nu=nu,
        seed=seed,
        sizes=sizes,
        z=z,
        weights=weights,
    )
