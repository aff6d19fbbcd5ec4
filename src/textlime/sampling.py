"""Perturbed-document sampling, binary presence features, and kernel weights.

A perturbed sample removes a uniformly random nonempty subset of the
distinct words of the explained document: first the number of deletions s
is drawn uniformly in {1, ..., d}, then a uniform size-s subset of word
indices (`_presence_rows`, the one sampler). `_drawn_groups` draws the
sizes of all n samples, for `draw_feature_matrix` and the Monte Carlo
oracle alike, and yields them with their presence rows one cache-sized
group of rows at a time. It hands several groups to `_in_order`, the
package's one starter of threads (a `ThreadPoolExecutor` whose unstarted
tasks the caller claims), with bits that do not depend on the thread count.
Every occurrence of a removed word disappears. Each sample gets an
exponential kernel weight in the cosine distance between its binary
presence vector and the all-ones vector. That distance depends only on s,
so the weight is psi(s / d); the all-removed sample, whose distance is
undefined, gets the limit psi(1).

A sample's embedding is the TF-IDF masses of the words it keeps, scaled
to unit norm (`renormalized_tfidf`). The document's own embedding phi is
its all-kept row. Each built-in model reads the cheapest statistic of the
presence rows that determines its response (`_responses`), part by part
of `models._split`: the tree reads the presence rows themselves and the
linear part two products of them with the masses. Only the custom parts
are embedded, one sampler row block at a time.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document, IdfTable, LocalDictionary, tfidf_weights
from .models import Model, _split, _weight_vector


def psi(t, nu: float):
    """Weight of a sample with a fraction t of its distinct words removed.

    psi(t) = exp(-(1 - sqrt(1 - t))^2 / (2 nu^2)), decreasing on [0, 1]
    with psi(0) = 1. Accepts scalars or numpy arrays.
    """
    if not nu > 0:
        raise ValueError("bandwidth nu must be positive")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > 1):
        raise ValueError("deletion fraction t must lie in [0, 1]")
    out = np.exp(-((1.0 - np.sqrt(1.0 - t_arr)) ** 2) / (2.0 * nu * nu))
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


def _kernel_table(d: int, nu: float) -> np.ndarray:
    """psi(s / d) for s = 0..d. Indexed by removal size it gives every
    sample's weight by the same elementwise arithmetic as psi of each
    sample, so bit-identically."""
    return psi(np.arange(d + 1) / d, nu)


# Cells per row block of the sampler and of the Monte Carlo oracle's sums:
# a float64 block (256 KB) and its sorted copy stay in L2 cache.
_BLOCK_CELLS = 2**15


def _block_rows(n: int, d: int) -> int:
    """Rows per block of n rows of d cells: at least one, at most n."""
    return max(1, min(n, _BLOCK_CELLS // d))


def _float_blocks(z: np.ndarray):
    """(rows, z[rows] as float64) per `_block_rows` row block of z, each cast
    into one cache-sized buffer that the next overwrites."""
    n, d = z.shape
    rows = _block_rows(n, d)
    buffer = np.empty((rows, d))
    for start in range(0, n, rows):
        block = buffer[: min(rows, n - start)]
        np.copyto(block, z[start : start + rows])
        yield slice(start, start + rows), block


# Sampler row blocks per group (at most 2**18 cells): the rows that the
# Monte Carlo oracle draws, answers and sums at once, and the unit of work
# of a threaded draw.
_MC_GROUP = 8


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (taskset,
    cpusets) where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _jumped(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A new generator where `rng` stands after `draws` more 64-bit draws.
    `Generator.random` takes one draw per double and leaves the buffered
    32-bit half of `integers` alone; `advance` clears that half, so it is
    put back."""
    state = rng.bit_generator.state
    bit_generator = type(rng.bit_generator)(0)
    bit_generator.state = state
    bit_generator.advance(draws)
    bit_generator.state = {
        **bit_generator.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]
    }
    return np.random.Generator(bit_generator)


def _in_order(tasks: list, threads: int):
    """Yield the results of the zero-argument `tasks` in order, on
    `threads` threads, the caller included, capped at `_available_cpus()`
    and at the number of tasks. At 1 the caller runs the tasks in turn and
    no pool starts. Otherwise a `ThreadPoolExecutor` of threads - 1 helpers
    is handed the tasks from the result yielded next on, at most
    2 × threads of them, so no more results are held at a time. While the
    result wanted next is not done, the caller claims the first task that
    no helper has started (`Future.cancel`) and runs it, so a helper that
    runs slow costs the caller no more than the one task it holds. A task's
    error is raised at its place, by `Future.result`. The pool's unstarted
    tasks are cancelled and its helpers joined before the generator
    returns, raises or is closed.
    """
    threads = min(threads, _available_cpus(), len(tasks))
    if threads < 2:
        for task in tasks:
            yield task()
        return
    pool = ThreadPoolExecutor(threads - 1)
    futures = {}  # task index -> Future, from the result wanted next on
    try:
        for i in range(len(tasks)):
            for j in range(i + len(futures), min(i + 2 * threads, len(tasks))):
                futures[j] = pool.submit(tasks[j])
            for j in futures:
                if futures[i].done():
                    break
                if futures[j].cancel():
                    futures[j] = claimed = Future()
                    try:
                        claimed.set_result(tasks[j]())
                    except Exception as exc:  # raised by the caller when it reaches task j
                        claimed.set_exception(exc)
            yield futures.pop(i).result()
    finally:
        pool.shutdown(cancel_futures=True)


def _drawn_groups(rng: np.random.Generator, n: int, d: int, mask: np.ndarray | None = None):
    """Draw n removal sizes, uniform on 1..d, and yield each group of
    `_MC_GROUP` row blocks' (sizes, presence rows) in order: the package's
    one draw of sizes and one cut into groups. The rows (`_presence_rows`)
    are drawn by the caller and one helper per other available CPU, at most
    one per group past the first (`_in_order`, which holds at most
    2 × threads groups). Without helpers the groups are drawn in turn from
    rng; with them, each from a copy of rng jumped past the groups before
    it, and rng is jumped past them all. Consecutive `rng.random` calls
    continue one stream of doubles, so the sizes, the rows and the rng
    stream are those of one serial pass, bit for bit, whatever the number
    of threads and the block size.

    With `mask`, each group is written into its rows of mask, and the
    drawing threads share the two row blocks of scratch of one serial
    draw: each draws blocks of 1 / threads of `_block_rows(n, d)` rows.
    Without, each group is its own array of whole blocks.
    """
    sizes = rng.integers(1, d + 1, size=n)
    rows = _MC_GROUP * _block_rows(n, d)
    starts = range(0, n, rows)
    # PCG64's and PCG64DXSM's `advance(k)` moves them past k 64-bit draws;
    # the others cannot jump by a number of draws (Philox's advance counts
    # blocks of four), so they draw their groups in turn.
    jumps = type(rng.bit_generator) in (np.random.PCG64, np.random.PCG64DXSM)
    threads = min(len(starts), _available_cpus()) if jumps else 1
    block = None if mask is None else max(1, _block_rows(n, d) // threads)

    def draw(generator, start):
        group = slice(start, start + rows)
        z = _presence_rows(generator, sizes[group], d, None if mask is None else mask[group], block)
        return sizes[group], z

    if threads < 2:
        return (draw(rng, start) for start in starts)
    draws = [functools.partial(draw, _jumped(rng, start * d), start) for start in starts]
    rng.bit_generator.state = _jumped(rng, n * d).bit_generator.state
    return _in_order(draws, threads)


def draw_feature_matrix(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n removal sizes and their binary feature matrix: (sizes, z)
    with sizes of shape (n,) and z of shape (n, d), z[i, j] = 1 iff word j
    survives in sample i.

    `_drawn_groups` draws the sizes, then the rows into z by groups of
    `_MC_GROUP` row blocks, on the calling thread and, when there are
    several and rng can jump, one helper per other available CPU. The
    sizes, z and rng's end state are the serial pass's at any thread count.
    """
    if d < 1:
        raise ValueError("empty local dictionary")
    if n < 1:
        raise ValueError("need at least one sample")
    mask = np.empty((n, d), np.bool_)
    sizes = np.concatenate([group for group, _ in _drawn_groups(rng, n, d, mask)])
    return sizes, mask.view(np.int8)


def _presence_rows(
    rng: np.random.Generator, sizes: np.ndarray, d: int,
    mask: np.ndarray | None = None, rows: int | None = None,
) -> np.ndarray:
    """The int8 presence rows of removal sizes `sizes` over d words, written
    into the bool array `mask` of shape (len(sizes), d) when one is given.
    Row i removes the sizes[i] smallest entries of an i.i.d. uniform key
    row, a uniform subset of that size: one sort per row finds the
    sizes[i]-th smallest key, and the words whose key exceeds it survive.
    The keys are drawn per row block of (`rows`, d), by default
    `_block_rows(len(sizes), d)` rows, which stays in cache. Consecutive
    `rng.random` calls continue one stream of doubles, so every block size,
    and every split of `sizes` into consecutive calls, gives the same bits.
    No Python-level state is shared, so calls on distinct generators and
    masks may run on several threads at once.
    """
    n = len(sizes)
    rows = min(n, rows or _block_rows(n, d))
    keys = np.empty((rows, d))
    ordered = np.empty((rows, d))
    mask = np.empty((n, d), np.bool_) if mask is None else mask
    index = np.arange(rows)
    for start in range(0, n, rows):
        m = min(rows, n - start)
        block = rng.random((m, d), out=keys[:m])
        row_sorted = ordered[:m]
        np.copyto(row_sorted, block)
        row_sorted.sort(axis=1)
        cut = row_sorted[index[:m], sizes[start : start + m] - 1]
        np.greater(block, cut[:, None], out=mask[start : start + m])
    return mask.view(np.int8)


def renormalized_tfidf(z: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Row i = normalized TF-IDF of the words that z[i] keeps.

    `masses` holds the per-word TF-IDF mass of the full document
    (`tfidf_weights`). Deleting words changes the normalization, so
    surviving coordinates are rescaled per row; the all-removed row maps
    to the zero vector. Each squared norm is its own row reduction, not a
    BLAS product, which a threaded BLAS splits between threads by the
    call's row count; so a row's bits do not depend on the rows embedded
    with it.
    """
    values = z * masses
    norms = np.sqrt(np.einsum("ij,j->i", values, masses))
    # Dividing by 1 leaves a zero-norm row (every word removed) as it is.
    norms[norms == 0.0] = 1.0
    values /= norms[:, None]
    return values


def _linear_responses(z: np.ndarray, signal: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """sum_k signal_k z_k / sqrt(sum_k m_k^2 z_k) per row of z, 0 on the
    all-removed row, from one product per `_float_blocks` block. Its
    temporaries, the cast buffer included, are freed on return."""
    stats = np.stack([signal, masses * masses], axis=1)
    sums = np.empty((len(z), 2))
    for rows, block in _float_blocks(z):
        np.matmul(block, stats, out=sums[rows])
    norms = np.sqrt(sums[:, 1])
    norms[norms == 0.0] = 1.0  # the all-removed row's sum is 0 too
    return sums[:, 0] / norms


def _responses(
    model: Model,
    z: np.ndarray,
    words: Sequence[str],
    masses: np.ndarray,
) -> np.ndarray:
    """`model` on the presence rows `z` over `words`, whose TF-IDF masses are
    `masses`: the one place where sampled or enumerated rows become model
    responses. The parts of `_split(model)` are added in order into zeros,
    and a lone part is returned as it is. The tree reads `z` itself: every
    mass is positive (idf >= 1, counts >= 1), so a coordinate is positive
    exactly where z is 1. The linear part reads
    sum_k lambda_k m_k z_k / sqrt(sum_k m_k^2 z_k) (`_linear_responses`).
    The other parts, the custom models, read the embedding
    (`renormalized_tfidf`) of each `_block_rows` block of z in turn, so no
    more than one block's embedding is held at a time.
    """
    tree, linear, rest = _split(model)
    parts = [] if tree is None else [tree.evaluate_matrix(z, words)]
    if linear is not None:
        signal = _weight_vector(linear.coefficients, words) * masses
        parts.append(_linear_responses(z, signal, masses))
    if rest:
        responses = [[] for _ in rest]
        rows = _block_rows(len(z), len(masses))
        for start in range(0, len(z), rows):
            values = renormalized_tfidf(z[start : start + rows], masses)
            for out, (_, m) in zip(responses, rest):
                out.append(m.evaluate_matrix(values, words))
        parts += [a * np.concatenate(out) for out, (a, _) in zip(responses, rest)]
    return parts[0] if len(parts) == 1 else sum(parts, np.zeros(len(z)))


@dataclass(frozen=True, eq=False, repr=False)
class SampleBatch:
    """n i.i.d. perturbed samples of one document, as dense arrays.

    `sizes[i]` is the number of words sample i removed, `z[i]` its binary
    presence row over the local dictionary and `weights[i]` its kernel
    weight psi(sizes[i] / d), read from `_kernel_table`. Survivor documents
    are never materialized: `tfidf_matrix` embeds all n survivors at once.
    Immutable once built.
    """

    document: Document
    local: LocalDictionary
    nu: float
    seed: object
    sizes: np.ndarray
    z: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def d(self) -> int:
        return self.local.d

    def tfidf_matrix(self, idf: IdfTable) -> np.ndarray:
        """Row i = normalized TF-IDF of survivor i over the local words."""
        return renormalized_tfidf(self.z, tfidf_weights(self.local, idf))


def sample_batch(
    document: Document, local: LocalDictionary, n: int, nu: float, seed
) -> SampleBatch:
    """Draw n i.i.d. perturbed samples; fully determined by the seed. A bad
    d or n raises in `draw_feature_matrix`, a bad nu in `psi`."""
    rng = np.random.default_rng(seed)
    sizes, z = draw_feature_matrix(rng, n, local.d)
    return SampleBatch(document, local, nu, seed, sizes, z, _kernel_table(local.d, nu)[sizes])
