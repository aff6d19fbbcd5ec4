"""Weighted (ridge) least-squares surrogate: the empirical explanation.

The surrogate regresses model responses on the binary presence features,
weighting each sample by its kernel weight. Its coefficients, one per
distinct word plus an intercept, are the explanation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .corpus import Document, IdfTable, LocalDictionary, local_dictionary, tfidf_weights
from .models import Model
from .sampling import _BLOCK_CELLS, _MC_GROUP, SampleBatch, _in_order
from .sampling import _responses, sample_batch


@dataclass(frozen=True)
class Explanation:
    """Fitted surrogate coefficients for one document and model."""

    intercept: float
    coefficients: dict
    local: LocalDictionary
    meta: dict

    @property
    def words(self) -> tuple[str, ...]:
        return self.local.words

    def coefficient_array(self) -> np.ndarray:
        return np.array([self.coefficients[w] for w in self.local.words])

    def ranked(self) -> list[tuple[str, float]]:
        """Words and coefficients sorted by decreasing magnitude."""
        return sorted(
            self.coefficients.items(), key=lambda kv: (-abs(kv[1]), kv[0])
        )


# Rows per step of the Cholesky substitution. numpy has no triangular
# solve, so each step solves its diagonal block densely, at O(_BLOCK^3),
# and reaches the rest of the factor through one matrix-vector product.
# At p = 1001 (2 CPUs, one BLAS thread) 64 and 128 took alike, 256 and 512
# longer.
_BLOCK = 128


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with gram x = rhs, from one Cholesky factorization gram = L L^T.

    Forward substitution L y = rhs, then back substitution L^T x = y, both
    over blocks of `_BLOCK` rows. Raises `np.linalg.LinAlgError` when gram
    is not positive definite.
    """
    factor = np.linalg.cholesky(gram)
    x = np.array(rhs, dtype=float)
    starts = range(0, len(x), _BLOCK)
    for i in starts:
        j = i + _BLOCK
        if i:
            x[i:j] -= factor[i:j, :i] @ x[:i]
        x[i:j] = np.linalg.solve(factor[i:j, i:j], x[i:j])
    for i in reversed(starts):
        j = i + _BLOCK
        if j < len(x):
            x[i:j] -= factor[j:, i:j].T @ x[j:]
        x[i:j] = np.linalg.solve(factor[i:j, i:j].T, x[i:j])
    return x


def _gram(a: np.ndarray) -> np.ndarray:
    """a.T @ a of the (n, p) array a. From 2 * _MC_GROUP * _BLOCK_CELLS
    (2**19) cells up, a[:h].T @ a[:h] + a[h:].T @ a[h:] with h = n // 2:
    each panel's product is a symmetric rank-k product into a buffer of
    the caller's, and `_in_order` runs the two on 2 threads: with a second
    CPU the caller claims the panel its helper has not started, and with
    one it runs both. The panels do not depend on the thread count, so
    neither do the bits."""
    n, p = a.shape
    if n * p < 2 * _MC_GROUP * _BLOCK_CELLS:
        return a.T @ a
    panels = (a[: n // 2], a[n // 2 :])
    products = [functools.partial(np.matmul, x.T, x, out=np.empty((p, p))) for x in panels]
    top, bottom = _in_order(products, 2)
    top += bottom
    return top


def fit_weighted_ridge(
    design: np.ndarray,
    weights: np.ndarray,
    responses: np.ndarray,
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve min_beta sum_i w_i (y_i - beta . design_i)^2 + ridge ||beta||^2.

    Scales design and responses by sqrt(w) once, forms the normal
    equations from that scaled design (`_gram`: a symmetric rank-k product,
    split in two on large designs, whose bits do not depend on the CPU
    count), factors them once by Cholesky and solves with that factor. An
    integer or bool design, such as the int8 presence rows with a column of
    ones that `fit_batch` passes, is written straight into the scaled
    design, with no float64 copy of its own; the coefficients are bit for
    bit those of the same design in float64. When the factorization fails (rank
    deficiency, possible at tiny sample counts with ridge = 0) the same
    scaled arrays give the minimum-norm least-squares solution. Design,
    weights and responses must be finite; the inputs are not modified.
    """
    design = np.asarray(design)
    weights = np.asarray(weights, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if design.ndim != 2 or len(design) < 1:
        raise ValueError("design must be a nonempty 2-d array")
    if len(weights) != len(design) or len(responses) != len(design):
        raise ValueError("design, weights and responses must have equal length")
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(responses))):
        raise ValueError("sample weights and responses must be finite")
    if np.any(weights < 0):
        raise ValueError("sample weights must be nonnegative")
    if not np.any(weights > 0):
        raise ValueError("degenerate weights: all sample weights are zero")
    if not ridge >= 0:
        raise ValueError("ridge parameter must be nonnegative")

    p = design.shape[1]
    sw = np.sqrt(weights)
    # The cast is exact for integers and bools, so every design dtype gives
    # the bits of sqrt(w) times the float64 design. Integers and bools cannot
    # be NaN or inf; the check is left to other kinds.
    a = np.empty(design.shape)
    np.copyto(a, design, casting="unsafe")  # what astype(float) does
    if design.dtype.kind not in "biu" and not np.all(np.isfinite(a)):
        raise ValueError("design must be finite")
    a *= sw[:, None]
    b = sw * responses
    gram = _gram(a)
    gram.flat[:: p + 1] += ridge
    try:
        return _cholesky_solve(gram, a.T @ b)
    except np.linalg.LinAlgError:
        if ridge > 0:
            a = np.vstack([a, np.sqrt(ridge) * np.eye(p)])
            b = np.concatenate([b, np.zeros(p)])
        beta, *_ = np.linalg.lstsq(a, b, rcond=None)
        return beta


def fit_batch(
    model: Model,
    batch: SampleBatch,
    idf: IdfTable,
    ridge: float = 0.0,
) -> Explanation:
    """Fit the surrogate on an existing sample batch.

    Responses are the model evaluated on each perturbed document's
    renormalized TF-IDF (the renormalization after deletion is what couples
    the surrogate to the embedding), read from its presence row and the
    TF-IDF masses (`tfidf_weights(batch.local, idf)`) by `_responses`: only
    custom models are embedded.
    """
    responses = _responses(model, batch.z, batch.local.words, tfidf_weights(batch.local, idf))
    design = np.hstack([np.ones((batch.n, 1), np.int8), batch.z])
    beta = fit_weighted_ridge(design, batch.weights, responses, ridge)
    return Explanation(
        intercept=float(beta[0]),
        coefficients={w: float(b) for w, b in zip(batch.local.words, beta[1:])},
        local=batch.local,
        meta={
            "n": batch.n,
            "nu": batch.nu,
            "ridge": ridge,
            "seed": batch.seed,
        },
    )


def explain(
    model: Model,
    document: Document,
    idf: IdfTable,
    *,
    n: int = 5000,
    nu: float = 0.25,
    ridge: float = 0.0,
    seed=0,
) -> Explanation:
    """Sample perturbed documents, query the model, fit the surrogate: one
    `sample_batch` and one `fit_batch`. This is the one path from a document
    to an explanation; `run_repeated` maps it over derived seeds.

    Defaults follow the reference text explainer (n = 5000, nu = 0.25)
    except the ridge parameter, which defaults to 0: with n far above the
    number of distinct words the penalty is immaterial, and 0 makes the
    closed-form comparisons exact. Pass ridge = 1.0 to mirror the
    reference implementation.
    """
    if not document.tokens:
        raise ValueError("cannot explain an empty document")
    batch = sample_batch(document, local_dictionary(document), n, nu, seed)
    return fit_batch(model, batch, idf, ridge)
