"""Weighted (ridge) least-squares surrogate: the empirical explanation.

The surrogate regresses model responses on the binary presence features,
weighting each sample by its kernel weight. Its coefficients, one per
distinct word plus an intercept, are the explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, IdfTable, LocalDictionary, local_dictionary
from .models import Model
from .sampling import SampleBatch, _scratch, _Workspace, sample_batch


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


def fit_weighted_ridge(
    design: np.ndarray,
    weights: np.ndarray,
    responses: np.ndarray,
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve min_beta sum_i w_i (y_i - beta . design_i)^2 + ridge ||beta||^2.

    Scales design and responses by sqrt(w) once, forms the normal
    equations from that scaled design (a symmetric rank-k product) and
    solves them after a positive-definite factorization check. On rank
    deficiency (possible at tiny sample counts with ridge = 0) the same
    scaled arrays give the minimum-norm least-squares solution. Weights
    and responses must be finite; the inputs are not modified.
    """
    design = np.asarray(design, dtype=float)
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
    a = sw[:, None] * design
    b = sw * responses
    gram = a.T @ a
    gram.flat[:: p + 1] += ridge
    try:
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, a.T @ b)  # LU can still hit a zero pivot
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

    Responses are the model evaluated on the renormalized TF-IDF of each
    perturbed document (the renormalization after deletion is what couples
    the surrogate to the embedding, so it is never skipped).
    """
    responses = model.evaluate_matrix(batch.tfidf_matrix(idf), batch.local.words)
    design = _scratch(batch._workspace, "design", (batch.n, batch.d + 1))
    design[:, 0] = 1.0
    design[:, 1:] = batch.z
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
    """Sample perturbed documents, query the model, fit the surrogate.

    Defaults follow the reference text explainer (n = 5000, nu = 0.25)
    except the ridge parameter, which defaults to 0: with n far above the
    number of distinct words the penalty is immaterial, and 0 makes the
    closed-form comparisons exact. Pass ridge = 1.0 to mirror the
    reference implementation.
    """
    (explanation,) = _explain_runs(
        model, document, idf, [seed], n=n, nu=nu, ridge=ridge, reuse=False
    )
    return explanation


def _explain_runs(
    model: Model,
    document: Document,
    idf: IdfTable,
    seeds,
    *,
    n: int,
    nu: float,
    ridge: float,
    reuse: bool,
) -> list[Explanation]:
    """One explanation per seed, all from one `_Workspace` of the document.

    `explain` is the one-seed case. With `reuse` the runs overwrite one set
    of arrays instead of each allocating its own. Each call builds its own
    workspace, so concurrent calls share no arrays.
    """
    if not document.tokens:
        raise ValueError("cannot explain an empty document")
    workspace = _Workspace(local_dictionary(document), idf, nu, reuse=reuse)
    return [
        fit_batch(
            model,
            sample_batch(document, workspace.local, n, nu, seed, _workspace=workspace),
            idf,
            ridge,
        )
        for seed in seeds
    ]
