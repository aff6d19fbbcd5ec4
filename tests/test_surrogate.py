"""The weighted least-squares surrogate and the one-shot explanation path."""

import math
import os

import numpy as np
import pytest

import textlime.surrogate as surrogate
from textlime import (
    Document,
    IndicatorProduct,
    LinearModel,
    combine,
    explain,
    fit_idf,
    fit_weighted_ridge,
    local_dictionary,
    sample_batch,
    tokenize,
    tree_from_spec,
)
from textlime.corpus import Corpus
from textlime.surrogate import _cholesky_solve, _gram, fit_batch


def minimum_norm_oracle(design, weights, responses, ridge=0.0):
    """Independent re-derivation: pseudo-inverse of the sqrt-weighted
    (and ridge-augmented) least-squares problem."""
    sw = np.sqrt(weights)
    a = sw[:, None] * design
    b = sw * responses
    if ridge > 0:
        a = np.vstack([a, math.sqrt(ridge) * np.eye(design.shape[1])])
        b = np.concatenate([b, np.zeros(design.shape[1])])
    return np.linalg.pinv(a) @ b


@pytest.fixture(scope="module")
def corpus_idf():
    corpus = Corpus(
        documents=tuple(
            tokenize(t)
            for t in (
                "north star maps guide every sailor home across dark water",
                "star charts help the sailor",
                "maps of the north water",
            )
        )
    )
    return corpus, fit_idf(corpus)


class TestFitWeightedRidge:
    def test_constant_response_fits_by_intercept(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 2, size=(60, 4)).astype(float)
        design = np.hstack([np.ones((60, 1)), z])
        weights = rng.random(60) + 0.1
        beta = fit_weighted_ridge(design, weights, np.full(60, 3.25))
        assert beta[0] == pytest.approx(3.25, abs=1e-10)
        assert np.allclose(beta[1:], 0.0, atol=1e-10)

    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        design = np.hstack([np.ones((50, 1)), rng.integers(0, 2, size=(50, 3))])
        beta = fit_weighted_ridge(
            design, np.ones(50), rng.normal(size=50), ridge=1e12
        )
        assert np.max(np.abs(beta)) < 1e-8

    @pytest.mark.parametrize("dtype", [np.float64, np.int8, np.bool_])
    def test_matches_independent_minimizer(self, dtype):
        # Binary presence designs with an intercept column, as `fit_batch`
        # builds them (int8); the inputs must come back unmodified. An int8
        # or bool design is scaled from its integers, which is exact, so it
        # gives the float64 design's coefficients bit for bit.
        rng = np.random.default_rng(2)
        for n, d, atol in ((200, 4, 1e-8), (5000, 200, 1e-10)):
            design = np.hstack(
                [np.ones((n, 1)), rng.integers(0, 2, size=(n, d)).astype(float)]
            )
            typed = design.astype(dtype)
            weights = rng.random(n)
            responses = rng.normal(size=n)
            inputs = (typed.copy(), weights.copy(), responses.copy())
            for ridge in (0.0, 1.0):
                got = fit_weighted_ridge(typed, weights, responses, ridge)
                want = minimum_norm_oracle(design, weights, responses, ridge)
                assert np.allclose(got, want, rtol=0.0, atol=atol)
                assert np.array_equal(
                    got, fit_weighted_ridge(design, weights, responses, ridge)
                )
            for before, after in zip(inputs, (typed, weights, responses)):
                assert before.dtype == after.dtype
                assert np.array_equal(before, after)

    @pytest.mark.parametrize("p", [1, 127, 128, 129, 257, 1001])
    def test_cholesky_substitution_matches_dense_solve(self, p):
        # Sizes on, beside and across the 128-row block boundary. Both
        # solves are backward stable, so each lies within about
        # (3p + 1) eps cond(G) of the exact solution (relative, 2-norm);
        # the two may differ by twice that.
        rng = np.random.default_rng(p)
        x = rng.normal(size=(p + 20, p))
        gram = x.T @ x
        rhs = rng.normal(size=p)
        want = np.linalg.solve(gram, rhs)
        got = _cholesky_solve(gram, rhs)
        tolerance = 2 * (3 * p + 1) * np.finfo(float).eps * np.linalg.cond(gram)
        assert np.linalg.norm(got - want) <= tolerance * np.linalg.norm(want)

    def test_rank_deficient_falls_back_to_minimum_norm(self):
        # Duplicate column makes the normal equations singular at ridge 0.
        base = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        weights = np.array([1.0, 2.0, 0.5])
        responses = np.array([2.0, 1.0, 2.5])
        got = fit_weighted_ridge(base, weights, responses, 0.0)
        want = minimum_norm_oracle(base, weights, responses, 0.0)
        assert np.allclose(got, want, atol=1e-10)

    def test_degenerate_weights_rejected(self):
        design = np.ones((5, 2))
        with pytest.raises(ValueError, match="degenerate weights"):
            fit_weighted_ridge(design, np.zeros(5), np.ones(5))

    def test_negative_inputs_rejected(self):
        design = np.ones((5, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            fit_weighted_ridge(design, -np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="ridge"):
            fit_weighted_ridge(design, np.ones(5), np.ones(5), ridge=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        # Without the checks one NaN or inf response or design entry
        # silently turns every coefficient into NaN.
        rng = np.random.default_rng(4)
        design = np.hstack([np.ones((50, 1)), rng.integers(0, 2, size=(50, 3))])
        responses = rng.normal(size=50)
        responses[7] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_weighted_ridge(design, np.ones(50), responses)
        weights = np.ones(50)
        weights[7] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_weighted_ridge(design, weights, rng.normal(size=50))
        design[7, 2] = bad
        with pytest.raises(ValueError, match="design must be finite"):
            fit_weighted_ridge(design, np.ones(50), rng.normal(size=50))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        design = np.hstack(
            [np.ones((120, 1)), rng.integers(0, 2, size=(120, 5)).astype(float)]
        )
        weights = rng.random(120)
        responses = rng.normal(size=120)
        perm = rng.permutation(120)
        original = fit_weighted_ridge(design, weights, responses)
        permuted = fit_weighted_ridge(design[perm], weights[perm], responses[perm])
        assert np.allclose(original, permuted, atol=1e-9)


class TestExplain:
    def test_constant_model(self, corpus_idf):
        corpus, idf = corpus_idf
        result = explain(
            IndicatorProduct(words=frozenset(), coefficient=1.0),
            corpus.documents[0],
            idf,
            n=2000,
            seed=5,
        )
        assert result.intercept == pytest.approx(1.0, abs=1e-10)
        assert max(abs(c) for c in result.coefficients.values()) < 1e-10

    def test_single_indicator_recovered_exactly(self, corpus_idf):
        # The response coincides with one regressor, so the fit is exact.
        corpus, idf = corpus_idf
        result = explain(
            IndicatorProduct(words=frozenset({"star"})),
            corpus.documents[0],
            idf,
            n=2000,
            seed=6,
        )
        assert result.coefficients["star"] == pytest.approx(1.0, abs=1e-9)
        others = [c for w, c in result.coefficients.items() if w != "star"]
        assert max(abs(c) for c in others) < 1e-9
        assert result.intercept == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_given_seed(self, corpus_idf):
        corpus, idf = corpus_idf
        model = tree_from_spec('"star" + ("maps" & "north")')
        a = explain(model, corpus.documents[0], idf, n=500, seed=9)
        b = explain(model, corpus.documents[0], idf, n=500, seed=9)
        assert a == b

    def test_empty_document_rejected(self, corpus_idf):
        _, idf = corpus_idf
        with pytest.raises(ValueError, match="empty document"):
            explain(IndicatorProduct(words=frozenset()), tokenize(""), idf)

    def test_residual_orthogonality(self, corpus_idf):
        # At ridge 0 the weighted residuals are orthogonal to the design.
        corpus, idf = corpus_idf
        doc = corpus.documents[0]
        local = local_dictionary(doc)
        model = tree_from_spec('"star" + ("maps" & "north")')
        batch = sample_batch(doc, local, 3000, 0.25, seed=10)
        values = batch.tfidf_matrix(idf)
        responses = model.evaluate_matrix(values, local.words)
        design = np.hstack([np.ones((batch.n, 1)), batch.z.astype(float)])
        beta = fit_weighted_ridge(design, batch.weights, responses)
        gradient = design.T @ (batch.weights * (responses - design @ beta))
        scale = np.abs(design.T @ (batch.weights * responses)).max()
        assert np.abs(gradient).max() <= 1e-8 * max(scale, 1.0)

    def test_linearity_with_shared_batch(self, corpus_idf):
        # With one shared batch the fit is linear in the responses.
        corpus, idf = corpus_idf
        doc = corpus.documents[0]
        local = local_dictionary(doc)
        f = tree_from_spec('"star"')
        g = LinearModel(coefficients={"maps": 2.0, "water": -1.0})
        batch = sample_batch(doc, local, 2000, 0.25, seed=11)
        beta_f = fit_batch(f, batch, idf).coefficient_array()
        beta_g = fit_batch(g, batch, idf).coefficient_array()
        combined = fit_batch(
            combine([(1.0, f), (1.0, g)]), batch, idf
        ).coefficient_array()
        assert np.allclose(combined, beta_f + beta_g, atol=1e-12)

    def test_ranked_output_sorted_by_magnitude(self, corpus_idf):
        corpus, idf = corpus_idf
        model = tree_from_spec('"star" + ("maps" & "north")')
        result = explain(model, corpus.documents[0], idf, n=1000, seed=12)
        magnitudes = [abs(c) for _, c in result.ranked()]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_reference_ridge_value_supported(self, corpus_idf):
        corpus, idf = corpus_idf
        model = tree_from_spec('"star"')
        result = explain(model, corpus.documents[0], idf, n=2000, ridge=1.0, seed=13)
        # Shrinkage pulls the exact-fit value slightly below 1.
        assert 0.8 < result.coefficients["star"] < 1.0
        assert result.meta["ridge"] == 1.0


def one_product(a):
    return a.T @ a


class TestTwoPanelGram:
    """From 2**19 cells up, the Gram matrix is the sum of two fixed row
    panels' products, computed on the caller and a helper thread, so
    `explain` gives the same bits on one CPU and on two."""

    @staticmethod
    def wide(d):
        doc = Document(tokens=tuple(f"w{i:04d}" for i in range(d)) + ("w0000", "w0001"))
        corpus = Corpus(documents=(doc, Document(tokens=("w0000", "w0002", "other"))))
        words = local_dictionary(doc).words
        model = combine([
            (1.0, tree_from_spec(f'"{words[0]}" + (!"{words[1]}" & "{words[2]}")')),
            (1.0, LinearModel(coefficients={w: (-1.0) ** i / (1 + i) for i, w in enumerate(words)})),
        ])
        return model, doc, fit_idf(corpus)

    @staticmethod
    def explained(model, doc, idf, cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        result = explain(model, doc, idf, n=5000, seed=11)
        return np.concatenate([[result.intercept], result.coefficient_array()])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_panels_are_fixed(self, monkeypatch, cpus):
        a = np.random.default_rng(0).random((1001, 600))
        assert a.size >= 2**19
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        want = a[:500].T @ a[:500]
        want += a[500:].T @ a[500:]
        assert _gram(a).tobytes() == want.tobytes()

    def test_wide_explain_is_the_same_on_one_and_two_cpus(self, monkeypatch):
        model, doc, idf = self.wide(1000)
        got = self.explained(model, doc, idf, 2, monkeypatch)
        assert got.tobytes() == self.explained(model, doc, idf, 1, monkeypatch).tobytes()
        monkeypatch.setattr(surrogate, "_gram", one_product)
        want = self.explained(model, doc, idf, 2, monkeypatch)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_below_two_to_the_19_cells_is_the_one_product(self, monkeypatch):
        model, doc, idf = self.wide(31)
        assert 5000 * 32 < 2**19
        got = self.explained(model, doc, idf, 2, monkeypatch)
        monkeypatch.setattr(surrogate, "_gram", one_product)
        assert got.tobytes() == self.explained(model, doc, idf, 2, monkeypatch).tobytes()
