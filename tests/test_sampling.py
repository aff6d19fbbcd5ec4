"""Perturbation sampling: removal draws, features, kernel weights."""

import math

import numpy as np
import pytest

from textlime import (
    Document,
    apply_removal,
    cosine_distance,
    draw_removal,
    fit_idf,
    local_dictionary,
    normalized_tfidf,
    psi,
    sample_batch,
    tokenize,
    weight,
)
from textlime.corpus import Corpus
from textlime.sampling import draw_feature_matrix
from textlime.theory import alpha


@pytest.fixture(scope="module")
def doc_and_idf():
    corpus = Corpus(
        documents=tuple(
            tokenize(t)
            for t in (
                "alpha beta gamma delta beta epsilon zeta eta",
                "beta theta iota",
                "gamma gamma kappa",
            )
        )
    )
    return corpus.documents[0], fit_idf(corpus)


class TestDrawRemoval:
    def test_single_word_document_is_forced(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            draw = draw_removal(1, rng)
            assert draw.s == 1
            assert draw.removed == frozenset({0})

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError, match="empty local dictionary"):
            draw_removal(0, np.random.default_rng(0))

    def test_sizes_and_subsets_consistent(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            draw = draw_removal(7, rng)
            assert 1 <= draw.s <= 7
            assert len(draw.removed) == draw.s
            assert draw.removed <= set(range(7))

    def test_deletion_count_is_uniform(self):
        # Empirical frequency of each s over many draws, within 3 binomial
        # standard errors of 1/d.
        d, n = 5, 1_000_000
        doc = Document(tokens=tuple(f"w{i}" for i in range(d)))
        batch = sample_batch(doc, local_dictionary(doc), n, 0.25, seed=42)
        se = math.sqrt(0.2 * 0.8 / n)
        for s in range(1, d + 1):
            freq = np.mean(batch.sizes == s)
            assert abs(freq - 0.2) <= 3 * se


class TestApplyRemoval:
    def test_empty_removal_is_identity(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        assert apply_removal(doc, local, frozenset()) == Document(tokens=doc.tokens)

    def test_total_removal_empties_document(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        survivor = apply_removal(doc, local, frozenset(range(local.d)))
        assert survivor.tokens == ()

    def test_all_occurrences_removed(self):
        doc = Document(tokens=("a", "b", "a"))
        local = local_dictionary(doc)
        survivor = apply_removal(doc, local, {local.index_of("a")})
        assert survivor.tokens == ("b",)

    def test_order_preserved(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        survivor = apply_removal(doc, local, {1})  # drop "beta"
        assert survivor.tokens == tuple(t for t in doc.tokens if t != "beta")

    def test_out_of_range_index_rejected(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        with pytest.raises(ValueError, match="out of range"):
            apply_removal(doc, local, {local.d})


class TestCosineDistance:
    def test_identical_directions(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, 2 * v) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine_distance([1, 0], [0, 5]) == pytest.approx(1.0)

    def test_ones_against_three_of_four(self):
        # 1 - 3 / (2 sqrt 3) = 1 - sqrt(3)/2
        got = cosine_distance(np.ones(4), [1, 1, 1, 0])
        assert got == pytest.approx(1.0 - math.sqrt(3) / 2, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="undefined cosine distance"):
            cosine_distance([0, 0], [1, 1])

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u, v = rng.normal(size=(2, 6))
            assert -1e-12 <= cosine_distance(u, v) <= 2 + 1e-12


class TestPsi:
    def test_zero_deletions(self):
        assert psi(0.0, 0.25) == 1.0

    def test_full_deletion_default_bandwidth(self):
        assert psi(1.0, 0.25) == pytest.approx(math.exp(-8.0), rel=1e-12)

    def test_bounds_and_monotonicity(self):
        for nu in (0.1, 0.25, 1.0, 10.0):
            t = np.linspace(0, 1, 101)
            values = psi(t, nu)
            floor = math.exp(-1.0 / (2 * nu * nu))
            assert np.all(values <= 1.0)
            assert np.all(values >= floor - 1e-15)
            assert np.all(np.diff(values) <= 1e-15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            psi(0.5, 0.0)
        with pytest.raises(ValueError, match="0, 1"):
            psi(1.5, 0.25)


class TestWeight:
    def test_all_present(self):
        assert weight(np.ones(6), 0.25) == pytest.approx(1.0)

    def test_weight_equals_psi_of_deletion_fraction(self):
        # The cosine route and the deletion-count route must agree.
        rng = np.random.default_rng(4)
        for nu in (0.1, 0.25, 1.0):
            for d in (2, 4, 9, 40):
                s = int(rng.integers(1, d + 1))
                z = np.ones(d)
                z[rng.permutation(d)[:s]] = 0
                assert abs(weight(z, nu) - psi(s / d, nu)) < 1e-12

    def test_all_removed_uses_limit(self):
        assert weight(np.zeros(5), 0.25) == pytest.approx(psi(1.0, 0.25))

    def test_reference_bandwidth_unit_convention(self):
        # Reference-implementation units are 100x: nu_lime = 25 is nu = 0.25.
        assert psi(0.5, 25 / 100) == psi(0.5, 0.25)


def double_argsort_feature_matrix(rng, n, d):
    """Reference sampler: rank every key with a double argsort and keep the
    words ranked at or above the removal size.

    It consumes the same random stream as `draw_feature_matrix`. The two
    forms can differ only if two 53-bit uniform keys of one row tie exactly
    at that row's cut; the ranks then break the tie by index while the
    threshold removes both.
    """
    sizes = rng.integers(1, d + 1, size=n)
    ranks = rng.random((n, d)).argsort(axis=1).argsort(axis=1)
    return sizes, (ranks >= sizes[:, None]).astype(np.int8)


class TestDrawFeatureMatrix:
    @pytest.mark.parametrize("d", [1, 2, 12, 31, 200, 1000])
    def test_matches_double_argsort_reference(self, d):
        n = 2000 if d < 1000 else 500
        for seed in (0, 1, 93):
            sizes, z = draw_feature_matrix(np.random.default_rng(seed), n, d)
            ref_sizes, ref_z = double_argsort_feature_matrix(
                np.random.default_rng(seed), n, d
            )
            assert np.array_equal(sizes, ref_sizes)
            assert z.dtype == ref_z.dtype
            assert np.array_equal(z, ref_z)


class TestSampleBatch:
    def test_deterministic_given_seed(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        a = sample_batch(doc, local, 500, 0.25, seed=7)
        b = sample_batch(doc, local, 500, 0.25, seed=7)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.weights, b.weights)

    def test_row_sums_match_sizes(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        batch = sample_batch(doc, local, 300, 0.25, seed=1)
        assert np.array_equal(batch.z.sum(axis=1), local.d - batch.sizes)

    def test_sample_view_consistent(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        batch = sample_batch(doc, local, 20, 0.25, seed=2)
        for sample in batch:
            assert sample.draw.s == local.d - int(sample.z.sum())
            surviving = {w for w in sample.survivor.tokens}
            for j, word in enumerate(local.words):
                assert (word in surviving) == bool(sample.z[j])
            assert sample.weight == pytest.approx(
                psi(sample.draw.s / local.d, 0.25), abs=1e-12
            )

    def test_mean_weight_matches_zeroth_moment(self):
        # Monte Carlo mean of the kernel weight against the closed form.
        d, nu, n = 15, 0.25, 200_000
        doc = Document(tokens=tuple(f"w{i}" for i in range(d)))
        batch = sample_batch(doc, local_dictionary(doc), n, nu, seed=11)
        target = alpha(0, d, nu)
        se = batch.weights.std(ddof=1) / math.sqrt(n)
        assert abs(batch.weights.mean() - target) <= 3 * se

    def test_presence_probabilities(self):
        d, n = 9, 200_000
        doc = Document(tokens=tuple(f"w{i}" for i in range(d)))
        batch = sample_batch(doc, local_dictionary(doc), n, 0.25, seed=13)
        p1 = (d - 1) / (2 * d)
        se1 = math.sqrt(p1 * (1 - p1) / n)
        for j in range(d):
            assert abs(batch.z[:, j].mean() - p1) <= 3 * se1
        p2 = (d - 2) / (3 * d)
        se2 = math.sqrt(p2 * (1 - p2) / n)
        both = (batch.z[:, 0] & batch.z[:, 4]).mean()
        assert abs(both - p2) <= 3 * se2

    def test_conditional_presence_given_deletion_count(self):
        d, n = 8, 400_000
        doc = Document(tokens=tuple(f"w{i}" for i in range(d)))
        batch = sample_batch(doc, local_dictionary(doc), n, 0.25, seed=17)
        for s in (1, 3, 6):
            mask = batch.sizes == s
            count = int(mask.sum())
            p = (d - s) / d
            se = math.sqrt(p * (1 - p) / count)
            assert abs(batch.z[mask, 0].mean() - p) <= 3 * se

    def test_tfidf_matrix_matches_survivor_embedding(self, doc_and_idf):
        # Dual route: the vectorized per-row embedding must equal the
        # embedding of the materialized survivor document.
        doc, idf = doc_and_idf
        local = local_dictionary(doc)
        batch = sample_batch(doc, local, 50, 0.25, seed=3)
        values = batch.tfidf_matrix(idf)
        for i, sample in enumerate(batch):
            phi = normalized_tfidf(sample.survivor, idf)
            for j, word in enumerate(local.words):
                assert values[i, j] == pytest.approx(phi.get(word), abs=1e-12)

    def test_invalid_arguments(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        with pytest.raises(ValueError):
            sample_batch(doc, local, 0, 0.25, seed=0)
        with pytest.raises(ValueError):
            sample_batch(doc, local, 10, -1.0, seed=0)
        empty = Document(tokens=())
        with pytest.raises(ValueError, match="empty local dictionary"):
            sample_batch(empty, local_dictionary(empty), 10, 0.25, seed=0)

    def test_csv_dump(self, doc_and_idf, tmp_path):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        batch = sample_batch(doc, local, 5, 0.25, seed=5)
        path = tmp_path / "batch.csv"
        batch.to_csv(path, run=3)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "run,sample,s,z_bitstring,weight"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "3"
        assert len(first[3]) == local.d
