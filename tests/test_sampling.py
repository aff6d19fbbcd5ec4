"""Perturbation sampling: removal draws, features, kernel weights."""

import ast
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textlime.sampling as sampling
import textlime.theory as theory
from textlime import (
    CombinedModel,
    Document,
    IndicatorProduct,
    LinearModel,
    Model,
    SampleBatch,
    TreeModel,
    beta_enumerated,
    beta_general_mc,
    bundled_corpus_path,
    explain,
    fit_batch,
    fit_idf,
    load_corpus,
    local_dictionary,
    psi,
    run_repeated,
    sample_batch,
    tokenize,
    tree_from_spec,
)
from textlime.corpus import Corpus, IdfTable, tfidf_weights
from textlime.sampling import draw_feature_matrix, renormalized_tfidf
from textlime.surrogate import _gram
from textlime.theory import alpha_values
from oracles import normalized_tfidf, one_shot_feature_matrix


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


def cosine_distance(u, v):
    """Oracle: 1 - cos(angle(u, v)), straight from numpy."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return 1.0 - float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


def cosine_kernel(z, nu):
    """Oracle: exponential kernel in the cosine distance between a presence
    row and the all-ones row, as the sampling scheme defines it."""
    dist = cosine_distance(np.ones(len(z)), z)
    return math.exp(-(dist * dist) / (2.0 * nu * nu))


def survivor(doc, local, z_row):
    """Oracle: the perturbed document of a presence row, with every
    occurrence of each removed word deleted."""
    return Document(tokens=tuple(t for t in doc.tokens if z_row[local.index_of(t)]))


def embedding_row(doc, idf, z_row):
    """The production embedding of one presence row of `doc`."""
    local = local_dictionary(doc)
    return renormalized_tfidf(np.array([z_row]), tfidf_weights(local, idf))[0]


def dense(doc, idf, words):
    """The embedding of `doc` placed over `words`, 0 where `doc` lacks one."""
    phi = dict(zip(local_dictionary(doc).words, normalized_tfidf(doc, idf)))
    return np.array([phi.get(w, 0.0) for w in words])


class TestDrawRemoval:
    def test_single_word_document_is_forced(self):
        sizes, z = draw_feature_matrix(np.random.default_rng(0), 20, 1)
        assert np.all(sizes == 1)
        assert not z.any()

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError, match="empty local dictionary"):
            draw_feature_matrix(np.random.default_rng(0), 10, 0)

    def test_sizes_and_subsets_consistent(self):
        sizes, z = draw_feature_matrix(np.random.default_rng(1), 200, 7)
        assert np.all((1 <= sizes) & (sizes <= 7))
        assert set(np.unique(z)) <= {0, 1}
        assert np.array_equal(z.sum(axis=1), 7 - sizes)

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
    """A removal deletes every occurrence of a word: the embedding of a
    presence row equals the embedding of the survivor document."""

    def test_empty_removal_is_identity(self, doc_and_idf):
        doc, idf = doc_and_idf
        local = local_dictionary(doc)
        got = embedding_row(doc, idf, np.ones(local.d, dtype=np.int8))
        assert np.allclose(got, normalized_tfidf(doc, idf), atol=1e-15)

    def test_total_removal_empties_document(self, doc_and_idf):
        doc, idf = doc_and_idf
        local = local_dictionary(doc)
        z_row = np.zeros(local.d, dtype=np.int8)
        assert survivor(doc, local, z_row).tokens == ()
        assert np.array_equal(embedding_row(doc, idf, z_row), np.zeros(local.d))

    def test_all_occurrences_removed(self, doc_and_idf):
        _, idf = doc_and_idf
        doc = Document(tokens=("beta", "gamma", "beta"))
        local = local_dictionary(doc)
        z_row = np.array([0, 1], dtype=np.int8)  # drop "beta"
        assert survivor(doc, local, z_row).tokens == ("gamma",)
        assert np.allclose(embedding_row(doc, idf, z_row), [0.0, 1.0], atol=1e-15)


class TestCosineDistance:
    def test_ones_against_three_of_four(self):
        # 1 - 3 / (2 sqrt 3) = 1 - sqrt(3)/2, and psi(1/4) is its kernel.
        got = cosine_distance(np.ones(4), [1, 1, 1, 0])
        assert got == pytest.approx(1.0 - math.sqrt(3) / 2, abs=1e-12)
        for nu in (0.1, 0.25, 1.0):
            expected = math.exp(-(got * got) / (2 * nu * nu))
            assert psi(0.25, nu) == pytest.approx(expected, rel=1e-12)


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
        assert cosine_kernel(np.ones(6), 0.25) == pytest.approx(psi(0.0, 0.25))

    def test_weight_equals_psi_of_deletion_fraction(self):
        # The cosine route and the deletion-count route must agree on the
        # weights sample_batch gives its rows.
        for nu in (0.1, 0.25, 1.0):
            for d in (2, 4, 9, 40):
                doc = Document(tokens=tuple(f"w{i}" for i in range(d)))
                batch = sample_batch(doc, local_dictionary(doc), 50, nu, seed=4)
                for z_row, w in zip(batch.z, batch.weights):
                    if z_row.any():
                        assert abs(w - cosine_kernel(z_row, nu)) < 1e-12

    def test_all_removed_uses_limit(self):
        # The all-removed row has no direction; it gets the limit psi(1).
        d = 3
        doc = Document(tokens=tuple(f"w{i}" for i in range(d)))
        batch = sample_batch(doc, local_dictionary(doc), 200, 0.25, seed=5)
        empty = ~batch.z.any(axis=1)
        assert empty.any()
        assert np.all(batch.weights[empty] == psi(1.0, 0.25))

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


def assert_same_draw(got, want):
    """Sizes and presence rows equal byte for byte, dtypes included."""
    (sizes, z), (want_sizes, want_z) = got, want
    assert sizes.dtype == want_sizes.dtype and sizes.tobytes() == want_sizes.tobytes()
    assert z.dtype == want_z.dtype and z.shape == want_z.shape
    assert z.tobytes() == want_z.tobytes()


class TestBlockedSampler:
    """`draw_feature_matrix` draws its keys in row blocks; every block size
    gives the bits of the one-shot sampler."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        shape=st.integers(1, 2000).flatmap(
            lambda d: st.tuples(st.integers(1, max(1, 60_000 // d)), st.just(d))
        ),
        cells=st.sampled_from([1, 7, 64, 1000, sampling._BLOCK_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(1, 31), cells=sampling._BLOCK_CELLS, seed=0)  # n = 1
    @example(shape=(1000, 7), cells=64, seed=1)  # 9 rows per block, 1 in the last
    @example(shape=(5, 2000), cells=1000, seed=2)  # one row per block
    def test_matches_one_shot_sampler(self, shape, cells, seed):
        n, d = shape
        with mock.patch.object(sampling, "_BLOCK_CELLS", cells):
            got = draw_feature_matrix(np.random.default_rng(seed), n, d)
        assert_same_draw(got, one_shot_feature_matrix(np.random.default_rng(seed), n, d))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        shape=st.integers(1, 2000).flatmap(
            lambda d: st.tuples(st.integers(1, max(1, 60_000 // d)), st.just(d))
        ),
        cuts=st.lists(st.floats(0, 1), max_size=6),
        cells=st.sampled_from([1, 7, 64, 1000, sampling._BLOCK_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(1000, 7), cuts=[0.5], cells=64, seed=1)  # a cut inside a block
    @example(shape=(5, 2000), cuts=[0.2, 0.4, 0.6, 0.8], cells=1000, seed=2)  # one row per call
    def test_any_split_into_consecutive_calls_matches(self, shape, cuts, cells, seed):
        # The sizes are drawn first, then `_presence_rows` runs over
        # consecutive pieces of them with one generator, as the Monte Carlo
        # oracle draws a chunk's rows group by group.
        n, d = shape
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, d + 1, size=n)
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        with mock.patch.object(sampling, "_BLOCK_CELLS", cells):
            pieces = [sampling._presence_rows(rng, sizes[a:b], d) for a, b in zip(bounds, bounds[1:])]
        got = (sizes, np.concatenate(pieces))
        assert_same_draw(got, draw_feature_matrix(np.random.default_rng(seed), n, d))

    @pytest.mark.parametrize(
        "n, d",
        [
            (1, 1),
            (1, 2000),
            (500, 300),  # 109 rows per block: four full blocks and one of 64
            (3, sampling._BLOCK_CELLS // 2 + 1),  # one row per block
            (2, sampling._BLOCK_CELLS + 5),  # a row is larger than a block
        ],
    )
    def test_block_edges_at_the_real_block_size(self, n, d):
        rows = sampling._block_rows(n, d)
        assert 1 <= rows <= n
        for seed in (0, 93):
            got = draw_feature_matrix(np.random.default_rng(seed), n, d)
            assert_same_draw(got, one_shot_feature_matrix(np.random.default_rng(seed), n, d))

    def test_batches_drawn_in_turn_keep_their_own_rows(self):
        # Every batch is checked after all four are drawn, so a presence
        # buffer shared between runs would show as the last run's rows.
        n, d = 500, 300
        assert sampling._block_rows(n, d) < n
        doc = Document(tokens=tuple(f"w{i:03d}" for i in range(d)))
        local = local_dictionary(doc)
        seeds = (0, 1, 2, 93)
        batches = [sample_batch(doc, local, n, 0.25, seed) for seed in seeds]
        for seed, batch in zip(seeds, batches):
            want = one_shot_feature_matrix(np.random.default_rng(seed), n, d)
            assert_same_draw((batch.sizes, batch.z), want)
            assert batch.weights.tobytes() == psi(batch.sizes / d, 0.25).tobytes()

    def test_peak_memory_is_the_mask_and_two_blocks(self):
        # Only z is (n, d); the float64 keys and their sorted copy are one
        # row block each.
        n, d = 5000, 1000
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            draw_feature_matrix(rng, n, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mask_and_blocks = n * d + 2 * 8 * sampling._block_rows(n, d) * d
        assert peak < 1.1 * mask_and_blocks


class NoPool:
    """A stand-in for `sampling.ThreadPoolExecutor`, which `_in_order`
    alone constructs, that fails if a pool is started."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


def pool_sizes(monkeypatch):
    """The helper counts of the pools that `_in_order` starts from now on."""
    sizes = []
    pool = sampling.ThreadPoolExecutor

    def recording(helpers):
        sizes.append(helpers)
        return pool(helpers)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", recording)
    return sizes


def caller_bits(name):
    """The output bytes of one call of a caller of `_in_order`; on two CPUs
    each call starts helpers."""
    corpus = load_corpus(bundled_corpus_path())
    doc, idf = corpus.documents[0], fit_idf(corpus)
    tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
    if name == "explain-d1000":
        wide = Document(tokens=tuple(f"w{i:04d}" for i in range(1000)))
        wide_idf = fit_idf(Corpus(documents=(wide, Document(tokens=wide.tokens[::3]))))
        result = explain(tree_from_spec('"w0000" + (!"w0001" & "w0002")'), wide, wide_idf, n=5000, seed=3)
        values = [result.intercept, *result.coefficient_array()]
    elif name == "gram":
        values = _gram(np.random.default_rng(0).random((1001, 600)))
    elif name == "beta_general_mc":
        result = beta_general_mc(tree, doc, idf, nu=0.25, n_mc=200_000, seed=2)
        values = [result.intercept, *result.coefficients, result.intercept_stderr, *result.coefficient_stderr]
    else:
        stats = run_repeated(tree, doc, idf, n=200, n_exp=6, master_seed=4, threads=4)
        values = [*stats.intercepts, *stats.coefficients.ravel()]
    return np.array(values).tobytes()


class TestOneAvailableCpu:
    """With one CPU in the process's affinity mask, no caller of `_in_order`
    starts a pool, whatever the CPU count, and each gives the bits it gives
    on two CPUs, where it starts one."""

    @pytest.mark.parametrize("name", ["explain-d1000", "gram", "beta_general_mc", "run_repeated"])
    def test_starts_no_pool(self, monkeypatch, name):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pools = pool_sizes(monkeypatch)
        want = caller_bits(name)
        assert pools and set(pools) == {1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", NoPool)
        assert sampling._available_cpus() == 1
        assert caller_bits(name) == want


class TestOneThreadOwner:
    """`sampling._in_order` is the package's one starter of threads: no
    other module of the package imports `threading` or `concurrent.futures`,
    and no other function constructs a `ThreadPoolExecutor`. Likewise
    `sampling._drawn_groups` is its one caller of `Generator.integers`."""

    MODULES = sorted(Path(sampling.__file__).parent.glob("*.py"))

    def test_only_sampling_imports_threads(self):
        importers = set()
        for path in self.MODULES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] in ("threading", "concurrent") for name in names):
                    importers.add(path.stem)
        assert importers == {"sampling"}

    def test_only_in_order_starts_a_pool(self):
        starters = []
        for path in self.MODULES:
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and "ThreadPoolExecutor" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ):
                        starters.append((path.stem, getattr(top, "name", None)))
        assert starters == [("sampling", "_in_order")]

    def test_only_drawn_groups_draws_integers(self):
        # Removal sizes are drawn in one place, which the sampler and the
        # Monte Carlo oracle share.
        callers = []
        for path in self.MODULES:
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "integers":
                        callers.append((path.stem, getattr(top, "name", None)))
        assert callers == [("sampling", "_drawn_groups")]


class TestThreadedSampler:
    """Past one group of `_MC_GROUP` row blocks, `draw_feature_matrix`
    draws its groups on the calling thread and one helper per other
    available CPU, straight into one mask. The sizes, the rows and where
    the generator stands after the call are the serial path's bits at any
    CPU count."""

    # 4,999 sizes leave a buffered 32-bit half, which the jumps keep.
    @pytest.mark.parametrize("n, d", [(5000, 200), (5000, 1000), (4999, 1000)])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_matches_the_one_shot_sampler(self, monkeypatch, n, d, cpus):
        jumps = []
        jumped = sampling._jumped

        def spy(rng, draws):
            jumps.append(draws)
            return jumped(rng, draws)

        monkeypatch.setattr(sampling, "_jumped", spy)
        monkeypatch.setattr(sampling, "_available_cpus", lambda: cpus)
        rng, want_rng = np.random.default_rng(d), np.random.default_rng(d)
        got = draw_feature_matrix(rng, n, d)
        assert_same_draw(got, one_shot_feature_matrix(want_rng, n, d))
        assert rng.integers(0, 2**31, size=3).tobytes() == want_rng.integers(0, 2**31, size=3).tobytes()
        assert rng.random(3).tobytes() == want_rng.random(3).tobytes()
        # With helpers, one jump to each group's first row and one past all.
        rows = sampling._MC_GROUP * sampling._block_rows(n, d)
        assert jumps == ([] if cpus == 1 else [*range(0, n * d, rows * d), n * d])

    def test_one_group_starts_no_pool(self, monkeypatch):
        # Document 0's d = 31 at n = 5000 is one group of 1,057-row blocks.
        n, d = 5000, 31
        assert n <= sampling._MC_GROUP * sampling._block_rows(n, d)
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 3)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", NoPool)
        got = draw_feature_matrix(np.random.default_rng(0), n, d)
        assert_same_draw(got, one_shot_feature_matrix(np.random.default_rng(0), n, d))

    def test_a_generator_that_cannot_jump_draws_serially(self, monkeypatch):
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 3)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", NoPool)

        def fresh():
            return np.random.Generator(np.random.MT19937(5))

        rng, want_rng = fresh(), fresh()
        got = draw_feature_matrix(rng, 5000, 1000)
        assert_same_draw(got, one_shot_feature_matrix(want_rng, 5000, 1000))
        assert rng.random(3).tobytes() == want_rng.random(3).tobytes()


def where_divide_tfidf(z, masses):
    """Reference renormalization: divide only the rows of positive norm."""
    values = z * masses
    norms = np.sqrt(np.einsum("ij,j->i", values, masses))[:, None]
    np.divide(values, norms, out=values, where=norms > 0)
    return values


class TestRenormalizedTfidf:
    @pytest.mark.parametrize("d", [1, 2, 12, 31, 200])
    def test_matches_where_divide_reference(self, d):
        for seed in (0, 5):
            rng = np.random.default_rng(seed)
            masses = rng.random(d) * 4.0
            masses[0] = 0.0  # a word of zero mass leaves a zero-norm row behind
            _, z = draw_feature_matrix(rng, 3000, d)
            got = renormalized_tfidf(z, masses)
            want = where_divide_tfidf(z, masses)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("d", [31, 200, 1000])
    def test_rows_taken_in_parts_match_one_call(self, d):
        # A threaded BLAS product splits the rows between threads by the
        # row count of the call; at d = 1000 under 2 threads, 256-row calls
        # then differed from one 806-row call at rows 400 and 805.
        rng = np.random.default_rng(d)
        masses = rng.random(d) * 4.0
        _, z = draw_feature_matrix(rng, 806, d)
        whole = renormalized_tfidf(z, masses)
        parts = np.vstack([renormalized_tfidf(z[i : i + 256], masses) for i in range(0, 806, 256)])
        assert whole.tobytes() == parts.tobytes()


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
        # Row i describes one perturbed document: its survivor keeps exactly
        # the words z[i] marks present, sizes[i] words are gone, and the
        # weight is psi of the deleted fraction.
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        batch = sample_batch(doc, local, 20, 0.25, seed=2)
        for z_row, s, w in zip(batch.z, batch.sizes, batch.weights):
            surviving = set(survivor(doc, local, z_row).tokens)
            for j, word in enumerate(local.words):
                assert (word in surviving) == bool(z_row[j])
            assert len(surviving) == local.d - s
            assert w == pytest.approx(psi(s / local.d, 0.25), abs=1e-12)

    def test_mean_weight_matches_zeroth_moment(self):
        # Monte Carlo mean of the kernel weight against the closed form.
        d, nu, n = 15, 0.25, 200_000
        doc = Document(tokens=tuple(f"w{i}" for i in range(d)))
        batch = sample_batch(doc, local_dictionary(doc), n, nu, seed=11)
        target = alpha_values(d, nu, 0)[0]
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
        # embedding of the survivor document built from the same row.
        doc, idf = doc_and_idf
        local = local_dictionary(doc)
        batch = sample_batch(doc, local, 50, 0.25, seed=3)
        values = batch.tfidf_matrix(idf)
        for i, z_row in enumerate(batch.z):
            phi = dense(survivor(doc, local, z_row), idf, local.words)
            assert np.allclose(values[i], phi, rtol=0, atol=1e-12)

    def test_invalid_arguments(self, doc_and_idf):
        doc, _ = doc_and_idf
        local = local_dictionary(doc)
        with pytest.raises(ValueError, match="need at least one sample"):
            sample_batch(doc, local, 0, 0.25, seed=0)
        for nu in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="bandwidth nu must be positive"):
                sample_batch(doc, local, 10, nu, seed=0)
        empty = Document(tokens=())
        with pytest.raises(ValueError, match="empty local dictionary"):
            sample_batch(empty, local_dictionary(empty), 10, 0.25, seed=0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    d=st.integers(1, 2000),
    log10_nu=st.floats(-3.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_table_lookup_is_bit_identical(d, log10_nu, seed):
    # sample_batch looks weights up in psi at s / d, s = 0..d, instead of
    # evaluating psi at every sample's removal fraction.
    nu = 10.0**log10_nu
    sizes = np.random.default_rng(seed).integers(0, d + 1, size=500)
    table = psi(np.arange(d + 1) / d, nu)
    assert np.array_equal(table[sizes], psi(sizes / d, nu))


@st.composite
def tree_documents(draw):
    """A random tree over a random document: d 1..64 words with counts
    1..4 and idf from document counts 0..5 of 5, and 1..20 terms, each a
    signed coefficient on a support of 1..3 distinct words."""
    d = draw(st.integers(1, 64))
    words = tuple(f"w{j}" for j in range(d))
    counts = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    doc_counts = draw(st.lists(st.integers(0, 5), min_size=d, max_size=d))
    doc = Document(tokens=tuple(w for w, c in zip(words, counts) for _ in range(c)))
    support = st.lists(st.integers(0, d - 1), min_size=1, max_size=3, unique=True)
    terms = draw(
        st.lists(
            st.builds(
                lambda js, c: IndicatorProduct(words=frozenset(words[j] for j in js), coefficient=c),
                support,
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    return TreeModel(terms=tuple(terms)), doc, IdfTable(words, tuple(doc_counts), 5)


class TestResponses:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=tree_documents(), seed=st.integers(0, 2**32 - 1))
    def test_tree_reads_presence_rows_as_tfidf_rows(self, case, seed):
        # Every TF-IDF mass is positive, so a tree gives the same bits on
        # the presence rows as on their embedding, the all-removed row
        # (embedded as zeros) included.
        tree, doc, idf = case
        local = local_dictionary(doc)
        drawn = sample_batch(doc, local, 40, 0.25, seed)
        batch = SampleBatch(
            doc,
            local,
            0.25,
            seed,
            np.append(drawn.sizes, local.d),
            np.vstack([drawn.z, np.zeros((1, local.d), np.int8)]),
            np.append(drawn.weights, psi(1.0, 0.25)),
        )
        on_presence = tree.evaluate_matrix(batch.z, local.words)
        on_tfidf = tree.evaluate_matrix(batch.tfidf_matrix(idf), local.words)
        assert on_presence.tobytes() == on_tfidf.tobytes()

    def test_only_custom_models_are_embedded(self, doc_and_idf, monkeypatch):
        # Trees, indicators, linear models and their combinations are read
        # from the presence rows on every route. A custom model is embedded
        # once per row block, alone or as one or two parts of a combination.
        doc, idf = doc_and_idf
        local = local_dictionary(doc)
        calls = []
        embed = sampling.renormalized_tfidf

        def counted(*args, **kwargs):
            calls.append(1)
            return embed(*args, **kwargs)

        class SquaredNorm(Model):
            def evaluate_matrix(self, values, words):
                return (values * values).sum(axis=1)

        monkeypatch.setattr(sampling, "renormalized_tfidf", counted)
        monkeypatch.setattr(theory, "renormalized_tfidf", counted)
        tree = tree_from_spec('"beta" + ("alpha" & !"gamma")')
        linear = LinearModel(coefficients={"beta": 1.0, "zeta": -2.0})
        custom = SquaredNorm()
        # One batch, one Monte Carlo group and one enumeration block (d = 7),
        # each within one sampler row block: one embedding per route.
        routes = {
            "fit_batch": lambda m: fit_batch(m, sample_batch(doc, local, 200, 0.25, 1), idf),
            "beta_general_mc": lambda m: beta_general_mc(m, doc, idf, n_mc=500, seed=1),
            "beta_enumerated": lambda m: beta_enumerated(m, doc, idf),
        }
        models = {
            "tree": (tree, 0),
            "indicator": (tree.terms[0], 0),
            "linear": (linear, 0),
            "tree plus linear": (CombinedModel(parts=((1.0, tree), (0.5, linear))), 0),
            "custom": (custom, 1),
            "custom, linear, custom": (
                CombinedModel(parts=((1.0, custom), (0.5, linear), (2.0, custom))), 1
            ),
        }
        for route_name, route in routes.items():
            for model_name, (model, embeddings) in models.items():
                calls.clear()
                route(model)
                assert len(calls) == embeddings, (route_name, model_name)


def linear_case(d, n, seed):
    """A random document of d words, a linear model over it and n + 2
    presence rows. Counts are 1..4 and idf comes from document counts 0..5
    of 5. Each word gets a coefficient of magnitude 1e-3..1e3, a zero or
    none, and four words outside the document get one too. The rows are n
    sampled ones, then the all-removed and the all-kept row."""
    rng = np.random.default_rng(seed)
    words = tuple(f"w{j}" for j in range(d))
    counts = rng.integers(1, 5, size=d)
    doc = Document(tokens=tuple(w for w, c in zip(words, counts) for _ in range(c)))
    idf = IdfTable(words, tuple(rng.integers(0, 6, size=d).tolist()), 5)
    kind = rng.integers(0, 4, size=d)  # 0: none, 1: zero, 2 and 3: nonzero
    magnitude = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3, size=d)
    coefficients = {w: (0.0 if k == 1 else float(m)) for w, k, m in zip(words, kind, magnitude) if k}
    coefficients.update({f"absent{j}": 1e3 * (j + 1) for j in range(4)})
    _, sampled = draw_feature_matrix(rng, n, d)
    z = np.vstack([sampled, np.zeros((1, d), np.int8), np.ones((1, d), np.int8)])
    return LinearModel(coefficients=coefficients), doc, idf, z


class TestLinearPresenceRoute:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(d=st.integers(1, 300), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    @example(d=1000, n=50, seed=0)  # 32 rows per block: one full block and one of 20
    def test_matches_the_embedding(self, d, n, seed):
        # Both sides take a dot product of at most d terms and a square root
        # of a sum of d positive terms, plus a few single roundings, so each
        # is within (1.5 d + 3.5) eps * S / sqrt(M) of the exact response,
        # where S = sum_k |lambda_k m_k| z_k and M = sum_k m_k^2 z_k. Their
        # difference is then within 9 d eps * S / sqrt(M) for every d >= 1.
        model, doc, idf, z = linear_case(d, n, seed)
        local = local_dictionary(doc)
        words, masses = local.words, tfidf_weights(local, idf)
        got = sampling._responses(model, z, words, masses)
        want = model.evaluate_matrix(renormalized_tfidf(z, masses), words)
        lam = np.array([model.coefficients.get(w, 0.0) for w in words])
        norms = np.sqrt(z @ masses**2)
        scale = np.divide(z @ np.abs(lam * masses), norms, out=np.zeros(len(z)), where=norms > 0)
        assert np.all(np.abs(got - want) <= 9 * d * np.finfo(float).eps * scale)
        assert got[-2] == 0.0  # the all-removed row


class CosineOfSum(Model):
    """A custom model: cos of the sum of the TF-IDF coordinates."""

    def evaluate_matrix(self, values, words):
        return np.cos(values.sum(axis=1))


def random_part(kind, words, rng):
    """A random tree of 1..5 terms on 1..3 words, a linear model over a
    random half of `words`, or a `CosineOfSum`. Weights are normal times
    10^u, u uniform on [-3, 3]; a word outside `words` may appear too."""
    pool = [*words, "absent"]

    def magnitude(size=None):
        return rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)

    if kind == "tree":
        return TreeModel(
            terms=tuple(
                IndicatorProduct(
                    words=frozenset(rng.choice(pool, size=rng.integers(1, 4)).tolist()),
                    coefficient=float(magnitude()),
                )
                for _ in range(rng.integers(1, 6))
            )
        )
    if kind == "linear":
        chosen = rng.choice(pool, size=len(pool) // 2 + 1, replace=False).tolist()
        return LinearModel(coefficients=dict(zip(chosen, magnitude(len(chosen)).tolist())))
    return CosineOfSum()


def response_scale(model, z, words, masses, values, scale=1.0):
    """Per row, sum over the leaves of |product of the coefficients above
    the leaf| times a bound of its response: sum |c| over a tree's terms,
    sum_k |lambda_k m_k| z_k / sqrt(sum_k m_k^2 z_k) for a linear model
    (0 on the all-removed row), |f| on the embedding for a custom model."""
    if isinstance(model, CombinedModel):
        return sum(
            (response_scale(m, z, words, masses, values, scale * a) for a, m in model.parts),
            np.zeros(len(z)),
        )
    if isinstance(model, TreeModel):
        return np.full(len(z), abs(scale) * sum(abs(t.coefficient) for t in model.terms))
    if isinstance(model, LinearModel):
        lam = np.array([model.coefficients.get(w, 0.0) for w in words])
        norms = np.sqrt(z @ masses**2)
        signal = z @ np.abs(lam * masses)
        return abs(scale) * np.divide(signal, norms, out=np.zeros(len(z)), where=norms > 0)
    return abs(scale) * np.abs(model.evaluate_matrix(values, words))


class TestCombinationResponses:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        d=st.integers(1, 60),
        kinds=st.lists(st.sampled_from(["tree", "linear", "custom"]), min_size=1, max_size=4),
        nested=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=7, kinds=[], nested=False, seed=0)  # the empty combination
    @example(d=1000, kinds=["linear", "tree", "linear", "custom"], nested=True, seed=1)
    def test_matches_the_embedding(self, d, kinds, nested, seed):
        # Let A be `response_scale`, T the number of tree terms and L of
        # leaves (T <= 20, L <= 4). The embedding side adds each leaf, scaled
        # by at most two coefficients, into zeros at two levels of at most
        # four parts: within (1.5 d + 3.5) eps of a linear leaf's scale (see
        # TestLinearPresenceRoute), T eps of a tree's, and 8 eps of A for
        # the scaling and the sums. The presence side merges the trees' and
        # the linear leaves' coefficients (within (L + 2) eps each), then
        # sums T terms, takes the linear route on the merged weights and
        # adds at most three parts: within (1.5 d + 2 T + L + 10) eps A.
        # Custom leaves read the same embedding bits on both sides. So the
        # two differ by at most (3 d + 3 T + L + 22) eps A, and the bound
        # below, 9 (d + T + L + 3) eps A, exceeds that.
        _, doc, idf, z = linear_case(d, 40, seed)
        local = local_dictionary(doc)
        words, masses = local.words, tfidf_weights(local, idf)
        rng = np.random.default_rng(seed)
        parts = [(float(rng.normal()), random_part(kind, words, rng)) for kind in kinds]
        terms = sum(len(getattr(m, "terms", ())) for _, m in parts)
        if nested and len(parts) >= 2:
            parts = [(float(rng.normal()), CombinedModel(parts=tuple(parts[:2]))), *parts[2:]]
        model = CombinedModel(parts=tuple(parts))
        values = renormalized_tfidf(z, masses)
        got = sampling._responses(model, z, words, masses)
        want = model.evaluate_matrix(values, words)
        bound = 9 * (d + terms + len(kinds) + 3) * np.finfo(float).eps
        assert np.all(np.abs(got - want) <= bound * response_scale(model, z, words, masses, values))
