"""The repeated-run harness: statistics, comparisons, sweeps, rates."""

import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

import textlime.sampling
import textlime.verify
from textlime import (
    IndicatorProduct,
    LinearModel,
    TheoryExplanation,
    beta_tree,
    bundled_corpus_path,
    combine,
    compare,
    concentration_check,
    default_nu_grid,
    explain,
    fit_idf,
    linearity_check,
    load_corpus,
    local_dictionary,
    run_repeated,
    sweep_bandwidth,
    tokenize,
    tree_from_spec,
)
from textlime.corpus import Corpus, Document
from textlime.verify import SUMMARY_FIELDS, SweepPoint, derive_seed

from test_sampling import CosineOfSum


@pytest.fixture(scope="module")
def setup():
    corpus = Corpus(
        documents=(
            tokenize(
                "garden gate swings open every morning while sparrows argue "
                "over crumbs near the fountain stones"
            ),
            tokenize("the fountain stones stay warm"),
            tokenize("sparrows near the garden"),
        )
    )
    doc = corpus.documents[0]
    return doc, fit_idf(corpus), local_dictionary(doc)


class TestRunRepeated:
    def test_single_repetition_degenerate_whiskers(self, setup):
        doc, idf, local = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        stats = run_repeated(
            model, doc, idf, n=400, n_exp=1, master_seed=3
        )
        assert stats.std is None
        assert np.array_equal(stats.median, stats.coefficients[0])
        assert np.array_equal(stats.q1, stats.q3)

    def test_deterministic_given_master_seed(self, setup):
        doc, idf, _ = setup
        model = tree_from_spec('"garden"')
        a = run_repeated(model, doc, idf, n=300, n_exp=4, master_seed=9)
        b = run_repeated(model, doc, idf, n=300, n_exp=4, master_seed=9)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.intercepts, b.intercepts)

    def test_threading_does_not_change_results(self, setup, monkeypatch):
        doc, idf, _ = setup
        models = (
            tree_from_spec('"garden" + ("gate" & "morning")'),
            LinearModel(coefficients={"garden": 1.5, "sparrows": -0.5, "stones": 0.25}),
            CosineOfSum(),
        )
        # The pool takes one seed per task, so the runs may finish in any
        # order on 3 or 4 workers. Workers are capped at the CPUs the process
        # may run on, which is the CPU count where the platform reports no
        # affinity, so pretend there are enough CPUs for 4.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for model in models:
            for n_exp, threads in ((6, 4), (7, 3)):
                serial = run_repeated(model, doc, idf, n=300, n_exp=n_exp, master_seed=5)
                threaded = run_repeated(
                    model, doc, idf, n=300, n_exp=n_exp, master_seed=5, threads=threads
                )
                assert np.array_equal(serial.coefficients, threaded.coefficients)
                assert np.array_equal(serial.intercepts, threaded.intercepts)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_empty_document_rejected(self, setup, threads):
        _, idf, _ = setup
        model = tree_from_spec('"garden"')
        with pytest.raises(ValueError, match="cannot explain an empty document"):
            run_repeated(model, Document(tokens=()), idf, n=50, n_exp=3, threads=threads)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_fewer_than_one_worker_rejected(self, setup, threads):
        # The CLI's --threads check, with its message.
        doc, idf, _ = setup
        model = tree_from_spec('"garden"')
        with pytest.raises(ValueError, match="^worker count must be at least 1$"):
            run_repeated(model, doc, idf, n=50, n_exp=3, threads=threads)

    # 3 CPUs: the caller plus 2 helpers.
    @pytest.mark.parametrize("cpus, pools", [(3, [2]), (None, [])])
    def test_workers_capped_at_cpu_count(self, setup, monkeypatch, cpus, pools):
        # --threads 5000 must not ask the OS for 5000 threads. The fake pool
        # records its size and runs each helper as it is submitted, so no
        # thread starts.
        doc, idf, _ = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        sizes = []

        class SerialPool:
            def __init__(self, helpers):
                sizes.append(helpers)

            def submit(self, helper):
                future = Future()
                future.set_result(helper())
                return future

            def shutdown(self, cancel_futures=False):
                pass

        serial = run_repeated(model, doc, idf, n=200, n_exp=8, master_seed=2)
        monkeypatch.setattr(textlime.sampling, "ThreadPoolExecutor", SerialPool)
        # Without an affinity mask the cap is the CPU count, 1 if unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        capped = run_repeated(
            model, doc, idf, n=200, n_exp=8, master_seed=2, threads=5000
        )
        assert sizes == pools
        assert np.array_equal(serial.coefficients, capped.coefficients)
        assert np.array_equal(serial.intercepts, capped.intercepts)

    def test_a_failing_run_raises_at_its_place(self, monkeypatch):
        # At nu = 0.0015 on bundled document 5 (d = 12), a 20-sample run
        # misses every size-1 sample, and so has all-zero weights, with
        # probability 18%: runs 1, 3 and 8 of master seed 3 do. The error
        # raised is run 1's, whichever run fails first in time, and no
        # helper outlives the call.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[5], fit_idf(corpus)
        errors = {}
        explain_run = textlime.verify.explain

        def recorded(*args, seed, **kwargs):
            try:
                return explain_run(*args, seed=seed, **kwargs)
            except ValueError as exc:
                errors[tuple(seed)] = exc
                raise

        monkeypatch.setattr(textlime.verify, "explain", recorded)
        monkeypatch.setattr(textlime.sampling, "_available_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="degenerate weights") as raised:
            run_repeated(
                tree_from_spec('"brunch"'), doc, idf, n=20, nu=0.0015, n_exp=12, master_seed=3, threads=2
            )
        assert threading.active_count() == before
        first, failing = tuple(derive_seed(3, 0)), tuple(derive_seed(3, 1))
        assert failing in errors and first not in errors
        assert raised.value is errors[failing]

    @pytest.mark.parametrize("ridge", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["tree", "linear", "constant", "one-word"])
    def test_rows_are_explanations_of_derived_seeds(self, setup, kind, ridge):
        doc, idf, local = setup
        model = {
            "tree": tree_from_spec('"garden" + ("gate" & "morning")'),
            "linear": LinearModel(
                coefficients={w: (-1.0) ** j * (j + 1) for j, w in enumerate(local.words)}
            ),
            "constant": IndicatorProduct(words=frozenset(), coefficient=1.0),
            "one-word": tree_from_spec('"garden"'),
        }[kind]
        if kind == "one-word":
            doc = tokenize("garden garden garden")
        stats = run_repeated(
            model, doc, idf, n=300, nu=0.3, ridge=ridge, n_exp=4, master_seed=[6, 2]
        )
        for r in range(4):
            single = explain(
                model, doc, idf, n=300, nu=0.3, ridge=ridge, seed=derive_seed([6, 2], r)
            )
            assert np.array_equal(stats.coefficients[r], single.coefficient_array())
            assert stats.intercepts[r] == single.intercept

    def test_consecutive_calls_share_no_state(self, setup):
        doc, idf, _ = setup
        other = tokenize("the fountain stones stay warm")
        model = tree_from_spec('"fountain" + ("garden" & "stones")')

        def run(document):
            return run_repeated(model, document, idf, n=250, n_exp=3, master_seed=4)

        first, second, again = run(doc), run(other), run(doc)
        assert np.array_equal(first.coefficients, again.coefficients)
        assert np.array_equal(first.intercepts, again.intercepts)
        for r in range(3):
            fresh = explain(model, other, idf, n=250, seed=derive_seed(4, r))
            assert np.array_equal(second.coefficients[r], fresh.coefficient_array())
            assert second.intercepts[r] == fresh.intercept

    def test_quartiles_ordered(self, setup):
        doc, idf, _ = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        stats = run_repeated(model, doc, idf, n=500, n_exp=12, master_seed=1)
        assert np.all(stats.q1 <= stats.median + 1e-15)
        assert np.all(stats.median <= stats.q3 + 1e-15)
        assert np.all(stats.minimum <= stats.q1 + 1e-15)
        assert np.all(stats.q3 <= stats.maximum + 1e-15)

    def test_config_echoed(self, setup):
        doc, idf, _ = setup
        model = tree_from_spec('"garden"')
        stats = run_repeated(model, doc, idf, n=200, n_exp=2, master_seed=7)
        assert stats.config == {
            "n": 200,
            "nu": 0.25,
            "ridge": 0.0,
            "n_exp": 2,
            "master_seed": 7,
        }

    def test_word_summary_is_the_summary_arrays(self, setup):
        doc, idf, _ = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        stats = run_repeated(model, doc, idf, n=300, n_exp=5, master_seed=4)
        for j in range(stats.d):
            summary = stats.summary(j)
            assert tuple(summary) == SUMMARY_FIELDS
            expected = (
                stats.median[j], stats.q1[j], stats.q3[j],
                stats.minimum[j], stats.maximum[j], stats.std[j],
            )
            assert tuple(summary.values()) == tuple(float(v) for v in expected)

    def test_intercept_summary_is_the_one_dimensional_numpy_calls(self, setup):
        doc, idf, _ = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        stats = run_repeated(model, doc, idf, n=300, n_exp=5, master_seed=4)
        x = stats.intercepts
        assert stats.summary() == {
            "median": float(np.median(x)),
            "q1": float(np.quantile(x, 0.25)),
            "q3": float(np.quantile(x, 0.75)),
            "minimum": float(x.min()),
            "maximum": float(x.max()),
            "std": float(x.std(ddof=1)),
        }

    def test_single_repetition_summaries_have_no_std(self, setup):
        doc, idf, _ = setup
        stats = run_repeated(
            tree_from_spec('"garden"'), doc, idf, n=300, n_exp=1, master_seed=4
        )
        assert stats.summary()["std"] is None
        assert all(stats.summary(j)["std"] is None for j in range(stats.d))

    def test_derived_seeds_extend_master(self):
        assert derive_seed(5, 3) == [5, 3]
        assert derive_seed([5, 1], 3) == [5, 1, 3]


class TestCompare:
    def test_zero_deviation_when_theory_equals_medians(self, setup):
        doc, idf, local = setup
        model = tree_from_spec('"garden"')
        stats = run_repeated(model, doc, idf, n=400, n_exp=6, master_seed=2)
        theory = TheoryExplanation(
            intercept=float(np.median(stats.intercepts)),
            coefficients=tuple(float(v) for v in stats.median),
            provenance="exact-closed-form",
            words=stats.words,
        )
        report = compare(stats, theory)
        assert report.max_abs_deviation == 0.0
        assert report.all_inside_iqr()
        assert report.all_inside_range()

    def test_dictionary_mismatch_rejected(self, setup):
        doc, idf, _ = setup
        model = tree_from_spec('"garden"')
        stats = run_repeated(model, doc, idf, n=200, n_exp=2, master_seed=2)
        theory = TheoryExplanation(
            intercept=0.0,
            coefficients=(0.0, 1.0),
            provenance="exact-closed-form",
            words=("other", "words"),
        )
        with pytest.raises(ValueError, match="dictionary mismatch"):
            compare(stats, theory)

    def test_unlabeled_theory_rejected(self, setup):
        doc, idf, local = setup
        model = tree_from_spec('"garden"')
        stats = run_repeated(model, doc, idf, n=200, n_exp=2, master_seed=2)
        theory = TheoryExplanation(
            intercept=0.0,
            coefficients=tuple(0.0 for _ in range(local.d)),
            provenance="exact-closed-form",
        )
        with pytest.raises(ValueError, match="no words"):
            compare(stats, theory)

    def test_word_order_independence(self, setup):
        # Permuting the theory's word order must not change any per-word row.
        doc, idf, local = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        stats = run_repeated(model, doc, idf, n=400, n_exp=8, master_seed=4)
        theory = beta_tree(model, local, 0.25)
        perm = np.random.default_rng(0).permutation(local.d)
        shuffled = TheoryExplanation(
            intercept=theory.intercept,
            coefficients=tuple(theory.coefficients[j] for j in perm),
            provenance=theory.provenance,
            words=tuple(theory.words[j] for j in perm),
        )
        a = {r.word: r for r in compare(stats, theory).rows}
        b = {r.word: r for r in compare(stats, shuffled).rows}
        assert a == b

    def test_summary_consistent_with_rows(self, setup):
        doc, idf, local = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        stats = run_repeated(model, doc, idf, n=600, n_exp=6, master_seed=13)
        report = compare(stats, beta_tree(model, local, 0.25))
        devs = [r.abs_deviation for r in report.rows]
        assert report.max_abs_deviation == max(devs)
        assert report.mean_abs_deviation == pytest.approx(np.mean(devs))
        assert all(d >= 0 for d in devs)

    def test_single_indicator_pipeline_deviation(self, setup):
        # The indicator response is one of the regressors, so the pipeline
        # recovers the theory value almost exactly.
        doc, idf, local = setup
        model = IndicatorProduct(words=frozenset({"garden"}))
        stats = run_repeated(model, doc, idf, n=2000, n_exp=10, master_seed=6)
        theory = beta_tree(
            tree_from_spec('"garden"'), local, 0.25
        )
        report = compare(stats, theory)
        assert report.row("garden").abs_deviation <= 0.05
        assert report.max_abs_deviation <= 0.05
        assert report.all_inside_range()


class TestSweepBandwidth:
    def test_constant_model_flat_zero_curve(self, setup):
        doc, idf, _ = setup
        model = IndicatorProduct(words=frozenset(), coefficient=1.0)
        points = sweep_bandwidth(
            model, doc, idf, "garden", [0.1, 0.5, 2.0], n=300, n_exp=3,
            master_seed=4,
        )
        assert len(points) == 3
        for point in points:
            assert abs(point.median) < 1e-9

    def test_theory_overlays_empirical_curve(self, setup):
        doc, idf, local = setup
        model = tree_from_spec('"garden" & "gate"')
        grid = [0.1, 0.3, 1.0]
        points = sweep_bandwidth(
            model, doc, idf, "garden", grid, n=4000, n_exp=12, master_seed=8
        )
        j = local.index_of("garden")
        for point, nu in zip(points, grid):
            theory = beta_tree(model, local, nu).coefficients[j]
            assert point.median == pytest.approx(theory, abs=0.05)
            assert point.minimum - 1e-9 <= theory <= point.maximum + 1e-9

    def test_sign_flip_demonstration(self, setup):
        # A pair indicator minus a well-chosen multiple of a single one:
        # the single part contributes a flat -0.73, the pair part grows
        # from about 0.5 to about 0.95 with the bandwidth, so the tracked
        # word's coefficient crosses zero inside the default grid.
        doc, idf, local = setup
        model = combine(
            [
                (1.0, tree_from_spec('"garden" & "gate"')),
                (-0.73, tree_from_spec('"garden"')),
            ]
        )
        j = local.index_of("garden")
        grid = default_nu_grid()
        theory_values = [
            beta_tree(model, local, float(nu)).coefficients[j] for nu in grid
        ]
        assert min(theory_values) < 0 < max(theory_values)
        # Empirically the flip shows between 0.1 and 1.0, where n = 5000
        # concentrates well (tiny bandwidths need astronomically more).
        points = sweep_bandwidth(
            model, doc, idf, "garden", [0.1, 1.0],
            n=5000, n_exp=10, master_seed=12,
        )
        assert points[0].median > 0 > points[-1].median

    def test_points_are_word_summaries_of_repeated_runs(self, setup):
        doc, idf, local = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        grid = [0.1, 0.5, 2.0]
        points = sweep_bandwidth(
            model, doc, idf, "gate", grid, n=300, ridge=0.5, n_exp=3, master_seed=7
        )
        j = local.index_of("gate")
        for k, point in enumerate(points):
            stats = run_repeated(
                model, doc, idf, n=300, nu=grid[k], ridge=0.5, n_exp=3,
                master_seed=derive_seed(7, k),
            )
            assert point == SweepPoint(nu=grid[k], **stats.summary(j))

    def test_unknown_word_rejected(self, setup):
        doc, idf, _ = setup
        with pytest.raises(ValueError, match="unknown word"):
            sweep_bandwidth(
                tree_from_spec('"garden"'), doc, idf, "zeppelin", [0.25],
                n=100, n_exp=1, master_seed=0,
            )

    def test_default_grid_shape(self):
        grid = default_nu_grid()
        assert len(grid) == 24
        assert grid[0] == pytest.approx(0.03)
        assert grid[-1] == pytest.approx(3.0)
        assert np.all(np.diff(np.log(grid)) > 0)


class TestLinearityCheck:
    def test_single_repetition_rejected_before_any_run(self, setup, monkeypatch):
        doc, idf, _ = setup

        def no_runs(*args, **kwargs):
            raise AssertionError("run_repeated called before n_exp was checked")

        monkeypatch.setattr(textlime.verify, "run_repeated", no_runs)
        with pytest.raises(ValueError, match="n_exp >= 2"):
            linearity_check(
                tree_from_spec('"garden"'), LinearModel(coefficients={}), doc, idf, n_exp=1
            )

    def test_zero_second_model_pure_noise(self, setup):
        doc, idf, _ = setup
        f = tree_from_spec('"garden" + ("gate" & "morning")')
        g = LinearModel(coefficients={})
        report = linearity_check(
            f, g, doc, idf, n=2000, n_exp=10, master_seed=3
        )
        assert report.all_within_envelope()
        assert report.max_abs_deviation < 0.05

    def test_indicator_trees_closed_form_exact(self, setup):
        doc, idf, _ = setup
        f = tree_from_spec('"garden" + ("gate" & "morning")')
        g = tree_from_spec('"sparrows" + ("sparrows" & "fountain")')
        report = linearity_check(
            f, g, doc, idf, n=3000, n_exp=10, master_seed=5
        )
        assert report.theory_max_residual is not None
        assert report.theory_max_residual <= 1e-12
        assert report.all_within_envelope()
        assert report.theory_vs_combined is not None

    def test_mixed_models_have_no_closed_form_side(self, setup):
        doc, idf, _ = setup
        f = tree_from_spec('"garden"')
        g = LinearModel(coefficients={"gate": 1.0})
        report = linearity_check(f, g, doc, idf, n=800, n_exp=4, master_seed=6)
        assert report.theory_max_residual is None
        assert report.theory_vs_combined is None


class TestConcentrationCheck:
    def test_requires_repetitions_for_std(self, setup):
        doc, idf, _ = setup
        with pytest.raises(ValueError, match="n_exp >= 2"):
            concentration_check(
                tree_from_spec('"garden"'), doc, idf, [100, 200], n_exp=1
            )

    def test_grid_must_increase(self, setup):
        doc, idf, _ = setup
        with pytest.raises(ValueError, match="increasing"):
            concentration_check(
                tree_from_spec('"garden"'), doc, idf, [500, 500], n_exp=3
            )

    def test_parametric_rate(self, setup):
        doc, idf, _ = setup
        model = tree_from_spec('"garden" + ("gate" & "morning")')
        table = concentration_check(
            model, doc, idf, [400, 1600, 6400], n_exp=40, master_seed=11
        )
        assert -0.75 <= table.median_slope <= -0.25
        # Quadrupling n halves the spread, within half of itself.
        finite = np.isfinite(table.ratios)
        assert np.all(np.abs(table.ratios[finite] - 0.5) <= 0.25 + 1e-9)

    def test_exact_fit_models_have_no_rate(self, setup):
        # A single indicator is recovered exactly at every n: no spread,
        # so there is no decay rate to fit.
        doc, idf, _ = setup
        with pytest.raises(ValueError, match="positive spread"):
            concentration_check(
                tree_from_spec('"garden"'), doc, idf, [200, 800], n_exp=5
            )

