"""Indicator products, trees, linear models, combinations, and the tree DSL."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textlime import (
    CombinedModel,
    IndicatorProduct,
    LinearModel,
    TreeModel,
    TreeSpecError,
    combine,
    load_linear_model,
    tree_from_spec,
)

FOOD_TREE_SPEC = '"food" + (!"food" & "about" & "Everything")'
DEEP_TREE_SPEC = (
    '"food" + (!"food" & "about" & "Everything") + "bad" + ("bad" & "character")'
)


def ev(model, **coords):
    """Evaluate a model on one TF-IDF vector given by its nonzero
    coordinates, as a one-row batch."""
    return float(model.evaluate_matrix(np.array([list(coords.values())]), list(coords))[0])


def oracle(model, phi):
    """Independent per-row value of a model, from its definition, on a
    dict of nonzero TF-IDF coordinates."""
    if isinstance(model, IndicatorProduct):
        present = all(phi.get(w, 0.0) > 0.0 for w in model.words)
        return model.coefficient if present else 0.0
    if isinstance(model, TreeModel):
        return math.fsum(oracle(t, phi) for t in model.terms)
    if isinstance(model, LinearModel):
        return math.fsum(c * phi.get(w, 0.0) for w, c in model.coefficients.items())
    return math.fsum(a * oracle(m, phi) for a, m in model.parts)


class TestIndicatorProduct:
    def test_empty_product_is_constant(self):
        m = IndicatorProduct(words=frozenset(), coefficient=2.5)
        assert ev(m) == 2.5
        assert ev(m, a=0.3) == 2.5

    def test_zero_vector_with_nonempty_support(self):
        m = IndicatorProduct(words=frozenset({"a"}))
        assert ev(m) == 0.0

    def test_requires_all_words(self):
        m = IndicatorProduct(words=frozenset({"a", "b"}))
        assert ev(m, a=0.5) == 0.0
        assert ev(m, a=0.5, b=0.1) == 1.0

    def test_depends_only_on_support(self):
        m = IndicatorProduct(words=frozenset({"a", "b"}))
        assert ev(m, a=0.9, b=0.01) == ev(m, a=0.0001, b=0.7)


class TestLinearModel:
    def test_all_zero_coefficients(self):
        m = LinearModel(coefficients={"a": 0.0, "b": 0.0})
        assert ev(m, a=0.3, b=0.4) == 0.0

    def test_coordinate_projection(self):
        m = LinearModel(coefficients={"b": 1.0})
        assert ev(m, a=0.6, b=0.8) == pytest.approx(0.8)

    def test_bound_holds_on_random_unit_vectors(self):
        # |sum lambda_j phi_j| <= ||lambda||_2 whenever ||phi|| = 1.
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(6)]
        lam = {w: float(rng.normal()) for w in words}
        m = LinearModel(coefficients=lam)
        raw = np.abs(rng.normal(size=(200, 6))) + 1e-9
        phi = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        norm = math.sqrt(math.fsum(c * c for c in lam.values()))
        assert np.all(np.abs(m.evaluate_matrix(phi, words)) <= norm + 1e-12)

    def test_json_loading(self, tmp_path):
        path = tmp_path / "linear.json"
        path.write_text(json.dumps({"food": 1.5, "bad": -2.0}))
        m = load_linear_model(path)
        assert m.coefficients == {"food": 1.5, "bad": -2.0}
        with pytest.raises(ValueError):
            path.write_text(json.dumps([1, 2]))
            load_linear_model(path)

    @pytest.mark.parametrize(
        "value",
        # float(True) is 1.0, but a JSON boolean is not a coefficient, and
        # neither is a string, even one that float() would parse.
        [
            "NaN", "Infinity", "-Infinity", "1e309", pytest.param("1" + "0" * 400, id="1e400-int"), '"nan"', '"inf"',
            '"1_000"', '" 2 "', '"abc"', "null", "[1]", "true", "false",
        ],
    )
    def test_json_coefficient_must_be_finite(self, tmp_path, value):
        path = tmp_path / "linear.json"
        path.write_text('{"food": 1.5, "about": %s}' % value)
        with pytest.raises(ValueError, match="'about' is not a finite number"):
            load_linear_model(path)


class TestCombine:
    def test_single_part_identity(self):
        m = IndicatorProduct(words=frozenset({"a"}))
        c = combine([(1.0, m)])
        for phi in ({}, {"a": 0.5}, {"b": 0.3}):
            assert ev(c, **phi) == ev(m, **phi)

    def test_sum_is_pointwise(self):
        f = IndicatorProduct(words=frozenset({"a"}))
        g = LinearModel(coefficients={"b": 2.0})
        c = combine([(1.0, f), (1.0, g)])
        phi = {"a": 0.5, "b": 0.25}
        assert ev(c, **phi) == pytest.approx(ev(f, **phi) + ev(g, **phi))

    def test_cancellation_yields_zero_model(self):
        f = tree_from_spec(FOOD_TREE_SPEC)
        c = combine([(1.0, f), (-1.0, f)])
        assert isinstance(c, TreeModel)
        assert c.terms == ()
        assert ev(c, food=0.5) == 0.0

    def test_indicator_parts_merge_into_tree(self):
        f = IndicatorProduct(words=frozenset({"a"}))
        g = tree_from_spec('"a" + "b"')
        c = combine([(2.0, f), (1.0, g)])
        assert isinstance(c, TreeModel)
        by_support = {t.words: t.coefficient for t in c.terms}
        assert by_support == {frozenset({"a"}): 3.0, frozenset({"b"}): 1.0}

    def test_nested_sums_flatten_into_one_tree(self):
        tree_a = tree_from_spec('"a" + ("b" & "c")')
        tree_b = tree_from_spec('"a" + "d"')
        c = combine([(1.0, CombinedModel(parts=((2.0, tree_a),))), (-1.0, tree_b)])
        assert isinstance(c, TreeModel)
        by_support = {t.words: t.coefficient for t in c.terms}
        assert by_support == {
            frozenset({"a"}): 1.0, frozenset({"d"}): -1.0, frozenset({"b", "c"}): 2.0,
        }

    def test_a_nested_linear_part_keeps_the_combination(self):
        linear = CombinedModel(parts=((2.0, LinearModel(coefficients={"b": 2.0})),))
        parts = ((1.0, tree_from_spec('"a"')), (0.5, linear))
        assert combine(parts) == CombinedModel(parts=parts)


class TestTreeFromSpec:
    def test_single_word(self):
        tree = tree_from_spec('"food"')
        assert tree.terms == (
            IndicatorProduct(words=frozenset({"food"}), coefficient=1.0),
        )

    def test_food_tree_expansion(self):
        tree = tree_from_spec(FOOD_TREE_SPEC)
        by_support = {t.words: t.coefficient for t in tree.terms}
        assert by_support == {
            frozenset({"food"}): 1.0,
            frozenset({"about", "Everything"}): 1.0,
            frozenset({"food", "about", "Everything"}): -1.0,
        }

    def test_food_tree_truth_table(self):
        # Independent oracle: the rule "1 if food, else 1 if about and
        # Everything both present" over all 8 assignments.
        tree = tree_from_spec(FOOD_TREE_SPEC)
        for bits in range(8):
            food, about, everything = (bits >> 0) & 1, (bits >> 1) & 1, (bits >> 2) & 1
            value = ev(
                tree,
                **{
                    w: 0.5 * present
                    for w, present in [
                        ("food", food),
                        ("about", about),
                        ("Everything", everything),
                    ]
                }
            )
            expected = food + (1 - food) * about * everything
            assert value == pytest.approx(float(expected))

    def test_deep_tree_truth_table(self):
        tree = tree_from_spec(DEEP_TREE_SPEC)
        words = ["food", "about", "Everything", "bad", "character"]
        for bits in range(2**5):
            present = {w: (bits >> i) & 1 for i, w in enumerate(words)}
            value = ev(tree, **{w: 0.3 * v for w, v in present.items()})
            expected = (
                present["food"]
                + (1 - present["food"]) * present["about"] * present["Everything"]
                + present["bad"]
                + present["bad"] * present["character"]
            )
            assert value == pytest.approx(float(expected))

    def test_idempotent_conjunction(self):
        tree = tree_from_spec('"a" & "a"')
        assert tree.terms == (
            IndicatorProduct(words=frozenset({"a"}), coefficient=1.0),
        )

    def test_double_negation(self):
        tree = tree_from_spec('!!"a"')
        assert {t.words: t.coefficient for t in tree.terms} == {frozenset({"a"}): 1.0}

    def test_parse_errors_carry_position(self):
        with pytest.raises(TreeSpecError, match="position 7"):
            tree_from_spec('"food" $')
        with pytest.raises(TreeSpecError, match="unterminated"):
            tree_from_spec('"food')
        with pytest.raises(TreeSpecError, match="expected '\\)'"):
            tree_from_spec('("a" & "b"')
        with pytest.raises(TreeSpecError, match="end of input"):
            tree_from_spec('"a" + ')


# Sub-expressions over at most four words, with at most four leaves.
expressions = st.recursive(
    st.sampled_from(['"a"', '"b"', '"c"', '"d"']),
    lambda inner: st.one_of(
        inner.map(lambda x: f"!{x}"),
        st.tuples(inner, inner).map(lambda xy: f"({xy[0]} & {xy[1]})"),
        st.tuples(inner, inner).map(lambda xy: f"({xy[0]} + {xy[1]})"),
    ),
    max_leaves=4,
)


class TestTreeAlgebra:
    """The expansion is exact polynomial algebra, so Boolean identities that
    hold as polynomial identities give equal term tuples."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(x=expressions)
    def test_double_negation(self, x):
        assert tree_from_spec(f"!!({x})").terms == tree_from_spec(x).terms

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(x=expressions, y=expressions)
    def test_de_morgan(self, x, y):
        # 1 - xy + (1 - x)(1 - y) = (1 - x) + (1 - y)
        assert (
            tree_from_spec(f"!({x} & {y}) + (!{x} & !{y})").terms
            == tree_from_spec(f"!{x} + !{y}").terms
        )
        # 1 - (1 - x)(1 - y) + xy = x + y
        assert (
            tree_from_spec(f"!(!{x} & !{y}) + ({x} & {y})").terms
            == tree_from_spec(f"{x} + {y}").terms
        )


class TestMatrixEvaluation:
    def test_matches_per_row_evaluation(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(7)] + ["food", "about", "Everything"]
        values = rng.random((40, len(words))) * (rng.random((40, len(words))) > 0.4)
        models = [
            IndicatorProduct(words=frozenset({"food"})),
            IndicatorProduct(words=frozenset({"w0", "w3"}), coefficient=-2.0),
            tree_from_spec(FOOD_TREE_SPEC),
            LinearModel(coefficients={"w1": 1.0, "food": -0.5}),
            combine(
                [
                    (0.5, tree_from_spec('"w0"')),
                    (2.0, LinearModel(coefficients={"w2": 1.0})),
                ]
            ),
        ]
        for model in models:
            batch = model.evaluate_matrix(values, words)
            for i in range(len(values)):
                phi = {w: float(v) for w, v in zip(words, values[i]) if v != 0.0}
                assert batch[i] == pytest.approx(oracle(model, phi), abs=1e-12)

    def test_word_absent_from_columns_means_absent(self):
        m = IndicatorProduct(words=frozenset({"missing"}))
        out = m.evaluate_matrix(np.ones((3, 2)), ["a", "b"])
        assert np.array_equal(out, np.zeros(3))

    # Terms with coefficients +inf and -inf on one row add to NaN.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        n=st.integers(1, 200),
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tree_is_left_to_right_sum_of_its_terms(self, n, d, seed):
        # Bit for bit, whether the terms name few or most of the columns and
        # for signed zero and non-finite coefficients: zeros plus each term's
        # value in order, a term naming a word not among the columns being
        # zero everywhere.
        rng = np.random.default_rng(seed)
        pool = [f"w{i}" for i in range(16)]
        words = list(rng.choice(pool, d, replace=False))
        values = rng.normal(size=(n, d)) * (rng.random((n, d)) < rng.random())
        terms = tuple(
            IndicatorProduct(
                words=frozenset(str(w) for w in rng.choice(pool, rng.integers(0, 4), replace=False)),
                coefficient=float(
                    rng.choice([0.0, -0.0, 1.0, rng.uniform(-3.0, 3.0), -np.inf, np.inf, np.nan])
                ),
            )
            for _ in range(rng.integers(0, 21))
        )
        index = {w: j for j, w in enumerate(words)}
        want = np.zeros(n)
        for term in terms:
            want += [
                term.coefficient
                if all(w in index and row[index[w]] > 0.0 for w in term.words)
                else 0.0
                for row in values
            ]
        got = TreeModel(terms=terms).evaluate_matrix(values, words)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [31, 1000])
    def test_tree_evaluation_on_wide_and_narrow_columns(self, d):
        # 20 terms name most columns at d = 31 and few at d = 1000.
        rng = np.random.default_rng(d)
        words = [f"w{i}" for i in range(d)]
        values = rng.random((300, d)) * (rng.random((300, d)) < 0.5)
        terms = tuple(
            IndicatorProduct(
                words=frozenset(str(w) for w in rng.choice(words, 1 + i % 3, replace=False)),
                coefficient=float(rng.uniform(-2.0, 2.0)),
            )
            for i in range(20)
        )
        want = np.zeros(len(values))
        for term in terms:
            mask = np.ones(len(values), dtype=bool)
            for w in term.words:
                mask &= values[:, words.index(w)] > 0.0
            want += np.where(mask, term.coefficient, 0.0)
        got = TreeModel(terms=terms).evaluate_matrix(values, words)
        assert got.tobytes() == want.tobytes()
