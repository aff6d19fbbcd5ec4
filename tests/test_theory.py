"""Closed-form explanation machinery against independent oracles.

Every closed form here is checked against at least one of: exhaustive
enumeration, exact integer combinatorics, or raw Monte Carlo sampling.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textlime.theory as theory
from textlime import (
    Document,
    IndicatorProduct,
    LinearModel,
    TreeModel,
    alpha,
    alpha_bounds,
    alpha_limit,
    alpha_values,
    beta_general_mc,
    beta_indicator_product,
    beta_linear,
    beta_tree,
    bundled_corpus_path,
    combine,
    e_term,
    expected_removed_mass,
    fit_idf,
    load_corpus,
    local_dictionary,
    mc_alpha,
    normalized_tfidf,
    omega_weights,
    population_explanation,
    sigma_inverse,
    sigma_matrix,
    sigma_set,
    tokenize,
    tree_from_spec,
)
from textlime.corpus import Corpus, tfidf_weights
from textlime.sampling import draw_feature_matrix, psi, renormalized_tfidf
from textlime.theory import (
    ClosedFormDomainError,
    OmegaWeights,
    SIMPLIFIED_E_PAIR,
    SIMPLIFIED_E_SINGLE,
    SIMPLIFIED_LINEAR_CONSTANT,
    normalization_constant,
)

GRID = [(d, nu) for d in (2, 5, 10, 30) for nu in (0.1, 0.25, 1.0, 10.0)]


def uniform_omega(d):
    return OmegaWeights(
        words=tuple(f"w{i}" for i in range(d)), values=tuple([1.0 / d] * d)
    )


def random_omega(d, rng):
    raw = rng.random(d) + 0.05
    values = raw / raw.sum()
    return OmegaWeights(
        words=tuple(f"w{i}" for i in range(d)),
        values=tuple(float(v) for v in values),
    )


def exact_sigma_identity_residual(d, nu):
    """Largest deviation of the covariance-times-inverse product from the
    identity, in exact rational arithmetic.

    Starts from the exact binary values of the kernel weights (the only
    transcendental inputs) and evaluates moments, inverse coefficients and
    the product as Fractions. Both matrices follow a two-block symmetric
    pattern, so the product has five distinct entries. Float64 cannot
    resolve this identity where the covariance is nearly singular (tiny
    bandwidth with very small d); exact arithmetic can, everywhere.
    """
    kernel = [Fraction(float(psi(s / d, nu))) for s in range(1, d + 1)]

    def moment(p):
        total = Fraction(0)
        for s, k in zip(range(1, d + 1), kernel):
            term = k
            for i in range(p):
                term *= Fraction(d - s - i, d - i)
            total += term
        return total / d

    a0, a1, a2 = moment(0), moment(1), moment(2)
    c = (d - 1) * a0 * a2 - d * a1 * a1 + a0 * a1
    gap = a1 - a2
    s0 = (d - 1) * a2 + a1
    s1 = -a1
    s2 = ((d - 2) * a0 * a2 - (d - 1) * a1 * a1 + a0 * a1) / gap
    s3 = (a1 * a1 - a0 * a2) / gap
    entries = {
        "corner": (a0 * s0 + d * a1 * s1) / c - 1,
        "top_row": (a0 * s1 + a1 * s2 + (d - 1) * a1 * s3) / c,
        "left_column": (a1 * s0 + a1 * s1 + (d - 1) * a2 * s1) / c,
        "diagonal": (a1 * s1 + a1 * s2 + (d - 1) * a2 * s3) / c - 1,
        "off_diagonal": (a1 * s1 + a1 * s3 + a2 * s2 + (d - 2) * a2 * s3) / c,
    }
    return max(abs(v) for v in entries.values())


def enumerate_conditional(d, kept, func):
    """Exhaustive oracle: E[func(S) | S avoids kept], iterating every
    (size, subset) pair of the uniform removal scheme that avoids kept."""
    kept = set(kept)
    total = Fraction(0)
    weighted = 0.0
    indices = [i for i in range(d) if i not in kept]
    for s in range(1, d + 1):
        prob = Fraction(1, d) / math.comb(d, s)
        total += math.comb(len(indices), s) * prob
        for subset in itertools.combinations(indices, s):
            weighted += float(prob) * func(frozenset(subset))
    return weighted / float(total)


def loop_alpha_values(d, nu, p_max):
    """alpha_0 .. alpha_{p_max} by the per-deletion-count double loop."""
    terms = [[] for _ in range(p_max + 1)]
    for s in range(1, d + 1):
        value = psi(s / d, nu)
        terms[0].append(value)
        for k in range(p_max):
            value *= (d - s - k) / (d - k)
            terms[k + 1].append(value)
    return [math.fsum(column) / d for column in terms]


def pairwise_normalization_constant(d, nu):
    """c_d as (1 / (2 d^3)) sum_{s,t} psi(s/d) psi(t/d) (t - s)^2 over a
    d x d matrix of nonnegative terms."""
    s = np.arange(1, d + 1, dtype=float)
    kernel = psi(s / d, nu)
    diffs = (s[:, None] - s[None, :]) ** 2
    return float(np.sum(kernel[:, None] * kernel[None, :] * diffs)) / (2.0 * d**3)


def synthetic_local(d):
    return local_dictionary(Document(tokens=tuple(f"w{i:04d}" for i in range(d))))


class TestAlpha:
    def test_large_bandwidth_limit(self):
        for d, p in [(5, 1), (12, 0), (12, 3)]:
            assert alpha(p, d, 1e3) == pytest.approx(alpha_limit(p, d), abs=1e-4)
        assert alpha_limit(1, 5) == pytest.approx(0.4)

    def test_order_d_vanishes(self):
        for d in (1, 3, 8):
            for nu in (0.1, 0.25, 2.0):
                assert alpha(d, d, nu) == 0.0

    def test_order_beyond_d_rejected(self):
        with pytest.raises(ValueError):
            alpha(6, 5, 0.25)

    def test_alpha_values_consistent_with_scalar(self):
        values = alpha_values(9, 0.25, 4)
        for p, v in enumerate(values):
            assert v == alpha(p, 9, 0.25)

    @pytest.mark.parametrize("d", [1, 2, 12, 31, 200, 1000])
    @pytest.mark.parametrize("nu", [0.03, 0.25, 100.0])
    def test_alpha_values_bit_identical_to_loop(self, d, nu):
        for p_max in range(min(d, 5) + 1):
            assert alpha_values(d, nu, p_max) == loop_alpha_values(d, nu, p_max)

    def test_against_monte_carlo(self):
        estimates = mc_alpha(15, 0.25, 200_000, 3, seed=23)
        for p in range(4):
            closed = alpha(p, 15, 0.25)
            tol = max(3 * estimates.stderr(p), 5e-3)
            assert abs(closed - estimates.value(p)) <= tol

    def test_monotone_ordering_and_bounds(self):
        for d, nu in GRID:
            values = alpha_values(d, nu, min(d, 6))
            for p in range(1, len(values)):
                assert values[p] <= values[p - 1] + 1e-15
            for p, v in enumerate(values):
                lo, hi = alpha_bounds(p, d, nu)
                assert lo - 1e-12 <= v <= hi + 1e-12


class TestSigmaSet:
    def test_large_bandwidth_normalizer(self):
        # c_d tends to (d^2 - 1) / (12 d); at d = 5 that is 0.4.
        assert sigma_set(5, 1e3).c_d == pytest.approx(0.4, abs=1e-3)
        for d in (2, 7, 30):
            assert sigma_set(d, 1e3).c_d == pytest.approx(
                (d * d - 1) / (12 * d), rel=1e-3
            )

    def test_large_bandwidth_ratios(self):
        # Exact limits of the four distinct inverse entries (corner, first
        # row, diagonal, off-diagonal) as the bandwidth grows.
        d = 7
        inverse = sigma_inverse(d, 1e5)
        assert inverse[0, 0] == pytest.approx(2 * (2 * d - 1) / (d + 1), rel=1e-4)
        assert inverse[0, 1] == pytest.approx(-6 / (d + 1), rel=1e-4)
        assert inverse[1, 1] == pytest.approx(
            6 * (d * d - 2 * d + 3) / ((d + 1) * (d - 1)), rel=1e-4
        )
        assert inverse[1, 2] == pytest.approx(
            -6 * (d - 3) / ((d + 1) * (d - 1)), rel=1e-4
        )

    def test_sigma2_ratio_large_d_expansion(self):
        # The diagonal inverse entry.
        d = 400
        assert abs(sigma_inverse(d, 1e5)[1, 1] - (6 - 12 / d)) <= 100 / d**2

    def test_invertibility_bounds(self):
        for d, nu in GRID:
            ss = sigma_set(d, nu)
            assert ss.c_d > 0
            assert ss.c_d >= math.exp(-2.0 / nu**2) / 40.0
            assert ss.alpha1 - ss.alpha2 >= math.exp(-1.0 / (2 * nu**2)) / 6.0

    def test_default_bandwidth_d30(self):
        ss = sigma_set(30, 0.25)
        assert ss.c_d > 0
        assert ss.c_d >= math.exp(-2.0 / 0.0625) / 40.0

    @pytest.mark.parametrize("d", [1, 2, 5, 31, 200, 1000])
    @pytest.mark.parametrize("nu", [0.03, 0.1, 0.25, 1.0, 10.0, 100.0])
    def test_normalization_constant_matches_pairwise_form(self, d, nu):
        want = pairwise_normalization_constant(d, nu)
        assert abs(normalization_constant(d, nu) - want) <= 1e-14 * want

    def test_sigma1_is_negated_alpha1(self):
        # The first row and column of the inverse, past the corner, are
        # -alpha_1 / c_d.
        ss = sigma_set(9, 0.3)
        inverse = sigma_inverse(9, 0.3)
        assert np.all(inverse[0, 1:] == -ss.alpha1 / ss.c_d)
        assert np.all(inverse[1:, 0] == -ss.alpha1 / ss.c_d)

    def test_small_d_rejected(self):
        with pytest.raises(ClosedFormDomainError):
            sigma_set(1, 0.25)

    @pytest.mark.parametrize("d", range(2, 8))
    @pytest.mark.parametrize("nu", [0.005, 0.002, 0.001])
    def test_narrow_bandwidth_finite_or_out_of_domain(self, d, nu):
        # Here c_d or alpha_1 - alpha_2 can underflow to 0; dividing by it
        # must not happen.
        try:
            ss = sigma_set(d, nu)
            inverse = sigma_inverse(d, nu)
        except ClosedFormDomainError:
            return
        assert ss.c_d > 0 and ss.gap > 0
        assert np.all(np.isfinite(inverse))

    def test_constant_model_identities(self):
        # The inverse maps the first column [a0; a1 ... a1] of the
        # covariance to e_0: the corner row gives 1 and every other row 0.
        for d, nu in GRID:
            ss = sigma_set(d, nu)
            inverse = sigma_inverse(d, nu)
            corner, top, diagonal, off = (
                inverse[0, 0], inverse[0, 1], inverse[1, 1], inverse[1, 2]
            )
            lhs1 = corner * ss.alpha0 + d * top * ss.alpha1
            scale1 = max(abs(corner * ss.alpha0), abs(d * top * ss.alpha1))
            assert abs(lhs1 - 1.0) <= 1e-10 * scale1
            lhs2 = top * ss.alpha0 + diagonal * ss.alpha1 + (d - 1) * off * ss.alpha1
            assert abs(lhs2) <= 1e-10 * max(abs(diagonal * ss.alpha1), 1e-300)


class TestSigmaMatrices:
    def test_entry_pattern(self):
        d, nu = 6, 0.25
        a0, a1, a2 = alpha_values(d, nu, 2)
        m = sigma_matrix(d, nu)
        assert m[0, 0] == a0
        assert np.allclose(m[0, 1:], a1)
        assert np.allclose(m[1:, 0], a1)
        assert np.allclose(np.diag(m)[1:], a1)
        off = m[1:, 1:][~np.eye(d, dtype=bool)]
        assert np.allclose(off, a2)

    def test_product_is_identity(self):
        # Exact rational arithmetic: taking the computed moments as exact
        # binary rationals, the closed-form inverse pattern must invert the
        # covariance pattern identically. (The float64 product is also
        # checked where the matrix is well enough conditioned for float64
        # to resolve it; see sigma_product_residuals in test_acceptance.)
        for d, nu in GRID:
            residual = exact_sigma_identity_residual(d, nu)
            assert residual == 0

    def test_product_is_identity_in_float64_when_well_conditioned(self):
        for d, nu in GRID:
            matrix = sigma_matrix(d, nu)
            if np.linalg.cond(matrix) > 1e10:
                continue
            product = matrix @ sigma_inverse(d, nu)
            assert np.abs(product - np.eye(d + 1)).max() < 1e-10

    def test_operator_norm_bound(self):
        for d, nu in GRID:
            opnorm = np.linalg.norm(sigma_inverse(d, nu), 2)
            assert opnorm <= 70.0 * d**1.5 * math.exp(2.5 / nu**2)


class TestWordPresenceProbability:
    """alpha_limit(p, d) is the probability that p given words all survive."""

    def test_no_condition(self):
        assert alpha_limit(0, 7) == 1.0

    def test_small_cases_by_enumeration(self):
        # Rational enumeration over every (size, subset) draw.
        for d in range(2, 9):
            for p in range(0, d + 1):
                kept = set(range(p))
                total = Fraction(0)
                for s in range(1, d + 1):
                    hits = sum(
                        1
                        for subset in itertools.combinations(range(d), s)
                        if not kept & set(subset)
                    )
                    total += Fraction(1, d) * Fraction(hits, math.comb(d, s))
                assert total == Fraction(d - p, (p + 1) * d)
                assert alpha_limit(p, d) == pytest.approx(float(total))

    def test_d10_p2(self):
        assert alpha_limit(2, 10) == pytest.approx(8 / 30)

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError, match="d must be at least 1"):
            alpha_limit(0, 0)


class TestSubsetSumIdentity:
    def test_falling_factorial_sum(self):
        # sum_s (d-s)!/(d-s-p)! = d! / ((p+1) (d-p-1)!) in exact integers.
        for d in range(1, 16):
            for p in range(0, d):
                lhs = sum(math.perm(d - s, p) for s in range(1, d + 1))
                rhs = math.factorial(d) // ((p + 1) * math.factorial(d - p - 1))
                assert lhs == rhs


class TestExpectedRemovedMass:
    def test_uniform_d3_single(self):
        assert expected_removed_mass(uniform_omega(3), 0) == pytest.approx(4 / 9)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for d in (3, 5, 8, 12):
            omega = random_omega(d, rng)
            values = np.array(omega.values)
            got = expected_removed_mass(omega, 1)
            want = enumerate_conditional(d, {1}, lambda s: values[list(s)].sum())
            assert got == pytest.approx(want, abs=1e-12)
            got2 = expected_removed_mass(omega, (0, 2))
            want2 = enumerate_conditional(d, {0, 2}, lambda s: values[list(s)].sum())
            assert got2 == pytest.approx(want2, abs=1e-12)

    def test_large_d_small_mass_limit(self):
        omega = uniform_omega(300)
        got = expected_removed_mass(omega, 0)
        assert abs(got - (1 - 1 / 300) / 3) <= 1.0 / 300

    def test_pair_with_d2_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            expected_removed_mass(uniform_omega(2), (0, 1))


class TestETerm:
    def test_exact_matches_enumeration_oracle(self):
        # Every single survivor and every pair, including the smallest d
        # with pairs and a d that spans no more than one enumeration block.
        rng = np.random.default_rng(37)
        for d in (3, 4, 7, 10, 12):
            omega = random_omega(d, rng)
            values = np.array(omega.values)

            def renorm(subset):
                return 1.0 / math.sqrt(1.0 - values[list(subset)].sum())

            for j in range(d):
                got = e_term(omega, j, method="exact").value
                assert got == pytest.approx(
                    enumerate_conditional(d, {j}, renorm), abs=1e-12
                )
            for j, k in itertools.combinations(range(d), 2):
                want = enumerate_conditional(d, {j, k}, renorm)
                for pair in ((j, k), (k, j)):
                    got = e_term(omega, *pair, method="exact").value
                    assert got == pytest.approx(want, abs=1e-12)

    def test_exact_spans_several_enumeration_blocks(self):
        # d = 14 walks the survivor sets in four blocks.
        rng = np.random.default_rng(39)
        d = 14
        omega = random_omega(d, rng)
        values = np.array(omega.values)

        def renorm(subset):
            return 1.0 / math.sqrt(1.0 - values[list(subset)].sum())

        for kept in ((3,), (13,), (0, 13), (5, 9)):
            got = e_term(omega, *kept, method="exact").value
            assert got == pytest.approx(
                enumerate_conditional(d, set(kept), renorm), abs=1e-12
            )

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("d", [2, 3, 12, 14])
    def test_single_survivor_skips_pairs_bit_identically(self, d, exact):
        # Without the pair product E_single keeps the same bits, and a
        # single-survivor e_term reads it from there.
        omega = random_omega(d, np.random.default_rng(d))
        single, pair = theory._renormalization_expectations(omega, exact)
        alone, no_pair = theory._renormalization_expectations(omega, exact, pairs=False)
        assert no_pair is None and pair.shape == (d, d)
        assert alone.tobytes() == single.tobytes()
        method = "exact" if exact else "approx"
        assert [e_term(omega, j, method=method).value for j in range(d)] == single.tolist()

    def test_exact_matches_conditional_monte_carlo(self):
        rng = np.random.default_rng(41)
        omega = random_omega(10, rng)
        exact = e_term(omega, 4, method="exact").value
        estimate = e_term(omega, 4, method="mc", n_mc=200_000, seed=3)
        assert abs(exact - estimate.value) <= 3 * estimate.stderr
        exact_pair = e_term(omega, 4, 7, method="exact").value
        estimate_pair = e_term(omega, 4, 7, method="mc", n_mc=200_000, seed=4)
        assert abs(exact_pair - estimate_pair.value) <= 3 * estimate_pair.stderr

    def test_approx_is_swapped_expectation(self):
        omega = uniform_omega(12)
        expected = expected_removed_mass(omega, 5)
        assert e_term(omega, 5, method="approx").value == pytest.approx(
            1.0 / math.sqrt(1.0 - expected)
        )

    def test_approx_follows_the_formula_in_either_order(self):
        # The pair value is evaluated as (1 - w_j - w_k) with j < k, so both
        # orders give the same bits even where float addition does not
        # commute.
        rng = np.random.default_rng(42)
        d = 25
        omega = random_omega(d, rng)
        w = omega.values
        for j in range(d):
            want = 1.0 / math.sqrt(1.0 - (1.0 - w[j]) * (d + 1) / (3.0 * (d - 1)))
            assert e_term(omega, j, method="approx").value == want
        for j, k in itertools.combinations(range(d), 2):
            mass = (1.0 - w[j] - w[k]) * (d + 1) / (4.0 * (d - 2))
            want = 1.0 / math.sqrt(1.0 - mass)
            assert e_term(omega, j, k, method="approx").value == want
            assert e_term(omega, k, j, method="approx").value == want

    def test_approx_underestimates_exact(self):
        # The swap sits under the true value (the integrand is convex).
        rng = np.random.default_rng(43)
        omega = random_omega(9, rng)
        assert (
            e_term(omega, 0, method="approx").value
            < e_term(omega, 0, method="exact").value
        )

    def test_small_mass_approx_limits(self):
        # With many near-equal small masses the approx method approaches
        # (1 - 1/3)^(-1/2) and (1 - 1/4)^(-1/2).
        omega = uniform_omega(200)
        assert e_term(omega, 0, method="approx").value == pytest.approx(
            SIMPLIFIED_E_SINGLE, abs=2e-3
        )
        assert e_term(omega, 0, 1, method="approx").value == pytest.approx(
            SIMPLIFIED_E_PAIR, abs=2e-3
        )

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="enumeration too large"):
            e_term(uniform_omega(21), 0, method="exact")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            e_term(uniform_omega(5), 0, method="bogus")

    @pytest.mark.parametrize("method", ["exact", "approx", "mc"])
    @pytest.mark.parametrize("kept", [(9,), (-1,), (0, 9)], ids=["9", "-1", "0-9"])
    def test_out_of_range_index_rejected(self, method, kept):
        with pytest.raises(ValueError, match="out of range"):
            e_term(uniform_omega(5), *kept, method=method, n_mc=100)

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_monte_carlo_needs_two_samples(self, n_mc):
        with pytest.raises(ValueError, match="at least two"):
            e_term(uniform_omega(5), 0, method="mc", n_mc=n_mc)


class TestBetaIndicatorProduct:
    def test_empty_support_is_constant_model(self):
        result = beta_indicator_product([], 12, 0.25)
        assert result.intercept == pytest.approx(1.0, abs=1e-12)
        assert np.abs(result.coefficient_array()).max() < 1e-12
        assert result.provenance == "exact-closed-form"

    def test_single_word_is_unit_vector(self):
        for d, nu in [(5, 0.1), (12, 0.25), (40, 2.0)]:
            result = beta_indicator_product([3], d, nu)
            coef = result.coefficient_array()
            assert coef[3] == pytest.approx(1.0, abs=1e-10)
            others = np.delete(coef, 3)
            assert np.abs(others).max() < 1e-10
            assert result.intercept == pytest.approx(0.0, abs=1e-10)

    def test_branch_difference_identity(self):
        # Inside minus outside: the right-hand sides of a member and a
        # non-member differ by a_p - a_{p+1}, so the coefficients differ by
        # that times the diagonal minus the off-diagonal inverse entry,
        # which is 1 / (a_1 - a_2): the exact ratio
        # (a_p - a_{p+1}) / (a_1 - a_2); p = 1 forces the difference to 1.
        for d, nu, p in [(10, 0.25, 2), (25, 0.1, 4), (8, 1.0, 3)]:
            result = beta_indicator_product(range(p), d, nu)
            ss = sigma_set(d, nu)
            inverse = sigma_inverse(d, nu)
            a_p = alpha(p, d, nu)
            a_p1 = alpha(p + 1, d, nu)
            want = (inverse[1, 1] - inverse[1, 2]) * (a_p - a_p1)
            got = result.coefficients[0] - result.coefficients[p]
            assert got == pytest.approx(want, rel=1e-9)
            ratio = (a_p - a_p1) / (ss.alpha1 - ss.alpha2)
            assert got == pytest.approx(ratio, rel=1e-9)
        one = beta_indicator_product([0], 10, 0.25)
        assert one.coefficients[0] - one.coefficients[5] == pytest.approx(
            1.0, abs=1e-10
        )

    def test_branch_difference_scale_at_large_bandwidth(self):
        # In the wide-kernel regime the diagonal minus the off-diagonal
        # inverse entry approaches 6, so support words stand far above the
        # rest.
        inverse = sigma_inverse(40, 1e4)
        assert inverse[1, 1] - inverse[1, 2] == pytest.approx(6.0, abs=0.2)

    def test_support_words_dominate(self):
        result = beta_indicator_product([0, 1], 20, 0.25)
        assert result.coefficients[0] > 5 * abs(result.coefficients[5])

    def test_against_monte_carlo_oracle(self):
        d, nu = 10, 0.25
        words = tuple(f"w{i}" for i in range(d))
        doc = Document(tokens=words)
        idf = fit_idf(Corpus(documents=(doc,)))
        model = IndicatorProduct(words=frozenset({"w0", "w1"}))
        closed = beta_indicator_product([0, 1], d, nu)
        estimate = beta_general_mc(model, doc, idf, nu=nu, n_mc=400_000, seed=52)
        for j in range(d):
            tol = max(3 * estimate.coefficient_stderr[j], 2e-3)
            assert abs(closed.coefficients[j] - estimate.coefficients[j]) <= tol
        assert abs(closed.intercept - estimate.intercept) <= max(
            3 * estimate.intercept_stderr, 2e-3
        )

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            beta_indicator_product([7], 5, 0.25)

    def test_full_support_product(self):
        # p = d: the highest-order moment never enters (its multiplier is
        # d - p = 0), so the formulas evaluate cleanly.
        result = beta_indicator_product(range(6), 6, 0.25)
        assert all(math.isfinite(c) for c in result.coefficients)
        assert math.isfinite(result.intercept)
        assert len(set(result.coefficients)) == 1


@pytest.fixture(scope="module")
def doc_idf():
    corpus = Corpus(
        documents=(
            tokenize(
                "Everything about the food here made the evening fun the "
                "staff kept our table happy"
            ),
            tokenize("the staff was kind"),
            tokenize("fun evening overall"),
        )
    )
    return corpus.documents[0], fit_idf(corpus)


class TestBetaTree:

    def test_matches_term_by_term_assembly(self, doc_idf):
        doc, _ = doc_idf
        local = local_dictionary(doc)
        tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        got = beta_tree(tree, local, 0.25)
        d = local.d
        expected = np.zeros(d)
        expected_intercept = 0.0
        for term in tree.terms:
            part = beta_indicator_product(
                [local.index_of(w) for w in term.words], d, 0.25
            )
            expected += term.coefficient * part.coefficient_array()
            expected_intercept += term.coefficient * part.intercept
        assert np.allclose(got.coefficient_array(), expected, atol=1e-14)
        assert got.intercept == pytest.approx(expected_intercept, abs=1e-14)
        assert got.words == local.words

    def test_matches_term_by_term_assembly_at_d1000(self):
        local = synthetic_local(1000)
        rng = np.random.default_rng(41)
        tree = TreeModel(
            terms=tuple(
                IndicatorProduct(
                    words=frozenset(
                        str(w) for w in rng.choice(local.words, size, replace=False)
                    ),
                    coefficient=float(rng.uniform(-2.0, 2.0)),
                )
                for size in (1, 2, 3, 1, 2) * 4
            )
        )
        for nu in (0.03, 0.25, 10.0):
            got = beta_tree(tree, local, nu)
            expected = np.zeros(local.d)
            expected_intercept = 0.0
            for term in tree.terms:
                part = beta_indicator_product(
                    [local.index_of(w) for w in term.words], local.d, nu
                )
                expected += term.coefficient * part.coefficient_array()
                expected_intercept += term.coefficient * part.intercept
            assert np.abs(got.coefficient_array() - expected).max() <= 1e-12
            assert abs(got.intercept - expected_intercept) <= 1e-12

    @pytest.mark.parametrize("n_terms", [0, 1, 20])
    def test_psi_evaluated_once_per_call(self, monkeypatch, n_terms):
        # The covariance, its normalizer and every term's moments share one
        # kernel evaluation.
        local = synthetic_local(50)
        calls = []

        def counting_psi(t, nu):
            calls.append(nu)
            return psi(t, nu)

        monkeypatch.setattr(theory, "psi", counting_psi)
        tree = TreeModel(
            terms=tuple(
                IndicatorProduct(words=frozenset(local.words[i : i + 1 + i % 3]))
                for i in range(n_terms)
            )
        )
        beta_tree(tree, local, 0.25)
        assert calls == [0.25]

    def test_tree_plus_negation_cancels(self, doc_idf):
        doc, _ = doc_idf
        local = local_dictionary(doc)
        tree = tree_from_spec('"food" + ("about" & "table")')
        summed = combine([(1.0, tree), (-1.0, tree)])
        result = beta_tree(summed, local, 0.25)
        assert np.abs(result.coefficient_array()).max() == 0.0
        assert result.intercept == 0.0

    def test_closed_form_linearity(self, doc_idf):
        doc, _ = doc_idf
        local = local_dictionary(doc)
        f = tree_from_spec('"food"')
        g = tree_from_spec('"about" & "staff"')
        fg = combine([(2.0, f), (-3.0, g)])
        lhs = beta_tree(fg, local, 0.25)
        rhs = (
            2.0 * beta_tree(f, local, 0.25).coefficient_array()
            - 3.0 * beta_tree(g, local, 0.25).coefficient_array()
        )
        assert np.abs(lhs.coefficient_array() - rhs).max() < 1e-12

    def test_terms_outside_dictionary_vanish(self, doc_idf):
        doc, _ = doc_idf
        local = local_dictionary(doc)
        tree = tree_from_spec('"food" + ("zebra" & "about")')
        with_ghost = beta_tree(tree, local, 0.25)
        without = beta_tree(tree_from_spec('"food"'), local, 0.25)
        assert np.allclose(
            with_ghost.coefficient_array(), without.coefficient_array(), atol=1e-15
        )

    def test_single_word_document_out_of_domain(self):
        doc = tokenize("word")
        with pytest.raises(ClosedFormDomainError):
            beta_tree(tree_from_spec('"word"'), local_dictionary(doc), 0.25)


class TestOmegaWeights:
    def test_single_word_document(self):
        doc = tokenize("echo echo")
        idf = fit_idf(Corpus(documents=(doc,)))
        omega = omega_weights(doc, idf)
        assert omega.values == (1.0,)

    def test_uniform_counts_and_idf(self):
        doc = tokenize("a b c d")
        idf = fit_idf(Corpus(documents=(doc,)))
        omega = omega_weights(doc, idf)
        assert omega.values == pytest.approx([0.25] * 4)

    def test_hand_corpus(self):
        corpus = Corpus(documents=(tokenize("a a b"), tokenize("b c")))
        idf = fit_idf(corpus)
        omega = omega_weights(corpus.documents[0], idf)
        va = 2 * (math.log(1.5) + 1)
        want = va * va / (va * va + 1.0)
        assert omega.values[0] == pytest.approx(want, abs=1e-12)
        assert omega.values[0] == pytest.approx(0.8876, abs=5e-4)
        assert sum(omega.values) == pytest.approx(1.0, abs=1e-12)

    def test_equals_squared_embedding(self):
        corpus = Corpus(documents=(tokenize("u v v w x"), tokenize("w x y")))
        idf = fit_idf(corpus)
        doc = corpus.documents[0]
        omega = omega_weights(doc, idf)
        phi = normalized_tfidf(doc, idf)
        for w, value in zip(omega.words, omega.values):
            assert value == pytest.approx(phi.get(w) ** 2, abs=1e-12)

    def test_empty_document_rejected(self):
        idf = fit_idf(Corpus(documents=(tokenize("a"),)))
        with pytest.raises(ValueError):
            omega_weights(Document(tokens=()), idf)


@pytest.fixture(scope="module")
def linear_setup():
    corpus = Corpus(
        documents=(
            tokenize(
                "river stone bridge willow lantern evening market spice "
                "copper kettle warm bread honey tea"
            ),
            tokenize("warm bread at the market"),
            tokenize("copper lantern by the bridge"),
        )
    )
    doc = corpus.documents[0]
    idf = fit_idf(corpus)
    local = local_dictionary(doc)
    rng = np.random.default_rng(61)
    lam = {w: float(rng.normal()) for w in local.words}
    return corpus, doc, idf, local, lam


class TestBetaLinear:
    def test_zero_coefficients_give_zero_explanation(self, linear_setup):
        _, doc, idf, local, _ = linear_setup
        result = beta_linear({w: 0.0 for w in local.words}, doc, idf)
        assert np.abs(result.coefficient_array()).max() == 0.0
        assert result.intercept == 0.0

    def test_simplified_single_coordinate(self, linear_setup):
        _, doc, idf, local, _ = linear_setup
        word = local.words[2]
        result = beta_linear({word: 1.0}, doc, idf, mode="simplified")
        phi = normalized_tfidf(doc, idf)
        j = local.index_of(word)
        assert result.coefficients[j] == pytest.approx(
            SIMPLIFIED_LINEAR_CONSTANT * phi.get(word)
        )
        others = np.delete(result.coefficient_array(), j)
        assert np.abs(others).max() == 0.0
        assert result.provenance == "large-bandwidth-approx"

    def test_simplified_constant_provenance(self, linear_setup):
        _, doc, idf, local, lam = linear_setup
        result = beta_linear(lam, doc, idf, mode="simplified")
        assert SIMPLIFIED_LINEAR_CONSTANT == pytest.approx(
            3 / math.sqrt(1 - 1 / 3) - 2 / math.sqrt(1 - 1 / 4)
        )
        assert SIMPLIFIED_LINEAR_CONSTANT == pytest.approx(1.36, abs=5e-3)
        assert result.notes["constant"] == SIMPLIFIED_LINEAR_CONSTANT
        assert result.notes["constant_rounded"] == 1.36

    def test_full_mode_matches_monte_carlo_at_huge_bandwidth(self, linear_setup):
        _, doc, idf, local, lam = linear_setup
        model = LinearModel(coefficients=lam)
        full = beta_linear(lam, doc, idf, mode="full")
        assert full.notes["e_method"] == "exact"
        oracle = beta_general_mc(model, doc, idf, nu=1e3, n_mc=400_000, seed=67)
        slack = 1.0 / local.d
        for j in range(local.d):
            tol = 3 * oracle.coefficient_stderr[j] + slack / 10
            assert abs(full.coefficients[j] - oracle.coefficients[j]) <= tol
        assert abs(full.intercept - oracle.intercept) <= (
            3 * oracle.intercept_stderr + slack / 10
        )

    def test_full_mode_is_linear_in_lambda(self, linear_setup):
        # One document of each branch: enumeration (d = 14) and the
        # swapped expectation (bundled document 0, d = 31).
        _, doc, idf, _, _ = linear_setup
        corpus = load_corpus(bundled_corpus_path())
        cases = [(doc, idf, "exact"), (corpus.documents[0], fit_idf(corpus), "approx")]
        for document, table, branch in cases:
            rng = np.random.default_rng(63)
            lam = {w: float(rng.normal()) for w in local_dictionary(document).words}
            half = {w: 0.5 * c for w, c in lam.items()}
            a = beta_linear(lam, document, table, mode="full")
            b = beta_linear(half, document, table, mode="full")
            assert a.notes["e_method"] == branch
            assert np.allclose(
                a.coefficient_array(), 2.0 * b.coefficient_array(), atol=1e-12
            )

    def test_full_mode_above_enumeration_limit_is_pairwise_swap(self):
        # Above the enumeration limit the full mode must reproduce the
        # pair-by-pair assembly from expected_removed_mass, solved with the
        # exact infinite-bandwidth inverse entries r0 .. r3 (corner, first
        # row, diagonal, off-diagonal, each times c_d).
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        local = local_dictionary(doc)
        d = local.d
        assert d > theory.ENUMERATION_LIMIT
        rng = np.random.default_rng(65)
        lam = {w: float(rng.normal()) for w in local.words}
        got = beta_linear(lam, doc, idf, mode="full")

        omega = omega_weights(doc, idf)
        e_single = np.array(
            [1.0 / math.sqrt(1.0 - expected_removed_mass(omega, j)) for j in range(d)]
        )
        e_pair = np.zeros((d, d))
        for j, k in itertools.combinations(range(d), 2):
            value = 1.0 / math.sqrt(1.0 - expected_removed_mass(omega, (j, k)))
            e_pair[j, k] = e_pair[k, j] = value
        weights = tfidf_weights(local, idf)
        phi = weights / math.sqrt(float(weights @ weights))
        signal = np.array([lam[w] for w in local.words]) * phi
        single_factor = (d - 1) / (2.0 * d)
        pair_factor = (d - 2) / (3.0 * d)
        gamma0 = float(np.sum(signal * single_factor * e_single))
        gamma = pair_factor * (e_pair @ signal) + single_factor * e_single * signal
        r0 = 2.0 * (2 * d - 1) / (d + 1)
        r1 = -6.0 / (d + 1)
        r2 = 6.0 * (d * d - 2 * d + 3) / ((d + 1) * (d - 1))
        r3 = -6.0 * (d - 3) / ((d + 1) * (d - 1))
        gamma_sum = float(gamma.sum())
        want_intercept = r0 * gamma0 + r1 * gamma_sum
        want = r1 * gamma0 + r2 * gamma + r3 * (gamma_sum - gamma)

        assert got.notes["e_method"] == "approx"
        assert abs(got.intercept - want_intercept) <= 1e-13
        assert np.abs(got.coefficient_array() - want).max() <= 1e-13

    def test_accepts_linear_model_instance(self, linear_setup):
        _, doc, idf, local, lam = linear_setup
        a = beta_linear(LinearModel(coefficients=lam), doc, idf)
        b = beta_linear(lam, doc, idf)
        assert a.coefficients == b.coefficients

    def test_tiny_dictionary_rejected(self):
        corpus = Corpus(documents=(tokenize("a b"),))
        idf = fit_idf(corpus)
        with pytest.raises(ClosedFormDomainError):
            beta_linear({"a": 1.0}, corpus.documents[0], idf)

    def test_unknown_mode_rejected(self, linear_setup):
        _, doc, idf, _, lam = linear_setup
        with pytest.raises(ValueError, match="unknown mode"):
            beta_linear(lam, doc, idf, mode="fast")


class TestBetaGeneralMc:
    def test_constant_model(self, linear_setup):
        _, doc, idf, local, _ = linear_setup
        model = IndicatorProduct(words=frozenset(), coefficient=1.0)
        result = beta_general_mc(model, doc, idf, nu=0.25, n_mc=100_000, seed=71)
        assert result.provenance == "monte-carlo"
        assert abs(result.intercept - 1.0) <= 3 * result.intercept_stderr + 1e-9
        for j in range(local.d):
            assert abs(result.coefficients[j]) <= 3 * result.coefficient_stderr[j] + 1e-9

    def test_weighted_response_pattern_for_indicator(self, linear_setup):
        # The raw weighted-response moments of an indicator product follow
        # the alpha sequence: order p on the support, p+1 elsewhere.
        _, doc, idf, local, _ = linear_setup
        from textlime.sampling import draw_feature_matrix, psi

        d = local.d
        p = 2
        rng = np.random.default_rng(73)
        sizes, z = draw_feature_matrix(rng, 200_000, d)
        kernel = psi(sizes / d, 0.25)
        response = (z[:, 0] & z[:, 1]).astype(float)
        a_p = alpha(p, d, 0.25)
        a_p1 = alpha(p + 1, d, 0.25)
        for k, target in [(0, a_p), (1, a_p), (4, a_p1), (d - 1, a_p1)]:
            draws = kernel * z[:, k] * response
            se = draws.std(ddof=1) / math.sqrt(len(draws))
            assert abs(draws.mean() - target) <= 3 * se
        draws0 = kernel * response
        se0 = draws0.std(ddof=1) / math.sqrt(len(draws0))
        assert abs(draws0.mean() - a_p) <= 3 * se0

    def test_deterministic_given_seed(self, linear_setup):
        _, doc, idf, _, lam = linear_setup
        model = LinearModel(coefficients=lam)
        a = beta_general_mc(model, doc, idf, nu=0.25, n_mc=20_000, seed=5)
        b = beta_general_mc(model, doc, idf, nu=0.25, n_mc=20_000, seed=5)
        assert a.coefficients == b.coefficients

    def test_accumulators_match_direct_reimplementation(self, linear_setup):
        # For a single-chunk run, re-derive the estimator the plain way:
        # per-sample contribution vectors, then mean and standard error.
        _, doc, idf, local, lam = linear_setup
        from textlime.sampling import draw_feature_matrix, psi
        from textlime.corpus import tfidf_weights

        d, nu, n_mc = local.d, 0.25, 50_000
        model = LinearModel(coefficients=lam)
        result = beta_general_mc(model, doc, idf, nu=nu, n_mc=n_mc, seed=6)

        rng = np.random.default_rng(6)
        sizes, z = draw_feature_matrix(rng, n_mc, d)
        kernel = psi(sizes / d, nu)
        w_vec = tfidf_weights(local, idf)
        norms = np.sqrt((z * w_vec**2).sum(axis=1))
        values = np.zeros((n_mc, d))
        np.divide(z * w_vec, norms[:, None], out=values, where=norms[:, None] > 0)
        responses = model.evaluate_matrix(values, local.words)
        t = kernel * responses
        rhs = np.hstack([t[:, None], z * t[:, None]])
        contrib = np.linalg.solve(sigma_matrix(d, nu), rhs.T).T
        want = contrib.mean(axis=0)
        want_se = contrib.std(axis=0, ddof=1) / math.sqrt(n_mc)
        assert result.intercept == pytest.approx(want[0], abs=1e-10)
        assert np.allclose(result.coefficients, want[1:], atol=1e-10)
        assert result.intercept_stderr == pytest.approx(want_se[0], abs=1e-10)
        assert np.allclose(result.coefficient_stderr, want_se[1:], atol=1e-10)

    def test_multi_chunk_run_is_deterministic(self, linear_setup):
        _, doc, idf, _, lam = linear_setup
        model = LinearModel(coefficients=lam)
        a = beta_general_mc(model, doc, idf, nu=0.25, n_mc=70_000, seed=7)
        b = beta_general_mc(model, doc, idf, nu=0.25, n_mc=70_000, seed=7)
        assert a.coefficients == b.coefficients
        assert a.coefficient_stderr == b.coefficient_stderr

    def test_linearity_under_shared_seed(self, linear_setup):
        # With one seed the three estimates see identical samples, and the
        # estimator is linear in the responses, so additivity is exact.
        _, doc, idf, _, lam = linear_setup
        f = IndicatorProduct(words=frozenset({"river", "stone"}))
        g = LinearModel(coefficients=lam)
        fg = combine([(2.0, f), (-1.0, g)])
        kwargs = {"nu": 0.25, "n_mc": 30_000, "seed": 17}
        beta_f = beta_general_mc(f, doc, idf, **kwargs).coefficient_array()
        beta_g = beta_general_mc(g, doc, idf, **kwargs).coefficient_array()
        beta_fg = beta_general_mc(fg, doc, idf, **kwargs).coefficient_array()
        assert np.allclose(beta_fg, 2.0 * beta_f - beta_g, atol=1e-12)

    @pytest.mark.parametrize("index", [3, 18])
    @pytest.mark.parametrize("nu", [0.03, 0.05])
    def test_mean_matches_60_digit_solve(self, index, nu):
        # At these bandwidths the covariance solve is ill-conditioned (the
        # condition number is 1e3 to 4e4), and that, not the summation
        # order, sets the error of the mean.
        corpus = load_corpus(bundled_corpus_path())
        idf = fit_idf(corpus)
        doc = corpus.documents[index]
        local = local_dictionary(doc)
        d, w, n_mc = local.d, local.words, 20_000
        model = tree_from_spec(
            f'"{w[0]}" + (!"{w[1]}" & "{w[2]}") + ("{w[3]}" & "{w[4]}" & "{w[5]}")'
        )
        result = beta_general_mc(model, doc, idf, nu=nu, n_mc=n_mc, seed=3)
        got = np.array([result.intercept, *result.coefficients])

        # The same draws (one chunk), their averaged right-hand side summed
        # exactly, and the full covariance system solved in 60 digits.
        sizes, z = draw_feature_matrix(np.random.default_rng(3), n_mc, d)
        values = renormalized_tfidf(z, tfidf_weights(local, idf))
        t = psi(sizes / d, nu) * model.evaluate_matrix(values, local.words)
        columns = [t] + [t[z[:, j] == 1] for j in range(d)]
        with mpmath.workdps(60):
            a0, a1, a2 = mpmath_moments(d, nu, (0, 1, 2))
            system = mpmath.matrix(d + 1, d + 1)
            for i in range(d + 1):
                for j in range(d + 1):
                    system[i, j] = a1 if 0 in (i, j) or i == j else a2
            system[0, 0] = a0
            rhs = mpmath.matrix([mpmath.mpf(math.fsum(c)) / n_mc for c in columns])
            want = np.array([float(v) for v in mpmath.lu_solve(system, rhs)])

        condition = sigma_set(d, nu).condition
        tolerance = 8 * condition * np.finfo(float).eps * max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= tolerance


class TestPopulationExplanation:
    """The dispatcher returns exactly what the route it picks returns."""

    def test_indicator_built_models_take_the_tree_closed_form(self, doc_idf):
        doc, idf = doc_idf
        local = local_dictionary(doc)
        tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        single = IndicatorProduct(words=frozenset({"staff"}), coefficient=-2.0)
        constant = IndicatorProduct(words=frozenset(), coefficient=1.0)
        merged = combine([(1.0, tree), (0.5, single)])
        for model, as_tree in [
            (tree, tree),
            (merged, merged),
            (single, TreeModel(terms=(single,))),
            (constant, TreeModel(terms=(constant,))),
        ]:
            got = population_explanation(model, doc, idf, nu=0.3)
            assert got == beta_tree(as_tree, local, 0.3)
            assert got.provenance == "exact-closed-form"

    @pytest.mark.parametrize("mode", ["simplified", "full"])
    def test_linear_models_take_the_large_bandwidth_form(self, linear_setup, mode):
        _, doc, idf, _, lam = linear_setup
        model = LinearModel(coefficients=lam)
        got = population_explanation(model, doc, idf, nu=0.3, linear_mode=mode, seed=4)
        assert got == beta_linear(model, doc, idf, mode=mode)
        assert got.provenance == "large-bandwidth-approx"

    def test_other_models_and_forced_monte_carlo_take_the_oracle(self, doc_idf):
        doc, idf = doc_idf
        tree = tree_from_spec('"food" + "staff"')
        mixed = combine([(1.0, tree), (2.0, LinearModel(coefficients={"fun": 1.0}))])
        for model, forced in [(mixed, False), (tree, True)]:
            got = population_explanation(
                model, doc, idf, nu=0.3, n_mc=5000, seed=9, monte_carlo=forced
            )
            assert got == beta_general_mc(model, doc, idf, nu=0.3, n_mc=5000, seed=9)
            assert got.provenance == "monte-carlo"


# Bandwidths log-uniform on [0.03, 100], where the closed forms are meant
# to be accurate; dictionary sizes up to 1000.
NU_LOG10 = (math.log10(0.03), 2.0)
bandwidths = st.floats(*NU_LOG10).map(lambda e: 10.0**e)
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


def mpmath_moments(d, nu, orders):
    """alpha_q for each q in orders, at the working mpmath precision. Only
    the kernel weights are taken from float64, as exact binary values."""
    kernel = [mpmath.mpf(float(psi(s / d, nu))) for s in range(1, d + 1)]

    def moment(q):
        total = mpmath.mpf(0)
        for s, k in zip(range(1, d + 1), kernel):
            for i in range(q):
                k *= mpmath.mpf(d - s - i) / (d - i)
            total += k
        return total / d

    return [moment(q) for q in orders]


def mpmath_indicator_parts(p, d, nu):
    """Intercept, member and non-member coefficient of a product of p
    indicators (0 < p < d), by an 80-digit solve of the 3 x 3 system the
    symmetry reduces the covariance system to."""
    with mpmath.workdps(80):
        a0, a1, a2, a_p, a_p1 = mpmath_moments(d, nu, (0, 1, 2, p, p + 1))
        # Rows: the intercept, one member, one non-member.
        system = mpmath.matrix(
            [
                [a0, p * a1, (d - p) * a1],
                [a1, a1 + (p - 1) * a2, (d - p) * a2],
                [a1, p * a2, a1 + (d - p - 1) * a2],
            ]
        )
        solution = mpmath.lu_solve(system, mpmath.matrix([a_p, a_p, a_p1]))
        return [float(v) for v in solution]


def composed_sigma_set(d, nu):
    """The covariance as two separate kernel passes build it: the order-2
    moments, then the two-pass normalizer from its own psi call."""
    if d < 2:
        raise ClosedFormDomainError("need at least 2 distinct words")
    moments = theory._alpha_moments(d, nu, 2)
    t = np.arange(1, d + 1, dtype=float)
    kernel = psi(t / d, nu)
    total = math.fsum(kernel)
    c_d = 0.0
    if total != 0.0:
        mean = math.fsum(t * kernel) / total
        c_d = total * math.fsum(kernel * (t - mean) ** 2) / d**3
    a0, a1, a2 = moments.alphas
    gap = moments.drops[1]
    if c_d == 0.0 or gap == 0.0:
        raise ClosedFormDomainError("normalizers underflow to 0")
    return theory.SigmaSet(
        d=d, nu=nu, c_d=c_d, alpha0=a0, alpha1=a1, alpha2=a2, gap=gap,
        condition=d * (a0 + a1) ** 2 / c_d,
    )


def composed_beta_tree(tree, local, nu):
    """(intercept, coefficients) of `beta_tree` from `composed_sigma_set`
    and a second moment pass of order min(p_top + 1, d)."""
    d = local.d
    terms = [
        (term.coefficient, [local.index_of(w) for w in term.words])
        for term in tree.terms
        if all(w in local for w in term.words)
    ]
    ss = composed_sigma_set(d, nu)
    p_top = max((len(member) for _, member in terms), default=0)
    moments = theory._alpha_moments(d, nu, min(p_top + 1, d))
    intercept = 0.0
    coefficients = np.zeros(d)
    for coefficient, member in terms:
        part_intercept, coef_in, coef_out = theory._indicator_parts(len(member), ss, moments)
        part = np.full(d, coef_out)
        part[member] = coef_in
        intercept += coefficient * part_intercept
        coefficients += coefficient * part
    return intercept, tuple(float(c) for c in coefficients)


def float_bits(values):
    return np.array(values, dtype=float).tobytes()


class TestTheoryProperties:
    @PROPERTY_SETTINGS
    @given(
        d=st.integers(2, 1000),
        nu=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
        j=st.integers(0, 999),
    )
    def test_single_indicator_is_unit_vector(self, d, nu, j):
        # Exactly e_j, or declined, down to nu = 0.001 and d = 2.
        local = synthetic_local(d)
        model = TreeModel(terms=(IndicatorProduct(words=frozenset({local.words[j % d]})),))
        try:
            got = beta_tree(model, local, nu)
        except ClosedFormDomainError:
            return
        expected = np.zeros(d)
        expected[j % d] = 1.0
        assert got.intercept == 0.0
        assert np.array_equal(got.coefficient_array(), expected)

    @PROPERTY_SETTINGS
    @given(
        d=st.integers(2, 1000),
        nu=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=2, nu=0.25, seed=0)
    @example(d=3, nu=1.0, seed=1)
    @example(d=3, nu=0.05, seed=2)  # order-2 terms are declined here
    @example(d=5, nu=0.003, seed=3)  # c_d underflows to 0
    def test_one_kernel_pass_matches_composed_forms(self, d, nu, seed):
        # sigma_set and beta_tree take everything from one kernel pass; the
        # bits must equal the composition of separate passes, raises included.
        def outcome(fn, *args):
            try:
                return fn(*args)
            except ClosedFormDomainError:
                return ClosedFormDomainError

        got, want = outcome(sigma_set, d, nu), outcome(composed_sigma_set, d, nu)
        if want is ClosedFormDomainError:
            assert got is ClosedFormDomainError
        else:
            fields = ("c_d", "alpha0", "alpha1", "alpha2", "gap", "condition")
            assert (got.d, got.nu) == (d, nu)
            assert float_bits([getattr(got, f) for f in fields]) == float_bits(
                [getattr(want, f) for f in fields]
            )
        local = synthetic_local(d)
        rng = np.random.default_rng(seed)
        pool = [*local.words, "elsewhere"]
        tree = TreeModel(
            terms=tuple(
                IndicatorProduct(
                    words=frozenset(
                        str(w) for w in rng.choice(pool, rng.integers(0, min(d, 3) + 1), replace=False)
                    ),
                    coefficient=float(rng.uniform(-2.0, 2.0)),
                )
                for _ in range(rng.integers(0, 21))
            )
        )
        got = outcome(beta_tree, tree, local, nu)
        want = outcome(composed_beta_tree, tree, local, nu)
        if want is ClosedFormDomainError:
            assert got is ClosedFormDomainError
        else:
            assert float_bits([got.intercept, *got.coefficients]) == float_bits(
                [want[0], *want[1]]
            )

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("d", [7, 12, 31, 200])
    @pytest.mark.parametrize("nu", [0.003, 0.01, 0.03, 0.25, 10.0])
    def test_indicator_product_matches_80_digit_solve_or_raises(self, p, d, nu):
        try:
            got = beta_indicator_product(range(p), d, nu)
        except ClosedFormDomainError:
            # Declining is allowed only where the system is ill-conditioned.
            assert nu < 0.03 or d < 12
            return
        want = mpmath_indicator_parts(p, d, nu)
        values = [got.intercept, got.coefficients[0], got.coefficients[-1]]
        assert max(abs(a - b) for a, b in zip(values, want)) <= theory.SOLVE_TOLERANCE

    @PROPERTY_SETTINGS
    @given(d=st.integers(2, 1000), nu=bandwidths)
    def test_alpha_within_bounds(self, d, nu):
        for p, value in enumerate(alpha_values(d, nu, min(d, 5))):
            lo, hi = alpha_bounds(p, d, nu)
            assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)

    @PROPERTY_SETTINGS
    @given(
        d=st.integers(2, 1000),
        nu=bandwidths,
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # Here g has an order-2 term and is declined, while f is not.
    @example(d=3, nu=0.05, a=1.0, b=-0.5, seed=2)
    def test_beta_tree_linear_under_combine(self, d, nu, a, b, seed):
        local = synthetic_local(d)
        rng = np.random.default_rng(seed)

        def random_tree():
            return TreeModel(
                terms=tuple(
                    IndicatorProduct(
                        words=frozenset(
                            str(w)
                            for w in rng.choice(
                                local.words, rng.integers(1, min(d, 3) + 1), replace=False
                            )
                        ),
                        coefficient=float(rng.uniform(-2.0, 2.0)),
                    )
                    for _ in range(rng.integers(1, 6))
                )
            )

        def vector(model):
            out = beta_tree(model, local, nu)
            return np.array([out.intercept, *out.coefficients])

        def magnitude(model):
            # Sum of |term| explanations: the size of what rounding acts on.
            return sum(
                np.abs(vector(TreeModel(terms=(term,)))).max() for term in model.terms
            )

        f, g = random_tree(), random_tree()
        try:
            lhs = vector(combine([(a, f), (b, g)]))
        except ClosedFormDomainError:
            # The sum is declined only where a part is.
            with pytest.raises(ClosedFormDomainError):
                vector(f)
                vector(g)
            return
        try:
            rhs = a * vector(f) + b * vector(g)
            scale = abs(a) * magnitude(f) + abs(b) * magnitude(g)
        except ClosedFormDomainError:
            return
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(scale, 1.0)
