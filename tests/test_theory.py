"""Closed-form explanation machinery against independent oracles.

Every closed form here is checked against at least one of: exhaustive
enumeration, exact integer combinatorics, or raw Monte Carlo sampling.
"""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
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
    TreeModel,
    alpha_bounds,
    alpha_limit,
    alpha_values,
    beta_enumerated,
    beta_general_mc,
    beta_indicator_product,
    beta_linear,
    beta_tree,
    bundled_corpus_path,
    combine,
    e_term,
    fit_idf,
    load_corpus,
    local_dictionary,
    population_explanation,
    sigma_set,
    tokenize,
    tree_from_spec,
)
from oracles import (
    exact_renormalization_expectations,
    large_bandwidth_linear,
    mc_alpha,
    mc_e_term,
    normalized_tfidf,
    omega_weights,
    sigma_inverse,
    sigma_matrix,
    whole_chunk_mc,
)
from textlime.corpus import Corpus, tfidf_weights
from textlime.sampling import draw_feature_matrix, psi, renormalized_tfidf
from textlime.theory import (
    ClosedFormDomainError,
    SIMPLIFIED_E_PAIR,
    SIMPLIFIED_E_SINGLE,
    SIMPLIFIED_LINEAR_CONSTANT,
    normalization_constant,
)

from test_sampling import NoPool, pool_sizes

GRID = [(d, nu) for d in (2, 5, 10, 30) for nu in (0.1, 0.25, 1.0, 10.0)]


def uniform_omega(d):
    return np.full(d, 1.0 / d)


def random_omega(d, rng):
    raw = rng.random(d) + 0.05
    return raw / raw.sum()


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


class TanhOfLinear(Model):
    """A custom model, nonlinear in the TF-IDF rows: tanh of a weighted sum."""

    def __init__(self, weights):
        self.weights = weights

    def evaluate_matrix(self, values, words):
        return np.tanh(values @ np.array([self.weights.get(w, 0.0) for w in words]))


def explanation_vector(result):
    return np.array([result.intercept, *result.coefficients])


def sum_of_parts(*parts):
    """sum_i a_i [intercept_i, coefficients_i] over the (a_i, explanation_i)
    pairs, added left to right into zeros."""
    total = np.zeros(len(parts[0][1].coefficients) + 1)
    for a, part in parts:
        total += a * explanation_vector(part)
    return total


class TestAlpha:
    def test_large_bandwidth_limit(self):
        for d, p in [(5, 1), (12, 0), (12, 3)]:
            assert alpha_values(d, 1e3, p)[p] == pytest.approx(alpha_limit(p, d), abs=1e-4)
        assert alpha_limit(1, 5) == pytest.approx(0.4)

    def test_order_d_vanishes(self):
        for d in (1, 3, 8):
            for nu in (0.1, 0.25, 2.0):
                assert alpha_values(d, nu, d)[d] == 0.0

    def test_order_beyond_d_rejected(self):
        with pytest.raises(ValueError):
            alpha_values(5, 0.25, 6)

    def test_alpha_values_independent_of_p_max(self):
        values = alpha_values(9, 0.25, 4)
        for p, v in enumerate(values):
            assert v == alpha_values(9, 0.25, p)[p]

    @pytest.mark.parametrize("d", [1, 2, 12, 31, 200, 1000])
    @pytest.mark.parametrize("nu", [0.03, 0.25, 100.0])
    def test_alpha_values_bit_identical_to_loop(self, d, nu):
        for p_max in range(min(d, 5) + 1):
            assert alpha_values(d, nu, p_max) == loop_alpha_values(d, nu, p_max)

    def test_against_monte_carlo(self):
        values, stderrs = mc_alpha(15, 0.25, 200_000, 3, seed=23)
        closed = alpha_values(15, 0.25, 3)
        for p in range(4):
            tol = max(3 * stderrs[p], 5e-3)
            assert abs(closed[p] - values[p]) <= tol

    def test_monte_carlo_reaches_limit_at_huge_bandwidth(self):
        values, stderrs = mc_alpha(12, 1e3, 100_000, 2, seed=21)
        for p in range(3):
            tol = max(3 * stderrs[p], 5e-3)
            assert abs(values[p] - alpha_limit(p, 12)) <= tol

    def test_monte_carlo_top_order_vanishes(self):
        values, _ = mc_alpha(6, 0.25, 50_000, 6, seed=23)
        assert values[6] == pytest.approx(0.0, abs=1e-4)

    def test_monotone_ordering_and_bounds(self):
        for d, nu in GRID:
            values = alpha_values(d, nu, min(d, 6))
            for p in range(1, len(values)):
                assert values[p] <= values[p - 1] + 1e-15
            for p, v in enumerate(values):
                lo, hi = alpha_bounds(p, d, nu)
                assert lo - 1e-12 <= v <= hi + 1e-12

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
    def test_bounds_reject_bad_bandwidth(self, nu):
        with pytest.raises(ValueError, match="bandwidth nu must be positive"):
            alpha_bounds(1, 5, nu)


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
        single = theory._single_mass_mean(uniform_omega(3), 3)
        assert single == pytest.approx([4 / 9] * 3)

    def test_matches_enumeration(self):
        # Every survivor and every pair, in either order.
        rng = np.random.default_rng(31)
        for d in (3, 5, 8, 12):
            omega = random_omega(d, rng)
            values = omega

            def removed(subset):
                return values[list(subset)].sum()

            for j in range(d):
                want = enumerate_conditional(d, {j}, removed)
                assert theory._single_mass_mean(omega[j], d) == pytest.approx(want, abs=1e-12)
            for j, k in itertools.combinations(range(d), 2):
                want2 = enumerate_conditional(d, {j, k}, removed)
                for a, b in ((j, k), (k, j)):
                    got = theory._pair_mass_mean(omega[a], omega[b], d)
                    assert got == pytest.approx(want2, abs=1e-12)

    def test_large_d_small_mass_limit(self):
        single = theory._single_mass_mean(uniform_omega(300), 300)
        assert np.abs(single - (1 - 1 / 300) / 3).max() <= 1.0 / 300

    def test_pair_with_d2_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            e_term(uniform_omega(2), 0, 1)


def exact_e_term(omega, j, k=None):
    """One entry of the exact conditional expectations of tests/oracles.py."""
    single, pair = exact_renormalization_expectations(omega)
    return float(single[j] if k is None else pair[j, k])


class TestETerm:
    def test_exact_matches_enumeration_oracle(self):
        # Every single survivor and every pair, including the smallest d
        # with pairs and a d that spans no more than one enumeration block.
        rng = np.random.default_rng(37)
        for d in (3, 4, 7, 10, 12):
            omega = random_omega(d, rng)
            values = omega

            def renorm(subset):
                return 1.0 / math.sqrt(1.0 - values[list(subset)].sum())

            for j in range(d):
                got = exact_e_term(omega, j)
                assert got == pytest.approx(
                    enumerate_conditional(d, {j}, renorm), abs=1e-12
                )
            for j, k in itertools.combinations(range(d), 2):
                want = enumerate_conditional(d, {j, k}, renorm)
                for pair in ((j, k), (k, j)):
                    got = exact_e_term(omega, *pair)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_exact_spans_several_enumeration_blocks(self):
        # d = 14 walks the survivor sets in four blocks.
        rng = np.random.default_rng(39)
        d = 14
        omega = random_omega(d, rng)
        values = omega

        def renorm(subset):
            return 1.0 / math.sqrt(1.0 - values[list(subset)].sum())

        for kept in ((3,), (13,), (0, 13), (5, 9)):
            got = exact_e_term(omega, *kept)
            assert got == pytest.approx(
                enumerate_conditional(d, set(kept), renorm), abs=1e-12
            )

    def test_exact_matches_conditional_monte_carlo(self):
        rng = np.random.default_rng(41)
        omega = random_omega(10, rng)
        exact = exact_e_term(omega, 4)
        value, stderr = mc_e_term(omega, 4, n_mc=200_000, seed=3)
        assert abs(exact - value) <= 3 * stderr
        exact_pair = exact_e_term(omega, 4, 7)
        value_pair, stderr_pair = mc_e_term(omega, 4, 7, n_mc=200_000, seed=4)
        assert abs(exact_pair - value_pair) <= 3 * stderr_pair

    def test_approx_is_swapped_expectation(self):
        omega = uniform_omega(12)
        expected = theory._single_mass_mean(omega[5], 12)
        assert e_term(omega, 5) == pytest.approx(
            1.0 / math.sqrt(1.0 - expected)
        )
        expected = theory._pair_mass_mean(omega[5], omega[7], 12)
        assert e_term(omega, 7, 5) == pytest.approx(1.0 / math.sqrt(1.0 - expected))

    def test_approx_follows_the_formula_in_either_order(self):
        # The pair value is evaluated as (1 - w_j - w_k) with j < k, so both
        # orders give the same bits even where float addition does not
        # commute.
        rng = np.random.default_rng(42)
        d = 25
        omega = random_omega(d, rng)
        w = omega
        for j in range(d):
            want = 1.0 / math.sqrt(1.0 - (1.0 - w[j]) * (d + 1) / (3.0 * (d - 1)))
            assert e_term(omega, j) == want
        for j, k in itertools.combinations(range(d), 2):
            mass = (1.0 - w[j] - w[k]) * (d + 1) / (4.0 * (d - 2))
            want = 1.0 / math.sqrt(1.0 - mass)
            assert e_term(omega, j, k) == want
            assert e_term(omega, k, j) == want

    def test_approx_underestimates_exact(self):
        # The swap sits under the true value (the integrand is convex).
        rng = np.random.default_rng(43)
        omega = random_omega(9, rng)
        assert e_term(omega, 0) < exact_e_term(omega, 0)

    def test_small_mass_approx_limits(self):
        # With many near-equal small masses the approx method approaches
        # (1 - 1/3)^(-1/2) and (1 - 1/4)^(-1/2).
        omega = uniform_omega(200)
        assert e_term(omega, 0) == pytest.approx(
            SIMPLIFIED_E_SINGLE, abs=2e-3
        )
        assert e_term(omega, 0, 1) == pytest.approx(
            SIMPLIFIED_E_PAIR, abs=2e-3
        )

    @pytest.mark.parametrize("kept", [(9,), (-1,), (0, 9)], ids=["9", "-1", "0-9"])
    def test_out_of_range_index_rejected(self, kept):
        with pytest.raises(ValueError, match="out of range"):
            e_term(uniform_omega(5), *kept)


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
            a_p, a_p1 = alpha_values(d, nu, p + 1)[p:]
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
        # kernel evaluation, the sampler's own `_kernel_table`.
        local = synthetic_local(50)
        calls = []

        def counting_psi(t, nu):
            calls.append(nu)
            return psi(t, nu)

        monkeypatch.setattr(sampling, "psi", counting_psi)
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


def test_omega_weights_oracle_self_check():
    # The mass shares the linear tests feed the package: one word has all of
    # it, equal masses share it evenly, a two-document corpus gives the
    # hand-computed share, the shares are phi squared, and an empty
    # document has none.
    one = tokenize("echo echo")
    assert omega_weights(one, fit_idf(Corpus(documents=(one,)))).tolist() == [1.0]
    flat = tokenize("a b c d")
    assert omega_weights(flat, fit_idf(Corpus(documents=(flat,)))) == pytest.approx([0.25] * 4)
    hand = Corpus(documents=(tokenize("a a b"), tokenize("b c")))
    omega = omega_weights(hand.documents[0], fit_idf(hand))
    va = 2 * (math.log(1.5) + 1)
    assert omega[0] == pytest.approx(va * va / (va * va + 1.0), abs=1e-12)
    assert omega[0] == pytest.approx(0.8876, abs=5e-4)
    assert sum(omega) == pytest.approx(1.0, abs=1e-12)
    corpus = Corpus(documents=(tokenize("u v v w x"), tokenize("w x y")))
    idf = fit_idf(corpus)
    doc = corpus.documents[0]
    assert omega_weights(doc, idf) == pytest.approx(normalized_tfidf(doc, idf) ** 2, abs=1e-12)
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


def assert_matches_enumeration(got, want, covariance):
    """Linear full mode against `beta_enumerated`: within 1e-12 of the
    largest entry, widened to 8 condition eps of it where that is larger.

    Both routes solve their right-hand sides against one covariance, which
    scales a difference between those sides by up to its condition number.
    The enumeration's sums carry a few eps themselves: on bundled document
    10 at nu = 0.05 (condition 1.9e3), with standard normal weights, it is
    1.6e-12 of the largest entry away from the same enumeration run at 50
    digits, and the mass-class route 3.7e-13.
    """
    got_values = np.array([got.intercept, *got.coefficients])
    want_values = np.array([want.intercept, *want.coefficients])
    cond_eps = covariance.condition * np.finfo(float).eps
    bound = max(1e-12, 8 * cond_eps) * np.abs(want_values).max()
    assert np.abs(got_values - want_values).max() <= bound


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
            SIMPLIFIED_LINEAR_CONSTANT * phi[j]
        )
        others = np.delete(result.coefficient_array(), j)
        assert np.abs(others).max() == 0.0
        assert result.provenance == "large-bandwidth-approx"

    def test_simplified_reads_the_all_kept_embedding(self):
        # On every bundled document phi is the all-kept row of the
        # renormalization, bit for bit, and the simplified prediction is
        # the flat constant times lambda * phi, bit for bit.
        corpus = load_corpus(bundled_corpus_path())
        idf = fit_idf(corpus)
        rng = np.random.default_rng(67)
        for doc in corpus.documents:
            local = local_dictionary(doc)
            phi = normalized_tfidf(doc, idf)
            all_kept = np.ones((1, local.d), np.int8)
            row = renormalized_tfidf(all_kept, tfidf_weights(local, idf))[0]
            assert phi.tobytes() == row.tobytes()
            lam = rng.normal(size=local.d)
            result = beta_linear(dict(zip(local.words, lam)), doc, idf, mode="simplified")
            want = SIMPLIFIED_LINEAR_CONSTANT * (lam * phi)
            assert result.coefficient_array().tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["simplified", "full"])
    def test_reads_dictionary_and_masses_once(self, linear_setup, monkeypatch, mode):
        _, doc, idf, _, lam = linear_setup
        calls = []
        for name in ("local_dictionary", "tfidf_weights"):
            def counted(*args, _name=name, _original=getattr(theory, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(theory, name, counted)
        beta_linear(lam, doc, idf, mode=mode)
        assert sorted(calls) == ["local_dictionary", "tfidf_weights"]

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
        full = beta_linear(lam, doc, idf, mode="full", nu=1e3)
        assert full.provenance == "exact-closed-form"
        oracle = beta_general_mc(model, doc, idf, nu=1e3, n_mc=400_000, seed=67)
        slack = 1.0 / local.d
        for j in range(local.d):
            tol = 3 * oracle.coefficient_stderr[j] + slack / 10
            assert abs(full.coefficients[j] - oracle.coefficients[j]) <= tol
        assert abs(full.intercept - oracle.intercept) <= (
            3 * oracle.intercept_stderr + slack / 10
        )

    def test_full_mode_is_linear_in_lambda(self, linear_setup):
        # One document on each side of the enumeration limit: d = 14 and
        # bundled document 0 (d = 31).
        _, doc, idf, _, _ = linear_setup
        corpus = load_corpus(bundled_corpus_path())
        for document, table in [(doc, idf), (corpus.documents[0], fit_idf(corpus))]:
            rng = np.random.default_rng(63)
            lam = {w: float(rng.normal()) for w in local_dictionary(document).words}
            half = {w: 0.5 * c for w, c in lam.items()}
            a = beta_linear(lam, document, table, mode="full")
            b = beta_linear(half, document, table, mode="full")
            assert a.provenance == "exact-closed-form"
            assert np.allclose(
                a.coefficient_array(), 2.0 * b.coefficient_array(), atol=1e-12
            )

    def test_accepts_linear_model_instance(self, linear_setup):
        _, doc, idf, local, lam = linear_setup
        a = beta_linear(LinearModel(coefficients=lam), doc, idf)
        b = beta_linear(lam, doc, idf)
        assert a.coefficients == b.coefficients

    def test_tiny_dictionary_rejected(self):
        corpus = Corpus(documents=(tokenize("a b"),))
        idf = fit_idf(corpus)
        with pytest.raises(ClosedFormDomainError):
            beta_linear({"a": 1.0}, corpus.documents[0], idf, mode="simplified")

    def test_two_word_full_mode_matches_the_enumeration(self):
        # Only the simplified form needs d >= 3; at d = 2 the full mode is
        # exact, within LINEAR_ROUTE_TOLERANCE of the enumeration.
        corpus = Corpus(documents=(tokenize("food good"),))
        idf = fit_idf(corpus)
        doc = corpus.documents[0]
        lam = {"food": 1.0, "good": -0.5}
        got = beta_linear(lam, doc, idf, mode="full")
        want = beta_enumerated(LinearModel(coefficients=lam), doc, idf)
        assert got.provenance == "exact-closed-form"
        assert got.words == want.words == ("food", "good")
        assert_matches_enumeration(got, want, sigma_set(2, 0.25))

    def test_one_word_full_mode_rejected(self):
        corpus = Corpus(documents=(tokenize("food food"),))
        idf = fit_idf(corpus)
        with pytest.raises(ClosedFormDomainError, match="at least 2 distinct words"):
            beta_linear({"food": 1.0}, corpus.documents[0], idf, mode="full")

    @pytest.mark.parametrize("mode", ["simplified", "full"])
    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
    def test_bandwidth_must_be_positive(self, linear_setup, mode, nu):
        _, doc, idf, _, lam = linear_setup
        with pytest.raises(ValueError, match="bandwidth nu must be positive"):
            beta_linear(lam, doc, idf, mode=mode, nu=nu)
        with pytest.raises(ValueError, match="bandwidth nu must be positive"):
            population_explanation(LinearModel(lam), doc, idf, nu=nu, linear_mode=mode)

    @pytest.mark.parametrize("mode", ["simplified", "full"])
    def test_infinite_bandwidth_is_accepted(self, linear_setup, mode):
        _, doc, idf, _, lam = linear_setup
        result = beta_linear(lam, doc, idf, mode=mode, nu=math.inf)
        assert np.isfinite(explanation_vector(result)).all()

    def test_unknown_mode_rejected(self, linear_setup):
        _, doc, idf, _, lam = linear_setup
        with pytest.raises(ValueError, match="unknown mode"):
            beta_linear(lam, doc, idf, mode="fast")


def bundled_linear_cases():
    """{index: (document, idf, linear model)} for every bundled document
    with at most ENUMERATION_LIMIT distinct words, with standard normal
    weights (seed 2024)."""
    corpus = load_corpus(bundled_corpus_path())
    idf = fit_idf(corpus)
    rng = np.random.default_rng(2024)
    cases = {}
    for index, doc in enumerate(corpus.documents):
        words = local_dictionary(doc).words
        lam = dict(zip(words, rng.normal(size=len(words)).tolist()))
        if len(words) <= theory.ENUMERATION_LIMIT:
            cases[index] = (doc, idf, LinearModel(coefficients=lam))
    return cases


class TestBetaEnumerated:
    def test_linear_at_infinite_bandwidth_matches_exact_assembly(self):
        # The large-bandwidth linear explanation built from the exactly
        # enumerated conditional renormalization expectations.
        cases = bundled_linear_cases()
        assert len(cases) == 22
        for doc, idf, model in cases.values():
            local = local_dictionary(doc)
            masses = tfidf_weights(local, idf)
            phi = masses / math.sqrt(float(masses @ masses))
            signal = np.array([model.coefficients[w] for w in local.words]) * phi
            e_single, e_pair = exact_renormalization_expectations(omega_weights(doc, idf))
            want_intercept, want = large_bandwidth_linear(signal, e_single, e_pair)
            got = beta_enumerated(model, doc, idf, nu=math.inf)
            assert abs(got.intercept - want_intercept) <= 1e-12
            assert np.abs(got.coefficient_array() - want).max() <= 1e-12

    @pytest.mark.parametrize("nu", [0.1, 0.25, 1.0])
    def test_linear_at_finite_bandwidth_matches_monte_carlo(self, nu):
        # One bound, family-wise over docs 1, 2 and 5 (d 15, 17, 12), the
        # three bandwidths and every coordinate, intercept included: 141
        # z-scores in all.
        cases = bundled_linear_cases()
        for index in (1, 2, 5):
            doc, idf, model = cases[index]
            got = beta_enumerated(model, doc, idf, nu=nu)
            oracle = beta_general_mc(model, doc, idf, nu=nu, n_mc=400_000, seed=5)
            z = np.abs(got.coefficient_array() - oracle.coefficient_array())
            z /= np.array(oracle.coefficient_stderr)
            z0 = abs(got.intercept - oracle.intercept) / oracle.intercept_stderr
            assert max(z.max(), z0) <= 4.5

    def test_full_linear_mode_matches_the_enumeration(self, linear_setup):
        _, doc, idf, local, lam = linear_setup
        model = LinearModel(coefficients=lam)
        for nu in (0.1, 0.25, math.inf):
            assert_matches_enumeration(
                beta_linear(lam, doc, idf, mode="full", nu=nu),
                beta_enumerated(model, doc, idf, nu=nu),
                sigma_set(local.d, nu),
            )

    def test_enumeration_guard(self):
        doc = Document(tokens=tuple(f"w{i:04d}" for i in range(21)))
        idf = fit_idf(Corpus(documents=(doc,)))
        with pytest.raises(ValueError, match="enumeration too large"):
            beta_enumerated(LinearModel({"w0000": 1.0}), doc, idf)

    def test_empty_document_rejected(self, doc_idf):
        _, idf = doc_idf
        with pytest.raises(ValueError, match="empty document"):
            beta_enumerated(LinearModel({"a": 1.0}), Document(tokens=()), idf)


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
        a_p, a_p1 = alpha_values(d, 0.25, p + 1)[p:]
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

    @pytest.mark.parametrize(
        "index, nu", [(3, 0.03), (3, 0.05), (18, 0.03), (18, 0.05), (3, 3.0), (7, 3.0)]
    )
    def test_mean_matches_60_digit_solve(self, index, nu):
        # At nu = 0.03 and 0.05 the covariance solve is ill-conditioned (the
        # condition number is 1e3 to 4e4), and that sets the error of the
        # mean. At nu = 3 (condition about 26) the rounding of the sums sets
        # it, so they must be taken in row blocks, not over all 20,000 rows.
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

    def test_peak_memory_is_below_one_float_chunk(self):
        # No float64 array of the oracle or its sampler is (chunk, d): the
        # keys and the products with z are formed one row block at a time.
        corpus = load_corpus(bundled_corpus_path())
        doc = corpus.documents[0]
        model = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        idf = fit_idf(corpus)
        d = local_dictionary(doc).d
        assert d == 31
        tracemalloc.start()
        try:
            beta_general_mc(model, doc, idf, nu=0.25, n_mc=200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < theory._MC_CHUNK * d * 8

    @pytest.mark.parametrize("kind", ["tree", "linear", "custom"])
    def test_peak_is_under_5_mb_on_bundled_document_0(self, kind):
        # Each group of rows is drawn, answered and summed before the next is
        # drawn, and a custom model embeds its rows one sampler block at a
        # time, so it holds one block's embedding (0.26 MB at d = 31), not one
        # chunk's; the custom case peaks at 2.7-3.0 MiB on 2 CPUs. Drawing
        # whole chunks peaked at 6.5, 6.4 and 19.4 MiB here.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        local = local_dictionary(doc)
        assert local.d == 31
        model = {
            "tree": tree_from_spec('"food" + (!"food" & "about" & "Everything")'),
            "linear": LinearModel(linear_weights(local, 0)),
            "custom": TanhOfLinear(linear_weights(local, 1)),
        }[kind]
        assert self.mc_peak(model, doc, idf, 200_000) < 5 * 2**20

    @staticmethod
    def mc_peak(model, doc, idf, n_mc):
        """tracemalloc's peak over one `beta_general_mc` call, in bytes."""
        tracemalloc.start()
        try:
            beta_general_mc(model, doc, idf, nu=0.25, n_mc=n_mc, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_linear_model_peaks_near_a_tree(self):
        # A linear model reads two products of each row block of z, not the
        # chunk's TF-IDF rows (16 MB here), so its peak is a tree's: about
        # 6 MB each.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        words = local_dictionary(doc).words
        assert len(words) == 31
        tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        linear = LinearModel({w: (-1.0) ** j * (j + 1) for j, w in enumerate(words)})
        n_mc = theory._MC_CHUNK
        assert self.mc_peak(linear, doc, idf, n_mc) <= 1.25 * self.mc_peak(tree, doc, idf, n_mc)

    def test_peak_does_not_grow_with_the_chunks(self, monkeypatch):
        # Nothing holds a chunk's arrays once its sums are taken: on one CPU,
        # four chunks peak where one does, for every kind of model. On two,
        # the peak depends on how far the helper has drawn ahead (2.7-3.4 MB
        # on a 2-CPU host), so it gets a bound of its own: one CPU's peak,
        # plus the window of 2 x 2 groups that the two drawing threads may
        # hold past the caller's group, plus each drawing thread's two
        # float64 key blocks.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        d = local_dictionary(doc).d
        rows = sampling._block_rows(theory._MC_CHUNK, d)
        window = 2 * 2 * sampling._MC_GROUP * rows * d
        keys = 2 * (2 * 8 * rows * d)
        tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        linear = LinearModel({"food": 1.5, "about": -0.75})
        models = {
            "tree": tree,
            "linear": linear,
            "tree plus linear": combine([(1.0, tree), (1.0, linear)]),
        }
        for name, model in models.items():
            monkeypatch.setattr(sampling, "_available_cpus", lambda: 1)
            one = self.mc_peak(model, doc, idf, theory._MC_CHUNK)
            four = self.mc_peak(model, doc, idf, 4 * theory._MC_CHUNK)
            assert four <= 1.1 * one, name
            monkeypatch.setattr(sampling, "_available_cpus", lambda: 2)
            assert self.mc_peak(model, doc, idf, 4 * theory._MC_CHUNK) <= one + window + keys, name

    def test_peak_memory_is_bounded_at_large_d(self):
        # A chunk holds at most 2**21 presence cells whatever d is: about
        # 3 MB peak here, where 65,536-row chunks at d = 1000 took 325 MB.
        # The tree part takes beta_tree, while the linear part's two mass
        # classes (334 and 666 words) give 335 x 667 = 223,445 compositions,
        # over CLASS_GRID_BUDGET, so it takes the oracle.
        doc = Document(tokens=tuple(f"w{i:04d}" for i in range(1000)))
        idf = fit_idf(Corpus(documents=(doc, Document(tokens=doc.tokens[::3]))))
        model = combine([
            (1.0, tree_from_spec('"w0000" + (!"w0001" & "w0002")')),
            (1.0, LinearModel({"w0003": 1.5, "w0500": -0.75})),
        ])
        tracemalloc.start()
        try:
            result = population_explanation(model, doc, idf, nu=0.25, n_mc=20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.provenance == "monte-carlo"
        assert peak < 64 * 2**20


@functools.cache
def streamed_documents():
    """(document, idf) by d: bundled documents 5 and 0, and a synthetic
    document of 1000 words in two TF-IDF mass classes."""
    corpus = load_corpus(bundled_corpus_path())
    idf = fit_idf(corpus)
    wide = Document(tokens=tuple(f"w{i:04d}" for i in range(1000)))
    return {
        12: (corpus.documents[5], idf),
        31: (corpus.documents[0], idf),
        1000: (wide, fit_idf(Corpus(documents=(wide, Document(tokens=wide.tokens[::3]))))),
    }


# (model kind, d, n_mc, nu). 75,491 samples are a multiple of neither the
# chunk nor the group at d = 12 or 31. At d = 1000, 5,000 samples take two
# chunks of _MC_CELLS // d rows and a partial one.
STREAMED_KINDS = ("tree", "linear", "custom", "combination")
STREAMED_CASES = (
    [(kind, d, 200_000, 0.25) for kind in STREAMED_KINDS for d in (12, 31)]
    + [(kind, 31, 75_491, nu) for kind in STREAMED_KINDS for nu in (0.1, 3.0)]
    + [(kind, 12, 75_491, nu) for kind in ("tree", "custom") for nu in (0.1, 0.25, 3.0)]
    + [(kind, 1000, 5_000, 0.25) for kind in STREAMED_KINDS]
)


def streamed_case(kind, d, n_mc, nu):
    """"same" where `beta_general_mc` gives the means and standard errors
    of `whole_chunk_mc` bit for bit, else what differs."""
    doc, idf = streamed_documents()[d]
    local = local_dictionary(doc)
    assert local.d == d
    chunk = min(theory._MC_CHUNK, theory._MC_CELLS // d)
    assert n_mc % chunk and n_mc % (sampling._MC_GROUP * sampling._block_rows(chunk, d))
    w = local.words
    tree = tree_from_spec(f'"{w[0]}" + (!"{w[1]}" & "{w[2]}") + ("{w[3]}" & "{w[4]}")')
    linear = LinearModel(linear_weights(local, d))
    custom = TanhOfLinear(linear_weights(local, d + 1))
    model = {
        "tree": tree,
        "linear": linear,
        "custom": custom,
        "combination": combine([(1.0, tree), (0.5, linear), (2.0, custom)]),
    }[kind]
    result = beta_general_mc(model, doc, idf, nu=nu, n_mc=n_mc, seed=d + n_mc)
    mean, stderr = whole_chunk_mc(model, doc, idf, nu, n_mc, seed=d + n_mc)
    if float_bits(explanation_vector(result)) != float_bits(mean):
        return "means differ"
    if float_bits([result.intercept_stderr, *result.coefficient_stderr]) != float_bits(stderr):
        return "standard errors differ"
    return "same"


@pytest.fixture(scope="module")
def streamed_outcomes():
    """`streamed_case` of every case, run in a child process with one BLAS
    thread, as the benchmark runs. A threaded BLAS splits the rows of a
    matrix-vector product between its threads by the row count of the call,
    and sums the last rows of a thread's share in another order. So the
    embedding of a custom model keeps its bits across row groups only under
    one thread; trees and linear models keep them under any threading."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")) if p
    )
    code = "import json, test_theory as t; print(json.dumps([t.streamed_case(*c) for c in t.STREAMED_CASES]))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root, timeout=600
    )
    assert result.returncode == 0, result.stderr
    return dict(zip(STREAMED_CASES, json.loads(result.stdout.splitlines()[-1])))


class TestStreamedOracle:
    """`beta_general_mc` draws, answers and sums its rows one group of
    sampler blocks at a time. Its means and standard errors are those of
    drawing and answering each chunk whole (`whole_chunk_mc`), bit for bit."""

    @pytest.mark.parametrize("case", STREAMED_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_matches_whole_chunk_oracle_bit_for_bit(self, streamed_outcomes, case):
        assert streamed_outcomes[case] == "same"

    @pytest.mark.parametrize("kind", ["tree", "linear"])
    def test_trees_and_linear_models_match_under_the_default_blas_threading(self, kind):
        assert streamed_case(kind, 31, 75_491, 0.25) == "same"


class TestOracleWorkers:
    """`beta_general_mc` draws its groups on the calling thread and up to
    one helper per other available CPU. Each group draws from a copy of the
    generator jumped past the groups before it, so the result, and where
    the generator stands after the call, are the one-thread pass's bits at
    any thread count."""

    @staticmethod
    def outcome(model, doc, idf, n_mc, rng):
        """The means, standard errors and final generator state of one call."""
        result = beta_general_mc(model, doc, idf, nu=0.25, n_mc=n_mc, seed=rng)
        stderr = [result.intercept_stderr, *result.coefficient_stderr]
        state = json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)
        return float_bits(explanation_vector(result)), float_bits(stderr), state

    # 75,491 samples take a full chunk, whose sizes leave no buffered 32-bit
    # half, and an odd one, which leaves one. At d = 1000 the chunks hold an
    # odd 2,097 rows, so the second chunk's sizes start from a buffered half.
    @pytest.mark.parametrize("d, n_mc", [(12, 75_491), (31, 75_491), (1000, 5_000)])
    @pytest.mark.parametrize("kind", ["tree", "linear", "custom"])
    def test_one_two_and_three_workers_give_the_same_bits(self, monkeypatch, kind, d, n_mc):
        doc, idf = streamed_documents()[d]
        local = local_dictionary(doc)
        w = local.words
        model = {
            "tree": tree_from_spec(f'"{w[0]}" + (!"{w[1]}" & "{w[2]}") + ("{w[3]}" & "{w[4]}")'),
            "linear": LinearModel(linear_weights(local, d)),
            "custom": TanhOfLinear(linear_weights(local, d + 1)),
        }[kind]
        buffered = []
        jumped = sampling._jumped

        def spy(rng, draws):
            buffered.append(rng.bit_generator.state["has_uint32"])
            return jumped(rng, draws)

        monkeypatch.setattr(sampling, "_jumped", spy)
        outcomes = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(sampling, "_available_cpus", lambda: workers)
            outcomes.append(self.outcome(model, doc, idf, n_mc, np.random.default_rng(d + n_mc)))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
        # At d = 12 the odd chunk is one group, drawn from rng itself.
        assert set(buffered) == ({0} if d == 12 else {0, 1})

    @pytest.mark.parametrize("bit_generator", ["PCG64DXSM", "SFC64", "MT19937", "Philox"])
    def test_every_bit_generator_gives_the_one_worker_bits(self, monkeypatch, bit_generator):
        # PCG64DXSM jumps like PCG64. The others cannot jump by a number of
        # draws (Philox's advance counts blocks of four), so their groups are
        # drawn in turn from the shared generator, and no pool starts.
        doc, idf = streamed_documents()[31]
        model = tree_from_spec('"food" + (!"food" & "about" & "Everything")')

        def fresh():
            return np.random.Generator(getattr(np.random, bit_generator)(5))

        monkeypatch.setattr(sampling, "_available_cpus", lambda: 1)
        serial = self.outcome(model, doc, idf, 75_491, fresh())
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 3)
        if bit_generator != "PCG64DXSM":
            monkeypatch.setattr(sampling, "ThreadPoolExecutor", NoPool)
        assert self.outcome(model, doc, idf, 75_491, fresh()) == serial

    def test_eight_workers_under_a_short_switch_interval(self, monkeypatch):
        # More workers than this host's CPUs, with threads switched every
        # microsecond: the groups finish in any order, and their sums are
        # still added in block order.
        doc, idf = streamed_documents()[31]
        model = TanhOfLinear(linear_weights(local_dictionary(doc), 4))
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 1)
        want = self.outcome(model, doc, idf, 200_000, np.random.default_rng(4))
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.outcome(model, doc, idf, 200_000, np.random.default_rng(4))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_no_worker_thread_outlives_a_call(self, monkeypatch):
        doc, idf = streamed_documents()[31]
        model = TanhOfLinear({"food": 1.0, "about": -0.5})
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 2)
        before = threading.active_count()
        beta_general_mc(model, doc, idf, nu=0.25, n_mc=100_000, seed=3)
        assert threading.active_count() == before


class Failing(Model):
    """A custom model whose every call raises."""

    def evaluate_matrix(self, values, words):
        raise RuntimeError("no answer")


class TestInOrder:
    """`_in_order` yields its tasks' results in order, raises a task's
    error at its place, stops its helpers and cancels the tasks they have
    not started when the caller stops, and runs on at most as many threads
    as it is given, CPUs and tasks."""

    @staticmethod
    def tasks(n, fail=None):
        def task(i):
            time.sleep(0.001 * ((7 * i) % 3))  # finish out of order
            if i == fail:
                raise ValueError(i)
            return i

        return [functools.partial(task, i) for i in range(n)]

    @staticmethod
    def bounded(call):
        """What call() returns or raises, run on a thread that must finish
        within 60 s, so that a helper left waiting fails the test instead
        of hanging it."""
        outcome = {}

        def target():
            try:
                outcome["result"] = call()
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return outcome

    @pytest.mark.parametrize("helpers", [1, 3])
    def test_results_come_in_order(self, monkeypatch, helpers):
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 4)
        sizes = pool_sizes(monkeypatch)
        assert list(sampling._in_order(self.tasks(20), helpers + 1)) == list(range(20))
        assert sizes == [helpers]

    def test_a_task_error_is_raised_at_its_place(self, monkeypatch):
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 3)

        def take_all():
            got = []
            try:
                for result in sampling._in_order(self.tasks(20, fail=7), 3):
                    got.append(result)
            except ValueError as exc:
                return got, str(exc)

        before = threading.active_count()
        assert self.bounded(take_all) == {"result": (list(range(7)), "7")}
        assert threading.active_count() == before

    def test_closing_early_stops_the_helpers(self, monkeypatch):
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 3)

        def take_three_and_close():
            results = sampling._in_order(self.tasks(50), 3)
            got = [next(results) for _ in range(3)]
            results.close()
            return got

        before = threading.active_count()
        assert self.bounded(take_three_and_close) == {"result": [0, 1, 2]}
        assert threading.active_count() == before

    # (threads asked for, available CPUs, tasks) -> helpers started.
    @pytest.mark.parametrize(
        "threads, cpus, n, helpers",
        [
            (1, 8, 20, []), (8, 8, 3, [2]), (8, 2, 20, [1]), (5000, 3, 20, [2]), (4, 1, 20, []),
            (4, 4, 0, []),
        ],
    )
    def test_threads_are_capped_at_the_cpus_and_the_tasks(self, monkeypatch, threads, cpus, n, helpers):
        monkeypatch.setattr(sampling, "_available_cpus", lambda: cpus)
        sizes = pool_sizes(monkeypatch)
        assert list(sampling._in_order(self.tasks(n), threads)) == list(range(n))
        assert sizes == helpers

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_task_waiting_for_a_later_one_finishes(self, monkeypatch, fails):
        # Task 0 returns only once task 1 has run. Whichever of the caller
        # and the one helper starts task 0, the other must run task 1.
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 2)
        ran = threading.Event()

        def first():
            if not ran.wait(timeout=5):
                raise RuntimeError("stalled")
            return 0

        def second():
            ran.set()
            if fails:
                raise ValueError(1)
            return 1

        def take_all():
            got = []
            try:
                for result in sampling._in_order([first, second, *self.tasks(4)[2:]], 2):
                    got.append(result)
            except ValueError as exc:
                return got, str(exc)
            return got, None

        want = ([0], "1") if fails else ([0, 1, 2, 3], None)
        assert self.bounded(take_all) == {"result": want}

    @pytest.mark.parametrize("threads", [2, 3])
    def test_no_task_starts_past_the_window(self, monkeypatch, threads):
        # A slow consumer lets the helpers run ahead. Each task records, as
        # it starts, how far past the results taken so far it lies.
        monkeypatch.setattr(sampling, "_available_cpus", lambda: threads)
        got, leads = [], []

        def task(i):
            leads.append(i - len(got))
            return i

        for result in sampling._in_order([functools.partial(task, i) for i in range(40)], threads):
            time.sleep(0.002)
            got.append(result)
        assert got == list(range(40))
        assert max(leads) <= 2 * threads

    @pytest.mark.parametrize("fails", [False, True])
    def test_tasks_no_helper_started_are_cancelled(self, monkeypatch, fails):
        # The caller stops at task 0, which returns or raises, with tasks 1-3
        # submitted. A helper's task past 0 ends only once the pool has begun
        # to shut down, so the one helper holds at most one task then. Each
        # task records whether it starts after that point: only the task the
        # helper had already taken may, as every task still queued is
        # cancelled.
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 2)
        shutting_down = threading.Event()

        class Pool(sampling.ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                shutting_down.set()
                super().shutdown(wait=wait)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", Pool)
        late = []

        def task(caller, i):
            late.append(shutting_down.is_set())
            if i and threading.get_ident() != caller:
                shutting_down.wait(timeout=5)
            if fails and not i:
                raise ValueError(i)
            return i

        def take_one():
            caller = threading.get_ident()
            results = sampling._in_order([functools.partial(task, caller, i) for i in range(10)], 2)
            try:
                return next(results)
            except ValueError as exc:
                return str(exc)
            finally:
                results.close()

        assert self.bounded(take_one) == {"result": "0" if fails else 0}
        assert sum(late) <= 1

    def test_a_failing_model_leaves_no_thread_behind(self, monkeypatch):
        doc, idf = streamed_documents()[31]
        monkeypatch.setattr(sampling, "_available_cpus", lambda: 2)
        before = threading.active_count()
        outcome = self.bounded(
            lambda: beta_general_mc(Failing(), doc, idf, nu=0.25, n_mc=100_000, seed=3)
        )
        assert str(outcome["error"]) == "no answer"
        assert threading.active_count() == before


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

    @pytest.mark.parametrize(
        "mode, provenance",
        [("simplified", "large-bandwidth-approx"), ("full", "exact-closed-form")],
    )
    def test_linear_models_take_beta_linear_in_their_mode(
        self, linear_setup, mode, provenance
    ):
        _, doc, idf, _, lam = linear_setup
        model = LinearModel(coefficients=lam)
        got = population_explanation(model, doc, idf, nu=0.3, linear_mode=mode, seed=4)
        assert got == beta_linear(model, doc, idf, mode=mode, nu=0.3)
        assert got.provenance == provenance

    def test_other_models_and_forced_monte_carlo_take_the_oracle(self, doc_idf):
        # At d <= ENUMERATION_LIMIT a custom model is enumerated exactly, and
        # a tree-plus-linear combination is the sum of its parts' closed
        # forms, the linear part in full mode. Monte Carlo runs only when forced.
        doc, idf = doc_idf
        local = local_dictionary(doc)
        assert local.d <= theory.ENUMERATION_LIMIT
        tree = tree_from_spec('"food" + "staff"')
        linear = LinearModel(coefficients={"fun": 1.0})
        mixed = combine([(1.0, tree), (2.0, linear)])
        got = population_explanation(mixed, doc, idf, nu=0.3, n_mc=5000, seed=9)
        want = sum_of_parts(
            (1.0, beta_tree(tree, local, 0.3)),
            (2.0, beta_linear(linear, doc, idf, mode="full", nu=0.3)),
        )
        assert explanation_vector(got).tobytes() == want.tobytes()
        assert got.provenance == "exact-closed-form"
        assert got.notes == {"parts": ["beta_tree", "beta_linear"]}
        assert_matches_enumeration(
            got, beta_enumerated(mixed, doc, idf, nu=0.3), sigma_set(local.d, 0.3)
        )
        custom = TanhOfLinear({"fun": 1.0, "staff": -2.0})
        got = population_explanation(custom, doc, idf, nu=0.3, n_mc=5000, seed=9)
        assert got == beta_enumerated(custom, doc, idf, nu=0.3)
        assert got.provenance == "exact-enumeration"
        for model in (mixed, tree, custom):
            got = population_explanation(
                model, doc, idf, nu=0.3, n_mc=5000, seed=9, monte_carlo=True
            )
            assert got == beta_general_mc(model, doc, idf, nu=0.3, n_mc=5000, seed=9)
            assert got.provenance == "monte-carlo"

    def test_other_models_above_the_enumeration_limit_take_monte_carlo(self):
        # Above the limit a custom model, and a combination of custom leaves
        # only, take the oracle unchanged; a tree-plus-linear combination
        # stays exact.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        local = local_dictionary(doc)
        assert local.d > theory.ENUMERATION_LIMIT
        custom = TanhOfLinear({"food": 1.0, "fast": -0.5})
        only_custom = CombinedModel(parts=((1.0, custom), (-0.5, TanhOfLinear({"food": 2.0}))))
        for model in (custom, only_custom):
            got = population_explanation(model, doc, idf, nu=0.3, n_mc=5000, seed=9)
            assert got == beta_general_mc(model, doc, idf, nu=0.3, n_mc=5000, seed=9)
            assert got.provenance == "monte-carlo"
        tree, linear = tree_from_spec('"food"'), LinearModel({"fast": 1.0})
        mixed = combine([(1.0, tree), (1.0, linear)])
        got = population_explanation(mixed, doc, idf, nu=0.3, n_mc=5000, seed=9)
        want = sum_of_parts(
            (1.0, beta_tree(tree, local, 0.3)),
            (1.0, beta_linear(linear, doc, idf, mode="full", nu=0.3)),
        )
        assert explanation_vector(got).tobytes() == want.tobytes()
        assert got.provenance == "exact-closed-form"
        assert got.coefficient_stderr is None and got.intercept_stderr is None


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
        # beta_indicator_product is beta_tree of the one-term tree, bit for bit.
        local = synthetic_local(d)
        tree = TreeModel(terms=(IndicatorProduct(words=frozenset(local.words[:p])),))
        try:
            got = beta_indicator_product(range(p), d, nu)
        except ClosedFormDomainError:
            # Declining is allowed only where the system is ill-conditioned.
            assert nu < 0.03 or d < 12
            with pytest.raises(ClosedFormDomainError):
                beta_tree(tree, local, nu)
            return
        as_tree = beta_tree(tree, local, nu)
        assert (got.intercept, got.coefficients) == (as_tree.intercept, as_tree.coefficients)
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
    @given(d=st.integers(2, 200), nu=bandwidths, seed=st.integers(0, 2**32 - 1))
    def test_explain_matches_dense_solve_or_declines(self, d, nu, seed):
        # The one structured solve against LU on the dense covariance, within
        # 8 condition eps of the largest solution entry, with `condition`
        # that of SigmaSet. A scan of 3,994 random solved cases (d 2..200, nu
        # log-uniform on [0.03, 100], right-hand sides scaled by 1e-3..1e3)
        # reached 1.82 condition eps.
        rhs = np.random.default_rng(seed).normal(size=d + 1)
        try:
            ss = sigma_set(d, nu)
        except ClosedFormDomainError:
            return  # the normalizers underflow to 0
        try:
            intercept, coefficients = ss.explain(rhs[0], rhs[1:], rhs[1:].sum())
        except ClosedFormDomainError:
            assert ss.condition * np.finfo(float).eps > theory.SOLVE_TOLERANCE
            return
        want = np.linalg.solve(sigma_matrix(d, nu), rhs)
        got = np.array([intercept, *coefficients])
        bound = 8 * ss.condition * np.finfo(float).eps * np.abs(want).max()
        assert np.abs(got - want).max() <= bound

    @settings(PROPERTY_SETTINGS, max_examples=50)
    @given(d=st.integers(2, 1000), nu=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    def test_covariance_identity_or_declined(self, d, nu):
        # Sigma Sigma^-1 = I entrywise within 4 cond eps, with
        # cond = ||Sigma||_1 ||Sigma^-1||_1 of the two matrices, wherever
        # sigma_set does not decline. A scan of 24,739 full products (d 2..39
        # and 50..1000, nu log-spaced over 1e-3..1e3) reached 1.41 cond eps.
        # The word columns are one pattern permuted, so the intercept column
        # and the first and last word columns hold every distinct entry of
        # the product; forming only those keeps each example O(d^2).
        try:
            sigma_set(d, nu)
        except ClosedFormDomainError:
            return
        matrix, inverse = sigma_matrix(d, nu), sigma_inverse(d, nu)
        cond = np.linalg.norm(matrix, 1) * np.linalg.norm(inverse, 1)
        columns = [0, 1, d]
        residual = np.abs(matrix @ inverse[:, columns] - np.eye(d + 1)[:, columns]).max()
        assert residual <= 4 * cond * np.finfo(float).eps

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

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(
        d=st.integers(3, 14),
        nu=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=3, nu=0.01, seed=0)
    @example(d=14, nu=100.0, seed=1)
    def test_trees_match_the_closed_form_or_both_raise(self, d, nu, seed):
        doc = Document(tokens=tuple(f"w{i:04d}" for i in range(d)))
        idf = fit_idf(Corpus(documents=(doc,)))
        rng = np.random.default_rng(seed)
        pool = [*doc.tokens, "elsewhere"]
        tree = TreeModel(
            terms=tuple(
                IndicatorProduct(
                    words=frozenset(
                        str(w) for w in rng.choice(pool, rng.integers(0, 4), replace=False)
                    ),
                    coefficient=float(rng.uniform(-2.0, 2.0)),
                )
                for _ in range(rng.integers(1, 9))
            )
        )
        try:
            want = beta_tree(tree, local_dictionary(doc), nu)
        except ClosedFormDomainError:
            with pytest.raises(ClosedFormDomainError):
                beta_enumerated(tree, doc, idf, nu=nu)
            return
        try:
            got = beta_enumerated(tree, doc, idf, nu=nu)
        except ClosedFormDomainError:
            # Only a tree whose closed form solves no system may be declined
            # here alone: every term is a constant, a single word, or names
            # all d words or one outside them (zero on every sample).
            assert all(
                len(term.words) in (0, 1, d) or not term.words <= set(doc.tokens)
                for term in tree.terms
            )
            return
        want_values = np.array([want.intercept, *want.coefficients])
        got_values = np.array([got.intercept, *got.coefficients])
        # Near nu = 0.02 the covariance condition number reaches 1e5 to 4e6,
        # and both routes then sit up to cond eps from an 80-digit solve; of
        # 2669 random solved cases, the 36 beyond 1e-10 were within 4.9 cond eps.
        cond_eps = sigma_set(d, nu).condition * np.finfo(float).eps
        scale = max(1.0, np.abs(want_values).max())
        assert np.abs(got_values - want_values).max() <= max(1e-10, 8 * cond_eps) * scale
        assert got.provenance == "exact-enumeration"


def linear_weights(local, seed):
    """Standard normal weights on every word of `local`, seeded."""
    rng = np.random.default_rng(seed)
    return dict(zip(local.words, rng.normal(size=local.d).tolist()))


def class_structured_case(structure):
    """A document with one word per (tf, df) pair of `structure`: the word
    occurs tf times, and df of the five documents of the idf corpus hold it.
    Words with one (tf, df) share a TF-IDF mass, so they form one class."""
    words = [f"w{j:02d}" for j in range(len(structure))]
    doc = Document(tokens=tuple(w for w, (tf, _) in zip(words, structure) for _ in range(tf)))
    others = tuple(
        Document(tokens=tuple(w for w, (_, df) in zip(words, structure) if df > i))
        for i in range(5)
    )
    return doc, fit_idf(Corpus(documents=others))


class TestLinearMassClasses:
    """`beta_linear(mode="full")`: exact sums over the kept-count
    compositions of the TF-IDF mass classes, at every d within
    CLASS_GRID_BUDGET."""

    @PROPERTY_SETTINGS
    @given(
        structure=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 5)), min_size=2, max_size=14
        ),
        nu=st.sampled_from([0.05, 0.25, 1.0, 100.0, math.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(structure=[(1, 0)] * 14, nu=0.25, seed=0)  # one class
    @example(  # 14 one-word classes: 2^14 compositions
        structure=[(tf, df) for tf in (1, 2, 3, 4) for df in range(6)][:14], nu=1.0, seed=1
    )
    @example(structure=[(1, 0), (2, 5)], nu=0.05, seed=2)  # two words
    @example(structure=[(3, 2)] * 2 + [(1, 1)] * 5, nu=math.inf, seed=3)
    def test_matches_the_enumeration(self, structure, nu, seed):
        doc, idf = class_structured_case(structure)
        local = local_dictionary(doc)
        lam = linear_weights(local, seed)
        try:
            want = beta_enumerated(LinearModel(lam), doc, idf, nu=nu)
        except ClosedFormDomainError:
            with pytest.raises(ClosedFormDomainError):
                beta_linear(lam, doc, idf, mode="full", nu=nu)
            return
        got = beta_linear(lam, doc, idf, mode="full", nu=nu)
        assert got.provenance == "exact-closed-form"
        assert got.words == want.words
        assert_matches_enumeration(got, want, sigma_set(local.d, nu))

    def test_bundled_document_0_matches_monte_carlo(self):
        # d = 31, above the enumeration limit. One bound, family-wise over
        # the four bandwidths and all 32 coordinates, intercept included:
        # 128 z-scores, for which 4.5 is about the two-sided Bonferroni bound
        # at a family-wise rate of 1e-3.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        lam = linear_weights(local_dictionary(doc), 2024)
        worst = 0.0
        for nu in (0.1, 0.25, 1.0, 100.0):
            got = beta_linear(lam, doc, idf, mode="full", nu=nu)
            oracle = beta_general_mc(LinearModel(lam), doc, idf, nu=nu, n_mc=400_000, seed=5)
            z = np.abs(got.coefficient_array() - oracle.coefficient_array())
            z /= np.array(oracle.coefficient_stderr)
            z0 = abs(got.intercept - oracle.intercept) / oracle.intercept_stderr
            worst = max(worst, z.max(), z0)
        assert worst <= 4.5

    def test_one_class_at_d_1000_matches_monte_carlo(self):
        # Words the idf corpus never saw share one mass: d + 1 compositions.
        # One bound over all 1001 coordinates: 4.9 is about the two-sided
        # Bonferroni bound at a family-wise rate of 1e-3.
        doc = Document(tokens=tuple(f"w{i:04d}" for i in range(1000)))
        idf = fit_idf(Corpus(documents=(Document(tokens=("elsewhere",)),)))
        lam = linear_weights(local_dictionary(doc), 7)
        got = beta_linear(lam, doc, idf, mode="full", nu=0.25)
        oracle = beta_general_mc(LinearModel(lam), doc, idf, nu=0.25, n_mc=20_000, seed=5)
        z = np.abs(got.coefficient_array() - oracle.coefficient_array())
        z /= np.array(oracle.coefficient_stderr)
        z0 = abs(got.intercept - oracle.intercept) / oracle.intercept_stderr
        assert max(z.max(), z0) <= 4.9

    def test_over_budget_declines_and_the_dispatcher_falls_through(self):
        # Bundled documents 5 (d = 12) and 0 (d = 31) have 80 and 14,688
        # compositions. Over the budget, beta_linear declines, and
        # population_explanation takes the route any other model would.
        corpus = load_corpus(bundled_corpus_path())
        idf = fit_idf(corpus)
        small, large = corpus.documents[5], corpus.documents[0]
        models = {
            doc: LinearModel(linear_weights(local_dictionary(doc), 11)) for doc in (small, large)
        }
        with mock.patch.object(theory, "CLASS_GRID_BUDGET", 80):
            assert beta_linear(models[small], small, idf, mode="full").provenance == (
                "exact-closed-form"
            )
        with mock.patch.object(theory, "CLASS_GRID_BUDGET", 79):
            for doc, model in models.items():
                with pytest.raises(ClosedFormDomainError, match="compositions"):
                    beta_linear(model, doc, idf, mode="full")
            got = population_explanation(models[small], small, idf, nu=0.25, linear_mode="full")
            assert got == beta_enumerated(models[small], small, idf, nu=0.25)
            assert got.provenance == "exact-enumeration"
            got = population_explanation(
                models[large], large, idf, nu=0.25, linear_mode="full", n_mc=5000, seed=9
            )
            assert got == beta_general_mc(models[large], large, idf, nu=0.25, n_mc=5000, seed=9)
            assert got.provenance == "monte-carlo"


def random_leaf(kind, words, rng):
    """A random tree (1 to 5 terms of 0 to 3 words), `LinearModel` or
    `TanhOfLinear` over `words`, with standard normal weights."""
    if kind == "tree":
        return TreeModel(
            terms=tuple(
                IndicatorProduct(
                    words=frozenset(rng.choice(words, rng.integers(0, 4), replace=False).tolist()),
                    coefficient=float(rng.uniform(-2.0, 2.0)),
                )
                for _ in range(rng.integers(1, 6))
            )
        )
    weights = dict(zip(words, rng.normal(size=len(words)).tolist()))
    return LinearModel(weights) if kind == "linear" else TanhOfLinear(weights)


class TestCombinationsByParts:
    """`population_explanation` of a `CombinedModel`: the sum of its leaves'
    explanations, trees and linear leaves in closed form, the leaves with
    none pooled into one call of the enumeration or the oracle."""

    @PROPERTY_SETTINGS
    @given(
        structure=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 5)), min_size=5, max_size=14
        ),
        kinds=st.lists(st.sampled_from(["tree", "linear", "custom"]), min_size=1, max_size=4),
        nested=st.booleans(),
        nu=st.sampled_from([0.05, 0.25, 1.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # the first two leaves nested in an inner combination
        structure=[(1, 0)] * 6 + [(2, 3)] * 6, kinds=["tree", "custom", "linear"],
        nested=True, nu=0.25, seed=0,
    )
    @example(structure=[(1, 0)] * 8, kinds=[], nested=False, nu=1.0, seed=1)  # empty
    def test_matches_the_enumeration(self, structure, kinds, nested, nu, seed):
        doc, idf = class_structured_case(structure)
        local = local_dictionary(doc)
        rng = np.random.default_rng(seed)
        leaves = [(float(rng.normal()), random_leaf(kind, local.words, rng)) for kind in kinds]
        if nested and len(leaves) >= 2:
            inner = CombinedModel(parts=tuple(leaves[:2]))
            leaves = [(float(rng.normal()), inner), *leaves[2:]]
        model = CombinedModel(parts=tuple(leaves))
        want = beta_enumerated(model, doc, idf, nu=nu)
        got = population_explanation(model, doc, idf, nu=nu)
        if "tree" not in kinds and "linear" not in kinds:
            # No leaf has a closed form: the unchanged model is enumerated.
            assert got == want
        elif "custom" in kinds:
            assert got.provenance == "exact-enumeration"
        else:
            assert got.provenance == "exact-closed-form"
        assert got.words == want.words
        assert_matches_enumeration(got, want, sigma_set(local.d, nu))

    def test_tree_plus_linear_on_bundled_document_0_matches_monte_carlo(self):
        # d = 31, above the enumeration limit. One bound, family-wise over
        # the four bandwidths and all 32 coordinates, intercept included:
        # 128 z-scores, for which 4.5 is about the two-sided Bonferroni bound
        # at a family-wise rate of 1e-3.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        model = combine([(1.0, tree), (1.0, LinearModel(linear_weights(local_dictionary(doc), 2024)))])
        worst = 0.0
        for nu in (0.1, 0.25, 1.0, 100.0):
            got = population_explanation(model, doc, idf, nu=nu)
            assert got.provenance == "exact-closed-form"
            oracle = beta_general_mc(model, doc, idf, nu=nu, n_mc=400_000, seed=5)
            stderr = np.array([oracle.intercept_stderr, *oracle.coefficient_stderr])
            z = np.abs(explanation_vector(got) - explanation_vector(oracle)) / stderr
            worst = max(worst, z.max())
        assert worst <= 4.5

    def test_custom_leaves_above_the_limit_take_one_oracle_call(self):
        # The custom leaves are pooled, in order, into one remainder, which
        # the oracle explains once and which is added after the tree. The
        # tree's coefficients carry its 1.5 into beta_tree, so the sum lies
        # at rounding level (5.6e-17 here) from 1.5 times the bare tree's.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        local = local_dictionary(doc)
        assert local.d > theory.ENUMERATION_LIMIT
        tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        first, second = TanhOfLinear({"food": 1.0, "fast": -0.5}), TanhOfLinear({"about": 2.0})
        model = CombinedModel(parts=((2.0, first), (1.5, tree), (-1.0, second)))
        got = population_explanation(model, doc, idf, nu=0.25, n_mc=20_000, seed=3)
        remainder = beta_general_mc(
            CombinedModel(parts=((2.0, first), (-1.0, second))), doc, idf,
            nu=0.25, n_mc=20_000, seed=3,
        )
        want = sum_of_parts((1.0, beta_tree(combine([(1.5, tree)]), local, 0.25)), (1.0, remainder))
        assert explanation_vector(got).tobytes() == want.tobytes()
        # beta_tree rounds a few products and sums per coordinate, each within
        # an eps of the largest entry; the move here is 0.2 eps of it.
        scaled = sum_of_parts((1.5, beta_tree(tree, local, 0.25)), (1.0, remainder))
        eps = np.finfo(float).eps
        assert np.abs(explanation_vector(got) - scaled).max() <= 4 * eps * np.abs(scaled).max()
        assert got.provenance == "monte-carlo"
        assert got.coefficient_stderr == remainder.coefficient_stderr
        assert got.intercept_stderr == remainder.intercept_stderr
        assert got.notes == {"parts": ["beta_tree", "beta_general_mc"]}

    def test_linear_leaves_share_one_class_grid(self, monkeypatch):
        # The linear leaves' weights add into one LinearModel, so the mass-class
        # grid is built once; the explanation is the sum of the leaves' own.
        corpus = load_corpus(bundled_corpus_path())
        doc, idf = corpus.documents[0], fit_idf(corpus)
        local = local_dictionary(doc)
        tree = tree_from_spec('"food" + (!"food" & "about" & "Everything")')
        leaves = [
            (a, LinearModel(linear_weights(local, seed)))
            for seed, a in enumerate((1.0, -0.5, 2.0, 0.25))
        ]
        model = CombinedModel(parts=((1.0, tree), *leaves))
        calls = []
        linear_full = theory._linear_full

        def counted(*args):
            calls.append(1)
            return linear_full(*args)

        monkeypatch.setattr(theory, "_linear_full", counted)
        got = population_explanation(model, doc, idf, nu=0.25)
        assert len(calls) == 1
        assert got.provenance == "exact-closed-form"
        assert got.notes == {"parts": ["beta_tree", "beta_linear"]}
        want = sum_of_parts(
            (1.0, beta_tree(tree, local, 0.25)),
            *((a, beta_linear(m, doc, idf, mode="full", nu=0.25)) for a, m in leaves),
        )
        want = replace(got, intercept=float(want[0]), coefficients=tuple(want[1:].tolist()))
        assert_matches_enumeration(got, want, sigma_set(local.d, 0.25))
