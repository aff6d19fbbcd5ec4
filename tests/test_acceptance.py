"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria A1-A14 pin the package's numerical claims at fixed tolerances:
closed-form moments against raw Monte Carlo, exact matrix identities,
whisker agreement between repeated empirical runs and the closed-form
predictions at default settings, the concentration rate, and the exact
subset combinatorics. Everything runs on the bundled corpus or on
synthetic dictionaries; every random quantity is seeded.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from textlime import (
    IndicatorProduct,
    LinearModel,
    alpha_bounds,
    alpha_limit,
    alpha_values,
    beta_tree,
    bundled_corpus_path,
    compare,
    concentration_check,
    e_term,
    fit_idf,
    linearity_check,
    load_corpus,
    local_dictionary,
    run_repeated,
    sigma_set,
)
from textlime.theory import (
    SIMPLIFIED_E_PAIR,
    SIMPLIFIED_E_SINGLE,
    SIMPLIFIED_LINEAR_CONSTANT,
    _pair_mass_mean,
    _single_mass_mean,
)
from textlime import tree_from_spec
from oracles import (
    exact_renormalization_expectations,
    mc_alpha,
    normalized_tfidf,
    sigma_inverse,
    sigma_matrix,
)
from test_theory import exact_sigma_identity_residual

MATRIX_GRID = [(d, nu) for d in (2, 5, 10, 30, 100) for nu in (0.1, 0.25, 1.0, 10.0)]

FOOD_TREE = '"food" + (!"food" & "about" & "Everything")'
SECOND_TREE = '"service" + ("service" & "warm")'


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def bundle():
    corpus = load_corpus(bundled_corpus_path())
    idf = fit_idf(corpus)
    doc = corpus.documents[0]
    return corpus, idf, doc, local_dictionary(doc)


def test_a1_alpha_closed_form_matches_monte_carlo():
    worst = 0.0
    for seed, (d, nu) in enumerate([(d, nu) for d in (5, 15, 35) for nu in (0.1, 0.25, 1.0)]):
        values, stderrs = mc_alpha(d, nu, 200_000, 3, seed=100 + seed)
        closed = alpha_values(d, nu, 3)
        for p in range(4):
            deviation = abs(closed[p] - values[p])
            tolerance = max(3 * stderrs[p], 5e-3)
            worst = max(worst, deviation / tolerance)
    report(
        "A1 alpha oracle agreement",
        worst <= 1.0,
        f"worst deviation/tolerance = {worst:.3f} over 9 grid cells, p <= 3",
    )


def test_a2_covariance_inverse_identity():
    worst_exact = Fraction(0)
    worst_float = 0.0
    for d, nu in MATRIX_GRID:
        worst_exact = max(worst_exact, exact_sigma_identity_residual(d, nu))
        matrix = sigma_matrix(d, nu)
        if np.linalg.cond(matrix) < 1e10:
            product = matrix @ sigma_inverse(d, nu)
            worst_float = max(
                worst_float, float(np.abs(product - np.eye(d + 1)).max())
            )
    ok = worst_exact < Fraction(1, 10**10) and worst_float < 1e-10
    report(
        "A2 covariance times inverse is identity",
        ok,
        f"max residual: exact arithmetic {float(worst_exact):.1e}, "
        f"float64 on resolvable cells {worst_float:.1e}",
    )


def test_a3_alpha_bounds_and_ordering():
    ok = True
    for d, nu in MATRIX_GRID:
        values = alpha_values(d, nu, min(d, 6))
        for p, value in enumerate(values):
            lo, hi = alpha_bounds(p, d, nu)
            ok &= lo - 1e-12 <= value <= hi + 1e-12
            if p > 0:
                ok &= value <= values[p - 1] + 1e-15
    report("A3 alpha bounds and ordering", ok, "all p <= min(d, 6) on the A2 grid")


def test_a4_invertibility_lower_bounds():
    ok = True
    margin = math.inf
    for d, nu in MATRIX_GRID:
        ss = sigma_set(d, nu)
        gap_bound = math.exp(-1.0 / (2 * nu * nu)) / 6.0
        c_bound = math.exp(-2.0 / (nu * nu)) / 40.0
        ok &= ss.alpha1 - ss.alpha2 >= gap_bound
        ok &= ss.c_d >= c_bound
        margin = min(margin, ss.c_d / c_bound, (ss.alpha1 - ss.alpha2) / gap_bound)
    report(
        "A4 invertibility lower bounds",
        ok,
        f"smallest bound margin {margin:.3g}x on the A2 grid",
    )


def test_a5_constant_model_at_defaults(bundle):
    _, idf, doc, _ = bundle
    stats = run_repeated(
        IndicatorProduct(words=frozenset(), coefficient=1.0),
        doc,
        idf,
        n=5000,
        nu=0.25,
        n_exp=100,
        master_seed=501,
    )
    intercept_dev = abs(stats.summary()["median"] - 1.0)
    coef_dev = float(np.abs(stats.median).max())
    ok = intercept_dev <= 0.02 and coef_dev <= 0.02
    report(
        "A5 constant model",
        ok,
        f"median intercept off by {intercept_dev:.2e}, "
        f"largest median coefficient {coef_dev:.2e} (d={stats.d})",
    )


def test_a6_single_indicator_at_defaults(bundle):
    _, idf, doc, local = bundle
    stats = run_repeated(
        IndicatorProduct(words=frozenset({"food"})),
        doc,
        idf,
        n=5000,
        nu=0.25,
        n_exp=100,
        master_seed=601,
    )
    theory = beta_tree(tree_from_spec('"food"'), local, 0.25)
    result = compare(stats, theory)
    food_dev = abs(result.row("food").empirical_median - 1.0)
    other_dev = max(
        abs(r.empirical_median) for r in result.rows if r.word != "food"
    )
    ok = food_dev <= 0.05 and other_dev <= 0.05 and result.all_inside_range()
    report(
        "A6 single indicator",
        ok,
        f"median for 'food' off by {food_dev:.2e}, largest other {other_dev:.2e}, "
        f"theory inside whisker range: {result.all_inside_range()}",
    )


def test_a7_tree_against_closed_form(bundle):
    _, idf, doc, local = bundle
    tree = tree_from_spec(FOOD_TREE)
    stats = run_repeated(
        tree, doc, idf, n=5000, nu=0.25, n_exp=100, master_seed=701
    )
    result = compare(stats, beta_tree(tree, local, 0.25))
    ok = result.all_inside_range() and result.max_abs_deviation <= 0.05
    report(
        "A7 tree vs closed form",
        ok,
        f"max median deviation {result.max_abs_deviation:.4f}, theory inside "
        f"whisker range for all {local.d} words: {result.all_inside_range()}",
    )


def test_a8_linear_model_against_simplified_prediction(bundle):
    _, idf, doc, local = bundle
    rng = np.random.default_rng(2024)
    lam = {w: float(rng.normal()) for w in local.words}
    stats = run_repeated(
        LinearModel(coefficients=lam),
        doc,
        idf,
        n=5000,
        nu=0.25,
        n_exp=100,
        master_seed=801,
    )
    phi = normalized_tfidf(doc, idf)
    targets = np.array(
        [SIMPLIFIED_LINEAR_CONSTANT * lam[w] * phi[j] for j, w in enumerate(local.words)]
    )
    strong = np.abs(targets) >= 0.05
    deviations = np.abs(stats.median - targets)
    allowed = np.maximum(0.15 * np.abs(targets), 0.05)
    ok = bool(np.all(deviations[strong] <= allowed[strong])) and strong.sum() >= 5
    report(
        "A8 linear model vs simplified prediction",
        ok,
        f"{int(strong.sum())} words with |target| >= 0.05; worst "
        f"deviation/allowance {float((deviations[strong] / allowed[strong]).max()):.3f}",
    )


def test_a9_linearity_of_explanations(bundle):
    _, idf, doc, _ = bundle
    result = linearity_check(
        tree_from_spec(FOOD_TREE),
        tree_from_spec(SECOND_TREE),
        doc,
        idf,
        n=5000,
        nu=0.25,
        n_exp=100,
        master_seed=901,
    )
    ok = (
        result.theory_max_residual is not None
        and result.theory_max_residual <= 1e-12
        and result.all_within_envelope()
    )
    report(
        "A9 linearity",
        ok,
        f"closed-form residual {result.theory_max_residual:.1e}, empirical "
        f"max deviation {result.max_abs_deviation:.4f} within 3x pooled std: "
        f"{result.all_within_envelope()}",
    )


def test_a10_concentration_rate(bundle):
    _, idf, doc, _ = bundle
    table = concentration_check(
        tree_from_spec(FOOD_TREE),
        doc,
        idf,
        [500, 2000, 8000, 32000],
        nu=0.25,
        n_exp=100,
        master_seed=1001,
    )
    ok = abs(table.median_slope + 0.5) <= 0.15
    report(
        "A10 concentration rate",
        ok,
        f"median per-word slope of log(std) vs log(n) = {table.median_slope:.3f} "
        f"(target -0.5 +- 0.15)",
    )


def test_a11_subset_expectation_exactness():
    rng = np.random.default_rng(1101)
    worst = 0.0
    for d in range(2, 13):
        raw = rng.random(d) + 0.05
        values = raw / raw.sum()
        cases = [(0,)] if d < 3 else [(0,), (0, d - 1)]
        for kept in cases:
            kept_set = set(kept)
            total = Fraction(0)
            acc = 0.0
            for s in range(1, d + 1):
                for subset in itertools.combinations(range(d), s):
                    if kept_set & set(subset):
                        continue
                    prob = Fraction(1, d) / math.comb(d, s)
                    total += prob
                    acc += float(prob) * float(values[list(subset)].sum())
            enumerated = acc / float(total)
            closed = (
                _single_mass_mean(values[0], d)
                if len(kept) == 1
                else _pair_mass_mean(values[0], values[d - 1], d)
            )
            worst = max(worst, abs(closed - enumerated))
    report(
        "A11 subset-expectation exactness",
        worst <= 1e-12,
        f"max |closed - enumerated| = {worst:.2e} over d <= 12, single and pair",
    )


def test_a12_presence_probabilities():
    exact_ok = True
    for d in range(1, 13):
        for p in range(0, d + 1):
            kept = set(range(p))
            total = Fraction(0)
            for s in range(1, d + 1):
                surviving = sum(
                    1
                    for subset in itertools.combinations(range(d), s)
                    if not kept & set(subset)
                )
                total += Fraction(1, d) * Fraction(surviving, math.comb(d, s))
            exact_ok &= total == Fraction(d - p, (p + 1) * d)

    d, n_mc = 30, 200_000
    from textlime.sampling import draw_feature_matrix

    rng = np.random.default_rng(1201)
    _, z = draw_feature_matrix(rng, n_mc, d)
    mc_ok = True
    worst_sigma = 0.0
    for p in (1, 2, 3):
        hits = z[:, :p].all(axis=1).astype(float)
        target = alpha_limit(p, d)
        stderr = hits.std(ddof=1) / math.sqrt(n_mc)
        sigmas = abs(hits.mean() - target) / stderr
        worst_sigma = max(worst_sigma, sigmas)
        mc_ok &= sigmas <= 3.0
    report(
        "A12 presence probabilities",
        exact_ok and mc_ok,
        f"rational enumeration exact for d <= 12; sampler at d=30 within "
        f"{worst_sigma:.2f} standard errors",
    )


def test_a13_operator_norm_diagnostic():
    worst = 0.0
    for d, nu in MATRIX_GRID:
        opnorm = float(np.linalg.norm(sigma_inverse(d, nu), 2))
        bound = 70.0 * d**1.5 * math.exp(2.5 / (nu * nu))
        worst = max(worst, opnorm / bound)
    report(
        "A13 operator norm diagnostic",
        worst <= 1.0,
        f"largest opnorm/bound ratio {worst:.3g} on the A2 grid",
    )


def _removal_oracle(values, kept):
    """E[(1 - removed mass)^(-1/2) | no word of `kept` is removed], by
    enumerating every removal set as a bit mask over the other words.

    Each set S has probability 1/(d * C(d, |S|)) under the removal scheme
    (size uniform on 1..d, then a uniform subset of that size); the sets
    that avoid `kept` are reweighted to sum to one.
    """
    values = np.asarray(values, dtype=float)
    d = len(values)
    others = np.array([w for i, w in enumerate(values) if i not in kept])
    masks = np.arange(1, 2 ** len(others))
    bits = (masks[:, None] >> np.arange(len(others))) & 1
    removed = bits @ others
    comb = np.array([math.comb(d, s) for s in range(d + 1)], dtype=float)
    prob = 1.0 / (d * comb[bits.sum(axis=1)])
    return float(np.sum(prob / np.sqrt(1.0 - removed)) / prob.sum())


def test_a14_renormalization_expectations_at_d18():
    """Conditional renormalization expectations at d = 18 with near-uniform
    mass weights: exact enumeration against an independent oracle and
    against its large-d limits, and the swapped expectation `e_term`
    against the paper's constants 1.2247 and 1.1547.

    The paper's constants (1 - 1/3)^(-1/2) and (1 - 1/4)^(-1/2) replace
    the removed mass by its conditional mean. They are not the exact
    expectations: x -> (1 - x)^(-1/2) is strictly convex, so by Jensen the
    exact value lies above the swap, and the removed mass never
    concentrates (its conditional law follows the deletion count), so the
    gap does not close as d grows. With uniform masses the exact values
    tend to 4/3 and 6/5 instead. The old constants are still checked,
    against `e_term`, which computes them; the exact enumeration is the
    reference in tests/oracles.py.
    """
    d = 18
    rng = np.random.default_rng(1401)
    raw = 1.0 + 0.02 * rng.standard_normal(d)
    omega = raw / raw.sum()
    exact_single, exact_pair = exact_renormalization_expectations(omega)
    single, pair = float(exact_single[0]), float(exact_pair[0, 1])
    approx_single = e_term(omega, 0)
    approx_pair = e_term(omega, 0, 1)
    oracle_single = _removal_oracle(omega, {0})
    oracle_pair = _removal_oracle(omega, {0, 1})
    # Uniform masses, large d: the removed mass x has conditional density
    # 2(1 - x) given one survivor and 3(1 - x)^2 given two, so the limits
    # are int_0^1 2(1 - x)^(1/2) dx = 4/3 and int_0^1 3(1 - x)^(3/2) dx = 6/5.
    limit_single = 4.0 / 3.0
    limit_pair = 6.0 / 5.0
    dev_oracle = max(abs(single - oracle_single), abs(pair - oracle_pair))
    dev_single = abs(single - limit_single)
    dev_pair = abs(pair - limit_pair)
    dev_approx_single = abs(approx_single - SIMPLIFIED_E_SINGLE)
    dev_approx_pair = abs(approx_pair - SIMPLIFIED_E_PAIR)
    ok = (
        dev_oracle <= 1e-12
        and dev_single <= 0.05
        and dev_pair <= 0.05
        and dev_approx_single <= 0.05
        and dev_approx_pair <= 0.05
        and single > approx_single
        and pair > approx_pair
    )
    report(
        "A14 renormalization expectations",
        ok,
        f"exact enumeration gives {single:.4f} and {pair:.4f} (oracle off by "
        f"{dev_oracle:.1e}; limits 4/3 and 6/5, off by {dev_single:.4f} and "
        f"{dev_pair:.4f}); approx gives {approx_single:.4f} and "
        f"{approx_pair:.4f} (references 1.2247 and 1.1547, off by "
        f"{dev_approx_single:.4f} and {dev_approx_pair:.4f})",
    )
