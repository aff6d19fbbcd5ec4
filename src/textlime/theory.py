"""Closed-form infinite-sample explanations and their building blocks.

As the number of perturbed samples grows, the surrogate coefficients
concentrate around a population vector determined by the kernel moment
sequence alpha_p = E[weight * z_1 ... z_p], the weighted feature covariance
(whose block pattern reduces every solve to a 2x2 system; see SigmaSet), and
the expected weighted responses. This module computes those pieces exactly,
specializes them to indicator products, trees and linear models, and
provides Monte Carlo estimators that serve as independent oracles for
everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import Document, IdfTable, LocalDictionary, local_dictionary, tfidf_weights
from .models import LinearModel, Model, TreeModel, indicator_terms
from .sampling import _kernel_table, draw_feature_matrix, psi, renormalized_tfidf

EXACT_CLOSED_FORM = "exact-closed-form"
LARGE_BANDWIDTH = "large-bandwidth-approx"
MONTE_CARLO = "monte-carlo"

# Exact enumeration of conditional renormalization expectations walks all
# subsets of the local dictionary; beyond this size, use approx or mc.
ENUMERATION_LIMIT = 20

# A covariance solve whose condition number times the machine epsilon
# exceeds this could be off by more than it, so it raises instead.
SOLVE_TOLERANCE = 1e-9
_EPS = float(np.finfo(float).eps)


class ClosedFormDomainError(ValueError):
    """Raised where the closed forms need d >= 2 and the input is smaller, or
    where the bandwidth is so narrow that they cannot reach SOLVE_TOLERANCE."""


@dataclass(frozen=True)
class TheoryExplanation:
    """Population (infinite-sample) explanation with provenance.

    `provenance` records how the values were obtained: exact closed form,
    the large-bandwidth approximation, or Monte Carlo (which also carries
    standard errors).
    """

    intercept: float
    coefficients: tuple[float, ...]
    provenance: str
    words: tuple[str, ...] | None = None
    coefficient_stderr: tuple[float, ...] | None = None
    intercept_stderr: float | None = None
    notes: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.coefficients)

    def coefficient_array(self) -> np.ndarray:
        return np.array(self.coefficients)


def alpha(p: int, d: int, nu: float) -> float:
    """Expected kernel weight times p distinct presence indicators.

    Exact finite sum over the deletion count s, with exact-rounded
    accumulation: (1/d) sum_s prod_{k<p} (d-s-k)/(d-k) * psi(s/d).
    """
    return alpha_values(d, nu, p)[p]


def alpha_values(d: int, nu: float, p_max: int) -> list[float]:
    """alpha_0 .. alpha_{p_max} from one kernel evaluation."""
    return _alpha_moments(d, nu, p_max).alphas


class _Moments(NamedTuple):
    """What one kernel evaluation at (d, nu) gives every closed form."""

    alphas: list[float]
    drops: dict[int, float]
    kernel: np.ndarray  # psi(s/d) for s = 1..d
    kernel_sum: float  # its exactly rounded sum, d * alpha_0


def _alpha_moments(d: int, nu: float, p_max: int) -> _Moments:
    """alpha_0 .. alpha_{p_max}, and the drops alpha_q - alpha_{q+1} keyed by
    q for 1 <= q < min(p_max, d), from one kernel evaluation.

    Row p of a (p_max + 1) x d table holds psi(s/d) prod_{k<p} (d-s-k)/(d-k)
    for s = 1..d: row 0 is one psi call, and a running product
    (np.multiply.accumulate) takes each row to the next, in the same order
    as the per-s loop it replaces. Each row is summed exactly rounded
    (math.fsum) and divided by d. A drop is the nonnegative sum
    (1/d) sum_s row_q(s) s/(d-q), which does not cancel as the difference does.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0 <= p_max <= d:
        raise ValueError("order p must lie in 0..d")
    s = np.arange(1, d + 1, dtype=float)
    k = np.arange(p_max, dtype=float)[:, None]
    table = np.empty((p_max + 1, d))
    table[0] = psi(s / d, nu)
    table[1:] = (d - s - k) / (d - k)
    np.multiply.accumulate(table, axis=0, out=table)
    # math.fsum reads Python floats faster than numpy scalars.
    sums = [math.fsum(row) for row in table.tolist()]
    weighted = (table[1 : min(p_max, d)] * s).tolist()
    return _Moments(
        alphas=[total / d for total in sums],
        drops={q: math.fsum(r) / ((d - q) * d) for q, r in enumerate(weighted, 1)},
        kernel=table[0],
        kernel_sum=sums[0],
    )


def alpha_limit(p: int, d: int) -> float:
    """Large-bandwidth limit of alpha_p: (d - p) / ((p + 1) d), which is also
    the probability that p given distinct words all survive one
    perturbation."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0 <= p <= d:
        raise ValueError("order p must lie in 0..d")
    return (d - p) / ((p + 1) * d)


def alpha_bounds(p: int, d: int, nu: float) -> tuple[float, float]:
    """Proved envelope of alpha_p: limit * exp(-1/(2 nu^2)) below, limit above."""
    limit = alpha_limit(p, d)
    return limit * math.exp(-1.0 / (2.0 * nu * nu)), limit


@dataclass(frozen=True)
class SigmaSet:
    """The weighted feature covariance at (d, nu) and its one structured solve.

    Sigma = [[a0, a1 1^T], [a1 1, gap I + a2 1 1^T]] with gap = a1 - a2, so
    Sigma [b0; beta] = [g0; g] reduces to the 2x2 system
    [[a0, a1], [d a1, gap + d a2]] [b0; S] = [g0; sum_j g_j] in the intercept
    and S = sum_j beta_j, whose determinant is c_d; then
    beta_j = (g_j - a1 b0 - a2 S) / gap. `condition` is the 1-norm condition
    number of that system with its second row divided by d: d (a0 + a1)^2 / c_d.
    """

    d: int
    nu: float
    c_d: float
    alpha0: float
    alpha1: float
    alpha2: float
    gap: float
    condition: float

    def solve(self, g0, total):
        """(b0, S) for the right-hand side g0, `total` (floats or arrays);
        raises where that is nonzero and the condition is too large."""
        if self.condition * _EPS > SOLVE_TOLERANCE and (np.any(g0) or np.any(total)):
            raise ClosedFormDomainError(
                f"out of closed-form domain: at d={self.d}, nu={self.nu} the "
                f"covariance condition number {self.condition:.3g} is too large"
            )
        d, a1 = self.d, self.alpha1
        b0 = ((self.gap + d * self.alpha2) * g0 - a1 * total) / self.c_d
        return b0, (self.alpha0 * total - d * a1 * g0) / self.c_d


def normalization_constant(d: int, nu: float) -> float:
    """The inverse-covariance normalizer (d-1) a0 a2 - d a1^2 + a0 a1.

    With k_t = psi(t/d) for t = 1..d it equals
    (1 / (2 d^3)) sum_{s,t} k_s k_t (t - s)^2 = K sum_t k_t (t - m)^2 / d^3,
    where K = sum_t k_t and m = sum_t t k_t / K. This two-pass form is
    O(d), and every term is nonnegative: the defining expression cancels
    catastrophically at small bandwidth (the true value can sit far below
    one ulp of its terms), this one never does. A kernel that underflows
    to zero everywhere gives 0.
    """
    return _normalizer(_alpha_moments(d, nu, 0))


def _normalizer(moments: _Moments) -> float:
    """`normalization_constant` from the kernel row and sum of `moments`."""
    kernel, total = moments.kernel, moments.kernel_sum
    if total == 0.0:
        return 0.0
    d = len(kernel)
    t = np.arange(1, d + 1, dtype=float)
    mean = math.fsum((t * kernel).tolist()) / total
    return total * math.fsum((kernel * (t - mean) ** 2).tolist()) / d**3


def sigma_set(d: int, nu: float) -> SigmaSet:
    """The covariance at (d, nu), from alpha_0..alpha_2, gap and c_d."""
    return _covariance_and_moments(d, nu, 2)[0]


def _covariance_and_moments(d: int, nu: float, order: int) -> tuple[SigmaSet, _Moments]:
    """The covariance at (d, nu) and the alpha moments up to
    max(2, min(order, d)), all from one kernel evaluation."""
    if d < 2:
        raise ClosedFormDomainError(
            "out of closed-form domain: need at least 2 distinct words"
        )
    moments = _alpha_moments(d, nu, max(2, min(order, d)))
    a0, a1, a2 = moments.alphas[:3]
    c_d = _normalizer(moments)
    gap = moments.drops[1]
    if c_d == 0.0 or gap == 0.0:
        raise ClosedFormDomainError(
            f"out of closed-form domain: at d={d}, nu={nu} the covariance "
            "normalizers underflow to 0"
        )
    covariance = SigmaSet(
        d=d, nu=nu, c_d=c_d, alpha0=a0, alpha1=a1, alpha2=a2, gap=gap,
        condition=d * (a0 + a1) ** 2 / c_d,
    )
    return covariance, moments


def sigma_matrix(d: int, nu: float) -> np.ndarray:
    """Weighted feature covariance: block pattern in alpha_0, alpha_1, alpha_2."""
    if d < 2:
        raise ClosedFormDomainError("covariance block pattern requires d >= 2")
    a0, a1, a2 = alpha_values(d, nu, 2)
    m = np.full((d + 1, d + 1), a2)
    m[0, :] = a1
    m[:, 0] = a1
    np.fill_diagonal(m, a1)
    m[0, 0] = a0
    return m


def sigma_inverse(d: int, nu: float) -> np.ndarray:
    """Closed-form inverse of the weighted feature covariance, entry by entry."""
    ss = sigma_set(d, nu)
    off_diagonal = (ss.alpha1**2 - ss.alpha0 * ss.alpha2) / ss.gap
    m = np.full((d + 1, d + 1), off_diagonal)
    m[0, :] = m[:, 0] = -ss.alpha1
    np.fill_diagonal(m, off_diagonal + ss.c_d / ss.gap)
    m[0, 0] = ss.gap + d * ss.alpha2
    return m / ss.c_d


def _indicator_parts(
    p: int, ss: SigmaSet, moments: _Moments
) -> tuple[float, float, float]:
    """Intercept, member coefficient and non-member coefficient of the
    population explanation of a product of p indicators, from
    moments up to order min(p + 1, d).

    The right-hand side is alpha_p on the intercept and the members and
    alpha_{p+1} elsewhere, so members exceed non-members by exactly
    delta = (alpha_p - alpha_{p+1}) / gap. With delta taken out, the rest
    is uniform and solved by S / d. For p = 1, delta is 1 and the rest is 0.
    """
    if p == 0:  # the constant model explains itself
        return 1.0, 0.0, 0.0
    d, alphas = ss.d, moments.alphas
    delta, a_p1 = (moments.drops[p] / ss.gap, alphas[p + 1]) if p < d else (0.0, 0.0)
    intercept, total = ss.solve(
        alphas[p] - p * ss.alpha1 * delta, d * (a_p1 - p * ss.alpha2 * delta)
    )
    return intercept, total / d + delta, total / d


def beta_indicator_product(
    indices: Iterable[int], d: int, nu: float
) -> TheoryExplanation:
    """Exact population explanation of coefficient * prod_{j in J} 1{w_j in x}
    with unit coefficient, for a document with d distinct words.

    Only |J| and membership matter: all indexed words share one value, all
    others share another. J = empty set yields the constant model
    (intercept 1, all coefficients 0); |J| = 1 yields exactly 1 for the
    indexed word and 0 elsewhere, at every bandwidth where c_d > 0.
    """
    member = frozenset(int(i) for i in indices)
    if any(i < 0 or i >= d for i in member):
        raise ValueError("indicator indices must lie in 0..d-1")
    p = len(member)
    ss, moments = _covariance_and_moments(d, nu, p + 1)
    intercept, coef_in, coef_out = _indicator_parts(p, ss, moments)
    coefficients = tuple(coef_in if j in member else coef_out for j in range(d))
    return TheoryExplanation(
        intercept=intercept,
        coefficients=coefficients,
        provenance=EXACT_CLOSED_FORM,
    )


def beta_tree(tree, local: LocalDictionary, nu: float) -> TheoryExplanation:
    """Exact population explanation of a tree: signed sum over its indicator
    terms (the explanation map is linear in the model).

    The covariance and the alpha moments depend only on (d, nu), so they
    come from one kernel evaluation per call, shared by every term.
    Terms naming a word outside the local dictionary vanish on every
    perturbed sample and contribute nothing.
    """
    d = local.d
    terms = [
        (term.coefficient, [local.index_of(w) for w in term.words])
        for term in tree.terms
        if all(w in local for w in term.words)
    ]
    p_top = max((len(member) for _, member in terms), default=0)
    ss, moments = _covariance_and_moments(d, nu, p_top + 1)
    intercept = 0.0
    coefficients = np.zeros(d)
    for coefficient, member in terms:
        part_intercept, coef_in, coef_out = _indicator_parts(len(member), ss, moments)
        part = np.full(d, coef_out)
        part[member] = coef_in
        intercept += coefficient * part_intercept
        coefficients += coefficient * part
    return TheoryExplanation(
        intercept=intercept,
        coefficients=tuple(coefficients.tolist()),
        provenance=EXACT_CLOSED_FORM,
        words=local.words,
    )


@dataclass(frozen=True)
class OmegaWeights:
    """Normalized squared TF-IDF mass of each distinct word of a document.

    The mass removed together with a word subset drives how the embedding
    of the survivor is rescaled.
    """

    words: tuple[str, ...]
    values: tuple[float, ...]

    @property
    def d(self) -> int:
        return len(self.values)

    def array(self) -> np.ndarray:
        return np.array(self.values)


def omega_weights(document: Document, idf: IdfTable) -> OmegaWeights:
    """Per-word share of the squared TF-IDF mass; positive, sums to 1."""
    if not document.tokens:
        raise ValueError("cannot compute mass weights of an empty document")
    local = local_dictionary(document)
    squared = tfidf_weights(local, idf) ** 2
    total = squared.sum()
    return OmegaWeights(
        words=local.words, values=tuple(float(v) for v in squared / total)
    )


def _kept_pair(kept, d: int) -> tuple[int, int | None]:
    """The surviving word and, for a pair, the second one (else None),
    checked against the dictionary size d."""
    if isinstance(kept, (int, np.integer)):
        kept = (kept,)
    pair = tuple(int(i) for i in kept)
    if len(pair) not in (1, 2) or len(set(pair)) < len(pair):
        raise ValueError("kept must be one index or a pair of distinct indices")
    if not all(0 <= i < d for i in pair):
        raise ValueError("kept index out of range")
    if len(pair) == 1:
        if d < 2:
            raise ValueError("single-survivor expectation requires d >= 2")
        return pair[0], None
    if d < 3:
        raise ValueError("degenerate (d - 2 = 0): pair expectation requires d >= 3")
    return pair[0], pair[1]


def _removed_mass_means(omega: OmegaWeights) -> tuple[np.ndarray, np.ndarray]:
    """Exact expectation of the removed mass given that word j survives, for
    every j, and given that words j and k survive, for every pair (zero
    diagonal; all zero when d < 3).

    Single survivor j:   (1 - w_j) (d + 1) / (3 (d - 1)).
    Surviving pair j, k: (1 - w_j - w_k) (d + 1) / (4 (d - 2)), evaluated
    with j < k and mirrored.
    """
    d = omega.d
    w = omega.array()
    single = (1.0 - w) * (d + 1) / (3.0 * (d - 1))
    if d < 3:
        return single, np.zeros((d, d))
    upper = np.triu((1.0 - w[:, None] - w) * (d + 1) / (4.0 * (d - 2)), 1)
    return single, upper + upper.T


def expected_removed_mass(omega: OmegaWeights, kept) -> float:
    """Exact expectation of the removed mass given that the kept word (or
    pair of words) survives; see `_removed_mass_means`."""
    j, k = _kept_pair(kept, omega.d)
    single, pair = _removed_mass_means(omega)
    return float(single[j] if k is None else pair[j, k])


def _conditional_size_pmf(d: int, pair: bool) -> np.ndarray:
    """Distribution of the deletion count given one (or two) fixed survivors.

    Index s runs 0..d; entry 0 is zero since at least one word is removed.
    """
    pmf = np.zeros(d + 1)
    s = np.arange(1, d + 1, dtype=float)
    if pair:
        pmf[1:] = 3.0 * (d - s) * (d - s - 1) / (d * (d - 1) * (d - 2))
    else:
        pmf[1:] = 2.0 * (d - s) / (d * (d - 1))
    return np.clip(pmf, 0.0, None)


def _subset_weights(d: int, pair: bool) -> np.ndarray:
    """Probability of one particular removed set of each size s = 0..d given
    one (or two) fixed survivors: the size pmf over C(m, s), where m words
    may go."""
    pmf = _conditional_size_pmf(d, pair)
    m = d - 2 if pair else d - 1
    return np.array([pmf[s] / math.comb(m, s) if s <= m else 0.0 for s in range(d + 1)])


# Exact enumeration visits the survivor sets in blocks of this many rows,
# which keeps each of its temporaries under 1 MB at d = ENUMERATION_LIMIT.
_ENUMERATION_BLOCK = 4096


def _renormalization_expectations(
    omega: OmegaWeights, exact: bool, *, pairs: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Expected renormalization factor (kept mass)^(-1/2) given that word j
    survives, for every j (shape (d,)), and given that words j and k
    survive, for every pair (shape (d, d), zero diagonal; pairs need d >= 3;
    None unless `pairs`).

    exact=True enumerates every survivor set once: with keep the 0/1 row of
    a set, h_1(s) and h_2(s) its probability given one or two fixed
    survivors (s words removed) and f its factor, E_single = keep^T (h_1 f)
    and E_pair = keep^T diag(h_2 f) keep. exact=False swaps the expectation
    inside: (1 - expected removed mass)^(-1/2).
    """
    d = omega.d
    if not exact:
        single, pair = _removed_mass_means(omega)
        e_pair = None
        if pairs:
            e_pair = 1.0 / np.sqrt(1.0 - pair)
            np.fill_diagonal(e_pair, 0.0)
        return 1.0 / np.sqrt(1.0 - single), e_pair
    if d > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration too large (d = {d} > {ENUMERATION_LIMIT}); "
            "use method='approx' or method='mc'"
        )
    w = omega.array()
    h_single = _subset_weights(d, pair=False)
    h_pair = _subset_weights(d, pair=True) if d >= 3 else np.zeros(d + 1)
    bits = np.arange(d)
    e_single = np.zeros(d)
    e_pair = np.zeros((d, d)) if pairs else None
    # Bit i of code c keeps word i. Code 0 keeps nothing, which has
    # probability 0 given any survivor, so the walk starts at 1.
    n_sets = 2**d
    for start in range(1, n_sets, _ENUMERATION_BLOCK):
        codes = np.arange(start, min(start + _ENUMERATION_BLOCK, n_sets))
        keep = ((codes[:, None] >> bits) & 1).astype(float)
        factor = 1.0 / np.sqrt(keep @ w)
        removed = d - keep.sum(axis=1).astype(np.intp)
        e_single += (h_single[removed] * factor) @ keep
        if pairs:
            e_pair += (keep * (h_pair[removed] * factor)[:, None]).T @ keep
    if pairs:
        np.fill_diagonal(e_pair, 0.0)
    return e_single, e_pair


@dataclass(frozen=True)
class RenormEstimate:
    """Conditional expectation of the survivor renormalization factor
    (1 - removed mass)^(-1/2), with a standard error when Monte Carlo."""

    value: float
    method: str
    stderr: float | None = None


def e_term(
    omega: OmegaWeights,
    j: int,
    k: int | None = None,
    *,
    method: str = "exact",
    n_mc: int = 200_000,
    seed=0,
) -> RenormEstimate:
    """Expected renormalization factor given that word j (and word k, when
    given) survives the deletion.

    method="exact" enumerates every survivor set (only allowed for
    d <= 20); "approx" swaps the expectation inside, returning
    (1 - expected removed mass)^(-1/2), a deliberate underestimate (the
    map is strictly convex, so by Jensen the exact value lies above it);
    both read one entry of `_renormalization_expectations`. "mc" samples
    the conditional law directly and reports a standard error.
    With near-uniform masses and large d the exact values tend to 4/3 (one
    survivor) and 6/5 (a pair), while "approx" tends to the constants
    SIMPLIFIED_E_SINGLE and SIMPLIFIED_E_PAIR (about 1.2247 and 1.1547).
    """
    d = omega.d
    jj, kk = _kept_pair(j if k is None else (j, k), d)

    if method in ("exact", "approx"):
        e_single, e_pair = _renormalization_expectations(
            omega, method == "exact", pairs=kk is not None
        )
        value = e_single[jj] if kk is None else e_pair[jj, kk]
        return RenormEstimate(value=float(value), method=method)

    if method == "mc":
        if n_mc < 2:
            raise ValueError("need at least two Monte Carlo samples")
        rest = np.array(
            [w for i, w in enumerate(omega.values) if i not in (jj, kk)], dtype=float
        )
        pmf = _conditional_size_pmf(d, kk is not None)
        rng = np.random.default_rng(seed)
        sizes = rng.choice(d + 1, size=n_mc, p=pmf / pmf.sum())
        ranks = rng.random((n_mc, len(rest))).argsort(axis=1).argsort(axis=1)
        removed_mass = ((ranks < sizes[:, None]) * rest).sum(axis=1)
        draws = 1.0 / np.sqrt(1.0 - removed_mass)
        value = float(draws.mean())
        stderr = float(draws.std(ddof=1) / math.sqrt(n_mc))
        return RenormEstimate(value=value, method=method, stderr=stderr)

    raise ValueError(f"unknown method {method!r}; expected exact, approx or mc")


# Large-bandwidth constants of the simplified linear-model prediction,
# kept as the expressions they come from: with the removed mass replaced
# by its limiting conditional means 1/3 (one survivor) and 1/4 (a pair),
# the renormalization factors become (1 - 1/3)^(-1/2) and (1 - 1/4)^(-1/2).
# These are the swapped-expectation values, not the exact expectations:
# with uniform masses the removed mass has conditional density 2(1 - x)
# (one survivor) or 3(1 - x)^2 (a pair), which gives the exact large-d
# limits int 2(1 - x)^(1/2) dx = 4/3 and int 3(1 - x)^(3/2) dx = 6/5.
SIMPLIFIED_E_SINGLE = 1.0 / math.sqrt(1.0 - 1.0 / 3.0)
SIMPLIFIED_E_PAIR = 1.0 / math.sqrt(1.0 - 1.0 / 4.0)
SIMPLIFIED_LINEAR_CONSTANT = 3.0 * SIMPLIFIED_E_SINGLE - 2.0 * SIMPLIFIED_E_PAIR
SIMPLIFIED_LINEAR_CONSTANT_ROUNDED = 1.36
SIMPLIFIED_LINEAR_INTERCEPT_CONSTANT = 2.0 * SIMPLIFIED_E_SINGLE - 2.0 * SIMPLIFIED_E_PAIR


def beta_linear(
    coefficients,
    document: Document,
    idf: IdfTable,
    *,
    mode: str = "simplified",
) -> TheoryExplanation:
    """Large-bandwidth population explanation of a linear model.

    `coefficients` maps words to their linear weights (a LinearModel is
    accepted too). Words outside the document contribute nothing.

    mode="simplified" applies the flat constant: coefficient j becomes
    (3 E - 2 E') * lambda_j * phi_j with E, E' the limiting
    renormalization factors above (about 1.36). mode="full" keeps the
    per-word conditional renormalization expectations, enumerated exactly
    for d <= ENUMERATION_LIMIT and by the swapped expectation above it
    (`_renormalization_expectations`), and solves the infinite-bandwidth
    covariance (psi is 1 at nu = inf) against the expected responses,
    including the intercept.
    """
    lam_map = getattr(coefficients, "coefficients", coefficients)
    if not document.tokens:
        raise ValueError("cannot explain an empty document")
    local = local_dictionary(document)
    d = local.d
    if d < 3:
        raise ClosedFormDomainError(
            "out of closed-form domain: linear predictions require d >= 3"
        )
    weights = tfidf_weights(local, idf)
    phi = weights / math.sqrt(float(weights @ weights))
    lam = np.zeros(d)
    for w, c in lam_map.items():
        if w in local:
            lam[local.index_of(w)] = float(c)
    signal = lam * phi

    if mode == "simplified":
        coeffs = SIMPLIFIED_LINEAR_CONSTANT * signal
        intercept = SIMPLIFIED_LINEAR_INTERCEPT_CONSTANT * float(signal.sum())
        return TheoryExplanation(
            intercept=intercept,
            coefficients=tuple(float(c) for c in coeffs),
            provenance=LARGE_BANDWIDTH,
            words=local.words,
            notes={
                "mode": "simplified",
                "constant": SIMPLIFIED_LINEAR_CONSTANT,
                "constant_rounded": SIMPLIFIED_LINEAR_CONSTANT_ROUNDED,
                "constant_terms": (
                    3.0,
                    SIMPLIFIED_E_SINGLE,
                    -2.0,
                    SIMPLIFIED_E_PAIR,
                ),
            },
        )
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}; expected 'simplified' or 'full'")

    exact = d <= ENUMERATION_LIMIT
    e_single, e_pair = _renormalization_expectations(omega_weights(document, idf), exact)

    # Expected responses in the infinite-bandwidth limit. Source word j
    # contributes to coordinate 0 and j through its single-survivor factor
    # and to every other coordinate through the pair factor (the e_pair
    # diagonal is zero, so the matrix product skips j = k).
    single_factor = (d - 1) / (2.0 * d)
    pair_factor = (d - 2) / (3.0 * d)
    gamma0 = float(np.sum(signal * single_factor * e_single))
    gamma = pair_factor * (e_pair @ signal) + single_factor * e_single * signal

    ss = sigma_set(d, math.inf)
    intercept, gamma_sum = ss.solve(gamma0, float(gamma.sum()))
    coeffs = (gamma - ss.alpha1 * intercept - ss.alpha2 * gamma_sum) / ss.gap
    return TheoryExplanation(
        intercept=float(intercept),
        coefficients=tuple(float(c) for c in coeffs),
        provenance=LARGE_BANDWIDTH,
        words=local.words,
        notes={"mode": "full", "e_method": "exact" if exact else "approx"},
    )


def _mc_chunks(n_total: int, chunk: int = 65_536):
    done = 0
    while done < n_total:
        size = min(chunk, n_total - done)
        yield size
        done += size


def beta_general_mc(
    model: Model,
    document: Document,
    idf: IdfTable,
    *,
    nu: float = 0.25,
    n_mc: int = 200_000,
    seed=0,
) -> TheoryExplanation:
    """Monte Carlo estimate of the population explanation of any bounded
    model, with per-coordinate standard errors.

    Estimates the expected weighted responses by sampling and solves the
    exact covariance against them. This is the universal oracle: it works
    for every model in scope, at any bandwidth the covariance solve resolves.
    """
    if not document.tokens:
        raise ValueError("cannot explain an empty document")
    if n_mc < 2:
        raise ValueError("need at least two Monte Carlo samples")
    local = local_dictionary(document)
    d = local.d
    ss = sigma_set(d, nu)
    w_vec = tfidf_weights(local, idf)

    # Sample i solves the right-hand side t_i [1; z_i] into (c_i, S_i): it
    # contributes c_i to the intercept and a_i + b z_ij t_i to coefficient j,
    # with a_i = -(a1 c_i + a2 S_i) / gap and b = 1 / gap. z is binary, so
    # the column sums and sums of squares of those contributions, which give
    # the standard errors, come from three products with z, and no (chunk, d)
    # float array is formed. The mean is one solve of the averaged right-hand
    # side (the sums of t, t * kept and t z), so it carries the rounding of
    # one solve rather than the average of n_mc solves' rounding.
    b = 1.0 / ss.gap
    kernel_table = _kernel_table(d, nu)
    rng = np.random.default_rng(seed)
    total = np.zeros(d + 1)
    total_sq = np.zeros(d + 1)
    rhs = np.zeros(d + 2)
    for size in _mc_chunks(n_mc):
        sizes, z = draw_feature_matrix(rng, size, d)
        kernel = kernel_table[sizes]
        responses = model.evaluate_matrix(renormalized_tfidf(z, w_vec), local.words)

        t = kernel * responses
        kept = z.sum(axis=1)
        c, coefficient_sum = ss.solve(t, t * kept)
        a = -(ss.alpha1 * c + ss.alpha2 * coefficient_sum) / ss.gap
        t_z, at_z, tt_z = np.stack([t, a * t, t * t]) @ z
        total[0] += c.sum()
        total_sq[0] += c @ c
        total[1:] += a.sum() + b * t_z
        total_sq[1:] += a @ a + 2.0 * b * at_z + b * b * tt_z
        rhs += [t.sum(), t @ kept, *t_z]

    rhs /= n_mc
    intercept, coefficient_sum = ss.solve(rhs[0], rhs[1])
    coefficients = (rhs[2:] - ss.alpha1 * intercept - ss.alpha2 * coefficient_sum) / ss.gap
    per_sample_mean = total / n_mc
    variance = np.maximum(total_sq / n_mc - per_sample_mean**2, 0.0) * n_mc / (n_mc - 1)
    stderr = np.sqrt(variance / n_mc)
    return TheoryExplanation(
        intercept=float(intercept),
        coefficients=tuple(float(v) for v in coefficients),
        provenance=MONTE_CARLO,
        words=local.words,
        coefficient_stderr=tuple(float(v) for v in stderr[1:]),
        intercept_stderr=float(stderr[0]),
        notes={"nu": nu, "n_mc": n_mc},
    )


def population_explanation(
    model: Model,
    document: Document,
    idf: IdfTable,
    *,
    nu: float,
    linear_mode: str = "simplified",
    n_mc: int = 200_000,
    seed=0,
    monte_carlo: bool = False,
) -> TheoryExplanation:
    """The population explanation of any model, by the best available route.

    Models built from indicator products (indicators, trees) get the exact
    closed form `beta_tree`; linear models get the large-bandwidth
    `beta_linear` in `linear_mode`; every other model, and every model when
    `monte_carlo` is set, gets the Monte Carlo oracle `beta_general_mc`
    with `n_mc` samples. `seed` feeds whichever route draws randomness.
    """
    if not monte_carlo:
        terms = indicator_terms(model)
        if terms is not None:
            return beta_tree(TreeModel(terms=terms), local_dictionary(document), nu)
        if isinstance(model, LinearModel):
            return beta_linear(model, document, idf, mode=linear_mode)
    return beta_general_mc(model, document, idf, nu=nu, n_mc=n_mc, seed=seed)
