"""Closed-form infinite-sample explanations and their building blocks.

As the number of perturbed samples grows, the surrogate coefficients
concentrate around a population vector determined by the kernel moment
sequence alpha_p = E[weight * z_1 ... z_p], the weighted feature covariance
(whose block pattern reduces every solve to a 2x2 system; see SigmaSet), and
the expected weighted responses. This module computes those pieces exactly,
specializes them to indicator products and trees and, by TF-IDF mass
classes, to linear models (`beta_linear`), enumerates them for any model at
d <= ENUMERATION_LIMIT (`beta_enumerated`), and provides `beta_general_mc`,
the package's one Monte Carlo oracle, for the rest: it samples by the
sampler's own code (`sampling._drawn_groups`), as `explain` does.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import Document, IdfTable, LocalDictionary, local_dictionary, tfidf_weights
from .models import CombinedModel, Model, _split, _weight_vector
from .sampling import _drawn_groups, _float_blocks
from .sampling import _kernel_table, _responses, renormalized_tfidf

EXACT_CLOSED_FORM = "exact-closed-form"
EXACT_ENUMERATION = "exact-enumeration"
LARGE_BANDWIDTH = "large-bandwidth-approx"
MONTE_CARLO = "monte-carlo"

# `beta_enumerated` walks all 2^d removal sets of the local dictionary, so
# it serves documents of at most this many distinct words.
ENUMERATION_LIMIT = 20

# A covariance solve whose condition number times the machine epsilon
# exceeds this could be off by more than it, so it raises instead.
SOLVE_TOLERANCE = 1e-9
_EPS = float(np.finfo(float).eps)


class ClosedFormDomainError(ValueError):
    """Raised where the closed forms need d >= 2 and the input is smaller, or
    where the bandwidth is so narrow that they cannot reach SOLVE_TOLERANCE."""


class _NarrowBandwidth(ClosedFormDomainError):
    """A ClosedFormDomainError that nu causes, not the document."""


@dataclass(frozen=True)
class TheoryExplanation:
    """Population (infinite-sample) explanation with provenance.

    `provenance` records how the values were obtained: exact closed form,
    exact enumeration, the large-bandwidth approximation, or Monte Carlo
    (which also carries standard errors).
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


def alpha_values(d: int, nu: float, p_max: int) -> list[float]:
    """alpha_0 .. alpha_{p_max} from one kernel evaluation: alpha_p is the
    expected kernel weight times p distinct presence indicators, the exact
    finite sum (1/d) sum_s prod_{k<p} (d-s-k)/(d-k) * psi(s/d) over the
    deletion count s, accumulated exactly rounded."""
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
    for s = 1..d: row 0 is the sampler's `_kernel_table` without its s = 0
    entry, and a running product
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
    table[0] = _kernel_table(d, nu)[1:]
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
    if not nu > 0:
        raise ValueError("bandwidth nu must be positive")
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
            raise _NarrowBandwidth(
                f"out of closed-form domain: at d={self.d}, nu={self.nu} the "
                f"covariance condition number {self.condition:.3g} is too large"
            )
        d, a1 = self.d, self.alpha1
        b0 = ((self.gap + d * self.alpha2) * g0 - a1 * total) / self.c_d
        return b0, (self.alpha0 * total - d * a1 * g0) / self.c_d

    def explain(self, g0, g, total):
        """Intercept and coefficient array solving Sigma [b0; beta] = [g0; g],
        where `total` is sum_j g_j (as the caller accumulated it)."""
        b0, coefficient_sum = self.solve(g0, total)
        return b0, (g - self.alpha1 * b0 - self.alpha2 * coefficient_sum) / self.gap


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
        raise _NarrowBandwidth(
            f"out of closed-form domain: at d={d}, nu={nu} the covariance "
            "normalizers underflow to 0"
        )
    covariance = SigmaSet(
        d=d, nu=nu, c_d=c_d, alpha0=a0, alpha1=a1, alpha2=a2, gap=gap,
        condition=d * (a0 + a1) ** 2 / c_d,
    )
    return covariance, moments


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
    member = sorted({int(i) for i in indices})
    if any(i < 0 or i >= d for i in member):
        raise ValueError("indicator indices must lie in 0..d-1")
    intercept, coefficients = _indicator_sum([(1.0, member)], d, nu)
    return TheoryExplanation(
        intercept=intercept,
        coefficients=tuple(coefficients.tolist()),
        provenance=EXACT_CLOSED_FORM,
    )


def beta_tree(tree, local: LocalDictionary, nu: float) -> TheoryExplanation:
    """Exact population explanation of a tree: signed sum over its indicator
    terms (the explanation map is linear in the model).

    Terms naming a word outside the local dictionary vanish on every
    perturbed sample and contribute nothing.
    """
    terms = [
        (term.coefficient, [local.index_of(w) for w in term.words])
        for term in tree.terms
        if all(w in local for w in term.words)
    ]
    intercept, coefficients = _indicator_sum(terms, local.d, nu)
    return TheoryExplanation(
        intercept=intercept,
        coefficients=tuple(coefficients.tolist()),
        provenance=EXACT_CLOSED_FORM,
        words=local.words,
    )


def _indicator_sum(terms, d: int, nu: float) -> tuple[float, np.ndarray]:
    """Intercept and coefficients of sum_i c_i prod_{j in J_i} 1{w_j in x}
    over `terms`, the (c_i, J_i) pairs with J_i a list of word indices.

    The covariance and the alpha moments depend only on (d, nu), so they
    come from one kernel evaluation, shared by every term.
    """
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
    return intercept, coefficients


def _single_mass_mean(omega_j, d: int):
    """Exact expectation of the removed mass given that word j survives:
    (1 - w_j) (d + 1) / (3 (d - 1)), for a share w_j or an array of them."""
    return (1.0 - omega_j) * (d + 1) / (3.0 * (d - 1))


def _pair_mass_mean(omega_j, omega_k, d: int):
    """Exact expectation of the removed mass given that words j and k
    survive: (1 - w_j - w_k) (d + 1) / (4 (d - 2)), in that operand order;
    w_j and w_k broadcast."""
    return (1.0 - omega_j - omega_k) * (d + 1) / (4.0 * (d - 2))


def e_term(omega: np.ndarray, j: int, k: int | None = None) -> float:
    """The renormalization factor (1 - removed mass)^(-1/2) given that word
    j (and word k, when given) survives, with the removed mass replaced by
    its exact conditional mean (`_single_mass_mean`, `_pair_mass_mean`);
    `omega` holds the mass shares (m_j^2 / sum_k m_k^2 for the TF-IDF
    masses m). The map is strictly convex, so by Jensen this underestimates
    the exact expectation, whose near-uniform large-d limits are 4/3 and 6/5
    where this tends to the paper's SIMPLIFIED_E_SINGLE and SIMPLIFIED_E_PAIR
    (about 1.2247 and 1.1547). O(1); either order of a pair gives one value.
    """
    d = len(omega)
    if j == k:
        raise ValueError("kept must be one index or a pair of distinct indices")
    if not all(0 <= i < d for i in ((j,) if k is None else (j, k))):
        raise ValueError("kept index out of range")
    if k is None and d < 2:
        raise ValueError("single-survivor expectation requires d >= 2")
    if k is not None and d < 3:
        raise ValueError("degenerate (d - 2 = 0): pair expectation requires d >= 3")
    if k is None:
        mass = _single_mass_mean(omega[j], d)
    else:
        mass = _pair_mass_mean(omega[min(j, k)], omega[max(j, k)], d)
    return float(1.0 / np.sqrt(1.0 - mass))


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
    mode: str = "full",
    nu: float = 0.25,
) -> TheoryExplanation:
    """Population explanation of a linear model.

    `coefficients` maps words to their linear weights (a LinearModel is
    accepted too). Words outside the document contribute nothing.

    mode="full", the default, is exact at bandwidth `nu` (`_linear_full`)
    for every d >= 2 whose TF-IDF mass classes give at most
    CLASS_GRID_BUDGET compositions; a larger grid raises
    ClosedFormDomainError.
    mode="simplified" is the paper's large-bandwidth prediction, the flat
    constant: coefficient j becomes (3 E - 2 E') * lambda_j * phi_j with
    E, E' the limiting renormalization factors above (about 1.36). It
    ignores `nu` and requires d >= 3.
    """
    lam_map = getattr(coefficients, "coefficients", coefficients)
    if not nu > 0:
        raise ValueError("bandwidth nu must be positive")
    if mode not in ("simplified", "full"):
        raise ValueError(f"unknown mode {mode!r}; expected 'simplified' or 'full'")
    if not document.tokens:
        raise ValueError("cannot explain an empty document")
    local = local_dictionary(document)
    d = local.d
    masses = tfidf_weights(local, idf)
    lam = _weight_vector(lam_map, local.words)
    if mode == "full":
        intercept, coeffs = _linear_full(lam * masses, masses, nu)
        provenance, notes = EXACT_CLOSED_FORM, {"mode": "full"}
    elif d < 3:
        raise ClosedFormDomainError(
            "out of closed-form domain: linear predictions require d >= 3"
        )
    else:
        signal = lam * renormalized_tfidf(np.ones((1, d), np.int8), masses)[0]
        coeffs = SIMPLIFIED_LINEAR_CONSTANT * signal
        intercept = SIMPLIFIED_LINEAR_INTERCEPT_CONSTANT * float(signal.sum())
        provenance, notes = LARGE_BANDWIDTH, {
            "mode": "simplified",
            "constant": SIMPLIFIED_LINEAR_CONSTANT,
            "constant_rounded": SIMPLIFIED_LINEAR_CONSTANT_ROUNDED,
            "constant_terms": (3.0, SIMPLIFIED_E_SINGLE, -2.0, SIMPLIFIED_E_PAIR),
        }
    return TheoryExplanation(
        intercept=float(intercept),
        coefficients=tuple(coeffs.tolist()),
        provenance=provenance,
        words=local.words,
        notes=notes,
    )


# `_linear_full` sums over the prod_c (n_c + 1) kept-count compositions of a
# document's n_c-word mass classes, and declines above this many. At the budget,
# 15 one-word classes (the most cells) take 13 ms on 2 CPUs and 12 MB at peak.
CLASS_GRID_BUDGET = 2**15


class _ClassGridTooLarge(ClosedFormDomainError):
    """The mass-class grid of a document exceeds CLASS_GRID_BUDGET."""


def _linear_full(signal: np.ndarray, masses: np.ndarray, nu: float):
    """Exact intercept and coefficients at bandwidth `nu` of the linear
    model with response sum_k signal_k z_k / sqrt(sum_k m_k^2 z_k), where
    signal_k = lambda_k m_k for the TF-IDF masses m.

    Words of one mass m_c form a class of n_c words. The removals that keep
    k_c words of each class (s = d - sum_c k_c >= 1 removed) are
    prod_c C(n_c, k_c) sets, each drawn with probability 1 / (d C(d, s)),
    weighted psi(s/d) and keeping squared mass M = sum_c k_c m_c^2; B(k) is
    their total probability times psi / sqrt(M). Given k, a word of class c
    is kept with chance k_c / n_c, two distinct words of classes c and e
    with chance k_c k_e / (n_c n_e), or k_c (k_c - 1) / (n_c (n_c - 1)) if
    c = e. Summed against B over the grid, these give A_c = E[psi z_j / sqrt(M)]
    and A_ce = E[psi z_j z_k / sqrt(M)], so gamma0 = sum_k signal_k A_c(k)
    and gamma_j = signal_j A_c(j) + sum_{k != j} signal_k A_c(j)c(k).
    """
    d = len(masses)
    values, cls, sizes = np.unique(masses, return_inverse=True, return_counts=True)
    points = math.prod((sizes + 1).tolist())
    if points > CLASS_GRID_BUDGET:
        raise _ClassGridTooLarge(
            f"out of closed-form domain: {points} mass-class compositions, over {CLASS_GRID_BUDGET}"
        )
    ss, moments = _covariance_and_moments(d, nu, 2)
    log_fact = np.array(list(map(math.lgamma, range(1, d + 2))))  # log k!, k = 0..d
    # The compositions in np.indices order, less none kept (response 0) and all kept (never drawn).
    kept = np.indices(tuple(sizes + 1)).reshape(len(sizes), -1).T[1:-1]
    total = kept.sum(axis=1)
    per_class = [log_fact[n] - log_fact[: n + 1] - log_fact[n::-1] for n in sizes.tolist()]
    log_count = functools.reduce(np.add.outer, per_class).ravel()[1:-1]  # log prod_c C(n_c, k_c)
    log_count -= log_fact[d] - log_fact[total] - log_fact[d - total]
    weight = moments.kernel[d - total - 1] * np.exp(log_count) / (d * np.sqrt(kept @ values**2))
    share = kept * (weight[:, None] / sizes)  # B(k) k_c / n_c
    single = share.sum(axis=0)
    pair = share.T @ (kept / sizes)
    np.fill_diagonal(pair, np.einsum("pc,pc->c", share, kept - 1) / np.maximum(sizes - 1, 1))
    by_class = np.bincount(cls, weights=signal, minlength=len(sizes))
    gamma = signal * (single - np.diag(pair))[cls] + (pair @ by_class)[cls]
    return ss.explain(single @ by_class, gamma, gamma.sum())


# The enumeration walks the removal sets in blocks of 2**_BLOCK_BITS codes
# aligned to the block size, which keeps each of its temporaries under 1 MB
# at d = ENUMERATION_LIMIT.
_BLOCK_BITS = 12


def beta_enumerated(
    model: Model, document: Document, idf: IdfTable, *, nu: float = 0.25
) -> TheoryExplanation:
    """Exact population explanation of any model, by one walk over the
    2^d removal sets of a document with d <= ENUMERATION_LIMIT distinct words.

    A set S with s words removed is drawn with probability 1 / (d C(d, s))
    (s uniform on 1..d, then S uniform among sets of that size) and weighted
    psi(s/d); its response f comes from the sampled path's own `_responses`
    on its presence row, where only custom models are embedded. The expected weighted
    responses gamma0 = sum P psi f and gamma = keep^T (P psi f) are solved
    against the covariance as `beta_general_mc` solves its averaged ones.
    """
    if not document.tokens:
        raise ValueError("cannot explain an empty document")
    local = local_dictionary(document)
    masses = tfidf_weights(local, idf)
    d = local.d
    if d > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration too large (d = {d} > {ENUMERATION_LIMIT})")
    ss = sigma_set(d, nu)
    weight = _kernel_table(d, nu) / [d * math.comb(d, s) for s in range(d + 1)]
    weight[0] = 0.0  # the all-kept set is never drawn
    # Bit i of a code keeps word i. One block holds every setting of the low
    # bits, built once; the high bits are constant across a block.
    low = min(d, _BLOCK_BITS)
    keep = np.zeros((1 << low, d), np.int8)
    keep[:, :low] = (np.arange(1 << low)[:, None] >> np.arange(low)) & 1
    low_removed = d - keep.sum(axis=1)
    high_bits = np.arange(d - low)
    gamma0, gamma = 0.0, np.zeros(d)
    for block in range(1 << (d - low)):
        high = (block >> high_bits) & 1
        keep[:, low:] = high
        responses = _responses(model, keep, local.words, masses)
        t = weight[low_removed - high.sum()] * responses
        gamma0 += t.sum()
        gamma += t @ keep
    intercept, coefficients = ss.explain(gamma0, gamma, gamma.sum())
    return TheoryExplanation(
        intercept=float(intercept),
        coefficients=tuple(coefficients.tolist()),
        provenance=EXACT_ENUMERATION,
        words=local.words,
    )


# Samples per Monte Carlo chunk, whose removal sizes are drawn at once: at
# most _MC_CHUNK rows and _MC_CELLS cells. Its rows are drawn and summed in
# groups of `sampling._MC_GROUP` sampler row blocks.
_MC_CHUNK = 65_536
_MC_CELLS = 2**21


def _mc_chunk_sums(
    model: Model, rng: np.random.Generator, n: int, kernel: np.ndarray,
    local: LocalDictionary, masses: np.ndarray, ss: SigmaSet,
) -> np.ndarray:
    """The Monte Carlo sums of one chunk of n samples: the sums of c, c^2,
    a, a^2, t and t * kept, then the column sums t z, a t z and t^2 z.

    Sample i solves t_i [1; z_i] into c_i and a_i + t_i z_i / gap, where
    (c_i, a_i) is `SigmaSet.explain` with g = 0 and total t_i kept_i. z is
    binary, so the column sums come from three products with z. Each group
    of sizes and presence rows from `_drawn_groups` (drawn on helper
    threads joined before this returns or raises) is answered, then summed
    per `_float_blocks` block while in cache, in order on the caller's
    thread. Only the draws run on the helpers: they spend their time in
    numpy calls that release the GIL, whereas answering and summing make
    many short calls, which on two threads at once mostly wait for each
    other. So the rng stream and every sum are those of one pass over the
    whole chunk, bit for bit, whatever the number of threads. Returning
    frees the chunk's sizes and last group before the next chunk's draw.
    """
    d = local.d
    sums = np.zeros(6 + 3 * d)
    with contextlib.closing(_drawn_groups(rng, n, d)) as groups:
        for sizes, z in groups:
            t = kernel[sizes] * _responses(model, z, local.words, masses)
            kept = d - sizes
            c, a = ss.explain(t, 0.0, t * kept)
            for s, block in _float_blocks(z):
                ti, ai, ci = t[s], a[s], c[s]
                firsts = [ci.sum(), ci @ ci, ai.sum(), ai @ ai, ti.sum(), ti @ kept[s]]
                sums += np.concatenate([firsts, (np.stack([ti, ai * ti, ti * ti]) @ block).ravel()])
            del t, kept, c, a, ti, ai, ci, block  # freed before the next group is drawn
    return sums


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
    Each chunk's removal sizes and presence rows come from
    `sampling._drawn_groups`, as in `draw_feature_matrix`, and are answered
    and summed one cache-sized group at a time (`_mc_chunk_sums`), so no
    (chunk, d) array is formed. When the generator can jump (PCG64, the
    default, or PCG64DXSM), each chunk's groups are drawn by the calling
    thread and one helper per other available CPU; any other generator
    draws them in turn. The groups are answered and summed on the calling
    thread. The result is the same bits either way, at any thread count.
    """
    if not document.tokens:
        raise ValueError("cannot explain an empty document")
    if n_mc < 2:
        raise ValueError("need at least two Monte Carlo samples")
    local = local_dictionary(document)
    d = local.d
    ss = sigma_set(d, nu)

    # One generator stream runs across the chunks and their groups, and
    # math.fsum adds the chunks' sums.
    rng = np.random.default_rng(seed)
    chunk = min(_MC_CHUNK, _MC_CELLS // d)
    masses, kernel = tfidf_weights(local, idf), _kernel_table(d, nu)
    parts = [
        _mc_chunk_sums(model, rng, min(chunk, n_mc - i), kernel, local, masses, ss)
        for i in range(0, n_mc, chunk)
    ]
    sums = np.array([math.fsum(column) for column in np.array(parts).T.tolist()])
    c_sum, cc_sum, a_sum, aa_sum, t_sum, tk_sum = sums[:6]
    t_z, at_z, tt_z = sums[6:].reshape(3, d)
    # Sample i contributes c_i to the intercept and a_i + b z_ij t_i to
    # coefficient j, with b = 1 / gap. The mean is one solve of the averaged
    # right-hand side (the sums of t, t * kept and t z), so it carries the
    # rounding of one solve rather than the average of n_mc solves' rounding.
    b = 1.0 / ss.gap
    total = np.concatenate([[c_sum], a_sum + b * t_z])
    total_sq = np.concatenate([[cc_sum], aa_sum + 2.0 * b * at_z + b * b * tt_z])
    intercept, coefficients = ss.explain(t_sum / n_mc, t_z / n_mc, tk_sum / n_mc)
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
    n_mc: int = 200_000,
    seed=0,
) -> TheoryExplanation:
    """The population explanation of any model, by the route the model picks.

    The explanation is linear in the model, so it is the sum of those of
    the parts of `_split(model)`: the tree's exact `beta_tree`; the linear
    part's exact `beta_linear` where its grid fits CLASS_GRID_BUDGET; and
    one explanation of the rest, which the linear part joins when its grid
    does not fit. The rest, or the whole model when no part has a closed
    form, takes `beta_enumerated` at d <= ENUMERATION_LIMIT, else the oracle
    `beta_general_mc` with `n_mc` samples from `seed`. A combination's
    `notes["parts"]` names the route of each of its at most three parts.
    """
    local = local_dictionary(document)

    def fallback(m: Model):
        if local.d <= ENUMERATION_LIMIT:
            return "beta_enumerated", beta_enumerated(m, document, idf, nu=nu)
        return "beta_general_mc", beta_general_mc(m, document, idf, nu=nu, n_mc=n_mc, seed=seed)

    tree, linear, rest = _split(model)
    combined = isinstance(model, CombinedModel)
    parts = [] if tree is None else [("beta_tree", beta_tree(tree, local, nu))]
    if linear is not None:
        try:
            parts.append(("beta_linear", beta_linear(linear, document, idf, mode="full", nu=nu)))
        except _ClassGridTooLarge:
            rest += ((1.0, linear),)
    if not parts:
        return fallback(model)[1]
    if rest:
        parts.append(fallback(CombinedModel(parts=rest)))
    if not combined:
        return parts[0][1]
    total = np.zeros(local.d + 1)
    for _, part in parts:
        total += [part.intercept, *part.coefficients]
    # The closed-form parts come first, so the last part (the remainder, if
    # any) is the weakest: it gives the sum its provenance and standard errors.
    return replace(
        parts[-1][1], intercept=float(total[0]), coefficients=tuple(total[1:].tolist()),
        notes={"parts": [name for name, _ in parts]},
    )
