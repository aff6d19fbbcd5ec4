"""Reference implementations the tests compare the package against.

None of these runs on a production path: they are the one-shot sampler,
the Monte Carlo oracle drawn and answered one whole chunk at a time, the
dense covariance and its entry-by-entry inverse, raw Monte Carlo
estimates of the kernel moments and of the conditional renormalization
expectations, the exact conditional expectations by enumeration, and the
large-bandwidth linear explanation assembled from them, each computed
independently of the structured forms they check; and the document
embedding phi and the mass shares omega that the tests feed them.
"""

import math

import numpy as np

from textlime.corpus import local_dictionary, tfidf_weights
import textlime.theory as theory
from textlime.sampling import (
    _float_blocks, _responses, draw_feature_matrix, psi, renormalized_tfidf, sample_batch,
)
from textlime.theory import ClosedFormDomainError, alpha_values, sigma_set

# The enumeration walks the survivor sets in blocks of this many rows.
_BLOCK = 4096


def normalized_tfidf(doc, idf) -> np.ndarray:
    """The embedding phi of a document over `local_dictionary(doc).words`:
    the all-kept row of `renormalized_tfidf`. An empty document gives a
    length-0 array."""
    masses = tfidf_weights(local_dictionary(doc), idf)
    return renormalized_tfidf(np.ones((1, len(masses)), np.int8), masses)[0]


def omega_weights(doc, idf) -> np.ndarray:
    """Per-word share of the squared TF-IDF mass, m_j^2 / sum_k m_k^2, in
    local-dictionary order; positive, sums to 1."""
    if not doc.tokens:
        raise ValueError("cannot compute mass weights of an empty document")
    squared = tfidf_weights(local_dictionary(doc), idf) ** 2
    return squared / squared.sum()


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


def one_shot_feature_matrix(rng, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The sort-based sampler drawn in one piece: n sizes, then all n x d
    keys at once, one sorted copy, and the cut. `draw_feature_matrix` draws
    the same keys one row block at a time and must match it bit for bit."""
    sizes = rng.integers(1, d + 1, size=n)
    keys = rng.random((n, d))
    ordered = np.sort(keys, axis=1)
    cut = ordered[np.arange(n), sizes - 1]
    return sizes, (keys > cut[:, None]).view(np.int8)


def whole_chunk_mc(model, document, idf, nu: float, n_mc: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """`beta_general_mc`'s intercept-first means and standard errors, by the
    procedure it streams: each chunk is one `sample_batch`, answered by one
    `_responses` call over all its rows, whose sums are then taken per
    `_float_blocks` block of its presence rows. The streamed oracle must
    match it bit for bit."""
    local = local_dictionary(document)
    d = local.d
    ss = sigma_set(d, nu)
    masses = tfidf_weights(local, idf)
    rng = np.random.default_rng(seed)
    chunk = min(theory._MC_CHUNK, theory._MC_CELLS // d)
    parts = []
    for i in range(0, n_mc, chunk):
        batch = sample_batch(document, local, min(chunk, n_mc - i), nu, rng)
        t = batch.weights * _responses(model, batch.z, local.words, masses)
        kept = d - batch.sizes
        c, a = ss.explain(t, 0.0, t * kept)
        sums = np.zeros(6 + 3 * d)
        for s, block in _float_blocks(batch.z):
            ti, ai, ci = t[s], a[s], c[s]
            sums[:6] += [ci.sum(), ci @ ci, ai.sum(), ai @ ai, ti.sum(), ti @ kept[s]]
            sums[6:] += (np.stack([ti, ai * ti, ti * ti]) @ block).ravel()
        parts.append(sums)
    sums = np.array([math.fsum(column) for column in np.array(parts).T.tolist()])
    c_sum, cc_sum, a_sum, aa_sum, t_sum, tk_sum = sums[:6]
    t_z, at_z, tt_z = sums[6:].reshape(3, d)
    b = 1.0 / ss.gap
    total = np.concatenate([[c_sum], a_sum + b * t_z])
    total_sq = np.concatenate([[cc_sum], aa_sum + 2.0 * b * at_z + b * b * tt_z])
    intercept, coefficients = ss.explain(t_sum / n_mc, t_z / n_mc, tk_sum / n_mc)
    per_sample_mean = total / n_mc
    variance = np.maximum(total_sq / n_mc - per_sample_mean**2, 0.0) * n_mc / (n_mc - 1)
    return np.concatenate([[intercept], coefficients]), np.sqrt(variance / n_mc)


def mc_alpha(
    d: int, nu: float, n_mc: int, p_max: int, seed=0
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates of E[weight * z_1 ... z_p] for p = 0..p_max,
    straight from the sampling scheme, and their standard errors."""
    rng = np.random.default_rng(seed)
    sizes, z = draw_feature_matrix(rng, n_mc, d)
    kernel = psi(sizes / d, nu)
    values = np.empty(p_max + 1)
    stderrs = np.empty(p_max + 1)
    draws = kernel.astype(float)
    for p in range(p_max + 1):
        if p > 0:
            draws = draws * z[:, p - 1]
        values[p] = draws.mean()
        stderrs[p] = draws.std(ddof=1) / math.sqrt(n_mc)
    return values, stderrs


def mc_e_term(
    omega: np.ndarray, j: int, k: int | None = None, *, n_mc: int, seed
) -> tuple[float, float]:
    """Monte Carlo estimate of the renormalization factor
    (1 - removed mass)^(-1/2) given that word j (and word k, when given)
    survives, sampled from the conditional law directly, and its standard
    error. `omega` holds the mass shares."""
    d = len(omega)
    rest = np.array([w for i, w in enumerate(omega) if i not in (j, k)], dtype=float)
    pmf = conditional_size_pmf(d, k is not None)
    rng = np.random.default_rng(seed)
    sizes = rng.choice(d + 1, size=n_mc, p=pmf / pmf.sum())
    ranks = rng.random((n_mc, len(rest))).argsort(axis=1).argsort(axis=1)
    removed_mass = ((ranks < sizes[:, None]) * rest).sum(axis=1)
    draws = 1.0 / np.sqrt(1.0 - removed_mass)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(n_mc))


def conditional_size_pmf(d: int, pair: bool) -> np.ndarray:
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


def exact_renormalization_expectations(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact expectation of the renormalization factor (kept mass)^(-1/2)
    given that word j survives, for every j (shape (d,)), and given that
    words j and k survive, for every pair (shape (d, d), zero diagonal;
    all zero when d < 3); `omega` holds the mass shares.

    Every survivor set is enumerated once: with keep the 0/1 row of a set,
    h_1(s) and h_2(s) its probability given one or two fixed survivors (s
    words removed, the size pmf over C(m, s) where m words may go) and f its
    factor, E_single = keep^T (h_1 f) and E_pair = keep^T diag(h_2 f) keep.
    """
    d = len(omega)

    def subset_weights(pair):
        pmf = conditional_size_pmf(d, pair)
        m = d - 2 if pair else d - 1
        return np.array([pmf[s] / math.comb(m, s) if s <= m else 0.0 for s in range(d + 1)])

    h_single = subset_weights(False)
    h_pair = subset_weights(True) if d >= 3 else np.zeros(d + 1)
    e_single = np.zeros(d)
    e_pair = np.zeros((d, d))
    # Bit i of code c keeps word i. Code 0 keeps nothing, which has
    # probability 0 given any survivor, so the walk starts at 1.
    for start in range(1, 2**d, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, 2**d))
        keep = ((codes[:, None] >> np.arange(d)) & 1).astype(float)
        factor = 1.0 / np.sqrt(keep @ omega)
        removed = d - keep.sum(axis=1).astype(np.intp)
        e_single += (h_single[removed] * factor) @ keep
        e_pair += (keep * (h_pair[removed] * factor)[:, None]).T @ keep
    np.fill_diagonal(e_pair, 0.0)
    return e_single, e_pair


def large_bandwidth_linear(
    signal: np.ndarray, e_single: np.ndarray, e_pair: np.ndarray
) -> tuple[float, np.ndarray]:
    """(intercept, coefficients) of the infinite-bandwidth explanation of a
    linear model with signal lambda_j phi_j, assembled pair by pair from the
    conditional renormalization expectations (e_pair with zero diagonal)
    and solved with the exact infinite-bandwidth inverse entries r0 .. r3
    (corner, first row, diagonal, off-diagonal, each times c_d).

    Source word j reaches coordinate 0 and j when it survives, which has
    probability (d - 1) / (2 d), and coordinate k when j and k both survive,
    which has probability (d - 2) / (3 d).
    """
    d = len(signal)
    single_factor = (d - 1) / (2.0 * d)
    pair_factor = (d - 2) / (3.0 * d)
    gamma0 = float(np.sum(signal * single_factor * e_single))
    gamma = pair_factor * (e_pair @ signal) + single_factor * e_single * signal
    r0 = 2.0 * (2 * d - 1) / (d + 1)
    r1 = -6.0 / (d + 1)
    r2 = 6.0 * (d * d - 2 * d + 3) / ((d + 1) * (d - 1))
    r3 = -6.0 * (d - 3) / ((d + 1) * (d - 1))
    gamma_sum = float(gamma.sum())
    return r0 * gamma0 + r1 * gamma_sum, r1 * gamma0 + r2 * gamma + r3 * (gamma_sum - gamma)
