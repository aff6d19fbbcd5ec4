"""Reference implementations the tests compare the package against.

None of these runs on a production path: they are the dense covariance
and its entry-by-entry inverse, and raw Monte Carlo estimates of the kernel
moments and of the conditional renormalization expectations, each computed
independently of the structured closed forms they check.
"""

import math

import numpy as np

from textlime.sampling import draw_feature_matrix, psi
from textlime.theory import (
    ClosedFormDomainError,
    _conditional_size_pmf,
    alpha_values,
    sigma_set,
)


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
    pmf = _conditional_size_pmf(d, k is not None)
    rng = np.random.default_rng(seed)
    sizes = rng.choice(d + 1, size=n_mc, p=pmf / pmf.sum())
    ranks = rng.random((n_mc, len(rest))).argsort(axis=1).argsort(axis=1)
    removed_mass = ((ranks < sizes[:, None]) * rest).sum(axis=1)
    draws = 1.0 / np.sqrt(1.0 - removed_mass)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(n_mc))
