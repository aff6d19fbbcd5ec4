"""Repeated-run experiment harness: whisker statistics, theory-vs-practice
comparisons, bandwidth sweeps, linearity and concentration checks.

Every experiment derives one sampling seed per repetition from the master
seed and the run index, so results are bit-reproducible and repetitions
can run on any number of workers without changing the outcome.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, IdfTable, local_dictionary
from .models import Model, TreeModel, combine
from .sampling import _in_order
from .surrogate import explain
from .theory import TheoryExplanation, population_explanation

# Floating-point cushion for "theory inside the empirical whisker range":
# models the surrogate fits exactly produce degenerate whiskers whose
# endpoints differ from the theory value only by solver round-off.
RANGE_EPS = 1e-9

# A linearity deviation passes within this many pooled standard deviations.
LINEARITY_ENVELOPE = 3.0


def derive_seed(master_seed, run_index: int) -> list[int]:
    """Seed of one repetition: the master seed extended by the run index."""
    if isinstance(master_seed, (int, np.integer)):
        return [int(master_seed), run_index]
    return [*(int(s) for s in master_seed), run_index]


# The whisker summary of repeated runs, in the order the writers emit it.
SUMMARY_FIELDS = ("median", "q1", "q3", "minimum", "maximum", "std")


def _whiskers(values: np.ndarray) -> dict:
    """The whisker summary of `values` down axis 0, keyed by SUMMARY_FIELDS.
    `std` is None below two rows."""
    return {
        "median": np.median(values, axis=0),
        "q1": np.quantile(values, 0.25, axis=0),
        "q3": np.quantile(values, 0.75, axis=0),
        "minimum": values.min(axis=0),
        "maximum": values.max(axis=0),
        "std": values.std(axis=0, ddof=1) if len(values) >= 2 else None,
    }


@dataclass(frozen=True)
class RunStatistics:
    """Per-word whisker summaries over repeated explanations.

    `coefficients` keeps the raw n_exp x d values (rows are repetitions)
    so downstream checks can pool noise; the summary arrays are what the
    whisker plots show. `std` is None when a single repetition cannot
    support a standard deviation.
    """

    words: tuple[str, ...]
    coefficients: np.ndarray
    intercepts: np.ndarray
    config: dict
    median: np.ndarray = field(init=False)
    q1: np.ndarray = field(init=False)
    q3: np.ndarray = field(init=False)
    minimum: np.ndarray = field(init=False)
    maximum: np.ndarray = field(init=False)
    std: np.ndarray | None = field(init=False)

    def __post_init__(self) -> None:
        for name, value in _whiskers(self.coefficients).items():
            object.__setattr__(self, name, value)

    @property
    def n_exp(self) -> int:
        return len(self.intercepts)

    @property
    def d(self) -> int:
        return len(self.words)

    def summary(self, j: int | None = None) -> dict:
        """Word j's whisker summary, or the intercept's when j is None, as
        floats keyed by SUMMARY_FIELDS; `std` is None below two runs."""
        if j is None:
            whiskers = _whiskers(self.intercepts)
        else:
            whiskers = {name: getattr(self, name) for name in SUMMARY_FIELDS}
        return {
            name: None if value is None else float(value if j is None else value[j])
            for name, value in whiskers.items()
        }


def run_repeated(
    model: Model,
    document: Document,
    idf: IdfTable,
    *,
    n: int = 5000,
    nu: float = 0.25,
    ridge: float = 0.0,
    n_exp: int = 100,
    master_seed=0,
    threads: int = 1,
) -> RunStatistics:
    """Explain the same document n_exp times with independent seeds.

    Run r is `explain(..., seed=derive_seed(master_seed, r))`, one task of
    `sampling._in_order` on `threads` threads, the caller included (capped
    at the run count and the CPUs the process may run on), with at most
    2 × threads runs started past the last one collected. So the result
    does not depend on the thread count, and a run's error is raised at
    its place once every helper has stopped.
    """
    if n_exp < 1:
        raise ValueError("need at least one repetition")
    if threads < 1:
        raise ValueError("worker count must be at least 1")
    work = functools.partial(explain, model, document, idf, n=n, nu=nu, ridge=ridge)
    tasks = [functools.partial(work, seed=derive_seed(master_seed, run)) for run in range(n_exp)]
    runs = list(_in_order(tasks, threads))
    return RunStatistics(
        words=runs[0].words,
        coefficients=np.vstack([e.coefficient_array() for e in runs]),
        intercepts=np.array([e.intercept for e in runs]),
        config={
            "n": n,
            "nu": nu,
            "ridge": ridge,
            "n_exp": n_exp,
            "master_seed": master_seed,
        },
    )


@dataclass(frozen=True)
class ComparisonRow:
    word: str
    empirical_median: float
    theory_value: float
    abs_deviation: float
    rel_deviation: float
    inside_iqr: bool
    inside_range: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Per-word deviations between empirical medians and a theory vector."""

    rows: tuple[ComparisonRow, ...]
    intercept_row: ComparisonRow
    max_abs_deviation: float
    mean_abs_deviation: float

    def row(self, word: str) -> ComparisonRow:
        for r in self.rows:
            if r.word == word:
                return r
        raise KeyError(word)

    def all_inside_range(self) -> bool:
        return all(r.inside_range for r in self.rows)

    def all_inside_iqr(self) -> bool:
        return all(r.inside_iqr for r in self.rows)


def _comparison_row(word: str, theory: float, summary: dict) -> ComparisonRow:
    """One word's theory value against its whisker `summary`."""
    abs_dev = abs(summary["median"] - theory)
    rel_dev = abs_dev / abs(theory) if theory != 0.0 else math.nan
    return ComparisonRow(
        word=word,
        empirical_median=summary["median"],
        theory_value=theory,
        abs_deviation=abs_dev,
        rel_deviation=rel_dev,
        inside_iqr=summary["q1"] - RANGE_EPS <= theory <= summary["q3"] + RANGE_EPS,
        inside_range=summary["minimum"] - RANGE_EPS <= theory <= summary["maximum"] + RANGE_EPS,
    )


def compare(stats: RunStatistics, theory: TheoryExplanation) -> ComparisonReport:
    """Pair empirical whisker statistics with a theory prediction, word by
    word, independent of dictionary order."""
    if theory.words is None:
        raise ValueError("theory explanation carries no words to align on")
    if sorted(theory.words) != sorted(stats.words):
        raise ValueError("local dictionary mismatch between statistics and theory")
    theory_by_word = dict(zip(theory.words, theory.coefficients))
    rows = tuple(
        _comparison_row(w, float(theory_by_word[w]), stats.summary(j))
        for j, w in enumerate(stats.words)
    )
    intercept_row = _comparison_row("(intercept)", theory.intercept, stats.summary())
    devs = [r.abs_deviation for r in rows]
    return ComparisonReport(
        rows=rows,
        intercept_row=intercept_row,
        max_abs_deviation=max(devs),
        mean_abs_deviation=float(np.mean(devs)),
    )


def default_nu_grid() -> np.ndarray:
    """24 log-spaced bandwidths bracketing the sign-flip region and the
    large-bandwidth regime."""
    return np.geomspace(0.03, 3.0, 24)


@dataclass(frozen=True)
class SweepPoint:
    nu: float
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float
    std: float | None


def sweep_bandwidth(
    model: Model,
    document: Document,
    idf: IdfTable,
    word: str,
    nu_grid=None,
    *,
    n: int = 5000,
    ridge: float = 0.0,
    n_exp: int = 100,
    master_seed=0,
    threads: int = 1,
) -> list[SweepPoint]:
    """Whisker statistics of one word's coefficient across bandwidths."""
    local = local_dictionary(document)
    if word not in local:
        raise ValueError(f"unknown word {word!r}: not in the local dictionary")
    j = local.index_of(word)
    grid = default_nu_grid() if nu_grid is None else np.asarray(nu_grid, dtype=float)
    if not np.all(grid > 0):
        raise ValueError("bandwidth grid must be positive")
    points = []
    for idx, nu in enumerate(grid):
        stats = run_repeated(
            model,
            document,
            idf,
            n=n,
            nu=float(nu),
            ridge=ridge,
            n_exp=n_exp,
            master_seed=derive_seed(master_seed, idx),
            threads=threads,
        )
        points.append(SweepPoint(nu=float(nu), **stats.summary(j)))
    return points


@dataclass(frozen=True)
class LinearityRow:
    word: str
    sum_of_medians: float
    combined_median: float
    deviation: float
    pooled_std: float
    within_envelope: bool


@dataclass(frozen=True)
class LinearityReport:
    """explain(f + g) against explain(f) + explain(g), plus the closed-form
    additivity residual when both models admit one."""

    rows: tuple[LinearityRow, ...]
    max_abs_deviation: float
    theory_max_residual: float | None
    theory_vs_combined: ComparisonReport | None

    def all_within_envelope(self) -> bool:
        return all(r.within_envelope for r in self.rows)


def linearity_check(
    f: Model,
    g: Model,
    document: Document,
    idf: IdfTable,
    *,
    n: int = 5000,
    nu: float = 0.25,
    ridge: float = 0.0,
    n_exp: int = 100,
    master_seed=0,
    threads: int = 1,
) -> LinearityReport:
    """Check that explanations add: the combined model's explanation should
    match the sum of the separate ones up to sampling noise.

    All three runs use independent batches; the noise envelope is
    LINEARITY_ENVELOPE times the pooled three per-word standard deviations.
    """
    if n_exp < 2:
        raise ValueError("need n_exp >= 2 to pool noise")
    combined = combine([(1.0, f), (1.0, g)])
    stats_f, stats_g, stats_fg = (
        run_repeated(
            model, document, idf, n=n, nu=nu, ridge=ridge, n_exp=n_exp,
            master_seed=derive_seed(master_seed, i), threads=threads,
        )
        for i, model in enumerate((f, g, combined))
    )

    pooled = np.sqrt(stats_f.std**2 + stats_g.std**2 + stats_fg.std**2)
    sums = stats_f.median + stats_g.median
    devs = stats_fg.median - sums
    rows = tuple(
        LinearityRow(
            word=w,
            sum_of_medians=float(sums[j]),
            combined_median=float(stats_fg.median[j]),
            deviation=float(devs[j]),
            pooled_std=float(pooled[j]),
            within_envelope=abs(float(devs[j]))
            <= LINEARITY_ENVELOPE * float(pooled[j]) + RANGE_EPS,
        )
        for j, w in enumerate(stats_fg.words)
    )

    theory_max = None
    theory_report = None
    # Only models built from indicator products have an exact closed form
    # whose additivity holds to round-off; `combine` keeps their sum a tree.
    # Any other sum is explained part by part, so its residual is 0 by construction.
    if isinstance(combined, TreeModel):
        beta_f, beta_g, beta_fg = (
            population_explanation(m, document, idf, nu=nu) for m in (f, g, combined)
        )
        residual = np.abs(
            beta_fg.coefficient_array()
            - beta_f.coefficient_array()
            - beta_g.coefficient_array()
        )
        residual_0 = abs(beta_fg.intercept - beta_f.intercept - beta_g.intercept)
        theory_max = float(max(residual.max(), residual_0))
        theory_report = compare(stats_fg, beta_fg)

    return LinearityReport(
        rows=rows,
        max_abs_deviation=float(np.abs(devs).max()),
        theory_max_residual=theory_max,
        theory_vs_combined=theory_report,
    )


@dataclass(frozen=True)
class ConcentrationTable:
    """Per-word explanation spread against the number of perturbed samples."""

    words: tuple[str, ...]
    n_values: tuple[int, ...]
    stds: np.ndarray  # shape (len(n_values), d)
    ratios: np.ndarray  # stds[i] / stds[i - 1], shape (len(n_values) - 1, d)
    slopes: np.ndarray  # per-word slope of log std against log n (nan if flat)
    median_slope: float


def concentration_check(
    model: Model,
    document: Document,
    idf: IdfTable,
    n_grid,
    *,
    nu: float = 0.25,
    ridge: float = 0.0,
    n_exp: int = 100,
    master_seed=0,
    threads: int = 1,
) -> ConcentrationTable:
    """Measure how the per-word spread shrinks as n grows and fit the decay
    exponent; the parametric rate is -1/2."""
    if n_exp < 2:
        raise ValueError("need n_exp >= 2 for std")
    n_values = [int(n) for n in n_grid]
    if len(n_values) < 2 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_grid must be increasing with at least two points")
    local = local_dictionary(document)
    stds = []
    for idx, n in enumerate(n_values):
        stats = run_repeated(
            model,
            document,
            idf,
            n=n,
            nu=nu,
            ridge=ridge,
            n_exp=n_exp,
            master_seed=derive_seed(master_seed, idx),
            threads=threads,
        )
        stds.append(stats.std)
    stds_arr = np.vstack(stds)
    ratios = stds_arr[1:] / np.where(stds_arr[:-1] > 0, stds_arr[:-1], np.nan)

    log_n = np.log(np.array(n_values, dtype=float))
    slopes = np.full(local.d, np.nan)
    for j in range(local.d):
        column = stds_arr[:, j]
        # Spread at solver round-off scale means the fit was exact; there
        # is no sampling rate to measure for that word.
        if np.all(column > 1e-12):
            slopes[j] = np.polyfit(log_n, np.log(column), 1)[0]
    finite = slopes[np.isfinite(slopes)]
    if len(finite) == 0:
        raise ValueError("no word has positive spread at every n; cannot fit a rate")
    return ConcentrationTable(
        words=local.words,
        n_values=tuple(n_values),
        stds=stds_arr,
        ratios=ratios,
        slopes=slopes,
        median_slope=float(np.median(finite)),
    )
