"""Word-removal LIME for text with closed-form infinite-sample predictions.

The package has three layers: the empirical pipeline (TF-IDF corpus
statistics, perturbation sampling, weighted least-squares surrogate), the
closed-form population explanations it concentrates on, and a verification
harness comparing the two over repeated runs.
"""

from .corpus import (
    Corpus,
    Document,
    IdfTable,
    LocalDictionary,
    bundled_corpus_path,
    fit_idf,
    load_corpus,
    local_dictionary,
    tokenize,
)
from .models import (
    CombinedModel,
    IndicatorProduct,
    LinearModel,
    Model,
    TreeModel,
    TreeSpecError,
    combine,
    load_linear_model,
    tree_from_spec,
)
from .sampling import SampleBatch, psi, sample_batch
from .surrogate import Explanation, explain, fit_batch, fit_weighted_ridge
from .theory import (
    EXACT_CLOSED_FORM,
    EXACT_ENUMERATION,
    LARGE_BANDWIDTH,
    MONTE_CARLO,
    ClosedFormDomainError,
    SigmaSet,
    TheoryExplanation,
    alpha_bounds,
    alpha_limit,
    alpha_values,
    beta_enumerated,
    beta_general_mc,
    beta_indicator_product,
    beta_linear,
    beta_tree,
    e_term,
    population_explanation,
    sigma_set,
)
from .verify import (
    ComparisonReport,
    RunStatistics,
    compare,
    concentration_check,
    default_nu_grid,
    linearity_check,
    run_repeated,
    sweep_bandwidth,
)

__version__ = "0.1.0"
