"""SHA-256 digests of every output the CLI writes and of the theory values,
for checking that two checkouts produce byte-identical results.

The CLI cases run `explain`, `theory` (auto and `--linear-mode full`),
`verify` (both linear modes), `sweep` and `alpha-table`, in csv and json,
on bundled documents 0 (d = 31, above the enumeration limit) and 5 (d = 12,
below it), for a tree, a linear and the constant model at small sample
counts, and `theory --linear-mode full` of the linear model on the inline
two-word document "food good" (the smallest the full linear mode serves).
Each case writes into its own directory, and every file it
writes gets one line. The theory cases print the 17-digit values of
`beta_tree` at four bandwidths, of `beta_linear` on every bundled document
(simplified, and full at nu = 0.25 and nu = inf) and in full mode on the
two-word document, of `population_explanation`
of a tree-plus-linear `CombinedModel` on documents 0 and 5, on document
0 of a tree, a linear model and a nested combination of a second linear
model and a tree (exact: one tree and one linear part), and on document 5
of a tree plus a custom model (the custom part by the exact enumeration),
of `beta_enumerated` of that custom model on document 5, of `beta_general_mc`
(means and standard errors, n_mc = 20000, and on a synthetic d = 40 document
with n_mc = 60000, which spans more than one sampling chunk), of
`population_explanation` of a tree plus a custom model on that synthetic
document (the tree in closed form, the custom part by the oracle, whose
standard errors it records) and of `e_term`.
The verify cases print, on document 0 at small n, the 17-digit values of
`linearity_check` (tree + tree with the closed-form residual and its
comparison, and tree + linear), `concentration_check` (the linear model, n in
200, 400, 800), `sweep_bandwidth` at two bandwidths and `compare` on a
one-run `run_repeated`, whose std is missing, and the intercepts and
coefficients of `explain` and of a three-run `run_repeated`, each of a
tree-plus-linear combination and of a pure linear model, on a synthetic
d = 300 document at n = 500, which the sampler and the linear responses
read in several row blocks, the last one partial, and of `explain` of the
combination there at n = 5000, where the sampler draws several groups of
row blocks on helper threads and the Gram matrix is two row panels' sum
(1.5M cells, above 2**19), and of a three-run `run_repeated` of it there
at n = 5000 on two threads, whose runs start those helpers of their own.
The results do not depend on the thread count, so every line reads the
same on one CPU (`taskset -c 0`). Each line reads
`sha256  name`, sorted by name. Run
each checkout's own script, since the functions it calls may change their
signatures between checkouts:

    python benchmarks/output_digest.py > change.txt
    python <other checkout>/benchmarks/output_digest.py > other.txt
    diff other.txt change.txt

The textlime package comes from the Python path when it is there, else from
the `src` of the checkout that holds the script. The script takes no options
and runs in seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

try:
    import textlime  # noqa: F401
except ImportError:
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from click.testing import CliRunner

from textlime import (
    CombinedModel,
    Corpus,
    Document,
    LinearModel,
    Model,
    beta_enumerated,
    beta_general_mc,
    beta_linear,
    beta_tree,
    bundled_corpus_path,
    combine,
    compare,
    concentration_check,
    e_term,
    explain,
    fit_idf,
    linearity_check,
    load_corpus,
    local_dictionary,
    population_explanation,
    run_repeated,
    sweep_bandwidth,
    tokenize,
    tree_from_spec,
)
from textlime.cli import cli
from textlime.corpus import tfidf_weights

CORPUS = str(bundled_corpus_path())
TREES = {
    0: '"food" + (!"food" & "about" & "Everything")',
    5: '"brunch" + (!"brunch" & "tea" & "good")',
}
LINEAR = {"food": 1.5, "about": -0.75, "fast": 0.5, "brunch": 1.25, "tea": -2.0, "good": 0.3}
NUS = (0.1, 0.25, 1.0, 10.0)
TWO_WORDS = "food good"


class TanhOfSum(Model):
    """A custom model: tanh of the sum of the TF-IDF coordinates."""

    def evaluate_matrix(self, values, words):
        return np.tanh(values.sum(axis=1))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def values_text(*groups) -> bytes:
    """Every float of `groups` (numbers or arrays, flattened) at 17 digits."""
    flat = []
    for group in groups:
        flat.extend(np.ravel(np.asarray(group, dtype=float)).tolist())
    return " ".join(format(v, ".17g") for v in flat).encode()


def cli_cases(linear_path: Path):
    """(case name, argument list) for every CLI run."""
    for doc, tree in TREES.items():
        word = "food" if doc == 0 else "brunch"
        models = {"tree": tree, "linear": str(linear_path), "constant": "constant"}
        for model_name, model in models.items():
            for fmt in ("csv", "json"):
                base = ["--corpus", CORPUS, "--doc", str(doc), "--model", model]
                base += ["--format", fmt, "--seed", "7"]
                tag = f"doc{doc}-{model_name}-{fmt}"
                yield f"explain-{tag}", ["explain", *base, "--n", "300"]
                yield f"theory-{tag}", ["theory", *base]
                yield f"theory-full-{tag}", ["theory", *base, "--linear-mode", "full"]
                verify = ["verify", *base, "--n", "300", "--n-exp", "4", "--threads", "2"]
                yield f"verify-{tag}", verify
                yield f"verify-full-{tag}", [*verify, "--linear-mode", "full"]
                yield f"sweep-{tag}", [
                    "sweep", *base, "--word", word, "--n", "200", "--n-exp", "3",
                    "--nu-grid", "0.1,0.5,2",
                ]
    for fmt in ("csv", "json"):
        yield f"theory-full-two-word-linear-{fmt}", [
            "theory", "--corpus", CORPUS, "--doc", TWO_WORDS, "--model", str(linear_path),
            "--format", fmt, "--linear-mode", "full",
        ]
    for d in (12, 31):
        for fmt in ("csv", "json"):
            args = ["alpha-table", "--d", str(d), "--p-max", "4", "--format", fmt]
            yield f"alpha-table-d{d}-{fmt}", args


def cli_digests(root: Path) -> dict[str, str]:
    linear_path = root / "linear.json"
    linear_path.write_text(json.dumps(LINEAR), encoding="utf-8")
    runner = CliRunner()
    digests = {}
    for name, args in cli_cases(linear_path):
        out = root / name
        result = runner.invoke(cli, [*args, "--out", str(out)])
        if result.exit_code != 0:
            raise SystemExit(f"{name}: exit {result.exit_code}: {result.output}")
        for path in sorted(out.iterdir()):
            digests[f"cli/{name}/{path.name}"] = sha256(path.read_bytes())
    return digests


def theory_digests() -> dict[str, str]:
    corpus = load_corpus(bundled_corpus_path())
    idf = fit_idf(corpus)
    digests = {}

    def record(name, *groups):
        digests[name] = sha256(values_text(*groups))

    for doc, spec in TREES.items():
        document = corpus.documents[doc]
        local = local_dictionary(document)
        tree = tree_from_spec(spec)
        for nu in NUS:
            result = beta_tree(tree, local, nu)
            record(f"beta_tree/doc{doc}/nu{nu:g}", result.intercept, result.coefficients)
        models = {"tree": tree, "linear": LinearModel(coefficients=LINEAR)}
        for model_name, model in models.items():
            result = beta_general_mc(model, document, idf, nu=0.25, n_mc=20000, seed=11)
            record(
                f"beta_general_mc/doc{doc}/{model_name}",
                result.intercept, result.coefficients,
                result.intercept_stderr, result.coefficient_stderr,
            )
        squared = tfidf_weights(local, idf) ** 2
        omega = squared / squared.sum()
        d = local.d
        for kept in ((0,), (d - 1,), (0, 1), (0, d - 1)):
            value = e_term(omega, *kept)
            record(f"e_term/doc{doc}/approx/{'-'.join(map(str, kept))}", value)

    for doc, spec in TREES.items():
        mixed = combine([(1.0, tree_from_spec(spec)), (1.0, LinearModel(coefficients=LINEAR))])
        result = population_explanation(mixed, corpus.documents[doc], idf, nu=0.25)
        record(f"population_explanation/doc{doc}/combined", result.intercept, result.coefficients)
    nested = CombinedModel(parts=(
        (1.0, tree_from_spec(TREES[0])),
        (0.5, LinearModel(coefficients=LINEAR)),
        (-2.0, CombinedModel(parts=(
            (1.5, LinearModel(coefficients={"food": -1.0, "fast": 2.0})),
            (0.25, tree_from_spec('"fast" & !"about"')),
        ))),
    ))
    result = population_explanation(nested, corpus.documents[0], idf, nu=0.25)
    record("population_explanation/doc0/nested", result.intercept, result.coefficients)
    # The exact enumeration, alone and as the route of a combination's custom part.
    result = beta_enumerated(TanhOfSum(), corpus.documents[5], idf, nu=0.25)
    record("beta_enumerated/doc5/custom", result.intercept, result.coefficients)
    tree_custom = CombinedModel(parts=((1.0, tree_from_spec(TREES[5])), (2.0, TanhOfSum())))
    result = population_explanation(tree_custom, corpus.documents[5], idf, nu=0.25)
    assert result.notes["parts"] == ["beta_tree", "beta_enumerated"], result.notes
    record("population_explanation/doc5/tree-custom", result.intercept, result.coefficients)

    # 1 to 3 copies of each of 40 words, every fifth copy also in a second
    # document, so that the masses and the IDF vary.
    synthetic = Document(tokens=tuple(f"w{i:02d}" for i in range(40) for _ in range(1 + i % 3)))
    synthetic_idf = fit_idf(Corpus(documents=(synthetic, Document(synthetic.tokens[::5]))))
    mixed = combine([
        (1.0, tree_from_spec('"w00" + (!"w01" & "w02")')),
        (1.0, LinearModel(coefficients={"w03": 1.5, "w10": -0.75, "w39": 0.5})),
    ])
    result = beta_general_mc(mixed, synthetic, synthetic_idf, nu=0.25, n_mc=60000, seed=11)
    record(
        "beta_general_mc/synthetic-d40/combined",
        result.intercept, result.coefficients,
        result.intercept_stderr, result.coefficient_stderr,
    )
    tree_custom = CombinedModel(parts=(
        (1.0, tree_from_spec('"w00" + (!"w01" & "w02")')),
        (2.0, TanhOfSum()),
    ))
    result = population_explanation(
        tree_custom, synthetic, synthetic_idf, nu=0.25, n_mc=60000, seed=11
    )
    record(
        "population_explanation/synthetic-d40/tree-custom",
        result.intercept, result.coefficients,
        result.intercept_stderr, result.coefficient_stderr,
    )

    rng = np.random.default_rng(5)
    for doc, document in enumerate(corpus.documents):
        words = local_dictionary(document).words
        lam = dict(zip(words, rng.normal(size=len(words)).tolist()))
        cases = (
            ("simplified", "simplified", 0.25),
            ("full", "full", 0.25),
            ("full-nuinf", "full", math.inf),
        )
        for name, mode, nu in cases:
            result = beta_linear(lam, document, idf, mode=mode, nu=nu)
            record(f"beta_linear/doc{doc:02d}/{name}", result.intercept, result.coefficients)
    result = beta_linear(LINEAR, tokenize(TWO_WORDS), idf, mode="full", nu=0.25)
    record("beta_linear/two-word/full", result.intercept, result.coefficients)
    return digests


def report_values(report) -> list:
    """Every number of a `ComparisonReport`, flags as 0 or 1."""
    values = [report.max_abs_deviation, report.mean_abs_deviation]
    for r in (report.intercept_row, *report.rows):
        values += [
            r.empirical_median, r.theory_value, r.abs_deviation, r.rel_deviation,
            float(r.inside_iqr), float(r.inside_range),
        ]
    return values


def verify_digests() -> dict[str, str]:
    corpus = load_corpus(bundled_corpus_path())
    idf = fit_idf(corpus)
    document = corpus.documents[0]
    food = tree_from_spec('"food"')
    rest = tree_from_spec('!"food" & "about" & "Everything"')
    linear = LinearModel(coefficients=LINEAR)
    digests = {}

    def record(name, *groups):
        digests[name] = sha256(values_text(*groups))

    for name, g in (("tree-tree", rest), ("tree-linear", linear)):
        report = linearity_check(food, g, document, idf, n=300, n_exp=4, master_seed=3)
        values = [report.max_abs_deviation]
        for r in report.rows:
            values += [
                r.sum_of_medians, r.combined_median, r.deviation, r.pooled_std,
                float(r.within_envelope),
            ]
        if report.theory_max_residual is not None:
            values += [report.theory_max_residual, *report_values(report.theory_vs_combined)]
        record(f"linearity_check/doc0/{name}", values)

    table = concentration_check(
        linear, document, idf, [200, 400, 800], n_exp=5, master_seed=4
    )
    record(
        "concentration_check/doc0",
        table.stds, table.ratios, table.slopes, table.median_slope,
    )

    points = sweep_bandwidth(
        food, document, idf, "food", [0.1, 1.0], n=200, n_exp=3, master_seed=5
    )
    for point in points:
        record(
            f"sweep_bandwidth/doc0/nu{point.nu:g}",
            point.nu, point.median, point.q1, point.q3,
            point.minimum, point.maximum, point.std,
        )

    stats = run_repeated(food, document, idf, n=300, n_exp=1, master_seed=6)
    theory = population_explanation(food, document, idf, nu=0.25)
    record("compare/doc0/n_exp1", report_values(compare(stats, theory)))

    # d = 300 at n = 500: the sampler and the linear responses read 109 rows
    # per block, so four full blocks and a partial one.
    wide = Document(tokens=tuple(f"v{i:03d}" for i in range(300) for _ in range(1 + i % 2)))
    wide_idf = fit_idf(Corpus(documents=(wide, Document(wide.tokens[::7]))))
    wide_linear = LinearModel(coefficients={"v002": 1.5, "v150": -0.75, "v299": 0.25})
    mixed = combine([
        (1.0, tree_from_spec('"v000" + (!"v001" & "v299")')),
        (1.0, LinearModel(coefficients={"v002": 1.5, "v150": -0.75})),
    ])
    for name, model in (("combined", mixed), ("linear", wide_linear)):
        result = explain(model, wide, wide_idf, n=500, seed=8)
        record(f"explain/synthetic-d300/{name}", result.intercept, result.coefficient_array())
        stats = run_repeated(model, wide, wide_idf, n=500, n_exp=3, master_seed=9)
        record(f"run_repeated/synthetic-d300/{name}", stats.intercepts, stats.coefficients)
    result = explain(mixed, wide, wide_idf, n=5000, seed=8)
    record("explain/synthetic-d300-n5000/combined", result.intercept, result.coefficient_array())
    stats = run_repeated(mixed, wide, wide_idf, n=5000, n_exp=3, master_seed=9, threads=2)
    record("run_repeated/synthetic-d300-n5000-threads2/combined", stats.intercepts, stats.coefficients)
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {**cli_digests(Path(tmp)), **theory_digests(), **verify_digests()}
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")


if __name__ == "__main__":
    main()
