"""Command-line interface wiring corpora, models, and experiments together.

Subcommands: explain, theory, verify, sweep, alpha-table. Option values
resolve as CLI flag > config file > built-in default; every option can
also come from the environment as TEXTLIME_<COMMAND>_<OPTION> for CI use.
All stochastic outputs are fully determined by --seed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import click
import numpy as np

from . import serialize
from .corpus import Corpus, Document, fit_idf, load_corpus, tokenize
from .models import (
    IndicatorProduct,
    Model,
    TreeSpecError,
    load_linear_model,
    tree_from_spec,
)
from .surrogate import explain as run_explain
from .theory import ClosedFormDomainError, population_explanation
from .verify import (
    compare,
    default_nu_grid,
    run_repeated,
    sweep_bandwidth,
)

DEFAULTS = {
    "n": 5000,
    "nu": 0.25,
    "ridge": 0.0,
    "n_exp": 100,
    "seed": 0,
    "out": ".",
    "format": "csv",
    "threads": 1,
    "n_mc": 200_000,
    "linear_mode": "simplified",
    "theory_method": "auto",
    "p_max": 4,
}


def fail(field: str, message: str) -> "click.ClickException":
    return click.ClickException(f"{field}: {message}")


def _load_config(config_path: str | None) -> dict:
    if config_path is None:
        return {}
    path = Path(config_path)
    if not path.is_file():
        raise fail("config", f"no such file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise fail("config", f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise fail("config", "must be a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


_INT_FIELDS = ("n", "n_exp", "seed", "threads", "n_mc", "p_max")
_FLOAT_FIELDS = ("nu", "nu_lime", "ridge")
_CHOICE_FIELDS = {
    "format": ("csv", "json"),
    "linear_mode": ("simplified", "full"),
    "theory_method": ("auto", "mc"),
}


def _coerce(merged: dict) -> None:
    for key in _INT_FIELDS:
        if key in merged and merged[key] is not None:
            try:
                merged[key] = int(merged[key])
            except (TypeError, ValueError):
                raise fail(key.replace("_", "-"), f"not an integer: {merged[key]!r}")
    for key in _FLOAT_FIELDS:
        if key in merged and merged[key] is not None:
            try:
                merged[key] = float(merged[key])
            except (TypeError, ValueError):
                raise fail(key.replace("_", "-"), f"not a number: {merged[key]!r}")
    for key, choices in _CHOICE_FIELDS.items():
        if key in merged and merged[key] is not None and merged[key] not in choices:
            raise fail(
                key.replace("_", "-"),
                f"must be one of {', '.join(choices)} (got {merged[key]!r})",
            )


def resolve_options(cli_values: dict, config_path: str | None) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    cli_values = {("format" if k == "fmt" else k): v for k, v in cli_values.items()}
    config = _load_config(config_path)
    merged = dict(DEFAULTS)
    for key, value in config.items():
        merged[key] = value
    for key, value in cli_values.items():
        if value is not None:
            merged[key] = value
    _coerce(merged)

    nu = merged.get("nu")
    nu_lime = merged.get("nu_lime")
    explicit_nu = cli_values.get("nu") is not None or "nu" in config
    explicit_lime = cli_values.get("nu_lime") is not None or "nu_lime" in config
    if explicit_nu and explicit_lime:
        raise fail("nu/nu-lime", "give exactly one of --nu and --nu-lime")
    if explicit_lime:
        merged["nu"] = float(nu_lime) / 100.0
    elif not explicit_nu:
        merged["nu"] = DEFAULTS["nu"]
    if not merged["nu"] > 0:
        raise fail("nu", "bandwidth must be positive")
    if merged["n"] < 1:
        raise fail("n", "need at least one perturbed sample")
    if merged["n_exp"] < 1:
        raise fail("n-exp", "need at least one repetition")
    if not merged["ridge"] >= 0:
        raise fail("ridge", "ridge parameter must be nonnegative")
    if merged["threads"] < 1:
        raise fail("threads", "worker count must be at least 1")
    if merged["n_mc"] < 2:
        raise fail("n-mc", "need at least two Monte Carlo samples")
    return merged


def load_corpus_or_fail(path: str | None) -> tuple[Corpus, Path]:
    if path is None:
        raise fail("corpus", "required (path to a corpus file)")
    corpus_path = Path(path)
    if not corpus_path.is_file():
        raise fail("corpus", f"no such file: {corpus_path}")
    corpus = load_corpus(corpus_path)
    if corpus.size == 0:
        raise fail("corpus", f"{corpus_path} holds no documents")
    return corpus, corpus_path


def select_document(corpus: Corpus, selector: str | None) -> Document:
    """A document selector is either a 0-based line index or inline text."""
    if selector is None:
        raise fail("doc", "required (0-based document index or inline text)")
    try:
        index = int(selector)
    except ValueError:
        doc = tokenize(selector, source_id="inline")
        if not doc.tokens:
            raise fail("doc", "inline text holds no tokens")
        return doc
    if not 0 <= index < corpus.size:
        raise fail(
            "doc", f"index {index} out of range (corpus has {corpus.size} documents)"
        )
    doc = corpus.documents[index]
    if not doc.tokens:
        raise fail("doc", f"document {index} is empty")
    return doc


def parse_model(spec: str | None) -> Model:
    if spec is None:
        raise fail("model", "required (tree expression, linear JSON path, or 'constant')")
    if spec == "constant":
        return IndicatorProduct(words=frozenset(), coefficient=1.0)
    candidate = Path(spec)
    if candidate.suffix.lower() == ".json" or candidate.is_file():
        if not candidate.is_file():
            raise fail("model", f"no such file: {candidate}")
        try:
            return load_linear_model(candidate)
        except (ValueError, json.JSONDecodeError) as exc:
            raise fail("model", f"bad linear model file {candidate}: {exc}")
    try:
        return tree_from_spec(spec)
    except TreeSpecError as exc:
        raise fail("model", str(exc))


def model_tag(spec: str) -> str:
    if spec == "constant":
        return "constant"
    candidate = Path(spec)
    if candidate.suffix.lower() == ".json" or candidate.is_file():
        stem = candidate.stem
    else:
        stem = spec
    tag = re.sub(r"[^0-9A-Za-z_-]+", "_", stem).strip("_")
    return tag[:40] or "model"


def out_path(out: str, experiment: str, tag: str, nu, n, ext: str) -> Path:
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{experiment}-{tag}-{nu:g}-{n}.{ext}"


def common_options(command):
    decorators = [
        click.option("--corpus", type=str, default=None, help="Corpus file (text lines or .jsonl)."),
        click.option("--doc", type=str, default=None, help="0-based document index, or inline text."),
        click.option("--n", type=int, default=None, help="Perturbed samples per explanation."),
        click.option("--nu", type=float, default=None, help="Kernel bandwidth."),
        click.option("--nu-lime", type=float, default=None, help="Bandwidth in reference-implementation units (100x nu)."),
        click.option("--ridge", type=float, default=None, help="Ridge penalty of the surrogate (default 0)."),
        click.option("--seed", type=int, default=None, help="Master seed; fixes all stochastic output."),
        click.option("--out", type=str, default=None, help="Output directory."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="Output format."),
        click.option("--threads", type=int, default=None, help="Worker cap for repeated runs."),
        click.option("--config", type=str, default=None, help="JSON config file (flags win over it)."),
    ]
    for decorator in reversed(decorators):
        command = decorator(command)
    return command


@click.group(context_settings={"auto_envvar_prefix": "TEXTLIME"})
@click.version_option(package_name="textlime")
def cli() -> None:
    """Explain text models by word-removal sampling, and check the
    explanations against their closed-form limits."""


@cli.command("explain")
@common_options
@click.option("--model", "model_spec", type=str, default=None, help="Tree expression, linear JSON path, or 'constant'.")
def cmd_explain(model_spec, config, **cli_values):
    """Fit the surrogate once and write the explanation."""
    options = resolve_options(cli_values, config)
    corpus, _ = load_corpus_or_fail(options.get("corpus"))
    document = select_document(corpus, options.get("doc"))
    model = parse_model(model_spec or options.get("model"))
    idf = fit_idf(corpus)
    explanation = run_explain(
        model,
        document,
        idf,
        n=options["n"],
        nu=options["nu"],
        ridge=options["ridge"],
        seed=options["seed"],
    )
    path = out_path(
        options["out"],
        "explanation",
        model_tag(model_spec or options.get("model")),
        options["nu"],
        options["n"],
        options["format"],
    )
    serialize.write_explanation(explanation, path, options["format"])
    click.echo(f"wrote {path}")


@cli.command("theory")
@common_options
@click.option("--model", "model_spec", type=str, default=None, help="Tree expression, linear JSON path, or 'constant'.")
@click.option("--linear-mode", type=click.Choice(["simplified", "full"]), default=None, help="Linear-model prediction mode.")
@click.option("--theory-method", type=click.Choice(["auto", "mc"]), default=None, help="'mc' forces the Monte Carlo oracle.")
@click.option("--n-mc", type=int, default=None, help="Monte Carlo sample count.")
def cmd_theory(model_spec, config, linear_mode, theory_method, n_mc, **cli_values):
    """Write the closed-form (or Monte Carlo) population explanation."""
    cli_values.update(
        {"linear_mode": linear_mode, "theory_method": theory_method, "n_mc": n_mc}
    )
    options = resolve_options(cli_values, config)
    corpus, _ = load_corpus_or_fail(options.get("corpus"))
    document = select_document(corpus, options.get("doc"))
    spec = model_spec or options.get("model")
    model = parse_model(spec)
    idf = fit_idf(corpus)

    try:
        theory = population_explanation(
            model, document, idf,
            nu=options["nu"], linear_mode=options["linear_mode"],
            n_mc=options["n_mc"], seed=options["seed"],
            monte_carlo=options["theory_method"] == "mc",
        )
    except ClosedFormDomainError as exc:
        raise fail("doc", str(exc))
    path = out_path(
        options["out"], "theory", model_tag(spec), options["nu"], options["n"],
        options["format"],
    )
    serialize.write_theory(theory, path, options["format"])
    click.echo(f"wrote {path} (provenance: {theory.provenance})")


@cli.command("verify")
@common_options
@click.option("--model", "model_spec", type=str, default=None, help="Tree expression, linear JSON path, or 'constant'.")
@click.option("--n-exp", type=int, default=None, help="Number of repeated runs.")
@click.option("--linear-mode", type=click.Choice(["simplified", "full"]), default=None)
def cmd_verify(model_spec, config, n_exp, linear_mode, **cli_values):
    """Run repeated explanations, compare them against theory, and write
    whisker statistics plus a comparison report."""
    cli_values.update({"n_exp": n_exp, "linear_mode": linear_mode})
    options = resolve_options(cli_values, config)
    corpus, _ = load_corpus_or_fail(options.get("corpus"))
    document = select_document(corpus, options.get("doc"))
    spec = model_spec or options.get("model")
    model = parse_model(spec)
    idf = fit_idf(corpus)

    try:
        theory = population_explanation(
            model, document, idf,
            nu=options["nu"], linear_mode=options["linear_mode"], seed=options["seed"],
        )
    except ClosedFormDomainError as exc:
        raise fail("doc", str(exc))
    stats = run_repeated(
        model, document, idf,
        n=options["n"], nu=options["nu"], ridge=options["ridge"],
        n_exp=options["n_exp"], master_seed=options["seed"],
        threads=options["threads"],
    )
    report = compare(stats, theory)

    tag = model_tag(spec)
    ext = options["format"]
    stats_path = out_path(options["out"], "verify-stats", tag, options["nu"], options["n"], ext)
    report_path = out_path(options["out"], "verify-report", tag, options["nu"], options["n"], ext)
    table_path = out_path(options["out"], "verify-report", tag, options["nu"], options["n"], "txt")
    serialize.write_run_statistics(stats, stats_path, ext)
    serialize.write_comparison(report, report_path, ext)
    table_path.write_text(serialize.comparison_table(report) + "\n", encoding="utf-8")
    click.echo(f"wrote {stats_path}")
    click.echo(f"wrote {report_path}")
    click.echo(f"wrote {table_path}")
    click.echo(
        "max abs deviation: %.6g (theory inside whisker range: %s)"
        % (report.max_abs_deviation, "yes" if report.all_inside_range() else "no")
    )


@cli.command("sweep")
@common_options
@click.option("--model", "model_spec", type=str, default=None, help="Tree expression, linear JSON path, or 'constant'.")
@click.option("--word", type=str, default=None, help="Word whose coefficient is tracked.")
@click.option("--n-exp", type=int, default=None, help="Repetitions per bandwidth.")
@click.option("--nu-grid", type=str, default=None, help="Comma-separated bandwidths (default: 24 log-spaced in [0.03, 3]).")
def cmd_sweep(model_spec, config, word, n_exp, nu_grid, **cli_values):
    """Track one word's coefficient across bandwidths; one CSV row per nu."""
    cli_values.update({"n_exp": n_exp})
    options = resolve_options(cli_values, config)
    corpus, _ = load_corpus_or_fail(options.get("corpus"))
    document = select_document(corpus, options.get("doc"))
    spec = model_spec or options.get("model")
    model = parse_model(spec)
    if word is None:
        word = options.get("word")
    if word is None:
        raise fail("word", "required (word whose coefficient is swept)")
    idf = fit_idf(corpus)
    if nu_grid is None:
        nu_grid = options.get("nu_grid")
    if nu_grid is None:
        grid = default_nu_grid()
    else:
        try:
            grid = np.array([float(v) for v in str(nu_grid).split(",") if v.strip()])
        except ValueError:
            raise fail("nu-grid", f"not a comma-separated float list: {nu_grid}")
        if len(grid) == 0:
            raise fail("nu-grid", "grid is empty")
        if not np.all(grid > 0):
            raise fail("nu-grid", "bandwidths must be positive")
    try:
        points = sweep_bandwidth(
            model, document, idf, word, grid,
            n=options["n"], ridge=options["ridge"], n_exp=options["n_exp"],
            master_seed=options["seed"], threads=options["threads"],
        )
    except ValueError as exc:
        raise fail("word", str(exc))
    path = out_path(options["out"], "sweep", model_tag(spec), float(grid[0]), options["n"], options["format"])
    serialize.write_sweep(points, path, options["format"])
    click.echo(f"wrote {path}")


@cli.command("alpha-table")
@click.option("--d", "d", type=int, required=True, help="Local dictionary size.")
@click.option("--nu", type=float, default=None, help="Kernel bandwidth.")
@click.option("--nu-lime", type=float, default=None, help="Bandwidth in reference-implementation units.")
@click.option("--p-max", type=int, default=None, help="Largest moment order.")
@click.option("--out", type=str, default=None, help="Output directory.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--config", type=str, default=None, help="JSON config file.")
def cmd_alpha_table(d, config, **cli_values):
    """Tabulate the kernel moment sequence with its limit and bounds."""
    options = resolve_options(cli_values, config)
    if d < 1:
        raise fail("d", "must be at least 1")
    p_max = options["p_max"]
    if not 0 <= p_max <= d:
        raise fail("p-max", f"must lie in 0..{d}")
    path = out_path(options["out"], "alpha-table", f"d{d}", options["nu"], p_max, options["format"])
    serialize.write_alpha_table(d, options["nu"], p_max, path, options["format"])
    click.echo(f"wrote {path}")


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
