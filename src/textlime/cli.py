"""Command-line interface wiring corpora, models, and experiments together.

Subcommands: explain, theory, verify, sweep, alpha-table. Each option is
declared once, with its default, below, and each command takes only the
options it reads. A value comes from the flag or the
environment (TEXTLIME_<COMMAND>_<OPTION>, e.g. TEXTLIME_EXPLAIN_FORMAT),
else from the --config JSON file, whose keys are option names (with - or
_), else from the default. Config keys for options the command does not
take are ignored. --threads is capped at the CPUs the process may run
on. All stochastic outputs are fully determined by --seed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import serialize
from .corpus import Corpus, Document, IdfTable, fit_idf, load_corpus, local_dictionary, tokenize
from .models import (
    IndicatorProduct,
    LinearModel,
    Model,
    TreeSpecError,
    load_linear_model,
    tree_from_spec,
)
from .surrogate import explain as run_explain
from .theory import (
    ClosedFormDomainError, _NarrowBandwidth, beta_general_mc, beta_linear, population_explanation,
)
from .verify import (
    compare,
    default_nu_grid,
    run_repeated,
    sweep_bandwidth,
)


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
    except UnicodeDecodeError as exc:
        raise fail("config", f"not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise fail("config", f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise fail("config", "must be a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


# Range checks, in the order they are reported, for the options a command has.
_RANGE_CHECKS = (
    ("nu", lambda v: v > 0, "bandwidth must be positive"),
    ("n", lambda v: v >= 1, "need at least one perturbed sample"),
    ("n_exp", lambda v: v >= 1, "need at least one repetition"),
    ("ridge", lambda v: v >= 0, "ridge parameter must be nonnegative"),
    ("threads", lambda v: v >= 1, "worker count must be at least 1"),
    ("n_mc", lambda v: v >= 2, "need at least two Monte Carlo samples"),
    ("seed", lambda v: v >= 0, "master seed must be nonnegative"),
)


def _field(name: str) -> str:
    return name.replace("_", "-")


def resolve_options(config_path: str | None) -> dict:
    """The current command's options, with config-file values filling the
    ones that neither a flag nor the environment set."""
    ctx = click.get_current_context()
    options = dict(ctx.params)
    params = {param.name: param for param in ctx.command.params}
    for key, value in _load_config(config_path).items():
        param = params.get(key)
        if param is None or value is None:
            continue
        if ctx.get_parameter_source(key) is not ParameterSource.DEFAULT:
            continue
        # A value is parsed from its JSON text, as a flag's text is: JSON
        # true is not the integer 1, and 7.9 is not the integer 7.
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            options[key] = param.type_cast_value(ctx, text)
        except click.BadParameter as exc:
            raise fail(_field(key), exc.message)
        # The config file plays the part of click's default map.
        ctx.set_parameter_source(key, ParameterSource.DEFAULT_MAP)

    if "nu_lime" in options and ctx.get_parameter_source("nu_lime") is not ParameterSource.DEFAULT:
        if ctx.get_parameter_source("nu") is not ParameterSource.DEFAULT:
            raise fail("nu/nu-lime", "give exactly one of --nu and --nu-lime")
        if not options["nu_lime"] > 0:
            raise fail("nu-lime", "bandwidth must be positive")
        options["nu"] = options["nu_lime"] / 100.0
    for name, valid, message in _RANGE_CHECKS:
        if name in options and not valid(options[name]):
            raise fail(_field(name), message)
    return options


def load_corpus_or_fail(path: str | None) -> Corpus:
    if path is None:
        raise fail("corpus", "required (path to a corpus file)")
    corpus_path = Path(path)
    if not corpus_path.is_file():
        raise fail("corpus", f"no such file: {corpus_path}")
    try:
        corpus = load_corpus(corpus_path)
    except ValueError as exc:
        raise fail("corpus", str(exc))
    if corpus.size == 0:
        raise fail("corpus", f"{corpus_path} holds no documents")
    return corpus


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


def _model_file(spec: str) -> Path | None:
    """The linear-model file a --model value names, or None for a tree."""
    candidate = Path(spec)
    if candidate.suffix.lower() == ".json" or candidate.is_file():
        return candidate
    return None


def parse_model(spec: str | None) -> Model:
    if spec is None:
        raise fail("model", "required (tree expression, linear JSON path, or 'constant')")
    if spec == "constant":
        return IndicatorProduct(words=frozenset(), coefficient=1.0)
    path = _model_file(spec)
    if path is not None:
        if not path.is_file():
            raise fail("model", f"no such file: {path}")
        try:
            return load_linear_model(path)
        except (ValueError, json.JSONDecodeError) as exc:
            raise fail("model", f"bad linear model file {path}: {exc}")
    try:
        return tree_from_spec(spec)
    except TreeSpecError as exc:
        raise fail("model", str(exc))


def model_tag(spec: str) -> str:
    if spec == "constant":
        return "constant"
    path = _model_file(spec)
    stem = spec if path is None else path.stem
    tag = re.sub(r"[^0-9A-Za-z_-]+", "_", stem).strip("_")
    return tag[:40] or "model"


def load_inputs(options: dict) -> tuple[Document, Model, IdfTable]:
    """The document, model and IDF table that --corpus, --doc and --model name."""
    corpus = load_corpus_or_fail(options["corpus"])
    document = select_document(corpus, options["doc"])
    return document, parse_model(options["model"]), fit_idf(corpus)


def _too_narrow(field: str, exc: ValueError) -> "click.ClickException":
    """A run whose drawn kernel weights are all 0 blames the bandwidth
    `field`; any other error of a run propagates."""
    if not str(exc).startswith("degenerate weights"):
        raise exc
    return fail(field, f"bandwidth too narrow for this document: {exc}")


def population_or_fail(options: dict, model: Model, document: Document, idf: IdfTable, **kwargs):
    """The theory of `theory` and `verify` at the options' nu and seed: the
    oracle `beta_general_mc` under --theory-method mc, else the simplified
    `beta_linear` of a linear model under --linear-mode simplified, else
    `population_explanation`, which routes by the model. A closed form's
    domain error blames nu if the bandwidth is too narrow, else doc."""
    nu, seed = options["nu"], options["seed"]
    try:
        if options.get("theory_method") == "mc":
            return beta_general_mc(model, document, idf, nu=nu, seed=seed, **kwargs)
        if isinstance(model, LinearModel) and options["linear_mode"] == "simplified":
            return beta_linear(model, document, idf, mode="simplified", nu=nu)
        return population_explanation(model, document, idf, nu=nu, seed=seed, **kwargs)
    except ClosedFormDomainError as exc:
        raise fail("nu" if isinstance(exc, _NarrowBandwidth) else "doc", str(exc))


def out_path(options: dict, experiment: str, tag: str, nu=None, n=None, ext=None) -> Path:
    """`<out>/<experiment>-<tag>-<nu>-<n>.<ext>`; nu, n and ext default to
    the --nu, --n and --format options."""
    directory = Path(options["out"])
    directory.mkdir(parents=True, exist_ok=True)
    nu = options["nu"] if nu is None else nu
    n = options["n"] if n is None else n
    return directory / f"{experiment}-{tag}-{nu:g}-{n}.{ext or options['format']}"


# Each option is declared here once; each command below lists the ones it
# reads, so no command accepts an option that changes nothing.
corpus_option = click.option("--corpus", type=str, help="Corpus file (text lines or .jsonl).")
doc_option = click.option("--doc", type=str, help="0-based document index, or inline text.")
model_option = click.option("--model", type=str, help="Tree expression, linear JSON path, or 'constant'.")
n_option = click.option("--n", type=int, default=5000, help="Perturbed samples per explanation.")
nu_option = click.option("--nu", type=float, default=0.25, help="Kernel bandwidth.")
nu_lime_option = click.option("--nu-lime", type=float, help="Bandwidth in reference-implementation units (100x nu).")
ridge_option = click.option("--ridge", type=float, default=0.0, help="Ridge penalty of the surrogate.")
seed_option = click.option("--seed", type=int, default=0, help="Master seed; fixes all stochastic output.")
out_option = click.option("--out", type=str, default=".", help="Output directory.")
format_option = click.option("--format", type=click.Choice(["csv", "json"]), default="csv", help="Output format.")
threads_option = click.option("--threads", type=int, default=1, help="Worker cap for repeated runs (at most the CPUs the process may use).")
config_option = click.option("--config", type=str, help="JSON config file (flags and environment win over it).")
n_exp_option = click.option("--n-exp", type=int, default=100, help="Repeated runs (per bandwidth, for sweep).")
linear_mode_option = click.option("--linear-mode", type=click.Choice(["simplified", "full"]), default="full", help="Linear-model prediction: full (exact at --nu, the default) or simplified (the paper's large-bandwidth constant).")


def with_options(*decorators):
    """Apply option decorators; --help lists them in the given order."""

    def apply(command):
        for decorator in reversed(decorators):
            command = decorator(command)
        return command

    return apply


@click.group(context_settings={"auto_envvar_prefix": "TEXTLIME", "show_default": True})
@click.version_option(package_name="textlime")
def cli() -> None:
    """Explain text models by word-removal sampling, and check the
    explanations against their closed-form limits."""


@cli.command("explain")
@with_options(
    corpus_option, doc_option, model_option, n_option, nu_option, nu_lime_option,
    ridge_option, seed_option, out_option, format_option, config_option,
)
def cmd_explain(config, **_):
    """Fit the surrogate once and write the explanation."""
    options = resolve_options(config)
    document, model, idf = load_inputs(options)
    try:
        explanation = run_explain(
            model,
            document,
            idf,
            n=options["n"],
            nu=options["nu"],
            ridge=options["ridge"],
            seed=options["seed"],
        )
    except ValueError as exc:
        raise _too_narrow("nu", exc)
    path = out_path(options, "explanation", model_tag(options["model"]))
    serialize.write_explanation(explanation, path, options["format"])
    click.echo(f"wrote {path}")


@cli.command("theory")
@with_options(
    corpus_option, doc_option, model_option, n_option, nu_option, nu_lime_option,
    seed_option, out_option, format_option, config_option, linear_mode_option,
)
@click.option("--theory-method", type=click.Choice(["auto", "mc"]), default="auto", help="'mc' forces the Monte Carlo oracle.")
@click.option("--n-mc", type=int, default=200_000, help="Monte Carlo sample count.")
def cmd_theory(config, **_):
    """Write the population explanation: closed form, enumeration or Monte Carlo."""
    options = resolve_options(config)
    document, model, idf = load_inputs(options)
    theory = population_or_fail(options, model, document, idf, n_mc=options["n_mc"])
    path = out_path(options, "theory", model_tag(options["model"]))
    serialize.write_theory(theory, path, options["format"])
    click.echo(f"wrote {path} (provenance: {theory.provenance})")


@cli.command("verify")
@with_options(
    corpus_option, doc_option, model_option, n_option, nu_option, nu_lime_option,
    ridge_option, seed_option, out_option, format_option, threads_option, config_option,
    n_exp_option, linear_mode_option,
)
def cmd_verify(config, **_):
    """Run repeated explanations, compare them against theory, and write
    whisker statistics plus a comparison report."""
    options = resolve_options(config)
    document, model, idf = load_inputs(options)
    theory = population_or_fail(options, model, document, idf)
    try:
        stats = run_repeated(
            model, document, idf,
            n=options["n"], nu=options["nu"], ridge=options["ridge"],
            n_exp=options["n_exp"], master_seed=options["seed"],
            threads=options["threads"],
        )
    except ValueError as exc:
        raise _too_narrow("nu", exc)
    report = compare(stats, theory)

    tag = model_tag(options["model"])
    stats_path = out_path(options, "verify-stats", tag)
    report_path = out_path(options, "verify-report", tag)
    table_path = out_path(options, "verify-report", tag, ext="txt")
    serialize.write_run_statistics(stats, stats_path, options["format"])
    serialize.write_comparison(report, report_path, options["format"])
    table_path.write_text(serialize.comparison_table(report) + "\n", encoding="utf-8")
    click.echo(f"wrote {stats_path}")
    click.echo(f"wrote {report_path}")
    click.echo(f"wrote {table_path}")
    click.echo(
        "max abs deviation: %.6g (theory inside whisker range: %s)"
        % (report.max_abs_deviation, "yes" if report.all_inside_range() else "no")
    )


@cli.command("sweep")
@with_options(
    corpus_option, doc_option, model_option, n_option, ridge_option, seed_option,
    out_option, format_option, threads_option, config_option,
)
@click.option("--word", type=str, help="Word whose coefficient is tracked.")
@n_exp_option
@click.option("--nu-grid", type=str, help="Comma-separated bandwidths (default: 24 log-spaced in [0.03, 3]).")
def cmd_sweep(config, **_):
    """Track one word's coefficient across bandwidths; one CSV row per nu."""
    options = resolve_options(config)
    document, model, idf = load_inputs(options)
    word, nu_grid = options["word"], options["nu_grid"]
    if word is None:
        raise fail("word", "required (word whose coefficient is swept)")
    if nu_grid is None:
        grid = default_nu_grid()
    else:
        try:
            grid = np.array([float(v) for v in nu_grid.split(",") if v.strip()])
        except ValueError:
            raise fail("nu-grid", f"not a comma-separated float list: {nu_grid}")
        if len(grid) == 0:
            raise fail("nu-grid", "grid is empty")
        if not np.all(grid > 0):
            raise fail("nu-grid", "bandwidths must be positive")
    if word not in local_dictionary(document):
        raise fail("word", f"unknown word {word!r}: not in the local dictionary")
    try:
        points = sweep_bandwidth(
            model, document, idf, word, grid,
            n=options["n"], ridge=options["ridge"], n_exp=options["n_exp"],
            master_seed=options["seed"], threads=options["threads"],
        )
    except ValueError as exc:
        raise _too_narrow("nu-grid", exc)
    path = out_path(options, "sweep", model_tag(options["model"]), nu=float(grid[0]))
    serialize.write_sweep(points, path, options["format"])
    click.echo(f"wrote {path}")


@cli.command("alpha-table")
@click.option("--d", type=int, help="Local dictionary size.")
@nu_option
@nu_lime_option
@click.option("--p-max", type=int, default=4, help="Largest moment order.")
@out_option
@format_option
@config_option
def cmd_alpha_table(config, **_):
    """Tabulate the kernel moment sequence with its limit and bounds."""
    options = resolve_options(config)
    d, p_max = options["d"], options["p_max"]
    if d is None:
        raise fail("d", "required (local dictionary size)")
    if d < 1:
        raise fail("d", "must be at least 1")
    if not 0 <= p_max <= d:
        raise fail("p-max", f"must lie in 0..{d}")
    path = out_path(options, "alpha-table", f"d{d}", n=p_max)
    serialize.write_alpha_table(d, options["nu"], p_max, path, options["format"])
    click.echo(f"wrote {path}")


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
