"""Per-layer timings of the explanation pipeline (sampler, TF-IDF
renormalization, weighted least-squares solve) and of the theory layer, plus
the end-to-end explanation and repeated run.

Each pipeline case times one layer at n = 5000 samples and dictionary size
d in {12, 31, 200, 1000}; the solve is timed on the int8 design that
`fit_batch` passes. Each theory case times `alpha_values`
(orders 0..4), `sigma_set`, `normalization_constant` or a 20-term `beta_tree` at
d in {31, 200, 1000}, or the full-mode `beta_linear` of a linear model over
every word at d in {12, 17, 20}, where it enumerates all 2^d survivor sets.
The model case times a 20-term tree's `evaluate_matrix` on renormalized
TF-IDF samples of n x d in {5000 x 12, 5000 x 31, 5000 x 1000, 65536 x 31}
(65536 is the Monte Carlo oracle's chunk). The end-to-end cases time
`run_repeated` with n_exp = 100 runs of a 20-term tree at n = 5000 and d in
{12, 31}, one `explain` of a 20-term tree at n = 5000 and d in {31, 1000},
and the Monte Carlo oracle `beta_general_mc` of a 20-term tree with
n_mc = 200,000 samples at d = 31. Seeds are
fixed, and every case keeps the minimum of K = 7 runs and the mean number of
minor page faults per call (`resource.getrusage`, whole process). Only the
standard library is used for timing. The record stores the
BLAS thread setting, the CPU count, the numpy and Python versions, and the
source it timed: the git commit of the textlime checkout (suffixed `-dirty`
when the package differs from that commit) and a SHA-256 over the package's
`.py` files. The record is written under its label into a JSON file,
replacing an earlier record with the same label, so records of two commits
can sit side by side:

    PYTHONPATH=src python benchmarks/layers.py --label change --out BENCH_11.json

Set OPENBLAS_NUM_THREADS before the run to fix the BLAS thread count; the
script reads it and does not change it. The textlime package is imported
from the Python path, so pointing PYTHONPATH at another checkout's `src`
times that checkout with the same cases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import time
from pathlib import Path

import numpy as np

import textlime
from textlime.corpus import Document, IdfTable, local_dictionary
from textlime.models import IndicatorProduct, TreeModel
from textlime.sampling import draw_feature_matrix, sample_batch
from textlime.surrogate import explain, fit_weighted_ridge
from textlime.theory import (
    alpha_values,
    beta_general_mc,
    beta_linear,
    beta_tree,
    normalization_constant,
    sigma_set,
)
from textlime.verify import run_repeated

N = 5000
DICTIONARY_SIZES = (12, 31, 200, 1000)
THEORY_SIZES = (31, 200, 1000)
LINEAR_SIZES = (12, 17, 20)
REPEATED_SIZES = (12, 31)
EXPLAIN_SIZES = (31, 1000)
EVALUATE_SHAPES = ((5000, 12), (5000, 31), (5000, 1000), (65536, 31))
N_EXP = 100
N_MC = 200_000
MC_SIZE = 31
TREE_TERMS = 20
NU = 0.25
SEED = 20201023
K = 7


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _min_ms(fn) -> tuple[float, float]:
    """Minimum wall time of K calls, and minor page faults per call."""
    best = float("inf")
    faults = _minor_faults()
    for _ in range(K):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3, (_minor_faults() - faults) / K


def _document(d: int) -> tuple[Document, IdfTable]:
    """d distinct words, word j repeated 1 + (j mod 3) times and seen in
    1 + (j mod 9) of 10 corpus documents."""
    words = tuple(f"w{j}" for j in range(d))
    tokens = tuple(w for j, w in enumerate(words) for _ in range(1 + j % 3))
    idf = IdfTable(words, tuple(1 + j % 9 for j in range(d)), 10)
    return Document(tokens=tokens), idf


def _tree(words, rng: np.random.Generator) -> TreeModel:
    """TREE_TERMS signed indicator products over 1..3 distinct words each."""
    return TreeModel(
        terms=tuple(
            IndicatorProduct(
                words=frozenset(str(w) for w in rng.choice(words, 1 + i % 3, replace=False)),
                coefficient=float(rng.uniform(-2.0, 2.0)),
            )
            for i in range(TREE_TERMS)
        )
    )


def _record(cases: list[dict], layer: str, fn, **shape) -> None:
    fn()
    best, faults = _min_ms(fn)
    best = round(best, 3)
    cases.append(
        {"layer": layer, **shape, "k": K, "min_ms": best, "minor_faults_per_call": faults}
    )
    where = " ".join(f"{key}={value}" for key, value in shape.items())
    print(f"{layer:32s} {where:28s} {best:9.3f} ms  {faults:8.1f} faults")


def run_cases() -> list[dict]:
    cases = []
    # First, as in a fresh `textlime verify` process: once the d = 1000 cases
    # have freed 40 MB arrays, glibc's malloc keeps freed memory mapped and
    # later runs fault in no pages at all.
    for d in REPEATED_SIZES:
        doc, idf = _document(d)
        tree = _tree(local_dictionary(doc).words, np.random.default_rng(SEED))
        _record(
            cases,
            "verify.run_repeated",
            lambda: run_repeated(tree, doc, idf, n=N, nu=NU, n_exp=N_EXP, master_seed=SEED),
            n=N,
            n_exp=N_EXP,
            d=d,
        )
    for n, d in EVALUATE_SHAPES:
        doc, idf = _document(d)
        local = local_dictionary(doc)
        tree = _tree(local.words, np.random.default_rng(SEED))
        values = sample_batch(doc, local, n, NU, SEED).tfidf_matrix(idf)
        _record(
            cases,
            "models.evaluate_matrix",
            lambda: tree.evaluate_matrix(values, local.words),
            model="tree",
            n=n,
            d=d,
        )
    doc, idf = _document(MC_SIZE)
    tree = _tree(local_dictionary(doc).words, np.random.default_rng(SEED))
    _record(
        cases,
        "theory.beta_general_mc",
        lambda: beta_general_mc(tree, doc, idf, nu=NU, n_mc=N_MC, seed=SEED),
        n_mc=N_MC,
        d=MC_SIZE,
    )
    for d in EXPLAIN_SIZES:
        doc, idf = _document(d)
        tree = _tree(local_dictionary(doc).words, np.random.default_rng(SEED))
        _record(
            cases,
            "surrogate.explain",
            lambda: explain(tree, doc, idf, n=N, nu=NU, seed=SEED),
            model="tree",
            n=N,
            d=d,
        )
    for d in DICTIONARY_SIZES:
        doc, idf = _document(d)
        local = local_dictionary(doc)
        batch = sample_batch(doc, local, N, NU, SEED)
        responses = batch.tfidf_matrix(idf) @ np.linspace(-1.0, 1.0, d)
        design = np.hstack([np.ones((N, 1), np.int8), batch.z])
        timed = {
            "sampling.draw_feature_matrix": lambda: draw_feature_matrix(
                np.random.default_rng(SEED), N, d
            ),
            "sampling.tfidf_matrix": lambda: batch.tfidf_matrix(idf),
        }
        for layer, fn in timed.items():
            _record(cases, layer, fn, n=N, d=d)
        _record(
            cases,
            "surrogate.fit_weighted_ridge",
            lambda: fit_weighted_ridge(design, batch.weights, responses),
            n=N,
            d=d,
        )
    for d in THEORY_SIZES:
        local = local_dictionary(_document(d)[0])
        tree = _tree(local.words, np.random.default_rng(SEED))
        timed = {
            "theory.alpha_values": lambda: alpha_values(d, NU, 4),
            "theory.sigma_set": lambda: sigma_set(d, NU),
            "theory.normalization_constant": lambda: normalization_constant(d, NU),
            "theory.beta_tree": lambda: beta_tree(tree, local, NU),
        }
        for layer, fn in timed.items():
            _record(cases, layer, fn, d=d)
    for d in LINEAR_SIZES:
        doc, idf = _document(d)
        lam = dict(zip(local_dictionary(doc).words, np.linspace(-1.0, 1.0, d)))
        _record(
            cases,
            "theory.beta_linear",
            lambda: beta_linear(lam, doc, idf, mode="full"),
            mode="full",
            d=d,
        )
    return cases


def environment() -> dict:
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "textlime": textlime.__version__,
    }


def source() -> dict:
    package = Path(textlime.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    git = ["git", "-C", str(package)]
    try:
        commit = subprocess.run(
            git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            git + ["status", "--porcelain", "--", "."], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = "unknown", ""
    return {"commit": commit + ("-dirty" if dirty else ""), "source_sha256": digest.hexdigest()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="record name, e.g. parent or change")
    parser.add_argument("--out", type=Path, default=Path("BENCH_layers.json"))
    args = parser.parse_args()

    record = {"label": args.label, **source()}
    record.update(environment=environment(), cases=run_cases())
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    records = [r for r in data.get("records", []) if r["label"] != args.label]
    data["records"] = records + [record]
    args.out.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
