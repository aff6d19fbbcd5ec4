"""The three workloads of the textlime benchmark.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns. Inputs come from the stdlib ``random`` module,
seeded by the workload name, the workload seed and a block index, so the op
list is a pure function of the seed and textlime receives only the generated
inputs. Ops come in blocks that each hold the workload's whole mix, and a
run ends on a block boundary, so every run sees the same mix.

A workload splits its work into steps the runner times separately:

- ``prepare(seed)``: stdlib-only input generation, before textlime is imported;
- ``setup(prepared, tmp)``: program work a user pays once, such as corpus
  load, ``fit_idf`` and local dictionaries; timed with the imports as ``setup_s``;
- ``block(state, seed, index)``: the plain-data ops of one block;
- ``stage(state, op)``: untimed preparation that returns the timed call;
- ``collect(state, op, raw)``: untimed reduction of the call's output;
- ``judge(state, op, result)``: the op's output check;
- ``corrupt(op, result)``: a wrong output, used to test ``judge`` itself;
- ``final_check(state, records)``: checks of the passed ops that need work
  after the loop; returns a failure message per op key.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from pathlib import Path

N = 5000
NU = 0.25
N_EXP = 100
N_MC = 200_000
# A single indicator must map to e_j; the paper proves it exactly.
SINGLE_TOL = 1e-9
# The Monte Carlo oracle must agree with the closed form within this many
# of its own standard errors, coordinate by coordinate.
MC_SIGMAS = 5.0
# Slack for "theory inside the whisker range", matching the program's own
# cushion for degenerate whiskers of exactly fitted models.
RANGE_EPS = 1e-9
# Relative residual of the weighted normal equations on a rebuilt batch.
RESIDUAL_TOL = 1e-8

OK, DECLINED, FAILED = "ok", "declined", "failed"


def rng(*key) -> random.Random:
    """A generator seeded by a string key; str seeds hash deterministically."""
    return random.Random(":".join(str(k) for k in key))


def zipf_weights(size: int, exponent: float = 1.1) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(size)]


def random_terms(rnd: random.Random, words, count: int, max_size: int) -> list:
    """`count` signed indicator products over distinct supports of 1..max_size words."""
    seen = set()
    terms = []
    while len(terms) < count:
        size = rnd.randint(1, min(max_size, len(words)))
        support = tuple(sorted(rnd.sample(words, size)))
        if support in seen:
            continue
        seen.add(support)
        terms.append([list(support), rnd.choice((-1.0, 1.0)) * rnd.uniform(0.5, 2.0)])
    return terms


def build_tree(tl, terms):
    return tl.TreeModel(
        terms=tuple(tl.IndicatorProduct(words=frozenset(ws), coefficient=c) for ws, c in terms)
    )


def all_finite(values) -> bool:
    """True when every value is a finite number (JSON writes NaN and inf as null)."""
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Workload:
    name = ""

    def prepare(self, seed: int) -> dict:
        return {}

    def final_check(self, state, records) -> dict:
        return {}


class VerifyCorpus(Workload):
    """One in-process ``textlime verify`` through the click entry point."""

    name = "verify-corpus"

    def setup(self, prepared, tmp: Path):
        import textlime as tl
        from textlime import cli

        path = tl.bundled_corpus_path()
        local = [tl.local_dictionary(doc) for doc in tl.load_corpus(path).documents]
        return {"cli": cli, "corpus_path": path, "local": local, "tmp": tmp}

    def block(self, state, seed, index):
        """Every document once, in seeded order, so each block has the same mix.

        One op in four uses a linear model (full mode enumerates e_term for
        d <= 20); the linear slots rotate from block to block.
        """
        order = list(range(len(state["local"])))
        rng(self.name, seed, "docs", index).shuffle(order)
        ops = []
        for j, doc in enumerate(order):
            k = index * len(order) + j
            words = state["local"][doc].words
            rnd = rng(self.name, seed, "op", k)
            op = {"k": k, "doc": doc, "seed": rnd.randrange(2**31)}
            if k % 4 != 3:
                factors = []
                for _ in range(rnd.randint(1, 4)):
                    chosen = rnd.sample(words, rnd.randint(1, min(3, len(words))))
                    inner = " & ".join('"%s"' % w for w in chosen)
                    if len(chosen) > 1:
                        inner = "(" + inner + ")"
                    factors.append("!" + inner if rnd.random() < 0.5 else inner)
                op.update(kind="tree", spec=" + ".join(factors))
            else:
                op.update(kind="linear", coefficients={w: rnd.gauss(0.0, 1.0) for w in words})
            ops.append(op)
        return ops

    def stage(self, state, op):
        out = state["tmp"] / ("op%06d" % op["k"])
        out.mkdir(parents=True, exist_ok=True)
        if op["kind"] == "tree":
            model_args = ["--model", op["spec"]]
        else:
            model_file = out / "linear.json"
            model_file.write_text(json.dumps(op["coefficients"]), encoding="utf-8")
            model_args = ["--model", str(model_file), "--linear-mode", "full"]
        args = [
            "verify",
            "--corpus", str(state["corpus_path"]),
            "--doc", str(op["doc"]),
            "--out", str(out),
            "--format", "json",
            "--seed", str(op["seed"]),
            "--n", str(N),
            "--nu", str(NU),
            "--n-exp", str(N_EXP),
            *model_args,
        ]
        group = state["cli"].cli

        def call():
            # The command echoes the files it wrote; keep them off our stdout.
            with contextlib.redirect_stdout(io.StringIO()):
                group.main(args=args, prog_name="textlime", standalone_mode=False)
            return out

        return call

    def collect(self, state, op, out):
        def read(pattern):
            found = sorted(Path(out).glob(pattern))
            return json.loads(found[0].read_text(encoding="utf-8")) if found else None

        return {"stats": read("verify-stats-*.json"), "report": read("verify-report-*.json")}

    def judge(self, state, op, result):
        stats, report = result["stats"], result["report"]
        if stats is None or report is None:
            return FAILED, "missing verify output file"
        if op["kind"] == "linear":
            # rel_deviation is NaN wherever the theory value is 0.
            values = [
                v
                for row in (*stats["rows"], *report["rows"])
                for key, v in row.items()
                if key not in ("word", "inside_iqr", "inside_range", "rel_deviation")
            ]
            if not all_finite(values):
                return FAILED, "non-finite value in linear verify output"
            return OK, ""
        stat_rows = {r["word"]: r for r in stats["rows"]}
        for row in (r for r in report["rows"] if r["word"] != "(intercept)"):
            theory = row["theory_value"]
            srow = stat_rows.get(row["word"])
            if srow is None or not all_finite([theory, srow["min"], srow["max"]]):
                return FAILED, "word %r: missing or non-finite value" % row["word"]
            if not srow["min"] - RANGE_EPS <= theory <= srow["max"] + RANGE_EPS:
                return FAILED, "word %r: theory %.6g outside whiskers [%.6g, %.6g]" % (
                    row["word"], theory, srow["min"], srow["max"])
        return OK, ""

    def corrupt(self, op, result):
        report = json.loads(json.dumps(result["report"]))
        stats = result["stats"]
        for row in report["rows"]:
            if row["word"] != "(intercept)":
                if op["kind"] == "linear":
                    row["theory_value"] = None
                else:
                    top = max(r["max"] for r in stats["rows"])
                    row["theory_value"] = top + 1.0
                break
        return {"stats": stats, "report": report}

    def d_values(self, state, ops):
        ds = [state["local"][op["doc"]].d for op in ops]
        return {"per_op_median": statistics.median(ds), "min": min(ds), "max": max(ds)}


class ExplainWide(Workload):
    """One ``explain`` call on a synthetic document of d = 1000 distinct words."""

    name = "explain-wide"
    # A LinearModel over all words, then a 20-term tree.
    block_size = 2
    D = 1000
    DOCS = 6
    IDF_DOCS = 300
    RESIDUAL_OPS = 2  # checked at each end of the run

    def prepare(self, seed):
        vocab = ["w%04d" % i for i in range(self.D)]
        rnd = rng(self.name, seed, "prepare")
        ranked = vocab[:]
        rnd.shuffle(ranked)
        weights = zipf_weights(self.D)
        docs = []
        for _ in range(self.DOCS):
            tokens = vocab + rnd.choices(ranked, weights=weights, k=self.D)
            rnd.shuffle(tokens)
            docs.append(tokens)
        idf_docs = [
            rnd.choices(ranked, weights=weights, k=rnd.randint(50, 150))
            for _ in range(self.IDF_DOCS)
        ]
        return {"docs": docs, "idf_docs": idf_docs}

    def setup(self, prepared, tmp):
        import textlime as tl

        corpus = tl.Corpus(documents=tuple(tl.Document(tokens=tuple(t)) for t in prepared["idf_docs"]))
        idf = tl.fit_idf(corpus)
        docs = [tl.Document(tokens=tuple(t)) for t in prepared["docs"]]
        local = [tl.local_dictionary(doc) for doc in docs]
        return {"tl": tl, "idf": idf, "docs": docs, "local": local}

    def block(self, state, seed, index):
        ops = []
        for j in range(self.block_size):
            k = index * self.block_size + j
            rnd = rng(self.name, seed, "op", k)
            doc = rnd.randrange(len(state["docs"]))
            words = state["local"][doc].words
            op = {"k": k, "doc": doc, "seed": rnd.randrange(2**31)}
            if j == 0:
                op.update(kind="linear", coefficients={w: rnd.gauss(0.0, 1.0) for w in words})
            else:
                op.update(kind="tree", terms=random_terms(rnd, words, 20, 3))
            ops.append(op)
        return ops

    def _model(self, tl, op):
        if op["kind"] == "linear":
            return tl.LinearModel(coefficients=op["coefficients"])
        return build_tree(tl, op["terms"])

    def stage(self, state, op):
        tl, doc, idf = state["tl"], state["docs"][op["doc"]], state["idf"]

        def call():
            return tl.explain(self._model(tl, op), doc, idf, n=N, nu=NU, seed=op["seed"])

        return call

    def collect(self, state, op, explanation):
        return {
            "intercept": float(explanation.intercept),
            "coefficients": [float(explanation.coefficients[w]) for w in state["local"][op["doc"]].words],
        }

    def judge(self, state, op, result):
        if not all_finite([result["intercept"], *result["coefficients"]]):
            return FAILED, "non-finite coefficient"
        return OK, ""

    def corrupt(self, op, result):
        return {"intercept": result["intercept"], "coefficients": [math.nan, *result["coefficients"][1:]]}

    def final_check(self, state, records):
        """Weighted normal-equation residual on batches rebuilt from each op's seed."""
        import numpy as np

        tl = state["tl"]
        chosen = records[: self.RESIDUAL_OPS] + records[-self.RESIDUAL_OPS :]
        failures = {}
        for rec in {id(r): r for r in chosen}.values():
            op, result = rec["op"], rec["result"]
            doc, local = state["docs"][op["doc"]], state["local"][op["doc"]]
            batch = tl.sample_batch(doc, local, N, NU, op["seed"])
            responses = self._model(tl, op).evaluate_matrix(batch.tfidf_matrix(state["idf"]), local.words)
            design = np.hstack([np.ones((len(responses), 1)), batch.z.astype(float)])
            beta = np.array([result["intercept"], *result["coefficients"]])
            w = np.asarray(batch.weights, dtype=float)
            fitted = design @ beta
            gradient = design.T @ (w * (fitted - responses))
            scale = np.linalg.norm(design.T @ (w * fitted)) + np.linalg.norm(design.T @ (w * responses))
            rel = float(np.linalg.norm(gradient) / scale) if scale > 0 else math.inf
            rec["residual"] = rel
            if not rel <= RESIDUAL_TOL:
                failures[op["k"]] = "normal-equation residual %.3g > %.0e" % (rel, RESIDUAL_TOL)
        return failures

    def d_values(self, state, ops):
        return {"per_op": sorted({state["local"][op["doc"]].d for op in ops})}


class TheoryGrid(Workload):
    """One population explanation at a seeded point (d, nu)."""

    name = "theory-grid"
    DS = (31, 200, 1000)
    block_size = len(DS)
    # The closed forms are accurate to about 5e-12 here; below nu = 0.01
    # they can return wrong values (measured by ``bandwidth_probe``), and a
    # timed op must not fail.
    NU_LOG10 = (-1.5, 2.0)
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

    def prepare(self, seed):
        synthetic = {}
        for d in self.DS[1:]:
            words = ["t%04d" % i for i in range(d)]
            rng(self.name, seed, "doc", d).shuffle(words)
            synthetic[str(d)] = words
        return {"synthetic": synthetic}

    def setup(self, prepared, tmp):
        import textlime as tl

        corpus = tl.load_corpus(tl.bundled_corpus_path())
        idf = tl.fit_idf(corpus)
        docs = {self.DS[0]: corpus.documents[0]}
        for d in self.DS[1:]:
            docs[d] = tl.Document(tokens=tuple(prepared["synthetic"][str(d)]))
        local = {d: tl.local_dictionary(doc) for d, doc in docs.items()}
        return {"tl": tl, "idf": idf, "docs": docs, "local": local}

    def block(self, state, seed, index):
        lo, hi = self.NU_LOG10
        ops = []
        for j, d in enumerate(self.DS):
            k = index * self.block_size + j
            rnd = rng(self.name, seed, "op", k)
            words = state["local"][d].words
            # Per d, a golden-ratio sequence with a seeded offset: every value
            # is log-uniform, and any prefix of the run covers the range evenly.
            offset = rng(self.name, seed, "nu", d).random()
            frac = (offset + index * self.GOLDEN) % 1.0
            ops.append({
                "k": k,
                "d": d,
                "nu": 10.0 ** (lo + (hi - lo) * frac),
                "terms": random_terms(rnd, words, 20, 3),
                "single": rnd.choice(words),
                "mc_seed": rnd.randrange(2**31),
                "mc": d == self.DS[0],
            })
        return ops

    def stage(self, state, op):
        tl = state["tl"]
        local, nu = state["local"][op["d"]], op["nu"]

        def call():
            tree = build_tree(tl, op["terms"])
            out = {
                "tree": tl.beta_tree(tree, local, nu),
                "single": tl.beta_tree(build_tree(tl, [[[op["single"]], 1.0]]), local, nu),
            }
            if op["mc"]:
                out["mc"] = tl.beta_general_mc(
                    tree, state["docs"][op["d"]], state["idf"], nu=nu, n_mc=N_MC, seed=op["mc_seed"]
                )
            return out

        return call

    def collect(self, state, op, out):
        local = state["local"][op["d"]]
        result = {
            "tree": [out["tree"].intercept, *out["tree"].coefficients],
            "single": [out["single"].intercept, *out["single"].coefficients],
            "single_index": local.index_of(op["single"]),
        }
        if "mc" in out:
            mc = out["mc"]
            result["mc"] = [mc.intercept, *mc.coefficients]
            result["mc_stderr"] = [mc.intercept_stderr, *mc.coefficient_stderr]
        return result

    def judge(self, state, op, result):
        for key in ("tree", "single", "mc", "mc_stderr"):
            if key in result and not all_finite(result[key]):
                return FAILED, "non-finite %s output" % key
        expected = [0.0] * len(result["single"])
        expected[1 + result["single_index"]] = 1.0
        error = max(abs(a - b) for a, b in zip(result["single"], expected))
        if not error <= SINGLE_TOL:
            return FAILED, "single indicator off e_j by %.3g at nu=%.4g, d=%d" % (error, op["nu"], op["d"])
        if "mc" in result:
            for i, (m, s, c) in enumerate(zip(result["mc"], result["mc_stderr"], result["tree"])):
                if not abs(m - c) <= MC_SIGMAS * s + 1e-12 * max(1.0, abs(c)):
                    return FAILED, "coordinate %d: Monte Carlo %.6g vs closed form %.6g (se %.3g)" % (i, m, c, s)
        return OK, ""

    def corrupt(self, op, result):
        single = list(result["single"])
        single[1 + result["single_index"]] += 1e-6
        return {**result, "single": single}

    def d_values(self, state, ops):
        return {"per_op": sorted({op["d"] for op in ops})}


# Untimed probe of the narrow-bandwidth defect: every (d, nu) on this grid,
# nu = 10^-3 .. 10^2 in quarter decades, with a single indicator.
PROBE_NU_LOG10 = [-3.0 + 0.25 * i for i in range(21)]


def bandwidth_probe(tl) -> dict:
    """Share of grid points where a single indicator maps to e_j or is declined.

    The timed theory-grid ops stay where the closed forms are accurate; this
    probe keeps the narrower bandwidths visible, as a per-layer metric.
    """
    declined = getattr(tl, "ClosedFormDomainError", ())
    corpus_doc = tl.load_corpus(tl.bundled_corpus_path()).documents[0]
    sound, wrong = 0, []
    for d in TheoryGrid.DS:
        doc = corpus_doc if d == TheoryGrid.DS[0] else tl.Document(tokens=tuple("t%04d" % i for i in range(d)))
        local = tl.local_dictionary(doc)
        word = local.words[0]
        for e in PROBE_NU_LOG10:
            try:
                out = tl.beta_tree(build_tree(tl, [[[word], 1.0]]), local, 10.0**e)
            except declined:
                sound += 1
                continue
            values = [out.intercept, *out.coefficients]
            expected = [0.0] * len(values)
            expected[1 + local.index_of(word)] = 1.0
            if all_finite(values) and max(abs(a - b) for a, b in zip(values, expected)) <= SINGLE_TOL:
                sound += 1
            else:
                wrong.append("d=%d nu=1e%+.2f" % (d, e))
    return {"sound_ratio": sound / (len(TheoryGrid.DS) * len(PROBE_NU_LOG10)), "wrong": wrong}


WORKLOADS = {w.name: w for w in (VerifyCorpus(), ExplainWide(), TheoryGrid())}
