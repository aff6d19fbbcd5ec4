"""Black-box models whose explanations are studied.

All models are deterministic real-valued functions of a TF-IDF vector:
products of word-presence indicators, small decision trees expanded into
signed indicator products, linear functions of the TF-IDF coordinates,
and linear combinations of any of these.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


class Model:
    """Deterministic, total function of a TF-IDF vector, evaluated in batches.

    A model implements `evaluate_matrix`, the one evaluation protocol: the
    surrogate fit and the population oracles call it on batches of
    perturbed samples. Only a custom model receives renormalized TF-IDF
    rows: the package answers the built-in models from the binary presence
    rows (and, for linear parts, the TF-IDF masses).

    The package may call a custom `evaluate_matrix` on row blocks of any
    size. Only `run_repeated` with threads > 1 (and so `sweep_bandwidth`,
    `linearity_check`, `concentration_check` and the CLI's `--threads`)
    calls it from several threads at once, one run per thread; `explain`
    and the oracles call it from the calling thread alone. So it must
    answer each row from that row alone and keep no shared mutable state.
    """

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        """Evaluate on a batch: row i of `values` holds the coordinates of
        sample i for `words`; all other coordinates are zero. Returns one
        response per row."""
        raise NotImplementedError


@dataclass(frozen=True)
class IndicatorProduct(Model):
    """coefficient * prod_{w in words} 1{w is present}; empty product is 1.
    A word is present where its coordinate is positive, so the package
    passes presence rows."""

    words: frozenset[str]
    coefficient: float = 1.0

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        return TreeModel(terms=(self,)).evaluate_matrix(values, words)


@dataclass(frozen=True)
class TreeModel(Model):
    """A decision rule over word presence, stored pre-expanded as a sum of
    signed indicator products. It reads only which coordinates are
    positive, so the package passes presence rows."""

    terms: tuple[IndicatorProduct, ...]

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        """Reads each column a term names once, into a contiguous presence
        row, and adds each term's value (its coefficient where all its words
        are present, else 0) left to right into zeros. A term naming a word
        outside `words` is zero on every row and is skipped."""
        index = {w: j for j, w in enumerate(words)}
        rows: dict[int, int] = {}
        supports = []
        for term in self.terms:
            if all(w in index for w in term.words):
                support = [rows.setdefault(index[w], len(rows)) for w in term.words]
                supports.append((term.coefficient, support))
        columns = list(rows)
        # int8 presence rows are gathered first and compared in place. The
        # integer 0 compares float rows exactly as 0.0 would.
        if values.dtype == np.int8:
            gathered = values.T[columns]
            present = np.greater(gathered, 0, out=gathered.view(bool))
        else:
            present = values.T[columns] > 0
        out = np.zeros(len(values))
        for coefficient, support in supports:
            mask = present[support[0]] if support else np.ones(len(values), dtype=bool)
            for r in support[1:]:
                mask = mask & present[r]
            # mask * c is c or a signed zero on each row, and out never holds
            # -0.0, so for a finite c this adds exactly what np.where(mask, c, 0)
            # adds, without a select per row.
            if math.isfinite(coefficient):
                out += mask * coefficient
            else:
                out += np.where(mask, coefficient, 0.0)
        return out


@dataclass(frozen=True)
class LinearModel(Model):
    """sum_w coefficients[w] * phi_w over the words it names."""

    coefficients: Mapping[str, float]

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        return values @ _weight_vector(self.coefficients, words)


def _weight_vector(coefficients: Mapping[str, float], words: Sequence[str]) -> np.ndarray:
    """lambda over `words`: coefficients[w] at the index of w, else 0; a
    coefficient of a word outside `words` is dropped."""
    index = {w: j for j, w in enumerate(words)}
    lam = np.zeros(len(words))
    for w, c in coefficients.items():
        j = index.get(w)
        if j is not None:
            lam[j] = float(c)
    return lam


@dataclass(frozen=True)
class CombinedModel(Model):
    """Coefficient-weighted sum of arbitrary models."""

    parts: tuple[tuple[float, Model], ...]

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        out = np.zeros(len(values))
        for a, m in self.parts:
            out += a * m.evaluate_matrix(values, words)
        return out


def _tree_from_polynomial(poly: dict[frozenset[str], float]) -> TreeModel:
    """The tree of a {word set: coefficient} polynomial: zero coefficients
    drop, and the terms go by support size, then alphabetically."""
    return TreeModel(
        terms=tuple(
            IndicatorProduct(words=k, coefficient=v)
            for k, v in sorted(poly.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            if v != 0.0
        )
    )


def _split(
    model: Model,
) -> tuple[TreeModel | None, LinearModel | None, tuple[tuple[float, Model], ...]]:
    """`model` as (tree, linear, rest): a bare tree or indicator product is
    a tree, a bare linear model the linear part and any other bare model the
    rest ((1.0, model),). A `CombinedModel` is flattened, nested coefficients
    multiplied through: its indicator terms merge into one tree, its linear
    weights add into one LinearModel and its other parts keep their order.
    A part with no term or weight is None (the rest ()).
    """
    if isinstance(model, IndicatorProduct):
        model = TreeModel(terms=(model,))
    if isinstance(model, TreeModel):
        return model, None, ()
    if isinstance(model, LinearModel):
        return None, model, ()
    if not isinstance(model, CombinedModel):
        return None, None, ((1.0, model),)
    poly: dict[frozenset[str], float] = {}
    weights: dict[str, float] = {}
    rest: tuple[tuple[float, Model], ...] = ()
    for a, part in model.parts:
        tree, linear, others = _split(part)
        for t in getattr(tree, "terms", ()):
            poly[t.words] = poly.get(t.words, 0.0) + a * t.coefficient
        for w, c in getattr(linear, "coefficients", {}).items():
            weights[w] = weights.get(w, 0.0) + a * c
        rest += tuple((a * b, m) for b, m in others)
    tree = _tree_from_polynomial(poly) if poly else None
    return tree, LinearModel(coefficients=weights) if weights else None, rest


def combine(parts: Sequence[tuple[float, Model]]) -> Model:
    """Weighted sum of models: their `CombinedModel`, or its `_split` tree
    when it has no linear part and no other part. The tree keeps the
    closed-form route of a tree: same-support terms collapse, nested sums
    flatten and zero coefficients drop.
    """
    combined = CombinedModel(parts=tuple((float(a), m) for a, m in parts))
    tree, linear, rest = _split(combined)
    if linear is None and not rest:
        return tree or TreeModel(terms=())
    return combined


class TreeSpecError(ValueError):
    """Malformed tree expression; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class _TreeParser:
    """Recursive-descent parser for the tree mini-DSL.

    Grammar (whitespace insignificant):
        expr   := term ('+' term)*
        term   := factor ('&' factor)*
        factor := '!' factor | '(' expr ')' | '"' word '"'

    A quoted word is the presence indicator of that word; '&' multiplies,
    '!' complements, '+' adds. The result is expanded into a multilinear
    polynomial keyed by word sets (indicators are idempotent, so a product
    is the indicator of the union).
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def parse(self) -> dict[frozenset[str], float]:
        poly = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise TreeSpecError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return poly

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> dict[frozenset[str], float]:
        poly = self._term()
        while self._peek() == "+":
            self.pos += 1
            for k, v in self._term().items():
                poly[k] = poly.get(k, 0.0) + v
        return poly

    def _term(self) -> dict[frozenset[str], float]:
        poly = self._factor()
        while self._peek() == "&":
            self.pos += 1
            rhs = self._factor()
            product: dict[frozenset[str], float] = {}
            for k1, v1 in poly.items():
                for k2, v2 in rhs.items():
                    key = k1 | k2
                    product[key] = product.get(key, 0.0) + v1 * v2
            poly = product
        return poly

    def _factor(self) -> dict[frozenset[str], float]:
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            inner = self._factor()
            poly = {frozenset(): 1.0}
            for k, v in inner.items():
                poly[k] = poly.get(k, 0.0) - v
            return poly
        if ch == "(":
            self.pos += 1
            poly = self._expr()
            if self._peek() != ")":
                raise TreeSpecError("expected ')'", self.pos)
            self.pos += 1
            return poly
        if ch == '"':
            start = self.pos
            end = self.text.find('"', self.pos + 1)
            if end < 0:
                raise TreeSpecError("unterminated word quote", start)
            word = self.text[self.pos + 1 : end]
            if not word:
                raise TreeSpecError("empty quoted word", start)
            self.pos = end + 1
            return {frozenset({word}): 1.0}
        raise TreeSpecError(
            "expected '!', '(' or a quoted word" if ch else "unexpected end of input",
            self.pos,
        )


def tree_from_spec(text: str) -> TreeModel:
    """Parse a tree expression such as
    '"food" + (!"food" & "about" & "Everything")' into a TreeModel.

    The expansion drops vanishing terms and orders the rest by support
    size, then alphabetically, so equal expressions build equal models.
    """
    return _tree_from_polynomial(_TreeParser(text).parse())


def load_linear_model(path: str | Path) -> LinearModel:
    """Load a linear model from a JSON object mapping word -> coefficient.

    Every coefficient must be a finite JSON number; NaN, infinities
    (including 1e309), strings, booleans and null raise ValueError.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("linear model JSON must be an object of word -> coefficient")
    coefficients = {}
    for word, value in data.items():
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        try:
            number = float(value) if numeric else math.nan
        except OverflowError:  # a JSON integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"coefficient of {word!r} is not a finite number: {value!r}")
        coefficients[str(word)] = number
    return LinearModel(coefficients=coefficients)
