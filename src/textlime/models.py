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
    surrogate fit and the Monte Carlo oracles call it on whole batches of
    perturbed samples.
    """

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        """Evaluate on a batch: row i of `values` holds the coordinates of
        sample i for `words`; all other coordinates are zero. Returns one
        response per row."""
        raise NotImplementedError


@dataclass(frozen=True)
class IndicatorProduct(Model):
    """coefficient * prod_{w in words} 1{phi_w > 0}; empty product is 1."""

    words: frozenset[str]
    coefficient: float = 1.0

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        return TreeModel(terms=(self,)).evaluate_matrix(values, words)


@dataclass(frozen=True)
class TreeModel(Model):
    """A decision rule over word presence, stored pre-expanded as a sum of
    signed indicator products."""

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
        # A strided read of one column costs a cache line (8 floats) per row;
        # where the terms name more than a quarter of the columns, comparing
        # the whole row-major matrix and gathering bytes is cheaper.
        if values.shape[1] <= 4 * len(columns):
            present = (values > 0.0).T[columns]
        else:
            present = values.T[columns] > 0.0
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
        index = {w: j for j, w in enumerate(words)}
        lam = np.zeros(values.shape[1])
        for w, c in self.coefficients.items():
            j = index.get(w)
            if j is not None:
                lam[j] = c
        return values @ lam


@dataclass(frozen=True)
class CombinedModel(Model):
    """Coefficient-weighted sum of arbitrary models."""

    parts: tuple[tuple[float, Model], ...]

    def evaluate_matrix(self, values: np.ndarray, words: Sequence[str]) -> np.ndarray:
        out = np.zeros(len(values))
        for a, m in self.parts:
            out += a * m.evaluate_matrix(values, words)
        return out


def indicator_terms(model: Model) -> tuple[IndicatorProduct, ...] | None:
    """The signed indicator products a model is built from, or None when
    it is not built from indicator products alone."""
    if isinstance(model, IndicatorProduct):
        return (model,)
    if isinstance(model, TreeModel):
        return model.terms
    return None


def combine(parts: Sequence[tuple[float, Model]]) -> Model:
    """Weighted sum of models.

    When every part is built from indicator products the result is merged
    back into a TreeModel (same-support terms collapse, zero coefficients
    drop), which keeps the closed-form explanation path available.
    """
    term_lists = [(a, indicator_terms(m)) for a, m in parts]
    if all(terms is not None for _, terms in term_lists):
        merged: dict[frozenset[str], float] = {}
        for a, terms in term_lists:
            for t in terms:  # type: ignore[union-attr]
                merged[t.words] = merged.get(t.words, 0.0) + a * t.coefficient
        terms = tuple(
            IndicatorProduct(words=k, coefficient=v)
            for k, v in sorted(merged.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            if v != 0.0
        )
        return TreeModel(terms=terms)
    return CombinedModel(parts=tuple((float(a), m) for a, m in parts))


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
    poly = _TreeParser(text).parse()
    terms = tuple(
        IndicatorProduct(words=k, coefficient=v)
        for k, v in sorted(poly.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        if v != 0.0
    )
    return TreeModel(terms=terms)


def load_linear_model(path: str | Path) -> LinearModel:
    """Load a linear model from a JSON object mapping word -> coefficient."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("linear model JSON must be an object of word -> coefficient")
    return LinearModel(
        coefficients={str(w): float(c) for w, c in data.items()}
    )
