"""Tokenization, corpus statistics, and the TF-IDF masses.

The TF-IDF mass of a word in a document is its count times its smoothed
inverse document frequency. Every model evaluation in this package reads
these masses, scaled to unit Euclidean norm over the words a perturbed
document keeps (`sampling.renormalized_tfidf`).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Maximal runs of (unicode) letters and digits; underscore and everything
# else separate tokens. Case is preserved.
_TOKEN = re.compile(r"[^\W_]+")


@dataclass(frozen=True)
class Document:
    """A tokenized document."""

    tokens: tuple[str, ...]
    source_id: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """The document collection used to fit inverse document frequencies."""

    documents: tuple[Document, ...]

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def size(self) -> int:
        return len(self.documents)


def tokenize(raw_text: str, source_id: str | None = None) -> Document:
    """Split raw text into a Document.

    Tokens are maximal runs of alphanumeric characters, case preserved;
    every other character is a separator. Empty input yields an empty
    Document.
    """
    return Document(tokens=tuple(_TOKEN.findall(raw_text)), source_id=source_id)


class IdfTable:
    """Per-word document counts and smoothed IDF values for a corpus.

    For a corpus of N documents, a word appearing in N_j of them gets
    idf = log((N + 1) / (N_j + 1)) + 1 (natural log). Words never seen in
    the corpus fall back to N_j = 0. Counts must satisfy 0 <= N_j <= N, so
    every idf is at least 1 and every word a document holds has positive
    mass. Immutable once built.
    """

    def __init__(
        self,
        words: tuple[str, ...],
        doc_counts: tuple[int, ...],
        corpus_size: int,
    ) -> None:
        if len(words) != len(doc_counts):
            raise ValueError("words and doc_counts must have equal length")
        if corpus_size < 0:
            raise ValueError("corpus_size must be nonnegative")
        if any(not 0 <= count <= corpus_size for count in doc_counts):
            raise ValueError("every doc_count must lie in 0..corpus_size")
        self.words = words
        self.doc_counts = doc_counts
        self.corpus_size = corpus_size
        self.idf_values = tuple(
            math.log((corpus_size + 1) / (count + 1)) + 1.0 for count in doc_counts
        )
        self._index = {word: i for i, word in enumerate(words)}
        # Fallback for words absent from the corpus (N_j = 0).
        self._unseen_idf = math.log(corpus_size + 1.0) + 1.0

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self.words)

    def doc_count(self, word: str) -> int:
        idx = self._index.get(word)
        return 0 if idx is None else self.doc_counts[idx]

    def idf(self, word: str) -> float:
        idx = self._index.get(word)
        return self._unseen_idf if idx is None else self.idf_values[idx]


@dataclass(frozen=True)
class LocalDictionary:
    """The distinct words of one document, in first-occurrence order.

    `counts[j]` is the multiplicity of `words[j]` in the document. The
    size d of this dictionary is the dimension of the interpretable
    feature space used everywhere downstream.
    """

    words: tuple[str, ...]
    counts: tuple[int, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(set(self.words)) != len(self.words):
            raise ValueError("local dictionary words must be distinct")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})

    @property
    def d(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index_of(self, word: str) -> int:
        return self._index[word]


def fit_idf(corpus: Corpus) -> IdfTable:
    """Fit document counts and IDF values on a corpus of size >= 1."""
    if corpus.size == 0:
        raise ValueError("empty corpus")
    counts: Counter[str] = Counter()
    order: list[str] = []
    seen: set[str] = set()
    for doc in corpus.documents:
        distinct = set(doc.tokens)
        for word in doc.tokens:
            if word not in seen:
                seen.add(word)
                order.append(word)
        counts.update(distinct)
    return IdfTable(
        words=tuple(order),
        doc_counts=tuple(counts[w] for w in order),
        corpus_size=corpus.size,
    )


def local_dictionary(doc: Document) -> LocalDictionary:
    """Distinct words of a document in first-occurrence order, with counts."""
    counts = Counter(doc.tokens)
    words = tuple(dict.fromkeys(doc.tokens))
    return LocalDictionary(words=words, counts=tuple(counts[w] for w in words))


def tfidf_weights(local: LocalDictionary, idf: IdfTable) -> np.ndarray:
    """Unnormalized per-word TF-IDF mass of a document: counts[j] * idf[j]."""
    return np.array(
        [m * idf.idf(w) for w, m in zip(local.words, local.counts)], dtype=float
    )


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus file.

    Supported formats: plain UTF-8 text with one document per line, and
    JSON lines with a "text" field (selected by a .jsonl/.ndjson suffix).
    Blank lines are skipped; documents are indexed in file order. A file
    that is not UTF-8, or a JSON line that is not an object with a string
    "text" field, raises ValueError naming the file (and line).
    """
    path = Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path.name}: not UTF-8 text: {exc}") from None
    docs: list[Document] = []
    jsonl = path.suffix.lower() in {".jsonl", ".ndjson"}
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        where = f"{path.name}:{lineno}"
        text = line
        if jsonl:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{where}: expected a JSON object with a 'text' field")
            if "text" not in record:
                raise ValueError(f"{where}: missing 'text' field")
            text = record["text"]
            if not isinstance(text, str):
                raise ValueError(f"{where}: 'text' must be a string")
        docs.append(tokenize(text, source_id=where))
    return Corpus(documents=tuple(docs))


def bundled_corpus_path() -> Path:
    """Path of the small sample corpus shipped with the package."""
    return Path(__file__).parent / "data" / "sample_corpus.txt"
