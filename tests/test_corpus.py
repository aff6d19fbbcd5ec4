"""Tokenization, IDF fitting, local dictionaries, and the unit-norm embedding."""

import math

import numpy as np
import pytest

from textlime import (
    Corpus,
    Document,
    IdfTable,
    bundled_corpus_path,
    fit_idf,
    load_corpus,
    local_dictionary,
    tokenize,
)
from textlime.corpus import tfidf_weights
from oracles import normalized_tfidf


def make_corpus(*texts):
    return Corpus(documents=tuple(tokenize(t) for t in texts))


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("").tokens == ()

    def test_splits_on_whitespace_preserving_case(self):
        assert tokenize("Everything about the food").tokens == (
            "Everything",
            "about",
            "the",
            "food",
        )

    def test_punctuation_is_separator(self):
        assert tokenize("good, good!").tokens == ("good", "good")

    def test_mixed_separators_and_digits(self):
        assert tokenize("table#7: ok-ish...").tokens == ("table", "7", "ok", "ish")

    def test_idempotent_retokenization(self):
        doc = tokenize("Service was; GREAT (really)")
        assert tokenize(doc.text()).tokens == doc.tokens


class TestFitIdf:
    @pytest.mark.parametrize(
        "counts, size", [((10,), 1), ((-1,), 1), ((0,), -1), ((2, 3), 2)]
    )
    def test_counts_beyond_the_corpus_rejected(self, counts, size):
        # A count above N would give idf <= 0, and a present word no mass.
        words = tuple("ab"[: len(counts)])
        with pytest.raises(ValueError, match="corpus_size"):
            IdfTable(words, counts, size)

    def test_word_in_every_document_gets_idf_one(self):
        idf = fit_idf(make_corpus("good food", "good wine", "good times"))
        assert idf.idf("good") == pytest.approx(1.0)

    def test_two_docs_word_in_one(self):
        idf = fit_idf(make_corpus("a a b", "b c"))
        assert idf.idf("a") == pytest.approx(math.log(3 / 2) + 1.0)

    def test_unseen_word_fallback(self):
        idf = fit_idf(make_corpus("a", "b", "c"))
        assert idf.idf("zebra") == pytest.approx(math.log(4.0) + 1.0)
        assert idf.doc_count("zebra") == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            fit_idf(Corpus(documents=()))

    def test_doc_counts(self):
        idf = fit_idf(make_corpus("a b", "b c", "c b"))
        assert idf.doc_count("b") == 3
        assert idf.doc_count("a") == 1


class TestLocalDictionary:
    def test_counts_with_first_occurrence_order(self):
        local = local_dictionary(Document(tokens=("a", "b", "a")))
        assert local.words == ("a", "b")
        assert local.counts == (2, 1)

    def test_fifteen_distinct_words(self):
        doc = tokenize(
            "the pasta was cooked well and the sauce tasted fresh "
            "although the portion looked small for the price"
        )
        assert local_dictionary(doc).d == 15

    def test_empty_document(self):
        assert local_dictionary(Document(tokens=())).d == 0

    def test_counts_sum_to_token_count(self):
        doc = tokenize("x y x z z z y x")
        local = local_dictionary(doc)
        assert sum(local.counts) == len(doc.tokens)


class TestNormalizedTfidf:
    def test_single_distinct_word_has_unit_coordinate(self):
        idf = fit_idf(make_corpus("solo solo", "other"))
        phi = normalized_tfidf(tokenize("solo solo solo"), idf)
        # One coordinate, for "solo": "other" is not in the document.
        assert phi.shape == (1,)
        assert phi[0] == pytest.approx(1.0)

    def test_hand_corpus(self):
        # Direct evaluation: v_a = log(3/2) + 1, v_b = 1, counts (2, 1).
        idf = fit_idf(make_corpus("a a b", "b c"))
        phi_a, phi_b = normalized_tfidf(tokenize("a a b"), idf)
        va = math.log(3 / 2) + 1.0
        norm = math.sqrt((2 * va) ** 2 + 1.0)
        assert phi_a == pytest.approx(2 * va / norm, abs=1e-12)
        assert phi_b == pytest.approx(1.0 / norm, abs=1e-12)
        assert phi_a == pytest.approx(0.9422, abs=5e-4)
        assert phi_b == pytest.approx(0.3352, abs=5e-4)

    def test_empty_document_is_zero_vector(self):
        idf = fit_idf(make_corpus("a b"))
        phi = normalized_tfidf(Document(tokens=()), idf)
        assert len(phi) == 0
        assert np.linalg.norm(phi) == 0.0

    def test_unit_norm_on_random_documents(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(40)]
        corpus = make_corpus(
            *(" ".join(rng.choice(vocab, size=rng.integers(3, 30))) for _ in range(12))
        )
        idf = fit_idf(corpus)
        for doc in corpus.documents:
            phi = normalized_tfidf(doc, idf)
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12

    def test_multiplicity_scaling_invariance(self):
        # Both documents have the local words a, b, c in that order.
        idf = fit_idf(make_corpus("a a b c", "c d"))
        doc = tokenize("a a b c c c")
        tripled = Document(tokens=doc.tokens * 3)
        phi = normalized_tfidf(doc, idf)
        phi3 = normalized_tfidf(tripled, idf)
        assert phi3 == pytest.approx(phi, abs=1e-12)

    def test_removal_rescales_remaining_coordinates_uniformly(self):
        # Dropping one word zeroes its coordinate and multiplies the others
        # by the common factor (1 - removed mass share)^(-1/2). The local
        # words are a, b, c, d before the removal and a, b, c after it.
        idf = fit_idf(make_corpus("a a b c d", "c d e"))
        doc = tokenize("a a b c d d")
        phi = normalized_tfidf(doc, idf)
        survivor = Document(tokens=tuple(t for t in doc.tokens if t != "d"))
        phi_after = normalized_tfidf(survivor, idf)
        removed_share = phi[3] ** 2
        factor = 1.0 / math.sqrt(1.0 - removed_share)
        assert len(phi_after) == 3
        assert phi_after == pytest.approx(phi[:3] * factor, abs=1e-12)

    def test_tfidf_weights_match_counts_times_idf(self):
        idf = fit_idf(make_corpus("a a b", "b c"))
        local = local_dictionary(tokenize("a a b"))
        weights = tfidf_weights(local, idf)
        assert weights == pytest.approx([2 * (math.log(1.5) + 1), 1.0])


class TestCorpusLoading:
    def test_plain_text_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("first review\n\nsecond one here\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.size == 2
        assert corpus.documents[0].tokens == ("first", "review")

    def test_jsonl_with_text_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"text": "alpha beta", "label": 1}\n{"text": "gamma"}\n',
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert corpus.size == 2
        assert corpus.documents[1].tokens == ("gamma",)

    def test_jsonl_missing_text_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"body": "alpha"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="missing 'text'"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('"a review with text in it"', "expected a JSON object"),
            ('{"text": 5}', "'text' must be a string"),
            ('{"text": "unclosed', "invalid JSON"),
        ],
        ids=["string-line", "number-text", "invalid-json"],
    )
    def test_jsonl_malformed_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "fine"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^corpus.jsonl:2: {message}"):
            load_corpus(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"caf\xe9 review\n")
        with pytest.raises(ValueError, match="^corpus.txt: not UTF-8 text"):
            load_corpus(path)

    def test_bundled_corpus_scale(self):
        corpus = load_corpus(bundled_corpus_path())
        assert corpus.size >= 20
        sizes = [local_dictionary(doc).d for doc in corpus.documents]
        # Mirrors the documented scale: documents of roughly 15-50 distinct words.
        assert any(d >= 28 for d in sizes)
        assert all(d >= 6 for d in sizes)
        # The demo tree's words live in the first document.
        first = set(corpus.documents[0].tokens)
        assert {"food", "about", "Everything"} <= first
