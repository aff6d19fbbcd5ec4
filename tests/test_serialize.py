"""Result emission: precision, determinism, ordering."""

import csv
import json
import math

import numpy as np
import pytest

from textlime import (
    IndicatorProduct,
    beta_general_mc,
    explain,
    fit_idf,
    population_explanation,
    run_repeated,
    tokenize,
    tree_from_spec,
)
from textlime.corpus import Corpus
from textlime.serialize import (
    alpha_table_rows,
    comparison_table,
    dump_json,
    format_csv_value,
    format_json_float,
    write_csv,
    write_explanation,
    write_theory,
)
from textlime.theory import alpha_bounds, beta_tree
from textlime.verify import compare
from textlime.corpus import local_dictionary


@pytest.fixture(scope="module")
def setup():
    corpus = Corpus(
        documents=(
            tokenize("amber lanterns line the harbor wall at dusk"),
            tokenize("the harbor sleeps at dusk"),
        )
    )
    return corpus.documents[0], fit_idf(corpus)


class TestFloatFormatting:
    def test_json_floats_carry_seventeen_significant_digits(self):
        x = 1.0 / 3.0
        text = format_json_float(x)
        assert len(text.replace("0.", "")) == 17
        assert float(text) == x  # 17 digits round-trip float64 exactly

    def test_csv_floats_carry_ten_significant_digits(self):
        assert format_csv_value(1.0 / 3.0) == "0.3333333333"
        assert format_csv_value(True) == "true"
        assert format_csv_value(12) == "12"

    def test_non_finite_maps_to_null(self):
        assert format_json_float(math.nan) == "null"
        assert format_json_float(math.inf) == "null"


class TestDumpJson:
    def test_round_trips_through_stdlib(self, tmp_path):
        payload = {
            "name": 'quo"te',
            "values": [1, 2.5, None, True],
            "nested": {"pi": math.pi},
        }
        path = tmp_path / "out.json"
        dump_json(payload, path)
        loaded = json.loads(path.read_text())
        assert loaded["name"] == 'quo"te'
        assert loaded["nested"]["pi"] == math.pi

    def test_deterministic_bytes(self, tmp_path):
        payload = {"a": [0.1, 0.2], "b": {"c": 3}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(payload, p1)
        dump_json(payload, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalars_accepted(self, tmp_path):
        path = tmp_path / "np.json"
        dump_json({"x": np.float64(0.5), "n": np.int64(3), "v": np.arange(2)}, path)
        assert json.loads(path.read_text()) == {"x": 0.5, "n": 3, "v": [0, 1]}


class TestExplanationOutput:
    def test_json_sorted_by_magnitude(self, setup, tmp_path):
        doc, idf = setup
        result = explain(
            tree_from_spec('"harbor" + ("amber" & "dusk")'), doc, idf, n=800, seed=3
        )
        path = tmp_path / "explanation.json"
        write_explanation(result, path, "json")
        payload = json.loads(path.read_text())
        mags = [abs(r["coefficient"]) for r in payload["coefficients"]]
        assert mags == sorted(mags, reverse=True)
        assert len(payload["coefficients"]) == len(result.coefficients)

    def test_csv_rank_column(self, setup, tmp_path):
        doc, idf = setup
        result = explain(IndicatorProduct(words=frozenset({"harbor"})), doc, idf, n=500, seed=4)
        path = tmp_path / "explanation.csv"
        write_explanation(result, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "word,coefficient,rank"
        assert lines[1].split(",")[::2] == ["(intercept)", ""]
        assert lines[2].split(",")[0] == "harbor"
        assert [line.split(",")[2] for line in lines[2:]] == [
            str(i) for i in range(1, len(lines) - 1)
        ]


def csv_records(path):
    """The rows of a CSV file the writers made, keyed by word."""
    with open(path, newline="") as f:
        return {row["word"]: row for row in csv.DictReader(f)}


class TestCsvCarriesTheIntercept:
    """A CSV reader recovers what the JSON file holds, at 10 digits."""

    def test_explanation(self, setup, tmp_path):
        doc, idf = setup
        result = explain(tree_from_spec('"harbor" + ("amber" & "dusk")'), doc, idf, n=600, seed=2)
        write_explanation(result, tmp_path / "e.csv", "csv")
        write_explanation(result, tmp_path / "e.json", "json")
        payload = json.loads((tmp_path / "e.json").read_text())
        rows = csv_records(tmp_path / "e.csv")
        intercept = rows["(intercept)"]
        assert float(intercept["coefficient"]) == pytest.approx(payload["intercept"], rel=1e-9)
        assert intercept["rank"] == ""
        for entry in payload["coefficients"]:
            got = float(rows[entry["word"]]["coefficient"])
            assert got == pytest.approx(entry["coefficient"], rel=1e-9)

    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_theory(self, setup, tmp_path, monte_carlo):
        doc, idf = setup
        model = tree_from_spec('"harbor" + ("amber" & "dusk")')
        route = beta_general_mc if monte_carlo else population_explanation
        result = route(model, doc, idf, nu=0.25, n_mc=5000, seed=1)
        write_theory(result, tmp_path / "t.csv", "csv")
        write_theory(result, tmp_path / "t.json", "json")
        payload = json.loads((tmp_path / "t.json").read_text())
        intercept = csv_records(tmp_path / "t.csv")["(intercept)"]
        assert float(intercept["coefficient"]) == pytest.approx(payload["intercept"], rel=1e-9)
        assert intercept["provenance"] == payload["provenance"]
        if monte_carlo:
            stderr = payload["intercept_stderr"]
            assert float(intercept["stderr"]) == pytest.approx(stderr, rel=1e-9)
        else:
            assert "intercept_stderr" not in payload
            assert intercept["stderr"] == ""


class TestComparisonTable:
    def test_mentions_every_word_and_summary(self, setup):
        doc, idf = setup
        local = local_dictionary(doc)
        tree = tree_from_spec('"harbor"')
        stats = run_repeated(tree, doc, idf, n=400, n_exp=4, master_seed=5)
        table = comparison_table(compare(stats, beta_tree(tree, local, 0.25)))
        for word in local.words:
            assert word in table
        assert "(intercept)" in table
        assert "max abs deviation" in table


class TestAlphaTable:
    def test_rows_contain_bounds(self):
        rows = alpha_table_rows(12, 0.25, 3)
        assert len(rows) == 4
        for p, d, nu, value, limit, lo, hi in rows:
            assert (lo, hi) == alpha_bounds(p, 12, 0.25)
            assert lo - 1e-12 <= value <= hi + 1e-12
            assert d == 12 and nu == 0.25


class TestWriteCsv:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
        assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"
