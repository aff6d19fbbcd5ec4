"""Command-line interface: wiring, validation, determinism, formats."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import textlime.cli
from textlime import bundled_corpus_path, load_corpus, local_dictionary
from textlime.cli import cli

CORPUS = str(bundled_corpus_path())
TREE = '"food" + (!"food" & "about" & "Everything")'


@pytest.fixture()
def runner():
    return CliRunner()


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestExplainCommand:
    def test_constant_model_json(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--n", "500", "--seed", "3",
                "--format", "json", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = read_json(tmp_path / "explanation-constant-0.25-500.json")
        assert payload["intercept"] == pytest.approx(1.0, abs=1e-9)
        assert all(
            abs(row["coefficient"]) < 1e-9 for row in payload["coefficients"]
        )
        assert payload["meta"]["seed"] == 3

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = [
            "explain", "--corpus", CORPUS, "--doc", "0", "--model", TREE,
            "--n", "400", "--seed", "11", "--format", "json",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(cli, args + ["--out", str(out_a)]).exit_code == 0
        assert runner.invoke(cli, args + ["--out", str(out_b)]).exit_code == 0
        (file_a,) = list(out_a.iterdir())
        (file_b,) = list(out_b.iterdir())
        assert file_a.read_bytes() == file_b.read_bytes()

    def test_missing_corpus_fails_with_field_name(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", str(tmp_path / "nope.txt"),
                "--doc", "0", "--model", "constant",
            ],
        )
        assert result.exit_code != 0
        assert "corpus:" in result.output

    @pytest.mark.parametrize(
        "name, content",
        [
            ("string.jsonl", b'"a review with text in it"\n'),
            ("number.jsonl", b'{"text": 5}\n'),
            ("invalid.jsonl", b'{"text": "unclosed\n'),
            ("missing.jsonl", b'{"body": "alpha"}\n'),
            ("latin1.txt", b"caf\xe9 review\n"),
        ],
        ids=["string-line", "number-text", "invalid-json", "missing-text", "non-utf8"],
    )
    def test_malformed_corpus_is_a_field_error(self, runner, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        result = runner.invoke(
            cli,
            ["explain", "--corpus", str(path), "--doc", "0", "--model", "constant"],
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Error: corpus: {name}" in result.output
        assert "Traceback" not in result.output

    def test_doc_index_out_of_range(self, runner):
        result = runner.invoke(
            cli,
            ["explain", "--corpus", CORPUS, "--doc", "999", "--model", "constant"],
        )
        assert result.exit_code != 0
        assert "doc:" in result.output and "out of range" in result.output

    def test_inline_document(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS,
                "--doc", "the food was good food honestly",
                "--model", '"food"', "--n", "300", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        csv = (tmp_path / "explanation-food-0.25-300.csv").read_text()
        assert csv.splitlines()[0] == "word,coefficient,rank"

    def test_bad_tree_spec_reports_position(self, runner):
        result = runner.invoke(
            cli,
            ["explain", "--corpus", CORPUS, "--doc", "0", "--model", '"food" %'],
        )
        assert result.exit_code != 0
        assert "model:" in result.output and "position" in result.output

    def test_nu_and_nu_lime_exclusive(self, runner):
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--nu", "0.25", "--nu-lime", "25",
            ],
        )
        assert result.exit_code != 0
        assert "nu/nu-lime" in result.output

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--ridge", "ridge: ridge parameter must be nonnegative"),
            ("--nu", "nu: bandwidth must be positive"),
        ],
    )
    def test_nan_is_a_field_error(self, runner, tmp_path, flag, message):
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0", "--model", TREE,
                "--n", "300", flag, "nan", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 1
        assert message in result.output
        assert list(tmp_path.iterdir()) == []

    def test_nu_lime_converts_to_cosine_units(self, runner, tmp_path):
        base = [
            "explain", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
            "--n", "300", "--seed", "5", "--format", "json",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(
            cli, base + ["--nu", "0.25", "--out", str(out_a)]
        ).exit_code == 0
        assert runner.invoke(
            cli, base + ["--nu-lime", "25", "--out", str(out_b)]
        ).exit_code == 0
        (file_a,) = list(out_a.iterdir())
        (file_b,) = list(out_b.iterdir())
        assert file_a.read_bytes() == file_b.read_bytes()


@pytest.mark.parametrize("command", ["explain", "theory", "verify"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e309", '"nan"'])
def test_non_finite_linear_coefficient_is_a_model_error(runner, tmp_path, command, value):
    spec = tmp_path / "linear.json"
    spec.write_text('{"food": 1.0, "about": %s}' % value)
    result = runner.invoke(
        cli,
        [
            command, "--corpus", CORPUS, "--doc", "0", "--model", str(spec),
            "--n", "200", "--out", str(tmp_path / "out"),
        ],
    )
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Error: model: bad linear model file" in result.output
    assert "not a finite number" in result.output
    assert not (tmp_path / "out").exists()


class TestTheoryCommand:
    def test_single_indicator_on_two_words_is_exact(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "alpha beta",
                "--model", '"alpha"', "--nu", "0.1", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "theory-alpha-0.1-5000.csv").read_text().splitlines()
        assert lines[1].startswith("(intercept),")
        assert lines[2].startswith("alpha,1,")
        assert lines[3].startswith("beta,0,")

    def test_two_word_linear_full_mode_is_exact(self, runner, tmp_path):
        spec = tmp_path / "linear.json"
        spec.write_text(json.dumps({"food": 1.0, "good": -0.5}))
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "food good", "--model", str(spec),
                "--linear-mode", "full", "--format", "json", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = read_json(out / "theory-linear-0.25-5000.json")
        assert payload["provenance"] == "exact-closed-form"
        rows = {row["word"]: row["coefficient"] for row in payload["coefficients"]}
        assert rows == pytest.approx({"food": 1.0, "good": -0.5}, abs=1e-12)

    def test_tree_gets_exact_provenance(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "0", "--model", TREE,
                "--format", "json", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "exact-closed-form" in result.output
        (path,) = list(tmp_path.iterdir())
        assert read_json(path)["provenance"] == "exact-closed-form"

    def test_linear_model_gets_large_bandwidth_provenance(self, runner, tmp_path):
        spec = tmp_path / "linear.json"
        spec.write_text(json.dumps({"food": 1.0, "service": -2.0}))
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "0", "--model", str(spec),
                "--linear-mode", "simplified", "--format", "json", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "large-bandwidth-approx" in result.output
        payload = read_json(tmp_path / "theory-linear-0.25-5000.json")
        assert payload["provenance"] == "large-bandwidth-approx"
        assert payload["notes"]["mode"] == "simplified"

    def test_forced_monte_carlo_carries_stderr(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "0", "--model", TREE,
                "--theory-method", "mc", "--n-mc", "20000", "--seed", "2",
                "--format", "json", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        (path,) = list(tmp_path.iterdir())
        payload = read_json(path)
        assert payload["provenance"] == "monte-carlo"
        assert "intercept_stderr" in payload
        assert all("stderr" in row for row in payload["coefficients"])

    def test_csv_has_stderr_column(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "0", "--model", TREE,
                "--theory-method", "mc", "--n-mc", "10000",
                "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        (path,) = list(tmp_path.iterdir())
        header = path.read_text().splitlines()[0]
        assert header == "word,coefficient,rank,stderr,provenance"

    @pytest.mark.parametrize("n_mc", ["0", "1"])
    def test_too_few_monte_carlo_samples_rejected(self, runner, tmp_path, n_mc):
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--theory-method", "mc", "--n-mc", n_mc, "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 1
        assert "n-mc: need at least two Monte Carlo samples" in result.output
        assert list(tmp_path.iterdir()) == []


    def test_nan_bandwidth_is_a_field_error(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "theory", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--nu", "nan", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 1
        assert "nu: bandwidth must be positive" in result.output
        assert list(tmp_path.iterdir()) == []


# On doc 5 (d = 12) at nu = 0.001 every kernel weight psi(s / d), s >= 1,
# underflows to 0. At nu = 0.0015 only psi(1 / d) ~ e^-403 is positive, so a
# batch that removes no single word has all weights 0: seed 6 draws one at
# n = 20, and 100 runs of 20 samples all but surely draw one.
NARROW_CASES = pytest.mark.parametrize(
    "nu, n, seed, n_exp", [("0.001", "100", "0", "2"), ("0.0015", "20", "6", "100")]
)


class TestNarrowBandwidth:
    """A run whose drawn kernel weights are all 0, or a closed form that the
    bandwidth defeats, blames the bandwidth, and nothing is written."""

    NARROW = "bandwidth too narrow for this document: degenerate weights: all sample weights are zero"

    def run(self, runner, tmp_path, n, seed, *args):
        out = tmp_path / "out"
        base = ["--corpus", CORPUS, "--doc", "5", "--n", n, "--seed", seed, "--out", str(out)]
        result = runner.invoke(cli, [args[0], *base, *args[1:]])
        assert result.exit_code == 1, result.output
        assert not out.exists()
        return result.output

    @NARROW_CASES
    def test_explain_blames_nu(self, runner, tmp_path, nu, n, seed, n_exp):
        output = self.run(runner, tmp_path, n, seed, "explain", "--model", '"brunch"', "--nu", nu)
        assert f"Error: nu: {self.NARROW}" in output

    @NARROW_CASES
    def test_verify_of_a_linear_model_blames_nu(self, runner, tmp_path, nu, n, seed, n_exp):
        # Simplified mode's theory never reads the kernel, so only the runs
        # would meet the zero weights.
        model = tmp_path / "linear.json"
        model.write_text(json.dumps({"brunch": 1.0, "tea": -2.0}), encoding="utf-8")
        output = self.run(
            runner, tmp_path, n, seed, "verify", "--model", str(model), "--nu", nu, "--n-exp", n_exp,
            "--linear-mode", "simplified",
        )
        assert f"Error: nu: {self.NARROW}" in output

    UNDERFLOW = "Error: nu: out of closed-form domain: at d=12, nu=0.001 the covariance normalizers underflow to 0"

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_theory_of_a_tree_blames_nu(self, runner, tmp_path, method):
        output = self.run(
            runner, tmp_path, "100", "0", "theory", "--model", '"brunch"', "--nu", "0.001",
            "--theory-method", method,
        )
        assert self.UNDERFLOW in output

    def test_verify_of_a_tree_blames_nu(self, runner, tmp_path):
        output = self.run(
            runner, tmp_path, "100", "0", "verify", "--model", '"brunch"', "--nu", "0.001", "--n-exp", "2"
        )
        assert self.UNDERFLOW in output

    @pytest.mark.parametrize("command", ["theory", "verify"])
    def test_ill_conditioned_closed_form_blames_nu(self, runner, tmp_path, command):
        # On doc 0 (d = 31) at nu = 0.004 the kernel weights are positive,
        # but the covariance solve is too ill-conditioned to answer.
        output = self.run(
            runner, tmp_path, "100", "0", command, "--doc", "0", "--model", '"food" & "about"',
            "--nu", "0.004",
        )
        assert "Error: nu: out of closed-form domain: at d=31, nu=0.004 the covariance condition" in output

    @pytest.mark.parametrize("command", ["theory", "verify"])
    def test_a_document_too_small_for_the_closed_form_blames_doc(self, runner, tmp_path, command):
        output = self.run(runner, tmp_path, "100", "0", command, "--doc", "alpha", "--model", '"alpha"')
        assert "Error: doc: out of closed-form domain: need at least 2 distinct words" in output
        model = tmp_path / "linear.json"
        model.write_text(json.dumps({"alpha": 1.0}), encoding="utf-8")
        output = self.run(
            runner, tmp_path, "100", "0", command, "--doc", "alpha beta", "--model", str(model),
            "--linear-mode", "simplified",
        )
        assert "Error: doc: out of closed-form domain: linear predictions require d >= 3" in output

    @NARROW_CASES
    def test_sweep_blames_the_grid(self, runner, tmp_path, nu, n, seed, n_exp):
        output = self.run(
            runner, tmp_path, n, seed, "sweep", "--model", '"brunch"', "--word", "brunch",
            "--nu-grid", f"{nu},0.25", "--n-exp", n_exp,
        )
        assert f"Error: nu-grid: {self.NARROW}" in output
        assert "word:" not in output


class TestVerifyCommand:
    def test_writes_stats_report_and_table(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "verify", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--n", "400", "--n-exp", "4", "--seed", "1",
                "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "verify-report-food-0.25-400.csv",
            "verify-report-food-0.25-400.txt",
            "verify-stats-food-0.25-400.csv",
        ]
        table = (tmp_path / "verify-report-food-0.25-400.txt").read_text()
        assert "(intercept)" in table
        assert "theory inside whisker range: yes" in result.output

    def test_linear_full_mode_theory_inside_every_whisker_range(self, runner, tmp_path):
        # Full mode is exact at the run's bandwidth on doc 5 (d = 12); the
        # nu = inf value it gave before sat outside 11 of these 12 ranges.
        doc = load_corpus(bundled_corpus_path()).documents[5]
        words = local_dictionary(doc).words
        lam = np.random.default_rng(1).normal(size=len(words)).tolist()
        model = tmp_path / "linear.json"
        model.write_text(json.dumps(dict(zip(words, lam))), encoding="utf-8")
        result = runner.invoke(
            cli,
            [
                "verify", "--corpus", CORPUS, "--doc", "5", "--model", str(model),
                "--linear-mode", "full", "--nu", "0.25", "--n", "5000",
                "--n-exp", "30", "--format", "json", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        report = read_json(tmp_path / "verify-report-linear-0.25-5000.json")
        rows = [row for row in report["rows"] if row["word"] != "(intercept)"]
        assert len(rows) == 12
        assert all(row["inside_range"] for row in rows)

    @pytest.mark.parametrize("doc", ["0", "5"])
    def test_default_linear_theory_inside_every_whisker_range(self, runner, tmp_path, doc):
        # The default linear mode is exact at the run's bandwidth; with
        # these weights the simplified constant sits outside 14 of the 31
        # ranges on doc 0 and all 12 on doc 5.
        words = local_dictionary(load_corpus(bundled_corpus_path()).documents[int(doc)]).words
        lam = np.random.default_rng(1).normal(size=len(words)).tolist()
        model = tmp_path / "linear.json"
        model.write_text(json.dumps(dict(zip(words, lam))), encoding="utf-8")
        result = runner.invoke(
            cli,
            [
                "verify", "--corpus", CORPUS, "--doc", doc, "--model", str(model),
                "--n", "5000", "--n-exp", "100", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "theory inside whisker range: yes" in result.output

    def test_singular_gram_falls_back_to_least_squares(self, runner, tmp_path):
        # At d = 2 and nu = 0.1 the all-removed samples weigh about 1e-22,
        # and some runs' Gram matrices pass Cholesky but are exactly
        # singular to the solve.
        result = runner.invoke(
            cli,
            [
                "verify", "--corpus", CORPUS, "--doc", "alpha beta",
                "--model", '"alpha"', "--nu", "0.1", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "theory inside whisker range: yes" in result.output

    def test_out_of_domain_document_fails_before_any_run(
        self, runner, tmp_path, monkeypatch
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("run_repeated called before the theory")

        monkeypatch.setattr(textlime.cli, "run_repeated", no_runs)
        result = runner.invoke(
            cli,
            [
                "verify", "--corpus", CORPUS, "--doc", "alpha",
                "--model", '"alpha"', "--out", str(tmp_path),
            ],
        )
        assert result.exit_code != 0
        assert "doc:" in result.output and "closed-form domain" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_monte_carlo_sample_count_is_not_an_option(self, runner, tmp_path):
        # verify only ever compares against a closed form.
        result = runner.invoke(
            cli,
            [
                "verify", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--n", "100", "--n-exp", "2", "--n-mc", "5", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 2
        assert "No such option" in result.output and "--n-mc" in result.output


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("explain", "--threads", "2"),
        ("theory", "--ridge", "1.0"),
        ("theory", "--threads", "2"),
        ("sweep", "--nu", "0.5"),
        ("sweep", "--nu-lime", "50"),
    ],
)
def test_commands_refuse_options_they_ignore(runner, tmp_path, command, flag, value):
    args = [
        command, "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
        "--n", "100", flag, value, "--out", str(tmp_path),
    ]
    if command == "sweep":
        args += ["--word", "food", "--nu-grid", "0.25", "--n-exp", "2"]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert "No such option" in result.output and flag in result.output
    assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_one_row_per_bandwidth(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "sweep", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--word", "food", "--nu-grid", "0.1,0.25,0.5",
                "--n", "300", "--n-exp", "3", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        (path,) = list(tmp_path.iterdir())
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("nu,")
        assert len(lines) == 4

    def test_unknown_word_rejected(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "sweep", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--word", "zeppelin", "--nu-grid", "0.25", "--n", "100",
                "--n-exp", "1", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code != 0
        assert "word:" in result.output

    def test_nonpositive_bandwidth_blames_the_grid(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "sweep", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--word", "food", "--nu-grid", "0.1,-1", "--n", "100",
                "--n-exp", "1", "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 1
        assert "nu-grid: bandwidths must be positive" in result.output
        assert "word:" not in result.output


class TestAlphaTableCommand:
    def test_rows_respect_bounds(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "alpha-table", "--d", "30", "--nu", "0.25", "--p-max", "4",
                "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "alpha-table-d30-0.25-4.csv").read_text().splitlines()
        assert lines[0] == "p,d,nu,alpha,limit,lower_bound,upper_bound"
        assert len(lines) == 6
        for line in lines[1:]:
            _, _, _, value, _, lo, hi = line.split(",")
            assert float(lo) - 1e-12 <= float(value) <= float(hi) + 1e-12

    def test_bad_p_max(self, runner):
        result = runner.invoke(cli, ["alpha-table", "--d", "3", "--p-max", "9"])
        assert result.exit_code != 0
        assert "p-max" in result.output


class TestConfigResolution:
    def test_config_file_supplies_values(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 250, "seed": 6, "format": "json"}))
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--config", str(config),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = read_json(tmp_path / "out" / "explanation-constant-0.25-250.json")
        assert payload["meta"]["n"] == 250
        assert payload["meta"]["seed"] == 6

    def test_flags_beat_config(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 250}))
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--config", str(config), "--n", "300",
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "explanation-constant-0.25-300.csv").exists()

    def test_non_utf8_config_is_a_field_error(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"n": 5\xff}')
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--config", str(config),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: config: not UTF-8 text:" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    def test_sweep_ignores_a_config_bandwidth(self, runner, tmp_path):
        # sweep reads --nu-grid; a "nu" key is one it does not take.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nu": 0.9}))
        result = runner.invoke(
            cli,
            [
                "sweep", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
                "--word", "food", "--nu-grid", "0.1,0.5", "--n", "100",
                "--n-exp", "2", "--config", str(config), "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "sweep-food-0.1-100.csv").exists()

    def test_environment_variables_feed_options(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--out", str(tmp_path),
            ],
            env={"TEXTLIME_EXPLAIN_N": "350"},
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "explanation-constant-0.25-350.csv").exists()

    def test_config_model_used_when_flag_absent(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "constant", "n": 200}))
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--config", str(config), "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 0, result.output

    def test_invalid_config_json(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--config", str(config),
            ],
        )
        assert result.exit_code != 0
        assert "config:" in result.output

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("explain", {"format": "xml"}, "format:"),
            ("explain", {"n": "many"}, "n:"),
            ("explain", {"n": [1]}, "n:"),
            ("explain", {"nu": "wide"}, "nu:"),
            ("theory", {"linear_mode": "bogus"}, "linear-mode:"),
            # JSON booleans are not numbers and fractions not integers, as with flags.
            ("explain", {"n": True}, "n:"),
            ("explain", {"seed": False}, "seed:"),
            ("explain", {"nu": True}, "nu:"),
            ("explain", {"n": 7.9}, "n:"),
        ],
    )
    def test_config_bad_field_values_named(self, runner, tmp_path, command, config, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(
            cli,
            [
                command, "--corpus", CORPUS, "--doc", "0",
                "--model", "constant", "--config", str(path),
                "--out", str(tmp_path / "out"),
            ],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {field} ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["explain", "theory", "verify", "sweep"])
    def test_negative_seed_is_a_field_error(self, runner, tmp_path, command, source):
        # numpy rejects a negative seed with a raw ValueError; the CLI
        # names the field first, whichever way the value arrives.
        args = [
            command, "--corpus", CORPUS, "--doc", "0", "--model", "constant",
            "--out", str(tmp_path / "out"),
        ]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"seed": -1}))
            args += ["--config", str(path)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: seed: master seed must be nonnegative\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "env, name",
        [
            ({"TEXTLIME_EXPLAIN_FORMAT": "json"}, "explanation-constant-0.25-5000.json"),
            ({"TEXTLIME_EXPLAIN_MODEL": "constant", "TEXTLIME_EXPLAIN_N": "300"},
             "explanation-constant-0.25-300.csv"),
        ],
    )
    def test_documented_environment_names(self, runner, tmp_path, env, name):
        args = ["explain", "--corpus", CORPUS, "--doc", "0", "--out", str(tmp_path)]
        if "TEXTLIME_EXPLAIN_MODEL" not in env:
            args += ["--model", "constant"]
        result = runner.invoke(cli, args, env=env)
        assert result.exit_code == 0, result.output
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_environment_beats_config(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 250, "format": "json"}))
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0", "--model", "constant",
                "--config", str(config), "--out", str(tmp_path / "out"),
            ],
            env={"TEXTLIME_EXPLAIN_N": "350"},
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "explanation-constant-0.25-350.json").exists()

    def test_config_nu_lime_converts_like_the_flag(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nu-lime": 10}))
        base = [
            "explain", "--corpus", CORPUS, "--doc", "0", "--model", '"food"',
            "--n", "300", "--seed", "5", "--format", "json",
        ]
        flag = runner.invoke(cli, base + ["--nu-lime", "10", "--out", str(tmp_path / "a")])
        conf = runner.invoke(
            cli, base + ["--config", str(config), "--out", str(tmp_path / "b")]
        )
        assert flag.exit_code == 0 and conf.exit_code == 0, conf.output
        file_a = tmp_path / "a" / "explanation-food-0.1-300.json"
        file_b = tmp_path / "b" / "explanation-food-0.1-300.json"
        assert file_a.read_bytes() == file_b.read_bytes()

        # A config bandwidth still conflicts with the other spelling.
        result = runner.invoke(cli, base + ["--config", str(config), "--nu", "0.1"])
        assert result.exit_code == 1
        assert "nu/nu-lime" in result.output

    def test_config_keys_of_other_commands_are_ignored(self, runner, tmp_path):
        # explain has no --n-exp or --n-mc, so their range checks do not apply.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_exp": 0, "n_mc": 1, "colour": "red"}))
        result = runner.invoke(
            cli,
            [
                "explain", "--corpus", CORPUS, "--doc", "0", "--model", "constant",
                "--n", "200", "--config", str(config), "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "explanation-constant-0.25-200.csv").exists()
