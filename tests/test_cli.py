"""CLI surface: compare, demo, and verify subcommands with JSON pipelines."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction as F

import elicitkit
from elicitkit.cli import main
from elicitkit.catalog import bernoulli_experiment, noisy_bernoulli_experiment
from elicitkit.exactcore import Matrix
from elicitkit.mechanisms import (
    TableMechanism,
    mean_mechanism,
    mechanism_to_doc,
    quadratic_mechanism,
)
from elicitkit.model import Experiment, experiment_to_doc


@pytest.fixture()
def experiment_files(tmp_path):
    clean = tmp_path / "clean.json"
    noisy = tmp_path / "noisy.json"
    clean.write_text(json.dumps(experiment_to_doc(bernoulli_experiment())))
    noisy.write_text(json.dumps(experiment_to_doc(noisy_bernoulli_experiment())))
    return str(clean), str(noisy)


class TestCompare:
    def test_blackwell_golden_output(self, experiment_files, capsys):
        clean, noisy = experiment_files
        assert main(["compare", "blackwell", clean, noisy]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "relation": "blackwell",
            "holds": True,
            "witness": [["19/20", "1/20"], ["1/20", "19/20"]],
        }

    def test_negative_answer_still_exits_zero(self, experiment_files, capsys):
        clean, noisy = experiment_files
        assert main(["compare", "blackwell", noisy, clean]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert "note" in payload

    def test_elicitation_and_nonneg(self, experiment_files, capsys):
        clean, noisy = experiment_files
        assert main(["compare", "elicitation", noisy, clean]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["holds"] is True
        assert first["witness"] == [["19/18", "-1/18"], ["-1/18", "19/18"]]
        assert main(["compare", "nonneg", noisy, clean]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["holds"] is False

    def test_bounded_witness_shape(self, experiment_files, capsys):
        clean, noisy = experiment_files
        assert main(["compare", "bounded", clean, noisy]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["witness"]["subsets"] == [[], ["0"], ["1"], ["0", "1"]]

    def test_garbling_decomposition(self, experiment_files, capsys):
        clean, noisy = experiment_files
        assert main(["compare", "garbling", noisy, clean]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["noise"] == "1/10"
        assert payload["transition"] == [["1", "0"], ["0", "1"]]

    def test_garbling_without_dominance(self, experiment_files, tmp_path, capsys):
        clean, _ = experiment_files
        flip = tmp_path / "flip.json"
        flip.write_text(
            json.dumps(
                {
                    "parameters": ["0", "1/2", "1"],
                    "outcomes": ["0", "1"],
                    "kernel": [["1/2", "1/2"]] * 3,
                }
            )
        )
        assert main(["compare", "garbling", str(flip), clean]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert main(["compare", "blackwell", path, path]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_document_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"parameters": ["a"]}))
        assert main(["compare", "blackwell", str(bad), str(bad)]) == 2
        assert "missing" in capsys.readouterr().err


class TestDemo:
    def test_demo_json_and_summary(self, capsys):
        assert main(["demo", "german_tank", "--param", "n_max=4"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["name"] == "german_tank"
        assert payload["passed"] is True
        assert payload["inputs"] == {"n_max": 4}
        assert "all claims passed" in captured.err

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nope"]) == 2
        assert "unknown demo" in capsys.readouterr().err

    def test_bad_param_syntax(self, capsys):
        assert main(["demo", "german_tank", "--param", "n_max"]) == 2

    def test_unknown_param_name(self, capsys):
        assert main(["demo", "german_tank", "--param", "populations=4"]) == 2
        assert "bad parameters" in capsys.readouterr().err


class TestVerify:
    def test_quadratic_mechanism_report(self, tmp_path, capsys):
        doc = mechanism_to_doc(quadratic_mechanism(bernoulli_experiment()))
        path = tmp_path / "mechanism.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--denominator", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["incentive_compatible"] is True
        assert payload["elicits_target"] is True
        assert payload["grid_denominator"] == 3

    def test_explicit_target_family(self, tmp_path, capsys):
        doc = mechanism_to_doc(quadratic_mechanism(bernoulli_experiment()))
        mech = tmp_path / "mechanism.json"
        mech.write_text(json.dumps(doc))
        family = tmp_path / "family.json"
        family.write_text(
            json.dumps(
                {
                    "parameters": ["0", "1/2", "1"],
                    "functions": {"square": ["0", "1/4", "1"]},
                }
            )
        )
        assert main(["verify", str(mech), "--target", str(family)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # the square statistic is finer than what one binary trial reveals
        assert payload["elicits_target"] is False
        assert payload["violation"]["check"] == "strictness"

    def test_scalar_report_mechanism(self, tmp_path, capsys):
        doc = mechanism_to_doc(
            mean_mechanism(bernoulli_experiment(), (F(0), F(1, 2), F(1)), (F(0), F(1)))
        )
        path = tmp_path / "mean.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--denominator", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["incentive_compatible"] is True

    def test_table_mechanism_has_no_report_rule(self, tmp_path, capsys):
        table = TableMechanism(
            bernoulli_experiment(),
            ("r0",),
            Matrix.from_rows([[F(0), F(1)]]),
        )
        path = tmp_path / "table.json"
        path.write_text(json.dumps(mechanism_to_doc(table)))
        assert main(["verify", str(path)]) == 2
        assert "belief-to-report" in capsys.readouterr().err

    def test_pair_budget_refuses_fine_grid_before_building_it(
        self, tmp_path, capsys, monkeypatch
    ):
        import elicitkit.mechanisms

        built = []
        monkeypatch.setattr(
            elicitkit.mechanisms, "belief_grid", lambda *args: built.append(args)
        )
        e = Experiment(
            tuple(f"t{i}" for i in range(5)),
            ("0", "1"),
            Matrix.from_rows([[F(i, 4), 1 - F(i, 4)] for i in range(5)]),
        )
        path = tmp_path / "five.json"
        path.write_text(json.dumps(mechanism_to_doc(quadratic_mechanism(e))))
        assert main(["verify", str(path), "--denominator", "1000"]) == 2
        err = capsys.readouterr().err
        size = 42_084_793_751  # C(1004, 4) beliefs
        assert f"{size * (size - 1)} ordered pairs" in err
        assert "cap of 1000000" in err
        assert built == []

    def test_max_pairs_option_sets_the_cap(self, tmp_path, capsys):
        doc = mechanism_to_doc(quadratic_mechanism(bernoulli_experiment()))
        path = tmp_path / "mechanism.json"
        path.write_text(json.dumps(doc))
        # d = 3 on 3 parameters: 10 beliefs, 90 ordered pairs
        assert main(["verify", str(path), "--denominator", "3", "--max-pairs", "89"]) == 2
        assert "cap of 89" in capsys.readouterr().err
        assert main(["verify", str(path), "--denominator", "3", "--max-pairs", "90"]) == 0
        assert json.loads(capsys.readouterr().out)["pairs_checked"] == 90


_EXPERIMENT = experiment_to_doc(bernoulli_experiment())
_QUADRATIC = mechanism_to_doc(quadratic_mechanism(bernoulli_experiment()))
_TABLE = mechanism_to_doc(
    TableMechanism(bernoulli_experiment(), ("r0",), Matrix.from_rows([[F(0), F(1)]]))
)


def _compound(weights, subs, covariates=("c", "d")):
    mixture = {
        "covariates": covariates,
        "weights": weights,
        "components": {"c": _EXPERIMENT, "d": _EXPERIMENT},
    }
    return {"kind": "compound", "mixture": mixture, "subs": subs}


@pytest.mark.parametrize(
    "argv, docs, message",
    [
        (["verify", "{0}"], [{"kind": "quadratic_panel"}], "missing keys: ['experiment']"),
        (
            ["verify", "{0}"],
            [{k: v for k, v in _TABLE.items() if k != "reports"}],
            "missing keys: ['reports']",
        ),
        (
            ["verify", "{0}"],
            [_compound({"d": "1"}, {"c": _QUADRATIC, "d": _QUADRATIC})],
            "mixture weights missing keys: ['c']",
        ),
        (
            ["verify", "{0}"],
            [_compound({"c": "1/2", "d": "1/2"}, {"c": _QUADRATIC})],
            "compound subs missing keys: ['d']",
        ),
        (
            ["verify", "{0}", "--target", "{1}"],
            [_QUADRATIC, {"parameters": ["0", "1/2", "1"], "functions": ["x"]}],
            "functions must be a JSON object",
        ),
        (
            ["compare", "blackwell", "{0}", "{0}"],
            [{**_EXPERIMENT, "kernel": [1, 1, 1]}],
            "list of rows",
        ),
        (
            ["compare", "blackwell", "{0}", "{0}"],
            [{**_EXPERIMENT, "parameters": 5}],
            "parameters must be a JSON list",
        ),
        (
            ["verify", "{0}"],
            [
                {
                    "kind": "mean_score",
                    "experiment": _EXPERIMENT,
                    "statistic": 5,
                    "weights": ["0", "1"],
                }
            ],
            "statistic must be a JSON list",
        ),
        (
            ["verify", "{0}", "--target", "{1}"],
            [_QUADRATIC, {"parameters": ["0", "1/2", "1"], "functions": {"g": 3}}],
            "function 'g' must be a JSON list",
        ),
        (
            ["verify", "{0}"],
            [{**_QUADRATIC, "event_weights": "12"}],
            "event_weights must be a JSON list",
        ),
        (
            ["verify", "{0}"],
            [_compound({"c": "1", "d": "0"}, {"c": _QUADRATIC, "d": _QUADRATIC}, "cd")],
            "covariates must be a JSON list",
        ),
    ],
    ids=[
        "panel-without-experiment",
        "table-without-reports",
        "mixture-weight-missing",
        "compound-sub-missing",
        "target-functions-not-object",
        "kernel-row-not-list",
        "parameters-not-list",
        "statistic-not-list",
        "family-vector-not-list",
        "event-weights-string",
        "covariates-string",
    ],
)
def test_malformed_input_is_an_error(tmp_path, capsys, argv, docs, message):
    paths = [tmp_path / f"doc{i}.json" for i in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    assert main([arg.format(*paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


_STARTUP_PROBE = """
import json, sys
before = set(sys.modules)
import elicitkit.cli, elicitkit.demos
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in added
    if name != "elicitkit" and name not in sys.stdlib_module_names
)))
"""


def test_cli_and_demos_import_only_the_standard_library():
    # a fresh interpreter, so modules this test session imported do not hide
    # any; comparing module sets before and after ignores what site loads
    src = str(Path(elicitkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(probe.stdout) == []
