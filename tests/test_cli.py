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
from elicitkit.demos import DEMOS
from elicitkit.catalog import bernoulli_experiment, noisy_bernoulli_experiment
from elicitkit.elicit import (
    StatisticFamily,
    load_statistic_family,
    maximal_partition,
    statistic_family_to_doc,
)
from elicitkit.exactcore import Matrix
from elicitkit.mechanisms import (
    TableMechanism,
    compound_mechanism,
    ic_verify,
    load_mechanism,
    mean_mechanism,
    mechanism_to_doc,
    quadratic_mechanism,
    tabulate,
)
from elicitkit.model import (
    CovariateMixture,
    Experiment,
    belief_grid,
    experiment_to_doc,
    load_mixture,
)


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

    def test_garbling_answers_lead_with_relation_and_holds(
        self, experiment_files, tmp_path, capsys
    ):
        clean, noisy = experiment_files
        assert main(["compare", "garbling", noisy, clean]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["relation", "holds", "noise", "transition"]
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
        assert capsys.readouterr().out == (
            "{\n"
            '  "relation": "garbling",\n'
            '  "holds": false,\n'
            '  "note": "no elicitation dominance, so no garbling decomposition"\n'
            "}\n"
        )

    def test_garbling_solves_one_system(self, experiment_files, monkeypatch):
        import elicitkit.orders

        calls = []
        solve = elicitkit.orders.solve_linear

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(elicitkit.orders, "solve_linear", counting)
        clean, noisy = experiment_files
        assert main(["compare", "garbling", noisy, clean]) == 0
        assert len(calls) == 1

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert main(["compare", "blackwell", path, path]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_document_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"parameters": ["a"]}))
        assert main(["compare", "blackwell", str(bad), str(bad)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_bounded_cap_defaults_to_twelve(self, experiment_files, tmp_path, capsys):
        clean, _ = experiment_files
        wide = tmp_path / "wide.json"
        wide.write_text(
            json.dumps(
                {
                    "parameters": ["0", "1/2", "1"],
                    "outcomes": [str(z) for z in range(13)],
                    "kernel": [["1/13"] * 13] * 3,
                }
            )
        )
        assert main(["compare", "bounded", clean, str(wide)]) == 2
        assert "size 13 exceeds the cap 12" in capsys.readouterr().err


class TestDemo:
    def test_demo_json_and_summary(self, capsys):
        assert main(["demo", "german_tank", "--param", "n_max=4"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["name"] == "german_tank"
        assert payload["passed"] is True
        assert payload["inputs"] == {"n_max": 4}
        assert "all claims passed" in captured.err

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_runs_as_a_module_subprocess(self, name):
        # the entry point the benchmark times: a fresh interpreter, src on the path
        src = str(Path(elicitkit.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "elicitkit.cli", "demo", name],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stderr
        assert '"passed": true' in run.stdout

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nope"]) == 2
        assert "unknown demo" in capsys.readouterr().err

    def test_bad_param_syntax(self, capsys):
        assert main(["demo", "german_tank", "--param", "n_max"]) == 2

    def test_unknown_param_name(self, capsys):
        assert main(["demo", "german_tank", "--param", "populations=4"]) == 2
        assert "bad parameters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, param",
        [
            ("regression", "belief=x"),
            ("regression", "reg=x"),
            ("expertise", "e=x"),
            ("poisson", "k_max=-1"),
            ("poisson", "k_max=1001"),
            ("poisson", "max_power=-1"),
            ("poisson", "max_power=11"),
            ("density", "max_degree=15"),
            ("german_tank", "n_max=41"),
            ("expertise", "grid_denominator=140"),
        ],
    )
    def test_bad_param_value_is_a_usage_error(self, capsys, name, param):
        # exit 1 is reserved for failed claims
        assert main(["demo", name, "--param", param]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "name, param, message",
        [
            ("german_tank", "n_max=5/2", "n_max must be an int, got '5/2'"),
            ("expertise", "grid_denominator=x", "grid_denominator must be an int, got 'x'"),
            ("poisson", "k_max=1.5", "k_max must be an int, got '1.5'"),
            ("poisson", "max_power=x", "max_power must be an int, got 'x'"),
            ("density", "max_degree=x", "max_degree must be an int, got 'x'"),
            ("poisson", "rates=12", "rates must be a list/tuple/range, got 12"),
        ],
    )
    def test_a_size_of_the_wrong_kind_is_named(self, capsys, name, param, message):
        assert main(["demo", name, "--param", param]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_rational_parameter_is_parsed_once_by_the_demo(self, capsys):
        # --param passes a value that is not an int as typed, and the demo's
        # boundary parses it: a rational where it takes one, never a count
        assert main(["demo", "poisson", "--param", "tail_bound=1/10"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert main(["demo", "german_tank", "--param", "n_max=1/2"]) == 2
        assert capsys.readouterr().err == "error: n_max must be an int, got '1/2'\n"


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
            elicitkit.mechanisms, "grid_counts", lambda *args: built.append(args)
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


def test_verify_golden_output_on_a_compound(tmp_path, capsys):
    # two panels on the Bernoulli trial, the second covariate at weight 0:
    # the span certificate and the class pass print what the packed-row scan
    # of the same compound prints
    path = tmp_path / "compound.json"
    path.write_text(json.dumps(_compound({"c": "1", "d": "0"}, {"c": _QUADRATIC, "d": _QUADRATIC})))
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"parameters": ["0", "1/2", "1"], "functions": {"g": [0, 1, 0]}}))
    for d, pairs in (("4", 210), ("6", 756)):
        assert main(["verify", str(path), "--denominator", d]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "incentive_compatible": true,\n'
            '  "elicits_target": true,\n'
            f'  "grid_denominator": {d},\n'
            f'  "pairs_checked": {pairs}\n'
            "}\n"
        )
    assert main(["verify", str(path), "--target", str(family)]) == 0
    assert capsys.readouterr().out == (
        "{\n"
        '  "incentive_compatible": true,\n'
        '  "elicits_target": false,\n'
        '  "grid_denominator": 4,\n'
        '  "pairs_checked": 210,\n'
        '  "violation": {\n'
        '    "check": "strictness",\n'
        '    "belief": [\n      "0",\n      "1/2",\n      "1/2"\n    ],\n'
        '    "deviation": [\n      "1/4",\n      "0",\n      "3/4"\n    ],\n'
        '    "gap": "0"\n'
        "  }\n"
        "}\n"
    )


def test_verify_answers_a_compound_document_with_a_tabulated_table(tmp_path, capsys):
    # a table document carries its menu's beliefs, so verify answers the
    # document of a panel beside its tabulated table as ic_verify does in process
    e = bernoulli_experiment()
    panel = quadratic_mechanism(e)
    mixture = CovariateMixture(("c", "d"), (F(1, 2), F(1, 2)), (e, e))
    m = compound_mechanism(mixture, (panel, tabulate(panel, belief_grid(3, 4))))
    family = StatisticFamily(e.parameters, ((F(0), F(1), F(0)),))
    path, target = tmp_path / "compound.json", tmp_path / "family.json"
    path.write_text(json.dumps(mechanism_to_doc(m)))
    target.write_text(json.dumps(statistic_family_to_doc(family)))
    for argv, report in (
        ([], ic_verify(m, maximal_partition(m.experiment), 4)),
        (["--target", str(target)], ic_verify(m, family, 4)),
    ):
        assert main(["verify", str(path), "--denominator", "4", *argv]) == 0
        assert capsys.readouterr().out == json.dumps(report.to_doc(), indent=2) + "\n"


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


def _with_label(doc, key, label):
    return {**doc, key: [label, *doc[key][1:]]}


# every label list a document holds: a subcommand reading it, its documents
# with the first label replaced, and the field the refusal names
_LABEL_FIELDS = {
    "experiment-parameters": (
        ["compare", "blackwell", "{0}", "{0}"],
        lambda label: [_with_label(_EXPERIMENT, "parameters", label)],
        "parameters",
    ),
    "experiment-outcomes": (
        ["compare", "elicitation", "{0}", "{0}"],
        lambda label: [_with_label(_EXPERIMENT, "outcomes", label)],
        "outcomes",
    ),
    "mixture-covariates": (
        ["verify", "{0}"],
        lambda label: [
            _compound({"c": "1", "d": "0"}, {"c": _QUADRATIC, "d": _QUADRATIC}, [label, "d"])
        ],
        "covariates",
    ),
    "family-parameters": (
        ["verify", "{0}", "--target", "{1}"],
        lambda label: [_QUADRATIC, {"parameters": [label, "1/2", "1"], "functions": {"g": [0, 1, 2]}}],
        "parameters",
    ),
    "table-reports": (["verify", "{0}"], lambda label: [_with_label(_TABLE, "reports", label)], "reports"),
}


@pytest.mark.parametrize("label", [None, True, False, [], {}, ["a"]], ids=repr)
@pytest.mark.parametrize("field", sorted(_LABEL_FIELDS))
def test_a_label_that_is_not_a_json_string_or_number_is_an_error(tmp_path, capsys, field, label):
    argv, docs, message = _LABEL_FIELDS[field]
    paths = [tmp_path / f"doc{i}.json" for i in range(len(docs(label)))]
    for path, doc in zip(paths, docs(label)):
        path.write_text(json.dumps(doc))
    assert main([arg.format(*paths) for arg in argv]) == 2
    assert f"{message} must be JSON strings or numbers" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["experiment-outcomes", "experiment-parameters"])
def test_numeric_labels_still_answer(tmp_path, capsys, field):
    argv, docs, _ = _LABEL_FIELDS[field]
    path = tmp_path / "doc0.json"
    path.write_text(json.dumps(docs(7)[0]))
    assert main([arg.format(path) for arg in argv]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_numeric_labels_load_as_their_json_spelling():
    doc = {"parameters": [0, 2.5, "1"], "outcomes": [-1, 1], "kernel": _EXPERIMENT["kernel"]}
    e = elicitkit.load_experiment(doc)
    assert e.parameters == ("0", "2.5", "1") and e.outcomes == ("-1", "1")
    assert load_mechanism({**_TABLE, "reports": [3]}).reports == ("3",)
    mixture = {"covariates": [4], "weights": {"4": "1"}, "components": {"4": _EXPERIMENT}}
    assert load_mixture(mixture).covariates == ("4",)
    family = load_statistic_family({"parameters": [0, 1, 2], "functions": {"g": [0, 1, 2]}})
    assert family.parameters == ("0", "1", "2")


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "bounded", "y.json", "z.json", "--max-outcomes", "0"],
        ["compare", "bounded", "y.json", "z.json", "--max-outcomes", "-1"],
        ["verify", "mechanism.json", "--max-pairs", "0"],
        ["verify", "mechanism.json", "--max-pairs", "-5"],
    ],
)
def test_caps_below_one_are_refused_when_parsed(capsys, argv):
    # argparse exits before any file is read
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert f"must be at least 1, got {argv[-1]}" in capsys.readouterr().err


def test_denominator_below_one_is_refused_when_parsed(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "mechanism.json", "--denominator", "0"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "argument --denominator: must be at least 1, got 0" in err


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


def _fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so modules this test session imported do not hide any
    src = str(Path(elicitkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )


def test_cli_and_demos_import_only_the_standard_library():
    # comparing module sets before and after ignores what site loads
    assert json.loads(_fresh_interpreter(_STARTUP_PROBE).stdout) == []


_FOOTPRINT_PROBE = """
import contextlib, io, json, sys
clean, noisy, mechanism = sys.argv[1:4]
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[4])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("elicitkit."))))
"""
_RUN = "from elicitkit.cli import main; assert main([{}]) == 0".format


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import elicitkit", set()),
        ("import elicitkit; elicitkit.mechanisms", {"exactcore", "model", "elicit", "mechanisms"}),
        (_RUN("'compare', 'blackwell', clean, noisy"), {"cli", "exactcore", "model", "orders"}),
        (_RUN("'verify', mechanism"), {"cli", "exactcore", "model", "elicit", "mechanisms"}),
        (
            _RUN("'demo', 'german_tank'"),
            {"cli", "exactcore", "model", "elicit", "catalog", "demos"},
        ),
    ],
    ids=["import", "submodule-attribute", "compare", "verify", "demo-german-tank"],
)
def test_each_entry_point_loads_only_the_modules_it_runs(
    experiment_files, tmp_path, statement, loaded
):
    # module sets, not times, so the answer does not depend on the machine
    mechanism = tmp_path / "mechanism.json"
    mechanism.write_text(json.dumps(_QUADRATIC))
    probe = _fresh_interpreter(
        _FOOTPRINT_PROBE, *experiment_files, str(mechanism), statement
    )
    assert set(json.loads(probe.stdout)) == {f"elicitkit.{name}" for name in loaded}
