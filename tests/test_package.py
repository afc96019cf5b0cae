"""The package namespace: every public name, resolved from its home module."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import elicitkit
from elicitkit import exactcore

# the public names, by home module
PUBLIC = {
    "exactcore": ["Matrix", "format_rational", "parse_rational"],
    "model": [
        "Belief",
        "CovariateMixture",
        "Experiment",
        "belief_grid",
        "garble",
        "is_complete",
        "is_identified",
        "load_experiment",
        "mean_outcome_distribution",
        "mixture",
        "power",
        "product_many",
        "replacement_garbling_channel_inverse",
        "uniform_garble",
    ],
    "elicit": [
        "ElicitabilityReport",
        "StatisticFamily",
        "complete_elicitation",
        "indistinguishable",
        "is_coarser",
        "maximal_partition",
        "mode_elicitable",
        "moment_weights",
        "unbiased_weights",
    ],
    "mechanisms": [
        "Mechanism",
        "TableMechanism",
        "compound_mechanism",
        "expected_payoff",
        "ic_verify",
        "level_set_transform",
        "mean_mechanism",
        "pushforward",
        "quadratic_mechanism",
        "value_function",
    ],
    "orders": [
        "DominanceResult",
        "EventWeightMatrix",
        "blackwell_dominates",
        "bounded_dominates",
        "elicitation_dominates",
        "nonneg_dominates",
        "order_consistency_audit",
        "uniform_garbling_decomposition",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_every_public_name():
    assert len(NAMES) == 44
    assert sorted(elicitkit.__all__) == NAMES
    assert elicitkit.__version__ == "0.1.0"


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_each_name_is_its_home_modules_attribute(home):
    module = importlib.import_module(f"elicitkit.{home}")
    assert getattr(elicitkit, home) is module
    for name in PUBLIC[home]:
        assert getattr(elicitkit, name) is getattr(module, name)


def test_dir_and_star_import_cover_every_name():
    assert set(NAMES) | set(PUBLIC) <= set(dir(elicitkit))
    scope: dict = {}
    exec("from elicitkit import *", scope)
    for name in NAMES:
        assert scope[name] is getattr(elicitkit, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        elicitkit.no_such_name


def test_the_exact_input_rule_is_spelled_only_in_exactcore():
    # "an int or a Fraction, never a bool": every other module calls exactcore's checks
    rule = re.compile(r"isinstance\([^()]*\bbool\b|\(int, Fraction\)|\{int, Fraction\}")
    source = Path(elicitkit.__file__).parent
    spelled = sorted(path.name for path in source.glob("*.py") if rule.search(path.read_text()))
    assert spelled == ["exactcore.py"]


def test_the_value_rules_are_spelled_only_in_exactcore():
    # "sums to exactly 1" and "no repeated label": every other module calls
    # require_distribution and require_distinct, to refuse or to test
    rule = re.compile(r"!= 1\b|len\(set\([^()]*\)\) !=|sum\(.*\) == 1\b")
    source = Path(elicitkit.__file__).parent
    spelled = sorted(path.name for path in source.glob("*.py") if rule.search(path.read_text()))
    assert spelled == ["exactcore.py"]


def _is_size(node) -> bool:
    """A ``len(...)`` call or a matrix's ``.rows`` or ``.cols``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "len"
    return isinstance(node, ast.Attribute) and node.attr in ("rows", "cols")


def test_the_size_rules_are_spelled_only_in_exactcore():
    # "an int within its bounds" is require_int and "one entry per label" is
    # require_length; only verify_factorization compares a shape inline, since
    # it answers False rather than refusing
    assert not hasattr(exactcore, "require_ints")
    source = Path(elicitkit.__file__).parent
    assert not [path.name for path in source.glob("*.py") if "require_ints" in path.read_text()]
    spelled = set()
    for path in source.glob("*.py"):
        if path.name == "exactcore.py":
            continue
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef) and any(
                isinstance(node, ast.Compare)
                and any(isinstance(op, ast.NotEq) for op in node.ops)
                and any(map(_is_size, [node.left, *node.comparators]))
                for node in ast.walk(f)
            ):
                spelled.add((path.name, f.name))
    assert spelled == {("orders.py", "verify_factorization")}


def test_one_fraction_elimination_step_serves_only_lp_and_rank():
    # solves, null spaces, spans and determinants all run on the integer
    # elimination; a second Fraction elimination must not creep back
    tree = ast.parse((Path(elicitkit.__file__).parent / "exactcore.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "_row_reduce" not in {f.name for f in functions}
    callers = {
        f.name
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_pivot"
    }
    assert callers == {"lp_feasible", "rank"}


def test_one_span_record_answers_every_span_question():
    # the integer elimination is private to exactcore, every span question
    # goes through exactcore.Span, and the helpers it replaced stay gone
    source = Path(elicitkit.__file__).parent

    def naming(pattern):
        return [path.name for path in source.glob("*.py") if re.search(pattern, path.read_text())]

    for name in ("_echelon", "_back_substitute", "_bareiss"):
        assert naming(rf"\b{name}\b") == ["exactcore.py"], name
    replaced = "_annihilator|_in_span|_orthogonal|_null_directions|_scored_annihilator"
    assert not naming(rf"\b({replaced})\b")
    assert {name for name in vars(exactcore.Span) if not name.startswith("__")} == {"of", "outside"}
    tree = ast.parse((source / "mechanisms.py").read_text())
    owners = [
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name == "_scored_span"
    ]
    assert owners == ["Mechanism"]


def test_only_ic_verify_builds_grid_beliefs_in_mechanisms():
    # every kind gives its grid payoffs as integer rows; a grid belief is
    # built only to name a violation, never once per grid point
    tree = ast.parse((Path(elicitkit.__file__).parent / "mechanisms.py").read_text())

    def uses(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "grid_belief"]

    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert {f.name for f in functions if uses(f)} == {"ic_verify"}
    (verify,) = (f for f in functions if f.name == "ic_verify")
    assert len(uses(tree)) == len(uses(verify))
