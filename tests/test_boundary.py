"""The exact-input boundary: a value of the wrong kind raises ValueError.

Each public name in ``elicitkit.__all__`` and each ``catalog`` constructor is
called on valid arguments with one value argument replaced by a drawn bad
value: a bool, a float, a str, bytes, None, a nested list, or a list holding
a bool, a float or None. Every call must raise ``ValueError``. Edge ints (0,
-1, 1) in an int argument must give an answer or a ``ValueError`` naming that
argument. Each CLI subcommand, run in process on a valid document with one
JSON leaf replaced, must exit 0 or 2.

Not drawn: arguments that take one package object (an experiment, belief,
matrix, mechanism, statistic family, mixture, event-weight matrix or
``random.Random``), since refusing a non-object there would need a check in
every function; flags, which are read by truthiness; and the relation and
note strings of a ``DominanceResult``, which the orders fill in. No int is
drawn large: the catalog and ``belief_grid`` have no size cap.
"""

from __future__ import annotations

import contextlib
import copy
import io
import inspect
import json
import random
import re
import string
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elicitkit
from elicitkit import catalog, cli
from elicitkit.catalog import bernoulli_experiment, noisy_bernoulli_experiment
from elicitkit.demos import DEMOS, DiscretizedRegression, demo_regression
from elicitkit.elicit import maximal_partition, statistic_family_to_doc, statistic_mean
from elicitkit.exactcore import Matrix
from elicitkit.mechanisms import (
    TableMechanism,
    mean_mechanism,
    mechanism_to_doc,
    pushforward,
    quadratic_mechanism,
    tabulate,
)
from elicitkit.model import Belief, CovariateMixture, experiment_to_doc
from elicitkit.orders import elicitation_dominates

E = bernoulli_experiment()  # parameters 0, 1/2, 1; outcomes 0, 1
NOISY = noisy_bernoulli_experiment()
STAT = (F(0), F(1, 2), F(1))  # the success column: spanned
TABLE = TableMechanism(E, ("low", "high"), Matrix.from_rows([[1, 0], [0, 1]]))
MIX = CovariateMixture(("a",), (F(1),), (E,))

# Argument kinds. "int": a count or size; "rational": one exact scalar;
# "vector": a list, tuple or range of rationals; "tuple": a dataclass field;
# "seq": a list or tuple of labels or objects; "doc": a JSON object; "word":
# a str from a fixed set; "report": a table report label or index. A kind
# ending in "?" also takes None.
CASES = {
    "Matrix": (Matrix, dict(rows=1, cols=2, entries=(F(1), F(0))),
               dict(rows="int", cols="int", entries="tuple")),
    "format_rational": (elicitkit.format_rational, dict(value=F(1, 2)), dict(value="rational")),
    "parse_rational": (elicitkit.parse_rational, dict(value="1/2"), dict(value="rational")),
    "Belief": (Belief, dict(weights=(F(1, 2), F(1, 2))), dict(weights="tuple")),
    "CovariateMixture": (
        CovariateMixture, dict(covariates=("a",), weights=(F(1),), components=(E,)),
        dict(covariates="tuple", weights="tuple", components="tuple"),
    ),
    "Experiment": (
        elicitkit.Experiment, dict(parameters=("a",), outcomes=("x",), kernel=Matrix.identity(1)),
        dict(parameters="tuple", outcomes="tuple"),
    ),
    "belief_grid": (elicitkit.belief_grid, dict(n_parameters=2, denominator=2),
                    dict(n_parameters="int", denominator="int")),
    "garble": (elicitkit.garble, dict(e=E, channel=Matrix.identity(2)), {}),
    "is_complete": (elicitkit.is_complete, dict(e=E), {}),
    "is_identified": (elicitkit.is_identified, dict(e=E), {}),
    "load_experiment": (elicitkit.load_experiment, dict(doc=experiment_to_doc(E)), dict(doc="doc")),
    "mean_outcome_distribution": (elicitkit.mean_outcome_distribution,
                                  dict(e=E, p=Belief.uniform(3)), {}),
    "mixture": (elicitkit.mixture, dict(m=MIX), {}),
    "power": (elicitkit.power, dict(e=E, copies=2), dict(copies="int")),
    "product_many": (elicitkit.product_many, dict(experiments=(E, E)), dict(experiments="seq")),
    "replacement_garbling_channel_inverse": (
        elicitkit.replacement_garbling_channel_inverse,
        dict(replacement=(F(1, 2), F(1, 2)), noise=F(1, 10)),
        dict(replacement="vector", noise="rational"),
    ),
    "uniform_garble": (elicitkit.uniform_garble, dict(e=E, noise=F(1, 10)), dict(noise="rational")),
    "ElicitabilityReport": (elicitkit.ElicitabilityReport,
                            dict(elicitable=True, weights=(F(1), F(0))), dict(weights="tuple?")),
    "StatisticFamily": (
        elicitkit.StatisticFamily, dict(parameters=E.parameters, functions=(STAT,), labels=("g",)),
        dict(parameters="tuple", functions="tuple", labels="tuple?"),
    ),
    "complete_elicitation": (elicitkit.complete_elicitation, dict(e=E), {}),
    "indistinguishable": (
        elicitkit.indistinguishable,
        dict(family=maximal_partition(E), p=Belief.uniform(3), q=Belief.point_mass(3, 1)), {},
    ),
    "is_coarser": (elicitkit.is_coarser,
                   dict(coarse=maximal_partition(E), fine=maximal_partition(E)), {}),
    "maximal_partition": (elicitkit.maximal_partition, dict(e=E), {}),
    "mode_elicitable": (elicitkit.mode_elicitable, dict(e=E, parameter_values=range(3)),
                        dict(parameter_values="vector")),
    "moment_weights": (elicitkit.moment_weights, dict(e=E, copies=2, statistic=STAT, exponent=1),
                       dict(copies="int", statistic="vector", exponent="int")),
    "unbiased_weights": (elicitkit.unbiased_weights, dict(e=E, statistic=STAT),
                         dict(statistic="vector")),
    "Mechanism": (elicitkit.Mechanism, {}, {}),
    "TableMechanism": (
        TableMechanism,
        dict(experiment=E, reports=("low", "high"), payoffs=TABLE.payoffs,
             report_beliefs=(Belief.point_mass(3, 0), Belief.point_mass(3, 2))),
        dict(reports="seq", report_beliefs="seq?"),
    ),
    "compound_mechanism": (
        elicitkit.compound_mechanism, dict(mixture_spec=MIX, subs=(quadratic_mechanism(E),)),
        dict(subs="seq"),
    ),
    "expected_payoff": (
        elicitkit.expected_payoff, dict(m=TABLE, belief=Belief.uniform(3), report="low"),
        dict(report="report"),
    ),
    "ic_verify": (elicitkit.ic_verify,
                  dict(m=quadratic_mechanism(E), target=maximal_partition(E), grid_denominator=2,
                       max_pairs=1000),
                  dict(grid_denominator="int", max_pairs="int")),
    "level_set_transform": (
        elicitkit.level_set_transform,
        dict(base=TABLE, event_weights=elicitkit.bounded_dominates(E, E).event_weights,
             experiment=E), {},
    ),
    "mean_mechanism": (
        mean_mechanism, dict(e=E, statistic=STAT, weights=(F(0), F(1)), variant="linear"),
        dict(statistic="vector", weights="vector", variant="word"),
    ),
    "pushforward": (pushforward,
                    dict(base=TABLE, matrix=Matrix.identity(2), experiment=E), {}),
    "quadratic_mechanism": (quadratic_mechanism, dict(e=E, event_weights=(F(1, 3), F(2, 3))),
                            dict(event_weights="vector?")),
    "value_function": (elicitkit.value_function,
                       dict(m=TABLE, belief=Belief.uniform(3), report_grid=("low", 1)),
                       dict(report_grid="seq")),
    "DominanceResult": (elicitkit.DominanceResult,
                        dict(relation="nonneg", holds=False, note="no"), {}),
    "EventWeightMatrix": (
        elicitkit.EventWeightMatrix,
        dict(source_outcomes=("0", "1"), target_outcomes=("0",), entries=Matrix.identity(2)),
        dict(source_outcomes="tuple", target_outcomes="tuple"),
    ),
    "blackwell_dominates": (elicitkit.blackwell_dominates, dict(ey=E, ez=NOISY), {}),
    "bounded_dominates": (elicitkit.bounded_dominates, dict(ey=E, ez=NOISY, max_outcomes=3),
                          dict(max_outcomes="int")),
    "elicitation_dominates": (elicitkit.elicitation_dominates, dict(ey=E, ez=NOISY), {}),
    "nonneg_dominates": (elicitkit.nonneg_dominates, dict(ey=E, ez=NOISY), {}),
    "order_consistency_audit": (elicitkit.order_consistency_audit,
                                dict(pairs=[(E, NOISY)]), dict(pairs="seq")),
    "uniform_garbling_decomposition": (elicitkit.uniform_garbling_decomposition,
                                       dict(ey=NOISY, ez=E), {}),
    # the catalog constructors
    "bernoulli_experiment": (catalog.bernoulli_experiment, dict(success_rates=(F(1, 3), 1)),
                             dict(success_rates="vector")),
    "noisy_bernoulli_experiment": (
        catalog.noisy_bernoulli_experiment, dict(success_rates=["1/3", 1], noise="1/5"),
        dict(success_rates="vector", noise="rational"),
    ),
    "german_tank_experiment": (catalog.german_tank_experiment, dict(n_max=3), dict(n_max="int")),
    "truncated_poisson_experiment": (catalog.truncated_poisson_experiment,
                                     dict(k_max=2, rates=(F(1), 2)),
                                     dict(k_max="int", rates="vector")),
    "limited_liability_separation_pair": (catalog.limited_liability_separation_pair, {}, {}),
    "random_experiment": (
        lambda **kw: catalog.random_experiment(random.Random(0), **kw),
        dict(n_parameters=2, n_outcomes=2, denominator=3, parameters=("a", "b")),
        dict(n_parameters="int", n_outcomes="int", denominator="int", parameters="seq?"),
    ),
    "random_experiment_pairs": (
        catalog.random_experiment_pairs,
        dict(seed=1, count=2, max_parameters=3, max_outcomes=2, denominator=3),
        dict(seed="int", count="int", max_parameters="int", max_outcomes="int",
             denominator="int"),
    ),
}
VALUE_ARGS = [(name, arg) for name, (_, _, kinds) in CASES.items() for arg in kinds]
INT_ARGS = [(name, arg) for name, arg in VALUE_ARGS if CASES[name][2][arg] == "int"]
CATALOG = [name for name, f in vars(catalog).items()
           if inspect.isfunction(f) and f.__module__ == catalog.__name__ and name[0] != "_"]

# a str of letters never parses as a rational, and none is a valid word or report
WORDS = st.text(string.ascii_letters, min_size=1).filter(
    lambda s: s not in ("brier", "linear", "low", "high")
)
SCALARS = st.one_of(st.booleans(), st.floats(), WORDS, st.binary(), st.none())
BAD = st.one_of(
    SCALARS,
    st.lists(st.lists(st.integers(-3, 3), min_size=1), min_size=1),
    st.lists(st.one_of(st.booleans(), st.floats(), st.none()), min_size=1),
)


def test_every_public_name_and_catalog_constructor_is_covered():
    assert set(CASES) == set(elicitkit.__all__) | set(CATALOG)
    for name, (build, valid, kinds) in CASES.items():
        build(**valid)  # the valid call answers
        assert set(kinds) <= set(valid), name


@pytest.mark.parametrize("name, arg", VALUE_ARGS, ids=[f"{n}.{a}" for n, a in VALUE_ARGS])
@settings(max_examples=15, deadline=None)
@given(bad=BAD)
def test_a_bad_value_raises_value_error(name, arg, bad):
    build, valid, kinds = CASES[name]
    if bad is None and kinds[arg].endswith("?"):
        return  # None is this argument's default
    with pytest.raises(ValueError):
        build(**dict(valid, **{arg: bad}))


@pytest.mark.parametrize("name, arg", INT_ARGS, ids=[f"{n}.{a}" for n, a in INT_ARGS])
@pytest.mark.parametrize("edge", [0, -1, 1])
def test_edge_ints_answer_or_raise_value_error(name, arg, edge):
    build, valid, _ = CASES[name]
    try:
        build(**dict(valid, **{arg: edge}))
    except ValueError as exc:
        assert arg in str(exc)


# sizes each refused by its range with a message naming the argument
SIZE_HOLES = {
    "negative count": (lambda: catalog.random_experiment_pairs(0, -1),
                       "^count must be at least 0, got -1$"),
    "one parameter at most": (lambda: catalog.random_experiment_pairs(0, 2, max_parameters=1),
                              "^max_parameters must be at least 2, got 1$"),
    "zero outcome cap": (lambda: elicitkit.bounded_dominates(E, NOISY, max_outcomes=0),
                         "^max_outcomes must be at least 1, got 0$"),
    "zero pair cap": (lambda: elicitkit.ic_verify(quadratic_mechanism(E), maximal_partition(E),
                                                  2, max_pairs=0),
                      "^max_pairs must be at least 1, got 0$"),
}


@pytest.mark.parametrize("build, message", SIZE_HOLES.values(), ids=list(SIZE_HOLES))
def test_a_size_out_of_range_is_refused_naming_the_argument(build, message):
    with pytest.raises(ValueError, match=message):
        build()


METHODS = {
    "Matrix.identity": lambda x: Matrix.identity(x),
    "Belief.uniform": lambda x: Belief.uniform(x),
    "Belief.point_mass.n": lambda x: Belief.point_mass(x, 0),
    "Belief.point_mass.index": lambda x: Belief.point_mass(2, x),
    "Mechanism.payoff.outcome": lambda x: TABLE.payoff("low", x),
}


@pytest.mark.parametrize("call", METHODS.values(), ids=list(METHODS))
@pytest.mark.parametrize("bad", [True, 1.5, F(1), b"1", None, [0]])
def test_a_method_index_or_size_must_be_an_int(call, bad):
    call(1)  # the valid call answers
    with pytest.raises(ValueError, match="must be an int, got "):
        call(bad)


# -- the value rules: probability vectors, distinct labels, label-or-index -----

PAIR, NEGATIVE, OFF_ONE = (F(1, 2), F(1, 2)), (F(3, 2), F(-1, 2)), (F(1, 2), F(1, 3))
# each site that takes a probability vector, built on a two-entry vector
DISTRIBUTIONS = {
    "kernel row": lambda v: elicitkit.Experiment(("a",), ("x", "y"), Matrix(1, 2, v)),
    "belief weights": Belief,
    "covariate weights": lambda v: CovariateMixture(("a", "b"), v, (E, E)),
    "Markov channel row": lambda v: elicitkit.garble(E, Matrix(2, 2, (*v, F(0), F(1)))),
    "replacement distribution": lambda v: elicitkit.replacement_garbling_channel_inverse(v, 0),
    "event weights": lambda v: quadratic_mechanism(E, v),
}
# each site that takes a set of labels, built on three labels
LABEL_SETS = {
    "parameter labels": lambda ls: elicitkit.Experiment(ls, ("x",), Matrix(3, 1, (1, 1, 1))),
    "outcome labels": lambda ls: elicitkit.Experiment(("a",), ls, Matrix(1, 3, (1, 0, 0))),
    "covariate labels": lambda ls: CovariateMixture(ls, (1, 0, 0), (E, E, E)),
    "report labels": lambda ls: TableMechanism(E, ls, Matrix(3, 2, (0,) * 6)),
    "parameter values": lambda ls: elicitkit.mode_elicitable(E, ls),
}
RULES = {
    **{f"{field}: negative": (build, PAIR, NEGATIVE, rf"^{field}.* entry -1/2 outside \[0, 1\]$")
       for field, build in DISTRIBUTIONS.items()},
    **{f"{field}: sum": (build, PAIR, OFF_ONE, rf"^{field}.* sums to 5/6$")
       for field, build in DISTRIBUTIONS.items()},
    **{f"{field}: repeat": (build, ("0", "1", "2"), ("0", "1", "1"), rf"^{field} .* '?1'?$")
       for field, build in LABEL_SETS.items()},
    "unknown outcome": (lambda y: TABLE.payoff("low", y), "1", "2", "^unknown outcome '2'$"),
    "outcome index": (lambda y: TABLE.payoff("low", y), 1, 2, "^outcome index 2 out of range$"),
    "negative outcome index": (lambda y: TABLE.payoff(0, y), 0, -1, "^outcome index -1 out of"),
    "unknown report": (lambda r: TABLE.payoff(r, 0), "high", "mid", "^unknown report 'mid'$"),
    "report index": (lambda r: TABLE.payoff(r, 0), 1, 2, "^report index 2 out of range$"),
    "matrix entries": (
        lambda xs: elicitkit.EventWeightMatrix(("0", "1"), ("0",), Matrix(2, 2, xs)),
        (F(1, 2), F(1, 2), 0, 1), (0.5, 0.5, 0, 1),
        r"^matrix entries must be ints or Fractions, got 0\.5$"),
}


@pytest.mark.parametrize("build, valid, bad, message", RULES.values(), ids=list(RULES))
def test_a_value_rule_refuses_a_bad_value_naming_the_field(build, valid, bad, message):
    build(valid)  # the valid call answers
    with pytest.raises(ValueError, match=message):
        build(bad)


# -- the length rule: one entry per label --------------------------------------

U2, U3, I2, ZEROS = Belief.uniform(2), Belief.uniform(3), Matrix.identity(2), (F(0),) * 6
GRID, DRAWS = ((F(1), F(0)), (F(1), F(1))), ((F(2),), (F(3),))
MENU = tabulate(quadratic_mechanism(E), elicitkit.belief_grid(3, 3))  # U3 is on its menu
# each site that checks a length or a shape: its call on one argument, a valid
# and a bad value, and the refusal, naming the bad size and the one it needs
LENGTHS = {
    "StatisticFamily.functions": (
        lambda g: elicitkit.StatisticFamily(E.parameters, (g,)), STAT, STAT[:2],
        "statistic length does not match the parameter set: got 2, need 3"),
    "StatisticFamily.labels": (
        lambda ls: elicitkit.StatisticFamily(E.parameters, (STAT,), ls), ("g",), ("g", "h"),
        "label count does not match the functions: got 2, need 1"),
    "statistic_mean": (lambda g: statistic_mean(g, U3), STAT, STAT[:2],
                       "statistic length does not match the belief: got 2, need 3"),
    "indistinguishable": (
        lambda p: elicitkit.indistinguishable(maximal_partition(E), U3, p), U3, U2,
        "belief length does not match the family's parameters: got 2, need 3"),
    "unbiased_weights": (lambda g: elicitkit.unbiased_weights(E, g), STAT, STAT[:2],
                         "statistic length does not match the parameter set: got 2, need 3"),
    "mode_elicitable": (lambda v: elicitkit.mode_elicitable(E, v), range(3), range(2),
                        "parameter value count does not match the parameter set: got 2, need 3"),
    "Mechanism.payoff_vector": (lambda p: quadratic_mechanism(E).payoff_vector(p), U3, U2,
                                "belief length does not match the parameter set: got 2, need 3"),
    "event weights": (lambda w: quadratic_mechanism(E, w), PAIR, (F(1, 3),) * 3,
                      "event weight count does not match the outcome set: got 3, need 2"),
    "MeanScoreMechanism.statistic": (
        lambda g: mean_mechanism(E, g, (F(0), F(1))), STAT, STAT[:2],
        "statistic length does not match the parameter set: got 2, need 3"),
    "MeanScoreMechanism.weights": (
        lambda w: mean_mechanism(E, STAT, w), (F(0), F(1)), (F(0), F(1), F(2)),
        "weights length does not match the outcome set: got 3, need 2"),
    "TableMechanism.payoffs rows": (
        lambda m: TableMechanism(E, ("lo", "hi"), m), I2, Matrix(3, 2, ZEROS),
        "payoff row count does not match the report labels: got 3, need 2"),
    "TableMechanism.payoffs columns": (
        lambda m: TableMechanism(E, ("lo", "hi"), m), I2, Matrix(2, 3, ZEROS),
        "payoff column count does not match the outcome set: got 3, need 2"),
    "TableMechanism.report_beliefs": (
        lambda ps: TableMechanism(E, ("lo", "hi"), I2, ps), (U3, U3), (U3,),
        "belief menu size does not match the report labels: got 1, need 2"),
    "TableMechanism.report_beliefs entry": (
        lambda ps: TableMechanism(E, ("lo", "hi"), I2, ps), (U3, U3), (U3, U2),
        "report belief length does not match the parameter set: got 2, need 3"),
    "TableMechanism.report_for_belief": (
        lambda p: MENU.report_for_belief(p), U3, U2,
        "belief length does not match the parameter set: got 2, need 3"),
    "TableMechanism.grid_payoffs": (
        lambda k: MENU.grid_payoffs([k], 3), (1, 1, 1), (2, 1),
        "belief length does not match the parameter set: got 2, need 3"),
    "CompoundMechanism": (
        lambda subs: elicitkit.compound_mechanism(MIX, subs), (quadratic_mechanism(E),),
        (quadratic_mechanism(E),) * 2,
        "sub-mechanism count does not match the covariates: got 2, need 1"),
    "pushforward rows": (
        lambda m: pushforward(TABLE, m, E), I2, Matrix(3, 2, ZEROS),
        "matrix row count does not match the new outcomes: got 3, need 2"),
    "pushforward columns": (
        lambda m: pushforward(TABLE, m, E), I2, Matrix(2, 3, ZEROS),
        "matrix column count does not match the base outcomes: got 3, need 2"),
    "Experiment kernel rows": (
        lambda m: elicitkit.Experiment(("a", "b"), ("x",), m), Matrix(2, 1, (1, 1)),
        Matrix.identity(1), "kernel row count does not match the parameter set: got 1, need 2"),
    "Experiment kernel columns": (
        lambda m: elicitkit.Experiment(("a",), ("x", "y"), m), Matrix(1, 2, (1, 0)),
        Matrix.identity(1), "kernel column count does not match the outcome set: got 1, need 2"),
    "CovariateMixture.weights": (
        lambda w: CovariateMixture(("a", "b"), w, (E, E)), PAIR, (F(1),),
        "weight count does not match the covariates: got 1, need 2"),
    "CovariateMixture.components": (
        lambda cs: CovariateMixture(("a", "b"), PAIR, cs), (E, E), (E,),
        "component count does not match the covariates: got 1, need 2"),
    "garble": (lambda m: elicitkit.garble(E, m), I2, Matrix.identity(3),
               "Markov channel row count does not match the outcome set: got 3, need 2"),
    "mean_outcome_distribution": (lambda p: elicitkit.mean_outcome_distribution(E, p), U3, U2,
                                  "belief length does not match the parameter set: got 2, need 3"),
    "load_experiment": (
        lambda rows: elicitkit.load_experiment({**experiment_to_doc(E), "kernel": rows}),
        experiment_to_doc(E)["kernel"], experiment_to_doc(E)["kernel"][:2],
        "kernel row count does not match the parameter set: got 2, need 3"),
    "EventWeightMatrix rows": (
        lambda m: elicitkit.EventWeightMatrix(("0", "1"), ("0",), m), I2, Matrix(1, 2, (0, 0)),
        "event-weight row count does not match the source outcomes: got 1, need 2"),
    "EventWeightMatrix columns": (
        lambda m: elicitkit.EventWeightMatrix(("0", "1"), ("0",), m), I2, Matrix(2, 1, (0, 0)),
        "event-weight column count does not match the target subsets: got 1, need 2"),
    "DiscretizedRegression.coefficient_grid": (
        lambda grid: DiscretizedRegression(grid, DRAWS[:1], F(1, 2)), GRID, (GRID[0], (F(1),)),
        "coefficient vector length does not match the first vector's length: got 1, need 2"),
    "DiscretizedRegression.covariates": (
        lambda xs: DiscretizedRegression(GRID, xs, F(1, 2)), DRAWS, (DRAWS[0], (F(3), F(4))),
        "covariate length does not match the slope count: got 2, need 1"),
    "demo_regression covariate draws": (
        lambda xs: demo_regression(DiscretizedRegression(GRID, xs, F(1, 2))), DRAWS, DRAWS[:1],
        "covariate draw count does not match the slope count plus one: got 1, need 2"),
    "demo_regression belief": (
        lambda p: demo_regression(DiscretizedRegression(GRID, DRAWS, F(1, 2)), p),
        Belief.uniform(2), U3, "belief length does not match the coefficient grid: got 3, need 2"),
}


@pytest.mark.parametrize("build, valid, bad, message", LENGTHS.values(), ids=list(LENGTHS))
def test_a_length_rule_refuses_a_mismatch_naming_both_sizes(build, valid, bad, message):
    build(valid)  # the valid call answers
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(bad)


# -- the CLI on mutated documents ---------------------------------------------

REPLACEMENTS = (True, 1.5, None, [], {}, "x")


def _leaves(doc, path=()):
    if isinstance(doc, (dict, list)) and doc:
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, (*path, key))
    else:
        yield path


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    holder = doc
    for key in head:
        holder = holder[key]
    holder[last] = value
    return doc


def _mechanism_docs():
    statistic = E.kernel.mul_vec((F(0), F(1)))
    table = TableMechanism(NOISY, ("lo", "hi"), Matrix.from_rows([[0, 1], [1, 0]]))
    panel = quadratic_mechanism(E)
    return {
        "panel": mechanism_to_doc(panel),
        "mean_score": mechanism_to_doc(mean_mechanism(E, statistic, (F(0), F(1)))),
        "table": mechanism_to_doc(table),
        # a table with the belief menu that verify reads from its document
        "tabulated": mechanism_to_doc(tabulate(panel, elicitkit.belief_grid(3, 2))),
        "pushforward": mechanism_to_doc(
            pushforward(table, elicitation_dominates(E, NOISY).witness, E)
        ),
        "compound": mechanism_to_doc(
            elicitkit.compound_mechanism(MIX, (quadratic_mechanism(E),))
        ),
    }


# each run: its argv with {doc} for a document's path, and the documents it reads
RUNS = {
    **{
        relation: (["compare", relation, "{clean}", "{noisy}"],
                   {"clean": experiment_to_doc(E), "noisy": experiment_to_doc(NOISY)})
        for relation in cli.RELATIONS
    },
    **{
        f"verify {kind}": (["verify", "{mechanism}", "--target", "{target}", "--denominator", "2"],
                           {"mechanism": doc,
                            "target": statistic_family_to_doc(maximal_partition(E))})
        for kind, doc in _mechanism_docs().items()
    },
}


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("docs")


def _run_on(doc_dir, argv, docs) -> int:
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(doc_dir / f"{name}.json")
        (doc_dir / f"{name}.json").write_text(json.dumps(doc))
    return _run([arg.format(**paths) for arg in argv])


@pytest.mark.parametrize("run", RUNS)
def test_valid_documents_exit_zero(doc_dir, run):
    # these table documents carry no report_beliefs, so verify refuses them: exit 2
    expected = 2 if run in ("verify table", "verify pushforward") else 0
    assert _run_on(doc_dir, *RUNS[run]) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_document_exits_zero_or_two(doc_dir, data):
    argv, docs = RUNS[data.draw(st.sampled_from(sorted(RUNS)))]
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_leaves(docs[name]))))
    value = data.draw(st.sampled_from(REPLACEMENTS))
    assert _run_on(doc_dir, argv, {**docs, name: _replaced(docs[name], path, value)}) in (0, 2)


DEMO_PARAMS = [(demo, p) for demo, f in DEMOS.items() for p in inspect.signature(f).parameters]


@pytest.mark.parametrize("demo, param", DEMO_PARAMS, ids=[f"{d}.{p}" for d, p in DEMO_PARAMS])
def test_a_mutated_demo_parameter_exits_zero_or_two(demo, param):
    for value in ("true", "1.5", "null", "[]", "{}", "x"):
        assert _run(["demo", demo, "--param", f"{param}={value}"]) in (0, 2), value
