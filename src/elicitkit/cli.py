"""Command-line interface.

Three subcommands:

* ``compare <relation> expY.json expZ.json`` prints a dominance result as
  JSON on stdout. Exit code 0 means the query completed, whatever the
  answer; nonzero codes are reserved for errors.
* ``demo <name> [--param k=v ...]`` prints a demo report as JSON on stdout
  and a human-readable summary on stderr; exits nonzero when any machine
  checked claim fails.
* ``verify <mechanism.json> [--target family.json] [--denominator d]
  [--max-pairs N]`` runs the exhaustive incentive-compatibility oracle and
  prints its report as JSON on stdout; a grid with more than N ordered
  belief pairs is refused before it is built, and d or N below 1 when the
  arguments are parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

# Each run function imports only the modules it uses: a CLI run is one short
# process, and importing modules it never calls would be most of its own time.

RELATIONS = ("elicitation", "blackwell", "nonneg", "bounded", "garbling")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _parse_param(text: str) -> tuple[str, object]:
    """``key=value`` with the value an int, else the string as typed: a demo
    parses each of its rational parameters itself, at the boundary."""
    if "=" not in text:
        raise ValueError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        return key, int(raw)
    except ValueError:
        return key, raw


def _cap(text: str) -> int:
    """An int of at least 1; a non-int gets the message ``type=int`` gives."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _run_compare(args: argparse.Namespace) -> int:
    from . import orders
    from .model import load_experiment

    ey = load_experiment(_read_json(args.experiment_y))
    ez = load_experiment(_read_json(args.experiment_z))
    if args.relation == "elicitation":
        doc = orders.elicitation_dominates(ey, ez).to_doc()
    elif args.relation == "blackwell":
        doc = orders.blackwell_dominates(ey, ez).to_doc()
    elif args.relation == "nonneg":
        doc = orders.nonneg_dominates(ey, ez).to_doc()
    elif args.relation == "bounded":
        cap = args.max_outcomes or orders.MAX_BOUNDED_OUTCOMES
        doc = orders.bounded_dominates(ey, ez, cap).to_doc()
    else:
        doc = orders.uniform_garbling_decomposition(ey, ez).to_doc()
    print(json.dumps(doc, indent=2))
    return 0


def _run_demo(args: argparse.Namespace) -> int:
    from .demos import DEMOS

    if args.name not in DEMOS:
        raise ValueError(f"unknown demo {args.name!r}; options: {sorted(DEMOS)}")
    params = dict(_parse_param(p) for p in args.param or [])
    try:
        report = DEMOS[args.name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for demo {args.name!r}: {exc}") from exc
    print(json.dumps(report.to_doc(), indent=2))
    for claim in report.claims:
        status = "ok" if claim.passed else "FAILED"
        line = f"[{status}] {claim.description}"
        if claim.detail:
            line += f" ({claim.detail})"
        print(line, file=sys.stderr)
    print(
        f"demo {report.name}: {'all claims passed' if report.passed else 'CLAIMS FAILED'}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _run_verify(args: argparse.Namespace) -> int:
    from .elicit import load_statistic_family, maximal_partition
    from .mechanisms import MAX_PAIRS, ic_verify, load_mechanism

    mechanism = load_mechanism(_read_json(args.mechanism))
    if args.target is not None:
        target = load_statistic_family(_read_json(args.target))
    else:
        target = maximal_partition(mechanism.experiment)
    report = ic_verify(mechanism, target, args.denominator, args.max_pairs or MAX_PAIRS)
    print(json.dumps(report.to_doc(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elicitkit",
        description=(
            "Exact-rational analysis of information elicitation with "
            "statistical experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="run one dominance query between two experiments"
    )
    compare.add_argument("relation", choices=RELATIONS)
    compare.add_argument("experiment_y", help="JSON file for the dominating side")
    compare.add_argument("experiment_z", help="JSON file for the dominated side")
    compare.add_argument(
        "--max-outcomes",
        type=_cap,
        help="cap on the dominated outcome count for the bounded relation",
    )
    compare.set_defaults(run=_run_compare)

    demo = sub.add_parser("demo", help="run a named demonstration")
    demo.add_argument("name")
    demo.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="demo parameter override (ints, rationals, or strings)",
    )
    demo.set_defaults(run=_run_demo)

    verify = sub.add_parser(
        "verify", help="brute-force incentive compatibility of a mechanism"
    )
    verify.add_argument("mechanism", help="kind-tagged mechanism JSON file")
    verify.add_argument("--target", help="statistic family JSON file", default=None)
    verify.add_argument(
        "--denominator",
        type=_cap,
        default=4,
        help="belief grid resolution (weights are multiples of 1/d)",
    )
    verify.add_argument(
        "--max-pairs",
        type=_cap,
        help="cap on the ordered belief pairs G(G-1) the grid may have",
    )
    verify.set_defaults(run=_run_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
