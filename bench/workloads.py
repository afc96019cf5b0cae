"""The four workloads: seeded inputs, one operation each, and its checks.

Every workload draws its inputs from ``random.Random(f"{name}:{seed}")``,
so one seed gives the same inputs on every machine. A workload's pool of
inputs is a whole number of rounds; a round is a fixed mix of operation
kinds, so every run sees the same mix in the same order.

Operations call elicitkit through its module attributes (``orders.X``,
``model.X``), which is what the traced run rebinds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checker
from elicitkit import elicit, exactcore, mechanisms, model, orders

RELATIONS = ("blackwell", "nonneg", "bounded", "elicitation")


def child_env(root: Path) -> dict:
    """Environment for child interpreters: elicitkit from the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_ms(env: dict, statement: str, module: str) -> float:
    """Cumulative import time of ``module`` in a fresh interpreter, in ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1e3
    raise RuntimeError(f"no import time reported for {module}")


def random_kernel(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    """Row-stochastic matrix of full rank, each row k/total with k in 0..6.

    Full rank keeps every workload off a known fault: when the dominating
    kernel lacks full column rank, ``elicitation_dominates`` returns a
    witness whose rows do not sum to 1 (see CHANGES.md); the checker still
    demands unit row sums.
    """
    while True:
        out = []
        for _ in range(rows):
            raw = [0]
            while not sum(raw):
                raw = [rng.randrange(7) for _ in range(cols)]
            out.append([Fraction(x, sum(raw)) for x in raw])
        if checker.rank(out) == min(rows, cols):
            return out


def experiment(kernel) -> model.Experiment:
    return model.Experiment(
        tuple(f"t{i}" for i in range(len(kernel))),
        tuple(f"o{j}" for j in range(len(kernel[0]))),
        exactcore.Matrix.from_rows(kernel),
    )


def experiment_doc(kernel) -> dict:
    return {
        "parameters": [f"t{i}" for i in range(len(kernel))],
        "outcomes": [f"o{j}" for j in range(len(kernel[0]))],
        "kernel": [[str(x) for x in row] for row in kernel],
    }


def invertible_channel(rng: random.Random, m: int) -> list[list[Fraction]]:
    """2/3 I + 1/3 R for a random Markov R: Markov, and invertible because
    every eigenvalue of R has modulus at most 1."""
    r = random_kernel(rng, m, m)
    return [[Fraction(2, 3) * (i == j) + r[i][j] / 3 for j in range(m)] for i in range(m)]


class Workload:
    name: str
    round: tuple  # operation kinds of one round, in order
    rounds: int  # rounds in the input pool; the timed phase cycles over it
    min_ops: int  # timed operations at least, so the tail percentile is fixed
    tail: Fraction  # nearest-rank percentile with at least 10 operations beyond it
    warmup: tuple  # pool indices run untimed before the timed phase
    trace_ops: int  # operations in each pass of the traced run
    nominal_s = 0.002  # ``calibrate``'s time at the reference speed

    def __init__(self, root: Path) -> None:
        self.root = root

    def calibrate(self) -> float:
        """Wall time of a fixed piece of work like the operations', in seconds.

        On a shared host the same work can take twice as long from one
        second to the next. Calibration runs before the first and after
        every timed step, and a step's time is multiplied by ``nominal_s``
        over the mean calibration time on both sides of it: a slower
        program raises the reported figure, a slower machine mostly does
        not. Here the work is 2 ms of ``Fraction`` additions, which tracks
        the exact arithmetic the in-process operations do.
        """
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 500):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make(rng, kind) for _ in range(self.rounds) for kind in self.round]

    def make(self, rng: random.Random, kind):
        """One input of the given kind."""
        raise NotImplementedError

    def op(self, inst):
        """The timed operation on one input; returns what ``check`` reads."""
        raise NotImplementedError

    def check(self, inst, result) -> tuple[list[str], list]:
        """(errors, float-LP claims still to confirm)."""
        raise NotImplementedError

    def corruptions(self, pool, records) -> list:
        """(label, pool index, corrupted result) that ``check`` must reject."""
        raise NotImplementedError


class Dominance(Workload):
    """Garbled pair Y, Z = Y·M; all four orders both ways, then is_complete(Y)."""

    name = "dominance"
    round = ("pair",)
    rounds = 200
    min_ops = 100
    tail = Fraction(9, 10)
    warmup = (0, 1)
    trace_ops = 20

    def make(self, rng, kind):
        ky = random_kernel(rng, 4, 4)
        channel = random_kernel(rng, 4, 4)
        y = experiment(ky)
        z = model.garble(y, exactcore.Matrix.from_rows(channel))
        return {"ky": ky, "channel": channel, "y": y, "z": z}

    def op(self, inst):
        y, z = inst["y"], inst["z"]
        return {
            "forward": {r: getattr(orders, f"{r}_dominates")(y, z) for r in RELATIONS},
            "reverse": {r: getattr(orders, f"{r}_dominates")(z, y) for r in RELATIONS},
            "complete": model.is_complete(y),
        }

    def check(self, inst, result):
        return checker.check_dominance(inst, result)

    def corruptions(self, pool, records):
        index, result = records[0]
        forward = result["forward"]
        w = forward["blackwell"].witness
        bent = type(w)(w.rows, w.cols, (w.entries[0] + Fraction(1, 7),) + w.entries[1:])
        bent = dataclasses.replace(forward["blackwell"], witness=bent)
        flipped = type(forward["nonneg"])("nonneg", False, note="corrupted")
        return [
            ("witness", index, {**result, "forward": {**forward, "blackwell": bent}}),
            ("report", index, {**result, "forward": {**forward, "nonneg": flipped}}),
        ]


class ICGrid(Workload):
    """One ic_verify at d = 6 on 4 parameters and 3 outcomes (G = 84)."""

    name = "ic_grid"
    # 1 in 10 anti-proper, below the 20% beyond the p80 tail
    round = ("quadratic", "mean_score", "quadratic", "quadratic", "anti_proper",
             "quadratic", "mean_score", "quadratic", "quadratic", "mean_score")
    rounds = 10
    min_ops = 50
    tail = Fraction(4, 5)
    warmup = (0, 4)
    trace_ops = 10
    n, m, d = 4, 3, 6

    def make(self, rng, kind):
        kernel = random_kernel(rng, self.n, self.m)
        e = experiment(kernel)
        target = elicit.maximal_partition(e)
        if kind == "quadratic":
            mechanism = mechanisms.quadratic_mechanism(e)
        elif kind == "mean_score":
            weights = [Fraction(rng.randrange(-3, 4)) for _ in range(self.m)]
            statistic = checker.matvec(kernel, weights)
            mechanism = mechanisms.mean_mechanism(e, statistic, weights)
            target = elicit.StatisticFamily(e.parameters, (tuple(statistic),))
        else:  # 1 - quadratic payoff, tabulated over the grid: truth is worst
            beliefs = model.belief_grid(self.n, self.d)
            proper = mechanisms.quadratic_mechanism(e)
            rows = [[1 - x for x in proper.payoff_vector(p)] for p in beliefs]
            mechanism = mechanisms.TableMechanism(
                e, [str(i) for i in range(len(beliefs))], exactcore.Matrix.from_rows(rows), beliefs
            )
        return {"kind": kind, "n": self.n, "d": self.d, "kernel": kernel,
                "mechanism": mechanism, "target": target}

    def op(self, inst):
        return mechanisms.ic_verify(inst["mechanism"], inst["target"], inst["d"])

    def check(self, inst, result):
        return checker.check_ic(inst, result), []

    def corruptions(self, pool, records):
        anti = next((i, r) for i, r in records if pool[i]["kind"] == "anti_proper")
        proper = next((i, r) for i, r in records if pool[i]["kind"] != "anti_proper")
        violation = dataclasses.replace(anti[1].violation, gap=anti[1].violation.gap + 1)
        return [
            ("witness", anti[0], dataclasses.replace(anti[1], violation=violation)),
            ("report", proper[0], dataclasses.replace(proper[1], pairs_checked=proper[1].pairs_checked - 1)),
        ]


class ElicitQueries(Workload):
    """The "what can be elicited" bundle on one experiment of a fixed shape.

    6x4 materialises the 1,024-outcome power in complete_elicitation
    (n·m^(n-1) = 6,144 <= 20,000); 8x5 takes the determinant branch; 4x4 has
    full rank, so its mode and the whole belief are elicitable.
    """

    name = "elicit_queries"
    # 3/8 heavy 6x4: the p90 tail falls inside them, the median among the 8x5
    round = ((6, 4), (8, 5), (4, 4), (8, 5), (6, 4), (8, 5), (4, 4), (6, 4))
    rounds = 25
    min_ops = 100
    tail = Fraction(9, 10)
    warmup = tuple(range(8))
    trace_ops = 16

    def make(self, rng, shape):
        n, m = shape
        kernel = random_kernel(rng, n, m)
        while len({tuple(row) for row in kernel}) < n:  # keep it identified
            kernel = random_kernel(rng, n, m)
        e = experiment(kernel)
        channel = invertible_channel(rng, m)
        weights = [Fraction(rng.randrange(-3, 4)) for _ in range(m)]
        return {
            "kernel": kernel, "e": e, "channel": channel,
            "garbled": model.garble(e, exactcore.Matrix.from_rows(channel)),
            "ge": checker.matvec(kernel, weights),
            "gn": [Fraction(rng.randrange(7)) for _ in range(n)],
        }

    def op(self, inst):
        e, ge, gn, garbled = inst["e"], inst["ge"], inst["gn"], inst["garbled"]
        finest = elicit.maximal_partition(e)
        return {
            "elicitable": elicit.unbiased_weights(e, ge),
            "other": elicit.unbiased_weights(e, gn),
            "moment": elicit.moment_weights(e, 2, ge, 2),
            "complete": elicit.complete_elicitation(e),
            "mode": elicit.mode_elicitable(e, range(len(ge))),
            "coarser_elicitable": elicit.is_coarser(elicit.StatisticFamily(e.parameters, (tuple(ge),)), finest),
            "coarser_other": elicit.is_coarser(elicit.StatisticFamily(e.parameters, (tuple(gn),)), finest),
            "dominance": orders.elicitation_dominates(garbled, e),
            "garbling": orders.uniform_garbling_decomposition(garbled, e),
        }

    def check(self, inst, result):
        return checker.check_elicit(inst, result), []

    def corruptions(self, pool, records):
        index, result = records[0]
        weights = result["elicitable"].weights
        bent = dataclasses.replace(result["elicitable"], weights=(weights[0] + 1,) + weights[1:])
        flipped = dataclasses.replace(result["mode"], elicitable=not result["mode"].elicitable)
        return [("witness", index, {**result, "elicitable": bent}),
                ("report", index, {**result, "mode": flipped})]


class CLI(Workload):
    """One ``python -m elicitkit.cli`` subprocess on generated files.

    Compare inputs are 3x3 garbled pairs; verify runs d = 6 on 3 parameters.
    """

    name = "cli"
    # a third are demos (about 5x dearer); the p83 tail falls among the
    # german_tank demos, the dearest class, and the median among compare
    # and verify
    round = (("compare", "elicitation"), ("verify", "quadratic_panel"), ("demo", "german_tank"),
             ("compare", "blackwell"), ("compare", "nonneg"), ("demo", "bernoulli_orders"),
             ("verify", "mean_score"), ("compare", "bounded"), ("demo", "german_tank"),
             ("compare", "garbling"), ("verify", "quadratic_panel"), ("demo", "german_tank"))
    rounds = 5
    min_ops = 60
    tail = Fraction(5, 6)
    warmup = (0, 2)
    trace_ops = 12
    n, m, d = 3, 3, 6
    nominal_s = 0.065

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.env = child_env(root)

    def calibrate(self) -> float:
        """Wall time of a bare interpreter start (``python -c pass``).

        Arithmetic in this process does not track the children's start-up
        and import work; an interpreter start does.
        """
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=120)
        return time.perf_counter() - start

    def build(self, seed):
        self.files = self.root / ".bench_out" / f"cli-{seed}"
        self.files.mkdir(parents=True, exist_ok=True)
        self.count = 0
        return super().build(seed)

    def _write(self, stem: str, doc: dict) -> str:
        path = self.files / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path.relative_to(self.root))

    def make(self, rng, kind):
        command, what = kind
        self.count += 1
        inst = {"command": command, "label": f"{command} {what}"}
        if command == "demo":
            inst["argv"] = ["demo", what]
        elif command == "compare":
            ky = random_kernel(rng, self.n, self.m)
            kz = checker.matmul(ky, random_kernel(rng, self.m, self.m))
            inst.update(relation=what, ky=ky, kz=kz, argv=[
                "compare", what, self._write("y", experiment_doc(ky)), self._write("z", experiment_doc(kz))])
        else:
            kernel = random_kernel(rng, self.n, self.m)
            doc = {"kind": what, "experiment": experiment_doc(kernel)}
            inst.update(n=self.n, d=self.d, argv=["verify", "--denominator", str(self.d)])
            if what == "mean_score":
                weights = [Fraction(rng.randrange(-3, 4)) for _ in range(self.m)]
                statistic = checker.matvec(kernel, weights)
                doc.update(statistic=[str(x) for x in statistic], weights=[str(x) for x in weights])
                family = {"parameters": doc["experiment"]["parameters"],
                          "functions": {"g": doc["statistic"]}}
                inst["argv"] += ["--target", self._write("target", family)]
            inst["argv"].append(self._write("mechanism", doc))
        return inst

    def op(self, inst):
        proc = subprocess.run(
            [sys.executable, "-m", "elicitkit.cli", *inst["argv"]],
            env=self.env, cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{inst['label']} exited {proc.returncode}: {proc.stderr[-500:]}")
        return proc.stdout

    def check(self, inst, result):
        return checker.check_cli(inst, result), []

    def corruptions(self, pool, records):
        compare = next((i, r) for i, r in records if pool[i].get("relation") == "blackwell")
        demo = next((i, r) for i, r in records if pool[i]["command"] == "demo")
        doc = json.loads(compare[1])
        doc["witness"][0][0] = str(Fraction(doc["witness"][0][0]) + Fraction(1, 7))
        return [("witness", compare[0], json.dumps(doc)),
                ("report", demo[0], json.dumps({**json.loads(demo[1]), "passed": False}))]


WORKLOADS = {w.name: w for w in (Dominance, ICGrid, ElicitQueries, CLI)}
