"""The per-layer metrics: which elicitkit functions are traced, and how.

Layers are the package's modules. ``catalog`` is left out: the benchmark
makes its own inputs, so no workload runs it. The traced functions are
rebound in every elicitkit module that imported them, so calls made inside
the package (``orders`` calling ``lp_feasible``, ``ic_verify`` calling
``belief_grid``) are seen too.
"""

from __future__ import annotations

import sys

from spans import Tracer

TRACED = {
    "exactcore": ("lp_feasible", "solve_linear", "null_space_basis", "rank", "determinant"),
    "model": ("belief_grid", "mean_outcome_distribution", "is_complete", "power", "garble"),
    "elicit": (
        "unbiased_weights",
        "moment_weights",
        "complete_elicitation",
        "mode_elicitable",
        "is_coarser",
    ),
    "mechanisms": ("ic_verify",),
    "orders": (
        "blackwell_dominates",
        "nonneg_dominates",
        "bounded_dominates",
        "elicitation_dominates",
        "uniform_garbling_decomposition",
    ),
}


def _metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    spans = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    spans.insert(len(TRACED["exactcore"]), "exactcore.Matrix.matmul")
    spans.insert(spans.index("mechanisms.ic_verify") + 1, "mechanisms.payoff_vector")
    for span in spans:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_ms", "ms", "lower"))
        if span.startswith("orders."):
            out.append((f"{span}.holds", "count", "higher"))
    out += [
        ("exactcore.lp_feasible.rows_max", "count", "lower"),
        ("exactcore.lp_feasible.cols_max", "count", "lower"),
        ("exactcore.lp_feasible.bounded_vars", "count", "lower"),
        ("model.belief_grid.beliefs", "count", "lower"),
        ("model.power.outcomes", "count", "lower"),
        ("mechanisms.ic_verify.pairs", "count", "lower"),
        ("mechanisms.ic_verify.not_ic", "count", "lower"),
        ("orders.bounded_dominates.lp_calls", "count", "lower"),
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.demos_import_ms", "ms", "lower"),
        ("cli.compare.p50_ms", "ms", "lower"),
        ("cli.verify.p50_ms", "ms", "lower"),
        ("cli.demo.p50_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


METRICS = _metrics()


def _lp_hook(tracer, args, kwargs, result) -> None:
    equalities = args[0]
    lower = kwargs.get("lower", args[2] if len(args) > 2 else None)
    upper = kwargs.get("upper", args[3] if len(args) > 3 else None)
    counts = tracer.counts
    counts["exactcore.lp_feasible.rows_max"] = max(
        counts["exactcore.lp_feasible.rows_max"], equalities.rows
    )
    counts["exactcore.lp_feasible.cols_max"] = max(
        counts["exactcore.lp_feasible.cols_max"], equalities.cols
    )
    if lower is not None and upper is not None:
        counts["exactcore.lp_feasible.bounded_vars"] += sum(
            lo is not None and up is not None for lo, up in zip(lower, upper)
        )
    if tracer.active("orders.bounded_dominates"):
        counts["orders.bounded_dominates.lp_calls"] += 1


def _counter(name, value):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += value(result)

    return hook


def _ic_hook(tracer, args, kwargs, result) -> None:
    tracer.counts["mechanisms.ic_verify.pairs"] += result.pairs_checked
    tracer.counts["mechanisms.ic_verify.not_ic"] += not result.incentive_compatible


HOOKS = {
    "exactcore.lp_feasible": _lp_hook,
    "model.belief_grid": _counter("model.belief_grid.beliefs", len),
    "model.power": _counter("model.power.outcomes", lambda e: len(e.outcomes)),
    "mechanisms.ic_verify": _ic_hook,
    **{
        f"orders.{fn}": _counter(f"orders.{fn}.holds", lambda r: getattr(r, "holds", True))
        for fn in TRACED["orders"]
    },
}


def install() -> Tracer:
    """Trace every layer function listed above; undo with ``uninstall``."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "elicitkit"]
    tracer = Tracer()
    for layer, fns in TRACED.items():
        origin = sys.modules[f"elicitkit.{layer}"]
        for fn in fns:
            name = f"{layer}.{fn}"
            tracer.rebind(package, fn, getattr(origin, fn), name, HOOKS.get(name))
    matrix = sys.modules["elicitkit.exactcore"].Matrix
    tracer.rebind([matrix], "__matmul__", matrix.__matmul__, "exactcore.Matrix.matmul")
    for holder in vars(sys.modules["elicitkit.mechanisms"]).values():
        if isinstance(holder, type) and "payoff_vector" in vars(holder):
            tracer.rebind(
                [holder], "payoff_vector", vars(holder)["payoff_vector"], "mechanisms.payoff_vector"
            )
    return tracer


def layer_values(tracer: Tracer, extra: dict, speed: float) -> dict:
    """Every per-layer metric; layers the workload never reached read 0.

    Self times are multiplied by ``speed``, the traced pass's calibrated
    time over its wall time.
    """
    values = {}
    for name, unit, _ in METRICS:
        if name in extra:
            value = extra[name]
        elif name.endswith(".self_ms"):
            value = tracer.self_s.get(name[: -len(".self_ms")], 0.0) * 1e3 * speed
        else:
            value = tracer.counts.get(name, 0)
        values[name] = {"value": value, "unit": unit}
    return values
