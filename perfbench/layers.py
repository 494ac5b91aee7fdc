"""Per-layer metrics from the spans of one traced pass.

The layers are riccstab's modules. For a function, calls counts its spans
and self_s sums their self time; .ms.<range> is the median span duration
over calls whose problem size falls in the range. A metric whose layer the
workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracing import INFO, NAME, SIZE, START, END, PARENT, LAYERS, self_times

SUITES = (
    "positive_oracle",
    "three_by_three_oracle",
    "signature_classes",
    "certificate_map",
    "hadamard_damping",
    "witness_soundness",
    "correlation_bound",
    "lyapunov_pmatrix",
    "delay_decay",
)
COUNTED = (
    "riccati.solve_diagonal",
    "riccati.search",
    "riccati.refute_by_sampling",
    "riccati.verify_certificate",
    "riccati.make_witness",
    "pmatrix.is_p_matrix",
    "matcore.sym_spectrum",
    "matcore.jacobi_eigh",
    "matcore.is_hurwitz",
    "classes.classify",
    "classes.evaluate_class",
    "classes.structured_condition",
    "classes.chain_feedback_condition",
    "classes.fan_in_feedback_condition",
    "transforms.dad_transform",
    "transforms.hadamard_congruence",
    "ddesim.simulate",
)
SIZE_RANGES = {
    "riccati.solve_diagonal": ((1, 6), (7, 11), (12, 14)),
    "pmatrix.is_p_matrix": ((12, 14),),
}

# name -> (unit, better)
SPEC: dict[str, tuple[str, str]] = {}
for _fn in COUNTED:
    SPEC[f"{_fn}.calls"] = ("count", "lower")
    SPEC[f"{_fn}.self_s"] = ("s", "lower")
    for _lo, _hi in SIZE_RANGES.get(_fn, ()):
        SPEC[f"{_fn}.ms.n{_lo}-{_hi}"] = ("ms", "lower")
SPEC.update(
    {
        "riccati.search_success_ratio": ("ratio", "higher"),
        "riccati.sampler_hit_ratio": ("ratio", "higher"),
        "riccati.samples_tried": ("count", "lower"),
        "riccati.margin_rel_p50": ("ratio", "higher"),
        "ddesim.simulate.steps": ("count", "higher"),
        "ddesim.simulate.steps_per_s.tau0": ("1/s", "higher"),
        "ddesim.simulate.steps_per_s.delayed": ("1/s", "higher"),
        "ddesim.lk_functional.self_s": ("s", "lower"),
    }
)
for _suite in SUITES:
    SPEC[f"acceptance.{_suite}.s"] = ("s", "lower")
for _layer in LAYERS:
    SPEC[f"{_layer}.self_s"] = ("s", "lower")
SPEC.update(
    {
        "cli.import_ms": ("ms", "lower"),
        "cli.in_process_ms": ("ms", "lower"),
        "trace_overhead_share": ("ratio", "lower"),
    }
)
UNITS = {name: unit for name, (unit, _) in SPEC.items()}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(spans: list[list], overhead: float, suite_timings: dict, cli: dict) -> dict:
    """Every per-layer metric, keyed as in UNITS."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in UNITS}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
        out[f"{span[NAME].split('.')[0]}.self_s"] += selfs[i]
    for fn in COUNTED:
        idx = by_name.get(fn, [])
        out[f"{fn}.calls"] = float(len(idx))
        out[f"{fn}.self_s"] = sum(selfs[i] for i in idx)
        for lo, hi in SIZE_RANGES.get(fn, ()):
            durations = [(spans[i][END] - spans[i][START]) * 1e3 for i in idx if lo <= (spans[i][SIZE] or 0) <= hi]
            out[f"{fn}.ms.n{lo}-{hi}"] = _median(durations)

    solves = by_name.get("riccati.solve_diagonal", [])
    searched = {spans[i][PARENT] for i in by_name.get("riccati.search", [])}
    reached = [i for i in solves if i in searched]
    if reached:
        out["riccati.search_success_ratio"] = sum(spans[i][INFO][0] == "Feasible" for i in reached) / len(reached)
    sampler = by_name.get("riccati.refute_by_sampling", [])
    if sampler:
        out["riccati.sampler_hit_ratio"] = sum(bool(spans[i][INFO]) for i in sampler) / len(sampler)
    out["riccati.samples_tried"] = float(sum(spans[i][INFO][1] for i in solves if spans[i][INFO]))
    out["riccati.margin_rel_p50"] = _median(
        spans[i][INFO][2] for i in solves if spans[i][INFO] and spans[i][INFO][2] is not None
    )

    sims = [spans[i] for i in by_name.get("ddesim.simulate", [])]
    out["ddesim.simulate.steps"] = float(sum(s[INFO][0] for s in sims if s[INFO]))
    for key, delayed in (("tau0", False), ("delayed", True)):
        group = [s for s in sims if s[INFO] and (s[INFO][1] > 0.0) == delayed]
        seconds = sum(s[END] - s[START] for s in group)
        out[f"ddesim.simulate.steps_per_s.{key}"] = sum(s[INFO][0] for s in group) / seconds if seconds > 0 else 0.0
    out["ddesim.lk_functional.self_s"] = sum(selfs[i] for i in by_name.get("ddesim.lk_functional", []))

    for suite in SUITES:
        out[f"acceptance.{suite}.s"] = float(suite_timings.get(suite, 0.0))
    out["cli.import_ms"] = cli["import_ms"]
    out["cli.in_process_ms"] = cli["in_process_ms"]
    out["trace_overhead_share"] = overhead
    return out
