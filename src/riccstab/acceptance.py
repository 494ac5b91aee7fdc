"""Self-test battery: randomized cross-validation of every component.

Each suite generates seeded random instances, runs two independent routes to
the same answer (closed form vs numeric solver, formula vs brute-force grid,
certificate vs simulation), and reports mismatches. Reports contain no wall
times or other nondeterministic fields, so two runs with the same seed
produce byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .classes import (
    Stability,
    correlation_form_bound,
    correlation_form_bound_oracle,
    evaluate_class,
    feedback_condition,
)
from .ddesim import decay_check, simulate
from .errors import ContractError
from .matcore import BlockSymmetric
from .pmatrix import dpd_conjugate, is_p_matrix
from .riccati import MatrixPair, Verdict, make_witness, solve_diagonal
from .transforms import ScalingPair, dad_transform, hadamard_congruence

MARGIN_FILTER = 0.05
DECAY_TAUS = (0.0, 0.1, 1.0, 5.0, 25.0)
DECAY_STEP = 0.02


def _pair_key(pair: MatrixPair) -> str:
    digest = hashlib.sha256()
    digest.update(str(pair.n).encode())
    digest.update(pair.a.tobytes())
    digest.update(pair.b.tobytes())
    return digest.hexdigest()[:16]


@dataclass
class WitnessLog:
    """Cross-suite record of verdicts and witness validity.

    Tracks, per distinct pair, which definitive statuses were ever reported,
    and re-validates every refutation witness through riccati.make_witness
    (unit diagonal, positive semidefinite within WITNESS_PSD_TOL, and a
    strictly failing principal minor of the image matrix).
    """

    statuses: dict = field(default_factory=dict)
    witnesses_checked: int = 0
    invalid_witnesses: int = 0

    def record(self, pair: MatrixPair, verdict: Verdict) -> None:
        key = _pair_key(pair)
        if verdict.status in (Verdict.FEASIBLE, Verdict.REFUTED):
            self.statuses.setdefault(key, set()).add(verdict.status)
        if verdict.witness is not None:
            self.witnesses_checked += 1
            if make_witness(pair, verdict.witness.s) is None:
                self.invalid_witnesses += 1

    def conflicts(self) -> int:
        return sum(1 for v in self.statuses.values() if len(v) > 1)


def _metzler_pair(rng, n: int) -> MatrixPair:
    """Metzler A with nonnegative B, entries in [-3, 3], coupling strength
    drawn per instance so both verdicts occur."""
    diag = rng.uniform(-3.0, 0.0, n)
    coupling = rng.uniform(0.0, 3.0)
    a = rng.uniform(0.0, min(3.0, coupling / max(1, n - 1)), (n, n))
    np.fill_diagonal(a, diag)
    b = rng.uniform(0.0, min(3.0, coupling / (2 * n)), (n, n))
    return MatrixPair(a, b)


def _signature_conjugate(rng, pair: MatrixPair) -> MatrixPair:
    d = rng.choice([-1.0, 1.0], pair.n)
    e = rng.choice([-1.0, 1.0], pair.n)
    return MatrixPair(pair.a * np.outer(d, d), pair.b * np.outer(d, e))


def _strong_feasible_pair(rng, n: int, disguise: bool = True) -> MatrixPair:
    """Pair with a comfortable stability margin by construction: strictly
    dominant negative diagonal, small couplings, optionally conjugated by
    random signatures so the solver sees mixed signs."""
    diag = rng.uniform(-2.5, -1.2, n)
    a = rng.uniform(0.0, 0.3 / max(1, n - 1), (n, n))
    np.fill_diagonal(a, diag)
    b = rng.uniform(0.0, 0.2 / n, (n, n))
    pair = MatrixPair(a, b)
    return _signature_conjugate(rng, pair) if disguise else pair


def _oracle_counts(rng, log: WitnessLog, cases: int, generator, condition) -> dict:
    """Cross-check the solver against a closed-form class verdict.

    Draws pairs until `cases` of them clear MARGIN_FILTER on every condition
    value, solves each, records it in the log, and counts the oracle's
    Stable verdicts, the solver's statuses and the mismatches (Stable
    solved other than Feasible, unstable other than Refuted).
    """
    counts = {"cases": cases, "stable": 0, "feasible": 0, "refuted": 0, "mismatches": 0}
    kept = 0
    while kept < cases:
        pair = generator(rng)
        verdict = condition(pair)
        if np.abs(np.array(list(verdict.condition_values.values()))).min() < MARGIN_FILTER:
            continue
        kept += 1
        stable = verdict.stable is Stability.STABLE
        solved = solve_diagonal(pair)
        log.record(pair, solved)
        counts["stable"] += stable
        counts["feasible"] += solved.status == Verdict.FEASIBLE
        counts["refuted"] += solved.status == Verdict.REFUTED
        counts["mismatches"] += solved.status != (Verdict.FEASIBLE if stable else Verdict.REFUTED)
    return counts


def _class_oracles(rng, log: WitnessLog, cases: int, generators, condition) -> dict:
    """_oracle_counts of condition per (name, generator), in order, on one stream."""
    results = {}
    for name, generator in generators:
        counts = _oracle_counts(rng, log, cases, generator, condition)
        results[name] = {key: counts[key] for key in ("cases", "stable", "mismatches")}
    results["passed"] = all(entry["mismatches"] == 0 for entry in results.values())
    return results


def positive_oracle(seed: int, log: WitnessLog, cases: int = 200) -> dict:
    """Metzler/nonnegative pairs: solver verdict against the Hurwitz test on
    A + B (evaluate_class), boundary instances discarded."""
    metzler = lambda rng: _metzler_pair(rng, int(rng.integers(2, 6)))
    entry = _oracle_counts(np.random.default_rng([seed, 1]), log, cases, metzler, evaluate_class)
    del entry["stable"]
    entry["passed"] = entry["mismatches"] == 0
    return entry


def _feedback_instance(rng, row: int) -> MatrixPair:
    """A 3x3 feedback pair: diagonal A coupled at a[row, 0] and a[2, 1], and
    B feeding state 2 back into states 0 and 1 (row 1: chain, row 2: fan-in)."""
    amat = np.diag(rng.uniform(-3.0, 0.5, 3))
    amat[row, 0], amat[2, 1] = rng.uniform(-3.0, 3.0, 2)
    bmat = np.zeros((3, 3))
    bmat[:2, 2] = rng.uniform(-3.0, 3.0, 2)
    return MatrixPair(amat, bmat)


def _chain_instance(rng) -> MatrixPair:
    return _feedback_instance(rng, 1)


def _fan_in_instance(rng) -> MatrixPair:
    return _feedback_instance(rng, 2)


def three_by_three_oracle(seed: int, log: WitnessLog, cases: int = 200) -> dict:
    """Both 3x3 feedback classes: closed-form verdict against the solver,
    instances within the margin band of any condition discarded."""
    generators = (("chain", _chain_instance), ("fan_in", _fan_in_instance))
    return _class_oracles(np.random.default_rng([seed, 2]), log, cases, generators, feedback_condition)


def _rank_one_row_instance(rng) -> MatrixPair:
    n = int(rng.integers(2, 6))
    diag = rng.uniform(-3.0, -0.3, n)
    a = rng.uniform(0.0, rng.uniform(0.0, 2.0) / max(1, n - 1), (n, n))
    np.fill_diagonal(a, diag)
    b = np.zeros((n, n))
    k = int(rng.integers(n))
    row = rng.uniform(-2.0, 2.0, n)
    if np.all(row >= 0.0):
        row[int(rng.integers(n))] *= -1.0
    b[k] = row
    return MatrixPair(a, b)


def _tridiag_a(rng, n: int) -> np.ndarray:
    diag = rng.uniform(-3.0, -0.3, n)
    a = np.diag(diag)
    for i in range(n - 1):
        sgn = -1.0 if i == 0 else float(rng.choice([-1.0, 1.0]))
        low = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.1, 1.5))
        up = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.1, 1.5))
        if i == 0 and low == 0.0 and up == 0.0:
            low = float(rng.uniform(0.1, 1.5))
        a[i + 1, i] = sgn * low
        a[i, i + 1] = sgn * up
    return a


def _tridiag_instance(rng) -> MatrixPair:
    n = int(rng.integers(2, 6))
    a = _tridiag_a(rng, n)
    b = np.zeros((n, n))
    b[int(rng.integers(n))] = rng.uniform(-1.5, 1.5, n)
    return MatrixPair(a, b)


def _last_row_a(rng, n: int) -> np.ndarray:
    diag = rng.uniform(-3.0, -0.3, n)
    a = np.diag(diag)
    c = rng.uniform(-2.0, 2.0, n - 1)
    c[0] = -abs(c[0]) - 0.1
    a[n - 1, : n - 1] = c
    return a


def _last_row_instance(rng) -> MatrixPair:
    n = int(rng.integers(3, 6))
    a = _last_row_a(rng, n)
    c = a[n - 1, : n - 1]
    gamma = float(rng.choice([-1.0, 1.0]))
    b = np.zeros(n)
    for i in range(n - 1):
        if rng.uniform() < 0.7:
            mag = float(rng.uniform(0.1, 1.5))
            sgn = gamma * (1.0 if c[i] >= 0.0 else -1.0) if c[i] != 0.0 else float(rng.choice([-1.0, 1.0]))
            b[i] = sgn * mag
    if rng.uniform() < 0.7:
        b[n - 1] = gamma * float(rng.uniform(0.1, 1.5))
    bmat = np.zeros((n, n))
    bmat[:, int(rng.integers(n))] = b
    return MatrixPair(a, bmat)


def _superdiag_instance(rng) -> MatrixPair:
    n = int(rng.integers(3, 6))
    family = int(rng.integers(3))
    if family == 0:
        diag = rng.uniform(-3.0, -0.3, n)
        a = rng.uniform(0.0, 0.8 / (n - 1), (n, n))
        np.fill_diagonal(a, diag)
    elif family == 1:
        a = _tridiag_a(rng, n)
    else:
        a = _last_row_a(rng, n)
    b = np.zeros((n, n))
    for i in range(n - 1):
        if rng.uniform() < 0.8:
            b[i, i + 1] = float(rng.uniform(-1.5, 1.5))
    if family == 0 and np.all(b >= 0.0):
        b[0, 1] = -abs(b[0, 1]) - 0.1
    return MatrixPair(a, b)


def signature_classes(seed: int, log: WitnessLog, cases: int = 100) -> dict:
    """Signature-reducible classes: closed-form Hurwitz reduction against the
    solver, per class, with the boundary margin filter on the reduced matrix."""
    generators = (
        ("rank_one_row", _rank_one_row_instance),
        ("tridiagonal", _tridiag_instance),
        ("last_row", _last_row_instance),
        ("superdiagonal", _superdiag_instance),
    )
    return _class_oracles(np.random.default_rng([seed, 3]), log, cases, generators, evaluate_class)


def certificate_map(seed: int, cases: int = 100) -> dict:
    """Scaling map soundness: certificates pushed through (DAD, DBE) scalings
    must re-verify with positive margin."""
    rng = np.random.default_rng([seed, 4])
    failures = 0
    solved_feasible = 0
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        pair = _strong_feasible_pair(rng, n)
        verdict = solve_diagonal(pair)
        if verdict.status != Verdict.FEASIBLE:
            failures += 1
            continue
        solved_feasible += 1
        d = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        e = rng.choice([-1.0, 1.0], n) * np.abs(d) * rng.uniform(0.1, 1.0, n)
        scaled, map_cert = dad_transform(pair, ScalingPair(d, e))
        mapped = map_cert(verdict.certificate)
        if not mapped.margin > 0.0:
            failures += 1
    return {
        "cases": cases,
        "solved_feasible": solved_feasible,
        "failures": failures,
        "passed": failures == 0,
    }


def _unit_correlation(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((2 * n, 2 * n))
    s = g.T @ g
    scale = np.sqrt(np.diag(s))
    s = s / np.outer(scale, scale)
    np.fill_diagonal(s, 1.0)
    return (s + s.T) / 2.0


def hadamard_damping(seed: int, log: WitnessLog, cases: int = 100) -> dict:
    """Entrywise damping by a unit-diagonal PSD matrix preserves feasibility;
    the solver must re-certify the damped pair (a small Unknown budget is
    tolerated, refutations are not)."""
    rng = np.random.default_rng([seed, 5])
    feasible = 0
    unknown = 0
    refuted = 0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        pair = _strong_feasible_pair(rng, n, disguise=False)
        s = BlockSymmetric(_unit_correlation(rng, n))
        damped = hadamard_congruence(pair, s)
        verdict = solve_diagonal(damped)
        log.record(damped, verdict)
        if verdict.status == Verdict.FEASIBLE:
            feasible += 1
        elif verdict.status == Verdict.UNKNOWN:
            unknown += 1
        else:
            refuted += 1
    return {
        "cases": cases,
        "feasible": feasible,
        "unknown": unknown,
        "refuted": refuted,
        "passed": refuted == 0 and unknown <= cases // 20,
    }


def witness_soundness(log: WitnessLog) -> dict:
    """Every refutation witness re-validates, and no pair was ever reported
    both Feasible and Refuted anywhere in the battery."""
    conflicts = log.conflicts()
    return {
        "witnesses_checked": log.witnesses_checked,
        "invalid_witnesses": log.invalid_witnesses,
        "status_conflicts": conflicts,
        "passed": log.invalid_witnesses == 0 and conflicts == 0 and log.witnesses_checked > 0,
    }


def correlation_bound(seed: int, cases: int = 50) -> dict:
    """Closed-form extremal value against the brute-force grid.

    The oracle sweeps its 201^3 grid once per grid size and reduces it to the
    smallest and largest feasible y*z per grid value x, which is exact
    because its computed |c*x + d*y*z| is monotone in y*z; each case then
    costs O(201).
    """
    rng = np.random.default_rng([seed, 7])
    failures = 0
    for _ in range(cases):
        c = 0.0
        d = 0.0
        while abs(c) < 0.1:
            c = float(rng.uniform(-3.0, 3.0))
        while abs(d) < 0.1:
            d = float(rng.uniform(-3.0, 3.0))
        bound = correlation_form_bound(c, d)
        grid = correlation_form_bound_oracle(c, d, 0.01)
        if not (bound - MARGIN_FILTER <= grid <= bound + 1e-9):
            failures += 1
    return {"cases": cases, "failures": failures, "passed": failures == 0}


def lyapunov_pmatrix(seed: int, cases_feasible: int = 100, cases_conjugate: int = 200) -> dict:
    """Feasibility with B = 0 forces -A to be a P-matrix, and the P-property
    is invariant under two-sided positive diagonal scaling."""
    rng = np.random.default_rng([seed, 8])
    failures_necessity = 0
    solved_feasible = 0
    for _ in range(cases_feasible):
        n = int(rng.integers(2, 6))
        diag = rng.uniform(-3.0, -1.0, n)
        a = rng.uniform(0.0, 0.5 / (n - 1), (n, n))
        np.fill_diagonal(a, diag)
        d = rng.choice([-1.0, 1.0], n)
        a = a * np.outer(d, d)
        pair = MatrixPair(a, np.zeros((n, n)))
        verdict = solve_diagonal(pair)
        if verdict.status != Verdict.FEASIBLE:
            failures_necessity += 1
            continue
        solved_feasible += 1
        if not is_p_matrix(-a).is_p:
            failures_necessity += 1

    failures_invariance = 0
    for _ in range(cases_conjugate):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n)) * 1.5
        d = rng.uniform(0.2, 3.0, n)
        if is_p_matrix(m).is_p != is_p_matrix(dpd_conjugate(m, d)).is_p:
            failures_invariance += 1
    return {
        "necessity_cases": cases_feasible,
        "solved_feasible": solved_feasible,
        "necessity_failures": failures_necessity,
        "invariance_cases": cases_conjugate,
        "invariance_failures": failures_invariance,
        "passed": failures_necessity == 0 and failures_invariance == 0,
    }


def delay_decay(seed: int, cases: int = 20) -> dict:
    """One certificate covers every delay: simulate each certified pair over
    a spread of delays, requiring state decay and a nonincreasing functional,
    and check the zero-delay run against the undelayed reduced system."""
    rng = np.random.default_rng([seed, 9])
    failures = 0
    solved_feasible = 0
    worst_step_diff = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        diag = rng.uniform(-2.2, -1.5, n)
        a = rng.uniform(0.0, 0.2 / max(1, n - 1), (n, n))
        np.fill_diagonal(a, diag)
        b = rng.uniform(0.0, 0.25 / n, (n, n))
        pair = _signature_conjugate(rng, MatrixPair(a, b))
        verdict = solve_diagonal(pair)
        if verdict.status != Verdict.FEASIBLE:
            failures += 1
            continue
        solved_feasible += 1
        horizons = [max(60.0, 5.0 * tau + 40.0) for tau in DECAY_TAUS]
        reports = decay_check(pair, verdict.certificate, DECAY_TAUS, horizons, DECAY_STEP)
        ok = all(report.decayed for report in reports)
        phi = np.ones(pair.n)
        delayed = simulate(pair, 0.0, phi, 20.0, DECAY_STEP)
        reduced = simulate(MatrixPair(pair.a + pair.b, np.zeros((pair.n, pair.n))), 0.0, phi, 20.0, DECAY_STEP)
        step_diff = float(np.abs(delayed.xs - reduced.xs).max())
        worst_step_diff = max(worst_step_diff, step_diff)
        if step_diff > 1e-8:
            ok = False
        if not ok:
            failures += 1
    return {
        "cases": cases,
        "solved_feasible": solved_feasible,
        "failures": failures,
        "worst_zero_delay_diff": worst_step_diff,
        "passed": failures == 0,
    }


def run_all(seed: int = 0) -> tuple[dict, dict]:
    """Run the nine randomized suites once.

    Returns (report, timings); the report is deterministic for a fixed seed,
    timings are wall-clock seconds kept out of the report on purpose.
    A negative seed is refused with a ContractError that names it.
    """
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    log = WitnessLog()
    criteria = {}
    timings = {}

    def run(name, fn, *args):
        start = time.perf_counter()
        criteria[name] = fn(*args)
        timings[name] = time.perf_counter() - start

    run("positive_oracle", positive_oracle, seed, log)
    run("three_by_three_oracle", three_by_three_oracle, seed, log)
    run("signature_classes", signature_classes, seed, log)
    run("certificate_map", certificate_map, seed)
    run("hadamard_damping", hadamard_damping, seed, log)
    run("witness_soundness", witness_soundness, log)
    run("correlation_bound", correlation_bound, seed)
    run("lyapunov_pmatrix", lyapunov_pmatrix, seed)
    run("delay_decay", delay_decay, seed)

    report = {
        "seed": seed,
        "criteria": criteria,
        "all_passed": all(entry["passed"] for entry in criteria.values()),
    }
    timings["total"] = sum(timings.values())
    return report, timings


@dataclass(frozen=True)
class SelftestResult:
    report: dict
    timings: dict
    first_json: str
    second_json: str


def selftest(seed: int = 0) -> SelftestResult:
    """Run the battery twice with the same seed; the combined report gains a
    determinism entry comparing the two runs byte for byte."""
    first_report, first_timings = run_all(seed)
    second_report, second_timings = run_all(seed)
    first_json = json.dumps(first_report, sort_keys=True)
    second_json = json.dumps(second_report, sort_keys=True)
    deterministic = first_json == second_json
    report = dict(first_report)
    report["criteria"] = dict(first_report["criteria"])
    report["criteria"]["determinism"] = {"identical_reports": deterministic, "passed": deterministic}
    report["all_passed"] = bool(report["all_passed"] and deterministic)
    timings = {
        "first_run": first_timings,
        "second_run": second_timings,
    }
    return SelftestResult(report, timings, first_json, second_json)
