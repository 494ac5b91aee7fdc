"""The three workloads: set-up, one measured pass, output checks.

A workload object builds its inputs in setup(), runs every input once per
run_pass() (one client, closed loop: each call starts when the previous one
returned), and judges the collected outputs in verify(), outside any timed
region. Calls go through module attributes (riccstab.solve_diagonal, ...)
so that the tracer's wrappers, when installed, see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import riccstab
from riccstab import acceptance
from riccstab.errors import SizeGuardError

import corpus

BATTERY_SEED = 0
# the battery's case counts at seed 0, by dotted path into report["criteria"]
BATTERY_CASES = {
    "positive_oracle.cases": 200,
    "three_by_three_oracle.chain.cases": 200,
    "three_by_three_oracle.fan_in.cases": 200,
    "signature_classes.rank_one_row.cases": 100,
    "signature_classes.tridiagonal.cases": 100,
    "signature_classes.last_row.cases": 100,
    "signature_classes.superdiagonal.cases": 100,
    "certificate_map.cases": 100,
    "hadamard_damping.cases": 100,
    "correlation_bound.cases": 50,
    "lyapunov_pmatrix.necessity_cases": 100,
    "lyapunov_pmatrix.invariance_cases": 200,
    "delay_decay.cases": 20,
}
# per criterion: report fields counting cases that did not get the expected answer
BATTERY_MISSES = {
    "positive_oracle": ("mismatches",),
    "three_by_three_oracle": ("chain.mismatches", "fan_in.mismatches"),
    "signature_classes": tuple(f"{g}.mismatches" for g in ("rank_one_row", "tridiagonal", "last_row", "superdiagonal")),
    "certificate_map": ("failures",),
    "hadamard_damping": ("unknown", "refuted"),
    "correlation_bound": ("failures",),
    "lyapunov_pmatrix": ("necessity_failures", "invariance_failures"),
    "delay_decay": ("failures",),
}
WITNESS_PSD_TOL = 1e-10
CHECK_CLI_KEYS = ("dense/feasible/n3", "dense/refuted/n4", "dense/scaled/n5")
SIM_CLI_SIZES = (2, 3, 4)
SIM_CLI_TAUS = (0.0, 1.0)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@dataclass
class Pass:
    """One pass over a workload's inputs: wall time, per-call latencies in
    seconds, and one JSON-ready output per call (in input order)."""

    wall: float
    latencies: list[float]
    outputs: list
    work: float  # solves, RK4 steps or battery cases completed
    extra: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest(self.outputs)


@dataclass(frozen=True)
class CliJob:
    """One command-line call that must exit 0: argv after `riccstab` and the
    stdout JSON it must print, as computed in-process."""

    argv: tuple[str, ...]
    expected: object


def _problem_file(workdir, name: str, pair) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"A": pair.a.tolist(), "B": pair.b.tolist()}))
    return str(path)


class Check:
    """solve_diagonal with default options over the seeded corpus."""

    name = "check"
    unit = "solve"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def setup(self) -> None:
        self.items = corpus.check_corpus(self.seed, self.small)

    def run_pass(self, tracer=None) -> Pass:
        clock = time.perf_counter
        latencies = []
        outputs = []
        solved = 0
        start = clock()
        for item in self.items:
            if tracer is not None:
                tracer.item = item.key
            t0 = clock()
            try:
                verdict = riccstab.solve_diagonal(item.pair)
            except SizeGuardError as exc:
                out = {"refused": type(exc).__name__, "message": str(exc)}
            except Exception as exc:  # recorded and counted as failed, the run goes on
                out = {"error": type(exc).__name__, "message": str(exc)}
            else:
                out = verdict.to_json()
                solved += 1
            latencies.append(clock() - t0)
            outputs.append([item.key, out])
        return Pass(clock() - start, latencies, outputs, float(solved))

    def verify(self, passes: list[Pass]) -> dict:
        """Wrong answers and verdict statistics of the first pass."""
        outputs = passes[0].outputs
        wrong = []
        statuses = {}
        counts: dict = {}
        for item, (_, out) in zip(self.items, outputs):
            status = out.get("status", "Refused" if "refused" in out else "Error")
            statuses[item.key] = status
            per_slice = counts.setdefault(item.slice, {})
            per_slice[status] = per_slice.get(status, 0) + 1
            if status == "Feasible" and not _certificate_valid(item.pair, out):
                wrong.append(f"{item.key}: certificate fails re-verification")
            elif status == "Refuted" and not _witness_valid(item.pair, out):
                wrong.append(f"{item.key}: witness fails re-validation")
            if item.expect is not None and status in ("Feasible", "Refuted") and status != item.expect:
                wrong.append(f"{item.key}: {status} contradicts the class oracle ({item.expect})")
        groups: dict = {}
        for item in self.items:
            if item.group is not None:
                groups.setdefault(item.group, []).append(item)
        breaks = []
        for group, members in groups.items():
            seen = {statuses[m.key] for m in members} & {"Feasible", "Refuted"}
            if len(seen) > 1:
                wrong.append(f"{group}: Feasible and Refuted among scaled or conjugated copies")
            base = statuses[members[0].key]
            breaks += [m.key for m in members[1:] if statuses[m.key] != base]
        attempted = len(outputs)
        unknown = sum(1 for s in statuses.values() if s == "Unknown")
        errors = sum(1 for s in statuses.values() if s in ("Refused", "Error"))
        return {
            "wrong": wrong,
            "attempted": attempted,
            "failed": sum(1 for s in statuses.values() if s == "Error"),
            "answered": sum(1 for s in statuses.values() if s in ("Feasible", "Refuted")),
            "answerable": attempted,
            "counts": counts,
            "unknown_share": unknown / attempted,
            "error_share": errors / attempted,
            "invariance_breaks": breaks,
        }

    def cli_jobs(self, workdir, first: Pass) -> list[CliJob]:
        by_key = dict(first.outputs)
        items = {item.key: item for item in self.items}
        keys = [k for k in CHECK_CLI_KEYS if k in items]
        return [
            CliJob(("check", _problem_file(workdir, key.replace("/", "_"), items[key].pair)), by_key[key])
            for key in keys
        ]


def _certificate_valid(pair, out: dict) -> bool:
    try:
        return riccstab.verify_certificate(pair, out["P"], out["Q"])[0]
    except riccstab.RiccstabError:  # the two forms disagree, or P, Q are not positive
        return False


def _witness_valid(pair, out: dict) -> bool:
    """Unit diagonal, PSD, and a failing minor of -(A o S11 + B o S12): by the
    P-matrix walk up to its size cap, by the reported subset beyond it."""
    s = np.array(out["witness_S"], dtype=float)
    n = pair.n
    if s.shape != (2 * n, 2 * n) or np.abs(np.diag(s) - 1.0).max() > 1e-12:
        return False
    if float(np.linalg.eigvalsh((s + s.T) / 2.0)[0]) < -WITNESS_PSD_TOL:
        return False
    image = -(pair.a * s[:n, :n] + pair.b * s[:n, n:])
    if n <= riccstab.pmatrix.MAX_P_SIZE:
        return not riccstab.is_p_matrix(image, band=0.0).is_p
    subset = out["failing_subset"]
    return bool(subset) and float(np.linalg.det(image[np.ix_(subset, subset)])) <= 0.0


class Simulate:
    """decay_check (simulate plus lk_functional) of certified pairs, one
    delay per call."""

    name = "simulate"
    unit = "decay_check"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def setup(self) -> None:
        self.pairs = corpus.sim_pairs(self.seed, self.small)
        self.certs = []
        for pair in self.pairs:
            verdict = riccstab.solve_diagonal(pair)
            if verdict.status != "Feasible":
                raise RuntimeError(f"no certificate for a simulate pair of size {pair.n}: {verdict.status}")
            self.certs.append(verdict.certificate)
        self.taus = (0.0, 1.0) if self.small else corpus.SIM_TAUS
        self.horizon_scale = 0.4 if self.small else 1.0

    def _horizon(self, tau: float) -> float:
        return max(tau, corpus.sim_horizon(tau) * self.horizon_scale)

    def steps(self, tau: float) -> int:
        """RK4 steps of one call; every delay here is a whole number of steps."""
        return max(1, math.ceil(self._horizon(tau) / corpus.SIM_STEP - 1e-9))

    def run_pass(self, tracer=None) -> Pass:
        clock = time.perf_counter
        latencies = []
        outputs = []
        steps = 0
        start = clock()
        for pair, cert in zip(self.pairs, self.certs):
            for tau in self.taus:
                if tracer is not None:
                    tracer.item = f"n{pair.n}/tau{tau:g}"
                t0 = clock()
                report = riccstab.decay_check(pair, cert, [tau], self._horizon(tau), corpus.SIM_STEP)[0]
                latencies.append(clock() - t0)
                outputs.append(report.to_json())
                steps += self.steps(tau)
        return Pass(clock() - start, latencies, outputs, float(steps))

    def verify(self, passes: list[Pass]) -> dict:
        outputs = passes[0].outputs
        wrong = [f"run {i}: certified pair did not decay ({out})" for i, out in enumerate(outputs) if not out["decayed"]]
        return {
            "wrong": wrong,
            "attempted": len(outputs),
            "failed": 0,
            "answered": sum(1 for out in outputs if out["decayed"]),
            "answerable": len(outputs),
        }

    def cli_jobs(self, workdir, first: Pass) -> list[CliJob]:
        jobs = []
        taus = ",".join(f"{t:g}" for t in SIM_CLI_TAUS)
        for pair, cert in zip(self.pairs, self.certs):
            if pair.n not in SIM_CLI_SIZES:
                continue
            reports = riccstab.decay_check(pair, cert, list(SIM_CLI_TAUS), 60.0, 0.02)
            expected = {"certificate_status": "Feasible", "reports": [r.to_json() for r in reports]}
            path = _problem_file(workdir, f"sim_n{pair.n}", pair)
            jobs.append(CliJob(("simulate", path, "--tau", taus), expected))
        return jobs


def _lookup(report: dict, dotted: str):
    value = report
    for part in dotted.split("."):
        value = value[part]
    return value


class Battery:
    """acceptance.run_all once, at the seed `riccstab selftest` and tier-1 use."""

    name = "battery"
    unit = "run_all"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def setup(self) -> None:
        self.cli_pair = corpus.structured_cli_pair(self.seed)

    def _run_all(self):
        if not self.small:
            return acceptance.run_all(BATTERY_SEED)
        # two cheap suites in run_all's report format, for the smoke test
        log = acceptance.WitnessLog()
        criteria = {
            "correlation_bound": acceptance.correlation_bound(BATTERY_SEED, cases=3),
            "three_by_three_oracle": acceptance.three_by_three_oracle(BATTERY_SEED, log, cases=2),
        }
        return {"seed": BATTERY_SEED, "criteria": criteria, "all_passed": True}, {k: 0.0 for k in criteria}

    def run_pass(self, tracer=None) -> Pass:
        if tracer is not None:
            tracer.item = f"run_all({BATTERY_SEED})"
        start = time.perf_counter()
        report, timings = self._run_all()
        wall = time.perf_counter() - start
        criteria = report["criteria"]
        cases = sum(_lookup(criteria, path) for path in BATTERY_CASES if path.split(".")[0] in criteria)
        return Pass(wall, [wall], [report], float(cases), {"timings": timings})

    def verify(self, passes: list[Pass]) -> dict:
        report = passes[0].outputs[0]
        criteria = report["criteria"]
        wrong = [f"{name}: criterion does not pass" for name, entry in criteria.items() if not entry["passed"]]
        if not report["all_passed"]:
            wrong.append("all_passed is false")
        if not self.small:
            for path, count in BATTERY_CASES.items():
                got = _lookup(criteria, path)
                if got != count:
                    wrong.append(f"{path} = {got}, the seed's battery has {count}")
        cases = passes[0].work
        missed = sum(_lookup(criteria[name], key) for name, keys in BATTERY_MISSES.items() if name in criteria for key in keys)
        return {
            "wrong": wrong,
            "attempted": len(criteria),
            "failed": sum(1 for entry in criteria.values() if not entry["passed"]),
            "answered": cases - missed,
            "answerable": cases,
            "witnesses_checked": criteria.get("witness_soundness", {}).get("witnesses_checked"),
        }

    def cli_jobs(self, workdir, first: Pass) -> list[CliJob]:
        expected = riccstab.evaluate_class(self.cli_pair).to_json()
        return [CliJob(("classify", _problem_file(workdir, "battery_chain", self.cli_pair)), expected)]


WORKLOADS = {cls.name: cls for cls in (Check, Battery, Simulate)}
