"""Benchmark of riccstab: seeded check / battery / simulate workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check --seed 0 --seconds 6 --trace 0

With --trace 0 the run measures whole passes over the workload's inputs
until --seconds have passed (at least one pass), then cold command-line
calls and set-up in fresh processes, and reports the end-to-end metrics.
With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics taken from the spans. The last line of standard output
is one JSON object {correct, attempted, failed, metrics}; the full report
(host facts, counts, digests, wrong answers) goes to
perfbench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json, and a
traced run also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
CHILD_SAMPLES = 3  # fresh processes per run for each of: cold CLI, set-up, import
CHILD_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_per_s": "1/s",
    "cli_p50_ms": "ms",
    "answered_share": "ratio",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env["PYTHONPATH"]]) if env.get("PYTHONPATH") else str(SRC)
    return env


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )


@contextlib.contextmanager
def _workdir(name: str):
    """A scratch directory for CLI problem files, removed afterwards."""
    path = WORK / f"{name}_{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _host() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _code_facts(riccstab) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "riccstab").rglob("*.py")))
    return {"src_lines": lines, "api_size": len(riccstab.__all__)}


def _cli_cold(job, wrong: list[str]) -> float:
    """One fresh-process `python -m riccstab.cli` call; returns its latency
    and records a wrong answer when the output is not the in-process one."""
    t0 = time.perf_counter()
    proc = _run_child(["-m", "riccstab.cli", *job.argv])
    latency = time.perf_counter() - t0
    if not _cli_output_ok(job, proc.returncode, proc.stdout):
        wrong.append(f"cli {job.argv[0]}: exit {proc.returncode}, output differs from the in-process result")
    return latency


def _cli_output_ok(job, code: int, stdout: str) -> bool:
    try:
        return code == 0 and json.loads(stdout) == job.expected
    except json.JSONDecodeError:
        return False


def _cli_in_process(jobs, wrong: list[str]) -> list[float]:
    from riccstab import cli

    latencies = []
    for job in jobs:
        buffer = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(job.argv))
        latencies.append(time.perf_counter() - t0)
        if not _cli_output_ok(job, code, buffer.getvalue()):
            wrong.append(f"in-process cli {job.argv[0]}: output differs from the library result")
    return latencies


def _import_ms(runs: int) -> float:
    """Median wall time of `import riccstab` in fresh processes."""
    code = "import time; t = time.perf_counter(); import riccstab; print(time.perf_counter() - t)"
    samples = []
    for _ in range(runs):
        proc = _run_child(["-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import riccstab failed in a fresh process: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) * 1e3)
    return statistics.median(samples)


def _setup_probe(args) -> float:
    """Import plus set-up in a fresh process; returns the seconds it reports."""
    proc = _run_child([str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _measure(workload, args, setup_s: float, report: dict) -> tuple[dict, int, int, bool]:
    """Whole passes until --seconds of pass time (at least one), with the
    fresh-process calls spread between them: after each pass one cold CLI
    call and one set-up probe, topped up at the end."""
    children = 1 if args.small else CHILD_SAMPLES
    passes = []
    wrong: list[str] = []
    cli_latencies: list[float] = []
    setup_samples = [setup_s]
    with _workdir(workload.name) as workdir:
        jobs = None
        while not passes or sum(p.wall for p in passes) < args.seconds:
            passes.append(workload.run_pass())
            jobs = jobs or workload.cli_jobs(workdir, passes[0])
            if len(cli_latencies) < children:
                cli_latencies.append(_cli_cold(jobs[len(cli_latencies) % len(jobs)], wrong))
            if len(setup_samples) < children:
                setup_samples.append(_setup_probe(args))
        while len(cli_latencies) < children:
            cli_latencies.append(_cli_cold(jobs[len(cli_latencies) % len(jobs)], wrong))
    while len(setup_samples) < children:
        setup_samples.append(_setup_probe(args))

    checked = workload.verify(passes)
    wrong += checked["wrong"]
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        wrong.append("outputs differ between passes of one run")
    # per call, the median over the run's passes
    latencies = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    wall = sum(p.wall for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall for p in passes),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": _quantile(latencies, 90) * 1e3,
        "throughput_per_s": sum(p.work for p in passes) / wall,
        "cli_p50_ms": statistics.median(cli_latencies) * 1e3,
        "answered_share": checked["answered"] / checked["answerable"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report.update(
        {
            "passes": len(passes),
            "pass_walls_s": [p.wall for p in passes],
            "latency_samples": len(latencies),
            "latency_unit": workload.unit,
            "cli_samples_ms": [t * 1e3 for t in cli_latencies],
            "setup_samples_s": setup_samples,
            "digest": digests[0],
            "checks": {k: v for k, v in checked.items() if k != "wrong"},
            "wrong_answers": wrong,
        }
    )
    if workload.name == "battery":
        report["battery_timings"] = passes[0].extra["timings"]
    attempted = checked["attempted"] * len(passes) + len(cli_latencies)
    failed = checked["failed"] * len(passes)
    return metrics, attempted, failed, not wrong


def _measure_traced(workload, args, report: dict) -> tuple[dict, int, int, bool]:
    import layers
    from tracing import Tracer, to_records

    children = 1 if args.small else CHILD_SAMPLES
    plain = workload.run_pass()
    tracer = Tracer()
    with tracer:
        traced = workload.run_pass(tracer)
    checked = workload.verify([plain])
    wrong = list(checked["wrong"])
    if traced.digest != plain.digest:
        wrong.append("the traced pass gave other outputs than the untraced pass")

    with _workdir(workload.name) as workdir:
        cli_ms = statistics.median(_cli_in_process(workload.cli_jobs(workdir, plain), wrong)) * 1e3

    metrics = layers.per_layer(
        tracer.spans,
        overhead=traced.wall / plain.wall - 1.0,
        suite_timings=plain.extra.get("timings", {}),
        cli={"import_ms": _import_ms(children), "in_process_ms": cli_ms},
    )
    spans_path = RESULTS / f"spans_{workload.name}_seed{args.seed}.json"
    with spans_path.open("w") as fh:
        json.dump(to_records(tracer.spans), fh, separators=(",", ":"))
    report.update(
        {
            "digest": plain.digest,
            "traced_digest": traced.digest,
            "untraced_wall_s": plain.wall,
            "traced_wall_s": traced.wall,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "checks": {k: v for k, v in checked.items() if k != "wrong"},
            "wrong_answers": wrong,
        }
    )
    return metrics, checked["attempted"] * 2, checked["failed"] * 2, not wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("check", "battery", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="only import and set up, print the seconds taken")
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "riccstab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'riccstab'}; run from a riccstab checkout", file=sys.stderr)
        return 2

    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import riccstab

    if Path(riccstab.__file__).resolve().parent != (SRC / "riccstab").resolve():
        print(f"perfbench: riccstab imported from {riccstab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    workload.setup()
    setup_s = time.perf_counter() - setup_start
    if args.setup_probe:
        print(setup_s)
        return 0

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report["host"] = _host()
    report.update(_code_facts(riccstab))
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import layers

        values, attempted, failed, correct = _measure_traced(workload, args, report)
        units = layers.UNITS
    else:
        values, attempted, failed, correct = _measure(workload, args, setup_s, report)
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    report["metrics"] = metrics
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"perfbench: report in {path.relative_to(ROOT)}; wrong answers: {len(report['wrong_answers'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
