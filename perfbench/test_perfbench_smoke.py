"""Smoke test of the benchmark harness on tiny inputs.

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both the untraced and the traced run of each workload, and that the trace
wrappers leave the outputs unchanged and come off again.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    named = _spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_trace_wrappers_leave_verdicts_unchanged():
    import riccstab
    from riccstab import riccati

    import workloads
    from tracing import Tracer

    originals = (riccstab.solve_diagonal, riccati.is_p_matrix, riccati.minimize)
    workload = workloads.Check(seed=5, small=True)
    workload.setup()
    plain = workload.run_pass()
    tracer = Tracer()
    with tracer:
        assert riccati.is_p_matrix is not originals[1]
        traced = workload.run_pass(tracer)
    assert traced.outputs == plain.outputs
    assert (riccstab.solve_diagonal, riccati.is_p_matrix, riccati.minimize) == originals
    names = {span[0] for span in tracer.spans}
    assert {"riccati.solve_diagonal", "riccati.search", "pmatrix.is_p_matrix"} <= names
    solves = [span for span in tracer.spans if span[0] == "riccati.solve_diagonal"]
    assert len(solves) == len(workload.items) and all(span[3] == -1 for span in solves)
