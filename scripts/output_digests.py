"""Print one `name sha256` line per deterministic output surface of riccstab.

Two checkouts that print the same lines give the same outputs on:

- run_all/<s>: the `acceptance.run_all(s)` report JSON, s = 0..3;
- selftest/0: the stdout of `riccstab selftest --seed 0`;
- check_corpus/<s>: `solve_diagonal(pair).to_json()` (or the error type and
  text) over the perfbench `check` corpus at seeds 0, 3 and 101;
- generic: the same over the generic family, 100 pairs per n = 1..8 drawn
  as `tests/test_transforms.py::generic_pairs` draws them (seed 12345);
- classes: `classify(pair).to_json()` and the `evaluate_class(pair)` JSON or
  error over 24,000 seeded pairs, the battery's seven structured generators
  (every third copy signature-conjugated) alternating with sparse random
  pairs at n = 1..6 that carry -0.0 entries;
- cli: exit code and stdout of in-process `cli.main` for check, classify,
  refute, transform and simulate on the literal pairs of tests/test_cli.py,
  each with no flag, `--tol 1e-6` and `--max-iter 0`, and for simulate also
  `--tau 0,1 --horizon 20` in json and in csv (refused: two delays) and
  `--tau 1 --horizon 20` in csv. Every file carries a transform entry.

Usage, from anywhere:

    python scripts/output_digests.py [CHECKOUT]

CHECKOUT is the root of the riccstab tree to digest (default: the one that
holds this script), so a parent and a change compare on one host with

    diff <(python scripts/output_digests.py) <(python scripts/output_digests.py ../parent)

Takes about half a minute on a 2-core x86 host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import corpus  # noqa: E402
from riccstab import MatrixPair, acceptance, classify, cli, evaluate_class, solve_diagonal  # noqa: E402
from riccstab.errors import RiccstabError  # noqa: E402

CORPUS_SEEDS = (0, 3, 101)
CLASS_PAIRS = 24_000
STRUCTURED = (
    lambda rng: acceptance._metzler_pair(rng, int(rng.integers(2, 6))),
    acceptance._chain_instance,
    acceptance._fan_in_instance,
    acceptance._rank_one_row_instance,
    acceptance._tridiag_instance,
    acceptance._last_row_instance,
    acceptance._superdiag_instance,
)


# the literal pairs of tests/test_cli.py whose outputs the parent commit can produce
CLI_PAIRS = {
    "feasible": ([[-2.0]], [[1.0]]),
    "refuted": ([[-1.0]], [[2.0]]),
    "boundary": ([[-1.0]], [[1.0 - 1e-9]]),
    "chain": ([[-1.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 1.5, -1.0]], [[0.0, 0.0, 0.1], [0.0, 0.0, -0.1], [0.0, 0.0, 0.0]]),
    "dense": ([[-3.0, 0.4, -0.2], [0.3, -2.5, 0.1], [-0.1, 0.2, -2.0]], [[0.1, -0.1, 0.0], [0.0, 0.1, 0.1], [0.1, 0.0, -0.1]]),
    "readme": ([[-3.0, 1.0], [1.0, -3.0]], [[1.0, 0.0], [0.0, 1.0]]),
    "dual_refuted": (
        [[-2.0, 2.0, -2.0, -1.0], [-4.0, -3.0, 2.0, -2.0], [1.0, 2.0, -4.0, 0.0], [0.0, 3.0, -3.0, -5.0]],
        [[1.0, 1.0, 0.0, -1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, -3.0], [0.0, -1.0, 0.0, -1.0]],
    ),
    "minor_overflow": ([[-1e300, -2e300], [-3e300, -1e300]], [[1e299, 0.0], [0.0, 1e299]]),
    "scale_overflow": ([[-1.5e308]], [[7.5e307]]),
    "block_overflow": ([[-1e308]], [[1e307]]),
    "extreme_overflow": ([[1e308]], [[1e308]]),
    "n15": ((-2.0 * np.eye(15)).tolist(), (0.1 * np.eye(15)).tolist()),
}
CLI_FLAGS = ([], ["--tol", "1e-6"], ["--max-iter", "0"])
SIMULATE_FLAGS = (
    ["--tau", "0,1", "--horizon", "20"],
    ["--tau", "0,1", "--horizon", "20", "--format", "csv"],
    ["--tau", "1", "--horizon", "20", "--format", "csv"],
)


def cli_outcomes() -> list:
    """[command, flags, pair name, exit code, stdout] for every CLI case."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (a, b) in CLI_PAIRS.items():
            n = len(a)
            path = Path(tmp, f"{name}.json")
            path.write_text(json.dumps({"A": a, "B": b, "transform": {"d": list(range(1, n + 1)), "e": [1.0] * n}}))
            for command in ("check", "classify", "refute", "transform", "simulate"):
                for flags in CLI_FLAGS + (SIMULATE_FLAGS if command == "simulate" else ()):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main([command, str(path), *flags])
                    rows.append([command, flags, name, code, out.getvalue()])
    return rows


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def outcome(fn, *args):
    """fn(*args).to_json(), or the type and text of the package error it raises."""
    try:
        return fn(*args).to_json()
    except RiccstabError as exc:
        return f"{type(exc).__name__}: {exc}"


def generic_pairs(per_n: int = 100):
    rng = np.random.default_rng(12345)
    for n in range(1, 9):
        for _ in range(per_n):
            g = rng.standard_normal((n, n))
            u = rng.uniform(0.5, 2.5, n)
            yield MatrixPair(g - np.diag(u) * np.sqrt(n), rng.standard_normal((n, n)))


def class_pairs(count: int = CLASS_PAIRS):
    rng = np.random.default_rng(23)
    for i in range(count // 2):
        pair = STRUCTURED[i % len(STRUCTURED)](rng)
        yield acceptance._signature_conjugate(rng, pair) if i % 3 == 0 else pair
        n = int(rng.integers(1, 7))
        a, b = (rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4) for _ in range(2))  # 0 * negative = -0.0
        yield MatrixPair(a, b)


def main() -> None:
    for seed in range(4):
        print(f"run_all/{seed}", digest(acceptance.run_all(seed)[0]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "riccstab", "selftest", "--seed", "0"], env=env, capture_output=True, check=False
    )
    print("selftest/0", hashlib.sha256(run.stdout + f"exit {run.returncode}".encode()).hexdigest())
    for seed in CORPUS_SEEDS:
        print(f"check_corpus/{seed}", digest([outcome(solve_diagonal, item.pair) for item in corpus.check_corpus(seed)]))
    print("generic", digest([outcome(solve_diagonal, pair) for pair in generic_pairs()]))
    print("classes", digest([[outcome(classify, pair), outcome(evaluate_class, pair)] for pair in class_pairs()]))
    print("cli", digest(cli_outcomes()))


if __name__ == "__main__":
    main()
