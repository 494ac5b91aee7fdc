"""Batch command-line front-end.

Reads a problem file (JSON with matrices A and B, optional tau list,
options, and scaling spec), dispatches to the solver, classifier, refuter,
transformer, or simulator, and emits machine-readable reports. Output is
deterministic for fixed inputs.

Exit codes: 0 definitive answer, 2 undecided (Unknown verdict, Marginal
class, missing witness, or a failed decay run), 1 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance
from .classes import UNSTRUCTURED, ClassTag, Stability, evaluate_class
from .ddesim import _decay_run, export_csv
from .errors import ClassMismatchError, RiccstabError
from .riccati import MatrixPair, SolveOptions, Verdict, solve_diagonal
from .transforms import ScalingPair, dad_transform

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    undecided verdicts, so remap usage problems to exit 1."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="riccstab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_file=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("--tol", type=float, default=None, help="feasibility margin tolerance")
        p.add_argument("--seed", type=int, default=None, help="selftest: the battery seed; other commands accept and ignore it")
        p.add_argument("--samples", type=int, default=None, help="accepted and ignored, for compatibility")
        p.add_argument("--max-iter", type=int, default=None, help="cap on the barrier solver's Newton steps")
        p.add_argument("--tau", default=None, help="comma-separated delay list for simulation")
        p.add_argument("--horizon", type=float, default=None, help="simulation end time")
        p.add_argument("--step", type=float, default=None, help="integration step")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="payload format (csv: simulate only)")
        p.add_argument("--out", default=None, help="write the payload to this path instead of stdout")
        return p

    add("check", "decide feasibility and emit the verdict with certificate or witness")
    add("classify", "structural class verdict; falls back to check on unstructured pairs")
    add("refute", "run the solver and emit its refutation witness only")
    add("transform", "apply the scaling from the problem file and map a certificate through it")
    add("simulate", "integrate the delay system and report decay for each delay")
    add("selftest", "run the randomized cross-validation battery twice", needs_file=False)
    return parser


def _load_problem(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise RiccstabError(f"cannot read problem file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RiccstabError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "A" not in data or "B" not in data:
        raise RiccstabError("problem file must be a JSON object with keys A and B")
    return data


def _problem_pair(data: dict) -> MatrixPair:
    return MatrixPair(data["A"], data["B"])


def _file_options(data: dict) -> dict:
    opts = data.get("options") or {}
    if not isinstance(opts, dict):
        raise RiccstabError("options must be a JSON object")
    return opts


def _pick(flag_value, value, name: str, integral: bool = True):
    """The flag, else the file's value, which must be a JSON number (not
    true or false) and, for a count or seed, integral."""
    if flag_value is not None:
        return flag_value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (integral and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integral else "a number"
        raise RiccstabError(f"{name} must be {kind}, got {json.dumps(value)}")
    return value


def _solve_options(data: dict, args) -> SolveOptions:
    """SolveOptions from the flags and the file's options. seed and samples
    are accepted for compatibility and checked like the others, but no
    solver reads them."""
    opts = _file_options(data)
    for flag_value, key in ((args.seed, "seed"), (args.samples, "samples")):
        value = _pick(flag_value, opts.get(key, 0), f"options.{key}")
        if value < 0:
            raise RiccstabError(f"{key} must be >= 0, got {value}")
    base = SolveOptions()
    return SolveOptions(
        tol=float(_pick(args.tol, opts.get("tol", base.tol), "options.tol", integral=False)),
        max_iter=int(_pick(args.max_iter, opts.get("max_iter", base.max_iter), "options.max_iter")),
    )


def _sim_params(data: dict, args) -> tuple[list[float], float, float]:
    opts = _file_options(data)
    tau = data.get("tau", [0.0])
    if args.tau is not None:
        taus = [float(part) for part in args.tau.split(",") if part.strip() != ""]
    elif isinstance(tau, list):
        taus = [float(_pick(None, t, "tau", integral=False)) for t in tau]
    elif isinstance(tau, (int, float)) and not isinstance(tau, bool):
        taus = [float(tau)]
    else:
        raise RiccstabError(f"tau must be a number or a list of numbers, got {json.dumps(tau)}")
    if not taus:
        raise RiccstabError("empty delay list")
    horizon = float(_pick(args.horizon, opts.get("horizon", 60.0), "options.horizon", integral=False))
    step = float(_pick(args.step, opts.get("step", 0.02), "options.step", integral=False))
    return taus, horizon, step


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _verdict_exit(verdict: Verdict) -> int:
    return EXIT_OK if verdict.is_definitive else EXIT_UNDECIDED


def _cmd_check(data: dict, args) -> int:
    verdict = solve_diagonal(_problem_pair(data), _solve_options(data, args))
    _emit_json(verdict.to_json(), args.out)
    return _verdict_exit(verdict)


def _cmd_classify(data: dict, args) -> int:
    pair = _problem_pair(data)
    try:
        class_verdict = evaluate_class(pair)
    except ClassMismatchError:  # unstructured: the options are read only here
        verdict = solve_diagonal(pair, _solve_options(data, args))
        _emit_json({"tag": ClassTag(UNSTRUCTURED).to_json(), "verdict": verdict.to_json()}, args.out)
        return _verdict_exit(verdict)
    _emit_json(class_verdict.to_json(), args.out)
    return EXIT_UNDECIDED if class_verdict.stable is Stability.MARGINAL else EXIT_OK


def _cmd_refute(data: dict, args) -> int:
    verdict = solve_diagonal(_problem_pair(data), _solve_options(data, args))
    payload = {"witness": None} if verdict.witness is None else verdict.witness.to_json()
    payload["samples_tried"] = verdict.samples_tried
    _emit_json(payload, args.out)
    return EXIT_OK if verdict.witness is not None else EXIT_UNDECIDED


def _cmd_transform(data: dict, args) -> int:
    spec = data.get("transform")
    if not isinstance(spec, dict) or "d" not in spec or "e" not in spec:
        raise RiccstabError("transform command needs a problem-file entry transform: {d: [...], e: [...]}")
    pair = _problem_pair(data)
    scaling = ScalingPair(spec["d"], spec["e"])
    verdict = solve_diagonal(pair, _solve_options(data, args))
    scaled, map_certificate = dad_transform(pair, scaling)
    payload = {
        "A": scaled.a.tolist(),
        "B": scaled.b.tolist(),
        "status": verdict.status,
        "certificate": None,
    }
    if verdict.status == Verdict.FEASIBLE:
        payload["certificate"] = map_certificate(verdict.certificate).to_json()
    _emit_json(payload, args.out)
    return _verdict_exit(verdict)


def _csv_paths(base: str, taus: list[float]) -> list[str]:
    """One CSV path per delay: base itself for one delay, else
    {stem}_tau{tau:g}{suffix}; delays that would share a file are refused."""
    if len(taus) == 1:
        return [base]
    path = Path(base)
    owners: dict[str, float] = {}
    for tau in taus:
        name = str(path.with_name(f"{path.stem}_tau{tau:g}{path.suffix or '.csv'}"))
        if name in owners:
            raise RiccstabError(f"--out {base}: delays {owners[name]!r} and {tau!r} would both write {name}")
        owners[name] = tau
    return list(owners)


def _cmd_simulate(data: dict, args) -> int:
    pair = _problem_pair(data)
    taus, horizon, step = _sim_params(data, args)
    csv_paths = _csv_paths(args.out, taus) if args.out is not None and args.format == "json" else None
    verdict = solve_diagonal(pair, _solve_options(data, args))
    cert = verdict.certificate if verdict.status == Verdict.FEASIBLE else None
    runs = [_decay_run(pair, cert, tau, horizon, step) for tau in taus]

    if args.format == "csv":
        if len(taus) != 1:
            raise RiccstabError("csv format requires exactly one delay")
        trajectory, lk, _ = runs[0]
        export_csv(trajectory, sys.stdout if args.out is None else args.out, lk=lk)
    else:
        if csv_paths is not None:
            for path, (trajectory, lk, _) in zip(csv_paths, runs):
                export_csv(trajectory, path, lk=lk)
        payload = {
            "certificate_status": verdict.status,
            "reports": [report.to_json() for _, _, report in runs],
        }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return EXIT_OK if all(report.decayed for _, _, report in runs) else EXIT_UNDECIDED


def _cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else 0
    result = acceptance.selftest(seed)
    _emit_json(result.report, args.out)
    # wall-clock seconds stay off stdout, which is byte-identical for a seed
    for run, suites in result.timings.items():
        for suite, seconds in suites.items():
            sys.stderr.write(f"riccstab: selftest {run} {suite} {seconds:.3f} s\n")
    return EXIT_OK if result.report["all_passed"] else EXIT_UNDECIDED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command != "simulate":
        parser.error("--format csv only applies to simulate")
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        data = _load_problem(args.problem)
        handler = {
            "check": _cmd_check,
            "classify": _cmd_classify,
            "refute": _cmd_refute,
            "transform": _cmd_transform,
            "simulate": _cmd_simulate,
        }[args.command]
        return handler(data, args)
    except (RiccstabError, ValueError, TypeError) as exc:
        sys.stderr.write(f"riccstab: error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
