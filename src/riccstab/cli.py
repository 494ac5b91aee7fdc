"""Batch command-line front-end.

Reads a problem file (JSON with matrices A and B, optional tau list,
options, and scaling spec), dispatches to the solver, classifier, refuter,
transformer, or simulator, and emits machine-readable reports. Output is
deterministic for fixed inputs. Each command accepts only the flags it
reads; `riccstab COMMAND --help` lists them.

Exit codes: 0 definitive answer, 2 undecided (Unknown verdict, Marginal
class, missing witness, or a failed decay run), 1 input or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
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


def _delays(text: str) -> list[float]:
    """--tau: comma-separated delays."""
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="riccstab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    emits = argparse.ArgumentParser(add_help=False)
    emits.add_argument("--out", default=None, help="write the payload here, not to stdout (simulate json: the trajectory CSVs)")
    solves = argparse.ArgumentParser(add_help=False, parents=[emits])
    solves.add_argument("problem", help="path to a JSON problem file")
    solves.add_argument("--tol", type=float, default=None, help="feasibility margin tolerance")
    solves.add_argument("--max-iter", type=int, default=None, help="cap on the barrier solver's Newton steps")
    for name, handler, help_text in (
        ("check", _cmd_check, "decide feasibility and emit the verdict with certificate or witness"),
        ("classify", _cmd_classify, "structural class verdict; falls back to check on unstructured pairs"),
        ("refute", _cmd_refute, "run the solver and emit its refutation witness only"),
        ("transform", _cmd_transform, "apply the scaling from the problem file and map a certificate through it"),
    ):
        sub.add_parser(name, help=help_text, parents=[solves]).set_defaults(handler=handler)
    simulate = sub.add_parser("simulate", help="integrate the delay system and report decay for each delay", parents=[solves])
    simulate.add_argument("--tau", type=_delays, default=None, help="comma-separated delay list")
    simulate.add_argument("--horizon", type=float, default=None, help="simulation end time")
    simulate.add_argument("--step", type=float, default=None, help="integration step")
    simulate.add_argument("--format", choices=("json", "csv"), default="json", help="payload format")
    simulate.set_defaults(handler=_cmd_simulate)
    selftest = sub.add_parser("selftest", help="run the randomized cross-validation battery twice", parents=[emits])
    selftest.add_argument("--seed", type=int, default=0, help="the battery seed")
    selftest.set_defaults(handler=_cmd_selftest)
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
    true or false) and, for a count, integral."""
    if flag_value is not None:
        return flag_value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (integral and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integral else "a number"
        raise RiccstabError(f"{name} must be {kind}, got {json.dumps(value)}")
    return value


def _solve_options(data: dict, args) -> SolveOptions:
    """SolveOptions from the flags, else the file's options."""
    opts = _file_options(data)
    base = SolveOptions()
    return SolveOptions(
        tol=float(_pick(args.tol, opts.get("tol", base.tol), "options.tol", integral=False)),
        max_iter=int(_pick(args.max_iter, opts.get("max_iter", base.max_iter), "options.max_iter")),
    )


def _sim_params(data: dict, args) -> tuple[list[float], float, float]:
    opts = _file_options(data)
    tau = data.get("tau", [0.0]) if args.tau is None else args.tau
    if isinstance(tau, list):
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


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError raised while writing path, given by --out, into an
    input error naming the flag."""
    try:
        yield
    except OSError as exc:
        raise RiccstabError(f"--out {path}: {exc.strerror or exc}") from exc


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with _writing(out):
            Path(out).write_text(payload)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _verdict_exit(verdict: Verdict) -> int:
    return EXIT_OK if verdict.is_definitive else EXIT_UNDECIDED


def _cmd_check(args) -> int:
    data = _load_problem(args.problem)
    verdict = solve_diagonal(_problem_pair(data), _solve_options(data, args))
    _emit_json(verdict.to_json(), args.out)
    return _verdict_exit(verdict)


def _cmd_classify(args) -> int:
    data = _load_problem(args.problem)
    pair = _problem_pair(data)
    try:
        class_verdict = evaluate_class(pair)
    except ClassMismatchError:  # unstructured: the options are read only here
        verdict = solve_diagonal(pair, _solve_options(data, args))
        _emit_json({"tag": ClassTag(UNSTRUCTURED).to_json(), "verdict": verdict.to_json()}, args.out)
        return _verdict_exit(verdict)
    _emit_json(class_verdict.to_json(), args.out)
    return EXIT_UNDECIDED if class_verdict.stable is Stability.MARGINAL else EXIT_OK


def _cmd_refute(args) -> int:
    data = _load_problem(args.problem)
    verdict = solve_diagonal(_problem_pair(data), _solve_options(data, args))
    payload = {"witness": None} if verdict.witness is None else verdict.witness.to_json()
    payload["samples_tried"] = verdict.samples_tried
    _emit_json(payload, args.out)
    return EXIT_OK if verdict.witness is not None else EXIT_UNDECIDED


def _cmd_transform(args) -> int:
    data = _load_problem(args.problem)
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


def _cmd_simulate(args) -> int:
    data = _load_problem(args.problem)
    pair = _problem_pair(data)
    taus, horizon, step = _sim_params(data, args)
    if args.format == "csv" and len(taus) != 1:
        raise RiccstabError("csv format requires exactly one delay")
    # csv format has one delay, so its one path is --out itself
    csv_paths = _csv_paths(args.out, taus) if args.out is not None else []
    verdict = solve_diagonal(pair, _solve_options(data, args))
    cert = verdict.certificate if verdict.status == Verdict.FEASIBLE else None
    runs = [_decay_run(pair, cert, tau, horizon, step) for tau in taus]

    for path, (trajectory, lk, _) in zip(csv_paths, runs):
        with _writing(path):
            export_csv(trajectory, path, lk=lk)
    if args.format == "json":
        _emit_json({"certificate_status": verdict.status, "reports": [report.to_json() for _, _, report in runs]}, None)
    elif args.out is None:
        trajectory, lk, _ = runs[0]
        export_csv(trajectory, sys.stdout, lk=lk)

    return EXIT_OK if all(report.decayed for _, _, report in runs) else EXIT_UNDECIDED


def _cmd_selftest(args) -> int:
    result = acceptance.selftest(args.seed)
    _emit_json(result.report, args.out)
    # wall-clock seconds stay off stdout, which is byte-identical for a seed
    for run, suites in result.timings.items():
        for suite, seconds in suites.items():
            sys.stderr.write(f"riccstab: selftest {run} {suite} {seconds:.3f} s\n")
    return EXIT_OK if result.report["all_passed"] else EXIT_UNDECIDED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (RiccstabError, ValueError, TypeError) as exc:
        sys.stderr.write(f"riccstab: error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
