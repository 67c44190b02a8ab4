"""Command-line front end.

Loads machines, ensembles and problem bundles from JSON, runs the
simulators and verifiers, and emits CSV/JSON/SVG artifacts.  All
randomness funnels through the single --seed flag; identical commands
with identical files and seed produce byte-identical outputs.

Exit codes: 0 on success/pass, 1 when a verification fails, 2 for
usage or file/parse errors.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

from . import bhp, genericity, measure, reductions
from .genericity import parse_polynomial
from .machine import (
    MachineFormatError,
    halts_within,
    load_machine,
    run_deterministic,
)
from .measure import ensemble_from_spec
from .reductions import DistributionalProblem
from .words import BINARY

# Import-time objects live as long as the process: keep them out of every collection.
gc.freeze()

SEARCH_CAP = 6


class UsageError(Exception):
    pass


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # write once, atomically
    directory = os.path.dirname(os.path.abspath(out)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gclab-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _load_json(path: str) -> dict:
    """The JSON of the file at ``path``, the one reader of input files: a
    file that cannot be read, is not UTF-8 JSON or nests deeper than the
    parser goes (``RecursionError``) is a usage error naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _reading(path: str):
    """Building objects from the JSON of ``path``: a missing field, a
    value of the wrong shape or an invalid value is a usage error that
    names the file."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise UsageError(f"{path}: malformed spec: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _sequence_svg(entries) -> str:
    """A fixed-style line plot of float values against the radius (every
    sequence has an entry for sphere 0, so there is always a point)."""
    width, height, margin = 480, 320, 40
    xs = [e.n for e in entries]
    ys = [float(e.value) for e in entries]
    x_span = max(xs) - min(xs) or 1
    y_top = max(max(ys), 1e-12)
    points = []
    for x, y in zip(xs, ys):
        px = margin + (x - min(xs)) * (width - 2 * margin) / x_span
        py = height - margin - y * (height - 2 * margin) / y_top
        points.append(f"{px:.2f},{py:.2f}")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
        f'points="{" ".join(points)}"/>\n'
        f"</svg>\n"
    )


def _write_sequence(seq, args) -> int:
    """A density or control sequence as CSV, or as an SVG plot."""
    _write_output(_sequence_svg(seq.entries) if args.format == "svg" else seq.to_csv(), args.out)
    return 0


def _require_cap(n_max: int, cap: int, what: str) -> None:
    if n_max > cap:
        raise UsageError(f"{what} horizon {n_max} exceeds the safety cap {cap}")


# --- problem bundles ----------------------------------------------------------


def _bundle_machine(source, bundle: str):
    """A machine a bundle gives inline, as an object, or as a string: the
    path of its file from the bundle's directory."""
    if isinstance(source, str):
        source = _load_json(os.path.join(os.path.dirname(bundle), source))
    return load_machine(source)


def _problem_from_bundle(data: dict, bundle: str) -> tuple[DistributionalProblem, object, object]:
    """(problem, decider machine, decider guard polynomial) from a bundle.

    Read inside ``_reading``: a malformed bundle raises ``ValueError``,
    which names the bundle there."""
    spec = data.get("problem")
    if spec is None:
        raise ValueError("bundle is missing the problem entry")
    mu = ensemble_from_spec(spec["measure"])
    members = spec.get("members", {})
    if "regex" in members:
        try:
            pattern = re.compile(members["regex"])
        except re.error as exc:
            raise ValueError(f"members regex {members['regex']!r}: {exc}") from exc
        positive = lambda x: bool(pattern.fullmatch(x.text()))  # noqa: E731
    elif "machine" in members:
        member_machine = _bundle_machine(members["machine"], bundle)
        if member_machine.tape_alphabet is not mu.alphabet:
            raise ValueError("the members machine reads another alphabet than the measure")
        member_guard = parse_polynomial(members.get("guard", "n+1"))
        positive = lambda x: halts_within(member_machine, x, member_guard(len(x)))  # noqa: E731
    else:
        raise ValueError("problem members need a regex or a machine reference")
    problem = DistributionalProblem(spec.get("name", "bundle"), positive, mu)
    decider = _bundle_machine(data["decider"], bundle) if "decider" in data else None
    decider_guard = parse_polynomial(data.get("decider_guard", "n+1"))
    return problem, decider, decider_guard


# --- subcommands --------------------------------------------------------------


def cmd_tm(args) -> int:
    with _reading(args.machine):
        machine = load_machine(_load_json(args.machine))
    word = machine.tape_alphabet.word(args.input)
    if args.action == "run":
        result = run_deterministic(machine, word, args.budget)
        payload = {
            "outcome": result.kind,
            "steps": result.steps,
            "budget": result.budget,
        }
        if result.final is not None:
            # joined as ``Word.text`` joins letters; the head may read a blank
            join = machine.tape_alphabet._separator.join
            payload["final"] = {
                "state": result.final.state,
                "left": join(result.final.left),
                "right": join(result.final.right),
            }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    halted = halts_within(machine, word, args.budget)
    _write_output(json.dumps({"halts_within": halted, "budget": args.budget}) + "\n",
                  args.out)
    return 0


def cmd_density(args) -> int:
    _require_cap(args.n_max, measure.ENUMERATION_CAP, "sphere")
    with _reading(args.ensemble):
        mu = ensemble_from_spec(_load_json(args.ensemble))
    with _reading(args.subset):
        subset, _, closed = bhp.subset_from_spec(_load_json(args.subset), mu)
    seq = genericity.density_sequence(mu, subset, args.n_max, closed=closed)
    return _write_sequence(seq, args)


def cmd_control_seq(args) -> int:
    with _reading(args.machine):
        machine = load_machine(_load_json(args.machine))
    with _reading(args.ensemble):
        mu = ensemble_from_spec(_load_json(args.ensemble))
        if machine.tape_alphabet is not mu.alphabet:
            raise ValueError("the machine reads another alphabet than the ensemble")
    p = parse_polynomial(args.poly)
    if args.sample is None:
        if args.seed is not None:
            raise UsageError("--seed requires --sample")
        _require_cap(args.n_max, measure.ENUMERATION_CAP, "sphere")
    elif args.seed is None:
        raise UsageError("--sample requires --seed")
    seq = genericity.control_sequence(
        machine, p, mu, args.n_max, samples=args.sample, seed=args.seed
    )
    return _write_sequence(seq, args)


def _report_exit(report, args) -> int:
    payload = report.to_dict()
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if payload["passed"] else 1


def _stage_exit(membership, decrease, args) -> int:
    """One report for a bounded-halting stage: its membership violations,
    then its measure violations, with the measure details nested."""
    membership.violations.extend(decrease.violations)
    membership.details["measure"] = decrease.details
    return _report_exit(membership, args)


def cmd_reduce(args) -> int:
    data = _load_json(args.bundle)
    if args.construction == "to-binary":
        with _reading(args.bundle):
            problem, _, _ = _problem_from_bundle(data, args.bundle)
        f, image = reductions.to_binary(problem)
        _require_cap(args.n_max, SEARCH_CAP, "reduction")
        report = reductions.verify_cs(f, problem.measure, image.measure, args.n_max)
        growth = {k: f.size_growth(k) for k in range(args.n_max + 1)}
        report.details["size_growth"] = growth
        samples = {
            x.text(): f.apply(x).text()
            for n in range(min(args.n_max, 3) + 1)
            for x in problem.measure.alphabet.sphere(n)
        }
        report.details["sample_map"] = samples
        return _report_exit(report, args)
    if args.construction in ("bh", "pipeline"):
        pipeline = args.construction == "pipeline"
        _require_cap(args.n_max, SEARCH_CAP, "pipeline" if pipeline else "reduction")
        with _reading(args.bundle):
            problem, decider, decider_guard = _problem_from_bundle(data, args.bundle)
            if decider is None:
                raise ValueError("bundle is missing the decider")
            guard = parse_polynomial(data.get("guard", "n+6"))
            stage = bhp.red2bh(problem, decider, guard, decider_guard)
        if pipeline:
            chain = bhp.completeness_pipeline(problem, stage, n_max=args.n_max)
            _write_output(json.dumps(chain.to_dict(), indent=2) + "\n", args.out)
            return 0 if chain.passed else 1
        membership = measure.CheckReport("membership-preservation", args.n_max)
        pairs = bhp.verify_membership(
            problem.positive, stage, problem.measure.alphabet.ball(args.n_max), membership
        )
        return _stage_exit(membership, bhp.verify_measure_decrease(stage, pairs, args.n_max), args)
    if args.construction == "universal":
        _require_cap(args.n_max, 8, "universal-stage")
        with _reading(args.bundle):
            machine = _bundle_machine(data["machine"], args.bundle)
            stage = bhp.red2bhu(machine, parse_polynomial(data.get("guard", "n+6")))
        membership = measure.CheckReport("membership-preservation", args.n_max)
        pairs = bhp.verify_red2bhu_membership(
            machine, stage, BINARY.ball(args.n_max), membership
        )
        return _stage_exit(membership, bhp.verify_red2bhu_measure(stage, pairs, args.n_max), args)
    raise UsageError(f"unknown construction {args.construction!r}")


def cmd_verify(args) -> int:
    if args.check == "nu-sums":
        if args.fixture is not None:
            raise UsageError("verify nu-sums takes no fixture file")
        _require_cap(args.n_max, measure.ENUMERATION_CAP, "sphere")
        report = measure.CheckReport("nu-sums", args.n_max)
        for n in range(args.n_max + 1):
            total = bhp.NU.sphere_sum(n)
            if total != 1:
                report.add(f"sphere {n}", "1", total)
        return _report_exit(report, args)
    if not args.fixture:
        raise UsageError(f"verify {args.check} needs a fixture file")
    _require_cap(args.n_max, measure.ENUMERATION_CAP, "verification")
    data = _load_json(args.fixture)
    if args.check == "transfer":
        with _reading(args.fixture):
            f = reductions.reduction_from_spec(data["reduction"])
            base = ensemble_from_spec(data["base"])
            candidate = ensemble_from_spec(data["candidate"])
        return _report_exit(measure.verify_transfer(f, base, candidate, args.n_max), args)
    if args.check == "induced":
        with _reading(args.fixture):
            base = ensemble_from_spec(data["base"])
            subset, _, _ = bhp.subset_from_spec(data["subset"])
            candidate = ensemble_from_spec(data["candidate"])
        return _report_exit(measure.verify_induced(base, subset, candidate, args.n_max), args)
    if args.check in ("cs", "cm"):
        with _reading(args.fixture):
            f = reductions.reduction_from_spec(data["reduction"])
            mu = ensemble_from_spec(data["mu"])
            nu = ensemble_from_spec(data["nu"])
            d = parse_polynomial(data["d"]) if args.check == "cm" else None
        report = (reductions.verify_cs(f, mu, nu, args.n_max) if d is None
                  else reductions.verify_cm(f, mu, nu, d, args.n_max))
        return _report_exit(report, args)
    if args.check == "bh-measure":
        with _reading(args.fixture):
            problem, _, decider_guard = _problem_from_bundle(data, args.fixture)
            guard = bhp.adequate_guard(
                parse_polynomial(data.get("guard", "n+6")), decider_guard
            )
            f = bhp.red2bh_map(problem.measure, guard)
        stage = bhp.BHStage(f, None, guard, problem.measure)
        pairs = ((x, f.apply(x)) for x in problem.measure.alphabet.ball(args.n_max))
        return _report_exit(bhp.verify_measure_decrease(stage, pairs, args.n_max), args)
    raise UsageError(f"unknown check {args.check!r}")


def nonnegative_int(text: str) -> int:
    """The type of --n-max and --budget: a negative horizon or step
    budget would check nothing and report a pass."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


# Each command's handler, help line and arguments in usage order.  An
# argument is a positional, or an option when its name starts with "--";
# it maps to (its type or the tuple of its choices, its default or REQUIRED).
REQUIRED = object()
_FORMAT = (("csv", "svg"), "csv")
COMMANDS = {
    "tm": (cmd_tm, "run or probe a Turing machine", {
        "action": (("run", "halts"), REQUIRED), "machine": (str, REQUIRED),
        "input": (str, REQUIRED), "--budget": (nonnegative_int, 1000), "--out": (str, None)}),
    "density": (cmd_density, "exact density sequence of a subset", {
        "--ensemble": (str, REQUIRED), "--subset": (str, REQUIRED),
        "--n-max": (nonnegative_int, REQUIRED), "--format": _FORMAT, "--out": (str, None)}),
    "control-seq": (cmd_control_seq, "control sequence of a machine", {
        "--machine": (str, REQUIRED), "--ensemble": (str, REQUIRED), "--poly": (str, REQUIRED),
        "--n-max": (nonnegative_int, REQUIRED), "--sample": (int, None), "--seed": (int, None),
        "--format": _FORMAT, "--out": (str, None)}),
    "reduce": (cmd_reduce, "build and verify a reduction", {
        "construction": (("to-binary", "bh", "universal", "pipeline"), REQUIRED),
        "bundle": (str, REQUIRED), "--n-max": (nonnegative_int, 4), "--out": (str, None)}),
    "verify": (cmd_verify, "run an exact verifier", {
        "check": (("cs", "cm", "transfer", "induced", "bh-measure", "nu-sums"), REQUIRED),
        "fixture": (str, None), "--n-max": (nonnegative_int, REQUIRED), "--out": (str, None)}),
}
_HELP = ("-h", "--help")
# an option token; "-" and a negative number are values, as in argparse
_OPTION = re.compile(r"-(?!\d+\Z|\d*\.\d+\Z).", re.S)


def _usage(args) -> int:
    """Print the commands, or one command's arguments, from COMMANDS."""
    if args.command is None:
        text = "usage: gclab COMMAND [-h] ...\n\ncommands:\n" + "\n".join(
            f"  {name:<12} {entry[1]}" for name, entry in COMMANDS.items())
    else:
        words = []
        for name, (kind, default) in COMMANDS[args.command][2].items():
            word = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name
            if name[:2] == "--":
                word = f"{name} {name[2:].upper() if word == name else word}"
            words.append(word if default is REQUIRED else f"[{word}]")
        text = f"usage: gclab {args.command} [-h] {' '.join(words)}\n\n{COMMANDS[args.command][1]}"
    sys.stdout.write(text + "\n")
    return 0


def parse_args(argv) -> SimpleNamespace:
    """The namespace a command's handler reads: ``command``, ``func`` and
    one attribute per argument.  Options take their exact names, as
    ``--name value`` or ``--name=value`` in any order, and the last of a
    repeated one wins; ``-h`` anywhere asks for help."""
    command = argv[0] if argv else None
    if command in _HELP:
        return SimpleNamespace(command=None, func=_usage)
    if command not in COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}, or -h")
    handler, _, spec = COMMANDS[command]
    positionals = (name for name in spec if name[:2] != "--")
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return SimpleNamespace(command=command, func=_usage)
        # eq is "=" or "" for an option, None for a positional
        name, eq, value = (token.partition("=") if _OPTION.match(token)
                           else (next(positionals, None), None, token))
        if name not in spec:
            raise UsageError(f"unrecognized argument {token}")
        if eq == "" and ((value := next(tokens, None)) is None or _OPTION.match(value)):
            raise UsageError(f"argument {name}: expected one argument")
        kind = spec[name][0]
        try:
            if isinstance(kind, tuple) and value not in kind:
                raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(kind)})")
            values[name] = value if isinstance(kind, tuple) else kind(value)
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
    missing = [name for name, (_, default) in spec.items()
               if default is REQUIRED and name not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, func=handler, **{
        name.lstrip("-").replace("-", "_"): values.get(name, default)
        for name, (_, default) in spec.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (UsageError, MachineFormatError, FileNotFoundError, KeyError,
            ValueError) as exc:
        sys.stderr.write(f"gclab: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
