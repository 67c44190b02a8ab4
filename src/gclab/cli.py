"""Command-line front end.

Loads machines, ensembles and problem bundles from JSON, runs the
simulators and verifiers, and emits CSV/JSON/SVG artifacts.  All
randomness funnels through the single --seed flag; identical commands
with identical files and seed produce byte-identical outputs.

Exit codes: 0 on success/pass, 1 when a verification fails, 2 for
usage or file/parse errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import tempfile
from pathlib import Path

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

# Import-time objects live as long as the process: keep them out of every collection.
gc.freeze()

SPHERE_CAP = 16
SEARCH_CAP = 6


class UsageError(Exception):
    pass


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # write once, atomically
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gclab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _sequence_svg(entries) -> str:
    """A fixed-style line plot of float values against the radius."""
    width, height, margin = 480, 320, 40
    xs = [e.n for e in entries]
    ys = [float(e.value) for e in entries]
    if not xs:
        raise UsageError("nothing to plot")
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


def _require_cap(n_max: int, cap: int, what: str) -> None:
    if n_max > cap:
        raise UsageError(f"{what} horizon {n_max} exceeds the safety cap {cap}")


# --- problem bundles ----------------------------------------------------------


def _problem_from_bundle(data: dict) -> tuple[DistributionalProblem, object, object]:
    """(problem, decider machine, decider guard callable) from a bundle."""
    spec = data.get("problem")
    if spec is None:
        raise UsageError("bundle is missing the problem entry")
    mu = ensemble_from_spec(spec["measure"])
    members = spec.get("members", {})
    if "regex" in members:
        pattern = re.compile(members["regex"])
        positive = lambda x: bool(pattern.fullmatch(x.text()))  # noqa: E731
    elif "machine" in members:
        member_machine = load_machine(members["machine"])
        member_guard = parse_polynomial(members.get("guard", "n+1"))
        positive = lambda x: halts_within(member_machine, x, member_guard(len(x)))  # noqa: E731
    else:
        raise UsageError("problem members need a regex or a machine reference")
    problem = DistributionalProblem(
        name=spec.get("name", "bundle"),
        alphabet=mu.alphabet,
        positive=positive,
        measure=mu,
    )
    decider = load_machine(data["decider"]) if "decider" in data else None
    decider_guard = parse_polynomial(data.get("decider_guard", "n+1"))
    return problem, decider, decider_guard


# --- subcommands --------------------------------------------------------------


def cmd_tm(args) -> int:
    machine = load_machine(args.machine)
    word = machine.tape_alphabet.word(args.input)
    if args.action == "run":
        if machine.determinism == "nondeterministic":
            raise UsageError("run needs a deterministic machine; use halts")
        result = run_deterministic(machine, word, args.budget)
        payload = {
            "outcome": result.kind,
            "steps": result.steps,
            "budget": result.budget,
        }
        if result.final is not None:
            payload["final"] = {
                "state": result.final.state,
                "left": "".join(result.final.left),
                "right": "".join(result.final.right),
            }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    halted = halts_within(machine, word, args.budget)
    _write_output(json.dumps({"halts_within": halted, "budget": args.budget}) + "\n",
                  args.out)
    return 0


def cmd_density(args) -> int:
    _require_cap(args.n_max, SPHERE_CAP, "sphere")
    mu = ensemble_from_spec(_load_json(args.ensemble))
    subset, _, closed = bhp.subset_from_spec(_load_json(args.subset), mu)
    seq = genericity.density_sequence(mu, subset, args.n_max, closed=closed)
    if args.format == "svg":
        _write_output(_sequence_svg(seq.entries), args.out)
    else:
        _write_output(seq.to_csv(), args.out)
    return 0


def cmd_control_seq(args) -> int:
    machine = load_machine(args.machine)
    mu = ensemble_from_spec(_load_json(args.ensemble))
    p = parse_polynomial(args.poly)
    if args.sample is None:
        _require_cap(args.n_max, SPHERE_CAP, "sphere")
    elif args.seed is None:
        raise UsageError("--sample requires --seed")
    seq = genericity.control_sequence(
        machine, p, mu, args.n_max, samples=args.sample, seed=args.seed
    )
    if args.format == "svg":
        _write_output(_sequence_svg(seq.entries), args.out)
    else:
        _write_output(seq.to_csv(), args.out)
    return 0


def _report_exit(report, args) -> int:
    payload = report.to_dict()
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if payload["passed"] else 1


def cmd_reduce(args) -> int:
    data = _load_json(args.bundle)
    if args.construction == "to-binary":
        problem, _, _ = _problem_from_bundle(data)
        f, image = reductions.to_binary(problem)
        _require_cap(args.n_max, SEARCH_CAP, "reduction")
        report = reductions.verify_cs(f, problem.measure, image.measure, args.n_max)
        growth = {k: f.size_growth(k) for k in range(args.n_max + 1)}
        report.details["size_growth"] = growth
        samples = {
            x.text(): f.apply(x).text()
            for n in range(min(args.n_max, 3) + 1)
            for x in problem.alphabet.sphere(n)
        }
        report.details["sample_map"] = samples
        return _report_exit(report, args)
    if args.construction == "bh":
        _require_cap(args.n_max, SEARCH_CAP, "reduction")
        problem, decider, decider_guard = _problem_from_bundle(data)
        if decider is None:
            raise UsageError("bundle is missing the decider")
        guard = bhp.as_guard(parse_polynomial(data.get("guard", "n+6")),
                             form=str(data.get("guard", "n+6")))
        stage = bhp.red2bh(problem, decider, guard, decider_guard)
        membership = bhp.verify_membership(
            problem, stage.reduction,
            lambda u: bhp.bh_member(stage.machine, u), args.n_max,
        )
        decrease = bhp.verify_measure_decrease(problem.measure, stage.guard, args.n_max)
        membership.violations.extend(decrease.violations)
        membership.details["measure"] = decrease.details
        return _report_exit(membership, args)
    if args.construction == "universal":
        _require_cap(args.n_max, 8, "universal-stage")
        machine = load_machine(data["machine"])
        guard = bhp.adequate_guard(
            parse_polynomial(data.get("guard", "n+6")),
            extra_payload=len(bhp.machine_code(machine).text()) + 1,
        )
        stage = bhp.red2bhu(machine, guard)
        universal = bhp.universal_machine([machine])
        membership = bhp.verify_red2bhu_membership(machine, stage, universal, args.n_max)
        decrease = bhp.verify_red2bhu_measure(stage, args.n_max)
        membership.violations.extend(decrease.violations)
        membership.details["measure"] = decrease.details
        return _report_exit(membership, args)
    if args.construction == "pipeline":
        _require_cap(args.n_max, SEARCH_CAP, "pipeline")
        problem, decider, decider_guard = _problem_from_bundle(data)
        if decider is None:
            raise UsageError("bundle is missing the decider")
        guard = parse_polynomial(data.get("guard", "n+6"))
        chain = bhp.completeness_pipeline(
            problem, decider, guard, decider_guard, n_max=args.n_max
        )
        _write_output(json.dumps(chain.to_dict(), indent=2) + "\n", args.out)
        return 0 if chain.passed else 1
    raise UsageError(f"unknown construction {args.construction!r}")


def cmd_verify(args) -> int:
    if args.check == "nu-sums":
        _require_cap(args.n_max, SPHERE_CAP, "sphere")
        report = measure.CheckReport("nu-sums", args.n_max)
        for n in range(args.n_max + 1):
            total = bhp.NU.sphere_sum(n)
            if total != 1:
                report.add(f"sphere {n}", "1", measure.fraction_str(total))
        return _report_exit(report, args)
    if not args.fixture:
        raise UsageError(f"verify {args.check} needs a fixture file")
    _require_cap(args.n_max, SPHERE_CAP, "verification")
    data = _load_json(args.fixture)
    if args.check == "transfer":
        f = reductions.reduction_from_spec(data["reduction"])
        base = ensemble_from_spec(data["base"])
        candidate = ensemble_from_spec(data["candidate"])
        return _report_exit(measure.verify_transfer(f, base, candidate, args.n_max), args)
    if args.check == "induced":
        base = ensemble_from_spec(data["base"])
        subset, _, _ = bhp.subset_from_spec(data["subset"])
        candidate = ensemble_from_spec(data["candidate"])
        return _report_exit(measure.verify_induced(base, subset, candidate, args.n_max), args)
    if args.check == "cs":
        f = reductions.reduction_from_spec(data["reduction"])
        mu = ensemble_from_spec(data["mu"])
        nu = ensemble_from_spec(data["nu"])
        return _report_exit(reductions.verify_cs(f, mu, nu, args.n_max), args)
    if args.check == "cm":
        f = reductions.reduction_from_spec(data["reduction"])
        mu = ensemble_from_spec(data["mu"])
        nu = ensemble_from_spec(data["nu"])
        d = parse_polynomial(data["d"])
        return _report_exit(reductions.verify_cm(f, mu, nu, d, args.n_max), args)
    if args.check == "bh-measure":
        problem, _, decider_guard = _problem_from_bundle(data)
        guard = bhp.adequate_guard(
            parse_polynomial(data.get("guard", "n+6")), decider_guard
        )
        return _report_exit(
            bhp.verify_measure_decrease(problem.measure, guard, args.n_max), args
        )
    raise UsageError(f"unknown check {args.check!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gclab",
        description="exact-arithmetic laboratory for generic-case complexity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tm = sub.add_parser("tm", help="run or probe a Turing machine")
    tm.add_argument("action", choices=["run", "halts"])
    tm.add_argument("machine")
    tm.add_argument("input")
    tm.add_argument("--budget", type=int, default=1000)
    tm.add_argument("--out")
    tm.set_defaults(func=cmd_tm)

    density = sub.add_parser("density", help="exact density sequence of a subset")
    density.add_argument("--ensemble", required=True)
    density.add_argument("--subset", required=True)
    density.add_argument("--n-max", type=int, required=True)
    density.add_argument("--format", choices=["csv", "svg"], default="csv")
    density.add_argument("--out")
    density.set_defaults(func=cmd_density)

    control = sub.add_parser("control-seq", help="control sequence of a machine")
    control.add_argument("--machine", required=True)
    control.add_argument("--ensemble", required=True)
    control.add_argument("--poly", required=True)
    control.add_argument("--n-max", type=int, required=True)
    control.add_argument("--sample", type=int)
    control.add_argument("--seed", type=int)
    control.add_argument("--format", choices=["csv", "svg"], default="csv")
    control.add_argument("--out")
    control.set_defaults(func=cmd_control_seq)

    reduce_p = sub.add_parser("reduce", help="build and verify a reduction")
    reduce_p.add_argument("construction",
                          choices=["to-binary", "bh", "universal", "pipeline"])
    reduce_p.add_argument("bundle")
    reduce_p.add_argument("--n-max", type=int, default=4)
    reduce_p.add_argument("--out")
    reduce_p.set_defaults(func=cmd_reduce)

    verify = sub.add_parser("verify", help="run an exact verifier")
    verify.add_argument("check",
                        choices=["cs", "cm", "transfer", "induced",
                                 "bh-measure", "nu-sums"])
    verify.add_argument("fixture", nargs="?")
    verify.add_argument("--n-max", type=int, required=True)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, MachineFormatError, FileNotFoundError, KeyError,
            ValueError) as exc:
        sys.stderr.write(f"gclab: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
