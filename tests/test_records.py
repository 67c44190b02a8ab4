"""The record types keep their contracts, and importing gclab generates no code.

Records are ``NamedTuple``s or plain classes: equal fields give equal,
alike-hashing objects (the hash of the tuple of fields, so set orders
under a fixed ``PYTHONHASHSEED`` stay put), immutable records refuse
assignment, and every mutable default is fresh per instance.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gclab import (
    BINARY,
    Alphabet,
    CheckReport,
    Configuration,
    DensitySequence,
    DistributionalProblem,
    LongevityGuard,
    Polynomial,
    RunResult,
    UniformEnsemble,
    VirtualMachine,
    identity_reduction,
    load_machine,
)
from gclab.bhp import BHStage, ChainReport, as_guard
from gclab.cli import main
from gclab.genericity import SequenceEntry
from gclab.measure import Violation, ensemble_from_spec
from gclab.reductions import reduction_from_spec
from gclab.words import Frozen

REPO = Path(__file__).parent.parent
DATA = REPO / "tests" / "data"


def _modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter has loaded after ``statement``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(result.stdout.split())


def test_importing_the_cli_loads_no_code_generation():
    added = _modules_after("import gclab.cli") - _modules_after("pass")
    assert "gclab.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_the_cli_parses_without_argparse():
    """The command table is parsed by hand: neither importing the CLI nor
    refusing a command line loads argparse, or the gettext and locale it
    loads for its messages."""
    refused = "gclab.cli.main(['verify', 'nu-sums', '--n-max', '-1'])"
    for statement in ("import gclab.cli", f"import gclab.cli\n{refused}"):
        added = _modules_after(statement) - _modules_after("pass")
        assert not {"argparse", "gettext", "locale"} & added, statement


def test_equal_fields_make_equal_records():
    ab = ("a", "b")
    assert Alphabet(ab) == Alphabet(ab) and hash(Alphabet(ab)) == hash((ab,))
    assert Alphabet(ab) != Alphabet(("b", "a")) and Alphabet(ab) != BINARY
    assert Polynomial((1, 2)) == Polynomial((1, 2))
    assert hash(Polynomial((1, 2))) == hash(((1, 2),))
    assert Polynomial((1, 2)) != Polynomial((1, 2, 0))
    m1, m2 = load_machine(DATA / "halt1.json"), load_machine(DATA / "halt1.json")
    assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
    assert m1 != load_machine(DATA / "loop.json")
    config = Configuration("q", ("0",), ())
    assert config == Configuration("q", ("0",), ()) and hash(config) == hash(("q", ("0",), ()))


def test_each_alphabet_is_one_object():
    assert Alphabet(tuple("01")) is BINARY and Alphabet(["0", "1"]) is BINARY
    assert Alphabet(("a", "b")) is Alphabet("ab") and Alphabet("ab") is not Alphabet("ba")
    assert load_machine(DATA / "halt1.json").tape_alphabet is BINARY
    assert ensemble_from_spec({"kind": "uniform", "alphabet": "01"}).alphabet is BINARY
    assert ensemble_from_spec({"kind": "table", "entries": {"": "1"}}).alphabet is BINARY
    assert reduction_from_spec({"kind": "identity", "alphabet": ["0", "1"]}).source is BINARY
    assert reduction_from_spec({"kind": "bin_alph", "sigma": "01"}).source is BINARY
    for symbols in ((), ("0", "0"), ("0", "")):
        with pytest.raises(ValueError):
            Alphabet(symbols)


@pytest.mark.parametrize("argv", [
    ["reduce", "universal", "tests/data/universal_bundle.json", "--n-max", "8"],
    ["verify", "cs", "tests/data/cs_fixture.json", "--n-max", "6"],
    ["reduce", "pipeline", "tests/data/toy_bundle.json", "--n-max", "4"],
], ids=lambda argv: " ".join(argv[:2]))
def test_commands_compare_alphabets_by_identity(argv, capsys, monkeypatch):
    """With one object per alphabet, no command calls ``Alphabet.__eq__``."""
    monkeypatch.chdir(REPO)
    calls = []
    value_eq = Frozen.__eq__

    def counting_eq(self, other):
        if isinstance(self, Alphabet):
            calls.append(other)
        return value_eq(self, other)

    monkeypatch.setattr(Frozen, "__eq__", counting_eq)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert len(calls) == 0


def _frozen_records():
    mu = UniformEnsemble(BINARY)
    guard = as_guard(Polynomial((1, 1)))
    f = identity_reduction(BINARY)
    return [
        (BINARY, "symbols"),
        (Polynomial((1, 1)), "coeffs"),
        (guard, "fn"),
        (load_machine(DATA / "halt1.json"), "states"),
        (VirtualMachine("v", lambda x, budget: None), "name"),
        (Configuration("q", (), ()), "state"),
        (RunResult("broke", steps=0), "kind"),
        (Violation("w", "1", "0"), "note"),
        (f, "func"),
        (DistributionalProblem("p", BINARY, lambda x: True, mu), "measure"),
        (BHStage(f, None, guard, mu), "prefix"),
    ]


@pytest.mark.parametrize("record, name", _frozen_records(),
                         ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_frozen_records_refuse_assignment(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is before


def test_mutable_defaults_are_fresh_per_instance():
    r1, r2 = CheckReport("c", 1), CheckReport("c", 1)
    assert r1.violations == [] and r1.violations is not r2.violations
    assert r1.details == {} and r1.details is not r2.details
    r1.add("0", 1, 0)
    assert len(r1.violations) == 1 and r2.passed
    assert DensitySequence().entries is not DensitySequence().entries
    assert ChainReport().stages is not ChainReport().stages
    evaluator = lambda x, budget: None  # noqa: E731
    v1, v2 = VirtualMachine("v", evaluator), VirtualMachine("v", evaluator)
    assert v1.definition == {} and v1.definition is not v2.definition


def test_keyword_construction():
    run = RunResult("budget", budget=5)
    assert (run.kind, run.steps, run.final, run.budget) == ("budget", None, None, 5)
    q = Fraction(1, 3)
    entry = SequenceEntry(3, q, mode="sampled", samples=8, seed=1)
    assert (entry.n, entry.value, entry.mode, entry.samples, entry.seed) == (3, q, "sampled", 8, 1)
    assert SequenceEntry(2, q).mode == "exact" and SequenceEntry(2, q).seed is None
    guard = LongevityGuard(lambda n: n + 1, form="n+1")
    stage = BHStage(identity_reduction(BINARY), None, guard, UniformEnsemble(BINARY))
    assert stage.prefix == "" and guard.form == "n+1" and guard(3) == 4
    report = CheckReport("c", 2, [Violation("w", "1", "0")], details={"k": 1})
    assert report.to_dict()["violations"] == [{"witness": "w", "expected": "1", "actual": "0"}]
    assert report.details == {"k": 1}
