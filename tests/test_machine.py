import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gclab.machine
import oracles
from gclab import BINARY, TuringMachine
from gclab.machine import (
    Configuration,
    MachineFormatError,
    NondeterministicRunError,
    RunResult,
    VirtualMachine,
    halts_within,
    _search_halting,
    cells_read,
    initial_configuration,
    load_machine,
    min_deciding_steps,
    min_halting_steps,
    run_deterministic,
    step,
)
from oracles import Answer, AnswerDecodeError, decode_answer


def test_determinism_classification(halt1, find_zero, contains01_ntm):
    assert halt1.determinism == "deterministic"
    assert find_zero.determinism == "partial"
    assert contains01_ntm.determinism == "nondeterministic"


def test_step_singleton_for_deterministic(halt1):
    c = initial_configuration(halt1, BINARY.word("0"))
    succ = step(halt1, c)
    assert len(succ) == 1
    state, _, _ = succ[0]  # packed (state, left, right)
    assert state == "q1"


def test_step_empty_on_break(breaker):
    c = initial_configuration(breaker, BINARY.word("0"))
    assert step(breaker, c) == ()


def test_step_branches_on_ntm(contains01_ntm):
    c = initial_configuration(contains01_ntm, BINARY.word("01"))
    succ = step(contains01_ntm, c)
    assert len(succ) == 2
    assert {state for state, _, _ in succ} == {"q0", "q2"}


def test_run_deterministic_halt(halt1):
    result = run_deterministic(halt1, BINARY.word("0"), 10)
    assert result.kind == "halted" and result.steps == 1


def test_run_deterministic_budget(loop):
    result = run_deterministic(loop, BINARY.word("0"), 100)
    assert result.kind == "budget" and result.budget == 100


def test_run_deterministic_broke(breaker):
    result = run_deterministic(breaker, BINARY.word("0"), 10)
    assert result.kind == "broke" and result.steps == 0


def test_a_cycling_run_stops_early(monkeypatch):
    """The ping-pong machine revisits its configurations from step 2 on:
    the cycle check ends the run and the search long before the budget,
    with the verdict the budget gives."""
    pingpong = load_machine(str(Path(__file__).parent / "data" / "pingpong.json"))
    calls = []
    original = gclab.machine.step
    monkeypatch.setattr(gclab.machine, "step", lambda m, c: calls.append(c) or original(m, c))
    assert not halts_within(pingpong, BINARY.word("0"), 10**6)
    assert 0 < len(calls) <= 64
    calls.clear()
    assert run_deterministic(pingpong, BINARY.word("0"), 10**6) == (
        RunResult("budget", budget=10**6))
    assert 0 < len(calls) <= 64


def test_run_rejects_ntm(contains01_ntm):
    with pytest.raises(NondeterministicRunError):
        run_deterministic(contains01_ntm, BINARY.word("01"), 5)


def test_halts_within_branching():
    # branch A halts in 3 steps, branch B loops forever
    machine = TuringMachine(
        states=("q0", "qa", "qb", "qL", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "qa", "0", "R"),
            ("q0", "0", "qL", "0", "R"),
            ("qa", "1", "qb", "1", "R"),
            ("qb", "1", "q1", "1", "R"),
            ("qb", "_", "q1", "0", "R"),
            ("qL", "1", "qL", "1", "L"),
            ("qL", "0", "qL", "0", "L"),
            ("qL", "_", "qL", "0", "L"),
        ),
    )
    w = BINARY.word("011")
    assert halts_within(machine, w, 3)
    assert not halts_within(machine, w, 2)


def test_cells_read_counts_the_cells_up_to_the_head():
    """A machine that only walks right has read cells 0..b after a
    search of budget b, and all n cells once its head reaches cell n."""
    machine = TuringMachine(
        states=("r", "h"), initial="r", final="h", tape_alphabet=BINARY, blank="_",
        transitions=tuple(("r", a, "r", "1", "R") for a in ("0", "1", "_")),
    )
    x = BINARY.word("010110")
    for budget in range(10):
        seen = set()
        _search_halting(machine, x, budget, seen=seen)
        assert cells_read(machine, seen, len(x)) == min(budget + 1, len(x)), budget


def test_halts_within_break_and_zero_budget(breaker, halt1):
    for n in range(5):
        assert not halts_within(breaker, BINARY.word("0"), n)
    assert not halts_within(halt1, BINARY.word("0"), 0)


def test_min_halting_steps(halt1, loop, contains01_ntm):
    assert min_halting_steps(halt1, BINARY.word("1"), 10) == 1
    assert min_halting_steps(loop, BINARY.word("1"), 50) is None
    # two halting branches of different lengths: the minimum wins
    machine = TuringMachine(
        states=("q0", "qa", "qb1", "qb2", "qb3", "qb4", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "qa", "0", "R"),
            ("q0", "0", "qb1", "0", "R"),
            ("qa", "1", "qb2", "1", "R"),
            ("qb2", "1", "q1", "1", "R"),
            ("qb1", "1", "qb3", "0", "R"),
            ("qb3", "1", "qb4", "0", "R"),
            ("qb4", "_", "q1", "0", "R"),
        ),
    )
    assert min_halting_steps(machine, BINARY.word("011"), 10) == 3


def test_budget_monotonicity_on_random_small_machines():
    rng = random.Random(7)
    states = ("q0", "qa", "q1")
    reads = ("0", "1", "_")
    for trial in range(30):
        table = []
        for q in ("q0", "qa"):
            for a in reads:
                for q2, a2, d in rng.sample(
                    list(itertools.product(states, ("0", "1"), ("L", "R"))), k=rng.randrange(3)
                ):
                    table.append((q, a, q2, a2, d))
        machine = TuringMachine(
            states=states, initial="q0", final="q1",
            tape_alphabet=BINARY, blank="_", transitions=tuple(table),
        )
        for text in ("", "0", "10", "110"):
            w = BINARY.word(text)
            witnesses = [n for n in range(13) if halts_within(machine, w, n)]
            if witnesses:
                first = witnesses[0]
                assert witnesses == list(range(first, 13))


def test_deterministic_oracle_equivalence(halt1, loop_on_one, find_zero):
    for machine in (halt1, loop_on_one, find_zero):
        for n in range(6):
            for x in BINARY.sphere(n):
                result = run_deterministic(machine, x, 40)
                expected = result.steps if result.kind == "halted" else None
                assert min_halting_steps(machine, x, 40) == expected


# tape symbols for the random machines: single- and multi-character ones
SYMBOLS = ("0", "1", "ab", "c", "xyz", "d", "e")


def _random_machine(rng: random.Random, kind: str, tape_mode: str, size: int) -> TuringMachine:
    """A random table machine over ``size`` tape symbols, 3-5 states."""
    symbols = tuple(rng.sample(SYMBOLS, size))
    blank = rng.choice(("_", "B", "__"))
    return oracles.random_machine(rng, kind, tape_mode, symbols, blank, rng.randrange(1, 4))


def _pack(machine: TuringMachine, config: Configuration):
    codec = machine._codec
    return config.state, codec.pack(config.left[::-1]), codec.pack(config.right)


def test_packed_core_matches_tuple_oracle():
    """The packed stepper and search agree with the tuple stepper they
    replaced: minimal halting and deciding steps, every deterministic run
    (kind, steps, final state and tape) and the successors along a
    200-step walk, on 1,200 seeded random machines.  Some deciding
    searches must differ from their halting searches, so the packed
    answer test is compared with the tuple decoder where a DontKnow halt
    counts."""
    rng = random.Random(2016)
    halted = {"deterministic": 0, "partial": 0, "nondeterministic": 0}
    dont_know = 0
    widths = set()
    longest = 0
    for trial in range(1200):
        kind = ("deterministic", "partial", "nondeterministic")[trial % 3]
        tape_mode = ("two-way", "one-end")[trial // 3 % 2]
        machine = _random_machine(rng, kind, tape_mode, size=2 + trial // 6 % 6)
        widths.add(machine._codec.width)
        # the frontier of a nondeterministic search grows exponentially
        budget = rng.randrange(11) if machine.determinism == "nondeterministic" \
            else rng.randrange(200)
        for _ in range(3):
            x = machine.tape_alphabet.word(rng.choices(machine.tape_alphabet.symbols, k=rng.randrange(7)))
            found = _search_halting(machine, x, budget)
            assert found == oracles.min_halting_steps(machine, x, budget), (trial, x)
            deciding = min_deciding_steps(machine, x, budget)
            assert deciding == oracles.min_deciding_steps(machine, x, budget), (trial, x)
            dont_know += machine.has_answer_convention and deciding != found
            if machine.determinism != "nondeterministic":
                result = run_deterministic(machine, x, budget)
                assert result == oracles.run_deterministic(machine, x, budget), (trial, x)
            halted[machine.determinism] += found is not None
        # a 200-step walk along the first successor, so that long tapes,
        # which rarely halt, are compared too: the successors' states at
        # every step, their whole tapes at every 16th step and at the end
        packed, config = initial_configuration(machine, x), oracles.initial_configuration(machine, x)
        for i in range(200):
            succ, expected = step(machine, packed), oracles.step(machine, config)
            assert [c[0] for c in succ] == [c.state for c in expected], (trial, i)
            if i % 16 == 0:
                assert succ == tuple(_pack(machine, c) for c in expected), (trial, i)
            if not succ:
                break
            packed, config = succ[0], expected[0]
        assert machine._codec.snapshot(packed) == config, trial
        longest = max(longest, len(config.left) + len(config.right))
    assert widths == {2, 3}
    assert min(halted.values()) >= 100, halted
    assert dont_know > 0
    assert longest >= 100


def test_one_end_tape_mode():
    # keeps head position on a left move at the edge; two-way grows a blank
    base = dict(
        states=("q0", "qa", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "qa", "1", "L"),
            ("qa", "1", "q1", "1", "R"),
            ("qa", "_", "q1", "0", "R"),
        ),
    )
    one_end = TuringMachine(**base, tape_mode="one-end")
    result = run_deterministic(one_end, BINARY.word("0"), 10)
    assert result.kind == "halted"
    assert result.final.left == ("1",)  # stayed on the rewritten cell
    two_way = TuringMachine(**base, tape_mode="two-way")
    result2 = run_deterministic(two_way, BINARY.word("0"), 10)
    assert result2.kind == "halted"
    assert result2.final.left == ("0",)  # visited the blank to the left


def test_decode_answer(answer_machine):
    yes = run_deterministic(answer_machine, BINARY.word("1"), 10)
    no = run_deterministic(answer_machine, BINARY.word("0"), 10)
    dk = run_deterministic(answer_machine, BINARY.empty, 10)
    assert decode_answer(answer_machine, yes.final) is Answer.YES
    assert decode_answer(answer_machine, no.final) is Answer.NO
    assert decode_answer(answer_machine, dk.final) is Answer.DONT_KNOW


def test_decode_answer_errors(answer_machine):
    with pytest.raises(AnswerDecodeError):
        decode_answer(answer_machine, Configuration("q0", (), ("1", "1")))
    with pytest.raises(AnswerDecodeError):
        decode_answer(answer_machine, Configuration("q1", ("0",), ("1", "1")))
    with pytest.raises(AnswerDecodeError):
        decode_answer(answer_machine, Configuration("q1", (), ("1",)))


def test_min_deciding_steps_skips_dont_know(answer_machine):
    # the empty input halts with DontKnow: deciding time is infinite
    assert min_halting_steps(answer_machine, BINARY.empty, 10) == 2
    assert min_deciding_steps(answer_machine, BINARY.empty, 10) is None
    assert min_deciding_steps(answer_machine, BINARY.word("1"), 10) == 2


def test_virtual_machine_monotonicity():
    def evaluator(w, budget):
        needed = len(w) + 1
        return needed if budget >= needed else None

    vm = VirtualMachine(name="len+1", evaluator=evaluator)
    for text in ("", "0", "0110"):
        w = BINARY.word(text)
        for b in range(12):
            r = min_halting_steps(vm, w, b)
            if r is not None:
                assert min_halting_steps(vm, w, 2 * b) == r


@settings(max_examples=60)
@given(st.text(alphabet="01", max_size=6), st.integers(0, 8))
def test_vm_budget_doubling_property(text, budget):
    def evaluator(w, b):
        needed = 2 * len(w)
        return needed if b >= needed else None

    vm = VirtualMachine(name="2len", evaluator=evaluator)
    w = BINARY.word(text)
    first = _search_halting(vm, w, budget)
    if first is not None:
        assert _search_halting(vm, w, 2 * budget) == first


def test_search_rejects_an_evaluator_past_its_budget():
    """A virtual machine's result counts only if its steps fit the
    budget: an evaluator that claims one step more than it was given
    does not halt within that budget."""
    vm = VirtualMachine(name="over", evaluator=lambda w, b: b + 1)
    for b in range(4):
        assert _search_halting(vm, BINARY.empty, b) is None
        assert not halts_within(vm, BINARY.empty, b)


def test_loader_roundtrip(tmp_path, find_zero):
    payload = {
        "states": ["q0", "q1"],
        "initial": "q0",
        "final": "q1",
        "tape_alphabet": ["0", "1"],
        "blank": "_",
        "tape": "two-way",
        "delta": [["q0", "0", "q1", "0", "R"], ["q0", "1", "q0", "1", "R"]],
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(payload))
    loaded = load_machine(str(path))
    assert loaded.determinism == "partial"
    assert loaded.to_canonical_dict()["delta"] == find_zero.to_canonical_dict()["delta"]


@pytest.mark.parametrize("source", [
    "5",
    "[1]",
    {"delta": 5},
    {"tape_alphabet": ["0", "0"]},
    {"tape_alphabet": 7},
    {"yes_symbol": "1", "no_symbol": "1"},  # no halt could answer Yes or No
    {"yes_symbol": "1"},  # answer symbols come in pairs
    {"no_symbol": "0"},
])
def test_loader_fails_closed(halt1, source):
    if isinstance(source, dict):  # a change to an otherwise valid table
        source = {**halt1.to_canonical_dict(), **source}
    with pytest.raises(MachineFormatError):
        load_machine(source)


def test_loader_reads_long_json_text(halt1):
    table = halt1.to_canonical_dict()
    text = json.dumps(table) + " " * 5000  # far too long for a file name
    assert load_machine(text).to_canonical_dict() == table


def test_loader_validates():
    with pytest.raises(MachineFormatError):
        load_machine({
            "states": ["q0"], "initial": "q0", "final": "q1",
            "tape_alphabet": ["0", "1"], "blank": "_", "delta": [],
        })
    with pytest.raises(MachineFormatError):
        load_machine({
            "states": ["q0", "q1"], "initial": "q0", "final": "q1",
            "tape_alphabet": ["0", "1"], "blank": "_",
            "delta": [["q0", "0", "q1", "_", "R"]],  # writes the blank
        })
