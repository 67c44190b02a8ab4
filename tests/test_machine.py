import itertools
import json
import random
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import gclab.machine
import oracles
from gclab import BINARY, Alphabet, TuringMachine
from gclab.machine import (
    Configuration,
    MachineFormatError,
    NondeterministicRunError,
    RunResult,
    VirtualMachine,
    halts_within,
    _search_halting,
    _walk,
    cells_read,
    initial_configuration,
    load_machine,
    min_deciding_steps,
    min_halting_steps,
    run_deterministic,
    step,
)
from gclab.genericity import overrun_mass
from gclab.measure import UniformEnsemble, ensemble_from_spec
from oracles import Answer, AnswerDecodeError, decode_answer

DATA = Path(__file__).parent / "data"


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


def _count_steps(monkeypatch, cap: Optional[int] = None) -> list:
    """The configurations ``machine.step`` is called on from now on.
    Past ``cap`` calls it raises, so a search that would take its whole
    budget fails at once."""
    calls = []
    original = gclab.machine.step

    def counted(machine, config):
        calls.append(config)
        if cap is not None and len(calls) > cap:
            raise AssertionError(f"more than {cap} steps")
        return original(machine, config)

    monkeypatch.setattr(gclab.machine, "step", counted)
    return calls


def _fixture(name: str) -> TuringMachine:
    return load_machine(json.loads((DATA / f"{name}.json").read_text()))


def test_a_cycling_run_stops_early(monkeypatch):
    """The ping-pong machine revisits its configurations from step 2 on:
    the cycle check ends the run and the search long before the budget,
    with the verdict the budget gives.  No state of the fixture can
    reach its final state, so its run ends on the endless certificate
    without a step, and the walks run on its live variant, which halts
    only on a 2 that no input holds and no move writes."""
    live = _fixture("pingpong_live")
    assert live._live is live and not live._endless
    calls = _count_steps(monkeypatch, cap=64)
    assert not halts_within(live, live.tape_alphabet.word("0"), 10**9)
    assert 1 < len(calls) <= 64
    calls.clear()
    assert run_deterministic(live, live.tape_alphabet.word("0"), 10**9) == (
        RunResult("budget", budget=10**9))
    assert 0 < len(calls) <= 64


def test_a_translated_cycle_stops_early(monkeypatch):
    """The bouncer fixture drifts right and never revisits a
    configuration, so only the translated-cycle certificate ends the
    run and the search of its live variant early; at a budget within
    ``_CERTIFY_OVER`` the fixture's run walks the whole budget."""
    bouncer, live = _fixture("bouncer"), _fixture("bouncer_live")
    assert live._live is live and not live._endless
    calls = _count_steps(monkeypatch, cap=gclab.machine._CERTIFY_OVER)
    assert not halts_within(live, live.tape_alphabet.word("01"), 10**9)
    assert 1 < len(calls) < 100
    calls.clear()
    assert run_deterministic(live, live.tape_alphabet.word("01"), 10**9) == (
        RunResult("budget", budget=10**9))
    assert 0 < len(calls) < 100
    calls.clear()
    budget = gclab.machine._CERTIFY_OVER
    assert run_deterministic(bouncer, BINARY.word("01"), budget).kind == "budget"
    assert len(calls) == budget


def test_a_sweeper_walks_every_step(monkeypatch):
    """The sweeper fixture, the benchmark's sweeper family drawn from
    ``random.Random(4)``, grows its tape at both ends, so no cycle
    certificate ends a walk of it.  No state of the fixture can reach
    its final state, so its run ends on the endless certificate, and
    the walks run on its live variant: its run and its search at budget
    10**5 each call ``step`` once per step, 10**5 times.  At
    ``_CERTIFY_OVER`` the fixture's walk takes every step too.  So does
    the halting scanner's golden run on (01101)^240: 2,402 steps in
    2,402 ``step`` calls."""
    sweeper, live = _fixture("sweeper"), _fixture("sweeper_live")
    assert sweeper.to_canonical_dict() == oracles.sweeper(random.Random(4)).to_canonical_dict()
    assert live._live is live and not live._endless
    calls = _count_steps(monkeypatch)
    assert not halts_within(live, live.tape_alphabet.word("01"), 10**5)
    assert len(calls) == 10**5
    calls.clear()
    assert run_deterministic(live, live.tape_alphabet.word("01"), 10**5) == (
        RunResult("budget", budget=10**5))
    assert len(calls) == 10**5
    calls.clear()
    budget = gclab.machine._CERTIFY_OVER
    assert run_deterministic(sweeper, BINARY.word("01"), budget).kind == "budget"
    assert len(calls) == budget
    calls.clear()
    scanned = run_deterministic(_fixture("scanner"), BINARY.word("01101" * 240), 5000)
    assert (scanned.kind, scanned.steps) == ("halted", 2402)
    assert len(calls) == 2402


@pytest.mark.parametrize("name, x", [
    ("pingpong", "0"), ("bouncer", "01"), ("sweeper", "01"), ("loop", "0")])
def test_an_endless_run_ends_without_a_step(monkeypatch, name, x):
    """No state reachable from the initial one of the dead ``pingpong``,
    ``bouncer`` and ``sweeper`` fixtures, or of ``loop`` (the right mover
    of the benchmark's ``selfcheck.loop100``), is final or lacks a move,
    so over a budget of ``_CERTIFY_OVER`` a run ends at once with the
    budget verdict.  At ``_CERTIFY_OVER`` it walks: every step, but for
    the ping-pong's cycle, which Brent's check ends at any budget."""
    machine = _fixture(name)
    word = machine.tape_alphabet.word(x)
    assert machine._endless
    calls = _count_steps(monkeypatch)
    assert run_deterministic(machine, word, 10**9) == RunResult("budget", budget=10**9)
    assert calls == []
    budget = gclab.machine._CERTIFY_OVER
    assert run_deterministic(machine, word, budget) == RunResult("budget", budget=budget)
    assert 0 < len(calls) < budget if name == "pingpong" else len(calls) == budget


def _endless_variant(rng: random.Random, machine: TuringMachine, variant: int) -> TuringMachine:
    """``machine`` with every move into its final state q1 sent to a
    random other state, so q1 is unreachable unless it is initial, and
    then: 0, nothing more; 1, the blank move of a random state dropped;
    2, q1 made initial too; 3, a move into q1 added on a new tape symbol
    "z", which no move writes."""
    fields = dict(zip(machine._fields, machine._values))
    others = [q for q in machine.states if q != "q1"]
    table = [t[:2] + ((rng.choice(others),) if t[2] == "q1" else t[2:3]) + t[3:]
             for t in machine.transitions]
    if variant == 1:
        state = rng.choice(others)
        table = [t for t in table if t[:2] != (state, machine.blank)]
    elif variant == 2:
        fields["initial"] = "q1"
    elif variant == 3:
        fields["tape_alphabet"] = Alphabet(machine.tape_alphabet.symbols + ("z",))
        table.append((rng.choice(others), "z", "q1", machine.tape_alphabet.symbols[0], "R"))
    fields["transitions"] = tuple(table)
    return TuringMachine(**fields)


def test_endless_runs_match_tuple_oracle(monkeypatch):
    """On 320 seeded random machines without branching choices, on both
    tape modes, at budgets from 129 to 3,000, the run agrees with the
    tuple oracle's, which walks every step.  Most machines have their
    final state cut off (``_endless_variant``): a total one must end on
    the endless certificate without a step; one missing a blank move
    must often break, with the oracle's step count; one whose initial
    state is final halts at step 0; and one that can reach its final
    state only on a symbol the run never reads walks to the budget."""
    rng = random.Random(1936)
    calls = _count_steps(monkeypatch)
    seen = {"certified": 0, "broke": 0, "initial final": 0, "never entered": 0}
    for trial in range(320):
        kind = ("deterministic", "partial")[trial % 2]
        tape_mode = ("two-way", "one-end")[trial // 2 % 2]
        machine = _random_machine(rng, kind, tape_mode, size=2 + trial // 4 % 3)
        variant = trial // 8 % 5
        letters = machine.tape_alphabet.symbols  # without variant 3's "z"
        if variant < 4:
            machine = _endless_variant(rng, machine, variant)
        x = machine.tape_alphabet.word(rng.choices(letters, k=rng.randrange(7)))
        budget = rng.randrange(gclab.machine._CERTIFY_OVER + 1, 3001)
        expected = oracles.run_deterministic(machine, x, budget)
        calls.clear()
        assert run_deterministic(machine, x, budget) == expected, (trial, x)
        if machine._endless:
            assert expected.kind == "budget" and calls == [], (trial, x)
            seen["certified"] += 1
        elif variant == 1:
            seen["broke"] += expected.kind == "broke" and expected.steps > 0
        elif variant == 2:
            assert expected[:2] == ("halted", 0), (trial, x)
            seen["initial final"] += 1
        elif variant == 3:
            assert expected.kind != "halted", (trial, x)
            seen["never entered"] += expected.kind == "budget"
    assert min(seen.values()) >= 20, seen


def test_bouncers_are_certified_within_100_steps():
    """40 machines of the benchmark's bouncer family, each on a random
    input of every length up to 6, end their walks at budget 10**9 with
    the budget verdict in fewer than 100 steps; the tuple oracle walks
    each machine's last run 1,000 steps without a halt."""
    rng = random.Random(26)
    for _ in range(40):
        machine = oracles.bouncer(rng)
        for n in range(7):
            x = BINARY.word("".join(rng.choice("01") for _ in range(n)))
            kind, steps, _ = _walk(machine, initial_configuration(machine, x), 10**9)
            assert kind == "budget" and steps < 100, (machine.transitions, x)
        assert oracles.run_deterministic(machine, x, 1000).kind == "budget"


def test_translated_needs_the_trailing_end_out_of_reach():
    """The head can have gone back (elapsed - advance) // 2 cells, and
    those cells are compared; once that reaches the trailing end, the
    end may have moved and the cell counts no longer give the advance.
    Two-bit cells: the trailing half "11" at t1 and "1111" at t2."""
    ones, four = 0b0101, 0b01010101
    assert gclab.machine._translated(ones, four, 4, 2)  # back 1 of 2 cells
    assert not gclab.machine._translated(ones, four, 6, 2)  # back 2 of 2 cells
    assert not gclab.machine._translated(ones, 0b01010110, 4, 2)  # a cell differs
    assert not gclab.machine._translated(ones, ones, 2, 2)  # the head did not advance


def _oracle_walk(machine: TuringMachine, x, budget: int) -> set:
    """Every configuration of the run within ``budget``, stepped one by
    one with the tuple oracle and packed."""
    config = oracles.initial_configuration(machine, x)
    reached = {config}
    for _ in range(budget):
        succ = () if config.state == machine.final else oracles.step(machine, config)
        if not succ:
            break
        config = succ[0]
        if config in reached:
            break  # a run without branching choices repeats from here on
        reached.add(config)
    return {_pack(machine, c) for c in reached}


def test_certified_walks_match_tuple_oracle():
    """On 600 seeded random machines without branching choices, on both
    tape modes, at budgets from 129 to 3,000, the run, the halting search
    and the deciding search agree with the tuple oracle, which walks
    every step up to the budget.  Translated-cycle certificates must end
    many of those walks early, on both tape modes: before the oracle's
    walk halts, breaks, revisits a configuration or spends its budget."""
    rng = random.Random(1980)
    early = {"two-way": 0, "one-end": 0}
    for trial in range(600):
        kind = ("deterministic", "partial")[trial % 2]
        tape_mode = ("two-way", "one-end")[trial // 2 % 2]
        machine = _random_machine(rng, kind, tape_mode, size=2 + trial // 4 % 4)
        budget = rng.randrange(gclab.machine._CERTIFY_OVER + 1, 3001)
        x = machine.tape_alphabet.word(
            rng.choices(machine.tape_alphabet.symbols, k=rng.randrange(7)))
        expected = oracles.run_deterministic(machine, x, budget)
        assert run_deterministic(machine, x, budget) == expected, (trial, x)
        halted = expected.kind == "halted"
        assert min_halting_steps(machine, x, budget) == (expected.steps if halted else None)
        assert min_deciding_steps(machine, x, budget) == (
            oracles.min_deciding_steps(machine, x, budget) if halted else None), (trial, x)
        start = initial_configuration(machine, x)
        steps = _walk(machine, start, budget)[1]
        # early: the oracle's walk goes on past this one's end; a walk
        # reaches one configuration more than it steps
        early[tape_mode] += steps < budget and steps < len(
            _oracle_walk(machine, x, steps + 1)) - 1
    assert min(early.values()) >= 20, early


def test_seen_walks_read_what_the_full_walk_reads():
    """A walk that collects ``seen`` (``cells_read`` and the exact
    control sequences read it) may end on a certificate, yet reads as
    many cells, with the same verdict, as the tuple oracle's per-step
    walk to the budget, on bouncers, bouncers mirrored to drift left
    and random machines.  Certificates must end many of those walks
    early in each direction of drift.  The deciding search, which walks
    only the live part of the machine, gives the oracle's verdict and
    reads no cell the walk does not."""
    rng = random.Random(25)
    early = {"right": 0, "left": 0}
    for trial in range(400):
        if trial % 4 == 0:
            machine = oracles.bouncer(rng)
            if trial % 8:  # mirrored: every move's direction swapped
                fields = dict(zip(machine._fields, machine._values))
                fields["transitions"] = tuple(
                    t[:4] + ({"L": "R", "R": "L"}[t[4]],) for t in machine.transitions)
                machine = TuringMachine(**fields)
        else:
            tape_mode = ("two-way", "one-end")[trial % 2]
            machine = _random_machine(rng, ("deterministic", "partial")[trial // 2 % 2],
                                      tape_mode, size=2 + trial % 3)
        budget = rng.randrange(gclab.machine._CERTIFY_OVER + 1, 600)
        x = machine.tape_alphabet.word(
            rng.choices(machine.tape_alphabet.symbols, k=rng.randrange(7)))
        seen, searched = set(), set()
        kind, _, (_, _, right) = _walk(machine, initial_configuration(machine, x), budget, seen)
        assert (kind == "halted") == (oracles.min_halting_steps(machine, x, budget) is not None)
        assert min_deciding_steps(machine, x, budget, seen=searched) == \
            oracles.min_deciding_steps(machine, x, budget), (trial, x)
        reached = _oracle_walk(machine, x, budget)
        assert searched <= seen <= reached, (trial, x)
        assert cells_read(machine, seen, len(x)) == cells_read(machine, reached, len(x)), \
            (trial, x)
        if len(seen) < len(reached):  # a certificate ended the walk
            early["left" if right else "right"] += 1
    assert min(early.values()) >= 20, early


def _with_sweeps(rng: random.Random, machine: TuringMachine, pair: bool) -> TuringMachine:
    """``machine`` with about half its working states rewritten into sweep
    states: on every written symbol one move that stays in the state,
    writes a random symbol and goes one way.  The blank keeps its move.
    With ``pair``, q0 and s0 sweep right and left instead, and on the
    blank write and turn into each other, so a run on a two-way tape
    sweeps on to its budget."""
    symbols, blank = machine.tape_alphabet.symbols, machine.blank
    ways = {"q0": "R", "s0": "L"} if pair else {
        q: rng.choice("LR") for q in machine.states if q != machine.final and rng.random() < 0.5}
    table = [t for t in machine.transitions if t[0] not in ways or t[1] == blank and not pair]
    table += [(q, a, q, rng.choice(symbols), d) for q, d in ways.items() for a in symbols]
    if pair:
        table += [("q0", blank, "s0", rng.choice(symbols), "L"),
                  ("s0", blank, "q0", rng.choice(symbols), "R")]
    fields = dict(zip(machine._fields, machine._values))
    fields["transitions"] = tuple(table)
    return TuringMachine(**fields)


def test_sweeping_machines_match_tuple_oracle(monkeypatch):
    """On 200 seeded random machines without branching choices, some of
    whose states sweep, on both tape modes, with 2-7 tape symbols (cells
    2 and 3 bits wide), at budgets from 129 to 3,000 and on inputs of up
    to 8 symbols: the run (with a halting run's final tape), the halting
    search and the deciding search agree with the tuple oracle, which
    walks every step.  A walk that collects ``seen`` reaches only
    configurations of the oracle's walk of as many steps, and reads as
    many cells; it never steps past its budget.  Each walk calls
    ``step`` once per step, plus once when it breaks, on cells of either
    width."""
    rng = random.Random(1990)
    calls = _count_steps(monkeypatch)
    for trial in range(200):
        kind = ("deterministic", "partial")[trial % 2]
        tape_mode = ("two-way", "one-end")[trial // 2 % 2]
        size = (2, 3, 2, 3, 2, 3, 4, 5, 6, 7)[trial // 4 % 10]
        machine = _with_sweeps(rng, _random_machine(rng, kind, tape_mode, size), pair=trial % 3 == 2)
        budget = rng.randrange(gclab.machine._CERTIFY_OVER + 1, 3001)
        x = machine.tape_alphabet.word(
            rng.choices(machine.tape_alphabet.symbols, k=rng.randrange(9)))
        expected = oracles.run_deterministic(machine, x, budget)
        assert run_deterministic(machine, x, budget) == expected, (trial, x)
        halted = expected.kind == "halted"
        assert min_halting_steps(machine, x, budget) == (
            expected.steps if halted else None), (trial, x)
        assert min_deciding_steps(machine, x, budget) == (
            oracles.min_deciding_steps(machine, x, budget) if halted else None), (trial, x)
        seen = set()
        calls.clear()
        end, steps, _ = _walk(machine, initial_configuration(machine, x), budget, seen)
        assert steps <= budget, (trial, x)
        assert len(calls) == steps + (end == "broke"), (trial, x)
        reached = _oracle_walk(machine, x, steps)
        assert seen <= reached, (trial, x)
        assert cells_read(machine, seen, len(x)) == cells_read(machine, reached, len(x)), \
            (trial, x)


def test_the_live_part_drops_the_moves_into_dead_states(halt1, contains01_ntm):
    """A state is live when some path of moves leads from it to the final
    state.  A brancher has no live state but its final one, so its live
    part keeps no move.  A live brancher's c0 halts on a 2, and every
    other cycle state reaches c0 only along the cycle, so they are found
    only past the first backward pass: its live part keeps every move
    but those into "dead", with the states, alphabet and blank, and has
    one move per state and symbol.  A machine without dead states is its
    own live part."""
    for k in range(10):
        brancher = oracles.brancher(random.Random(k))
        assert brancher._live.transitions == ()
        machine = oracles.live_brancher(brancher)
        live = machine._live
        assert live.transitions == tuple(t for t in machine.transitions if t[2] != "dead")
        assert (live.states, live.tape_alphabet, live.blank) == (
            machine.states, machine.tape_alphabet, machine.blank)
        assert (machine.determinism, live.determinism) == ("nondeterministic", "partial")
    for machine in (halt1, contains01_ntm):
        assert machine._live is machine


def test_brancher_searches_end_at_once(monkeypatch):
    """At budget 10**9 the search of a brancher, whose initial state
    cannot reach the final state, calls ``step`` at most once: its live
    part breaks at step 0.  A live brancher's live part is walked, and a
    translated-cycle certificate ends the walk in fewer than 100 steps.
    A breadth-first search of either would take 10**9 steps, so ``step``
    raises past 1,000 calls.  The brancher fixture is the benchmark's
    brancher drawn from ``random.Random(1)``."""
    fixture = _fixture("brancher")
    assert fixture.to_canonical_dict() == oracles.brancher(random.Random(1)).to_canonical_dict()
    rng = random.Random(30)
    calls = _count_steps(monkeypatch, cap=1000)
    for brancher in [fixture] + [oracles.brancher(rng) for _ in range(10)]:
        for x in BINARY.ball(5):
            calls.clear()
            assert min_deciding_steps(brancher, x, 10**9) is None
            assert len(calls) <= 1, x
        machine = oracles.live_brancher(brancher)
        for x in BINARY.ball(5):
            calls.clear()
            assert min_deciding_steps(machine, machine.tape_alphabet.word(x.letters), 10**9) is None
            assert len(calls) < 100, x


def test_live_searches_match_tuple_oracle():
    """Searches run on the live part of a machine, yet return what the
    tuple oracle's breadth-first search of the whole machine returns.
    On 300 seeded nondeterministic and partial random machines, at
    budgets up to 10 (up to 200 for partial ones), and on 20 branchers
    and 20 live branchers at budgets past ``_CERTIFY_OVER``: the halting
    and deciding searches agree with the oracle's, and so does the
    block walk of ``overrun_mass`` under uniform, on spheres up to 4,
    with one oracle search per word.  Many random machines must have
    dead states (40 are branchers), and some of their searches must
    halt."""
    rng = random.Random(1979)
    trimmed = halting = 0
    for trial in range(340):
        if trial < 300:
            kind = ("nondeterministic", "partial")[trial % 2]
            machine = _random_machine(rng, kind, ("two-way", "one-end")[trial // 2 % 2],
                                      size=2 + trial // 4 % 3)
            budget = rng.randrange(11) if kind == "nondeterministic" else rng.randrange(200)
        else:
            machine = oracles.brancher(rng)
            if trial % 2:
                machine = oracles.live_brancher(machine)
            budget = rng.randrange(gclab.machine._CERTIFY_OVER + 1, 600)
        trimmed += machine._live is not machine
        for _ in range(3):
            x = machine.tape_alphabet.word(
                rng.choices(machine.tape_alphabet.symbols, k=rng.randrange(7)))
            found = _search_halting(machine, x, budget)
            assert found == oracles.min_halting_steps(machine, x, budget), (trial, x)
            assert min_deciding_steps(machine, x, budget) == \
                oracles.min_deciding_steps(machine, x, budget), (trial, x)
            halting += machine._live is not machine and found is not None
        if trial % 10 == 0 or trial >= 300:
            mu = UniformEnsemble(machine.tape_alphabet)
            for n in range(5 if mu.alphabet.size < 4 else 4):
                for bound in (n // 2, n + 2, budget):
                    assert overrun_mass(machine, mu, n, bound) == \
                        oracles.overrun_mass(machine, mu, n, bound), (trial, n, bound)
    assert trimmed >= 60 and halting >= 20, (trimmed, halting)


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


def _right_walker(halts_on_2: bool) -> TuringMachine:
    """A machine that writes 1 on every cell and walks right; it halts on
    a 2, which no move writes, when ``halts_on_2``, else never."""
    halt = (("r", "2", "h", "1", "R"),) if halts_on_2 else ()
    return TuringMachine(
        states=("r", "h"), initial="r", final="h", tape_alphabet=Alphabet("012"), blank="_",
        transitions=tuple(("r", a, "r", "1", "R") for a in ("0", "1", "_")) + halt,
    )


def test_cells_read_counts_the_cells_up_to_the_head():
    """A machine that only walks right has read cells 0..b after a
    search of budget b, and all n cells once its head reaches cell n.
    Its state can reach the final state, on a 2 that the input lacks,
    so the search walks the whole machine."""
    machine = _right_walker(halts_on_2=True)
    assert machine._live is machine
    x = machine.tape_alphabet.word("010110")
    for budget in range(10):
        seen = set()
        assert _search_halting(machine, x, budget, seen=seen) is None
        assert cells_read(machine, seen, len(x)) == min(budget + 1, len(x)), budget


def test_a_dead_machine_search_reads_one_cell():
    """Without its move into the final state, the right walker has no
    state that can reach it: its search drops every move, breaks at step
    0 and reads 1 cell of every non-empty input, at every budget.  That
    r is exact, as every input answers None."""
    machine = _right_walker(halts_on_2=False)
    assert machine._live.transitions == ()
    for budget in (0, 1, 9, 10**9):
        for x in machine.tape_alphabet.ball(4):
            seen = set()
            assert _search_halting(machine, x, budget, seen=seen) is None
            assert cells_read(machine, seen, len(x)) == min(1, len(x)), (budget, x)


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


def test_words_over_symbols_read_back_from_their_text():
    """``Alphabet.word`` reads the text ``Word.text`` writes over every
    alphabet drawn from ``SYMBOLS``: its characters when each symbol is
    one, its comma-separated symbols otherwise.  So a table ensemble
    keyed by that text weighs words longer than the empty one, and a
    symbol containing "," is refused where the comma separates."""
    rng = random.Random(28)
    for size in (1, 2, 3, 2, 3, 4):
        alphabet = Alphabet(rng.sample(SYMBOLS, size))
        for x in alphabet.ball(3):
            y = alphabet.word(x.text())
            assert y == x and y.letters == x.letters and y.text() == x.text()
    assert Alphabet(("ab", "c")).word("ab,c,c").letters == ("ab", "c", "c")
    table = ensemble_from_spec({"kind": "table", "alphabet": ["ab", "c"],
                                "entries": {"c": "1", "ab,c": "1"}})
    assert table.horizon == 2 and table.mass(Alphabet(("ab", "c")).word(("ab", "c"))) == 1
    for symbols in (("ab", ","), ("a,b", "c")):
        with pytest.raises(ValueError):
            Alphabet(symbols)
    assert Alphabet((",", "x")).word(",x").letters == (",", "x")


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


@pytest.mark.parametrize("delta", [(), (("q", "0", "q", "0", "R"), ("q", "0", "q", "1", "R"))],
                         ids=["no-move", "branching"])
def test_a_negative_budget_halts_nothing(delta):
    """A machine that starts in its final state halts in 0 steps: within
    every budget from 0 up, and within no negative one."""
    machine = TuringMachine(states=("q",), initial="q", final="q", tape_alphabet=BINARY,
                            blank="_", transitions=delta)
    for x in (BINARY.empty, BINARY.word("01")):
        assert [_search_halting(machine, x, b) for b in (-1, 0, 1)] == [None, 0, 0]


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
    loaded = load_machine(json.loads(path.read_text()))
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


def test_loader_reads_no_file():
    """The loader builds a machine from a parsed description only: a
    path, even of a machine file that exists, is not one."""
    path = DATA / "halt1.json"
    assert path.is_file()
    for source in (str(path), path, "tests/data/halt1.json", path.read_text()):
        with pytest.raises(MachineFormatError):
            load_machine(source)


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
