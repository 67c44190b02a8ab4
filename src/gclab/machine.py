"""One-tape Turing machines, deterministic and nondeterministic.

Machines are immutable descriptions.  Stepping, bounded halting search
and deterministic runs are pure functions of (machine, input, budget),
so machines and configurations can be shared freely across threads.

Inside this module a configuration is a plain tuple ``(state, left,
right)`` whose tape halves are each one Python ``int``.  The blank is
digit 0 and the i-th tape symbol digit i, every digit ``width`` bits
wide (``k.bit_length()`` for k tape symbols); each half keeps the cell
next to the head in its low bits, and ``right`` starts with the cell
under the head.  A step is then a few shifts and masks, and the blanks
at either far end are leading zeros, so every configuration is trimmed
by construction: equal tuples are equal machine states.  The
``Configuration`` of symbol tuples is only a snapshot, decoded for a
deterministic run's final configuration alone.  A search returns only
its halting steps, and under the answer convention a halting
configuration answers DontKnow exactly when its left half is 0 and the
digit under the head is the no-marker's (``min_deciding_steps``).

Halting time of a nondeterministic machine is taken to be the minimum
number of steps over halting computations; consequently
``halts_within(M, w, n)`` is exactly ``min_halting_steps(M, w, n) is not
None``.  Bounded search over the configuration tree prunes a
configuration only when it reappears with a residual budget no larger
than one it has already been explored with (breadth-first order makes
the first visit the most generous one).  A search runs on the live
part of its machine (``TuringMachine._live``), without the moves into
states that cannot reach the final state, which no halting computation
takes.  A machine with at most one move per (state, read symbol) has a
single run, which deterministic runs, and searches whose live part is
such a machine, walk without storing configurations; two certificates
of a run that never halts nor breaks end that walk early with the
verdict an exhausted budget would give.  Over a budget of
``_CERTIFY_OVER`` steps a deterministic run does not walk at all when
its machine is endless (``TuringMachine._endless``): found forward from
the initial state, as the live part is found backward from the final
one, no reachable state is final or lacks a move on some read symbol,
so no run halts or breaks.  Searches, which hand ``cells_read`` what
they reach, still walk.  A run that revisits a configuration repeats
forever (Brent's cycle check, Brent 1980).  A run that comes back to
one state with the head on a blank, only blanks ahead of it and the
cells it went back over unchanged, but the head further along the
tape, repeats forever shifted (a translated cycle; the bbchallenge.org
deciders of that name, after Marxen and Buntrock 1990, "Attacking the
Busy Beaver 5").  Since the blank is never written, the half of the tape
trailing the head has a non-blank digit per cell, so both tests are
compares of packed integers (``_walk``).  A walk that records every
configuration it reaches (``cells_read``) takes both too.

Besides transition-table machines there are "virtual" machines: a host
procedure that is itself a halting search, mapping (input word, step
budget) to its halting steps or None under a declared, reproducible
step accounting.  The constructions around the bounded halting problem
are realized as virtual machines.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Union

from .words import Alphabet, Frozen, Word

LEFT = "L"
RIGHT = "R"


class MachineFormatError(ValueError):
    """A machine description violates a structural invariant."""


class NondeterministicRunError(ValueError):
    """run_deterministic was handed a machine with branching choices."""


class Configuration(NamedTuple):
    """A machine snapshot: state, tape left of the head, tape from the head on.

    Both sides are tape-symbol tuples read left to right, without the
    blanks beyond either far end, so equal snapshots denote equal machine
    states.  The head reads the first symbol of ``right``, or the blank
    when ``right`` is empty.  Runs and searches work on packed tuples
    (see the module docstring); only a deterministic run's final
    configuration is decoded to this snapshot.
    """

    state: str
    left: tuple[str, ...]
    right: tuple[str, ...]


# (state, left half, right half): the packed working configuration
Packed = tuple[str, int, int]


class _TapeCodec:
    """Tape halves as integers, ``width`` bits per cell: the blank is
    digit 0 and the i-th tape symbol digit i, with the cell next to the
    head in the low bits."""

    def __init__(self, blank: str, symbols: tuple[str, ...]):
        self.width = len(symbols).bit_length()
        self.mask = (1 << self.width) - 1
        self.digit = {s: i for i, s in enumerate((blank,) + symbols)}
        self._bits = {s: format(i, f"0{self.width}b") for s, i in self.digit.items()}
        self._cell = {bits: s for s, bits in self._bits.items()}

    def pack(self, cells: tuple[str, ...]) -> int:
        """The half whose cells, from the head outward, are ``cells``."""
        return int("".join(map(self._bits.__getitem__, reversed(cells))) or "0", 2)

    def _unpack(self, half: int) -> tuple[str, ...]:
        """The cells of a half from its far end to the head."""
        if not half:
            return ()
        bits = format(half, "b")
        bits = "0" * (-len(bits) % self.width) + bits
        digits = map("".join, zip(*[iter(bits)] * self.width))  # width-bit chunks
        return tuple(map(self._cell.__getitem__, digits))

    def snapshot(self, config: Packed) -> Configuration:
        state, left, right = config
        return Configuration(state, self._unpack(left), self._unpack(right)[::-1])


class RunResult(NamedTuple):
    """Outcome of a deterministic run (``run_deterministic``) on one input.

    kind is one of "halted" (reached the final state, with an exact step
    count), "broke" (no transition applied), or "budget" (the step budget
    ran out first).
    """

    kind: str
    steps: Optional[int] = None
    final: Optional[Configuration] = None
    budget: Optional[int] = None


class TuringMachine(Frozen):
    """A one-tape machine given by its transition table.

    Transitions are 5-tuples (state, read, state', write, direction) with
    read over the tape alphabet plus the blank, write over the tape
    alphabet only, and direction L or R.  With ``tape_mode="two-way"``
    (the default) the tape is infinite on both ends; with "one-end" a
    left move at the left edge leaves the head in place.

    ``yes_symbol``/``no_symbol`` optionally designate which two symbols
    play the answer-marker roles for deciders; machines that merely
    accept by halting leave them unset.  They are two distinct tape
    symbols, set together or not at all.
    """

    _fields = ("states", "initial", "final", "tape_alphabet", "blank", "transitions",
               "tape_mode", "yes_symbol", "no_symbol")

    def __init__(self, states: tuple[str, ...], initial: str, final: str,
                 tape_alphabet: Alphabet, blank: str,
                 transitions: tuple[tuple[str, str, str, str, str], ...],
                 tape_mode: str = "two-way", yes_symbol: Optional[str] = None,
                 no_symbol: Optional[str] = None) -> None:
        self._set(states, initial, final, tape_alphabet, blank, transitions,
                  tape_mode, yes_symbol, no_symbol)
        if self.tape_alphabet.size < 2:
            raise MachineFormatError("tape alphabet needs at least 2 symbols")
        if self.blank in self.tape_alphabet:
            raise MachineFormatError("blank must not be a tape-alphabet symbol")
        if len(set(self.states)) != len(self.states):
            raise MachineFormatError("duplicate state names")
        for q in (self.initial, self.final):
            if q not in self.states:
                raise MachineFormatError(f"state {q!r} not declared")
        if self.tape_mode not in ("two-way", "one-end"):
            raise MachineFormatError(f"unknown tape mode {self.tape_mode!r}")
        reads = set(self.tape_alphabet.symbols) | {self.blank}
        for t in self.transitions:
            if len(t) != 5:
                raise MachineFormatError(f"malformed transition {t!r}")
            q, a, q2, a2, d = t
            if q not in self.states or q2 not in self.states:
                raise MachineFormatError(f"transition {t!r} references unknown state")
            if a not in reads:
                raise MachineFormatError(f"transition {t!r} reads unknown symbol")
            if a2 not in self.tape_alphabet:
                raise MachineFormatError(f"transition {t!r} must write a tape symbol")
            if d not in (LEFT, RIGHT):
                raise MachineFormatError(f"transition {t!r} has bad direction")
        for marker in (self.yes_symbol, self.no_symbol):
            if marker is not None and marker not in self.tape_alphabet:
                raise MachineFormatError(f"answer symbol {marker!r} not in alphabet")
        if (self.yes_symbol is None) != (self.no_symbol is None):
            raise MachineFormatError("answer symbols come in pairs: set both or neither")
        if self.yes_symbol is not None and self.yes_symbol == self.no_symbol:
            raise MachineFormatError(f"yes and no answer symbols are both {self.yes_symbol!r}")

    @cached_property
    def _codec(self) -> _TapeCodec:
        return _TapeCodec(self.blank, self.tape_alphabet.symbols)

    @cached_property
    def _delta(self) -> dict[tuple[str, int], tuple[tuple[str, int, str], ...]]:
        """(state, read digit) -> its moves (state', written digit, direction)."""
        digit = self._codec.digit
        table: dict[tuple[str, int], list[tuple[str, str, str]]] = {}
        for q, a, q2, a2, d in self.transitions:
            table.setdefault((q, digit[a]), []).append((q2, a2, d))
        # deterministic iteration order for searches: sorted by symbol text
        return {
            k: tuple((q2, digit[a2], d) for q2, a2, d in sorted(set(v)))
            for k, v in table.items()
        }

    @cached_property
    def _live(self) -> TuringMachine:
        """The machine without its moves into dead states, found backward
        from ``final`` to a fixpoint as an automaton's useless states are
        (Hopcroft, Motwani and Ullman 7.1), or itself when none is dead."""
        live, size = {self.final}, 0
        while size < len(live):
            size = len(live)
            live.update(q for q, _, q2, _, _ in self.transitions if q2 in live)
        kept = tuple(t for t in self.transitions if t[2] in live)
        if len(kept) == len(self.transitions):
            return self
        return TuringMachine(**dict(zip(self._fields, self._values), transitions=kept))

    @cached_property
    def _endless(self) -> bool:
        """Whether no run can halt or break: found forward from
        ``initial`` to a fixpoint, no reachable state is ``final`` or
        lacks a move on some read digit, the blank included."""
        reached, size = {self.initial}, 0
        while size < len(reached):
            size = len(reached)
            reached.update(m[0] for (q, _), moves in self._delta.items() if q in reached
                           for m in moves)
        reads = range(len(self._codec.digit))
        return self.final not in reached and all(
            (q, a) in self._delta for q in reached for a in reads)

    @cached_property
    def determinism(self) -> str:
        """"deterministic" (total function), "partial" (at most one choice
        everywhere, but not total), or "nondeterministic"."""
        if any(len(v) > 1 for v in self._delta.values()):
            return "nondeterministic"
        reads = range(len(self._codec.digit))
        total = all((q, a) in self._delta for q in self.states for a in reads)
        return "deterministic" if total else "partial"

    @property
    def has_answer_convention(self) -> bool:
        return self.yes_symbol is not None and self.no_symbol is not None

    def to_canonical_dict(self) -> dict:
        """A canonical JSON-able description; equal behaviour-defining data
        yields byte-equal serializations."""
        return {
            "blank": self.blank,
            "delta": sorted(list(t) for t in set(self.transitions)),
            "final": self.final,
            "initial": self.initial,
            "no_symbol": self.no_symbol,
            "states": sorted(self.states),
            "tape": self.tape_mode,
            "tape_alphabet": list(self.tape_alphabet.symbols),
            "yes_symbol": self.yes_symbol,
        }


# A halting search: (input word, step budget) to the least halting
# steps, or None when nothing halts within the budget.
Search = Callable[[Word, int], Optional[int]]


class VirtualMachine(Frozen):
    """A machine realized by a host procedure instead of a table.

    The evaluator is the machine's halting search.  On every input word
    and budget it returns its halting steps, at most the budget, or
    None; it never raises, and steps it returns at budget b it returns
    at every budget >= b.  The step accounting is declared by the
    construction that builds the machine.

    ``definition`` is a JSON-able description sufficient to identify the
    machine for encoding purposes.
    """

    _fields = ("name", "evaluator", "definition")

    def __init__(self, name: str, evaluator: Search, definition: Optional[dict] = None) -> None:
        self._set(name, evaluator, {} if definition is None else definition)


Machine = Union[TuringMachine, VirtualMachine]


def initial_configuration(machine: TuringMachine, x: Word) -> Packed:
    """The packed configuration (initial, empty, x)."""
    if x.alphabet is not machine.tape_alphabet:
        raise MachineFormatError("input word is over the wrong alphabet")
    return machine.initial, 0, machine._codec.pack(x.letters)


def step(machine: TuringMachine, config: Packed) -> tuple[Packed, ...]:
    """Every packed configuration reachable from ``config`` in one step.

    Empty exactly when the machine breaks (no transition matches).  Runs
    and searches never expand configurations at the final state, but the
    step relation itself is oblivious to halting.  Distinct moves give
    distinct successors: moves in one direction differ in the state or
    the digit written, and a right and a left move leave the written
    non-blank digit on opposite sides of the head.
    """
    state, left, right = config
    codec = machine._codec
    w, mask = codec.width, codec.mask
    rest = right >> w
    out = []
    for q2, a2, d in machine._delta.get((state, right & mask), ()):
        if d == RIGHT:
            out.append((q2, left << w | a2, rest))
        elif left:
            out.append((q2, left >> w, (rest << w | a2) << w | left & mask))
        elif machine.tape_mode == "two-way":
            out.append((q2, 0, (rest << w | a2) << w))
        else:  # one-end tape: left move at the edge keeps the head in place
            out.append((q2, 0, rest << w | a2))
    return tuple(out)


# It gates both shortcuts: over this budget a walk tries translated-cycle
# certificates, and a run of an endless machine (``TuringMachine._endless``)
# ends without a step.  Keep it over 100: ``perfbench/run.py``'s self-check
# ``selfcheck.loop100`` pins 100 ``step`` calls on a run at budget 100 of a
# right mover, which is endless and which a translated cycle ends at step 2
# (ROADMAP item 2).
_CERTIFY_OVER = 128


def _translated(first: int, last: int, elapsed: int, width: int) -> bool:
    """Whether two times ``elapsed`` steps apart, in one state and both
    with the head on a blank and only blanks ahead of it, certify a
    translated cycle; ``first`` and ``last`` are the half of the tape
    trailing the head at the two times (see ``_walk``)."""
    cells = -(-first.bit_length() // width)
    ahead = -(-last.bit_length() // width) - cells
    back = (elapsed - ahead) // 2  # the farthest the head can have gone back
    return 0 < ahead and back < cells and not (first ^ last) & ((1 << back * width) - 1)


def _walk(
    machine: TuringMachine, config: Packed, budget: int, seen: Optional[set[Packed]] = None
) -> tuple[str, int, Packed]:
    """Follow the one run of a machine without branching choices from
    ``config``: (kind, steps, last configuration), kind being a
    ``RunResult`` kind.  A run that revisits a configuration repeats
    forever, never halting nor breaking, so it stops early as "budget";
    Brent's check finds the repeat in O(1) memory by comparing each
    configuration with a mark moved to the current one whenever the
    steps since the last move reach a power of two (Brent 1980, "An
    improved Monte Carlo factorization algorithm").  ``seen``, when
    given, receives every configuration the run reaches up to its end.

    A walk with a budget over ``_CERTIFY_OVER`` also stops a run that
    repeats shifted along the tape (a translated cycle, as the
    bbchallenge.org deciders of that name find; Marxen and Buntrock
    1990, "Attacking the Busy Beaver 5").  Take two times t1 <
    t2 in one state, each with the head on a blank and only blanks ahead
    of it: ``right == 0`` for a run drifting right, or ``left == 0`` and
    a blank under the head for one drifting left.  Every digit of the
    other, trailing half (without the head's cell) is a written, so
    non-blank, cell.  Let the head be d > 0 cells further ahead at t2.
    It moves one cell per step, so in the t2 - t1 steps between it went
    back at most k = (t2 - t1 - d) // 2 cells behind where it was at t1.
    If k is less than the cells of the trailing half at t1, the head
    never reached the trailing end: that end stayed put, and the digit
    counts of the trailing halves give d.  If then the k cells behind
    the head agree at t1 and t2 (one masked XOR, ``_translated``), the
    run from t2 is the run from t1 shifted by d cells, so it never
    halts nor breaks, and ends as "budget".  The anchor t1 is the first
    such time after each Brent mark, and nothing is tracked per step.
    On a one-end tape the head stays off the edge, and the left drift
    never applies: the cell at the edge is written as the head first
    leaves it.  ``cells_read`` stays exact under either certificate (see
    there)."""
    final = machine.final
    width, mask = machine._codec.width, machine._codec.mask
    mark, power, lag, anchor = config, 1, 0, None
    steps = 0
    if seen is not None:
        seen.add(config)
    while True:
        if config[0] == final:
            return "halted", steps, config
        if steps >= budget:
            return "budget", steps, config
        succ = step(machine, config)  # the module global, so tracers see each step
        if not succ:
            return "broke", steps, config
        config = succ[0]
        steps += 1
        if seen is not None:
            seen.add(config)
        if config == mark:
            return "budget", steps, config
        lag += 1
        if lag == power:
            mark, power, lag, anchor = config, power * 2, 0, None
        if budget <= _CERTIFY_OVER:
            continue
        state, left, right = config
        if left and right:
            continue  # written cells on both sides: no blank end under the head
        if not right:
            drift, trail = 1, left  # drifting right: the left half trails
        elif not right & mask:
            drift, trail = -1, right >> width  # drifting left: the right half trails
        else:
            continue
        if anchor is None:
            anchor = state, drift, trail, steps
        if anchor[:2] == (state, drift) and _translated(anchor[2], trail, steps - anchor[3], width):
            return "budget", steps, config


def run_deterministic(machine: TuringMachine, x: Word, budget: int) -> RunResult:
    """Run a (possibly partial) deterministic machine from (initial, empty, x).

    A run that cycles, or over a budget of ``_CERTIFY_OVER`` steps
    repeats shifted along the tape (see ``_walk``), is cut short and
    reported as running out of budget, which it would do at any budget.
    Over that budget a run of an endless machine (``_endless``) is not
    walked at all, once the machine and the input are checked.  That
    result carries neither steps nor a configuration, so it is the one
    the whole budget gives."""
    if machine.determinism == "nondeterministic":
        raise NondeterministicRunError("run needs a deterministic machine; use halts")
    start = initial_configuration(machine, x)
    if budget > _CERTIFY_OVER and machine._endless:
        return RunResult("budget", budget=budget)
    kind, steps, config = _walk(machine, start, budget)
    if kind == "halted":
        return RunResult("halted", steps, machine._codec.snapshot(config))
    if kind == "broke":
        return RunResult("broke", steps)
    return RunResult("budget", budget=budget)


def _search_halting(
    machine: Machine,
    x: Word,
    budget: int,
    *,
    accept: Optional[Callable[[Packed], bool]] = None,
    seen: Optional[set[Packed]] = None,
) -> Optional[int]:
    """Least steps within ``budget`` after which some computation halts
    in an accepted configuration, or None when none does.

    Virtual machines are asked once, through their evaluator, whose
    steps are returned unless they exceed ``budget``; ``accept`` does
    not apply to them.  A table machine is searched on its live part
    (``TuringMachine._live``), which halts as it does.  A live part with
    at most one move per (state, read symbol) has one run, which is
    walked (see ``_walk``): nothing is stored but ``seen``, and a run
    that cycles, or over a budget of ``_CERTIFY_OVER`` steps repeats
    shifted along the tape (a translated cycle), ends early with the
    verdict the budget would give: None, as it never halts.  Other live
    parts get a breadth-first search of the configuration tree for the
    earliest accepted halting configuration.  A configuration is
    re-expanded only if seen with a strictly larger residual budget than
    before; BFS visits each configuration with its maximal residual
    first, so a plain first-visit set of packed configurations is exact.
    ``accept``, when given, reads each packed halting configuration (the
    answer convention tests its left half and the digit under the head);
    without it every halting configuration counts.  ``seen``, when given,
    receives every packed configuration the search generates (see
    ``cells_read``).
    """
    if budget < 0:
        return None
    if isinstance(machine, VirtualMachine):
        steps = machine.evaluator(x, budget)
        return steps if steps is not None and steps <= budget else None
    start = initial_configuration(machine, x)
    machine = machine._live
    if machine.determinism != "nondeterministic":
        kind, steps, config = _walk(machine, start, budget, seen)
        if kind == "halted" and (accept is None or accept(config)):
            return steps
        return None
    final = machine.final
    if seen is None:
        seen = set()
    seen.add(start)
    frontier = [start]
    depth = 0
    while frontier and depth <= budget:
        for config in frontier:
            if config[0] == final and (accept is None or accept(config)):
                return depth
        if depth == budget:
            break
        nxt: list[Packed] = []
        for config in frontier:
            if config[0] == final:
                continue  # halted: the computation ends here
            for succ in step(machine, config):
                size = len(seen)
                seen.add(succ)  # one hash: the set grows only for a new one
                if len(seen) > size:
                    nxt.append(succ)
        frontier = nxt
        depth += 1
    return None


def min_halting_steps(machine: Machine, w: Word, budget: int) -> Optional[int]:
    """Least n <= budget such that some computation halts within n steps."""
    return _search_halting(machine, w, budget)


def halts_within(machine: Machine, w: Word, n: int) -> bool:
    """True iff some computation path reaches the final state within n steps."""
    return min_halting_steps(machine, w, n) is not None


def min_deciding_steps(
    machine: Machine, w: Word, budget: int, *, seen: Optional[set[Packed]] = None
) -> Optional[int]:
    """Like min_halting_steps, but halting runs that answer DontKnow do
    not count (their time is infinite).  Under the answer convention a
    halting configuration answers DontKnow exactly when its left half is
    0 and the digit under the head (``right & mask``) is the no-marker's.
    Every other one stops: Yes (two yes-markers from the head), No (a
    yes-marker, then a no-marker) and every tape matching neither.
    Machines without an answer convention decide by halting.  ``seen``
    is handed to the search (see ``cells_read``)."""
    accept = None
    if isinstance(machine, TuringMachine) and machine.has_answer_convention:
        mask, dont_know = machine._codec.mask, machine._codec.digit[machine.no_symbol]

        def accept(config: Packed) -> bool:
            _, left, right = config
            return left != 0 or right & mask != dont_know

    return _search_halting(machine, w, budget, accept=accept, seen=seen)


def cells_read(machine: TuringMachine, seen: set[Packed], n: int) -> int:
    """How many leading cells r of a length-n input a search read, from the
    configurations it generated (``seen``): every input that shares those
    r cells gets the same search and the same answer.

    The head starts on cell 0 and moves one cell per step, and input
    letters and written symbols are never blank.  So until the head
    first steps onto cell n, the right half of a configuration holds
    exactly the c cells from the head to cell n - 1, and the search has
    read the n + 1 - c cells up to the head; on cell n the right half is
    empty and every cell is read.  The least c over the generated
    configurations therefore gives r, and it is the c of the least
    right half, since a half with fewer cells is a smaller integer.
    Counting a configuration that was generated but never expanded can
    only make r larger, which is safe.  The answer convention's test
    reads only whether the left half is 0 and the digit under the head,
    so a halting configuration reads nothing more.

    A search of the live part of a machine may read fewer cells than one
    of the whole machine; r is still exact, as inputs that share those r
    cells get the same search of the live part, whose answer is the
    whole machine's.  A walk that ends early on a certificate misses no
    smaller right half: a cycle only revisits, a run drifting right is
    certified with ``right == 0`` (so r = n already), and a run drifting
    left holds d more cells in each right half than one period earlier.
    """
    width = machine._codec.width
    unread = (min(map(itemgetter(2), seen)).bit_length() + width - 1) // width
    return min(n, n + 1 - unread)


def load_machine(data: dict) -> TuringMachine:
    """Build a machine from its parsed description, a dict.

    Format:
        {"states": [...], "initial": "q0", "final": "q1",
         "tape_alphabet": ["0", "1"], "blank": "_", "tape": "two-way",
         "yes_symbol": "1", "no_symbol": "0",
         "delta": [["q0", "0", "q1", "1", "R"], ...]}

    The deterministic/partial/nondeterministic flag is inferred from delta.
    Anything but a dict, a file path too, and every malformed description
    raise ``MachineFormatError``: the command line reads machine files as
    it reads every input file (``cli._load_json``).
    """
    if not isinstance(data, dict):
        raise MachineFormatError("a machine description is a JSON object")
    try:
        return TuringMachine(
            states=tuple(data["states"]),
            initial=data["initial"],
            final=data["final"],
            tape_alphabet=Alphabet(data["tape_alphabet"]),
            blank=data["blank"],
            transitions=tuple(tuple(t) for t in data["delta"]),
            tape_mode=data.get("tape", "two-way"),
            yes_symbol=data.get("yes_symbol"),
            no_symbol=data.get("no_symbol"),
        )
    except MachineFormatError:
        raise
    except KeyError as exc:
        raise MachineFormatError(f"missing machine field: {exc}") from exc
    except (TypeError, ValueError) as exc:  # e.g. a non-list delta, a bad alphabet
        raise MachineFormatError(f"malformed machine description: {exc}") from exc
