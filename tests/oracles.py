"""Reference implementations that the fast paths in ``gclab`` replaced.

Each one is the plain, slow version of a concept that ``src`` now
computes another way, kept here so that tests can cross-check the two:

- the tuple stepper (``initial_configuration``, ``_trim``, ``step``,
  ``run_deterministic``) and the breadth-first ``_search_halting`` with
  its ``min_halting_steps`` / ``min_deciding_steps`` wrappers, as they
  stood before tapes were packed into integers: each configuration is a
  ``Configuration`` of symbol tuples, trimmed after every step;
- ``decode_answer`` (with ``Answer`` and ``AnswerDecodeError``), the
  answer convention read off a halting configuration's symbol tuples, as
  every deciding search decoded it before the convention became one test
  on the packed tape (``machine.min_deciding_steps``);
- the linear scan that ``measure.size_inverse`` (bisection) replaced;
- ``EnumeratedNu``: the bounded-halting ensemble with the enumerated
  cumulative masses and inverse it had before its closed forms;
- ``nu_mass_text``: the bounded-halting mass read off the word's joined
  text, with a new ``Fraction`` per call, as it was before the class was
  read off the letters and each class shared one value;
- ``fraction_sum`` and ``sphere_sum``: sums that add ``Fraction`` by
  ``Fraction``, as sphere sums were before ``measure.exact_sum``;
- the per-symbol numeral reader ``scan_numeral`` that the stride-slice
  scan replaced, and the C(g) membership test ``c_of_g_member`` that
  decoded the whole code (``is_code``, ``decode_instance``) where the
  fast one reads only lengths;
- ``universal_by_fields``: the universal machine's evaluator reading
  every field of its input with ``_read_field``, as it did before it
  matched the code texts of its registry's machines;
- ``x_prime_scan``: the shortlex brute force over dyadic addresses that
  ``bhp.x_prime``'s prefix construction is checked against;
- ``overrun_mass``: the control-sequence value of one sphere with one
  machine search per word, as it was summed before
  ``genericity.overrun_mass`` searched once per block of words that
  share the prefix the search read;
- ``block_mass``: the mass of a lex block summed word by word, as
  ``measure.block_mass`` summed it under every ensemble but the uniform
  and bounded-halting ones before each ensemble's cumulative masses
  weighed every block;
- ``build_parser`` (with its ``nonnegative_int`` type): the ``argparse``
  command line that ``cli.parse_args`` and its table ``cli.COMMANDS``
  replaced; every valid argv must give both the same namespace.

``random_machine`` draws the seeded random table machines those
cross-checks run on.

The machine code (the answer decoder too), ``scan_numeral``, the body
of ``nu_mass_text``, the evaluator of ``universal_by_fields`` and
``build_parser`` with ``nonnegative_int`` are copied verbatim.  Only the imports are new, ``RunResult`` records are
built directly, not through the static constructors it no longer has,
``_moves`` stands in for ``TuringMachine._delta``, which is now keyed
by tape digit instead of symbol text, and the evaluator names
``gclab``'s own halting search, not the one here.  That evaluator and
the virtual branch of ``_search_halting`` follow the evaluator contract
of ``VirtualMachine``: halting steps or None, where they once built and
read ``RunResult``s, and the evaluator reads machine fields with
``_machine_at``, which now returns None where it raised.
The breadth-first search still returns the halting configuration it
found next to its depth; a virtual machine reports none, so its result
carries None in that place.
"""

from __future__ import annotations

import argparse
import itertools
import random
from collections import deque
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Optional

from gclab import machine as gclab_machine
from gclab.bhp import (
    NU,
    _machine_at,
    _protocol_run,
    _read_field,
    bh_search,
    guard_inverse,
    machine_index,
    xprime_value,
)
from gclab.cli import cmd_control_seq, cmd_density, cmd_reduce, cmd_tm, cmd_verify
from gclab.genericity import exceeds_bound
from gclab.machine import (
    RIGHT,
    Configuration,
    Machine,
    MachineFormatError,
    NondeterministicRunError,
    RunResult,
    Search,
    TuringMachine,
    VirtualMachine,
)
from gclab.measure import ONE, ZERO, DBHNuEnsemble, SphericalEnsemble, subset_mass
from gclab.measure import exact_sum
from gclab.words import BINARY, Alphabet, Word


def initial_configuration(machine: TuringMachine, x: Word) -> Configuration:
    if x.alphabet != machine.tape_alphabet:
        raise MachineFormatError("input word is over the wrong alphabet")
    return Configuration(machine.initial, (), x.letters)


def _trim(machine: TuringMachine, left: tuple[str, ...], right: tuple[str, ...]):
    blank = machine.blank
    i = 0
    while i < len(left) and left[i] == blank:
        i += 1
    j = len(right)
    while j > 0 and right[j - 1] == blank:
        j -= 1
    return left[i:], right[:j]


@cache
def _moves(machine: TuringMachine) -> dict[tuple[str, str], tuple[tuple[str, str, str], ...]]:
    """The transition table keyed by symbol text, as ``TuringMachine._delta``
    was before it was keyed by tape digit."""
    table: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for q, a, q2, a2, d in machine.transitions:
        table.setdefault((q, a), []).append((q2, a2, d))
    # deterministic iteration order for searches
    return {k: tuple(sorted(set(v))) for k, v in table.items()}


def step(machine: TuringMachine, config: Configuration) -> tuple[Configuration, ...]:
    """Every configuration reachable from ``config`` in one step.

    Empty exactly when the machine breaks (no transition matches).  Runs
    and searches never expand configurations at the final state, but the
    step relation itself is oblivious to halting.
    """
    read = config.right[0] if config.right else machine.blank
    rest = config.right[1:] if config.right else ()
    out = []
    for q2, a2, d in _moves(machine).get((config.state, read), ()):
        if d == RIGHT:
            left, right = config.left + (a2,), rest
        elif config.left:
            left, right = config.left[:-1], (config.left[-1], a2) + rest
        elif machine.tape_mode == "two-way":
            left, right = (), (machine.blank, a2) + rest
        else:  # one-end tape: left move at the edge keeps the head in place
            left, right = (), (a2,) + rest
        left, right = _trim(machine, left, right)
        out.append(Configuration(q2, left, right))
    return tuple(dict.fromkeys(out))


def run_deterministic(machine: TuringMachine, x: Word, budget: int) -> RunResult:
    """Run a (possibly partial) deterministic machine from (initial, empty, x)."""
    if machine.determinism == "nondeterministic":
        raise NondeterministicRunError(
            "run_deterministic requires a machine without branching choices"
        )
    config = initial_configuration(machine, x)
    steps = 0
    while True:
        if config.state == machine.final:
            return RunResult("halted", steps, config)
        if steps >= budget:
            return RunResult("budget", budget=budget)
        succ = step(machine, config)
        if not succ:
            return RunResult("broke", steps)
        config = succ[0]
        steps += 1


def _search_halting(
    machine: Machine,
    x: Word,
    budget: int,
    *,
    accept: Callable[[Configuration], bool] = lambda c: True,
) -> Optional[tuple[int, Optional[Configuration]]]:
    """Minimal halting steps and final configuration within ``budget``.

    Virtual machines are asked once, through their evaluator, and carry
    None in place of a configuration; ``accept`` does not apply to them.
    Table machines get a breadth-first search of the configuration tree
    for the earliest accepted halting configuration.  A configuration is
    re-expanded only if seen with a strictly larger residual budget than
    before; BFS visits each configuration with its maximal residual
    first, so a plain first-visit set is exact.  Returns None when
    nothing halts in time.
    """
    if budget < 0:
        return None
    if isinstance(machine, VirtualMachine):
        steps = machine.evaluator(x, budget)
        return (steps, None) if steps is not None and steps <= budget else None
    start = initial_configuration(machine, x)
    seen = {start}
    frontier: deque[Configuration] = deque([start])
    depth = 0
    while frontier and depth <= budget:
        for config in frontier:
            if config.state == machine.final and accept(config):
                return depth, config
        if depth == budget:
            break
        nxt: deque[Configuration] = deque()
        for config in frontier:
            if config.state == machine.final:
                continue  # halted: the computation ends here
            for succ in step(machine, config):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
        depth += 1
    return None


def min_halting_steps(machine: Machine, w: Word, budget: int) -> Optional[int]:
    """Least n <= budget such that some computation halts within n steps."""
    found = _search_halting(machine, w, budget)
    return None if found is None else found[0]


class AnswerDecodeError(ValueError):
    """A configuration cannot be decoded under the answer convention."""


class Answer(Enum):
    YES = "Yes"
    NO = "No"
    DONT_KNOW = "DontKnow"


def decode_answer(machine: TuringMachine, config: Configuration) -> Answer:
    """Decode a halted configuration under the machine's answer convention.

    The configuration must be (final state, empty left tape, w); w starting
    with two yes-markers means Yes, yes-marker then no-marker means No, and
    a leading no-marker means DontKnow.
    """
    if not machine.has_answer_convention:
        raise AnswerDecodeError("machine declares no answer convention")
    if config.state != machine.final:
        raise AnswerDecodeError("configuration is not at the final state")
    if config.left:
        raise AnswerDecodeError("left tape is not empty")
    w = config.right
    yes, no = machine.yes_symbol, machine.no_symbol
    if w and w[0] == no:
        return Answer.DONT_KNOW
    if len(w) >= 2 and w[0] == yes and w[1] == yes:
        return Answer.YES
    if len(w) >= 2 and w[0] == yes and w[1] == no:
        return Answer.NO
    raise AnswerDecodeError(f"tape {''.join(w)!r} matches no answer pattern")


def min_deciding_steps(machine: Machine, w: Word, budget: int) -> Optional[int]:
    """Like min_halting_steps, but halting runs whose configuration decodes
    to DontKnow do not count (their time is infinite).  Machines without an
    answer convention decide by halting; undecodable halting tapes still
    count as stopping."""

    def accept(config: Configuration) -> bool:
        try:
            return decode_answer(machine, config) is not Answer.DONT_KNOW
        except AnswerDecodeError:
            return True

    found = _search_halting(machine, w, budget, accept=accept)
    return None if found is None else found[0]


def scan_inverse(fn, m):
    """The linear scan that size_inverse replaced, kept as its oracle."""
    k = 0
    while k <= m:
        v = fn(k)
        if v == m:
            return k
        if v > m:
            return None
        k += 1
    return None


class EnumeratedNu(SphericalEnsemble):
    """ν's ``mass`` under the base class's enumerated sphere tables:
    ``mu_star`` and ``hat_mu`` read running mass sums, and the inverse
    bisects them."""

    kind = "dbh_nu"
    mass = DBHNuEnsemble.mass

    def __init__(self):
        super().__init__(BINARY)


def nu_mass_text(x: Word) -> Fraction:
    """Mass of x under the bounded-halting ensemble, from its text."""
    text = x.text()
    if text == "":
        return ONE
    zero_at = text.find("0")
    if zero_at < 0:
        return ZERO
    w_len = len(text) - zero_at - 1
    return Fraction(1, len(text) * 2**w_len)


def fraction_sum(masses) -> Fraction:
    """Add the masses one ``Fraction`` addition at a time."""
    return sum(masses, ZERO)


def sphere_sum(mu: SphericalEnsemble, n: int) -> Fraction:
    """Total mass of the radius-n sphere, Fraction by Fraction."""
    mu._check_cap(n)
    return fraction_sum(mu.mass(x) for x in mu.alphabet.sphere(n))


def block_mass(mu: SphericalEnsemble, prefix, n: int) -> Fraction:
    """mu's mass on the words of sphere n that start with ``prefix``."""
    alphabet, prefix = mu.alphabet, tuple(prefix)
    pad = n - len(prefix)
    mu._check_cap(n)
    return exact_sum(
        mu.mass(Word(alphabet, prefix + suffix))
        for suffix in itertools.product(alphabet.symbols, repeat=pad)
    )


def scan_numeral(text: str, start: int) -> Optional[tuple[int, int]]:
    """Parse a numeral at ``start``; return (value, end index) or None.

    A numeral is a maximal run of marker pairs "1b"; it ends where the
    next character is a field separator "0" or the string ends.
    """
    bits = []
    j = start
    while j < len(text) and text[j] == "1":
        if j + 1 >= len(text):
            return None
        bits.append(text[j + 1])
        j += 2
    if not bits:
        return None
    if bits[0] == "0" and len(bits) > 1:
        return None  # leading bit of a nonzero numeral must be 1
    return int("".join(bits), 2), j


def c_of_g_member(guard, u: Word) -> bool:
    """C(g) membership by decoding the code: ``is_code`` then
    ``decode_instance`` (a payload ``Word``) then the guard inverse."""
    if "0" not in u.text():
        return False
    text = u.text()
    zero_at = text.find("0")
    n, w = len(text), BINARY.word(text[zero_at + 1 :])
    return guard_inverse(guard, n) == len(w)


def universal_by_fields(registry: list[Machine]) -> Search:
    """The universal machine's evaluator on this registry, reading the
    length field and the machine field of a chained input with
    ``_read_field``."""
    index: dict[int, Machine] = {machine_index(m): m for m in registry}

    def evaluator(v: Word, budget: int) -> Optional[int]:
        fields = _read_field(v.text())
        if fields is None:
            return None
        gamma, rest = fields
        machine = _machine_at(gamma, index)
        if machine is not None:  # plain shape: machine-code 0 w
            return gclab_machine._search_halting(machine, BINARY.word(rest), budget)
        # chained shape: numeral 0 machine-code 0 x'', gamma being the numeral
        fields = _read_field(rest)
        machine = None if fields is None else _machine_at(fields[0], index)
        if machine is None:
            return None
        return _protocol_run(NU, partial(bh_search, machine), gamma, fields[1], budget)

    return evaluator


def x_prime_scan(lo: Fraction, hi: Fraction, n: int) -> Word:
    """Reference for ``x_prime``: brute-force the candidates in shortlex
    order (the tests check the prefix construction against it)."""
    for length in range(1, n + 2):
        for bits in itertools.product("01", repeat=length):
            text = "".join(bits)
            if lo < xprime_value(text) <= hi:
                return BINARY.word(text)
    raise AssertionError("no dyadic address found; interval bookkeeping is broken")


def overrun_mass(machine: Machine, mu: SphericalEnsemble, n: int, bound: int) -> Fraction:
    """mu_n{x : the machine overruns ``bound`` on x}, one search per word."""
    return subset_mass(mu, n, lambda x: exceeds_bound(machine, x, bound))


def random_machine(rng: random.Random, kind: str, tape_mode: str, symbols: tuple[str, ...],
                   blank: str, extra_states: int, answers: Optional[bool] = None) -> TuringMachine:
    """A random table machine over ``symbols``, initial state q0, final
    state q1 and ``extra_states`` more.  ``kind`` is "deterministic" (one
    move for every state and read), "partial" (at most one) or
    "nondeterministic" (up to three).  ``answers`` gives the machine the
    answer convention or not; None decides at random."""
    states = ("q0", "q1") + tuple(f"s{i}" for i in range(extra_states))
    moves = list(itertools.product(states, symbols, ("L", "R")))
    table = []
    for q in states:
        for a in symbols + (blank,):
            if kind == "deterministic":
                count = 1
            elif kind == "partial":
                count = int(rng.random() < 0.7)
            else:
                count = rng.choice((0, 1, 1, 2, 3))
            table.extend((q, a) + move for move in rng.sample(moves, count))
    if answers is None:
        answers = rng.random() < 0.5
    yes, no = rng.sample(symbols, 2) if answers else (None, None)
    return TuringMachine(
        states=states, initial="q0", final="q1",
        tape_alphabet=Alphabet(symbols), blank=blank, transitions=tuple(table),
        tape_mode=tape_mode, yes_symbol=yes, no_symbol=no,
    )


def nonnegative_int(text: str) -> int:
    """The type of --n-max and --budget: a negative horizon or step
    budget would check nothing and report a pass."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


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
    tm.add_argument("--budget", type=nonnegative_int, default=1000)
    tm.add_argument("--out")
    tm.set_defaults(func=cmd_tm)

    density = sub.add_parser("density", help="exact density sequence of a subset")
    density.add_argument("--ensemble", required=True)
    density.add_argument("--subset", required=True)
    density.add_argument("--n-max", type=nonnegative_int, required=True)
    density.add_argument("--format", choices=["csv", "svg"], default="csv")
    density.add_argument("--out")
    density.set_defaults(func=cmd_density)

    control = sub.add_parser("control-seq", help="control sequence of a machine")
    control.add_argument("--machine", required=True)
    control.add_argument("--ensemble", required=True)
    control.add_argument("--poly", required=True)
    control.add_argument("--n-max", type=nonnegative_int, required=True)
    control.add_argument("--sample", type=int)
    control.add_argument("--seed", type=int)
    control.add_argument("--format", choices=["csv", "svg"], default="csv")
    control.add_argument("--out")
    control.set_defaults(func=cmd_control_seq)

    reduce_p = sub.add_parser("reduce", help="build and verify a reduction")
    reduce_p.add_argument("construction",
                          choices=["to-binary", "bh", "universal", "pipeline"])
    reduce_p.add_argument("bundle")
    reduce_p.add_argument("--n-max", type=nonnegative_int, default=4)
    reduce_p.add_argument("--out")
    reduce_p.set_defaults(func=cmd_reduce)

    verify = sub.add_parser("verify", help="run an exact verifier")
    verify.add_argument("check",
                        choices=["cs", "cm", "transfer", "induced",
                                 "bh-measure", "nu-sums"])
    verify.add_argument("fixture", nargs="?")
    verify.add_argument("--n-max", type=nonnegative_int, required=True)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)
    return parser
