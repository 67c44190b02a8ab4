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
- ``read_field`` and ``universal_by_fields``: one field, a length or a
  machine code, read through the image codec's one field reader
  ``bhp._read_field`` (its one field writer is ``bhp._code_field``) with
  the rest of the text cut after it, and the universal machine's
  evaluator reading every field of its input that way, as both
  evaluators read fields before the universal one matched the code
  texts of its registry's machines in place;
- ``x_prime_scan``: the shortlex brute force over dyadic addresses that
  ``bhp.x_prime``'s prefix construction is checked against;
- ``x_prime``, ``nu_mu_star_inverse`` and ``uniform_mu_star_inverse``:
  the dyadic address with its endpoints added, compared and read as
  ``Fraction``s, and the closed-form inverses of ν and the uniform
  ensembles with their ceilings taken of ``Fraction`` products, as they
  were before they became integer arithmetic;
- ``xprime_value``, ``x_double_prime`` and ``protocol_run``: the value
  of a dyadic address as a checked ``Fraction``, and the compression and
  the decoding protocol with their dyadic thresholds and the address's
  range test as ``Fraction`` comparisons and the address built by the
  ``Fraction`` form of ``x_prime``, as they were before the thresholds
  became integer tests and the protocol read the address as an integer
  pair;
- ``numeral``: the numeral built bit by bit through the checked
  ``Alphabet.word``.  With ``scan_numeral`` it is the independent
  reference of the image layout test, the one test that pins the
  codec's field writer and reader against hand-built fields; every other
  test builds and reads payloads through the codec;
- ``red2bh_image``: the bounded-halting image built afresh at every
  word (guard value and the head ``_code_field(n) + prefix``), as
  ``bhp.red2bh_map`` built it before it kept one head per length;
- ``check_lower_bounds``: the pointwise lower-bound check with the
  bound mass / divisor formed, compared and divided as ``Fraction``s at
  every point, as it was before it read verdict and ratio off two
  integer cross products of got, mass and divisor and shared verdicts
  along runs;
- ``overrun_mass``: the control-sequence value of one sphere with one
  machine search per word, as it was summed before
  ``genericity.overrun_mass`` searched once per block of words that
  share the prefix the search read;
- ``block_mass``: the mass of a lex block summed word by word, as
  ``measure.block_mass`` summed it under every ensemble but the uniform
  and bounded-halting ones before each ensemble's cumulative masses
  weighed every block;
- ``induced_masses``, ``verify_cm`` and ``verify_induced``: the
  subset-conditioned mass and the change-of-measure and induced checks
  with a fresh ``Fraction`` division and comparison at every word, as
  they were before points sharing one mass object shared one quotient
  and one verdict;
- ``uniform_draw`` and ``nu_draw``: one draw from a sphere with one
  ``randrange`` per letter (ν: the leading-ones count, then one per
  suffix bit); ``table_draw``: one 64-bit dyadic per draw, inverted by
  a walk over the sphere's masses in lex order; and
  ``sampled_control_sequence`` with one ``exceeds_bound`` call per
  draw, as sampling was before a sphere's draws were read in one batch
  and a table machine's draws shared the verdict of their read prefix;
- ``lex_sphere``: a sphere's letter tuples built one letter at a time,
  each word's extensions in symbol order after it, as the plain
  reference for the lex order ``Alphabet.sphere`` reads off
  ``itertools.product``;
- ``build_parser`` (with its ``nonnegative_int`` type): the ``argparse``
  command line that ``cli.parse_args`` and its table ``cli.COMMANDS``
  replaced; every valid argv must give both the same namespace.

``random_machine`` draws the seeded random table machines those
cross-checks run on, and ``bouncer``, ``brancher`` and ``sweeper``
machines of the benchmark's never-halting families of those names.
``live_brancher`` widens a brancher so that its cycle states can reach
the final state, on a symbol no input holds and no move writes.

The machine code (the answer decoder too), ``scan_numeral``, the body
of ``nu_mass_text``, ``verify_induced``, ``build_parser`` with
``nonnegative_int``, ``xprime_value``, ``x_prime`` and the bodies of
the two inverses, ``x_double_prime``, ``protocol_run`` and ``numeral``
are copied verbatim.  Only the imports are new, the ν inverse returns
``BINARY.empty`` where the method returned its alphabet's, ``RunResult``
records are built directly, not through the static constructors it no
longer has, and ``_moves`` stands in for ``TuringMachine._delta``,
which is now keyed by tape digit instead of symbol text.  The evaluator
of ``universal_by_fields`` names ``gclab``'s own halting search, not
the one here, and reads machine fields with ``_machine_at``, which
returns None where it once raised; the codec's field reader looks
``scan_numeral`` up in the ``gclab.bhp`` module, so a wrapper there
counts the scans of ``read_field``.  That evaluator and the virtual
branch of ``_search_halting`` follow the evaluator contract of
``VirtualMachine``: halting steps or None, where they once built and
read ``RunResult``s.
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
from math import ceil
from typing import Callable, Optional

from gclab import machine as gclab_machine
from gclab.bhp import (
    NU,
    _code_field,
    _machine_at,
    _protocol_run,
    _read_field,
    _wrap,
    bh_search,
    guard_inverse,
    machine_index,
)
from gclab.cli import cmd_control_seq, cmd_density, cmd_reduce, cmd_tm, cmd_verify
from gclab.genericity import exceeds_bound, sample_sphere
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
from gclab.measure import ONE, ZERO, DBHNuEnsemble, HorizonError, SphericalEnsemble, subset_mass
from gclab.measure import _uniform_mass, invert_mu_star
from gclab.measure import CheckReport, InducedEnsemble, exact_sum
from gclab.words import BINARY, Alphabet, Word, unrank


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
    if machine.branching:
        raise NondeterministicRunError("run needs a deterministic machine; use halts")
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


def lex_sphere(alphabet: Alphabet, n: int) -> list[tuple[str, ...]]:
    """The letter tuples of sphere n in lex order, built by recursion."""
    if n == 0:
        return [()]
    return [(*w, s) for w in lex_sphere(alphabet, n - 1) for s in alphabet.symbols]


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


def induced_masses(mu_s: InducedEnsemble, n: int) -> list[Fraction]:
    """mu_s's masses on sphere n in lex order, each divided out afresh."""
    denom = subset_mass(mu_s.base, n, mu_s.subset, mu_s.closed)
    if denom == 0:
        return [mu_s.base.mass(x) for x in mu_s.alphabet.sphere(n)]
    return [(mu_s.base.mass(x) if mu_s.subset(x) else ZERO) / denom
            for x in mu_s.alphabet.sphere(n)]


def verify_cm(f, mu: SphericalEnsemble, nu: SphericalEnsemble, d, n_max: int) -> CheckReport:
    """The change-of-measure check, one division and one comparison per word."""
    report = CheckReport("change-of-measure", n_max)
    for k in range(n_max + 1):
        dk = d(k)
        for x in mu.alphabet.sphere(k):
            y = f.apply(x)
            if len(y) != k:
                report.add(x.text(), f"|f(x)| = {k}", str(len(y)), "not size-preserving")
            elif not dk:
                report.add(x.text(), "d(k) > 0", "0", "density polynomial vanishes")
            else:
                got, bound = nu.mass(y), mu.mass(x) / dk
                if got < bound:
                    report.add(x.text(), f">= {bound}", str(got))
    return report


def verify_induced(mu: SphericalEnsemble, subset, mu_s: SphericalEnsemble,
                   n_max: int) -> CheckReport:
    """Recompute the subset-conditioning equation by enumeration on every
    word up to n_max and compare with mu_s exactly."""
    report = CheckReport("induced", n_max)
    members: set[tuple[str, ...]] = set()  # letters of the sphere's members

    def member(x: Word) -> bool:  # the one predicate call per word
        inside = subset(x)
        if inside:
            members.add(x.letters)
        return inside

    for n in range(n_max + 1):
        members.clear()
        denom = subset_mass(mu, n, member)
        for x in mu.alphabet.sphere(n):
            if denom == 0:
                want = mu.mass(x)
            else:
                want = (mu.mass(x) if x.letters in members else ZERO) / denom
            got = mu_s.mass(x)
            if got != want:
                report.add(x.text(), want, got)
    return report


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


def read_field(text: str) -> Optional[tuple[int, str]]:
    """Read one field off the front of a code payload with the image
    codec's one field reader: the field's value and the rest of the text
    (possibly empty), or None when the field is malformed or lacks its
    separator."""
    field = _read_field(text)
    return None if field is None else (field[0], text[field[1] :])


def universal_by_fields(registry: list[Machine], run=_protocol_run) -> Search:
    """The universal machine's evaluator on this registry, reading the
    first field of its input (the machine field of a plain input, the
    length field of a chained one) and the machine field of a chained
    input with ``read_field``; ``run`` is the decoding protocol of
    chained inputs."""
    index: dict[int, Machine] = {machine_index(m): m for m in registry}

    def evaluator(v: Word, budget: int) -> Optional[int]:
        fields = read_field(v.text())
        if fields is None:
            return None
        n, rest = fields
        machine = _machine_at(n, index)
        if machine is not None:  # plain shape: machine-code 0 w
            return gclab_machine._search_halting(machine, BINARY.word(rest), budget)
        # chained shape: length 0 machine-code 0 x'', n being the length
        fields = read_field(rest)
        machine = None if fields is None else _machine_at(fields[0], index)
        if machine is None:
            return None
        return run(NU, partial(bh_search, machine), n, fields[1], budget)

    return evaluator


def xprime_value(text: str) -> Fraction:
    """The dyadic value named by a candidate string x0 x1 ... xk:
    x0 . x1 ... xk 1 in binary, i.e. (2 * int(text, 2) + 1) / 2^len."""
    if not text or text.strip("01"):
        raise ValueError("candidate must be a nonempty binary string")
    return Fraction(2 * int(text, 2) + 1, 2 ** len(text))


def x_prime_scan(lo: Fraction, hi: Fraction, n: int) -> Word:
    """Reference for ``x_prime``: brute-force the candidates in shortlex
    order (the tests check the prefix construction against it)."""
    for length in range(1, n + 2):
        for bits in itertools.product("01", repeat=length):
            text = "".join(bits)
            if lo < xprime_value(text) <= hi:
                return BINARY.word(text)
    raise AssertionError("no dyadic address found; interval bookkeeping is broken")


def x_prime(mu: SphericalEnsemble, x: Word) -> Word:
    """``bhp.x_prime`` with the endpoints lo = mu_star(x) and hi = lo +
    mass(x) added, compared and read as ``Fraction``s, and the address's
    range test lo < value <= hi a ``Fraction`` comparison."""
    lo = mu.mu_star(x)
    hi = lo + mu.mass(x)
    if lo == hi:
        raise ValueError("x_prime needs mass(x) > 0 (nonempty interval)")
    k = len(x) + 2
    a = (lo.numerator << k) // lo.denominator
    b = (1 << k) - 1 if hi == 1 else (hi.numerator << k) // hi.denominator
    common = k - (a ^ b).bit_length()
    if common == k:
        raise AssertionError("interval endpoints agree too long; mass bound broken")
    text = "0" + format(a, f"0{k}b")[:common]
    value = xprime_value(text)
    if not (lo < value <= hi):
        raise AssertionError("prefix construction produced a bad dyadic address")
    return Word.of_text(BINARY, text)


def nu_mu_star_inverse(n: int, t: Fraction) -> Word:
    """``DBHNuEnsemble.mu_star_inverse`` with its ceilings taken of
    ``Fraction`` products and w unranked."""
    if n == 0:
        return BINARY.empty
    m = ceil(t * n) - 1  # t lies in the class of m
    k = n - m - 1
    j = ceil((t * n - m) * 2**k)  # 1-based rank of w among the k-bit words
    return BINARY.word("1" * m + "0" + unrank(BINARY, k, j).text())


def uniform_mu_star_inverse(alphabet: Alphabet, n: int, t: Fraction) -> Word:
    """``UniformEnsemble.mu_star_inverse`` with its ceiling taken of a
    ``Fraction`` product."""
    return unrank(alphabet, n, ceil(t * alphabet.sphere_size(n)))


def x_double_prime(mu: SphericalEnsemble, x: Word) -> Word:
    """``bhp.x_double_prime`` with the threshold mass(x) <= 2^-|x| as a
    ``Fraction`` comparison."""
    if mu.mass(x) <= _uniform_mass(2, len(x)):
        return BINARY.word("0" + x.text())
    return BINARY.word("1" + x_prime(mu, x).text())


def protocol_run(
    mu: SphericalEnsemble, inner: Search, n: int, x2: str, budget: int
) -> Optional[int]:
    """``bhp._protocol_run`` with its mass tests and the address value's
    range test as ``Fraction`` comparisons, and the verbatim candidate
    built through the checked ``Alphabet.word``."""
    if not x2 or budget < n or mu.horizon is not None and n > mu.horizon:
        return None
    b, w = x2[0], x2[1:]
    try:
        if b == "0":
            candidate = BINARY.word(w)
            # literal mass test: mass of w in the claimed sphere n (zero when
            # the lengths disagree) against the threshold for w's own length
            mass = mu.mass(candidate) if len(candidate) == n else ZERO
            if mass > _uniform_mass(2, len(candidate)):
                return None
        else:
            if not w:
                return None
            value = xprime_value(w)
            if not 0 < value <= 1:
                return None
            candidate = invert_mu_star(mu, n, value)
            if mu.mass(candidate) <= _uniform_mass(2, n) or x_prime(mu, candidate).text() != w:
                return None
    except HorizonError:  # a sphere enumerated past ENUMERATION_CAP
        return None
    steps = inner(candidate, budget - n)
    return None if steps is None else n + steps


def numeral(n: int) -> Word:
    """``bhp.numeral`` built one marked bit at a time."""
    if n < 0:
        raise ValueError("numerals encode nonnegative integers")
    bits = bin(n)[2:] if n > 0 else "0"
    return BINARY.word("".join("1" + b for b in bits))


def red2bh_image(mu: SphericalEnsemble, guard, prefix: str, x: Word) -> Word:
    """The image of x under ``bhp.red2bh_map(mu, guard, prefix)``, with
    its guard value and payload head built for this word."""
    n = len(x)
    return _wrap(guard(n), _code_field(n) + prefix + x_double_prime(mu, x).text())


def check_lower_bounds(report: CheckReport, points) -> Optional[Fraction]:
    """``measure.check_lower_bounds`` forming the bound mass / divisor
    and comparing and dividing ``Fraction``s at every point."""
    best = None
    for witness, got, mass, divisor in points:
        bound = mass / divisor
        if got < bound:
            report.add(str(witness), f">= {bound}", str(got))
        if bound != 0:
            ratio = got / bound
            if best is None or ratio < best:
                best = ratio
    return best


def overrun_mass(machine: Machine, mu: SphericalEnsemble, n: int, bound: int) -> Fraction:
    """mu_n{x : the machine overruns ``bound`` on x}, one search per word."""
    return subset_mass(mu, n, lambda x: exceeds_bound(machine, x, bound))


def uniform_draw(alphabet: Alphabet, rng: random.Random, n: int) -> Word:
    """n letters, each drawn directly."""
    symbols = alphabet.symbols
    return Word(alphabet, tuple(symbols[rng.randrange(len(symbols))] for _ in range(n)))


def nu_draw(rng: random.Random, n: int) -> Word:
    """The leading-ones count drawn uniformly, then a uniform suffix."""
    if n == 0:
        return BINARY.empty
    m = rng.randrange(n)
    w = "".join(str(rng.randrange(2)) for _ in range(n - m - 1))
    return BINARY.word("1" * m + "0" + w)


def table_draw(mu: SphericalEnsemble, rng: random.Random, n: int) -> Word:
    """The first word of sphere n, in lex order, whose cumulative mass
    reaches one 64-bit dyadic t in (0, 1]; the last word if none does."""
    t, total, word = Fraction(rng.getrandbits(64) + 1, 1 << 64), Fraction(0), None
    for word in mu.alphabet.sphere(n):
        total += mu.mass(word)
        if total >= t:
            break
    return word


def sampled_control_sequence(machine: Machine, p, mu: SphericalEnsemble, n_max: int,
                             samples: int, seed: int) -> list[Fraction]:
    """The sampled control sequence's values, one search per draw."""
    return [Fraction(sum(exceeds_bound(machine, x, p(n))
                         for x in sample_sphere(mu, n, samples, seed)), samples)
            for n in range(n_max + 1)]


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


# the symbols a binary machine reads: the benchmark families' moves cover each
READS = ("0", "1", "_")


def _cycle(rng: random.Random) -> tuple[tuple[str, ...], list]:
    """The states c0..c(k-1) of a bouncer and their moves, drawn as the
    benchmark draws them: a cycle, each state writing a random bit on
    every symbol and moving two cells right, then one left."""
    moves = "RRL" * rng.randint(1, 2)
    states = tuple(f"c{i}" for i in range(len(moves)))
    delta = []
    for i, d in enumerate(moves):
        write = {a: rng.choice("01") for a in READS}
        for a in READS:
            delta.append((states[i], a, states[(i + 1) % len(moves)], write[a], d))
    return states, delta


def bouncer(rng: random.Random) -> TuringMachine:
    """A never-halting machine of the benchmark's bouncer family, drawn
    as that family draws it: states c0..c(k-1) in a cycle (``_cycle``),
    so the tape grows by one cell per three steps."""
    states, delta = _cycle(rng)
    return TuringMachine(states=states + ("h",), initial="c0", final="h",
                         tape_alphabet=BINARY, blank="_", transitions=tuple(delta))


def brancher(rng: random.Random) -> TuringMachine:
    """A never-halting machine of the benchmark's brancher family, drawn
    as that family draws it: a bouncer whose c0 also moves, on every
    symbol, into the state "dead", which has no moves.  No state but the
    final one has a path to it."""
    states, delta = _cycle(rng)
    delta += [("c0", a, "dead", rng.choice("01"), "R") for a in READS]
    return TuringMachine(states=states + ("dead", "h"), initial="c0", final="h",
                         tape_alphabet=BINARY, blank="_", transitions=tuple(delta))


def live_brancher(machine: TuringMachine) -> TuringMachine:
    """A brancher over the tape symbols 0, 1 and 2, whose c0 halts on a
    2, which no move writes: on inputs without a 2 it never halts, yet
    every cycle state has a path to the final state.  Its live part,
    without the moves into "dead", has one move per state and symbol."""
    fields = dict(zip(machine._fields, machine._values))
    fields["tape_alphabet"] = Alphabet(("0", "1", "2"))
    fields["transitions"] = machine.transitions + (("c0", "2", "h", "0", "R"),)
    return TuringMachine(**fields)


def sweeper(rng: random.Random) -> TuringMachine:
    """A never-halting machine of the benchmark's sweeper family, drawn
    as that family draws it: states "right" and "left" cross every bit,
    each rewriting it as it is or flipped, to the blank at their end,
    where they write a bit and turn, so the tape grows by two cells per
    round trip."""
    flip_r, flip_l = rng.choice("01"), rng.choice("01")
    grow_r, grow_l = rng.choice("01"), rng.choice("01")

    def over(bit: str, flip: str) -> str:
        return bit if flip == "0" else "10"[int(bit)]

    delta = []
    for b in "01":
        delta.append(("right", b, "right", over(b, flip_r), "R"))
        delta.append(("left", b, "left", over(b, flip_l), "L"))
    delta.append(("right", "_", "left", grow_r, "L"))
    delta.append(("left", "_", "right", grow_l, "R"))
    return TuringMachine(states=("right", "left", "h"), initial="right", final="h",
                         tape_alphabet=BINARY, blank="_", transitions=tuple(delta))


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
