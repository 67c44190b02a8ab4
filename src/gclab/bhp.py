"""The distributional bounded halting problem and its reduction chain.

Instances are binary words.  A word containing a zero is the code
1^m 0 w of the pair (n, w) with n the whole word's length; the empty
word and the all-ones words are valid words but not codes.  The input
ensemble gives a code mass 1/(n * 2^|w|), the empty word mass 1, and
all-ones words mass 0.

On top of the codec this module builds, with exact arithmetic
throughout:

* longevity guards, maxima of checked terms, and the code family C(g) =
  {code of (g(|w|), w)}, which meets each sphere in at most one class,
  so its sphere mass under any binary ensemble is one block mass (1/n
  under the input ensemble);
* interleaved numerals, "10" | "1" b ("1" b)* with a nonzero first bit
  b, and the image codec on them: one field writer, ``_code_field``,
  and one field reader, ``_read_field``, for the length field and the
  machine-code field alike;
* the dyadic compression x -> x'' that equalizes measure: high-mass
  inputs become a dyadic address w of their cumulative-mass interval,
  read as the integer pair (2 int(w) + 1, 2^|w|), low-mass ones verbatim;
* one stage type for both reductions into bounded halting -- an
  arbitrary binary distributional problem into a purpose-built protocol
  machine, and any machine into an interpreter-backed universal
  machine -- with one code writer, x -> 1^pad 0 head(|x|, prefix) x'',
  and one measure bound, mass(x) / (16 |x|^2 g(|x|) 2^|prefix|);
  each stage constructor raises the user's guard until the codes it
  writes fit, so callers pass the guard they were given;
* the stage checks: each maps every source word once, and membership
  preservation (both ways) and the measure inequality are read off that
  one image;
* the end-to-end pipeline composing the two reductions with the
  interleaved measure restrictions, verifying every stage.

Step accounting of the virtual machines is declared, not hidden: the
protocol machines charge n steps for decoding a claimed length n and
then the simulated decider's own steps; the universal machine has
slowdown exactly 1 on plain inputs.  Horizon-guarded enumeration keeps
every check exact and finite.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .machine import (
    Machine,
    MachineFormatError,
    Search,
    TuringMachine,
    VirtualMachine,
    _search_halting,
    load_machine,
)
from .measure import (
    ENUMERATION_CAP,
    NU,
    CheckReport,
    HorizonError,
    InducedEnsemble,
    SphericalEnsemble,
    Violation,
    block_mass,
    bound_ratio,
    check_lower_bounds,
)
from .measure import size_inverse as guard_inverse
from .genericity import Polynomial, parse_polynomial
from .reductions import DistributionalProblem, Reduction, example41_image_member
from .words import BINARY, Frozen, Word

ZERO = Fraction(0)
ONE = Fraction(1)


class GuardError(ValueError):
    """A longevity guard violates its invariants or is too small."""


# --- instance codec ---------------------------------------------------------


def encode_instance(n: int, w: Word) -> Word:
    """The code 1^(n-|w|-1) 0 w of the pair (n, w); its length is n."""
    if w.alphabet is not BINARY:
        raise ValueError("instances are binary words")
    return _wrap(n, w.text())


def _wrap(length: int, *payload: str) -> Word:
    """The code 1^m 0 payload of the given length, the payload given as
    its parts and joined once: the one place codes are built.

    The payload is binary text (``encode_instance`` checks its word's
    alphabet, and the reduction maps write binary fields), so the image
    is built from its text unchecked."""
    size = sum(map(len, payload))
    if size >= length:
        raise GuardError(f"code length {length} cannot hold a {size}-symbol payload")
    return Word.of_text(BINARY, "".join(("1" * (length - size - 1), "0", *payload)))


def _payload(text: str) -> Optional[str]:
    """The w of a code text 1^m 0 w, or None when the text has no zero."""
    zero_at = text.find("0")
    return None if zero_at < 0 else text[zero_at + 1 :]


def bh_search(machine: Machine, u: Word, cap: int) -> Optional[int]:
    """The machine's halting search on the payload of the code u, within
    min(|u|, cap) steps: its halting steps, or None when it does not
    halt in time or u is not a code."""
    text = u.text()
    payload = _payload(text)
    if payload is None:
        return None
    # a binary word's text is already checked, and so is every slice of it
    w = Word.of_text(BINARY, payload) if u.alphabet is BINARY else BINARY.word(payload)
    return _search_halting(machine, w, min(len(text), cap))


def bh_member(machine: Machine, u: Word) -> bool:
    """Does the machine halt on the payload within the code's length?

    Non-codes are never members.
    """
    return bh_search(machine, u, len(u.text())) is not None


def _reads_binary(machine: Machine) -> bool:
    """Can the machine read binary inputs?  Every virtual machine can (its
    evaluator takes any word), and a table machine can when its tape
    alphabet is the binary one."""
    return not isinstance(machine, TuringMachine) or machine.tape_alphabet is BINARY


# --- longevity guards and the restricted code family ------------------------

GuardLike = Union["LongevityGuard", Polynomial]


class PayloadEnvelope(NamedTuple):
    """The guard term n + 2 max(bitlen n, 1) + 6 + extra: room for the
    length numeral, its separator, x'' and ``extra`` embedded letters."""

    extra: int

    def __call__(self, n: int) -> int:
        return n + 2 * max(n.bit_length(), 1) + 6 + self.extra


class LongevityGuard(Frozen):
    """A step-bound function g for restricting the halting problem: the
    maximum of its terms, polynomials and payload envelopes.

    Invariants, checked once for every n: g(n) >= n and g strictly
    increasing, as each term is (a polynomial with nonnegative
    coefficients exactly when one of degree >= 1 is positive; an
    envelope always), and g(0) >= 1, so codes of every payload length
    exist.  Any other term, an opaque callable say, is refused.
    """

    _fields = ("terms", "form")

    def __init__(self, *terms: Union[Polynomial, PayloadEnvelope], form: str = "g") -> None:
        self._set(terms, form)
        for term in terms:
            if not (isinstance(term, PayloadEnvelope)
                    or isinstance(term, Polynomial) and any(term.coeffs[1:])):
                raise GuardError(f"guard term {term} is not a strictly increasing polynomial")
        if self(0) < 1:
            raise GuardError(f"guard {form} must satisfy g(0) >= 1")

    def __call__(self, n: int) -> int:
        best = 0
        for term in self.terms:
            value = term(n)
            if value > best:
                best = value
        return best


def as_guard(g: GuardLike, form: str = "") -> LongevityGuard:
    if isinstance(g, LongevityGuard):
        return g
    return LongevityGuard(g, form=form or str(g))


def c_of_g(g: GuardLike) -> Callable[[Word], bool]:
    """Membership test for C(g): codes whose length is the guard value of
    their payload length.

    Only lengths are read, the code's and its payload's, and the guard
    inverse is kept per code length."""
    guard = as_guard(g)
    inverse: dict[int, Optional[int]] = {}

    def member(u: Word) -> bool:
        text = u.text()
        payload = _payload(text)
        if payload is None:
            return False
        if u.alphabet is not BINARY:
            BINARY.word(payload)  # a non-binary payload raises
        n = len(text)
        if n not in inverse:
            inverse[n] = guard_inverse(guard, n)
        return inverse[n] == len(payload)

    return member


def cg_sphere_mass(g: GuardLike, mu: SphericalEnsemble) -> Callable[[int], Fraction]:
    """The mu-mass of C(g) in sphere n, mu being over the alphabet "01".

    C(g) meets sphere n only when n = g(k), and then in the one class
    1^(n-k-1) 0 {0,1}^k, a lex block weighed by ``block_mass``: closed-form,
    with no cap, under the uniform ensemble (2^(k+1-n)) and the input
    ensemble (1/n).  Every sphere past mu's ``horizon`` raises
    ``HorizonError``, one that C(g) misses too."""
    guard = as_guard(g)

    def mass(n: int) -> Fraction:
        mu._check_horizon(n)
        k = guard_inverse(guard, n)
        return ZERO if k is None else block_mass(mu, "1" * (n - k - 1) + "0", n)

    return mass


def nu_g(g: GuardLike) -> InducedEnsemble:
    """The input ensemble conditioned on C(g), with the closed-form
    denominator registered."""
    guard = as_guard(g)
    return InducedEnsemble(
        NU,
        c_of_g(guard),
        label=f"C({guard.form})",
        closed=cg_sphere_mass(guard, NU),
    )


# --- interleaved numerals and the image codec -------------------------------


def numeral(n: int) -> Word:
    """Self-delimiting numeral: the binary expansion of n with a 1 marker
    in front of every bit.  Zero is represented as "10" (a single marked
    zero bit), the one value whose leading bit is allowed to be 0."""
    if n < 0:
        raise ValueError("numerals encode nonnegative integers")
    return Word.of_text(BINARY, "1" + "1".join(bin(n)[2:]))


_NUMERAL = re.compile("10|1[^0](?:1.)*", re.S)


def scan_numeral(text: str, start: int) -> Optional[tuple[int, int]]:
    """Parse a numeral at ``start``; return (value, end index) or None.

    A numeral is a maximal run of marker pairs "1b", "10" | "1" b ("1" b)*
    with a nonzero first b.  It ends where the next character is a field
    separator "0" or the string ends, so a "1" right after the one match
    (a last marker with no bit, or a pair after "10") means no numeral.
    """
    match = _NUMERAL.match(text, start)
    if match is None or text.startswith("1", match.end()):
        return None
    j = match.end()
    return int(text[start + 1 : j : 2], 2), j


def _code_field(index: int) -> str:
    """The one writer of an image field "numeral(index) 0": the length
    field and the machine-code field."""
    return numeral(index).text() + "0"


def _read_field(text: str, start: int = 0) -> Optional[tuple[int, int]]:
    """Read one field "numeral 0" of a code payload at ``start``, in place:
    the numeral value and the index just past its separator, where the
    rest of the text (possibly empty) starts, or None when the field is
    malformed or lacks its separator."""
    head = scan_numeral(text, start)
    if head is None or not text.startswith("0", head[1]):
        return None
    return head[0], head[1] + 1


# --- dyadic interval compression --------------------------------------------


def x_prime(mu: SphericalEnsemble, x: Word) -> Word:
    """The shortest (shortlex-least) binary string whose dyadic value lands
    strictly above the cumulative mass of x and at most at the cumulative
    mass of its successor.

    Needs a nonempty mass interval, i.e. mass(x) > 0.  When
    mass(x) > 2^-|x| (the only case the compression uses) the result is
    guaranteed no longer than x; at mass exactly 2^-|x| it can take one
    extra symbol.

    The endpoints lo = mu_star(x) and hi = hat_mu(x) agree on a (possibly
    empty) prefix of fractional binary digits, and then lo shows 0 where
    hi shows 1; the address is "0" followed by that common prefix.  The
    upper endpoint 1 is read as 0.111...; terminating expansions are used
    otherwise.  The first k = |x| + 2 digits of each endpoint are read as
    one integer, so the common prefix is the top k - bitlen(a ^ b) digits
    of either.  No ``Fraction`` arithmetic: the endpoints are integer pairs
    (hi unreduced), and (lo, hi] holds the address by construction.
    """
    lo, lo_den = mu.mu_star(x).as_integer_ratio()
    mass, mass_den = mu.mass(x).as_integer_ratio()
    if not mass:
        raise ValueError("x_prime needs mass(x) > 0 (nonempty interval)")
    hi, hi_den = lo * mass_den + mass * lo_den, lo_den * mass_den
    k = len(x) + 2
    a = (lo << k) // lo_den
    b = (1 << k) - 1 if hi == hi_den else (hi << k) // hi_den
    common = k - (a ^ b).bit_length()
    if common == k:
        raise AssertionError("interval endpoints agree too long; mass bound broken")
    # a and b first differ right after their common prefix P, a with 0 and b with 1,
    # so lo < (a + 1) / 2^k <= (2P + 1) / 2^(common + 1) <= b / 2^k <= hi
    v, e = 2 * (a >> (k - common)) + 1, common + 1
    return Word.of_text(BINARY, format(v >> 1, f"0{e}b"))


def _light(q: Fraction, n: int) -> bool:
    """q <= 2^-n, compared as the integers q.numerator * 2^n and
    q.denominator: the dyadic threshold of the compression."""
    return q.numerator << n <= q.denominator


def x_double_prime(mu: SphericalEnsemble, x: Word) -> Word:
    """Verbatim shipping for low-mass inputs, dyadic address for high-mass
    ones: 0x if mass(x) <= 2^-|x|, else 1 x'.  Always at most |x|+1 long,
    and always mass(x) <= 4 * 2^-|x''|.  mu is a measure over BINARY
    (``red2bh_map`` checks), so x'' is built unchecked."""
    if _light(mu.mass(x), len(x)):
        return Word.of_text(BINARY, "0" + x.text())
    return Word.of_text(BINARY, "1" + x_prime(mu, x).text())


# --- the decoding-protocol machines ------------------------------------------


def _protocol_run(
    mu: SphericalEnsemble, inner: Search, n: int, x2: str, budget: int
) -> Optional[int]:
    """The decoding protocol shared by the purpose-built machines, on the
    claimed length n and the compressed input x'' = b w read off the
    payload: a halting search, returning its steps (at most ``budget``)
    or None, and never raising.

    Declared accounting: decoding a claimed length n costs n steps, the
    simulated decider then contributes its own steps, so a result found
    at some budget is found again at every larger one.  An empty x'', a
    claimed length past the measure's ``horizon`` (where its mass is
    undefined, however the measure is wrapped), an address or a mass
    test that enumerates a sphere past ``ENUMERATION_CAP``, a failed
    mass test or a failed round-trip check never halts.  Closed-form
    ensembles (uniform and the input ensemble) resolve addresses at
    every length.  Branch 0 ships the candidate input verbatim; branch 1
    a dyadic address w, in (0, 1] exactly when it starts with 0, inverted
    as the integer pair (2 int(w) + 1, 2^|w|) and round-tripped through
    ``x_prime``.  x'' is cut from a binary word, so the candidate is
    built unchecked.
    """
    if not x2 or budget < n:
        return None
    b, w = x2[0], x2[1:]
    try:
        mu._check_horizon(n)
        if b == "0":
            candidate = Word.of_text(BINARY, w)
            # literal mass test: mass of w in the claimed sphere n (zero, so
            # light, when the lengths disagree) against the threshold for
            # w's own length
            if len(w) == n and not _light(mu.mass(candidate), n):
                return None
        else:
            if not w.startswith("0"):  # empty, or a value past 1
                return None
            candidate = mu.mu_star_inverse(n, 2 * int(w, 2) + 1, 1 << len(w))
            if _light(mu.mass(candidate), n) or x_prime(mu, candidate).text() != w:
                return None
    except HorizonError:  # past the horizon, or a sphere enumerated past ENUMERATION_CAP
        return None
    steps = inner(candidate, budget - n)
    return None if steps is None else n + steps


# --- reduction to the bounded halting problem --------------------------------


class BHStage(NamedTuple):
    """One reduction into bounded halting: the map x -> 1^pad 0 head(|x|,
    prefix) x'', the machine whose bounded halting problem receives it
    (None when only the map's measure is checked), the guard (the map's
    size growth), the source measure x'' is computed against, and the
    payload prefix ("" for the first stage, machine-code 0 for the
    universal one).  ``red2bh`` and ``red2bhu`` build the two stages."""

    reduction: Reduction
    machine: Optional[Machine]
    guard: LongevityGuard
    mu: SphericalEnsemble
    prefix: str = ""

    def measure_points(self, pairs: Iterable[tuple]) -> Iterator[tuple[Word, Fraction, Fraction, int]]:
        """The ``check_lower_bounds`` points (x, NU.mass(f(x)), mass(x),
        16 |x|^2 g(|x|) 2^|prefix|) of the measure inequality at the pairs
        (x, f(x), ...) with |x| >= 1, its domain.  The divisor is computed
        once per length: it calls the guard, and on the universal stage it
        has some 3,300 bits."""
        divisor = cache(lambda n: (16 * n * n * self.guard(n)) << len(self.prefix))
        for x, y, *_ in pairs:
            if x.letters:
                yield x, NU.mass(y), self.mu.mass(x), divisor(len(x))


def adequate_guard(
    g_user: GuardLike,
    decider_guard: Optional[Polynomial] = None,
    extra_payload: int = 0,
) -> LongevityGuard:
    """Raise a user guard until codes fit and simulations finish in budget.

    The result is the maximum of the user guard's terms, the payload
    envelope with ``extra_payload`` embedded letters (a machine code),
    and n + decider_guard(n) (decode accounting plus the simulated
    decider's own longevity).  The user guard is checked alone first.
    A bare polynomial has no form, so its guard reads "adequate(g)": the
    form is in the protocol machine's definition, so in its machine code.
    """
    terms = [*as_guard(g_user).terms, PayloadEnvelope(extra_payload)]
    if decider_guard is not None:  # n + decider_guard(n)
        c0, c1, *higher = decider_guard.coeffs + (0,) * (2 - len(decider_guard.coeffs))
        terms.append(Polynomial((c0, c1 + 1, *higher)))
    return LongevityGuard(*terms, form=f"adequate({getattr(g_user, 'form', 'g')})")


def red2bh_map(mu: SphericalEnsemble, guard: LongevityGuard, prefix: str = "") -> Reduction:
    """The instance map x -> 1^pad 0 head(|x|, prefix) x'', the one writer
    of both stages' codes.

    Images have length exactly guard(|x|), so the guard is the size
    growth; the construction errors out if the guard leaves no room for
    the payload (cannot happen for guards built by ``adequate_guard``).
    A source measure over another alphabet raises ``ValueError``.
    The head ``_code_field(n) + prefix`` (every field from the one field
    writer, read back by the one field reader ``_read_field``; thousands
    of letters on the universal stage) and the image length are built
    once per |x|, and each image is one join of the padding, the head
    and x''.
    """
    if mu.alphabet is not BINARY:
        raise ValueError("reduce to a binary alphabet first")
    heads: dict[int, tuple[int, str]] = {}  # n -> (guard(n), _code_field(n) + prefix)

    def apply(x: Word) -> Word:
        n = len(x)
        head = heads.get(n)
        if head is None:
            head = heads[n] = guard(n), _code_field(n) + prefix
        return _wrap(head[0], head[1], x_double_prime(mu, x).text())

    return Reduction(
        name=f"to-bounded-halting[{guard.form}]",
        source=BINARY,
        target=BINARY,
        func=apply,
        size_growth=guard,
    )


def red2bh(
    problem: DistributionalProblem,
    decider: Machine,
    g_user: GuardLike,
    decider_guard: Polynomial,
) -> BHStage:
    """Reduce a binary distributional problem to the bounded halting
    problem of a purpose-built protocol machine.

    ``decider`` must accept exactly the positive words by having a
    halting computation (membership by halting); ``decider_guard`` must
    bound the steps of all its halting computations.  The machine
    decodes the payload, recovers the original input (inverting the
    cumulative masses on the dyadic-address branch), rejects payloads
    whose mass tests or round-trip checks fail by never halting, and
    otherwise simulates the decider; a word over another alphabet never
    halts.  A decider that cannot read binary inputs raises
    ``ValueError`` here, so the protocol machine never does.
    """
    if not _reads_binary(decider):
        raise ValueError("the decider cannot read binary inputs")
    guard = adequate_guard(g_user, decider_guard)
    mu = problem.measure
    inner = partial(_search_halting, decider)

    def evaluator(v: Word, budget: int) -> Optional[int]:
        if v.alphabet is not BINARY:
            return None
        text = v.text()
        field = _read_field(text)
        return None if field is None else _protocol_run(mu, inner, field[0], text[field[1] :], budget)

    machine = VirtualMachine(
        name=f"bh-protocol[{problem.name}]",
        evaluator=evaluator,
        definition={
            "protocol": "bounded-halting-decider",
            "problem": problem.name,
            "measure": mu.spec(),
            "guard": guard.form,
        },
    )
    return BHStage(red2bh_map(mu, guard), machine, guard, mu)


def verify_membership(
    positive: Callable[[Word], bool],
    stage: BHStage,
    words: Iterable[Word],
    report: CheckReport,
) -> Iterator[tuple[Word, Word, bool]]:
    """Both directions of membership preservation, one image per word.

    Maps each word x once, adds a violation wherever the source predicate
    ``positive`` on x and the stage machine's bounded-halting membership
    of f(x) differ, and yields (x, f(x), that membership) for a measure
    check to read.  A generator, so one image is held at a time; the
    report is complete once the triples are exhausted.
    """
    for x in words:
        y = stage.reduction.apply(x)
        source, image = positive(x), bh_member(stage.machine, y)
        if source != image:
            report.add(x.text(), str(source), str(image))
        yield x, y, image


def verify_measure_decrease(stage: BHStage, pairs: Iterable[tuple], n_max: int) -> CheckReport:
    """Exact check of the measure loss of the bounded-halting map at every
    pair (x, f(x)) with 1 <= |x|, read off the front of each tuple (so the
    triples of ``verify_membership`` serve):

        NU.mass(f(x)) >= mass(x) / (16 |x|^2 g(|x|))   (``stage.measure_points``)

    The report carries the exact minimum ratio target/bound and, per
    compression branch (picked by the point's own mass(x)), the words
    below its sharper bound: factor 8 on the verbatim branch, 16 on the
    address one.  The length-0 sphere is outside the inequality's domain
    (its bound degenerates) and is recorded as skipped.
    """
    report = CheckReport("measure-decrease", n_max)
    branch1_f8: list[dict] = []
    branch2_f16: list[dict] = []

    def points():
        for x, got, mass, divisor in stage.measure_points(pairs):
            # the verbatim branch's sharper divisor is 8 |x|^2 g(|x|); the
            # address branch's is the headline one
            light = _light(mass, len(x))
            sharper = divisor >> light
            num, den = bound_ratio(got, mass, sharper)
            if num < den:
                (branch1_f8 if light else branch2_f16).append(
                    Violation(x.text(), str(mass / sharper), str(got)).to_dict())
            yield x, got, mass, divisor

    min_ratio = check_lower_bounds(report, points())
    report.details["skipped_spheres"] = [0]
    report.details["branch1_factor8_violations"] = branch1_f8
    report.details["branch2_factor16_violations"] = branch2_f16
    if min_ratio is not None:
        report.details["min_ratio"] = str(min_ratio)
    report.details["exponent_note"] = (
        "verbatim-branch mass test uses the candidate's own length in the "
        "exponent and the claimed length for the sphere lookup"
    )
    return report


# --- machine encodings and the universal machine -----------------------------


def machine_index(machine: Machine) -> int:
    """The canonical-serialization integer of a machine description."""
    if isinstance(machine, TuringMachine):
        payload = {"table": machine.to_canonical_dict()}
    else:
        payload = {"virtual": machine.name, "definition": machine.definition}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return int.from_bytes(blob, "big")


def machine_code(machine: Machine) -> Word:
    """The interleaved-numeral encoding of the machine's canonical index.

    Bit-exact round trip for table machines; virtual machines decode via
    a registry only (their behaviour lives in host code).
    """
    return numeral(machine_index(machine))


def _machine_at(index: int, registry: dict[int, Machine]) -> Optional[Machine]:
    """The machine with this canonical index, if it can read binary
    inputs: a registry hit, else the table machine it serializes.
    Anything else is None: an index that is not UTF-8 JSON or nests
    deeper than the JSON parser goes, JSON without a "table" (virtual
    machines decode via the registry only), a table ``load_machine``
    refuses (anything but a well-formed object: a string is not read as
    a path), or a tape alphabet other than the binary one."""
    machine = registry.get(index)
    if machine is None:
        size = (index.bit_length() + 7) // 8
        # an object's JSON text starts with "{" or JSON whitespace
        if not size or index >> 8 * (size - 1) not in b"{ \t\n\r":
            return None
        try:
            blob = index.to_bytes(size, "big")
            # decoded first: json.loads on bytes would also read UTF-16 and UTF-32
            payload = json.loads(blob.decode())
        except (ValueError, RecursionError):  # UnicodeDecodeError, JSONDecodeError
            return None
        table = payload.get("table") if isinstance(payload, dict) else None
        try:
            machine = load_machine(table)
        except MachineFormatError:
            return None
    return machine if _reads_binary(machine) else None


def universal_machine(registry: list[Machine]) -> VirtualMachine:
    """An interpreter-backed universal machine over the binary alphabet.

    Its evaluator is a halting search like every virtual machine's: it
    returns its halting steps (at most the budget) or None, the same
    steps at every larger budget, and never raises.  Two input shapes,
    tried in order:

    * plain: machine-code 0 w -- simulate the decoded machine on w
      step-for-step.  It halts exactly when the simulated machine does,
      with slowdown exactly 1: the steps reported are the simulated
      machine's.  Like every virtual machine it reports no final
      configuration.
    * chained: length 0 machine-code 0 x'' -- the decoding protocol for
      the bounded halting problem of the decoded machine, with the input
      ensemble as the measure: recover the instance from x'' and run the
      bounded membership search.  Costs the decoded length in steps plus
      the simulated steps.

    Anything else (including undecodable machine fields and words over
    another alphabet) never halts.  A binary word's fields are binary,
    so they are built into words unchecked.

    The code fields ``_code_field`` of the registry's machines are built
    once, so a chained input whose machine field is one of them, as
    every image ``red2bhu`` writes is, skips parsing the thousands of
    letters of that field: a numeral ends at the first separator on a
    marker position, so reading the field would give the same machine
    and the same rest.  The field is matched in place, right after the
    length field, and only the short x'' after it is cut from the text.
    """
    index = {machine_index(m): m for m in registry}
    return _universal(index, {i: _code_field(i) for i in index})


def _universal(index: dict[int, Machine], codes: dict[int, str]) -> VirtualMachine:
    """``universal_machine`` on a registry keyed by index, with its codes."""
    known = [(codes[i], partial(bh_search, m))  # (machine-code 0, its search)
             for i, m in index.items() if _reads_binary(m)]

    def evaluator(v: Word, budget: int) -> Optional[int]:
        if v.alphabet is not BINARY:
            return None
        text = v.text()
        field = _read_field(text)
        if field is None:
            return None
        machine = _machine_at(field[0], index)
        if machine is not None:  # plain shape: machine-code 0 w
            return _search_halting(machine, Word.of_text(BINARY, text[field[1] :]), budget)
        # chained shape: length 0 machine-code 0 x'', in the format read above
        n, start = field
        for code, search in known:
            if text.startswith(code, start):
                return _protocol_run(NU, search, n, text[start + len(code) :], budget)
        field = _read_field(text, start)
        machine = None if field is None else _machine_at(field[0], index)
        if machine is None:
            return None
        return _protocol_run(NU, partial(bh_search, machine), n, text[field[1] :], budget)

    return VirtualMachine(name="universal", evaluator=evaluator)


# --- reduction into the universal machine ------------------------------------


def red2bhu(machine: Machine, g_user: GuardLike) -> BHStage:
    """Bounded halting of a machine into bounded halting of the universal
    machine: the map x -> 1^pad 0 head(|x|, machine-code 0) x'' with
    image length h(|x|) = g(|x|)·s(|x|), s = 1 (the universal machine's
    slowdown), so h is the guard; x'' is computed against the input
    ensemble.

    The guard g is the user guard raised by ``adequate_guard`` until it
    has room for the machine code and its separator, so every image fits.
    The machine must read binary inputs (``ValueError`` otherwise).
    """
    if not _reads_binary(machine):
        raise ValueError("the machine cannot read binary inputs")
    i = machine_index(machine)
    prefix = _code_field(i)
    h = adequate_guard(g_user, extra_payload=len(prefix))
    return BHStage(red2bh_map(NU, h, prefix), _universal({i: machine}, {i: prefix}), h, NU, prefix)


def verify_red2bhu_membership(
    machine: Machine, stage: BHStage, words: Iterable[Word], report: CheckReport
) -> Iterator[tuple[Word, Word, bool]]:
    """``verify_membership`` from the machine's bounded halting problem
    into the universal one."""
    return verify_membership(partial(bh_member, machine), stage, words, report)


def verify_red2bhu_measure(stage: BHStage, pairs: Iterable[tuple], n_max: int) -> CheckReport:
    """Exact check of the measure loss of the universal-machine map at
    every pair (x, f(x)) with 1 <= |x|, read off the front of each tuple:

        mass(f(x)) >= mass(x) / (16 |x|^2 g(|x|) s(|x|) 2^(|code|+1))

    with both masses under the input ensemble and h = g·s, s = 1."""
    report = CheckReport("measure-decrease-universal", n_max)
    min_ratio = check_lower_bounds(report, stage.measure_points(pairs))
    report.details["machine_code_length"] = len(stage.prefix) - 1
    report.details["skipped_spheres"] = [0]
    if min_ratio is not None:
        report.details["min_ratio"] = str(min_ratio)
    return report


# --- the full chain -----------------------------------------------------------


class ChainReport:
    """Per-stage verification results of the completeness pipeline."""

    def __init__(self) -> None:
        self.stages: list[tuple[str, CheckReport]] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for _, r in self.stages)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "stages": [{"stage": name, **r.to_dict()} for name, r in self.stages],
        }


def _relaxation_points(restricted: InducedEnsemble, m: int, d: int) -> Iterator[tuple]:
    """The ``check_lower_bounds`` points (y, NU.mass(y), restricted.mass(y),
    d) of sphere m, one per class of the input ensemble: both masses are
    constant on each class, which is one lex-ordered block of words.  A
    class with got * d < mass yields each of its words in lex order
    instead, so the violations are the per-word ones."""
    for prefix, k in NU.classes(m):
        y = Word.of_text(BINARY, prefix + "0" * k)
        got, mass = NU.mass(y), restricted.mass(y)
        num, den = bound_ratio(got, mass, d)
        if num >= den:
            yield y, got, mass, d
            continue
        for w in BINARY.sphere(k):
            y = Word.of_text(BINARY, prefix + w.text())
            yield y, NU.mass(y), restricted.mass(y), d


def completeness_pipeline(
    problem: DistributionalProblem, stage1: BHStage, n_max: int = 3
) -> ChainReport:
    """Run the whole chain on one problem and verify every stage.

    Stage 1 is ``stage1``, the reduction ``red2bh`` built from the problem
    to the bounded halting problem of a protocol machine (membership
    both ways, exact measure decrease).
    Stage 2 relaxes the restricted ensemble back to the plain input
    ensemble through the identity (pointwise measure comparison with
    density n+1, checked class by class on full spheres across the image
    range).
    Stage 3 embeds that machine into the universal machine (membership
    and the measure inequality along the chain's images).  Stage 4
    relaxes the restricted universal ensemble, checked on the final
    images and on honest restricted codes.
    """
    chain = ChainReport()
    report1 = CheckReport("membership-preservation", n_max)
    images = list(verify_membership(problem.positive, stage1, BINARY.ball(n_max), report1))
    chain.stages.append(("reduce-to-bounded-halting:membership", report1))
    chain.stages.append(
        ("reduce-to-bounded-halting:measure", verify_measure_decrease(stage1, images, n_max))
    )

    # stage 2: identity from the C(g)-restricted ensemble into the plain one
    restricted = nu_g(stage1.guard)
    d_general = Polynomial((1, 1))
    report2 = CheckReport("restriction-relaxation", stage1.guard(n_max))

    def relaxed_points():
        for m in range(stage1.guard(n_max) + 1):
            if m > ENUMERATION_CAP:
                report2.details["truncated_at"] = m
                return
            yield from _relaxation_points(restricted, m, d_general(m))

    check_lower_bounds(report2, relaxed_points())
    chain.stages.append(("relax-restriction:measure", report2))

    # stage 3: embed the protocol machine into the universal machine, on
    # the first stage's images, whose verdicts stage 1 already computed
    stage3 = red2bhu(stage1.machine, Polynomial((8, 2)))
    report3m = CheckReport("universal:membership", n_max)
    verdicts = {y.text(): member for _, y, member in images}
    pairs3 = list(
        verify_membership(lambda u: verdicts[u.text()], stage3, (y for _, y, _ in images), report3m)
    )
    # the chain keeps only the violations of the universal measure check
    report3q = CheckReport(
        "universal:measure", n_max, verify_red2bhu_measure(stage3, pairs3, n_max).violations
    )
    chain.stages.append(("embed-in-universal:membership", report3m))
    chain.stages.append(("embed-in-universal:measure", report3q))

    # stage 4: relax the universal restriction on the final images and on
    # honest restricted codes
    restricted_u = nu_g(stage3.guard)
    report4 = CheckReport("relax-universal-restriction", n_max)
    finals = [z for _, z, _ in pairs3] + [
        encode_instance(stage3.guard(k), w) for k in range(2) for w in BINARY.sphere(k)
    ]
    check_lower_bounds(
        report4,
        ((z, NU.mass(z), restricted_u.mass(z), d_general(len(z))) for z in finals),
    )
    chain.stages.append(("relax-universal-restriction:measure", report4))
    return chain


# --- subset registry for ensemble specs --------------------------------------


def subset_from_spec(spec: dict, base: Optional[SphericalEnsemble] = None):
    """Named word predicates for induced-ensemble descriptions.

    {"name": "cg", "g": "2n+1"} -> the restricted code family;
    {"name": "image41"} -> the image of the doubling homomorphism;
    {"name": "all"} -> everything.

    Returns (predicate, label, sphere mass or None).  The restricted
    family's ``cg_sphere_mass`` is attached whenever ``base`` is over the
    binary alphabet "01"; other alphabets fall back to testing every word.
    """
    name = spec["name"]
    if name == "cg":
        guard = as_guard(parse_polynomial(spec["g"]), form=str(spec["g"]))
        closed = cg_sphere_mass(guard, base) if base is not None and base.alphabet is BINARY else None
        return c_of_g(guard), f"C({guard.form})", closed
    if name == "image41":
        return example41_image_member, "image{00,1}*", None
    if name == "all":
        return (lambda x: True), "all", (lambda n: ONE)
    raise ValueError(f"unknown subset {name!r}")
