"""The distributional bounded halting problem and its reduction chain.

Instances are binary words.  A word containing a zero is the code
1^m 0 w of the pair (n, w) with n the whole word's length; the empty
word and the all-ones words are valid words but not codes.  The input
ensemble gives a code mass 1/(n * 2^|w|), the empty word mass 1, and
all-ones words mass 0.

On top of the codec this module builds, with exact arithmetic
throughout:

* longevity guards and the code family C(g) = {code of (g(|w|), w)},
  which meets each sphere in at most one class, so its sphere mass under
  any binary ensemble is one block mass (1/n under the input ensemble);
* the self-delimiting interleaved numerals used to embed lengths and
  machine encodings into code payloads;
* the dyadic compression x -> x'' that equalizes measure: high-mass
  inputs are replaced by a short dyadic address of their cumulative-mass
  interval, low-mass inputs are shipped verbatim;
* one stage type for both reductions into bounded halting -- an
  arbitrary binary distributional problem into a purpose-built protocol
  machine, and any machine into an interpreter-backed universal
  machine -- with one code writer, x -> 1^pad 0 numeral(|x|) 0 prefix
  x'', and one measure bound, mass(x) / (16 |x|^2 g(|x|) 2^|prefix|);
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
from fractions import Fraction
from functools import partial
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
    block_mass,
    check_lower_bounds,
    fraction_str,
    invert_mu_star,
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


def _wrap(length: int, payload: str) -> Word:
    """The code 1^m 0 payload of the given length: the one place codes are
    built.

    The payload is binary text (``encode_instance`` checks its word's
    alphabet, and the reduction maps write binary fields), so the image
    is built from its text unchecked."""
    m = length - len(payload) - 1
    if m < 0:
        raise GuardError(
            f"code length {length} cannot hold a {len(payload)}-symbol payload"
        )
    return Word.of_text(BINARY, "1" * m + "0" + payload)


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

GuardLike = Union["LongevityGuard", Polynomial, Callable[[int], int]]

#: Guards are checked against their invariants on 0..GUARD_VALIDATION_HORIZON.
GUARD_VALIDATION_HORIZON = 64


class LongevityGuard(Frozen):
    """A step-bound function g for restricting the halting problem.

    Invariants, checked up to ``GUARD_VALIDATION_HORIZON``: g(n) >= n, g is
    strictly increasing, and g(0) >= 1 (so codes of every payload length
    exist).  Guards need not be polynomials; the adequate guards built
    for the reductions are maxima of a polynomial and length envelopes,
    stored as callables with a readable form string.
    """

    _fields = ("fn", "form")

    def __init__(self, fn: Callable[[int], int], form: str = "g") -> None:
        self._set(fn, form)
        prev = None
        for n in range(GUARD_VALIDATION_HORIZON + 1):
            v = fn(n)
            if v < n:
                raise GuardError(f"guard violates g(n) >= n at n={n}: {v}")
            if prev is not None and v <= prev:
                raise GuardError(f"guard is not strictly increasing at n={n}")
            prev = v
        if fn(0) < 1:
            raise GuardError("guard must satisfy g(0) >= 1")

    def __call__(self, n: int) -> int:
        return self.fn(n)


def as_guard(g: GuardLike, form: str = "") -> LongevityGuard:
    if isinstance(g, LongevityGuard):
        return g
    if isinstance(g, Polynomial):
        return LongevityGuard(g, form or str(g))
    return LongevityGuard(g, form or "g")


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
    with no horizon, under the uniform ensemble (2^(k+1-n)) and the input
    ensemble (1/n)."""
    guard = as_guard(g)

    def mass(n: int) -> Fraction:
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


# --- interleaved numerals ----------------------------------------------------


def numeral(n: int) -> Word:
    """Self-delimiting numeral: the binary expansion of n with a 1 marker
    in front of every bit.  Zero is represented as "10" (a single marked
    zero bit), the one value whose leading bit is allowed to be 0."""
    if n < 0:
        raise ValueError("numerals encode nonnegative integers")
    bits = bin(n)[2:] if n > 0 else "0"
    return BINARY.word("".join("1" + b for b in bits))


def scan_numeral(text: str, start: int) -> Optional[tuple[int, int]]:
    """Parse a numeral at ``start``; return (value, end index) or None.

    A numeral is a maximal run of marker pairs "1b"; it ends where the
    next character is a field separator "0" or the string ends.  The
    markers are every other character from ``start``; their leading run
    of ones is the numeral, and its bits sit between them.
    """
    markers = text[start::2]
    count = len(markers) - len(markers.lstrip("1"))
    j = start + 2 * count
    if count == 0 or j > len(text):
        return None  # no marker, or a last marker with no bit after it
    if count > 1 and text[start + 1] == "0":
        return None  # leading bit of a nonzero numeral must be 1
    return int(text[start + 1 : j : 2], 2), j


def _read_field(text: str) -> Optional[tuple[int, str]]:
    """Read one field "numeral 0" off the front of a code payload.

    The inverse of the payloads the reduction maps wrap: returns the
    numeral value and the rest of the text (possibly empty), or None
    when the field is malformed or lacks its separator.
    """
    head = scan_numeral(text, 0)
    if head is None or head[1] >= len(text) or text[head[1]] != "0":
        return None
    return head[0], text[head[1] + 1 :]


# --- dyadic interval compression --------------------------------------------


def xprime_value(text: str) -> Fraction:
    """The dyadic value named by a candidate string x0 x1 ... xk:
    x0 . x1 ... xk 1 in binary, i.e. (2 * int(text, 2) + 1) / 2^len."""
    if not text or any(c not in "01" for c in text):
        raise ValueError("candidate must be a nonempty binary string")
    return Fraction(2 * int(text, 2) + 1, 2 ** len(text))


def x_prime(mu: SphericalEnsemble, x: Word) -> Word:
    """The shortest (shortlex-least) binary string whose dyadic value lands
    strictly above the cumulative mass of x and at most at the cumulative
    mass of its successor.

    Needs a nonempty mass interval, i.e. mass(x) > 0.  When
    mass(x) > 2^-|x| (the only case the compression uses) the result is
    guaranteed no longer than x; at mass exactly 2^-|x| it can take one
    extra symbol.  Computed from the common binary prefix of the two
    interval endpoints.
    """
    lo, hi = mu.interval(x)
    if lo == hi:
        raise ValueError("x_prime needs mass(x) > 0 (nonempty interval)")
    return _x_prime_prefix(lo, hi, len(x))


def _x_prime_prefix(lo: Fraction, hi: Fraction, n: int) -> Word:
    """The construction from the interval endpoints' binary expansions:
    they agree on a (possibly empty) prefix of fractional digits and then
    the lower endpoint shows 0 where the upper shows 1; the address is
    "0" followed by the common prefix.  The upper endpoint 1 is read as
    0.111...; terminating expansions are used otherwise.  The first
    k = n + 2 digits of each endpoint are read as one integer, so the
    common prefix is the top k - bitlen(a ^ b) digits of either."""
    k = n + 2
    a = (lo.numerator << k) // lo.denominator
    b = (1 << k) - 1 if hi == 1 else (hi.numerator << k) // hi.denominator
    common = k - (a ^ b).bit_length()
    if common == k:
        raise AssertionError("interval endpoints agree too long; mass bound broken")
    text = "0" + format(a, f"0{k}b")[:common]
    value = xprime_value(text)
    if not (lo < value <= hi):
        raise AssertionError("prefix construction produced a bad dyadic address")
    return BINARY.word(text)


def x_double_prime(mu: SphericalEnsemble, x: Word) -> Word:
    """Verbatim shipping for low-mass inputs, dyadic address for high-mass
    ones: 0x if mass(x) <= 2^-|x|, else 1 x'.  Always at most |x|+1 long,
    and always mass(x) <= 4 * 2^-|x''|."""
    if mu.mass(x) <= Fraction(1, 2 ** len(x)):
        return BINARY.word("0" + x.text())
    return BINARY.word("1" + x_prime(mu, x).text())


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
    carries a dyadic address which is resolved against the cumulative
    masses and must round-trip through the address construction.
    """
    if not x2 or budget < n or mu.horizon is not None and n > mu.horizon:
        return None
    b, w = x2[0], x2[1:]
    try:
        if b == "0":
            candidate = BINARY.word(w)
            # literal mass test: mass of w in the claimed sphere n (zero when
            # the lengths disagree) against the threshold for w's own length
            mass = mu.mass(candidate) if len(candidate) == n else ZERO
            if mass > Fraction(1, 2 ** len(candidate)):
                return None
        else:
            if not w:
                return None
            value = xprime_value(w)
            if not 0 < value <= 1:
                return None
            candidate = invert_mu_star(mu, n, value)
            if mu.mass(candidate) <= Fraction(1, 2**n) or x_prime(mu, candidate).text() != w:
                return None
    except HorizonError:  # a sphere enumerated past ENUMERATION_CAP
        return None
    steps = inner(candidate, budget - n)
    return None if steps is None else n + steps


# --- reduction to the bounded halting problem --------------------------------


class BHStage(NamedTuple):
    """One reduction into bounded halting: the map x -> 1^pad 0 numeral(|x|)
    0 prefix x'', the machine whose bounded halting problem receives it
    (None when only the map's measure is checked), the guard (the map's
    size growth), the source measure x'' is computed against, and the
    payload prefix ("" for the first stage, machine-code 0 for the
    universal one).  ``red2bh`` and ``red2bhu`` build the two stages."""

    reduction: Reduction
    machine: Optional[Machine]
    guard: LongevityGuard
    mu: SphericalEnsemble
    prefix: str = ""

    def mass_bound(self, x: Word) -> Fraction:
        """The least image mass the measure inequality allows for x:
        mass(x) / (16 |x|^2 g(|x|) 2^|prefix|), for |x| >= 1."""
        n = len(x)
        return self.mu.mass(x) / ((16 * n * n * self.guard(n)) << len(self.prefix))


def adequate_guard(
    g_user: GuardLike,
    decider_guard: Optional[Callable[[int], int]] = None,
    extra_payload: int = 0,
) -> LongevityGuard:
    """Raise a user guard until codes fit and simulations finish in budget.

    The result is the pointwise maximum of the user guard, the payload
    envelope n + 2*bitlen(n) + 6 + extra_payload (room for the numeral,
    separators, and the compressed input, plus the extra embedded payload
    such as a machine encoding), and n + decider_guard(n) (decode
    accounting plus the simulated decider's own longevity).  The user
    guard must itself be a valid guard; corrupt ones fail construction.
    """
    base = as_guard(g_user).fn

    def fn(n: int) -> int:
        best = base(n)
        envelope = n + 2 * max(n.bit_length(), 1) + 6 + extra_payload
        if envelope > best:
            best = envelope
        if decider_guard is not None:
            need = n + decider_guard(n)
            if need > best:
                best = need
        return best

    return LongevityGuard(fn, f"adequate({getattr(g_user, 'form', 'g')})")


def red2bh_map(mu: SphericalEnsemble, guard: LongevityGuard, prefix: str = "") -> Reduction:
    """The instance map x -> 1^pad 0 numeral(|x|) 0 prefix x'', the one
    writer of both stages' codes.

    Images have length exactly guard(|x|), so the guard is the size
    growth; the construction errors out if the guard leaves no room for
    the payload (cannot happen for guards built by ``adequate_guard``).
    A source measure over another alphabet raises ``ValueError``.
    """
    if mu.alphabet is not BINARY:
        raise ValueError("reduce to a binary alphabet first")

    def apply(x: Word) -> Word:
        n = len(x)
        return _wrap(guard(n), numeral(n).text() + "0" + prefix + x_double_prime(mu, x).text())

    return Reduction(
        name=f"to-bounded-halting[{guard.form}]",
        source=BINARY,
        target=BINARY,
        func=apply,
        size_growth=guard.fn,
    )


def red2bh(
    problem: DistributionalProblem,
    decider: Machine,
    g_user: GuardLike,
    decider_guard: Callable[[int], int],
) -> BHStage:
    """Reduce a binary distributional problem to the bounded halting
    problem of a purpose-built protocol machine.

    ``decider`` must accept exactly the positive words by having a
    halting computation (membership by halting); ``decider_guard`` must
    bound the steps of all its halting computations.  The machine
    decodes the payload, recovers the original input (inverting the
    cumulative masses on the dyadic-address branch), rejects payloads
    whose mass tests or round-trip checks fail by never halting, and
    otherwise simulates the decider.  A decider that cannot read binary
    inputs raises ``ValueError`` here, so the protocol machine never does.
    """
    if not _reads_binary(decider):
        raise ValueError("the decider cannot read binary inputs")
    guard = adequate_guard(g_user, decider_guard)
    mu = problem.measure
    inner = partial(_search_halting, decider)

    def evaluator(v: Word, budget: int) -> Optional[int]:
        fields = _read_field(v.text())
        return None if fields is None else _protocol_run(mu, inner, *fields, budget)

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

        NU.mass(f(x)) >= stage.mass_bound(x) = mass(x) / (16 |x|^2 g(|x|))

    The report carries per-branch data: which compression branch each
    input took, the exact ratio target/bound, and the sharper per-branch
    factors (8 for the verbatim branch, 16 for the address branch).  The
    length-0 sphere is outside the inequality's domain (its bound
    degenerates) and is recorded as skipped.
    """
    report = CheckReport("measure-decrease", n_max)
    branch1_f8: list[dict] = []
    branch2_f16: list[dict] = []

    def points():
        for x, y, *_ in pairs:
            if not x.letters:
                continue
            got, bound = NU.mass(y), stage.mass_bound(x)
            if stage.mu.mass(x) <= Fraction(1, 2 ** len(x)):
                sharper = 2 * bound  # mass / (8 |x|^2 g(|x|))
                if got < sharper:
                    branch1_f8.append(
                        {"witness": x.text(), "expected": fraction_str(sharper),
                         "actual": fraction_str(got)}
                    )
            elif got < bound:
                # the address branch's sharper factor is the headline 16,
                # so its violations are the headline ones on that branch
                branch2_f16.append(
                    {"witness": x.text(), "expected": fraction_str(bound),
                     "actual": fraction_str(got)}
                )
            yield x, got, bound

    min_ratio = check_lower_bounds(report, points())
    report.details["skipped_spheres"] = [0]
    report.details["branch1_factor8_violations"] = branch1_f8
    report.details["branch2_factor16_violations"] = branch2_f16
    if min_ratio is not None:
        report.details["min_ratio"] = fraction_str(min_ratio)
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
    Anything else is None: an index that is not UTF-8 JSON, JSON that is
    not a table (virtual machines decode via the registry only), a
    malformed table, or a tape alphabet other than the binary one."""
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
        except ValueError:  # UnicodeDecodeError and JSONDecodeError
            return None
        table = payload.get("table") if isinstance(payload, dict) else None
        if not isinstance(table, dict):  # load_machine reads a string as a path
            return None
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
    * chained: numeral 0 machine-code 0 x'' -- the decoding protocol for
      the bounded halting problem of the decoded machine, with the input
      ensemble as the measure: recover the instance from x'' and run the
      bounded membership search.  Costs the decoded length in steps plus
      the simulated steps.

    Anything else (including undecodable machine fields) never halts.

    The code texts "machine-code 0" of the registry's machines are built
    once, so a chained input whose machine field is one of them, as
    every image ``red2bhu`` writes is, skips parsing the thousands of
    letters of that field: a numeral ends at the first separator on a
    marker position, so reading the field would give the same machine
    and the same rest.
    """
    index: dict[int, Machine] = {machine_index(m): m for m in registry}
    known: list[tuple[str, Search]] = []  # (machine-code 0, its search)
    for i in index:
        machine = _machine_at(i, index)
        if machine is not None:
            known.append((numeral(i).text() + "0", partial(bh_search, machine)))

    def evaluator(v: Word, budget: int) -> Optional[int]:
        fields = _read_field(v.text())
        if fields is None:
            return None
        gamma, rest = fields
        machine = _machine_at(gamma, index)
        if machine is not None:  # plain shape: machine-code 0 w
            return _search_halting(machine, BINARY.word(rest), budget)
        # chained shape: numeral 0 machine-code 0 x'', gamma being the numeral
        for code, search in known:
            if rest.startswith(code):
                return _protocol_run(NU, search, gamma, rest[len(code) :], budget)
        fields = _read_field(rest)
        machine = None if fields is None else _machine_at(fields[0], index)
        if machine is None:
            return None
        return _protocol_run(NU, partial(bh_search, machine), gamma, fields[1], budget)

    return VirtualMachine(
        name="universal",
        evaluator=evaluator,
        definition={"protocol": "universal", "registry": sorted(index)},
    )


# --- reduction into the universal machine ------------------------------------


def red2bhu(machine: Machine, g_user: GuardLike) -> BHStage:
    """Bounded halting of a machine into bounded halting of the universal
    machine: the map x -> 1^pad 0 numeral(|x|) 0 machine-code 0 x'' with
    image length h(|x|) = g(|x|)·s(|x|), s = 1 (the universal machine's
    slowdown), so h is the guard; x'' is computed against the input
    ensemble.

    The guard g is the user guard raised by ``adequate_guard`` until it
    has room for the machine code and its separator, so every image fits.
    The machine must read binary inputs (``ValueError`` otherwise).
    """
    if not _reads_binary(machine):
        raise ValueError("the machine cannot read binary inputs")
    prefix = machine_code(machine).text() + "0"
    h = adequate_guard(g_user, extra_payload=len(prefix))
    return BHStage(red2bh_map(NU, h, prefix), universal_machine([machine]), h, NU, prefix)


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
    min_ratio = check_lower_bounds(
        report, ((x, NU.mass(y), stage.mass_bound(x)) for x, y, *_ in pairs if x.letters)
    )
    report.details["machine_code_length"] = len(stage.prefix) - 1
    report.details["skipped_spheres"] = [0]
    if min_ratio is not None:
        report.details["min_ratio"] = fraction_str(min_ratio)
    return report


# --- the full chain -----------------------------------------------------------


class ChainReport:
    """Per-stage verification results of the completeness pipeline."""

    def __init__(self, stages: Optional[list[tuple[str, CheckReport]]] = None) -> None:
        self.stages = [] if stages is None else stages

    @property
    def passed(self) -> bool:
        return all(r.passed for _, r in self.stages)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "stages": [{"stage": name, **r.to_dict()} for name, r in self.stages],
        }


def _relaxation_points(restricted: InducedEnsemble, m: int, d) -> Iterator[tuple]:
    """The points (y, NU.mass(y), restricted.mass(y) / d) of sphere m, one
    per class of the input ensemble: both masses are constant on each
    class, which is one lex-ordered block of words.  A class that fails
    got >= bound yields each of its words in lex order instead, so the
    violations are the per-word ones."""
    for prefix, k in NU.classes(m):
        y = BINARY.word(prefix + "0" * k)
        got, bound = NU.mass(y), restricted.mass(y) / d
        if got >= bound:
            yield y, got, bound
            continue
        for w in BINARY.sphere(k):
            y = BINARY.word(prefix + w.text())
            yield y, NU.mass(y), restricted.mass(y) / d


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
    stage3 = red2bhu(stage1.machine, lambda n: 2 * n + 8)
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
        ((z, NU.mass(z), restricted_u.mass(z) / d_general(len(z))) for z in finals),
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
