"""Spherical ensembles of exact-rational probability measures.

A spherical ensemble assigns to every sphere radius n a probability
measure supported on the words of length n.  All masses are
``fractions.Fraction`` values and every verification in this package is
an exact comparison; floating point appears only in convenience columns
of exported tables.

Provided ensemble kinds: uniform, finite table, the bounded-halting
ensemble (mass 1/(|u| * 2^|w|) on code words 1^m 0 w, mass 1 on the
empty word, mass 0 on 1^k), transfers along size-invariant maps, and
conditionals induced by a decidable subset.  ``verify_transfer`` and
``verify_induced`` recompute the defining equations by brute-force
enumeration and report exact mismatches.  The uniform, table and
bounded-halting ensembles each draw their own samples with ``sample``.

Two limits bound what an ensemble can answer.  Its ``horizon`` is the
largest radius up to which ``mass`` is defined (None for every radius;
a table's is its ``n_max``, and wrappings inherit it), and
``ENUMERATION_CAP`` is the largest sphere that enumeration visits.
Cumulative masses (``mu_star``, ``hat_mu``) and their inverse are
closed forms for the uniform and the bounded-halting ensembles, which
therefore meet no cap there; the bounded-halting ones are evaluated
one class of words at a time.  The other kinds, and every sphere sum
but the uniform one, enumerate their spheres, up to ``ENUMERATION_CAP``.
Enumerated sums still call ``mass`` on every word, but add the terms by
``exact_sum``: numerators as integers, one total per denominator.  The
uniform and bounded-halting masses are shared values, one ``Fraction``
per sphere or class, so a sum over a sphere builds almost none.

The transfer of mu along f assigns to a target word y the total mu-mass
of its preimage when |y| is an achieved image size, and the uniform
filler |target alphabet|^-|y| otherwise.  The subset-induced ensemble
conditions each sphere on the subset when the subset's sphere mass is
nonzero and leaves the sphere untouched otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import ceil
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .words import (
    BINARY,
    Alphabet,
    AlphabetMismatchError,
    SphereRangeError,
    Word,
    rank_in_sphere,
    unrank,
)

#: The largest sphere radius that enumeration-backed operations visit.
ENUMERATION_CAP = 16

ZERO = Fraction(0)
ONE = Fraction(1)


class HorizonError(ValueError):
    """An operation would enumerate a sphere beyond its allowed horizon."""


class SizeInvarianceError(ValueError):
    """A transfer was requested along a map that is not size-invariant."""


def exact_sum(masses: Iterable[Fraction]) -> Fraction:
    """The exact sum of rationals: numerators are added as integers, one
    running total per denominator, and only the distinct denominators
    are combined as Fractions."""
    totals: dict[int, int] = {}
    for q in masses:
        num, den = q.as_integer_ratio()
        totals[den] = totals.get(den, 0) + num
    return sum((Fraction(num, den) for den, num in totals.items()), ZERO)


@cache
def _uniform_mass(size: int, n: int) -> Fraction:
    """size^-n, the mass of each word of sphere n under the uniform
    measure of a size-letter alphabet; one shared value per sphere."""
    return Fraction(1, size**n)


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def size_inverse(fn: Callable[[int], int], m: int) -> Optional[int]:
    """The k with fn(k) = m, if any, for a strictly increasing size
    function fn on the nonnegative integers (so fn(k) >= k)."""
    k = bisect_left(range(m + 1), m, key=fn)
    return k if k <= m and fn(k) == m else None


class Violation(NamedTuple):
    witness: str
    expected: str
    actual: str
    note: str = ""

    def to_dict(self) -> dict:
        d = {"witness": self.witness, "expected": self.expected, "actual": self.actual}
        if self.note:
            d["note"] = self.note
        return d


class CheckReport:
    """Result of an exact brute-force verification.

    ``violations`` empty means the property held at every checked point.
    """

    def __init__(self, check: str, horizon: int, violations: Optional[list[Violation]] = None,
                 details: Optional[dict] = None) -> None:
        self.check = check
        self.horizon = horizon
        self.violations = [] if violations is None else violations
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, witness: str, expected, actual, note: str = "") -> None:
        self.violations.append(
            Violation(
                witness,
                fraction_str(expected) if isinstance(expected, Fraction) else str(expected),
                fraction_str(actual) if isinstance(actual, Fraction) else str(actual),
                note,
            )
        )

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "horizon": self.horizon,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "details": self.details,
        }


def check_lower_bounds(
    report: CheckReport, points: Iterable[tuple[object, Fraction, Fraction]]
) -> Optional[Fraction]:
    """Check got >= bound at every (witness, got, bound) point, in order.

    Each failing point adds the violation (str(witness), ">= bound",
    got) to the report.  Bounds are nonnegative.  Returns the minimum
    exact ratio got/bound over the points with a nonzero bound, or None
    when there are none.
    """
    # the running minimum is kept as an integer pair, without a gcd per
    # point on sphere-wide checks, and reduced by its common power of two
    # when it is replaced: exact, and small on the universal stage, whose
    # bounds all carry the factor 2^-|machine code|, so each comparison
    # multiplies a long integer by a short one.  den > 0 (bound > 0), so
    # num | den > 0 even where got is 0.
    best: Optional[tuple[int, int]] = None
    for witness, got, bound in points:
        if got < bound:
            report.add(str(witness), f">= {fraction_str(bound)}", fraction_str(got))
        if bound:
            num = got.numerator * bound.denominator
            den = got.denominator * bound.numerator
            if best is None or num * best[1] < best[0] * den:
                low = num | den
                twos = (low & -low).bit_length() - 1
                best = (num >> twos, den >> twos)
    return None if best is None else Fraction(*best)


class SphericalEnsemble:
    """Base class: per-sphere probability masses with exact arithmetic.

    Subclasses implement ``mass``, and ``sample`` where they have a
    sampler.  The defaults of ``sphere_sum``, ``mu_star`` and
    ``mu_star_inverse`` enumerate the sphere and respect
    ``ENUMERATION_CAP``; subclasses with closed forms override them.
    ``sphere_sum`` calls ``mass`` on every word of the sphere and adds
    the terms by ``exact_sum``.  The cumulative masses of a sphere are
    kept as one list in lex order, indexed by rank.

    ``horizon`` is the largest n such that ``mass`` is defined on every
    sphere up to n; None means every sphere.
    """

    kind = "abstract"
    horizon: Optional[int] = None

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._tables: dict[int, list[Fraction]] = {}

    def mass(self, x: Word) -> Fraction:
        raise NotImplementedError

    def _check_word(self, x: Word) -> None:
        if x.alphabet is not self.alphabet:
            raise AlphabetMismatchError("word is over a different alphabet")

    def _check_cap(self, n: int) -> None:
        if n > ENUMERATION_CAP:
            raise HorizonError(f"sphere {n} exceeds enumeration cap {ENUMERATION_CAP}")

    def sphere_sum(self, n: int) -> Fraction:
        """Exact total mass of the radius-n sphere (should be 1)."""
        self._check_cap(n)
        return exact_sum(map(self.mass, self.alphabet.sphere(n)))

    def _sphere_table(self, n: int) -> list[Fraction]:
        """Inclusive cumulative masses of the sphere's words in lex order:
        entry i belongs to the word of rank i + 1."""
        if n not in self._tables:
            self._check_cap(n)
            self._tables[n] = list(accumulate(map(self.mass, self.alphabet.sphere(n))))
        return self._tables[n]

    def mu_star(self, x: Word) -> Fraction:
        """Cumulative mass strictly below x within its sphere (lex order)."""
        self._check_word(x)
        cum = self._sphere_table(len(x))
        i = rank_in_sphere(x) - 1
        return cum[i - 1] if i > 0 else ZERO

    def hat_mu(self, x: Word) -> Fraction:
        """Cumulative mass up to and including x within its sphere: the
        mu_star of the next word in lex order, and 1 on the last word of
        a sphere that sums to 1."""
        return self.mu_star(x) + self.mass(x)

    def interval(self, x: Word) -> tuple[Fraction, Fraction]:
        """(mu_star(x), hat_mu(x)): the half-open mass interval of x."""
        lo = self.mu_star(x)
        return lo, lo + self.mass(x)

    def mu_star_inverse(self, n: int, t: Fraction) -> Word:
        """``invert_mu_star`` on this ensemble, for a t already checked
        to lie in (0, 1]: a bisection of the enumerated cumulative masses."""
        cum = self._sphere_table(n)
        return unrank(self.alphabet, n, bisect_left(cum, t, 0, len(cum) - 1) + 1)

    def sample(self, rng: Random, n: int) -> Word:
        """One draw from sphere n, read off ``rng``."""
        raise HorizonError(f"no sampler for ensemble kind {self.kind!r}")

    def spec(self) -> dict:
        return {"kind": self.kind, "alphabet": "".join(self.alphabet.symbols)}


class UniformEnsemble(SphericalEnsemble):
    """Equal mass on every word of each sphere; all quantities closed-form."""

    kind = "uniform"

    def mass(self, x: Word) -> Fraction:
        self._check_word(x)
        return _uniform_mass(self.alphabet.size, len(x))

    def sphere_sum(self, n: int) -> Fraction:
        return ONE

    def mu_star(self, x: Word) -> Fraction:
        self._check_word(x)
        return Fraction(rank_in_sphere(x) - 1, self.alphabet.sphere_size(len(x)))

    def mu_star_inverse(self, n: int, t: Fraction) -> Word:
        return unrank(self.alphabet, n, ceil(t * self.alphabet.sphere_size(n)))

    def sample(self, rng: Random, n: int) -> Word:
        """n letters, each drawn directly."""
        symbols = self.alphabet.symbols
        return Word(self.alphabet, tuple(symbols[rng.randrange(len(symbols))] for _ in range(n)))


class TableEnsemble(SphericalEnsemble):
    """Finite table of nonzero masses, keyed by word text; a mass is
    anything ``Fraction`` reads, such as a spec's "1/2".

    Absent entries are zero.  The radius-0 sphere defaults to mass 1 on
    the empty word unless the table overrides it.  The ``horizon`` is the
    ``n_max`` given, by default the longest entry's length; ``mass``
    raises ``HorizonError`` past it, and the spec keeps it as "n_max".
    """

    kind = "table"

    def __init__(self, alphabet: Alphabet, entries: dict,
                 n_max: Optional[int] = None):
        super().__init__(alphabet)
        self.entries = {k: Fraction(v) for k, v in entries.items()}
        # each entry's mass summed into its sphere's total, for ``validate``
        self._totals = {0: ONE} if "" not in self.entries else {}
        for key, value in self.entries.items():
            n = len(alphabet.word(key))  # validates symbols
            if value < 0:
                raise ValueError(f"negative mass for {key!r}")
            self._totals[n] = self._totals.get(n, ZERO) + value
        self.horizon = n_max if n_max is not None else max(self._totals)

    def mass(self, x: Word) -> Fraction:
        self._check_word(x)
        if len(x) > self.horizon:
            raise HorizonError(f"table ensemble is only defined up to n={self.horizon}")
        if len(x) == 0 and x.text() not in self.entries:
            return ONE
        return self.entries.get(x.text(), ZERO)

    def validate(self, n_max: Optional[int] = None) -> None:
        """Check that every sphere up to n_max sums to exactly 1.

        The entries are summed by word length when the table is built, so
        no sphere is enumerated and no horizon applies."""
        for n in range((self.horizon if n_max is None else n_max) + 1):
            total = self._totals.get(n, ZERO)
            if total != 1:
                raise ValueError(f"sphere {n} sums to {total}, not 1")

    def spec(self) -> dict:
        return {
            "kind": "table",
            "alphabet": "".join(self.alphabet.symbols),
            "entries": {k: fraction_str(v) for k, v in sorted(self.entries.items())},
            "n_max": self.horizon,
        }

    def sample(self, rng: Random, n: int) -> Word:
        """The inverse of the cumulative masses at a 64-bit dyadic."""
        return invert_mu_star(self, n, Fraction(rng.getrandbits(64) + 1, 1 << 64))  # t in (0, 1]


# 1/(n * 2^|w|), ν's mass on the class (n, |w|), built once per class.
# Module-level, so ``DBHNuEnsemble.mass`` also works when another
# ensemble class borrows it.
_NU_CLASS_MASSES: dict[tuple[int, int], Fraction] = {}


class DBHNuEnsemble(SphericalEnsemble):
    """The bounded-halting input ensemble over the binary alphabet.

    A word 1^m 0 w gets mass 1/(n * 2^|w|) where n is the whole word's
    length; the empty word gets 1; the all-ones words get 0.  Each
    leading-ones count m contributes exactly 1/n to sphere n, so spheres
    sum to one by telescoping.

    Mass depends only on the class (n, m), and in lex order each class
    is one contiguous block (see ``classes``).  So cumulative masses and
    their inverse have closed forms, with no enumeration and no horizon:

        mu_star(1^m 0 w) = m/n + int(w, 2)/(n * 2^|w|),   mu_star(1^n) = 1

    ``sphere_sum`` is the base class's word-by-word sum: ``verify
    nu-sums`` checks the mass of every word, not the class structure.
    ``mass`` reads the class (the first zero) off whichever form the
    word holds, so sphere words stay letter tuples and bounded-halting
    images stay text, and returns one shared Fraction per class, so the
    sum adds integer numerators by ``exact_sum``.
    """

    kind = "dbh_nu"

    def __init__(self):
        super().__init__(BINARY)

    def mass(self, x: Word) -> Fraction:
        # ``_check_word`` inlined: sphere sums call this once per word, and
        # the saved call pays for ``len`` and ``index`` reading the held form
        if x.alphabet is not self.alphabet:
            raise AlphabetMismatchError("word is over a different alphabet")
        n = len(x)
        if not n:
            return ONE
        try:
            k = n - 1 - x.index("0")  # |w|
        except ValueError:  # 1^n
            return ZERO
        q = _NU_CLASS_MASSES.get((n, k))
        if q is None:
            q = _NU_CLASS_MASSES[n, k] = Fraction(1, n << k)
        return q

    @staticmethod
    def classes(n: int) -> Iterator[tuple[str, int]]:
        """The n+1 classes of sphere n in lex order, as (prefix, k): the
        class is the block of the 2^k words prefix + w with |w| = k.
        Prefixes are 1^m 0 for m < n, then 1^n on its own."""
        if n < 0:
            raise SphereRangeError("sphere radius must be nonnegative")
        for m in range(n):
            yield "1" * m + "0", n - m - 1
        yield "1" * n, 0

    def mu_star(self, x: Word) -> Fraction:
        self._check_word(x)
        text = x.text()
        zero_at = text.find("0")
        if zero_at < 0:  # the empty word, or 1^n past every code
            return ONE if text else ZERO
        k = len(text) - zero_at - 1
        return Fraction(zero_at * 2**k + int(text[zero_at:], 2), len(text) * 2**k)

    def mu_star_inverse(self, n: int, t: Fraction) -> Word:
        if n == 0:
            return self.alphabet.empty
        m = ceil(t * n) - 1  # t lies in the class of m
        k = n - m - 1
        j = ceil((t * n - m) * 2**k)  # 1-based rank of w among the k-bit words
        return BINARY.word("1" * m + "0" + unrank(BINARY, k, j).text())

    def sample(self, rng: Random, n: int) -> Word:
        """The leading-ones count drawn uniformly, then a uniform suffix."""
        if n == 0:
            return self.alphabet.empty
        m = rng.randrange(n)
        w = "".join(str(rng.randrange(2)) for _ in range(n - m - 1))
        return self.alphabet.word("1" * m + "0" + w)

    def spec(self) -> dict:
        return {"kind": "dbh_nu"}


#: Shared bounded-halting input ensemble (closed-form cumulative masses,
#: so it builds no sphere tables).
NU = DBHNuEnsemble()


def _pushforward(
    reduction, mu: SphericalEnsemble, k: int, m: int,
    mismatch: Callable[[Word, int, int], None],
) -> dict[tuple, Fraction]:
    """mu's mass on the image of sphere k under the map, as the total
    mass of each length-m image keyed by its letters: the one sum behind
    the transfer equation.  A word whose image has another length is
    handed to ``mismatch`` (the word, m, that length) and left out."""
    acc: dict[tuple, Fraction] = {}
    for x in mu.alphabet.sphere(k):
        y = reduction.apply(x)
        if len(y) != m:
            mismatch(x, m, len(y))
            continue
        key, mass = y.letters, mu.mass(x)
        acc[key] = acc[key] + mass if key in acc else mass
    return acc


class TransferredEnsemble(SphericalEnsemble):
    """Pushforward of a base ensemble along a size-invariant map.

    Mass of a target word y: the total base mass of f^-1(y) when |y| is
    an achieved image size, and |target|^-|y| otherwise.  Preimages are
    found by enumerating the unique source sphere whose image size is
    |y| (sizes are strictly increasing, so at most one exists).  Each
    target length is inverted once: its image masses are cached, or
    None when no source sphere reaches it.  The horizon is the image
    size of the base's horizon.
    """

    kind = "transferred"

    def __init__(self, reduction, base: SphericalEnsemble):
        if reduction.size_growth is None:
            raise SizeInvarianceError(
                f"{reduction.name}: no size-growth declared; transfer needs a "
                "size-invariant map"
            )
        super().__init__(reduction.target)
        self.reduction = reduction
        self.base = base
        if base.horizon is not None:
            self.horizon = reduction.size_growth(base.horizon)
        self._images: dict[int, Optional[dict[tuple, Fraction]]] = {}

    def _image_masses(self, m: int) -> Optional[dict[tuple, Fraction]]:
        """Base mass of each image of length m, keyed by its letters; None
        when no source sphere maps onto length m."""
        if m not in self._images:
            k = size_inverse(self.reduction.size_growth, m)
            images = None
            if k is not None:
                self.base._check_cap(k)
                images = _pushforward(self.reduction, self.base, k, m, self._not_size_invariant)
            self._images[m] = images
        return self._images[m]

    def _not_size_invariant(self, x: Word, m: int, size: int) -> None:
        raise SizeInvarianceError(
            f"{self.reduction.name}: |f({x.text()})| = {size}, "
            f"expected {m}; map is not size-invariant"
        )

    def mass(self, y: Word) -> Fraction:
        self._check_word(y)
        images = self._image_masses(len(y))
        if images is None:
            return _uniform_mass(self.alphabet.size, len(y))
        return images.get(y.letters, ZERO)

    def spec(self) -> dict:
        return {
            "kind": "transferred",
            "reduction": getattr(self.reduction, "name", "?"),
            "base": self.base.spec(),
        }


class InducedEnsemble(SphericalEnsemble):
    """A base ensemble conditioned on a decidable subset, sphere by sphere.

    On spheres where the subset carries nonzero base mass the measure is
    the conditional one; on spheres where it carries none the base
    measure is kept unchanged.  The per-sphere subset mass is
    ``subset_mass`` of the base, from the closed form when one is given,
    and is cached.  The horizon is the base's.
    """

    kind = "induced"

    def __init__(
        self,
        base: SphericalEnsemble,
        subset: Callable[[Word], bool],
        label: str = "S",
        closed: Optional[Callable[[int], Fraction]] = None,
    ):
        super().__init__(base.alphabet)
        self.base = base
        self.horizon = base.horizon
        self.subset = subset
        self.label = label
        self.closed = closed
        self._denominators: dict[int, Fraction] = {}

    def subset_sphere_mass(self, n: int) -> Fraction:
        """Base mass of the subset inside the radius-n sphere."""
        if n not in self._denominators:
            self._denominators[n] = subset_mass(self.base, n, self.subset, self.closed)
        return self._denominators[n]

    def mass(self, x: Word) -> Fraction:
        self._check_word(x)
        denom = self.subset_sphere_mass(len(x))
        if denom == 0:
            return self.base.mass(x)
        numerator = self.base.mass(x) if self.subset(x) else ZERO
        return numerator / denom

    def spec(self) -> dict:
        return {"kind": "induced", "base": self.base.spec(), "subset": self.label}


def subset_mass(
    mu: SphericalEnsemble,
    n: int,
    subset: Callable[[Word], bool],
    closed: Optional[Callable[[int], Fraction]] = None,
) -> Fraction:
    """Total mu-mass of the radius-n words in the subset: the one place
    every density and induced denominator is computed.

    A closed form for that mass, when given, is used and has no horizon.
    Otherwise the sphere is enumerated in lex order, up to
    ``ENUMERATION_CAP``; the predicate is tested first, so only members
    are weighed.
    """
    if closed is not None:
        return Fraction(closed(n))
    mu._check_cap(n)
    return exact_sum(map(mu.mass, filter(subset, mu.alphabet.sphere(n))))


def block_mass(mu: SphericalEnsemble, prefix: Sequence[str], n: int) -> Fraction:
    """mu's exact mass on the lex block of the words of sphere n that
    start with the letters of ``prefix``: the cumulative mass through the
    block's last word less that below its first.  Closed-form, with no
    cap, under the uniform and bounded-halting ensembles; any other
    ensemble reads its enumerated sphere table, up to ``ENUMERATION_CAP``
    and its ``horizon``."""
    alphabet, prefix = mu.alphabet, tuple(prefix)
    pad = n - len(prefix)
    first = Word(alphabet, prefix + (alphabet.symbols[0],) * pad)
    last = Word(alphabet, prefix + (alphabet.symbols[-1],) * pad)
    return mu.hat_mu(last) - mu.mu_star(first)


def invert_mu_star(mu: SphericalEnsemble, n: int, t: Fraction) -> Word:
    """The lexicographically least x in sphere n with
    mu_star(x) < t <= hat_mu(x); total for t in (0, 1].

    Enumerated spheres whose masses sum to less than t resolve to their
    last word."""
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    return mu.mu_star_inverse(n, t)


def verify_transfer(reduction, mu: SphericalEnsemble, nu: SphericalEnsemble,
                    n_max: int) -> CheckReport:
    """Recompute the transfer equation by enumeration on every target word
    up to n_max and compare with nu exactly."""
    report = CheckReport("transfer", n_max)
    target = nu.alphabet
    growth = reduction.size_growth

    def mismatch(x: Word, m: int, size: int) -> None:
        report.add(x.text(), m, size, "image size differs inside sphere")

    for m in range(n_max + 1):
        k = None if growth is None else size_inverse(growth, m)
        expected = {} if k is None else _pushforward(reduction, mu, k, m, mismatch)
        filler = Fraction(1, target.sphere_size(m))
        for y in target.sphere(m):
            want = expected.get(y.letters, ZERO) if k is not None else filler
            got = nu.mass(y)
            if got != want:
                report.add(y.text(), want, got)
    return report


def verify_induced(
    mu: SphericalEnsemble,
    subset: Callable[[Word], bool],
    mu_s: SphericalEnsemble,
    n_max: int,
) -> CheckReport:
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


def ensemble_from_spec(spec: dict) -> SphericalEnsemble:
    """Build an ensemble from its JSON description.

    {"kind": "uniform", "alphabet": "01"} | {"kind": "dbh_nu"} |
    {"kind": "table", "alphabet": "01", "entries": {"00": "1/2", ...}} |
    {"kind": "transferred", "reduction": {...}, "base": {...}} |
    {"kind": "induced", "base": {...}, "subset": {...}}
    """
    kind = spec["kind"]
    if kind == "uniform":
        return UniformEnsemble(Alphabet(spec["alphabet"]))
    if kind == "dbh_nu":
        return DBHNuEnsemble()
    if kind == "table":
        alphabet = Alphabet(spec.get("alphabet", "01"))
        table = TableEnsemble(alphabet, spec["entries"], n_max=spec.get("n_max"))
        table.validate()
        return table
    if kind == "transferred":
        from .reductions import reduction_from_spec

        base = ensemble_from_spec(spec["base"])
        return TransferredEnsemble(reduction_from_spec(spec["reduction"]), base)
    if kind == "induced":
        from .bhp import subset_from_spec

        base = ensemble_from_spec(spec["base"])
        subset, label, closed = subset_from_spec(spec["subset"], base)
        return InducedEnsemble(base, subset, label=label, closed=closed)
    raise ValueError(f"unknown ensemble kind {kind!r}")
