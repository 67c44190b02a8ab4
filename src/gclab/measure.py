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
enumeration and report exact mismatches.  ``samples`` draws a sphere's
samples as one batch off that sphere's own stream, in one pass for uniform.

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
``exact_sum``: numerators as integers, one total per denominator, and a
run of equal terms once.  The uniform and bounded-halting masses are
shared values, one ``Fraction`` per sphere or class read off sparse
per-length tables, so a sum over a sphere builds almost none; their
``mass``, and a transferred ensemble's, make no helper call per word.
Pointwise checks hand ``check_lower_bounds`` undivided masses; it
decides a run of equal points once, by ``bound_ratio``.
Equal values share a comparison; one shared object only makes it free.

The transfer of mu along f assigns to a target word y the total mu-mass
of its preimage when |y| is an achieved image size, and the uniform
filler |target alphabet|^-|y| otherwise.  ``TransferredEnsemble`` maps
each source word forward and sums its image masses.  ``verify_transfer``
derives the same sphere independently where it can: for a map that
keeps rank inside each sphere (the identity, the unary map and the
rank-to-binary map all do), the transfer of source sphere k is its
masses in lex order on the first |source|^k words of the image sphere,
then zero, so the verifier maps no word.  Other maps are checked
against the forward sum.  The subset-induced ensemble
conditions each sphere on the subset when the subset's sphere mass is
nonzero and leaves the sphere untouched otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, groupby, islice, repeat, tee
from operator import itemgetter, truediv
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
    are combined as Fractions.  A run of equal terms is added once, as
    numerator times run length; a run of one shared object (a uniform
    or bounded-halting mass) is found without calling ``__eq__``."""
    totals: dict[int, int] = {}
    for q, run in groupby(masses):
        num, den = q.as_integer_ratio()
        totals[den] = totals.get(den, 0) + num * len(list(run))
    return sum((Fraction(num, den) for den, num in totals.items()), ZERO)


def per_run(fn: Callable) -> Callable:
    """``fn`` called once per run of calls whose two arguments are the
    very objects (``is``, not ``==``) of the call before: the run shares
    that call's result object.  So conditioning the words of a uniform
    sphere or a bounded-halting class on a subset costs one division."""
    last_a = last_b = result = object()  # matches no argument

    def call(a, b):
        nonlocal last_a, last_b, result
        if a is not last_a or b is not last_b:
            last_a, last_b, result = a, b, fn(a, b)
        return result

    return call


# size -> {n: size^-n} for the spheres weighed, one row per alphabet
# size, filled only by ``_uniform_mass`` and read directly by the uniform
# and transferred ensembles of that size
_UNIFORM_MASSES: dict[int, dict[int, Fraction]] = {}


def _uniform_mass(size: int, n: int) -> Fraction:
    """size^-n, the mass of each word of sphere n under the uniform
    measure of a size-letter alphabet; one shared value per sphere.  The
    one constructor of a uniform mass and the only filler of the sparse
    table ``_UNIFORM_MASSES``, so every path hands out the same object
    for (size, n)."""
    row = _UNIFORM_MASSES.setdefault(size, {})
    q = row.get(n)
    if q is None:
        q = row[n] = Fraction(1, size**n)
    return q


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

    def __init__(self, check: str, horizon: int,
                 violations: Optional[list[Violation]] = None) -> None:
        self.check = check
        self.horizon = horizon
        self.violations = [] if violations is None else violations
        self.details: dict = {}

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, witness: str, expected, actual, note: str = "") -> None:
        self.violations.append(Violation(witness, str(expected), str(actual), note))

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "horizon": self.horizon,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "details": self.details,
        }


def bound_ratio(got: Fraction, mass: Fraction, divisor: int) -> tuple[int, int]:
    """got * divisor / mass as an integer pair (num, den), no ``Fraction``
    formed: got * divisor >= mass exactly when num >= den."""
    return got.numerator * mass.denominator * divisor, got.denominator * mass.numerator


def check_lower_bounds(
    report: CheckReport, points: Iterable[tuple[object, Fraction, Fraction, int]]
) -> Optional[Fraction]:
    """Check got >= mass / divisor, masses nonnegative and divisors
    positive ints, at every (witness, got, mass, divisor) point, in order.

    The verdict is read off ``bound_ratio``; the bound is formed only for
    a failing point, which adds the violation (str(witness), ">= bound",
    got) to the report.  Returns the minimum exact ratio got * divisor /
    mass over the points with a nonzero mass, or None.

    A run of points with equal (got, mass, divisor), free to compare when
    they share objects, gets one verdict, bound string and ratio; each
    point of a failing run adds its own violation, in order, before the
    next point is read, so the violations a caller's generator adds stay
    in place.
    """
    # the running minimum is kept as an integer pair, without a gcd per
    # run, and reduced by its common power of two when it is replaced:
    # small on the universal stage, whose divisors all carry the factor
    # 2^|machine code|.  den > 0 (mass > 0) gives num | den > 0.
    best: Optional[tuple[int, int]] = None
    for (got, mass, divisor), run in groupby(points, itemgetter(1, 2, 3)):
        num, den = bound_ratio(got, mass, divisor)
        if num < den:
            expected, actual = f">= {mass / divisor}", str(got)
            for point in run:
                report.add(str(point[0]), expected, actual)
        if den and (best is None or num * best[1] < best[0] * den):
            low = num | den
            twos = (low & -low).bit_length() - 1
            best = (num >> twos, den >> twos)
    return None if best is None else Fraction(*best)


class SphericalEnsemble:
    """Base class: per-sphere probability masses with exact arithmetic.

    Subclasses implement ``mass``, and ``samples`` where they have a
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
        self._check_horizon(n)

    def _check_horizon(self, n: int) -> None:
        if self.horizon is not None and n > self.horizon:
            raise HorizonError(f"{self.kind} ensemble is only defined up to n={self.horizon}")

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

    def mu_star_inverse(self, n: int, p: int, q: int) -> Word:
        """``invert_mu_star`` on this ensemble at t = p/q, already checked
        to lie in (0, 1]: a bisection of the enumerated cumulative masses."""
        cum = self._sphere_table(n)
        return unrank(self.alphabet, n, bisect_left(cum, Fraction(p, q), 0, len(cum) - 1) + 1)

    def samples(self, rng: Random, n: int, count: int) -> list[Word]:
        """``count`` draws from sphere n, read off ``rng`` one after another."""
        raise HorizonError(f"no sampler for ensemble kind {self.kind!r}")

    def spec(self) -> dict:
        return {"kind": self.kind, "alphabet": "".join(self.alphabet.symbols)}


class UniformEnsemble(SphericalEnsemble):
    """Equal mass on every word of each sphere; all quantities closed-form."""

    kind = "uniform"
    _READ_CHUNK = 1 << 16  # the most outputs ``samples`` reads at once

    def __init__(self, alphabet: Alphabet):
        super().__init__(alphabet)
        self._masses = _UNIFORM_MASSES.setdefault(self.alphabet.size, {})

    def mass(self, x: Word) -> Fraction:
        # no helper call per word: the check inlined, the length off the
        # held form, the mass read off the shared per-length table
        if x.alphabet is not self.alphabet:
            raise AlphabetMismatchError("word is over a different alphabet")
        held = x._letters
        n = len(x._text if held is None else held)
        try:
            return self._masses[n]
        except KeyError:  # a sphere not weighed before
            return _uniform_mass(self.alphabet.size, n)

    def sphere_sum(self, n: int) -> Fraction:
        return ONE

    def mu_star(self, x: Word) -> Fraction:
        self._check_word(x)
        return Fraction(rank_in_sphere(x) - 1, self.alphabet.sphere_size(len(x)))

    def mu_star_inverse(self, n: int, p: int, q: int) -> Word:
        """The word of rank ceil(p |sphere n| / q), an integer ceiling."""
        return unrank(self.alphabet, n, -(-p * self.alphabet.sphere_size(n) // q))

    def samples(self, rng: Random, n: int, count: int) -> list[Word]:
        """``count`` words of n letters ``rng.randrange(size)``, in one pass.

        ``randrange(size)`` calls ``getrandbits(k)``, k = size.bit_length(),
        until the value is below size; for k <= 32 a call takes one 32-bit
        output and returns its top k bits, and ``getrandbits(32 m)`` the
        next m outputs, the first lowest.  So for size <= 255 the letters
        are the outputs' top bytes b in order, those with b >> (8 - k) >=
        size deleted, read in chunks of at most ``_READ_CHUNK`` outputs;
        b stands for the letter ``symbols[b >> (8 - k)]``.  Reading past
        the batch is harmless: the stream is the sphere's own.  Larger
        alphabets make the same calls one at a time (``_draws_below``)."""
        symbols, size, total = self.alphabet.symbols, self.alphabet.size, n * count
        if size > 255:
            kept: Sequence[int] = list(_draws_below(rng, size, total))
            letter = symbols.__getitem__
        else:
            shift, kept = 8 - size.bit_length(), bytearray()
            spread = chain.from_iterable(map(repeat, symbols, repeat(1 << shift)))
            letter = tuple(spread).__getitem__  # byte b -> symbols[b >> shift]
            reject = bytes(range(size << shift, 256))
            while len(kept) < total:  # about as many outputs as the batch still needs
                m = min(self._READ_CHUNK, ((total - len(kept)) << 8 - shift) // size + 16)
                top = rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
                kept += top.translate(None, reject)
        return [Word(self.alphabet, tuple(map(letter, kept[i * n:i * n + n])))
                for i in range(count)]


def _draws_below(rng: Random, size: int, count: int) -> Iterator[int]:
    """``count`` draws of ``rng.randrange(size)``, no Python frame per draw."""
    return islice(filter(size.__gt__, map(rng.getrandbits, repeat(size.bit_length()))), count)


class TableEnsemble(SphericalEnsemble):
    """Finite table of nonzero masses, keyed by word text; a mass is
    anything but a bool that ``Fraction`` reads, such as a spec's "1/2".

    Absent entries are zero.  The radius-0 sphere defaults to mass 1 on
    the empty word unless the table overrides it.  The ``horizon`` is the
    ``n_max`` given, a nonnegative int, by default the longest entry's
    length; ``mass`` raises ``HorizonError`` past it, and the spec keeps
    it as "n_max".  Entries longer than ``n_max`` are kept but never read.
    """

    kind = "table"

    def __init__(self, alphabet: Alphabet, entries: dict,
                 n_max: Optional[int] = None):
        super().__init__(alphabet)
        if n_max is not None and (type(n_max) is not int or n_max < 0):  # a bool is no n_max
            raise ValueError(f"n_max {n_max!r} is not a nonnegative integer")
        self.entries = {}
        for key, value in entries.items():
            try:
                if isinstance(value, bool):  # JSON true is no mass, though Fraction reads 1
                    raise ValueError
                self.entries[key] = Fraction(value)
            except (ArithmeticError, ValueError):  # "1/0", "x", an infinite or NaN float
                raise ValueError(f"mass {value!r} for {key!r} is not a finite rational") from None
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
        self._check_horizon(len(x))
        text = x.text()
        return self.entries.get(text, ZERO if text else ONE)

    def validate(self) -> None:
        """Check that every sphere up to the horizon sums to exactly 1.

        The entries are summed by word length when the table is built, so
        no sphere is enumerated."""
        for n in range(self.horizon + 1):
            total = self._totals.get(n, ZERO)
            if total != 1:
                raise ValueError(f"sphere {n} sums to {total}, not 1")

    def spec(self) -> dict:
        return {
            "kind": "table",
            "alphabet": "".join(self.alphabet.symbols),
            "entries": {k: str(v) for k, v in sorted(self.entries.items())},
            "n_max": self.horizon,
        }

    def samples(self, rng: Random, n: int, count: int) -> list[Word]:
        """Each draw the inverse of the cumulative masses at a 64-bit dyadic in (0, 1]."""
        return [self.mu_star_inverse(n, rng.getrandbits(64) + 1, 1 << 64) for _ in range(count)]


# n -> {|w|: 1/(n * 2^|w|)}, ν's mass on the class (n, |w|), built once
# per class.  Sparse: a length gets a row when one of its words is first
# weighed, and the row holds only the classes weighed, so a code
# thousands of letters long adds one entry, not a row of n.
# Module-level, so ``DBHNuEnsemble.mass`` also works when another
# ensemble class borrows it.
_NU_CLASS_MASSES: dict[int, dict[int, Fraction]] = {}


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
    ``mass`` reads the length and the class (the first zero) straight
    off whichever form the word holds, with no helper call, so sphere
    words stay letter tuples and bounded-halting images stay text.  It
    returns one shared Fraction per class, read off the sparse
    per-length table ``_NU_CLASS_MASSES``, so ``exact_sum`` adds each
    run of a class's words once.
    """

    kind = "dbh_nu"

    def __init__(self):
        super().__init__(BINARY)

    def mass(self, x: Word) -> Fraction:
        # no helper call per word: ``_check_word`` inlined, and the length
        # and first zero read off the held form, as ``len`` reads it
        if x.alphabet is not self.alphabet:
            raise AlphabetMismatchError("word is over a different alphabet")
        held = x._letters
        if held is None:  # built from text: one character a letter
            held = x._text
        n = len(held)
        if not n:
            return ONE
        try:
            k = n - 1 - held.index("0")  # |w|
        except ValueError:  # 1^n
            return ZERO
        try:
            return _NU_CLASS_MASSES[n][k]
        except KeyError:  # a class not weighed before
            q = _NU_CLASS_MASSES.setdefault(n, {})[k] = Fraction(1, n << k)
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

    def mu_star_inverse(self, n: int, p: int, q: int) -> Word:
        """The closed-form inverse in integers at t = p/q: each ceiling is
        -(-a // q); "0" w is j - 1 written in k + 1 binary digits."""
        if n == 0:
            return self.alphabet.empty
        m = -(-p * n // q) - 1  # ceil(t n) - 1: t lies in the class of m
        k = n - m - 1
        j = -(-((p * n - m * q) << k) // q)  # ceil((t n - m) 2^k): w's 1-based rank
        return Word.of_text(BINARY, "1" * m + format(j - 1, f"0{k + 1}b"))

    def samples(self, rng: Random, n: int, count: int) -> list[Word]:
        """Per draw, the leading-ones count drawn uniformly, then a uniform suffix."""
        if n == 0:
            return [self.alphabet.empty] * count
        draws = []
        for _ in range(count):
            m = rng.randrange(n)
            w = "".join(map("01".__getitem__, _draws_below(rng, 2, n - m - 1)))
            draws.append(Word.of_text(BINARY, "1" * m + "0" + w))
        return draws

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
    size of the base's horizon, past which ``mass`` raises ``HorizonError``.
    A base over another alphabet than the map's source is refused.
    """

    kind = "transferred"

    def __init__(self, reduction, base: SphericalEnsemble):
        if reduction.size_growth is None:
            raise SizeInvarianceError(
                f"{reduction.name}: no size-growth declared; transfer needs a "
                "size-invariant map"
            )
        if base.alphabet is not reduction.source:
            raise AlphabetMismatchError(
                f"{reduction.name}: base ensemble over another alphabet than the map's source")
        super().__init__(reduction.target)
        self.reduction = reduction
        self.base = base
        if base.horizon is not None:
            self.horizon = reduction.size_growth(base.horizon)
        self._images: dict[int, Optional[dict[tuple, Fraction]]] = {}
        self._uniform = _UNIFORM_MASSES.setdefault(self.alphabet.size, {})

    def _image_masses(self, m: int) -> Optional[dict[tuple, Fraction]]:
        """Base mass of each image of length m, keyed by its letters, or
        None when no source sphere maps onto length m; kept in ``_images``,
        which ``mass`` reads first.  A length past the horizon raises, uncached."""
        self._check_horizon(m)
        k = size_inverse(self.reduction.size_growth, m)
        images = None
        if k is not None:
            self.base._check_cap(k)
            images = _pushforward(self.reduction, self.base, k, m, self._not_size_invariant)
        self._images[m] = images
        return images

    def _not_size_invariant(self, x: Word, m: int, size: int) -> None:
        raise SizeInvarianceError(
            f"{self.reduction.name}: |f({x.text()})| = {size}, "
            f"expected {m}; map is not size-invariant"
        )

    def mass(self, y: Word) -> Fraction:
        # no helper call on a sphere word once its length is inverted: the
        # check inlined, the length read off the held form, the cache first
        if y.alphabet is not self.alphabet:
            raise AlphabetMismatchError("word is over a different alphabet")
        letters = y._letters
        m = len(y._text if letters is None else letters)
        try:
            images = self._images[m]
        except KeyError:
            images = self._image_masses(m)
        if images is None:  # the uniform filler, off the shared row
            try:
                return self._uniform[m]
            except KeyError:  # a sphere not weighed before
                return _uniform_mass(self.alphabet.size, m)
        return images.get(y.letters if letters is None else letters, ZERO)

    def spec(self) -> dict:
        return {
            "kind": "transferred",
            "reduction": self.reduction.name,
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
        self._quotient = per_run(truediv)

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
        if not self.subset(x):
            return ZERO
        return self._quotient(self.base.mass(x), denom)

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

    A sphere past mu's ``horizon`` raises ``HorizonError``.  A closed form
    for that mass, when given, is used and meets no cap.  Otherwise the
    sphere is enumerated in lex order, up to ``ENUMERATION_CAP``; the
    predicate is tested first, so only members are weighed.
    """
    mu._check_horizon(n)
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
    mu_star(x) < t <= hat_mu(x); total for t in (0, 1], read once as the
    integer pair p/q.  Enumerated spheres whose masses sum to less than t
    resolve to their last word."""
    p, q = t.as_integer_ratio()
    if not 0 < p <= q:
        raise ValueError("t must lie in (0, 1]")
    return mu.mu_star_inverse(n, p, q)


def verify_transfer(reduction, mu: SphericalEnsemble, nu: SphericalEnsemble,
                    n_max: int) -> CheckReport:
    """Recompute the transfer equation on every target word up to n_max
    and compare with nu exactly, in lex order.

    On a target sphere m = S(k) that a source sphere reaches, the
    expected side of a rank-preserving map, with mu over its source
    alphabet and nu over its target, is mu's sphere-k masses in lex
    order, then zero: no word is mapped.  Otherwise sphere k is mapped
    word by word and its image masses summed, and each image of another
    length is reported.  Spheres that no source sphere reaches expect
    the uniform filler."""
    report = CheckReport("transfer", n_max)
    target = nu.alphabet
    growth = reduction.size_growth
    by_rank = (reduction.rank_preserving and mu.alphabet is reduction.source
               and target is reduction.target)

    def mismatch(x: Word, m: int, size: int) -> None:
        report.add(x.text(), m, size, "image size differs inside sphere")

    for m in range(n_max + 1):
        k = None if growth is None else size_inverse(growth, m)
        words = target.sphere(m)
        if k is None:
            wants = repeat(_uniform_mass(target.size, m))
        elif by_rank:
            wants = chain(map(mu.mass, mu.alphabet.sphere(k)), repeat(ZERO))
        else:
            images = _pushforward(reduction, mu, k, m, mismatch)
            words, keyed = tee(words)
            wants = (images.get(y.letters, ZERO) for y in keyed)
        for y, want in zip(words, wants):
            got = nu.mass(y)
            if got is not want and got != want:
                report.add(y.text(), want, got)
    return report


def verify_induced(
    mu: SphericalEnsemble,
    subset: Callable[[Word], bool],
    mu_s: SphericalEnsemble,
    n_max: int,
) -> CheckReport:
    """Recompute the subset-conditioning equation by enumeration on every
    word up to n_max and compare with mu_s exactly.

    A non-member of a conditioned sphere expects ``ZERO``."""
    report = CheckReport("induced", n_max)
    members: set[tuple[str, ...]] = set()  # letters of the sphere's members
    quotient = per_run(truediv)

    def member(x: Word) -> bool:  # the one predicate call per word
        inside = subset(x)
        if inside:
            members.add(x.letters)
        return inside

    for n in range(n_max + 1):
        members.clear()
        denom = subset_mass(mu, n, member)
        for x in mu.alphabet.sphere(n):
            if not denom:
                want = mu.mass(x)
            elif x.letters in members:
                want = quotient(mu.mass(x), denom)
            else:
                want = ZERO
            got = mu_s.mass(x)
            if got is not want and got != want:
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
