"""Alphabets, words, and the orderings on them.

Every instance of every problem in this package is a word over a fixed,
linearly ordered, finite alphabet.  The orderings (shortlex over all
words, plain lexicographic inside a sphere) and the 1-based rank/unrank
bijection are the backbone of sphere enumeration, cumulative measures,
and the dyadic encodings used by the halting-problem constructions.

Two distinct successor notions are provided on purpose: the shortlex
successor crosses sphere boundaries, the in-sphere successor does not
and fails on the lexicographic maximum of its sphere.  Cumulative
measures rely on the in-sphere one only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional


class AlphabetMismatchError(ValueError):
    """Raised when an operation mixes words over different alphabets."""


class SphereRangeError(ValueError):
    """Raised when a rank or successor is requested outside the sphere."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of distinct symbols.

    The symbol order is total and fixed; it induces the lexicographic and
    shortlex orders on words over the alphabet.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("an alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(not s for s in self.symbols):
            raise ValueError("alphabet symbols must be non-empty strings")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    @cached_property
    def _separator(self) -> str:
        """How ``Word.text`` joins letters: nothing when every symbol is
        one character, a comma otherwise."""
        return "" if all(len(s) == 1 for s in self.symbols) else ","

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetMismatchError(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def word(self, letters) -> "Word":
        """Build a word from a string (single-character symbols) or iterable."""
        if isinstance(letters, Word):
            if letters.alphabet != self:
                raise AlphabetMismatchError("word belongs to a different alphabet")
            return letters
        ws = tuple(letters)
        if not self._index.keys() >= set(ws):
            bad = next(s for s in ws if s not in self._index)
            raise AlphabetMismatchError(f"symbol {bad!r} not in alphabet")
        return Word(self, ws)

    @property
    def empty(self) -> "Word":
        return Word(self, ())

    def sphere(self, n: int) -> Iterator["Word"]:
        """All words of length n in lexicographic order."""
        if n < 0:
            raise SphereRangeError("sphere radius must be nonnegative")
        for combo in itertools.product(self.symbols, repeat=n):
            yield Word(self, combo)

    def sphere_size(self, n: int) -> int:
        return self.size**n


@dataclass(frozen=True)
class Word:
    """A finite string over a fixed alphabet."""

    alphabet: Alphabet
    letters: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def text(self) -> str:
        """Serialize the word: concatenation for single-character symbols,
        comma-joined otherwise."""
        return self.alphabet._separator.join(self.letters)

    def __str__(self) -> str:
        return self.text()


BINARY = Alphabet(("0", "1"))


def _check_same_alphabet(a: Word, b: Word) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("words are over different alphabets")


def lex_cmp_equal_length(a: Word, b: Word) -> int:
    """Left-lexicographic comparison of two equal-length words; -1/0/+1."""
    _check_same_alphabet(a, b)
    if len(a) != len(b):
        raise ValueError("lexicographic comparison requires equal lengths")
    idx = a.alphabet.index
    for x, y in zip(a.letters, b.letters):
        ix, iy = idx(x), idx(y)
        if ix != iy:
            return -1 if ix < iy else 1
    return 0


def shortlex_cmp(a: Word, b: Word) -> int:
    """Shortlex comparison: shorter words first, lexicographic at equal length.

    Returns -1, 0 or +1.
    """
    _check_same_alphabet(a, b)
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    return lex_cmp_equal_length(a, b)


def _next_in_sphere(x: Word) -> Optional[Word]:
    """The next word of the same length in lexicographic order, or None
    on the lexicographic maximum of the sphere."""
    alpha = x.alphabet
    b = alpha.size
    digits = [alpha.index(s) for s in x.letters]
    for i in range(len(digits) - 1, -1, -1):
        if digits[i] < b - 1:
            digits[i] += 1
            for j in range(i + 1, len(digits)):
                digits[j] = 0
            return Word(alpha, tuple(alpha.symbols[d] for d in digits))
    return None


def shortlex_successor(x: Word) -> Word:
    """The immediate successor of x in the shortlex order over all words.

    Total: the lexicographic maximum of a sphere wraps to the minimum of
    the next sphere, and the empty word maps to the one-letter minimum.
    """
    nxt = _next_in_sphere(x)
    if nxt is None:
        return Word(x.alphabet, (x.alphabet.symbols[0],) * (len(x) + 1))
    return nxt


def lex_successor_in_sphere(x: Word) -> Word:
    """The next word of the same length in lexicographic order.

    Fails on the lexicographic maximum of the sphere; cumulative-measure
    code must take the mass-1 branch there instead.
    """
    nxt = _next_in_sphere(x)
    if nxt is None:
        raise SphereRangeError(f"{x.text()!r} is the lexicographic maximum of its sphere")
    return nxt


def is_sphere_max(x: Word) -> bool:
    last = x.alphabet.symbols[-1]
    return all(s == last for s in x.letters)


def rank_in_sphere(x: Word) -> int:
    """1-based lexicographic position of x within its sphere."""
    b = x.alphabet.size
    index = x.alphabet._index
    r = 0
    try:
        for s in x.letters:
            r = r * b + index[s]
    except KeyError as exc:
        raise AlphabetMismatchError(f"symbol {exc.args[0]!r} not in alphabet") from None
    return r + 1


def unrank(alphabet: Alphabet, n: int, k: int) -> Word:
    """The k-th word (1-based, lexicographic) of the radius-n sphere."""
    if n < 0:
        raise SphereRangeError("sphere radius must be nonnegative")
    size = alphabet.sphere_size(n)
    if not 1 <= k <= size:
        raise SphereRangeError(f"rank {k} out of range 1..{size}")
    b = alphabet.size
    v = k - 1
    digits = []
    for _ in range(n):
        v, d = divmod(v, b)
        digits.append(d)
    digits.reverse()
    return Word(alphabet, tuple(alphabet.symbols[d] for d in digits))
