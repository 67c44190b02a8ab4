"""Alphabets, words, and the order on them.

Every instance of every problem in this package is a word over a fixed,
linearly ordered, finite alphabet.  Spheres (the words of one length)
are enumerated in plain lexicographic order, and the 1-based
rank/unrank bijection inside a sphere is the backbone of cumulative
measures and the dyadic encodings used by the halting-problem
constructions.

A word keeps the form it was built from: the letter tuple, or, over an
alphabet whose symbols are all one character, the text.  The other form
is derived the first time it is asked for, and then kept, so a code
built from text (the bounded-halting images, thousands of letters long)
is checked once and never becomes a letter tuple unless someone reads
its letters.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator


class AlphabetMismatchError(ValueError):
    """Raised when an operation mixes words over different alphabets."""


class SphereRangeError(ValueError):
    """Raised when a rank is requested outside the sphere."""


class Frozen:
    """An immutable value record: ``__init__`` sets the fields named in
    ``_fields`` once, through ``_set``, which also keeps their tuple as
    ``_values``.  Assigning or deleting an attribute then raises
    ``AttributeError``, as for ``Word``.  Equality, hashing (the hash of
    the tuple of fields) and repr go through ``_values``.  A
    ``cached_property`` still fills in: it writes the instance
    ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values), _values=values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"


class Alphabet(Frozen):
    """An ordered tuple of distinct symbols.

    The symbol order is total and fixed; it induces the lexicographic and
    shortlex orders on words over the alphabet.  There is one instance
    per symbol tuple: ``Alphabet(symbols)`` validates a new tuple once
    and hands out that instance ever after (``Alphabet("01") is
    BINARY``), so alphabets are compared by identity.  Equality and
    hashing still go through the symbols, as for every ``Frozen``.
    """

    _fields = ("symbols",)
    _instances: dict[tuple[str, ...], "Alphabet"] = {}

    def __new__(cls, symbols: Iterable[str]) -> "Alphabet":
        symbols = tuple(symbols)
        known = cls._instances.get(symbols)
        if known is not None:
            return known
        if not symbols:
            raise ValueError("an alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(not s for s in symbols):
            raise ValueError("alphabet symbols must be non-empty strings")
        alphabet = super().__new__(cls)
        alphabet._set(symbols)
        return cls._instances.setdefault(symbols, alphabet)

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

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    @cached_property
    def _not_symbols(self) -> dict[int, None]:
        """A ``str.translate`` table deleting every symbol: what is left of
        a text is its foreign characters."""
        return str.maketrans("", "", "".join(self.symbols))

    def word(self, letters) -> "Word":
        """Build a word from a string (single-character symbols) or iterable."""
        if isinstance(letters, Word):
            if letters.alphabet is not self:
                raise AlphabetMismatchError("word belongs to a different alphabet")
            return letters
        if isinstance(letters, str) and not self._separator:
            bad = letters.translate(self._not_symbols)
            if bad:
                raise AlphabetMismatchError(f"symbol {bad[0]!r} not in alphabet")
            return Word.of_text(self, letters)
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

    def ball(self, n_max: int) -> Iterator["Word"]:
        """All words of length at most n_max, sphere by sphere."""
        for n in range(n_max + 1):
            yield from self.sphere(n)

    def sphere_size(self, n: int) -> int:
        return self.size**n


class Word:
    """A finite string over a fixed alphabet, immutable.

    It holds its alphabet and the form it was built from: the letter
    tuple (``Word(alphabet, letters)``) or the text (``Word.of_text``,
    whose ``_letters`` is None until derived).  ``letters`` and
    ``text()`` derive the missing form on first use and keep it.  Length
    and ``index`` read whichever form is held, so they derive neither;
    equality, hashing and repr go through the letters.  The two forms of
    one word cannot be told apart.
    """

    __slots__ = ("alphabet", "_letters", "_text")

    def __init__(self, alphabet: Alphabet, letters: tuple[str, ...]) -> None:
        _set_alphabet(self, alphabet)
        _set_letters(self, letters)

    @classmethod
    def of_text(cls, alphabet: Alphabet, text: str) -> "Word":
        """The word spelled by ``text`` over an alphabet of one-character
        symbols, unchecked: ``Alphabet.word`` is the checked way in."""
        w = object.__new__(cls)
        _set_alphabet(w, alphabet)
        _set_letters(w, None)
        _set_text(w, text)
        return w

    @property
    def letters(self) -> tuple[str, ...]:
        letters = self._letters
        if letters is None:  # built from text
            letters = tuple(self._text)
            _set_letters(self, letters)
        return letters

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        letters = self._letters
        # built from text: one character a letter
        return len(self._text if letters is None else letters)

    def index(self, symbol: str) -> int:
        """The position of the first letter equal to ``symbol`` (a symbol
        of the word's alphabet); ``ValueError`` when there is none, as for
        ``tuple.index`` and ``str.index``."""
        letters = self._letters
        if letters is None:  # built from text: one character a letter
            return self._text.index(symbol)
        return letters.index(symbol)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.letters) == (other.alphabet, other.letters)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __repr__(self) -> str:
        return f"Word(alphabet={self.alphabet!r}, letters={self.letters!r})"

    def text(self) -> str:
        """Serialize the word: concatenation for single-character symbols,
        comma-joined otherwise."""
        try:
            return self._text
        except AttributeError:  # built from letters
            text = self.alphabet._separator.join(self._letters)
            _set_text(self, text)
            return text

    def __str__(self) -> str:
        return self.text()


# the slots' own setters: the only writers, since ``Word.__setattr__`` refuses
_set_alphabet = Word.alphabet.__set__
_set_letters = Word._letters.__set__
_set_text = Word._text.__set__

BINARY = Alphabet(("0", "1"))


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
