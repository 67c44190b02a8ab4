import random
import sys

import pytest
from hypothesis import given, strategies as st

from gclab.genericity import Polynomial
from gclab.words import (
    Alphabet,
    AlphabetMismatchError,
    BINARY,
    SphereRangeError,
    rank_in_sphere,
    Word,
    unrank,
)
from oracles import lex_sphere

ABC = Alphabet(("a", "b", "c"))
GREEK = Alphabet(("α", "β", "γ"))
PAIR = Alphabet(("ab", "c"))


def test_frozen_fields_cannot_be_assigned_or_deleted():
    """An ``Alphabet`` and a ``Polynomial`` refuse to assign or delete a
    field, declared or not, and keep their values."""
    poly = Polynomial((1, 2))
    for record, name in ((ABC, "symbols"), (poly, "coeffs"), (ABC, "other")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
            delattr(record, name)
    assert ABC.symbols == ("a", "b", "c") and poly.coeffs == (1, 2)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))


def test_word_names_the_first_bad_symbol():
    cases = [(BINARY, "01x0y", "x"), (BINARY, ["0", "10", "1"], "10"), (ABC, "abzcy", "z"),
             (Alphabet(("ab", "c")), ["ab", "zz", "c", "a"], "zz"),
             (Alphabet(("ab", "c")), "abc", "abc"), (Alphabet(("ab", "c")), "ab,zz,c", "zz"),
             (BINARY, "01" * 2499 + "0" + "2", "2"),
             (GREEK, "αβγγβzα", "z"), (GREEK, "αβa", "a")]
    for alphabet, letters, bad in cases:
        with pytest.raises(AlphabetMismatchError, match=f"^symbol '{bad}' not in alphabet$"):
            alphabet.word(letters)
    assert Alphabet(("ab", "c")).word(["c", "ab"]).text() == "c,ab"


def test_rank_in_sphere_names_a_foreign_letter():
    with pytest.raises(AlphabetMismatchError, match="^symbol 'x' not in alphabet$"):
        rank_in_sphere(Word(BINARY, ("0", "x", "1")))


def test_ball_examples():
    assert [w.text() for w in BINARY.ball(2)] == ["", "0", "1", "00", "01", "10", "11"]
    assert [w.text() for w in ABC.ball(0)] == [""]
    assert list(BINARY.ball(-1)) == []


def test_rank_examples():
    assert rank_in_sphere(BINARY.word("00")) == 1
    assert rank_in_sphere(BINARY.word("10")) == 3
    assert unrank(ABC, 2, 5).text() == "bb"


def test_unrank_range_errors():
    with pytest.raises(SphereRangeError):
        unrank(BINARY, 2, 0)
    with pytest.raises(SphereRangeError):
        unrank(BINARY, 2, 5)


def test_a_negative_radius_is_refused_as_one():
    """A sphere of negative radius is refused for what it is, not for a
    rank it cannot hold or a repeat count ``itertools`` refuses, and at
    the call, before its iterator is read."""
    with pytest.raises(SphereRangeError, match="radius must be nonnegative"):
        BINARY.sphere(-1)
    with pytest.raises(SphereRangeError, match="radius must be nonnegative"):
        unrank(BINARY, -1, 1)


@pytest.mark.parametrize("symbols", ["01", "ab", "abc", "abcd"])
def test_ball_enumerates_shortlex_order(symbols):
    """Spheres by length, each in lex order: within a sphere rank counts
    up from 1 to the sphere's size."""
    alphabet = Alphabet(tuple(symbols))
    seen = list(alphabet.ball(4))
    assert len({x.letters for x in seen}) == len(seen) == sum(
        alphabet.sphere_size(n) for n in range(5))
    assert seen[0].letters == ()
    for a, b in zip(seen, seen[1:]):
        if len(a) == len(b):
            assert rank_in_sphere(b) == rank_in_sphere(a) + 1
        else:
            assert len(b) == len(a) + 1 and rank_in_sphere(b) == 1
            assert rank_in_sphere(a) == alphabet.sphere_size(len(a))
    assert rank_in_sphere(seen[-1]) == alphabet.sphere_size(4)


@pytest.mark.parametrize("symbols,n", [("01", 6), ("abc", 4), ("abcd", 4)])
def test_rank_unrank_roundtrip(symbols, n):
    alphabet = Alphabet(tuple(symbols))
    for k in range(1, alphabet.sphere_size(n) + 1):
        assert rank_in_sphere(unrank(alphabet, n, k)) == k
    for x in alphabet.sphere(n):
        assert unrank(alphabet, n, rank_in_sphere(x)) == x


def _word(alphabet, draw_letters):
    return alphabet.word(tuple(alphabet.symbols[i] for i in draw_letters))


@given(
    st.lists(st.integers(0, 2), max_size=6),
    st.lists(st.integers(0, 2), max_size=6),
)
def test_rank_is_the_lex_order_of_each_sphere(a, b):
    n = min(len(a), len(b))
    x, y = _word(ABC, a[:n]), _word(ABC, b[:n])
    assert (rank_in_sphere(x) < rank_in_sphere(y)) == (a[:n] < b[:n])
    assert (rank_in_sphere(x) == rank_in_sphere(y)) == (x == y)


def test_multicharacter_symbols_serialize_with_commas():
    pair = Alphabet(("aa", "bb"))
    w = pair.word(("aa", "bb", "aa"))
    assert w.text() == "aa,bb,aa"
    assert len(w) == 3


def test_a_word_built_from_text_keeps_that_text():
    s = "".join(random.Random(5000).choice("01") for _ in range(5000))
    w = Word.of_text(BINARY, s)
    assert w.text() is s
    assert len(w) == 5000 and w.letters == tuple(s)


@given(st.sampled_from([BINARY, ABC, GREEK]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet),
                               st.lists(st.sampled_from(alphabet.symbols), max_size=12))))
def test_text_and_letter_forms_cannot_be_told_apart(case):
    alphabet, symbols = case
    text = "".join(symbols)

    def pair():
        # fresh words, so each check meets the text form before it derives letters
        return Word.of_text(alphabet, text), alphabet.word(tuple(symbols))

    for a, b in (pair(), pair()[::-1]):
        assert a == b and not a != b
    for a, b in (pair(), pair()[::-1]):
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    assert len(pair()[0]) == len(pair()[1]) == len(symbols)
    assert repr(pair()[0]) == repr(pair()[1])
    assert pair()[0].letters == pair()[1].letters == tuple(symbols)
    assert pair()[0].text() == pair()[1].text() == text
    for w in pair():
        for name in ("alphabet", "letters", "_letters", "_text", "other"):
            with pytest.raises(AttributeError):
                setattr(w, name, None)
            with pytest.raises(AttributeError):
                delattr(w, name)
        assert w.text() == text and w.letters == tuple(symbols)


@given(st.sampled_from([BINARY, ABC]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet),
                               st.lists(st.sampled_from(alphabet.symbols), max_size=12))))
def test_length_reads_the_held_form(case):
    """``len`` agrees on the two forms of a word, and leaves a word built
    from text without a letter tuple."""
    alphabet, symbols = case
    from_text, from_letters = Word.of_text(alphabet, "".join(symbols)), alphabet.word(tuple(symbols))
    assert len(from_text) == len(from_letters) == len(symbols)
    assert from_text._letters is None


@pytest.mark.parametrize("alphabet", [Alphabet(("0",)), BINARY, ABC, PAIR],
                         ids=lambda a: ",".join(a.symbols))
def test_sphere_words_are_the_lex_words(alphabet):
    """Up to n = 6 a sphere yields the recursive lex oracle's words, which
    are also the ``unrank`` words in rank order, each equal to and hashing
    like the same word built from its text."""
    for n in range(7):
        words = list(alphabet.sphere(n))
        assert [w.letters for w in words] == lex_sphere(alphabet, n)
        assert words == [unrank(alphabet, n, k) for k in range(1, len(words) + 1)]
        for w in words:
            text = alphabet._separator.join(w.letters)
            built = (alphabet.word(text) if alphabet._separator
                     else Word.of_text(alphabet, text))
            assert w == built and hash(w) == hash(built)
            assert w.alphabet is alphabet and type(w.letters) is tuple


def _exception_events(fn) -> list[str]:
    """The "exception" events ``sys.settrace`` reports in the frames of
    ``Word.text`` while fn runs (the "call" event goes to the global
    trace function, so a traced frame shows as its "return")."""
    events: list[str] = []

    def local(frame, event, arg):
        events.append(event)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is Word.text.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    assert "return" in events
    return [e for e in events if e == "exception"]


@pytest.mark.parametrize("alphabet", [BINARY, ABC, GREEK, PAIR],
                         ids=lambda a: ",".join(a.symbols))
def test_a_letter_built_word_derives_its_text_once_without_raising(alphabet):
    """``text()`` on a letter-built word returns the join of its letters
    and keeps it, and raises nothing inside, on first use or after."""
    letters = tuple(random.Random(len(alphabet.symbols)).choices(alphabet.symbols, k=9))
    w = Word(alphabet, letters)
    assert _exception_events(w.text) == []
    assert w.text() == alphabet._separator.join(letters)
    assert w.text() is w.text()
    assert _exception_events(w.text) == []
