import pytest
from hypothesis import given, strategies as st

from gclab.words import (
    Alphabet,
    AlphabetMismatchError,
    BINARY,
    SphereRangeError,
    lex_successor_in_sphere,
    rank_in_sphere,
    shortlex_cmp,
    shortlex_successor,
    unrank,
)

ABC = Alphabet(("a", "b", "c"))


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))


def test_word_names_the_first_bad_symbol():
    cases = [(BINARY, "01x0y", "x"), (BINARY, ["0", "10", "1"], "10"), (ABC, "abzcy", "z"),
             (Alphabet(("ab", "c")), ["ab", "zz", "c", "a"], "zz"),
             (Alphabet(("ab", "c")), "abc", "a")]
    for alphabet, letters, bad in cases:
        with pytest.raises(AlphabetMismatchError, match=f"^symbol '{bad}' not in alphabet$"):
            alphabet.word(letters)
    assert Alphabet(("ab", "c")).word(["c", "ab"]).text() == "c,ab"


def test_shortlex_cmp_examples():
    assert shortlex_cmp(BINARY.word("1"), BINARY.word("00")) == -1
    assert shortlex_cmp(BINARY.word("01"), BINARY.word("01")) == 0
    assert shortlex_cmp(BINARY.word("01"), BINARY.word("10")) == -1


def test_shortlex_cmp_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        shortlex_cmp(BINARY.word("0"), ABC.word("a"))


def test_shortlex_successor_examples():
    assert shortlex_successor(BINARY.empty).text() == "0"
    assert shortlex_successor(BINARY.word("11")).text() == "000"
    assert shortlex_successor(BINARY.word("01")).text() == "10"


def test_lex_successor_in_sphere_examples():
    assert lex_successor_in_sphere(BINARY.word("00")).text() == "01"
    assert lex_successor_in_sphere(BINARY.word("011")).text() == "100"
    with pytest.raises(SphereRangeError):
        lex_successor_in_sphere(BINARY.word("11"))


def test_rank_examples():
    assert rank_in_sphere(BINARY.word("00")) == 1
    assert rank_in_sphere(BINARY.word("10")) == 3
    assert unrank(ABC, 2, 5).text() == "bb"


def test_unrank_range_errors():
    with pytest.raises(SphereRangeError):
        unrank(BINARY, 2, 0)
    with pytest.raises(SphereRangeError):
        unrank(BINARY, 2, 5)


@pytest.mark.parametrize("symbols", ["01", "ab", "abc", "abcd"])
def test_successor_enumerates_shortlex_order(symbols):
    alphabet = Alphabet(tuple(symbols))
    total = sum(alphabet.sphere_size(n) for n in range(5))
    seen = []
    w = alphabet.empty
    for _ in range(total):
        seen.append(w)
        w = shortlex_successor(w)
    assert len({x.letters for x in seen}) == total
    for a, b in zip(seen, seen[1:]):
        assert shortlex_cmp(a, b) == -1
    assert seen[0].letters == ()  # the empty word is never produced again


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
    st.lists(st.integers(0, 2), max_size=6),
)
def test_shortlex_total_order(a, b, c):
    x, y, z = (_word(ABC, d) for d in (a, b, c))
    assert shortlex_cmp(x, y) == -shortlex_cmp(y, x)
    if shortlex_cmp(x, y) <= 0 and shortlex_cmp(y, z) <= 0:
        assert shortlex_cmp(x, z) <= 0
    assert (shortlex_cmp(x, y) == 0) == (x == y)


def test_multicharacter_symbols_serialize_with_commas():
    pair = Alphabet(("aa", "bb"))
    w = pair.word(("aa", "bb", "aa"))
    assert w.text() == "aa,bb,aa"
    assert len(w) == 3
