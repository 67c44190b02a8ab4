import itertools
from fractions import Fraction

import pytest

from gclab import (
    BINARY,
    Alphabet,
    DistributionalProblem,
    Polynomial,
    TableEnsemble,
    UniformEnsemble,
    check_control_transfer,
    example41_image_member,
    example41_reduction,
    identity_reduction,
    to_binary,
    verify_cm,
    verify_cs,
    verify_size_invariance,
)
from gclab.reductions import reduction_from_spec
from gclab.words import AlphabetMismatchError, rank_in_sphere, unrank


def test_apply_examples():
    f = example41_reduction()
    assert f.apply(BINARY.word("010")).text() == "00100"
    ident = identity_reduction(BINARY)
    assert ident.apply(BINARY.word("0110")).text() == "0110"


def test_apply_alphabet_mismatch():
    """``apply`` refuses an input over another alphabet before mapping it,
    and an image over another alphabet after."""
    abc = Alphabet(("a", "b", "c"))
    with pytest.raises(AlphabetMismatchError, match="input over wrong alphabet"):
        identity_reduction(BINARY).apply(abc.word("a"))
    stray = example41_reduction()._replace(func=lambda x: abc.word("a"))
    with pytest.raises(AlphabetMismatchError, match="image over wrong alphabet"):
        stray.apply(BINARY.word("0"))


def test_example41_fails_size_invariance():
    report = verify_size_invariance(example41_reduction(), 3)
    assert not report.passed
    notes = {v.note for v in report.violations}
    assert "image size varies inside a sphere" in notes


def test_identity_passes_size_invariance():
    assert verify_size_invariance(identity_reduction(BINARY), 5).passed


def test_unary_to_binary_is_cs():
    unary = Alphabet(("a",))
    problem = DistributionalProblem("unary", lambda x: len(x) % 2 == 0, UniformEnsemble(unary))
    f, image = to_binary(problem)
    assert verify_cs(f, problem.measure, image.measure, 5).passed
    assert f.apply(unary.word("aaa")).text() == "000"
    # image membership tracks the source
    assert image.positive(BINARY.word("0000"))
    assert not image.positive(BINARY.word("000"))
    assert not image.positive(BINARY.word("010"))


def test_verify_cs_fails_on_wrong_target():
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    wrong = UniformEnsemble(BINARY)
    report = verify_cs(f, problem.measure, wrong, 3)
    assert not report.passed


def test_verify_cs_reports_a_declared_size_growth_that_disagrees():
    """A size growth declared one above the identity's image sizes is
    reported on every source sphere, ahead of the transfer's mismatches."""
    f = identity_reduction(BINARY)._replace(size_growth=lambda k: k + 1)
    uniform = UniformEnsemble(BINARY)
    report = verify_cs(f, uniform, uniform, 2)
    assert [(v.witness, v.expected, v.actual, v.note) for v in report.violations[:3]] == [
        (f"sphere {k}", str(k + 1), str(k), "declared size growth disagrees with the map")
        for k in range(3)]
    assert report.violations[3:] and not any(v.note for v in report.violations[3:])


def test_to_binary_rank_preservation():
    for size in (3, 4):
        sigma = Alphabet(tuple("abcd"[:size]))
        problem = DistributionalProblem("toy", lambda x: True, UniformEnsemble(sigma))
        f, _ = to_binary(problem)
        for n in range(6):
            for x in sigma.sphere(n):
                assert rank_in_sphere(f.apply(x)) == rank_in_sphere(x)


@pytest.mark.parametrize("symbols", [("a", "b"), ("1", "0")])
def test_to_binary_rebuilds_every_other_two_letter_problem(symbols):
    """A problem over two letters other than ``BINARY`` is rebuilt over
    ``BINARY`` letter for letter: growth k, ranks kept, image membership
    tracking the source, and a verified change of size."""
    sigma = Alphabet(symbols)
    problem = DistributionalProblem(
        "first", lambda x: x.letters[:1] == symbols[:1], UniformEnsemble(sigma))
    f, image = to_binary(problem)
    assert f.target is BINARY and image.measure.alphabet is BINARY
    assert f.rank_preserving and [f.size_growth(k) for k in range(7)] == list(range(7))
    for n in range(7):
        for x in sigma.sphere(n):
            assert rank_in_sphere(f.apply(x)) == rank_in_sphere(x)
            assert image.positive(f.apply(x)) == problem.positive(x)
    assert f.apply(sigma.word(symbols[::-1])).text() == "10"
    assert verify_cs(f, problem.measure, image.measure, 6).passed


def test_to_binary_passes_a_binary_problem_through():
    problem = DistributionalProblem("all", lambda x: True, UniformEnsemble(BINARY))
    f, image = to_binary(problem)
    assert image is problem and f.name == "identity"


def test_rank_map_matches_unrank():
    """The rank-to-binary map writes rank - 1 in growth(k) bits: the word
    that the per-digit ``unrank`` builds, on every word up to k = 6."""
    for size in (3, 4, 5, 8):
        sigma = Alphabet(tuple("abcdefgh"[:size]))
        f, _ = to_binary(DistributionalProblem("toy", lambda x: True, UniformEnsemble(sigma)))
        for k in range(7):
            g = f.size_growth(k)
            for rank, x in enumerate(sigma.sphere(k), start=1):
                assert f.apply(x) == unrank(BINARY, g, rank), (size, x.text())


def test_to_binary_worked_example():
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc))
    f, _ = to_binary(problem)
    assert f.size_growth(2) == 4
    assert f.apply(abc.word("bb")).text() == "0100"


def test_to_binary_membership_preservation():
    abc = Alphabet(("a", "b", "c"))

    def positive(x):  # words whose letters are sorted
        return list(x.letters) == sorted(x.letters)

    problem = DistributionalProblem("sorted", positive, UniformEnsemble(abc))
    f, image = to_binary(problem)
    for n in range(6):
        for x in abc.sphere(n):
            assert image.positive(f.apply(x)) == problem.positive(x)
    # non-image words of achieved spheres are negative
    assert not image.positive(BINARY.word("1111"))  # rank 16 > 3^2
    # and so is every word of a sphere no source sphere reaches: growth
    # takes k = 1, 2, 3 to 2, 4, 5 bits, so none to 3
    assert [f.size_growth(k) for k in range(4)] == [0, 2, 4, 5]
    assert not any(image.positive(y) for y in BINARY.sphere(3))


def test_verify_cm_identity():
    mu = UniformEnsemble(BINARY)
    report = verify_cm(identity_reduction(BINARY), mu, mu, Polynomial((1,)), 5)
    assert report.passed


def test_verify_cm_bounded_tables(worked_table):
    # table masses stay within factor 2 of uniform on sphere 2 and beyond
    uni = UniformEnsemble(BINARY)
    report = verify_cm(identity_reduction(BINARY), worked_table, uni,
                       Polynomial((2,)), 2)
    assert report.passed
    tight = verify_cm(identity_reduction(BINARY), worked_table, uni,
                      Polynomial((1,)), 2)
    assert not tight.passed  # mass 1/2 against uniform 1/4 needs the factor


def test_verify_cm_zero_image_mass(geometric_table):
    # a target with zero mass where the source has some must fail
    uni = UniformEnsemble(BINARY)
    report = verify_cm(identity_reduction(BINARY), uni, geometric_table,
                       Polynomial((4,)), 3)
    assert not report.passed


def test_check_control_transfer_identity(find_zero):
    mu = UniformEnsemble(BINARY)
    report = check_control_transfer(find_zero, identity_reduction(BINARY),
                                    Polynomial((1, 1)), mu, mu, 6)
    assert report.passed
    for row in report.details["spheres"]:
        assert row["left"] == row["right"]


def test_check_control_transfer_needs_a_size_growth(find_zero):
    """The doubling homomorphism declares no size growth, so there is no
    image sphere to compare with: the check fails on that alone."""
    mu = UniformEnsemble(BINARY)
    report = check_control_transfer(find_zero, example41_reduction(),
                                    Polynomial((1, 1)), mu, mu, 3)
    assert not report.passed
    assert [v.to_dict() for v in report.violations] == [
        {"witness": "size growth", "expected": "declared", "actual": "missing"}]


def test_check_control_transfer_cs_pair(find_zero):
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    report = check_control_transfer(find_zero, f, Polynomial((2, 1)),
                                    problem.measure, image.measure, 5)
    assert report.passed


def test_check_control_transfer_cm(find_zero, worked_table):
    uni = UniformEnsemble(BINARY)
    report = check_control_transfer(find_zero, identity_reduction(BINARY),
                                    Polynomial((0, 1)), worked_table, uni, 6,
                                    d=Polynomial((2,)))
    assert report.passed


def _bounded_table() -> TableEnsemble:
    """Criterion 07's change-of-measure source: on each sphere 1..8 the
    least word carries 2 * 2^-n, the greatest none, the others 2^-n."""
    entries = {}
    for n in range(1, 9):
        words = ["".join(w) for w in itertools.product("01", repeat=n)]
        entries[words[0]] = Fraction(2, 2**n)
        for w in words[1:-1]:
            entries[w] = Fraction(1, 2**n)
        entries[words[-1]] = Fraction(0)
    return TableEnsemble(BINARY, entries, n_max=8)


# (left, right) per sphere k = 0..8 of criterion 07's two reports, as the
# separate change-of-size and change-of-measure checks printed them
CRITERION_07_CS = [("1", "1")] + [("0", "0")] * 8
CRITERION_07_CM = [("1", "2")] + [("0", str(Fraction(1, 2 ** (k - 1)))) for k in range(1, 9)]


def test_control_transfer_reproduces_criterion_07(find_zero):
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    cs = check_control_transfer(find_zero, f, Polynomial((2, 1)),
                                problem.measure, image.measure, 8)
    cm = check_control_transfer(find_zero, identity_reduction(BINARY), Polynomial((0, 1)),
                                _bounded_table(), UniformEnsemble(BINARY), 8,
                                d=Polynomial((2,)))
    assert cs.passed and cm.passed
    assert [(r["left"], r["right"]) for r in cs.details["spheres"]] == CRITERION_07_CS
    assert [(r["left"], r["right"]) for r in cm.details["spheres"]] == CRITERION_07_CM
    assert [r["image_sphere"] for r in cs.details["spheres"]] == [f.size_growth(k)
                                                                 for k in range(9)]


def test_control_transfer_min_ratio_scales_with_d(find_zero):
    # only sphere 0 has overruns under the bounded table, with equal masses
    ident = identity_reduction(BINARY)
    for d, ratio in ((Polynomial((2,)), "2"), (Polynomial((1,)), "1"), (None, "1")):
        report = check_control_transfer(find_zero, ident, Polynomial((0, 1)),
                                        _bounded_table(), UniformEnsemble(BINARY), 8, d=d)
        assert report.passed
        assert report.details["min_ratio"] == ratio


def test_control_transfer_planted_failure(find_zero):
    # swapped: the uniform source weighs the all-ones overruns the table omits
    report = check_control_transfer(find_zero, identity_reduction(BINARY),
                                    Polynomial((0, 1)), UniformEnsemble(BINARY),
                                    _bounded_table(), 8, d=Polynomial((1,)))
    assert [v.witness for v in report.violations] == [f"sphere {k}" for k in range(1, 9)]
    assert report.violations[0].expected == ">= 1/2"
    assert report.violations[0].actual == "0"
    assert report.details["min_ratio"] == "0"


def test_reduction_specs():
    assert reduction_from_spec({"kind": "identity", "alphabet": "01"}).name == "identity"
    assert reduction_from_spec({"kind": "example41"}).size_growth is None
    f = reduction_from_spec({"kind": "bin_alph", "sigma": "abc"})
    assert f.size_growth(2) == 4


def test_image_membership_of_doubling_map():
    assert example41_image_member(BINARY.word("00100"))
    assert example41_image_member(BINARY.empty)
    assert not example41_image_member(BINARY.word("010"))
