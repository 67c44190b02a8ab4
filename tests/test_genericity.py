import random
import re
from fractions import Fraction

import oracles
import pytest

from gclab import (
    BINARY,
    Alphabet,
    UniformEnsemble,
    Polynomial,
    control_sequence,
    example41_image_member,
    sample_sphere,
    subset_mass,
)
from gclab.genericity import overrun_mass, parse_polynomial, sphere_stream
from gclab.measure import HorizonError, InducedEnsemble
from gclab.bhp import adequate_guard, c_of_g, cg_sphere_mass, subset_from_spec


def fib_tilings(n: int) -> int:
    """Independent oracle: count words tiled by the blocks 00 and 1."""
    a, b = 1, 1  # a(0), a(1)
    for _ in range(n - 1):
        a, b = b, a + b
    return b if n >= 1 else 1


def test_polynomial_eval_and_parse():
    p = Polynomial((6, 1, 1))
    assert p(0) == 6 and p(3) == 18
    assert parse_polynomial("2n+1")(5) == 11
    assert parse_polynomial("n^2+n+6")(3) == 18
    assert parse_polynomial([1, 2])(4) == 9
    assert str(Polynomial((1, 0, 2))) == "1 + 2n^2"


def test_polynomial_rejects_negative():
    with pytest.raises(ValueError):
        Polynomial((-1, 2))


def test_density_full_set(uniform, nu):
    for n in range(6):
        assert subset_mass(uniform, n, lambda x: True) == 1
        assert subset_mass(nu, n, lambda x: True) == 1


def test_density_image_of_doubling_map(uniform):
    assert subset_mass(uniform, 4, example41_image_member) == Fraction(5, 16)
    for n in range(1, 11):
        assert subset_mass(uniform, n, example41_image_member) == Fraction(fib_tilings(n), 2**n)


def test_density_complement_sums_to_one(uniform, geometric_table):
    subset = example41_image_member
    for n in range(8):
        inside = subset_mass(uniform, n, subset)
        outside = subset_mass(uniform, n, lambda x: not subset(x))
        assert inside + outside == 1


def test_density_cg_closed_form(nu):
    g = Polynomial((1, 2))  # 2n+1
    member = c_of_g(g)
    assert subset_mass(nu, 5, member) == Fraction(1, 5)
    closed = cg_sphere_mass(g, nu)
    for n in range(11):
        assert subset_mass(nu, n, member) == closed(n)


def test_control_sequence_fast_machine(halt1, uniform):
    seq = control_sequence(halt1, Polynomial((1, 1)), uniform, 5)
    assert all(e.value == 0 for e in seq.entries)


def test_control_sequence_half_loop(loop_on_one, uniform):
    seq = control_sequence(loop_on_one, Polynomial((0, 1)), uniform, 6)
    for e in seq.entries:
        if e.n >= 1:
            assert e.value == Fraction(1, 2)


def test_control_sequence_counts_dont_know(answer_machine, uniform):
    # the decider answers in 2 steps but DontKnow on the empty word
    seq = control_sequence(answer_machine, Polynomial((2,)), uniform, 3)
    assert seq.entries[0].value == 1  # sphere 0: DontKnow counts as overrun
    assert all(e.value == 0 for e in seq.entries[1:])


def test_control_sequence_antitone_in_bound(loop_on_one, find_zero, uniform):
    for machine in (loop_on_one, find_zero):
        smaller = control_sequence(machine, Polynomial((0, 1)), uniform, 6)
        larger = control_sequence(machine, Polynomial((2, 1)), uniform, 6)
        for a, b in zip(smaller.entries, larger.entries):
            assert a.value >= b.value


def test_control_sequence_sampled_reproducible(loop_on_one, uniform):
    runs = [
        control_sequence(loop_on_one, Polynomial((0, 1)), uniform, 4,
                         samples=400, seed=99)
        for _ in range(2)
    ]
    assert runs[0].to_csv() == runs[1].to_csv()
    different = control_sequence(loop_on_one, Polynomial((0, 1)), uniform, 4,
                                 samples=400, seed=100)
    assert different.to_csv() != runs[0].to_csv()


def test_sampled_mode_requires_seed(loop_on_one, uniform):
    with pytest.raises(ValueError, match="requires a seed"):
        control_sequence(loop_on_one, Polynomial((0, 1)), uniform, 3, samples=10)


def test_sampling_needs_a_positive_sample_count(loop_on_one, uniform):
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            control_sequence(loop_on_one, Polynomial((0, 1)), uniform, 3,
                             samples=samples, seed=1)


def test_subset_mass_closed_form_has_no_horizon(uniform, nu):
    g = Polynomial((1, 2))
    # the closed form is used as given: the predicate is never consulted
    assert subset_mass(uniform, 40, None, closed=lambda n: Fraction(1, n)) == Fraction(1, 40)
    assert subset_mass(nu, 41, c_of_g(g), closed=cg_sphere_mass(g, nu)) == Fraction(1, 41)
    conditioned = InducedEnsemble(nu, c_of_g(g), closed=cg_sphere_mass(g, nu))
    assert conditioned.subset_sphere_mass(41) == Fraction(1, 41)
    # C(g)'s class in sphere 40 under n+1 is 0 {0,1}^39, and 2n+1 reaches 41
    # with the class 1^20 0 {0,1}^20
    assert cg_sphere_mass(Polynomial((1, 1)), uniform)(40) == Fraction(1, 2)
    assert cg_sphere_mass(Polynomial((1, 1)), nu)(40) == Fraction(1, 40)
    assert cg_sphere_mass(g, uniform)(41) == Fraction(1, 2**21)
    assert cg_sphere_mass(g, uniform)(40) == 0


def test_enumerated_subset_mass_stops_at_the_cap(loop_on_one, uniform):
    with pytest.raises(HorizonError):
        subset_mass(uniform, 17, lambda x: True)
    with pytest.raises(HorizonError):
        control_sequence(loop_on_one, Polynomial((0, 1)), uniform, 17)
    conditioned = InducedEnsemble(uniform, example41_image_member)
    assert conditioned.subset_sphere_mass(16) == Fraction(fib_tilings(16), 2**16)
    with pytest.raises(HorizonError):
        conditioned.mass(BINARY.word("0" * 17))


def test_sample_sphere_uniform_frequencies(uniform):
    draws = sample_sphere(uniform, 3, 100_000, seed=7)
    counts = {}
    for w in draws:
        counts[w.text()] = counts.get(w.text(), 0) + 1
    sigma = (0.125 * 0.875 / 100_000) ** 0.5
    for text, count in counts.items():
        assert abs(count / 100_000 - 0.125) < 3.5 * sigma, text
    assert len(counts) == 8


def test_sample_sphere_table_support(geometric_table):
    draws = sample_sphere(geometric_table, 4, 5_000, seed=11)
    masses = {w.text(): geometric_table.mass(w) for w in draws}
    assert all(m > 0 for m in masses.values())


def test_sample_sphere_dbh_nu(nu):
    draws = sample_sphere(nu, 5, 2_000, seed=3)
    for w in draws:
        assert "0" in w.text()  # all-ones words carry no mass
    assert sample_sphere(nu, 0, 3, seed=1) == [BINARY.empty] * 3


def test_sampler_reproducibility_per_sphere():
    a = sphere_stream(42, 3).random()
    b = sphere_stream(42, 3).random()
    c = sphere_stream(42, 4).random()
    assert a == b != c


def test_csv_schema(uniform, halt1):
    seq = control_sequence(halt1, Polynomial((1, 1)), uniform, 2)
    lines = seq.to_csv().strip().splitlines()
    assert lines[0] == "n,numerator,denominator,float_value,mode,samples,seed"
    assert lines[1].startswith("0,0,1,0.0,exact,0,")


def test_density_cg_closed_form_on_binary_bases_only(uniform):
    # under the uniform measure the family's density is its counting
    # measure, weighed as one block; bases over other alphabets, "10"
    # included, test every word
    spec = {"name": "cg", "g": "2n+1"}
    member, _, closed = subset_from_spec(spec, uniform)
    assert closed(3) == subset_mass(uniform, 3, member) == Fraction(2, 8)
    assert closed(5) == subset_mass(uniform, 5, member) == Fraction(4, 32)
    for symbols in (("1", "0"), ("0", "1", "2")):
        assert subset_from_spec(spec, UniformEnsemble(Alphabet(symbols)))[2] is None


CG_GUARDS = (Polynomial((1, 1)), Polynomial((4, 1)), Polynomial((1, 2)),
             Polynomial((1, 0, 1)), adequate_guard(Polynomial((1, 1))))


def test_cg_sphere_mass_matches_per_word_oracle(uniform, nu, geometric_table):
    """C(g)'s one class per sphere weighs what testing every word of the
    sphere weighs, at every n <= 12, under uniform, ν and a table; past
    the table's n_max both raise the same HorizonError."""
    raised = 0
    for mu in (uniform, nu, geometric_table):
        for g in CG_GUARDS:
            closed, member = cg_sphere_mass(g, mu), c_of_g(g)
            for n in range(13):
                try:
                    want = subset_mass(mu, n, member)
                except HorizonError as exc:
                    with pytest.raises(HorizonError, match=f"^{re.escape(str(exc))}$"):
                        closed(n)
                    raised += 1
                    continue
                assert closed(n) == want, (mu.kind, n)
    assert raised  # the table stops at 10, and n+1 reaches 11 and 12


def test_overrun_mass_matches_per_word_oracle(nu, geometric_table):
    """The block walk equals one search per word on every sphere up to 10
    (up to 6 over three letters), for seeded random machines of every
    kind, with and without the answer convention, on both tape modes,
    under uniform, ν and a table ensemble, at bounds below and above n."""
    rng = random.Random(1205)
    ensembles = [UniformEnsemble(BINARY), nu, geometric_table,
                 UniformEnsemble(Alphabet(("a", "b", "c")))]
    for trial in range(32):
        kind = ("deterministic", "partial", "nondeterministic")[trial % 3]
        mu = ensembles[trial % 4]
        machine = oracles.random_machine(rng, kind, ("two-way", "one-end")[trial // 16],
                                         mu.alphabet.symbols, "_", 3,
                                         answers=trial // 4 % 2 == 1)
        for n in range(11 if mu.alphabet.size == 2 else 7):
            for bound in (n // 2, n + 2):
                assert overrun_mass(machine, mu, n, bound) == \
                    oracles.overrun_mass(machine, mu, n, bound), (trial, n, bound)
