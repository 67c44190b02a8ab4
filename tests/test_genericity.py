import json
import random
import re
from fractions import Fraction
from pathlib import Path

import gclab.machine
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
from gclab.genericity import exceeds_bound, overrun_mass, parse_polynomial, sphere_stream
from gclab.machine import load_machine
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


@pytest.mark.parametrize("coeffs", [(), []])
def test_polynomial_needs_a_coefficient(coeffs):
    with pytest.raises(ValueError, match="at least one coefficient"):
        parse_polynomial(coeffs)


@pytest.mark.parametrize("entry", [1.5, 2.0, True, "2"])
def test_coefficient_list_entries_must_be_integers(entry):
    """A coefficient list is read as it is: an entry that is not an
    integer is refused by name, not rounded or converted."""
    with pytest.raises(ValueError, match=f"^coefficient {re.escape(repr(entry))} is not"):
        parse_polynomial([1, entry])


@pytest.mark.parametrize("text", ["", " ", "+"])
def test_polynomial_text_needs_a_term(text):
    """A polynomial text with no term is refused, not read as the zero
    polynomial, which "0" still is."""
    with pytest.raises(ValueError, match=f"^polynomial {re.escape(repr(text))} has no term$"):
        parse_polynomial(text)
    assert parse_polynomial("0") == Polynomial((0,))


@pytest.mark.parametrize("text", ["1+", "1++2", "2+-1+1", "1-", "--1", "+-1"])
def test_polynomial_sign_needs_a_term_after_it(text):
    """A trailing sign, or two signs in a row, is refused rather than
    read as if the sign were absent ("1+" as 1, "1++2" as 3); one
    leading sign stays allowed."""
    with pytest.raises(ValueError, match=(f"^polynomial {re.escape(repr(text))} "
                                          "has a sign with no term after it$")):
        parse_polynomial(text)
    assert parse_polynomial("-n+2n") == Polynomial((0, 1))
    assert parse_polynomial("+1") == Polynomial((1,))


@pytest.mark.parametrize("text, term", [("2n3", "2n3"), ("n^^2", "n^^2"), ("n^", "n^"),
                                        ("nn", "nn"), ("n^-2", "n^"), ("n^1_0", "n^1_0")])
def test_polynomial_exponent_is_a_caret_and_digits(text, term):
    """An exponent is read only as ^ followed by digits: "2n3" is not
    2n^3 and "n^^2" is not n^2, and "n^", "nn" and "n^-2" are refused
    with the polynomial named, not with ``int()``'s message."""
    message = f"^polynomial {re.escape(repr(text))} has a malformed term {re.escape(repr(term))}$"
    with pytest.raises(ValueError, match=message):
        parse_polynomial(text)


def test_polynomial_forms_in_use_parse_as_before():
    """The guards, densities and bounds of the test fixtures and the
    benchmark's inputs, and the documented forms, parse as they did."""
    forms = {"0": (0,), "1": (1,), "5": (5,), "n": (0, 1), "n+1": (1, 1), "n+2": (2, 1),
             "n+3": (3, 1), "n+4": (4, 1), "n+6": (6, 1), "2n+1": (1, 2), "n^2": (0, 0, 1),
             "n^2+n+6": (6, 1, 1), "3n^2": (0, 0, 3), "n^0": (1,), "-n+2n": (0, 1),
             "+1": (1,), " n ^ 2 ": (0, 0, 1)}
    for text, coeffs in forms.items():
        assert parse_polynomial(text) == Polynomial(coeffs), text


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


def test_control_sequence_of_a_drifting_machine_ends_early(uniform, monkeypatch):
    """The bouncer fixture drifts right into blank tape and never halts.
    Its exact control sequence at bound 10**9 is 1 on every sphere up to
    6.  No state of it can reach its final state, so each search, which
    collects ``seen``, breaks at once on the live part: fewer than
    10,000 steps in all, where walking every bound would take 10**9
    steps per block.  (Walks that collect ``seen`` and end on
    translated-cycle certificates are checked in ``test_machine``.)"""
    path = Path(__file__).parent / "data" / "bouncer.json"
    bouncer = load_machine(json.loads(path.read_text()))
    calls = 0
    original = gclab.machine.step

    def counted(machine, config):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise AssertionError("more than 10,000 steps")
        return original(machine, config)

    monkeypatch.setattr(gclab.machine, "step", counted)
    seq = control_sequence(bouncer, Polynomial((10**9,)), uniform, 6)
    assert [e.value for e in seq.entries] == [1] * 7
    assert calls < 10_000


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


def test_sampling_accepts_one_sample_per_sphere(loop_on_one, uniform):
    """One sample per sphere is the smallest count sampling accepts: each
    entry is the verdict on the first draw of its sphere's stream, 0 or 1
    over one sample."""
    seq = control_sequence(loop_on_one, Polynomial((0, 1)), uniform, 6, samples=1, seed=5)
    want = [int(exceeds_bound(loop_on_one, sample_sphere(uniform, n, 8, 5)[0], n))
            for n in range(7)]
    assert [tuple(e) for e in seq.entries] == [(n, w, 1, 5) for n, w in enumerate(want)]
    assert 0 < sum(want) < 7


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


def _even_ones(x, budget):
    """A virtual machine's evaluator: halts in |x| steps on the words
    with an even count of ones, runs forever on the rest."""
    return len(x) if x.text().count("1") % 2 == 0 else None


def test_sphere_masses_past_the_horizon_raise_on_every_sphere(geometric_table, halt1, loop):
    """Past the table's n_max of 10, every sphere raises the table's own
    HorizonError, whether its subset mass is enumerated or closed-form
    and whether or not the subset meets the sphere; so does the overrun
    mass of a table machine that overruns (``loop``) or never does
    (``halt1``), and of a virtual machine."""
    with pytest.raises(HorizonError) as want:
        geometric_table.mass(BINARY.word("0" * 11))
    message = f"^{re.escape(str(want.value))}$"
    for n in range(11, 17):
        for subset, closed in ((lambda x: True, None), (lambda x: False, None),
                               (lambda x: True, lambda n: 1)):
            with pytest.raises(HorizonError, match=message):
                subset_mass(geometric_table, n, subset, closed)
        for g in CG_GUARDS:
            with pytest.raises(HorizonError, match=message):
                cg_sphere_mass(g, geometric_table)(n)
        for machine in (halt1, loop, gclab.machine.VirtualMachine("even-ones", _even_ones)):
            with pytest.raises(HorizonError, match=message):
                overrun_mass(machine, geometric_table, n, n + 1)
    assert subset_mass(geometric_table, 10, lambda x: False) == 0


def test_overrun_mass_matches_per_word_oracle(nu, geometric_table):
    """The block walk equals one search per word on every sphere up to 10
    (up to 6 over three letters), for seeded random machines of every
    kind, with and without the answer convention, on both tape modes,
    under uniform, ν and a table ensemble, at bounds below and above n
    and past ``_CERTIFY_OVER``, where deterministic walks end on
    certificates; and for machines of the bouncer family under uniform
    and ν."""
    rng = random.Random(1205)
    ensembles = [UniformEnsemble(BINARY), nu, geometric_table,
                 UniformEnsemble(Alphabet(("a", "b", "c")))]
    for trial in range(40):
        kind = ("deterministic", "partial", "nondeterministic")[trial % 3]
        mu = ensembles[trial % 4]
        if trial < 32:
            machine = oracles.random_machine(rng, kind, ("two-way", "one-end")[trial // 16],
                                             mu.alphabet.symbols, "_", 3,
                                             answers=trial // 4 % 2 == 1)
        else:
            mu = ensembles[trial % 2]
            machine = oracles.bouncer(rng)
        for n in range(11 if mu.alphabet.size == 2 else 7):
            for bound in (n // 2, n + 2, gclab.machine._CERTIFY_OVER + 1 + n):
                assert overrun_mass(machine, mu, n, bound) == \
                    oracles.overrun_mass(machine, mu, n, bound), (trial, n, bound)


def test_overrun_mass_of_a_virtual_machine_is_its_per_word_sum(nu, geometric_table):
    """A virtual machine is asked word by word: its overrun mass is the
    mass of the sphere's words its evaluator gives no steps within the
    bound, on every sphere up to 10, under uniform, ν and a table."""
    machine = gclab.machine.VirtualMachine("even-ones", _even_ones)
    for mu in (UniformEnsemble(BINARY), nu, geometric_table):
        for n in range(11):
            for bound in (n - 1, n):
                want = sum((mu.mass(x) for x in BINARY.sphere(n)
                            if _even_ones(x, bound) is None or _even_ones(x, bound) > bound),
                           Fraction(0))
                assert overrun_mass(machine, mu, n, bound) == want, (mu.kind, n, bound)


def _alphabet_of(size: int) -> Alphabet:
    """``size`` one-character symbols: digits, then letters, then CJK."""
    head = "0123456789abcdefghijklmnopqrstuvwxyz"
    return Alphabet(tuple(head[:size]) + tuple(chr(0x4E00 + i) for i in range(size - len(head))))


@pytest.mark.parametrize("size", [1, 2, 3, 5, 26, 255, 256, 300])
@pytest.mark.parametrize("n", [0, 1, 5, 33, 130])
def test_uniform_batches_are_the_per_letter_draws(size, n):
    """A sphere's uniform batch is the draws of one ``randrange(size)`` per
    letter in turn off the sphere's stream, on both sides of the byte
    path (up to 255 symbols) and the lazy one (256 and more)."""
    mu = UniformEnsemble(_alphabet_of(size))
    for seed in (0, 5, 4242):
        for count in (1, 2, 7, 64):
            rng = sphere_stream(seed, n)
            want = [oracles.uniform_draw(mu.alphabet, rng, n) for _ in range(count)]
            assert sample_sphere(mu, n, count, seed) == want, (seed, count)


def test_a_uniform_batch_longer_than_a_read_chunk():
    """A batch of more letters than one chunk of outputs is read in several
    chunks, which join into the per-letter draws."""
    mu = UniformEnsemble(_alphabet_of(3))
    n, count = 130, UniformEnsemble._READ_CHUNK // 130 + 40
    assert n * count * 4 // 3 > UniformEnsemble._READ_CHUNK  # 3 letters keep 3 outputs in 4
    rng = sphere_stream(11, n)
    assert sample_sphere(mu, n, count, 11) == [oracles.uniform_draw(mu.alphabet, rng, n)
                                               for _ in range(count)]


@pytest.mark.parametrize("n", [0, 1, 5, 33, 130])
def test_nu_batches_are_the_per_bit_draws(nu, n):
    """ν's draws are its leading-ones count, then one ``randrange(2)`` per
    suffix bit, off the sphere's stream."""
    for seed in (0, 5, 4242):
        for count in (1, 2, 7, 64):
            rng = sphere_stream(seed, n)
            want = [oracles.nu_draw(rng, n) for _ in range(count)]
            assert sample_sphere(nu, n, count, seed) == want, (seed, count)


def _fixture(name: str):
    return load_machine(json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text()))


def test_sampled_sequence_matches_one_search_per_draw(nu, loop_on_one):
    """Draws that share a read prefix share its verdict: the sampled
    control sequence equals one ``exceeds_bound`` call per draw, for
    seeded random machines (deterministic, branching, with and without
    the answer convention), the fixtures, and a virtual machine, under
    uniform over two and three letters and ν, at n <= 20."""
    rng = random.Random(4711)
    binary, ternary = UniformEnsemble(BINARY), UniformEnsemble(_alphabet_of(3))
    machines = [(machine, mu) for machine in (_fixture("scanner"), _fixture("answer_decider"),
                                              loop_on_one) for mu in (binary, nu)]
    machines += [(_fixture(name), ternary) for name in ("sweeper_live", "bouncer_live")]
    for trial in range(24):
        mu = (binary, nu, ternary)[trial % 3]
        kind = ("deterministic", "partial", "nondeterministic")[trial // 3 % 3]
        machines.append((oracles.random_machine(rng, kind, ("two-way", "one-end")[trial % 2],
                                                mu.alphabet.symbols, "_", rng.randrange(1, 4),
                                                answers=trial // 9 % 2 == 1), mu))

    machines.append((gclab.machine.VirtualMachine("even-ones", _even_ones), binary))
    polys = (Polynomial((0, 1)), Polynomial((2, 0, 1)), Polynomial((3,)))
    for i, (machine, mu) in enumerate(machines):
        p, seed = polys[i % 3], 100 + i
        seq = control_sequence(machine, p, mu, 20, samples=40, seed=seed)
        want = oracles.sampled_control_sequence(machine, p, mu, 20, 40, seed)
        assert [e.value for e in seq.entries] == want, (i, machine)


def test_sampled_sequence_searches_once_per_read_prefix(uniform, monkeypatch):
    """The bouncer fixture reads one cell of any input, so a sphere's
    draws need at most two searches, one per first letter, where a
    search per draw took eight."""
    bouncer = _fixture("bouncer")
    searches: dict[int, int] = {}
    original = gclab.machine._search_halting

    def counted(machine, x, budget, **kwargs):
        searches[len(x)] = searches.get(len(x), 0) + 1
        return original(machine, x, budget, **kwargs)

    monkeypatch.setattr(gclab.machine, "_search_halting", counted)
    seq = control_sequence(bouncer, parse_polynomial("n^2"), uniform, 32, samples=8, seed=1)
    assert [e.value for e in seq.entries] == [1] * 33
    assert sorted(searches) == list(range(33)) and max(searches.values()) <= 2
