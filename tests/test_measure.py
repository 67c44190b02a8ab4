import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gclab import (
    BINARY,
    Alphabet,
    InducedEnsemble,
    TableEnsemble,
    UniformEnsemble,
    ensemble_from_spec,
    example41_reduction,
    identity_reduction,
    invert_mu_star,
    parse_polynomial,
    verify_cm,
    verify_induced,
    verify_transfer,
)
from gclab import measure
from gclab.bhp import NU, subset_from_spec
from gclab.measure import (
    CheckReport,
    HorizonError,
    ONE,
    SizeInvarianceError,
    TransferredEnsemble,
    ZERO,
    _pushforward,
    _uniform_mass,
    block_mass,
    check_lower_bounds,
    exact_sum,
    per_run,
    size_inverse,
    subset_mass,
)
from gclab.reductions import (
    DistributionalProblem,
    Reduction,
    binary_map,
    example41_image_member,
    to_binary,
)
from gclab.words import Alphabet, AlphabetMismatchError, Word, rank_in_sphere
import oracles
from oracles import EnumeratedNu, fraction_sum, scan_inverse, sphere_sum
from oracles import block_mass as block_mass_by_words


@pytest.fixture(scope="module")
def mu2():
    """The worked table on sphere 2: 1/2, 1/4, 1/8, 1/8."""
    return TableEnsemble(
        BINARY,
        {
            "0": Fraction(1, 2),
            "1": Fraction(1, 2),
            "00": Fraction(1, 2),
            "01": Fraction(1, 4),
            "10": Fraction(1, 8),
            "11": Fraction(1, 8),
        },
        n_max=2,
    )


def test_uniform_mass_and_sum(uniform):
    assert uniform.mass(BINARY.word("010")) == Fraction(1, 8)
    for n in range(6):
        assert uniform.sphere_sum(n) == 1


def test_dbh_nu_masses(nu):
    assert nu.mass(BINARY.word("110")) == Fraction(1, 3)
    assert nu.mass(BINARY.word("111")) == 0
    assert nu.mass(BINARY.empty) == 1
    assert nu.sphere_sum(0) == 1
    assert nu.sphere_sum(3) == 1


def test_class_masses_are_shared_values(nu):
    """At every n <= 40, on a word of each ν class and a uniform word over
    two and three letters, each built as letters and as text: ν's mass
    is 1/(n 2^|w|), as the text oracle reads it, and the uniform mass is
    size^-n.  Every call for one class returns one object: both forms,
    two ν instances, two uniform instances and ``_uniform_mass``."""
    rng = random.Random(49)
    ternary = Alphabet(("a", "b", "c"))
    for n in range(41):
        for m in range(n + 1):  # the class 1^m 0 w, |w| = n - m - 1, or 1^n
            tail = "0" + "".join(rng.choices("01", k=n - m - 1)) if m < n else ""
            text = "1" * m + tail
            forms = Word(BINARY, tuple(text)), Word.of_text(BINARY, text)
            want = Fraction(1, n << (n - m - 1)) if m < n else ZERO if n else ONE
            q = nu.mass(forms[0])
            assert q == want == oracles.nu_mass_text(forms[0])
            assert all(mu.mass(x) is q for mu in (nu, NU) for x in forms)
        for alphabet in (BINARY, ternary):
            text = "".join(rng.choices(alphabet.symbols, k=n))
            forms = Word(alphabet, tuple(text)), Word.of_text(alphabet, text)
            pair = UniformEnsemble(alphabet), UniformEnsemble(alphabet)
            q = _uniform_mass(alphabet.size, n)
            assert q == Fraction(1, alphabet.size**n)
            assert all(mu.mass(x) is q for mu in pair for x in forms)


def test_sphere_sums_equal_one_everywhere(uniform, nu, geometric_table, worked_table,
                                          skewed_table):
    # table kinds stop at their declared maximum
    for ensemble, top in ((uniform, 12), (nu, 12), (geometric_table, 10),
                          (worked_table, 10), (skewed_table, 10)):
        for n in range(top + 1):
            assert ensemble.sphere_sum(n) == 1
            assert all(ensemble.mass(x) >= 0 for x in BINARY.sphere(min(n, 8)))


def test_table_horizon_error(mu2):
    with pytest.raises(HorizonError):
        mu2.mass(BINARY.word("000"))


def test_table_spec_builds_each_entry_word_once(monkeypatch):
    """A 14-entry table, uniform on spheres 1 to 3, is read, checked and
    validated with one ``Alphabet.word`` call per entry."""
    entries = {w.text(): f"1/{2 ** n}" for n in range(1, 4) for w in BINARY.sphere(n)}
    calls = []
    word = Alphabet.word

    def counted(self, letters):
        calls.append(letters)
        return word(self, letters)

    monkeypatch.setattr(Alphabet, "word", counted)
    table = ensemble_from_spec({"kind": "table", "alphabet": "01", "entries": entries})
    assert len(entries) == 14 and len(calls) == 14
    assert table.horizon == 3 and table.mass(BINARY.word("101")) == Fraction(1, 8)


def test_table_checks_symbols_before_the_sign():
    with pytest.raises(AlphabetMismatchError):
        TableEnsemble(BINARY, {"0": 1, "2": -1})
    with pytest.raises(ValueError, match="negative mass for '1'"):
        TableEnsemble(BINARY, {"0": 2, "1": -1})


def test_mu_star(uniform, mu2):
    assert uniform.mu_star(BINARY.word("00")) == 0
    assert uniform.mu_star(BINARY.word("10")) == Fraction(2, 4)
    assert mu2.mu_star(BINARY.word("10")) == Fraction(3, 4)


def test_hat_mu(uniform, mu2):
    assert mu2.hat_mu(BINARY.word("11")) == 1
    assert uniform.hat_mu(BINARY.word("00")) == Fraction(1, 4)
    assert mu2.hat_mu(BINARY.word("00")) == Fraction(1, 2)


def test_hat_mu_identity(uniform, mu2, nu, geometric_table):
    """hat_mu(x) is the mu_star of the next word of the sphere in lex
    order, and 1 on the sphere's last word."""
    for ensemble, top in ((uniform, 8), (mu2, 2), (nu, 8), (geometric_table, 8)):
        for n in range(top + 1):
            sphere = list(BINARY.sphere(n))
            for x, successor in zip(sphere, sphere[1:]):
                assert ensemble.hat_mu(x) == ensemble.mu_star(successor)
            assert ensemble.hat_mu(sphere[-1]) == 1


def test_hat_mu_is_rank_over_sphere_size_on_every_alphabet():
    abc = Alphabet(("a", "b", "c"))
    mu = UniformEnsemble(abc)
    for n in range(5):
        for x in abc.sphere(n):
            assert mu.hat_mu(x) == Fraction(rank_in_sphere(x), 3**n)


def test_mu_star_matches_enumeration(uniform, nu, geometric_table):
    """Running mass sums give mu_star, on every alphabet.  The input
    ensemble's closed-form inverse matches the enumerated oracle's at
    every interval endpoint and at seeded random points."""
    abc = Alphabet(("a", "b", "c"))
    for ensemble, top in ((uniform, 10), (UniformEnsemble(abc), 6), (nu, 12),
                          (geometric_table, 6)):
        for n in range(top + 1):
            total = Fraction(0)
            for x in ensemble.alphabet.sphere(n):
                assert ensemble.mu_star(x) == total
                total += ensemble.mass(x)
    oracle, rng = EnumeratedNu(), random.Random(7)
    for n in range(13):
        ts = {nu.hat_mu(x) for x in BINARY.sphere(n)}  # every endpoint but 0
        ts.update(Fraction(rng.getrandbits(64) + 1, 1 << 64) for _ in range(40))
        ts.update(Fraction(rng.randrange(1, 3 * n * 2**n + 2), 3 * n * 2**n + 1)
                  for _ in range(40))
        for t in ts:
            assert invert_mu_star(nu, n, t) == invert_mu_star(oracle, n, t), (n, t)


def test_transfer_unary_point_mass():
    unary = Alphabet(("a",))
    mu = UniformEnsemble(unary)  # the only word of each sphere has mass 1
    problem = DistributionalProblem("unary", lambda x: True, mu)
    f, image = to_binary(problem)
    nu = image.measure
    for n in range(7):
        for y in BINARY.sphere(n):
            expected = 1 if y.text() == "0" * n else 0
            assert nu.mass(y) == expected


def test_transfer_filler_on_unachieved_spheres():
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    # sizes achieved by the map: 0, 2, 4, 5, 7, 8...; radius 3 is filler
    assert f.size_growth(1) == 2 and f.size_growth(2) == 4
    assert image.measure.mass(BINARY.word("101")) == Fraction(1, 8)


def test_transfer_fills_the_shared_row_on_a_filler_length_not_weighed_before(monkeypatch):
    """The first weighing of a filler length, with the shared uniform row
    still empty, fills that row through ``_uniform_mass``: the mass is the
    very object every later path hands out, and it is the row's one entry."""
    monkeypatch.setattr(measure, "_UNIFORM_MASSES", {})
    abc = Alphabet(("a", "b", "c"))
    transferred = TransferredEnsemble(binary_map(abc), UniformEnsemble(abc))
    q = transferred.mass(BINARY.word("101"))  # growths 0, 2, 4, 5: no sphere maps to 3
    assert q == Fraction(1, 8) and q is measure._uniform_mass(2, 3)
    assert measure._UNIFORM_MASSES[2] == {3: q}


def test_transfer_injective_uniform():
    abc = Alphabet(("a", "b", "c", "d"))
    problem = DistributionalProblem("abcd", lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    for n in range(4):
        for x in abc.sphere(n):
            assert image.measure.mass(f.apply(x)) == Fraction(1, 4**n)


def test_transfer_requires_size_invariance(uniform):
    with pytest.raises(SizeInvarianceError):
        TransferredEnsemble(example41_reduction(), uniform)


def test_induce_full_and_empty_subsets(uniform):
    full = InducedEnsemble(uniform, lambda x: True)
    empty = InducedEnsemble(uniform, lambda x: False)
    for n in range(5):
        for x in BINARY.sphere(n):
            assert full.mass(x) == uniform.mass(x)
            assert empty.mass(x) == uniform.mass(x)  # untouched sphere


def test_induce_conditional(uniform):
    sub = InducedEnsemble(uniform, lambda x: x.text() in ("00", "01"))
    assert sub.mass(BINARY.word("00")) == Fraction(1, 2)
    assert sub.mass(BINARY.word("10")) == 0


def test_verify_transfer_self_consistency(geometric_table):
    f = identity_reduction(BINARY)
    nu = TransferredEnsemble(f, geometric_table)
    assert verify_transfer(f, geometric_table, nu, 6).passed


def test_transferred_sums_to_one_on_achieved_spheres():
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    for k in range(6):
        m = f.size_growth(k)
        assert image.measure.sphere_sum(m) == 1


def test_size_inverse_matches_linear_scan():
    from gclab.bhp import adequate_guard, as_guard, guard_inverse
    from gclab.genericity import Polynomial

    assert guard_inverse is size_inverse
    sizes = []
    for size in (1, 3, 4, 5, 8):
        sigma = Alphabet(tuple("abcdefgh"[:size]))
        problem = DistributionalProblem("s", lambda x: True, UniformEnsemble(sigma))
        sizes.append(to_binary(problem)[0].size_growth)
    guards = [
        as_guard(Polynomial((1, 2))),
        as_guard(Polynomial((6, 1))),
        as_guard(Polynomial((1, 0, 1))),
        adequate_guard(Polynomial((6, 1))),
        adequate_guard(Polynomial((6, 1)), Polynomial((1, 1))),
        adequate_guard(Polynomial((1, 0, 1)), Polynomial((0, 3))),
        adequate_guard(Polynomial((8, 2)), extra_payload=200),
    ]
    for fn in sizes + guards:
        for m in range(-2, 401):
            assert size_inverse(fn, m) == scan_inverse(fn, m), m


def test_verify_transfer_catches_corruption(uniform):
    f = identity_reduction(BINARY)

    class Corrupted(UniformEnsemble):
        def mass(self, x):
            if x.text() == "010":
                return Fraction(1, 4)
            return super().mass(x)

    report = verify_transfer(f, uniform, Corrupted(BINARY), 4)
    assert len(report.violations) == 1
    assert report.violations[0].witness == "010"


def test_transfer_catches_image_sizes_the_growth_contradicts(uniform):
    """A map whose declared size growth (n) its images break inside a
    sphere: the verifier reports each word whose image has another
    length, and the transferred ensemble refuses to weigh that sphere."""
    doubling = example41_reduction()  # 0 -> 00, 1 -> 1
    f = Reduction("doubling-as-n", BINARY, BINARY, doubling.func, size_growth=lambda n: n)
    report = verify_transfer(f, uniform, uniform, 3)
    mismatches = [(v.witness, v.expected, v.actual)
                  for v in report.violations if v.note == "image size differs inside sphere"]
    assert mismatches == [
        (x.text(), str(n), str(len(f.apply(x))))
        for n in range(4) for x in BINARY.sphere(n) if "0" in x.text()
    ]
    with pytest.raises(SizeInvarianceError, match=r"\|f\(0\)\| = 2, expected 1"):
        TransferredEnsemble(f, uniform).mass(BINARY.word("1"))


def test_verify_transfer_maps_each_source_word_once():
    """The rank-to-binary map over abc, checked against its transferred
    ensemble at n <= 10: the ensemble maps each word of source spheres 0
    to 6 once, and the verifier maps none."""
    abc = Alphabet(("a", "b", "c"))
    f = binary_map(abc)
    calls = []

    def counted(x):
        calls.append(x)
        return f.func(x)

    g = f._replace(func=counted)
    mu = UniformEnsemble(abc)
    assert verify_transfer(g, mu, TransferredEnsemble(g, mu), 10).passed
    reached = [k for k in range(11) if f.size_growth(k) <= 10]
    assert reached == list(range(7))
    assert len(calls) == len(set(calls)) == sum(3**k for k in reached)


def _random_table(alphabet, n_max, rng):
    entries = {}
    for n in range(n_max + 1):
        words = list(alphabet.sphere(n))
        weights = [rng.randrange(1, 1000) for _ in words]
        total = sum(weights)
        entries.update((x.text(), Fraction(w, total)) for x, w in zip(words, weights))
    return TableEnsemble(alphabet, entries, n_max=n_max)


@pytest.mark.parametrize("size", [2, 1, 3, 4, 5, 8])
def test_rank_preserving_maps_push_forward_by_rank(size):
    """Every map that claims to keep rank does: at each k <= 5 the forward
    sum of a random table's sphere k equals its masses laid out in lex
    order on the first words of the image sphere, then zero.  Maps that
    keep no rank do not claim it."""
    rng = random.Random(size)
    if size == 2:
        f = identity_reduction(BINARY)
    else:
        f = binary_map(Alphabet(tuple("abcdefgh"[:size])))
    assert f.rank_preserving
    mu = _random_table(f.source, 5, rng)

    def mismatch(x, m, length):
        raise AssertionError(f"|f({x.text()})| = {length}, expected {m}")

    for k in range(6):
        m = f.size_growth(k)
        images = _pushforward(f, mu, k, m, mismatch)
        forward = [images.get(y.letters, 0) for y in f.target.sphere(m)]
        by_rank = [mu.mass(x) for x in f.source.sphere(k)]
        assert forward == by_rank + [0] * (f.target.sphere_size(m) - len(by_rank)), k

    from gclab.bhp import adequate_guard, red2bh_map
    from gclab.genericity import Polynomial

    guard = adequate_guard(Polynomial((6, 1)))
    assert not red2bh_map(UniformEnsemble(BINARY), guard).rank_preserving
    assert not example41_reduction().rank_preserving


@pytest.mark.parametrize(
    "candidate", ["uniform-01", "unary-transfer", "table-transfer", "uniform-ab"])
def test_rank_layout_reports_what_the_forward_sum_reports(candidate):
    """A failing rank-preserving transfer lists the same violations, in
    the same order and with the same strings, whether its expected side is
    laid out by rank or summed forward."""
    abc = Alphabet(("a", "b", "c"))
    f = binary_map(abc)
    mu = UniformEnsemble(abc)
    nu = {
        "uniform-01": lambda: UniformEnsemble(BINARY),
        "unary-transfer": lambda: TransferredEnsemble(binary_map(Alphabet("a")),
                                                      UniformEnsemble(Alphabet("a"))),
        "table-transfer": lambda: TransferredEnsemble(f, _random_table(abc, 4, random.Random(7))),
        # over another alphabet than the map's target: summed forward both times
        "uniform-ab": lambda: UniformEnsemble(Alphabet("ab")),
    }[candidate]()
    by_rank = verify_transfer(f, mu, nu, 7)
    forward = verify_transfer(f._replace(rank_preserving=False), mu, nu, 7)
    assert by_rank.violations
    assert json.dumps(by_rank.to_dict()) == json.dumps(forward.to_dict())


def test_verify_induced_self_and_closed_form(nu):
    from gclab.bhp import c_of_g, nu_g
    from gclab.genericity import Polynomial

    g = Polynomial((1, 2))  # 2n+1
    conditioned = nu_g(g)
    report = verify_induced(nu, c_of_g(g), conditioned, 10)
    assert report.passed, report.violations[:3]


def test_verify_induced_catches_corruption(uniform):
    sub = lambda x: x.text().startswith("0")  # noqa: E731

    class Corrupted(UniformEnsemble):
        def mass(self, x):
            if x.text() == "00":
                return Fraction(1, 3)
            return Fraction(1, 2) if x.text().startswith("0") and len(x) == 2 else (
                Fraction(0) if len(x) == 2 else super().mass(x)
            )

    report = verify_induced(uniform, sub, Corrupted(BINARY), 2)
    assert not report.passed


def test_ensemble_specs_roundtrip():
    spec = {"kind": "table", "alphabet": "01",
            "entries": {"0": "1/2", "1": "1/2", "00": "1/4", "01": "1/4",
                        "10": "1/4", "11": "1/4"}}
    table = ensemble_from_spec(spec)
    assert table.mass(BINARY.word("01")) == Fraction(1, 4)
    uni = ensemble_from_spec({"kind": "uniform", "alphabet": "01"})
    assert uni.mass(BINARY.word("0")) == Fraction(1, 2)
    nu = ensemble_from_spec({"kind": "dbh_nu"})
    assert nu.mass(BINARY.word("10")) == Fraction(1, 2)
    induced = ensemble_from_spec(
        {"kind": "induced", "base": {"kind": "dbh_nu"},
         "subset": {"name": "cg", "g": "2n+1"}}
    )
    # "100" codes (3, "0"), the guard hits 3 at payload length 1: a member
    # with base mass 1/6 against the sphere's closed-form mass 1/3
    assert induced.mass(BINARY.word("100")) == Fraction(1, 2)
    transferred = ensemble_from_spec(
        {"kind": "transferred", "reduction": {"kind": "identity", "alphabet": "01"},
         "base": {"kind": "uniform", "alphabet": "01"}}
    )
    assert transferred.mass(BINARY.word("11")) == Fraction(1, 4)
    # a table's spec names its horizon, also one below its longest entry
    entries = {"0": Fraction(1, 2), "1": Fraction(1, 2), "00": Fraction(1)}
    for n_max, horizon in ((1, 1), (2, 2), (None, 2)):
        table = TableEnsemble(BINARY, entries, n_max=n_max)
        again = ensemble_from_spec(table.spec())
        assert again.horizon == table.horizon == table.spec()["n_max"] == horizon
        assert again.spec() == table.spec()


def test_block_mass_is_the_sum_of_its_words(uniform, nu, geometric_table):
    """``block_mass`` equals the word-by-word sum on every prefix of every
    word of every sphere up to 8 (up to 5 over "abc"), under closed-form,
    table, transferred and induced ensembles; past a table's horizon the
    two raise the same error."""
    abc = Alphabet(("a", "b", "c"))
    bin_alph = ensemble_from_spec({"kind": "transferred", "reduction": {
        "kind": "bin_alph", "sigma": "abc"}, "base": {"kind": "uniform", "alphabet": "abc"}})
    image41 = InducedEnsemble(uniform, example41_image_member)  # no closed form
    for mu, top in ((uniform, 8), (UniformEnsemble(abc), 5), (nu, 8), (geometric_table, 8),
                    (bin_alph, 8), (image41, 8)):
        for n in range(top + 1):
            prefixes = {x.letters[:r] for x in mu.alphabet.sphere(n) for r in range(n + 1)}
            for prefix in prefixes:
                assert block_mass(mu, prefix, n) == block_mass_by_words(mu, prefix, n), (
                    mu.kind, n, prefix)
    for prefix in ((), ("0",), ("1", "0", "1")):
        with pytest.raises(HorizonError) as want:
            block_mass_by_words(geometric_table, prefix, 11)
        with pytest.raises(HorizonError) as got:
            block_mass(geometric_table, prefix, 11)
        assert str(got.value) == str(want.value) == "table ensemble is only defined up to n=10"


def test_induced_spec_with_uniform_base_passes_verify_induced():
    induced = ensemble_from_spec(
        {"kind": "induced", "base": {"kind": "uniform", "alphabet": "01"},
         "subset": {"name": "cg", "g": "2n+1"}}
    )
    from gclab.bhp import c_of_g
    from gclab.genericity import Polynomial

    base = ensemble_from_spec({"kind": "uniform", "alphabet": "01"})
    assert verify_induced(base, c_of_g(Polynomial((1, 2))), induced, 8).passed


def _random_fractions(rng: random.Random, count: int, dens, nums) -> list[Fraction]:
    return [Fraction(rng.choice(nums), rng.choice(dens)) for _ in range(count)]


def _runs(rng: random.Random, pool: list[Fraction], count: int, fresh: float) -> list[Fraction]:
    """``count`` runs of 1-6 terms, each run one value drawn from ``pool``:
    the one shared object repeated, or, with probability ``fresh``, an
    equal but distinct copy per term."""
    terms = []
    for _ in range(count):
        q, length = rng.choice(pool), rng.randrange(1, 7)
        terms += ([Fraction(q.numerator, q.denominator) for _ in range(length)]
                  if rng.random() < fresh else [q] * length)
    return terms


def test_exact_sum_matches_fraction_sum():
    """Per-denominator integer sums equal Fraction-by-Fraction sums, on
    empty, all-zero, negative, mixed and very large denominators, and on
    runs: of one shared object (added once, times the run), of equal but
    distinct objects, of both interleaved, and of ``ZERO``."""
    rng = random.Random(2016)
    big = [2**200 + 1, 3**150, 2**64 * 7**40, 10**80 - 1]
    cases = [[], [Fraction(0)] * 50, [Fraction(1, 3), Fraction(-1, 3)]]
    for _ in range(40):
        count = rng.randrange(0, 300)
        cases += [
            _random_fractions(rng, count, range(1, 40), range(-50, 51)),
            _random_fractions(rng, count, [1 << rng.randrange(64) for _ in range(5)],
                              range(0, 9)),
            _random_fractions(rng, count, big + list(range(1, 10)),
                              [rng.randrange(-10**30, 10**30) for _ in range(7)]),
            [Fraction(rng.randrange(-5, 6), rng.randrange(1, 7)) for _ in range(count)]
            + [Fraction(0)] * rng.randrange(3),
        ]
    shared = [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 2**70), Fraction(5, big[0]), ZERO]
    cases += [[ZERO] * 7, [ZERO] * 3 + [shared[0]] * 4 + [ZERO] * 2, [shared[1]],
              [shared[2]] * 1000 + [shared[0]], [shared[0]] * 3 + [shared[1]] + [shared[0]] * 3]
    for _ in range(40):
        count = rng.randrange(0, 60)
        cases += [_runs(rng, shared, count, fresh) for fresh in (0.0, 1.0, 0.5)]
        cases.append(_runs(rng, [ZERO, Fraction(0), shared[0]], count, 0.3))
    for terms in cases:
        got = exact_sum(terms)
        assert isinstance(got, Fraction)
        assert got == fraction_sum(terms), terms[:5]
        assert exact_sum(iter(terms)) == got  # a one-pass iterator will do


def test_sphere_sums_match_fraction_sums(uniform, nu, geometric_table, skewed_table):
    """Every ensemble kind's sphere sums equal the Fraction-by-Fraction
    sums, the transferred and induced ones included."""
    abc = Alphabet(("a", "b", "c"))
    _, image = to_binary(DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc)))
    half = InducedEnsemble(geometric_table, lambda x: x.letters[:1] == ("1",))
    for ensemble, top in ((uniform, 10), (nu, 12), (geometric_table, 10),
                          (skewed_table, 8), (image.measure, 10), (half, 8),
                          (UniformEnsemble(abc), 6)):
        for n in range(top + 1):
            assert ensemble.sphere_sum(n) == sphere_sum(ensemble, n), (ensemble.kind, n)


def test_enumerated_nu_still_works(nu):
    """The enumerating oracle borrows ν's mass: it agrees with ν word by
    word, its spheres sum to one, and its running sums are ν's mu_star."""
    oracle = EnumeratedNu()
    for n in range(11):
        assert oracle.sphere_sum(n) == 1
        for x in BINARY.sphere(n):
            assert oracle.mass(x) == nu.mass(x)
            assert oracle.mu_star(x) == nu.mu_star(x)


def _per_word_ensembles(nu) -> list:
    """The ensembles whose ``mass`` sphere loops call on every word:
    uniform on two and three letters, ν, and a rank-to-binary transfer."""
    abc = Alphabet(("a", "b", "c"))
    return [UniformEnsemble(BINARY), UniformEnsemble(abc), nu,
            TransferredEnsemble(binary_map(abc), UniformEnsemble(abc))]


def test_masses_read_either_held_form(nu):
    """Each per-word ``mass`` weighs the letter form and the text form of
    every word up to n = 10 alike (it reads whichever form the word
    holds), and ν's masses equal the enumerating oracle's and the text
    oracle's on both forms."""
    oracle = EnumeratedNu()
    for ensemble in _per_word_ensembles(nu):
        alphabet = ensemble.alphabet
        for n in range(11):
            for x in alphabet.sphere(n):  # held as letters only
                text = Word.of_text(alphabet, "".join(x.letters))
                q = ensemble.mass(x)
                assert ensemble.mass(text) == q, (ensemble.kind, x)
                if ensemble is nu:
                    assert oracle.mass(x) == oracle.mass(text) == q
                    assert oracles.nu_mass_text(x) == q


@pytest.mark.parametrize("index", range(4), ids=["uniform-01", "uniform-abc", "dbh_nu",
                                                  "transferred"])
def test_inlined_alphabet_checks_raise_as_before(index, nu):
    """A word over another alphabet, as letters or as text, raises the
    same ``AlphabetMismatchError`` with the same message as
    ``_check_word``.  The other alphabet holds "0" and "1" in the other
    order, so without the check these words would be weighed."""
    ensemble = _per_word_ensembles(nu)[index]
    other = Alphabet(("1", "0"))
    for word in (Word(other, ("1", "1", "0")), Word.of_text(other, "110"),
                 Word(other, ()), Word.of_text(other, "")):
        with pytest.raises(AlphabetMismatchError, match="^word is over a different alphabet$"):
            ensemble.mass(word)


def test_check_word_refuses_a_word_over_another_alphabet(nu):
    """The masses and cumulative masses that call ``_check_word`` refuse
    a word over another alphabet, here "0" and "1" in the other order,
    which they would otherwise weigh as a binary word."""
    table = TableEnsemble(BINARY, {"0": Fraction(1, 2), "1": Fraction(1, 2)})
    induced = InducedEnsemble(UniformEnsemble(BINARY), example41_image_member)
    word = Word.of_text(Alphabet(("1", "0")), "1")
    for weigh in (table.mass, induced.mass, table.mu_star, UniformEnsemble(BINARY).mu_star,
                  nu.mu_star):
        with pytest.raises(AlphabetMismatchError, match="^word is over a different alphabet$"):
            weigh(word)


@pytest.mark.parametrize("n_max", [-1, True, 1.0, "1"])
def test_table_n_max_must_be_a_nonnegative_int(n_max):
    """A negative n_max would define the table nowhere, and True would
    read as 1 and be written back as true."""
    with pytest.raises(ValueError, match=f"^n_max {re.escape(repr(n_max))} is not a nonnegative"):
        TableEnsemble(BINARY, {"0": "1/2", "1": "1/2"}, n_max=n_max)
    assert TableEnsemble(BINARY, {"0": "1/2", "1": "1/2"}, n_max=0).spec()["n_max"] == 0


@pytest.mark.parametrize("mass", [True, False])
def test_table_mass_must_not_be_a_bool(mass):
    """JSON's true and false are no masses, though ``Fraction`` reads
    them as 1 and 0: a table of them would be valid, of density 1."""
    with pytest.raises(ValueError, match=f"^mass {mass!r} for '0' is not a finite rational$"):
        TableEnsemble(BINARY, {"0": mass, "1": not mass})


def test_validate_catches_a_sphere_short_by_two_to_the_minus_40():
    short = Fraction(1, 8) - Fraction(1, 2**40)
    entries = {"0": Fraction(1, 2), "1": Fraction(1, 2),
               "000": Fraction(1, 2), "001": Fraction(1, 4), "010": Fraction(1, 8),
               "011": short}
    entries.update({w: Fraction(1, 4) for w in ("00", "01", "10", "11")})
    TableEnsemble(BINARY, entries, n_max=2).validate()  # the longer entries are not read
    table = TableEnsemble(BINARY, entries, n_max=3)
    assert table.sphere_sum(3) == 1 - Fraction(1, 2**40)
    with pytest.raises(ValueError, match=r"sphere 3 sums to 1099511627775/1099511627776"):
        table.validate()
    entries["011"] = Fraction(1, 8)
    TableEnsemble(BINARY, entries, n_max=3).validate()


def test_transferred_mass_inverts_each_length_once():
    """After one pass over its spheres, a transferred ensemble answers
    every mass from its cache: no more size-growth calls, the filler on
    lengths no source sphere reaches and the image mass elsewhere."""
    abc = Alphabet(("a", "b", "c"))
    f, _ = to_binary(DistributionalProblem("abc", lambda x: True, UniformEnsemble(abc)))
    calls = []

    def growth(k: int) -> int:
        calls.append(k)
        return f.size_growth(k)

    counted = TransferredEnsemble(
        Reduction(f.name, f.source, f.target, f.func, growth), UniformEnsemble(abc))
    first = {y: counted.mass(y) for m in range(11) for y in BINARY.sphere(m)}
    before = len(calls)
    assert {y: counted.mass(y) for y in first} == first
    assert len(calls) == before
    reached = {f.size_growth(k) for k in range(11)}
    for y, q in first.items():
        if len(y) in reached:
            k = size_inverse(f.size_growth, len(y))
            assert q == (Fraction(1, 3**k) if rank_in_sphere(y) <= 3**k else 0), y
        else:
            assert q == Fraction(1, 2 ** len(y)), y


@pytest.mark.parametrize("scale", [0, 5000])
def test_check_lower_bounds_returns_the_exact_minimum_ratio(scale):
    """The minimum of got * divisor / mass over random points, exact,
    with divisors scaled by 2^scale (as the universal stage's carry
    2^|machine code|), odd and even numerators, zero masses (skipped) and
    a zero got (the minimum then); the violations are the points with
    got * divisor < mass.  A stream of runs that share one (got, mass)
    pair and divisor, as the words of a uniform sphere do, reports every
    witness of a failing run, in order, and the minimum of the same
    points rebuilt as fresh Fractions."""
    rng = random.Random(scale + 1)
    points = []
    for i in range(300):
        got = Fraction(rng.randrange(1, 60), rng.randrange(1, 60) << scale + rng.randrange(40))
        mass = Fraction(rng.randrange(60) | rng.randrange(2),
                        rng.randrange(1, 60) << rng.randrange(40))
        points.append((i, got, mass, rng.randrange(1, 60) << scale))
    ratios = [got * divisor / mass for _, got, mass, divisor in points if mass]
    for point, ratio in zip((p for p in points if p[2]), ratios):
        assert check_lower_bounds(CheckReport("lower-bounds", 0), [point]) == ratio
    report = CheckReport("lower-bounds", 0)
    assert check_lower_bounds(report, iter(points)) == min(ratios)
    assert [v.witness for v in report.violations] == [
        str(i) for i, got, mass, divisor in points if got * divisor < mass]
    # runs of 1-4 points on one shared pair, some after a fresh copy of
    # the pair (equal, not identical), with a zero mass and a zero got
    stream = []
    for i, (_, got, mass, divisor) in enumerate(
            points[:60] + [(0, ZERO, ZERO, 1), (0, ZERO, ONE, 1)]):
        if i % 3 == 0:
            stream.append((f"{i}.fresh", Fraction(got), Fraction(mass), divisor))
        stream += [(f"{i}.{j}", got, mass, divisor) for j in range(rng.randrange(1, 5))]
    fresh = [(w, Fraction(got), Fraction(mass), divisor) for w, got, mass, divisor in stream]
    assert not any(a[1] is b[1] or a[2] is b[2] for a, b in zip(stream, fresh))
    shared_report, fresh_report = CheckReport("lower-bounds", 0), CheckReport("lower-bounds", 0)
    minimum = check_lower_bounds(shared_report, iter(stream))
    assert minimum == check_lower_bounds(fresh_report, iter(fresh)) == 0
    assert shared_report.violations == fresh_report.violations
    failing_runs = {w.split(".")[0] for w, got, mass, divisor in stream
                    if w.endswith(".1") and got * divisor < mass}
    passing_runs = {w.split(".")[0] for w, got, mass, divisor in stream
                    if w.endswith(".1") and got * divisor >= mass}
    assert failing_runs and passing_runs
    points.insert(150, (-1, Fraction(0), Fraction(3, 1 << scale), 1))
    assert check_lower_bounds(CheckReport("lower-bounds", 0), iter(points)) == 0
    assert check_lower_bounds(CheckReport("lower-bounds", 0),
                              [(0, Fraction(1), Fraction(0), 1)]) is None


def test_check_lower_bounds_renews_the_verdict_when_the_divisor_changes():
    """Points that share their got and mass objects but not their divisor
    are separate runs: each divisor gets its own verdict and ratio."""
    got, mass = Fraction(1, 4), Fraction(1, 2)
    points = [("a", got, mass, 2), ("b", got, mass, 1), ("c", got, mass, 1),
              ("d", got, mass, 4), ("e", got, mass, 1)]
    report = CheckReport("lower-bounds", 0)
    assert check_lower_bounds(report, iter(points)) == Fraction(1, 2)
    assert [(v.witness, v.expected, v.actual) for v in report.violations] == [
        (w, ">= 1/2", "1/4") for w in "bce"]
    report = CheckReport("lower-bounds", 0)
    assert check_lower_bounds(report, iter(points[1:4])) == Fraction(1, 2)
    assert [v.witness for v in report.violations] == ["b", "c"]


def test_check_lower_bounds_matches_the_fraction_oracle():
    """The violations and the minimum ratio equal the oracle's, which
    forms the bound mass / divisor and compares and divides ``Fraction``s
    at every point, where got equals the bound (no violation), where the
    mass is 0 (no ratio, and no violation) and where got is 0 (ratio 0,
    a violation unless the mass is 0 too), among short and long, dyadic
    and other values and divisors, on single points and on one stream
    with runs that share their objects."""
    rng = random.Random(35)
    values = [ZERO, Fraction(0), ONE, Fraction(1, 3), Fraction(2, 6), Fraction(1, 1 << 40),
              Fraction(3, 1 << 3000), Fraction(3 << 2, 1 << 3002), Fraction(7, 5)]
    values += [Fraction(rng.randrange(1, 90), rng.randrange(1, 90) << rng.randrange(60))
               for _ in range(8)]
    points = [(f"{i}.{j}.{divisor}", got, mass, divisor) for i, got in enumerate(values)
              for j, mass in enumerate(values) for divisor in (1, 3, 4 << 3000)]
    kinds = set()
    for point in points:
        report, oracle = CheckReport("lower-bounds", 0), CheckReport("lower-bounds", 0)
        ratio = check_lower_bounds(report, [point])
        assert ratio == oracles.check_lower_bounds(oracle, [point]), point
        assert report.violations == oracle.violations, point
        _, got, mass, divisor = point
        kinds.add((got * divisor == mass, got == 0, mass == 0, ratio is None, report.passed))
    assert {(True, False, False, False, True), (True, True, True, True, True),
            (False, True, False, False, False), (False, False, True, True, True)} <= kinds
    stream = [point for point in points for _ in range(rng.randrange(1, 4))]
    rng.shuffle(points)
    for sequence in (stream, points, [p for p in points if p[2] == 0]):
        report, oracle = CheckReport("lower-bounds", 0), CheckReport("lower-bounds", 0)
        assert check_lower_bounds(report, iter(sequence)) == oracles.check_lower_bounds(
            oracle, iter(sequence))
        assert report.violations == oracle.violations


_HUGE = 4 << 3000  # one shared divisor object of 3,003 bits, as the universal stage's


@st.composite
def _mixed_streams(draw):
    """A stream of (got, mass, divisor) triples in runs of 1-4, drawn from
    a few values (equal values among them, and ``ZERO``): each triple's
    got and mass are the shared value object or a fresh equal copy, and
    its divisor one of a few ints."""
    fractions = st.fractions(min_value=0, max_value=4, max_denominator=1 << 70)
    values = draw(st.lists(fractions, min_size=1, max_size=5)) + [ZERO]
    pick = st.tuples(st.integers(0, len(values) - 1), st.booleans())  # (value, fresh copy?)
    runs = draw(st.lists(st.tuples(pick, pick, st.sampled_from((1, 3, _HUGE)),
                                   st.integers(1, 4)), max_size=30))
    stream = []
    for (got, fresh_got), (mass, fresh_mass), divisor, length in runs:
        for _ in range(length):
            stream.append((Fraction(values[got]) if fresh_got else values[got],
                           Fraction(values[mass]) if fresh_mass else values[mass], divisor))
    return stream


def _noted(report, points):
    """The points in order, adding a note of the caller's own before
    every third one, as ``verify_cm`` adds its size notes."""
    for i, point in enumerate(points):
        if i % 3 == 0:
            report.add(f"note {i}", "-", "-", "added between points")
        yield point


@settings(max_examples=150, deadline=None)
@given(_mixed_streams(), st.booleans())
def test_runs_of_equal_values_match_the_fraction_oracles(stream, noted):
    """On streams mixing shared objects, equal but distinct objects and
    distinct values, ``check_lower_bounds`` gives the oracle's violations
    (witness order and strings) and minimum ratio, also when the caller's
    generator adds violations of its own between points, and ``exact_sum``
    of the gots and of the masses is the ``Fraction``-by-``Fraction`` sum."""
    points = [(f"{i}", got, mass, divisor) for i, (got, mass, divisor) in enumerate(stream)]

    def feed(report):
        return _noted(report, points) if noted else iter(points)

    report, oracle = CheckReport("lower-bounds", 0), CheckReport("lower-bounds", 0)
    assert check_lower_bounds(report, feed(report)) == oracles.check_lower_bounds(
        oracle, feed(oracle))
    assert report.violations == oracle.violations
    for terms in ([got for got, _, _ in stream], [mass for _, mass, _ in stream]):
        assert exact_sum(iter(terms)) == fraction_sum(terms)


def test_transferred_ensemble_stops_at_its_horizon():
    """The transfer of an "abc" table defined up to n_max 1 along the
    rank-to-binary map is defined up to the image size 2: past it, a
    length no source sphere reaches (3) and an image length (4) raise
    the transferred ensemble's own ``HorizonError`` at every call, as
    ``subset_mass`` does, rather than the uniform filler or the table's
    error."""
    table = {"kind": "table", "alphabet": "abc",
             "entries": {"a": "1/3", "b": "1/3", "c": "1/3"}, "n_max": 1}
    mu = ensemble_from_spec({"kind": "transferred", "base": table,
                             "reduction": {"kind": "bin_alph", "sigma": "abc"}})
    assert mu.horizon == 2
    assert mu.mass(BINARY.word("1")) == Fraction(1, 2) and mu.sphere_sum(2) == 1
    message = "^transferred ensemble is only defined up to n=2$"
    for m in (3, 4, 3, 4):
        with pytest.raises(HorizonError, match=message):
            mu.mass(BINARY.word("0" * m))
        with pytest.raises(HorizonError, match=message):
            subset_mass(mu, m, lambda y: True)


@pytest.mark.parametrize("base", ["nu", "uniform", "worked_table", "geometric_table"])
def test_shared_quotients_match_per_word_division(base, request):
    """``InducedEnsemble.mass`` and the ``verify_induced`` and
    ``verify_cm`` reports at n <= 10 equal the oracles that divide and
    compare afresh at every word, whether the base shares its masses (ν
    per class, uniform per sphere) or not (tables, whose equal entries
    are separate objects), on passing and failing candidates."""
    mu, n_max = request.getfixturevalue(base), 10
    subsets = [subset_from_spec({"name": "cg", "g": g}, mu)[::2] for g in ("n+1", "n+2")]
    subsets.append((lambda x: x.letters[-1:] == ("1",) and len(x) % 3 != 2, None))
    verdicts = []
    for subset, closed in subsets:
        mu_s = InducedEnsemble(mu, subset, closed=closed)
        for n in range(n_max + 1):
            assert [mu_s.mass(x) for x in BINARY.sphere(n)] == oracles.induced_masses(mu_s, n)
        for candidate in [mu_s, UniformEnsemble(BINARY)] + [
                InducedEnsemble(mu, *other) for other in subsets if other[0] is not subset]:
            report = verify_induced(mu, subset, candidate, n_max)
            assert report.to_dict() == oracles.verify_induced(
                mu, subset, candidate, n_max).to_dict()
            verdicts.append(report.passed)
    assert verdicts[0] and not all(verdicts)
    f, verdicts = identity_reduction(BINARY), []
    for nu in (mu, UniformEnsemble(BINARY), request.getfixturevalue("nu")):
        for d in map(parse_polynomial, ("1", "2n+1")):
            report = verify_cm(f, mu, nu, d, n_max)
            assert report.to_dict() == oracles.verify_cm(f, mu, nu, d, n_max).to_dict()
            verdicts.append(report.passed)
    assert verdicts[0] and not all(verdicts)


def counting_quotient():
    """A ``per_run`` divider over a division that logs each call."""
    calls = []

    def divide(a, b):
        calls.append((a, b))
        return a / b

    return per_run(divide), calls


def test_per_run_divides_once_per_run(uniform):
    """Over uniform spheres, whose words share one mass object, and one
    divisor object per sphere, each sphere is one run: one division, and
    every word gets that division's result object."""
    quotient, calls = counting_quotient()
    for n in range(1, 7):
        divisor = Fraction(2 * n + 1)
        results = [quotient(uniform.mass(x), divisor) for x in BINARY.sphere(n)]
        assert results[0] == Fraction(1, 2**n) / divisor
        assert all(q is results[0] for q in results)
    assert len(calls) == 6


def test_per_run_renews_when_either_argument_changes():
    quotient, calls = counting_quotient()
    a, b, c = Fraction(1, 3), Fraction(5), Fraction(7)
    assert [quotient(a, b), quotient(a, b), quotient(a, c), quotient(b, c), quotient(b, c),
            quotient(b, b)] == [a / b, a / b, a / c, b / c, b / c, ONE]
    assert calls == [(a, b), (a, c), (b, c), (b, b)]


def test_per_run_gives_equal_arguments_an_equal_result():
    """Arguments equal to the last ones but other objects are a new run:
    the division is made again, with an equal result."""
    quotient, calls = counting_quotient()
    first = quotient(Fraction(1, 3), Fraction(5))
    again = quotient(Fraction(1, 3), Fraction(5))
    assert again == first == Fraction(1, 15) and len(calls) == 2
