import random
from fractions import Fraction

import pytest

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
    verify_induced,
    verify_transfer,
)
from gclab.measure import (
    CheckReport,
    HorizonError,
    SizeInvarianceError,
    TransferredEnsemble,
    block_mass,
    check_lower_bounds,
    exact_sum,
    size_inverse,
)
from gclab.reductions import DistributionalProblem, Reduction, example41_image_member, to_binary
from gclab.words import Alphabet, AlphabetMismatchError, rank_in_sphere
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
            assert mu.interval(x) == (mu.mu_star(x), mu.hat_mu(x))


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
    problem = DistributionalProblem("unary", unary, lambda x: True, mu)
    f, image = to_binary(problem)
    nu = image.measure
    for n in range(7):
        for y in BINARY.sphere(n):
            expected = 1 if y.text() == "0" * n else 0
            assert nu.mass(y) == expected


def test_transfer_filler_on_unachieved_spheres():
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", abc, lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    # sizes achieved by the map: 0, 2, 4, 5, 7, 8...; radius 3 is filler
    assert f.size_growth(1) == 2 and f.size_growth(2) == 4
    assert image.measure.mass(BINARY.word("101")) == Fraction(1, 8)


def test_transfer_injective_uniform():
    abc = Alphabet(("a", "b", "c", "d"))
    problem = DistributionalProblem("abcd", abc, lambda x: True, UniformEnsemble(abc))
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
    problem = DistributionalProblem("abc", abc, lambda x: True, UniformEnsemble(abc))
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
        problem = DistributionalProblem("s", sigma, lambda x: True, UniformEnsemble(sigma))
        sizes.append(to_binary(problem)[0].size_growth)
    guards = [
        as_guard(Polynomial((1, 2))),
        as_guard(Polynomial((6, 1))),
        as_guard(Polynomial((1, 0, 1))),
        adequate_guard(Polynomial((6, 1))),
        adequate_guard(Polynomial((6, 1)), Polynomial((1, 1))),
        adequate_guard(Polynomial((1, 0, 1)), Polynomial((0, 3))),
        adequate_guard(lambda n: 2 * n + 8, extra_payload=200),
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


def test_exact_sum_matches_fraction_sum():
    """Per-denominator integer sums equal Fraction-by-Fraction sums, on
    empty, all-zero, negative, mixed and very large denominators."""
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
    for terms in cases:
        got = exact_sum(terms)
        assert isinstance(got, Fraction)
        assert got == fraction_sum(terms), terms[:5]
        assert exact_sum(iter(terms)) == got  # a one-pass iterator will do


def test_sphere_sums_match_fraction_sums(uniform, nu, geometric_table, skewed_table):
    """Every ensemble kind's sphere sums equal the Fraction-by-Fraction
    sums, the transferred and induced ones included."""
    abc = Alphabet(("a", "b", "c"))
    _, image = to_binary(DistributionalProblem("abc", abc, lambda x: True,
                                               UniformEnsemble(abc)))
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


def test_validate_catches_a_sphere_short_by_two_to_the_minus_40():
    short = Fraction(1, 8) - Fraction(1, 2**40)
    entries = {"0": Fraction(1, 2), "1": Fraction(1, 2),
               "000": Fraction(1, 2), "001": Fraction(1, 4), "010": Fraction(1, 8),
               "011": short}
    entries.update({w: Fraction(1, 4) for w in ("00", "01", "10", "11")})
    table = TableEnsemble(BINARY, entries, n_max=3)
    table.validate(2)
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
    f, _ = to_binary(DistributionalProblem("abc", abc, lambda x: True,
                                           UniformEnsemble(abc)))
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
    """The minimum of got/bound over random points, exact, with bounds
    scaled by 2^-scale (as the universal stage's carry 2^-|machine code|),
    odd and even numerators, zero bounds (skipped) and a zero got (the
    minimum then); the violations are the points with got < bound."""
    rng = random.Random(scale + 1)
    points = []
    for i in range(300):
        got = Fraction(rng.randrange(1, 60), rng.randrange(1, 60) << scale + rng.randrange(40))
        bound = Fraction(rng.randrange(60) | rng.randrange(2),
                         rng.randrange(1, 60) << scale + rng.randrange(40))
        points.append((i, got, bound))
    ratios = [got / bound for _, got, bound in points if bound]
    for point, ratio in zip((p for p in points if p[2]), ratios):
        assert check_lower_bounds(CheckReport("lower-bounds", 0), [point]) == ratio
    report = CheckReport("lower-bounds", 0)
    assert check_lower_bounds(report, iter(points)) == min(ratios)
    assert [v.witness for v in report.violations] == [
        str(i) for i, got, bound in points if got < bound]
    points.insert(150, (-1, Fraction(0), Fraction(3, 1 << scale)))
    assert check_lower_bounds(CheckReport("lower-bounds", 0), iter(points)) == 0
    assert check_lower_bounds(CheckReport("lower-bounds", 0), [(0, Fraction(1), Fraction(0))]) is None
