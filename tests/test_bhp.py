import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import gclab.bhp
from gclab import (
    BINARY,
    Polynomial,
    SphereRangeError,
    TableEnsemble,
    bh_member,
    c_of_g,
    completeness_pipeline,
    encode_instance,
    invert_mu_star,
    machine_code,
    numeral,
    nu_g,
    red2bh,
    red2bhu,
    universal_machine,
    verify_measure_decrease,
    verify_red2bhu_measure,
    verify_red2bhu_membership,
    x_double_prime,
    x_prime,
)
from gclab.bhp import (
    GuardError,
    LongevityGuard,
    BHStage,
    NU,
    _machine_at,
    _payload,
    _read_field,
    _relaxation_points,
    adequate_guard,
    as_guard,
    guard_inverse,
    machine_index,
    red2bh_map,
    scan_numeral,
    verify_membership,
    xprime_value,
)
from gclab.cli import main
from gclab.genericity import parse_polynomial
from gclab.machine import halts_within, load_machine, min_halting_steps
from gclab.measure import CheckReport, check_lower_bounds, ensemble_from_spec, verify_induced
from gclab.reductions import DistributionalProblem
from gclab.words import Alphabet, AlphabetMismatchError
from oracles import (
    c_of_g_member,
    nu_mass_text,
    scan_numeral as scan_numeral_per_bit,
    universal_by_fields,
    x_prime_scan,
)


@pytest.fixture(scope="module")
def mu2():
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


# --- codec -------------------------------------------------------------------


def test_encode_instance_examples():
    assert encode_instance(5, BINARY.word("01")).text() == "11001"
    assert encode_instance(1, BINARY.empty).text() == "0"
    assert encode_instance(2, BINARY.word("1")).text() == "01"
    with pytest.raises(ValueError):
        encode_instance(2, BINARY.word("01"))


def test_payload_examples():
    assert _payload("11001") == "01"
    assert _payload("0") == ""
    assert _payload("111") is None  # all ones: not a code
    assert _payload("") is None


def test_codec_roundtrip():
    for n in range(13):
        for u in BINARY.sphere(n):
            if "0" not in u.text():
                continue
            assert encode_instance(n, BINARY.word(_payload(u.text()))) == u


def test_nu_mass_examples():
    assert NU.mass(BINARY.word("110")) == Fraction(1, 3)
    assert NU.mass(BINARY.empty) == 1
    assert NU.mass(BINARY.word("1111")) == 0


def test_nu_mass_matches_text_oracle():
    """ν's mass read off the held form equals the mass read off the text
    on every word up to length 12 and on the universal stage's images of
    every word up to length 6 (codes of about 3,700 bits), which stay
    text: weighing them derives no letter tuple."""
    for n in range(13):
        for x in BINARY.sphere(n):
            assert NU.mass(x) == nu_mass_text(x), x.text()
    data = Path(__file__).parent / "data"
    bundle = json.loads((data / "universal_bundle.json").read_text())
    machine = load_machine(str(data / bundle["machine"]))
    stage = red2bhu(machine, parse_polynomial(bundle["guard"]))
    images = [stage.reduction.apply(x) for n in range(7) for x in BINARY.sphere(n)]
    assert len({len(y) for y in images}) == 7
    for y in images:
        assert NU.mass(y) == nu_mass_text(y) > 0, y.text()
        assert y._letters is None


def test_nu_sphere_sums_to_16():
    for n in range(17):
        assert NU.sphere_sum(n) == 1


CLASS_GUARDS = (
    as_guard(Polynomial((1, 1))),
    as_guard(Polynomial((1, 2))),
    LongevityGuard(lambda n: n * n + 1, form="n^2+1"),
    adequate_guard(Polynomial((6, 1)), lambda n: n + 1),
)


def test_nu_and_restricted_masses_are_constant_on_classes():
    """The classes of each sphere up to 12 tile it in lex order, and both
    NU and every restricted ensemble are constant on each class."""
    restricted = [nu_g(g) for g in CLASS_GUARDS]
    for n in range(13):
        words = []
        for prefix, k in NU.classes(n):
            block = [BINARY.word(prefix + w.text()) for w in BINARY.sphere(k)]
            words += block
            for ensemble in (NU, *restricted):
                assert len({ensemble.mass(y) for y in block}) == 1, (n, prefix)
        assert words == list(BINARY.sphere(n))
    with pytest.raises(SphereRangeError):
        list(NU.classes(-1))


def test_failing_class_reports_each_word():
    """Per-class relaxation points give the per-word check's violations,
    in order, and its minimum ratio, whether classes pass or fail."""
    failed = 0
    for guard in CLASS_GUARDS[:2]:
        restricted = nu_g(guard)
        for m in range(11):
            for d in (Fraction(m + 1), Fraction(1, 2)):
                per_word, per_class = CheckReport("w", m), CheckReport("c", m)
                want = check_lower_bounds(per_word, (
                    (y, NU.mass(y), restricted.mass(y) / d) for y in BINARY.sphere(m)))
                got = check_lower_bounds(per_class, _relaxation_points(restricted, m, d))
                assert (got, per_class.violations) == (want, per_word.violations)
                failed += len(per_word.violations)
    assert failed > 0


def test_nu_keeps_no_sphere_tables(capsys):
    """Neither the pipeline nor the sphere sums build a sphere table."""
    data = Path(__file__).parent / "data"
    NU._tables.clear()
    assert main(["reduce", "pipeline", str(data / "toy_bundle.json"), "--n-max", "4"]) == 0
    assert main(["verify", "nu-sums", "--n-max", "12"]) == 0
    capsys.readouterr()
    assert NU._tables == {}


def test_bh_member(halt1, loop, find_zero):
    assert bh_member(halt1, BINARY.word("110"))  # budget 3, halts in 1
    assert not bh_member(loop, BINARY.word("110"))
    assert not bh_member(halt1, BINARY.word("11"))  # not a code
    # find-zero halts on payloads containing a zero
    assert bh_member(find_zero, BINARY.word("1100"))
    assert not bh_member(find_zero, BINARY.word("1101"))
    # a word over another alphabet has its payload checked as binary
    assert bh_member(find_zero, Alphabet(("1", "0")).word("1100"))
    with pytest.raises(AlphabetMismatchError):
        bh_member(halt1, Alphabet(("0", "1", "2")).word("102"))


# --- guards and the restricted family ----------------------------------------


def test_guard_invariants():
    with pytest.raises(GuardError):
        LongevityGuard(lambda n: n - 1 if n else 0)
    with pytest.raises(GuardError):
        LongevityGuard(lambda n: 5)  # not strictly increasing
    with pytest.raises(GuardError):
        LongevityGuard(lambda n: n)  # g(0) = 0 leaves no room for codes
    guard = as_guard(Polynomial((1, 2)))
    assert guard(3) == 7


def test_guard_inverse():
    g = Polynomial((1, 2))
    assert guard_inverse(g, 3) == 1
    assert guard_inverse(g, 4) is None
    assert guard_inverse(g, 1) == 0


def test_c_of_g_membership():
    member = c_of_g(Polynomial((1, 2)))  # 2n+1
    assert not member(BINARY.word("110"))  # payload empty, guard(0)=1 != 3
    assert member(BINARY.word("100"))  # payload "0", guard(1)=3=|u|
    assert not member(BINARY.word("11"))
    assert member(BINARY.word("0"))  # payload empty, guard(0)=1=|u|


def test_c_of_g_reads_lengths_like_the_decoding_oracle():
    """The length-only member agrees with decoding the whole code, on
    every binary word up to 12, built from its letters and from its
    text."""
    guards = [as_guard(Polynomial((1, 1))), as_guard(Polynomial((1, 2))),
              as_guard(Polynomial((1, 0, 1))),
              adequate_guard(Polynomial((6, 1)), lambda n: n + 1)]
    for guard in guards:
        member = c_of_g(guard)
        for n in range(13):
            for u in BINARY.sphere(n):
                expected = c_of_g_member(guard, u)
                assert member(u) == expected, (guard.form, u.text())
                assert member(BINARY.word(u.text())) == expected


def test_c_of_g_on_other_alphabets_fails_like_the_decoding_oracle():
    """A payload that is not binary raises as decoding it did; other
    words of a non-binary alphabet get the oracle's answer."""
    guard = as_guard(Polynomial((1, 2)))
    member = c_of_g(guard)
    for alphabet in (Alphabet(("0", "1", "2")), Alphabet(("1", "0")),
                     Alphabet(("a", "b")), Alphabet(("0", "10"))):
        for n in range(5):
            for u in alphabet.sphere(n):
                try:
                    expected = c_of_g_member(guard, u)
                except AlphabetMismatchError:
                    with pytest.raises(AlphabetMismatchError):
                        member(u)
                else:
                    assert member(u) == expected, u.letters


def test_nu_g_closed_form_matches_enumeration():
    for coeffs in ((1, 1), (1, 2)):  # n+1 and 2n+1
        g = Polynomial(coeffs)
        conditioned = nu_g(g)
        report = verify_induced(NU, c_of_g(g), conditioned, 12)
        assert report.passed, report.violations[:3]


def test_nu_g_fallback_on_unachieved_spheres():
    conditioned = nu_g(Polynomial((1, 2)))
    # sphere 4 is not a guard value: the measure falls back untouched
    for u in BINARY.sphere(4):
        assert conditioned.mass(u) == NU.mass(u)
    assert conditioned.mass(BINARY.empty) == 1


# --- numerals -----------------------------------------------------------------


def test_numeral_examples():
    assert numeral(5).text() == "111011"
    assert numeral(1).text() == "11"
    assert numeral(0).text() == "10"
    assert scan_numeral("1011", 0) is None  # nonzero numeral with leading 0


def test_numeral_roundtrip():
    for n in range(200):
        text = numeral(n).text()
        assert scan_numeral(text, 0) == (n, len(text))


def test_numeral_rejects_malformed():
    for bad in ("", "1", "011", "111"):
        assert scan_numeral(bad, 0) is None


def _scan_outcome(scan, text, start):
    try:
        return scan(text, start)
    except Exception as exc:  # the oracle's exception type must match too
        return type(exc)


def test_scan_numeral_matches_per_bit_oracle(uniform, find_zero):
    rng = random.Random(20)
    texts = ["".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
             for _ in range(400)]
    texts += [numeral(n).text() for n in range(300)]
    texts += [numeral(n).text() + "0" + rest for n in (0, 1, 5, 1000)
              for rest in ("", "0", "1", "10", "0110")]
    # the payloads the field reader sees: red2bh images, and one universal
    # image (its machine code is a numeral of some 3,000 bits)
    guard = adequate_guard(Polynomial((6, 1)), lambda n: n + 1)
    f = red2bh_map(uniform, guard)
    code_len = len(machine_code(find_zero).text())
    stage = red2bhu(find_zero, LongevityGuard(lambda n: n + code_len + 40, form="n+L+40"))
    images = [f.apply(x) for n in range(5) for x in BINARY.sphere(n)]
    for image in images + [stage.reduction.apply(BINARY.word("1"))]:
        payload = _payload(image.text())
        texts += [payload, _read_field(payload)[1]]
    # a lone trailing marker, "10" followed by more marker pairs
    texts += ["1", "111", "0111", "11111", "1011", "101110", "10" + "11" * 5, "1010"]
    # text that is not binary
    texts += ["12", "1a10", "1 1", "11 1", "1_10", "111_10", "1-1", "1\u0661", "2", "x1"]
    for text in texts:
        for start in range(len(text) + 3):
            assert _scan_outcome(scan_numeral, text, start) == _scan_outcome(
                scan_numeral_per_bit, text, start), (text, start)


# --- dyadic compression -------------------------------------------------------


def test_xprime_value():
    assert xprime_value("0") == Fraction(1, 2)
    assert xprime_value("01") == Fraction(3, 4)
    assert xprime_value("11") == Fraction(7, 4)


def test_x_prime_worked_examples(mu2):
    for text, expected in (("00", "0"), ("01", "01")):
        x = BINARY.word(text)
        assert x_prime(mu2, x).text() == expected
        assert x_prime(mu2, x) == x_prime_scan(*mu2.interval(x), len(x))


def test_x_prime_requires_positive_mass(geometric_table):
    # the lexicographically last words of the geometric table carry no mass
    with pytest.raises(ValueError):
        x_prime(geometric_table, BINARY.word("111"))


def test_x_prime_dual_implementations_agree(mu2, nu, geometric_table, skewed_table):
    for ensemble, top in ((mu2, 2), (nu, 10), (geometric_table, 10),
                          (skewed_table, 10)):
        for n in range(1, top + 1):
            threshold = Fraction(1, 2**n)
            for x in BINARY.sphere(n):
                if ensemble.mass(x) > threshold:
                    assert x_prime(ensemble, x) == x_prime_scan(
                        *ensemble.interval(x), len(x)
                    )


def test_x_prime_length_and_mass_bounds(mu2, nu, geometric_table, skewed_table):
    for ensemble, top in ((mu2, 2), (nu, 10), (geometric_table, 10),
                          (skewed_table, 10)):
        for n in range(1, top + 1):
            threshold = Fraction(1, 2**n)
            for x in BINARY.sphere(n):
                if ensemble.mass(x) > threshold:
                    prime = x_prime(ensemble, x)
                    assert len(prime) <= n
                    assert ensemble.mass(x) <= 2 * Fraction(1, 2 ** len(prime))


def test_x_double_prime(uniform, mu2):
    assert x_double_prime(uniform, BINARY.word("01")).text() == "001"
    assert x_double_prime(mu2, BINARY.word("00")).text() == "10"
    # bound: mass <= 4 * 2^-|x''|
    assert Fraction(1, 2) <= 4 * Fraction(1, 4)


def test_x_double_prime_bounds_everywhere(uniform, nu, geometric_table, worked_table,
                                          skewed_table):
    for ensemble in (uniform, nu, geometric_table, worked_table, skewed_table):
        for n in range(11):
            for x in BINARY.sphere(n):
                double = x_double_prime(ensemble, x)
                assert len(double) <= n + 1
                assert ensemble.mass(x) <= 4 * Fraction(1, 2 ** len(double))


def test_invert_mu_star(mu2, uniform):
    assert invert_mu_star(mu2, 2, Fraction(1, 2)).text() == "00"
    assert invert_mu_star(mu2, 2, Fraction(3, 4)).text() == "01"
    assert invert_mu_star(mu2, 2, Fraction(1)).text() == "11"
    assert invert_mu_star(uniform, 3, Fraction(1, 8)).text() == "000"
    with pytest.raises(ValueError):
        invert_mu_star(mu2, 2, Fraction(0))


def test_invert_mu_star_partitions(nu, geometric_table):
    for ensemble in (nu, geometric_table):
        for n in range(1, 7):
            for x in BINARY.sphere(n):
                lo, hi = ensemble.interval(x)
                if lo < hi:
                    assert invert_mu_star(ensemble, n, hi) == x


# --- reduction to bounded halting --------------------------------------------


def _membership(problem, stage, n_max):
    """The membership report of a stage, its triples drained unread."""
    report = CheckReport("membership-preservation", n_max)
    for _ in verify_membership(problem.positive, stage, problem.alphabet.ball(n_max), report):
        pass
    return report


def _map_measure(mu, guard, n_max):
    """The measure check on the pairs of the bare map (no receiving
    machine), as ``verify bh-measure`` runs it."""
    f = red2bh_map(mu, guard)
    pairs = ((x, f.apply(x)) for x in mu.alphabet.ball(n_max))
    return verify_measure_decrease(BHStage(f, None, guard, mu), pairs, n_max)


def test_red2bh_membership_uniform(contains01_problem, contains01_ntm):
    """Membership holds both ways, and each triple carries the stage
    machine's own verdict on its image."""
    stage = red2bh(contains01_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), lambda n: n + 1)
    report = CheckReport("membership-preservation", 5)
    for x, y, verdict in verify_membership(contains01_problem.positive, stage,
                                           BINARY.ball(5), report):
        assert y == stage.reduction.apply(x)
        assert verdict == bh_member(stage.machine, y)
    assert report.passed, report.violations[:5]


def test_red2bh_refuses_a_non_binary_decider(contains01_problem):
    """A decider over {a, b} cannot read the protocol machine's binary
    candidates, so no stage is built around it."""
    with pytest.raises(ValueError, match="cannot read binary inputs"):
        red2bh(contains01_problem, load_machine(AB_TABLE), Polynomial((6, 1)), lambda n: n + 1)


def test_red2bhu_refuses_a_non_binary_machine():
    with pytest.raises(ValueError, match="cannot read binary inputs"):
        red2bhu(load_machine(AB_TABLE), Polynomial((6, 1)))


def test_red2bh_membership_table(contains01_table_problem, contains01_ntm):
    stage = red2bh(contains01_table_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), lambda n: n + 1)
    report = _membership(contains01_table_problem, stage, 5)
    assert report.passed, report.violations[:5]


def test_red2bh_image_length_is_guard(contains01_problem, contains01_ntm):
    stage = red2bh(contains01_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), lambda n: n + 1)
    for n in range(6):
        for x in BINARY.sphere(n):
            assert len(stage.reduction.apply(x)) == stage.guard(n)


def test_red2bh_uniform_takes_verbatim_branch(contains01_problem, contains01_ntm):
    stage = red2bh(contains01_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), lambda n: n + 1)
    for x in BINARY.sphere(3):
        image = stage.reduction.apply(x).text()
        # payload ends with 0x: the verbatim branch ships the input
        assert image.endswith("0" + "0" + x.text())


def test_measure_decrease_uniform_and_table(uniform, geometric_table):
    guard = adequate_guard(Polynomial((6, 1, 1)), lambda n: n + 1)
    for mu in (uniform, geometric_table):
        report = _map_measure(mu, guard, 8)
        assert report.passed, report.violations[:5]


def test_measure_decrease_table_exercises_both_branches(geometric_table):
    guard = adequate_guard(Polynomial((6, 1, 1)), lambda n: n + 1)
    threshold = {n: Fraction(1, 2**n) for n in range(1, 9)}
    branches = {
        (n, geometric_table.mass(x) > threshold[n])
        for n in range(1, 9)
        for x in BINARY.sphere(n)
        if geometric_table.mass(x) > 0
    }
    assert any(flag for _, flag in branches) and any(not flag for _, flag in branches)
    report = _map_measure(geometric_table, guard, 8)
    assert not report.details["branch2_factor16_violations"]


def test_measure_decrease_catches_corruption(uniform):
    guard = adequate_guard(Polynomial((6, 1, 1)), lambda n: n + 1)

    class TinyGuard:  # deliberately too small a denominator target
        pass

    # corrupt the target by scaling: rebuild the check against a fake
    # ensemble whose masses at one image are halved
    from gclab import bhp as bhp_module

    report = _map_measure(uniform, guard, 4)
    assert report.passed
    # now shrink the guard's padding so images land on different codes:
    # use a plainly wrong inequality instead by inflating the bound
    f = bhp_module.red2bh_map(uniform, guard)
    x = BINARY.word("01")
    y = f.apply(x)
    lhs = NU.mass(y)
    n = len(x)
    bound = uniform.mass(x) / (16 * n * n * guard(n))
    assert lhs >= bound
    assert lhs < 2 * bound  # the factor is tight up to 2 here


# --- machine encodings --------------------------------------------------------


def test_machine_code_roundtrip(halt1, loop, find_zero, contains01_ntm):
    for machine in (halt1, loop, find_zero, contains01_ntm):
        code = machine_code(machine)
        rebuilt = _machine_at(scan_numeral(code.text(), 0)[0], {})
        assert rebuilt.to_canonical_dict() == machine.to_canonical_dict()


def test_machine_code_no_double_zero(halt1, find_zero):
    for machine in (halt1, find_zero):
        assert "00" not in machine_code(machine).text()


def test_machine_codes_distinct(halt1, loop, find_zero, contains01_ntm):
    codes = {machine_code(m).text() for m in (halt1, loop, find_zero, contains01_ntm)}
    assert len(codes) == 4


def test_virtual_machine_codes_via_registry(contains01_problem, contains01_ntm):
    stage = red2bh(contains01_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), lambda n: n + 1)
    vm = stage.machine
    index = scan_numeral(machine_code(vm).text(), 0)[0]
    assert _machine_at(index, {machine_index(vm): vm}) is vm
    assert _machine_at(index, {}) is None  # no registry: virtual machines cannot decode


def test_protocol_machines_over_tables_of_other_horizons_differ(contains01_problem,
                                                                contains01_ntm):
    """Two protocol machines over tables that differ only in ``n_max``
    reject different payloads, so they get different indexes."""
    entries = {"0": Fraction(1, 2), "1": Fraction(1, 2), "00": Fraction(1)}
    indexes = set()
    for n_max in (1, 2):
        problem = DistributionalProblem("contains01-table", BINARY, contains01_problem.positive,
                                        TableEnsemble(BINARY, entries, n_max=n_max))
        vm = red2bh(problem, contains01_ntm, Polynomial((6, 1, 1)), lambda n: n + 1).machine
        indexes.add(machine_index(vm))
    assert len(indexes) == 2


# --- the universal machine ----------------------------------------------------


def test_universal_plain_simulation(halt1, loop, find_zero):
    machines = [halt1, loop, find_zero]
    U = universal_machine(machines)
    for machine in machines:
        prefix = machine_code(machine).text() + "0"
        for n in range(5):
            for w in BINARY.sphere(n):
                payload = BINARY.word(prefix + w.text())
                expected = halts_within(machine, w, 64)
                assert halts_within(U, payload, 64 + len(payload)) == expected
                if expected:  # slowdown exactly 1
                    assert min_halting_steps(U, payload, 64 + len(payload)) == \
                        min_halting_steps(machine, w, 64)


def test_universal_garbage_never_halts(halt1):
    U = universal_machine([halt1])
    for text in ("", "0", "0101", "111", "1010"):
        assert not halts_within(U, BINARY.word(text), 500)


HALT1_TABLE = {
    "states": ["q0", "q1"], "initial": "q0", "final": "q1",
    "tape_alphabet": ["0", "1"], "blank": "_",
    "delta": [["q0", "0", "q1", "0", "R"], ["q0", "1", "q1", "1", "R"]],
}

#: a machine that cannot read binary inputs
AB_TABLE = {**HALT1_TABLE, "tape_alphabet": ["a", "b"],
            "delta": [["q0", "_", "q1", "a", "R"]]}


def _index_code(payload) -> str:
    """The machine-code field of a payload serialized as a machine index."""
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return numeral(int.from_bytes(blob, "big")).text()


@pytest.mark.parametrize("payload", [
    5,
    {"table": {}},
    {"table": {**HALT1_TABLE, "delta": "x"}},
    # a string table would be read by load_machine as a file path
    {"table": "tests/data/halt1.json"},
])
def test_universal_fails_closed_on_malformed_tables(halt1, payload, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    code = _index_code(payload)
    assert _machine_at(scan_numeral(code, 0)[0], {}) is None
    U = universal_machine([halt1])
    plain = code + "0" + "1"
    chained = numeral(1).text() + "0" + code + "0" + "01"
    for text in (plain, chained):
        assert not halts_within(U, BINARY.word(text), 500)


def test_machine_codes_are_utf8_json():
    """An index whose bytes are a table's JSON in UTF-16 or UTF-32 is not
    a machine code, although ``json.loads`` would read those bytes."""
    blob = json.dumps({"table": HALT1_TABLE})
    assert _machine_at(int.from_bytes(blob.encode(), "big"), {}) is not None
    for encoding in ("utf-16", "utf-32"):
        assert json.loads(blob.encode(encoding)) == {"table": HALT1_TABLE}
        assert _machine_at(int.from_bytes(blob.encode(encoding), "big"), {}) is None


def test_machine_codes_may_open_with_json_whitespace():
    """JSON text may open with whitespace before its object: such a code
    still decodes, whatever check skips indexes that cannot be JSON."""
    blob = " \n" + json.dumps({"table": HALT1_TABLE})
    machine = _machine_at(int.from_bytes(blob.encode(), "big"), {})
    assert machine is not None
    assert machine.to_canonical_dict() == load_machine(HALT1_TABLE).to_canonical_dict()
    assert _machine_at(0, {}) is None


def test_universal_never_halts_on_non_binary_tables(halt1):
    U = universal_machine([halt1])
    text = _index_code({"table": AB_TABLE}) + "0" + "1"
    assert not halts_within(U, BINARY.word(text), 500)


def _universal_runs_agree(registry, inputs, scans):
    """The universal machine and the field-by-field reference give equal
    results on every input at several budgets; returns the set of
    (fast, reference) counts of numeral scans over those runs."""
    fast = universal_machine(registry).evaluator
    slow = universal_by_fields(registry)
    counts = set()
    for v in inputs:
        for budget in (0, 5, len(v) // 2, len(v)):
            scans.clear()
            got = fast(v, budget)
            n_fast = len(scans)
            scans.clear()
            assert got == slow(v, budget), (v.text()[:40], budget)
            counts.add((n_fast, len(scans)))
    return counts


@pytest.fixture
def numeral_scans(monkeypatch):
    """One entry per ``scan_numeral`` call."""
    scans = []

    def counted(text, start):
        scans.append(start)
        return scan_numeral(text, start)

    monkeypatch.setattr(gclab.bhp, "scan_numeral", counted)
    return scans


def test_universal_matches_known_codes_like_the_field_reader(numeral_scans):
    """The payload of every image ``red2bhu`` writes for the universal
    bundle, n <= 6, runs as the field-by-field reference runs it, and
    only its length field is scanned: its machine field is matched as
    known text."""
    data = Path(__file__).parent / "data"
    bundle = json.loads((data / "universal_bundle.json").read_text())
    machine = load_machine(str(data / bundle["machine"]))
    stage = red2bhu(machine, parse_polynomial(bundle["guard"]))
    images = [stage.reduction.apply(x) for x in BINARY.ball(6)]
    payloads = [BINARY.word(_payload(y.text())) for y in images]
    assert _universal_runs_agree([machine], payloads, numeral_scans) == {(1, 2)}
    assert any(bh_member(stage.machine, y) for y in images)


def test_universal_matches_pipeline_codes_like_the_field_reader(numeral_scans):
    """Pipeline stage 3 on the toy bundle, n <= 4: the protocol machine
    is virtual, so it is known only through the registry; the payloads
    of its images run as the reference runs them, with one numeral scan
    fewer each (the protocol machine scans its own length field)."""
    from gclab.cli import _problem_from_bundle

    path = Path(__file__).parent / "data" / "toy_bundle.json"
    bundle = json.loads(path.read_text())
    problem, decider, decider_guard = _problem_from_bundle(bundle, str(path))
    stage1 = red2bh(problem, decider, parse_polynomial(bundle["guard"]), decider_guard)
    stage3 = red2bhu(stage1.machine, lambda n: 2 * n + 8)
    images = [stage3.reduction.apply(stage1.reduction.apply(x)) for x in BINARY.ball(4)]
    payloads = [BINARY.word(_payload(y.text())) for y in images]
    counts = _universal_runs_agree([stage1.machine], payloads, numeral_scans)
    assert {slow - fast for fast, slow in counts} == {1}
    assert any(bh_member(stage3.machine, y) for y in images)


def test_universal_mutant_codes_run_like_the_field_reader(halt1, numeral_scans):
    """Chained inputs whose machine field is not a known code text run
    as the field-by-field reference runs them: one bit of the code
    flipped, the code cut short, and the code of a registry machine whose
    tape alphabet is not binary, which never halts."""
    ab = load_machine(AB_TABLE)
    code = machine_code(halt1).text()
    mutants, non_binary = [], []
    for x in (BINARY.word("0"), BINARY.word("110")):
        length = numeral(len(x)).text() + "0"
        x2 = x_double_prime(NU, x).text()
        for at in (0, 1, 2, 3, len(code) // 2, len(code) // 2 + 1, len(code) - 1, len(code)):
            field = code + "0"
            mutants.append(length + field[:at] + "10"[int(field[at])] + field[at + 1 :] + x2)
        for cut in (1, 2, 3, len(code) // 2):
            mutants.append(length + code[:-cut] + "0" + x2)
            mutants.append(length + code[:-cut] + x2)
        non_binary.append(length + machine_code(ab).text() + "0" + x2)
    words = [BINARY.word(t) for t in mutants + non_binary]
    assert _universal_runs_agree([halt1, ab], words, numeral_scans)
    U = universal_machine([halt1, ab])
    honest = numeral(1).text() + "0" + code + "0" + x_double_prime(NU, BINARY.word("0")).text()
    assert halts_within(U, BINARY.word(honest), 64)
    for t in non_binary:
        assert not halts_within(U, BINARY.word(t), 10 * len(t))


def test_virtual_machines_keep_their_contract(halt1, contains01_problem, contains01_ntm):
    """On every word up to length 10 the universal machine and two
    protocol machines, over a uniform and over a table problem, are
    halting searches: each returns None or its steps within the budget,
    without raising, and steps it returns it returns again at every
    larger budget.  So are protocol machines over an ensemble induced on
    a table, whose masses stop at the table's ``n_max``.  A claimed length
    past a table's ``n_max`` never halts, whether the table is bare,
    induced or transferred: each wrapping has the table's ``horizon``."""
    protocol = red2bh(contains01_problem, contains01_ntm,
                      Polynomial((6, 1, 1)), lambda n: n + 1).machine
    table = TableEnsemble(BINARY, {"0": Fraction(1, 2), "1": Fraction(1, 2)}, n_max=1)
    short = DistributionalProblem("contains01-table", BINARY, contains01_problem.positive, table)
    table_protocol = red2bh(short, contains01_ntm, Polynomial((6, 1, 1)), lambda n: n + 1).machine
    # a claimed length (2) beyond the table's n_max (1), verbatim branch
    payload = BINARY.word("1110" "0" "0" "00")
    assert table_protocol.evaluator(payload, 10) is None
    # the verbatim branch weighs a candidate of the claimed length (3),
    # past the table's n_max (2) under the induced ensembles
    base = {"kind": "table", "n_max": 2, "entries": {
        "0": "1/2", "1": "1/2", "00": "1/4", "01": "1/4", "10": "1/4", "11": "1/4"}}
    payload = BINARY.word(numeral(3).text() + "0" + "0" + "101")
    # a candidate of another length (2) than the claimed one (3) is never
    # weighed, so only the claimed length's horizon keeps the decider,
    # which accepts "01", from running: the verdict is the same however
    # the table is wrapped
    other_length = BINARY.word(numeral(3).text() + "0" + "0" + "01")
    wrapped = [ensemble_from_spec({"kind": "induced", "base": base, "subset": subset})
               for subset in ({"name": "all"}, {"name": "cg", "g": "2n+1"})]
    wrapped.append(ensemble_from_spec(
        {"kind": "transferred", "reduction": {"kind": "identity"}, "base": base}))
    for mu in [ensemble_from_spec(base)] + wrapped:
        assert mu.horizon == 2, mu.spec()
        problem = DistributionalProblem("contains01-wrapped", BINARY,
                                        contains01_problem.positive, mu)
        vm = red2bh(problem, contains01_ntm, Polynomial((6, 1, 1)), lambda n: n + 1).machine
        assert vm.evaluator(other_length, 40) is None, mu.spec()
        if mu.kind == "induced":
            assert vm.evaluator(payload, 40) is None, mu.spec()
    # the horizon of the unbounded ensembles, and a table's by default
    assert table.horizon == 1
    assert TableEnsemble(BINARY, {"0": Fraction(1, 2), "1": Fraction(1, 2),
                                  "00": Fraction(1)}).horizon == 2
    bin_alph = ensemble_from_spec({"kind": "transferred", "reduction": {
        "kind": "bin_alph", "sigma": "abc"}, "base": {"kind": "uniform", "alphabet": "abc"}})
    for mu in (contains01_problem.measure, NU, nu_g(Polynomial((1, 2))), bin_alph):
        assert mu.horizon is None, mu.spec()
    # an address into sphere 17, past ENUMERATION_CAP: an enumerated
    # ensemble never halts, the input ensemble resolves it in closed form
    long_table = TableEnsemble(BINARY, {"0": Fraction(1, 2), "1": Fraction(1, 2)}, n_max=17)
    long_problem = DistributionalProblem("contains01-17", BINARY,
                                         contains01_problem.positive, long_table)
    long_protocol = red2bh(long_problem, contains01_ntm, Polynomial((6, 1, 1)),
                           lambda n: n + 1).machine
    payload = BINARY.word(numeral(17).text() + "0" + "1" + "0")
    assert long_protocol.evaluator(payload, 40) is None
    x = BINARY.word("1" * 16 + "0")
    x2 = x_double_prime(NU, x).text()
    assert x2[0] == "1"  # address branch
    chained = BINARY.word(
        numeral(17).text() + "0" + machine_code(halt1).text() + "0" + x2)
    universal = universal_machine([halt1])
    assert universal.evaluator(chained, 17) is None
    halted = universal.evaluator(chained, 18)
    assert halted == 18
    assert universal.evaluator(chained, 64) == halted
    for vm in (universal_machine([halt1]), protocol, table_protocol):
        for n in range(11):
            for v in BINARY.sphere(n):
                halted = None
                for budget in (0, 1, 2, 4, 8, 16, 32):
                    result = vm.evaluator(v, budget)
                    if halted is not None:
                        assert result == halted, (vm.name, v.text(), budget)
                    elif result is not None:
                        assert isinstance(result, int) and 0 <= result <= budget
                        halted = result


def test_images_read_back_their_fields(uniform, find_zero):
    """Both maps wrap "numeral(n) 0 [machine-code 0] x''" into a code; the
    field reader gives n, the machine index and x'' back."""
    guard = adequate_guard(Polynomial((6, 1)), lambda n: n + 1)
    f = red2bh_map(uniform, guard)
    code_len = len(machine_code(find_zero).text())
    stage = red2bhu(find_zero, LongevityGuard(lambda n: n + code_len + 40, form="n+L+40"))
    for n in range(5):
        for x in BINARY.sphere(n):
            image = f.apply(x).text()
            assert len(image) == guard(n)
            assert _read_field(_payload(image)) == (n, x_double_prime(uniform, x).text())
            image = stage.reduction.apply(x).text()
            assert len(image) == stage.guard(n)
            n_read, rest = _read_field(_payload(image))
            assert n_read == n
            assert _read_field(rest) == (
                machine_index(find_zero), x_double_prime(NU, x).text())


def test_red2bhu_membership(find_zero):
    code_len = len(machine_code(find_zero).text())
    guard = LongevityGuard(lambda n: n + code_len + 40, form="n+L+40")
    stage = red2bhu(find_zero, guard)
    report = CheckReport("membership-preservation", 8)
    for _ in verify_red2bhu_membership(find_zero, stage, BINARY.ball(8), report):
        pass
    assert report.passed, report.violations[:5]


def test_red2bhu_image_length(find_zero):
    code_len = len(machine_code(find_zero).text())
    guard = LongevityGuard(lambda n: n + code_len + 40, form="n+L+40")
    stage = red2bhu(find_zero, guard)
    for n in range(5):
        for x in BINARY.sphere(n):
            assert len(stage.reduction.apply(x)) == stage.guard(n)


def test_red2bhu_guard_too_small(find_zero):
    """The user guard n+1 leaves no room for the machine code: red2bhu
    raises it until every image fits, while the map alone refuses it."""
    guard = LongevityGuard(lambda n: n + 1, form="n+1")
    stage = red2bhu(find_zero, guard)
    for n in range(5):
        for x in BINARY.sphere(n):
            assert len(stage.reduction.apply(x)) == stage.guard(n)
    with pytest.raises(GuardError):
        red2bh_map(NU, guard, stage.prefix).apply(BINARY.word("0"))


def test_red2bhu_guard_is_the_hand_built_guard(contains01_problem, contains01_ntm):
    """red2bhu's guard is the user guard raised for the machine code and
    its separator, as callers once built it by hand: on the universal
    bundle, and on the toy protocol machine with pipeline stage 3's 2n+8."""
    data = Path(__file__).parent / "data"
    bundle = json.loads((data / "universal_bundle.json").read_text())
    protocol = red2bh(contains01_problem, contains01_ntm, parse_polynomial("n+6"),
                      parse_polynomial("n+1")).machine
    for machine, g in ((load_machine(str(data / bundle["machine"])),
                        parse_polynomial(bundle["guard"])),
                       (protocol, lambda n: 2 * n + 8)):
        by_hand = adequate_guard(g, extra_payload=len(machine_code(machine).text()) + 1)
        guard = red2bhu(machine, g).guard
        assert [guard(n) for n in range(65)] == [by_hand(n) for n in range(65)]


def test_red2bhu_measure_known_witnesses(find_zero):
    """The combined-factor inequality fails exactly where the dyadic
    interval of a high-mass code ends at cumulative mass 1 (or where the
    rounding slack vanishes): six witnesses below radius 9, each short by
    at most a factor of 2.  Everywhere else it holds exactly."""
    code_len = len(machine_code(find_zero).text())
    guard = LongevityGuard(lambda n: n + code_len + 40, form="n+L+40")
    stage = red2bhu(find_zero, guard)
    pairs = ((x, stage.reduction.apply(x)) for x in BINARY.ball(8))
    report = verify_red2bhu_measure(stage, pairs, 8)
    witnesses = {v.witness for v in report.violations}
    assert witnesses == {"0", "10", "1110", "11010", "11110", "11111110"}
    shift = 2 ** (code_len + 1)
    for v in report.violations:
        x = BINARY.word(v.witness)
        n = len(x)
        got = NU.mass(stage.reduction.apply(x))
        bound = NU.mass(x) / (16 * n * n * stage.guard(n) * shift)
        assert 2 * got >= bound  # never short by more than a factor of 2


def test_red2bh_map_is_change_of_size(uniform):
    """The instance map is size-invariant with the guard as size growth,
    so it verifies as a change-of-size reduction onto its own transfer."""
    from gclab import TransferredEnsemble, verify_cs, verify_size_invariance
    from gclab.bhp import red2bh_map

    guard = adequate_guard(Polynomial((6, 1)), lambda n: n + 1)
    f = red2bh_map(uniform, guard)
    assert verify_size_invariance(f, 3).passed
    pushed = TransferredEnsemble(f, uniform)
    assert verify_cs(f, uniform, pushed, 2).passed


def test_universal_faithful_on_plain_codes(halt1, find_zero):
    """Codes wrapping machine-code 0 w payloads are members of the
    universal problem exactly when the snug codes of w are members of the
    simulated machine's problem (slowdown 1 keeps budgets aligned)."""
    U = universal_machine([halt1, find_zero])
    for machine in (halt1, find_zero):
        prefix = machine_code(machine).text() + "0"
        for n in range(4):
            for w in BINARY.sphere(n):
                payload = BINARY.word(prefix + w.text())
                wrapped = encode_instance(len(payload) + 1, payload)
                # the wrapped budget dwarfs these machines' halting times,
                # so membership equals plain halting
                assert bh_member(U, wrapped) == halts_within(machine, w, len(wrapped))


# --- the full chain ------------------------------------------------------------


def test_completeness_pipeline(contains01_problem, contains01_ntm):
    chain = completeness_pipeline(
        contains01_problem,
        red2bh(contains01_problem, contains01_ntm, Polynomial((6, 1)), lambda n: n + 1),
        n_max=4,
    )
    stage_names = [name for name, _ in chain.stages]
    assert stage_names == [
        "reduce-to-bounded-halting:membership",
        "reduce-to-bounded-halting:measure",
        "relax-restriction:measure",
        "embed-in-universal:membership",
        "embed-in-universal:measure",
        "relax-universal-restriction:measure",
    ]
    for name, report in chain.stages:
        assert report.passed, (name, report.violations[:3])
    assert chain.passed


def test_pipeline_rejects_bad_guard(contains01_problem, contains01_ntm):
    """The pipeline's first stage is built with the user guard, and a
    corrupt guard fails that construction."""
    with pytest.raises(GuardError):
        red2bh(contains01_problem, contains01_ntm, lambda n: 0, lambda n: n + 1)
