import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import gclab.bhp
from gclab import (
    BINARY,
    Polynomial,
    SphereRangeError,
    TableEnsemble,
    UniformEnsemble,
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
    _code_field,
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
)
from gclab.cli import main
from gclab.genericity import parse_polynomial
from gclab.machine import (
    MachineFormatError,
    VirtualMachine,
    halts_within,
    load_machine,
    min_halting_steps,
)
from gclab.measure import CheckReport, check_lower_bounds, ensemble_from_spec, verify_induced
from gclab.reductions import DistributionalProblem
from gclab.words import Alphabet, AlphabetMismatchError, Word
import oracles
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
    # a word over another alphabet is refused, even one spelled in 0 and 1
    for word in (Alphabet("012").word("2"), Alphabet("10").word("01")):
        with pytest.raises(ValueError, match="instances are binary words"):
            encode_instance(5, word)


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
    machine = load_machine(json.loads((data / bundle["machine"]).read_text()))
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
    LongevityGuard(Polynomial((1, 0, 1)), form="n^2+1"),
    adequate_guard(Polynomial((6, 1)), Polynomial((1, 1))),
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
            for d in (m + 1, 1):
                per_word, per_class = CheckReport("w", m), CheckReport("c", m)
                want = check_lower_bounds(per_word, (
                    (y, NU.mass(y), restricted.mass(y), d) for y in BINARY.sphere(m)))
                got = check_lower_bounds(per_class, _relaxation_points(restricted, m, d))
                assert (got, per_class.violations) == (want, per_word.violations)
                failed += len(per_word.violations)
    assert failed > 0


def test_relaxation_points_weigh_each_passing_class_once():
    """With every class passing (d = m + 1, stage 2's density, on C(2n+1))
    ``_relaxation_points`` yields the m + 1 classes of each sphere m <= 16
    as m + 1 points, each class's lex-least word, not every word of the
    sphere.  A failing class (d = 1: C(2n+1)'s class 1^k 0 {0,1}^k in
    sphere 2k + 1, k >= 1) yields its words in lex order, in its place."""
    restricted = nu_g(Polynomial((1, 2)))
    for m in range(17):
        classes = list(NU.classes(m))
        points = [y.text() for y, *_ in _relaxation_points(restricted, m, m + 1)]
        assert points == [prefix + "0" * k for prefix, k in classes]
        assert len(points) == m + 1
        planted = "1" * (m // 2) + "0" if m % 2 and m > 1 else None
        want = []
        for prefix, k in classes:
            words = BINARY.sphere(k) if prefix == planted else [BINARY.word("0" * k)]
            want += [prefix + w.text() for w in words]
        assert [y.text() for y, *_ in _relaxation_points(restricted, m, 1)] == want


def test_nu_keeps_no_sphere_tables(capsys):
    """Neither the pipeline nor the sphere sums build a sphere table."""
    data = Path(__file__).parent / "data"
    NU._tables.clear()
    assert main(["reduce", "pipeline", str(data / "toy_bundle.json"), "--n-max", "4"]) == 0
    assert main(["verify", "nu-sums", "--n-max", "12"]) == 0
    capsys.readouterr()
    assert NU._tables == {}


@pytest.mark.parametrize("declared", ["adequate", "n+1"])
def test_branch_lists_match_a_fraction_oracle(declared, uniform, geometric_table):
    """Every entry of both sharper-branch lists of ``verify_measure_decrease``
    (witness, "expected" bound, "actual" mass, in ball order) is the one the
    bound formed as a ``Fraction`` gives, on criterion 03's uniform and
    geometric-table inputs at |x| <= 5.  Under criterion 03's guard only the
    verbatim branch fails; a stage that declares the smaller guard n+1 for
    the same map fails the address branch too, on the table."""
    guard = adequate_guard(Polynomial((6, 1, 1)), Polynomial((1, 1)))
    stated = guard if declared == "adequate" else LongevityGuard(Polynomial((1, 1)), form="n+1")
    counts = [0, 0]
    for mu in (uniform, geometric_table):
        f = red2bh_map(mu, guard)
        pairs = [(x, f.apply(x)) for x in BINARY.ball(5)]
        report = verify_measure_decrease(BHStage(f, None, stated, mu), iter(pairs), 5)
        want: tuple[list, list] = ([], [])
        for x, y in pairs[1:]:
            n, mass, got = len(x), mu.mass(x), NU.mass(y)
            heavy = mass > Fraction(1, 2**n)
            bound = mass / ((16 if heavy else 8) * n * n * stated(n))
            if got < bound:  # 0 < got < bound < 1: neither is an integer
                want[heavy].append({"witness": x.text(),
                                    "expected": f"{bound.numerator}/{bound.denominator}",
                                    "actual": f"{got.numerator}/{got.denominator}"})
        assert report.details["branch1_factor8_violations"] == want[0]
        assert report.details["branch2_factor16_violations"] == want[1]
        counts = [c + len(entries) for c, entries in zip(counts, want)]
    assert counts[0] and bool(counts[1]) == (declared == "n+1")


def test_stage_one_weighs_each_source_word_once(monkeypatch):
    """The stage-1 measure check of ``reduce bh`` on the toy bundle at
    n <= 6 weighs each source word with |x| >= 1 once, in order: its
    point carries the mass that both the bound and the branch lists
    read."""
    from gclab.cli import _problem_from_bundle

    path = Path(__file__).parent / "data" / "toy_bundle.json"
    bundle = json.loads(path.read_text())
    problem, decider, decider_guard = _problem_from_bundle(bundle, str(path))
    stage = red2bh(problem, decider, parse_polynomial(bundle["guard"]), decider_guard)
    pairs = list(verify_membership(problem.positive, stage, BINARY.ball(6),
                                   CheckReport("membership-preservation", 6)))
    weighed = []
    mass = type(stage.mu).mass

    def counted(ensemble, x):
        weighed.append(x.text())
        return mass(ensemble, x)

    monkeypatch.setattr(type(stage.mu), "mass", counted)
    assert verify_measure_decrease(stage, pairs, 6).passed
    assert weighed == [x.text() for x in BINARY.ball(6) if x.letters]
    assert len(weighed) == 126


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
    """Each refusal is read off the coefficients and names its term: a
    constant and the zero polynomial do not increase, and c0 = 0 leaves
    g(0) = 0, no room for codes.  A guard that falls below n has no
    polynomial form: ``Polynomial`` refuses a negative coefficient.  An
    opaque callable is no guard."""
    for c in (5, 0):
        with pytest.raises(GuardError, match=f"^guard term {c} is not a strictly increasing"):
            LongevityGuard(Polynomial((c,)))
    with pytest.raises(GuardError, match=r"^guard n must satisfy g\(0\) >= 1$"):
        as_guard(Polynomial((0, 1)))
    with pytest.raises(ValueError, match="coefficient -1 is not a nonnegative integer"):
        Polynomial((-1, 1))
    with pytest.raises(GuardError, match="is not a strictly increasing polynomial"):
        as_guard(lambda n: n + 1)  # no terms to read, however it behaves
    guard = as_guard(Polynomial((1, 2)))
    assert guard(3) == 7


def test_guard_refuses_a_plateau():
    """A guard that keeps g(n) >= n and g(0) >= 1 but repeats a value is
    refused: max(n + 1, 5) stays at 5 from n = 0 to n = 4, and its
    constant term is refused."""
    with pytest.raises(GuardError, match="^guard term 5 is not a strictly increasing polynomial$"):
        LongevityGuard(Polynomial((1, 1)), Polynomial((5,)))


def _closure_guard(user, decider, extra):
    """The adequate guard written as a maximum of callables: the reference."""
    def fn(n):
        return max(user(n), n + 2 * max(n.bit_length(), 1) + 6 + extra, n + decider(n))
    return fn


_COEFFS = st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(_COEFFS, _COEFFS, st.integers(0, 300))
def test_guards_hold_their_invariants_at_every_n_to_256(coeffs, decider_coeffs, extra):
    """A polynomial is a guard exactly when c0 >= 1 and some c_i >= 1 with
    i >= 1.  Every such guard, and the adequate guard over it with any
    decider polynomial and embedded payload, has g(n) >= n,
    g(n + 1) > g(n) and g(0) >= 1 on n <= 256, and the adequate guard
    takes the values of the reference ``_closure_guard``."""
    p, decider = Polynomial(coeffs), Polynomial(decider_coeffs)
    valid = coeffs[0] >= 1 and any(coeffs[1:])
    try:
        guard = as_guard(p)
    except GuardError:
        assert not valid
        return
    assert valid
    adequate = adequate_guard(p, decider, extra)
    for g, want in ((guard, p), (adequate, _closure_guard(p, decider, extra))):
        values = [g(n) for n in range(258)]
        assert values == [want(n) for n in range(258)]
        assert values[0] >= 1
        assert all(v >= n for n, v in enumerate(values))
        assert all(a < b for a, b in zip(values, values[1:]))


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
              adequate_guard(Polynomial((6, 1)), Polynomial((1, 1)))]
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the oracle's exception type must match too
        return type(exc)


DATA = Path(__file__).parent / "data"


def _data_machines():
    """Every table machine under tests/data."""
    machines = []
    for path in sorted(DATA.glob("*.json")):
        try:
            machines.append(load_machine(json.loads(path.read_text())))
        except MachineFormatError:  # a bundle or an ensemble, not a machine
            pass
    return machines


def test_numeral_matches_per_bit_oracle():
    """``numeral`` joins its text in one step; it equals the numeral
    built bit by bit through the checked ``Alphabet.word``, text and
    letters, for every n < 4096 and for the canonical index of every
    machine under tests/data (numerals of hundreds to thousands of
    bits), and a negative n still raises ``ValueError``."""
    machines = _data_machines()
    assert len(machines) >= 10
    indices = list(range(4096)) + [machine_index(m) for m in machines]
    assert max(indices).bit_length() > 1000
    for n in indices:
        fast, slow = numeral(n), oracles.numeral(n)
        assert fast.alphabet is BINARY
        assert fast.text() == slow.text() and fast.letters == slow.letters, n
    for n in (-1, -4096):
        with pytest.raises(ValueError, match="nonnegative"):
            numeral(n)


def test_scan_numeral_matches_per_bit_oracle(uniform, find_zero):
    rng = random.Random(20)
    texts = ["".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
             for _ in range(400)]
    texts += [numeral(n).text() for n in range(300)]
    texts += [numeral(n).text() + "0" + rest for n in (0, 1, 5, 1000)
              for rest in ("", "0", "1", "10", "0110")]
    # the payloads the field reader sees: red2bh images, and one universal
    # image (its machine code is a numeral of some 3,000 bits)
    guard = adequate_guard(Polynomial((6, 1)), Polynomial((1, 1)))
    f = red2bh_map(uniform, guard)
    code_len = len(machine_code(find_zero).text())
    stage = red2bhu(find_zero, LongevityGuard(Polynomial((code_len + 40, 1)), form="n+L+40"))
    images = [f.apply(x) for n in range(5) for x in BINARY.sphere(n)]
    for image in images + [stage.reduction.apply(BINARY.word("1"))]:
        payload = _payload(image.text())
        texts += [payload, oracles.read_field(payload)[1]]
    # a lone trailing marker, "10" followed by more marker pairs
    texts += ["1", "111", "0111", "11111", "1011", "101110", "10" + "11" * 5, "1010"]
    # text that is not binary
    texts += ["12", "1a10", "1 1", "11 1", "1_10", "111_10", "1-1", "1\u0661", "2", "x1"]
    # numerals of 63 to 66 bits, alone and followed by a separator and
    # more text
    for bits in range(63, 67):
        for n in (1 << bits - 1, (1 << bits) - 1, rng.getrandbits(bits - 1) | 1 << bits - 1):
            text = numeral(n).text()
            assert scan_numeral(text, 0) == (n, 2 * bits)
            texts += [text, text + "0", text + "0" + "0110", text + "0" + numeral(n).text()]
    for text in texts:
        for start in range(len(text) + 3):
            assert _outcome(scan_numeral, text, start) == _outcome(
                scan_numeral_per_bit, text, start), (text, start)
    # "10" (a zero) followed by a 3,000-bit numeral is no numeral, and the
    # numeral after it reads as itself
    n = rng.getrandbits(2999) | 1 << 2999
    text = "10" + numeral(n).text()
    assert scan_numeral(text, 0) is None is scan_numeral_per_bit(text, 0)
    assert scan_numeral(text, 2) == (n, len(text)) == scan_numeral_per_bit(text, 2)


# --- the image codec ----------------------------------------------------------


def _field_per_bit(text, start=0):
    """A field "numeral 0" at ``start`` read by the per-bit oracle: the
    value and the index past the separator, or None."""
    head = scan_numeral_per_bit(text, start)
    return None if head is None or not text.startswith("0", head[1]) else (head[0], head[1] + 1)


def test_image_layout_against_per_bit_references(uniform, find_zero):
    """The one test of the image layout, against references the codec
    does not use: ``oracles.numeral`` writes each field and the per-bit
    ``oracles.scan_numeral`` reads it.  The head of a length-n image is
    "numeral(n) 0 prefix" and a machine-code field "numeral(i) 0",
    pinned on hand-written texts too; every image of |x| <= 5 of both
    stages is 1^pad 0 head x''; and the field reader agrees with the
    per-bit reader on both fields of those payloads and on malformed
    ones: a lone marker, a missing separator, a field cut short or
    shifted by one letter."""
    assert (_code_field(5), _code_field(0) + "11", _code_field(2)) == (
        "1110110", "10011", "11100")
    assert _read_field("1110110" + "01") == (5, 7)
    assert _read_field("11100" + "1", 0) == (2, 5)
    indices = list(range(300)) + [machine_index(m) for m in _data_machines()]
    for i in indices:
        assert _code_field(i) == oracles.numeral(i).text() + "0"
    guard = adequate_guard(Polynomial((6, 1)), Polynomial((1, 1)))
    universal = red2bhu(find_zero, Polynomial((1, 2)))
    code = oracles.numeral(machine_index(find_zero)).text() + "0"
    stages = [(red2bh_map(uniform, guard), uniform, guard, ""),
              (universal.reduction, NU, universal.guard, code)]
    payloads = []
    for f, mu, g, prefix in stages:
        for x in BINARY.ball(5):
            head = oracles.numeral(len(x)).text() + "0" + prefix
            payload = head + x_double_prime(mu, x).text()
            assert f.apply(x).text() == "1" * (g(len(x)) - len(payload) - 1) + "0" + payload
            payloads.append(payload)
    malformed = ["", "0", "1", "10", "11", "111011", "1110111", "10" + "11" * 5 + "0",
                 code[:-1], code[1:], "0" + code, "1110110"[1:] + code]
    for text in payloads + malformed:
        after = _field_per_bit(text)
        for start in {0, 1} | ({after[1] - 1, after[1], after[1] + 1} if after else set()):
            assert _read_field(text, start) == _field_per_bit(text, start), (text[:40], start)


# --- dyadic compression -------------------------------------------------------


def test_xprime_value():
    """The oracles' address value, (2 int(w) + 1) / 2^|w|: the integer pair
    ``bhp._protocol_run`` inverts, as one ``Fraction``."""
    assert oracles.xprime_value("0") == Fraction(1, 2)
    assert oracles.xprime_value("01") == Fraction(3, 4)
    assert oracles.xprime_value("11") == Fraction(7, 4)


@pytest.mark.parametrize("text", ["", "2", "0_1", " 01", "01 ", "0 1", "1\u0661", "\u06610", "+1"])
def test_xprime_value_rejects_text_that_is_not_binary(text):
    """Every candidate with a character other than 0 and 1 raises, also
    those ``int(text, 2)`` would read: underscores, surrounding blanks,
    other scripts' digits, a sign."""
    with pytest.raises(ValueError, match="nonempty binary string"):
        oracles.xprime_value(text)


def test_x_prime_worked_examples(mu2):
    for text, expected in (("00", "0"), ("01", "01")):
        x = BINARY.word(text)
        assert x_prime(mu2, x).text() == expected
        assert x_prime(mu2, x) == x_prime_scan(mu2.mu_star(x), mu2.hat_mu(x), len(x))


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
                        ensemble.mu_star(x), ensemble.hat_mu(x), len(x)
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


@pytest.fixture(scope="module")
def threshold_table():
    """Sphere n's words weigh, in lex order, 2^-n, 2^-n + e, 2^-n - e,
    2^-n, ... with e = 1/(3 * 4^(n+1)), the last word taking what makes
    the sphere sum to 1 (2^-n itself): masses at, just above and just
    below the compression's threshold, up to n = 10."""
    entries = {}
    for n in range(1, 11):
        at, e = Fraction(1, 2**n), Fraction(1, 3 * 4 ** (n + 1))
        masses = [at + (0, e, -e)[i % 3] for i in range(2**n)]
        masses[-1] += 1 - sum(masses)
        entries.update(zip((x.text() for x in BINARY.sphere(n)), masses))
    table = TableEnsemble(BINARY, entries, n_max=10)
    table.validate()
    return table


def test_integer_thresholds_match_fraction_oracles(uniform, nu, threshold_table):
    """The compression x'' of every x <= 10 equals the oracle's, whose
    threshold test mass(x) <= 2^-|x| compares ``Fraction``s, under ν,
    under the uniform ensemble (every mass exactly 2^-|x|, the ``<=``
    edge) and under a table with masses at, just above and just below
    it."""
    sides = set()
    for mu in (uniform, nu, threshold_table):
        for n in range(11):
            threshold = Fraction(1, 2**n)
            for x in BINARY.sphere(n):
                assert x_double_prime(mu, x).text() == oracles.x_double_prime(mu, x).text()
                mass = mu.mass(x)
                sides.add((mu is threshold_table, (mass > threshold) - (mass < threshold)))
    assert {(True, -1), (True, 0), (True, 1), (False, 0)} <= sides


def test_integer_addresses_match_the_fraction_oracles(uniform, nu):
    """x' and the inverse of the cumulative masses, computed on integer
    pairs, equal their ``Fraction`` forms in ``oracles``: the inverse at
    every n <= 12 and every dyadic t = j/2^L with L <= 12, class boundary
    m/n and word boundary, x' at every word of those spheres, under ν and
    the uniform ensembles over 01 and over three letters (spheres <= 8,
    where x' mostly fails as the Fraction form does: the masses 3^-n lie
    below 2^-(n+2))."""
    abc = UniformEnsemble(Alphabet(("a", "b", "c")))
    cases = [(nu, 12, oracles.nu_mu_star_inverse),
             (uniform, 12, partial(oracles.uniform_mu_star_inverse, BINARY)),
             (abc, 8, partial(oracles.uniform_mu_star_inverse, abc.alphabet))]
    dyadics = [Fraction(j, 2**12) for j in range(1, 2**12 + 1)]  # every j/2^L, L <= 12
    failures = set()
    for mu, top, oracle_inverse in cases:
        for n in range(top + 1):
            boundaries = {Fraction(m, n) for m in range(1, n + 1)}
            boundaries.update(mu.hat_mu(x) for x in mu.alphabet.sphere(n))
            for t in boundaries.union(dyadics):
                assert invert_mu_star(mu, n, t) == oracle_inverse(n, t), (mu.kind, n, t)
            for x in mu.alphabet.sphere(n):
                got = _outcome(x_prime, mu, x)
                assert got == _outcome(oracles.x_prime, mu, x), (mu.kind, x.text())
                failures.add((mu is abc, isinstance(got, type)))
    assert failures == {(False, False), (False, True), (True, False), (True, True)}


def test_addresses_and_inverses_do_no_fraction_arithmetic(uniform, nu, monkeypatch):
    """``x_prime`` and ``invert_mu_star`` under ν and the uniform ensemble,
    at every word and every dyadic t = j/2^8 of the spheres n <= 8, add,
    subtract, multiply, divide and compare no ``Fraction``: each of those
    operators, wrapped to count its calls, is called 0 times."""
    words = [(mu, x) for mu in (nu, uniform) for x in BINARY.ball(8) if mu.mass(x)]
    points = [(mu, n, Fraction(j, 2**8)) for mu in (nu, uniform)
              for n in range(9) for j in range(1, 2**8 + 1)]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                 "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__ceil__", "__floor__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, name=name, real=real: (
            calls.append(name), real(*args))[1])
    for mu, x in words:
        _outcome(x_prime, mu, x)
    for mu, n, t in points:
        invert_mu_star(mu, n, t)
    integer_calls = list(calls)
    # the wrappers count: the Fraction forms call them
    oracles.x_prime(nu, BINARY.word("0"))
    oracles.nu_mu_star_inverse(3, Fraction(1, 2))
    monkeypatch.undo()
    assert integer_calls == []
    assert {"__add__", "__eq__", "__mul__", "__sub__", "__lt__", "__le__"} <= set(calls)


def _even_ones():
    """A virtual decider that halts after |w| steps on the words with an
    even number of ones."""

    def evaluator(w: Word, budget: int):
        return len(w) if w.text().count("1") % 2 == 0 and len(w) <= budget else None

    return VirtualMachine(name="even-ones", evaluator=evaluator)


def _x2_variants(mu, x):
    """The compressed inputs a protocol reads for x: its own x'', x
    shipped verbatim and, when mass(x) >= 2^-|x| (so the address exists),
    x's dyadic address, so each mass test passes and fails."""
    variants = {x_double_prime(mu, x).text(), "0" + x.text()}
    if mu.mass(x) >= Fraction(1, 2 ** len(x)):
        variants.add("1" + x_prime(mu, x).text())
    return variants


def test_protocol_evaluators_match_fraction_oracles(uniform, nu, threshold_table):
    """The protocol machine of ``red2bh`` over ν, the uniform ensemble and
    the threshold table, and the universal machine (chained inputs, over
    ν), give the steps of the oracle protocol, whose mass tests and
    address range test compare ``Fraction``s, on the payload
    "head(n, [code 0]) x''" for each x'' variant of every x <= 10 at the
    budgets n, 2n - 1 and 2n, just short of and at the 2n steps an
    accepted x of length n takes."""
    decider = _even_ones()
    verdicts = set()
    for mu in (uniform, nu, threshold_table):
        problem = DistributionalProblem("even-ones", lambda x: True, mu)
        machine = red2bh(problem, decider, Polynomial((6, 1, 1)), Polynomial((0, 1))).machine
        inner = partial(gclab.bhp._search_halting, decider)
        machines = [(machine.evaluator, lambda v, b, mu=mu: oracles.protocol_run(
            mu, inner, *oracles.read_field(v.text()), b), "")]
        if mu is nu:
            universal = red2bhu(decider, Polynomial((1, 2)))
            machines.append((universal.machine.evaluator,
                             oracles.universal_by_fields([decider], run=oracles.protocol_run),
                             universal.prefix))
        for n in range(11):
            for x in BINARY.sphere(n):
                for x2 in _x2_variants(mu, x):
                    for fast, slow, prefix in machines:
                        v = BINARY.word(_code_field(n) + prefix + x2)
                        for budget in (n, 2 * n - 1, 2 * n):
                            steps = fast(v, budget)
                            assert steps == slow(v, budget), (mu.kind, x.text(), x2, budget)
                            verdicts.add((mu.kind, prefix != "", steps is None))
    assert verdicts == {(kind, universal, halted) for kind in ("uniform", "dbh_nu", "table")
                        for universal in (False, True) for halted in (False, True)
                        if kind == "dbh_nu" or not universal}


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
                lo, hi = ensemble.mu_star(x), ensemble.hat_mu(x)
                if lo < hi:
                    assert invert_mu_star(ensemble, n, hi) == x


# --- reduction to bounded halting --------------------------------------------


def _membership(problem, stage, n_max):
    """The membership report of a stage, its triples drained unread."""
    report = CheckReport("membership-preservation", n_max)
    words = problem.measure.alphabet.ball(n_max)
    for _ in verify_membership(problem.positive, stage, words, report):
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
                   Polynomial((6, 1, 1)), Polynomial((1, 1)))
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
        red2bh(contains01_problem, load_machine(AB_TABLE), Polynomial((6, 1)), Polynomial((1, 1)))


def test_red2bhu_refuses_a_non_binary_machine():
    with pytest.raises(ValueError, match="cannot read binary inputs"):
        red2bhu(load_machine(AB_TABLE), Polynomial((6, 1)))


def test_red2bh_membership_table(contains01_table_problem, contains01_ntm):
    stage = red2bh(contains01_table_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), Polynomial((1, 1)))
    report = _membership(contains01_table_problem, stage, 5)
    assert report.passed, report.violations[:5]


def test_red2bh_image_length_is_guard(contains01_problem, contains01_ntm):
    stage = red2bh(contains01_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), Polynomial((1, 1)))
    for n in range(6):
        for x in BINARY.sphere(n):
            assert len(stage.reduction.apply(x)) == stage.guard(n)


def test_maps_build_one_head_per_length(monkeypatch, threshold_table, find_zero):
    """Each stage's map computes the guard value and the head of a length
    once, however many words of that length it maps: applied to every
    x <= 8, twice, it calls ``_code_field`` and the guard once per
    length (``red2bhu`` writes its machine field before the map is first
    applied), and each image equals the oracle's, built afresh per word."""
    guard = adequate_guard(Polynomial((6, 1)), Polynomial((1, 1)))
    universal = red2bhu(find_zero, Polynomial((1, 2)))
    stages = [(red2bh_map(threshold_table, guard), threshold_table, guard, ""),
              (universal.reduction, NU, universal.guard, universal.prefix)]
    real_field, real_guard = gclab.bhp._code_field, LongevityGuard.__call__
    for f, mu, g, prefix in stages:
        heads, guards = [], []
        monkeypatch.setattr(gclab.bhp, "_code_field", lambda n: heads.append(n)
                            or real_field(n))
        monkeypatch.setattr(LongevityGuard, "__call__",
                            lambda self, n: guards.append((self, n)) or real_guard(self, n))
        images = [f.apply(x) for x in BINARY.ball(8)]
        assert [f.apply(x) for x in BINARY.ball(8)] == images
        monkeypatch.undo()
        assert heads == list(range(9))
        assert guards == [(g, n) for n in range(9)]
        for x, y in zip(BINARY.ball(8), images):
            assert y.text() == oracles.red2bh_image(mu, g, prefix, x).text(), x.text()


def test_red2bhu_builds_the_machine_code_once(monkeypatch, find_zero):
    """``red2bhu`` computes the machine's canonical index, its numeral
    (thousands of letters) and its code field once, for the field it
    writes and the universal machine's registry alike; its images are
    the oracle's, and its machine runs each of them as
    ``universal_machine`` does."""
    indices, writes, fields = [], [], []
    real_index, real_writer = gclab.bhp.machine_index, gclab.bhp.numeral
    real_field = gclab.bhp._code_field
    monkeypatch.setattr(gclab.bhp, "machine_index",
                        lambda m: indices.append(m) or real_index(m))
    monkeypatch.setattr(gclab.bhp, "numeral", lambda i: writes.append(i) or real_writer(i))
    monkeypatch.setattr(gclab.bhp, "_code_field", lambda i: fields.append(i) or real_field(i))
    stage = red2bhu(find_zero, Polynomial((1, 2)))
    monkeypatch.undo()
    assert indices == [find_zero]
    assert writes == fields == [machine_index(find_zero)]
    assert stage.prefix == machine_code(find_zero).text() + "0"
    U = universal_machine([find_zero])
    for x in BINARY.ball(4):
        y = stage.reduction.apply(x)
        assert y.text() == oracles.red2bh_image(NU, stage.guard, stage.prefix, x).text()
        payload = BINARY.word(_payload(y.text()))
        assert stage.machine.evaluator(payload, len(y)) == U.evaluator(payload, len(y))


def test_red2bh_uniform_takes_verbatim_branch(contains01_problem, contains01_ntm):
    stage = red2bh(contains01_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), Polynomial((1, 1)))
    for x in BINARY.sphere(3):
        image = stage.reduction.apply(x).text()
        # payload ends with 0x: the verbatim branch ships the input
        assert image.endswith("0" + "0" + x.text())


def test_measure_decrease_uniform_and_table(uniform, geometric_table):
    guard = adequate_guard(Polynomial((6, 1, 1)), Polynomial((1, 1)))
    for mu in (uniform, geometric_table):
        report = _map_measure(mu, guard, 8)
        assert report.passed, report.violations[:5]


def test_measure_decrease_table_exercises_both_branches(geometric_table):
    guard = adequate_guard(Polynomial((6, 1, 1)), Polynomial((1, 1)))
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
    guard = adequate_guard(Polynomial((6, 1, 1)), Polynomial((1, 1)))

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
        rebuilt = _machine_at(_read_field(_code_field(machine_index(machine)))[0], {})
        assert rebuilt.to_canonical_dict() == machine.to_canonical_dict()


def test_machine_code_no_double_zero(halt1, find_zero):
    for machine in (halt1, find_zero):
        assert "00" not in machine_code(machine).text()


def test_machine_codes_distinct(halt1, loop, find_zero, contains01_ntm):
    codes = {machine_code(m).text() for m in (halt1, loop, find_zero, contains01_ntm)}
    assert len(codes) == 4


def test_virtual_machine_codes_via_registry(contains01_problem, contains01_ntm):
    stage = red2bh(contains01_problem, contains01_ntm,
                   Polynomial((6, 1, 1)), Polynomial((1, 1)))
    vm = stage.machine
    index = _read_field(_code_field(machine_index(vm)))[0]
    assert _machine_at(index, {machine_index(vm): vm}) is vm
    assert _machine_at(index, {}) is None  # no registry: virtual machines cannot decode


def test_protocol_machines_over_tables_of_other_horizons_differ(contains01_problem,
                                                                contains01_ntm):
    """Two protocol machines over tables that differ only in ``n_max``
    reject different payloads, so they get different indexes."""
    entries = {"0": Fraction(1, 2), "1": Fraction(1, 2), "00": Fraction(1)}
    indexes = set()
    for n_max in (1, 2):
        problem = DistributionalProblem("contains01-table", contains01_problem.positive,
                                        TableEnsemble(BINARY, entries, n_max=n_max))
        vm = red2bh(problem, contains01_ntm, Polynomial((6, 1, 1)), Polynomial((1, 1))).machine
        indexes.add(machine_index(vm))
    assert len(indexes) == 2


# --- the universal machine ----------------------------------------------------


def test_universal_plain_simulation(halt1, loop, find_zero):
    machines = [halt1, loop, find_zero]
    U = universal_machine(machines)
    for machine in machines:
        prefix = _code_field(machine_index(machine))
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


def _index_field(payload) -> str:
    """The machine-code field of a payload serialized as a machine index."""
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return _code_field(int.from_bytes(blob, "big"))


@pytest.mark.parametrize("payload", [
    5,
    {"table": {}},
    {"table": {**HALT1_TABLE, "delta": "x"}},
    # a string is no table, even one naming a machine file that exists
    {"table": "tests/data/halt1.json"},
])
def test_universal_fails_closed_on_malformed_tables(halt1, payload, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    field = _index_field(payload)
    assert _machine_at(_read_field(field)[0], {}) is None
    U = universal_machine([halt1])
    plain = field + "1"
    chained = _code_field(1) + field + "01"
    for text in (plain, chained):
        assert not halts_within(U, BINARY.word(text), 500)


def test_universal_returns_none_on_a_machine_field_nested_past_the_parser(halt1):
    """A machine field whose JSON nests 100,000 deep, past the parser's
    depth on every supported Python, makes ``json.loads`` raise
    ``RecursionError``: the universal evaluator returns None on it, as a
    plain input and as a chained one, and raises nothing."""
    field = _code_field(int.from_bytes(b'{"table":' + b"[" * 100_000, "big"))
    assert _machine_at(_read_field(field)[0], {}) is None
    U = universal_machine([halt1])
    for text in (field + "0", _code_field(1) + field + "01"):
        assert U.evaluator(BINARY.word(text), 500) is None


def test_length_fields_are_never_parsed_as_json(monkeypatch, capsys):
    """``reduce universal`` on the universal bundle, |x| <= 7, runs every
    image on the universal machine, which looks up each length field with
    ``_machine_at``; a length's first byte is no "{" nor JSON whitespace,
    so none reaches ``json.loads``, and the known machine field is matched
    as text."""
    parsed, looked_up = [], []
    loads, machine_at = json.loads, gclab.bhp._machine_at
    monkeypatch.setattr(gclab.bhp, "json", SimpleNamespace(
        dumps=json.dumps, loads=lambda s: parsed.append(s) or loads(s)))
    monkeypatch.setattr(gclab.bhp, "_machine_at",
                        lambda i, registry: looked_up.append(i) or machine_at(i, registry))
    data = Path(__file__).parent / "data"
    # a verdict either way (criterion 05's witnesses fail), not a usage error
    assert main(["reduce", "universal", str(data / "universal_bundle.json"),
                 "--n-max", "7"]) in (0, 1)
    capsys.readouterr()
    assert set(looked_up) == set(range(8))
    assert parsed == []


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
    text = _index_field({"table": AB_TABLE}) + "1"
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
    real = gclab.bhp.scan_numeral

    def counted(text, start):
        scans.append(start)
        return real(text, start)

    monkeypatch.setattr(gclab.bhp, "scan_numeral", counted)
    return scans


def test_universal_matches_known_codes_like_the_field_reader(numeral_scans):
    """The payload of every image ``red2bhu`` writes for the universal
    bundle, n <= 6, runs as the field-by-field reference runs it, and
    only its length field is scanned: its machine field is matched as
    known text."""
    data = Path(__file__).parent / "data"
    bundle = json.loads((data / "universal_bundle.json").read_text())
    machine = load_machine(json.loads((data / bundle["machine"]).read_text()))
    stage = red2bhu(machine, parse_polynomial(bundle["guard"]))
    images = [stage.reduction.apply(x) for x in BINARY.ball(6)]
    payloads = [BINARY.word(_payload(y.text())) for y in images]
    assert _universal_runs_agree([machine], payloads, numeral_scans) == {(1, 2)}
    assert any(bh_member(stage.machine, y) for y in images)


def test_universal_decodes_a_chained_machine_outside_its_registry(halt1):
    """The universal bundle's machine is another table than the ``halt1``
    fixture (which also has moves from its final state), so a universal
    machine that knows only the fixture decodes the bundle machine from
    the machine field of each image ``red2bhu`` writes for it.  On every
    image, |x| <= 5, its membership is the stage machine's and that of
    the field-by-field reference with an empty registry."""
    data = Path(__file__).parent / "data"
    bundle = json.loads((data / "universal_bundle.json").read_text())
    machine = load_machine(json.loads((data / bundle["machine"]).read_text()))
    assert machine_index(machine) != machine_index(halt1)
    stage = red2bhu(machine, parse_polynomial(bundle["guard"]))
    outsider = universal_machine([halt1])
    reference = VirtualMachine(name="universal", evaluator=universal_by_fields([]))
    members = []
    for x in BINARY.ball(5):
        y = stage.reduction.apply(x)
        members.append(bh_member(outsider, y))
        assert members[-1] == bh_member(stage.machine, y) == bh_member(reference, y), x.text()
    assert (len(members), sum(members)) == (63, 57)


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
    stage3 = red2bhu(stage1.machine, Polynomial((8, 2)))
    images = [stage3.reduction.apply(stage1.reduction.apply(x)) for x in BINARY.ball(4)]
    payloads = [BINARY.word(_payload(y.text())) for y in images]
    counts = _universal_runs_agree([stage1.machine], payloads, numeral_scans)
    assert {slow - fast for fast, slow in counts} == {1}
    assert any(bh_member(stage3.machine, y) for y in images)


def test_universal_mutant_codes_run_like_the_field_reader(halt1, numeral_scans):
    """Chained inputs whose machine field is not a known code text run
    as the field-by-field reference runs them: one bit of the code
    flipped, the code cut short, and the code of a registry machine whose
    tape alphabet is not binary, which never halts.  So do inputs whose
    code starts one marker pair before or after the end of the length
    field: over its last marker pair, after an extra pair, and after a
    length numeral one pair shorter or longer, where the code is matched
    in place at another offset."""
    ab = load_machine(AB_TABLE)
    field = _code_field(machine_index(halt1))
    code = field[:-1]
    mutants, non_binary = [], []
    for x in (BINARY.word("0"), BINARY.word("110")):
        length = _code_field(len(x))
        x2 = x_double_prime(NU, x).text()
        for shifted in (length[:-3], length[:-3] + "0", length + "10", length + "11",
                        length[:-1] + "10" + "0", length[:-1] + "11" + "0"):
            mutants.append(shifted + field + x2)
        for at in (0, 1, 2, 3, len(code) // 2, len(code) // 2 + 1, len(code) - 1, len(code)):
            mutants.append(length + field[:at] + "10"[int(field[at])] + field[at + 1 :] + x2)
        for cut in (1, 2, 3, len(code) // 2):
            mutants.append(length + code[:-cut] + "0" + x2)
            mutants.append(length + code[:-cut] + x2)
        non_binary.append(length + _code_field(machine_index(ab)) + x2)
    words = [BINARY.word(t) for t in mutants + non_binary]
    assert _universal_runs_agree([halt1, ab], words, numeral_scans)
    U = universal_machine([halt1, ab])
    honest = _code_field(1) + field + x_double_prime(NU, BINARY.word("0")).text()
    assert halts_within(U, BINARY.word(honest), 64)
    for t in non_binary:
        assert not halts_within(U, BINARY.word(t), 10 * len(t))


def test_virtual_machines_keep_their_contract(halt1, contains01_problem, contains01_ntm):
    """On every binary word up to length 10 and every word over {0, 1, 2}
    up to length 8, the universal machine and three protocol machines,
    over a uniform, a table and an induced problem, are halting searches:
    each returns None or its steps within the budget, without raising,
    and steps it returns it returns again at every larger budget.  A word
    that is not over the binary alphabet never halts.  Protocol machines
    over an ensemble induced on a table, whose masses stop at the table's
    ``n_max``, keep the contract too.  A claimed length
    past a table's ``n_max`` never halts, whether the table is bare,
    induced or transferred: each wrapping has the table's ``horizon``."""
    protocol = red2bh(contains01_problem, contains01_ntm,
                      Polynomial((6, 1, 1)), Polynomial((1, 1))).machine
    table = TableEnsemble(BINARY, {"0": Fraction(1, 2), "1": Fraction(1, 2)}, n_max=1)
    short = DistributionalProblem("contains01-table", contains01_problem.positive, table)
    table_protocol = red2bh(short, contains01_ntm, Polynomial((6, 1, 1)), Polynomial((1, 1))).machine
    # a claimed length (2) beyond the table's n_max (1), verbatim branch
    payload = BINARY.word(_code_field(2) + "0" + "00")
    assert table_protocol.evaluator(payload, 10) is None
    # the verbatim branch weighs a candidate of the claimed length (3),
    # past the table's n_max (2) under the induced ensembles
    base = {"kind": "table", "n_max": 2, "entries": {
        "0": "1/2", "1": "1/2", "00": "1/4", "01": "1/4", "10": "1/4", "11": "1/4"}}
    payload = BINARY.word(_code_field(3) + "0" + "101")
    # a candidate of another length (2) than the claimed one (3) is never
    # weighed, so only the claimed length's horizon keeps the decider,
    # which accepts "01", from running: the verdict is the same however
    # the table is wrapped
    other_length = BINARY.word(_code_field(3) + "0" + "01")
    wrapped = [ensemble_from_spec({"kind": "induced", "base": base, "subset": subset})
               for subset in ({"name": "all"}, {"name": "cg", "g": "2n+1"})]
    wrapped.append(ensemble_from_spec(
        {"kind": "transferred", "reduction": {"kind": "identity"}, "base": base}))
    for mu in [ensemble_from_spec(base)] + wrapped:
        assert mu.horizon == 2, mu.spec()
        problem = DistributionalProblem("contains01-wrapped", contains01_problem.positive, mu)
        vm = red2bh(problem, contains01_ntm, Polynomial((6, 1, 1)), Polynomial((1, 1))).machine
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
    long_problem = DistributionalProblem("contains01-17", contains01_problem.positive, long_table)
    long_protocol = red2bh(long_problem, contains01_ntm, Polynomial((6, 1, 1)),
                           Polynomial((1, 1))).machine
    payload = BINARY.word(_code_field(17) + "1" + "0")
    assert long_protocol.evaluator(payload, 40) is None
    x = BINARY.word("1" * 16 + "0")
    x2 = x_double_prime(NU, x).text()
    assert x2[0] == "1"  # address branch
    chained = BINARY.word(_code_field(17) + _code_field(machine_index(halt1)) + x2)
    universal = universal_machine([halt1])
    assert universal.evaluator(chained, 17) is None
    halted = universal.evaluator(chained, 18)
    assert halted == 18
    assert universal.evaluator(chained, 64) == halted
    induced_protocol = red2bh(
        DistributionalProblem("contains01-induced", contains01_problem.positive, wrapped[1]),
        contains01_ntm, Polynomial((6, 1, 1)), Polynomial((1, 1))).machine
    # every binary word up to length 10, and every word over {0, 1, 2} up
    # to length 8 ("12" and "10002", say, once raised from the numeral
    # reader and the tape codec)
    ternary = Alphabet("012")
    words = [*BINARY.ball(10), *ternary.ball(8)]
    assert len(words) == 2047 + 9841
    for vm in (universal_machine([halt1]), protocol, table_protocol, induced_protocol):
        for v in words:
            halted = None
            for budget in (0, 1, 2, 4, 8, 16, 32):
                result = vm.evaluator(v, budget)
                if halted is not None:
                    assert result == halted, (vm.name, v.text(), budget)
                elif result is not None:
                    assert isinstance(result, int) and 0 <= result <= budget
                    halted = result
            if v.alphabet is ternary:
                assert halted is None, (vm.name, v.text())


def test_images_read_back_their_fields(uniform, find_zero):
    """Both maps wrap "head(n, [machine-code 0]) x''" into a code; the
    field reader gives n, the machine index and x'' back."""
    guard = adequate_guard(Polynomial((6, 1)), Polynomial((1, 1)))
    f = red2bh_map(uniform, guard)
    code_len = len(machine_code(find_zero).text())
    stage = red2bhu(find_zero, LongevityGuard(Polynomial((code_len + 40, 1)), form="n+L+40"))
    for n in range(5):
        for x in BINARY.sphere(n):
            image = f.apply(x).text()
            assert len(image) == guard(n)
            payload = _payload(image)
            n_read, start = _read_field(payload)
            assert (n_read, payload[start:]) == (n, x_double_prime(uniform, x).text())
            image = stage.reduction.apply(x).text()
            assert len(image) == stage.guard(n)
            payload = _payload(image)
            n_read, start = _read_field(payload)
            assert n_read == n
            index, end = _read_field(payload, start)
            assert (index, payload[end:]) == (
                machine_index(find_zero), x_double_prime(NU, x).text())


def test_red2bhu_membership(find_zero):
    code_len = len(machine_code(find_zero).text())
    guard = LongevityGuard(Polynomial((code_len + 40, 1)), form="n+L+40")
    stage = red2bhu(find_zero, guard)
    report = CheckReport("membership-preservation", 8)
    for _ in verify_red2bhu_membership(find_zero, stage, BINARY.ball(8), report):
        pass
    assert report.passed, report.violations[:5]


def test_red2bhu_image_length(find_zero):
    code_len = len(machine_code(find_zero).text())
    guard = LongevityGuard(Polynomial((code_len + 40, 1)), form="n+L+40")
    stage = red2bhu(find_zero, guard)
    for n in range(5):
        for x in BINARY.sphere(n):
            assert len(stage.reduction.apply(x)) == stage.guard(n)


def test_red2bhu_guard_too_small(find_zero):
    """The user guard n+1 leaves no room for the machine code: red2bhu
    raises it until every image fits, while the map alone refuses it."""
    guard = LongevityGuard(Polynomial((1, 1)), form="n+1")
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
    for machine, g in ((load_machine(json.loads((data / bundle["machine"]).read_text())),
                        parse_polynomial(bundle["guard"])),
                       (protocol, Polynomial((8, 2)))):
        by_hand = adequate_guard(g, extra_payload=len(machine_code(machine).text()) + 1)
        guard = red2bhu(machine, g).guard
        assert [guard(n) for n in range(65)] == [by_hand(n) for n in range(65)]


def test_red2bhu_measure_known_witnesses(find_zero):
    """The combined-factor inequality fails exactly where the dyadic
    interval of a high-mass code ends at cumulative mass 1 (or where the
    rounding slack vanishes): six witnesses below radius 9, each short by
    at most a factor of 2.  Everywhere else it holds exactly."""
    code_len = len(machine_code(find_zero).text())
    guard = LongevityGuard(Polynomial((code_len + 40, 1)), form="n+L+40")
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

    guard = adequate_guard(Polynomial((6, 1)), Polynomial((1, 1)))
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
        prefix = _code_field(machine_index(machine))
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
        red2bh(contains01_problem, contains01_ntm, Polynomial((6, 1)), Polynomial((1, 1))),
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
        red2bh(contains01_problem, contains01_ntm, Polynomial((0,)), Polynomial((1, 1)))
