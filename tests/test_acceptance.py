"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear; without -s pytest shows them for failing criteria only.  All
comparisons are exact rational arithmetic; the stated horizons and
factors are asserted as written, including the two sub-checks that the
exact interleaved-numeral lengths make unsatisfiable (see the assertion
messages for the witnesses).
"""

import itertools
import time
from fractions import Fraction

from gclab import (
    BINARY,
    Alphabet,
    DistributionalProblem,
    InducedEnsemble,
    Polynomial,
    TransferredEnsemble,
    UniformEnsemble,
    c_of_g,
    check_control_transfer,
    control_sequence,
    example41_image_member,
    example41_reduction,
    identity_reduction,
    nu_g,
    red2bh,
    red2bhu,
    subset_mass,
    to_binary,
    verify_cs,
    verify_induced,
    verify_measure_decrease,
    verify_red2bhu_measure,
    verify_red2bhu_membership,
    verify_size_invariance,
    verify_transfer,
    x_double_prime,
    x_prime,
)
from gclab.bhp import (
    NU, BHStage, LongevityGuard, adequate_guard, machine_code, red2bh_map, verify_membership,
)
from gclab.genericity import sample_sphere
from gclab.measure import CheckReport, DBHNuEnsemble
from oracles import x_prime_scan


def announce(number: int, title: str, ok: bool, started: float, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" [{note}]" if note else ""
    print(f"[criterion {number:02d}] {title}: {status} "
          f"({time.monotonic() - started:.1f}s){extra}")


def test_criterion_01_input_ensemble_is_spherical():
    started = time.monotonic()
    sums = {n: NU.sphere_sum(n) for n in range(17)}
    ok = all(total == 1 for total in sums.values())
    elapsed = time.monotonic() - started
    announce(1, "bounded-halting ensemble sums to 1 on spheres 0..16", ok, started)
    assert ok, {n: str(s) for n, s in sums.items() if s != 1}
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_02_restricted_family_closed_form():
    started = time.monotonic()
    ok = True
    details = []
    for coeffs in ((1, 1), (1, 2)):  # the guards n+1 and 2n+1
        guard = Polynomial(coeffs)
        conditioned = nu_g(guard)
        report = verify_induced(NU, c_of_g(guard), conditioned, 12)
        if not report.passed:
            ok = False
            details.append((str(guard), report.violations[:3]))
        member = c_of_g(guard)
        for n in range(13):
            achieved = any(guard(k) == n for k in range(n + 1))
            expected = Fraction(1, n) if achieved and n >= 1 else Fraction(0)
            if subset_mass(NU, n, member) != expected:
                ok = False
                details.append((str(guard), n))
    announce(2, "restricted-family ensemble: closed form = enumeration, "
                "achieved spheres carry mass 1/n (n<=12)", ok, started)
    assert ok, details


def _geometric_table():
    from gclab.measure import TableEnsemble

    entries = {}
    for n in range(1, 9):
        masses = [Fraction(1, 2**j) for j in range(1, n)] + [Fraction(1, 2**n)] * 2
        for letters, mass in zip(itertools.product("01", repeat=n), masses):
            entries["".join(letters)] = mass
    return TableEnsemble(BINARY, entries, n_max=8)


def test_criterion_03_measure_decrease_bounds():
    started = time.monotonic()
    guard = adequate_guard(Polynomial((6, 1, 1)), lambda n: n + 1)
    table = _geometric_table()
    table.validate(8)
    headline_ok = True
    branch_witnesses = []
    both_branches_seen = set()
    for mu in (UniformEnsemble(BINARY), table):
        f = red2bh_map(mu, guard)
        pairs = ((x, f.apply(x)) for x in BINARY.ball(8))
        report = verify_measure_decrease(BHStage(f, None, guard, mu), pairs, 8)
        if not report.passed:
            headline_ok = False
        branch_witnesses.extend(
            (mu.kind, v["witness"]) for v in report.details["branch1_factor8_violations"]
        )
        branch_witnesses.extend(
            (mu.kind, v["witness"]) for v in report.details["branch2_factor16_violations"]
        )
    for n in range(1, 9):
        for x in BINARY.sphere(n):
            if table.mass(x) > 0:
                both_branches_seen.add(table.mass(x) > Fraction(1, 2**n))
    branches_ok = both_branches_seen == {True, False}
    sharper_ok = not branch_witnesses
    ok = headline_ok and branches_ok and sharper_ok
    announce(3, "measure decrease: headline 1/(16 n^2 g) bound and per-branch "
                "sharper factors (|x|<=8, uniform + two-branch table)", ok, started,
             note="" if sharper_ok else
             f"sharper per-branch factor fails at {len(branch_witnesses)} points")
    assert headline_ok
    assert branches_ok
    assert sharper_ok, (
        "the sharper per-branch factor-8 bound fails wherever the exact "
        "interleaved numeral is longer than the rounded length the factor "
        "assumes (spheres 1, 2, 4, 5, 8): "
        + str(sorted({len(w) for _, w in branch_witnesses}))
    )


def _contains01_problem():
    from gclab.machine import TuringMachine, halts_within

    ntm = TuringMachine(
        states=("q0", "q2", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "q0", "0", "R"),
            ("q0", "1", "q0", "1", "R"),
            ("q0", "0", "q2", "0", "R"),
            ("q2", "1", "q1", "1", "R"),
        ),
        name="contains01",
    )
    problem = DistributionalProblem(
        name="contains01-uniform",
        alphabet=BINARY,
        positive=lambda x: halts_within(ntm, x, len(x) + 1),
        measure=UniformEnsemble(BINARY),
    )
    return problem, ntm


def test_criterion_04_reduction_membership_preservation():
    started = time.monotonic()
    problem, ntm = _contains01_problem()
    stage = red2bh(problem, ntm, Polynomial((6, 1, 1)), lambda n: n + 1)
    report = CheckReport("membership-preservation", 5)
    for _ in verify_membership(problem.positive, stage, BINARY.ball(5), report):
        pass
    elapsed = time.monotonic() - started
    announce(4, "bounded-halting reduction preserves membership both ways "
                "(|x|<=5, nondeterministic toy)", report.passed, started)
    assert report.passed, report.violations[:5]
    assert elapsed < 300.0


def _two_state_machine():
    from gclab.machine import TuringMachine

    return TuringMachine(
        states=("q0", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(("q0", "0", "q1", "0", "R"), ("q0", "1", "q0", "1", "R")),
        name="find-zero",
    )


def test_criterion_05_universal_machine_stage():
    started = time.monotonic()
    machine = _two_state_machine()
    code_len = len(machine_code(machine).text())
    guard = LongevityGuard(lambda n: n + code_len + 40, form="n+|code|+40")
    stage = red2bhu(machine, guard)
    membership = CheckReport("membership-preservation", 8)
    pairs = verify_red2bhu_membership(machine, stage, BINARY.ball(8), membership)
    measure = verify_red2bhu_measure(stage, pairs, 8)
    ok = membership.passed and measure.passed
    announce(5, "universal-machine stage: membership on all codes <=8 and the "
                "combined measure factor", ok, started,
             note="" if measure.passed else
             f"measure factor fails at {len(measure.violations)} of 510 points")
    assert membership.passed, membership.violations[:5]
    assert measure.passed, (
        "the combined polynomial factor 16 n^2 g s 2^(|code|+1) is short by "
        "at most 2x at the codes whose cumulative-mass interval ends at 1 "
        "(plus the two vanishing-slack points of sphere 5): "
        + str([v.witness for v in measure.violations])
    )


def test_criterion_06_transfer_and_induction_oracles():
    started = time.monotonic()
    ok = True
    details = []

    # every pushforward/conditional ensemble in the corpus against the
    # brute-force recomputation
    table = _geometric_table()
    ident = identity_reduction(BINARY)
    corpus_transferred = [(ident, table, TransferredEnsemble(ident, table), 8)]
    unary = Alphabet(("a",))
    unary_problem = DistributionalProblem("unary", unary, lambda x: True,
                                          UniformEnsemble(unary))
    f_unary, image_unary = to_binary(unary_problem)
    corpus_transferred.append((f_unary, unary_problem.measure, image_unary.measure, 10))
    abc = Alphabet(("a", "b", "c"))
    abc_problem = DistributionalProblem("abc", abc, lambda x: True,
                                        UniformEnsemble(abc))
    f_abc, image_abc = to_binary(abc_problem)
    corpus_transferred.append((f_abc, abc_problem.measure, image_abc.measure, 10))
    for f, mu, nu, horizon in corpus_transferred:
        report = verify_transfer(f, mu, nu, horizon)
        if not report.passed:
            ok = False
            details.append(("transfer", f.name, report.violations[:3]))

    corpus_induced = [
        (NU, c_of_g(Polynomial((1, 1))), nu_g(Polynomial((1, 1)))),
        (NU, c_of_g(Polynomial((1, 2))), nu_g(Polynomial((1, 2)))),
        (UniformEnsemble(BINARY), example41_image_member,
         InducedEnsemble(UniformEnsemble(BINARY), example41_image_member)),
    ]
    for base, subset, conditioned in corpus_induced:
        report = verify_induced(base, subset, conditioned, 10)
        if not report.passed:
            ok = False
            details.append(("induced", conditioned.kind, report.violations[:3]))

    # the binary-alphabet construction is a verified change-of-size map
    # with the ceil(n log2 |alphabet|) size growth (linear for one letter)
    expected_growth = {
        1: lambda n: n,
        3: lambda n: (3**n - 1).bit_length() if n else 0,
        4: lambda n: 2 * n,
    }
    for size in (1, 3, 4):
        sigma = Alphabet(tuple("abcd"[:size]))
        problem = DistributionalProblem("toy", sigma, lambda x: True,
                                        UniformEnsemble(sigma))
        f, image = to_binary(problem)
        if any(f.size_growth(n) != expected_growth[size](n) for n in range(6)):
            ok = False
            details.append(("growth", size))
        report = verify_cs(f, problem.measure, image.measure, 5)
        if not report.passed:
            ok = False
            details.append(("cs", size, report.violations[:3]))
    announce(6, "pushforward/conditional ensembles match enumeration (n<=10); "
                "binary-alphabet map verifies as change-of-size (|A| in 1,3,4)",
             ok, started)
    assert ok, details


def test_criterion_07_control_sequence_inequalities():
    started = time.monotonic()
    from gclab.machine import TuringMachine

    scanner = _two_state_machine()  # halts at the first zero
    abc = Alphabet(("a", "b", "c"))
    problem = DistributionalProblem("abc", abc, lambda x: True, UniformEnsemble(abc))
    f, image = to_binary(problem)
    cs_report = check_control_transfer(scanner, f, Polynomial((2, 1)),
                                       problem.measure, image.measure, 8)

    from gclab.measure import TableEnsemble

    entries = {}
    for n in range(1, 9):
        words = ["".join(w) for w in itertools.product("01", repeat=n)]
        entries[words[0]] = Fraction(2, 2**n)
        for w in words[1:-1]:
            entries[w] = Fraction(1, 2**n)
        entries[words[-1]] = Fraction(0)
    bounded = TableEnsemble(BINARY, entries, n_max=8)
    bounded.validate(8)
    cm_report = check_control_transfer(
        scanner, identity_reduction(BINARY), Polynomial((0, 1)),
        bounded, UniformEnsemble(BINARY), 8, d=Polynomial((2,)),
    )
    ok = cs_report.passed and cm_report.passed
    announce(7, "control-sequence transfer inequalities, change-of-size and "
                "change-of-measure forms (k<=8)", ok, started)
    assert cs_report.passed, cs_report.violations[:3]
    assert cm_report.passed, cm_report.violations[:3]


def test_criterion_08_doubling_homomorphism_fixture():
    started = time.monotonic()
    f = example41_reduction()
    size_report = verify_size_invariance(f, 4)
    uniform = UniformEnsemble(BINARY)

    def tiling_count(n: int) -> int:
        # independent oracle: a(n) = a(n-1) + a(n-2), a(0) = a(1) = 1
        a, b = 1, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    density_ok = all(
        subset_mass(uniform, n, example41_image_member) == Fraction(tiling_count(n), 2**n)
        for n in range(15)
    )
    ok = (not size_report.passed) and density_ok
    announce(8, "doubling homomorphism fails size-invariance; image density "
                "equals the tiling recurrence a(n)/2^n (n<=14)", ok, started)
    assert not size_report.passed, "the doubling map must fail size-invariance"
    assert density_ok


def test_criterion_09_compression_bounds():
    started = time.monotonic()
    from gclab.measure import TableEnsemble

    worked_entries = {"0": Fraction(1, 2), "1": Fraction(1, 2),
                    "00": Fraction(1, 2), "01": Fraction(1, 4),
                    "10": Fraction(1, 8), "11": Fraction(1, 8)}
    for n in range(3, 11):
        for letters in itertools.product("01", repeat=n):
            worked_entries["".join(letters)] = Fraction(1, 2**n)
    worked_table = TableEnsemble(BINARY, worked_entries, n_max=10)
    skewed_entries = {"0": Fraction(3, 4), "1": Fraction(1, 4)}
    for n in range(2, 11):
        skewed_entries["0" * n] = Fraction(3, 4)
        skewed_entries["0" * (n - 1) + "1"] = Fraction(1, 8)
        skewed_entries["1" + "0" * (n - 1)] = Fraction(1, 8)
    skewed = TableEnsemble(BINARY, skewed_entries, n_max=10)
    corpus = [UniformEnsemble(BINARY), worked_table, skewed, DBHNuEnsemble()]
    ok = True
    details = []
    for mu in corpus:
        for n in range(11):
            threshold = Fraction(1, 2**n)
            for x in BINARY.sphere(n):
                mass = mu.mass(x)
                if n >= 1 and mass > threshold:
                    prime = x_prime(mu, x)
                    scan = x_prime_scan(*mu.interval(x), len(x))
                    if prime != scan:
                        ok = False
                        details.append((mu.kind, x.text(), prime.text(), scan.text()))
                double = x_double_prime(mu, x)
                if len(double) > n + 1 or mass > 4 * Fraction(1, 2 ** len(double)):
                    ok = False
                    details.append((mu.kind, x.text(), "bound"))
    announce(9, "dyadic compression: dual address implementations agree; "
                "|x''| <= |x|+1 and mass <= 4*2^-|x''| (|x|<=10, four ensembles)",
             ok, started)
    assert ok, details[:5]


def test_criterion_10_reproducibility():
    started = time.monotonic()
    from gclab.machine import TuringMachine

    machine = TuringMachine(
        states=("q0", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(("q0", "0", "q1", "0", "R"), ("q0", "1", "q0", "1", "L")),
        name="loop-on-one",
    )
    uniform = UniformEnsemble(BINARY)
    sampled = [
        control_sequence(machine, Polynomial((0, 1)), uniform, 5,
                         samples=2000, seed=2024).to_csv()
        for _ in range(2)
    ]
    byte_identical = sampled[0] == sampled[1]
    exact_a = control_sequence(machine, Polynomial((0, 1)), uniform, 5, seed=1).to_csv()
    exact_b = control_sequence(machine, Polynomial((0, 1)), uniform, 5, seed=2).to_csv()
    seed_independent = exact_a == exact_b
    draws_repeat = sample_sphere(uniform, 4, 500, seed=7) == sample_sphere(
        uniform, 4, 500, seed=7
    )
    ok = byte_identical and seed_independent and draws_repeat
    announce(10, "sampled runs are byte-identical per seed; exact runs are "
                 "seed-independent", ok, started)
    assert ok
