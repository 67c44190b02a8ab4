import itertools
import signal
from fractions import Fraction

import pytest

from gclab import (
    BINARY,
    DistributionalProblem,
    TableEnsemble,
    TuringMachine,
    UniformEnsemble,
    halts_within,
)
from gclab.measure import DBHNuEnsemble

# Per-test wall-clock limit: a search that never ends fails its own test
# instead of hanging the suite.  The slowest test takes about 2 s.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT_S``.  Not an
    ``Exception`` nor pytest's ``Failed``, both of which hypothesis
    catches and shrinks on, rerunning the hung example with no alarm left."""


def _time_out(signum, frame):
    raise TimeLimitExceeded(f"test ran past its {TEST_TIME_LIMIT_S} s limit")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Run each test's call phase under a one-shot ``SIGALRM`` timer,
    cancelled when the call returns or raises."""
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def halt1():
    """Halts in exactly one step on every input (including the empty one).

    The final-state rows never fire but make the table a total function,
    so the machine classifies as fully deterministic.
    """
    return TuringMachine(
        states=("q0", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "q1", "0", "R"),
            ("q0", "1", "q1", "1", "R"),
            ("q0", "_", "q1", "0", "R"),
            ("q1", "0", "q1", "0", "R"),
            ("q1", "1", "q1", "1", "R"),
            ("q1", "_", "q1", "0", "R"),
        ),
    )


@pytest.fixture(scope="session")
def loop():
    """Never halts: scans right forever."""
    return TuringMachine(
        states=("q0", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "q0", "0", "R"),
            ("q0", "1", "q0", "1", "R"),
            ("q0", "_", "q0", "0", "R"),
        ),
    )


@pytest.fixture(scope="session")
def breaker():
    """Breaks immediately: empty transition table."""
    return TuringMachine(
        states=("q0", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(),
    )


@pytest.fixture(scope="session")
def find_zero():
    """Two states: halts at the first 0 of the input, breaks on all-ones."""
    return TuringMachine(
        states=("q0", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "q1", "0", "R"),
            ("q0", "1", "q0", "1", "R"),
        ),
    )


@pytest.fixture(scope="session")
def contains01_ntm():
    """Nondeterministic acceptor of words with a "01" factor.

    From the scan state it may guess that the current 0 starts the
    pattern; the guess branch insists on reading 1 next.  Halting
    computations exist exactly on words containing "01", and every
    halting computation takes at most |x| steps.
    """
    return TuringMachine(
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
    )


@pytest.fixture(scope="session")
def loop_on_one():
    """Halts in one step on inputs starting with 0, loops on a leading 1,
    breaks on the empty word."""
    return TuringMachine(
        states=("q0", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "0", "q1", "0", "R"),
            ("q0", "1", "q0", "1", "L"),
        ),
    )


@pytest.fixture(scope="session")
def answer_machine():
    """A decider with the answer convention: halts with the head on
    yes-yes for inputs starting with 1, yes-no for inputs starting with
    0, and the dont-know marker on the empty input.  Two steps always."""
    return TuringMachine(
        states=("q0", "qa", "qb", "qc", "q1"),
        initial="q0",
        final="q1",
        tape_alphabet=BINARY,
        blank="_",
        transitions=(
            ("q0", "1", "qa", "1", "R"),
            ("qa", "0", "q1", "1", "L"),
            ("qa", "1", "q1", "1", "L"),
            ("qa", "_", "q1", "1", "L"),
            ("q0", "0", "qb", "1", "R"),
            ("qb", "0", "q1", "0", "L"),
            ("qb", "1", "q1", "0", "L"),
            ("qb", "_", "q1", "0", "L"),
            ("q0", "_", "qc", "0", "R"),
            ("qc", "_", "q1", "0", "L"),
        ),
        yes_symbol="1",
        no_symbol="0",
    )


@pytest.fixture(scope="session")
def uniform():
    return UniformEnsemble(BINARY)


@pytest.fixture(scope="session")
def nu():
    return DBHNuEnsemble()


def _geometric_entries(n_top: int) -> dict[str, Fraction]:
    """Sphere n carries masses 1/2, 1/4, ..., 2^-(n-1), 2^-n, 2^-n on its
    lexicographically first words; the rest get zero."""
    entries: dict[str, Fraction] = {}
    for n in range(1, n_top + 1):
        masses = [Fraction(1, 2**j) for j in range(1, n)] + [Fraction(1, 2**n)] * 2
        for letters, mass in zip(itertools.product("01", repeat=n), masses):
            entries["".join(letters)] = mass
    return entries


@pytest.fixture(scope="session")
def geometric_table():
    table = TableEnsemble(BINARY, _geometric_entries(10), n_max=10)
    table.validate()
    return table


@pytest.fixture(scope="session")
def worked_table():
    """The worked four-word table on sphere 2 (1/2, 1/4, 1/8, 1/8),
    uniform elsewhere up to radius 10."""
    entries: dict[str, Fraction] = {
        "0": Fraction(1, 2),
        "1": Fraction(1, 2),
        "00": Fraction(1, 2),
        "01": Fraction(1, 4),
        "10": Fraction(1, 8),
        "11": Fraction(1, 8),
    }
    for n in range(3, 11):
        for letters in itertools.product("01", repeat=n):
            entries["".join(letters)] = Fraction(1, 2**n)
    table = TableEnsemble(BINARY, entries, n_max=10)
    table.validate()
    return table


@pytest.fixture(scope="session")
def skewed_table():
    """Concentrated masses 3/4, 1/8, 1/8 per sphere; exercises the
    dyadic-address branch with a cumulative interval ending at 1."""
    entries: dict[str, Fraction] = {"0": Fraction(3, 4), "1": Fraction(1, 4)}
    for n in range(2, 11):
        zeros = "0" * n
        entries[zeros] = Fraction(3, 4)
        entries["0" * (n - 1) + "1"] = Fraction(1, 8)
        entries["1" + "0" * (n - 1)] = Fraction(1, 8)
    table = TableEnsemble(BINARY, entries, n_max=10)
    table.validate()
    return table


@pytest.fixture(scope="session")
def contains01_problem(contains01_ntm):
    """Toy distributional problem: words with a "01" factor, uniform
    masses, membership decided by bounded configuration-tree search."""

    def positive(x):
        return halts_within(contains01_ntm, x, len(x) + 1)

    return DistributionalProblem(
        name="contains01-uniform",
        positive=positive,
        measure=UniformEnsemble(BINARY),
    )


@pytest.fixture(scope="session")
def contains01_table_problem(contains01_ntm, geometric_table):
    def positive(x):
        return halts_within(contains01_ntm, x, len(x) + 1)

    return DistributionalProblem(
        name="contains01-geometric",
        positive=positive,
        measure=geometric_table,
    )
