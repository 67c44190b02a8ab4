"""Density sequences, control sequences, and reproducible sampling.

The observable side of generic behaviour at finite scale: for a subset S
and an ensemble mu, the density sequence n -> mu_n(S within sphere n);
for a machine A and a polynomial bound p, the control sequence
n -> mu_n{x : the minimal deciding time of A on x exceeds p(n)}.
DontKnow answers, breaks, and exhausted budgets all count as exceeding
(their time is infinite).

Sampling is funnelled through one named generator: the stream for sphere
n under seed s is a Mersenne Twister seeded with splitmix64 applied to
(s, n), which makes every sampled sequence bit-reproducible from (seed,
n) alone.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .machine import Machine, VirtualMachine, cells_read, min_deciding_steps
from .measure import SphericalEnsemble, block_mass, exact_sum, subset_mass
from .words import Frozen, Word


class Polynomial(Frozen):
    """A polynomial with nonnegative integer coefficients, c0 + c1*n + ...

    Strictly increasing whenever some coefficient of positive degree is
    nonzero, which is what the size-growth and guard roles require.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        self._set(coeffs)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if any(c < 0 or not isinstance(c, int) for c in coeffs):
            raise ValueError("coefficients must be nonnegative integers")

    def __call__(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}n" if c != 1 else "n")
            else:
                parts.append(f"{c}n^{i}" if c != 1 else f"n^{i}")
        return " + ".join(parts) if parts else "0"


def parse_polynomial(source) -> Polynomial:
    """Accept a Polynomial, a coefficient list [c0, c1, ...], or a short
    string like "2n+1", "n^2+n+6", "5"."""
    if isinstance(source, Polynomial):
        return source
    if isinstance(source, (list, tuple)):
        return Polynomial(tuple(int(c) for c in source))
    text = str(source).replace(" ", "")
    coeffs: dict[int, int] = {}
    for term in text.replace("-", "+-").split("+"):
        if not term:
            continue
        if "n" in term:
            head, _, exp = term.partition("n")
            degree = int(exp.lstrip("^")) if exp else 1
            coeff = int(head) if head not in ("", "-") else (-1 if head == "-" else 1)
        else:
            degree, coeff = 0, int(term)
        coeffs[degree] = coeffs.get(degree, 0) + coeff
    top = max(coeffs) if coeffs else 0
    return Polynomial(tuple(coeffs.get(i, 0) for i in range(top + 1)))


class SequenceEntry(NamedTuple):
    n: int
    value: Fraction
    mode: str = "exact"  # or "sampled"
    samples: int = 0
    seed: Optional[int] = None


class DensitySequence:
    """Per-sphere masses indexed by radius: the density sequence of a
    subset, or the control sequence of a machine (the mass of inputs on
    which it overruns its bound)."""

    def __init__(self, entries: Optional[list[SequenceEntry]] = None) -> None:
        self.entries = [] if entries is None else entries

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,numerator,denominator,float_value,mode,samples,seed\n")
        for e in self.entries:
            seed = "" if e.seed is None else str(e.seed)
            out.write(
                f"{e.n},{e.value.numerator},{e.value.denominator},"
                f"{float(e.value)!r},{e.mode},{e.samples},{seed}\n"
            )
        return out.getvalue()


def density_sequence(
    mu: SphericalEnsemble,
    subset: Callable[[Word], bool],
    n_max: int,
    closed: Optional[Callable[[int], Fraction]] = None,
) -> DensitySequence:
    """The exact density of the subset in every sphere up to n_max, by
    ``subset_mass`` (a closed form, when given, lifts the horizon)."""
    seq = DensitySequence()
    for n in range(n_max + 1):
        seq.entries.append(SequenceEntry(n, subset_mass(mu, n, subset, closed)))
    return seq


def exceeds_bound(machine: Machine, x: Word, bound: int) -> bool:
    """True when the machine fails to stop with a usable answer within
    ``bound`` steps (break, overrun, or a DontKnow answer)."""
    return min_deciding_steps(machine, x, bound) is None


def overrun_mass(machine: Machine, mu: SphericalEnsemble, n: int, bound: int) -> Fraction:
    """mu_n{x : ``exceeds_bound(machine, x, bound)``}, exactly, up to
    ``ENUMERATION_CAP``: the one overrun-mass sum.

    A table machine's search reads a prefix x[:r] of its input (see
    ``cells_read``), so every word of sphere n that starts with it gets
    the same search and verdict, and those words form one lex block.
    The sphere is walked in lex order with one search per block: the
    next word searched is the first after the block, the lex successor
    of the read prefix padded with the first letter.  The walk always
    lands on the first word of a block: a word inside a block shares its
    prefix with the word before it, which would then have read the same
    cells and covered it.  Each overrunning block is weighed by
    ``block_mass``.  Virtual machines are asked word by word through
    ``subset_mass``.
    """
    if isinstance(machine, VirtualMachine):
        return subset_mass(mu, n, lambda x: exceeds_bound(machine, x, bound))
    mu._check_cap(n)
    alphabet = mu.alphabet
    symbols = alphabet.symbols
    successor = dict(zip(symbols, symbols[1:]))  # the last letter has none
    masses: list[Fraction] = []
    letters = (symbols[0],) * n
    while letters is not None:
        x = Word(alphabet, letters)
        seen: set = set()
        overruns = min_deciding_steps(machine, x, bound, seen=seen) is None
        r = cells_read(machine, seen, n)
        if overruns and r == n:  # a block of one word
            masses.append(mu.mass(x))
        elif overruns:
            masses.append(block_mass(mu, letters[:r], n))
        letters = _next_block(letters, r, successor, symbols[0])
    return exact_sum(masses)


def _next_block(letters: tuple, r: int, successor: dict, pad: str) -> Optional[tuple]:
    """The first word after the lex block of the words that start with
    letters[:r], or None when that block ends the sphere."""
    while r and letters[r - 1] not in successor:
        r -= 1
    if not r:
        return None
    return letters[: r - 1] + (successor[letters[r - 1]],) + (pad,) * (len(letters) - r)


def control_sequence(
    machine: Machine,
    p: Polynomial,
    mu: SphericalEnsemble,
    n_max: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> DensitySequence:
    """The control sequence of ``machine`` against the bound p under mu.

    With ``samples`` None each sphere is summed exactly by
    ``overrun_mass``.  Otherwise ``samples`` inputs per sphere are drawn
    from mu with the seeded per-sphere stream, and the empirical overrun
    fraction is reported (an exact rational with denominator
    ``samples``).
    """
    seq = DensitySequence()
    if samples is None:
        for n in range(n_max + 1):
            seq.entries.append(SequenceEntry(n, overrun_mass(machine, mu, n, p(n))))
        return seq
    if samples < 1:
        raise ValueError(f"sampling needs at least one sample per sphere, not {samples}")
    if seed is None:
        raise ValueError("sampling requires a seed")
    for n in range(n_max + 1):
        bound = p(n)
        draws = sample_sphere(mu, n, samples, seed)
        hits = sum(1 for x in draws if exceeds_bound(machine, x, bound))
        seq.entries.append(
            SequenceEntry(n, Fraction(hits, samples), mode="sampled", samples=samples, seed=seed)
        )
    return seq


# --- seeded, splittable sampling -------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 step; the documented seed-derivation primitive."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sphere_stream(seed: int, n: int) -> random.Random:
    """The per-sphere random stream: MT19937 seeded with
    splitmix64(splitmix64(seed) xor (n+1))."""
    derived = _splitmix64(_splitmix64(seed & _MASK64) ^ (n + 1))
    return random.Random(derived)


def sample_sphere(mu: SphericalEnsemble, n: int, count: int, seed: int) -> list[Word]:
    """``count`` independent draws from sphere n of mu, each made by
    ``mu.sample`` on the one stream of (seed, n), so reproducible per
    (seed, n).  The uniform, bounded-halting and table ensembles have
    samplers; the other kinds raise ``HorizonError``."""
    rng = sphere_stream(seed, n)
    return [mu.sample(rng, n) for _ in range(count)]
