"""Density sequences, control sequences, and reproducible sampling.

The observable side of generic behaviour at finite scale: for a subset S
and an ensemble mu, the density sequence n -> mu_n(S within sphere n);
for a machine A and a polynomial bound p, the control sequence
n -> mu_n{x : the minimal deciding time of A on x exceeds p(n)}.
DontKnow answers, breaks, and exhausted budgets all count as exceeding
(their time is infinite).

Nothing here asserts an asymptotic class.  ``classify_decay`` fits the
finite prefix and labels it, and says so loudly: it is a heuristic aid,
never a claim about limits.

Sampling is funnelled through one named generator: the stream for sphere
n under seed s is a Mersenne Twister seeded with splitmix64 applied to
(s, n), which makes every sampled sequence bit-reproducible from (seed,
n) alone.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .machine import Machine, min_deciding_steps
from .measure import (
    DBHNuEnsemble,
    HorizonError,
    SphericalEnsemble,
    TableEnsemble,
    UniformEnsemble,
    invert_mu_star,
    subset_mass,
)
from .words import Word


@dataclass(frozen=True)
class Polynomial:
    """A polynomial with nonnegative integer coefficients, c0 + c1*n + ...

    Strictly increasing whenever some coefficient of positive degree is
    nonzero, which is what the size-growth and guard roles require.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if any(c < 0 or not isinstance(c, int) for c in self.coeffs):
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


@dataclass
class SequenceEntry:
    n: int
    value: Fraction
    mode: str = "exact"  # or "sampled"
    samples: int = 0
    seed: Optional[int] = None


@dataclass
class DensitySequence:
    """Per-sphere masses indexed by radius: the density sequence of a
    subset, or the control sequence of a machine (the mass of inputs on
    which it overruns its bound)."""

    entries: list[SequenceEntry] = field(default_factory=list)

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
    ``subset_mass``.  Otherwise ``samples`` inputs per sphere are drawn
    from mu with the seeded per-sphere stream, and the empirical overrun
    fraction is reported (an exact rational with denominator
    ``samples``).
    """
    seq = DensitySequence()
    if samples is None:
        for n in range(n_max + 1):
            bound = p(n)
            total = subset_mass(mu, n, lambda x: exceeds_bound(machine, x, bound))
            seq.entries.append(SequenceEntry(n, total))
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


@dataclass
class DecayReport:
    """HEURISTIC decay label for a finite sequence prefix.

    label is one of "no decay", "polynomial", "exponential"; the fitted
    rate accompanies it.  This never asserts the asymptotic behaviour:
    it is a least-squares fit to finitely many exact points.
    """

    label: str
    poly_exponent: Optional[float]
    exp_rate: Optional[float]
    sse_poly: Optional[float]
    sse_exp: Optional[float]
    points_used: int
    note: str = "HEURISTIC finite-prefix fit; asymptotic classes are never asserted"

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def _least_squares(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Fit y = a + b x; return (a, b, sum of squared residuals)."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return my, 0.0, sum((y - my) ** 2 for y in ys)
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    a = my - b * mx
    sse = sum((y - (a + b * x)) ** 2 for x, y in zip(xs, ys))
    return a, b, sse


def classify_decay(seq: DensitySequence) -> DecayReport:
    """Least-squares fit of log-values against log n and against n.

    Needs at least 4 positive exact points with n >= 1.  Zero values are
    dropped from the fit (they decay faster than any model here).
    """
    points = [
        (e.n, float(e.value))
        for e in seq.entries
        if e.n >= 1 and e.mode == "exact" and e.value > 0
    ]
    if len(points) < 4:
        raise ValueError("classify_decay needs at least 4 positive exact points")
    ns = [p[0] for p in points]
    logs = [math.log(p[1]) for p in points]
    _, slope_poly, sse_poly = _least_squares([math.log(n) for n in ns], logs)
    _, slope_exp, sse_exp = _least_squares([float(n) for n in ns], logs)
    spread = max(logs) - min(logs)
    if spread < 0.05:
        label, poly_k, rate = "no decay", 0.0, 0.0
    elif sse_exp < sse_poly:
        label, poly_k, rate = "exponential", -slope_poly, math.exp(slope_exp)
    else:
        label, poly_k, rate = "polynomial", -slope_poly, math.exp(slope_exp)
    return DecayReport(
        label=label,
        poly_exponent=poly_k,
        exp_rate=rate,
        sse_poly=sse_poly,
        sse_exp=sse_exp,
        points_used=len(points),
    )


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
    """``count`` independent draws from sphere n of mu; reproducible per
    (seed, n).

    Uniform ensembles draw symbols directly; table ensembles invert the
    cumulative distribution at a 64-bit dyadic; the bounded-halting
    ensemble draws the leading-ones count uniformly and then a uniform
    suffix.  Other kinds have no sampler.
    """
    rng = sphere_stream(seed, n)
    alphabet = mu.alphabet
    if isinstance(mu, UniformEnsemble):
        symbols = alphabet.symbols
        return [
            Word(alphabet, tuple(symbols[rng.randrange(len(symbols))] for _ in range(n)))
            for _ in range(count)
        ]
    if isinstance(mu, DBHNuEnsemble):
        out = []
        for _ in range(count):
            if n == 0:
                out.append(alphabet.empty)
                continue
            m = rng.randrange(n)
            w = "".join(str(rng.randrange(2)) for _ in range(n - m - 1))
            out.append(alphabet.word("1" * m + "0" + w))
        return out
    if isinstance(mu, TableEnsemble):
        return [
            invert_mu_star(mu, n, Fraction(rng.getrandbits(64) + 1, 1 << 64))  # t in (0, 1]
            for _ in range(count)
        ]
    raise HorizonError(f"no sampler for ensemble kind {mu.kind!r}")
