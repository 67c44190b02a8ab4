"""Word-map reductions between distributional problems.

A reduction here is a total word map with a size-growth function when
the map is size-invariant (image length depends only on input length
and is strictly increasing in it).

Two verified flavours:

* change-of-size: size-invariant, and the target ensemble is exactly the
  transfer of the source ensemble along the map;
* change-of-measure: size-preserving, and pointwise the image keeps at
  least a 1/d(|x|) fraction of the source mass.

``to_binary`` rebuilds any finite-alphabet problem over the binary
alphabet along ``binary_map``, rank-preservingly with linear size
growth.  The homomorphism 0 -> 00, 1 -> 1 is kept in the corpus as a
deliberate failing fixture: image sizes differ inside a sphere, so it
admits no size growth and transfers nothing useful.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .genericity import Polynomial, exceeds_bound, overrun_mass
from .machine import Machine
from .measure import (
    CheckReport,
    SphericalEnsemble,
    TransferredEnsemble,
    check_lower_bounds,
    fraction_str,
    size_inverse,
    subset_mass,
    verify_transfer,
)
from .words import (
    Alphabet,
    AlphabetMismatchError,
    BINARY,
    Word,
    rank_in_sphere,
    unrank,
)


class Reduction(NamedTuple):
    """A total word map; ``size_growth`` is None when the map is not
    size-invariant."""

    name: str
    source: Alphabet
    target: Alphabet
    func: Callable[[Word], Word]
    size_growth: Optional[Callable[[int], int]] = None

    def apply(self, x: Word) -> Word:
        if x.alphabet is not self.source:
            raise AlphabetMismatchError(f"{self.name}: input over wrong alphabet")
        y = self.func(x)
        if y.alphabet is not self.target:
            raise AlphabetMismatchError(f"{self.name}: image over wrong alphabet")
        return y


class DistributionalProblem(NamedTuple):
    """A decision problem bundled with its spherical ensemble."""

    name: str
    alphabet: Alphabet
    positive: Callable[[Word], bool]
    measure: SphericalEnsemble


def identity_reduction(alphabet: Alphabet) -> Reduction:
    return Reduction(
        name="identity",
        source=alphabet,
        target=alphabet,
        func=lambda x: x,
        size_growth=lambda n: n,
    )


def example41_reduction() -> Reduction:
    """The monoid homomorphism 0 -> 00, 1 -> 1 on binary words.

    Deliberately not size-invariant: inside one sphere the image length
    ranges from |x| (all ones) to 2|x| (all zeros).
    """

    def apply(x: Word) -> Word:
        return BINARY.word("".join("00" if s == "0" else "1" for s in x.letters))

    return Reduction(
        name="double-zero-homomorphism",
        source=BINARY,
        target=BINARY,
        func=apply,
    )


def example41_image_member(y: Word) -> bool:
    """Membership in the image {00, 1}*: can y be tiled by blocks 00 and 1?"""
    text = y.text()
    i = 0
    while i < len(text):
        if text[i] == "1":
            i += 1
        elif text.startswith("00", i):
            i += 2
        else:
            return False
    return True


def verify_size_invariance(f: Reduction, n_max: int) -> CheckReport:
    """Check |x1| < |x2| <=> |f(x1)| < |f(x2)| on all spheres up to n_max.

    Equal-length inputs must map to equal-length images (per-sphere
    constancy is forced by the equivalence), and per-sphere image sizes
    must be strictly increasing across spheres.  When a size growth is
    declared it must match the observed sizes.
    """
    report = CheckReport("size-invariance", n_max)
    prev_max: Optional[int] = None
    for k in range(n_max + 1):
        sizes = sorted({len(f.apply(x)) for x in f.source.sphere(k)})
        if len(sizes) > 1:
            report.add(
                f"sphere {k}",
                "one image size",
                f"sizes {sizes[0]}..{sizes[-1]}",
                "image size varies inside a sphere",
            )
        if prev_max is not None and sizes[0] <= prev_max:
            report.add(
                f"sphere {k}",
                f"> {prev_max}",
                str(sizes[0]),
                "image sizes not strictly increasing across spheres",
            )
        if f.size_growth is not None and len(sizes) == 1 and sizes[0] != f.size_growth(k):
            report.add(
                f"sphere {k}",
                str(f.size_growth(k)),
                str(sizes[0]),
                "declared size growth disagrees with the map",
            )
        prev_max = sizes[-1]
    return report


def verify_cs(
    f: Reduction, mu: SphericalEnsemble, nu: SphericalEnsemble, n_max: int
) -> CheckReport:
    """Change-of-size check: size-invariance on source spheres up to n_max
    plus exact equality of nu with the transfer of mu on all target
    spheres up to the image of n_max."""
    report = verify_size_invariance(f, n_max)
    report.check = "change-of-size"
    if f.size_growth is None:
        report.add("size growth", "declared", "missing", "cannot transfer without one")
        return report
    target_horizon = f.size_growth(n_max)
    inner = verify_transfer(f, mu, nu, target_horizon)
    report.violations.extend(inner.violations)
    report.details["target_horizon"] = target_horizon
    return report


def verify_cm(
    f: Reduction,
    mu: SphericalEnsemble,
    nu: SphericalEnsemble,
    d: Polynomial,
    n_max: int,
) -> CheckReport:
    """Change-of-measure check: the map preserves length and the image
    keeps at least mass/d(|x|) of every source point, exactly."""
    report = CheckReport("change-of-measure", n_max)

    def points():
        for k in range(n_max + 1):
            dk = d(k)
            for x in mu.alphabet.sphere(k):
                y = f.apply(x)
                if len(y) != k:
                    report.add(x.text(), f"|f(x)| = {k}", str(len(y)), "not size-preserving")
                elif not dk:
                    report.add(x.text(), "d(k) > 0", "0", "density polynomial vanishes")
                else:
                    yield x, nu.mass(y), mu.mass(x) / dk

    check_lower_bounds(report, points())
    return report


def _bits_needed(count: int) -> int:
    """Smallest m with 2^m >= count (count >= 1)."""
    return (count - 1).bit_length()


def binary_map(sigma: Alphabet) -> Reduction:
    """The change-of-size map from sigma onto the binary alphabet.

    One-letter alphabets map a^k to 0^k.  Two-letter ones pass through
    the identity.  Larger alphabets map the rank-r word of each sphere k
    to the rank-r word of the binary sphere that is just big enough
    (ceil(k * log2 |alphabet|) bits), which is injective and
    rank-preserving.
    """
    size = sigma.size
    if size == 2:
        return identity_reduction(sigma)
    if size == 1:
        return Reduction("unary-to-binary", sigma, BINARY,
                         lambda x: BINARY.word("0" * len(x)), lambda n: n)

    def growth(k: int) -> int:
        return _bits_needed(size**k) if k >= 1 else 0

    def rank_map(x: Word) -> Word:
        # the rank-r binary word of length g is r - 1 in g binary digits
        k = len(x)
        if k == 0:
            return BINARY.empty
        return Word.of_text(BINARY, format(rank_in_sphere(x) - 1, f"0{growth(k)}b"))

    return Reduction(f"rank-to-binary-{size}", sigma, BINARY, rank_map, growth)


def to_binary(problem: DistributionalProblem) -> tuple[Reduction, DistributionalProblem]:
    """Rebuild a problem over the binary alphabet along ``binary_map``.

    Binary problems pass through unchanged.  Otherwise image membership
    is decided by inverting the rank (the binary words past the last
    rank, and all but 0^k on the unary map, are outside), and the image
    measure is the transfer of the source measure.
    """
    sigma = problem.alphabet
    f = binary_map(sigma)
    if sigma.size == 2:
        return f, problem

    def member(y: Word) -> bool:
        k = size_inverse(f.size_growth, len(y))
        if k is None:
            return False
        r = rank_in_sphere(y)
        return r <= sigma.size**k and problem.positive(unrank(sigma, k, r))

    nu = TransferredEnsemble(f, problem.measure)
    image = DistributionalProblem(
        name=f"{problem.name}@binary", alphabet=BINARY, positive=member, measure=nu
    )
    return f, image


def check_control_transfer(
    machine: Machine,
    f: Reduction,
    p: Polynomial,
    mu: SphericalEnsemble,
    nu: SphericalEnsemble,
    n_max: int,
    d: Optional[Polynomial] = None,
) -> CheckReport:
    """Per source sphere k, with m = S(k) the image sphere, compare exactly

        mu_k{x : machine overruns p(m) on f(x)}          (left side)
        <=  d(k) * nu_m{y : machine overruns p(m) on y}   (right side)

    the finite-horizon transfer of control sequences along a reduction:
    change-of-size with d None (a factor of 1), change-of-measure with
    the density polynomial d of a size-preserving map.  Both sides are
    reported per sphere, with the least ratio right/left over the
    spheres where the left side is nonzero.
    """
    report = CheckReport("control-transfer", n_max)
    if f.size_growth is None:
        report.add("size growth", "declared", "missing")
        return report
    per_sphere = []

    def points():
        for k in range(n_max + 1):
            m = f.size_growth(k)
            bound = p(m)
            lhs = subset_mass(mu, k, lambda x: exceeds_bound(machine, f.apply(x), bound))
            rhs = overrun_mass(machine, nu, m, bound)
            if d is not None:
                rhs *= d(k)
            per_sphere.append(
                {"k": k, "image_sphere": m, "left": str(lhs), "right": str(rhs)}
            )
            yield f"sphere {k}", rhs, lhs

    min_ratio = check_lower_bounds(report, points())
    report.details["spheres"] = per_sphere
    if min_ratio is not None:
        report.details["min_ratio"] = fraction_str(min_ratio)
    return report


# ``perfbench/tracer.py`` wraps the change-of-measure check by this name; the
# name goes with the next change to the benchmark.
check_control_transfer_cm = check_control_transfer


def reduction_from_spec(spec: dict) -> Reduction:
    """Build a corpus reduction from its JSON description."""
    kind = spec["kind"]
    if kind == "identity":
        return identity_reduction(Alphabet(spec.get("alphabet", "01")))
    if kind == "example41":
        return example41_reduction()
    if kind == "bin_alph":
        return binary_map(Alphabet(spec["sigma"]))
    raise ValueError(f"unknown reduction kind {kind!r}")
