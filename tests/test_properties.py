"""Property tests over randomly weighted ensembles.

Random integer weights give per-sphere masses with arbitrary (not just
dyadic) denominators, which is the hardest regime for the cumulative
walks, the rank inversion, and the two dyadic-address constructions.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gclab import BINARY, invert_mu_star, x_double_prime, x_prime
from gclab.measure import TableEnsemble, TransferredEnsemble, verify_transfer
from gclab.reductions import identity_reduction
from oracles import x_prime_scan


def weighted_table(weights_by_sphere: dict[int, list[int]]) -> TableEnsemble:
    entries: dict[str, Fraction] = {}
    n_max = max(weights_by_sphere)
    for n, weights in weights_by_sphere.items():
        total = sum(weights) or 1
        if sum(weights) == 0:
            weights = [1] + weights[1:]
        for x, w in zip(BINARY.sphere(n), weights):
            if w:
                entries[x.text()] = Fraction(w, total)
    return TableEnsemble(BINARY, entries, n_max=n_max)


def sphere_weights(n: int):
    return st.lists(st.integers(0, 15), min_size=2**n, max_size=2**n)


@st.composite
def random_tables(draw, top: int = 4):
    weights = {n: draw(sphere_weights(n)) for n in range(1, top + 1)}
    return weighted_table(weights)


@settings(max_examples=60, deadline=None)
@given(random_tables())
def test_spheres_sum_to_one_and_cumulative_identity(mu):
    for n in range(1, 5):
        assert mu.sphere_sum(n) == 1
        running = Fraction(0)
        for x in BINARY.sphere(n):
            assert mu.mu_star(x) == running
            running += mu.mass(x)
            assert mu.hat_mu(x) == running
        assert mu.hat_mu(x) == 1  # on the sphere's last word


@settings(max_examples=60, deadline=None)
@given(random_tables(), st.integers(1, 4), st.integers(1, 997), st.integers(2, 997))
def test_invert_mu_star_defining_property(mu, n, num, den):
    t = Fraction(min(num, den), den)  # lands in (0, 1]
    x = invert_mu_star(mu, n, t)
    assert mu.mu_star(x) < t <= mu.hat_mu(x)


@settings(max_examples=60, deadline=None)
@given(random_tables())
def test_dyadic_addresses_agree_and_bound_mass(mu):
    for n in range(1, 5):
        threshold = Fraction(1, 2**n)
        for x in BINARY.sphere(n):
            mass = mu.mass(x)
            if mass > threshold:
                prime = x_prime(mu, x)
                assert prime == x_prime_scan(*mu.interval(x), len(x))
                assert len(prime) <= n
                assert mass <= 2 * Fraction(1, 2 ** len(prime))
                value = Fraction(2 * int(prime.text(), 2) + 1, 2 ** len(prime))
                assert mu.mu_star(x) < value <= mu.hat_mu(x)
            double = x_double_prime(mu, x)
            assert len(double) <= n + 1
            assert mass <= 4 * Fraction(1, 2 ** len(double))


@settings(max_examples=25, deadline=None)
@given(random_tables(top=3))
def test_transfer_oracle_on_random_tables(mu):
    f = identity_reduction(BINARY)
    pushed = TransferredEnsemble(f, mu)
    assert verify_transfer(f, mu, pushed, 3).passed
