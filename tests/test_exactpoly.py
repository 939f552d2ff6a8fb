"""Division by a linear form in the oracle polynomial algebra: the exact
routine the oracle edge check, flow-up decomposition and localization
integrals run on, and the reference for the library's integer remainder
tables."""

import random
from fractions import Fraction

import pytest

from hesslab.gkm import monomials
from oracles import Poly, divmod_linear, t


def pair_forms(n: int):
    return [t(n, i) - t(n, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def pivot(L: Poly) -> int:
    """Index of the first variable with a nonzero coefficient in L."""
    return min(i for mono in L.c for i, e in enumerate(mono) if e)


def random_poly(rng, m: int, max_degree: int) -> Poly:
    """Random rational polynomial with terms of mixed degrees up to max_degree."""
    coeffs = {}
    for d in range(max_degree + 1):
        for mono in monomials(m, d):
            if rng.random() < 0.4:
                coeffs[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(m, coeffs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_divmod_linear_splits_every_pair_form(n):
    rng = random.Random(f"exactpoly:{n}")
    for _ in range(8):
        P = random_poly(rng, n - 1, rng.randint(0, 6))
        for L in pair_forms(n):
            Q, R = divmod_linear(P, L)
            assert Q * L + R == P
            v = pivot(L)
            assert all(mono[v] == 0 for mono in R.c)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_divmod_linear_exact_multiples(n):
    rng = random.Random(f"exactpoly:multiples:{n}")
    for _ in range(8):
        A = random_poly(rng, n - 1, rng.randint(0, 5))
        for L in pair_forms(n):
            Q, R = divmod_linear(A * L, L)
            assert Q == A
            assert R.is_zero()


def test_divmod_linear_remainder_is_restriction_to_hyperplane():
    # P = t1^2 + t2 divided by t1 - t2: on t1 = t2 the remainder is t2^2 + t2
    P = Poly(2, {(2, 0): 1, (0, 1): 1})
    Q, R = divmod_linear(P, Poly.linear([1, -1]))
    assert R == Poly(2, {(0, 2): 1, (0, 1): 1})
    assert Q == Poly(2, {(1, 0): 1, (0, 1): 1})
    # the pivot is the first variable that occurs, here t2
    Q, R = divmod_linear(P, Poly.linear([0, 2]))
    assert R == Poly(2, {(2, 0): 1})
    assert Q == Poly(2, {(0, 0): Fraction(1, 2)})


@pytest.mark.parametrize(
    "L",
    [
        Poly.zero(2),
        Poly.const(2, 3),
        Poly(2, {(2, 0): 1}),
        Poly(2, {(1, 1): 1}),
        Poly(2, {(1, 0): 1, (0, 0): 1}),
        Poly(2, {(1, 0): 1, (0, 2): -1}),
    ],
    ids=repr,
)
def test_divmod_linear_rejects_non_linear_divisors(L):
    with pytest.raises(ValueError):
        divmod_linear(Poly(2, {(1, 0): 1}), L)
