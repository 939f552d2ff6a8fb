import itertools
from fractions import Fraction
from math import factorial

import pytest

from hesslab.partitions import (
    conjugate,
    dim_irrep,
    dominance_leq,
    invariant_dim,
    partitions_of,
    young_subgroup_blocks,
)
from oracles import character_value, conjugacy_class_size, z_order


def partition_count_oracle(n: int) -> int:
    # classic coin-change DP, independent of the recursive enumerator
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def character_degree(lam) -> int:
    # the character at the identity, by Murnaghan-Nakayama, independent of hook lengths
    return character_value(lam, (1,) * sum(lam))


def test_partition_counts_match_dp_oracle():
    for n in range(1, 13):
        assert len(partitions_of(n)) == partition_count_oracle(n)


def test_partitions_of_8_has_22_elements():
    assert len(partitions_of(8)) == 22


def test_partitions_reverse_lex_and_valid():
    for n in range(1, 9):
        parts = partitions_of(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        assert parts == tuple(sorted(parts, reverse=True))
        for lam in parts:
            assert sum(lam) == n
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def test_partitions_out_of_range():
    with pytest.raises(ValueError):
        partitions_of(0)
    with pytest.raises(ValueError):
        partitions_of(13)


def test_conjugate_examples():
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_dominance_examples():
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    assert dominance_leq((2, 2), (3, 1))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1, 1, 1))


def test_dominance_antisymmetry():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                    assert lam == mu


def test_conjugation_reverses_dominance():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert dominance_leq(lam, mu) == dominance_leq(conjugate(mu), conjugate(lam))


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character_value((n,), mu) == 1
            assert character_value((1,) * n, mu) == (-1) ** (n - len(mu))


def test_standard_character_is_fixed_points_minus_one():
    # the permutation representation splits as trivial + standard
    for n in range(2, 7):
        for mu in partitions_of(n):
            fixed = sum(1 for part in mu if part == 1)
            assert character_value((n - 1, 1), mu) == fixed - 1


def test_character_21_on_3_cycle():
    # trace of the 3-cycle in the 2x2 matrix model of the standard rep of S_3:
    # [[0,-1],[1,-1]] has trace -1
    assert character_value((2, 1), (3,)) == -1


def test_dimensions_match_hook_length_formula():
    # dim_irrep is the hook-length formula; all 271 partitions with n <= 12
    checked = 0
    for n in range(1, 13):
        for lam in partitions_of(n):
            assert dim_irrep(lam) == character_degree(lam), lam
            checked += 1
    assert checked == 271


def test_sum_of_squared_dimensions():
    for n in range(1, 8):
        assert sum(dim_irrep(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_class_sizes_partition_the_group():
    for n in range(1, 8):
        assert sum(conjugacy_class_size(mu) for mu in partitions_of(n)) == factorial(n)
        for mu in partitions_of(n):
            assert conjugacy_class_size(mu) * z_order(mu) == factorial(n)


def test_character_orthogonality_small():
    # first kind: sum over classes |C| chi^a chi^b = n! delta. n <= 5 here,
    # the n <= 7 battery runs in the acceptance suite.
    for n in range(1, 6):
        parts = partitions_of(n)
        for lam in parts:
            for kap in parts:
                total = sum(
                    conjugacy_class_size(mu)
                    * character_value(lam, mu)
                    * character_value(kap, mu)
                    for mu in parts
                )
                assert total == (factorial(n) if lam == kap else 0)


def test_character_table_vs_brute_force_s4():
    # the ultimate oracle at n=4: build every irreducible character value by
    # averaging over explicit permutation products is overkill, but the class
    # function property is checkable: column orthogonality.
    n = 4
    parts = partitions_of(n)
    for mu in parts:
        for nu in parts:
            total = sum(character_value(lam, mu) * character_value(lam, nu) for lam in parts)
            assert total == (z_order(mu) if mu == nu else 0)


def test_young_subgroup_blocks():
    assert young_subgroup_blocks((), 4) == (1, 1, 1, 1)
    assert young_subgroup_blocks((1, 2), 4) == (3, 1)
    assert young_subgroup_blocks((1, 3), 4) == (2, 2)
    assert young_subgroup_blocks((1, 2, 3), 4) == (4,)


def test_invariant_dim_examples():
    for n in range(1, 7):
        for J_size in range(n):
            for J in itertools.combinations(range(1, n), J_size):
                assert invariant_dim((n,), J) == 1
    assert invariant_dim((2, 1), (1,)) == 1
    for n in range(2, 7):
        assert invariant_dim((1,) * n, (1,)) == 0
        full = tuple(range(1, n))
        for lam in partitions_of(n):
            assert invariant_dim(lam, full) == (1 if lam == (n,) else 0)


def test_invariant_dim_empty_J_is_dimension():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert invariant_dim(lam, ()) == dim_irrep(lam)


def test_induced_module_dimension_count():
    # Frobenius reciprocity oracle: sum_lam invariant_dim * dim equals the
    # index [S_n : W_J], the dimension of the coset permutation module
    for n in range(2, 7):
        for J_size in range(n):
            for J in itertools.combinations(range(1, n), J_size):
                order = 1
                for size in young_subgroup_blocks(J, n):
                    order *= factorial(size)
                total = sum(
                    invariant_dim(lam, J) * dim_irrep(lam) for lam in partitions_of(n)
                )
                assert total == factorial(n) // order


def class_average_invariant_dim(lam, J) -> int:
    """dim of the W_J-fixed part of lam as the average of chi^lam over W_J.

    Sums class by class: a class of a product of symmetric groups is a tuple
    of per-block cycle types, its size the product of the per-block class
    sizes, and its cycle type in S_n the sorted concatenation.
    """
    sizes = young_subgroup_blocks(J, sum(lam))
    order = 1
    for b in sizes:
        order *= factorial(b)
    acc = 0
    for combo in itertools.product(*(partitions_of(b) for b in sizes)):
        weight = 1
        for mu in combo:
            weight *= conjugacy_class_size(mu)
        acc += weight * character_value(lam, tuple(sorted((p for mu in combo for p in mu), reverse=True)))
    dim = Fraction(acc, order)
    assert dim.denominator == 1 and dim >= 0
    return int(dim)


def test_invariant_dim_matches_character_average():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for J_size in range(n):
                for J in itertools.combinations(range(1, n), J_size):
                    assert invariant_dim(lam, J) == class_average_invariant_dim(lam, J), (lam, J)

