import random

import pytest

from hesslab.dotchar import dot_action_multiplicities
from hesslab.errors import CostGuardError
from hesslab.hessenberg import enumerate_hessenberg
from hesslab.partitions import conjugate, dominance_leq, partitions_of
from hesslab.springer import generic_jordan_type, support_check, support_violations
from oracles import annihilator_pattern, brute_force_orbit_oracle, jordan_type


def jordan_block_matrix(blocks):
    n = sum(blocks)
    M = [[0] * n for _ in range(n)]
    row = 0
    for b in blocks:
        for i in range(b - 1):
            M[row + i][row + i + 1] = 1
        row += b
    return M


def test_jordan_type_of_block_matrices():
    assert jordan_type(jordan_block_matrix((3,))) == (3,)
    assert jordan_type(jordan_block_matrix((2, 1))) == (2, 1)
    assert jordan_type(jordan_block_matrix((1, 1, 1))) == (1, 1, 1)
    assert jordan_type(jordan_block_matrix((4, 2, 1))) == (4, 2, 1)
    # block order does not matter
    assert jordan_type(jordan_block_matrix((1, 4, 2))) == (4, 2, 1)


def test_jordan_type_modular():
    M = jordan_block_matrix((3, 2))
    for p in (2, 3, 5):
        assert jordan_type(M, modulus=p) == (3, 2)


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        jordan_type([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        jordan_type([[0, 1], [1, 0]])


def test_generic_type_fixtures():
    assert generic_jordan_type((2, 2)) == (1, 1)  # empty pattern
    assert generic_jordan_type((3, 3, 3)) == (1, 1, 1)
    assert generic_jordan_type((1, 2, 3)) == (3,)  # full strictly-upper pattern
    assert generic_jordan_type((2, 3, 3)) == (2, 1)
    assert generic_jordan_type((1, 3, 3)) == (2, 1)
    assert generic_jordan_type(tuple(range(1, 5))) == (4,)


def sampled_generic_type(h, p, samples, rng):
    """Dominance maximum of the Jordan types of random pattern matrices over F_p.

    Every type in the pattern space is dominated by the generic one, so the
    sampled types must have a maximum; a draw without one fails loudly.
    """
    n = len(h)
    positions = sorted(annihilator_pattern(h))
    types = set()
    for _ in range(samples):
        M = [[0] * n for _ in range(n)]
        for i, j in positions:
            M[i - 1][j - 1] = rng.randrange(1, p)
        types.add(jordan_type(M, modulus=p))
    (best,) = [t for t in types if all(dominance_leq(u, t) for u in types)]
    return best


def chain_cover_sizes(h):
    """Most elements of P_h that k chains cover, k = 0..n, by Dilworth over all subsets.

    A subset is a union of k chains iff its largest antichain has at most k
    elements; i <_P j iff j > h(i).
    """
    n = len(h)
    width = [0] * (1 << n)
    for mask in range(1, 1 << n):
        elems = [i for i in range(1, n + 1) if mask >> (i - 1) & 1]
        if all(j <= h[i - 1] for i in elems for j in elems if i < j):
            width[mask] = len(elems)
        else:
            width[mask] = max(width[mask & ~(1 << (i - 1))] for i in elems)
    return [
        max(bin(mask).count("1") for mask in range(1 << n) if width[mask] <= k)
        for k in range(n + 1)
    ]


def test_generic_type_matches_sampling():
    rng = random.Random(1729)
    for n in range(2, 7):
        for h in enumerate_hessenberg(n):
            assert sampled_generic_type(h, 101, 12, rng) == generic_jordan_type(h), h


def test_generic_type_matches_exact_ranks():
    # exact rational rank sequences of pattern matrices with random integer
    # entries: the dominance maximum over three draws is lambda_H
    rng = random.Random(1729)
    for n in range(2, 7):
        for h in enumerate_hessenberg(n):
            positions = sorted(annihilator_pattern(h))
            types = set()
            for _ in range(3):
                M = [[0] * n for _ in range(n)]
                for i, j in positions:
                    M[i - 1][j - 1] = rng.randint(-9, 9)
                types.add(jordan_type(M))
            (best,) = [t for t in types if all(dominance_leq(u, t) for u in types)]
            assert best == generic_jordan_type(h), h


def test_generic_type_is_dilworth_chain_cover():
    for n in range(2, 8):
        for h in enumerate_hessenberg(n):
            covered = chain_cover_sizes(h)
            lam = tuple(b - a for a, b in zip(covered, covered[1:]) if b > a)
            assert generic_jordan_type(h) == lam, h


def test_generic_type_seed_stability():
    # seed is accepted and has no effect: lambda_H is exact
    for seed in (0, 1, 1729, 987654321):
        assert generic_jordan_type((2, 3, 3), seed=seed) == (2, 1)
        assert support_violations((2, 3, 3), seed=seed) == []
        for h in enumerate_hessenberg(4):
            assert generic_jordan_type(h, seed=seed) == generic_jordan_type(h)


def test_lambda_h_antitone_in_h():
    # larger h means smaller annihilator, hence more special generic type
    for n in (2, 3, 4):
        hs = enumerate_hessenberg(n)
        for h1 in hs:
            for h2 in hs:
                if all(a <= b for a, b in zip(h1, h2)):
                    assert dominance_leq(generic_jordan_type(h2), generic_jordan_type(h1))


def orbit_meets(lam, h) -> bool:
    # the nilpotent orbit of type lam meets the annihilator space iff lam <= lambda_H
    return dominance_leq(lam, generic_jordan_type(h))


def allowed(h) -> tuple:
    return tuple(support_check(dot_action_multiplicities(h), generic_jordan_type(h))[0])


def test_orbit_criterion_examples():
    assert orbit_meets((1, 1, 1), (2, 3, 3))
    assert orbit_meets((2, 1), (2, 3, 3))
    assert not orbit_meets((3,), (2, 3, 3))


def test_allowed_irreps_examples():
    assert allowed((1, 2, 3)) == tuple(partitions_of(3))
    assert allowed((3, 3, 3)) == ((3,),)
    assert allowed((2, 3, 3)) == ((3,), (2, 1))
    for n in (2, 3, 4):
        assert allowed((n,) * n) == ((n,),)
        assert allowed(tuple(range(1, n + 1))) == tuple(partitions_of(n))


def test_support_criterion_sweep_small():
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            assert support_violations(h) == [], h


def test_support_check_is_the_criterion():
    # one walk of the table gives the criterion's allowed list, written out
    # here independently, and the same witnesses whether support_violations
    # gets h or its table
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            gm = dot_action_multiplicities(h)
            lam_h = generic_jordan_type(h)
            want = [lam for lam in partitions_of(n) if dominance_leq(conjugate(lam), lam_h)]
            assert support_check(gm, lam_h) == (want, []), h
            for drop in (False, True):
                assert support_violations(gm, drop_conjugate=drop) == support_violations(h, drop_conjugate=drop)


def test_falsification_control():
    # dropping the conjugate must break already on the hexagon: the trivial
    # rep appears with multiplicity 4 but (3) is not dominated by (2,1)
    witnesses = support_violations((2, 3, 3), drop_conjugate=True)
    assert witnesses
    w = witnesses[0]
    assert w["lam"] == (3,)
    assert w["tested"] == (3,)
    assert w["lambda_H"] == (2, 1)
    assert w["total_multiplicity"] == 4


def test_brute_force_oracle_examples():
    assert brute_force_orbit_oracle((1, 1, 1), (2, 3, 3), 3)
    assert brute_force_orbit_oracle((2, 1), (2, 3, 3), 3)
    assert not brute_force_orbit_oracle((3,), (2, 3, 3), 3)
    for n in (2, 3):
        for h in enumerate_hessenberg(n):
            assert brute_force_orbit_oracle((1,) * n, h, 2)


def test_brute_force_oracle_guard():
    with pytest.raises(CostGuardError):
        brute_force_orbit_oracle((1,) * 5, (2, 3, 4, 5, 5), 2)
    with pytest.raises(ValueError):
        brute_force_orbit_oracle((1, 1, 1), (2, 3, 3), 7)


def test_orbit_criterion_vs_brute_force_n3():
    # the full n <= 4 battery with the p=2 fast path runs in the acceptance
    # suite; here the n <= 3 instances at every allowed prime
    for n in (2, 3):
        for h in enumerate_hessenberg(n):
            for lam in partitions_of(n):
                expected = orbit_meets(lam, h)
                for p in (2, 3, 5):
                    assert brute_force_orbit_oracle(lam, h, p) == expected, (h, lam, p)


def test_annihilator_pattern_slots_drive_the_oracle():
    # sanity on the pattern itself: hexagon has the single slot (1,3)
    assert annihilator_pattern((2, 3, 3)) == frozenset({(1, 3)})
