import itertools
from math import comb

import pytest

from hesslab.hessenberg import (
    _functions,
    check_hessenberg,
    dimension,
    enumerate_hessenberg,
    hessenberg_str,
    is_indecomposable,
    parse_hessenberg,
)
from oracles import annihilator_pattern, incomparability_graph

CATALAN = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}


def test_validation():
    assert check_hessenberg((2, 3, 3)) == (2, 3, 3)
    assert check_hessenberg([1, 2, 3]) == (1, 2, 3)
    with pytest.raises(ValueError):
        check_hessenberg((2, 1, 3))  # decreasing
    with pytest.raises(ValueError):
        check_hessenberg((0, 2, 3))  # below diagonal
    with pytest.raises(ValueError):
        check_hessenberg((2, 3, 4))  # exceeds n
    with pytest.raises(ValueError):
        check_hessenberg(())


def test_enumeration_counts_are_catalan():
    for n, c in CATALAN.items():
        assert len(enumerate_hessenberg(n)) == c


def test_enumeration_reference_list_n3():
    assert enumerate_hessenberg(3) == (
        (1, 2, 3),
        (1, 3, 3),
        (2, 2, 3),
        (2, 3, 3),
        (3, 3, 3),
    )


def test_enumeration_matches_filtered_product():
    # the prefix recursion against every tuple with i <= h(i) <= n, filtered
    # for nondecreasing (and for indecomposable), in the same order
    for n in range(1, 10):
        product = [
            h
            for h in itertools.product(*(range(i, n + 1) for i in range(1, n + 1)))
            if all(a <= b for a, b in zip(h, h[1:]))
        ]
        assert _functions(n) == tuple(product), n
        if n >= 2:
            assert enumerate_hessenberg(n) is _functions(n)
            indecomposable = tuple(h for h in product if all(h[i - 1] > i for i in range(1, n)))
            assert enumerate_hessenberg(n, indecomposable_only=True) == indecomposable, n
    # past the public range: Catalan many, sorted, all Hessenberg functions
    for n in (10, 11, 12):
        functions = _functions(n)
        assert len(functions) == comb(2 * n, n) // (n + 1)
        assert list(functions) == sorted(set(functions))
        assert all(check_hessenberg(h) == h for h in functions[:: 997])


def test_indecomposable_counts_are_shifted_catalan():
    # h with h(i) >= i+1 for i < n biject with Hessenberg functions of size
    # n-1 shifted, giving the Catalan number C_{n-1}
    for n in range(3, 8):
        assert len(enumerate_hessenberg(n, indecomposable_only=True)) == CATALAN[n - 1]


def test_indecomposable_examples():
    assert is_indecomposable((2, 3, 3))
    assert is_indecomposable((3, 3, 3))
    assert not is_indecomposable((1, 2, 3))
    assert not is_indecomposable((2, 2, 3))


def test_dimension_examples():
    assert dimension((1, 2, 3)) == 0
    assert dimension((2, 3, 3)) == 2
    assert dimension((3, 3, 3)) == 3
    assert dimension((4, 4, 4, 4)) == 6


def test_dimension_equals_edge_count():
    for n in range(2, 7):
        for h in enumerate_hessenberg(n):
            assert dimension(h) == len(incomparability_graph(h))


def test_annihilator_pattern_complements_graph():
    # strictly-upper slots split: (i,j) with j <= h(i) are graph edges,
    # (i,j) with j > h(i) are annihilator slots
    for n in range(2, 7):
        for h in enumerate_hessenberg(n):
            pattern = annihilator_pattern(h)
            edges = set(incomparability_graph(h))
            assert len(pattern) + len(edges) == n * (n - 1) // 2
            assert all((i, j) not in edges for (i, j) in pattern)
            assert all(j > h[i - 1] for (i, j) in pattern)


def test_annihilator_extremes():
    assert len(annihilator_pattern((1, 2, 3))) == 3
    assert len(annihilator_pattern((3, 3, 3))) == 0
    assert annihilator_pattern((2, 3, 3)) == frozenset({(1, 3)})


def test_incomparability_graph_hexagon():
    assert incomparability_graph((2, 3, 3)) == ((1, 2), (2, 3))
    assert incomparability_graph((3, 3, 3)) == ((1, 2), (1, 3), (2, 3))
    assert incomparability_graph((1, 2, 3)) == ()


def test_parse_and_str_roundtrip():
    assert parse_hessenberg("2,3,3") == (2, 3, 3)
    assert hessenberg_str((2, 3, 3)) == "2,3,3"
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            assert parse_hessenberg(hessenberg_str(h)) == h
    with pytest.raises(ValueError):
        parse_hessenberg("3,3")  # h(1) > n
    with pytest.raises(ValueError):
        parse_hessenberg("a,b")
    with pytest.raises(ValueError):
        parse_hessenberg("")


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_hessenberg(1)
    with pytest.raises(ValueError):
        enumerate_hessenberg(10)
