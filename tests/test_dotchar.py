import itertools
from math import factorial

import pytest

from oracles import tableau_rows_by_shape

from hesslab import cli, dotchar
from hesslab.cli import all_parabolic_subsets
from hesslab.dotchar import (
    _blocks,
    _from_h_coeffs,
    _h_coeffs,
    _reversed,
    _tableau_table,
    betti_rs,
    chromatic_qsym,
    dot_action_multiplicities,
    multiplicities_from_json,
    multiplicities_json,
    regular_betti,
)
from hesslab.errors import ConsistencyError, CostGuardError
from hesslab.hessenberg import dimension, enumerate_hessenberg, is_indecomposable
from hesslab.partitions import conjugate, dim_irrep, invariant_dim, partitions_of, young_subgroup_blocks
from hesslab.symfunc import QPoly
from oracles import incomparability_graph, q_factorial, schur_inner_product


def brute_force_csf(h):
    """Direct product-loop coloring enumerator, nothing shared with the library."""
    n = len(h)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if j <= h[i - 1]]
    hist: dict[tuple, dict[int, int]] = {}
    for kappa in itertools.product(range(1, n + 1), repeat=n):
        if any(kappa[i - 1] == kappa[j - 1] for i, j in edges):
            continue
        asc = sum(1 for i, j in edges if kappa[i - 1] < kappa[j - 1])
        usage = [0] * n
        for c in kappa:
            usage[c - 1] += 1
        key = tuple(usage)
        hist.setdefault(key, {})
        hist[key][asc] = hist[key].get(asc, 0) + 1
    return hist


@pytest.mark.parametrize("h", [(1, 2), (2, 2), (1, 3, 3), (2, 3, 3), (3, 3, 3), (2, 3, 4, 4), (4, 4, 4, 4)])
def test_chromatic_matches_brute_force(h):
    X = chromatic_qsym(h)
    hist = brute_force_csf(h)
    n = len(h)
    for lam in partitions_of(n):
        canonical = tuple(lam) + (0,) * (n - len(lam))
        expected = QPoly(dict(hist.get(canonical, {})))
        assert X.coefficient(lam) == expected, (h, lam)


def test_chromatic_cost_guard():
    h = (9,) * 9
    with pytest.raises(CostGuardError):
        chromatic_qsym(h)
    with pytest.raises(CostGuardError):
        dot_action_multiplicities(h)


def schur_decoded_table(h):
    """The coloring route: pair the chromatic function against conjugate Schur functions."""
    X = chromatic_qsym(h)
    l = dimension(h)
    return {lam: schur_inner_product(X, conjugate(lam)).coefficient_list(l) for lam in partitions_of(len(h))}


def test_tableaux_match_schur_decoded_colorings():
    for n in range(2, 7):
        for h in enumerate_hessenberg(n):
            assert dot_action_multiplicities(h).table == schur_decoded_table(h), h


def brute_force_tableaux(h):
    """{shape: {inv: count}} over every filling of every shape by every permutation.

    Nothing is shared with the library: shapes are generated here, a P-tableau
    is checked cell by cell (rows strict P-chains, no entry above the entry
    below it in P), and inv counts incomparable i < j with i in a lower row.
    """
    n = len(h)

    def less(i, j):  # i <_P j
        return j > h[i - 1]

    def shapes(total, cap):
        if total == 0:
            yield ()
        for first in range(min(total, cap), 0, -1):
            for rest in shapes(total - first, first):
                yield (first,) + rest

    out = {}
    for shape in shapes(n, n):
        hist = {}
        for perm in itertools.permutations(range(1, n + 1)):
            rows, pos = [], 0
            for length in shape:
                rows.append(perm[pos : pos + length])
                pos += length
            if any(not less(row[c], row[c + 1]) for row in rows for c in range(len(row) - 1)):
                continue
            if any(
                less(rows[r + 1][c], rows[r][c]) for r in range(len(rows) - 1) for c in range(len(rows[r + 1]))
            ):
                continue
            row_of = {v: r for r, row in enumerate(rows) for v in row}
            inv = sum(
                1
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if not less(i, j) and row_of[i] > row_of[j]
            )
            hist[inv] = hist.get(inv, 0) + 1
        out[shape] = hist
    return out


def test_tableaux_match_brute_force_count():
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            table = dot_action_multiplicities(h).table
            counted = brute_force_tableaux(h)
            assert len(counted) == len(table)
            for shape, hist in counted.items():
                transpose = tuple(sum(1 for part in shape if part > c) for c in range(shape[0]))
                row = table[transpose]
                assert {k: v for k, v in enumerate(row) if v} == hist, (h, shape)


# handpicked n = 8 functions: Peterson, the band h(i) = i + 2, the flag
# variety, and two decomposable ones (three blocks; two complete graphs K4)
WALK_N8 = [
    (2, 3, 4, 5, 6, 7, 8, 8),
    (3, 4, 5, 6, 7, 8, 8, 8),
    (8,) * 8,
    (2, 2, 4, 5, 5, 7, 8, 8),
    (4, 4, 4, 4, 8, 8, 8, 8),
]


def test_one_walk_matches_walk_per_shape():
    cases = [h for n in range(2, 8) for h in enumerate_hessenberg(n)] + WALK_N8
    for h in cases:
        walked = _tableau_table(h)
        shapes = [conjugate(lam) for lam in partitions_of(len(h))]
        assert set(walked) <= set(shapes), h
        for shape in shapes:
            counts = tableau_rows_by_shape(h, shape)
            if shape in walked:
                assert walked[shape] == counts, (h, shape)
            else:
                assert not any(counts), (h, shape)


def walked_rows(h):
    """table[lam] read straight off one walk of h, with no block or reversal shortcut."""
    l = dimension(h)
    walked = _tableau_table(h)
    return {lam: walked.get(conjugate(lam), [0] * (l + 1))[: l + 1] for lam in partitions_of(len(h))}


@pytest.fixture
def walks(monkeypatch):
    """The functions the tableau walk runs on, in order, from a fresh memo."""
    dotchar._mult_cached.cache_clear()
    dotchar._h_coeffs.cache_clear()
    seen = []

    def recording(h):
        seen.append(h)
        return _tableau_table(h)

    monkeypatch.setattr(dotchar, "_tableau_table", recording)
    yield seen
    dotchar._mult_cached.cache_clear()
    dotchar._h_coeffs.cache_clear()


def assert_walked_once_per_reversal_pair(seen):
    assert len(set(seen)) == len(seen)
    assert all(is_indecomposable(h) and h <= _reversed(h) for h in seen)


def test_assembled_and_copied_tables_match_the_walk(walks):
    cases = [h for n in range(2, 8) for h in enumerate_hessenberg(n)] + WALK_N8
    tables = {h: dot_action_multiplicities(h).table for h in cases}
    assert_walked_once_per_reversal_pair(walks)
    assert set(walks) < set(cases)
    for h in cases:
        assert tables[h] == walked_rows(h), h


def test_reversal_is_an_involution():
    for n in range(2, 10):
        for h in enumerate_hessenberg(n):
            mirror = _reversed(h)
            assert _reversed(mirror) == h
            assert dimension(mirror) == dimension(h)
            assert is_indecomposable(mirror) == is_indecomposable(h)
            flipped = {tuple(sorted((n + 1 - i, n + 1 - j))) for i, j in incomparability_graph(h)}
            assert set(incomparability_graph(mirror)) == flipped, h


def test_blocks_split_at_fixed_points():
    assert _blocks((1, 2, 3)) == [(1,), (1,), (1,)]
    assert _blocks((2, 2, 4, 5, 5, 7, 8, 8)) == [(2, 2), (2, 3, 3), (2, 3, 3)]
    assert _blocks((2, 3, 3)) == [(2, 3, 3)]


def test_complete_graph_h_coefficients():
    # omega X_{K_m}(q) = [m]_q! h_m
    for m in range(1, 8):
        assert _h_coeffs((m,) * m) == {(m,): q_factorial(m).coefficient_list()}, m


def test_kostka_map_inverts_h_coefficients():
    for n in range(2, 8):
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            coeffs = _h_coeffs(h)
            # the e-positivity of X_G(q) that Shareshian-Wachs conjectured, so c >= 0
            assert all(x >= 0 for row in coeffs.values() for x in row), h
            assert _from_h_coeffs(n, coeffs) == walked_rows(h), h


def test_verify_n6_walks_once_per_reversal_pair(walks):
    # 26 reversal pairs of indecomposable functions at n = 6, and 10, 4, 2,
    # 1 below it among the blocks; a single element needs no walk
    cli.verify_report(6, seed=1729)
    assert_walked_once_per_reversal_pair(walks)
    assert len(walks) == 43
    assert [sum(1 for h in walks if len(h) == n) for n in range(2, 7)] == [1, 2, 4, 10, 26]


def test_betti_rows_are_the_kostka_weighted_sums():
    # the packed product against the plain invariant_dim-weighted sum, for
    # every J; the edgeless h = (1, ..., n) fills its one slot with n!, the
    # largest value the slot width allows
    cases = [h for n in range(2, 8) for h in enumerate_hessenberg(n)] + WALK_N8
    weights = {}
    for h in cases:
        n = len(h)
        if n not in weights:
            weights[n] = {J: {lam: invariant_dim(lam, J) for lam in partitions_of(n)} for J in all_parabolic_subsets(n)}
        gm = dot_action_multiplicities(h)
        assert set(gm.betti_rows) == set(partitions_of(n)), h
        for J, weight in weights[n].items():
            expected = [0] * (gm.l + 1)
            for lam, row in gm.table.items():
                expected = [b + weight[lam] * m for b, m in zip(expected, row)]
            mu = tuple(sorted(young_subgroup_blocks(J, n), reverse=True))
            assert list(gm.betti_rows[mu]) == gm.betti(J) == regular_betti(h, J) == regular_betti(gm, J) == expected, (h, J)
    for n in range(2, 13):
        gm = dot_action_multiplicities(tuple(range(1, n + 1)), force=True)
        assert gm.betti() == [factorial(n)]


def test_betti_memo_per_content():
    gm = dot_action_multiplicities((2, 3, 4, 4))
    row = gm.betti((1,))
    kept = list(row)
    row[0] += 100
    assert gm.betti((1,)) == kept
    assert gm.betti((3,)) == kept  # the same content (2, 1, 1), from the memo
    for bad in [(0,), (4,), (1, 4)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                gm.betti(bad)
            with pytest.raises(ValueError):
                regular_betti((2, 3, 4, 4), bad)


def test_tableaux_n7_sum_and_palindromes():
    for h in enumerate_hessenberg(7):
        gm = dot_action_multiplicities(h)
        assert sum(dim_irrep(lam) * sum(row) for lam, row in gm.table.items()) == factorial(7), h
        assert all(row == row[::-1] for row in gm.table.values()), h


def test_flag_variety_pin():
    # complete graph: everything concentrates on lam = (n) with the
    # q-factorial as its graded multiplicity row
    for n in (2, 3, 4):
        h = (n,) * n
        gm = dot_action_multiplicities(h)
        qfact = q_factorial(n).coefficient_list(dimension(h))
        for lam in partitions_of(n):
            if lam == (n,):
                assert gm.table[lam] == qfact
            else:
                assert gm.table[lam] == [0] * (dimension(h) + 1)
        assert betti_rs(h) == qfact


def test_empty_graph_is_regular_representation():
    for n in (2, 3, 4):
        h = tuple(range(1, n + 1))
        gm = dot_action_multiplicities(h)
        assert gm.l == 0
        for lam in partitions_of(n):
            assert gm.table[lam] == [dim_irrep(lam)]
        assert betti_rs(h) == [factorial(n)]


def test_hexagon_table():
    gm = dot_action_multiplicities((2, 3, 3))
    assert gm.table[(3,)] == [1, 2, 1]
    assert gm.table[(2, 1)] == [0, 1, 0]
    assert gm.table[(1, 1, 1)] == [0, 0, 0]
    assert betti_rs((2, 3, 3)) == [1, 4, 1]


def test_peterson_invariants():
    assert regular_betti((2, 3, 3), (1, 2)) == [1, 2, 1]
    # regular nilpotent Betti row: prod over i of [h(i) - i + 1]_q
    for n in range(2, 8):
        for h in enumerate_hessenberg(n):
            prod = QPoly.one()
            for i, hi in enumerate(h, start=1):
                prod = prod * QPoly({k: 1 for k in range(hi - i + 1)})
            assert regular_betti(h, tuple(range(1, n))) == prod.coefficient_list(), h


def test_regular_betti_specializations():
    for n in range(2, 6):
        by_blocks: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for J in all_parabolic_subsets(n):
            blocks = tuple(sorted(young_subgroup_blocks(J, n)))
            by_blocks.setdefault(blocks, []).append(J)
        for h in enumerate_hessenberg(n):
            gm = dot_action_multiplicities(h)
            assert regular_betti(h, ()) == betti_rs(h) == gm.betti()
            for Js in by_blocks.values():
                rows = [regular_betti(h, J) for J in Js]
                assert all(regular_betti(gm, J) == row for J, row in zip(Js, rows))
                assert all(row == rows[0] for row in rows)


def test_json_shape():
    doc = multiplicities_json(dot_action_multiplicities((2, 3, 3)))
    assert doc == {
        "n": 3,
        "h": "2,3,3",
        "l": 2,
        "mult": {"3": [1, 2, 1], "2,1": [0, 1, 0], "1,1,1": [0, 0, 0]},
        "betti": [1, 4, 1],
    }
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            gm = dot_action_multiplicities(h)
            assert multiplicities_from_json(multiplicities_json(gm)) == gm
    # a part of 10: the key "10" must read back as (10,), not as two parts
    gm = dot_action_multiplicities((2, 3, 4, 5, 6, 7, 8, 9, 10, 10), force=True)
    doc = multiplicities_json(gm)
    assert "10" in doc["mult"] and "1,1,1,1,1,1,1,1,1,1" in doc["mult"]
    assert multiplicities_from_json(doc) == gm


HEXAGON_DOC = {
    "n": 3,
    "h": "2,3,3",
    "l": 2,
    "mult": {"3": [1, 2, 1], "2,1": [0, 1, 0], "1,1,1": [0, 0, 0]},
    "betti": [1, 4, 1],
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n": 3, "h": None}, "malformed"),
        ({"l": None}, "malformed"),
        ({"mult": {"3": [1, 2, 1], "2,1": [0, 1, 0]}}, "not the partitions of 3"),
        ({"mult": {"3": [1, 2, 1], "2,1": [0, 1, 0], "1,1,1": [0, 0, 0], "1,1,1,0": [0, 0, 0]}}, "malformed"),
        ({"mult": {"3": [1, 2, 1], "2,1": [0, 1, 0], "1,1,1": [0, 0, 0], "1, 1, 1": [0, 0, 0]}}, "not the partitions"),
        ({"h": "2,3,2"}, "malformed"),
        ({"n": 4}, "claims n = 4"),
        ({"l": 3}, "claims n = 3, l = 3"),
        ({"mult": {"3": [1, 2, 1], "2,1": [0, 1], "1,1,1": [0, 0, 0]}}, "not 3 integers"),
        ({"mult": {"3": [1, 2, 1], "2,1": [0, 1.0, 0], "1,1,1": [0, 0, 0]}}, "not 3 integers"),
        ({"mult": {"3": [1, 2, 1], "2,1": [0, 1, 0], "1,1,1": [0, 0, 5]}}, "sum to 11, not 3!"),
        ({"mult": {"3": [1, 2, 1], "2,1": [1, -1, 1], "1,1,1": [0, 0, 0]}}, "negative multiplicity"),
    ],
    ids=[
        "no-h",
        "no-l",
        "missing-key",
        "bad-key",
        "duplicate-key",
        "bad-h",
        "wrong-n",
        "wrong-l",
        "short-row",
        "float-entry",
        "count-changed",
        "negative",
    ],
)
def test_json_tables_are_checked(change, message):
    # a document read back must be the table of a Hessenberg function: the
    # checks of a computed table, and the keys, h, n and l on top
    doc = {key: value for key, value in {**HEXAGON_DOC, **change}.items() if value is not None}
    with pytest.raises(ConsistencyError, match=message):
        multiplicities_from_json(doc)
    with pytest.raises(ConsistencyError, match="malformed"):
        multiplicities_from_json([HEXAGON_DOC])
    assert multiplicities_from_json({**HEXAGON_DOC, "betti": [1, 9, 1]}) == dot_action_multiplicities((2, 3, 3))


def test_total_dimension_is_group_order():
    # the semisimple space always has n! cells in total
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            assert sum(betti_rs(h)) == factorial(n)


def test_betti_palindromic_small():
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            row = betti_rs(h)
            assert row == row[::-1], h


def test_regular_betti_palindromic_small():
    for n in range(2, 5):
        for h in enumerate_hessenberg(n):
            for size in range(n):
                for J in itertools.combinations(range(1, n), size):
                    row = regular_betti(h, J)
                    assert row == row[::-1], (h, J)


def test_indecomposable_has_connected_ends():
    for n in range(2, 6):
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            row = betti_rs(h)
            assert row[0] == 1 and row[-1] == 1, h


def test_multiplicity_degrees_and_signs():
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            gm = dot_action_multiplicities(h)
            for lam, row in gm.table.items():
                assert len(row) == gm.l + 1
                assert all(v >= 0 for v in row)
