import itertools
from math import factorial

import pytest

from oracles import _tableau_table, tableau_rows_by_shape

from hesslab import cli, dotchar
from hesslab.cli import all_parabolic_subsets
from hesslab.dotchar import (
    _blocks,
    _from_h_coeffs,
    _h_coeffs,
    _reversed,
    betti_rs,
    chromatic_qsym,
    dot_action_multiplicities,
    multiplicities_from_json,
    multiplicities_json,
    regular_betti,
)
from hesslab.errors import ConsistencyError, CostGuardError
from hesslab.hessenberg import _functions, dimension, enumerate_hessenberg, is_indecomposable
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
    with pytest.raises(CostGuardError):
        chromatic_qsym((9,) * 9)


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


def clear_memos():
    for memo in (dotchar._mult_cached, dotchar._h_coeffs, dotchar._path_h_coeffs, dotchar._plan):
        memo.cache_clear()


def test_assembled_and_copied_tables_match_the_walk():
    # every table from fresh memos, however made (blocks, closed forms, the
    # modular law or a reversal), against one walk of its own h
    clear_memos()
    cases = [h for n in range(2, 8) for h in enumerate_hessenberg(n)] + WALK_N8
    tables = {h: dot_action_multiplicities(h).table for h in cases}
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


def test_verify_n6_makes_no_walk(monkeypatch):
    # no enumeration is left on the character path: the walk is a test
    # oracle, colorings are refused, and the 40 n = 6 tables that no closed
    # form gives (with 3 and 12 below them among the blocks) come from the
    # plan, each made once
    def refuse(*_args, **_kwargs):
        raise AssertionError("the character path must not enumerate colorings")

    assert not hasattr(dotchar, "_tableau_table")
    monkeypatch.setattr(dotchar, "_chromatic_cached", refuse)
    clear_memos()
    cli.verify_report(6, seed=1729)
    for n, derived in zip(range(2, 7), [0, 0, 3, 12, 40]):
        steps, tables = dotchar._plan(n)
        assert len(steps) == derived and set(tables) == set(steps), n


def law_triples(n, *, control=False):
    """(h0, h1, h2) for every h1 of size n and position i with h1(i-1) <
    h1(i) < h1(i+1) (h1(0) = 0, h1(n+1) = n+1) and h1(i) < n whose h0 and
    h2 (h1(i) lowered and raised by 1) are Hessenberg functions, written
    out from the law's statement; with h1(h1(i)) = h1(h1(i)+1), or, for the
    control, without it."""
    out = []
    for h1 in enumerate_hessenberg(n):
        padded = (0, *h1, n + 1)
        for i in range(1, n + 1):
            a = padded[i]
            if not (padded[i - 1] < a < padded[i + 1] and a < n):
                continue
            h0, h2 = (h1[: i - 1] + (a + d,) + h1[i:] for d in (-1, 1))
            if not all(h[j - 1] >= j for h in (h0, h2) for j in range(1, n + 1)):
                continue
            if (h1[a - 1] == h1[a]) != control:
                out.append((h0, h1, h2))
    return out


def law_gap(triple):
    """{lam: q f(h0) + f(h2) - (1+q) f(h1)} over walked tables, zero rows left out."""
    f0, f1, f2 = map(walked_rows, triple)
    gaps = {}
    for lam in f1:
        gap = [a + b - c - d for a, b, c, d in zip([0] + f0[lam] + [0], f2[lam], f1[lam] + [0], [0] + f1[lam])]
        if any(gap):
            gaps[lam] = gap
    return gaps


def test_modular_law_holds_on_walked_tables():
    # the law the plan uses, on every triple with n <= 7, and the control
    # without its last condition fails on every triple
    triples = [t for n in range(2, 8) for t in law_triples(n)]
    assert len(triples) == 441
    assert all(law_gap(t) == {} for t in triples)
    controls = [t for n in range(2, 8) for t in law_triples(n, control=True)]
    assert len(controls) == 209
    assert all(law_gap(t) for t in controls)
    # _modular_triples gives each triple from each of its members
    for n in range(2, 8):
        expected = set(law_triples(n))
        for h in enumerate_hessenberg(n):
            assert set(dotchar._modular_triples(h)) == {t for t in expected if h in t}, h


def test_closed_forms_match_the_walk():
    # the path by the Shareshian-Wachs recursion for n <= 9, the complete
    # graph as [n]_q! h_n for n <= 8
    for n in range(2, 10):
        path = dotchar._path(n)
        assert dotchar._from_h_coeffs(n, dotchar._path_h_coeffs(n)) == walked_rows(path), n
        assert dot_action_multiplicities(path).table == walked_rows(path), n
    for n in range(2, 9):
        assert dot_action_multiplicities((n,) * n).table == walked_rows((n,) * n), n


def test_plan_reaches_every_function():
    for n in range(1, 11):
        steps, _ = dotchar._plan(n)
        start = {h for h in _functions(n) if len(_blocks(h)) > 1 or h in ((n,) * n, dotchar._path(n))}
        assert not start & set(steps) and start | set(steps) == set(_functions(n)), n
        assert {_reversed(h) for h in start} == start, n
        for position, (y, (at, members)) in enumerate(steps.items()):
            assert at == position and (y in members if len(members) == 3 else members == (_reversed(y),)), y
            assert all(x == y or x in start or steps[x][0] < position for x in members), y
    with pytest.raises(ConsistencyError, match="reaches no table"):
        dotchar._derived((2, 3, 3))  # the path: a closed form, not a plan step


def test_corrupted_tables_break_the_exact_divisions():
    # a step that divides by q and one that divides by 1 + q, each from its
    # correct inputs, then with one entry of one input raised by 1
    steps, _ = dotchar._plan(6)
    tables = {h: dot_action_multiplicities(h).table for h in enumerate_hessenberg(6)}
    for which, raised, degree, message in [(0, 2, 0, "constant term"), (1, 0, 1, "remainder")]:
        y, members = next((y, m) for y, (_, m) in steps.items() if len(m) == 3 and m.index(y) == which)
        inputs = [tables[x] for x in members if x != y]
        assert dotchar._checked(y, dimension(y), dotchar._modular_rows(y, which, *inputs)).table == tables[y]
        corrupt = {lam: list(row) for lam, row in tables[members[raised]].items()}
        corrupt[(6,)][degree] += 1
        inputs = [corrupt if x == members[raised] else tables[x] for x in members if x != y]
        with pytest.raises(ConsistencyError, match=message):
            dotchar._modular_rows(y, which, *inputs)
    # the same through the library, from a corrupt memo entry of a derived h0
    clear_memos()
    steps, memo = dotchar._plan(6)
    y, (x, _, _) = next((y, m) for y, (_, m) in steps.items() if len(m) == 3 and m.index(y) == 1 and m[0] in steps)
    good = dot_action_multiplicities(x)
    rows = {lam: list(row) for lam, row in good.table.items()}
    rows[(6,)][1] += 1
    memo[x] = dotchar.GradedMultiplicity(n=6, h=x, l=good.l, table=rows)
    dotchar._mult_cached.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="remainder"):
            dot_action_multiplicities(y)
    finally:
        clear_memos()


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
        gm = dot_action_multiplicities(tuple(range(1, n + 1)))
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
    gm = dot_action_multiplicities((2, 3, 4, 5, 6, 7, 8, 9, 10, 10))
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
