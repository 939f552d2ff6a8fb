"""The sparse exact elimination kernel against dense Gauss-Jordan, and the
dense symmetric helpers against closed formulas.

`dense_row_reduce` is the dense Fraction RREF the library used before its
sparse kernel; it stays here as the oracle.  The kernel's echelon form and
RREF are read as Fraction rows through `oracles.echelon` and
`oracles.row_reduce`.  Particular solutions (free variables 0,
`oracles.solve_particular` on the kernel's RREF), nullspace bases (one
vector per free column, also as integer rows over one denominator) and ranks
are fixed by the RREF, so the kernel must reproduce them exactly, on random
sparse rational matrices and on the local flow-up systems of the moment
graph's upward sweep, one per vertex and index; each flow-up class must be
the dense solution of its own vertex's system in the global column order.
`_integer_inertia` (through `oracles.inertia`, which puts a rational matrix
over one denominator) is checked against Descartes' rule of signs on the
exact characteristic polynomial, against ratios of leading principal
minors, and against `oracles.fraction_inertia`, the Fraction congruence pass
it replaced; `det_exact` against the Leibniz expansion.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from hesslab import gkm
from hesslab.errors import ConsistencyError
from hesslab.gkm import build_gkm, flow_up_class, monomials
from hesslab.hessenberg import dimension, enumerate_hessenberg
from hesslab.linalg import _integer_inertia, _integer_nullspace, _integer_rref, det_exact, rank_exact
import oracles
from oracles import echelon, fraction_inertia, inertia, norm_poly, nullspace, row_reduce, solve_particular


def dense_row_reduce(rows, ncols: int):
    """RREF.  Returns (pivot_columns, reduced_nonzero_rows); input is not modified."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        if lead != 1:
            m[rank] = [x / lead for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return pivots, m[:rank]


def dense_nullspace(rows, ncols: int):
    pivots, red = dense_row_reduce(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pcol in zip(red, pivots):
            v[pcol] = -prow[fc]
        basis.append(v)
    return basis


def dense_solve(rows, rhs, ncols: int):
    if not rows:
        return [Fraction(0)] * ncols
    pivots, red = dense_row_reduce([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for prow, pcol in zip(red, pivots):
        x[pcol] = prow[ncols]
    return x


def dense(row, ncols: int):
    if not isinstance(row, dict):
        return list(row)
    out = [Fraction(0)] * ncols
    for c, v in row.items():
        out[c] = Fraction(v)
    return out


def random_matrix(rng, nrows: int, ncols: int, density: float):
    """Sparse rational rows, some of them zero and some combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if pick < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif pick < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(
                [
                    Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < density else Fraction(0)
                    for _ in range(ncols)
                ]
            )
    return rows


def as_dicts(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def assert_same_values(got, want):
    assert got == want
    if got is not None:
        assert all(type(x) is Fraction for x in got)


SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (4, 4), (6, 3), (3, 7), (12, 9), (9, 15), (20, 16)]


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_kernel_matches_dense_on_random_sparse_matrices(nrows, ncols):
    rng = random.Random(f"linalg:{nrows}x{ncols}")
    for trial in range(40):
        density = (0.15, 0.4, 0.8)[trial % 3]
        rows = random_matrix(rng, nrows, ncols, density)
        before = [list(r) for r in rows]
        want_piv, want_red = dense_row_reduce(rows, ncols)
        for given in (rows, as_dicts(rows)):
            piv, red = row_reduce(given)
            assert piv == want_piv
            assert [dense(r, ncols) for r in red] == want_red
            assert sorted(echelon(given)) == want_piv
            assert rank_exact(given) == len(want_piv)
            assert nullspace(given, ncols) == dense_nullspace(rows, ncols)
        assert rows == before

        # a consistent right-hand side: rows times a random x
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(r, x0)), Fraction(0)) for r in rows]
        want = dense_solve(rows, rhs, ncols)
        assert want is not None
        assert_same_values(solve_particular(rows, rhs, ncols), want)
        assert_same_values(solve_particular(as_dicts(rows), rhs, ncols), want)

        # an arbitrary right-hand side: consistent or not, the answers agree
        rhs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        want = dense_solve(rows, rhs, ncols)
        assert_same_values(solve_particular(as_dicts(rows), rhs, ncols), want)


def test_inconsistent_systems_have_no_solution():
    rng = random.Random("linalg:inconsistent")
    for _ in range(30):
        ncols = rng.randint(1, 8)
        rows = random_matrix(rng, rng.randint(1, 8), ncols, 0.5)
        rhs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        # a zero row with a nonzero right-hand side can never be met
        rows.append([Fraction(0)] * ncols)
        rhs.append(Fraction(1))
        # and neither can a duplicated row asking for a different value
        rows.append(list(rows[0]))
        rhs.append(rhs[0] + 1)
        assert dense_solve(rows, rhs, ncols) is None
        assert solve_particular(rows, rhs, ncols) is None
        assert solve_particular(as_dicts(rows), rhs, ncols) is None


def test_edge_cases():
    assert solve_particular([], [], 3) == [Fraction(0)] * 3
    assert solve_particular([[]], [Fraction(0)], 0) == []
    assert solve_particular([[]], [Fraction(2)], 0) is None
    assert nullspace([], 2) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert nullspace([[Fraction(0)] * 2], 2) == nullspace([], 2)
    assert nullspace([[]], 0) == []
    assert rank_exact([]) == 0
    assert rank_exact([{}, {}]) == 0
    assert row_reduce([[Fraction(0), Fraction(2), Fraction(4)]]) == ([1], [{1: 1, 2: 2}])
    # integer input still comes out exact
    assert solve_particular([[2, 1]], [1], 2) == [Fraction(1, 2), Fraction(0)]


def hilbert_block(n: int, shift: int = 0):
    """Rows 1 / (i + j + 1 + shift): a Cauchy matrix, so nonsingular, and with
    a large shift its denominators are large and its pivots tiny."""
    return [[Fraction(1, i + j + 1 + shift) for j in range(n)] for i in range(n)]


def widened_hilbert():
    """The 8x8 Hilbert block with two zero columns put in the middle, and the
    sum of its first two rows appended."""
    rows = [row[:4] + [0, 0] + row[4:] for row in hilbert_block(8)]
    return rows + [[a + b for a, b in zip(rows[0], rows[1])]]


# Inputs the fraction-free kernel must scale or pivot with care.
KERNEL_FIXTURES = {
    "mixed-int-fraction": [
        [2, Fraction(1, 3), 0, -1, Fraction(5, 7)],
        [Fraction(4), 5, Fraction(-7, 2), 0, 1],
        [0, 0, 3, Fraction(1, 6), Fraction(-2, 9)],
        [1, Fraction(2, 3), Fraction(1, 2), 1, 0],
        [3, Fraction(16, 3), -3, 0, Fraction(12, 7)],
    ],
    "hilbert-8": hilbert_block(8),
    "hilbert-8-large-denominators": hilbert_block(8, shift=10**12),
    "hilbert-8-widened-plus-a-dependent-row": widened_hilbert(),
    "negative-and-two-pivots": [
        [-2, 4, 0, 1, 0],
        [2, 0, -6, 0, 3],
        [0, -2, 2, 0, -1],
        [-1, 0, 0, 2, 2],
        [0, 0, -2, -2, 4],
    ],
    "edge-form-like": [
        {0: 2, 3: -2, 5: 1},
        {0: 1, 3: -1, 4: 2},
        {1: -2, 4: 2},
        {1: 1, 2: -2, 5: Fraction(1, 2)},
        {2: 2, 5: -1},
    ],
    "proportional-once-scaled": [
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 0],
        [3, 2, 1, 0],
        [Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 4), 0],
        [0, Fraction(2, 5), 0, Fraction(4, 5)],
        [0, -1, 0, -2],
        [Fraction(6, 1), 4, 2, 0],
    ],
}


def fixture_ncols(rows) -> int:
    return max((max(r, default=-1) + 1 if isinstance(r, dict) else len(r)) for r in rows)


@pytest.mark.parametrize("name", KERNEL_FIXTURES)
def test_kernel_matches_dense_on_fixtures(name):
    rows = KERNEL_FIXTURES[name]
    ncols = fixture_ncols(rows)
    dense_rows = [[Fraction(x) for x in dense(r, ncols)] for r in rows]
    before = [dict(r) if isinstance(r, dict) else list(r) for r in rows]
    want_piv, want_red = dense_row_reduce(dense_rows, ncols)
    for given in (rows, as_dicts(dense_rows), dense_rows):
        piv, red = row_reduce(given)
        assert piv == want_piv
        assert [dense(r, ncols) for r in red] == want_red
        assert all(type(x) is Fraction for r in red for x in r.values())
        ech = echelon(given)
        assert sorted(ech) == want_piv
        for col, r in ech.items():
            assert min(r) == col
            assert type(r[col]) is Fraction and r[col] == 1
            assert all(type(x) is Fraction for x in r.values())
        assert rank_exact(given) == len(want_piv)
        assert nullspace(given, ncols) == dense_nullspace(dense_rows, ncols)
        x0 = [Fraction(k - 2, k + 1) for k in range(ncols)]
        rhs = [sum((a * b for a, b in zip(r, x0)), Fraction(0)) for r in dense_rows]
        assert_same_values(solve_particular(given, rhs, ncols), dense_solve(dense_rows, rhs, ncols))
        rhs = [Fraction(i % 3 - 1, 2) for i in range(len(rows))]
        assert_same_values(solve_particular(given, rhs, ncols), dense_solve(dense_rows, rhs, ncols))
    assert rows == before
    if name.startswith("hilbert-8"):
        assert len(want_piv) == 8
    if name == "proportional-once-scaled":
        assert want_piv == [0, 1]


@pytest.mark.parametrize("name", KERNEL_FIXTURES)
def test_integer_nullspace_is_the_basis_over_one_denominator(name):
    rows = KERNEL_FIXTURES[name]
    ncols = fixture_ncols(rows)
    basis, d = _integer_nullspace(rows, ncols)
    assert type(d) is int and d > 0
    assert all(type(x) is int for v in basis for x in v)
    dense_rows = [[Fraction(x) for x in dense(r, ncols)] for r in rows]
    assert [[Fraction(x, d) for x in v] for v in basis] == dense_nullspace(dense_rows, ncols)


def flowup_eliminations(h, monkeypatch):
    """The graph of h and, for every local elimination that the flow-up
    classes of all its vertices hand the kernel, (k, u, stop, rows, read,
    pivots, reduced rows): the index and vertex the sweep solves at, the
    stop, all the system's rows, how many of them the kernel read, and its
    answer.  The recorder reads every row, so the sweep's own check of the
    unread rows sees none; the tests check them instead."""
    seen = []

    def record(rows, stop):
        sweep = sweep_locals()
        rows = list(rows)
        unread = iter(rows)
        pivots, red = _integer_rref(unread, stop)
        read = len(rows) - len(list(unread))
        red_rows = {c: dict(r) for c, r in red.items()}
        seen.append((sweep["k"], sweep["u"], stop, [dict(r) for r in rows], read, pivots, red_rows))
        return pivots, red

    g = build_gkm(h)
    with monkeypatch.context() as patch:
        patch.setattr(gkm, "_integer_rref", record)
        for vid in range(len(g.vertices)):
            flow_up_class(g, vid)
    return g, seen


def sweep_locals():
    """The local variables of the running flow-up sweep (gkm._flow_up_classes)
    that called the caller of this function."""
    frame = sys._getframe(2)
    while frame.f_code.co_name != "_flow_up_classes":
        frame = frame.f_back
    return frame.f_locals


def known_rank(g, k, u):
    """D - dim P_(k-m), or D when k < m, for m edges down from u: the rank of
    u's homogeneous rows of degree k, whose solutions are norm(u) * P_(k-m)."""
    D = len(monomials(g.nvars, k))
    m = len(g.down[u])
    return D - len(monomials(g.nvars, k - m)) if k >= m else D


def dense_rank(rows) -> int:
    """Rank of dense integer rows by fraction-free elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, len(m)):
            if a := m[i][col]:
                m[i] = [p * x - a * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def vertex_system(g, vid):
    """The system of vid alone, in the column order of the oracle's global
    prefix route (oracles.edge_rows): the edge rows of its degree, with the
    columns left of its block as unknowns, its block times its norm moved to
    the right-hand side, and the columns right of it (the vertices below)
    dropped."""
    k = g.index[vid]
    monos = monomials(g.nvars, k)
    D = len(monos)
    b = g.order[::-1].index(vid) * D
    norm = norm_poly(g, vid)
    known = [norm.c.get(mono, 0) for mono in monos]
    rows, rhs = [], []
    for full in oracles.edge_rows(g, k):
        row = {c: x for c, x in full.items() if c < b}
        y = -sum((x * known[c - b] for c, x in full.items() if b <= c < b + D), Fraction(0))
        if row or y:
            rows.append(row)
            rhs.append(y)
    return rows, rhs, b


def reached_vertices(g):
    """(k, u, classes) for every local system of the flow-up sweep, in the
    order flowup_eliminations meets them: the indices in the order of their
    first vertex, and for each the vertices u above its lowest vertex that a
    class reaches, with the vertices of the classes started below u that are
    nonzero at a down-neighbour of u, in moment order.  The supports come
    from the oracle's global prefix elimination."""
    out = []
    for k in dict.fromkeys(g.index):
        tables = oracles.prefix_flow_up_classes(g, k)
        low = g.order.index(next(u for u in g.order if g.index[u] == k))
        for p in range(low + 1, len(g.order)):
            u = g.order[p]
            below = {w for w, _ in g.down[u]}
            classes = [v for v in g.order[:p] if v in tables and below & set(tables[v][1])]
            if classes:
                out.append((k, u, classes))
    return out


def down_edge_rows(g, k, u):
    """The edge rows of degree k on the edges from u to the vertices below it,
    read off the oracle's global system: their entries in u's block, shifted
    to columns 0..D-1, each row with its first entry made positive."""
    D = len(monomials(g.nvars, k))
    above = g.order[::-1]
    below = set(g.order[: g.order.index(u)])
    b = above.index(u)
    out = []
    for row in oracles.edge_rows(g, k):
        blocks = {c // D for c in row}
        if b in blocks and {above[p] for p in blocks - {b}} <= below:
            local = {c - b * D: x for c, x in row.items() if c // D == b}
            out.append(signed(local))
    return sorted(out)


def signed(row):
    """The sorted items of a dict row, negated if its first entry is negative."""
    items = sorted(row.items())
    return [(c, -x) for c, x in items] if items[0][1] < 0 else items


@pytest.mark.parametrize(
    "h", [*enumerate_hessenberg(2), *enumerate_hessenberg(3), (2, 3, 4, 4)], ids=str
)
def test_flowup_systems_match_dense(h, monkeypatch):
    # one local elimination per vertex above the lowest vertex of each index
    # that a class started below it reaches (is nonzero at a down-neighbour
    # of): its rows are all the vertex's edge rows to the vertices below it,
    # with one right-hand-side column per class that reaches it.  The kernel
    # stops reading them at the rank of their homogeneous part, yet its RREF
    # is the dense Fraction RREF of all of them, and the unread rows hold
    # for its solution with free variables 0
    g, systems = flowup_eliminations(h, monkeypatch)
    expected = reached_vertices(g)
    assert [system[:2] for system in systems] == [(k, u) for k, u, _ in expected]
    for (k, u, classes), (_, _, stop, rows, read, pivots, red) in zip(expected, systems):
        assert all(isinstance(r, dict) for r in rows)
        D = len(monomials(g.nvars, k))
        ncols = D + len(classes)
        assert stop == (D, known_rank(g, k, u))
        assert all(c < ncols for r in rows for c in r)
        assert sorted(signed({c: x for c, x in r.items() if c < D}) for r in rows) == down_edge_rows(g, k, u)
        want_piv, want_red = dense_row_reduce([dense(r, ncols) for r in rows], ncols)
        assert pivots == want_piv
        assert [[Fraction(x, red[p][p]) for x in dense(red[p], ncols)] for p in pivots] == want_red
        for j in range(len(classes)):
            x = [Fraction(red[p].get(D + j, 0), red[p][p]) if p in red else 0 for p in range(D)]
            for r in rows[read:]:
                assert sum(v * x[c] for c, v in r.items() if c < D) == r.get(D + j, 0)
    # and every class built from them is the dense solution of its own vertex's
    # system with free variables 0
    for vid in range(len(g.vertices)):
        rows, rhs, b = vertex_system(g, vid)
        x = dense_solve([dense(r, b) for r in rows], rhs, b)
        assert x is not None
        cls = oracles.flow_up_class(g, vid)
        monos = monomials(g.nvars, g.index[vid])
        above = g.order[::-1]
        got = [cls.values[above[c // len(monos)]].c.get(monos[c % len(monos)], Fraction(0)) for c in range(b)]
        assert_same_values(got, x)
        assert cls.values[vid] == norm_poly(g, vid)
        assert all(cls.values[u].is_zero() for u in above[b // len(monos) + 1 :])


def test_flowup_consistency_row_refuses_a_corrupted_norm(monkeypatch):
    # t_1 is proportional to no tangent weight t_i - t_j at n = 3, so no
    # class of degree 1 vanishes below a vertex of index 1 and takes the value
    # t_1 there: the vertex's consistency rows must refuse it before any edge
    # check would
    g = build_gkm((2, 3, 3))
    vid = next(u for u in g.order if g.index[u] == 1)
    norm = gkm._norm

    def corrupted(g, u):
        return (1,) + (0,) * (g.nvars - 1) if u == vid else norm(g, u)  # t_1, first in monomials order

    monkeypatch.setattr(gkm, "_norm", corrupted)
    with pytest.raises(ConsistencyError, match="no flow-up class at vertex"):
        flow_up_class(g, vid)
    monkeypatch.undo()
    assert oracles.flow_up_class(build_gkm((2, 3, 3)), vid).values[vid] == norm_poly(g, vid)


@pytest.mark.parametrize(
    "h", [h for n in range(2, 5) for h in enumerate_hessenberg(n) if dimension(h)] + [(2, 3, 4, 5, 5)], ids=str
)
def test_flowup_elimination_stops_at_the_rank_of_the_norm_multiples(h, monkeypatch):
    # the down-weights at u are pairwise coprime, so the homogeneous
    # solutions there are norm(u) * P_(k-m): each local elimination stops
    # with exactly D - dim P_(k-m) pivots left of column D (D when k < m),
    # the dense rank of all its homogeneous rows, and its last row read is
    # the one that reaches it
    g, systems = flowup_eliminations(h, monkeypatch)
    for k, u, stop, rows, read, pivots, _ in systems:
        D, rank = stop
        assert D == len(monomials(g.nvars, k)) and rank == known_rank(g, k, u)
        assert sum(1 for p in pivots if p < D) == rank
        homogeneous = [dense({c: x for c, x in r.items() if c < D}, D) for r in rows]
        assert dense_rank(homogeneous) == rank
        assert dense_rank(homogeneous[: read - 1]) == rank - 1


def test_flowup_sweep_refuses_a_class_corrupted_past_the_stop(monkeypatch):
    # (3,3,3), index 1: the class of w = (1,3,2) is corrupted at w by the
    # monomial t_2 after w is solved, just before the vertex u = (3,1,2),
    # its first neighbour above, builds its rows.  t_2 is its own remainder
    # modulo the form of the edge u-w, so only that edge's row of t_2 sees
    # the corruption, and the kernel stops before reading it: the rows it
    # reads are consistent.  The sweep must refuse the class by substituting
    # its solution into the unread rows; without that check the corruption
    # would surface only as a failed edge check of the finished table
    g = build_gkm((3, 3, 3))
    u, w = g.vindex[(3, 1, 2)], g.vindex[(1, 3, 2)]
    t2 = monomials(g.nvars, 1).index((0, 1))
    rows_of, rref = gkm._divisibility_rows, gkm._integer_rref
    answers = []

    def corrupting_rows(n, pair, k):
        sweep = sweep_locals()
        if sweep["u"] == u and not answers:
            started = sweep["started"]
            c = next(c for c, entry in enumerate(started) if entry[0] == w)
            vec = list(started[c][2][w])
            vec[t2] += 1
            started[c][2][w] = tuple(vec)
            answers.append(None)
        return rows_of(n, pair, k)

    def answer(rows, stop):
        pivots, red = rref(rows, stop)
        if answers == [None]:
            answers[0] = pivots
        return pivots, red

    monkeypatch.setattr(gkm, "_divisibility_rows", corrupting_rows)
    monkeypatch.setattr(gkm, "_integer_rref", answer)
    with pytest.raises(ConsistencyError, match=r"no flow-up class at vertex \(1, 3, 2\)"):
        gkm._flow_up_classes(g, 1)
    assert answers[0] and all(p < len(monomials(g.nvars, 1)) for p in answers[0])


def test_flowup_sweep_skips_the_vertices_no_class_reaches(monkeypatch):
    # a vertex where every class started below it is 0 at every down-neighbour
    # calls no elimination, and every class is 0 there
    g, systems = flowup_eliminations((2, 3, 4, 4), monkeypatch)
    reached = {system[:2] for system in systems}
    assert reached == {(k, u) for k, u, _ in reached_vertices(g)}
    skipped = 0
    for k in range(g.l + 1):
        tables = gkm._flow_up_classes(g, k)
        low = g.order.index(min(tables, key=g.order.index))
        for u in g.order[low + 1 :]:
            if (k, u) not in reached:
                skipped += 1
                assert all(u not in support or g.index[u] == k and vid == u for vid, (_, support) in tables.items())
    assert skipped == 9


def leibniz_det(A):
    """Determinant as the signed sum over all permutations."""
    n = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


def charpoly(A):
    """Coefficients c_0..c_n of det(x I - A), lowest degree first, by
    Faddeev-LeVerrier over Fraction."""
    n = len(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I, and c_{n-k} = -tr(A M_k) / k
        M = [
            [sum((A[i][j] * M[j][c] for j in range(n)), Fraction(0)) for c in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            M[i][i] += coeffs[n - k + 1]
        trace_am = sum(A[i][j] * M[j][i] for i in range(n) for j in range(n))
        coeffs[n - k] = -Fraction(trace_am) / k
    return coeffs


def sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_signature(A):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Its characteristic polynomial is real-rooted, so Descartes' rule of signs
    counts the positive roots exactly, and on p(-x) the negative ones."""
    coeffs = charpoly(A)
    zero = next(i for i, c in enumerate(coeffs) if c)
    reflected = [c if i % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(reflected), zero


def minor_pivots(A):
    """D_k / D_{k-1} for the leading principal minors, up to and including
    the first ratio that is not positive."""
    pivots = []
    prev = Fraction(1)
    for k in range(1, len(A) + 1):
        D = leibniz_det([row[:k] for row in A[:k]])
        pivots.append(D / prev)
        if pivots[-1] <= 0:
            break
        prev = D
    return pivots


def random_symmetric(rng, n: int, kind: str):
    """Random symmetric integer matrix of the given kind."""
    if kind == "definite":
        # B^T B + I: positive definite
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        return [
            [sum(B[k][i] * B[k][j] for k in range(n)) + (i == j) for j in range(n)]
            for i in range(n)
        ]
    if kind == "singular":
        # B^T D B with a rank-deficient B and a signed diagonal D
        r = rng.randint(0, n - 1)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        D = [rng.choice((-2, -1, 1, 3)) for _ in range(r)]
        return [[sum(D[k] * B[k][i] * B[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(-5, 5)
    if kind == "zero-diagonal":
        for i in range(n):
            A[i][i] = 0
    elif n > 1:
        # a positive and a negative diagonal entry make it indefinite
        A[0][0], A[n - 1][n - 1] = rng.randint(1, 5), -rng.randint(1, 5)
    return A


KINDS = ["definite", "indefinite", "singular", "zero-diagonal"]


@pytest.mark.parametrize("kind", KINDS)
def test_inertia_signature_and_pivots(kind):
    rng = random.Random(f"linalg:inertia:{kind}")
    for trial in range(30):
        n = 1 + trial % 6
        A = random_symmetric(rng, n, kind)
        before = [list(r) for r in A]
        signature, pivots = inertia(A)
        assert A == before
        assert signature == descartes_signature([[Fraction(x) for x in r] for r in A]), A
        assert pivots == minor_pivots(A), A
        assert all(type(p) is Fraction for p in pivots)
        if kind == "definite":
            assert signature == (n, 0, 0) and len(pivots) == n
        if kind == "indefinite" and n > 1:
            assert signature[0] and signature[1]
        if kind == "singular":
            assert signature[2] > 0
        if kind == "zero-diagonal":
            assert pivots == [0]


@pytest.mark.parametrize("kind", KINDS)
def test_integer_inertia_matches_the_fraction_pass(kind):
    # the integer pass on A / d against the Fraction pass on the same matrix
    rng = random.Random(f"linalg:inertia-oracle:{kind}")
    for trial in range(30):
        n = 1 + trial % 6
        A = random_symmetric(rng, n, kind)
        d = rng.randint(1, 12)
        rational = [[Fraction(x, d) for x in row] for row in A]
        want = fraction_inertia(rational)
        assert _integer_inertia(A, d) == want, (A, d)
        assert inertia(rational) == want, (A, d)


def test_inertia_fixtures():
    assert inertia([]) == ((0, 0, 0), [])
    assert inertia([[0, 1], [1, 0]]) == ((1, 1, 0), [0])
    assert inertia([[2, 1], [1, 2]]) == ((2, 0, 0), [2, Fraction(3, 2)])
    assert inertia([[1, 0, 0], [0, -1, 0], [0, 0, 5]]) == ((2, 1, 0), [1, -1])
    assert inertia([[0, 0], [0, 0]]) == ((0, 0, 2), [0])


@pytest.mark.parametrize("kind", KINDS)
def test_det_exact_matches_leibniz(kind):
    rng = random.Random(f"linalg:det:{kind}")
    for trial in range(30):
        n = 1 + trial % 6
        A = random_symmetric(rng, n, kind)
        assert det_exact(A) == leibniz_det(A), A
    # not only symmetric input, and rational entries
    for n in range(1, 6):
        A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert det_exact(A) == leibniz_det(A)


def test_det_exact_edge_cases():
    assert det_exact([]) == 1
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert type(det_exact([[2]])) is Fraction
    with pytest.raises(ValueError):
        det_exact([[1, 2]])
