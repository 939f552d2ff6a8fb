import copy
import hashlib
import importlib
import itertools
import json
import random
from fractions import Fraction
from math import comb, factorial, isqrt, lcm

import pytest

from hesslab import gkm
from hesslab.cli import all_parabolic_subsets, canonical_json, kahler_payload
from hesslab.dotchar import betti_rs, dot_action_multiplicities, regular_betti
from hesslab.errors import ConsistencyError, TheoremViolation
from hesslab.gkm import (
    build_gkm,
    default_kahler_weight,
    invariant_subring,
    kahler_report,
    monomials,
    morse_betti,
    poincare_pairing,
)
from hesslab.hessenberg import dimension, enumerate_hessenberg
from hesslab.linalg import det_exact, rank_exact
import oracles
from oracles import (
    EquivClass,
    Poly,
    character_value,
    dot_action,
    equivariant_dimension,
    equivariant_piece,
    flow_up_class,
    inertia,
    integrate,
    kahler_class,
    lefschetz_integrals_by_lifts,
    lift,
    lift_with_noise,
    ordinary_basis,
    ordinary_project,
    pairing_by_lifts,
    primitive_form_by_lifts,
)


def cycle_type(w):
    n = len(w)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = w[j] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def euler_at(g, u, point):
    """Product of the oriented tangent weights t_{w(b)} - t_{w(a)} at a point."""
    full = list(point) + [-sum(point)]
    out = Fraction(1)
    for wa, wb in g.weight_pairs[u]:
        out *= full[wb - 1] - full[wa - 1]
    return out


def localization_sum(g, c, point):
    total = Fraction(0)
    for u in range(len(g.vertices)):
        total += c.values[u].eval_at(point) / euler_at(g, u, point)
    return total


def test_graph_shape():
    for n in (2, 3, 4):
        for h in enumerate_hessenberg(n):
            g = build_gkm(h)
            assert len(g.vertices) == factorial(n)
            l = dimension(h)
            assert g.l == l
            edges = list(oracles.edges(g))
            assert len(edges) == factorial(n) * l // 2
            for u in range(len(g.vertices)):
                assert len(set(g.neighbor[u])) == l


def test_weight_pair_convention():
    g = build_gkm((2, 3, 3))
    assert g.roots == ((2, 1), (3, 2))
    uid = g.vindex[(1, 2, 3)]
    assert g.weight_pairs[uid] == [(2, 1), (3, 2)]
    # the edge for root (a, b) swaps the values in positions a and b
    assert g.vertices[g.neighbor[uid][0]] == (2, 1, 3)
    assert g.vertices[g.neighbor[uid][1]] == (1, 3, 2)


def test_graph_size_guard():
    with pytest.raises(ValueError):
        build_gkm((6,) * 6)


def test_morse_betti_matches_character_route():
    for n in (2, 3, 4):
        for h in enumerate_hessenberg(n):
            assert morse_betti(build_gkm(h)) == betti_rs(h), h


def test_morse_betti_n5_sample():
    # the full 42-function sweep runs in acceptance; one tall and one flat case
    for h in ((2, 3, 4, 5, 5), (5, 5, 5, 5, 5)):
        assert morse_betti(build_gkm(h)) == betti_rs(h)


def test_equivariant_dimensions_free_module_formula():
    def predicted(h, k):
        b = betti_rs(h)
        m = len(h) - 1
        return sum(
            b[j] * comb(k - j + m - 1, m - 1) for j in range(min(k, len(b) - 1) + 1)
        )

    hexagon = build_gkm((2, 3, 3))
    assert [equivariant_dimension(hexagon, k) for k in (0, 1, 2)] == [1, 6, 12]
    for h in ((2, 2), (1, 3, 3), (3, 3, 3), (2, 3, 4, 4)):
        g = build_gkm(h)
        for k in range(min(2 * g.l, 3) + 1):
            assert equivariant_dimension(g, k) == predicted(h, k), (h, k)


def test_equivariant_dimension_edgeless():
    g = build_gkm((1, 2, 3))
    assert equivariant_dimension(g, 0) == 6
    assert equivariant_dimension(g, 1) == 12  # six components, two linear forms


def test_equivariant_piece_is_certified_basis():
    g = build_gkm((2, 3, 3))
    for k in (0, 1, 2, 3):
        basis = equivariant_piece(g, k)
        assert len(basis) == equivariant_dimension(g, k)
        for cls in basis:
            assert cls.degree == k
    with pytest.raises(ValueError):
        equivariant_piece(g, 2 * g.l + 4)


def test_ordinary_dimensions():
    assert len(ordinary_basis(build_gkm((2, 3, 3)), 1)) == 4
    assert len(ordinary_basis(build_gkm((3, 3, 3)), 3)) == 1
    for h in ((2, 2), (2, 3, 3), (3, 3, 3), (2, 3, 4, 4)):
        g = build_gkm(h)
        b = betti_rs(h)
        for k in range(g.l + 1):
            assert len(ordinary_basis(g, k)) == b[k]


def test_flow_up_triangularity_and_normalization():
    # the library seed and two seeds of the form hessbench uses per pass (seed + k * 1000003)
    seeds = (1729, 1 + 1000003, 2 + 2 * 1000003)
    for seed, h in itertools.product(seeds, ((2, 3, 3), (3, 3, 3), (2, 2, 3, 4))):
        g = build_gkm(h, seed=seed)
        for vid in range(len(g.vertices)):
            den, support = gkm.flow_up_class(g, vid)
            assert type(den) is int and den > 0
            assert all(len(vec) == len(monomials(g.nvars, g.index[vid])) for vec in support.values())
            assert any(support[vid]) and support[vid] == tuple(den * x for x in gkm._norm(g, vid))
            assert not any(u in support for u in g.order[: g.order.index(vid)])


def test_flow_up_class_at_n5_reads_the_degree_table():
    # flow_up_class runs wherever build_gkm does: at n = 5 each vertex's
    # class is its entry in the table of its Morse index
    g = build_gkm((2, 3, 4, 5, 5))
    for vid in g.order:
        assert gkm.flow_up_class(g, vid) == gkm._flow_up_classes(g, g.index[vid])[vid]


def test_flow_up_classes_at_n5_frontier():
    # the upward sweep builds every flow-up table of the Peterson function at
    # n = 5; the oracle class rebuilt from each table passes the polynomial
    # edge check
    g = build_gkm((2, 3, 4, 5, 5))
    counts = []
    for k in range(g.l + 1):
        tables = gkm._flow_up_classes(g, k)
        assert list(tables) == [u for u in g.order if g.index[u] == k]
        for vid in tables:
            cls = oracles.class_of(g, k, tables[vid])
            cls.check_edges()
            assert cls.degree == k
            norm = oracles.norm_poly(g, vid)
            assert cls.values[vid] == norm
            assert gkm._norm(g, vid) == tuple(norm.c.get(mono, 0) for mono in monomials(g.nvars, k))
            assert oracles.class_table(cls) == tables[vid]
        counts.append(len(tables))
    assert counts == [1, 26, 66, 26, 1] == betti_rs(g.h)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduction_tables_are_scaled_polynomial_remainders(n):
    # for every canonical pair and every k <= 6, the remainders read off the
    # integer divisibility rows (entry i of the row of m: the coefficient of
    # m in the remainder of monomial i) are one positive scalar times the
    # remainders of the monomials that the oracle's divmod_linear leaves
    for pair in itertools.combinations(range(1, n + 1), 2):
        form = oracles.pair_form(n, *pair)
        for k in range(7):
            rows = gkm._divisibility_rows(n, pair, k)
            monos = monomials(n - 1, k)
            table = [{m: row[mi] for m, row in rows.items() if mi in row} for mi in range(len(monos))]
            assert all(0 <= mi < len(monos) for row in rows.values() for mi in row)
            ratios = set()
            for got, mono in zip(table, monos):
                want = oracles.divmod_linear(Poly(n - 1, {mono: 1}), form)[1]
                assert set(got) == set(want.c), (pair, k, mono)
                assert all(type(x) is int for x in got.values())
                ratios.update(Fraction(got[m]) / x for m, x in want.c.items())
            # at n = 2 every monomial of positive degree is a multiple of the form
            assert len(ratios) == (1 if n > 2 or k == 0 else 0) and all(r > 0 for r in ratios), (pair, k)


def test_flow_up_classes_avoid_polynomial_classes():
    # the library has no polynomial class: the tables are built by integer
    # local RREFs and checked on integers, divisibility rows included
    with pytest.raises(ImportError):
        importlib.import_module("hesslab.exactpoly")
    for name in ("Poly", "EquivClass", "divmod_linear", "dot_action", "lift", "ordinary_basis", "kahler_class"):
        assert not hasattr(gkm, name), name
    gkm._divisibility_rows.cache_clear()
    g = build_gkm((2, 3, 4, 4))
    for k in range(g.l + 1):
        for vid, (den, support) in gkm._flow_up_classes(g, k).items():
            assert type(vid) is int and type(den) is int and den > 0
            for u, vec in support.items():
                assert type(u) is int and type(vec) is tuple
                assert all(type(x) is int for x in vec)


N4_FUNCTIONS = [h for n in range(2, 5) for h in enumerate_hessenberg(n)]


@pytest.mark.parametrize("h", [*N4_FUNCTIONS, (2, 3, 4, 5, 5), (3, 3, 4, 5, 5)], ids=str)
def test_flow_up_sweep_matches_the_prefix_elimination(h):
    # the upward sweep, one local solve per vertex, gives every table of every
    # degree exactly as one global RREF of the degree's edge system does
    g = build_gkm(h)
    for k in range(g.l + 1):
        assert gkm._flow_up_classes(g, k) == oracles.prefix_flow_up_classes(g, k), k


@pytest.mark.parametrize("h", [*N4_FUNCTIONS, (2, 3, 4, 5, 5)], ids=str)
def test_flow_up_basis_is_unitriangular_over_the_vertex_solved_one(h):
    # two flow-up classes at one vertex with the same norm differ by a class
    # supported strictly above it, so the expansion of their difference over
    # the per-vertex basis uses only vertices strictly above, and the constant
    # coefficients at the vertices of the same index, read in moment order,
    # form a unitriangular matrix; every class rebuilt from its table passes
    # the polynomial edge check
    g = build_gkm(h)
    old = oracles.graph_with_vertex_solved_basis(h)
    for k in range(g.l + 1):
        vids = [u for u in g.order if g.index[u] == k]
        T = []
        for vid in vids:
            new, was = flow_up_class(g, vid), flow_up_class(old, vid)
            new.check_edges()
            assert new.values[vid] == was.values[vid]
            diff = EquivClass(old, k, tuple(a - b for a, b in zip(new.values, was.values)))
            coeffs = oracles._decompose(old, diff)
            assert all(g.order.index(u) > g.order.index(vid) for u in coeffs)
            T.append([1 if u == vid else coeffs.get(u, Poly.zero(g.nvars)).constant_value() for u in vids])
        assert all(T[i][i] == 1 and not any(T[i][:i]) for i in range(len(T)))


def test_kahler_reports_agree_with_the_vertex_solved_basis():
    # every basis-invariant field of the n <= 4 reports is the same on the
    # per-vertex basis; a middle-degree pairing is one form on one space, so
    # its determinant moves by the square of the basis change (off the middle
    # the two sides change independently, so no such test holds there)
    middle = 0
    for h in N4_FUNCTIONS:
        g, old = build_gkm(h), oracles.graph_with_vertex_solved_basis(h)
        for r in range(g.n):
            for J in itertools.combinations(range(1, g.n), r):
                new, was = kahler_report(g, J), kahler_report(old, J)
                assert strip_pivots(new) == strip_pivots(was)
                if g.l % 2 == 0 and new["poincare"][str(g.l)]["nondegenerate"]:
                    middle += 1
                    rows, den, _ = gkm._pairing(g, g.l, J)
                    was_rows, was_den, _ = gkm._pairing(old, g.l, J)
                    ratio = det_exact(rows, den) / det_exact(was_rows, was_den)
                    assert ratio > 0
                    assert all(isqrt(x) ** 2 == x for x in (ratio.numerator, ratio.denominator))
    assert middle == 66


def strip_pivots(report):
    """The report without its Hodge-Riemann pivots, which depend on the basis."""
    return {
        **report,
        "hodge_riemann": {
            k: {f: v for f, v in entry.items() if f != "pivots"}
            for k, entry in report["hodge_riemann"].items()
        },
    }


def test_project_lift_roundtrip():
    g = build_gkm((2, 3, 3))
    for k in range(g.l + 1):
        dim = len(ordinary_basis(g, k))
        for i in range(dim):
            vec = [Fraction(int(i == j)) for j in range(dim)]
            assert ordinary_project(g, lift(g, k, vec)) == vec


def test_projection_kills_decomposables():
    # a flow-up class times a positive-degree polynomial projects to zero
    g = build_gkm((2, 3, 3))
    sigma = flow_up_class(g, g.order[0])  # bottom class, degree 0
    t0 = Poly.variable(g.nvars, 0)
    assert ordinary_project(g, sigma * t0) == [Fraction(0)] * len(ordinary_basis(g, 1))


def test_integrate_constant_is_zero():
    g = build_gkm((2, 3, 3))
    one = EquivClass(g, 0, tuple(Poly.const(g.nvars, 1) for _ in g.vertices))
    # degree 0 < l, so the localization sum collapses to zero
    assert integrate(g, one * kahler_class(g, (1, 0, -1))) == 0


def test_integrate_point_class_normalization():
    # the top flow-up class represents a point; it is normalized by the
    # down-oriented forms while integration orients every tangent weight for
    # ample positivity, so the two differ by one sign per edge at the top
    for h in ((2, 2), (2, 3, 3), (3, 3, 3)):
        g = build_gkm(h)
        top = g.order[-1]
        assert g.index[top] == g.l
        assert integrate(g, flow_up_class(g, top)) == (-1) ** g.l


def test_integrate_projective_line():
    g = build_gkm((2, 2))
    omega = kahler_class(g, default_kahler_weight(2))
    assert integrate(g, omega) == 1


def test_integrate_hexagon_self_intersection():
    # the permutohedron of (2,1,0) has normalized area 3, so the square of the
    # corresponding ample class integrates to 2! * 3
    g = build_gkm((2, 3, 3))
    omega = kahler_class(g, (2, 1, 0))
    assert integrate(g, omega * omega) == 6
    for lam in ((2, 0, -2), (5, 1, 0), (3, 1, -4)):
        w = kahler_class(g, lam)
        assert integrate(g, w * w) > 0


def test_integrate_matches_pointwise_localization():
    point3 = (Fraction(3, 7), Fraction(-5, 11))
    g = build_gkm((2, 3, 3))
    omega = kahler_class(g, (2, 1, 0))
    assert localization_sum(g, omega * omega, point3) == 6
    cubic = omega * omega * omega
    value = integrate(g, cubic)  # degree 1 polynomial
    assert value.eval_at(point3) == localization_sum(g, cubic, point3)

    flag = build_gkm((3, 3, 3))
    w = kahler_class(flag, (4, 1, 0))
    assert localization_sum(flag, w * w * w, point3) == integrate(flag, w * w * w)

    point4 = (Fraction(3, 7), Fraction(-5, 11), Fraction(9, 13))
    g4 = build_gkm((2, 3, 4, 4))
    w4 = kahler_class(g4, default_kahler_weight(4))
    deg = g4.l
    power = w4
    for _ in range(deg - 1):
        power = power * w4
    assert localization_sum(g4, power, point4) == integrate(g4, power)


def test_kahler_class_values_and_validation():
    g = build_gkm((2, 3, 3))
    cls = kahler_class(g, (1, 0, -1))
    assert cls.values[g.vindex[(1, 2, 3)]] == Poly.linear([2, 1])  # t1 - t3
    assert cls.values[g.vindex[(2, 3, 1)]] == Poly.linear([-1, 1])  # t2 - t1
    with pytest.raises(ValueError):
        kahler_class(g, (1, 1, 0))
    with pytest.raises(ValueError):
        kahler_class(g, (1, 0))


def test_kahler_class_dot_invariant():
    g = build_gkm((2, 3, 3))
    for lam in ((1, 0, -1), (2, 1, 0), (5, 2, -3)):
        cls = kahler_class(g, lam)
        for w in itertools.permutations(range(1, 4)):
            assert dot_action(g, w, cls) == cls


def test_dot_action_identity_and_constants():
    g = build_gkm((2, 3, 3))
    omega = kahler_class(g, (2, 1, 0))
    assert dot_action(g, (1, 2, 3), omega) == omega
    one = EquivClass(g, 0, tuple(Poly.const(g.nvars, 1) for _ in g.vertices))
    for w in itertools.permutations(range(1, 4)):
        assert dot_action(g, w, one) == one
    with pytest.raises(ValueError):
        dot_action(g, (1, 1, 3), omega)


def rep_trace(g, w, k):
    basis = ordinary_basis(g, k)
    total = Fraction(0)
    for i, cls in enumerate(basis):
        total += ordinary_project(g, dot_action(g, w, cls))[i]
    return total


def test_dot_action_traces_match_characters():
    # the graded trace of each group element equals the character predicted by
    # the multiplicity table: a cross-module oracle
    for h in ((2, 3, 3), (1, 3, 3), (3, 3, 3)):
        g = build_gkm(h)
        gm = dot_action_multiplicities(h)
        for w in itertools.permutations(range(1, 4)):
            mu = cycle_type(w)
            for k in range(g.l + 1):
                expected = sum(
                    row[k] * character_value(lam, mu) for lam, row in gm.table.items()
                )
                assert rep_trace(g, w, k) == expected, (h, w, k)


def test_hexagon_degree_one_trace_table():
    # two trivial summands plus the standard rep
    g = build_gkm((2, 3, 3))
    for w in itertools.permutations(range(1, 4)):
        expected = {(1, 1, 1): 4, (2, 1): 2, (3,): 1}[cycle_type(w)]
        assert rep_trace(g, w, 1) == expected


def test_poincare_pairing_fixtures():
    points = build_gkm((1, 2, 3))
    matrix = poincare_pairing(points, 0)
    assert matrix == [
        [Fraction(int(i == j)) for j in range(6)] for i in range(6)
    ]

    hexagon = build_gkm((2, 3, 3))
    top = poincare_pairing(hexagon, 0)
    assert top == [[Fraction(1)]]
    middle = poincare_pairing(hexagon, 2)
    assert len(middle) == 4
    assert middle == [list(row) for row in zip(*middle)]  # middle degree: symmetric
    assert inertia(middle)[0] == (1, 3, 0)  # surface intersection form

    with pytest.raises(ValueError):
        poincare_pairing(hexagon, 1)


def count_intersection_matrices(monkeypatch):
    """Reinstall gkm._integrals with its memo around a body that records the
    degree k of every intersection matrix M_k, the key (k, l - k), it
    computes."""
    calls = []
    body = gkm._integrals.__wrapped__

    def _integrals(g, a, b, j=0, lam=None):
        if a + b == g.l and not j:
            calls.append(a)
        return body(g, a, b, j, lam)

    monkeypatch.setattr(gkm, "_integrals", gkm._memo(_integrals))
    return calls


def test_pairing_memoized_unless_singular(monkeypatch):
    calls = count_intersection_matrices(monkeypatch)
    g = build_gkm((2, 3, 4, 4))
    # the first pairing computes the intersection matrix of degrees 1 and 2,
    # whatever the size of the invariant block: the invariant blocks of
    # degree 1 and 2 check M_1 and M_2 (the transpose of M_1) nonsingular
    first = poincare_pairing(g, 2, (1, 3))
    assert first and calls == [1, 2]
    assert poincare_pairing(g, 2, [3, 1, 3]) == first
    assert calls == [1, 2]

    # a singular pairing raises on every call; its intersection matrix, and
    # M_3 for the degree-3 invariant block, are computed on the first call only
    monkeypatch.setattr(gkm, "rank_exact", lambda rows: 0)
    for _ in range(2):
        with pytest.raises(TheoremViolation):
            poincare_pairing(g, 0, (1, 3))
        assert calls == [1, 2, 0, 3]


def test_kahler_report_computes_intersection_matrices_once(monkeypatch):
    calls = count_intersection_matrices(monkeypatch)
    g = build_gkm((2, 3, 4, 4))
    for r in range(4):
        for J in itertools.combinations(range(1, 4), r):
            assert kahler_report(g, J)["verdicts"]["all"] is True
    # l = 3: one matrix for each k <= l, shared by all 8 J and by the omega
    # tables; J = () first checks the hard Lefschetz tables (0, 0) and
    # (1, 1), which need M_3 (the transpose of M_0) and M_2 (that of M_1)
    # nonsingular, and the other J reuse them
    assert calls == [3, 0, 2, 1]


def _corrupt_flow_up(g, vid, table):
    """Replace the memoized flow-up table of vid, which is not checked again."""
    g._caches["_flow_up_classes"][(g.index[vid],)][vid] = table


def _add_monomial(g, vid, at, mono):
    """vid's flow-up table with den times the given monomial added at vertex at."""
    den, support = gkm._flow_up_classes(g, g.index[vid])[vid]
    vec = list(support.get(at, (0,) * len(monomials(g.nvars, g.index[vid]))))
    vec[monomials(g.nvars, g.index[vid]).index(mono)] += den
    return den, {**support, at: tuple(vec)}


def test_integer_edge_check_rejects_a_corrupted_table():
    # t_1^2 added at the top vertex of its class on the hexagon breaks the
    # edge conditions there, for the integer check and the polynomial one
    g = build_gkm((2, 3, 3))
    top = g.order[-1]
    gkm._check_flow_up(g, top, gkm._flow_up_classes(g, g.l)[top])
    corrupted = _add_monomial(g, top, top, (2, 0))
    with pytest.raises(ConsistencyError, match="edge condition fails"):
        gkm._check_flow_up(g, top, corrupted)
    with pytest.raises(ConsistencyError, match="edge condition fails"):
        oracles.class_of(g, g.l, corrupted).check_edges()


def test_support_leak_check_rejects_a_class_below_its_vertex():
    # the sum of two flow-up classes of one index passes every edge
    # condition, but it does not vanish below the higher of the two vertices
    g = build_gkm((2, 3, 3))
    low, high = [u for u in g.order if g.index[u] == 1][:2]
    leaked = oracles.class_table(flow_up_class(g, low) + flow_up_class(g, high))
    gkm._check_edges(g, 1, leaked[1])
    with pytest.raises(ConsistencyError, match="support leaked below its vertex"):
        gkm._check_flow_up(g, high, leaked)


def test_ordinary_tables_reject_a_missing_class():
    # one class fewer than the Betti number of its degree
    g = build_gkm((2, 3, 3))
    tables = gkm._flow_up_classes(g, 1)
    del tables[next(iter(tables))]
    with pytest.raises(ConsistencyError, match="ordinary piece at degree 1 has 3 classes, character says 4"):
        ordinary_basis(g, 1)
    with pytest.raises(ConsistencyError, match="character says 4"):
        gkm._integrals(g, 1, g.l - 1)


def test_intersection_matrix_rejects_a_non_constant_localization_sum():
    # the corrupted top class of test_integer_edge_check_rejects_a_corrupted_table,
    # put in the memo (which does not recheck it): its localization sum is no
    # longer constant.  A table is homogeneous, so a corruption that passes
    # every edge condition would integrate to a constant: it must break one.
    g = build_gkm((2, 3, 3))
    top = g.order[-1]
    _corrupt_flow_up(g, top, _add_monomial(g, top, top, (2, 0)))
    with pytest.raises(ConsistencyError, match="differ between the evaluation points"):
        gkm._integrals(g, 0, g.l)


def test_dot_matrix_rejects_a_non_constant_localization_sum():
    # Q_1 at degree 1 reads no intersection matrix, so what fires is the
    # check on the sums of the acted class: t_1 added at its own vertex to a
    # class of index 1
    g = build_gkm((2, 3, 3))
    vid = next(u for u in g.order if g.index[u] == 1)
    corrupted = _add_monomial(g, vid, vid, (1, 0))
    with pytest.raises(ConsistencyError, match="edge condition fails"):
        gkm._check_flow_up(g, vid, corrupted)
    _corrupt_flow_up(g, vid, corrupted)
    with pytest.raises(ConsistencyError, match="differ between the evaluation points"):
        gkm._integrals(g, 1, g.l - 1, 1)
    assert g._caches["_integrals"] == {}


def test_dot_action_must_be_a_graph_automorphism():
    # acted classes get no edge check of their own, so a moment graph the
    # swap does not act on must be refused: two neighbors exchanged at one
    # vertex, or one weight pair reversed
    def swap_neighbors(g, u):
        g.neighbor[u][0], g.neighbor[u][1] = g.neighbor[u][1], g.neighbor[u][0]

    def reverse_weight(g, u):
        g.weight_pairs[u][0] = g.weight_pairs[u][0][::-1]

    for corrupt in (swap_neighbors, reverse_weight):
        for j in (1, 2):
            g = build_gkm((2, 3, 3))
            assert sorted(gkm._dot_sources(g, j)) == list(range(6))
            g = build_gkm((2, 3, 3))
            corrupt(g, g.vindex[(1, 3, 2)])
            with pytest.raises(ConsistencyError, match="automorphism"):
                gkm._dot_sources(g, j)
            with pytest.raises(ConsistencyError, match="automorphism"):
                gkm._integrals(g, 1, g.l - 1, j)
            assert g._caches["_integrals"] == {}


def test_tables_reject_a_singular_intersection_matrix(monkeypatch):
    # every intersection matrix M_k, the table (k, l - k), reads as zero
    integrals = gkm._integrals

    def zero_matrix(g, a, b, j=0, lam=None):
        if a + b == g.l and not j:
            return [[0] * len(ordinary_basis(g, b)) for _ in ordinary_basis(g, a)], 1
        return integrals(g, a, b, j, lam)

    monkeypatch.setattr(gkm, "_integrals", zero_matrix)
    g = build_gkm((2, 3, 3))
    lam = default_kahler_weight(3)
    with pytest.raises(ConsistencyError, match="singular intersection matrix"):
        gkm._invariant_vectors(g, (1,), 1)
    with pytest.raises(ConsistencyError, match="singular intersection matrix"):
        gkm._integrals(g, 0, 0, 0, lam)
    for name in ("_checked_form", "_invariant_vectors", "_integrals"):
        assert g._caches[name] == {}, name


def test_reports_reject_a_singular_hard_lefschetz_table(monkeypatch):
    # every hard Lefschetz table (dd, dd, lam) with a power of omega reads as
    # zero: omega^(l - 2 dd) would not be injective on the whole ring, which
    # contradicts classical hard Lefschetz, so the report raises before any
    # W_J-invariant basis is built, and nothing is memoized
    integrals = gkm._integrals

    def zero_matrix(g, a, b, j=0, lam=None):
        if a == b and lam is not None:
            return [[0] * len(ordinary_basis(g, b)) for _ in ordinary_basis(g, a)], 1
        return integrals(g, a, b, j, lam)

    monkeypatch.setattr(gkm, "_integrals", zero_matrix)
    g = build_gkm((2, 3, 3))
    with pytest.raises(ConsistencyError, match="singular intersection matrix at degree 0"):
        kahler_report(g, (1,), (7, 2, -1))
    for name in ("_checked_form", "_invariant_vectors", "_integrals"):
        assert g._caches.get(name, {}) == {}, name


def test_kahler_payloads_solve_for_no_flow_up_coordinates(monkeypatch):
    # once the flow-up tables are built, every Kahler check is read off
    # integrals: with the elimination the sweep uses refused, the payloads of
    # all 8 J equal those of a fresh graph
    h = (2, 3, 4, 4)
    fresh = build_gkm(h)
    want = [kahler_payload(fresh, J) for J in all_parabolic_subsets(4)]
    g = build_gkm(h)
    for k in range(g.l + 1):
        gkm._ordinary_tables(g, k)

    def refuse(rows, stop=None):
        raise AssertionError("a linear system was solved after the flow-up tables")

    monkeypatch.setattr(gkm, "_integer_rref", refuse)
    assert [kahler_payload(g, J) for J in all_parabolic_subsets(4)] == want


INVARIANT_ORACLE_FUNCTIONS = [*N4_FUNCTIONS, (2, 3, 4, 5, 5), (3, 4, 5, 5, 5)]


@pytest.mark.parametrize("h", INVARIANT_ORACLE_FUNCTIONS, ids=str)
def test_invariant_kernels_match_the_stacked_nullspace(h):
    # the kernel read off the continued RREF of J without its last generator
    # is the stacked nullspace's basis, d included, whether a fresh graph is
    # asked for the largest J first (every prefix cold) or in shortlex order
    # (every prefix memoized)
    subsets = all_parabolic_subsets(len(h))
    for order in (subsets[::-1], subsets):
        g = build_gkm(h)
        for J in order:
            for k in range(g.l + 1):
                assert gkm._invariant_vectors(g, J, k) == oracles.stacked_invariant_vectors(g, J, k), (J, k)


def test_invariant_rref_continues_its_prefix_unmodified(monkeypatch):
    # a later J reads its prefix's memoized RREF as it stands, leaves it
    # unchanged, and hands the kernel only the N rows of its last generator
    g = build_gkm((2, 3, 4, 4))
    for k in range(g.l + 1):
        gkm._invariant_vectors(g, (1, 2), k)
    memo = g._caches["_invariant_rref"]
    before = copy.deepcopy(memo)
    continued = gkm._continued_rref
    seen = []

    def record(prefix, rows):
        rows = list(rows)
        seen.append((prefix, rows))
        return continued(prefix, rows)

    monkeypatch.setattr(gkm, "_continued_rref", record)
    for k in range(g.l + 1):
        gkm._invariant_vectors(g, (1, 2, 3), k)
    assert len(seen) == g.l + 1
    for k, (prefix, rows) in enumerate(seen):
        assert prefix is memo[((1, 2), k)]
        M, dm = gkm._integrals(g, k, g.l - k)
        Q, dq = gkm._integrals(g, k, g.l - k, 3)
        assert rows == oracles.transpose([[q * dm - m * dq for q, m in zip(qr, mr)] for qr, mr in zip(Q, M)])
        assert len(rows) == len(M)
    assert {key: memo[key] for key in before} == before


def values_at_point(g, k, j, p):
    """The sparse value table at p of the flow-up classes sigma_c of index
    k, or for j > 0 of s_j . sigma_c: the value of sigma_c at s_j^{-1} u, at
    the point with t_j and t_(j+1) swapped, kept at the vertices u where
    s_j^{-1} u lies in sigma_c's support."""
    if not j:
        return gkm._point_values(g, k, p)
    T = gkm._coordinates(g.n, p)
    X = tuple(T[x - 1] for x in gkm.transposition(g.n, j)[: g.nvars])
    rows, den = gkm._values(g, k, gkm._ordinary_tables(g, k).values(), X)
    sources = gkm._dot_sources(g, j)
    return [{u: row[src] for u, src in enumerate(sources) if src in row} for row in rows], den


def integrals_at_point(g, a, b, j, lam, p):
    """The table gkm._integrals(g, a, b, j, lam) evaluated at the point p
    alone, with s_j acting on the classes of index a and no transposition."""
    right, den = gkm._point_values(g, b, p)
    if a + b < g.l:
        (w,), _ = gkm._values(g, 1, [gkm._kahler_table(g, lam)], p[: g.nvars])
        right = [{u: x * w[u] ** (g.l - a - b) for u, x in row.items()} for row in right]
    return gkm._fractions(*gkm._localized_products(g, values_at_point(g, a, j, p), (right, den), p))


def integral_table_keys(g):
    """Every integral table a Kahler report at the default weight reads, as
    (family, a, b, j, lam): M_k and Q_j at every degree k, the omega tables
    (dd, dd) below the middle and (dd, dd - 1) of the primitive kernels."""
    lam = default_kahler_weight(g.n)
    keys = [("M", k, g.l - k, 0, None) for k in range(g.l + 1)]
    keys += [("Q", k, g.l - k, j, None) for j in range(1, g.n) for k in range(g.l + 1)]
    keys += [("omega", dd, dd, 0, lam) for dd in range((g.l + 1) // 2)]
    keys += [("omega", dd, dd - 1, 0, lam) for dd in range(1, g.l // 2 + 1)]
    return keys


def test_integrals_above_the_middle_are_transposes():
    # for a > b the library returns the table (a, b) as the transpose of
    # (b, a): the intersection matrices M_k and Q_j for 2k > l, and the omega
    # tables (dd, dd - 1) of the primitive kernels.  The sums evaluated at
    # (a, b) itself, at each point on its own, must give the same matrix
    checked = {"M": 0, "Q": 0, "omega": 0}
    for n in range(2, 5):
        lam = default_kahler_weight(n)
        for h in enumerate_hessenberg(n):
            g = build_gkm(h)
            cases = [("M", k, g.l - k, 0, None) for k in range(g.l // 2 + 1, g.l + 1)]
            cases += [("Q", k, g.l - k, j, None) for j in range(1, n) for k in range(g.l // 2 + 1, g.l + 1)]
            cases += [("omega", dd, dd - 1, 0, lam) for dd in range(1, g.l // 2 + 1)]
            for family, a, b, j, weight in cases:
                want = gkm._fractions(*gkm._integrals(g, a, b, j, weight))
                for p in gkm.LOCALIZATION_POINTS:
                    assert integrals_at_point(g, a, b, j, weight, p) == want, (h, a, b, j, p)
                checked[family] += 1
    assert checked == {"M": 28, "Q": 77, "omega": 17}


DENSE_ORACLE_FUNCTIONS = [h for n in range(2, 5) for h in enumerate_hessenberg(n)] + [
    (2, 3, 4, 5, 5),
    (3, 4, 5, 5, 5),
]


@pytest.mark.parametrize("h", DENSE_ORACLE_FUNCTIONS, ids=lambda h: "".join(map(str, h)))
def test_sparse_sums_match_dense_localization(h):
    # every table family, summed over the vertices where both classes are
    # nonzero, equals the dense sum A diag(1/e_w) B^T over all n! vertices at
    # each point on its own, and both equal the library's table
    g = build_gkm(h)
    for family, a, b, j, lam in integral_table_keys(g):
        want = gkm._fractions(*gkm._integrals(g, a, b, j, lam))
        for p in gkm.LOCALIZATION_POINTS:
            assert oracles.dense_localized_integrals(g, a, b, j, lam, p) == want, (family, a, b, j, p)
            assert integrals_at_point(g, a, b, j, lam, p) == want, (family, a, b, j, p)


def test_integral_tables_pinned():
    # every M_k, every Q_j and the default-weight omega tables of every
    # n <= 4 function at seed 1729, one canonical JSON line per table, hashed
    digest = hashlib.sha256()
    tables = 0
    for n in range(2, 5):
        for h in enumerate_hessenberg(n):
            g = build_gkm(h)
            for _, a, b, j, lam in integral_table_keys(g):
                rows, den = gkm._integrals(g, a, b, j, lam)
                line = [list(h), a, b, j, lam and list(lam), den, rows]
                digest.update((json.dumps(line, separators=(",", ":")) + "\n").encode())
                tables += 1
    assert tables == 291
    assert digest.hexdigest() == "a9fd750cf62cb157974264f5c15565de9b6a69ae930a01e05ec9f929d84a2b88"


def test_sparse_value_rows_cover_exactly_the_supports():
    # each value row holds the vertices of its class's support and no other,
    # at both points, for the flow-up classes and the ample class
    for h in enumerate_hessenberg(4):
        g = build_gkm(h)
        for p in gkm.LOCALIZATION_POINTS:
            for k in range(g.l + 1):
                rows, _ = gkm._point_values(g, k, p)
                supports = [support for _, support in gkm._ordinary_tables(g, k).values()]
                assert [row.keys() for row in rows] == [support.keys() for support in supports]
            (omega,), _ = gkm._values(g, 1, [gkm._kahler_table(g, default_kahler_weight(4))], p[: g.nvars])
            assert omega.keys() == set(range(len(g.vertices))) and all(omega.values())


def test_localized_products_read_weights_only_on_shared_supports(monkeypatch):
    # an Euler weight is read only at a vertex in some left support and some
    # right support, and the sums are those of the dense oracle
    class RecordingWeights(list):
        def __getitem__(self, u):
            read.add(u)
            return super().__getitem__(u)

    euler_weights = gkm._euler_weights

    def recording(g, p):
        weights, L = euler_weights(g, p)
        return RecordingWeights(weights), L

    monkeypatch.setattr(gkm, "_euler_weights", recording)
    for h in ((2, 3, 4, 4), (2, 3, 4, 5, 5)):
        g = build_gkm(h)
        p = gkm.LOCALIZATION_POINTS[0]
        for a in range(g.l + 1):
            left, right = gkm._point_values(g, a, p), gkm._point_values(g, g.l - a, p)
            read = set()
            sums = gkm._fractions(*gkm._localized_products(g, left, right, p))
            assert read == set().union(*left[0]) & set().union(*right[0]), (h, a)
            assert len(read) < len(g.vertices), (h, a)
            assert sums == oracles.dense_localized_integrals(g, a, g.l - a, 0, None, p), (h, a)


def test_dot_sources_are_involutions():
    # u -> s_j^{-1} u is its own inverse, so an acted sparse row is the row
    # with each vertex v moved to sources[v]
    for n in range(2, 6):
        g = build_gkm((n,) * n)
        for j in range(1, n):
            sources = gkm._dot_sources(g, j)
            assert [sources[s] for s in sources] == list(range(len(g.vertices))), (n, j)
            assert any(s != u for u, s in enumerate(sources)), (n, j)


def test_kahler_report_avoids_polynomial_projection(monkeypatch):
    # every table is read off point evaluations: no decomposition over
    # flow-up classes, no polynomial dot action or substitution
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial route reached")

    monkeypatch.setattr(oracles, "_decompose", refuse)
    monkeypatch.setattr(oracles, "dot_action", refuse)
    monkeypatch.setattr(Poly, "substitute", refuse)
    monkeypatch.setattr(EquivClass, "check_edges", refuse)
    g = build_gkm((2, 3, 4, 4))
    for r in range(4):
        for J in itertools.combinations(range(1, 4), r):
            assert kahler_report(g, J)["verdicts"]["all"] is True
    assert kahler_report(g, (1,), (5, 3, 2, 0))["verdicts"]["all"] is True


def test_localization_points_separate_coordinates():
    for n in range(2, gkm.GRAPH_MAX_N + 1):
        for point in gkm.LOCALIZATION_POINTS:
            t = list(point[: n - 1])
            t.append(-sum(t))
            assert len(set(t)) == n, (n, point)


def naive_product(A, B):
    """Row-list matrix product summed over Fraction."""
    return [
        [sum((Fraction(a) * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
        for row in A
    ]


def integer_form(A):
    """A matrix of int or Fraction entries as integer rows over one denominator."""
    d = lcm(*(Fraction(x).denominator for row in A for x in row))
    return [[int(x * d) for x in row] for row in A], d


def assert_integer_form(pair):
    """pair is integer rows over one positive denominator, ints only."""
    rows, den = pair
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in rows for x in row)


@pytest.mark.parametrize(
    "A, B",
    [
        (
            [[1, Fraction(-2, 3), 0], [Fraction(5, 4), 7, Fraction(1, 6)]],
            [[Fraction(3, 5), -1], [2, Fraction(9, 14)], [Fraction(-1, 2), 0]],
        ),
        ([[2, -3], [0, 5], [4, 1]], [[1, 0, -2], [3, 7, 1]]),
        ([[Fraction(4), Fraction(-6)]], [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(8)]]),
        ([], [[1, Fraction(1, 2)], [0, 3]]),
        ([[Fraction(1, 10**9 + 7), Fraction(-1, 3)]], [[Fraction(10**9 + 7, 2)], [Fraction(3, 10**12)]]),
    ],
    ids=["mixed", "all-int", "fraction-with-denominator-1", "A-without-rows", "large-denominators"],
)
def test_matmul_matches_fraction_product(A, B):
    got = gkm._matmul(integer_form(A), integer_form(B))
    assert_integer_form(got)
    assert gkm._fractions(*got) == naive_product(A, B)


KAHLER_ORACLE_FUNCTIONS = [h for n in (2, 3) for h in enumerate_hessenberg(n)] + [
    (1, 4, 4, 4),
    (2, 3, 4, 4),
    (3, 3, 3, 4),
    (2, 4, 4, 4),  # l = 4: a middle degree with omega^0
]

# a second strictly decreasing weight, checked besides the default one
KAHLER_ORACLE_ALT_WEIGHT = {h: (7, 2, -1) for h in enumerate_hessenberg(3)}
KAHLER_ORACLE_ALT_WEIGHT[(2, 3, 4, 4)] = (5, 3, 0, -4)


@pytest.mark.parametrize("h", KAHLER_ORACLE_FUNCTIONS, ids=lambda h: "".join(map(str, h)))
def test_kahler_forms_match_lifted_products(h):
    g = build_gkm(h)
    weights = [default_kahler_weight(g.n)]
    if h in KAHLER_ORACLE_ALT_WEIGHT:
        weights.append(KAHLER_ORACLE_ALT_WEIGHT[h])
    for r in range(g.n):
        for J in itertools.combinations(range(1, g.n), r):
            for k in range(0, 2 * g.l + 1, 2):
                assert poincare_pairing(g, k, J) == pairing_by_lifts(g, k, J), (J, k)
            for lam in weights:
                report = kahler_report(g, J, lam)
                for dd in range(g.l // 2 + 1):
                    # A G and A K: the invariant basis times the omega
                    # tables (dd, dd) and (dd, dd - 1); degree 0 has no K
                    A = gkm._invariant_vectors(g, gkm._subset(g, J), dd)
                    # the report's hard Lefschetz rank, the dimension of the
                    # piece, is the rank of A G
                    G = gkm._integrals(g, dd, dd, 0, lam if 2 * dd < g.l else None)
                    hl_rank = report["hard_lefschetz"][str(2 * dd)]["rank"]
                    assert rank_exact(gkm._matmul(A, G)[0]) == hl_rank, (J, lam, dd)
                    for b in range(max(dd - 1, 0), dd + 1):
                        table = gkm._integrals(g, dd, b, 0, lam if dd + b < g.l else None)
                        got = gkm._matmul(A, table)
                        assert_integer_form(got)
                        want = lefschetz_integrals_by_lifts(g, J, lam, dd, b)
                        assert gkm._fractions(*got) == want, (J, lam, dd, b)
                    form = gkm._primitive_form(g, J, lam, dd)
                    assert_integer_form(form)
                    assert gkm._fractions(*form) == primitive_form_by_lifts(g, J, lam, dd), (J, lam, dd)


def test_integer_inertia_matches_the_fraction_pass_on_every_report_gram(monkeypatch):
    # every signed Hodge-Riemann Gram matrix the 136 reports with n <= 4 hand
    # the integer congruence pass, integer rows over one denominator, gets the
    # signature and pivots of the Fraction pass on the same rational matrix
    seen = []
    kernel = gkm._integer_inertia

    def record(A, d):
        out = kernel(A, d)
        seen.append((A, d, out))
        return out

    monkeypatch.setattr(gkm, "_integer_inertia", record)
    forms = 0
    for n in range(2, 5):
        for h in enumerate_hessenberg(n):
            g = build_gkm(h)
            for r in range(n):
                for J in itertools.combinations(range(1, n), r):
                    forms += len(kahler_report(g, J)["hodge_riemann"])
    assert len(seen) == forms
    for A, d, out in seen:
        assert_integer_form((A, d))
        assert out == oracles.fraction_inertia(gkm._fractions(A, d)), (A, d)


def count_fractions(compute):
    """compute() and the argument tuples of every Fraction built meanwhile."""
    original = Fraction.__dict__["__new__"]
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        return compute(), made
    finally:
        Fraction.__new__ = original


def hodge_riemann_pivots(report) -> int:
    return sum(len(entry["pivots"]) for entry in report["hodge_riemann"].values())


def test_kahler_report_builds_fractions_only_for_pivots_and_pairings():
    # once the flow-up tables and the per-graph matrices are filled, a report
    # for a new J builds a Fraction for each recorded Hodge-Riemann pivot and
    # for nothing else: the invariant bases, dot matrices, products, pairings
    # and Gram matrices stay integer.  The public pairing matrices build one
    # Fraction per entry, and only when asked for.
    g = build_gkm((2, 3, 4, 4))
    kahler_report(g, ())
    report, made = count_fractions(lambda: kahler_report(g, (1,)))
    assert report["verdicts"]["all"] is True
    assert hodge_riemann_pivots(report) and len(made) == hodge_riemann_pivots(report)
    pairings = sum(entry["size"] ** 2 for entry in report["poincare"].values())
    _, made = count_fractions(lambda: [poincare_pairing(g, int(k), (1,)) for k in report["poincare"]])
    assert pairings and len(made) == pairings


def test_kahler_payload_builds_fractions_only_for_pivots_and_determinants():
    # the payload reads each determinant off the memoized integer pairing:
    # past the report's pivots, one Fraction per recorded determinant and no
    # pairing entry as a Fraction
    g = build_gkm((2, 3, 4, 4))
    kahler_report(g, ())
    payload, made = count_fractions(lambda: kahler_payload(g, (1,)))
    dets = sum("det" in entry for entry in payload["poincare"].values())
    assert dets == len(payload["poincare"])
    assert hodge_riemann_pivots(payload) and len(made) == hodge_riemann_pivots(payload) + dets


def test_first_kahler_report_builds_fractions_only_for_pivots():
    # the first report on a fresh graph, with no divisibility rows built yet,
    # builds the divisibility rows, the norms, the flow-up tables and every
    # per-graph matrix on integers: a Fraction only for each recorded
    # Hodge-Riemann pivot
    gkm._divisibility_rows.cache_clear()
    g = build_gkm((2, 3, 4, 4))
    report, made = count_fractions(lambda: kahler_report(g, ()))
    assert report["verdicts"]["all"] is True
    assert hodge_riemann_pivots(report) and len(made) == hodge_riemann_pivots(report)


def test_invariant_dimensions_are_checked_against_the_character(monkeypatch):
    # a character prediction the invariant bases do not meet raises, from the
    # report and from the public subring alike
    monkeypatch.setattr(gkm, "regular_betti", lambda h, J: [1, 3, 2])
    g = build_gkm((2, 3, 3))
    for compute in (kahler_report, invariant_subring):
        with pytest.raises(TheoremViolation, match=r"invariant dimensions \[1, 3, 1\] != character"):
            compute(g, (1,))


KAHLER_N5_FUNCTION = (2, 3, 4, 5, 5)


def test_kahler_reports_pinned_at_n5():
    # the Peterson function (2,3,4,5,5), of dimension l = 4 at n = 5: the
    # reports of all 16 J, in all_parabolic_subsets order at the default
    # seed, hold the Kahler package and are pinned byte for byte
    g = build_gkm(KAHLER_N5_FUNCTION)
    reports = [kahler_report(g, J) for J in all_parabolic_subsets(5)]
    assert len(reports) == 16
    assert all(report["verdicts"]["all"] for report in reports)
    digest = hashlib.sha256(canonical_json(reports).encode()).hexdigest()
    assert digest == "125e8d97efe594607ccfe0506e69e29766d29bdeda5518e0ed0ed7fc0df592b4"


def test_kahler_reports_pinned_at_l7():
    # (3,4,5,5,5), l = 7, whose flow-up classes took minutes by one global
    # elimination per degree: the reports of all 16 J hold the Kahler
    # package and are pinned byte for byte like those of (2,3,4,5,5)
    g = build_gkm((3, 4, 5, 5, 5))
    reports = [kahler_report(g, J) for J in all_parabolic_subsets(5)]
    assert len(reports) == 16
    assert all(report["verdicts"]["all"] for report in reports)
    digest = hashlib.sha256(canonical_json(reports).encode()).hexdigest()
    assert digest == "417a72fccea04f93177827f7da703b3c7f49fba4a45fc0b7a9045fe1f42f1971"


def test_pairing_independent_of_lift():
    g = build_gkm((2, 3, 3))
    rng = random.Random(552)
    dim1 = len(ordinary_basis(g, 1))
    for trial in range(5):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(dim1)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(dim1)]
        reference = integrate(g, lift(g, 1, a) * lift(g, 1, b))
        noisy = integrate(g, lift_with_noise(g, 1, a, rng) * lift_with_noise(g, 1, b, rng))
        assert noisy == reference


def test_invariant_subring_dimensions():
    hexagon = build_gkm((2, 3, 3))
    assert [len(v) for v in invariant_subring(hexagon, ())] == [1, 4, 1]
    assert [len(v) for v in invariant_subring(hexagon, (1,))] == [1, 3, 1]
    assert [len(v) for v in invariant_subring(hexagon, (2,))] == [1, 3, 1]
    assert [len(v) for v in invariant_subring(hexagon, (1, 2))] == [1, 2, 1]

    flag = build_gkm((3, 3, 3))
    assert [len(v) for v in invariant_subring(flag, (1, 2))] == [1, 2, 2, 1]


def test_invariant_dims_match_character_prediction():
    for h in ((2, 2), (2, 3, 3), (3, 3, 3), (2, 3, 4, 4)):
        g = build_gkm(h)
        for r in range(len(h)):
            for J in itertools.combinations(range(1, len(h)), r):
                dims = [len(v) for v in invariant_subring(g, J)]
                assert dims == regular_betti(h, J), (h, J)


def test_kahler_report_hexagon():
    g = build_gkm((2, 3, 3))
    report = kahler_report(g, ())
    assert report["invariant_betti"] == [1, 4, 1]
    assert report["verdicts"] == {
        "poincare": True,
        "hard_lefschetz": True,
        "hodge_riemann": True,
        "all": True,
    }
    assert report["poincare"]["2"] == {"size": 4, "rank": 4, "nondegenerate": True}
    assert report["hard_lefschetz"]["0"] == {"power": 2, "rank": 1, "dim": 1, "full": True}
    hr0 = report["hodge_riemann"]["0"]
    assert hr0["sign"] == 1 and hr0["definite"] and hr0["dim_primitive"] == 1
    hr2 = report["hodge_riemann"]["2"]
    assert hr2["sign"] == -1
    assert hr2["dim_primitive"] == 3
    assert hr2["signature"] == [3, 0, 0]
    assert hr2["definite"]
    assert all(Fraction(p) > 0 for p in hr2["pivots"])


def test_kahler_report_flag_and_peterson_slice():
    flag = build_gkm((3, 3, 3))
    report = kahler_report(flag, ())
    assert report["verdicts"]["all"] is True
    assert report["hodge_riemann"]["2"]["dim_primitive"] == 1

    hexagon = build_gkm((2, 3, 3))
    inv = kahler_report(hexagon, (1, 2))
    assert inv["invariant_betti"] == [1, 2, 1]
    assert inv["verdicts"]["all"] is True

    points = build_gkm((1, 2, 3))
    flat = kahler_report(points, ())
    assert flat["verdicts"]["all"] is True


def test_kahler_report_alternate_weight():
    g = build_gkm((2, 3, 3))
    report = kahler_report(g, (), (7, 2, -1))
    assert report["lambda"] == [7, 2, -1]
    assert report["verdicts"]["all"] is True
