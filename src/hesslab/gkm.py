"""Moment-graph cohomology engine for semisimple Hessenberg spaces.

Vertices are the permutations of [n].  For every position pair (a, b) with
b < a <= h(b) (a strictly-lower matrix slot inside the Hessenberg shape), each
vertex w is joined to w composed with the transposition of positions a, b, and
the edge carries the linear form t_{w(a)} - t_{w(b)}.  Every vertex therefore
has degree exactly dimension(h); the constructor asserts this and the mutual
consistency of the two endpoints, so a wrong edge rule cannot survive
construction silently.

Classes are tuples of polynomials in t_1..t_{n-1}, with t_n =
-(t_1+...+t_{n-1}), subject to the edge divisibility conditions.  The module
structure is handled through flow-up classes: a fixed generic covector orients
every edge, each vertex gets a Morse index (its down-degree), and its flow-up
class is a class of that degree supported on it and the vertices above it,
normalized to the product of its downward weights.  The degree-k edge rows,
one {column: coefficient} row per edge and output monomial touching the
unknowns of two vertices, give each vertex a block of columns in descending
moment order.  A vertex's own system is then a column prefix, so one exact
RREF (linalg's sparse integer kernel) of the prefix that ends at the lowest
vertex of index k yields every flow-up class of index k; a vertex without one
raises ConsistencyError.  A flow-up class is kept as an integer table read off
the RREF's rows and pivots: one positive denominator and, for each vertex of
its support, an integer coefficient vector over the degree-k monomials.  The
edge rows and the edge check run on integers: the remainders of the monomials
modulo each edge form are scaled by their lcm, and on every edge the
difference of the endpoint vectors combined with them must vanish.  Each table
must also vanish below its vertex.  flow_up_class builds the polynomial
EquivClass from the table on demand; EquivClass.check_edges is the polynomial
check the tests hold the tables to.  The flow-up classes of Morse index k are
the basis of the ordinary degree-k piece; their count is checked against the
Betti numbers from the character side, so a missing or extra class raises
instead of passing silently.  That monomial multiples of flow-up classes span
every equivariant degree piece is a free-module statement the test suite
certifies against the exact nullity of the full divisibility system.

The dot action and the Kahler forms are read off per-graph matrices, computed
once and shared by every J: the intersection matrix of flow-up classes of
complementary Morse index, one matrix per generator s_j and degree, and one
Lefschetz matrix per degree, multiplication by omega on flow-up coordinates.
All of them come from point evaluations.  A localization sum of a degree-l
product of two classes that pass the edge conditions is a constant, read off
at two integer points where no tangent weight vanishes; the two must agree.
The values of the flow-up classes at a point are integer dot products of their
tables with the monomial values there, one integer table over one denominator
per index; the localization sums stay integers over one denominator until the
two points are compared by cross-multiplication.  s_j . sigma and sigma omega
take their values from the tables (at a permuted point for s_j), and their
flow-up coordinates, integer rows over one denominator, solve a linear system
against the intersection matrix, because integrating a degree-k class against
the flow-up classes of index l - k sees only its index-k coordinates.
Integration is bilinear over the torus ring and a product of degree below l
integrates to 0; projection kills positive-degree multiples, so it is a ring
map and omega^p is the chained product of p Lefschetz matrices.

Every matrix on the way from the per-graph tables to a Kahler verdict is
integer rows over one positive denominator, (rows, den): the intersection,
dot and Lefschetz matrices, the W_J-invariant bases (linalg's integer
nullspace of the stacked s_j - 1), and the pairings, hard Lefschetz images,
primitive kernels and Hodge-Riemann Gram matrices, which are exact products
of those (_matmul, which divides out the content of each product).  The
signature of a Gram matrix comes from linalg's fraction-free congruence pass.
Fractions are built only where a value leaves the module: the public bases
and pairing matrices, and the recorded Hodge-Riemann pivots.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, wraps
from math import gcd, lcm, prod
from operator import add, mul

from .dotchar import betti_rs, regular_betti
from .errors import ConsistencyError, TheoremViolation
from .exactpoly import Poly, divmod_linear, monomials
from .hessenberg import check_hessenberg, dimension
from .linalg import _integer_inertia, _integer_nullspace, _integer_rref, rank_exact

DEFAULT_SEED = 1729
GRAPH_MAX_N = 5
RING_MAX_N = 4

# Two integer points (t_1, ..., t_4); for n variables the first n - 1 entries
# are t_1..t_{n-1}, and with t_n = -(t_1 + ... + t_{n-1}) all n coordinates are
# distinct for every n <= GRAPH_MAX_N, so no tangent weight vanishes there.
LOCALIZATION_POINTS = ((3, -5, 10, 2), (-4, 7, 2, -8))


@dataclass
class GKMGraph:
    h: tuple[int, ...]
    n: int
    l: int
    seed: int
    vertices: tuple[tuple[int, ...], ...]
    vindex: dict[tuple[int, ...], int]
    roots: tuple[tuple[int, int], ...]
    neighbor: list[list[int]]
    weight_pairs: list[list[tuple[int, int]]]
    xi: tuple[int, ...]
    phi: list[int]
    order: list[int]
    index: list[int]
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nvars(self) -> int:
        return self.n - 1

    def edges(self):
        """Each undirected edge once, as (u, v, canonical_pair)."""
        for u in range(len(self.vertices)):
            for v, (i, j) in zip(self.neighbor[u], self.weight_pairs[u]):
                if u < v:
                    yield u, v, (min(i, j), max(i, j))


def _memo(fn):
    """Memoize fn(g, *key) in g's own tables; a call that raises stores nothing."""

    @wraps(fn)
    def memoized(g, *key):
        table = g._caches.setdefault(fn.__name__, {})
        if key not in table:
            table[key] = fn(g, *key)
        return table[key]

    return memoized


@dataclass
class EquivClass:
    """Vertex-wise polynomial assignment of one homogeneous degree."""

    graph: GKMGraph
    degree: int
    values: tuple[Poly, ...]

    def __add__(self, other: "EquivClass") -> "EquivClass":
        if other.degree != self.degree:
            raise ValueError("cannot add classes of different degrees")
        return EquivClass(
            self.graph, self.degree, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scale(self, k) -> "EquivClass":
        return EquivClass(self.graph, self.degree, tuple(v.scale(k) for v in self.values))

    def __mul__(self, other) -> "EquivClass":
        if isinstance(other, EquivClass):
            return EquivClass(
                self.graph,
                self.degree + other.degree,
                tuple(a * b for a, b in zip(self.values, other.values)),
            )
        if isinstance(other, Poly):
            return EquivClass(
                self.graph, self.degree + other.degree, tuple(v * other for v in self.values)
            )
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EquivClass)
            and self.degree == other.degree
            and self.values == other.values
        )

    def check_edges(self) -> None:
        g = self.graph
        for u, v, pair in g.edges():
            diff = self.values[u] - self.values[v]
            if diff.is_zero():
                continue
            if not divmod_linear(diff, _pair_form(g.n, *pair))[1].is_zero():
                raise ConsistencyError(
                    f"edge condition fails between {g.vertices[u]} and {g.vertices[v]} on {pair}"
                )


@cache
def _t(n: int, i: int) -> Poly:
    """The linear form t_i in the retained variables t_1..t_{n-1}."""
    if i < n:
        return Poly.variable(n - 1, i - 1)
    return Poly.linear([-1] * (n - 1))  # t_n = -(t_1 + ... + t_{n-1})


@cache
def _pair_form(n: int, i: int, j: int) -> Poly:
    """The linear form t_i - t_j."""
    return _t(n, i) - _t(n, j)


def build_gkm(h, *, seed: int = DEFAULT_SEED) -> GKMGraph:
    """Construct the moment graph with Morse data from a seeded generic covector."""
    h = check_hessenberg(h)
    n = len(h)
    if n < 2 or n > GRAPH_MAX_N:
        raise ValueError(f"moment graph supports 2 <= n <= {GRAPH_MAX_N}, got n = {n}")
    l = dimension(h)
    vertices = tuple(sorted(itertools.permutations(range(1, n + 1))))
    vindex = {w: i for i, w in enumerate(vertices)}
    roots = tuple((a, b) for b in range(1, n + 1) for a in range(b + 1, h[b - 1] + 1))
    neighbor = []
    weight_pairs = []
    for w in vertices:
        row_nb = []
        row_wt = []
        for a, b in roots:
            swapped = list(w)
            swapped[a - 1], swapped[b - 1] = w[b - 1], w[a - 1]
            row_nb.append(vindex[tuple(swapped)])
            row_wt.append((w[a - 1], w[b - 1]))
        neighbor.append(row_nb)
        weight_pairs.append(row_wt)

    # Degree invariant and endpoint consistency: each root contributes exactly
    # one distinct neighbor, and the same root seen from the other endpoint
    # returns here with the opposite weight.
    for u in range(len(vertices)):
        if len(set(neighbor[u])) != l or u in neighbor[u]:
            raise ConsistencyError(f"vertex degree != {l} at {vertices[u]}; edge rule is wrong")
        for r in range(len(roots)):
            v = neighbor[u][r]
            if neighbor[v][r] != u or weight_pairs[v][r] != weight_pairs[u][r][::-1]:
                raise ConsistencyError("edge endpoints disagree; edge rule is wrong")

    rng = random.Random(f"hesslab-gkm:{seed}:{h}")
    xi = tuple(rng.sample(range(1, 512 * n * n), n))  # distinct entries
    rho = tuple(n - a + 1 for a in range(1, n + 1))
    phi = [sum(rho[a] * xi[w[a] - 1] for a in range(n)) for w in vertices]
    index = [
        sum(1 for (wa, wb) in weight_pairs[u] if xi[wa - 1] < xi[wb - 1])
        for u in range(len(vertices))
    ]
    order = sorted(range(len(vertices)), key=lambda u: (phi[u], vertices[u]))

    return GKMGraph(
        h=h,
        n=n,
        l=l,
        seed=seed,
        vertices=vertices,
        vindex=vindex,
        roots=roots,
        neighbor=neighbor,
        weight_pairs=weight_pairs,
        xi=xi,
        phi=phi,
        order=order,
        index=index,
    )


def morse_betti(g: GKMGraph) -> list[int]:
    """Betti numbers read off the orientation: b_{2k} = #vertices of down-degree k."""
    counts = [0] * (g.l + 1)
    for idx in g.index:
        counts[idx] += 1
    return counts


@cache
def _reduction_table(n: int, pair: tuple[int, int], k: int):
    """Remainders of all degree-k monomials modulo the form of a canonical
    pair, one integer {monomial: coefficient} dict per monomial, all scaled
    by the lcm of their denominators.  A combination of the monomials is
    divisible by the form exactly when the same combination of these
    remainders vanishes."""
    L = _pair_form(n, *pair)
    rems = [divmod_linear(Poly(n - 1, {mono: Fraction(1)}), L)[1] for mono in monomials(n - 1, k)]
    d = lcm(*(x.denominator for r in rems for x in r.c.values()))
    return tuple({mono: x.numerator * (d // x.denominator) for mono, x in r.c.items()} for r in rems)


def _down_forms(g: GKMGraph, vid: int) -> list[Poly]:
    """Oriented tangent weights at vid whose pairing with xi is negative."""
    out = []
    for wa, wb in g.weight_pairs[vid]:
        if g.xi[wa - 1] < g.xi[wb - 1]:
            out.append(_pair_form(g.n, wa, wb))
    return out


def flow_up_class(g: GKMGraph, vid: int) -> EquivClass:
    """The flow-up class of a vertex: degree = Morse index, zero strictly below.

    Normalized so its value at the vertex is the product of the downward
    tangent weights.  Built on demand from its integer table, which is read
    off the one elimination of its degree's edge system that serves every
    vertex of that index and checked there (_flow_up_classes); a vertex
    without a class raises ConsistencyError.
    """
    _check_ring_size(g)
    return _flow_up_class(g, vid)


def _check_ring_size(g: GKMGraph) -> None:
    if g.n > RING_MAX_N:
        raise ValueError(f"class-level operations support n <= {RING_MAX_N}")


@_memo
def _flow_up_class(g: GKMGraph, vid: int) -> EquivClass:
    """The EquivClass of vid's flow-up table, with no size guard."""
    k = g.index[vid]
    return _class_of(g, k, _flow_up_classes(g, k)[vid])


def _class_of(g: GKMGraph, k: int, table) -> EquivClass:
    """The degree-k EquivClass of an integer table (den, support)."""
    den, support = table
    monos = monomials(g.nvars, k)
    values = [Poly.zero(g.nvars)] * len(g.vertices)
    for u, vec in support.items():
        values[u] = Poly(g.nvars, {mono: Fraction(x, den) for mono, x in zip(monos, vec)})
    return EquivClass(g, k, tuple(values))


def _norm(g: GKMGraph, vid: int) -> tuple[int, ...]:
    """The product of the downward tangent weights at vid, as an integer
    coefficient vector over monomials(nvars, index of vid)."""
    norm = {(0,) * g.nvars: 1}
    for f in _down_forms(g, vid):
        product: dict[tuple[int, ...], int] = {}
        for mono, x in norm.items():
            for unit, y in f.c.items():  # t_a - t_b: integer coefficients of single variables
                key = tuple(map(add, mono, unit))
                product[key] = product.get(key, 0) + x * int(y)
        norm = product
    return tuple(norm.get(mono, 0) for mono in monomials(g.nvars, g.index[vid]))


@_memo
def _flow_up_classes(g: GKMGraph, k: int) -> dict[int, tuple[int, dict[int, tuple[int, ...]]]]:
    """The flow-up classes of Morse index k as integer tables, {vertex:
    (den, support)} in moment order.  support maps the vertex and each
    vertex above it where the class is nonzero to an integer coefficient
    vector over monomials(nvars, k); the class's value there is that vector
    over the positive denominator den, and den and the vectors share no
    common factor.

    The columns of _edge_rows run over the vertices in descending moment
    order, so the system of a vertex vid (unknowns strictly above it, its
    own block fixed to its norm, everything below 0) is the column prefix
    that ends at vid's block.  The RREF of a matrix restricted to a column
    prefix is its RREF's rows with pivots in the prefix, restricted, so one
    RREF of the prefix that ends at the lowest vertex of index k serves
    every vertex of index k.  With free variables 0, a pivot row left of
    vid's block gives its pivot unknown -(row at vid's block) . norm / pivot;
    a row whose pivot lies in vid's block is zero left of it, so it is a
    consistency condition, and a nonzero dot with the norm means vid has no
    flow-up class.  Rows with pivots right of vid's block are zero on its
    block and play no part.  Only the RREF's entries in the blocks of index
    k are kept, and only until the classes are read.  Each table is checked
    (_check_flow_up) before it is returned.
    """
    vids = [u for u in g.order if g.index[u] == k]
    if not vids:
        return {}
    monos = monomials(g.nvars, k)
    D = len(monos)
    above = g.order[::-1]  # vertex above[p] owns columns p*D .. p*D + D - 1
    block = {u: p * D for p, u in enumerate(above)}
    ncols = block[vids[0]] + D
    prefix = ({c: x for c, x in row.items() if c < ncols} for row in _edge_rows(g, k))
    rows = [r for r in prefix if r]
    # Largest column first: the elimination pivots on leftmost columns, so this
    # order keeps the fill small.  The RREF is unchanged.
    rows.sort(key=max, reverse=True)
    pivots, red = _integer_rref(rows)

    # Each pivot row's entries in the blocks of the vertices of index k.
    touching: dict[int, list[tuple[int, int, int]]] = {u: [] for u in vids}
    for pcol in pivots:
        for c, x in red[pcol].items():
            u = above[c // D]
            if u in touching:
                touching[u].append((pcol, c % D, x))
    pivot_of = {pcol: red[pcol][pcol] for pcol in pivots}
    del red

    classes = {}
    for vid in vids:
        known = _norm(g, vid)
        dots: dict[int, int] = {}
        for pcol, mi, x in touching[vid]:
            dots[pcol] = dots.get(pcol, 0) + x * known[mi]
        dots = {pcol: dot for pcol, dot in dots.items() if dot}
        if any(pcol >= block[vid] for pcol in dots):
            raise ConsistencyError(f"no flow-up class at vertex {g.vertices[vid]} for h={g.h}")
        den = lcm(*(pivot_of[pcol] for pcol in dots))
        support = {vid: [den * x for x in known]}
        for pcol, dot in dots.items():
            p, mi = divmod(pcol, D)
            support.setdefault(above[p], [0] * D)[mi] = -dot * (den // pivot_of[pcol])
        c = gcd(den, *(x for vec in support.values() for x in vec))
        table = den // c, {u: tuple(x // c for x in vec) for u, vec in support.items()}
        _check_flow_up(g, vid, table)
        classes[vid] = table
    return classes


def _check_flow_up(g: GKMGraph, vid: int, table) -> None:
    """Raise ConsistencyError unless the flow-up table of vid vanishes below
    vid and passes every edge condition."""
    _, support = table
    if any(u in support for u in g.order[: g.order.index(vid)]):
        raise ConsistencyError("flow-up support leaked below its vertex")
    _check_edges(g, g.index[vid], support)


def _check_edges(g: GKMGraph, k: int, support) -> None:
    """Raise ConsistencyError unless the integer class support ({vertex:
    coefficient vector over monomials(nvars, k)}, 0 elsewhere) passes every
    edge condition: on each edge the difference of the two endpoint vectors,
    combined with the remainders of _reduction_table, vanishes.  An edge with
    neither endpoint in the support passes as it stands."""
    zero = (0,) * len(monomials(g.nvars, k))
    for u, cu in support.items():
        for v, (a, b) in zip(g.neighbor[u], g.weight_pairs[u]):
            if v < u and v in support:
                continue  # checked from v
            pair = (min(a, b), max(a, b))
            residual: dict[tuple[int, ...], int] = {}
            for rem, x, y in zip(_reduction_table(g.n, pair, k), cu, support.get(v, zero)):
                if x != y:
                    for mono, c in rem.items():
                        residual[mono] = residual.get(mono, 0) + (x - y) * c
            if any(residual.values()):
                raise ConsistencyError(
                    f"edge condition fails between {g.vertices[u]} and {g.vertices[v]} on {pair}"
                )


def _edge_rows(g: GKMGraph, k: int) -> list[dict[int, int]]:
    """Degree-k edge conditions, one integer row per edge and output
    monomial: the two endpoint values agree mod the edge form.  The vertices
    own blocks of D columns in descending moment order, the highest vertex
    first; a block holds the vertex's coefficients of the D monomials of
    degree k."""
    D = len(monomials(g.nvars, k))
    block = {u: p * D for p, u in enumerate(reversed(g.order))}
    rows = []
    for u, v, pair in g.edges():
        by_out: dict[tuple[int, ...], dict[int, int]] = {}
        for mi, rem in enumerate(_reduction_table(g.n, pair, k)):
            for mono, c in rem.items():
                row = by_out.setdefault(mono, {})
                row[block[u] + mi] = c
                row[block[v] + mi] = -c
        rows.extend(by_out.values())
    return rows


def ordinary_basis(g: GKMGraph, k: int) -> list[EquivClass]:
    """Flow-up classes of Morse index k, in moment order; canonical lifts of H^{2k}."""
    return [flow_up_class(g, u) for u in _ordinary_tables(g, k)]


def _ordinary_tables(g: GKMGraph, k: int):
    """The flow-up tables of Morse index k (_flow_up_classes), counted
    against the Betti number from the character side."""
    _check_ring_size(g)
    tables = _flow_up_classes(g, k)
    expected = betti_rs(g.h)[k] if 0 <= k <= g.l else 0
    if len(tables) != expected:
        raise ConsistencyError(
            f"ordinary piece at degree {k} has {len(tables)} classes, character says {expected}"
        )
    return tables


def kahler_class(g: GKMGraph, lam) -> EquivClass:
    """Equivariant ample class: value at w is the w-translate of a strictly decreasing lam."""
    return _class_of(g, 1, _kahler_table(g, _weight(g, lam)))


def _weight(g: GKMGraph, lam) -> tuple[int, ...]:
    """lam as a tuple of ints, checked to be strictly decreasing of length n."""
    lam = tuple(int(x) for x in lam)
    if len(lam) != g.n or any(lam[i] <= lam[i + 1] for i in range(g.n - 1)):
        raise ValueError(f"lambda must be strictly decreasing of length {g.n}, got {lam}")
    return lam


@_memo
def _kahler_table(g: GKMGraph, lam: tuple[int, ...]):
    """The ample class of lam as an integer table (1, support), checked
    against every edge condition.  Its value at w is the sum of lam_i
    t_{w(i)}; with t_n = -(t_1 + ... + t_{n-1}) the coefficient of t_j, j < n,
    is lam at the position of j minus lam at the position of n, and
    monomials(n - 1, 1) lists t_1, ..., t_{n-1} in order."""
    support = {}
    for u, w in enumerate(g.vertices):
        at = permutation_inverse(w)
        support[u] = tuple(lam[at[j] - 1] - lam[at[-1] - 1] for j in range(g.nvars))
    _check_edges(g, 1, support)
    return 1, support


def default_kahler_weight(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def permutation_inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def transposition(n: int, j: int) -> tuple[int, ...]:
    """Adjacent transposition swapping j and j+1."""
    w = list(range(1, n + 1))
    w[j - 1], w[j] = w[j], w[j - 1]
    return tuple(w)


def dot_action(g: GKMGraph, w, c: EquivClass) -> EquivClass:
    """Weyl dot action: (w . f) at u equals w applied to f at w^{-1} u.

    w permutes the variables t_i -> t_{w(i)}; edges go to edges because the
    edge set is stable under composing vertices on the right, and the result
    is re-checked against every edge condition.
    """
    w = tuple(int(x) for x in w)
    if sorted(w) != list(range(1, g.n + 1)):
        raise ValueError(f"not a permutation of 1..{g.n}: {w}")
    winv = permutation_inverse(w)
    images = [_t(g.n, target) for target in w[:-1]]
    values = []
    for u in g.vertices:
        src = g.vindex[compose(winv, u)]
        values.append(c.values[src].substitute(images))
    out = EquivClass(g, c.degree, tuple(values))
    out.check_edges()
    return out


def lift(g: GKMGraph, k: int, vec) -> EquivClass:
    """Equivariant representative of an ordinary class given in flow-up coordinates."""
    basis = ordinary_basis(g, k)
    out = EquivClass(g, k, tuple(Poly.zero(g.nvars) for _ in g.vertices))
    for coeff, cls in zip(vec, basis):
        if coeff:
            out = out + cls.scale(coeff)
    return out


@_memo
def _dot_sources(g: GKMGraph, j: int) -> list[int]:
    """The vertex map u -> s_j^{-1} u of the dot action of s_j, checked to be
    a moment-graph automorphism that carries weights to weights: the edge of
    each root at s_j^{-1} u ends at s_j^{-1} of u's neighbor along that root,
    and s_j sends its weight pair to u's.  So s_j . c passes every edge
    condition that c passes, and acted classes need no edge check of their own."""
    w = transposition(g.n, j)  # its own inverse
    sources = [g.vindex[compose(w, u)] for u in g.vertices]
    for u, src in enumerate(sources):
        for v, (a, b), end, (sa, sb) in zip(
            g.neighbor[u], g.weight_pairs[u], g.neighbor[src], g.weight_pairs[src]
        ):
            if end != sources[v] or (w[sa - 1], w[sb - 1]) != (a, b):
                raise ConsistencyError(
                    f"s_{j} is not a weight-preserving automorphism of the moment graph of h={g.h}"
                )
    return sources


@_memo
def _dot_matrix(g: GKMGraph, j: int, k: int):
    """Matrix of the adjacent-swap generator s_j on the degree-k ordinary piece,
    as integer rows over one denominator (rows, den): column c holds the
    flow-up coordinates of s_j . sigma_c.

    At vertex u and point x, s_j . sigma_c takes the value of sigma_c at
    s_j^{-1} u, evaluated at the permuted point (t_{s_j(1)}(x), ...,
    t_{s_j(n-1)}(x)).  Those values are computed here and not kept; the
    coordinates come from their localization sums (_flow_up_coordinates).
    """
    sources = _dot_sources(g, j)
    w = transposition(g.n, j)
    acted = []
    for point in LOCALIZATION_POINTS:
        T = _coordinates(g.n, point)
        X = tuple(T[w[i] - 1] for i in range(g.nvars))
        rows, den = _values(g, k, _ordinary_tables(g, k).values(), X)
        acted.append(([[row[src] for src in sources] for row in rows], den))
    rows, den = _flow_up_coordinates(g, k, acted)
    return _transpose(rows), den


def _subset(g: GKMGraph, J) -> tuple[int, ...]:
    """J as a sorted tuple of distinct generators, checked to lie in 1..n-1."""
    J = tuple(sorted(set(int(j) for j in J)))
    if any(not 1 <= j <= g.n - 1 for j in J):
        raise ValueError(f"J must be a subset of 1..{g.n - 1}: {J}")
    return J


def invariant_vectors(g: GKMGraph, J, k: int) -> list[list[Fraction]]:
    """Basis (flow-up coordinates) of the W_J-fixed subspace of the degree-k piece."""
    return _fractions(*_invariant_vectors(g, _subset(g, J), k))


@_memo
def _invariant_vectors(g: GKMGraph, J: tuple[int, ...], k: int):
    """The W_J-fixed basis as integer rows over one denominator (rows, den):
    the nullspace of the stacked s_j - 1, one vector per free column."""
    dim = len(_ordinary_tables(g, k))
    rows = []
    for j in J:
        M, d = _dot_matrix(g, j, k)
        for r, row in enumerate(M):
            rows.append([x - d if c == r else x for c, x in enumerate(row)])
    return _integer_nullspace(rows, dim)


def invariant_subring(g: GKMGraph, J) -> list[list[list[Fraction]]]:
    """Graded bases of the W_J-invariant subring; dimensions must match the
    character prediction for the corresponding regular element."""
    J = _subset(g, J)
    _invariant_betti(g, J)
    return [_fractions(*_invariant_vectors(g, J, k)) for k in range(g.l + 1)]


def _invariant_betti(g: GKMGraph, J: tuple[int, ...]) -> list[int]:
    """The dimensions of the W_J-invariant pieces, degree 0..l; raises
    TheoremViolation unless they match the character prediction."""
    dims = [len(_invariant_vectors(g, J, k)[0]) for k in range(g.l + 1)]
    predicted = regular_betti(g.h, J)
    if dims != predicted:
        raise TheoremViolation(
            f"invariant dimensions {dims} != character prediction {predicted} for h={g.h}, J={list(J)}",
            witness={"h": g.h, "J": list(J), "gkm_dims": dims, "character": predicted},
        )
    return dims


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _matmul(A, B):
    """Exact product of two integer matrices over one denominator each, pairs
    (rows, d), as such a pair with no factor common to the denominator and
    every entry; B needs at least one row."""
    (left, dl), (right, dr) = A, B
    cols = list(zip(*right))
    rows = [[sum(map(mul, row, col)) for col in cols] for row in left]
    return _reduced(rows, dl * dr)


def _reduced(rows, d: int):
    """(rows, d) with the common factor of d and every entry divided out."""
    c = gcd(d, *(x for row in rows for x in row))
    if c == 1:
        return rows, d
    return [[x // c for x in row] for row in rows], d // c


@_memo
def _intersection_matrix(g: GKMGraph, dd: int):
    """Entry [i][j] is the integral of sigma_i sigma_j, for the flow-up classes
    sigma_i of Morse index dd and sigma_j of index l - dd, both in moment order.

    The product has degree l and passes the edge conditions, so its
    localization sum is a constant; it is evaluated at both
    LOCALIZATION_POINTS, which must agree.  Integration is bilinear over the
    torus ring, and a product of degree below l integrates to 0, so for
    ordinary classes a, b in flow-up coordinates the integral of any lifts of
    a and b is a M b^T.  The matrix is integer rows over one denominator
    (rows, den).
    """
    if 2 * dd > g.l:
        rows, den = _intersection_matrix(g, g.l - dd)
        return _transpose(rows), den
    return _reduced(*_constant_sums(g, dd, [_flow_up_values(g, dd, p) for p in LOCALIZATION_POINTS]))


def _coordinates(n: int, point) -> tuple[int, ...]:
    """t_1..t_n at a localization point: its first n - 1 entries and t_n = -(their sum)."""
    x = point[: n - 1]
    return (*x, -sum(x))


@cache
def _monomial_values(X: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The values at the integer point X of the degree-e monomials, in monomials order."""
    return tuple(prod(x**k for x, k in zip(X, mono)) for mono in monomials(len(X), e))


def _values(g: GKMGraph, k: int, tables, X: tuple[int, ...]):
    """Value table (rows, den) at the integer point X = (t_1, ..., t_{n-1})
    of integer classes of degree k, given as tables (den, support):
    rows[i][u] / den is the value of the i-th class at vertex u.  Each value
    is an integer dot product of a coefficient vector with the monomial
    values, taken over the lcm of the classes' denominators."""
    values = _monomial_values(X, k)
    d = lcm(*(den for den, _ in tables))
    rows = []
    for den, support in tables:
        row = [0] * len(g.vertices)
        scale = d // den
        for u, vec in support.items():
            row[u] = scale * sum(map(mul, vec, values))
        rows.append(row)
    return rows, d


@_memo
def _flow_up_values(g: GKMGraph, k: int, point):
    """Value table (_values) of the flow-up classes of Morse index k at
    point, in moment order."""
    return _values(g, k, _ordinary_tables(g, k).values(), point[: g.nvars])


def _localized_products(g: GKMGraph, left_values, right_values, point):
    """Integer sums over one denominator, (S, d), with S / d = A diag(1/e_w) B^T
    at one point, for the value tables (A, da) and (B, db) of two lists of
    classes there: the localization sums of their products.

    The Euler class e_w multiplies t_{w(b)} - t_{w(a)} over the defining slots
    (a, b).  This orientation is pinned by positivity: it makes the ample class
    of a strictly decreasing weight integrate to +1 on the n = 2 flag space,
    and hence keeps all odd powers of the Kahler class positively oriented.
    At the integer point the Euler classes are integers; they go over their
    lcm L, so 1/e_w = (L / e_w) / L and d = da db L.
    """
    T = _coordinates(g.n, point)
    euler = [prod(T[wb - 1] - T[wa - 1] for wa, wb in pairs) for pairs in g.weight_pairs]
    if not all(euler):
        raise ConsistencyError(f"a tangent weight vanishes at the evaluation point {list(T)}")
    L = lcm(*euler)
    (A, da), (B, db) = left_values, right_values
    weighted = [[x * (L // e) for x, e in zip(row, euler)] for row in A]
    return [[sum(map(mul, row, col)) for col in B] for row in weighted], da * db * L


def _fractions(rows, d):
    """The matrix of an integer matrix over one denominator, as Fractions."""
    return [[Fraction(x, d) for x in row] for row in rows]


def _constant_sums(g: GKMGraph, k: int, tables):
    """Localization sums of the products of degree-k classes, given by their
    value tables tables[p] at LOCALIZATION_POINTS[p], with the flow-up classes
    of index l - k, as integer sums over one denominator (_localized_products).
    The products have degree l and pass the edge conditions, so the sums are
    constants: both points must agree, compared by cross-multiplication."""
    (first, d1), (second, d2) = (
        _localized_products(g, values, _flow_up_values(g, g.l - k, p), p)
        for values, p in zip(tables, LOCALIZATION_POINTS)
    )
    if any(a * d2 != b * d1 for r1, r2 in zip(first, second) for a, b in zip(r1, r2)):
        raise ConsistencyError(
            f"localization sums at degree {k} differ between the evaluation points for h={g.h}"
        )
    return first, d1


def _flow_up_coordinates(g: GKMGraph, k: int, acted):
    """Flow-up coordinates in H^{2k} of degree-k classes, one row per class,
    given by their value tables acted[p] at LOCALIZATION_POINTS[p]; integer
    rows over one denominator (rows, den), with no factor common to all.

    Q holds their integrals against the flow-up classes of index l - k.  A
    class sum_v q_v sigma_v integrates against sigma_j to the sum of
    const(q_v) M_k[v][j] over the v of index k: lower v carry positive-degree
    q_v, whose terms integrate to 0.  So Q = X M_k for the coordinates X and
    the intersection matrix M_k, solved by one row reduction of
    [M_k^T | Q^T]; a singular M_k raises.
    """
    S, d = _constant_sums(g, k, acted)  # Q = S / d
    M, dm = _intersection_matrix(g, k)  # M_k = M / dm
    pivots, red = _integer_rref([m + s for m, s in zip(_transpose(M), _transpose(S))])
    if pivots != list(range(len(M))):
        raise ConsistencyError(f"singular intersection matrix at degree {k} for h={g.h}")
    # row r over its pivot solves M^T x = S^T, so x dm / d holds the coordinates
    p = lcm(*(red[r][r] for r in pivots))
    rows = [[red[r].get(len(M) + c, 0) * (p // red[r][r]) * dm for r in pivots] for c in range(len(S))]
    return _reduced(rows, p * d)


@_memo
def _lefschetz_matrix(g: GKMGraph, lam: tuple[int, ...], dd: int):
    """Row i is the flow-up coordinate vector of sigma_i omega in H^{2(dd+1)},
    for the flow-up classes sigma_i of Morse index dd, as integer rows over
    one denominator (rows, den); omega is the ample class of lam.
    Positive-degree multiples project to 0, so projection is a ring map: an
    ordinary class v of degree dd maps to v L_dd, and omega^p to the chained
    product L_dd L_{dd+1} ... L_{dd+p-1}.

    The value of sigma_i omega at a vertex is sigma_i's value there times
    omega's; the coordinates come from the localization sums of these
    products (_flow_up_coordinates)."""
    omega = _kahler_table(g, lam)
    if dd >= g.l:
        return [[] for _ in _ordinary_tables(g, dd)], 1
    acted = []
    for point in LOCALIZATION_POINTS:
        (w,), dw = _values(g, 1, [omega], point[: g.nvars])
        rows, den = _flow_up_values(g, dd, point)
        acted.append(([list(map(mul, row, w)) for row in rows], den * dw))
    return _flow_up_coordinates(g, dd + 1, acted)


def poincare_pairing(g: GKMGraph, k: int, J=()):
    """Pairing matrix between degrees k and 2l-k (honest even degrees).

    Entry [a][b] integrates the product of lifts of the a-th and b-th
    W_J-invariant basis vectors; it is read off the per-graph intersection
    matrix of flow-up classes (point-evaluated) as A M B^T, and is independent
    of the lifts because the ambiguity integrates to negative degree.  Raises
    TheoremViolation if the pairing is singular, on every call; a nonsingular
    matrix is memoized per (k, J) and returned as the same object.
    """
    if k % 2 or not 0 <= k <= 2 * g.l:
        raise ValueError(f"need an even degree within 0..{2 * g.l}, got {k}")
    return _poincare_pairing(g, k, _subset(g, J))


@_memo
def _poincare_pairing(g: GKMGraph, k: int, J: tuple[int, ...]):
    rows, den, rank = _pairing(g, k, J)
    if rank != len(rows):
        raise TheoremViolation(
            f"singular pairing between degrees {k} and {2 * g.l - k} for h={g.h}, J={J}",
            witness={"h": g.h, "J": list(J), "degree": k, "matrix_rank": rank},
        )
    return _fractions(rows, den)


@_memo
def _pairing(g: GKMGraph, k: int, J: tuple[int, ...]):
    """The pairing matrix of poincare_pairing as integer rows over one
    denominator, with its rank: (rows, den, rank), singular or not."""
    dd = k // 2
    (A, da), (B, db) = _invariant_vectors(g, J, dd), _invariant_vectors(g, J, g.l - dd)
    if len(A) != len(B):
        raise ConsistencyError(
            f"pairing blocks have mismatched dimensions {len(A)} vs {len(B)}"
        )
    rows, den = _matmul(_matmul((A, da), _intersection_matrix(g, dd)), (_transpose(B), db))
    return rows, den, rank_exact(rows)


def _lefschetz_images(g: GKMGraph, J: tuple[int, ...], lam: tuple[int, ...], dd: int, p: int):
    """Flow-up coordinates of v omega^p for each W_J-invariant basis vector v
    of degree dd, as integer rows over one denominator (rows, den)."""
    images = _invariant_vectors(g, J, dd)
    for k in range(dd, dd + p):
        images = _matmul(images, _lefschetz_matrix(g, lam, k))
    return images


def _primitive_form(g: GKMGraph, J: tuple[int, ...], lam: tuple[int, ...], dd: int, hl):
    """Gram matrix of (a, b) -> integral of a b omega^(l-2dd) on the primitive
    W_J-invariant classes of degree dd (the kernel of omega^(l-2dd+1)), in the
    nullspace basis; unsigned, as integer rows over one denominator (rows,
    den).  Needs 2 dd <= l; hl = _lefschetz_images(g, J, lam, dd, l - 2 dd)."""
    domain = _invariant_vectors(g, J, dd)
    killed, _ = _matmul(hl, _lefschetz_matrix(g, lam, g.l - dd))
    prim = _integer_nullspace(_transpose(killed), len(domain[0]))
    scaled, ds = _matmul(prim, hl)
    C = _matmul(prim, domain)
    return _matmul(_matmul(C, _intersection_matrix(g, dd)), (_transpose(scaled), ds))


def kahler_report(g: GKMGraph, J=(), lam=None) -> dict:
    """Run duality, hard Lefschetz, and the signed primitive forms on the
    W_J-invariant subring; returns verdicts plus raw ranks, pivots, signatures.

    Every form is an exact matrix product of the W_J-invariant vectors with
    two kinds of per-graph table shared by all J: the intersection matrices
    of flow-up classes (localization sums evaluated at two integer points,
    which must agree) and one omega-multiplication table per degree; a power
    of omega is the chained product of those tables.  One pass per degree
    k <= l fills the duality, hard Lefschetz and Hodge-Riemann entries.
    The sign in honest degree k is (-1)^(k/2), pinned by top-power positivity
    in degree 0 and the classical surface signature in the middle.
    """
    J = _subset(g, J)
    lam = default_kahler_weight(g.n) if lam is None else _weight(g, lam)
    return _kahler_report(g, J, lam)


@_memo
def _kahler_report(g: GKMGraph, J: tuple[int, ...], lam: tuple[int, ...]) -> dict:
    dims = _invariant_betti(g, J)
    report: dict = {
        "h": list(g.h),
        "J": list(J),
        "lambda": list(lam),
        "invariant_betti": dims,
        "poincare": {},
        "hard_lefschetz": {},
        "hodge_riemann": {},
    }

    verdicts = {"poincare": True, "hard_lefschetz": True, "hodge_riemann": True}
    for dd in range(0, g.l // 2 + 1):
        k = 2 * dd
        pairing, _, rank = _pairing(g, k, J)
        entry = {"size": len(pairing), "rank": rank, "nondegenerate": rank == len(pairing)}
        report["poincare"][str(k)] = entry
        verdicts["poincare"] &= entry["nondegenerate"]

        power = g.l - 2 * dd
        hl = _lefschetz_images(g, J, lam, dd, power)
        rank = rank_exact(hl[0])
        full = rank == dims[dd]
        report["hard_lefschetz"][str(k)] = {
            "power": power,
            "rank": rank,
            "dim": dims[dd],
            "full": full,
        }
        verdicts["hard_lefschetz"] &= full

        if not dims[dd]:
            continue
        sign = 1 if dd % 2 == 0 else -1
        form, den = _primitive_form(g, J, lam, dd, hl)
        gram = [[sign * x for x in row] for row in form]
        signature, pivots = _integer_inertia(gram, den)
        definite = signature[0] == len(gram)
        report["hodge_riemann"][str(k)] = {
            "dim_primitive": len(gram),
            "sign": sign,
            "pivots": [str(p) for p in pivots],
            "signature": list(signature),
            "definite": definite,
        }
        verdicts["hodge_riemann"] &= definite

    report["verdicts"] = {**verdicts, "all": all(verdicts.values())}
    return report
