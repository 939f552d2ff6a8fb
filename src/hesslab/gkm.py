"""Moment-graph cohomology engine for semisimple Hessenberg spaces.

Vertices are the permutations of [n].  For every position pair (a, b) with
b < a <= h(b) (a strictly-lower matrix slot inside the Hessenberg shape), each
vertex w is joined to w composed with the transposition of positions a, b, and
the edge carries the linear form t_{w(a)} - t_{w(b)}.  Every vertex therefore
has degree exactly dimension(h); the constructor asserts this and the mutual
consistency of the two endpoints, so a wrong edge rule cannot survive
construction silently.

A class of degree k assigns to every vertex a polynomial of degree k in
t_1..t_{n-1}, with t_n = -(t_1+...+t_{n-1}), subject to the edge
divisibility conditions.  It is kept as an integer table: one positive
denominator and, for each vertex where it is nonzero, an integer coefficient
vector over the degree-k monomials (monomials).  The module structure is
handled through flow-up classes: a fixed generic covector orients every edge,
each vertex gets a Morse index (its down-degree), and its flow-up class is a
class of that degree supported on it and the vertices above it, normalized to
the product of its downward weights.  One upward sweep in moment order builds
every class of one index.  Its local rows at a vertex are the conditions to
the down-neighbours, with one right-hand-side column per class nonzero at
one of them; their rank is known in advance, so linalg's sparse integer
kernel reduces them only until it reaches that rank, and the rows it leaves
unread are checked by substituting the solution.  That gives each class its
value there; at a vertex that no class reaches (is nonzero at a
down-neighbour of) every class is 0, with no elimination.  A class that does
not extend raises ConsistencyError.  The
local rows and the edge check read one integer table per edge form and
degree (_divisibility_rows): a coefficient vector is divisible by the form
exactly when its dot product with every row is 0.  Each table must also
vanish below its vertex.  The flow-up classes of Morse index k are the basis of the ordinary degree-k piece; their count is checked
against the Betti numbers from the character side, so a missing or extra
class raises instead of passing silently.  That monomial multiples of
flow-up classes span every equivariant degree piece is a free-module
statement the test suite certifies against the exact nullity of the full
divisibility system.  The polynomial class algebra (classes as tuples of
polynomials, their products, the dot action by substitution, lifts of
ordinary classes) is the tests' oracle.

The dot action and the Kahler forms are read off one per-graph family of
integral tables shared by every J (_integrals); no class is solved for in
flow-up coordinates.  Entry [c][d] of the table (a, b, j, lam) is the
integral of (s_j . sigma_c) sigma_d omega^(l-a-b), for flow-up classes of
Morse index a and b, with no s_j for j = 0 and omega the ample class of lam.
The intersection matrix M_k is (k, l - k), Q_j at degree k is (k, l - k, j),
and the hard Lefschetz and primitive-kernel tables of degree dd are
(dd, dd, 0, lam) and (dd, dd - 1, 0, lam); a table with a > b is the
transpose of (b, a).  A localization sum of a degree-l product of classes
that pass the edge conditions is a constant, read off at two integer points
where no tangent weight vanishes; the two must agree.  Values at a point are
integer dot products of the tables with the monomial values there (at a
permuted point for s_j), kept only at the vertices of each class's support;
s_j moves the value at v to s_j^{-1} v, since u -> s_j^{-1} u is its own
inverse.  A sum groups the right classes by vertex once and takes a term
only where both classes are nonzero, not at every one of the n! vertices,
and the sums stay integers over one denominator until the points are
compared by cross-multiplication.  A product of degree below l integrates
to 0, so a degree-k class with flow-up coordinates x integrates against
the classes of index l - k to x M_k.  Every M_k and hard Lefschetz table
is checked once per graph to be nonsingular (_checked_form): x is
s_j-fixed exactly when x Q_j = x M_k, and hard Lefschetz on the
invariants follows from that on the whole ring.  Primitive
kernels and Gram matrices are left kernels and congruences of the
invariant basis times the omega tables.

Every matrix on the way from the per-graph tables to a Kahler verdict is
integer rows over one positive denominator, (rows, den): the tables, the
W_J-invariant bases (linalg's integer nullspace of the stacked
(Q_j - M_k)^T), and their exact products (_matmul, which divides out the
content of each product).  The signature of a Gram matrix comes from
linalg's fraction-free congruence pass.  Fractions are built only where a
value leaves the module: the public bases and pairing matrices, and the
recorded Hodge-Riemann pivots.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, wraps
from math import gcd, lcm, prod
from operator import add, mul, sub

from .dotchar import betti_rs, regular_betti
from .errors import ConsistencyError, TheoremViolation
from .hessenberg import check_hessenberg, dimension
from .linalg import _integer_echelon, _integer_inertia, _integer_nullspace, _integer_rref, rank_exact

DEFAULT_SEED = 1729
GRAPH_MAX_N = 5

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
    down: list[list[tuple[int, tuple[int, int]]]]
    phi: list[int]
    order: list[int]
    index: list[int]
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nvars(self) -> int:
        return self.n - 1


def _memo(fn):
    """Memoize fn(g, *key) in g's own tables, with fn's defaults filled into
    the key, so a call that leaves them out shares the entry of one that
    spells them; a call that raises stores nothing."""
    defaults = fn.__defaults__ or ()
    arity = fn.__code__.co_argcount - 1

    @wraps(fn)
    def memoized(g, *key):
        key += defaults[len(defaults) + len(key) - arity :]
        table = g._caches.setdefault(fn.__name__, {})
        if key not in table:
            table[key] = fn(g, *key)
        return table[key]

    return memoized


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
    # the downward edges: (neighbour, weight pair) whose weight t_a - t_b
    # pairs negatively with xi; their count is the Morse index
    down = [
        [(v, (wa, wb)) for v, (wa, wb) in zip(neighbor[u], weight_pairs[u]) if xi[wa - 1] < xi[wb - 1]]
        for u in range(len(vertices))
    ]
    index = [len(edges) for edges in down]
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
        down=down,
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
def monomials(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree d in m variables, in a fixed (lex-descending) order."""
    if m < 1:
        raise ValueError("need at least one variable")
    if m == 1:
        return ((d,),)
    return tuple(
        (i,) + rest for i in range(d, -1, -1) for rest in monomials(m - 1, d - i)
    )


@cache
def _form(n: int, a: int, b: int) -> tuple[int, ...]:
    """The coefficients of t_a - t_b over t_1..t_{n-1}, with t_n = -(t_1 + ... + t_{n-1})."""
    out = [0] * (n - 1)
    for i, sign in ((a, 1), (b, -1)):
        if i < n:
            out[i - 1] += sign
        else:
            out = [x - sign for x in out]
    return tuple(out)


def _times_form(poly: dict[tuple[int, ...], int], form) -> dict[tuple[int, ...], int]:
    """The integer polynomial poly, {monomial: coefficient}, times the linear
    form with coefficients form over t_1..t_{n-1}."""
    out: dict[tuple[int, ...], int] = {}
    for mono, x in poly.items():
        for i, y in enumerate(form):
            if y:
                key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                out[key] = out.get(key, 0) + x * y
    return out


@cache
def _divisibility_rows(n: int, pair: tuple[int, int], k: int):
    """The degree-k divisibility rows of the form t_a - t_b of a canonical
    pair a < b: a coefficient vector over monomials(n - 1, k) is divisible
    by the form exactly when its dot product with every row is 0.  Each row
    is a sparse integer {monomial index: coefficient} dict, keyed by a
    monomial m of the remainders: entry i is the coefficient of m in the
    remainder of monomial i modulo the form, all remainders scaled by cv^k.

    The remainder of a monomial is its restriction to the hyperplane where
    the form vanishes, written without the pivot variable t_v: the first of
    t_1..t_{n-1} with a nonzero coefficient cv in the form (1, or 2 for
    t_1 - t_n).  There cv t_v = rest, the form's other terms negated, so a
    monomial with t_v^e times cv^k restricts to cv^(k-e) rest^e times its
    other variables, with integer coefficients.
    """
    form = _form(n, *pair)
    v = next(i for i, c in enumerate(form) if c)
    cv = form[v]
    rest = [0 if i == v else -c for i, c in enumerate(form)]
    powers = [{(0,) * (n - 1): 1}]  # rest^e
    for _ in range(k):
        powers.append(_times_form(powers[-1], rest))
    rows: dict[tuple[int, ...], dict[int, int]] = {}
    for mi, mono in enumerate(monomials(n - 1, k)):
        e = mono[v]
        scale = cv ** (k - e)
        others = mono[:v] + (0,) + mono[v + 1 :]
        for m, x in powers[e].items():
            if x:
                rows.setdefault(tuple(map(add, others, m)), {})[mi] = scale * x
    return rows


def flow_up_class(g: GKMGraph, vid: int) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The flow-up class of a vertex as its integer table (den, support):
    degree = Morse index, zero strictly below, and value at the vertex the
    product of the downward tangent weights (_norm).  support maps each
    vertex where the class is nonzero to an integer coefficient vector over
    monomials(nvars, index of vid), the class's value there over the
    positive denominator den.

    One upward sweep builds the classes of one index (_flow_up_classes), as
    in Guillemin-Zara (Duke Math. J. 107, 2001) and Knutson-Tao (Duke Math.
    J. 119, 2003): a class starts at its vertex's norm, 0 below, and grows
    one vertex at a time in moment order.  Why it always extends, when every
    vertex has a flow-up class: let L be the vertices below u.  Every class
    on the subgraph induced by L is a polynomial combination of the flow-up
    classes of L, restricted to L.  By induction, take off a combination that
    matches it below the top vertex v of L; what is left is divisible at v
    by each downward weight of v.  These weights need not be linearly
    independent (the top vertex of (3,3,3) has three of them in two
    variables), but no two are proportional, so they are pairwise coprime in
    the polynomial ring, a UFD, and what is left is divisible by their
    product, the norm: it is a multiple of sigma_v.  The same
    combination of the global classes gives the class a value at u.  A class
    that does not extend raises ConsistencyError.

    The same coprimality fixes the rank of each local system in advance: the
    values at u with m weights down that every homogeneous condition
    accepts are the multiples of norm(u), norm(u) * P_(k-m) in degree k, so
    the sweep's elimination stops as soon as its pivots reach that rank.
    """
    return _flow_up_classes(g, g.index[vid])[vid]


def _norm(g: GKMGraph, vid: int) -> tuple[int, ...]:
    """The product of the downward tangent weights at vid (g.down), as an
    integer coefficient vector over monomials(nvars, index of vid)."""
    norm = {(0,) * g.nvars: 1}
    for _, (wa, wb) in g.down[vid]:
        norm = _times_form(norm, _form(g.n, wa, wb))
    return tuple(norm.get(mono, 0) for mono in monomials(g.nvars, g.index[vid]))


@_memo
def _flow_up_classes(g: GKMGraph, k: int) -> dict[int, tuple[int, dict[int, tuple[int, ...]]]]:
    """The flow-up classes of Morse index k as integer tables, {vertex:
    (den, support)} in moment order.  support maps the vertex and each
    vertex above it where the class is nonzero to an integer coefficient
    vector over monomials(nvars, k); the class's value there is that vector
    over the positive denominator den, and den and the vectors share no
    common factor.

    One upward sweep builds them all (flow_up_class says why it reaches the
    top).  A class is 0 below its vertex and its norm there, which every
    divisibility row of every edge down must kill.  Above, it takes at each u
    a value f(u) = f(w) mod the weight of the edge to each down-neighbour w,
    whose value is known: u's local rows are the divisibility rows of its
    edges down (_divisibility_rows), in the D coefficients of f(u), with one
    right-hand-side column per class nonzero at a down-neighbour of u; a
    vertex with no such class needs no elimination, and every class is 0
    there.  One integer RREF serves every class, with free variables 0; a
    pivot in a class's column means that class does not extend to u.  The
    homogeneous rows have rank D - dim P_(k-m) for m edges down (D when
    k < m; flow_up_class says why), so the kernel reads the rows, shortest
    first, only until its pivots left of column D reach it.  A consistent
    set of rows of full rank has the RREF of all of them, so each unread row
    is checked by substituting the solution, in integers, and one that fails
    means the class does not extend.  Each table is checked (_check_flow_up)
    before it is returned.
    """
    low = next((p for p, u in enumerate(g.order) if g.index[u] == k), len(g.order))
    D = len(monomials(g.nvars, k))
    started = []  # [vertex, den, {vertex: integer vector over den}], in moment order
    present: dict[int, list[int]] = {}  # vertex: the started classes nonzero there
    for u in g.order[low:]:
        at = sorted({c for w, _ in g.down[u] for c in present.get(w, ())})
        if at or g.index[u] == k:
            rows = [  # (down-neighbour, {unknown: coefficient})
                (w, row)
                for w, (a, b) in g.down[u]
                for row in _divisibility_rows(g.n, (min(a, b), max(a, b)), k).values()
            ]
        if at:
            # one right-hand-side column per class nonzero at a down-neighbour
            column = {c: D + i for i, c in enumerate(at)}
            system = []
            for w, row in rows:
                aug = dict(row)
                for c in present.get(w, ()):
                    value = started[c][2][w]
                    if y := sum(x * value[mi] for mi, x in row.items()):
                        aug[column[c]] = y
                system.append(aug)
            # Shortest rows first: they become sparse pivot rows, which keeps
            # the fill small.  The kernel stops reading them at the rank of
            # their homogeneous part; if the unread rows hold, checked below,
            # its RREF is that of all of them.
            system.sort(key=len)
            m = len(g.down[u])
            rank = D - len(monomials(g.nvars, k - m)) if k >= m else D
            unread = iter(system)
            pivots, red = _integer_rref(unread, (D, rank))
            unread = list(unread)
            if pivots and pivots[-1] >= D:
                vid = started[at[next(p for p in pivots if p >= D) - D]][0]
                raise ConsistencyError(f"no flow-up class at vertex {g.vertices[vid]} for h={g.h}")
            for c, col in column.items():
                entry = started[c]
                # f(u) is the class's column over the pivots: scale the class to integers
                solution = {p: red[p][col] for p in pivots if col in red[p]}
                scale = lcm(*(red[p][p] // gcd(x, red[p][p]) for p, x in solution.items()))
                if scale > 1:
                    entry[1] *= scale
                    entry[2] = {w: tuple(scale * y for y in vec) for w, vec in entry[2].items()}
                vec = [0] * (D + len(at))
                for p, x in solution.items():
                    vec[p] = x * scale // red[p][p]
                # every unread row must hold: row . f(u) = y, both times scale
                vec[col] = -scale
                if any(sum(x * vec[i] for i, x in aug.items()) for aug in unread):
                    raise ConsistencyError(f"no flow-up class at vertex {g.vertices[entry[0]]} for h={g.h}")
                if solution:
                    entry[2][u] = tuple(vec[:D])
                    present.setdefault(u, []).append(c)
        if g.index[u] == k:
            norm = _norm(g, u)
            if any(sum(x * norm[mi] for mi, x in row.items()) for _, row in rows):
                raise ConsistencyError(f"no flow-up class at vertex {g.vertices[u]} for h={g.h}")
            present.setdefault(u, []).append(len(started))
            started.append([u, 1, {u: norm}])

    classes = {}
    for vid, den, support in started:
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
    edge condition: on each edge the difference of the two endpoint vectors
    has dot product 0 with every divisibility row of the edge's form
    (_divisibility_rows).  An edge with neither endpoint in the support
    passes as it stands."""
    zero = (0,) * len(monomials(g.nvars, k))
    for u, cu in support.items():
        for v, (a, b) in zip(g.neighbor[u], g.weight_pairs[u]):
            if v < u and v in support:
                continue  # checked from v
            pair = (min(a, b), max(a, b))
            diff = tuple(map(sub, cu, support.get(v, zero)))
            rows = _divisibility_rows(g.n, pair, k).values()
            if any(sum(diff[mi] * x for mi, x in row.items()) for row in rows):
                raise ConsistencyError(
                    f"edge condition fails between {g.vertices[u]} and {g.vertices[v]} on {pair}"
                )


def _ordinary_tables(g: GKMGraph, k: int):
    """The flow-up tables of Morse index k (_flow_up_classes), counted
    against the Betti number from the character side."""
    tables = _flow_up_classes(g, k)
    expected = betti_rs(g.h)[k] if 0 <= k <= g.l else 0
    if len(tables) != expected:
        raise ConsistencyError(
            f"ordinary piece at degree {k} has {len(tables)} classes, character says {expected}"
        )
    return tables


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


def _subset(g: GKMGraph, J) -> tuple[int, ...]:
    """J as a sorted tuple of distinct generators, checked to lie in 1..n-1."""
    J = tuple(sorted(set(int(j) for j in J)))
    if any(not 1 <= j <= g.n - 1 for j in J):
        raise ValueError(f"J must be a subset of 1..{g.n - 1}: {J}")
    return J


@_memo
def _invariant_vectors(g: GKMGraph, J: tuple[int, ...], k: int):
    """The W_J-fixed basis in flow-up coordinates, as integer rows over one
    denominator (rows, den), one vector per free column.

    s_j . x has coordinates x S_j for the matrix S_j of s_j, and its
    integrals against the flow-up classes of index l - k are x S_j M_k =
    x Q_j, with Q_j = _integrals(g, k, l - k, j).  M_k is nonsingular, so x
    is s_j-fixed exactly when x Q_j = x M_k: the basis is the nullspace of
    the stacked (Q_j - M_k)^T."""
    M, dm = _checked_form(g, k, g.l - k)
    rows = []
    for j in J:
        Q, dq = _integrals(g, k, g.l - k, j)
        rows += _transpose([[q * dm - m * dq for q, m in zip(qr, mr)] for qr, mr in zip(Q, M)])
    return _integer_nullspace(rows, len(M))


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
def _checked_form(g: GKMGraph, a: int, b: int, lam=None):
    """The square table _integrals(g, a, b, 0, lam), checked to be
    nonsingular.  For M_k = (k, l - k), a class of degree k is then 0
    exactly when its integrals against the flow-up classes of index l - k
    vanish.  For the hard Lefschetz table G = (dd, dd, lam), A G has rank
    len(A) for every A of independent rows, so the hard Lefschetz rank of
    each W_J-invariant piece is its dimension."""
    rows, den = _integrals(g, a, b, 0, lam)
    if len(_integer_echelon(rows)) < len(rows):
        omega = f", omega of lambda={list(lam)}" if lam else ""
        raise ConsistencyError(f"singular intersection matrix at degree {a} for h={g.h}{omega}")
    return rows, den


def _coordinates(n: int, point) -> tuple[int, ...]:
    """t_1..t_n at a localization point: its first n - 1 entries and t_n = -(their sum)."""
    x = point[: n - 1]
    return (*x, -sum(x))


@cache
def _monomial_values(X: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The values at the integer point X of the degree-e monomials, in monomials order."""
    return tuple(prod(x**k for x, k in zip(X, mono)) for mono in monomials(len(X), e))


def _values(g: GKMGraph, k: int, tables, X: tuple[int, ...]):
    """Sparse value table (rows, den) at the integer point X = (t_1, ...,
    t_{n-1}) of integer classes of degree k, given as tables (den, support):
    rows[i] maps each vertex u of the i-th class's support to its value
    there times den, and the class is 0 at every vertex it leaves out.  Each
    value is an integer dot product of a coefficient vector with the
    monomial values, taken over the lcm of the classes' denominators."""
    values = _monomial_values(X, k)
    d = lcm(*(den for den, _ in tables))
    rows = []
    for den, support in tables:
        scale = d // den
        rows.append({u: scale * sum(map(mul, vec, values)) for u, vec in support.items()})
    return rows, d


@_memo
def _point_values(g: GKMGraph, k: int, point):
    """Sparse value table (_values) of the flow-up classes of Morse index k
    at point, in moment order."""
    return _values(g, k, _ordinary_tables(g, k).values(), point[: g.nvars])


@_memo
def _euler_weights(g: GKMGraph, point):
    """The inverse Euler classes at point over one denominator, (weights, L):
    1 / e_w = weights[w] / L, with L the lcm of the integers e_w.

    The Euler class e_w multiplies t_{w(b)} - t_{w(a)} over the defining slots
    (a, b).  This orientation is pinned by positivity: it makes the ample class
    of a strictly decreasing weight integrate to +1 on the n = 2 flag space,
    and hence keeps all odd powers of the Kahler class positively oriented.
    """
    T = _coordinates(g.n, point)
    euler = [prod(T[wb - 1] - T[wa - 1] for wa, wb in pairs) for pairs in g.weight_pairs]
    if not all(euler):
        raise ConsistencyError(f"a tangent weight vanishes at the evaluation point {list(T)}")
    L = lcm(*euler)
    return [L // e for e in euler], L


def _localized_products(g: GKMGraph, left_values, right_values, point):
    """Integer sums over one denominator, (S, d), for the sparse value tables
    (A, da) and (B, db) of two lists of classes at one point: S[c][e] / d is
    the localization sum of the product of the c-th and e-th classes, the sum
    over the vertices u where both are nonzero of A[c][u] B[e][u] / e_u, with
    the Euler classes e_u of _euler_weights, so d = da db L.  The rows of B
    are grouped by vertex once, so the sums take one term per pair of
    entries that share a vertex, and read an Euler weight only there."""
    weights, L = _euler_weights(g, point)
    (A, da), (B, db) = left_values, right_values
    at = {}
    for e, row in enumerate(B):
        for u, y in row.items():
            at.setdefault(u, []).append((e, y))
    sums = []
    for row in A:
        out = [0] * len(B)
        for u, x in row.items():
            pairs = at.get(u)
            if pairs:
                x *= weights[u]
                for e, y in pairs:
                    out[e] += x * y
        sums.append(out)
    return sums, da * db * L


def _fractions(rows, d):
    """The matrix of an integer matrix over one denominator, as Fractions."""
    return [[Fraction(x, d) for x in row] for row in rows]


def _constant_sums(g: GKMGraph, k: int, tables):
    """Localization sums of the products of two lists of classes, the first
    of degree k and the second of degree l - k, given by their value tables
    tables[p] = (first, second) at LOCALIZATION_POINTS[p], as integer rows
    over one denominator with no factor common to all (_localized_products).
    The products have degree l and pass the edge conditions, so the sums are
    constants: both points must agree, compared by cross-multiplication."""
    (first, d1), (second, d2) = (
        _localized_products(g, left, right, p) for (left, right), p in zip(tables, LOCALIZATION_POINTS)
    )
    if any(a * d2 != b * d1 for r1, r2 in zip(first, second) for a, b in zip(r1, r2)):
        raise ConsistencyError(
            f"localization sums at degree {k} differ between the evaluation points for h={g.h}"
        )
    return _reduced(first, d1)


@_memo
def _integrals(g: GKMGraph, a: int, b: int, j: int = 0, lam=None):
    """Entry [c][d] is the integral of (s_j . sigma_c) sigma_d omega^(l-a-b),
    for the flow-up classes sigma_c of Morse index a and sigma_d of index b,
    in moment order, with omega the ample class of lam; j = 0 means no s_j,
    and lam is given exactly when l - a - b > 0.  Integer rows over one
    denominator (rows, den).  This table is M_k for (k, l - k), Q_j at degree
    k for (k, l - k, j), and an omega table for the hard Lefschetz and
    Hodge-Riemann forms.

    Each entry is a localization sum over sparse value rows
    (_localized_products), at each of the two points.  The acted row of
    s_j . sigma_c is that of sigma_c with each vertex v moved to
    sources[v], for sources = _dot_sources(g, j): the map u -> s_j^{-1} u
    is its own inverse, since s_j is an involution, so the value at v
    lands at the u with s_j^{-1} u = v.  omega is nonzero at every vertex,
    and omega^(l-a-b) multiplies each right row on its own support.

    Row i of V times an omega table, for vectors V of index a, holds the
    integrals of v_i omega^(l-a-b), a class of degree l - b, against the
    classes of index b; M_(l-b) is nonsingular (checked here), so those rows
    are exactly as independent as the classes v_i omega^(l-a-b).

    For a > b it is the transpose of the table of (b, a): the integral of a
    top-degree class is W-invariant, so is omega, and s_j^2 = 1, so the
    integral of (s_j . sigma_c) sigma_d omega^p is that of sigma_c (s_j .
    sigma_d) omega^p."""
    power = g.l - a - b
    if power:
        _checked_form(g, g.l - b, b)
    if a > b:
        rows, den = _integrals(g, b, a, j, lam)
        return _transpose(rows), den
    tables = []
    for point in LOCALIZATION_POINTS:
        if j:
            # s_j . sigma_c takes at u the value of sigma_c at s_j^{-1} u, at
            # the permuted point (t_{s_j(1)}, ..., t_{s_j(n-1)}); each such
            # table is read once, so it is not kept
            sources = _dot_sources(g, j)
            T = _coordinates(g.n, point)
            X = tuple(T[x - 1] for x in transposition(g.n, j)[: g.nvars])
            acted, da = _values(g, a, _ordinary_tables(g, a).values(), X)
            left = [{sources[v]: x for v, x in row.items()} for row in acted], da
        else:
            left = _point_values(g, a, point)
        rows, den = _point_values(g, b, point)
        if power:
            (omega,), _ = _values(g, 1, [_kahler_table(g, lam)], point[: g.nvars])  # denominator 1
            weights = {u: x**power for u, x in omega.items()}
            rows = [{u: y * weights[u] for u, y in row.items()} for row in rows]
        tables.append((left, (rows, den)))
    return _constant_sums(g, a, tables)


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
    rows, den = _matmul(_matmul((A, da), _integrals(g, dd, g.l - dd)), (_transpose(B), db))
    return rows, den, rank_exact(rows)


def _primitive_form(g: GKMGraph, J: tuple[int, ...], lam: tuple[int, ...], dd: int):
    """Gram matrix of (a, b) -> integral of a b omega^(l-2dd) on the primitive
    W_J-invariant classes of degree dd, in the nullspace basis; unsigned, as
    integer rows over one denominator (rows, den).  Needs 2 dd <= l.

    A combination x of the invariant basis A is primitive, x A omega^(l-2dd+1)
    = 0, exactly when x A K = 0 for the omega table K of (dd, dd - 1)
    (_integrals); in degree 0 every class is primitive.  With C the primitive
    basis in flow-up coordinates and G the omega table of (dd, dd), the Gram
    matrix is C G C^T."""
    C = A = _invariant_vectors(g, J, dd)
    if dd:
        killed, _ = _matmul(A, _integrals(g, dd, dd - 1, 0, lam))
        C = _matmul(_integer_nullspace(_transpose(killed), len(A[0])), A)
    G = _integrals(g, dd, dd, 0, lam if 2 * dd < g.l else None)
    return _matmul(_matmul(C, G), (_transpose(C[0]), C[1]))


def kahler_report(g: GKMGraph, J=(), lam=None) -> dict:
    """Run duality, hard Lefschetz, and the signed primitive forms on the
    W_J-invariant subring; returns verdicts plus raw ranks, pivots, signatures,
    as a new dict on every call.

    Every form is an exact matrix product of the W_J-invariant vectors with
    per-graph tables of integrals shared by all J (_integrals: localization
    sums evaluated at two integer points, which must agree): the
    intersection matrices of flow-up classes for duality, and the integrals
    of two flow-up classes times a power of omega for Hodge-Riemann.  Hard
    Lefschetz is checked once on the whole ring (_checked_form), and each
    invariant piece has its dimension as its rank.  One pass per degree
    k <= l fills the duality, hard Lefschetz and Hodge-Riemann entries.
    The sign in honest degree k is (-1)^(k/2), pinned by top-power positivity
    in degree 0 and the classical surface signature in the middle.
    """
    J = _subset(g, J)
    lam = default_kahler_weight(g.n) if lam is None else _weight(g, lam)
    for dd in range(g.l // 2 + 1):
        _checked_form(g, dd, dd, lam if 2 * dd < g.l else None)  # hard Lefschetz on the whole ring
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

        report["hard_lefschetz"][str(k)] = {"power": g.l - k, "rank": dims[dd], "dim": dims[dd], "full": True}

        if not dims[dd]:
            continue
        sign = 1 if dd % 2 == 0 else -1
        form, den = _primitive_form(g, J, lam, dd)
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
