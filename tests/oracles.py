"""Independent oracles the tests check the library against.

None of this is on a command path.  Each routine is the slow, direct route to
something the library computes another way: _tableau_table, one P-tableau
walk that fills every shape at once, and tableau_rows_by_shape, one walk per
shape, against each other and against the library's tables, which come from
closed forms and the modular law with no enumeration; Jordan types from rank
sequences of matrix powers and an exhaustive finite-field search against the
Greene-Kleitman `lambda_H`; the full divisibility system against the flow-up
module basis; one global elimination per degree (edge_rows over edges, the
prefix RREF of prefix_flow_up_classes) and one exact solve per vertex
against the flow-up classes the library builds by an upward sweep of local
solves, with the Poly product of the downward weights against the library's
integer norm; randomly perturbed lifts against lift-independence of
integration; polynomial localization integrals (the sum
over fixed points cleared of denominators by exact linear-form divisions)
against the library's intersection numbers, which it reads off point
evaluations; dense localization sums over all n! vertices at one point
(dense_values, dense_localized_integrals) against the library's sums over
the vertices where both classes are nonzero; flow-up decomposition of the polynomial dot action and of
products with omega (exact divisions by downward weights), times those
integrals (fraction_product), against the library's dot and Lefschetz sums,
which it reads off point-evaluated localization sums without ever writing a
class in flow-up coordinates; and, for the Kahler forms the library reads
off those per-graph tables, one polynomial integral or projection of
freshly lifted products per entry.  The library's linear algebra runs on
integers; echelon and row_reduce read its echelon form and RREF as Fraction
rows, fraction_inertia is the Fraction congruence pass its integer one
replaced, and stacked_invariant_vectors, one nullspace of the stacked
(Q_j - M_k)^T of every generator, is the W_J-invariant basis the library
now reads off the RREF of J without its last generator, continued.
The library keeps every class as an integer table (one denominator, one
coefficient vector per vertex).  The polynomial class algebra it replaced
lives here: Poly, sparse polynomials over the rationals in t_1..t_{n-1} with
t_n = -(t_1+...+t_{n-1}), and divmod_linear, division by a linear form,
whose remainders the library's integer divisibility rows must match up to a
positive scalar; EquivClass, a tuple of polynomials with the polynomial edge
check check_edges; class_of and class_table, which turn a table into a class
and back, so a graph can carry the per-vertex basis; and the classes built
from the library's tables (flow_up_class, ordinary_basis, kahler_class),
the dot action by substitution and lifts of ordinary classes.  The
character theory and symmetric functions that no command needs are here
too: character_value (Murnaghan-Nakayama border strips), z_order and
conjugacy_class_size, against the library's hook-length dimensions and
Kostka invariant dimensions; schur_inner_product, the Jacobi-Trudi pairing
that decodes the coloring oracle dotchar.chromatic_qsym into a table;
powersum_csf_q1 and powersum_to_monomial, the edge-subset power-sum
expansion as plain {partition: int} dicts, against colorings at q = 1;
q_int and q_factorial; and the explicit annihilator pattern (a frozenset of
positions) and incomparability graph of h, which the library reads through
h itself.  nullspace and inertia are Fraction wrappers over the library's
integer kernels `_integer_nullspace` and `_integer_inertia`, the latter
through `_over_one_denominator`, which also feeds `det_exact`.  sanitize
makes a report JSON-safe by a deep walk (fractions to strings, tuples to
lists, keys to strings) against the library's JSON writer, which must give
the same bytes.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, prod

from hesslab import gkm
from hesslab.dotchar import betti_rs
from hesslab.errors import ConsistencyError, CostGuardError
from hesslab.gkm import monomials
from hesslab.hessenberg import check_hessenberg
from hesslab.linalg import (
    _entries,
    _integer_echelon,
    _integer_inertia,
    _integer_nullspace,
    _integer_rref,
    rank_exact,
)
from hesslab.partitions import Partition, check_partition, conjugate, partitions_of
from hesslab.symfunc import QPoly, QSymPoly


def sanitize(obj):
    """A report made JSON-safe by one deep walk: fractions to 'p/q' strings,
    tuples to lists, dict keys to strings."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj


# --- characters, symmetric functions and Hessenberg patterns -----------------

def z_order(mu: Partition) -> int:
    """Centralizer order z_mu = prod_i i^{m_i} m_i! over multiplicities m_i."""
    mu = check_partition(mu)
    z = 1
    for part, group in itertools.groupby(mu):
        m = len(list(group))
        z *= part**m * factorial(m)
    return z


def conjugacy_class_size(mu: Partition) -> int:
    """Number of permutations of cycle type mu, i.e. n!/z_mu."""
    return factorial(sum(mu)) // z_order(mu)


def character_value(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam evaluated on cycle type mu.

    Border-strip recursion: remove a strip of size mu[0], signed by
    (-1)^(height-1), and recurse on the rest of the cycle type.  In the
    beta-number model a strip of size k is a beta value b with b-k >= 0 and
    b-k not a beta value; the sign counts beta values jumped over.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"shape and cycle type have different sizes: {lam} vs {mu}")
    return _mn(lam, tuple(sorted(mu, reverse=True)))


@cache
def _mn(shape: Partition, cycle: Partition) -> int:
    if not cycle:
        return 1
    k, rest = cycle[0], cycle[1:]
    total = 0
    for smaller, sign in _strip_removals(shape, k):
        total += sign * _mn(smaller, rest)
    return total


def _strip_removals(shape: Partition, k: int) -> list[tuple[Partition, int]]:
    rows = len(shape)
    beta = [shape[r] + (rows - 1 - r) for r in range(rows)]
    present = set(beta)
    out = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in present:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        new = sorted((present - {b}) | {nb}, reverse=True)
        smaller = tuple(
            p for p in (new[r] - (rows - 1 - r) for r in range(rows)) if p > 0
        )
        out.append((smaller, -1 if crossed % 2 else 1))
    return out


def q_int(k: int) -> QPoly:
    """[k]_q = 1 + q + ... + q^(k-1); [0]_q = 0."""
    return QPoly({i: 1 for i in range(k)})


def q_factorial(n: int) -> QPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    out = QPoly.one()
    for k in range(2, n + 1):
        out = out * q_int(k)
    return out


def schur_inner_product(F: QSymPoly, mu: Partition) -> QPoly:
    """Pairing of F against the Schur function s_mu, via Jacobi-Trudi.

    s_mu = det(h_{mu_i - i + j}) expands the pairing as a signed sum over
    permutations sigma of monomial coefficients at the sorted composition
    (mu_i - i + sigma(i)); terms with a negative entry vanish, entries equal
    to zero are dropped (h_0 = 1).
    """
    mu = check_partition(mu)
    if sum(mu) != F.degree:
        raise ValueError(f"mu must be a partition of {F.degree}, got {mu}")
    rows = len(mu)
    total = QPoly.zero()
    for sigma in itertools.permutations(range(1, rows + 1)):
        comp = [mu[i] - (i + 1) + sigma[i] for i in range(rows)]
        if any(e < 0 for e in comp):
            continue
        key = tuple(sorted((e for e in comp if e > 0), reverse=True))
        if not key:
            continue
        coeff = F.coeffs.get(key)
        if coeff is None:
            continue
        if _sign(sigma) > 0:
            total = total + coeff
        else:
            total = total - coeff
    return total


def _sign(sigma: tuple[int, ...]) -> int:
    seen = [False] * len(sigma)
    sign = 1
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def powersum_csf_q1(edges, n: int) -> dict[Partition, int]:
    """Chromatic symmetric function at q=1 as power-sum coefficients {lam: c}.

    Inclusion-exclusion over edge subsets S: each contributes (-1)^|S| p_{lam(S)}
    where lam(S) lists the connected component sizes of ([n], S).  Vertices are
    1-based; this is deliberately independent of any coloring enumeration so it
    can serve as an oracle for the q-refined expansion.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"n must satisfy 1 <= n <= 10, got {n}")
    edge_list = []
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"bad edge ({i}, {j}) for n={n}")
        edge_list.append((min(i, j), max(i, j)))
    coeffs: dict[Partition, int] = {}
    for mask in range(1 << len(edge_list)):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        bits = 0
        rest = mask
        idx = 0
        while rest:
            if rest & 1:
                bits += 1
                a, b = edge_list[idx]
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
            rest >>= 1
            idx += 1
        sizes: dict[int, int] = {}
        for v in range(1, n + 1):
            r = find(v)
            sizes[r] = sizes.get(r, 0) + 1
        lam = tuple(sorted(sizes.values(), reverse=True))
        coeffs[lam] = coeffs.get(lam, 0) + (1 if bits % 2 == 0 else -1)
    return {lam: v for lam, v in coeffs.items() if v}


@cache
def _powersum_monomial_expansion(nu: Partition, nvars: int) -> tuple[tuple[Partition, int], ...]:
    """Monomial-basis expansion of p_nu, by direct expansion in nvars variables."""
    expo: dict[tuple[int, ...], int] = {(0,) * nvars: 1}
    for part in nu:
        nxt: dict[tuple[int, ...], int] = {}
        for alpha, c in expo.items():
            for i in range(nvars):
                beta = list(alpha)
                beta[i] += part
                key = tuple(beta)
                nxt[key] = nxt.get(key, 0) + c
        expo = nxt
    out = []
    for lam in partitions_of(sum(nu)):
        if len(lam) > nvars:
            continue
        alpha = lam + (0,) * (nvars - len(lam))
        c = expo.get(alpha, 0)
        if c:
            out.append((lam, c))
    return tuple(out)


def powersum_to_monomial(F: dict[Partition, int], n: int) -> dict[Partition, int]:
    """Monomial coefficients {lam: c} of the degree-n function sum_nu F[nu] p_nu.

    Faithful for degree n because n variables suffice; the per-p_nu expansions
    are raw polynomial expansions, independent of character theory.
    """
    coeffs: dict[Partition, int] = {}
    for nu, c in F.items():
        for lam, mult in _powersum_monomial_expansion(nu, n):
            coeffs[lam] = coeffs.get(lam, 0) + c * mult
    return {lam: c for lam, c in coeffs.items() if c}


def annihilator_pattern(h) -> frozenset[tuple[int, int]]:
    """Free positions (i, j), 1-indexed, of the trace-form annihilator: j > h(i).

    Always strictly upper triangular, and complementary in size to the
    dimension: |pattern| + dimension(h) = n(n-1)/2.
    """
    h = check_hessenberg(h)
    n = len(h)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(h[i - 1] + 1, n + 1)
    )


def incomparability_graph(h) -> tuple[tuple[int, int], ...]:
    """Edges {i, j} with i < j <= h(i), sorted; vertex set is implicitly 1..n."""
    h = check_hessenberg(h)
    return tuple(
        (i, j) for i in range(1, len(h) + 1) for j in range(i + 1, h[i - 1] + 1)
    )


def rank_mod_p(rows, p: int) -> int:
    """Rank of a dense integer matrix over F_p, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def _mat_mul(A, B, p):
    n = len(A)
    out = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if p is not None:
        out = [[x % p for x in row] for row in out]
    return out


def jordan_type(M, modulus: int | None = None) -> Partition:
    """Jordan type of a nilpotent matrix from its exact rank sequence.

    With r_k = rank(M^k), the number of blocks of size >= k is r_{k-1} - r_k,
    and that sequence is the conjugate of the type.  Entries are integers,
    interpreted in F_modulus when a modulus is given and exactly over the
    rationals otherwise.  Non-nilpotent input raises.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    ranks = [n]
    power = M
    for _ in range(n):
        r = rank_mod_p(power, modulus) if modulus else rank_exact(power)
        ranks.append(r)
        if r == 0:
            break
        power = _mat_mul(power, M, modulus)
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    geq = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    if any(geq[i] < geq[i + 1] for i in range(len(geq) - 1)):
        raise ArithmeticError(f"rank sequence {ranks} is not convex")
    return conjugate(tuple(c for c in geq if c))


def brute_force_orbit_oracle(lam, h, p: int) -> bool:
    """Exhaustive check over F_p: does any pattern matrix have Jordan type lam?

    Deliberately dumb and exponential (p^|pattern| matrices); only n <= 4 and
    p in {2, 3, 5} are accepted.  Serves as the independent oracle for the
    orbit criterion lam <= lambda_H.
    """
    lam = check_partition(lam)
    h = check_hessenberg(h)
    n = len(h)
    if n > 4:
        raise CostGuardError(f"brute force oracle supports n <= 4, got n = {n}")
    if p not in (2, 3, 5):
        raise ValueError(f"p must be one of 2, 3, 5, got {p}")
    if sum(lam) != n:
        raise ValueError(f"lam must be a partition of {n}")
    positions = sorted(annihilator_pattern(h))
    for values in itertools.product(range(p), repeat=len(positions)):
        M = [[0] * n for _ in range(n)]
        for v, (i, j) in zip(values, positions):
            M[i - 1][j - 1] = v
        if jordan_type(M, modulus=p) == lam:
            return True
    return False


class Poly:
    __slots__ = ("nvars", "c")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.c: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for mono, v in coeffs.items():
                v = Fraction(v)
                if v:
                    self.c[mono] = v

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        mono = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def linear(cls, coeffs) -> "Poly":
        """Linear form sum(coeffs[i] * t_{i+1})."""
        coeffs = list(coeffs)
        m = len(coeffs)
        out = {}
        for i, v in enumerate(coeffs):
            if v:
                out[tuple(1 if k == i else 0 for k in range(m))] = Fraction(v)
        return cls(m, out)

    def __add__(self, other: "Poly") -> "Poly":
        c = dict(self.c)
        for mono, v in other.c.items():
            s = c.get(mono, 0) + v
            if s:
                c[mono] = s
            else:
                c.pop(mono, None)
        out = Poly(self.nvars)
        out.c = c
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        c = dict(self.c)
        for mono, v in other.c.items():
            s = c.get(mono, 0) - v
            if s:
                c[mono] = s
            else:
                c.pop(mono, None)
        out = Poly(self.nvars)
        out.c = c
        return out

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        c: dict[tuple[int, ...], Fraction] = {}
        for m1, v1 in self.c.items():
            for m2, v2 in other.c.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = c.get(mono, 0) + v1 * v2
                if s:
                    c[mono] = s
                else:
                    c.pop(mono, None)
        out = Poly(self.nvars)
        out.c = c
        return out

    __rmul__ = __mul__

    def scale(self, k) -> "Poly":
        k = Fraction(k)
        out = Poly(self.nvars)
        if k:
            out.c = {mono: v * k for mono, v in self.c.items()}
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.c == other.c

    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        """Total degree; -1 for zero."""
        return max((sum(mono) for mono in self.c), default=-1)

    def constant_value(self) -> Fraction:
        """Value of a degree <= 0 polynomial; raises if higher-order terms exist."""
        if not self.c:
            return Fraction(0)
        if self.degree > 0:
            raise ValueError(f"not a constant: degree {self.degree}")
        return self.c[(0,) * self.nvars]

    def eval_at(self, point) -> Fraction:
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for mono, v in self.c.items():
            term = v
            for x, e in zip(point, mono):
                if e:
                    term *= x**e
            total += term
        return total

    def substitute(self, images: list["Poly"]) -> "Poly":
        """Ring homomorphism t_{i+1} -> images[i], applied by expanding each monomial."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nvars = images[0].nvars if images else self.nvars
        powers: list[dict[int, Poly]] = [dict() for _ in range(self.nvars)]

        def power(i: int, e: int) -> Poly:
            got = powers[i].get(e)
            if got is None:
                got = Poly.const(nvars, 1) if e == 0 else power(i, e - 1) * images[i]
                powers[i][e] = got
            return got

        total = Poly.zero(nvars)
        for mono, v in self.c.items():
            term = Poly.const(nvars, v)
            for i, e in enumerate(mono):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def __repr__(self):
        if not self.c:
            return "Poly(0)"
        bits = []
        for mono, v in sorted(self.c.items(), reverse=True):
            vars_part = "*".join(
                f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}" for i, e in enumerate(mono) if e
            )
            bits.append(f"{v}" + (f"*{vars_part}" if vars_part else ""))
        return "Poly(" + " + ".join(bits) + ")"


def divmod_linear(P: Poly, L: Poly) -> tuple[Poly, Poly]:
    """(Q, R) with P = Q*L + R and R free of the pivot variable of L.

    The pivot is the first variable with a nonzero coefficient in L; the two
    conditions fix R, which is P restricted to the hyperplane L = 0 written in
    the other variables, so L divides P exactly when R is zero.  Synthetic
    division, one pivot exponent at a time from the top: cancelling a term of
    pivot exponent d only touches terms of pivot exponent d - 1.
    """
    m = L.nvars
    if not L.c or any(sum(mono) != 1 for mono in L.c):
        raise ValueError(f"not a linear form: {L!r}")
    coeffs = [L.c.get(tuple(1 if k == i else 0 for k in range(m)), Fraction(0)) for i in range(m)]
    v = next(i for i in range(m) if coeffs[i])
    cv = coeffs[v]
    rest = [(u, cu) for u, cu in enumerate(coeffs) if cu and u != v]
    R = dict(P.c)
    Q: dict[tuple[int, ...], Fraction] = {}
    for d in range(max((mono[v] for mono in R), default=0), 0, -1):
        for mono in [mono for mono in R if mono[v] == d]:
            qmono = tuple(e - 1 if i == v else e for i, e in enumerate(mono))
            qc = Q[qmono] = R.pop(mono) / cv
            for u, cu in rest:
                tm = tuple(e + 1 if i == u else e for i, e in enumerate(qmono))
                s = R.get(tm, 0) - qc * cu
                if s:
                    R[tm] = s
                else:
                    R.pop(tm, None)
    q, r = Poly(m), Poly(m)
    q.c, r.c = Q, R
    return q, r


@cache
def t(n: int, i: int) -> Poly:
    """The linear form t_i in the retained variables t_1..t_{n-1}."""
    if i < n:
        return Poly.variable(n - 1, i - 1)
    return Poly.linear([-1] * (n - 1))  # t_n = -(t_1 + ... + t_{n-1})


@cache
def pair_form(n: int, i: int, j: int) -> Poly:
    """The linear form t_i - t_j."""
    return t(n, i) - t(n, j)


def down_forms(g, vid: int) -> list[Poly]:
    """Oriented tangent weights at vid whose pairing with xi is negative."""
    out = []
    for wa, wb in g.weight_pairs[vid]:
        if g.xi[wa - 1] < g.xi[wb - 1]:
            out.append(pair_form(g.n, wa, wb))
    return out


@dataclass
class EquivClass:
    """Vertex-wise polynomial assignment of one homogeneous degree."""

    graph: gkm.GKMGraph
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
        for u, v, pair in edges(g):
            diff = self.values[u] - self.values[v]
            if diff.is_zero():
                continue
            if not divmod_linear(diff, pair_form(g.n, *pair))[1].is_zero():
                raise ConsistencyError(
                    f"edge condition fails between {g.vertices[u]} and {g.vertices[v]} on {pair}"
                )


def class_of(g, k: int, table) -> EquivClass:
    """The degree-k EquivClass of an integer table (den, support)."""
    den, support = table
    monos = monomials(g.nvars, k)
    values = [Poly.zero(g.nvars)] * len(g.vertices)
    for u, vec in support.items():
        values[u] = Poly(g.nvars, {mono: Fraction(x, den) for mono, x in zip(monos, vec)})
    return EquivClass(g, k, tuple(values))


@gkm._memo
def flow_up_class(g, vid: int) -> EquivClass:
    """The EquivClass of vid's flow-up table (gkm.flow_up_class), built once
    per graph."""
    return class_of(g, g.index[vid], gkm.flow_up_class(g, vid))


def ordinary_basis(g, k: int) -> list[EquivClass]:
    """Flow-up classes of Morse index k, in moment order; canonical lifts of
    H^{2k}, counted against the character side like the library's tables."""
    return [flow_up_class(g, u) for u in gkm._ordinary_tables(g, k)]


def kahler_class(g, lam) -> EquivClass:
    """Equivariant ample class: value at w is the w-translate of a strictly
    decreasing lam; the EquivClass of the library's checked table."""
    return class_of(g, 1, gkm._kahler_table(g, gkm._weight(g, lam)))


def dot_action(g, w, c: EquivClass) -> EquivClass:
    """Weyl dot action: (w . f) at u equals w applied to f at w^{-1} u.

    w permutes the variables t_i -> t_{w(i)}; edges go to edges because the
    edge set is stable under composing vertices on the right, and the result
    is re-checked against every edge condition.
    """
    w = tuple(int(x) for x in w)
    if sorted(w) != list(range(1, g.n + 1)):
        raise ValueError(f"not a permutation of 1..{g.n}: {w}")
    winv = gkm.permutation_inverse(w)
    images = [t(g.n, target) for target in w[:-1]]
    values = []
    for u in g.vertices:
        src = g.vindex[gkm.compose(winv, u)]
        values.append(c.values[src].substitute(images))
    out = EquivClass(g, c.degree, tuple(values))
    out.check_edges()
    return out


def lift(g, k: int, vec) -> EquivClass:
    """Equivariant representative of an ordinary class given in flow-up coordinates."""
    basis = ordinary_basis(g, k)
    out = EquivClass(g, k, tuple(Poly.zero(g.nvars) for _ in g.vertices))
    for coeff, cls in zip(vec, basis):
        if coeff:
            out = out + cls.scale(coeff)
    return out


def invariant_vectors(g, J, k: int) -> list[list[Fraction]]:
    """Basis (flow-up coordinates) of the W_J-fixed subspace of the degree-k
    piece: the library's integer basis as Fractions."""
    return gkm._fractions(*gkm._invariant_vectors(g, gkm._subset(g, J), k))


def stacked_invariant_vectors(g, J, k: int) -> tuple[list[list[int]], int]:
    """The W_J-fixed basis of the degree-k piece as (basis, d), the
    nullspace of the stacked (Q_j - M_k)^T of every j in J in one
    elimination, against the library's continuation of the RREF of J
    without its last generator."""
    M, dm = gkm._checked_form(g, k, g.l - k)
    rows = []
    for j in gkm._subset(g, J):
        Q, dq = gkm._integrals(g, k, g.l - k, j)
        rows += transpose([[q * dm - m * dq for q, m in zip(qr, mr)] for qr, mr in zip(Q, M)])
    return _integer_nullspace(rows, len(M))


def dense_values(g, k: int, tables, X) -> tuple[list[list[int]], int]:
    """Dense value table (rows, den) at the integer point X = (t_1, ...,
    t_{n-1}) of the integer classes tables (den, support) of degree k: one
    row of length n! per class, 0 off its support, over the lcm of the
    denominators.  The library keeps only the support (gkm._values)."""
    values = gkm._monomial_values(tuple(X), k)
    d = lcm(*(den for den, _ in tables))
    rows = []
    for den, support in tables:
        row = [0] * len(g.vertices)
        for u, vec in support.items():
            row[u] = d // den * sum(c * v for c, v in zip(vec, values))
        rows.append(row)
    return rows, d


def dense_localized_integrals(g, a: int, b: int, j: int, lam, point) -> list[list[Fraction]]:
    """The table gkm._integrals(g, a, b, j, lam) at the one point alone, as
    Fractions, by dense sums over all n! vertices: A diag(1/e_w) B^T for
    the dense value rows A of s_j . sigma_c (sigma_c for j = 0; the value of
    sigma_c at s_j^{-1} u, at the point with t_j and t_(j+1) swapped) and B
    of sigma_d omega^(l-a-b), with e_w the product of t_{w(b)} - t_{w(a)}
    over the weight pairs at w.  No transposition: a > b is summed as given.
    The library sums each product over the vertices where both classes are
    nonzero (gkm._localized_products)."""
    T = gkm._coordinates(g.n, point)
    X = T[:-1]
    if j:
        w = gkm.transposition(g.n, j)
        swapped = tuple(T[x - 1] for x in w[:-1])
        acted, da = dense_values(g, a, gkm._ordinary_tables(g, a).values(), swapped)
        sources = [g.vindex[gkm.compose(w, u)] for u in g.vertices]
        A = [[row[src] for src in sources] for row in acted]
    else:
        A, da = dense_values(g, a, gkm._ordinary_tables(g, a).values(), X)
    B, db = dense_values(g, b, gkm._ordinary_tables(g, b).values(), X)
    power = g.l - a - b
    if power:
        (omega,), _ = dense_values(g, 1, [gkm._kahler_table(g, lam)], X)
        B = [[y * x**power for y, x in zip(row, omega)] for row in B]
    euler = [prod(T[wb - 1] - T[wa - 1] for wa, wb in pairs) for pairs in g.weight_pairs]
    L = lcm(*euler)
    weighted = [[x * (L // e) for x, e in zip(row, euler)] for row in A]
    den = da * db * L
    return [[Fraction(sum(x * y for x, y in zip(row, col)), den) for col in B] for row in weighted]


def edges(g):
    """Each undirected edge of the moment graph once, as (u, v, canonical_pair)."""
    for u in range(len(g.vertices)):
        for v, (i, j) in zip(g.neighbor[u], g.weight_pairs[u]):
            if u < v:
                yield u, v, (min(i, j), max(i, j))


def edge_rows(g, k: int) -> list[dict[int, int]]:
    """Degree-k edge conditions, one integer row per edge and divisibility
    row of its form (gkm._divisibility_rows), read on the difference of the
    two endpoint vectors: the two endpoint values agree mod the form.  The vertices
    own blocks of D columns in descending moment order, the highest vertex
    first; a block holds the vertex's coefficients of the D monomials of
    degree k."""
    D = len(monomials(g.nvars, k))
    block = {u: p * D for p, u in enumerate(reversed(g.order))}
    rows = []
    for u, v, pair in edges(g):
        for local in gkm._divisibility_rows(g.n, pair, k).values():
            row = {}
            for mi, c in local.items():
                row[block[u] + mi] = c
                row[block[v] + mi] = -c
            rows.append(row)
    return rows


def prefix_flow_up_classes(g, k: int) -> dict[int, tuple[int, dict[int, tuple[int, ...]]]]:
    """The flow-up classes of Morse index k as integer tables, {vertex:
    (den, support)} in moment order, read off one global elimination: the
    library's route before its upward sweep (gkm._flow_up_classes), which
    must give the same tables.  support maps the vertex and each vertex
    above it where the class is nonzero to an integer coefficient vector
    over monomials(nvars, k); the class's value there is that vector over
    the positive denominator den, and den and the vectors share no common
    factor.

    The columns of edge_rows run over the vertices in descending moment
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
    (gkm._check_flow_up) before it is returned.
    """
    vids = [u for u in g.order if g.index[u] == k]
    if not vids:
        return {}
    monos = monomials(g.nvars, k)
    D = len(monos)
    above = g.order[::-1]  # vertex above[p] owns columns p*D .. p*D + D - 1
    block = {u: p * D for p, u in enumerate(above)}
    ncols = block[vids[0]] + D
    prefix = ({c: x for c, x in row.items() if c < ncols} for row in edge_rows(g, k))
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
        known = gkm._norm(g, vid)
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
        gkm._check_flow_up(g, vid, table)
        classes[vid] = table
    return classes


def _dimension_of_degree(m: int, d: int) -> int:
    return len(monomials(m, d)) if d >= 0 else 0


def equivariant_dimension(g, k: int) -> int:
    """Dimension of the degree-k piece of the full divisibility system.

    The free-module prediction sum_j b_j * #monomials(k - j) must equal the
    exact nullity of the system; anything else raises.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    betti = betti_rs(g.h)
    morse = gkm.morse_betti(g)
    if morse != betti:
        raise ConsistencyError(f"orientation counts {morse} disagree with character {betti}")
    expected = sum(
        betti[j] * _dimension_of_degree(g.nvars, k - j) for j in range(min(k, g.l) + 1)
    )
    ncols = len(g.vertices) * _dimension_of_degree(g.nvars, k)
    nullity = ncols - rank_exact(edge_rows(g, k))
    if nullity != expected:
        raise ConsistencyError(
            f"divisibility system at degree {k} has dimension {nullity}, free module predicts {expected}"
        )
    return expected


def solve_particular(rows, rhs, ncols: int):
    """Any solution of rows * x = rhs with free variables set to 0, or None:
    read off the kernel's RREF of the augmented rows."""
    if not rows:
        return [Fraction(0)] * ncols
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(_entries(row))
        r[ncols] = b
        aug.append(r)
    pivots, red = _integer_rref(aug)
    if ncols in red:
        return None
    x = [Fraction(0)] * ncols
    for pcol in pivots:
        prow = red[pcol]
        x[pcol] = Fraction(prow.get(ncols, 0), prow[pcol])
    return x


def _monic(r: dict[int, int], col: int) -> dict[int, Fraction]:
    """r divided by its entry at col."""
    p = r[col]
    return {c: Fraction(v, p) for c, v in r.items()}


def echelon(rows) -> dict[int, dict[int, Fraction]]:
    """Echelon form as {pivot column: row}, read off the kernel's
    `_integer_echelon`; each row is 1 at its pivot column and 0 left of it.
    The input rows are not modified."""
    return {col: _monic(r, col) for col, r in _integer_echelon(rows).items()}


def row_reduce(rows):
    """RREF read off the kernel's `_integer_rref`.  Returns (pivot_columns,
    reduced_nonzero_rows): columns ascending, rows as sparse Fraction dicts in
    the same order.  The input rows are not modified."""
    pivots, red = _integer_rref(rows)
    return pivots, [_monic(red[c], c) for c in pivots]


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the rational kernel as Fraction rows, one vector per free
    column, read off the kernel's `_integer_nullspace`."""
    basis, d = _integer_nullspace(rows, ncols)
    return [[Fraction(x, d) for x in v] for v in basis]


def _over_one_denominator(matrix) -> tuple[list[list[int]], int]:
    """A matrix of int or Fraction entries as integer rows over one positive
    denominator (rows, d), d the lcm of the entries' denominators: the form
    in which `_integer_inertia` and `det_exact` take a rational matrix."""
    d = lcm(*(x.denominator for row in matrix for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in matrix], d


def inertia(G):
    """(signature, pivots) of a symmetric rational matrix, as
    `_integer_inertia` defines them: G is put over one denominator and the
    pass runs on integers."""
    return _integer_inertia(*_over_one_denominator(G))


def fraction_inertia(G):
    """(signature, pivots) of a symmetric rational matrix by Lagrange
    congruence diagonalization on Fractions: the library's pass before it
    ran on integers, with the same contract as `inertia`.  When every
    active diagonal entry is zero but some off-diagonal is not, a row+column
    add restores a usable pivot.  The pivots are the diagonal entries met in
    index order, up to and including the first one that is not positive."""
    A = [[Fraction(x) for x in row] for row in G]
    n = len(A)
    pos = neg = zero = 0
    pivots: list[Fraction] = []
    active = list(range(n))
    while active:
        if not pivots or pivots[-1] > 0:
            pivots.append(A[active[0]][active[0]])
        d = next((i for i in active if A[i][i] != 0), None)
        if d is None:
            pair = next(
                ((i, j) for i in active for j in active if j > i and A[i][j] != 0), None
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for k in range(n):
                A[i][k] += A[j][k]
            for k in range(n):
                A[k][i] += A[k][j]
            continue
        a = A[d][d]
        if a > 0:
            pos += 1
        else:
            neg += 1
        active.remove(d)
        for i in active:
            if A[i][d]:
                f = A[i][d] / a
                for k in range(n):
                    A[i][k] -= f * A[d][k]
                for k in range(n):
                    A[k][i] -= f * A[k][d]
    return (pos, neg, zero), pivots


def norm_poly(g, vid: int) -> Poly:
    """The product of the downward tangent weights at vid, as a Poly product
    against the library's integer coefficient vector."""
    norm = Poly.const(g.nvars, 1)
    for f in down_forms(g, vid):
        norm = norm * f
    return norm


def flow_up_class_by_vertex(g, vid: int) -> EquivClass:
    """The flow-up class of vid from a system of its own: the edge rows of
    its degree with vid's block moved to the right-hand side at the
    coefficients of its norm, the vertices strictly above it (phi larger)
    as unknowns in vertex order, and every other vertex 0.  With free
    variables 0 this is the class the library solved per vertex before it
    read all classes of one index off one elimination (prefix_flow_up_classes);
    the two bases differ by a unitriangular matrix in moment order.  Checked like the library's:
    every edge condition and no support below vid.
    """
    k = g.index[vid]
    m = g.nvars
    monos = monomials(m, k)
    D = len(monos)
    norm = norm_poly(g, vid)
    known = [norm.c.get(mono, 0) for mono in monos]
    above = g.order[::-1]  # the vertex of each column block of edge_rows
    unknown_ids = [u for u in range(len(g.vertices)) if g.phi[u] > g.phi[vid]]
    col_of = {u: i * D for i, u in enumerate(unknown_ids)}

    rows, rhs = [], []
    for full in edge_rows(g, k):
        row = {}
        b = Fraction(0)
        for c, x in full.items():
            p, mi = divmod(c, D)
            u = above[p]
            if u == vid:
                b -= x * known[mi]
            elif u in col_of:
                row[col_of[u] + mi] = x
        if row or b:
            rows.append(row)
            rhs.append(b)
    x = solve_particular(rows, rhs, len(unknown_ids) * D)
    if x is None:
        raise ConsistencyError(f"no flow-up class at vertex {g.vertices[vid]} for h={g.h}")

    values = [Poly.zero(m)] * len(g.vertices)
    values[vid] = norm
    for u, base in col_of.items():
        values[u] = Poly(m, {mono: x[base + i] for i, mono in enumerate(monos)})
    cls = EquivClass(g, k, tuple(values))
    cls.check_edges()
    for u in g.order:
        if u == vid:
            break
        if not values[u].is_zero():
            raise ConsistencyError("flow-up support leaked below its vertex")
    return cls


def class_table(cls) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The integer table (den, support) of a class, in the format of
    gkm._flow_up_classes: den is the lcm of its coefficient denominators and
    support maps each vertex where it is nonzero to den times its
    coefficients over monomials(nvars, degree)."""
    monos = monomials(cls.graph.nvars, cls.degree)
    den = lcm(*(x.denominator for v in cls.values for x in v.c.values()))
    support = {
        u: tuple(int(v.c.get(mono, 0) * den) for mono in monos)
        for u, v in enumerate(cls.values)
        if not v.is_zero()
    }
    return den, support


def graph_with_vertex_solved_basis(h):
    """build_gkm(h) with every flow-up table taken from flow_up_class_by_vertex,
    so every matrix and report on it is the one of the per-vertex basis."""
    g = gkm.build_gkm(h)
    table = g._caches.setdefault("_flow_up_classes", {})
    for k in range(g.l + 1):
        table[(k,)] = {
            u: class_table(flow_up_class_by_vertex(g, u)) for u in g.order if g.index[u] == k
        }
    return g


def equivariant_piece(g, k: int) -> list:
    """Basis of all degree-k classes: monomial multiples of flow-up classes.

    The returned classes solve the divisibility system exactly; completeness
    is certified by equivariant_dimension, so the list is an honest basis of
    the full solution space.
    """
    if not 0 <= k <= 2 * g.l + 3:
        raise ValueError(f"degree must satisfy 0 <= k <= {2 * g.l + 3}, got {k}")
    expected = equivariant_dimension(g, k)
    basis = []
    for vid in g.order:
        j = g.index[vid]
        if j > min(k, g.l):
            continue
        sigma = flow_up_class(g, vid)
        for mono in monomials(g.nvars, k - j):
            basis.append(sigma * Poly(g.nvars, {mono: Fraction(1)}))
    if len(basis) != expected:
        raise ConsistencyError(
            f"constructed {len(basis)} classes at degree {k}, certificate says {expected}"
        )
    return basis


@gkm._memo
def _integration_factors(g: gkm.GKMGraph):
    """Per-vertex signed cofactors: sum f_w * factor_w = (sum f_w / e_w) * prod all forms.

    The Euler class e_w multiplies t_{w(b)} - t_{w(a)} over the defining slots
    (a, b).  This orientation is pinned by positivity: it makes the ample class
    of a strictly decreasing weight integrate to +1 on the n = 2 flag space,
    and hence keeps all odd powers of the Kahler class positively oriented.
    """
    all_pairs = [
        (i, j) for i in range(1, g.n + 1) for j in range(i + 1, g.n + 1)
    ]
    factors = []
    for u in range(len(g.vertices)):
        sign = 1
        covered = set()
        for wa, wb in g.weight_pairs[u]:
            if wb < wa:
                covered.add((wb, wa))
            else:
                covered.add((wa, wb))
                sign = -sign
        poly = Poly.const(g.nvars, sign)
        for pair in all_pairs:
            if pair not in covered:
                poly = poly * pair_form(g.n, *pair)
        factors.append(poly)
    return factors


def integrate(g: gkm.GKMGraph, c: EquivClass):
    """Localization sum over fixed points: sum_w f_w / prod(tangent weights at w).

    The sum of rational functions must collapse to a polynomial of degree
    (deg c) - l; the implementation multiplies through by the product of all
    root forms and performs exact linear-form divisions, so any failure of
    polynomiality raises instead of approximating.  Degree-l input yields a
    rational number.
    """
    total = Poly.zero(g.nvars)
    for val, factor in zip(c.values, _integration_factors(g)):
        if not val.is_zero():
            total = total + val * factor
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            if total.is_zero():
                break
            total, rem = divmod_linear(total, pair_form(g.n, i, j))
            if not rem.is_zero():
                raise ConsistencyError("localization sum failed to be a polynomial")
    expected_degree = c.degree - g.l
    if not total.is_zero() and total.degree != expected_degree:
        raise ConsistencyError(
            f"integral has degree {total.degree}, expected {expected_degree}"
        )
    if expected_degree <= 0:
        return total.constant_value()
    return total


def _decompose(g, c) -> dict:
    """Expand c over monomial multiples of flow-up classes (free-module coordinates).

    Walks vertices in moment order: the residual value at each vertex must be
    divisible by that vertex's downward-weight product, the quotient is the
    polynomial coefficient of its flow-up class, and the multiple is
    subtracted.  Exactness of every division certifies membership.
    """
    residual = list(c.values)
    out = {}
    for vid in g.order:
        r = residual[vid]
        if r.is_zero():
            continue
        if g.index[vid] > c.degree:
            raise ConsistencyError("class is not in the span of flow-up multiples")
        q = r
        for f in down_forms(g, vid):
            q, rem = divmod_linear(q, f)
            if not rem.is_zero():
                raise ConsistencyError("flow-up decomposition hit a non-divisible residual")
        out[vid] = q
        sigma = flow_up_class(g, vid)
        for u, val in enumerate(sigma.values):
            if not val.is_zero():
                residual[u] = residual[u] - q * val
    if any(not r.is_zero() for r in residual):
        raise ConsistencyError("flow-up decomposition left a nonzero residual")
    return out


def ordinary_project(g, c) -> list:
    """Coordinates of the image of c in H^{2 degree} w.r.t. the flow-up basis."""
    coeffs = _decompose(g, c)
    vids = [u for u in g.order if g.index[u] == c.degree]
    return [coeffs.get(u, Poly.zero(g.nvars)).constant_value() for u in vids]


def dot_matrix_by_projection(g, j: int, k: int):
    """Matrix of s_j on the degree-k piece: column c is
    ordinary_project(dot_action(s_j, sigma_c)) for the c-th flow-up class."""
    w = gkm.transposition(g.n, j)
    cols = [ordinary_project(g, dot_action(g, w, s)) for s in ordinary_basis(g, k)]
    return [list(row) for row in zip(*cols)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def fraction_product(A, B):
    """The matrix product of two row lists of int or Fraction entries, summed
    over Fraction; B needs at least one row."""
    cols = list(zip(*B))
    return [[sum((Fraction(a) * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in A]


def lefschetz_matrix_by_projection(g, lam, dd: int):
    """Row i is ordinary_project(sigma_i * omega) for the flow-up classes
    sigma_i of Morse index dd and the ample class omega of lam."""
    omega = kahler_class(g, lam)
    return [ordinary_project(g, s * omega) for s in ordinary_basis(g, dd)]


def lift_with_noise(g, k: int, vec, rng: random.Random):
    """A different valid lift of the same ordinary class: adds random multiples
    of lower flow-up classes by positive-degree monomials."""
    out = lift(g, k, vec)
    for vid in g.order:
        j = g.index[vid]
        if j >= k or j > g.l:
            continue
        sigma = flow_up_class(g, vid)
        for mono in monomials(g.nvars, k - j):
            coeff = rng.randint(-2, 2)
            if coeff:
                out = out + sigma * Poly(g.nvars, {mono: Fraction(coeff)})
    return out


def _omega_power(g, lam, p: int):
    out = EquivClass(g, 0, tuple(Poly.const(g.nvars, 1) for _ in g.vertices))
    for _ in range(p):
        out = out * kahler_class(g, lam)
    return out


def pairing_by_lifts(g, k: int, J):
    """Poincare pairing with one polynomial integral of lifted invariant
    classes per entry: integrate(lift(a) * lift(b))."""
    dd = k // 2
    A = [lift(g, dd, v) for v in invariant_vectors(g, J, dd)]
    B = [lift(g, g.l - dd, v) for v in invariant_vectors(g, J, g.l - dd)]
    return [[integrate(g, a * b) for b in B] for a in A]


def intersection_matrix_by_integrals(g, dd: int):
    """integrate(sigma_i * sigma_j) for the flow-up classes of Morse index dd
    and l - dd, both in moment order."""
    B = ordinary_basis(g, g.l - dd)
    return [[integrate(g, a * b) for b in B] for a in ordinary_basis(g, dd)]


def lefschetz_images_by_lifts(g, J, lam, dd: int, p: int):
    """ordinary_project(lift(v) * omega^p) for each W_J-invariant v of degree dd."""
    omega_pow = _omega_power(g, lam, p)
    return [
        ordinary_project(g, lift(g, dd, v) * omega_pow)
        for v in invariant_vectors(g, J, dd)
    ]


def lefschetz_integrals_by_lifts(g, J, lam, dd: int, b: int):
    """integrate(lift(v) * omega^(l-dd-b) * sigma) for each W_J-invariant v of
    degree dd (rows) and each flow-up class sigma of Morse index b (columns)."""
    omega_pow = _omega_power(g, lam, g.l - dd - b)
    products = [lift(g, dd, v) * omega_pow for v in invariant_vectors(g, J, dd)]
    return [[integrate(g, p * s) for s in ordinary_basis(g, b)] for p in products]


def primitive_form_by_lifts(g, J, lam, dd: int):
    """Unsigned Hodge-Riemann Gram matrix integrate(a * b * omega^(l-2dd)) over
    lifts of the primitive invariant basis, itself taken from the kernel of
    lefschetz_images_by_lifts at one more power."""
    domain = invariant_vectors(g, J, dd)
    images = lefschetz_images_by_lifts(g, J, lam, dd, g.l - 2 * dd + 1)
    prim = nullspace(list(zip(*images)), len(domain))
    lifts = [
        lift(g, dd, [sum(x * e for x, e in zip(p, col)) for col in zip(*domain)])
        for p in prim
    ]
    omega_pow = _omega_power(g, lam, g.l - 2 * dd)
    return [[integrate(g, a * b * omega_pow) for b in lifts] for a in lifts]


def _tableau_table(h: tuple[int, ...]) -> dict[Partition, list[int]]:
    """{shape: counts} for every shape (row lengths) with a P_h-tableau, where
    counts[k] is the number of P_h-tableaux of that shape with inv = k.

    P_h is the poset on 1..n with i <_P j iff j > h(i); i and j are
    incomparable exactly when they are joined in the incomparability graph.
    A P-tableau holds each element once, every row is a strict <_P chain,
    and no entry is >_P the entry directly below it.  inv counts the
    incomparable pairs i < j where i sits in a strictly lower row than j.

    One depth-first walk fills every shape at once.  Cells go in row-major
    order over bitmasks (bit x is element x + 1), so when an element is
    placed, the elements of the rows above it are exactly those used before
    its row began.  Each element either extends the current row, if the row
    above is longer, or closes it and opens a new row under it.  Counts are
    filed in a trie: a node stands for the completed row lengths, its
    children are indexed by the length of the next row and its counts by the
    length of the last one, so no shape key is built until the walk ends.
    counts has one entry per possible pair, so a wrong inv shows up past
    degree dimension(h).  tableau_rows_by_shape checks it shape by shape.
    """
    n = len(h)  # the walk places the last element one cell ahead, so it needs n >= 2
    full = (1 << n) - 1
    greater = [full >> hx << hx for hx in h]  # y with x <_P y
    may_follow = [sum(1 << y for y in range(n) if h[y] > a) for a in range(n)]  # y not <_P a
    may_follow.append(full)  # a sentinel element n, which constrains nothing
    tied = [(1 << hx) - (2 << x) for x, hx in enumerate(h)]  # y > x incomparable to x
    pairs = n * (n - 1) // 2 + 1
    entry = [0] * n + [n] * n  # cells, then a sentinel row above the first row
    last = n - 1
    width = 2 * n + 1  # a trie node: at[c] is its child for a next row of length c, at[n + c] its counts

    def fill(i: int, used: int, higher: int, inv: int, at: list, start: int, above: int, above_len: int) -> None:
        # The current row is entry[start:i].  The row above it starts at
        # entry[above] and has above_len cells (the sentinel row of n cells
        # for the first row).  at is the trie node of the rows above.
        c = i - start
        free = full ^ used
        if i == last:  # one element left: file each way it can go instead of recursing
            x = free.bit_length() - 1
            if above_len > c and greater[entry[i - 1]] & may_follow[entry[above + c]] & free:
                counts = at[n + c + 1]
                if counts is None:
                    counts = at[n + c + 1] = [0] * pairs
                counts[inv + (tied[x] & higher).bit_count()] += 1
            if may_follow[entry[start]] & free:
                child = at[c]
                if child is None:
                    child = at[c] = [None] * width
                counts = child[n + 1]
                if counts is None:
                    counts = child[n + 1] = [0] * pairs
                counts[inv + (tied[x] & used).bit_count()] += 1
            return
        if above_len > c:
            ext = free & greater[entry[i - 1]] & may_follow[entry[above + c]]
            while ext:
                bit = ext & -ext
                ext ^= bit
                x = bit.bit_length() - 1
                entry[i] = x
                fill(i + 1, used | bit, higher, inv + (tied[x] & higher).bit_count(), at, start, above, above_len)
        free &= may_follow[entry[start]]
        if free:
            child = at[c]
            if child is None:
                child = at[c] = [None] * width
            while free:
                bit = free & -free
                free ^= bit
                x = bit.bit_length() - 1
                entry[i] = x
                fill(i + 1, used | bit, used, inv + (tied[x] & used).bit_count(), child, i, start, c)

    root = [None] * width
    for x in range(n):
        entry[0] = x
        fill(1, 1 << x, 0, 0, root, 0, n, n)

    table: dict[Partition, list[int]] = {}

    def collect(at: list, rows: Partition) -> None:
        for length in range(1, n + 1):
            if at[n + length] is not None:
                table[rows + (length,)] = at[n + length]
            if at[length] is not None:
                collect(at[length], rows + (length,))

    collect(root, ())
    return table


def tableau_rows_by_shape(h, shape: Partition) -> list[int]:
    """counts[k] = number of P_h-tableaux of the given shape (row lengths) with inv = k.

    P_h is the poset on 1..n with i <_P j iff j > h(i).  A P-tableau holds
    each element once, every row is a strict <_P chain, and no entry is >_P
    the entry directly below it; inv counts the incomparable pairs i < j
    where i sits in a strictly lower row than j.  Cells of this one shape are
    filled in row-major order over bitmasks (bit x is element x + 1), so the
    elements of the rows above a cell are those used before its row began.
    counts has one entry per possible pair.
    """
    h = check_hessenberg(h)
    shape = check_partition(shape)
    n = len(h)
    full = (1 << n) - 1
    greater = [full >> hx << hx for hx in h]  # y with x <_P y
    may_follow = [sum(1 << y for y in range(n) if h[y] > a) for a in range(n)]  # y not <_P a
    tied = [(1 << hx) - (2 << x) for x, hx in enumerate(h)]  # y > x incomparable to x
    cells = []  # (left, up, first in its row) as indices into entry
    start = 0
    for r, length in enumerate(shape):
        for c in range(length):
            cells.append((start + c - 1 if c else -1, start - shape[r - 1] + c if r else -1, c == 0))
        start += length
    counts = [0] * (n * (n - 1) // 2 + 1)
    entry = [0] * n

    def fill(i: int, used: int, higher: int, inv: int) -> None:
        if i == n:
            counts[inv] += 1
            return
        left, up, new_row = cells[i]
        if new_row:
            higher = used
        free = full & ~used
        if left >= 0:
            free &= greater[entry[left]]
        if up >= 0:
            free &= may_follow[entry[up]]
        while free:
            bit = free & -free
            free ^= bit
            x = bit.bit_length() - 1
            entry[i] = x
            fill(i + 1, used | bit, higher, inv + (tied[x] & higher).bit_count())

    fill(0, 0, 0, 0)
    return counts
