"""Graded multiplicity tables for the Weyl-group action on semisimple Hessenberg spaces.

By Brosnan-Chow the dot-action character is omega X_G(q) for the
incomparability graph G of h, so row k of table[lam], the multiplicity of the
irreducible lam in (complex) degree 2k, is the q^k coefficient of s_lam in
omega X_G(q).  No table is enumerated; each comes from a formula:

- a decomposable h: ascents stay inside its blocks, so X_G(q) is the product
  of the blocks' functions.  Their tables go to the complete homogeneous
  basis (a unitriangular Kostka solve), multiply there, and come back by the
  Kostka numbers;
- the complete graph (n, ..., n): omega X_{K_n}(q) = [n]_q! h_n;
- the path (2, 3, ..., n, n): the Shareshian-Wachs recursion
  omega X_{P_n} = h_n + sum_{k=2..n} q [k-1]_q h_k omega X_{P_{n-k}};
- every other h: the modular law (Guay-Paquet), (1+q) f(h1) = q f(h0) +
  f(h2) on the triples of _modular_triples, which with the three rules above
  determines every table (Abreu-Nigro).  One plan per n (_plan) says which
  triple derives which table, and the tables an h needs are made in that
  order, each by q-row operations and exact divisions by q or 1 + q on two
  tables already made.  Relabelling i -> n+1-i turns ascents into descents,
  and X_G(q) is palindromic (Shareshian-Wachs), so h and its reversal share
  a table, and the plan derives each reversal pair once.

Every Betti reading (the full space, or the invariant subspace
for a regular element with Young-subgroup stabilizer W_J) is
GradedMultiplicity.betti(J): each row weighted by the dimension of the
W_J-fixed part of its irreducible, the Kostka number K_{lam, mu(J)}.  The sum
depends on J only through the content mu(J), so betti_rows makes the rows of
every content at once, in one packed Kostka product per table, and betti(J)
reads its content's row.

Two enumerations stay as oracles.  The tests walk P-tableaux
(Shareshian-Wachs Thm 6.3: table[lam][k] counts the P_h-tableaux of shape
conjugate(lam) with inv = k), and chromatic_qsym here enumerates proper
colorings of G, weighted by q^(number of ascending edges), into the
q-refined chromatic quasisymmetric function; the tests decode it by Schur
pairing against conjugate shapes and compare tables.  An edge {i, j} with
i < j ascends under a coloring kappa iff kappa(i) < kappa(j), and q^k reports
degree 2k directly (not reversed).  Both choices are pinned by the
complete-graph fixture, whose trivial-isotype row must be the q-factorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial

from .errors import ConsistencyError, CostGuardError
from .hessenberg import _functions, check_hessenberg, dimension
from .partitions import (
    Partition,
    _dim_irrep,
    check_partition,
    kostka_number,
    partition_str,
    partitions_of,
    young_subgroup_content,
)
from .symfunc import QPoly, QSymPoly

CHARACTER_GUARD_N = 8  # the n above which the coloring oracle chromatic_qsym needs force=True


def chromatic_qsym(h, force: bool = False) -> QSymPoly:
    """q-refined chromatic symmetric function of the incomparability graph.

    The oracle for dot_action_multiplicities, which does not call it.
    Colors are 1..n.  The coefficient of m_lam is the generating polynomial
    sum q^asc over proper colorings whose color-usage vector is exactly lam
    (colors 1..len(lam) used lam_1, lam_2, ... times).  As a built-in check of
    the ascent statistic, all usage vectors with the same sorted profile must
    produce identical polynomials; anything else raises.
    """
    h = check_hessenberg(h)
    if len(h) > CHARACTER_GUARD_N and not force:
        raise CostGuardError(
            f"n = {len(h)} enumerates up to {len(h)}^{len(h)} colorings; pass force=True to proceed"
        )
    return _chromatic_cached(h)


@cache
def _chromatic_cached(h: tuple[int, ...]) -> QSymPoly:
    n = len(h)
    # Earlier neighbors of vertex j are a contiguous run start[j]..j-1 because
    # h is nondecreasing; that makes the properness check a single scan.
    start = [0] * (n + 1)
    for j in range(1, n + 1):
        i = 1
        while i < j and h[i - 1] < j:
            i += 1
        start[j] = i

    raw: dict[tuple[int, ...], dict[int, int]] = {}
    kappa = [0] * (n + 1)
    usage = [0] * (n + 1)

    def assign(v: int, asc: int):
        if v > n:
            key = tuple(usage[1:])
            bucket = raw.setdefault(key, {})
            bucket[asc] = bucket.get(asc, 0) + 1
            return
        lo = start[v]
        for c in range(1, n + 1):
            added = 0
            ok = True
            for i in range(lo, v):
                ci = kappa[i]
                if ci == c:
                    ok = False
                    break
                if ci < c:
                    added += 1
            if not ok:
                continue
            kappa[v] = c
            usage[c] += 1
            assign(v + 1, asc + added)
            usage[c] -= 1
        kappa[v] = 0

    assign(1, 0)

    by_profile: dict[Partition, dict[tuple[int, ...], QPoly]] = {}
    for alpha, bucket in raw.items():
        profile = tuple(sorted((a for a in alpha if a), reverse=True))
        by_profile.setdefault(profile, {})[alpha] = QPoly(bucket)
    coeffs: dict[Partition, QPoly] = {}
    for lam in partitions_of(n):
        group = by_profile.get(lam, {})
        canonical = lam + (0,) * (n - len(lam))
        value = group.get(canonical, QPoly.zero())
        if any(poly != value for poly in group.values()):
            raise ConsistencyError(
                f"ascent statistic broke symmetry at profile {lam} for h={h}"
            )
        if not value.is_zero():
            coeffs[lam] = value
    return QSymPoly(n, coeffs)


@dataclass
class GradedMultiplicity:
    """Multiplicity table: table[lam][k] = multiplicity of irreducible lam in degree 2k."""

    n: int
    h: tuple[int, ...]
    l: int
    table: dict[Partition, list[int]]

    @cached_property
    def betti_rows(self) -> dict[Partition, tuple[int, ...]]:
        """{mu: row} for every content mu, a partition of n: row[k] is
        sum_lam K_{lam, mu} table[lam][k], the Betti number b_{2k} of the
        W_J-invariant part for every J with mu(J) = mu (betti).  Made once
        per instance, with every content in one pass (_content_rows);
        mu = (1, ..., 1) is the full space.  The rows are shared: read them,
        or copy one before changing it.
        """
        return _content_rows(self.n, self.l, self.table)

    def betti(self, J=()) -> list[int]:
        """Betti numbers b_{2k} of the W_J-invariant part; J = () is the full space.

        Each irreducible contributes the dimension of its W_J-fixed subspace,
        the Kostka number K_{lam, mu(J)} for the sorted block sizes mu(J) of
        W_J (invariant_dim), taken once per row.  The sum depends on J only
        through mu(J), so this is a fresh copy of betti_rows[mu(J)].
        """
        return list(self.betti_rows[_content(tuple(J), self.n)])


def _content_rows(n: int, l: int, table: dict[Partition, list[int]]) -> dict[Partition, tuple[int, ...]]:
    """GradedMultiplicity.betti_rows of a table, by Kronecker substitution.

    Each row is packed into one int, b = n!.bit_length() bits per degree,
    and the row of content mu is sum_lam K_{lam, mu} packed[lam], unpacked
    by shifts.  The table is one that _checked passes, with a row for every
    partition of n.  No slot carries into the next: rows and Kostka numbers
    are nonnegative and K_{lam, mu} <= f^lam = K_{lam, (1^n)}, so every
    partial sum of a slot is at most the full-space Betti number sum_lam
    f^lam table[lam][k] <= n! < 2^b.
    """
    b = factorial(n).bit_length()
    packed = {}
    for lam, row in table.items():
        word = 0
        for count in reversed(row):
            word = (word << b) | count
        packed[lam] = word
    mask = (1 << b) - 1
    shifts = range(0, b * (l + 1), b)
    rows = {}
    for mu, column in _kostka_columns(n).items():
        word = 0
        for lam, weight in column:
            word += weight * packed[lam]
        rows[mu] = tuple([word >> s & mask for s in shifts])
    return rows


@cache
def _kostka_columns(n: int) -> dict[Partition, tuple[tuple[Partition, int], ...]]:
    """{mu: ((lam, K_{lam, mu}), ...)} over the partitions mu of n, in
    partitions_of order, with the nonzero Kostka numbers only."""
    lams = partitions_of(n)
    return {mu: tuple((lam, w) for lam in lams if (w := kostka_number(lam, mu))) for mu in lams}


@cache
def _content(J: tuple, n: int) -> tuple[int, ...]:
    """young_subgroup_content, memoized; a J it rejects raises on every call, as nothing is stored."""
    return young_subgroup_content(J, n)


def dot_action_multiplicities(h) -> GradedMultiplicity:
    """Graded irreducible multiplicities, the Schur coefficients of omega X_G(q).

    mult[lam][k] is the multiplicity of the irreducible lam in degree 2k.
    No table is enumerated: a decomposable h multiplies its blocks' tables
    in the complete homogeneous basis (_h_coeffs), the complete graph and
    the path have closed forms, and every other h comes from tables already
    made by the modular law, in the order of its n's plan (_plan,
    _derived).  Every table, however made, must come out nonnegative
    integers supported in degrees 0..dimension(h), with rows weighted by
    irreducible dimensions summing to n! (_checked, which also checks every
    table read from a cache); anything else raises instead of returning.
    """
    return _mult_cached(check_hessenberg(h))


@cache
def _mult_cached(h: tuple[int, ...]) -> GradedMultiplicity:
    n = len(h)
    l = sum(h) - n * (n + 1) // 2  # dimension(h), without checking h again
    blocks = _blocks(h)
    if len(blocks) > 1:
        coeffs: dict[Partition, list[int]] = {(): [1]}
        for block in blocks:
            coeffs = _h_product(coeffs, _h_coeffs(block), l)
        rows = _from_h_coeffs(n, coeffs)
    elif h == (n,) * n:  # omega X_{K_n}(q) = [n]_q! h_n
        factorial_row = [1]
        for m in range(2, n + 1):
            factorial_row = [sum(factorial_row[max(0, k - m + 1): k + 1]) for k in range(len(factorial_row) + m - 1)]
        rows = {(n,): factorial_row}
    elif h == _path(n):
        rows = _from_h_coeffs(n, _path_h_coeffs(n))
    else:
        return _derived(h)
    return _checked(h, l, rows)


def _checked(h: tuple[int, ...], l: int, rows: dict[Partition, list[int]]) -> GradedMultiplicity:
    """The multiplicity table of h, of dimension l, with the given rows
    ({lam: counts}; a missing lam has no counts), checked: every row
    nonnegative and supported in degrees 0..l, and the rows weighted by
    irreducible dimensions summing to n!.  Anything else raises
    ConsistencyError."""
    n = len(h)
    empty = [0] * (l + 1)
    table: dict[Partition, list[int]] = {}
    for lam in partitions_of(n):
        counts = rows.get(lam, empty)
        if any(counts[l + 1:]):
            raise ConsistencyError(f"multiplicity row for {lam} exceeds degree {l} at h={h}: {counts}")
        row = counts[: l + 1]
        if min(row) < 0:
            raise ConsistencyError(f"negative multiplicity for {lam} at h={h}: {row}")
        table[lam] = row
    total = sum(_dim_irrep(lam) * sum(row) for lam, row in table.items())
    if total != factorial(n):
        raise ConsistencyError(f"multiplicities weighted by dimension sum to {total}, not {n}! at h={h}")
    return GradedMultiplicity(n=n, h=h, l=l, table=table)


def _blocks(h: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The blocks of h, split after each i with h(i) = i and renumbered from 1.

    No incomparability edge joins two blocks, so X_G(q) is the product of
    the blocks' functions.
    """
    blocks, start = [], 0
    for i, hi in enumerate(h, start=1):
        if hi == i:
            blocks.append(tuple(v - start for v in h[start:i]))
            start = i
    return blocks


def _reversed(h: tuple[int, ...]) -> tuple[int, ...]:
    """The Hessenberg function whose incomparability graph is h's relabelled
    by i -> n+1-i: _reversed(h)(a) = n+1 - min{i : h(i) >= n+1-a}."""
    n = len(h)
    return tuple(n + 1 - next(i for i, v in enumerate(h, start=1) if v >= n + 1 - a) for a in range(1, n + 1))


@cache
def _h_coeffs(h: tuple[int, ...]) -> dict[Partition, list[int]]:
    """omega X_G(q) in the complete homogeneous basis, {mu: c_mu} with c_mu
    a q-coefficient row and zero rows left out.

    h_mu = sum_lam K_{lam,mu} s_lam, and K_{lam,mu} = 0 unless mu is
    dominated by lam, with K_{lam,lam} = 1.  So table[lam] = sum_mu
    K_{lam,mu} c_mu is unitriangular and is solved from (1^n) upward: the
    reverse of partitions_of's order puts every mu dominated by lam first,
    so c_mu is what is left of table[mu] when it is reached, and its
    column is taken off the rows above it.
    """
    rest = dict(_mult_cached(h).table)
    columns = _kostka_columns(len(h))
    coeffs: dict[Partition, list[int]] = {}
    for mu in reversed(partitions_of(len(h))):
        c = rest[mu]
        if any(c):
            coeffs[mu] = c
            for lam, weight in columns[mu]:
                if lam != mu:
                    rest[lam] = [r - weight * x for r, x in zip(rest[lam], c)]
    return coeffs


def _h_product(left: dict, right: dict, l: int) -> dict[Partition, list[int]]:
    """The product of two functions in the complete homogeneous basis,
    h_mu h_nu = h_{mu u nu}, as q-coefficient rows of l + 1 entries."""
    out: dict[Partition, list[int]] = {}
    for mu, a in left.items():
        for nu, b in right.items():
            row = out.setdefault(tuple(sorted(mu + nu, reverse=True)), [0] * (l + 1))
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        row[i + j] += x * y
    return out


def _from_h_coeffs(n: int, coeffs: dict[Partition, list[int]]) -> dict[Partition, list[int]]:
    """The Schur rows table[lam] = sum_mu K_{lam,mu} c_mu of {mu: c_mu}, all
    rows of one length."""
    width = len(next(iter(coeffs.values())))
    rows = {lam: [0] * width for lam in partitions_of(n)}
    columns = _kostka_columns(n)
    for mu, c in coeffs.items():
        for lam, weight in columns[mu]:
            rows[lam] = [r + weight * x for r, x in zip(rows[lam], c)]
    return rows


def _path(n: int) -> tuple[int, ...]:
    """(2, 3, ..., n, n), whose incomparability graph is the path P_n; (1,) for n = 1."""
    return tuple(range(2, n + 1)) + (n,)


@cache
def _path_h_coeffs(n: int) -> dict[Partition, list[int]]:
    """omega X_{P_n}(q) in the complete homogeneous basis, n >= 0, as
    q-coefficient rows of n entries (one for n = 0), by the Shareshian-Wachs
    recursion omega X_{P_n} = h_n + sum_{k=2..n} q [k-1]_q h_k omega X_{P_{n-k}},
    with omega X_{P_0} = 1."""
    l = max(n - 1, 0)
    coeffs = {(n,) if n else (): [1] + [0] * l}
    for k in range(2, n + 1):
        for mu, row in _h_product({(k,): [0] + [1] * (k - 1)}, _path_h_coeffs(n - k), l).items():
            coeffs[mu] = [a + b for a, b in zip(coeffs.get(mu, [0] * (l + 1)), row)]
    return coeffs


def _modular_triples(h: tuple[int, ...]):
    """Every triple (h0, h1, h2) of the modular law that has h as a member.

    The law at a position i of h1, with a = h1(i): h1(i-1) < a < h1(i+1)
    (h1(0) = 0, h1(n+1) = n+1), i < a < n and h1(a) = h1(a+1); h0 and h2
    are h1 with a lowered and raised by 1, both Hessenberg functions then.
    For f = omega X_G(q), (1+q) f(h1) = q f(h0) + f(h2) (Guay-Paquet;
    Abreu-Nigro).  h is h1 at i, or h0 or h2 of the h1 that differs from h
    at i; only position i changes, and a > i, so h1(a) = h(a).
    """
    n = len(h)
    for i in range(1, n + 1):
        low = h[i - 2] if i > 1 else 0
        high = h[i] if i < n else n + 1
        for a in (h[i - 1], h[i - 1] + 1, h[i - 1] - 1):  # h is h1, h0, h2
            if low < a < high and i < a < n and h[a - 1] == h[a]:
                head, tail = h[: i - 1], h[i:]
                yield head + (a - 1,) + tail, head + (a,) + tail, head + (a + 1,) + tail


@cache
def _plan(n: int) -> tuple[dict, dict]:
    """(steps, tables): how every Hessenberg function of size n that the
    modular law reaches gets its table, and the memo of those tables.

    Known from the start are the decomposable h (some h(i) = i < n), the
    complete graph and the path (_mult_cached's closed forms; the set is
    closed under _reversed).  A worklist takes each known function in turn;
    a triple of its _modular_triples with exactly one unknown member
    derives that member, whose reversal (the same table) then is known too.
    steps[y] is (position, members): members is the triple, or (x,) for
    the reversal x of y, and every member but y comes before y in plan
    order or is known from the start.  tables fills as _derived asks; an h
    of size n in neither steps nor the starting set is not reached, and has
    no table.
    """
    closed = ((n,) * n, _path(n))
    start = [h for h in _functions(n) if h in closed or any(v == i for i, v in enumerate(h[:-1], start=1))]
    known = set(start)
    steps: dict[tuple[int, ...], tuple[int, tuple]] = {}
    worklist = list(start)

    def learn(y: tuple[int, ...], members: tuple) -> None:
        steps[y] = (len(steps), members)
        known.add(y)
        worklist.append(y)

    for x in worklist:  # grows as the loop runs
        for triple in _modular_triples(x):
            unknown = [y for y in triple if y not in known]
            if len(unknown) == 1:
                y = unknown[0]
                learn(y, triple)
                if (mirror := _reversed(y)) not in known:
                    learn(mirror, (y,))
    return steps, {}


def _derived(h: tuple[int, ...]) -> GradedMultiplicity:
    """The table of h from its n's plan (_plan): the steps h depends on
    that are not made yet are made in plan order, each from tables already
    made, with no recursion through the law.  An h the plan does not reach
    raises ConsistencyError."""
    steps, tables = _plan(len(h))
    if h not in tables:
        if h not in steps:
            raise ConsistencyError(f"the modular law reaches no table for h={h}")
        due, stack = {h}, [h]
        while stack:
            for x in steps[stack.pop()][1]:
                if x in steps and x not in tables and x not in due:
                    due.add(x)
                    stack.append(x)
        for y in sorted(due, key=lambda y: steps[y][0]):
            members = steps[y][1]
            read = [_mult_cached(x).table for x in members if x != y]
            rows = read[0] if len(members) == 1 else _modular_rows(y, members.index(y), *read)
            tables[y] = _checked(y, dimension(y), rows)
    return tables[h]


def _modular_rows(h: tuple[int, ...], which: int, first: dict, second: dict) -> dict[Partition, list[int]]:
    """The rows of member `which` (0, 1 or 2; it is h) of a modular-law
    triple (h0, h1, h2), from the rows of the other two members in triple
    order, by (1+q) f(h1) = q f(h0) + f(h2), Schur row by Schur row.  Rows
    of f(h0), f(h1), f(h2) have L - 1, L and L + 1 entries.  f(h0) needs
    a division by q and f(h1) one by 1 + q; a row that does not divide
    exactly raises ConsistencyError.  f(h0)'s rows come out one entry long,
    which _checked requires to be 0.
    """
    out = {}
    for lam, u in first.items():
        v = second[lam]
        if which == 2:  # f(h2) = (1+q) f(h1) - q f(h0)
            out[lam] = [x + y - z for x, y, z in zip(v + [0], [0] + v, [0] + u + [0])]
        elif which == 0:  # q f(h0) = (1+q) f(h1) - f(h2)
            g = [x + y - z for x, y, z in zip(u + [0], [0] + u, v)]
            if g[0]:
                raise ConsistencyError(f"modular law at h={h}: row {lam} of q f(h0) has constant term {g[0]}")
            out[lam] = g[1:]
        else:  # (1+q) f(h1) = q f(h0) + f(h2)
            g = [x + y for x, y in zip([0] + u + [0], v)]
            quotient, carry = [], 0
            for x in g[:-1]:
                carry = x - carry
                quotient.append(carry)
            if g[-1] != carry:
                raise ConsistencyError(f"modular law at h={h}: row {lam} of (1+q) f(h1) leaves remainder {g[-1] - carry}")
            out[lam] = quotient
    return out


def betti_rs(h) -> list[int]:
    """Betti numbers b_{2k} of the semisimple space: dimension-weighted row sums."""
    return dot_action_multiplicities(h).betti()


def regular_betti(h, J) -> list[int]:
    """Betti numbers b_{2k} for a regular element whose stabilizer is W_J.

    h is a Hessenberg function or its GradedMultiplicity table.  J = ()
    recovers betti_rs; J = {1, ..., n-1} is the regular-nilpotent reading.
    """
    gm = h if isinstance(h, GradedMultiplicity) else dot_action_multiplicities(h)
    return gm.betti(J)


def multiplicities_json(gm: GradedMultiplicity) -> dict:
    """JSON-ready dict: {"n", "h", "l", "mult", "betti"} with exact integers, "mult" keyed by partition_str."""
    return {
        "n": gm.n,
        "h": ",".join(str(v) for v in gm.h),
        "l": gm.l,
        "mult": {partition_str(lam): list(row) for lam, row in gm.table.items()},
        "betti": gm.betti(),
    }


def multiplicities_from_json(doc: dict) -> GradedMultiplicity:
    """Inverse of multiplicities_json, checked; the derived "betti" entry is
    not read.  n and l must be ints, not bools, and h a Hessenberg function
    of length n with dimension l; the keys must be exactly the partitions of
    n, each row l + 1 integers, and the table must pass the checks of a
    computed one (_checked).  A document that is not such a table raises
    ConsistencyError."""
    try:
        n, l = doc["n"], doc["l"]
        h = check_hessenberg(doc["h"].split(","))
        if type(n) is not int or type(l) is not int or len(h) != n or l != dimension(h):
            raise ValueError(f"h={doc['h']} claims n = {n}, l = {l}")
        table = {check_partition(key.split(",")): row for key, row in doc["mult"].items()}
        if len(table) != len(doc["mult"]) or set(table) != set(partitions_of(n)):
            raise ValueError(f"keys {sorted(doc['mult'])} are not the partitions of {n}")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConsistencyError(f"malformed multiplicity table: {type(exc).__name__}: {exc}") from None
    for lam, row in table.items():
        if not isinstance(row, list) or len(row) != l + 1 or set(map(type, row)) != {int}:
            raise ConsistencyError(f"multiplicity row for {lam} at h={h} is not {l + 1} integers: {row!r}")
    return _checked(h, l, table)
