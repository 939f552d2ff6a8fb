"""Graded multiplicity tables for the Weyl-group action on semisimple Hessenberg spaces.

By Brosnan-Chow the dot-action character is omega X_G(q) for the
incomparability graph G of h, and Shareshian-Wachs (Thm 6.3) expand X_G(q) in
Schur functions over P-tableaux.  So the table is read off directly: row k of
table[lam] counts the P_h-tableaux of shape conjugate(lam) with inv = k,
which is the multiplicity of the irreducible lam in (complex) degree 2k.  One
depth-first walk fills every shape of one h at once, sharing the rows that
shapes have in common; it completes at most n! tableaux, against about n^n
colorings.

Two identities leave most h unwalked.  Ascents stay inside the blocks of a
decomposable h, so X_G(q) is the product of its blocks' functions: their
tables go to the complete homogeneous basis (a unitriangular Kostka solve),
multiply there, and come back by the Kostka numbers.  Reversing the labels,
i -> n+1-i, turns ascents into descents, and X_G(q) is palindromic
(Shareshian-Wachs), so an indecomposable h has the table of its reversal.
The walk therefore runs once per reversal pair of indecomposable functions.
Every Betti reading (the full space, or the invariant subspace
for a regular element with Young-subgroup stabilizer W_J) is
GradedMultiplicity.betti(J): each row weighted by the dimension of the
W_J-fixed part of its irreducible, the Kostka number K_{lam, mu(J)}.  The sum
depends on J only through the content mu(J), so betti_rows makes the rows of
every content at once, in one packed Kostka product per table, and betti(J)
reads its content's row.

The coloring route stays as the oracle: chromatic_qsym enumerates proper
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
from .hessenberg import check_hessenberg, dimension
from .partitions import (
    Partition,
    _conjugate,
    _dim_irrep,
    check_partition,
    kostka_number,
    partition_str,
    partitions_of,
    young_subgroup_content,
)
from .symfunc import QPoly, QSymPoly

CHARACTER_GUARD_N = 8  # the n above which the tableau route and the coloring oracle need force=True


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
    for mu, column in _kostka_columns(n):
        word = 0
        for lam, weight in column:
            word += weight * packed[lam]
        rows[mu] = tuple([word >> s & mask for s in shifts])
    return rows


@cache
def _kostka_columns(n: int) -> tuple[tuple[Partition, tuple[tuple[Partition, int], ...]], ...]:
    """((mu, ((lam, K_{lam, mu}), ...)), ...) over the partitions mu of n,
    in partitions_of order, with the nonzero Kostka numbers only."""
    lams = partitions_of(n)
    return tuple((mu, tuple((lam, w) for lam in lams if (w := kostka_number(lam, mu)))) for mu in lams)


@cache
def _content(J: tuple, n: int) -> tuple[int, ...]:
    """young_subgroup_content, memoized; a J it rejects raises on every call, as nothing is stored."""
    return young_subgroup_content(J, n)


def dot_action_multiplicities(h, force: bool = False) -> GradedMultiplicity:
    """Graded irreducible multiplicities, read off P_h-tableaux.

    mult[lam][k] is the number of P_h-tableaux of shape conjugate(lam) with
    inv = k; see _tableau_table.  Only an indecomposable h with h <=
    _reversed(h) is walked: a decomposable h multiplies its blocks' tables
    in the complete homogeneous basis (_h_coeffs), and any other h copies
    the table of _reversed(h).  Every table, walked, assembled or copied,
    must come out nonnegative integers supported in degrees
    0..dimension(h), with rows weighted by irreducible dimensions summing
    to n! (_checked, which also checks every table read from a cache);
    anything else raises instead of returning.
    """
    h = check_hessenberg(h)
    if len(h) > CHARACTER_GUARD_N and not force:
        raise CostGuardError(
            f"n = {len(h)} walks up to {len(h)}! tableaux; pass force=True to proceed"
        )
    return _mult_cached(h)


@cache
def _mult_cached(h: tuple[int, ...]) -> GradedMultiplicity:
    n, l = len(h), dimension(h)
    blocks = _blocks(h)
    if len(blocks) > 1:
        coeffs: dict[Partition, list[int]] = {(): [1]}
        for block in blocks:
            coeffs = _h_product(coeffs, _h_coeffs(block), l)
        rows = _from_h_coeffs(n, coeffs)
    elif (mirror := _reversed(h)) < h:
        rows = _mult_cached(mirror).table
    elif n == 1:  # one tableau; the walk needs n >= 2
        rows = {(1,): [1]}
    else:
        rows = {_conjugate(shape): counts for shape, counts in _tableau_table(h).items()}
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
    K_{lam,mu} c_mu is unitriangular and is solved from (1^n) upward; the
    reverse of partitions_of's order puts every mu dominated by lam first.
    """
    table = _mult_cached(h).table
    coeffs: dict[Partition, list[int]] = {}
    for lam in reversed(partitions_of(len(h))):
        row = list(table[lam])
        for mu, c in coeffs.items():
            weight = kostka_number(lam, mu)
            if weight:
                row = [r - weight * x for r, x in zip(row, c)]
        if any(row):
            coeffs[lam] = row
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
    rows: dict[Partition, list[int]] = {}
    for lam in partitions_of(n):
        row = [0] * width
        for mu, c in coeffs.items():
            weight = kostka_number(lam, mu)
            if weight:
                row = [r + weight * x for r, x in zip(row, c)]
        rows[lam] = row
    return rows


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
    degree dimension(h).
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
