"""Graded multiplicity tables for the Weyl-group action on semisimple Hessenberg spaces.

By Brosnan-Chow the dot-action character is omega X_G(q) for the
incomparability graph G of h, and Shareshian-Wachs (Thm 6.3) expand X_G(q) in
Schur functions over P-tableaux.  So the table is read off directly: row k of
table[lam] counts the P_h-tableaux of shape conjugate(lam) with inv = k,
which is the multiplicity of the irreducible lam in (complex) degree 2k.  At
most n! tableaux are visited per h, against about n^n colorings.  Every Betti
reading (the full space, or the invariant subspace for a regular element with
Young-subgroup stabilizer W_J) is GradedMultiplicity.betti(J): each row
weighted by the dimension of the W_J-fixed part of its irreducible.

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
from functools import cache
from math import factorial

from .errors import ConsistencyError, CostGuardError
from .hessenberg import check_hessenberg, dimension
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    dim_irrep,
    kostka_number,
    partition_str,
    partitions_of,
    young_subgroup_content,
)
from .symfunc import MONOMIAL, QPoly, QSymPoly

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
    return QSymPoly(MONOMIAL, n, coeffs)


@dataclass
class GradedMultiplicity:
    """Multiplicity table: table[lam][k] = multiplicity of irreducible lam in degree 2k."""

    n: int
    h: tuple[int, ...]
    l: int
    table: dict[Partition, list[int]]

    def betti(self, J=()) -> list[int]:
        """Betti numbers b_{2k} of the W_J-invariant part; J = () is the full space.

        Each irreducible contributes the dimension of its W_J-fixed subspace,
        the Kostka number K_{lam, mu(J)} for the sorted block sizes mu(J) of
        W_J (invariant_dim), taken once per row.
        """
        mu = young_subgroup_content(J, self.n)
        out = [0] * (self.l + 1)
        for lam, row in self.table.items():
            weight = kostka_number(lam, mu)
            if weight:
                out = [b + m * weight for b, m in zip(out, row)]
        return out


def dot_action_multiplicities(h, force: bool = False) -> GradedMultiplicity:
    """Graded irreducible multiplicities, read off P_h-tableaux.

    mult[lam][k] is the number of P_h-tableaux of shape conjugate(lam) with
    inv = k; see _tableau_rows.  Every entry must come out a nonnegative
    integer supported in degrees 0..dimension(h), and the rows weighted by
    irreducible dimensions must sum to n!; anything else raises instead of
    returning.
    """
    h = check_hessenberg(h)
    if len(h) > CHARACTER_GUARD_N and not force:
        raise CostGuardError(
            f"n = {len(h)} visits up to {len(h)}! tableaux per shape; pass force=True to proceed"
        )
    return _mult_cached(h)


@cache
def _mult_cached(h: tuple[int, ...]) -> GradedMultiplicity:
    n, l = len(h), dimension(h)
    table: dict[Partition, list[int]] = {}
    for lam in partitions_of(n):
        counts = _tableau_rows(h, conjugate(lam))
        if any(counts[l + 1:]):
            raise ConsistencyError(f"multiplicity row for {lam} exceeds degree {l} at h={h}: {counts}")
        row = counts[: l + 1]
        if any(v < 0 for v in row):
            raise ConsistencyError(f"negative multiplicity for {lam} at h={h}: {row}")
        table[lam] = row
    total = sum(dim_irrep(lam) * sum(row) for lam, row in table.items())
    if total != factorial(n):
        raise ConsistencyError(f"multiplicities weighted by dimension sum to {total}, not {n}! at h={h}")
    return GradedMultiplicity(n=n, h=h, l=l, table=table)


def _tableau_rows(h: tuple[int, ...], shape: Partition) -> list[int]:
    """counts[k] = number of P_h-tableaux of the given shape (row lengths) with inv = k.

    P_h is the poset on 1..n with i <_P j iff j > h(i); i and j are
    incomparable exactly when they are joined in the incomparability graph.
    A P-tableau holds each element once, every row is a strict <_P chain,
    and no entry is >_P the entry directly below it.  inv counts the
    incomparable pairs i < j where i sits in a strictly lower row than j.

    Cells are filled in row-major order over bitmasks (bit x is element
    x + 1), so when an element is placed, the elements of the rows above it
    are exactly those used before its row began.  counts has one entry per
    possible pair, so a wrong inv shows up past degree dimension(h).
    """
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
    """Inverse of multiplicities_json; the derived "betti" entry is not read."""
    return GradedMultiplicity(
        n=doc["n"],
        h=tuple(int(v) for v in doc["h"].split(",")),
        l=doc["l"],
        table={check_partition(key.split(",")): list(row) for key, row in doc["mult"].items()},
    )
