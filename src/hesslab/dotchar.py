"""Graded multiplicity tables for the Weyl-group action on semisimple Hessenberg spaces.

The pipeline is: enumerate proper colorings of the incomparability graph,
weight each by q^(number of ascending edges), collect into a q-refined
chromatic symmetric function, then pair against Schur functions with a
conjugate twist.  Row k of the resulting table gives the multiplicity of each
irreducible in (complex) degree 2k, and every Betti reading (the full space,
or the invariant subspace for a regular element with Young-subgroup stabilizer
W_J) is GradedMultiplicity.betti(J): each row weighted by the dimension of the
W_J-fixed part of its irreducible.

Grading convention: an edge {i, j} with i < j ascends under a coloring kappa
iff kappa(i) < kappa(j), and q^k reports degree 2k directly (not reversed).
Both choices are pinned by the complete-graph fixture, whose trivial-isotype
row must be the q-factorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ConsistencyError, CostGuardError
from .hessenberg import check_hessenberg, dimension, incomparability_graph
from .partitions import Partition, conjugate, invariant_dim, partitions_of
from .symfunc import MONOMIAL, QPoly, QSymPoly, schur_inner_product

COLORING_GUARD_N = 8


def chromatic_qsym(h, force: bool = False) -> QSymPoly:
    """q-refined chromatic symmetric function of the incomparability graph.

    Colors are 1..n.  The coefficient of m_lam is the generating polynomial
    sum q^asc over proper colorings whose color-usage vector is exactly lam
    (colors 1..len(lam) used lam_1, lam_2, ... times).  As a built-in check of
    the ascent statistic, all usage vectors with the same sorted profile must
    produce identical polynomials; anything else raises.
    """
    h = check_hessenberg(h)
    if len(h) > COLORING_GUARD_N and not force:
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
        which depends only on the block sizes of W_J and is taken once per row.
        """
        out = [0] * (self.l + 1)
        for lam, row in self.table.items():
            weight = invariant_dim(lam, J)
            for k, m in enumerate(row):
                out[k] += m * weight
        return out


def dot_action_multiplicities(h, force: bool = False) -> GradedMultiplicity:
    """Decode the coloring expansion into graded irreducible multiplicities.

    mult[lam][k] is the q^k coefficient of the Schur pairing against the
    conjugate partition (the standard involution twist).  Every entry must
    come out a nonnegative integer supported in degrees 0..dimension(h);
    anything else means a convention slipped and raises instead of returning.
    """
    chromatic_qsym(h, force)
    return _mult_cached(check_hessenberg(h))


@cache
def _mult_cached(h: tuple[int, ...]) -> GradedMultiplicity:
    X = _chromatic_cached(h)
    n, l = len(h), dimension(h)
    table: dict[Partition, list[int]] = {}
    for lam in partitions_of(n):
        pairing = schur_inner_product(X, conjugate(lam))
        if pairing.degree > l:
            raise ConsistencyError(
                f"multiplicity row for {lam} exceeds degree {l} at h={h}: {pairing!r}"
            )
        row = pairing.coefficient_list(l)
        if any(v < 0 for v in row):
            raise ConsistencyError(f"negative multiplicity for {lam} at h={h}: {row}")
        table[lam] = row
    return GradedMultiplicity(n=n, h=h, l=l, table=table)


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


def compact_partition_key(lam: Partition) -> str:
    """Digit-concatenated form used for multiplicity-table JSON keys, e.g. (2,1) -> "21"."""
    return "".join(str(p) for p in lam)


def multiplicities_json(gm: GradedMultiplicity) -> dict:
    """JSON-ready dict: {"n", "h", "l", "mult", "betti"} with exact integers."""
    return {
        "n": gm.n,
        "h": ",".join(str(v) for v in gm.h),
        "l": gm.l,
        "mult": {compact_partition_key(lam): list(row) for lam, row in gm.table.items()},
        "betti": gm.betti(),
    }


def multiplicities_from_json(doc: dict) -> GradedMultiplicity:
    """Inverse of multiplicities_json; the derived "betti" entry is not read.

    Keys are read one digit per part, so tables are unambiguous for n <= 9.
    """
    return GradedMultiplicity(
        n=doc["n"],
        h=tuple(int(v) for v in doc["h"].split(",")),
        l=doc["l"],
        table={tuple(int(ch) for ch in key): list(row) for key, row in doc["mult"].items()},
    )
