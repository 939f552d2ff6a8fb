"""Integer partitions, dominance order, and exact symmetric-group character theory.

Partitions are plain tuples of weakly decreasing positive integers.  Characters
are computed by recursive border-strip removal (beta-number model) with
memoization, so every value is an exact integer.  Invariant dimensions for
Young subgroups are Kostka numbers, counted by peeling horizontal strips.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial

Partition = tuple[int, ...]

# partitions_of is exhaustive enumeration; p(12) = 77 keeps this instant while
# covering every n the rest of the package can reach.
MAX_ENUMERATION_N = 12


def check_partition(parts) -> Partition:
    """Canonicalize and validate a partition given as any iterable of parts."""
    lam = tuple(int(p) for p in parts)
    if not lam:
        raise ValueError("partition must have at least one part")
    if any(p < 1 for p in lam):
        raise ValueError(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def partition_str(lam) -> str:
    """The form of a partition in reports and caches, (10, 2) -> "10,2"; check_partition(s.split(",")) reads it."""
    return ",".join(str(p) for p in lam)


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order: (n) first, (1,...,1) last."""
    if not isinstance(n, int) or not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"n must be an integer with 1 <= n <= {MAX_ENUMERATION_N}, got {n!r}")
    return tuple(_descending(n, n))


def _descending(n: int, maxpart: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    return _conjugate(check_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    """conjugate of a partition that check_partition already returned."""
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order: lam <= mu iff all prefix sums of lam are <= those of mu.

    Both arguments must be partitions of the same n; comparing across sizes is
    a bug, not a False.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"cannot compare partitions of different sizes: {lam} vs {mu}")
    return _dominance_leq(lam, mu)


def _dominance_leq(lam: Partition, mu: Partition) -> bool:
    """dominance_leq of two partitions of one n that check_partition already returned."""
    a = b = 0
    for x, y in itertools.zip_longest(lam, mu, fillvalue=0):
        a += x
        b += y
        if a > b:
            return False
    return True


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


def dim_irrep(lam: Partition) -> int:
    """Dimension f^lam of the irreducible, as the character at the identity."""
    return _dim_irrep(check_partition(lam))


def _dim_irrep(lam: Partition) -> int:
    """dim_irrep of a partition that check_partition already returned."""
    return _mn(lam, (1,) * sum(lam))


def young_subgroup_blocks(J, n: int) -> tuple[int, ...]:
    """Block sizes of the Young subgroup generated by adjacent swaps s_j, j in J.

    J is a subset of {1, ..., n-1}; s_j links positions j and j+1, so blocks
    are the maximal runs.  Sizes are returned left to right and sum to n.
    """
    jset = set(J)
    if any(not isinstance(j, int) or not 1 <= j <= n - 1 for j in jset):
        raise ValueError(f"J must be a subset of 1..{n - 1}: {sorted(jset)}")
    sizes = []
    i = 1
    while i <= n:
        j = i
        while j < n and j in jset:
            j += 1
        sizes.append(j - i + 1)
        i = j + 1
    return tuple(sizes)


def invariant_dim(lam: Partition, J) -> int:
    """Dimension of the W_J-fixed subspace of the irreducible indexed by lam.

    By Frobenius reciprocity it is the multiplicity of lam in the permutation
    module on the cosets of W_J, which is the Kostka number K_{lam, mu}: the
    semistandard tableaux of shape lam and content mu, the sorted block sizes.
    """
    lam = check_partition(lam)
    return kostka_number(lam, young_subgroup_content(J, sum(lam)))


def young_subgroup_content(J, n: int) -> tuple[int, ...]:
    """mu(J): the block sizes of W_J sorted decreasing, the content for kostka_number."""
    return tuple(sorted(young_subgroup_blocks(J, n), reverse=True))


@cache
def kostka_number(lam: Partition, mu: tuple[int, ...]) -> int:
    """K_{lam, mu}: semistandard tableaux of shape lam with content mu.

    mu may come in any order.  The largest entry fills a horizontal strip of
    mu[-1] cells, so peel every such strip and count the rest with content
    mu[:-1].  Arguments are not validated; invariant_dim is the checked entry.
    """
    if not mu:
        return 1 if not lam else 0
    return sum(kostka_number(inner, mu[:-1]) for inner in _horizontal_strips(lam, mu[-1]))


def _horizontal_strips(lam: Partition, k: int):
    """Every partition inner with lam / inner a horizontal strip of k cells.

    Row r may lose at most lam[r] - lam[r + 1] cells, so no two removed
    cells share a column.
    """
    if not lam:
        if k == 0:
            yield ()
        return
    rest = lam[1:]
    floor = rest[0] if rest else 0
    for take in range(min(k, lam[0] - floor) + 1):
        for tail in _horizontal_strips(rest, k - take):
            row = lam[0] - take
            yield (row,) + tail if row else tail
