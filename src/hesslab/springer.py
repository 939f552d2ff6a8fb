"""Support criterion: which irreducibles can appear, by nilpotent-orbit geometry.

The annihilator pattern of h spans a space of strictly upper triangular
matrices; its generic element has a well-defined Jordan type lambda_H, and the
criterion says an irreducible indexed by lam may appear iff
conjugate(lam) <= lambda_H in dominance order.  The conjugate is part of the
indexing normalization (irreducibles attached to nilpotent orbits through the
Fourier/Springer convention); dropping it must already fail at n = 3, and
the drop_conjugate control exposes exactly that.  This module is the only
owner of that convention: support_check is the one place the criterion is
tested, and the analyze and verify reports both read it.  The nilpotent
orbit of type lam meets the annihilator space exactly when lam <= lambda_H,
so that test is dominance_leq(lam, generic_jordan_type(h)).

lambda_H is exact, by Greene-Kleitman chain covers.  The pattern
{(i, j) : j > h(i)} is the strict order of a poset P_h, and by Gansner's
theorem lambda_1 + ... + lambda_k of the generic nilpotent element of its
incidence algebra is the largest number of elements covered by k chains of
P_h.  P_h is a unit interval order (i is the interval [i, h(i) + 1/2]), so an
interval-scheduling greedy that puts each element on the free track with the
smallest tail finds each k-chain cover.
"""

from __future__ import annotations

from functools import cache

from .dotchar import GradedMultiplicity, dot_action_multiplicities
from .hessenberg import check_hessenberg
from .partitions import Partition, _conjugate, _dominance_leq, check_partition, partitions_of


def generic_jordan_type(h, *, seed: int | None = None) -> Partition:
    """Jordan type of a generic matrix supported on the annihilator pattern of h.

    Exact and deterministic: lambda_1 + ... + lambda_k is the most elements of
    P_h that k chains cover.  Elements are taken in order of right endpoint
    h(v) + 1/2, which is 1..n since h is nondecreasing; each goes on a free
    track (last element u with h(u) < v) and is skipped when none is free.
    A track free for v stays free for every later element, so which free
    track v takes does not change the count.  seed is accepted for callers
    that pass one and has no effect.
    """
    h = check_hessenberg(h)
    n = len(h)
    covered = [0]
    while covered[-1] < n:
        tails = [0] * len(covered)  # h of each track's last element; 0 = empty
        count = 0
        for v, hv in enumerate(h, start=1):
            t = tails.index(min(tails))
            if tails[t] < v:
                tails[t] = hv
                count += 1
        covered.append(count)
    return tuple(b - a for a, b in zip(covered, covered[1:]))


def support_check(gm: GradedMultiplicity, lam_h: Partition, *, drop_conjugate: bool = False):
    """Walk the table of gm once against lambda_H = lam_h: (allowed, violations).

    allowed lists, in reverse-lexicographic order, every irreducible lam with
    conjugate(lam) <= lambda_H, whether it appears or not; violations holds a
    witness dict for each irreducible that appears with nonzero total
    multiplicity but is not allowed.  This is the one place the criterion is
    tested.  drop_conjugate=True tests lam <= lambda_H instead, the control
    that must already fail at n = 3, h = (2, 3, 3).  lam_h is validated here;
    the table of gm has a row for every partition of gm.n, so the walk reads
    them in partitions_of order, which is reverse-lexicographic, and checks
    nothing again.
    """
    lam_h = check_partition(lam_h)
    if sum(lam_h) != gm.n:
        raise ValueError(f"lambda_H must be a partition of {gm.n}, got {lam_h}")
    allowed, violations = [], []
    for lam, conj in _with_conjugates(gm.n):
        row = gm.table[lam]
        probe = lam if drop_conjugate else conj
        if _dominance_leq(probe, lam_h):
            allowed.append(lam)
        elif any(row):
            violations.append(
                {
                    "h": gm.h,
                    "lam": lam,
                    "tested": probe,
                    "lambda_H": lam_h,
                    "total_multiplicity": sum(row),
                }
            )
    return allowed, violations


@cache
def _with_conjugates(n: int) -> tuple[tuple[Partition, Partition], ...]:
    """(lam, conjugate(lam)) for every partition lam of n, in partitions_of order."""
    return tuple((lam, _conjugate(lam)) for lam in partitions_of(n))


def support_violations(h, *, drop_conjugate: bool = False, seed: int | None = None) -> list[dict]:
    """Irreducibles that appear in the graded character but fail the criterion.

    h is a Hessenberg function or its GradedMultiplicity table.  The correct
    convention should return no violations; see support_check for the
    witnesses and drop_conjugate.  seed has no effect, as in
    generic_jordan_type.
    """
    gm = h if isinstance(h, GradedMultiplicity) else dot_action_multiplicities(h)
    return support_check(gm, generic_jordan_type(gm.h), drop_conjugate=drop_conjugate)[1]
