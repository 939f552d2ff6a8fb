"""Symmetric functions of fixed degree with polynomial-in-q coefficients.

Two bases are supported: monomial (the native basis for chromatic expansions)
and powersum (the native basis for the deletion oracle).  The Hall pairing
enters through two routes that never touch floating point:

* h-duality: the coefficient of m_mu IS the pairing against h_mu;
* Schur pairing via the Jacobi-Trudi determinant, expanded over permutations,
  each term a signed monomial coefficient lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

from .partitions import Partition, check_partition, partitions_of

MONOMIAL = "monomial"
POWERSUM = "powersum"


class QPoly:
    """Polynomial in q with integer coefficients, stored sparsely by exponent."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c = {k: v for k, v in (coeffs or {}).items() if v}
        if any(k < 0 for k in self.c):
            raise ValueError(f"negative q-exponent in {self.c}")

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, k: int, coeff: int = 1) -> "QPoly":
        return cls({k: coeff})

    def __add__(self, other: "QPoly") -> "QPoly":
        c = dict(self.c)
        for k, v in other.c.items():
            c[k] = c.get(k, 0) + v
        return QPoly(c)

    def __sub__(self, other: "QPoly") -> "QPoly":
        c = dict(self.c)
        for k, v in other.c.items():
            c[k] = c.get(k, 0) - v
        return QPoly(c)

    def __neg__(self) -> "QPoly":
        return QPoly({k: -v for k, v in self.c.items()})

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, int):
            return QPoly({k: v * other for k, v in self.c.items()})
        c: dict[int, int] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                c[k] = c.get(k, 0) + v1 * v2
        return QPoly(c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return isinstance(other, QPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __getitem__(self, k: int) -> int:
        return self.c.get(k, 0)

    def __bool__(self) -> bool:
        return bool(self.c)

    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    def at_one(self) -> int:
        """Evaluate at q = 1."""
        return sum(self.c.values())

    def coefficient_list(self, upto: int | None = None) -> list[int]:
        """Ascending coefficients [c_0, ..., c_upto]; length inferred if omitted."""
        top = self.degree if upto is None else upto
        return [self.c.get(k, 0) for k in range(max(top, -1) + 1)]

    def is_palindromic(self) -> bool:
        lst = self.coefficient_list()
        return lst == lst[::-1]

    def __repr__(self):
        if not self.c:
            return "QPoly(0)"
        terms = " + ".join(f"{v}*q^{k}" for k, v in sorted(self.c.items()))
        return f"QPoly({terms})"


def q_int(k: int) -> QPoly:
    """[k]_q = 1 + q + ... + q^(k-1); [0]_q = 0."""
    return QPoly({i: 1 for i in range(k)})


def q_factorial(n: int) -> QPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    out = QPoly.one()
    for k in range(2, n + 1):
        out = out * q_int(k)
    return out


@dataclass
class QSymPoly:
    """Homogeneous degree-n symmetric function with QPoly coefficients in one basis."""

    basis: str
    degree: int
    coeffs: dict[Partition, QPoly] = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in (MONOMIAL, POWERSUM):
            raise ValueError(f"unknown basis {self.basis!r}")
        clean = {}
        for lam, poly in self.coeffs.items():
            lam = check_partition(lam)
            if sum(lam) != self.degree:
                raise ValueError(f"coefficient key {lam} has wrong degree for n={self.degree}")
            if not poly.is_zero():
                clean[lam] = poly
        self.coeffs = clean

    def coefficient(self, lam: Partition) -> QPoly:
        return self.coeffs.get(check_partition(lam), QPoly.zero())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSymPoly)
            and self.basis == other.basis
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )


def h_dual_coefficient(F: QSymPoly, mu: Partition) -> QPoly:
    """Pairing of F against the complete homogeneous h_mu.

    By duality this is exactly the monomial coefficient at mu, so F must be
    presented in the monomial basis.
    """
    if F.basis != MONOMIAL:
        raise ValueError(f"h_dual_coefficient needs the monomial basis, got {F.basis!r}")
    return F.coefficient(mu)


def schur_inner_product(F: QSymPoly, mu: Partition) -> QPoly:
    """Pairing of F against the Schur function s_mu, via Jacobi-Trudi.

    s_mu = det(h_{mu_i - i + j}) expands the pairing as a signed sum over
    permutations sigma of monomial coefficients at the sorted composition
    (mu_i - i + sigma(i)); terms with a negative entry vanish, entries equal
    to zero are dropped (h_0 = 1).
    """
    if F.basis != MONOMIAL:
        raise ValueError(f"schur_inner_product needs the monomial basis, got {F.basis!r}")
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


def powersum_csf_q1(edges, n: int) -> QSymPoly:
    """Chromatic symmetric function at q=1 in the powersum basis.

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
    return QSymPoly(POWERSUM, n, {lam: QPoly({0: v}) for lam, v in coeffs.items() if v})


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


def powersum_to_monomial(F: QSymPoly) -> QSymPoly:
    """Convert a powersum-basis element to the monomial basis.

    Faithful for degree n because n variables suffice; the per-p_nu expansions
    are raw polynomial expansions, independent of character theory.
    """
    if F.basis != POWERSUM:
        raise ValueError(f"powersum_to_monomial needs the powersum basis, got {F.basis!r}")
    n = F.degree
    coeffs: dict[Partition, QPoly] = {}
    for nu, cpoly in F.coeffs.items():
        for lam, mult in _powersum_monomial_expansion(nu, n):
            cur = coeffs.get(lam, QPoly.zero())
            coeffs[lam] = cur + cpoly * mult
    return QSymPoly(MONOMIAL, n, coeffs)
