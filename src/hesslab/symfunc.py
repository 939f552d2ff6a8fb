"""Symmetric functions of fixed degree in the monomial basis, with polynomial-in-q coefficients.

QSymPoly is the container of the coloring oracle: dotchar.chromatic_qsym
returns the q-refined chromatic quasisymmetric function as its monomial
coefficients, each a QPoly.  The coefficient of m_mu is also the pairing
against the complete homogeneous h_mu.  The Schur pairing (Jacobi-Trudi) and
the power-sum expansion that decode and cross-check it are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import Partition, check_partition


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


@dataclass
class QSymPoly:
    """Homogeneous degree-n symmetric function: QPoly coefficients of the monomial basis."""

    degree: int
    coeffs: dict[Partition, QPoly] = field(default_factory=dict)

    def __post_init__(self):
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
