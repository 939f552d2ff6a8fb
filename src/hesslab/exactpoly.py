"""Sparse multivariate polynomials over the rationals.

Coordinates for the moment-graph engine: polynomials live in m = n-1 variables
t_1..t_{n-1}, with t_n represented as -(t_1 + ... + t_{n-1}).  Everything is a
dict from exponent tuple to Fraction; no floats anywhere.  Division by a
linear form has one routine, `divmod_linear`, giving both the quotient and the
remainder.  Edge conditions test remainders: the moment graph's remainder
table holds, per edge form and degree, the remainder of every monomial, scaled
to integers, and its integer edge rows and edge checks combine those;
`gkm.EquivClass.check_edges` divides a whole polynomial difference.  The
polynomial oracles in the test suite (flow-up decomposition, localization
integrals) take the quotient of an exact division.  `Poly.substitute` is the
ring map the public Weyl dot action `gkm.dot_action` permutes variables by;
the Kahler checks evaluate at permuted points instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache


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
