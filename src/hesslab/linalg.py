"""Exact rational linear algebra.

Elimination has one kernel, `_integer_echelon`, and it runs on Python
integers.  Rows are sparse {column: value} dicts (dense sequences are
accepted and read as their nonzero entries) of int or Fraction entries.  Each
incoming row is scaled to a primitive integer row: times the lcm of its
denominators, then divided by the gcd of its entries.  It is reduced on its
leading column against the pivot rows found so far, fraction-free: with
a = r[lead], p = prow[lead] and g = gcd(a, p), r <- (p/g) r - (a/g) prow, and
the gcd of the result is divided out, which keeps the integers from growing
(Bareiss, Math. Comp. 22, 1968, divides by the previous pivot instead).  When
the leading column is new the row becomes a pivot row, kept primitive, else
nothing is left.  That is an echelon form of the row space, so its pivot
columns are exactly the pivot columns of the reduced row echelon form (RREF);
`row_reduce` gets the RREF from it by one integer back pass.  Each row is a
rational multiple of the row a Fraction elimination would hold, so dividing
by the pivot, done only where rows or values leave the module, gives the same
rows with the same Fraction entries.  `rank_exact` and `nullspace` run on
this kernel.  The RREF is unique, so with free variables set to 0 their
answers are the ones dense Gauss-Jordan gives.  The moment graph hands
`_integer_rref` one flow-up system per degree, integer edge rows, and reads
every flow-up class of that Morse index off its integer rows and pivots as an
integer table, with free variables 0: one denominator, the lcm of the pivots
used, and integer coefficients.  Each row touches two vertices, so the dict
rows stay short where a dense copy would be mostly zeros.  It also solves for
flow-up coordinates with `_integer_rref` and keeps the answer as integer rows
over one denominator.  The dense helpers below serve the small symmetric
pairing and Gram matrices of the Kahler checks: `inertia` reads the signature
and the leading pivots off one congruence pass, and `det_exact` gives pairing
determinants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _entries(row):
    """(column, value) pairs of a dict or dense row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _primitive(row) -> dict[int, int]:
    """A dict or dense row of int or Fraction entries as a fresh primitive
    integer {column: value} dict: its nonzero entries times the lcm of their
    denominators, divided by the gcd of the products."""
    nonzero = [(c, v) for c, v in _entries(row) if v]
    d = lcm(*(v.denominator for _, v in nonzero))
    r = {c: v.numerator * (d // v.denominator) for c, v in nonzero}
    _divide_content(r)
    return r


def _divide_content(r: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*r.values())
    if g > 1:
        for c in r:
            r[c] //= g


def _eliminate(r: dict[int, int], col: int, prow: dict[int, int]) -> None:
    """Clear column col of r against prow, whose entry there is its pivot:
    r <- (p/g) r - (a/g) prow with a = r[col], p = prow[col] and g = gcd(a, p)
    signed like p, in place, dropping entries that cancel and dividing out
    the content."""
    a, p = r[col], prow[col]
    # With g signed like p, p/g > 0, so a pivot of -1 needs no scaling either;
    # r may change sign, which dividing by the pivot undoes.
    g = gcd(a, p) if p > 0 else -gcd(a, p)
    a //= g
    p //= g
    if p != 1:
        for c in r:
            r[c] *= p
    get = r.get
    for c, v in prow.items():
        x = get(c, 0) - a * v
        if x:
            r[c] = x
        else:
            del r[c]
    _divide_content(r)


def _integer_echelon(rows) -> dict[int, dict[int, int]]:
    """Echelon form as {pivot column: primitive integer row}; each row is 0
    left of its pivot column.  The input rows are not modified."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _primitive(row)
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = r
                break
            _eliminate(r, lead, prow)
    return pivots


def _monic(r: dict[int, int], col: int) -> dict[int, Fraction]:
    """r divided by its entry at col."""
    p = r[col]
    return {c: Fraction(v, p) for c, v in r.items()}


def echelon(rows) -> dict[int, dict[int, Fraction]]:
    """Echelon form as {pivot column: row}; each row is 1 at its pivot column
    and 0 left of it.  The input rows are not modified."""
    return {col: _monic(r, col) for col, r in _integer_echelon(rows).items()}


def _integer_rref(rows):
    """(pivot_columns ascending, {pivot column: integer row}): every row is 0
    at the other pivot columns, so divided by its pivot it is an RREF row."""
    ech = _integer_echelon(rows)
    pivots = sorted(ech)
    # Right to left: the pivot rows right of col are already reduced, so
    # eliminating them clears every other pivot column in one pass.
    for col in reversed(pivots):
        r = ech[col]
        for c in [c for c in r if c != col and c in ech]:
            _eliminate(r, c, ech[c])
    return pivots, ech


def row_reduce(rows):
    """RREF.  Returns (pivot_columns, reduced_nonzero_rows): columns ascending,
    rows as sparse dicts in the same order.  The input rows are not modified."""
    pivots, red = _integer_rref(rows)
    return pivots, [_monic(red[c], c) for c in pivots]


def rank_exact(rows) -> int:
    return len(_integer_echelon(rows))


def nullspace(rows, ncols: int):
    """Basis of the rational kernel, one vector per free column."""
    pivots, red = _integer_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in red:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pcol in pivots:
            prow = red[pcol]
            v[pcol] = Fraction(-prow.get(fc, 0), prow[pcol])
        basis.append(v)
    return basis


def inertia(G):
    """(signature, pivots) of a symmetric rational matrix.

    The signature (positive, negative, zero) comes from Lagrange congruence
    diagonalization; when every active diagonal entry is zero but some
    off-diagonal is not, a row+column add restores a usable pivot without
    leaving exact arithmetic.  The pivots are the diagonal entries met in
    index order, up to and including the first one that is not positive:
    while they stay positive they are the LDL^T pivots, and the matrix is
    positive definite exactly when all n of them are.
    """
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


def det_exact(matrix) -> Fraction:
    """Determinant by exact fraction elimination with partial pivoting."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    A = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, n):
            if A[r][c]:
                f = A[r][c] * inv
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return det
