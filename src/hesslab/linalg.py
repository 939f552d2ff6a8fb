"""Exact rational linear algebra.

Elimination has one kernel, `_integer_echelon`, and it runs on Python
integers.  Rows are sparse {column: value} dicts (dense sequences are
accepted and read as their nonzero entries) of int or Fraction entries.  Each
incoming row is scaled to a primitive integer row: times the lcm of its
denominators (a row of ints has none), then divided by the gcd of its
entries.  It is reduced on its leading column against the pivot rows found
so far, fraction-free: with
a = r[lead], p = prow[lead] and g = gcd(a, p), r <- (p/g) r - (a/g) prow, and
the gcd of the result is divided out, which keeps the integers from growing
(Bareiss, Math. Comp. 22, 1968, divides by the previous pivot instead).  When
the leading column is new the row becomes a pivot row, kept primitive, else
nothing is left.  That is an echelon form of the row space, so its pivot
columns are exactly the pivot columns of the reduced row echelon form (RREF);
`_integer_rref` gets the RREF from it by one integer back pass.  Each row is
a rational multiple of the row a Fraction elimination would hold, so dividing
by the pivot, done only where rows or values leave the module, gives the same
rows with the same Fraction entries.  `rank_exact` and `_integer_nullspace`
run on this kernel.  The RREF is unique, so with free variables set to 0 their
answers are the ones dense Gauss-Jordan gives.  The moment graph hands
`_integer_rref` one local flow-up system per vertex and Morse index that a
class reaches, the integer divisibility rows of its edges down with one
right-hand-side column per class, so no Fraction enters those
eliminations; with free variables 0, each class's value at the vertex is
its column over the pivots.  The rank of such a system's left part is known
in advance, so the rows come as an iterator with a stop (width, rank): the
kernel stops reading at the row that makes the rank-th pivot left of column
width, and the caller checks the rows left in the iterator.  It checks
its square intersection and Lefschetz tables nonsingular by the length of
`_integer_echelon` alone.

The dense helpers serve the small pairing and Gram matrices of the Kahler
checks, and each runs on integers over one positive denominator, (rows, d)
for the matrix rows / d: `_integer_nullspace` returns its basis in that form,
`_integer_inertia` reads the signature and the leading pivots of a symmetric
matrix off one fraction-free congruence pass, and `det_exact` is Bareiss
elimination on the matrix over one denominator.  Fractions are built only
where a value leaves the module: the recorded pivots and the determinant.
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
    denominators, divided by the gcd of the products.  A row of ints alone
    needs no denominators."""
    r = {c: v for c, v in _entries(row) if v}
    if not all(type(v) is int for v in r.values()):
        d = lcm(*(v.denominator for v in r.values()))
        r = {c: v.numerator * (d // v.denominator) for c, v in r.items()}
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


def _integer_echelon(rows, stop=None) -> dict[int, dict[int, int]]:
    """Echelon form as {pivot column: primitive integer row}; each row is 0
    left of its pivot column.  The input rows are not modified.

    With stop = (width, rank), rank >= 1, reading ends at the row that makes
    the rank-th pivot left of column width; rows may be an iterator, and the
    rows it still holds are unread."""
    width, rank = stop or (0, 0)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _primitive(row)
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = r
                if lead < width:
                    rank -= 1
                    if not rank:
                        return pivots
                break
            _eliminate(r, lead, prow)
    return pivots


def _integer_rref(rows, stop=None):
    """(pivot_columns ascending, {pivot column: integer row}): every row is 0
    at the other pivot columns, so divided by its pivot it is an RREF row.
    stop is `_integer_echelon`'s: the RREF is then that of the rows read."""
    ech = _integer_echelon(rows, stop)
    pivots = sorted(ech)
    # Right to left: the pivot rows right of col are already reduced, so
    # eliminating them clears every other pivot column in one pass.
    for col in reversed(pivots):
        r = ech[col]
        for c in [c for c in r if c != col and c in ech]:
            _eliminate(r, c, ech[c])
    return pivots, ech


def rank_exact(rows) -> int:
    return len(_integer_echelon(rows))


def _integer_nullspace(rows, ncols: int) -> tuple[list[list[int]], int]:
    """Basis of the rational kernel as integer rows over one positive
    denominator (basis, d): one vector per free column, 1 there and 0 at the
    other free columns, read off `_integer_rref`; d is the lcm of the
    pivots."""
    pivots, red = _integer_rref(rows)
    d = lcm(*(red[pcol][pcol] for pcol in pivots))
    basis = []
    for fc in range(ncols):
        if fc in red:
            continue
        v = [0] * ncols
        v[fc] = d
        for pcol in pivots:
            prow = red[pcol]
            v[pcol] = -prow.get(fc, 0) * (d // prow[pcol])
        basis.append(v)
    return basis, d


def _over_one_denominator(matrix) -> tuple[list[list[int]], int]:
    """A matrix of int or Fraction entries as integer rows over one positive
    denominator (rows, d), d the lcm of the entries' denominators."""
    d = lcm(*(x.denominator for row in matrix for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in matrix], d


def _integer_inertia(A, d: int):
    """(signature, pivots) of the symmetric matrix A / d, for integer rows A
    and an integer d > 0.

    The signature (positive, negative, zero) comes from Lagrange congruence
    diagonalization; when every active diagonal entry is zero but some
    off-diagonal is not, a row+column add restores a usable pivot without
    leaving exact arithmetic.  The pivots are the diagonal entries met in
    index order, up to and including the first one that is not positive:
    while they stay positive they are the LDL^T pivots, and the matrix is
    positive definite exactly when all n of them are.

    The active block is kept as integer rows B with B / s the exact block, for
    a positive rational scale s = num / den.  Eliminating on a pivot a of B
    replaces B by |a| times its Schur complement, |a| B_ij - sgn(a) B_id B_dj,
    a congruence times a positive number, so no sign changes; then the
    content of B is divided out.  s follows both steps, so each recorded pivot
    is the exact Fraction B_00 / s.
    """
    B = [list(row) for row in A]
    num, den = d, 1
    pos = neg = zero = 0
    pivots: list[Fraction] = []
    recording = True
    while B:
        if recording:
            pivots.append(Fraction(B[0][0] * den, num))
            recording = B[0][0] > 0
        p = next((i for i in range(len(B)) if B[i][i]), None)
        if p is None:
            pair = next(
                ((i, j) for i in range(len(B)) for j in range(i + 1, len(B)) if B[i][j]), None
            )
            if pair is None:
                zero += len(B)
                break
            i, j = pair
            B[i] = [x + y for x, y in zip(B[i], B[j])]
            for row in B:
                row[i] += row[j]
            continue
        a = B[p][p]
        if a > 0:
            pos += 1
        else:
            neg += 1
        m = abs(a)
        signed = [y if a > 0 else -y for y in B.pop(p)]  # sgn(a) times row p
        del signed[p]
        col = [row.pop(p) for row in B]
        B = [[m * x - c * y for x, y in zip(row, signed)] for row, c in zip(B, col)]
        num *= m
        g = gcd(*(x for row in B for x in row))
        if g > 1:
            B = [[x // g for x in row] for row in B]
            den *= g
        r = gcd(num, den)
        num, den = num // r, den // r
    return (pos, neg, zero), pivots


def det_exact(matrix) -> Fraction:
    """Determinant of a square rational matrix.  Over one denominator d it is
    det(A) / d^n, and det(A) comes from fraction-free Bareiss elimination
    with row swaps: every division by the previous pivot is exact, and the
    last pivot is det(A) up to the swaps' sign."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    A, d = _over_one_denominator(matrix)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        p = A[c][c]
        for r in range(c + 1, n):
            a = A[r][c]
            A[r] = [(p * x - a * y) // prev for x, y in zip(A[r], A[c])]
        prev = p
    return Fraction(sign * prev, d**n)
