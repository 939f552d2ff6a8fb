"""Exact rational linear algebra.

Everything runs over Fraction.  Elimination has one kernel, `echelon`: rows
are sparse {column: value} dicts (dense sequences are accepted and read as
their nonzero entries), and each incoming row is reduced on its
leading column against the pivot rows found so far, until its leading column
is new (it becomes a pivot row, scaled to lead with 1) or nothing is left.
That is an echelon form of the row space, so its pivot columns are exactly
the pivot columns of the reduced row echelon form (RREF); `row_reduce` gets
the RREF from it by one back pass.  `rank_exact`, `nullspace` and
`solve_particular` all run on this kernel.  The RREF is unique, so with free
variables set to 0 their answers are the ones dense Gauss-Jordan gives.  The
moment-graph flow-up systems it serves touch two vertices per row, so the
dict rows stay short where a dense copy would be mostly zeros.  The dense
helpers below serve the small symmetric pairing and Gram matrices of the
Kahler checks: `inertia` reads the signature and the leading pivots off one
congruence pass, and `det_exact` gives pairing determinants.
"""

from __future__ import annotations

from fractions import Fraction


def _sparse(row) -> dict:
    """The nonzero entries of a dict or dense row, as a fresh {column: value} dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: v for c, v in items if v}


def _subtract(r: dict, f, prow: dict) -> None:
    """r -= f * prow in place, dropping entries that cancel."""
    for c, v in prow.items():
        x = r.get(c, 0) - f * v
        if x:
            r[c] = x
        else:
            del r[c]


def echelon(rows) -> dict[int, dict[int, Fraction]]:
    """Echelon form as {pivot column: row}; each row is 1 at its pivot column
    and 0 left of it.  The input rows are not modified."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        r = _sparse(row)
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = 1 / Fraction(r[lead])
                pivots[lead] = {c: v * inv for c, v in r.items()}
                break
            _subtract(r, r[lead], prow)
    return pivots


def row_reduce(rows):
    """RREF.  Returns (pivot_columns, reduced_nonzero_rows): columns ascending,
    rows as sparse dicts in the same order.  The input rows are not modified."""
    ech = echelon(rows)
    pivots = sorted(ech)
    # Right to left: the pivot rows right of col are already reduced, so
    # subtracting them clears every other pivot column in one pass.
    for col in reversed(pivots):
        r = ech[col]
        for c in [c for c in r if c != col and c in ech]:
            _subtract(r, r[c], ech[c])
    return pivots, [ech[c] for c in pivots]


def rank_exact(rows) -> int:
    return len(echelon(rows))


def nullspace(rows, ncols: int):
    """Basis of the rational kernel, one vector per free column."""
    pivots, red = row_reduce(rows)
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pcol in zip(red, pivots):
            v[pcol] = -prow.get(fc, Fraction(0))
        basis.append(v)
    return basis


def solve_particular(rows, rhs, ncols: int):
    """Any solution of rows * x = rhs with free variables set to 0, or None."""
    if not rows:
        return [Fraction(0)] * ncols
    aug = []
    for row, b in zip(rows, rhs):
        r = _sparse(row)
        if b:
            r[ncols] = b
        aug.append(r)
    pivots, red = row_reduce(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for prow, pcol in zip(red, pivots):
        x[pcol] = prow.get(ncols, Fraction(0))
    return x


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
