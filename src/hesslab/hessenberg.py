"""Hessenberg functions: validation, enumeration, dimension and the text form.

Conventions, fixed once here: functions are 1-indexed tuples h with
i <= h(i) <= n and h nondecreasing; the ambient Borel is upper triangular, so
the subspace attached to h has free entries at (i, j) with i <= h(j), its
trace-form annihilator has free entries {(i, j) : j > h(i)} (strictly upper),
and the incomparability graph joins i < j exactly when j <= h(i).  The
library reads both through h itself (springer's chains, dotchar's modular
law and colorings); the explicit pattern and edge list are test oracles.
"""

from __future__ import annotations

from functools import cache

MAX_FUNCTIONS_N = 9


def check_hessenberg(h) -> tuple[int, ...]:
    h = tuple(int(x) for x in h)
    n = len(h)
    if n < 1:
        raise ValueError("empty Hessenberg function")
    for i, v in enumerate(h, start=1):
        if not i <= v <= n:
            raise ValueError(f"need i <= h(i) <= n, got h({i}) = {v} with n = {n}")
    if any(h[i] > h[i + 1] for i in range(n - 1)):
        raise ValueError(f"h must be nondecreasing: {h}")
    return h


def is_indecomposable(h) -> bool:
    """True when h(i) >= i+1 for every i < n, i.e. no proper leading block splits off."""
    h = check_hessenberg(h)
    n = len(h)
    return all(h[i - 1] >= i + 1 for i in range(1, n))


@cache
def enumerate_hessenberg(n: int, indecomposable_only: bool = False) -> tuple[tuple[int, ...], ...]:
    """All Hessenberg functions on [n] in lexicographic order (Catalan many)."""
    if not isinstance(n, int) or not 2 <= n <= MAX_FUNCTIONS_N:
        raise ValueError(f"n must be an integer with 2 <= n <= {MAX_FUNCTIONS_N}, got {n!r}")
    if indecomposable_only:
        return tuple(h for h in _functions(n) if all(h[i - 1] > i for i in range(1, n)))
    return _functions(n)


@cache
def _functions(n: int) -> tuple[tuple[int, ...], ...]:
    """enumerate_hessenberg(n) without its range check, for any n >= 1.

    Each nondecreasing prefix of length i - 1 is extended by every value v
    with max(i, previous value) <= v <= n, smallest first, so the prefixes
    stay in lexicographic order at every length.
    """
    prefixes = [()]
    for i in range(1, n + 1):
        prefixes = [p + (v,) for p in prefixes for v in range(max(i, p[-1] if p else 0), n + 1)]
    return tuple(prefixes)


def dimension(h) -> int:
    """Complex dimension sum(h(i) - i); equals the incomparability edge count."""
    h = check_hessenberg(h)
    return sum(v - i for i, v in enumerate(h, start=1))


def parse_hessenberg(text: str) -> tuple[int, ...]:
    """Parse the CLI/JSON form "2,3,3"."""
    try:
        h = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse Hessenberg function from {text!r}") from None
    return check_hessenberg(h)


def hessenberg_str(h) -> str:
    return ",".join(str(v) for v in check_hessenberg(h))
