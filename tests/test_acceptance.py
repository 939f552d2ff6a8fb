"""Acceptance gate: the eight release criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they land.
Every check is exact (integers and rationals); the only tolerances are the
wall-clock budgets, which are asserted too.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction
from math import factorial

from hesslab import gkm
from hesslab.cli import canonical_json, kahler_payload
from hesslab.dotchar import betti_rs, chromatic_qsym, dot_action_multiplicities, regular_betti
from hesslab.gkm import build_gkm, morse_betti
from hesslab.hessenberg import enumerate_hessenberg
from hesslab.partitions import dominance_leq, partitions_of
from hesslab.springer import generic_jordan_type, support_violations
from hesslab.symfunc import QPoly
from oracles import (
    brute_force_orbit_oracle,
    character_value,
    conjugacy_class_size,
    dot_matrix_by_projection,
    flow_up_class,
    fraction_product,
    incomparability_graph,
    integrate,
    intersection_matrix_by_integrals,
    lefschetz_matrix_by_projection,
    lift,
    lift_with_noise,
    ordinary_basis,
    powersum_csf_q1,
    powersum_to_monomial,
    q_factorial,
    transpose,
)

# a second strictly decreasing Kahler weight per n, besides the default one
ALTERNATE_KAHLER_WEIGHT = {2: (5, -2), 3: (7, 2, -1), 4: (5, 3, 0, -4)}


def announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {tag}{suffix}")


def test_acceptance_1_flag_variety_pin():
    start = time.monotonic()
    ok = True
    for n in (3, 4):
        gm = dot_action_multiplicities((n,) * n)
        expected = q_factorial(n).coefficient_list()
        for lam, row in gm.table.items():
            want = expected if lam == (n,) else [0] * len(row)
            ok = ok and row == want
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    announce(1, "flag variety pin", ok, f"{elapsed:.2f}s < 1s")
    assert ok


def test_acceptance_2_toric_hexagon_fixture():
    start = time.monotonic()
    h = (2, 3, 3)
    gm = dot_action_multiplicities(h)
    checks = [
        gm.betti() == [1, 4, 1],
        gm.table[(3,)] == [1, 2, 1],
        gm.table[(2, 1)] == [0, 1, 0],
        gm.table[(1, 1, 1)] == [0, 0, 0],
        generic_jordan_type(h) == (2, 1),
        # the regular orbit misses the annihilator, so the sign representation
        # is forbidden by the support criterion and absent
        not dominance_leq((3,), generic_jordan_type(h)),
        support_violations(h) == [],
    ]
    elapsed = time.monotonic() - start
    ok = all(checks) and elapsed < 1.0
    announce(2, "toric hexagon fixture", ok, f"{elapsed:.2f}s < 1s")
    assert ok, checks


def test_acceptance_3_peterson_shadow():
    h = (2, 3, 3)
    betti = regular_betti(h, (1, 2))
    product = QPoly.one()
    for i, hi in enumerate(h, start=1):
        factor = QPoly({k: 1 for k in range(hi - i + 1)})
        product = product * factor
    ok = betti == [1, 2, 1] and betti == product.coefficient_list()
    announce(3, "peterson shadow", ok)
    assert ok, (betti, product.coefficient_list())


def test_acceptance_4_support_criterion_sweep():
    start = time.monotonic()
    violations = []
    functions = 0
    for n in range(2, 7):
        for h in enumerate_hessenberg(n):
            functions += 1
            violations.extend(support_violations(h))
    elapsed = time.monotonic() - start
    control = support_violations((2, 3, 3), drop_conjugate=True)
    ok = not violations and bool(control) and functions == 2 + 5 + 14 + 42 + 132 and elapsed < 300
    announce(
        4,
        "support criterion sweep",
        ok,
        f"{functions} functions, {len(violations)} violations, control found, {elapsed:.1f}s < 300s",
    )
    assert ok, violations


def test_acceptance_5_palindromicity_sweep():
    bad = []
    for n in range(2, 7):
        indecomposable = set(enumerate_hessenberg(n, indecomposable_only=True))
        for h in enumerate_hessenberg(n):
            for r in range(n):
                for J in itertools.combinations(range(1, n), r):
                    row = regular_betti(h, J)
                    if row != row[::-1]:
                        bad.append((h, J, row))
            full = betti_rs(h)
            if h in indecomposable and (full[0] != 1 or full[-1] != 1):
                bad.append((h, "ends", full))
    ok = not bad
    announce(5, "palindromicity sweep", ok, "n <= 6, all J")
    assert ok, bad[:5]


def test_acceptance_6_dual_route_betti():
    start = time.monotonic()
    functions = 0
    for n in range(2, 6):
        for h in enumerate_hessenberg(n):
            functions += 1
            assert morse_betti(build_gkm(h)) == betti_rs(h), h
    elapsed = time.monotonic() - start
    ok = functions == 2 + 5 + 14 + 42 and elapsed < 600
    announce(6, "dual route betti", ok, f"{functions} graphs, {elapsed:.1f}s < 600s")
    assert ok


def test_acceptance_7_kahler_package_desk_scale():
    # also pins the bytes: the canonical JSON of every report at seed 1729,
    # pairing determinants included, hashed in order; and, separately, the
    # exact values of every flow-up class, each graph's in moment order; the
    # point-evaluated intersection matrices are checked against polynomial
    # localization integrals, and the point-evaluated tables Q_j and omega
    # tables (every j and degree; the default and one alternate weight)
    # against projections of the polynomial products, integrated
    start = time.monotonic()
    cases = 0
    failures = []
    matrices = 0
    tables = 0
    digest = hashlib.sha256()
    flowups = hashlib.sha256()
    for n in range(2, 5):
        for h in enumerate_hessenberg(n):
            g = build_gkm(h)
            for r in range(n):
                for J in itertools.combinations(range(1, n), r):
                    cases += 1
                    payload = kahler_payload(g, J)
                    digest.update(canonical_json(payload).encode())
                    if not payload["verdicts"]["all"]:
                        failures.append((h, J, payload["verdicts"]))
            integrals = {}  # M_k by polynomial integrals, for every k
            for dd in range(g.l // 2 + 1):
                matrices += 1
                rows, den = gkm._integrals(g, dd, g.l - dd)
                if not all(type(x) is int for row in rows for x in (den, *row)):
                    failures.append((h, "intersection matrix not integer", dd))
                integrals[dd] = intersection_matrix_by_integrals(g, dd)
                if gkm._fractions(rows, den) != integrals[dd]:
                    failures.append((h, "intersection matrix", dd))
                integrals.setdefault(g.l - dd, transpose(integrals[dd]))
            lefschetz = {
                lam: [lefschetz_matrix_by_projection(g, lam, k) for k in range(g.l)]
                for lam in (gkm.default_kahler_weight(n), ALTERNATE_KAHLER_WEIGHT[n])
            }
            for k in range(g.l + 1):
                for j in range(1, n):
                    # Q_j = (coordinates of s_j . sigma_c) M_k
                    tables += 1
                    want = fraction_product(transpose(dot_matrix_by_projection(g, j, k)), integrals[k])
                    if gkm._fractions(*gkm._integrals(g, k, g.l - k, j)) != want:
                        failures.append((h, "dot sums", j, k))
                for lam, chain in lefschetz.items():
                    # sigma_r omega^(l-k) has coordinates L_a ... L_(l-b-1)
                    # in degree l - b, integrated against sigma_s by M_(l-b)
                    tables += 1
                    a, b = (k + 1) // 2, k // 2
                    want = integrals[g.l - b]
                    for L in reversed(chain[a : g.l - b]):
                        want = fraction_product(L, want)
                    table = gkm._integrals(g, a, b, 0, lam if k < g.l else None)
                    if gkm._fractions(*table) != want:
                        failures.append((h, "lefschetz sums", lam, k))
            for u in g.order:
                values = flow_up_class(g, u).values
                terms = [[[list(m), str(c)] for m, c in sorted(v.c.items())] for v in values]
                flowups.update(canonical_json(terms).encode())
    elapsed = time.monotonic() - start
    pinned = (
        digest.hexdigest() == "d61aed4db828949244ae2567fd702989f1ace562720d9aca2a7930d05c41bfc1"
        and flowups.hexdigest()
        == "7db84ed93b238afa1785c4764675d1b515364c36f955b75a2bfda8d27c1258b9"
    )
    ok = (
        not failures
        and pinned
        and cases == 2 * 2 + 5 * 4 + 14 * 8
        and matrices == 38
        and tables == 312
        and elapsed < 900
    )
    announce(
        7,
        "kahler package desk scale",
        ok,
        f"{cases} (h, J) cases, {matrices} intersection matrices vs integrals, "
        f"{tables} dot and Lefschetz tables vs projections, "
        f"{len(failures)} failures, bytes pinned: {pinned}, {elapsed:.1f}s < 900s",
    )
    assert ok, failures


def test_acceptance_8a_character_orthogonality():
    ok = True
    for n in range(2, 8):
        parts = partitions_of(n)
        for lam in parts:
            for kap in parts:
                total = sum(
                    conjugacy_class_size(mu) * character_value(lam, mu) * character_value(kap, mu)
                    for mu in parts
                )
                ok = ok and total == (factorial(n) if lam == kap else 0)
    announce(8, "oracle battery: character orthogonality n <= 7", ok)
    assert ok


def test_acceptance_8b_csf_powersum_agreement():
    ok = True
    for n in range(2, 7):
        for h in enumerate_hessenberg(n):
            X = chromatic_qsym(h)
            F = powersum_to_monomial(powersum_csf_q1(incomparability_graph(h), n), n)
            for lam in partitions_of(n):
                if F.get(lam, 0) != X.coefficient(lam).at_one():
                    ok = False
    announce(8, "oracle battery: chromatic q=1 vs edge-subset powersums n <= 6", ok)
    assert ok


def test_acceptance_8c_orbit_criterion_vs_brute_force():
    ok = True
    retried = 0
    for n in range(2, 5):
        for h in enumerate_hessenberg(n):
            lam_h = generic_jordan_type(h)
            for lam in partitions_of(n):
                expected = dominance_leq(lam, lam_h)
                got = brute_force_orbit_oracle(lam, h, 2)
                if got != expected:
                    retried += 1
                    got = brute_force_orbit_oracle(lam, h, 5)
                if got != expected:
                    ok = False
    announce(
        8,
        "oracle battery: orbit criterion vs finite-field brute force n <= 4",
        ok,
        f"{retried} retried at p=5",
    )
    assert ok


def test_acceptance_8d_lift_independence():
    rng = random.Random(8)
    ok = True
    instances = 0
    for n in range(2, 5):
        for h in enumerate_hessenberg(n):
            g = build_gkm(h)
            ka = (g.l + 1) // 2
            kb = g.l - ka
            da = len(ordinary_basis(g, ka))
            db = len(ordinary_basis(g, kb))
            a = [Fraction(rng.randint(-2, 2)) for _ in range(da)]
            b = [Fraction(rng.randint(-2, 2)) for _ in range(db)]
            reference = integrate(g, lift(g, ka, a) * lift(g, kb, b))
            instances += 1
            for _ in range(100):
                noisy = integrate(
                    g, lift_with_noise(g, ka, a, rng) * lift_with_noise(g, kb, b, rng)
                )
                if noisy != reference:
                    ok = False
    announce(
        8,
        "oracle battery: lift independence of integration",
        ok,
        f"{instances} instances x 100 trials",
    )
    assert ok
