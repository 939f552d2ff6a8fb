import pytest

from hesslab.dotchar import chromatic_qsym
from hesslab.hessenberg import enumerate_hessenberg
from hesslab.partitions import dim_irrep, kostka_number, partitions_of
from hesslab.symfunc import QPoly, QSymPoly
from oracles import (
    character_value,
    powersum_csf_q1,
    powersum_to_monomial,
    q_factorial,
    q_int,
    schur_inner_product,
)

P3_EDGES = ((1, 2), (2, 3))


def p3_csf():
    """Brute-force chromatic polynomial of the 3-vertex path, by usage vector.

    Computed here from scratch (plain triple loop, no backtracking) so it can
    serve as an oracle for anything claiming to know X_{P3}.  The m_lam
    coefficient collects the colorings whose usage vector is exactly the
    canonical one (color i used lam_i times).
    """
    by_usage = {}
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            for k3 in (1, 2, 3):
                if k1 == k2 or k2 == k3:
                    continue
                asc = (k1 < k2) + (k2 < k3)
                usage = [0, 0, 0]
                for c in (k1, k2, k3):
                    usage[c - 1] += 1
                key = tuple(usage)
                by_usage.setdefault(key, {})
                by_usage[key][asc] = by_usage[key].get(asc, 0) + 1
    coeffs = {}
    for lam in partitions_of(3):
        canonical = tuple(lam) + (0,) * (3 - len(lam))
        hist = by_usage.get(canonical, {})
        coeffs[lam] = QPoly(dict(hist))
    return QSymPoly(3, coeffs)


def test_qpoly_arithmetic():
    a = QPoly({0: 1, 2: 3})
    b = QPoly({1: 2})
    assert (a + b).coefficient_list() == [1, 2, 3]
    assert (a - a).is_zero()
    assert (a * b).coefficient_list() == [0, 2, 0, 6]
    assert (a * 2).coefficient_list() == [2, 0, 6]
    assert a[2] == 3 and a[5] == 0
    assert a.degree == 2
    assert QPoly().degree == -1
    assert a.at_one() == 4
    with pytest.raises(ValueError):
        QPoly({-1: 1})


def test_qpoly_palindromic():
    assert QPoly({0: 1, 1: 4, 2: 1}).is_palindromic()
    assert not QPoly({0: 1, 1: 2}).is_palindromic()
    assert QPoly().is_palindromic()


def test_q_int_and_factorial():
    assert q_int(3).coefficient_list() == [1, 1, 1]
    assert q_factorial(3).coefficient_list() == [1, 2, 2, 1]
    assert q_factorial(4).at_one() == 24


def test_p3_monomial_expansion():
    X = p3_csf()
    assert X.coefficient((1, 1, 1)) == QPoly({0: 1, 1: 4, 2: 1})
    assert X.coefficient((2, 1)) == QPoly({1: 1})
    assert X.coefficient((3,)).is_zero()


def h_pairing(F, mu):
    """<F, h_mu> through the Schur oracle: h_mu = sum_lam K_{lam, mu} s_lam."""
    return sum(
        (schur_inner_product(F, lam) * kostka_number(lam, mu) for lam in partitions_of(F.degree)),
        QPoly.zero(),
    )


def test_h_duality_trivial_cases():
    # the monomial coefficient at mu is the pairing against h_mu
    F = QSymPoly(3, {(1, 1, 1): QPoly.one()})
    G = QSymPoly(3, {(2, 1): QPoly.one()})
    X = p3_csf()
    for H in (F, G, X):
        for mu in partitions_of(3):
            assert H.coefficient(mu) == h_pairing(H, mu), (H, mu)
    for n in (4, 5):
        for h in enumerate_hessenberg(n):
            X = chromatic_qsym(h)
            for mu in partitions_of(n):
                assert X.coefficient(mu) == h_pairing(X, mu), (h, mu)


def test_h_duality_on_path():
    # the (1,1,1) dual coefficient counts colorings whose usage vector is
    # exactly (1,1,1): six bijective proper colorings of the path, ascent
    # histogram 1 + 4q + q^2
    X = p3_csf()
    assert X.coefficient((1, 1, 1)) == QPoly({0: 1, 1: 4, 2: 1})
    assert X.coefficient((1, 1, 1)).at_one() == 6
    # while the total count of proper 3-colorings of P3 is 12 = sum over all
    # usage profiles weighted by the number of distinct usage vectors
    total = sum(
        X.coefficient(lam).at_one() * mult
        for lam, mult in (((1, 1, 1), 1), ((2, 1), 6), ((3,), 3))
    )
    assert total == 12


def test_schur_pairing_on_known_expansions():
    # h_3 = m_3 + m_21 + m_111 pairs to 1 against s_3 only
    h3 = QSymPoly(3, {lam: QPoly.one() for lam in partitions_of(3)})
    assert schur_inner_product(h3, (3,)) == QPoly.one()
    assert schur_inner_product(h3, (2, 1)).is_zero()
    assert schur_inner_product(h3, (1, 1, 1)).is_zero()
    # s_21 = m_21 + 2 m_111
    s21 = QSymPoly(3, {(2, 1): QPoly.one(), (1, 1, 1): QPoly({0: 2})})
    assert schur_inner_product(s21, (2, 1)) == QPoly.one()
    assert schur_inner_product(s21, (3,)).is_zero()
    assert schur_inner_product(s21, (1, 1, 1)).is_zero()


def test_schur_pairing_on_path():
    X = p3_csf()
    assert schur_inner_product(X, (3,)).is_zero()
    assert schur_inner_product(X, (2, 1)) == QPoly({1: 1})
    assert schur_inner_product(X, (1, 1, 1)) == QPoly({0: 1, 1: 2, 2: 1})
    assert schur_inner_product(X, (1, 1, 1)).at_one() == 4


def test_powersum_monomial_expansions():
    assert powersum_to_monomial({(3,): 1}, 3) == {(3,): 1}
    assert powersum_to_monomial({(2, 1): 1}, 3) == {(3,): 1, (2, 1): 1}
    assert powersum_to_monomial({(1, 1, 1): 1}, 3) == {(3,): 1, (2, 1): 3, (1, 1, 1): 6}


def test_powersum_csf_on_path():
    # inclusion-exclusion over edge subsets: p_111 - 2 p_21 + p_3
    F = powersum_csf_q1(P3_EDGES, 3)
    assert F == {(1, 1, 1): 1, (2, 1): -2, (3,): 1}
    # and its monomial expansion agrees with the coloring count at q=1
    X = p3_csf()
    m = powersum_to_monomial(F, 3)
    for lam in partitions_of(3):
        assert m.get(lam, 0) == X.coefficient(lam).at_one()


def test_schur_pairing_vs_character_route():
    # independent oracle: <X, s_lam> at q=1 equals
    # sum over edge subsets (-1)^{|S|} chi^lam(type(S))
    X = p3_csf()
    F = powersum_csf_q1(P3_EDGES, 3)
    for lam in partitions_of(3):
        char_route = sum(
            F.get(nu, 0) * character_value(lam, nu)
            for nu in partitions_of(3)
        )
        assert schur_inner_product(X, lam).at_one() == char_route


def test_pairing_total_dimension_identity():
    # sum over mu of <F, s_mu> * f^mu recovers the all-distinct-colors count,
    # i.e. the m_(1^n) coefficient; both sides computed independently
    X = p3_csf()
    total = sum(
        schur_inner_product(X, mu).at_one() * dim_irrep(mu) for mu in partitions_of(3)
    )
    assert total == X.coefficient((1, 1, 1)).at_one()


def test_qsympoly_validation():
    with pytest.raises(ValueError):
        QSymPoly(3, {(2, 2): QPoly.one()})
    with pytest.raises(ValueError):
        QSymPoly(3, {(1, 2): QPoly.one()})
    assert QSymPoly(3, {(2, 1): QPoly.zero()}).coeffs == {}
