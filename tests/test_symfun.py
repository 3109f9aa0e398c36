"""Composition and partition Hopf algebras and the polynomial realization."""

import random
import re
import inspect
import sys
from fractions import Fraction

import pytest

import treehopf.symfun

from treehopf.foundations import (
    LinComb,
    compositions_of,
    partitions_of,
    pi_forget,
    rearrangements,
)
from treehopf.hopf import COUNT_LIMIT, TERM_CAP
from treehopf.symfun import (
    NSYM,
    QSYM,
    SYM,
    _partitions_at_most,
    alpha_minus,
    alpha_minus_dual,
    alpha_plus,
    alpha_plus_dual,
    collect_sym,
    e,
    expand_truncated,
    h,
    include_sym,
    m_to_e,
    m_to_e_row,
    p,
)

from treehopf.morphisms import tau

from test_sparse_oracles import polynomial_product

s = LinComb.single


def test_stuffle_products():
    assert QSYM.product(s((1,)), s((1,))) == s((1, 1), 2) + s((2,))
    got = QSYM.product(s((2, 1)), s((1,)))
    want = s((1, 2, 1)) + s((2, 1, 1), 2) + s((2, 2)) + s((3, 1))
    assert got == want
    # empty composition is the unit
    assert QSYM.product(s(()), s((3, 1))) == s((3, 1))


def test_stuffle_against_polynomials():
    # the polynomial realization is faithful up to the variable count,
    # so products must agree after expansion
    rng = random.Random(90125)
    comps = [c for n in range(0, 4) for c in compositions_of(n)]
    for _ in range(25):
        a, b = rng.choice(comps), rng.choice(comps)
        nvars = len(a) + len(b) + 1
        lhs = expand_truncated(QSYM.product(s(a), s(b)), nvars)
        rhs = polynomial_product(expand_truncated(s(a), nvars), expand_truncated(s(b), nvars))
        assert lhs == rhs, (a, b)


def test_deconcatenation():
    got = QSYM.coproduct(s((2, 1)))
    want = (
        LinComb.single(((), (2, 1)))
        + LinComb.single(((2,), (1,)))
        + LinComb.single(((2, 1), ()))
    )
    assert got == want
    assert len(QSYM.coproduct(s((2, 1, 1)))) == 4


def test_monomial_coproduct():
    got = SYM.coproduct(s((1, 1)))
    want = (
        LinComb.single(((), (1, 1)))
        + LinComb.single(((1,), (1,)))
        + LinComb.single(((1, 1), ()))
    )
    assert got == want
    assert len(SYM.coproduct(s((2, 1, 1)))) == 6
    # splits of the multiset of parts, each with coefficient 1
    for (l, r), c in SYM.coproduct(s((3, 2, 2, 1))).items():
        assert c == 1
        assert tuple(sorted(l + r, reverse=True)) == (3, 2, 2, 1)


def test_monomial_product_via_inclusion():
    # the product is forced by the embedding into compositions
    for n1 in range(0, 4):
        for n2 in range(0, 4):
            for la in partitions_of(n1):
                for mu in partitions_of(n2):
                    got = SYM.product(s(la), s(mu))
                    want = collect_sym(
                        QSYM.product(include_sym(s(la)), include_sym(s(mu)))
                    )
                    assert got == want


def test_include_collect_roundtrip():
    assert include_sym(s((2, 1))) == s((2, 1)) + s((1, 2))
    for n in range(0, 7):
        for la in partitions_of(n):
            assert collect_sym(include_sym(s(la))) == s(la)
    # the error names the keys with key_str
    unequal = re.escape("not symmetric: coefficient of M(1,2) differs from M(2,1)")
    with pytest.raises(ValueError, match=unequal):
        collect_sym(s((2, 1)))  # misses its rearrangement partner
    with pytest.raises(ValueError, match=unequal):
        collect_sym(s((1, 2), 1) + s((2, 1), 2))


def test_elementary_complete_power():
    assert e(2) == s((1, 1))
    assert h(2) == s((1, 1)) + s((2,))
    assert p(3) == s((3,))
    assert e(0) == h(0) == SYM.one()
    for n in range(1, 7):
        assert h(n) == sum((s(la) for la in partitions_of(n)), LinComb.zero())
        assert e(n) == s((1,) * n)


def test_basis_transitions_invert():
    for n in range(0, 7):
        for la in partitions_of(n):
            assert tau(m_to_e(s(la))) == s(la)
            assert m_to_e(tau(s(la))) == s(la)
    assert m_to_e(s((2,))) == s((1, 1)) - 2 * s((2,))
    assert tau(s((1, 1))) == 2 * s((1, 1)) + s((2,))


def test_sym_antipode_elementary_to_complete():
    for n in range(0, 7):
        assert SYM.antipode(e(n)) == (-1) ** n * h(n)


def test_power_sums_primitive():
    for n in range(1, 7):
        got = SYM.coproduct(p(n))
        want = LinComb.single(((), (n,))) + LinComb.single(((n,), ()))
        assert got == want


def test_concatenation_and_divided_powers():
    assert NSYM.product(s((1,)), s((2, 1))) == s((1, 2, 1))
    assert NSYM.product(s((2, 1)), s((1,))) == s((2, 1, 1))
    got = NSYM.coproduct(s((2,)))
    want = (
        LinComb.single(((), (2,)))
        + LinComb.single(((1,), (1,)))
        + LinComb.single(((2,), ()))
    )
    assert got == want
    got2 = NSYM.coproduct(s((1, 1)))
    assert got2[(1,), (1,)] == 2
    assert NSYM.antipode(s((2,))) == s((1, 1)) - s((2,))


def test_nsym_coproduct_multiplicative():
    rng = random.Random(509)
    comps = [c for n in range(1, 5) for c in compositions_of(n)]
    for _ in range(20):
        a, b = rng.choice(comps), rng.choice(comps)
        lhs = NSYM.coproduct(NSYM.product(s(a), s(b)))
        rhs = LinComb.zero()
        for (l1, r1), c1 in NSYM.coproduct(s(a)).items():
            for (l2, r2), c2 in NSYM.coproduct(s(b)).items():
                rhs += LinComb.single((l1 + l2, r1 + r2), c1 * c2)
        assert lhs == rhs, (a, b)


def test_append_strip_operators():
    assert alpha_plus(s((2, 1))) == s((2, 1, 1))
    assert alpha_minus(s((2, 1, 1))) == s((2, 1))
    assert alpha_minus(s((2, 1))) == s((2,))
    assert alpha_minus(s((1,))) == s(())
    assert alpha_minus(s((2,))) == LinComb.zero()
    assert alpha_minus(alpha_plus(s((3, 2)))) == s((3, 2))
    assert alpha_plus_dual(s((2, 1))) == s((2,))
    assert alpha_plus_dual(s((1,))) == s(())
    assert alpha_plus_dual(s((2,))) == LinComb.zero()
    assert alpha_minus_dual(s((2,))) == s((2, 1))


def test_strip_is_one_sided_derivation():
    # strip acts on a stuffle product like a derivation whenever both
    # factors end in parts of size one or bigger; verified distributively
    rng = random.Random(7788)
    comps = [c for n in range(1, 5) for c in compositions_of(n)]
    for _ in range(30):
        a, b = rng.choice(comps), rng.choice(comps)
        lhs = alpha_minus(QSYM.product(s(a), s(b)))
        rhs = QSYM.product(alpha_minus(s(a)), s(b)) + QSYM.product(
            s(a), alpha_minus(s(b))
        )
        assert lhs == rhs, (a, b)


def test_expand_monomials():
    got = expand_truncated(s((1, 1)), 3)
    assert got == LinComb({(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    got2 = expand_truncated(s((2, 1)), 2)
    assert got2 == LinComb({(2, 1): 1})
    # too few variables kills long compositions
    assert expand_truncated(s((1, 1, 1)), 2) == LinComb.zero()
    # rational coefficients pass through
    got3 = expand_truncated(s((1,), Fraction(1, 2)), 2)
    assert got3 == LinComb({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})


def test_expanded_symmetric_functions_are_symmetric():
    # images of the inclusion are invariant under permuting variables
    import itertools

    for la in partitions_of(4):
        poly = expand_truncated(include_sym(s(la)), 4)
        for perm in itertools.permutations(range(4)):
            permuted = poly.map_keys(lambda expo: tuple(expo[perm[i]] for i in range(4)))
            assert permuted == poly, la


@pytest.mark.parametrize("alg", [SYM, QSYM, NSYM], ids=lambda alg: alg.name)
def test_antipode_term_counts_bound_the_terms_through_degree_9(alg):
    # exact on qsym and nsym, and on sym for e_n; never below the count
    for n in range(10):
        for key in alg.basis(n):
            bound, terms = alg.antipode_terms(key), len(alg.antipode_key(key))
            assert bound >= terms, key
            if alg is not SYM or key == (1,) * n:
                assert bound == terms, key


@pytest.mark.parametrize("alg", [SYM, QSYM], ids=lambda alg: alg.name)
def test_product_term_bounds_are_never_below_the_count_through_degree_8(alg):
    # pair_terms bounds each key product, and degree_terms every product of
    # its degree; both never fall below the count
    for n in range(9):
        assert alg.degree_terms(n) == len(alg.basis(n))
        for i in range(n + 1):
            for k1 in alg.basis(i):
                for k2 in alg.basis(n - i):
                    terms = len(alg._pk(k1, k2))
                    assert alg.pair_terms(k1, k2, n) >= terms, (k1, k2)
                    assert alg.product_terms(s(k1), s(k2)) >= terms, (k1, k2)


def test_products_within_the_degree_caps_price_no_pair(monkeypatch):
    # the compositions of 17 are 2^16 = 65,536 and the partitions of 45 are
    # 89,134, both within the cap: no key pair is priced
    def price(*args):
        raise AssertionError("a pair was priced")

    for alg, n in ((QSYM, 17), (SYM, 45)):
        monkeypatch.setitem(vars(alg), "pair_terms", price)
        x = LinComb([(key, 1) for key in alg.basis(n // 2)[:20]])
        y = LinComb([(key, 1) for key in alg.basis(n - n // 2)[:20]])
        assert alg.product_terms(x, y) == len(alg.basis(n)) <= TERM_CAP
    # above them the pairs are priced: a term of M(1^1000) M(1) has 1000 or
    # 1001 parts, as many as its 1,001 terms, and one of m(1^1000) m(1) has
    # parts of at most 2
    monkeypatch.undo()
    assert QSYM.product_terms(s((1,) * 1000), s((1,))) == 1001
    assert SYM.product_terms(s((1,) * 1000), s((1,))) == 501
    assert QSYM.product_terms(s((1,) * 500), s((1,) * 500)) == COUNT_LIMIT + 1


@pytest.mark.parametrize("alg, left, right", [
    (QSYM, (1,) * 500, (1,) * 500),
    (QSYM, (1,) * 30, (1,) * 30),
    (SYM, tuple(range(1000, 0, -1)), (1,)),
], ids=["qsym-1^500", "qsym-1^30", "sym-1000..1"])
def test_products_above_the_term_cap_are_refused_before_any_term(alg, left, right,
                                                                  monkeypatch):
    def start(*args):
        raise AssertionError("a key product was started")

    monkeypatch.setitem(vars(alg), "product_keys", start)
    with pytest.raises(ValueError) as refusal:
        alg.product(s(left), s(right))
    assert str(refusal.value) == (f"this product would have more than {COUNT_LIMIT:,} terms; "
                                  f"the cap is {TERM_CAP:,}")


def test_long_part_lists_leave_the_recursion_limit_alone():
    # the quasi-shuffle fills its suffix pairs, and the sym product walks
    # the part values of its left factor, from loops: 300 parts run within
    # 50 frames above this test's own
    n, limit = 300, sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        ones = QSYM._pk((1,) * n, (1,))
        reversed_ones = QSYM._pk((1,), (1,) * n)
        parts = tuple(range(n, 0, -1))
        distinct = SYM._pk(parts, (1,))
    finally:
        sys.setrecursionlimit(limit)
    assert len(ones) == n + 1 and ones[(1,) * (n + 1)] == n + 1 and reversed_ones == ones
    assert len(distinct) == n + 1
    assert distinct[parts + (1,)] == 2 and distinct[(n + 1,) + parts[1:]] == 1


def test_m_to_e_rows_are_priced_by_their_largest_part():
    # a term e_nu of m_lam has nu at or above lam' in dominance order, so at
    # most lam_1 parts
    for n in range(13):
        for lam in partitions_of(n):
            assert _partitions_at_most(n, lam[0] if lam else 0) >= len(m_to_e_row(lam)), lam
    assert m_to_e_row((1,) * 990) == s((990,))


def test_m_to_e_rows_above_the_term_cap_are_refused_before_any_row(monkeypatch):
    def row(comp):
        raise AssertionError("a row was made")

    monkeypatch.setattr(treehopf.symfun, "e_to_m_row", row)
    for lam, text in (((46,), "up to 105,558"), ((500,), f"more than {COUNT_LIMIT:,}")):
        with pytest.raises(ValueError) as refusal:
            m_to_e_row(lam)
        assert str(refusal.value) == (f"m({lam[0]}) in the elementary basis would have {text} "
                                      f"terms; the cap is {TERM_CAP:,}")


def test_qsym_antipode_small():
    assert QSYM.antipode(s((1,))) == -s((1,))
    # single parts deconcatenate trivially, so their antipode just negates
    assert QSYM.antipode(s((2,))) == -s((2,))
    # convolution identity on a composite key
    x = s((1, 1))
    acc = LinComb.zero()
    for (l, r), c in QSYM.coproduct(x).items():
        acc += c * QSYM.product(QSYM.antipode(s(l)), s(r))
    assert acc == LinComb.zero()
    assert QSYM.antipode(x) == s((2,)) + s((1, 1))


def test_rearrangement_inclusion_consistency():
    # the inclusion hits every rearrangement exactly once
    for n in range(0, 6):
        for la in partitions_of(n):
            img = include_sym(s(la))
            assert set(img.keys()) == set(rearrangements(la))
            assert all(c == 1 for _, c in img.items())
            assert all(pi_forget(k) == la for k in img.keys())
