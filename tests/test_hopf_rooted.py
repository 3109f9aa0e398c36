"""Grafting algebra on rooted trees and its dual forest algebra."""

import math
import re
from fractions import Fraction

import pytest

import treehopf.hopf_rooted
from treehopf.foundations import LinComb, clear_caches
from treehopf.hopf_planar import KP
from treehopf.hopf_rooted import (
    GRAFT_CAP,
    HK,
    KT,
    ck_b_minus,
    ck_b_plus,
    corolla,
    epsilon,
    kappa,
    primitive_projection,
    strip_primitive_root,
)
from treehopf.symfun import COUNT_LIMIT
from treehopf.trees import (
    EMPTY_FOREST,
    LEAF,
    Forest,
    enumerate_rooted,
    forests_of_degree,
    ladder,
    rooted_from_string as rt,
)
from test_sparse_oracles import epsilon_by_recursion

s = LinComb.single


def forest(*encs):
    return Forest(tuple(rt(e) for e in encs))


def kt_el(*pairs):
    out = LinComb.zero()
    for enc, c in pairs:
        out += s(rt(enc), c)
    return out


def test_grafting_product_single_branch():
    got = KT.product(s(rt("[[]]")), s(rt("[[]]")))
    assert got == kt_el(("[[[]]]", 1), ("[[][]]", 1))


def test_grafting_product_into_cherry():
    got = KT.product(s(rt("[[]]")), s(rt("[[][]]")))
    assert got == kt_el(("[[][[]]]", 2), ("[[][][]]", 1))


def test_grafting_noncommutative():
    a, b = s(rt("[[][]]")), s(rt("[[]]"))
    left = KT.product(a, b)
    assert left == kt_el(("[[[][]]]", 1), ("[[][[]]]", 2), ("[[][][]]", 1))
    assert left != KT.product(b, a)


def test_grafting_coefficient_sum():
    # k branches map into m vertices independently: coefficient sum m^k,
    # for every pair of trees through degree 8
    for n in range(2, 11):
        for i in range(1, n):
            for t1 in enumerate_rooted(i):
                k = len(t1.children)
                for t2 in enumerate_rooted(n - i):
                    prod = KT.product(s(t1), s(t2))
                    assert sum(c for _, c in prod.items()) == t2.size ** k, (t1, t2)


def test_grafting_product_above_the_cap_is_refused_from_the_library():
    c10 = s(corolla(10))
    message = ("this product would graft 184,756 attachment choices, rebuilding roughly "
               f"40,738,698 vertices; the cap is {GRAFT_CAP:,}")
    with pytest.raises(ValueError, match=re.escape(message)):
        KT.product(c10, c10)


def test_graft_budget_prices_only_key_products_not_yet_memoized(monkeypatch):
    clear_caches()
    x, y = s(corolla(2)), s(ladder(3))
    first = KT.product(x, y)
    monkeypatch.setattr(treehopf.hopf_rooted, "GRAFT_CAP", 0)
    assert KT.product(x, y) == first
    with pytest.raises(ValueError, match="the cap is 0$"):
        KT.product(y, x)


def test_grafting_coproduct_splits_branches():
    got = KT.coproduct(s(rt("[[][]]")))
    want = (
        LinComb.single((LEAF, rt("[[][]]")))
        + LinComb.single((rt("[[]]"), rt("[[]]")), 2)
        + LinComb.single((rt("[[][]]"), LEAF))
    )
    assert got == want


def test_chain_is_primitive():
    got = KT.coproduct(s(rt("[[[]]]")))
    want = LinComb.single((LEAF, rt("[[[]]]"))) + LinComb.single(
        (rt("[[[]]]"), LEAF)
    )
    assert got == want
    assert primitive_projection(s(rt("[[[]]]"))) == s(rt("[[[]]]"))
    assert primitive_projection(s(rt("[[][]]"))) == LinComb.zero()


def test_grafting_antipode():
    assert KT.antipode(s(rt("[[]]"))) == -s(rt("[[]]"))
    assert KT.antipode(s(rt("[[][]]"))) == kt_el(("[[[]]]", 2), ("[[][]]", 1))
    # cocommutative, so the antipode is an involution
    for n in range(0, 5):
        for t in enumerate_rooted(n + 1):
            assert KT.antipode(KT.antipode(s(t))) == s(t)


@pytest.mark.parametrize("alg", (KT, KP), ids=lambda alg: alg.name)
def test_antipode_term_bound_is_never_below_the_count(alg):
    # exact for a tree of at most one root branch, S(t) = ±t
    for n in range(1, 10):
        for t in alg.basis(n - 1):
            bound, terms = alg.antipode_terms(t), len(alg.antipode_key(t))
            assert bound >= terms, t
            assert bound == terms or len(t.children) > 1, t
    # the 16-leaf corolla's bound is the trees of its size; a large tree's
    # passes the limit, and no count of its size is computed
    assert KT.antipode_terms(corolla(16)) == 634_847
    assert alg.antipode_terms(type(alg.leaf)([alg.leaf] * 100_000)) == COUNT_LIMIT + 1


def test_grafting_unit_and_counit():
    one = KT.one()
    assert one == s(LEAF)
    x = s(rt("[[][]]"), 3)
    assert KT.product(one, x) == x
    assert KT.product(x, one) == x
    assert KT.counit(x + 5 * one) == 5


def test_kappa_values():
    assert kappa(0) == KT.one()
    assert kappa(1) == s(rt("[[]]"))
    assert kappa(2) == s(rt("[[[]]]")) + s(rt("[[][]]"), Fraction(1, 2))
    assert kappa(3) == (
        s(rt("[[[[]]]]"))
        + s(rt("[[[][]]]"), Fraction(1, 2))
        + s(rt("[[][[]]]"))
        + s(rt("[[][][]]"), Fraction(1, 6))
    )
    # weights are reciprocal symmetry orders over all trees of each size,
    # and a weight 1 is an int, not Fraction(1, 1)
    for n in range(1, 6):
        k = kappa(n)
        assert set(k.keys()) == set(enumerate_rooted(n + 1))
        assert all(type(c) is (int if c == 1 else Fraction) for _, c in k.items()), n


def test_epsilon_is_scaled_corolla():
    # epsilon returns the closed form; the recursion that defines it is the oracle
    for n in range(0, 7):
        want = LinComb.single(corolla(n), Fraction(1, math.factorial(n)))
        assert epsilon_by_recursion(n) == want


def test_epsilon_antipode_relation():
    for n in range(0, 7):
        assert epsilon(n) == (-1) ** n * KT.antipode(kappa(n))


def test_kappa_divided_powers():
    for n in range(0, 6):
        got = KT.coproduct(kappa(n))
        want = LinComb.zero()
        for i in range(n + 1):
            want += LinComb.tensor(kappa(i), kappa(n - i))
        assert got == want


def test_strip_primitive_root():
    assert strip_primitive_root(s(rt("[[[][]]]"))) == s(rt("[[][]]"))
    assert strip_primitive_root(s(rt("[[][]]"))) == LinComb.zero()
    assert strip_primitive_root(KT.one()) == LinComb.zero()


def test_forest_product_is_union():
    got = HK.product(s(forest("[[]]")), s(forest("[]", "[]")))
    assert got == s(forest("[]", "[]", "[[]]"))
    # commutative
    for f1 in forests_of_degree(3):
        for f2 in forests_of_degree(2):
            assert HK.product(s(f1), s(f2)) == HK.product(s(f2), s(f1))


def test_forest_coproduct_single_edge():
    got = HK.coproduct(s(forest("[[]]")))
    want = (
        LinComb.single((EMPTY_FOREST, forest("[[]]")))
        + LinComb.single((forest("[]"), forest("[]")))
        + LinComb.single((forest("[[]]"), EMPTY_FOREST))
    )
    assert got == want


def test_forest_coproduct_cherry():
    got = HK.coproduct(s(forest("[[][]]")))
    want = (
        LinComb.single((EMPTY_FOREST, forest("[[][]]")))
        + LinComb.single((forest("[]"), forest("[[]]")), 2)
        + LinComb.single((forest("[]", "[]"), forest("[]")))
        + LinComb.single((forest("[[][]]"), EMPTY_FOREST))
    )
    assert got == want


def test_forest_coproduct_chain():
    got = HK.coproduct(s(forest("[[[]]]")))
    want = (
        LinComb.single((EMPTY_FOREST, forest("[[[]]]")))
        + LinComb.single((forest("[]"), forest("[[]]")))
        + LinComb.single((forest("[[]]"), forest("[]")))
        + LinComb.single((forest("[[[]]]"), EMPTY_FOREST))
    )
    assert got == want


def test_forest_antipode():
    got = HK.antipode(s(forest("[[]]")))
    assert got == s(forest("[]", "[]")) - s(forest("[[]]"))
    # antipode is an algebra anti-morphism; commutative so plain morphism
    a, b = s(forest("[[]]")), s(forest("[]"))
    assert HK.antipode(HK.product(a, b)) == HK.product(
        HK.antipode(a), HK.antipode(b)
    )


def test_forest_b_operators():
    x = s(forest("[]", "[[]]"))
    up = ck_b_plus(x)
    assert up == s(forest("[[][[]]]"))
    assert ck_b_minus(up) == x
    # down operator acts as a derivation on single trees only; on the
    # one-tree forest it removes the root
    assert ck_b_minus(s(forest("[[][]]"))) == s(forest("[]", "[]"))


def test_grading():
    for n in range(0, 5):
        for t in enumerate_rooted(n + 1):
            assert KT.degree(t) == n
        for f in forests_of_degree(n):
            assert HK.degree(f) == n
