"""Bilinear pairings and the dual-realization criterion."""

from fractions import Fraction

from treehopf.foundations import LinComb, compositions_of, partitions_of
from treehopf.hopf_rooted import HK, KT
from treehopf.hopf_planar import HF, KP
from treehopf.symfun import NSYM, QSYM, SYM, e_to_m
from treehopf.pairings import (
    check_duality_criterion,
    ip_ck,
    ip_kt,
    ip_ns,
    ip_qs,
    ip_sym,
    pair_kp_hf,
    pair_kt_ck,
    pair_ns_qs,
    pair_tensor,
)
from treehopf.trees import (
    Forest,
    OrderedForest,
    b_plus,
    enumerate_rooted,
    forests_of_degree,
    planar_from_string as pt,
    rooted_from_string as rt,
    sym_order,
)

s = LinComb.single


def forest(*encs):
    return Forest(tuple(rt(e) for e in encs))


def test_tree_inner_product_is_diagonal():
    for n in range(1, 6):
        ts = enumerate_rooted(n)
        for i, t1 in enumerate(ts):
            for t2 in ts[i:]:
                want = sym_order(t1) if t1 == t2 else 0
                assert ip_kt(s(t1), s(t2)) == want


def test_forest_inner_product():
    f = forest("[]", "[[]]")
    assert ip_ck(s(f), s(f)) == sym_order(b_plus(f))
    assert ip_ck(s(f), s(forest("[[[]]]"))) == 0


def test_mixed_tree_forest_pairing():
    t = rt("[[][]]")
    assert pair_kt_ck(s(t), s(forest("[]", "[]"))) == 2
    assert pair_kt_ck(s(t), s(forest("[[]]"))) == 0
    # bilinear over rational coefficients
    got = pair_kt_ck(s(t, Fraction(1, 2)), s(forest("[]", "[]"), 3))
    assert got == 3


def test_composition_pairings_are_kronecker():
    for n in range(0, 5):
        for a in compositions_of(n):
            for b in compositions_of(n):
                want = 1 if a == b else 0
                assert pair_ns_qs(s(a), s(b)) == want
                assert ip_qs(s(a), s(b)) == want
                assert ip_ns(s(a), s(b)) == want


def test_planar_pairing():
    t = pt("[[[]][]]")
    good = OrderedForest((pt("[[]]"), pt("[]")))
    flipped = OrderedForest((pt("[]"), pt("[[]]")))
    assert pair_kp_hf(s(t), s(good)) == 1
    assert pair_kp_hf(s(t), s(flipped)) == 0


def test_partition_pairing_values():
    # elementary against monomial is Kronecker, so in the monomial basis
    # the matrix is the elementary-to-monomial transition
    assert ip_sym(s((1, 1)), s((2,))) == 1
    assert ip_sym(s((1, 1)), s((1, 1))) == 0
    assert ip_sym(s((2,)), s((1, 1))) == 1
    assert ip_sym(s((2,)), s((2,))) == -2
    for n in range(0, 6):
        for la in partitions_of(n):
            # (e_la, m_mu) = delta
            for mu in partitions_of(n):
                assert ip_sym(e_to_m(s(la)), s(mu)) == (1 if la == mu else 0)


def test_partition_pairing_symmetric():
    for n in range(0, 6):
        parts = partitions_of(n)
        for la in parts:
            for mu in parts:
                assert ip_sym(s(la), s(mu)) == ip_sym(s(mu), s(la))


def test_pair_tensor():
    a = LinComb.tensor(s((1,)), s((2,)))
    b = LinComb.tensor(s((1,)), s((2,)))
    assert pair_tensor(ip_qs, a, b) == 1
    c = LinComb.tensor(s((2,)), s((1,)))
    assert pair_tensor(ip_qs, a, c) == 0


def test_hopf_compatibility_instances():
    # multiplying on one side matches comultiplying on the other
    x, y = s(rt("[[]]")), s(rt("[[]]"))
    f = forest("[]", "[]")
    lhs = pair_kt_ck(KT.product(x, y), s(f))
    rhs = pair_tensor(pair_kt_ck, LinComb.tensor(x, y), HK.coproduct(s(f)))
    assert lhs == rhs == 2
    u = s((1,))
    m2 = s((1, 1))
    lhs2 = pair_ns_qs(NSYM.product(u, u), m2)
    rhs2 = pair_tensor(pair_ns_qs, LinComb.tensor(u, u), QSYM.coproduct(m2))
    assert lhs2 == rhs2 == 1


def test_duality_criterion_instances():
    from treehopf.pairings import ip_hf, ip_kp

    rep = check_duality_criterion(QSYM, ip_qs, NSYM, ip_ns, lambda a: a, 4)
    assert rep.ok and rep.checked > 400
    rep = check_duality_criterion(
        HK, ip_ck, KT, ip_kt, lambda a: a.map_keys(b_plus), 4
    )
    assert rep.ok
    rep = check_duality_criterion(
        HF, ip_hf, KP, ip_kp, lambda a: a.map_keys(b_plus), 4
    )
    assert rep.ok
    rep = check_duality_criterion(SYM, ip_sym, SYM, ip_sym, lambda a: a, 4)
    assert rep.ok


def test_duality_criterion_catches_wrong_map():
    # embedding forests as one-tree forests is degree-shifting nonsense;
    # wrapping with the identity-on-trees instead of grafting must fail
    bad = check_duality_criterion(
        HK, ip_ck, KT, ip_kt,
        lambda a: a.map_keys(lambda f: f.trees[0] if f.trees else rt("[]")),
        3,
    )
    assert not bad.ok
    assert bad.hypothesis in ("a", "b", "c")
    assert bad.counterexample
