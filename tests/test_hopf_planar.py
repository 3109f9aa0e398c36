"""Planar grafting algebra and the ordered-forest algebra dual to it."""

import math

from treehopf.foundations import LinComb
from treehopf.hopf_planar import HF, KP
from treehopf.trees import (
    EMPTY_ORDERED_FOREST,
    PLANAR_LEAF,
    OrderedForest,
    enumerate_planar,
    ordered_forests_of_degree,
    planar_from_string as pt,
    planar_ladder,
)

s = LinComb.single


def of(*encs):
    return OrderedForest(tuple(pt(e) for e in encs))


def kp_el(*pairs):
    out = LinComb.zero()
    for enc, c in pairs:
        out += s(pt(enc), c)
    return out


def test_planar_product_single_into_cherry():
    got = KP.product(s(pt("[[]]")), s(pt("[[][]]")))
    assert got == kp_el(("[[][][]]", 3), ("[[[]][]]", 1), ("[[][[]]]", 1))


def test_planar_product_cherry_into_single():
    got = KP.product(s(pt("[[][]]")), s(pt("[[]]")))
    assert got == kp_el(
        ("[[][][]]", 3), ("[[[]][]]", 1), ("[[][[]]]", 1), ("[[[][]]]", 1)
    )


def test_planar_product_respects_child_order():
    # the two children of the first root keep their relative order
    left = pt("[[[]][]]")  # children: chain then leaf
    got = KP.product(s(left), s(pt("[[]]")))
    for t in got.keys():
        # wherever they land, the chain's attachment never follows the leaf's
        assert t.size == 5
    # mirrored first factors give different products
    right = pt("[[][[]]]")
    assert got != KP.product(s(right), s(pt("[[]]")))


def test_planar_attachment_count():
    # n ordered branches into a planar tree with m vertices: choose a
    # multiset of n slots among the 2m-1 gaps; for every pair of trees
    # through degree 8
    for size in range(2, 11):
        for i in range(1, size):
            for first in enumerate_planar(i):
                n = len(first.children)
                for t2 in enumerate_planar(size - i):
                    m = t2.size
                    prod = KP.product(s(first), s(t2))
                    total = sum(c for _, c in prod.items())
                    assert total == math.comb(2 * m + n - 2, n), (first, t2)


def test_planar_coproduct_prefix_splits():
    got = KP.coproduct(s(pt("[[][]]")))
    want = (
        LinComb.single((PLANAR_LEAF, pt("[[][]]")))
        + LinComb.single((pt("[[]]"), pt("[[]]")))
        + LinComb.single((pt("[[][]]"), PLANAR_LEAF))
    )
    assert got == want
    got2 = KP.coproduct(s(pt("[[[]][]]")))
    want2 = (
        LinComb.single((PLANAR_LEAF, pt("[[[]][]]")))
        + LinComb.single((pt("[[[]]]"), pt("[[]]")))
        + LinComb.single((pt("[[[]][]]"), PLANAR_LEAF))
    )
    assert got2 == want2


def test_planar_antipode():
    assert KP.antipode(s(pt("[[]]"))) == -s(pt("[[]]"))
    got = KP.antipode(s(pt("[[][]]")))
    assert got == kp_el(("[[[]]]", 1), ("[[][]]", 1))
    # convolution identity: sum of S(left) * right over coproduct terms
    # collapses to the counit part
    for n in range(1, 5):
        for t in enumerate_planar(n):
            acc = LinComb.zero()
            for (l, r), c in KP.coproduct(s(t)).items():
                acc += c * KP.product(KP.antipode(s(l)), s(r))
            want = KP.one() * KP.counit(s(t))
            assert acc == want, t.encoding


def test_ordered_forest_product_concatenates():
    a = s(of("[]"))
    b = s(of("[[]]", "[]"))
    assert HF.product(a, b) == s(of("[]", "[[]]", "[]"))
    assert HF.product(b, a) == s(of("[[]]", "[]", "[]"))
    assert HF.product(a, b) != HF.product(b, a)


def test_ordered_forest_coproduct():
    got = HF.coproduct(s(of("[[]]", "[]")))
    want = (
        LinComb.single((EMPTY_ORDERED_FOREST, of("[[]]", "[]")))
        + LinComb.single((of("[]"), of("[]", "[]")))
        + LinComb.single((of("[]"), of("[[]]")))
        + LinComb.single((of("[]", "[]"), of("[]")))
        + LinComb.single((of("[[]]"), of("[]")))
        + LinComb.single((of("[[]]", "[]"), EMPTY_ORDERED_FOREST))
    )
    assert got == want


def test_ordered_forest_antipode_and_unit():
    assert HF.antipode(s(of("[]"))) == -s(of("[]"))
    one = HF.one()
    assert one == s(EMPTY_ORDERED_FOREST)
    x = s(of("[[]]"), 2)
    assert HF.product(one, x) == x
    assert HF.product(x, one) == x
    assert HF.counit(x) == 0
    assert HF.counit(one * 7) == 7


def test_planar_grading_and_bases():
    for n in range(0, 5):
        for t in enumerate_planar(n + 1):
            assert KP.degree(t) == n
        for f in ordered_forests_of_degree(n):
            assert HF.degree(f) == n
    assert len(KP.basis(4)) == 14
    assert len(HF.basis(4)) == 14


def test_planar_ladder_powers():
    # the 1-vertex-branch tree generates ladders under iterated grafting
    # onto the chain: highest term attaches at the bottom
    x = s(planar_ladder(2))
    cube = KP.product(x, KP.product(x, x))
    assert cube[planar_ladder(4)] == 1
