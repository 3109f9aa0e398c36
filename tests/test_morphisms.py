"""The nine structure-preserving maps and the commuting identities
linking them."""

from fractions import Fraction

from treehopf.foundations import LinComb, compositions_of, partitions_of
from treehopf.hopf_rooted import KT, HK, epsilon, kappa
from treehopf.hopf_planar import HF, KP
from treehopf.symfun import NSYM, QSYM, SYM, e, h, include_sym
from treehopf.morphisms import (
    MAP_TABLE,
    Phi,
    Phi_star,
    Z,
    _ZSTAR_MEMO,
    Z_star,
    kbar,
    phi,
    phi_star,
    rho,
    rho_star,
    tau,
)
from treehopf.trees import (
    Forest,
    OrderedForest,
    RootedTree,
    enumerate_rooted,
    forests_of_degree,
    ladder,
    planar_from_string as pt,
    planar_ladder,
    rooted_from_string as rt,
)

s = LinComb.single


def forest(*encs):
    return Forest(tuple(rt(e) for e in encs))


def of(*encs):
    return OrderedForest(tuple(pt(e) for e in encs))


def test_tau_sends_generators_to_elementary():
    for n in range(1, 6):
        assert tau(s((n,))) == e(n)
    assert tau(s((2, 1))) == SYM.product(e(2), e(1))
    assert tau(NSYM.one()) == SYM.one()


def test_tau_multiplicative():
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for a in compositions_of(n1):
                for b in compositions_of(n2):
                    assert tau(NSYM.product(s(a), s(b))) == SYM.product(
                        tau(s(a)), tau(s(b))
                    )


def test_phi_sends_elementary_to_chain_forests():
    assert phi(e(2)) == s(forest("[[]]"))
    assert phi(e(3)) == s(forest("[[[]]]"))
    assert phi(SYM.product(e(2), e(1))) == s(forest("[[]]", "[]"))
    assert phi(SYM.one()) == HK.one()
    # m(2) = e(1,1) - 2 e(2) in the elementary basis
    assert phi(s((2,))) == s(forest("[]", "[]")) - 2 * s(forest("[[]]"))


def test_phi_star_on_chain_shaped_trees():
    assert phi_star(s(rt("[[][]]"))) == s((1, 1), 2)
    assert phi_star(s(rt("[[[]]]"))) == s((2,))
    assert phi_star(s(rt("[[][[]]]"))) == s((2, 1))
    # a branch that is not a chain kills the tree
    assert phi_star(s(rt("[[[][]]]"))) == LinComb.zero()
    assert phi_star(KT.one()) == SYM.one()


def test_phi_star_sends_series_to_bases():
    for n in range(0, 6):
        assert phi_star(kappa(n)) == h(n)
        assert phi_star(epsilon(n)) == e(n)


def test_Phi_builds_ordered_chain_forests():
    assert Phi(s((2, 1))) == s(of("[[]]", "[]"))
    assert Phi(s((1, 2))) == s(of("[]", "[[]]"))
    assert Phi(NSYM.one()) == HF.one()


def test_Phi_star_reads_chain_sequences():
    assert Phi_star(s(pt("[[[]][]]"))) == s((2, 1))
    assert Phi_star(s(pt("[[][[]]]"))) == s((1, 2))
    assert Phi_star(s(pt("[[[][]]]"))) == LinComb.zero()
    assert Phi_star(KP.one()) == QSYM.one()


def test_rho_forgets_order():
    assert rho(s(of("[[]]", "[]", "[]"))) == s(forest("[]", "[]", "[[]]"))
    assert rho(s(of("[[[]][]]"))) == s(forest("[[][[]]]"))
    assert rho(HF.one()) == HK.one()


def test_rho_star_spreads_over_layouts():
    assert rho_star(s(rt("[[][]]"))) == s(pt("[[][]]"), 2)
    got = rho_star(s(rt("[[][[]]]")))
    assert got == s(pt("[[][[]]]")) + s(pt("[[[]][]]"))
    assert rho_star(KT.one()) == KP.one()


def test_rho_sections():
    # forgetting order after spreading recovers the symmetry order
    for n in range(1, 6):
        for t in enumerate_rooted(n):
            spread = rho_star(s(t))
            back = rho(spread.map_keys(lambda p: OrderedForest((p,))))
            # each layout forgets back to t
            assert set(back.keys()) == {Forest((t,))}


def test_Z_on_generators():
    for n in range(0, 6):
        assert Z(s((n,)) if n else NSYM.one()) == epsilon(n)
    assert Z(s((1, 1))) == KT.product(epsilon(1), epsilon(1))
    assert Z(s((1, 1))) == s(rt("[[[]]]")) + s(rt("[[][]]"))
    assert Z(s((2, 1))) == KT.product(epsilon(2), epsilon(1))


def test_Z_star_values():
    assert Z_star(s(forest("[]"))) == s((1,))
    assert Z_star(s(forest("[[]]"))) == s((1, 1))
    assert Z_star(s(forest("[[][]]"))) == s((1, 1, 1), 2) + s((2, 1))
    got = Z_star(s(forest("[[][[]]]")))
    want = s((1, 1, 1, 1), 3) + s((2, 1, 1)) + s((1, 2, 1))
    assert got == want
    # multiplicative on disjoint unions
    assert Z_star(s(forest("[]", "[]"))) == QSYM.product(s((1,)), s((1,)))
    # memoized by the interned trees themselves
    assert _ZSTAR_MEMO and all(type(t) is RootedTree for t in _ZSTAR_MEMO)


def test_Z_star_versus_level_counting():
    # independent realization: count strictly increasing labelings from
    # the bottom, grouped by how many vertices get each label
    for n in range(0, 7):
        for f in forests_of_degree(n):
            assert kbar(s(f)) == Z_star(s(f)), f


def test_kbar_values():
    assert kbar(s(forest("[[]]"))) == s((1, 1))
    assert kbar(s(forest("[[][]]"))) == s((1, 1, 1), 2) + s((2, 1))
    assert kbar(s(forest("[]", "[]"))) == s((1, 1), 2) + s((2,))


def test_upper_square():
    # forget order after building ordered chain forests, or build
    # unordered chain forests from the symmetrization
    for n in range(0, 6):
        for c in compositions_of(n):
            assert rho(Phi(s(c))) == phi(tau(s(c))), c


def test_lower_square():
    for n in range(0, 6):
        for t in enumerate_rooted(n + 1):
            assert Phi_star(rho_star(s(t))) == include_sym(phi_star(s(t))), t


def test_left_triangle():
    for n in range(0, 6):
        for c in compositions_of(n):
            assert phi_star(Z(s(c))) == tau(s(c)), c


def test_right_triangle():
    for n in range(0, 6):
        for la in partitions_of(n):
            assert Z_star(phi(s(la))) == include_sym(s(la)), la


def test_full_circuit():
    for n in range(0, 6):
        for c in compositions_of(n):
            down = Z_star(rho(Phi(s(c))))
            around = Phi_star(rho_star(Z(s(c))))
            assert down == around, c


def test_map_table_shape():
    assert set(MAP_TABLE) == {
        "tau", "phi", "phistar", "Phi", "Phistar",
        "rho", "rhostar", "Z", "Zstar", "kbar",
    }
    for name, (dom, cod, fn) in MAP_TABLE.items():
        # every map preserves the unit
        assert fn(dom.one()) == cod.one(), name


def test_maps_preserve_grading():
    for name, (dom, cod, fn) in MAP_TABLE.items():
        for k in dom.basis(3):
            img = fn(s(k))
            for kk in img.keys():
                assert cod.degree(kk) == 3, (name, k)


def test_Z_star_rational_linearity():
    x = s(forest("[[]]"), Fraction(1, 2)) - 3 * s(forest("[]"))
    assert Z_star(x) == Fraction(1, 2) * s((1, 1)) - 3 * s((1,))


def test_hexagon_maps_give_integer_input_int_coefficients():
    # 1/n! enters through epsilon; the sums it takes part in come out
    # whole, and are then ints, not Fractions with denominator 1
    def ints(a):
        return all(type(c) is int for _, c in a.items())

    for n in range(1, 7):
        x = LinComb({comp: i + 1 for i, comp in enumerate(compositions_of(n))})
        assert ints(rho_star(Z(x)))
        assert ints(Phi_star(rho_star(Z(x))))
        assert ints(Phi_star(LinComb({t: 2 for t in KP.basis(n)})))
        assert ints(Z_star(LinComb({f: 3 for f in forests_of_degree(n)})))
        assert ints(Z_star(rho(Phi(x))))
