"""The nine structure-preserving maps and the commuting identities
linking them."""

from fractions import Fraction
from math import factorial, prod

import pytest

import treehopf.morphisms
from treehopf.foundations import LinComb, clear_caches, compositions_of, partitions_of
from treehopf.hopf import COUNT_LIMIT, TERM_CAP, tensor_map
from treehopf.hopf_rooted import KT, HK, epsilon, kappa
from treehopf.hopf_planar import HF, KP
from treehopf.symfun import NSYM, QSYM, SYM, _partitions_at_most, e, h, include_sym
from treehopf.morphisms import (
    MAP_TABLE,
    Phi,
    Phi_star,
    Z,
    _KBAR_MEMO,
    _LEAF_STRIPS,
    _ZSTAR_MEMO,
    _level_terms,
    _z_terms,
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


def test_tau_above_the_term_cap_is_refused_before_any_row(monkeypatch):
    # a monomial of e_alpha has exponents of at most len(alpha), so the
    # partitions of |alpha| into at most len(alpha) parts bound its terms
    for n in range(11):
        for comp in compositions_of(n):
            assert _partitions_at_most(n, len(comp)) >= len(tau(s(comp))), comp

    def row(comp):
        raise AssertionError("a row was made")

    monkeypatch.setattr(treehopf.morphisms, "e_to_m_row", row)
    for parts, text in ((60, "up to 966,467"), (500, "more than 1,000,000,000")):
        with pytest.raises(ValueError) as refusal:
            tau(s((1,) * parts))
        assert str(refusal.value) == (f"this image under tau would have {text} terms; "
                                      f"the cap is {TERM_CAP:,}")


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


def _levels(t):
    """The most vertices on a path from the root of t."""
    return 1 + max(map(_levels, t.children), default=0)


def test_Z_term_bound_is_never_below_the_count_and_exact_on_generators():
    for n in range(9):
        for comp in compositions_of(n):
            image = Z(s(comp))
            assert _z_terms(comp) >= len(image), comp
            # each product by an epsilon adds at most one level
            assert max(map(_levels, image)) <= len(comp) + 1, comp
    for n in range(40):
        assert _z_terms((n,) if n else ()) == 1
    # two 10-leaf corollas graft in C(20, 10) ways, onto trees of 21
    # vertices and 3 levels, a root over stars: p(20) of them; and 500
    # parts of 1 pass the limit
    assert _z_terms((10, 10)) == 627
    assert _z_terms((1,) * 500) == _z_terms((10**9, 10**9)) == COUNT_LIMIT + 1


def test_level_term_bound_is_never_below_the_count_through_degree_8():
    # a term of Z_star(f) or kbar(f) is a composition of |f| into at least
    # as many parts as the longest path from a root to a leaf has vertices
    for n in range(9):
        for f in forests_of_degree(n):
            assert _level_terms(f) >= len(Z_star(s(f))), f
    assert _level_terms(forest(ladder(1000).encoding)) == 1
    assert _level_terms(Forest([rt("[]")] * 990)) == COUNT_LIMIT + 1
    # the 17-leaf corolla's root comes last, alone: 2^16 terms, as its leaves
    assert _level_terms(forest("[" + "[]" * 17 + "]")) == 2**16


@pytest.mark.parametrize("name, fn, key_rule, element, text", [
    ("Z", Z, "_z_key", s((1,) * 500), "more than 1,000,000,000"),
    ("Z", Z, "_z_key", s((1,) * 15), "up to 235,381"),
    ("Zstar", Z_star, "_zstar_key", s(forest(ladder(500).encoding, ladder(500).encoding)),
     "more than 1,000,000,000"),
    ("kbar", kbar, "_kbar_forest", s(Forest([rt("[]")] * 990)), "more than 1,000,000,000"),
    ("kbar", kbar, "_kbar_forest", s(Forest([rt("[]")] * 18)), "up to 131,072"),
], ids=["Z-1^500", "Z-1^15", "Zstar-l500-l500", "kbar-990-leaves", "kbar-18-leaves"])
def test_images_above_the_term_cap_are_refused_before_any_term(name, fn, key_rule, element,
                                                               text, monkeypatch):
    def start(key):
        raise AssertionError("a key's image was started")

    monkeypatch.setattr(treehopf.morphisms, key_rule, start)
    with pytest.raises(ValueError) as refusal:
        fn(element)
    assert str(refusal.value) == (f"this image under {name} would have {text} terms; "
                                  f"the cap is {TERM_CAP:,}")


def test_Z_star_values():
    assert Z_star(s(forest("[]"))) == s((1,))
    assert Z_star(s(forest("[[]]"))) == s((1, 1))
    assert Z_star(s(forest("[[][]]"))) == s((1, 1, 1), 2) + s((2, 1))
    got = Z_star(s(forest("[[][[]]]")))
    want = s((1, 1, 1, 1), 3) + s((2, 1, 1)) + s((1, 2, 1))
    assert got == want
    # multiplicative on disjoint unions
    assert Z_star(s(forest("[]", "[]"))) == QSYM.product(s((1,)), s((1,)))
    # memoized by the interned forests themselves, the smaller ones included
    assert _ZSTAR_MEMO and all(type(f) is Forest for f in _ZSTAR_MEMO)
    assert forest("[[]]") in _ZSTAR_MEMO


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


def _multinomial(parts):
    return factorial(sum(parts)) // prod(map(factorial, parts))


def test_kbar_closed_forms_at_14_vertices():
    # each of n isolated vertices is a leaf until it is removed, so a run
    # of leaf stripping is an ordered set partition of them; the n leaves
    # of the corolla go the same way, and its root, a leaf only once they
    # are gone, comes last, alone
    leaf = rt("[]")
    isolated = kbar(s(Forest([leaf] * 14)))
    corolla = kbar(s(forest("[" + "[]" * 14 + "]")))
    want = {alpha: _multinomial(alpha) for alpha in compositions_of(14)}
    assert dict(isolated.items()) == want
    assert dict(corolla.items()) == {alpha + (1,): c for alpha, c in want.items()}
    assert {type(c) for _, c in isolated.items()} == {int}


def test_kbar_and_Z_star_memos_are_registered():
    assert kbar(s(forest("[[]]", "[]"))) == Z_star(s(forest("[[]]", "[]")))
    assert _KBAR_MEMO and _LEAF_STRIPS and _ZSTAR_MEMO
    clear_caches()
    assert not (_KBAR_MEMO or _LEAF_STRIPS or _ZSTAR_MEMO)


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


# ------------------------------------------------ every map is a Hopf morphism

# the free domains: a key is the product of its generators
FREE = (NSYM, HK, HF)


def _generators(alg, n):
    """Algebra generators of degree n >= 1: E_n, e_n = m(1^n), the one-tree
    forests, and every key of KT and KP."""
    if alg is NSYM:
        return [(n,)]
    if alg is SYM:
        return [(1,) * n]
    if alg in FREE:
        return [f for f in alg.basis(n) if len(f.trees) == 1]
    return alg.basis(n)


def _hopf_morphism_failure(dom, cod, fn, d):
    """The first case of degree <= d on which fn: dom -> cod is not a Hopf
    morphism, or None.  On a free domain f(xy) = f(x) f(y) follows from the
    case of a generator x and any key y, by induction on the factors of x;
    other domains take every key pair.  Once f and both coproducts are
    algebra morphisms, f is a coalgebra morphism if it is one on algebra
    generators (Grinberg-Reiner, Hopf Algebras in Combinatorics, ch. 1).
    Unit and counit are checked on every key."""

    def image(key):
        return fn(s(key))

    lefts = _generators if dom in FREE else lambda alg, i: alg.basis(i)
    if fn(dom.one()) != cod.one():
        return ("unit",)
    for n in range(d + 1):
        for key in dom.basis(n):
            if cod.counit(image(key)) != dom.counit(s(key)):
                return "counit", key
    for n in range(1, d + 1):
        for i in range(1, n + 1):
            for x in lefts(dom, i):
                for y in dom.basis(n - i):
                    if fn(dom.product(s(x), s(y))) != cod.product(image(x), image(y)):
                        return "product", x, y
        for g in _generators(dom, n):
            if cod.coproduct(image(g)) != tensor_map(dom.coproduct(s(g)), image, image):
                return "coproduct", g
    return None


def test_every_map_is_a_hopf_morphism_through_degree_6():
    for name, (dom, cod, fn) in MAP_TABLE.items():
        assert _hopf_morphism_failure(dom, cod, fn, 6) is None, name


@pytest.mark.parametrize("name", sorted(MAP_TABLE))
@pytest.mark.parametrize("keys", [
    lambda dom: reversed(dom.basis(6)),  # a product of generators, in a free domain
    lambda dom: _generators(dom, 6),
], ids=["last key", "first generator"])
def test_a_map_wrong_on_one_degree_6_key_is_no_hopf_morphism(name, keys):
    dom, cod, fn = MAP_TABLE[name]
    key = next(k for k in keys(dom) if fn(s(k)))
    wrong = lambda x: fn(x) + fn(x.filter_keys(lambda k: k == key))
    assert _hopf_morphism_failure(dom, cod, wrong, 5) is None
    assert _hopf_morphism_failure(dom, cod, wrong, 6) is not None
