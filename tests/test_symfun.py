"""Composition and partition Hopf algebras and the polynomial realization."""

import random
from fractions import Fraction

import pytest

from treehopf.foundations import (
    LinComb,
    compositions_of,
    partitions_of,
    pi_forget,
    rearrangements,
)
from treehopf.symfun import (
    NSYM,
    QSYM,
    SYM,
    alpha_minus,
    alpha_minus_dual,
    alpha_plus,
    alpha_plus_dual,
    collect_sym,
    e,
    e_to_m,
    expand_truncated,
    h,
    include_sym,
    m_to_e,
    p,
    polynomial_product,
)

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
    with pytest.raises(ValueError):
        collect_sym(s((2, 1)))  # misses its rearrangement partner
    with pytest.raises(ValueError):
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
            assert e_to_m(m_to_e(s(la))) == s(la)
            assert m_to_e(e_to_m(s(la))) == s(la)
    assert m_to_e(s((2,))) == s((1, 1)) - 2 * s((2,))
    assert e_to_m(s((1, 1))) == 2 * s((1, 1)) + s((2,))


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
