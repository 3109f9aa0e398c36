"""The symmetric functions against sympy's polynomials in 3 and 4 variables:
the SYM product, the e rows in the monomial basis (``e_to_m_row``) and the
m rows in the elementary basis (``m_to_e``).

In N variables m_lam vanishes when lam has more than N parts, and e_k when
k > N.  The other m_lam stay linearly independent, and e_1, ..., e_N stay
algebraically independent, so each comparison is exact on the terms that
survive."""

from math import prod

import pytest

pytest.importorskip("sympy")
from sympy import Poly, symbols  # noqa: E402
from sympy.polys.polyfuncs import symmetrize  # noqa: E402
from sympy.polys.specialpolys import symmetric_poly  # noqa: E402
from sympy.utilities.iterables import multiset_permutations  # noqa: E402

from treehopf.foundations import LinComb, compositions_of, partitions_of  # noqa: E402
from treehopf.symfun import SYM, e_to_m_row, m_to_e  # noqa: E402

DEGREE = 6


@pytest.fixture(params=(3, 4), ids=lambda n: f"{n} variables")
def xs(request):
    return symbols(f"x1:{request.param + 1}")


def monomial(lam, xs) -> Poly:
    """m_lam in the variables xs: one monomial per distinct rearrangement of
    lam padded with zeros."""
    if len(lam) > len(xs):
        return Poly(0, *xs)
    padded = list(lam) + [0] * (len(xs) - len(lam))
    return Poly.from_dict({tuple(a): 1 for a in multiset_permutations(padded)}, *xs)


def elementary(k, xs) -> Poly:
    return Poly(symmetric_poly(k, *xs) if k <= len(xs) else 0, *xs)


def in_monomials(a: LinComb, xs) -> Poly:
    return sum((c * monomial(lam, xs) for lam, c in a.items()), Poly(0, *xs))


def test_sym_product_is_polynomial_multiplication(xs):
    for n in range(DEGREE + 1):
        for i in range(n + 1):
            for lam in partitions_of(i):
                for mu in partitions_of(n - i):
                    got = SYM.product(LinComb.single(lam), LinComb.single(mu))
                    assert in_monomials(got, xs) == monomial(lam, xs) * monomial(mu, xs), (
                        lam, mu)


def test_e_rows_are_products_of_elementary_polynomials(xs):
    for n in range(DEGREE + 1):
        for comp in compositions_of(n):
            want = prod((elementary(k, xs) for k in comp), start=Poly(1, *xs))
            assert in_monomials(e_to_m_row(comp), xs) == want, comp


def test_m_rows_match_sympys_elementary_expansion(xs):
    for n in range(DEGREE + 1):
        for lam in partitions_of(n):
            want, rest, defs = symmetrize(monomial(lam, xs).as_expr(), *xs, formal=True)
            assert rest == 0
            s = [None] + [sym for sym, _ in defs]  # s[k] stands for e_k
            got = sum(
                c * prod(s[k] for k in mu)
                for mu, c in m_to_e(LinComb.single(lam)).items()
                if all(k <= len(xs) for k in mu)
            )
            assert Poly(got, *s[1:]) == Poly(want, *s[1:]), lam
