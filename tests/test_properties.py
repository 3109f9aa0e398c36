"""Property tests, seeded and reproducible: every text ends in an element or
a refusal, printing is a fixed point of parsing, and above the suites'
caps the free algebras keep their Hopf rules and the quasi-shuffle product
agrees with polynomial multiplication."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treehopf.cli import ALGEBRAS, parse_element  # noqa: E402
from treehopf.foundations import LinComb  # noqa: E402
from treehopf.hopf import tensor_mult  # noqa: E402
from treehopf.symfun import QSYM, expand_truncated  # noqa: E402

from test_sparse_oracles import polynomial_product  # noqa: E402

# seeded by the test's own source; no example database is read or written
SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=400)

# every character the grammar gives a meaning to, digits included, and
# whole numbers up to 10^8, so that large shorthand and chain indices come up
GRAMMAR = "[]() ,+-*/lpehmMEx0123456789"
TEXTS = st.one_of(
    st.lists(st.one_of(st.sampled_from(GRAMMAR), st.integers(0, 10**8).map(str)),
             max_size=16).map("".join),
    st.builds("{}{}".format, st.sampled_from("ehpl"), st.integers(0, 10**8)),
)

SEVEN = ("kt", "ck", "kp", "hf", "sym", "qsym", "nsym")


@SEEDED
@given(st.sampled_from(sorted(ALGEBRAS)), TEXTS)
def test_any_text_parses_or_is_refused(context, text):
    try:
        got = parse_element(text, context)
    except ValueError:
        return
    assert isinstance(got, LinComb)


def _elements(alg):
    """Sums of up to four basis elements of degree at most 4, with nonzero
    rational coefficients."""
    keys = st.integers(0, 4).flatmap(lambda n: st.sampled_from(alg.basis(n)))
    coeffs = st.fractions(-5, 5, max_denominator=6).filter(bool)
    return st.lists(st.tuples(keys, coeffs), max_size=4).map(LinComb)


@SEEDED
@given(st.sampled_from(SEVEN).flatmap(
    lambda name: st.tuples(st.just(name), _elements(ALGEBRAS[name]))))
def test_print_parse_print_is_a_fixed_point(case):
    context, element = case
    alg = ALGEBRAS[context]
    printed = alg.format(element)
    again = parse_element(printed, context)
    assert again == element
    assert alg.format(again) == printed


def _above_the_caps(alg):
    """Sums of two or three basis elements of degree 6 to 9, with nonzero
    integer coefficients."""
    keys = st.integers(6, 9).flatmap(lambda n: st.sampled_from(alg.basis(n)))
    terms = st.tuples(keys, st.integers(-3, 3).filter(bool))
    return st.lists(terms, min_size=2, max_size=3).map(LinComb)


# 40 examples take about 3 s
@settings(SEEDED, max_examples=40)
@given(st.sampled_from(("ck", "hf", "nsym")).map(ALGEBRAS.get).flatmap(
    lambda alg: st.tuples(st.just(alg), _above_the_caps(alg), _above_the_caps(alg))))
def test_free_algebras_keep_their_hopf_rules_above_the_caps(case):
    alg, x, y = case
    xy = alg.product(x, y)
    assert alg.coproduct(xy) == tensor_mult(alg, alg.coproduct(x), alg.coproduct(y))
    # S of xy key by key: the term bounds of a product of degree up to 18
    # may add up past the cap that ``antipode`` refuses above
    assert xy.apply_linear(alg.antipode_key) == alg.product(alg.antipode(y), alg.antipode(x))
    # (S (x) id), then the product: the counit of x times the unit
    s_id = alg.coproduct(x).apply_linear(
        lambda pair: alg.product(alg.antipode_key(pair[0]), LinComb.single(pair[1])))
    assert s_id == alg.counit(x) * alg.one()


def _homogeneous(alg, n):
    """Sums of two or three basis elements of degree n, with nonzero
    rational coefficients."""
    terms = st.tuples(st.sampled_from(alg.basis(n)),
                      st.fractions(-5, 5, max_denominator=6).filter(bool))
    return st.lists(terms, min_size=2, max_size=3).map(LinComb)


# the suite checks basis keys with coefficient 1 through degree 8; these
# are sums with fraction coefficients of combined degree 9 or 10, and 20
# examples take about 3 s
@settings(SEEDED, max_examples=20)
@given(st.integers(9, 10).flatmap(lambda n: st.integers(1, n - 1).flatmap(
    lambda i: st.tuples(st.just(n), _homogeneous(QSYM, i), _homogeneous(QSYM, n - i)))))
def test_quasi_shuffle_realizes_polynomial_multiplication_above_the_cap(case):
    n, x, y = case
    assert expand_truncated(QSYM.product(x, y), n) == polynomial_product(
        expand_truncated(x, n), expand_truncated(y, n))
