"""Property tests of the element parser, seeded and reproducible: every text
ends in an element or a refusal, and printing is a fixed point of parsing."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from treehopf.cli import ALGEBRAS, parse_element  # noqa: E402
from treehopf.foundations import LinComb  # noqa: E402

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

