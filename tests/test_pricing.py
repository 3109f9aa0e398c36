"""The one pricing rule that ``hopf`` states: every bound on the terms of a
public operation is never below the count it bounds, and equals it where
its docstring says it is exact; ``check_terms`` is called only at the
public entries; and no kernel and no verification suite reaches a priced
algebra entry."""

import ast
import pathlib
from itertools import chain, count, repeat

import pytest

import treehopf
from treehopf.cli import parse_element
from treehopf.foundations import LinComb, clear_caches, compositions_of, partitions_of
from treehopf.hopf import (
    COUNT_LIMIT,
    TERM_CAP,
    HopfAlgebra,
    capped_binomial,
    capped_counts,
    capped_power,
    capped_product,
    capped_sum,
)
from treehopf.hopf_planar import HF, KP
from treehopf.hopf_rooted import HK, KT, GraftingAlgebra, corolla
from treehopf.morphisms import (
    Z,
    Z_star,
    _level_bound,
    _level_terms,
    _tau_terms,
    _z_terms,
    kbar,
    tau,
)
from treehopf.pairings import _key_pairs
from treehopf.symfun import NSYM, QSYM, SYM, _m_to_e_terms, _partitions_at_most, h, m_to_e_row
from treehopf.trees import forests_of_degree, is_ladder
from treehopf.verify import SUITE_NAMES, run_suite

from test_foundations import _scopes

s = LinComb.single
ALGEBRAS = (KT, HK, KP, HF, SYM, QSYM, NSYM)


def _one_ladder(f):
    return len(f.trees) < 2 and all(map(is_ladder, f.trees))


def _one_ladder_or_corolla(f):
    return _one_ladder(f) or len(f.trees) == 1 and not any(c.children for c in f.trees[0].children)


# algebra -> (the keys on which coproduct_terms is exact, those on which
# antipode_terms is, and whether pair_terms is), as the docstrings say
EXACT = {
    "kt": (lambda t: True, lambda t: len(t.children) < 2, False),
    "kp": (lambda t: True, lambda t: len(t.children) < 2, False),
    "ck": (_one_ladder_or_corolla, lambda f: not f.trees, True),
    "hf": (_one_ladder_or_corolla, _one_ladder, True),
    "sym": (lambda lam: True, lambda lam: set(lam) <= {1}, False),
    "qsym": (lambda comp: True, lambda comp: True, False),
    "nsym": (lambda comp: len(comp) < 2 or set(comp) == {1}, lambda comp: True, True),
}


def _tight(bound, count, exact):
    """Whether ``bound`` is at least ``count``, and equal to it if ``exact``."""
    return bound == count if exact else bound >= count


def check_bounds(alg, d):
    """Assert each bound of ``alg`` against the count it bounds, on every
    key and key pair through degree d: ``degree_terms``, ``coproduct_terms``,
    ``antipode_terms``, ``pair_terms`` and ``product_terms``."""
    cop_exact, anti_exact, pair_exact = EXACT[alg.name]
    for n in range(d + 1):
        assert alg.degree_terms(n) == len(alg.basis(n)), n
        for key in alg.basis(n):
            assert _tight(alg.coproduct_terms(key), len(alg._ck(key)), cop_exact(key)), key
            assert _tight(alg.antipode_terms(key), len(alg.antipode_key(key)),
                          anti_exact(key)), key
        for k1, k2 in _key_pairs(alg.basis, n):
            terms = len(alg._pk(k1, k2))
            assert _tight(alg.pair_terms(k1, k2, n), terms, pair_exact), (k1, k2)
            assert alg.product_terms(s(k1), s(k2)) >= terms, (k1, k2)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: alg.name)
def test_the_bounds_of_each_algebra_hold_through_degree_6(alg):
    check_bounds(alg, 6)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: alg.name)
def test_a_pair_bound_one_below_fails_the_check(alg, monkeypatch):
    pair_terms = alg.pair_terms
    monkeypatch.setattr(alg, "pair_terms", lambda k1, k2, n: pair_terms(k1, k2, n) - 1)
    with pytest.raises(AssertionError):
        check_bounds(alg, 6)


def test_the_ladder_bounds_are_exact_far_above_the_caps():
    # c(l_k) = k + 1 on ck and hf, and a run of m equal trees of ck takes
    # a multiset of m of their terms: m leaves, m + 1
    assert HK.coproduct_terms(next(iter(parse_element("l1000", "ck")))) == 1001
    assert HF.coproduct_terms(next(iter(parse_element("l1000", "hf")))) == 1001
    leaves = next(iter(parse_element(" ".join(["[]"] * 40), "ck")))
    assert HK.coproduct_terms(leaves) == len(HK._ck(leaves)) == 41
    # the 17-leaf corolla: its leaves split as j on the left, 17 - j on the
    # right, ordered or not, and the tree itself on the left
    for alg in (HK, HF):
        (tree,) = parse_element("[" + "[]" * 17 + "]", alg.name)
        assert alg.coproduct_terms(tree) == len(alg._ck(tree)) == 19, alg.name
    # E(1^k): k + 1 terms, where the product over the parts is 2^k
    for k in (17, 100):
        assert NSYM.coproduct_terms((1,) * k) == len(NSYM._ck((1,) * k)) == k + 1


def test_the_map_bounds_hold():
    for n in range(8):
        for comp in compositions_of(n):
            image = Z(s(comp))
            assert _tight(_z_terms(comp), len(image), len(comp) < 2), comp
            assert _tau_terms(comp) >= len(tau(s(comp))), comp
        for f in forests_of_degree(n):
            terms = len(Z_star(s(f)))
            assert _level_terms(f) >= terms == len(kbar(s(f))), f
            assert _level_bound(s(f)) >= terms, f
    for n in range(13):
        for lam in partitions_of(n):
            assert _m_to_e_terms(lam) >= len(m_to_e_row(lam)), lam
        assert _partitions_at_most(n, n) == len(h(n))


def test_the_kt_antipode_of_the_14_leaf_corolla_is_within_the_cap():
    # every tree of 15 vertices: priced by its terms, not by the products
    # of the recursion, which the graft budget does not guard
    assert KT.antipode_terms(corolla(14)) == 87_811 <= TERM_CAP


def _reading(items, read):
    """``items``, each appended to the list ``read`` as it is read."""
    for item in items:
        read.append(item)
        yield item


@pytest.mark.parametrize("helper, items, most", [
    (capped_sum, lambda: count(10**8), 10),
    (capped_sum, lambda: (2**k for k in count()), 30),
    (capped_product, lambda: count(1), 13),
    (capped_product, lambda: repeat(2), 30),
    (lambda counts: capped_counts(counts, 10**40)[-1], lambda: (2**k for k in count()), 31),
], ids=["sum-count", "sum-powers", "product-count", "product-repeat", "counts-powers"])
def test_a_capped_count_reads_an_endless_iterator_only_to_the_limit(helper, items, most):
    read = []
    assert helper(_reading(items(), read)) == COUNT_LIMIT + 1
    assert len(read) == most


def test_capped_counts_at_their_edges():
    # a zero factor read first ends the product, however large the rest
    read = []
    assert capped_product(_reading(chain([0], repeat(2, 100)), read)) == 0
    assert read == [0]
    huge = int("9" * 4000)
    assert capped_binomial(3, 5) == capped_binomial(0, 1) == 0
    assert capped_binomial(huge, 0) == capped_binomial(huge, huge) == 1
    assert capped_binomial(huge, 1) == capped_binomial(huge, huge - 1) == COUNT_LIMIT + 1
    assert capped_binomial(40, 20) == COUNT_LIMIT + 1 and capped_binomial(30, 15) == 155_117_520
    assert capped_power(2, huge) == capped_power(huge, 2) == COUNT_LIMIT + 1
    assert capped_power(1, huge) == capped_power(huge, 0) == 1 and capped_power(0, huge) == 0
    assert capped_power(2, 29) == 2**29 and capped_power(2, 30) == COUNT_LIMIT + 1


# ------------------------------------------------------- where the rule runs

def _calls(path, wanted):
    """``module.Class.method``, ``module.function`` or ``module.<module>``
    for each scope of the module at ``path`` that holds a call whose callee
    node satisfies ``wanted``."""
    return {f"{path.stem}.{name}" for name, node in _scopes(ast.parse(path.read_text()))
            if any(isinstance(sub, ast.Call) and wanted(sub.func) for sub in ast.walk(node))}


def _package_calls(wanted):
    package = pathlib.Path(treehopf.__file__).parent
    return set().union(*(_calls(path, wanted) for path in sorted(package.glob("*.py"))))


def test_check_terms_is_called_only_at_the_public_entries():
    assert _package_calls(lambda f: getattr(f, "id", None) == "check_terms") == {
        "hopf.HopfAlgebra.product", "hopf.HopfAlgebra.coproduct", "hopf.HopfAlgebra.antipode",
        "morphisms.tau", "morphisms.Z", "morphisms.Z_star", "morphisms.kbar",
        "symfun.h", "symfun.m_to_e_row", "cli._cmd_enumerate", "cli._cmd_expand",
    }


def test_only_hopf_caps_a_count():
    # every other module counts by hopf's capped helpers: none names the
    # limit or clamps a power to its bit length
    package = pathlib.Path(treehopf.__file__).parent
    naming = {path.stem for path in package.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if "COUNT_LIMIT" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None))}
    assert naming == {"hopf"}
    clamps = _package_calls(lambda f: getattr(f, "attr", None) == "bit_length")
    assert {name.split(".")[0] for name in clamps} == {"hopf"}


def test_no_kernel_calls_a_priced_algebra_entry():
    # the calls are the grafting product's and antipode's own, after their
    # graft budget; the CLI reaches the entries by the command's name
    priced = {"product", "coproduct", "antipode"}
    assert _package_calls(lambda f: getattr(f, "attr", None) in priced) == {
        "hopf_rooted.GraftingAlgebra.product", "hopf_rooted.GraftingAlgebra.antipode"}


def test_no_suite_reaches_a_priced_algebra_entry(monkeypatch):
    def priced(*args):
        raise AssertionError("a priced entry was reached")

    clear_caches()
    for cls, attr in ((HopfAlgebra, "product"), (HopfAlgebra, "coproduct"),
                      (HopfAlgebra, "antipode"), (GraftingAlgebra, "product"),
                      (GraftingAlgebra, "antipode")):
        monkeypatch.setattr(cls, attr, priced)
    with pytest.raises(AssertionError, match="priced entry"):
        KP.product(KP.one(), KP.one())
    for name in SUITE_NAMES:
        assert run_suite(name).ok, name
    clear_caches()
