"""Linear-combination container and integer-combinatorics helpers."""

import ast
import math
import pathlib
import random
from fractions import Fraction

import treehopf
from treehopf import foundations
from treehopf.foundations import (
    LinComb,
    clear_caches,
    compositions_of,
    multiset_splits,
    partitions_of,
    pi_forget,
    rearrangements,
)
from treehopf.verify import SUITE_NAMES, run_suite


def test_lincomb_zero_pruning():
    a = LinComb.single("x") - LinComb.single("x")
    assert not a
    assert len(a) == 0
    assert a == LinComb.zero()
    assert a["x"] == 0


def test_lincomb_arithmetic():
    a = LinComb.single("x", 2) + LinComb.single("y", -1)
    b = LinComb.single("x", Fraction(1, 2))
    c = a + b
    assert c["x"] == Fraction(5, 2)
    assert c["y"] == -1
    assert (3 * b)["x"] == Fraction(3, 2)
    assert (b * 3)["x"] == Fraction(3, 2)
    assert (0 * a) == LinComb.zero()
    assert (-a)["y"] == 1
    assert (a - a) == LinComb.zero()


def test_lincomb_random_vector_axioms():
    rng = random.Random(4021)
    keys = "abcde"
    for _ in range(50):
        def rand():
            return sum(
                (LinComb.single(k, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                 for k in keys),
                LinComb.zero(),
            )
        u, v, w = rand(), rand(), rand()
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert s * (u + v) == s * u + s * v
        assert u + LinComb.zero() == u


def test_lincomb_apply_linear():
    # send x to 2y + z, y to zero
    def img(key):
        if key == "x":
            return LinComb.single("y", 2) + LinComb.single("z")
        return LinComb.zero()

    a = LinComb.single("x", 3) + LinComb.single("y", 7)
    out = a.apply_linear(img)
    assert out == LinComb.single("y", 6) + LinComb.single("z", 3)


def test_lincomb_map_filter_tensor():
    a = LinComb.single("x") + LinComb.single("yy", 2)
    assert a.map_keys(len) == LinComb.single(1) + LinComb.single(2, 2)
    assert a.filter_keys(lambda k: k == "x") == LinComb.single("x")
    t = LinComb.tensor(LinComb.single("a", 2), LinComb.single("b", 3))
    assert t == LinComb.single(("a", "b"), 6)


def test_compositions_count_and_content():
    # 2^(n-1) compositions of n
    for n in range(1, 9):
        comps = compositions_of(n)
        assert len(comps) == 2 ** (n - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n and all(p >= 1 for p in c) for c in comps)
    assert compositions_of(0) == ((),)
    assert set(compositions_of(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def test_partitions_count():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(expected):
        parts = partitions_of(n)
        assert len(parts) == want
        assert all(tuple(sorted(p, reverse=True)) == p for p in parts)
        assert all(sum(p) == n for p in parts)


def test_pi_forget():
    assert pi_forget((1, 3, 1, 2)) == (3, 2, 1, 1)
    assert pi_forget(()) == ()


def test_rearrangements_multinomial():
    # count of distinct orderings of a partition is the multinomial
    for part in [(2, 1), (1, 1, 1), (3, 2, 2, 1), (4,), (2, 2, 1, 1)]:
        seen = rearrangements(part)
        mult = {}
        for x in part:
            mult[x] = mult.get(x, 0) + 1
        want = math.factorial(len(part))
        for c in mult.values():
            want //= math.factorial(c)
        assert len(seen) == want
        assert len(set(seen)) == len(seen)
        assert all(pi_forget(c) == tuple(sorted(part, reverse=True)) for c in seen)


def test_multiset_splits_count_the_two_colourings():
    for items in [(), (3,), (2, 1), (1, 1, 1), (3, 2, 2, 1), ("b", "a", "b", "b")]:
        splits = list(multiset_splits(items))
        assert sum(count for _, _, count in splits) == 2 ** len(items)
        assert len({(l, r) for l, r, _ in splits}) == len(splits)
        for left, right, _ in splits:
            assert sorted(left + right) == sorted(items)
    assert list(multiset_splits("aab")) == [
        ((), ("a", "a", "b"), 1), (("b",), ("a", "a"), 1),
        (("a",), ("a", "b"), 2), (("a", "b"), ("a",), 2),
        (("a", "a"), ("b",), 1), (("a", "a", "b"), (), 1)]


# ------------------------------------------------------------ cache registry

def _cache_sizes():
    """The number of entries in every registered cache."""
    sizes = []
    for clear in foundations._CLEARS:
        cache = clear.__self__
        sizes.append(len(cache) if isinstance(cache, dict) else cache.cache_info().currsize)
    return sizes


def test_clear_caches_empties_every_registered_cache():
    from treehopf import KT, SYM, morphisms, symfun, trees

    registered = {id(clear.__self__) for clear in foundations._CLEARS}
    for cache in (KT._prod_memo, SYM._antipode_memo, trees.enumerate_rooted,
                  trees._FIBER, symfun.e_to_m_row, morphisms._ZSTAR_MEMO):
        assert id(cache) in registered

    first = [run_suite(name, 3).to_dict() for name in SUITE_NAMES]
    assert sum(_cache_sizes()) > 0
    clear_caches()
    assert set(_cache_sizes()) == {0}
    assert [run_suite(name, 3).to_dict() for name in SUITE_NAMES] == first


def _memo_definitions(tree):
    """Imports of functools caches, and empty dicts bound to a module-level
    name or to a ``*_memo`` attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in ("cache", "lru_cache")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "functools"]
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        empty = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
            and not value.args and not value.keywords)
        if not empty:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and node in tree.body:
                found.append(target.id)
            elif isinstance(target, ast.Attribute) and target.attr.endswith("_memo"):
                found.append(target.attr)
    return found


def test_every_cache_goes_through_the_registry():
    package = pathlib.Path(treehopf.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name == "foundations.py":
            continue
        assert _memo_definitions(ast.parse(path.read_text())) == [], path.name
    assert _memo_definitions(ast.parse("import functools\nfrom functools import lru_cache\n"
                                       "_T = {}\n_U: dict = dict()\n"
                                       "class A:\n    def f(self):\n        self._x_memo = {}\n"
                                       "        local = {}\n")) == [
        "functools", "lru_cache", "_T", "_U", "_x_memo"]


def _accumulations(tree):
    """Top-level functions and methods (``Class.method``) that add to or
    subtract from a ``d.get(k, 0)`` lookup: a sparse sum written by hand."""

    def get_or_zero(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == 0)

    def sums(node):
        return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub))
                   and (get_or_zero(sub.left) or get_or_zero(sub.right))
                   for sub in ast.walk(node))

    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, ast.FunctionDef)]
        else:
            scopes.append((getattr(node, "name", "<module>"), node))
    return [name for name, node in scopes if sums(node)]


def test_sparse_sums_outside_foundations_go_through_lincomb():
    # the exceptions, each still present: an output-sensitive DP over
    # splits, an oracle kept independent of LinComb, and an in-place integer
    # row update
    allowed = {"symfun.NoncommutativeSymmetricFunctions.coproduct_key",
               "morphisms._kbar_forest", "verify._clear"}
    package = pathlib.Path(treehopf.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "foundations.py":
            found |= {f"{path.stem}.{name}" for name in _accumulations(ast.parse(path.read_text()))}
    assert found == allowed, (found - allowed, allowed - found)
    assert _accumulations(ast.parse(
        "def f(d):\n    def g():\n        d[1] = d.get(1, 0) + 2\n"
        "class A:\n    def g(self, d):\n        x = d.get(2, 0) - 1\n"
        "    def h(self, d):\n        return d.get(3, 0) != 1\n"
        "total = {}.get(4, 0) + 1\n")) == ["f", "A.g", "<module>"]


def _lincomb_subclasses(tree):
    """Classes whose bases name ``LinComb``."""
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", getattr(base, "attr", None)) == "LinComb"
                    for base in node.bases)]


def test_lincomb_is_the_only_vector_type():
    package = pathlib.Path(treehopf.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert _lincomb_subclasses(ast.parse(path.read_text())) == [], path.name
    assert _lincomb_subclasses(ast.parse(
        "class A(LinComb):\n    pass\nclass B(foundations.LinComb):\n    pass\n"
        "class C(HopfAlgebra):\n    pass\n")) == ["A", "B"]
