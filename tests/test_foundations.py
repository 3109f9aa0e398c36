"""Linear-combination container and integer-combinatorics helpers."""

import ast
import math
import pathlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import treehopf
from treehopf import foundations, pairings
from treehopf.foundations import (
    LinComb,
    clear_caches,
    compositions_of,
    memo_table,
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
    from treehopf import KT, SYM, morphisms, symfun, trees, verify

    registered = {id(clear.__self__) for clear in foundations._CLEARS}
    for cache in (KT._prod_memo, SYM._antipode_memo, trees.enumerate_rooted,
                  trees._FIBER, trees._BY_LEVELS, verify._PARTITIONS, symfun._E_TO_M,
                  symfun._M_TO_E, morphisms._Z_MEMO, morphisms._ZSTAR_MEMO, morphisms._HEIGHT):
        assert id(cache) in registered

    first = [run_suite(name, 3).to_dict() for name in SUITE_NAMES]
    assert sum(_cache_sizes()) > 0
    clear_caches()
    assert set(_cache_sizes()) == {0}
    assert [run_suite(name, 3).to_dict() for name in SUITE_NAMES] == first


def test_a_self_filling_table_fills_each_key_once_and_empties_with_the_caches():
    from treehopf import HF

    calls = []
    table = memo_table(lambda key: calls.append(key) or 2 * key)
    assert table[3] == 6 and table[3] == 6 and calls == [3]
    # only a subscript fills: get and in read what is there
    assert table.get(4) is None and 4 not in table and calls == [3]
    clear_caches()
    assert not table
    assert table[3] == 6 and calls == [3, 3]
    # an algebra's antipode table: emptied, then filled again to equal values
    first = {key: HF.antipode_key(key) for n in range(6) for key in HF.basis(n)}
    assert len(HF._antipode_memo) >= len(first)
    clear_caches()
    assert not HF._antipode_memo
    assert {key: HF._antipode_memo[key] for key in first} == first


def _counted_table(needs, fill):
    """``memo_table(fill, needs)``, with Counters of the keys whose needs
    were read and of the keys filled; each fill checks that it receives
    the very collection that its key's needs returned."""
    reads, fills, found = Counter(), Counter(), {}

    def counted_needs(k):
        reads[k] += 1
        found[k] = needs(k)
        return found[k]

    def counted_fill(k, needed):
        assert needed is found[k]
        fills[k] += 1
        return fill(table, k)

    table = memo_table(counted_fill, counted_needs)
    return table, reads, fills


def test_a_table_fills_a_chain_of_needs_deeper_than_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    table, reads, fills = _counted_table(lambda k: [k - 1] if k else [],
                                         lambda table, k: table[k - 1] + 1 if k else 0)
    assert table[n] == n and len(table) == n + 1
    # each key's needs are read once, and each key is filled once
    assert reads == fills == Counter(range(n + 1))
    # a filled key is read, not computed again
    assert table[n] == n and table[n // 2] == n // 2
    assert reads == fills == Counter(range(n + 1))


def test_a_key_two_keys_need_is_filled_once_and_a_failed_fill_leaves_no_entry():
    broken = set()

    def fibonacci(table, k):
        if k in broken:
            raise ValueError(k)
        return table[k - 1] + table[k - 2] if k > 1 else k

    table, reads, fills = _counted_table(lambda k: [k - 1, k - 2] if k > 1 else [], fibonacci)
    assert table[30] == 832_040
    assert reads == fills == Counter(range(31))
    # a fill that raises leaves no entry, and the next subscript computes
    # the key again; the keys filled before it stay
    table.clear()
    reads.clear()
    fills.clear()
    broken.add(5)
    with pytest.raises(ValueError):
        table[10]
    assert sorted(table) == [0, 1, 2, 3, 4] and fills == Counter(range(6))
    broken.clear()
    reads.clear()
    fills.clear()
    assert table[10] == 55
    assert reads == fills == Counter(range(5, 11))


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


def _name_of(node):
    """The name a call or a reference uses: ``f`` in ``f(...)`` and
    ``x.f(...)``; None for anything else."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _memo_departures(trees):
    """What departs from the one memo mechanism in the parsed modules
    ``trees``: each ``memo_table`` or ``_Table`` call without a fill (by its
    line), and each subscript written into a module-level name or an
    attribute bound to a table, which only the table itself fills (by the
    name and line)."""
    fillers = ("memo_table", "_Table")
    makers = fillers + ("multiplicative",)
    tables, departures = set(), []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name_of(node.func) in fillers:
                if not node.args and not any(k.arg == "fill" for k in node.keywords):
                    departures.append(f"{_name_of(node.func)}() at line {node.lineno}")
            if (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call)
                    and _name_of(node.value.func) in makers):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                tables |= {_name_of(target) for target in targets
                           if isinstance(target, ast.Attribute) or node in tree.body}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                departures += [f"{_name_of(target.value)}[...] = at line {node.lineno}"
                               for target in targets if isinstance(target, ast.Subscript)
                               and _name_of(target.value) in tables]
    return departures


def test_every_memo_fills_itself():
    package = pathlib.Path(treehopf.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    trees = [ast.parse(text) for text in sources.values()]
    assert _memo_departures(trees) == []
    assert not hasattr(foundations, "bottom_up") and not hasattr(treehopf.HopfAlgebra, "fold")
    # a table with no fill, which its owner grows by hand
    grown = ("\n_HAND = memo_table()\n\n\ndef count(n):\n"
             "    for m in range(len(_HAND), n + 1):\n        _HAND[m] = m\n")
    patched = [ast.parse(sources["trees.py"] + grown)] + [
        tree for name, tree in zip(sources, trees) if name != "trees.py"]
    lines = sources["trees.py"].count("\n")
    assert _memo_departures(patched) == [f"memo_table() at line {lines + 2}",
                                         f"_HAND[...] = at line {lines + 7}"]
    # a fill passed by name or keyword is a fill; a write into a table
    # that an algebra made, or into its attribute, is a departure
    assert _memo_departures([ast.parse(
        "_T = memo_table(len, needs=None)\n_U = _Table(fill=len)\n")]) == []
    assert _memo_departures([ast.parse(
        "class A:\n    def __init__(self):\n"
        "        self._x_memo = self.multiplicative(None, None)\n"
        "        self._x_memo[1] = 2\n        self._y_memo = _Table()\n")]) == [
        "_Table() at line 5", "_x_memo[...] = at line 4"]


def _scopes(tree):
    """(name, node) for each top-level statement of a module, a method
    named ``Class.method``, and any other statement ``<module>``."""
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, ast.FunctionDef)]
        else:
            scopes.append((getattr(node, "name", "<module>"), node))
    return scopes


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

    return [name for name, node in _scopes(tree) if sums(node)]


def _prunings(tree):
    """Top-level functions and methods with a ``del d[key]`` statement: a
    summing loop that prunes the entry a term cancelled."""

    def prunes(node):
        return any(isinstance(sub, ast.Delete)
                   and any(isinstance(target, ast.Subscript) for target in sub.targets)
                   for sub in ast.walk(node))

    return [name for name, node in _scopes(tree) if prunes(node)]


def test_foundations_sums_in_three_loops():
    # apply_linear keeps its inline copy of _sum's loop for speed, and
    # tensor_sum its loop over the pairs of terms of each a (x) b; every
    # other sum, bilinear's and scaled_sum's included, goes through _sum
    source = pathlib.Path(foundations.__file__).read_text()
    assert _prunings(ast.parse(source)) == [
        "LinComb.apply_linear", "LinComb.tensor_sum", "_sum"]
    fourth = ("def _sum_pairs(pairs):\n    data = {}\n    for key, x in pairs:\n"
              "        data[key] = data.get(key, 0) + x\n        if not data[key]:\n"
              "            del data[key]\n    return data\n")
    assert _prunings(ast.parse(source + fourth)) == [
        "LinComb.apply_linear", "LinComb.tensor_sum", "_sum", "_sum_pairs"]
    assert _prunings(ast.parse(
        "class A:\n    def f(self, d):\n        del d[1], self.x\n"
        "    def g(self, d):\n        del d\n"
        "def h(d):\n    d.pop(1)\n")) == ["A.f"]


def test_the_loops_outside_foundations_that_prune_a_sum_are_named():
    # the free product and tensor product (hopf) and the hopf-axioms rows
    # (verify) sum in loops of their own, for speed (CHANGES.md), each
    # checked against its generic form in test_sparse_oracles; verify's
    # integer row update and the intern table's removal are the others
    package = pathlib.Path(treehopf.__file__).parent
    found = {f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
             if path.name != "foundations.py"
             for name in _prunings(ast.parse(path.read_text()))}
    assert found == {"hopf.HopfAlgebra._times", "hopf.tensor_mult", "verify._coassoc_sides",
                     "verify._convolutions", "verify._clear", "trees._InternTable._remove"}


def test_sparse_sums_outside_foundations_go_through_lincomb():
    # the exceptions, each still present: an oracle kept independent of
    # LinComb (kbar's leaf stripping, with the fold of its strips), and an
    # in-place integer row update
    allowed = {"morphisms._kbar_fill", "morphisms._fold_strips", "verify._clear"}
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


def test_a_sum_copies_a_dict_image_and_never_wraps_it():
    # pairings._transpose grows the dicts of its index in place after
    # _through has summed one of them as an image
    image = {"x": 1, "y": Fraction(1, 2)}
    sums = [
        LinComb.single("k").apply_linear(lambda k: image),
        LinComb.single("k", 3).apply_linear(lambda k: image),
        LinComb.bilinear(LinComb.single("k"), LinComb.single("j"), lambda k, j: image),
        LinComb(image),
    ]
    before = [dict(x.items()) for x in sums]
    image["x"] = 7
    image["z"] = 1
    assert [dict(x.items()) for x in sums] == before
    index = pairings._transpose([("a", LinComb.single("k", 2))])
    row = pairings._through(index, LinComb.single("k"))
    pairings._transpose([("b", LinComb.single("k", 5))], index)
    assert dict(row.items()) == {"a": 2}


def test_a_unit_sum_of_one_lincomb_image_is_that_image():
    image = LinComb({"x": 2, "y": -1})
    assert LinComb.single("k").apply_linear(lambda k: image) is image
    assert LinComb.bilinear(LinComb.single("k"), LinComb.single("j"), lambda k, j: image) is image
    assert image * 1 is image
    assert type((LinComb.single("k", 2) * Fraction(1, 2))["k"]) is int


def _private_term_reads(tree):
    """Lines that read the ``_terms`` attribute of an object."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_terms"]


def test_only_foundations_reads_the_terms_of_a_lincomb():
    # a sum may hand back a memo entry as its result, so a caller that wrote
    # into the dict of a LinComb would change that entry for every later reader
    package = pathlib.Path(treehopf.__file__).parent
    readers = {path.name for path in package.glob("*.py")
               if _private_term_reads(ast.parse(path.read_text()))}
    assert readers == {"foundations.py"}
    assert _private_term_reads(ast.parse("a._terms\nb.terms\nc._terms.items()\n")) == [1, 3]
