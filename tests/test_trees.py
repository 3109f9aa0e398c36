"""Tree data types: canonical forms, enumeration, symmetry, planar fibers."""

import copy
import itertools
import math
import pickle

import pytest

from treehopf.trees import (
    EMPTY_FOREST,
    EMPTY_ORDERED_FOREST,
    LEAF,
    PLANAR_LEAF,
    Forest,
    OrderedForest,
    PlanarTree,
    RootedTree,
    b_minus,
    b_plus,
    enumerate_planar,
    enumerate_rooted,
    forget_order,
    forests_of_degree,
    is_ladder,
    ladder,
    ordered_forests_of_degree,
    planar_fiber,
    planar_from_string,
    planar_ladder,
    rooted_from_string,
    sym_order,
)

# index = vertex count; entry 0 is the empty convention
ROOTED_COUNTS = [1, 1, 1, 2, 4, 9, 20, 48, 115, 286]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_rooted_canonicalization():
    a = RootedTree([RootedTree([LEAF]), LEAF])
    b = RootedTree([LEAF, RootedTree([LEAF])])
    assert a == b
    assert a.encoding == b.encoding
    assert hash(a) == hash(b)


def test_planar_keeps_order():
    a = PlanarTree([PlanarTree([PLANAR_LEAF]), PLANAR_LEAF])
    b = PlanarTree([PLANAR_LEAF, PlanarTree([PLANAR_LEAF])])
    assert a != b
    assert a.encoding == "[[[]][]]"
    assert b.encoding == "[[][[]]]"


def test_encoding_roundtrip():
    for n in range(1, 7):
        for t in enumerate_rooted(n):
            assert rooted_from_string(t.encoding) == t
        for t in enumerate_planar(n):
            assert planar_from_string(t.encoding) == t


def test_rooted_parse_canonicalizes():
    assert rooted_from_string("[[[]][]]") == rooted_from_string("[[][[]]]")


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position 3"):
        rooted_from_string("[[]")
    with pytest.raises(ValueError, match="position 4"):
        rooted_from_string("[[]]]")
    with pytest.raises(ValueError, match="position 0"):
        planar_from_string("x")


def test_enumeration_counts():
    for n in range(1, 10):
        assert len(enumerate_rooted(n)) == ROOTED_COUNTS[n]
    for n in range(1, 8):
        assert len(enumerate_planar(n)) == CATALAN[n - 1]


def test_enumeration_sorted_and_distinct():
    for n in range(1, 7):
        ts = enumerate_rooted(n)
        assert len(set(ts)) == len(ts)
        assert list(ts) == sorted(ts, key=lambda t: t.encoding)
        ps = enumerate_planar(n)
        assert len(set(ps)) == len(ps)
        assert list(ps) == sorted(ps, key=lambda t: t.encoding)


def _automorphism_count_perms(t: RootedTree) -> int:
    """Second oracle: permutations of the vertex set preserving root and
    parent relation."""
    verts = []
    parent = {}

    def walk(u, par):
        idx = len(verts)
        verts.append(u)
        parent[idx] = par
        for c in u.children:
            walk(c, idx)

    walk(t, None)
    n = len(verts)
    enc = [verts[i].encoding for i in range(n)]
    count = 0
    # prune: a permutation must match subtree encodings, so group by them
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        ok = True
        for i in range(1, n):
            if enc[perm[i]] != enc[i] or perm[parent[i]] != parent[perm[i]]:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_sym_order_against_vertex_permutations():
    # the permutation oracle is factorial, keep it small
    for n in range(1, 8):
        for t in enumerate_rooted(n):
            assert sym_order(t) == _automorphism_count_perms(t), t.encoding


def _arrangements(t: RootedTree) -> int:
    out = math.factorial(len(t.children))
    for c in t.children:
        out *= _arrangements(c)
    return out


def test_orbit_stabilizer():
    # (orderings of children at every vertex) / |Sym| = distinct layouts
    for n in range(1, 8):
        for t in enumerate_rooted(n):
            arr = _arrangements(t)
            assert arr % sym_order(t) == 0
            assert arr // sym_order(t) == len(planar_fiber(t)), t.encoding


def test_sym_order_values():
    assert sym_order(LEAF) == 1
    assert sym_order(ladder(5)) == 1
    # corolla with k leaves has symmetry k!
    for k in range(1, 6):
        assert sym_order(RootedTree([LEAF] * k)) == math.factorial(k)
    assert sym_order(rooted_from_string("[[[]][[]]]")) == 2
    assert sym_order(rooted_from_string("[[][][[]]]")) == 2


def test_cayley_identity():
    # sum over n-vertex trees of n!/|Sym(t)| counts labeled rooted trees
    for n in range(1, 8):
        total = sum(
            math.factorial(n) // sym_order(t) for t in enumerate_rooted(n)
        )
        assert total == n ** (n - 1)


def test_b_plus_b_minus():
    f = Forest((LEAF, ladder(2)))
    t = b_plus(f)
    assert t.size == 4
    assert b_minus(t) == f
    assert b_plus(EMPTY_FOREST) == LEAF
    for n in range(1, 7):
        for u in enumerate_rooted(n) + enumerate_planar(n):
            back = b_plus(b_minus(u))
            assert back == u and type(back) is type(u), u
        for p in enumerate_planar(n):
            assert b_plus(b_minus(p)) == p


@pytest.mark.parametrize(
    "rooted, planar",
    [
        (LEAF, PLANAR_LEAF),
        (rooted_from_string("[[][[]]]"), planar_from_string("[[][[]]]")),
        (Forest((LEAF, ladder(2))), OrderedForest((PLANAR_LEAF, planar_ladder(2)))),
        (EMPTY_FOREST, EMPTY_ORDERED_FOREST),
    ],
)
def test_twin_kinds_with_one_encoding_stay_apart(rooted, planar):
    def written(x):
        return x.encoding if hasattr(x, "encoding") else [t.encoding for t in x.trees]

    assert written(rooted) == written(planar)
    assert rooted != planar and planar != rooted
    keys = {rooted: "rooted", planar: "planar"}
    assert len(keys) == 2 and keys[rooted] == "rooted" and keys[planar] == "planar"


def test_repr_names_the_class():
    assert repr(rooted_from_string("[[[]][]]")) == "RootedTree('[[][[]]]')"
    assert repr(planar_from_string("[[[]][]]")) == "PlanarTree('[[[]][]]')"
    assert repr(Forest((ladder(2), LEAF))) == "Forest([] [[]])"
    assert repr(OrderedForest((planar_ladder(2), PLANAR_LEAF))) == "OrderedForest([[]],[])"
    assert repr(EMPTY_ORDERED_FOREST) == "OrderedForest()"


def test_forest_canonical_order():
    f1 = Forest((ladder(2), LEAF, LEAF))
    f2 = Forest((LEAF, ladder(2), LEAF))
    assert f1 == f2
    assert f1.trees == (LEAF, LEAF, ladder(2))
    g1 = OrderedForest((planar_ladder(2), PLANAR_LEAF))
    g2 = OrderedForest((PLANAR_LEAF, planar_ladder(2)))
    assert g1 != g2


def test_forest_enumeration_counts():
    # forests of total size n = trees of size n+1
    for n in range(0, 7):
        assert len(forests_of_degree(n)) == ROOTED_COUNTS[n + 1]
        assert len(ordered_forests_of_degree(n)) == CATALAN[n]


def test_forest_enumerations_are_in_sort_key_order():
    # built in the order their member lists are generated, without a sort
    for n in range(9):
        for fs in (forests_of_degree(n), ordered_forests_of_degree(n)):
            assert list(fs) == sorted(fs, key=lambda f: f.sort_key)
            assert len(set(fs)) == len(fs)


def test_forget_order_and_fiber():
    assert forget_order(planar_from_string("[[[]][]]")) == rooted_from_string(
        "[[][[]]]"
    )
    for n in range(1, 7):
        planar = enumerate_planar(n)
        # fibers partition the planar trees
        seen = []
        for t in enumerate_rooted(n):
            fib = planar_fiber(t)
            assert len(set(fib)) == len(fib)
            assert all(forget_order(p) == t for p in fib)
            seen.extend(fib)
        assert sorted(p.encoding for p in seen) == sorted(
            p.encoding for p in planar
        )


def test_ladders():
    assert ladder(1) == LEAF
    assert ladder(3).encoding == "[[[]]]"
    assert planar_ladder(4).encoding == "[[[[]]]]"
    assert is_ladder(ladder(6))
    assert is_ladder(planar_ladder(2))
    assert not is_ladder(rooted_from_string("[[][]]"))
    # a ladder admits exactly one planar layout
    assert planar_fiber(ladder(4)) == (planar_ladder(4),)


def _trees_and_forests():
    for n in range(1, 6):
        yield from enumerate_rooted(n)
        yield from enumerate_planar(n)
    for n in range(5):
        yield from forests_of_degree(n)
        yield from ordered_forests_of_degree(n)


def test_copy_and_pickle_return_the_interned_object():
    for x in _trees_and_forests():
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(x, protocol)) is x
    # a copy built through ``cls()`` would have overwritten these
    assert (LEAF.encoding, LEAF.children, LEAF.size) == ("[]", (), 1)
    assert (PLANAR_LEAF.encoding, PLANAR_LEAF.children, PLANAR_LEAF.size) == ("[]", (), 1)
    assert (EMPTY_FOREST.trees, EMPTY_FOREST.degree) == ((), 0)
    assert (EMPTY_ORDERED_FOREST.trees, EMPTY_ORDERED_FOREST.degree) == ((), 0)
    assert RootedTree() is LEAF and PlanarTree() is PLANAR_LEAF
    assert Forest() is EMPTY_FOREST and OrderedForest() is EMPTY_ORDERED_FOREST
