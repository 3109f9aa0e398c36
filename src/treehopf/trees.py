"""Rooted trees, planar rooted trees, their forests, and their enumeration.

Encoding: ``[]`` is a single vertex, ``[c1c2...ck]`` is a root whose child
subtrees have encodings c1..ck.  One class body serves both kinds of tree,
and one both kinds of forest; the kinds differ only in the class attribute
``ordered``.  A ``RootedTree`` sorts its children by (size, encoding), so
isomorphic trees get identical encodings and encoding equality is
isomorphism; a ``PlanarTree`` keeps them in written order.  A ``Forest`` is a
multiset of rooted trees (stored sorted), an ``OrderedForest`` a sequence
of planar trees.  No tree or forest equals one of the other kind.

Trees and forests are interned (hash-consed): each kind keeps a table
from the tuple of its (already interned) children or members to a weak
reference to the one live object built from them, and the constructor
returns that object when there is one.  So equal values are the same
object, and equality and hashing are the identity defaults, which run in
C.  An entry goes away with the last reference to its object.  The tables
are not caches: ``clear_caches`` leaves them alone, since a tree built
after emptying them would not equal a live one built before.

``b_plus`` grafts the members of a forest onto a new common root and
``b_minus`` removes the root again; for either kind they are inverse
bijections between forests with n vertices and trees with n + 1.
"""

from itertools import groupby, product
from math import factorial
from operator import attrgetter
from weakref import ref

from .foundations import memo, memo_table, multiset_permutations

# the canonical order of trees, by size and then encoding: children and
# forest members are sorted by it, and trees and forests print in it
_tree_key = attrgetter("size", "encoding")
_encoding = attrgetter("encoding")
_size = attrgetter("size")


class _Entry(ref):
    """A table's weak reference to an interned object, which carries the
    object's key so that it can remove its entry."""

    __slots__ = ("key",)


class _InternTable(dict):
    """One kind's intern table: the tuple of children (or members) of each
    live object -> an ``_Entry`` for it, removed when the object dies.
    ``weakref.WeakValueDictionary`` does the same, but runs its lookups
    and inserts in Python; here a hit is one ``dict.get`` and one call of
    the reference, both in C."""

    def __init__(self):
        super().__init__()
        self._on_death = self._remove  # one bound method for every entry

    def add(self, key, obj):
        entry = _Entry(obj, self._on_death)
        entry.key = key
        self[key] = entry
        return obj

    def _remove(self, entry):
        # the key may already belong to a newer object
        if self.get(entry.key) is entry:
            del self[entry.key]


class _Tree:
    """Rooted tree; the subclass's ``ordered`` says whether the children
    keep their written order or are put in the canonical one.  Interned:
    the constructor returns the live tree of this kind with these children
    if there is one."""

    __slots__ = ("children", "encoding", "size", "__weakref__")

    def __new__(cls, children=()):
        kids = tuple(children) if cls.ordered else tuple(sorted(children, key=_tree_key))
        entry = cls._interned.get(kids)
        if entry is not None and (self := entry()) is not None:
            return self
        self = object.__new__(cls)
        self.children = kids
        self.encoding = "[%s]" % "".join(map(_encoding, kids))
        self.size = 1 + sum(map(_size, kids))
        return cls._interned.add(kids, self)

    def __reduce__(self):
        # copy and pickle rebuild through the table, not by filling the
        # slots of an object that ``cls()`` returned
        return (type(self), (self.children,))

    def __repr__(self):
        return f"{self.__class__.__name__}({self.encoding!r})"


class _Forest:
    """Forest of ``tree_type`` trees, kept in order as that kind keeps
    its children; interned as trees are."""

    __slots__ = ("trees", "degree", "__weakref__")

    def __new__(cls, trees=()):
        ts = tuple(trees) if cls.ordered else tuple(sorted(trees, key=_tree_key))
        entry = cls._interned.get(ts)
        if entry is not None and (self := entry()) is not None:
            return self
        self = object.__new__(cls)
        self.trees = ts
        self.degree = sum(map(_size, ts))
        return cls._interned.add(ts, self)

    def __reduce__(self):
        return (type(self), (self.trees,))

    @property
    def sort_key(self):
        return (self.degree, tuple(map(_tree_key, self.trees)))

    def __repr__(self):
        members = ("," if self.ordered else " ").join(t.encoding for t in self.trees)
        return f"{self.__class__.__name__}({members})"


class RootedTree(_Tree):
    """Unordered rooted tree in canonical form: the constructor sorts the
    children, so every way of building an isomorphic tree gives one value."""

    __slots__ = ()
    ordered = False
    _interned = _InternTable()


class PlanarTree(_Tree):
    """Rooted tree whose children are ordered; written order is meaning."""

    __slots__ = ()
    ordered = True
    _interned = _InternTable()


class Forest(_Forest):
    """Multiset of rooted trees, stored sorted by the canonical tree order."""

    __slots__ = ()
    ordered = False
    tree_type = RootedTree
    _interned = _InternTable()


class OrderedForest(_Forest):
    """Sequence of planar trees; order carries meaning."""

    __slots__ = ()
    ordered = True
    tree_type = PlanarTree
    _interned = _InternTable()


RootedTree.forest_type = Forest
PlanarTree.forest_type = OrderedForest

LEAF = RootedTree()
PLANAR_LEAF = PlanarTree()
EMPTY_FOREST = Forest()
EMPTY_ORDERED_FOREST = OrderedForest()


def b_plus(forest):
    """Graft all members of a forest onto a fresh common root: a rooted tree
    from a ``Forest``, a planar tree from an ``OrderedForest``."""
    return forest.tree_type(forest.trees)


def b_minus(tree):
    """Delete the root, leaving the forest of its child subtrees."""
    return tree.forest_type(tree.children)


_SYM_ORDER: dict[RootedTree, int] = memo_table()


def sym_order(t: RootedTree) -> int:
    """Order of the automorphism group of a rooted tree.

    Product over vertices of prod_i m_i! where the m_i are the multiplicities
    of the isomorphism classes among the vertex's child subtrees.
    """
    cached = _SYM_ORDER.get(t)
    if cached is not None:
        return cached
    order = 1
    for _, grp in groupby(t.children):
        block = list(grp)
        order *= factorial(len(block)) * sym_order(block[0]) ** len(block)
    _SYM_ORDER[t] = order
    return order


@memo
def enumerate_rooted(n: int) -> tuple[RootedTree, ...]:
    """All rooted trees with n vertices, in canonical (size, encoding) order."""
    return _trees(n, RootedTree)


@memo
def enumerate_planar(n: int) -> tuple[PlanarTree, ...]:
    """All planar rooted trees with n vertices (Catalan(n-1) of them)."""
    return _trees(n, PlanarTree)


@memo
def forests_of_degree(n: int) -> tuple[Forest, ...]:
    """All forests with n vertices total (n = 0 gives the empty forest)."""
    return _forests(n, Forest)


@memo
def ordered_forests_of_degree(n: int) -> tuple[OrderedForest, ...]:
    """All ordered forests with n vertices total (Catalan(n) of them)."""
    return _forests(n, OrderedForest)


def _trees(n, kind):
    if n < 1:
        raise ValueError("a tree has at least one vertex")
    return tuple(sorted(map(kind, _child_lists(n - 1, kind)), key=_tree_key))


def _forests(n, kind):
    # _child_lists lists them in the lexicographic order of their members,
    # which is the order of the forests' sort_key
    return tuple(map(kind, _child_lists(n, kind.tree_type)))


@memo
def _child_lists(m: int, kind) -> tuple[tuple, ...]:
    """All lists of trees of ``kind`` with m vertices in total: every
    multiset of rooted trees, as a tuple non-decreasing in the canonical
    order, or every sequence of planar trees."""
    if m == 0:
        return ((),)
    trees_of_size = enumerate_planar if kind.ordered else enumerate_rooted
    pool = [t for s in range(1, m + 1) for t in trees_of_size(s)]
    out = []

    def grow(remaining, start, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(pool)):
            t = pool[idx]
            if t.size > remaining:
                break  # pool is sorted by size
            acc.append(t)
            # a multiset continues from t, a sequence from the whole pool
            grow(remaining - t.size, 0 if kind.ordered else idx, acc)
            acc.pop()

    grow(m, 0, [])
    del grow  # it refers to itself: unbind it, so that no cycle is left
    return tuple(out)


def forget_order(t: PlanarTree) -> RootedTree:
    """Collapse a planar tree to its underlying rooted tree."""
    return RootedTree(forget_order(c) for c in t.children)


_FIBER: dict[RootedTree, tuple[PlanarTree, ...]] = memo_table()


def planar_fiber(t: RootedTree) -> tuple[PlanarTree, ...]:
    """All distinct planar trees whose underlying rooted tree is t."""
    cached = _FIBER.get(t)
    if cached is not None:
        return cached
    rank = {c: i for i, c in enumerate(dict.fromkeys(t.children))}
    options = [planar_fiber(c) for c in rank]
    # each distinct ordering of the children, with one embedding of each,
    # is a distinct planar tree
    results = [
        PlanarTree(combo)
        for ordering in multiset_permutations(rank[c] for c in t.children)
        for combo in product(*(options[i] for i in ordering))
    ]
    out = tuple(sorted(results, key=_tree_key))
    _FIBER[t] = out
    return out


def ladder(i: int, kind=RootedTree):
    """The chain with i vertices (single vertex for i = 1), a rooted tree or,
    with ``kind`` PlanarTree, a planar one."""
    if i < 1:
        raise ValueError("ladder length must be positive")
    t = kind()
    for _ in range(i - 1):
        t = kind((t,))
    return t


def planar_ladder(i: int) -> PlanarTree:
    return ladder(i, PlanarTree)


def ladder_forest(parts, kind=Forest):
    """The forest (or, with ``kind`` OrderedForest, the ordered forest) of
    chains with the given vertex counts."""
    return kind(ladder(i, kind.tree_type) for i in parts)


def is_ladder(t) -> bool:
    """True when every vertex has at most one child (works for both kinds)."""
    k = t.size
    return t.encoding == "[" * k + "]" * k


def _parse_tree(text: str, pos: int, factory):
    if pos >= len(text) or text[pos] != "[":
        raise ValueError(f"expected '[' at position {pos}")
    pos += 1
    kids = []
    while pos < len(text) and text[pos] == "[":
        child, pos = _parse_tree(text, pos, factory)
        kids.append(child)
    if pos >= len(text) or text[pos] != "]":
        raise ValueError(f"expected ']' at position {pos}")
    return factory(kids), pos + 1


def rooted_from_string(text: str, kind=RootedTree):
    """Parse bracket syntax into a rooted tree (auto-canonicalized) or, with
    ``kind`` PlanarTree, a planar tree (written order kept)."""
    t, end = _parse_tree(text, 0, kind)
    if end != len(text):
        raise ValueError(f"trailing input at position {end}")
    return t


def planar_from_string(text: str) -> PlanarTree:
    return rooted_from_string(text, PlanarTree)
