"""The two Hopf algebras on unordered rooted trees, and the grafting and
forest machinery that their planar twins in ``hopf_planar`` share.

KT (basis: rooted trees, degree = vertices - 1) carries the grafting
product: t ∘ t' sums, over all ways to send each child subtree of t's root
to a vertex of t', the tree obtained by grafting them there.  Its coproduct
splits the root's child subtrees into two subsets.  It is cocommutative and
the single vertex is the two-sided unit.  ``_graft`` attaches subtrees at
(vertex, gap) positions of a tree of either kind; KT uses only gap 0, since
a rooted tree sorts its children anyway.

HK (basis: forests, degree = total vertices) is the polynomial algebra on
trees under disjoint union.  Its coproduct is defined on a tree t by

    Δ(t) = t ⊗ 1 + (id ⊗ b_plus) Δ(b_minus(t))

and extended multiplicatively to forests.  ``ForestAlgebra`` builds its
forests and trees from the kind of its unit forest, so HF is the same class
with the empty ordered forest as unit.  KT and HK are graded duals of each
other under the pairing in ``pairings``.

Also here: the degree-n tree sums weighted by inverse symmetry order
(``kappa``), the divided-power sequence obtained from them by the defining
alternating recursion (``epsilon``), the projection onto trees whose root
has a single child, and the root-removal operators in their various linear
extensions.
"""

from fractions import Fraction
from itertools import product as iter_product

from .foundations import LinComb, memo, memo_table
from .hopf import HopfAlgebra, tensor_mult
from .trees import (
    EMPTY_FOREST,
    Forest,
    LEAF,
    RootedTree,
    b_minus,
    b_plus,
    enumerate_rooted,
    forests_of_degree,
    ladder,
    sym_order,
)


def _graft(node, extra, idx):
    """Rebuild ``node`` with extra subtrees attached.  ``extra`` maps the
    preorder index of a vertex to its (gap, subtree) pairs, gaps weakly
    increasing; gap g sits just before the vertex's g-th child, the last
    gap after its last child."""
    my = idx
    idx += 1
    kids = []
    for child in node.children:
        sub, idx = _graft(child, extra, idx)
        kids.append(sub)
    more = extra.get(my)
    if more:
        # last gap first, so that each insertion leaves the earlier gaps put
        for gap, sub in reversed(more):
            kids.insert(gap, sub)
    return type(node)(kids), idx


class GraftingAlgebra(HopfAlgebra):
    """Rooted-tree Hopf algebra with the vertex-attachment product; its unit
    is the class's ``leaf``, which KP sets to the planar leaf."""

    name = "kt"
    leaf = LEAF

    def unit_key(self):
        return self.leaf

    def degree(self, t):
        return t.size - 1

    def basis(self, n):
        return enumerate_rooted(n + 1)

    def key_str(self, t):
        return t.encoding

    def key_sort(self, t):
        return (t.size, t.encoding)

    def product_keys(self, t, tp):
        """Sum over all |tp|^n attachments of t's root subtrees into tp."""
        subs = t.children
        acc = {}
        for assignment in iter_product(range(tp.size), repeat=len(subs)):
            extra = {}
            for sub, v in zip(subs, assignment):
                extra.setdefault(v, []).append((0, sub))
            grafted, _ = _graft(tp, extra, 0)
            acc[grafted] = acc.get(grafted, 0) + 1
        return LinComb(acc)

    def coproduct_key(self, t):
        """Split the root's child subtrees over all 2^k two-colorings."""
        kids = t.children
        k = len(kids)
        acc = {}
        for mask in range(1 << k):
            left = [kids[i] for i in range(k) if mask >> i & 1]
            right = [kids[i] for i in range(k) if not mask >> i & 1]
            pair = (RootedTree(left), RootedTree(right))
            acc[pair] = acc.get(pair, 0) + 1
        return LinComb(acc)


class ForestAlgebra(HopfAlgebra):
    """Hopf algebra of forests under concatenation, with the root-recursion
    coproduct.  As HK, the polynomial algebra on rooted trees; ``empty``, the
    unit, fixes the kind of forest, and with it that of every tree built."""

    name = "ck"
    empty = EMPTY_FOREST

    def __init__(self):
        super().__init__()
        self._tree_cop_memo = memo_table()

    def unit_key(self):
        return self.empty

    def degree(self, f):
        return f.degree

    def basis(self, n):
        return forests_of_degree(n)

    def key_str(self, f):
        if not f.trees:
            return "1"
        return " ".join(t.encoding for t in f.trees)

    def key_sort(self, f):
        return f.sort_key

    def product_keys(self, f, g):
        return LinComb.single(type(f)(f.trees + g.trees))

    def coproduct_key(self, f):
        out = LinComb.single((self.empty, self.empty))
        for t in f.trees:
            out = tensor_mult(self, out, self._tree_coproduct(t))
        return out

    def _tree_coproduct(self, t):
        cached = self._tree_cop_memo.get(t)
        if cached is not None:
            return cached
        # recurse on the strictly smaller forest of root-child subtrees
        inner = self.coproduct_key(b_minus(t))
        forest = type(self.empty)
        acc = {(forest((t,)), self.empty): 1}
        for (u, v), c in inner.items():
            pair = (u, forest((b_plus(v),)))
            acc[pair] = acc.get(pair, 0) + c
        out = LinComb(acc)
        self._tree_cop_memo[t] = out
        return out


KT = GraftingAlgebra()
HK = ForestAlgebra()


@memo
def kappa(n: int) -> LinComb:
    """Sum of all degree-n trees, each weighted by 1/sym_order."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return KT.one()
    return LinComb((t, Fraction(1, sym_order(t))) for t in enumerate_rooted(n + 1))


@memo
def epsilon(n: int) -> LinComb:
    """Divided-power sequence: alternating convolution inverse of kappa.

    epsilon(n) = kappa(1)∘epsilon(n-1) - kappa(2)∘epsilon(n-2) + ...
    ± kappa(n), with epsilon(0) the unit.  Equals 1/n! times the corolla
    with n leaf children.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return KT.one()
    acc = LinComb.zero()
    sign = 1
    for i in range(1, n + 1):
        acc += sign * KT.product(kappa(i), epsilon(n - i))
        sign = -sign
    return acc


def primitive_projection(a: LinComb) -> LinComb:
    """Keep only the trees whose root has exactly one child."""
    return a.filter_keys(lambda t: len(t.children) == 1)


def strip_primitive_root(a: LinComb) -> LinComb:
    """Root removal on the grafting algebra: a tree whose root has exactly
    one child maps to that child subtree; every other tree maps to zero."""
    data = {}
    for t, c in a.items():
        if len(t.children) == 1:
            child = t.children[0]
            data[child] = data.get(child, 0) + c
    return LinComb(data)


def tree_b_plus(a: LinComb) -> LinComb:
    """Linear extension of t -> b_plus({t}) inside the grafting algebra."""
    return a.map_keys(lambda t: RootedTree((t,)))


def forest_b_plus(a: LinComb) -> LinComb:
    """Degree-preserving isomorphism from forests onto trees (and from
    ordered forests onto planar trees): f -> b_plus(f)."""
    return a.map_keys(b_plus)


def ck_b_plus(a: LinComb) -> LinComb:
    """b_plus as a map of the forest algebra into itself (forest to the
    one-tree forest on its grafting)."""
    return a.map_keys(lambda f: Forest((RootedTree(f.trees),)))


def ck_b_minus(a: LinComb) -> LinComb:
    """Root removal extended to forests as a derivation: replace one member
    tree at a time by the forest of its root subtrees."""
    data = {}
    for f, c in a.items():
        ts = f.trees
        for i, t in enumerate(ts):
            g = Forest(ts[:i] + t.children + ts[i + 1 :])
            cur = data.get(g, 0) + c
            if cur:
                data[g] = cur
            else:
                data.pop(g, None)
    return LinComb(data)


def corolla(n: int) -> RootedTree:
    """The tree whose root has n leaf children (n = 0 gives the vertex)."""
    return RootedTree([ladder(1)] * n)
