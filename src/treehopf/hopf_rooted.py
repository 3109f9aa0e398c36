"""The two Hopf algebras on unordered rooted trees, and the grafting and
forest machinery that their planar twins in ``hopf_planar`` share.

KT (basis: rooted trees, degree = vertices - 1) carries the grafting
product: t ∘ t' sums, over all ways to send each child subtree of t's root
to a vertex of t', the tree obtained by grafting them there.  Equal child
subtrees are sent together: a group of m of them goes to each multiset of m
vertices once, weighted by the number of ways to send them there, as KP's
ordered product takes each weakly increasing sequence of points once.  Its
coproduct splits the root's child subtrees into two subsets.  It is
cocommutative and the single vertex is the two-sided unit.  ``_graft``
attaches subtrees at (vertex, gap) positions of a tree of either kind; KT
uses only gap 0, since a rooted tree sorts its children anyway.

Each attachment choice rebuilds a whole tree, so the cost of a grafting
product grows far faster than its inputs.  ``GraftingAlgebra.product``, which
KP inherits, keeps one budget for both: it prices the key products it has not
yet memoized and refuses the product above ``GRAFT_CAP`` before grafting
anything.  Every caller meets that guard: the CLI's ``product``, Z, the
antipode recursion and library code.  Key-level lookups (``_pk``), as the
verification suites and ``tensor_mult`` make them, are not priced.

HK (basis: forests, degree = total vertices) is the polynomial algebra on
trees under disjoint union.  Its coproduct is defined on a tree t by

    Δ(t) = t ⊗ 1 + (id ⊗ b_plus) Δ(b_minus(t))

and extended to forests by ``HopfAlgebra``'s multiplicative rule.
``ForestAlgebra`` builds its forests and trees from the kind of its unit
forest, so HF is the same class with the empty ordered forest as unit.  KT
and HK are graded duals of each other under the pairing in ``pairings``.

Also here: the degree-n tree sums weighted by inverse symmetry order
(``kappa``); their divided-power partner ``epsilon``, returned by its closed
form 1/n! times the corolla (the divided-powers suite checks the alternating
recursion that defines it); the projection onto trees whose root has a single
child; and the root-removal operators in their various linear extensions.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, groupby
from itertools import product as iter_product
from math import comb, factorial, prod

from .foundations import LinComb, memo, multiset_splits
from .hopf import HopfAlgebra
from .trees import (
    EMPTY_FOREST,
    Forest,
    LEAF,
    RootedTree,
    _tree_key,
    b_minus,
    b_plus,
    enumerate_rooted,
    forests_of_degree,
    ladder,
    sym_order,
)

# most vertices one kt or kp product may rebuild: each attachment choice
# grafts a whole tree, about (result vertices)^2 / 2 of them counting the
# subtrees' encodings; [[][]] into l80 is 10.9 million
GRAFT_CAP = 20_000_000


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


def _grafts(tp, subs, choices):
    """The tree ``tp`` with the subtrees ``subs`` grafted at one choice of
    attachment points at a time: each choice gives every subtree, in order,
    a (vertex, gap) point."""
    for choice in choices:
        extra = {}
        for sub, (v, gap) in zip(subs, choice):
            extra.setdefault(v, []).append((gap, sub))
        yield _graft(tp, extra, 0)[0]


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

    key_sort = _tree_key

    def product(self, a, b):
        """The grafting product, refused before any tree is grafted when its
        key products not yet memoized would rebuild more than ``GRAFT_CAP``
        vertices."""
        memo = self._prod_memo
        choices = cost = 0
        for t in a:
            for tp in b:
                if (t, tp) not in memo:
                    n = self.product_choices(t, tp)
                    choices += n
                    cost += n * (t.size + tp.size - 1) ** 2 // 2
        if cost > GRAFT_CAP:
            raise ValueError(f"this product would graft {choices:,} attachment choices, "
                             f"rebuilding roughly {cost:,} vertices; the cap is {GRAFT_CAP:,}")
        return super().product(a, b)

    def product_keys(self, t, tp):
        """Sum over all |tp|^n attachments of t's root subtrees into tp.  A
        group of m equal subtrees goes to each multiset of m vertices once,
        weighted by the m! / (product of c_v!) attachments that send c_v of
        them to each vertex v."""
        points = [(v, 0) for v in range(tp.size)]
        groups = [
            [(combo, factorial(len(combo)) // prod(map(factorial, Counter(combo).values())))
             for combo in combinations_with_replacement(points, len(list(same)))]
            for _, same in groupby(t.children)
        ]
        choices, weights = [], []
        for picks in iter_product(*groups):
            choices.append(tuple(chain.from_iterable(combo for combo, _ in picks)))
            weights.append(prod(w for _, w in picks))
        # grafted here, not lazily inside LinComb's constructor, so that
        # the grafting is timed as this kernel's work
        return LinComb(list(zip(_grafts(tp, t.children, choices), weights)))

    def product_choices(self, t, tp):
        """How many attachments ``product_keys`` grafts, each rebuilding a
        whole tree: a multiset of vertices of tp for each group of equal
        root subtrees of t."""
        m = tp.size
        return prod(comb(m + k - 1, k) for k in Counter(t.children).values())

    def coproduct_key(self, t):
        """Split the root's child subtrees over all 2^k two-colorings, each
        distinct split once, weighted by the colorings that give it."""
        return LinComb.trusted({(RootedTree(l), RootedTree(r)): count
                                for l, r, count in multiset_splits(t.children)})


class ForestAlgebra(HopfAlgebra):
    """Hopf algebra of forests under concatenation, with the root-recursion
    coproduct.  As HK, the polynomial algebra on rooted trees; ``empty``, the
    unit, fixes the kind of forest, and with it that of every tree built."""

    name = "ck"
    empty = EMPTY_FOREST

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

    def factors(self, f):
        return tuple(type(f)((t,)) for t in f.trees)

    def coproduct_key(self, f):
        """Δ of a one-tree forest by the root recursion; of the empty one, 1 ⊗ 1."""
        if not f.trees:
            return LinComb.single((f, f))
        # recurse on the strictly smaller forest of root-child subtrees; the
        # pairs are distinct: b_plus is injective, and only the first has the
        # unit on the right
        (t,) = f.trees
        terms = {(f, self.empty): 1}
        inner = self._ck(b_minus(t))
        terms.update(((u, type(f)((b_plus(v),))), c) for (u, v), c in inner.items())
        return LinComb.trusted(terms)


KT = GraftingAlgebra()
HK = ForestAlgebra()


@memo
def kappa(n: int) -> LinComb:
    """Sum of all degree-n trees, each weighted by 1/sym_order."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return KT.one()
    # a weight 1 stays an int, so that only genuine fractions pay Fraction arithmetic
    return LinComb.trusted({
        t: Fraction(1, order) if (order := sym_order(t)) > 1 else 1
        for t in enumerate_rooted(n + 1)
    })


@memo
def epsilon(n: int) -> LinComb:
    """Divided-power sequence: the alternating convolution inverse of kappa,
    defined by epsilon(n) = kappa(1)∘epsilon(n-1) - kappa(2)∘epsilon(n-2) + ...
    ± kappa(n) with epsilon(0) the unit.  Returned by its closed form, 1/n!
    times the corolla with n leaf children; the divided-powers suite checks
    the recursion."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return LinComb.single(corolla(n), Fraction(1, factorial(n)) if n > 1 else 1)


def primitive_projection(a: LinComb) -> LinComb:
    """Keep only the trees whose root has exactly one child."""
    return a.filter_keys(lambda t: len(t.children) == 1)


def strip_primitive_root(a: LinComb) -> LinComb:
    """Root removal on the grafting algebra: a tree whose root has exactly
    one child maps to that child subtree; every other tree maps to zero."""
    return primitive_projection(a).map_keys(lambda t: t.children[0])


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
    return a.apply_linear(_ck_b_minus_key)


def _ck_b_minus_key(f: Forest) -> LinComb:
    ts = f.trees
    return LinComb.tally(Forest(ts[:i] + t.children + ts[i + 1 :]) for i, t in enumerate(ts))


def corolla(n: int) -> RootedTree:
    """The tree whose root has n leaf children (n = 0 gives the vertex)."""
    return RootedTree([ladder(1)] * n)
