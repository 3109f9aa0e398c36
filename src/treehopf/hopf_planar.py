"""The two Hopf algebras on planar rooted trees.

KP (basis: planar trees, degree = vertices - 1) carries the ordered grafting
product.  A tree with m vertices exposes 2m - 1 attachment points, listed in
the natural recursive order: for a vertex v with children u_1..u_c the order
is gap_0(v), points(u_1), gap_1(v), points(u_2), ..., points(u_c), gap_c(v).
The product T ∘ T' assigns T's root subtrees T_1..T_n, in order, to a weakly
increasing sequence of attachment points of T'; subtrees sharing a point are
inserted adjacently in their original order.  That yields binomial(2m+n-2, n)
terms counted with multiplicity.  The coproduct cuts the ordered forest of
root subtrees at each of the n + 1 positions.

HF (basis: ordered forests, degree = total vertices) is the free associative
algebra on planar trees under concatenation, with the coproduct defined by
the same root-recursion as the unordered forest algebra, and the antipode of
a tree by the same forest formula, where order now counts: the pieces cut
off come in reverse pre-order of their cut edges, then the trunk.  KP keeps
the antipode recursion.  KP and HF are graded duals under the Kronecker
pairing (planar trees are rigid).

The grafting recursion (``GraftingAlgebra.graft``), the grading, the
forest product and coproduct (``ForestAlgebra``) and the b_plus isomorphism
are those of ``hopf_rooted``, applied to planar trees and ordered forests.
Only the shares differ: the points of a child subtree u_i lie between gap
i - 1 and gap i of its parent, so a weakly increasing choice of points of T'
splits T_1..T_n into consecutive blocks: one for gap 0 of T''s root, one
grafted into its first child subtree, one for gap 1, and so on to the last
gap (``_blocks``).
"""

from math import comb

from .foundations import LinComb
from .hopf_rooted import ForestAlgebra, GraftingAlgebra, _blocks
from .trees import (
    EMPTY_ORDERED_FOREST,
    PLANAR_LEAF,
    PlanarTree,
    catalan,
    enumerate_planar,
    ordered_forests_of_degree,
)


def _planar_count(n):
    """The planar trees of n vertices, as many as ordered forests of n - 1."""
    return catalan(n - 1)


class PlanarGraftingAlgebra(GraftingAlgebra):
    """Planar-tree Hopf algebra with the ordered attachment product."""

    name = "kp"
    leaf = PLANAR_LEAF

    def basis(self, n):
        return enumerate_planar(n + 1)

    def key_str(self, t):
        return "p" + t.encoding

    # the grafting recursion of KT, entered here so that wrapping it on one
    # class (as perfbench's tracer does) leaves the other algebra's alone;
    # a child subtree takes the next block of the ordered branches, after a
    # block left in the root's gap before it
    product_keys = GraftingAlgebra.product_keys
    _shares = staticmethod(_blocks)

    def product_choices(self, t, tp):
        """binomial(2m + n - 2, n): the weakly increasing sequences of n
        points among the 2m - 1 of a tree with m vertices."""
        n = len(t.children)
        return comb(2 * tp.size + n - 2, n)

    tree_count = staticmethod(_planar_count)
    branch_points = staticmethod(lambda n: 2 * n - 2)

    def coproduct_key(self, t):
        kids = t.children
        cuts = range(len(kids) + 1)
        return LinComb.trusted({(PlanarTree(kids[:c]), PlanarTree(kids[c:])): 1 for c in cuts})


class OrderedForestAlgebra(ForestAlgebra):
    """Free associative Hopf algebra on planar trees (concatenation)."""

    name = "hf"
    empty = EMPTY_ORDERED_FOREST
    # HK's own, entered here too, so that wrapping them on one class (as
    # perfbench's tracer does) leaves the other algebra's alone
    product_keys = ForestAlgebra.product_keys
    coproduct_key = ForestAlgebra.coproduct_key
    tree_count = staticmethod(_planar_count)

    def basis(self, n):
        return ordered_forests_of_degree(n)

    def key_str(self, f):
        if not f.trees:
            return "1"
        return "(%s)" % ",".join(t.encoding for t in f.trees)


KP = PlanarGraftingAlgebra()
HF = OrderedForestAlgebra()
