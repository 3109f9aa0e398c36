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
the same root-recursion as the unordered forest algebra.  KP and HF are
graded duals under the Kronecker pairing (planar trees are rigid).

The grafting (``_grafts``), the grading, the forest product and coproduct
(``ForestAlgebra``) and the b_plus isomorphism are those of ``hopf_rooted``,
applied to planar trees and ordered forests.
"""

from itertools import combinations_with_replacement
from math import comb

from .foundations import LinComb
from .hopf_rooted import (
    ForestAlgebra,
    GraftingAlgebra,
    _grafts,
)
from .trees import (
    EMPTY_ORDERED_FOREST,
    PLANAR_LEAF,
    PlanarTree,
    enumerate_planar,
    ordered_forests_of_degree,
)


def attachment_points(t: PlanarTree) -> list[tuple[int, int]]:
    """The 2m - 1 attachment points of a planar tree, in natural order.

    Each point is (preorder index of a vertex, gap position among its
    children); gap g sits just before the g-th child, with the final gap
    after the last child.
    """
    out = []

    def walk(node, idx):
        my = idx
        idx += 1
        out.append((my, 0))
        for g, child in enumerate(node.children):
            idx = walk(child, idx)
            out.append((my, g + 1))
        return idx

    walk(t, 0)
    del walk  # it refers to itself: unbind it, so that no cycle is left
    return out


class PlanarGraftingAlgebra(GraftingAlgebra):
    """Planar-tree Hopf algebra with the ordered attachment product."""

    name = "kp"
    leaf = PLANAR_LEAF

    def basis(self, n):
        return enumerate_planar(n + 1)

    def key_str(self, t):
        return "p" + t.encoding

    def product_keys(self, t, tp):
        subs = t.children
        choices = combinations_with_replacement(attachment_points(tp), len(subs))
        return LinComb.tally(_grafts(tp, subs, choices))

    def product_choices(self, t, tp):
        """binomial(2m + n - 2, n): the weakly increasing sequences of n
        points among the 2m - 1 of a tree with m vertices."""
        n = len(t.children)
        return comb(2 * tp.size + n - 2, n)

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

    def basis(self, n):
        return ordered_forests_of_degree(n)

    def key_str(self, f):
        if not f.trees:
            return "1"
        return "(%s)" % ",".join(t.encoding for t in f.trees)


KP = PlanarGraftingAlgebra()
HF = OrderedForestAlgebra()
