"""The two Hopf algebras on unordered rooted trees, and the grafting and
forest machinery that their planar twins in ``hopf_planar`` share.

KT (basis: rooted trees, degree = vertices - 1) carries the grafting
product: t ∘ t' sums, over all ways to send each child subtree of t's root
to a vertex of t', the tree obtained by grafting them there.  Its coproduct
splits the root's child subtrees into two subsets.  It is cocommutative and
the single vertex is the two-sided unit.

``GraftingAlgebra.graft``, which KP shares, grafts a collection S of
branches into a tree T = B+(c_1 ... c_k) by a recursion over T's subtrees:
it folds over the children, each c_i takes a share of the branches left and
is grafted with it recursively, and whatever is left after the last child
stays at T's root.  Each result is memoized per (T, S) in a per-algebra
table, filled from an explicit stack (``foundations.bottom_up``), as every
walk along a tree's depth in this package is.  The two algebras differ
only in how S shares out (``_shares``): for KT, S is a sorted multiset, a
child takes any sub-multiset, weighted by the product of binomials C(m, j)
over the kinds of branch, so the counts stay those of the |t'|^k labelled
attachments; for KP, S is a sequence, and a child takes the next block
after a block left in the root's gap before it.  Partial results with equal branches left and equal
children so far merge, so each is carried on once.

Both are priced by the rule that ``hopf`` states.  Their public
``product`` and ``antipode`` have one guard more, since their work is not
bounded by their terms: ``GRAFT_CAP``, in vertices rebuilt, each attachment
choice at about v^2 / 2 vertices for a result of v vertices, as when each
choice rebuilt a whole tree.  The product prices the attachment choices
(``product_choices``) of its key products not yet memoized; the antipode,
each term of its result as one choice, and both refuse by one check
(``_check_grafts``).  Z, the antipode recursion and the suites multiply by
the unpriced key products.

HK (basis: forests, degree = total vertices) is the polynomial algebra on
trees under disjoint union.  Its coproduct is defined on a tree t by

    Δ(t) = t ⊗ 1 + (id ⊗ b_plus) Δ(b_minus(t))

and extended to forests by ``HopfAlgebra``'s multiplicative rule; since
``coproduct_needs`` names b_minus(t), the coproducts down a tree are filled
from the memo's explicit stack, the deepest first.  The
antipode of a tree is the forest formula (Connes-Kreimer): a signed sum,
over the sets of edges cut, of the pieces left, grouped per subtree
(``ForestAlgebra._cuts``), so that its cost follows the distinct pieces, not
the 2^(edges) cut sets.  KT keeps ``HopfAlgebra``'s antipode recursion.
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
from itertools import groupby
from math import comb, factorial, prod
from operator import attrgetter

from .foundations import LinComb, bottom_up, memo, memo_table, multiset_splits
from .hopf import TERM_CAP, HopfAlgebra, _growing_count, _split_count
from .hopf import capped_binomial, capped_power, capped_product, capped_sum
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
    rooted_count,
    sym_order,
)

_children = attrgetter("children")

# most vertices one kt or kp product may graft, priced by the attachment
# choices it counts, each at about (result vertices)^2 / 2 vertices, the
# subtrees' encodings included; [[][]] into l80 is 10.9 million
GRAFT_CAP = 20_000_000


def _check_grafts(priced, refusal):
    """Refuse, with the text ``refusal(cost)``, grafting whose (attachment
    choices, vertices of their trees) pairs ``priced`` rebuild more than
    ``GRAFT_CAP`` vertices: about half of each tree for each choice, its
    subtrees' encodings included."""
    cost = sum(choices * vertices ** 2 // 2 for choices, vertices in priced)
    if cost > GRAFT_CAP:
        raise ValueError(f"{refusal(cost)}; the cap is {GRAFT_CAP:,}")


@memo
def _submultisets(branches):
    """The ways a child subtree takes part of the sorted multiset
    ``branches``: (nothing left at the root before it, the part it takes,
    the rest, how many choices of the labelled branches give that part)."""
    return tuple(((), part, rest, count) for part, rest, count in multiset_splits(branches))


@memo
def _blocks(branches):
    """The ways the sequence ``branches`` splits at a child subtree: a block
    for the root's gap before the child, the next block for the child, the
    rest after it; each split once."""
    n = len(branches)
    return tuple((branches[:a], branches[a:b], branches[b:], 1)
                 for a in range(n + 1) for b in range(a, n + 1))


class GraftingAlgebra(HopfAlgebra):
    """Rooted-tree Hopf algebra with the vertex-attachment product; its unit
    is the class's ``leaf``, which KP sets to the planar leaf."""

    name = "kt"
    leaf = LEAF

    def __init__(self):
        super().__init__()
        self._graft_memo = memo_table()

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
        vertices, and then as ``HopfAlgebra.product`` is.  The two walks
        over the key pairs price different things: this one the grafting
        work of the pairs not yet memoized, and that one, only when the
        trees of the degrees reached are more than ``TERM_CAP``, the terms
        of every pair."""
        memo = self._prod_memo
        priced = [(self.product_choices(t, tp), t.size + tp.size - 1)
                  for t in a for tp in b if (t, tp) not in memo]
        choices = sum(n for n, _ in priced)
        _check_grafts(priced, lambda cost: f"this product would graft {choices:,} attachment "
                                           f"choices, rebuilding roughly {cost:,} vertices")
        return super().product(a, b)

    def antipode(self, a):
        """S of an element, priced by its terms as ``HopfAlgebra.antipode``
        is, and within the term cap refused before any graft when the
        recursion would rebuild more than ``GRAFT_CAP`` vertices: each term
        of S(t), a tree of t's size, priced as one attachment choice of a
        product is.  The terms do not bound this work: S of the tree whose
        root branches are two leaves and the ladder l310 has at most 313^2
        terms, but the recursion grafts the two leaves into a tree of 311
        vertices in about 48,500 ways."""
        terms = [(self.antipode_terms(t), t.size) for t in a]
        total = sum(n for n, _ in terms)
        if total <= TERM_CAP:
            _check_grafts(terms, lambda cost: f"this antipode of up to {total:,} terms would "
                                              f"rebuild roughly {cost:,} vertices in grafting")
        return super().antipode(a)

    def degree_terms(self, n):
        """The trees of n + 1 vertices, capped."""
        return _growing_count(self.tree_count, n + 1)

    def pair_terms(self, t, tp, n):
        """The attachment choices of t ∘ tp: each term comes from one."""
        return self.product_choices(t, tp)

    def product_keys(self, t, tp):
        """t's root subtrees grafted into tp, in every attachment: |tp|^k
        of them for k subtrees, each distinct tree once with its count."""
        return LinComb.trusted(self.graft(tp, t.children))

    def graft(self, tree, branches):
        """The trees that grafting ``branches`` into ``tree`` gives, as a
        dict tree -> number of attachments, memoized per (tree, branches)."""
        if not branches:
            return {tree: 1}
        if not tree.children:
            return {type(tree)(branches): 1}
        return bottom_up((tree, branches), self._graft_memo, self._graft_needs,
                         self._graft_fold)

    # the ways a child subtree takes part of the branches left: here a
    # sub-multiset, weighted by the binomials of choosing its members
    _shares = staticmethod(_submultisets)

    def _graft_needs(self, key):
        tree, branches = key
        parts = dict.fromkeys(part for _, part, _, _ in self._shares(branches) if part)
        return [(child, part) for child in dict.fromkeys(tree.children) if child.children
                for part in parts]

    def _graft_fold(self, key):
        """Fold over the children of ``tree``: each takes a share of the
        branches left and is grafted with it, from the memo; the branches
        left after the last child stay at the root.  Before the last child,
        a partial result is the branches left and the children so far, kept
        sorted when the children are unordered, so that equal partial trees
        merge."""
        tree, branches = key
        *firsts, last = tree.children
        states = {(branches, ()): 1}
        for child in firsts:
            grown = {}
            get = grown.get
            for left, kids, sub, count in self._graft_child(states, child):
                kids += (sub,)
                state = (left, kids if tree.ordered else tuple(sorted(kids, key=_tree_key)))
                grown[state] = get(state, 0) + count
            states = grown
        out = {}
        get = out.get
        make = type(tree)
        for left, kids, sub, count in self._graft_child(states, last):
            result = make(kids + (sub,) + left)
            out[result] = get(result, 0) + count
        return out

    def _graft_child(self, states, child):
        """(branches left, children so far, ``child`` grafted, count) for
        each share of the branches left that ``child`` can take, from each
        partial result in ``states``; ``graft`` finds every share of a child
        with children in the memo, as ``_graft_needs`` listed it."""
        for (rest, kids), count in states.items():
            for gap, part, left, weight in self._shares(rest):
                kids_gap, scale = kids + gap, count * weight
                for sub, n in self.graft(child, part).items():
                    yield left, kids_gap, sub, scale * n

    def product_choices(self, t, tp):
        """The attachment choices that ``product`` prices for t ∘ tp: a
        multiset of vertices of tp for each group of equal root subtrees of
        t."""
        m = tp.size
        return prod(comb(m + k - 1, k) for k in Counter(t.children).values())

    # how many trees of n vertices there are, and at how many places a root
    # branch of an n-vertex tree can be grafted into its others (see
    # ``antipode_terms``)
    tree_count = staticmethod(rooted_count)
    branch_points = staticmethod(lambda n: n)

    def antipode_terms(self, t):
        """An upper bound on the number of terms of S(t), capped.  A tree
        of at most one root branch is the unit or primitive, so S(t) is t
        or -t.  Otherwise S keeps the degree, so its terms are trees of t's
        size, and each grafts some of the k root branches of t into the
        others, never into the root: at most n^(k - 1) ways for n vertices,
        by Cayley's formula for rooted forests on the branches weighted by
        their sizes, and for a planar tree at most (2n - 2)^(k - 1), a
        branch taking one of the gaps of a later branch's vertices or none."""
        n, k = t.size, len(t.children)
        if k < 2:
            return 1
        ways = capped_power(self.branch_points(n), k - 1)
        return min(ways, _growing_count(self.tree_count, n))

    def coproduct_key(self, t):
        """Split the root's child subtrees over all 2^k two-colorings, each
        distinct split once, weighted by the colorings that give it."""
        return LinComb.trusted({(RootedTree(l), RootedTree(r)): count
                                for l, r, count in multiset_splits(t.children)})

    def coproduct_terms(self, t):
        """The number of terms of the coproduct of t: the distinct splits of
        its root branches, the product of m + 1 over the multiplicities m of
        equal branches, capped."""
        return _split_count(t.children)


class ForestAlgebra(HopfAlgebra):
    """Hopf algebra of forests under concatenation, with the root-recursion
    coproduct.  As HK, the polynomial algebra on rooted trees; ``empty``, the
    unit, fixes the kind of forest, and with it that of every tree built."""

    name = "ck"
    empty = EMPTY_FOREST

    def __init__(self):
        super().__init__()
        self._cut_memo = memo_table()

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

    def degree_terms(self, n):
        """The forests of degree n, as many as trees of n + 1 vertices
        (``b_plus``), capped."""
        return _growing_count(self.tree_count, n + 1)

    def coproduct_terms(self, f):
        """An upper bound on the terms of the coproduct of f, exact on
        ladders and corollas, capped: c(f), from c(t) = 1 + c(the forest of
        t's children) of its trees, the term t ⊗ 1 and those of the root
        recursion, filled from an explicit stack (``_forest_cuts``)."""
        for t in f.trees:
            bottom_up(t, _CUT_COUNTS, _children, _cut_count)
        return _forest_cuts(f.trees)

    def factors(self, f):
        return tuple(type(f)((t,)) for t in f.trees)

    def coproduct_needs(self, f):
        return tuple(map(b_minus, f.trees))

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

    # how many trees of n vertices there are, as many as forests of n - 1
    # (``b_plus``)
    tree_count = staticmethod(rooted_count)

    def antipode_terms(self, f):
        """An upper bound on the number of terms of S(f), capped: S(f) is
        the product of S of f's trees, each a sum over the sets of its
        edges, so it has at most 2^(|f| - #trees) terms, and S keeps the
        degree, so they are forests of |f| vertices.  Exact on HF ladders,
        whose cut sets each leave a different ordered forest."""
        n = f.degree
        return min(capped_power(2, n - len(f.trees)), _growing_count(self.tree_count, n + 1))

    def antipode_rule(self, f):
        """S of a one-tree forest by the forest formula (Connes-Kreimer):
        the sum over the sets C of edges of (-1)^(|C| + 1) times the forest
        of the pieces that cutting C leaves, for HF the pieces cut off in
        reverse pre-order of their cut edges, then the trunk.  A forest of
        k + 1 pieces comes only from k cuts, so no two terms cancel."""
        (t,) = f.trees
        forest = type(f)
        counts = Counter()
        for (trunk, pieces), n in self._cuts(t).items():
            counts[forest(pieces + (trunk,))] += n
        return LinComb.trusted({g: -n if len(g.trees) % 2 else n for g, n in counts.items()})

    def _cuts(self, t):
        """(trunk, pieces cut off) -> how many sets of edges of t cutting
        leaves them, memoized per tree and filled from an explicit stack."""
        return bottom_up(t, self._cut_memo, _children, self._cut_fold)

    def _cut_fold(self, t):
        """Fold over the children of t, each with its cuts from the memo:
        a child's trunk stays a child of t's trunk, or its edge is cut too
        and the trunk is one more piece, after those cut off below it; the
        pieces of a later child come first.  Partial results of a tree with
        unordered children are kept sorted, so that equal ones merge; by
        identity, which is equality for interned trees, since ``Forest``
        puts the pieces in the canonical order in the end."""
        memo = self._cut_memo
        states = {((), ()): 1}
        for child in t.children:
            grown = Counter()
            for (kids, pieces), count in states.items():
                for (trunk, below), n in memo[child].items():
                    for state in ((kids + (trunk,), below + pieces),
                                  (kids, below + (trunk,) + pieces)):
                        if not t.ordered:
                            state = tuple(sorted(state[0], key=id)), tuple(sorted(state[1], key=id))
                        grown[state] += count * n
            states = grown
        make = type(t)
        return {(make(kids), pieces): count for (kids, pieces), count in states.items()}


# tree -> c(t) of ``ForestAlgebra.coproduct_terms``, for planar trees too
_CUT_COUNTS = memo_table()


def _cut_count(t):
    return capped_sum((_forest_cuts(t.children), 1))


def _forest_cuts(trees):
    """c of a forest of trees whose c(t) the memo holds, capped: the
    product over its runs of m equal trees of the terms of Δ(t)^m, the
    coproduct of a forest being the product of its trees'.  In a
    commutative forest, whose equal trees are neighbours, the m factors
    take a multiset of the c(t) terms: C(c(t) + m - 1, m).  In an ordered
    one, ``_ordered_run``."""
    return capped_product(map(_run_cuts, groupby(trees)))


def _run_cuts(run):
    t, copies = run
    c, m = _CUT_COUNTS[t], len(tuple(copies))
    if m == 1:
        return c
    return _ordered_run(c, m) if t.ordered else capped_binomial(c + m - 1, m)


def _ordered_run(c, m):
    """A bound on the terms of Δ(t)^m over ordered forests, for a Δ(t) of
    at most c terms, two of them t ⊗ 1 and 1 ⊗ t, capped: r of the m
    factors take one of the c - 2 other terms, in order, and each of the
    rest puts t on the left or the right, where only how many land in each
    of the r + 1 gaps between those counts.  That is the sum over r of
    (c - 2)^r C(m + r + 1, 2r + 1); m + 1 for a leaf."""
    return capped_sum((c - 2) ** r * comb(m + r + 1, 2 * r + 1)
                      for r in range(m + 1 if c > 2 else 1))


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
