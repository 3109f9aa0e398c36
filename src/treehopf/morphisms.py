"""The nine homomorphisms connecting the seven algebras, plus kbar.

They fit in one commuting diagram shaped like a hexagon.  Out of NSYM:
Phi into HF, tau into SYM, Z into KT.  Into QSYM: Phi_star from KP,
include_sym from SYM, Z_star from HK.  Crossings: rho (HF to HK), phi
(SYM to HK), phi_star (KT to SYM), rho_star (KT to KP).  Commutativity
means rho*Phi = phi*tau, Phi_star*rho_star = include_sym*phi_star,
phi_star*Z = tau, Z_star*phi = include_sym, and consequently the two
long ways around from NSYM to QSYM agree.

Every map here is linear in LinComb elements and a Hopf algebra morphism
on its whole domain; the verification suites machine-check all of that.

kbar is an independent construction that provably agrees with Z_star: it
reads a forest as a poset (children below parents) and sums, over all
strictly order-preserving surjections onto {1..j}, the monomial basis
element indexed by the fiber sizes.  Keeping both implementations gives
two unrelated code paths whose agreement is a strong regression check.
kbar computes by leaf stripping: the first fiber is a nonempty set S of
leaves, so kbar(f) sums M_(|S|) followed by kbar(f minus S) over every S.
It memoizes each tree's ways to lose leaves, grouped by what is left, and
kbar per forest, so equal leaves and equal subtrees cost one entry each
and every stripped forest is shared by all the forests that reach it.
tau, Z and Z_star are fixed by their values on generators (E_k to e_k and
to epsilon(k), a tree to alpha_plus of the image of its children), and
each is one ``HopfAlgebra.multiplicative`` table of its domain, by the
codomain's unpriced key products.  Z's table is kept in integers: since
epsilon(k) is C_k / k!, with C_k the corolla with k leaves, Z(E_a) is
C_(a_1) ... C_(a_m) / (a_1! ... a_m!), and ``_Z_MEMO`` holds the product
of corollas, folded in ``int``s, while the public ``Z`` divides it by the
product of factorials (``_z_scale``) once per key as it reads it, and
keeps no divided copy.  The suites read the table itself and compare
sides times the scale (``verify``).  Every table here names the smaller
keys its fill reads, as ``foundations`` requires: a tree's children, a
forest's leaf strippings, a key's generators.  All four are priced by
the rule that ``hopf`` states, and phi through ``symfun.m_to_e_row``.
"""

from fractions import Fraction
from itertools import accumulate, chain
from math import factorial, prod
from operator import attrgetter

from .foundations import LinComb, memo, memo_table, pi_forget
from .trees import (
    Forest,
    OrderedForest,
    RootedTree,
    b_minus,
    forget_order,
    is_ladder,
    ladder_forest,
    planar_fiber,
    rooted_count_by_levels,
    sym_order,
)
from .hopf import TERM_CAP, _growing_count, check_terms
from .hopf import capped_binomial, capped_power, capped_product
from .hopf_rooted import KT, HK, corolla
from .hopf_planar import KP, HF
from .symfun import (
    NSYM,
    QSYM,
    SYM,
    _compositions_with_parts,
    _partitions_at_most,
    alpha_plus,
    e_to_m_row,
    m_to_e,
)


def tau(a: LinComb) -> LinComb:
    """Abelianization: send each divided-power generator E_k to e_k,
    priced by the keys' ``_tau_terms``."""
    check_terms("this image under tau", sum(map(_tau_terms, a)))
    return a.apply_linear(e_to_m_row)


def _tau_terms(comp):
    """An upper bound on the terms of tau(E_comp): a monomial of e_comp has
    exponents of at most len(comp), so its terms are partitions of |comp|
    into parts of at most len(comp), as many as into at most len(comp)
    parts."""
    return _partitions_at_most(sum(comp), len(comp))


def phi(a: LinComb) -> LinComb:
    """Send e_k to the k-vertex ladder; monomial input is converted first."""
    return m_to_e(a).map_keys(ladder_forest)


def phi_star(a: LinComb) -> LinComb:
    """Adjoint of phi: a tree whose root subtrees are all ladders goes to
    its symmetry order times the monomial function of the sizes; any other
    tree goes to zero."""
    return a.apply_linear(_phi_star_key)


@memo
def _phi_star_key(t: RootedTree) -> LinComb:
    if not all(is_ladder(c) for c in t.children):
        return LinComb.zero()
    lam = pi_forget(tuple(c.size for c in t.children))
    return LinComb.single(lam, sym_order(t))


def Phi(a: LinComb) -> LinComb:
    """Send E_I to the ordered forest of planar ladders with sizes I."""
    return a.map_keys(lambda comp: ladder_forest(comp, OrderedForest))


def Phi_star(a: LinComb) -> LinComb:
    """Adjoint of Phi: a planar tree whose root subtrees are all ladders
    goes to the monomial function of their sizes in order, else to zero."""
    return a.apply_linear(_Phi_star_key)


@memo
def _Phi_star_key(t) -> LinComb:
    if not all(is_ladder(c) for c in t.children):
        return LinComb.zero()
    return LinComb.single(tuple(c.size for c in t.children))


def rho(a: LinComb) -> LinComb:
    """Forget planarity and ordering: ordered forests to forests."""
    return a.map_keys(
        lambda f: Forest(tuple(forget_order(t) for t in f.trees))
    )


def rho_star(a: LinComb) -> LinComb:
    """Adjoint of rho: a tree goes to its symmetry order times the sum of
    its distinct planar embeddings."""
    return a.apply_linear(_rho_star_key)


def _rho_star_key(t: RootedTree) -> LinComb:
    order = sym_order(t)
    return LinComb.trusted(dict.fromkeys(planar_fiber(t), order))


def Z(a: LinComb) -> LinComb:
    """Algebra morphism into the grafting algebra taking E_k to epsilon(k),
    priced by the keys' ``_z_terms``."""
    check_terms("this image under Z", sum(map(_z_terms, a)))
    return a.apply_linear(_z_key)


def _z_key(comp) -> LinComb:
    """Z(E_comp): the product of corollas in ``_Z_MEMO``, each coefficient
    divided once by ``_z_scale(comp)``, an ``int`` where it divides, so no
    ``Fraction`` is built for a whole coefficient."""
    scale = _z_scale(comp)
    whole = _Z_MEMO[comp]
    if scale == 1:
        return whole
    return LinComb.trusted({t: c // scale if c % scale == 0 else Fraction(c, scale)
                            for t, c in whole.items()})


def _z_scale(comp) -> int:
    """The product of the factorials of the parts of ``comp``: Z(E_comp)
    times it is ``_Z_MEMO[comp]``, which has integer coefficients."""
    return prod(map(factorial, comp))


@memo
def _z_terms(comp):
    """An upper bound on the terms of Z(E_comp), exact on E_n, capped.  Its
    terms are trees of |comp| + 1 vertices, and of at most len(comp) + 1
    levels, since each product by epsilon(a_i) puts the branches of a term
    so far on a vertex of a corolla: one level more.  The first product
    grafts the a_1 leaves of epsilon(a_1), all alike, onto the a_2 + 1
    vertices of epsilon(a_2): a multiset of places, one of
    C(a_1 + a_2, a_1).  Each later product by epsilon(a_i) grafts each root
    branch of a term so far, at most a_1 + ... + a_(i - 1) of them, onto
    one of its a_i + 1 vertices."""
    if len(comp) < 2:
        return 1
    branches = list(accumulate(comp))
    grafts = (capped_power(part + 1, before) for part, before in zip(comp[2:], branches[1:]))
    ways = capped_product(chain((capped_binomial(branches[1], comp[0]),), grafts))
    return min(ways, _growing_count(rooted_count_by_levels, branches[-1] + 1, len(comp) + 1))


# comp -> C_(a_1) ... C_(a_m), the product of the corollas with a_i leaves,
# which is _z_scale(comp) Z(E_comp): multiplicative over NSYM's ``split``,
# in integers, since epsilon(k) is C_k / k!
_Z_MEMO: dict[tuple, LinComb] = NSYM.multiplicative(
    lambda part: LinComb.single(corolla(sum(part))), lambda a, b: KT._times(a, b))

# forest -> Z_star(f): multiplicative over HK's ``split``, a tree sent to
# alpha_plus of the image of the forest of its children, which
# ``HK.coproduct_needs`` names, as for the coproduct's root recursion
_ZSTAR_MEMO: dict[Forest, LinComb] = HK.multiplicative(lambda f: _zstar_tree(f),
                                                       lambda a, b: QSYM._times(a, b),
                                                       HK.coproduct_needs)
_zstar_key = _ZSTAR_MEMO.__getitem__
_children = attrgetter("children")
# tree -> the most vertices on a path from its root to a leaf
_HEIGHT: dict[RootedTree, int] = memo_table(lambda t, _: _tree_height(t), _children)


def Z_star(a: LinComb) -> LinComb:
    """The unique algebra morphism from forests to qsym that intertwines
    rooting a forest with appending a part 1, priced by ``_level_bound``."""
    check_terms("this image under Zstar", _level_bound(a))
    return a.apply_linear(_zstar_key)


def _level_bound(a: LinComb) -> int:
    """An upper bound on the terms of Z_star(a) and kbar(a): the
    compositions of each key's degree, or, when those add up to more than
    ``TERM_CAP``, the sum of the keys' ``_level_terms``."""
    bound = sum(QSYM.degree_terms(f.degree) for f in a)
    return bound if bound <= TERM_CAP else sum(map(_level_terms, a))


@memo
def _level_terms(f: Forest) -> int:
    """An upper bound on the terms of Z_star(f) and kbar(f), capped: each
    term is the fiber sizes of a strictly order-preserving surjection of f
    onto {1..k}, a composition of |f| into k parts, and k is at least the
    most vertices h on a path from a root to a leaf.  So there are at most
    the sum of C(|f| - 1, k - 1) over h <= k <= |f|.  The root of a single
    tree is alone in the last fiber, so it counts as the forest of its
    children."""
    n = f.degree
    h = max((_HEIGHT[t] for t in f.trees), default=0)
    if len(f.trees) == 1:
        n, h = n - 1, h - 1
    return _compositions_with_parts(n, h, n)


def _tree_height(t: RootedTree) -> int:
    return 1 + max((_HEIGHT[c] for c in t.children), default=0)


def _zstar_tree(f: Forest) -> LinComb:
    return alpha_plus(_ZSTAR_MEMO[b_minus(f.trees[0])]) if f.trees else QSYM.one()


def kbar(a: LinComb) -> LinComb:
    """Poset realization of Z_star, computed without the recursion.

    Each forest is a poset with children below parents.  Labelings are
    built level by level: repeatedly remove a nonempty set of currently
    minimal vertices and record its size, so a finished run is exactly a
    strictly order-preserving surjection onto {1..number of rounds} and
    contributes the composition of its fiber sizes.  The minimal vertices
    are the leaves, so kbar(f) is the sum over nonempty sets S of leaves
    of M_(|S|) followed by kbar(f minus S): leaf stripping, memoized per
    forest.  Priced as ``Z_star`` is.
    """
    check_terms("this image under kbar", _level_bound(a))
    return a.apply_linear(_kbar_forest)


# tree -> {(what is left of it, or None, number of leaves removed): the
# number of sets of its leaves whose removal leaves that}
_LEAF_STRIPS: dict[RootedTree, dict] = memo_table(lambda t, _: _tree_strips(t), _children)


def _kbar_fill(g: Forest, moves: dict) -> LinComb:
    """kbar(g) by leaf stripping, with integer sums of its own: M_(k)
    followed by kbar(h), m times, for each forest h that g leaves in m ways
    when it loses k of its leaves.  Its ``moves``, {h: m}, are the table's
    needs for g (``_leaf_moves``), made once and handed to the fill.

    The sets of leaves of a forest are folded tree by tree from the
    memoized strips of each tree, and those of a tree from the strips of
    its children, grouping equal results: identical leaves and identical
    subtrees add to one entry each, so a corolla with k leaves has k + 1
    strips, not 2^k.
    """
    terms = {} if g.trees else {(): 1}
    for h, m in moves.items():
        k = g.degree - h.degree
        for comp, c in _KBAR_MEMO[h].items():
            key = (k,) + comp
            terms[key] = terms.get(key, 0) + m * c
    return LinComb.trusted(terms)


# forest -> kbar(f), by its leaf moves
_KBAR_MEMO: dict[Forest, LinComb] = memo_table(lambda g, moves: _kbar_fill(g, moves),
                                               lambda g: _leaf_moves(g))
_kbar_forest = _KBAR_MEMO.__getitem__


def _leaf_moves(g: Forest) -> dict:
    """{forest left: count} over the nonempty sets of leaves of g; the
    leaves removed are the degree lost."""
    return {Forest(kept): m for (kept, k), m in _fold_strips(g.trees).items() if k}


def _fold_strips(trees) -> dict:
    """{(what is left of trees, as a tuple sorted by identity, which is
    canonical for interned trees; leaves removed): count}, from the strips
    of each tree in their table."""
    acc = {((), 0): 1}
    for t in trees:
        strips = _LEAF_STRIPS[t].items()
        grown = {}
        for (kept, k), m in acc.items():
            for (rest, j), n in strips:
                left = kept if rest is None else tuple(sorted(kept + (rest,), key=id))
                grown[left, k + j] = grown.get((left, k + j), 0) + m * n
        acc = grown
    return acc


def _tree_strips(t: RootedTree) -> dict:
    if not t.children:
        return {(t, 0): 1, (None, 1): 1}
    return {(RootedTree(kept), k): m for (kept, k), m in _fold_strips(t.children).items()}


# name -> (domain, codomain, function), the table the CLI and the
# morphism-property checks both consume
MAP_TABLE = {
    "tau": (NSYM, SYM, tau),
    "phi": (SYM, HK, phi),
    "phistar": (KT, SYM, phi_star),
    "Phi": (NSYM, HF, Phi),
    "Phistar": (KP, QSYM, Phi_star),
    "rho": (HF, HK, rho),
    "rhostar": (KT, KP, rho_star),
    "Z": (NSYM, KT, Z),
    "Zstar": (HK, QSYM, Z_star),
    "kbar": (HK, QSYM, kbar),
}
