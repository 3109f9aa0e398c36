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
Z_star is memoized per forest too; both are filled from explicit stacks
(``foundations.bottom_up``), as every walk along a tree's depth is.
"""

from operator import attrgetter

from .foundations import LinComb, bottom_up, memo, memo_table, pi_forget
from .trees import (
    Forest,
    OrderedForest,
    RootedTree,
    b_minus,
    forget_order,
    is_ladder,
    ladder_forest,
    planar_fiber,
    sym_order,
)
from .hopf import check_terms
from .hopf_rooted import KT, HK, epsilon
from .hopf_planar import KP, HF
from .symfun import NSYM, QSYM, SYM, _partitions_at_most, alpha_plus, e_to_m_row, m_to_e


def tau(a: LinComb) -> LinComb:
    """Abelianization: send each divided-power generator E_k to e_k.

    Refused before any row is made when the keys' bounds add up to more
    than ``TERM_CAP``: a monomial of e_alpha has exponents of at most
    len(alpha), so the terms of e_alpha are partitions of |alpha| into
    parts of at most len(alpha), as many as into at most len(alpha) parts."""
    check_terms("this image under tau",
                sum(_partitions_at_most(sum(comp), len(comp)) for comp in a))
    return a.apply_linear(e_to_m_row)


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
    """Algebra morphism into the grafting algebra taking E_k to epsilon(k)."""
    return a.apply_linear(_z_key)


@memo
def _z_key(comp):
    if not comp:
        return KT.one()
    return KT.product(_z_key(comp[:-1]), epsilon(comp[-1]))


_ZSTAR_MEMO: dict[Forest, LinComb] = memo_table()


def Z_star(a: LinComb) -> LinComb:
    """The unique algebra morphism from forests to qsym that intertwines
    rooting a forest with appending a part 1."""
    return a.apply_linear(_zstar_key)


def _zstar_key(f: Forest) -> LinComb:
    """Z_star of one forest, memoized per forest.  A single tree goes to
    alpha_plus of the forest of its children, and a forest of several
    trees to the product of the forest of all but its last tree with the
    forest of that tree alone."""
    return bottom_up(f, _ZSTAR_MEMO, _zstar_parts, _zstar_value)


def _zstar_parts(f: Forest) -> tuple:
    trees = f.trees
    if len(trees) > 1:
        return Forest(trees[:-1]), Forest(trees[-1:])
    return tuple(map(b_minus, trees))


def _zstar_value(f: Forest) -> LinComb:
    parts = [_ZSTAR_MEMO[g] for g in _zstar_parts(f)]
    if len(parts) == 2:
        return QSYM.product(*parts)
    return alpha_plus(parts[0]) if parts else QSYM.one()


def kbar(a: LinComb) -> LinComb:
    """Poset realization of Z_star, computed without the recursion.

    Each forest is a poset with children below parents.  Labelings are
    built level by level: repeatedly remove a nonempty set of currently
    minimal vertices and record its size, so a finished run is exactly a
    strictly order-preserving surjection onto {1..number of rounds} and
    contributes the composition of its fiber sizes.  The minimal vertices
    are the leaves, so kbar(f) is the sum over nonempty sets S of leaves
    of M_(|S|) followed by kbar(f minus S): leaf stripping, memoized per
    forest.
    """
    return a.apply_linear(_kbar_forest)


_KBAR_MEMO: dict[Forest, LinComb] = memo_table()
# tree -> {(what is left of it, or None, number of leaves removed): the
# number of sets of its leaves whose removal leaves that}
_LEAF_STRIPS: dict[RootedTree, dict] = memo_table()
_children = attrgetter("children")


def _kbar_forest(f: Forest) -> LinComb:
    """kbar of one forest by leaf stripping, with integer sums of its own.

    The sets of leaves of a forest are folded tree by tree from the
    memoized strips of each tree, and those of a tree from the strips of
    its children, grouping equal results: identical leaves and identical
    subtrees add to one entry each, so a corolla with k leaves has k + 1
    strips, not 2^k.
    """
    out = _KBAR_MEMO.get(f)
    if out is not None:  # a hit builds none of the helpers below
        return out

    def fold(trees):
        # {(what is left of trees, as a tuple sorted by identity, which is
        # canonical for interned trees; leaves removed): count}
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

    def tree_strips(t):
        if not t.children:
            return {(t, 0): 1, (None, 1): 1}
        return {(RootedTree(kept), k): m for (kept, k), m in fold(t.children).items()}

    def moves(g):
        # {(forest left, leaves removed): count} over the nonempty sets of
        # leaves of g, kept for the call, since kbar_of reads them again
        out = moves_of.get(g)
        if out is None:
            for t in g.trees:
                bottom_up(t, _LEAF_STRIPS, _children, tree_strips)
            out = moves_of[g] = {(Forest(kept), k): m
                                 for (kept, k), m in fold(g.trees).items() if k}
        return out

    def kbar_of(g):
        terms = {} if g.trees else {(): 1}
        for (h, k), m in moves(g).items():
            for comp, c in _KBAR_MEMO[h].items():
                key = (k,) + comp
                terms[key] = terms.get(key, 0) + m * c
        return LinComb.trusted(terms)

    moves_of = {}
    return bottom_up(f, _KBAR_MEMO, lambda g: [h for h, _ in moves(g)], kbar_of)


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
