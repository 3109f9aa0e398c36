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
"""

from .foundations import LinComb, memo, memo_table, pi_forget
from .trees import (
    Forest,
    OrderedForest,
    RootedTree,
    forget_order,
    is_ladder,
    ladder_forest,
    planar_fiber,
    sym_order,
)
from .hopf_rooted import KT, HK, epsilon
from .hopf_planar import KP, HF
from .symfun import NSYM, QSYM, SYM, alpha_plus, e_to_m_row, m_to_e


def tau(a: LinComb) -> LinComb:
    """Abelianization: send each divided-power generator E_k to e_k."""
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


_ZSTAR_MEMO: dict[RootedTree, LinComb] = memo_table()


def Z_star(a: LinComb) -> LinComb:
    """The unique algebra morphism from forests to qsym that intertwines
    rooting a forest with appending a part 1."""
    return a.apply_linear(lambda f: _zstar_forest(f.trees))


def _zstar_forest(trees) -> LinComb:
    acc = QSYM.one()
    for t in trees:
        acc = QSYM.product(acc, _zstar_tree(t))
    return acc


def _zstar_tree(t: RootedTree) -> LinComb:
    out = _ZSTAR_MEMO.get(t)
    if out is None:
        out = _ZSTAR_MEMO[t] = alpha_plus(_zstar_forest(t.children))
    return out


def kbar(a: LinComb) -> LinComb:
    """Poset realization of Z_star, computed without the recursion.

    Each forest is a poset with children below parents.  Labelings are
    built level by level: repeatedly remove a nonempty set of currently
    minimal vertices and record its size, so a finished run is exactly a
    strictly order-preserving surjection onto {1..number of rounds} and
    contributes the composition of its fiber sizes.
    """
    return a.apply_linear(_kbar_forest)


@memo
def _kbar_forest(f: Forest) -> LinComb:
    child_mask = []

    def build(t):
        my = len(child_mask)
        child_mask.append(0)
        for c in t.children:
            child_mask[my] |= 1 << build(c)
        return my

    for t in f.trees:
        build(t)
    n = len(child_mask)
    full = (1 << n) - 1
    tails = {full: {(): 1}}

    def rest(removed):
        if removed in tails:
            return tails[removed]
        avail = [
            v
            for v in range(n)
            if not removed >> v & 1 and child_mask[v] & removed == child_mask[v]
        ]
        acc = {}
        for bits in range(1, 1 << len(avail)):
            mask = 0
            count = 0
            for i, v in enumerate(avail):
                if bits >> i & 1:
                    mask |= 1 << v
                    count += 1
            for comp, c in rest(removed | mask).items():
                key = (count,) + comp
                acc[key] = acc.get(key, 0) + c
        tails[removed] = acc
        return acc

    out = rest(0)
    # each recursive closure refers to itself through its cell: unbind them,
    # so that the tables they hold are freed now, not by the cyclic collector
    del build, rest
    return LinComb.trusted(out)


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
