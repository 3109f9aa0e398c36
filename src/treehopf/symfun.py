"""Quasi-symmetric, noncommutative symmetric, and symmetric functions.

QSYM uses the monomial basis indexed by compositions: the quasi-shuffle
product (interleave the two part sequences, optionally adding a part of each
to a part of the other) and the deconcatenation coproduct.

NSYM is the free associative algebra on generators E_1, E_2, ... with basis
the products E_I indexed by compositions, concatenation product, and the
divided-power coproduct Δ(E_n) = sum E_i ⊗ E_j over i + j = n.  It is the
graded dual of QSYM under the Kronecker pairing of compositions.

SYM uses the monomial basis indexed by partitions.  It embeds into QSYM by
symmetrizing (a partition maps to the sum of its distinct rearrangements).
Products are computed on partitions directly: each multiset of columns
pairing parts of one factor with parts of the other, or with nothing, is
made once and counted by its layouts.  The quasi-shuffle-oracle suite checks
them against the QSYM product of the symmetrizations, collected back.  The
coproduct splits the part multiset into an ordered pair of submultisets,
each distinct splitting once.

The elementary/complete/power sums live here too, along with the conversion
between the monomial and elementary bases (integer back-substitution along
the dominance order, one memoized row per partition),
the append-a-part-one operator alpha_plus with its one-sided inverse
alpha_minus, their NSYM duals, and the truncated polynomial realization of
QSYM used as an independent oracle for the quasi-shuffle product: a
polynomial in x_1..x_n is a LinComb over exponent tuples of length n.
"""

from collections import Counter
from itertools import combinations
from math import factorial, prod
from operator import add, sub

from .foundations import (
    LinComb,
    compositions_of,
    memo,
    multiset_splits,
    partitions_of,
    pi_forget,
    rearrangements,
)
from .hopf import HopfAlgebra


class _PartLists(HopfAlgebra):
    """Basis keys are tuples of positive parts, compositions unless the
    subclass's ``basis`` says otherwise; the empty tuple is the unit and the
    degree is the sum of the parts.  A key prints as ``letter(parts)``."""

    def unit_key(self):
        return ()

    def degree(self, parts):
        return sum(parts)

    def basis(self, n):
        return compositions_of(n)

    def key_str(self, parts):
        if not parts:
            return "1"
        return "%s(%s)" % (self.letter, ",".join(str(p) for p in parts))

    def key_sort(self, parts):
        return (sum(parts), parts)


class QuasiSymmetricFunctions(_PartLists):
    """Monomial-basis quasi-symmetric functions."""

    name = "qsym"
    letter = "M"

    def product_keys(self, left, right):
        """Quasi-shuffle: take a part from either side, or fuse one of each."""
        if not left:
            return LinComb.single(right)
        if not right:
            return LinComb.single(left)
        a, b = left[0], right[0]
        first, second = self._pk(left[1:], right), self._pk(left, right[1:])
        # the first parts a, b and a + b tell the kinds of term apart, unless a == b
        parts = [((a,), first + second)] if a == b else [((a,), first), ((b,), second)]
        parts.append(((a + b,), self._pk(left[1:], right[1:])))
        return LinComb.trusted(
            {head + comp: c for head, tail in parts for comp, c in tail.items()}
        )

    def coproduct_key(self, comp):
        return LinComb.trusted({(comp[:i], comp[i:]): 1 for i in range(len(comp) + 1)})


class NoncommutativeSymmetricFunctions(_PartLists):
    """Free associative algebra on divided-power generators E_1, E_2, ..."""

    name = "nsym"
    letter = "E"

    def product_keys(self, left, right):
        return LinComb.single(left + right)

    def coproduct_key(self, comp):
        acc = {((), ()): 1}
        for part in comp:
            new = {}
            for (l, r), c in acc.items():
                for i in range(part + 1):
                    key = (l + ((i,) if i else ()), r + ((part - i,) if part - i else ()))
                    new[key] = new.get(key, 0) + c
            acc = new
        return LinComb.trusted(acc)


class SymmetricFunctions(_PartLists):
    """Monomial-basis symmetric functions (partition-indexed)."""

    name = "sym"
    letter = "m"

    def basis(self, n):
        return partitions_of(n)

    def product_keys(self, lam, mu):
        """m_lam m_mu on partitions (Macdonald, ch. I.2): the coefficient of
        m_nu counts the pairs of rearrangements of lam and mu, each padded
        with zeros, that add up to nu."""
        return LinComb(_column_sums(lam, mu))

    def coproduct_key(self, lam):
        """Each distinct ordered splitting of the part multiset, once."""
        return LinComb.trusted({(l, r): 1 for l, r, _ in multiset_splits(lam)})


def _column_sums(lam, mu):
    """The terms (nu, count) of m_lam m_mu, with a partition nu once for
    each multiset of columns that adds up to it.  A pair of padded
    rearrangements adding up to nu is a sequence of columns (a, b), a a
    part of lam or 0 and b a part of mu or 0, not both 0.  Each multiset of
    columns is made once, a part value of lam at a time, and counted by its
    layouts along a fixed ordering of nu: the columns of sum v fill the r_v
    places of v in r_v! / (product of their multiplicities' factorials)
    ways."""
    partners = Counter(mu)
    values = list(Counter(lam).items())
    out = []

    def fuse(i, sums, ties, free):
        # sums: the column sums so far; ties: the product of the factorials
        # of the columns' multiplicities; free: parts of mu left
        if i == len(values):
            for b, f in zip(partners, free):
                sums += (b,) * f
                ties *= factorial(f)
            layouts = prod(map(factorial, Counter(sums).values()))
            out.append((tuple(sorted(sums, reverse=True)), layouts // ties))
            return
        a, m = values[i]
        # how many of the m parts a fuse with each part value of mu
        takes = [()]
        for f in free:
            takes = [t + (k,) for t in takes for k in range(min(f, m - sum(t)) + 1)]
        for t in takes:
            alone = m - sum(t)
            more = sums + (a,) * alone
            for b, k in zip(partners, t):
                more += (a + b,) * k
            fuse(i + 1, more, ties * factorial(alone) * prod(map(factorial, t)),
                 tuple(map(sub, free, t)))

    fuse(0, (), 1, tuple(partners.values()))
    del fuse  # it refers to itself: unbind it, so that no cycle is left
    return out


QSYM = QuasiSymmetricFunctions()
NSYM = NoncommutativeSymmetricFunctions()
SYM = SymmetricFunctions()


def include_sym(a: LinComb) -> LinComb:
    """Embed SYM into QSYM: a partition becomes the sum of its distinct
    rearrangements as compositions."""
    return a.apply_linear(lambda lam: dict.fromkeys(rearrangements(lam), 1))


def collect_sym(q: LinComb) -> LinComb:
    """Inverse of include_sym on its image.

    Raises ValueError when the argument is not symmetric (some rearrangement
    class has unequal or missing coefficients).
    """
    out = LinComb.trusted({lam: q[lam] for lam in map(pi_forget, q) if q[lam]})
    wrong = include_sym(out) - q
    if wrong:
        other = next(iter(wrong))
        raise ValueError(f"not symmetric: coefficient of {other} differs from "
                         f"{pi_forget(other)}")
    return out


def e(k: int) -> LinComb:
    """Elementary symmetric function: the all-ones partition."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return LinComb.single((1,) * k)


def h(k: int) -> LinComb:
    """Complete homogeneous symmetric function: sum of all degree-k monomials."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return LinComb((lam, 1) for lam in partitions_of(k))


def p(k: int) -> LinComb:
    """Power sum: the one-part partition."""
    if k < 1:
        raise ValueError("power sums start at degree 1")
    return LinComb.single((k,))


def _conjugate(lam):
    return tuple(sum(1 for part in lam if part > i) for i in range(max(lam, default=0)))


@memo
def e_to_m_row(comp) -> LinComb:
    """e_{i_1} e_{i_2} ... in the monomial basis, for a composition; the
    product starts from e_{i_1}, not from 1."""
    if len(comp) <= 1:
        return e(sum(comp))
    return SYM.product(e_to_m_row(comp[:-1]), e(comp[-1]))


@memo
def _m_row(lam) -> LinComb:
    """m_lam in the elementary basis, by integer back-substitution:
    e_{lam'} is m_lam plus terms m_mu with mu strictly below lam in
    dominance order (Macdonald, ch. I.6), so only the down-set of lam is
    visited."""
    conj = _conjugate(lam)
    lower = e_to_m_row(conj).filter_keys(lambda mu: mu != lam)
    return LinComb.single(conj) - lower.apply_linear(_m_row)


def m_to_e(a: LinComb) -> LinComb:
    """Rewrite a monomial-basis element as coefficients on the e_lam basis."""
    return a.apply_linear(_m_row)


def m_to_e_row(lam) -> dict:
    """m_lam in the elementary basis, as a new dict {mu: coefficient of e_mu}."""
    return dict(_m_row(lam).items())


def e_to_m(a: LinComb) -> LinComb:
    """Expand e-basis coefficients back into the monomial basis."""
    return a.apply_linear(e_to_m_row)


def alpha_plus(a: LinComb) -> LinComb:
    """Append a part 1 to every composition."""
    return a.map_keys(lambda comp: comp + (1,))


def alpha_minus(a: LinComb) -> LinComb:
    """Strip a trailing part 1; kill compositions that do not end in 1."""
    return a.filter_keys(lambda comp: comp[-1:] == (1,)).map_keys(lambda comp: comp[:-1])


# Dual of alpha_plus on the E basis: strip a trailing E_1, else zero.
alpha_plus_dual = alpha_minus

# Dual of alpha_minus on the E basis: right-multiply by E_1.
alpha_minus_dual = alpha_plus


def _monomial_expansion(comp, nvars: int) -> dict:
    """Sum of x_{n1}^{i1} ... x_{nk}^{ik} over n1 < ... < nk <= nvars, as
    {exponent tuple: coefficient}.  The parts are positive, so each choice
    of variables gives its own exponent tuple, with coefficient 1."""
    data = {}
    for places in combinations(range(nvars), len(comp)):
        expo = [0] * nvars
        for v, part in zip(places, comp):
            expo[v] = part
        data[tuple(expo)] = 1
    return data


def expand_truncated(a: LinComb, nvars: int) -> LinComb:
    """Realize a QSYM element as a polynomial in x_1..x_nvars, a LinComb
    over exponent tuples of length nvars.

    Faithful (injective) on elements of degree <= nvars, which is what makes
    it an independent oracle for the quasi-shuffle product.
    """
    if nvars < 0:
        raise ValueError("variable count must be nonnegative")
    return a.apply_linear(lambda comp: _monomial_expansion(comp, nvars))


def polynomial_product(f: LinComb, g: LinComb) -> LinComb:
    """The product of two polynomials over exponent tuples of one length."""
    return LinComb.bilinear(f, g, lambda a, b: {tuple(map(add, a, b)): 1})
