"""Quasi-symmetric, noncommutative symmetric, and symmetric functions.

QSYM uses the monomial basis indexed by compositions: the quasi-shuffle
product (interleave the two part sequences, optionally adding a part of each
to a part of the other) and the deconcatenation coproduct.

NSYM is the free associative algebra on generators E_1, E_2, ... with basis
the products E_I indexed by compositions, concatenation product, and the
divided-power coproduct Δ(E_n) = sum E_i ⊗ E_j over i + j = n, extended to
every E_I by ``HopfAlgebra``'s multiplicative rule.  It is the graded dual
of QSYM under the Kronecker pairing of compositions.

SYM uses the monomial basis indexed by partitions.  It embeds into QSYM by
symmetrizing (a partition maps to the sum of its distinct rearrangements).
Products are computed on partitions directly: each multiset of columns
pairing parts of one factor with parts of the other, or with nothing, is
made once and counted by its layouts.  The quasi-shuffle-oracle suite checks
them against the QSYM product of the symmetrizations, collected back.  The
coproduct splits the part multiset into an ordered pair of submultisets,
each distinct splitting once.

The antipodes are closed forms with no cancellation, as ``HopfAlgebra``
describes: S(M_a) sums the coarsenings of a reversed (Malvenuto-Reutenauer;
Ehrenborg), S(m_lam) collects that sum on partitions, a count of the
rearrangements of lam that coarsen to each term, and S(E_n) is the signed
sum of E_J over the compositions J of n.  ``antipode_terms`` counts the
terms of S on a key (on SYM, bounds them) before any is made, which the CLI
checks against its term cap.

The elementary/complete/power sums live here too, along with the conversion
between the monomial and elementary bases (integer back-substitution along
the dominance order, one memoized row per partition),
the append-a-part-one operator alpha_plus with its one-sided inverse
alpha_minus, their NSYM duals, and the truncated polynomial realization of
QSYM used as an independent oracle for the quasi-shuffle product: a
polynomial in x_1..x_n is a LinComb over exponent tuples of length n.
"""

from collections import Counter, defaultdict
from itertools import combinations
from math import comb, factorial, prod
from operator import sub

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

    def antipode_rule(self, comp):
        """S(M_a) = (-1)^len(a) times the sum of M_b over the coarsenings b
        of a reversed (Malvenuto-Reutenauer; Ehrenborg): each once."""
        sign = -1 if len(comp) % 2 else 1
        return LinComb.trusted(dict.fromkeys(_coarsenings(comp[::-1]), sign))

    def antipode_terms(self, comp):
        """The number of terms of S(M_comp), 2^(len - 1), or
        ``COUNT_LIMIT + 1`` above ``COUNT_LIMIT``."""
        return _power_of_two(max(len(comp) - 1, 0))


class NoncommutativeSymmetricFunctions(_PartLists):
    """Free associative algebra on divided-power generators E_1, E_2, ..."""

    name = "nsym"
    letter = "E"

    def product_keys(self, left, right):
        return LinComb.single(left + right)

    def factors(self, comp):
        return tuple((part,) for part in comp)

    def coproduct_key(self, comp):
        """Δ(E_n) = sum of E_i ⊗ E_{n-i} over 0 <= i <= n, where E_0 = 1."""
        (n,) = comp or (0,)
        part = lambda i: (i,) if i else ()
        return LinComb.trusted({(part(i), part(n - i)): 1 for i in range(n + 1)})

    def antipode_rule(self, comp):
        """S(E_n) = sum of (-1)^len(J) E_J over the compositions J of n."""
        (n,) = comp
        return LinComb.trusted({j: -1 if len(j) % 2 else 1 for j in compositions_of(n)})

    def antipode_terms(self, comp):
        """The number of terms of S(E_comp), the product of 2^(a - 1) over
        its parts a, or ``COUNT_LIMIT + 1`` above ``COUNT_LIMIT``."""
        return _power_of_two(sum(comp) - len(comp))


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

    def antipode_rule(self, lam):
        """QSYM's rule collected on partitions: the coefficient of m_mu in
        S(m_lam) is (-1)^len(lam) times the number of rearrangements of lam
        that coarsen to mu, a positive count (``_coarsening_counts``)."""
        sign = -1 if len(lam) % 2 else 1
        return LinComb.trusted({mu: sign * c for mu, c in _coarsening_counts(lam).items()})

    def antipode_terms(self, lam):
        """An upper bound on the number of terms of S(m_lam), exact for e_n:
        a term merges the parts of lam by a set partition of them, so it is
        a partition of |lam| into at most len(lam) parts, and there are no
        more terms than set partitions.  ``COUNT_LIMIT + 1`` above
        ``COUNT_LIMIT``."""
        return min(_partitions_at_most(sum(lam), len(lam)), _set_partitions(len(lam)))


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


def _coarsenings(comp):
    """Every composition made by adding up runs of consecutive parts of
    ``comp``: one for each subset of the gaps between its parts."""
    out = [comp[:1]]
    for part in comp[1:]:
        out = [c + (part,) for c in out] + [c[:-1] + (c[-1] + part,) for c in out]
    return out


def _coarsening_counts(lam):
    """mu -> the number of rearrangements of the partition lam that coarsen
    to mu: the splits of the multiset lam into blocks B_1, B_2, ... with
    sums mu_1 >= mu_2 >= ..., each counted by the product of the distinct
    orderings of its blocks.  The blocks are taken in turn, largest sum
    first; a partial split is the part sums so far and the multiset left,
    and the partial splits with the same sums and the same multiset left
    are carried on as one, with the sum of their counts.  The prefixes of
    mu are walked from an explicit stack."""
    values = tuple(sorted(set(lam), reverse=True))
    counts = {}
    stack = [((), sum(lam), {tuple(lam.count(v) for v in values): 1})]
    while stack:
        mu, rest, states = stack.pop()
        grown = {}
        for left, c in states.items():
            for s, after, w in _blocks_up_to(values, left, mu[-1] if mu else rest):
                if (by_left := grown.get(s)) is None:
                    by_left = grown[s] = defaultdict(int)
                by_left[after] += c * w
        for s, by_left in grown.items():
            if s == rest:
                (counts[mu + (s,)],) = by_left.values()
            else:
                stack.append((mu + (s,), rest - s, by_left))
    return counts


@memo
def _blocks_up_to(values, left, cap):
    """(sum s, multiplicities left, distinct orderings of the block) for
    each nonempty block of the multiset with ``left`` copies of each of
    ``values`` whose parts add up to s <= cap and leave no part above s,
    which no later block, of sum at most s, could take."""
    partial = [((), 0)]
    for v, m in zip(values, left):
        partial = [(taken + (k,), s + k * v)
                   for taken, s in partial for k in range(min(m, (cap - s) // v) + 1)]
    blocks = []
    for taken, s in partial:
        rest = tuple(map(sub, left, taken))
        if s and all(v <= s for v, r in zip(values, rest) if r):
            blocks.append((s, rest, factorial(sum(taken)) // prod(map(factorial, taken))))
    return tuple(blocks)


# the largest term count that ``antipode_terms`` computes: past it, it
# returns COUNT_LIMIT + 1, so that a degree far beyond any cap costs no work
COUNT_LIMIT = 10**9


def _power_of_two(k):
    return 1 << k if k < COUNT_LIMIT.bit_length() else COUNT_LIMIT + 1


@memo
def _partitions_at_most(n, k):
    """The partitions of n into at most k parts, or ``COUNT_LIMIT + 1``
    above ``COUNT_LIMIT``: a table over m <= n, started at k = 3 from its
    closed form round((m + 3)^2 / 12), so that it has at most
    sqrt(12 COUNT_LIMIT) places, and grown a part size at a time, which
    stops once the count passes the limit."""
    k = min(k, n)
    if k <= 2:
        count = n // 2 + 1 if k == 2 else 1
    elif (n + 3) ** 2 // 12 > COUNT_LIMIT:
        count = COUNT_LIMIT + 1
    else:
        table = [((m + 3) ** 2 + 6) // 12 for m in range(n + 1)]
        for j in range(4, k + 1):
            for m in range(j, n + 1):
                table[m] += table[m - j]
            if table[n] > COUNT_LIMIT:
                break
        count = table[n]
    return min(count, COUNT_LIMIT + 1)


@memo
def _set_partitions(k):
    """The Bell number B(k), or ``COUNT_LIMIT + 1`` above ``COUNT_LIMIT``,
    by B(m + 1) = sum of C(m, i) B(i), stopped once past the limit."""
    bell = [1]
    while len(bell) <= k and bell[-1] <= COUNT_LIMIT:
        bell.append(sum(comb(len(bell) - 1, i) * b for i, b in enumerate(bell)))
    return min(bell[-1], COUNT_LIMIT + 1)


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
        raise ValueError(f"not symmetric: coefficient of {QSYM.key_str(other)} differs "
                         f"from {QSYM.key_str(pi_forget(other))}")
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
def m_to_e_row(lam) -> LinComb:
    """m_lam in the elementary basis, by integer back-substitution:
    e_{lam'} is m_lam plus terms m_mu with mu strictly below lam in
    dominance order (Macdonald, ch. I.6), so only the down-set of lam is
    visited."""
    conj = _conjugate(lam)
    lower = e_to_m_row(conj).filter_keys(lambda mu: mu != lam)
    return LinComb.single(conj) - lower.apply_linear(m_to_e_row)


def m_to_e(a: LinComb) -> LinComb:
    """Rewrite a monomial-basis element as coefficients on the e_lam basis."""
    return a.apply_linear(m_to_e_row)


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
