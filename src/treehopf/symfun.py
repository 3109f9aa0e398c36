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
sum of E_J over the compositions J of n.  Every public operation here is
priced by the rule that ``hopf`` states.

The elementary/complete/power sums live here too, along with the conversion
between the monomial and elementary bases (integer back-substitution along
the dominance order, one memoized row per partition),
the append-a-part-one operator alpha_plus with its one-sided inverse
alpha_minus, their NSYM duals, and the truncated polynomial realization of
QSYM used as an independent oracle for the quasi-shuffle product: a
polynomial in x_1..x_n is a LinComb over exponent tuples of length n.
"""

from collections import Counter, defaultdict
from itertools import accumulate, combinations, count
from math import comb, factorial, prod
from operator import sub

from .foundations import (
    LinComb,
    bottom_up,
    compositions_of,
    memo,
    memo_table,
    multiset_splits,
    partitions_of,
    pi_forget,
    prefix_fold,
    rearrangements,
)
from .hopf import TERM_CAP, HopfAlgebra, _split_count, check_terms
from .hopf import capped_counts, capped_power, capped_product, capped_sum


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

    def degree_terms(self, n):
        """The compositions of n, 2^(n - 1), capped."""
        return capped_power(2, n - 1) if n else 1


# the most parts of the factors on which the quasi-shuffle takes one step
# and keeps the products it reads: more than the keys of any suite have
_STEPPED = 16


class QuasiSymmetricFunctions(_PartLists):
    """Monomial-basis quasi-symmetric functions."""

    name = "qsym"
    letter = "M"

    def product_keys(self, left, right):
        """Quasi-shuffle: interleave the parts of the two factors, fusing
        some part of one with a part of the other.  A term starts with the
        first part a of the left factor, with the first part b of the right
        one, or with a + b, followed by the product of what is left.  That
        step is taken while both factors have at most ``_STEPPED`` parts,
        and the products it reads, which the suites read too, are kept.
        Past that, the factors are taken longer first, and the step on the
        longer one's first part is unrolled: b follows its first k parts,
        alone or fused with the next, so that the products of its suffixes
        by the whole shorter factor are never made, and a short factor's
        products cost what they return.  The products that a step reads
        and the memo lacks are made first, from an explicit stack, so no
        part list costs Python recursion."""
        if len(right) > max(len(left), _STEPPED):  # unroll the longer factor
            return self._pk(right, left)
        memo, stack = self._prod_memo, [(left, right)]
        while stack:
            pair = stack[-1]
            out = memo.get(pair)
            if out is None:
                out = self._quasi_shuffle(*pair)
            if type(out) is list:
                stack += out
            else:
                memo[pair] = out
                stack.pop()
        return out

    def _quasi_shuffle(self, left, right):
        """M_left M_right from the products it reads, or the list of those
        that the memo does not hold yet."""
        if not left or not right:
            return LinComb.single(left or right)
        memo, a, b, rest = self._prod_memo, left[0], right[0], right[1:]
        if len(left) <= _STEPPED:
            after = left[1:]
            first = memo.get((after, right))
            second, fused = memo.get((left, rest)), memo.get((after, rest))
            if first is None or second is None or fused is None:
                reads = ((after, right), first), ((left, rest), second), ((after, rest), fused)
                return [pair for pair, tail in reads if tail is None]
            # the first parts a, b and a + b tell the kinds of term apart, unless a == b
            parts = [((a,), first + second)] if a == b else [((a,), first), ((b,), second)]
            parts.append(((a + b,), fused))
            return LinComb.trusted(
                {head + comp: c for head, tail in parts for comp, c in tail.items()}
            )
        # the long factor unrolled: b follows its first k parts, alone or
        # fused with the next one, or follows them all
        reads = [(left[k:], rest) for k in range(len(left) + 1)]
        tails = [memo.get(pair) for pair in reads]
        missing = [pair for pair, tail in zip(reads, tails) if tail is None]
        if missing:
            return missing
        parts = [(left + (b,), tails[-1])]
        for k in range(len(left)):
            parts.append((left[:k] + (b,), tails[k]))
            parts.append((left[:k] + (left[k] + b,), tails[k + 1]))
        return LinComb([(head + comp, c) for head, tail in parts for comp, c in tail.items()])

    def pair_terms(self, left, right, n):
        """A bound on the terms of M_left M_right, of degree n: a term has
        at least as many parts as the longer factor and at most as many as
        both, and no part above the sum of their largest parts; and there
        are no more terms than quasi-shuffles."""
        if not left or not right:
            return 1
        p, q = len(left), len(right)
        return min(_compositions_with_parts(n, max(p, q), p + q),
                   _compositions_with_parts_at_most(n, max(left) + max(right)),
                   _quasi_shuffles(p, q))

    def coproduct_key(self, comp):
        return LinComb.trusted({(comp[:i], comp[i:]): 1 for i in range(len(comp) + 1)})

    def coproduct_terms(self, comp):
        """The number of terms of the coproduct of M_comp, one per cut:
        len + 1."""
        return len(comp) + 1

    def antipode_rule(self, comp):
        """S(M_a) = (-1)^len(a) times the sum of M_b over the coarsenings b
        of a reversed (Malvenuto-Reutenauer; Ehrenborg): each once."""
        sign = -1 if len(comp) % 2 else 1
        return LinComb.trusted(dict.fromkeys(_coarsenings(comp[::-1]), sign))

    def antipode_terms(self, comp):
        """The number of terms of S(M_comp), 2^(len - 1), capped."""
        return capped_power(2, max(len(comp) - 1, 0))


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

    def coproduct_terms(self, comp):
        """An upper bound on the terms of the coproduct of E_comp, exact on
        E_n and on E_(1^k), capped: the product of those of its parts'
        coproducts, a + 1 for a part a, and no more than the pairs of a
        left side of degree j and a right side of degree n - j, each with at
        most len(comp) parts of at most max(comp), since each side takes a
        piece of each part (``_piece_pairs``).  At n >= ``TERM_CAP`` the
        product stands: both are above the cap, and so is the count, which
        has a term of each left degree."""
        count = capped_product(a + 1 for a in comp)
        n = sum(comp)
        if not comp or n >= TERM_CAP:
            return count
        return min(count, _piece_pairs(n, len(comp), max(comp)))

    def antipode_rule(self, comp):
        """S(E_n) = sum of (-1)^len(J) E_J over the compositions J of n."""
        (n,) = comp
        return LinComb.trusted({j: -1 if len(j) % 2 else 1 for j in compositions_of(n)})

    def antipode_terms(self, comp):
        """The number of terms of S(E_comp), the product of 2^(a - 1) over
        its parts a, capped."""
        return capped_power(2, sum(comp) - len(comp))


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

    def degree_terms(self, n):
        """The partitions of n, capped."""
        return _partitions_at_most(n, n)

    def pair_terms(self, lam, mu, n):
        """A bound on the terms of m_lam m_mu, of degree n: a term has at
        most len(lam) + len(mu) parts, and no part above lam_1 + mu_1."""
        if not lam or not mu:
            return 1
        return min(_partitions_at_most(n, len(lam) + len(mu)),
                   _partitions_at_most(n, lam[0] + mu[0]))

    def coproduct_key(self, lam):
        """Each distinct ordered splitting of the part multiset, once."""
        return LinComb.trusted({(l, r): 1 for l, r, _ in multiset_splits(lam)})

    def coproduct_terms(self, lam):
        """The number of terms of the coproduct of m_lam, its distinct
        splittings (``hopf._split_count``)."""
        return _split_count(lam)

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
        more terms than set partitions, B(len(lam)).  Capped."""
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
    # the partial multisets: (the column sums so far, the product of the
    # factorials of the columns' multiplicities, the parts of mu left)
    states = [((), 1, tuple(partners.values()))]
    for a, m in Counter(lam).items():
        grown = []
        for sums, ties, free in states:
            # how many of the m parts a fuse with each part value of mu
            takes = [()]
            for f in free:
                takes = [t + (k,) for t in takes for k in range(min(f, m - sum(t)) + 1)]
            for t in takes:
                alone = m - sum(t)
                more = sums + (a,) * alone
                for b, k in zip(partners, t):
                    more += (a + b,) * k
                grown.append((more, ties * factorial(alone) * prod(map(factorial, t)),
                              tuple(map(sub, free, t))))
        states = grown
    out = []
    for sums, ties, free in states:
        for b, f in zip(partners, free):
            sums += (b,) * f
            ties *= factorial(f)
        layouts = prod(map(factorial, Counter(sums).values()))
        out.append((tuple(sorted(sums, reverse=True)), layouts // ties))
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


@memo
def _partitions_at_most(n, k):
    """The partitions of n into at most k parts, capped: the sum of
    ``_partition_steps``, read only until it passes the limit."""
    return capped_sum(_partition_steps(n, min(k, n)))


def _partition_steps(n, k):
    """p(n, min(k, 3)), for k = 3 the closed form round((n + 3)^2 / 12),
    then for each 3 < j <= k <= n the partitions of n into exactly j parts,
    p(n - j, j), from a table over m <= n grown a part count at a time and
    made only once p(n, 3) is within the limit: sqrt(12 COUNT_LIMIT) places."""
    if k <= 2:
        yield n // 2 + 1 if k == 2 else 1
        return
    yield ((n + 3) ** 2 + 6) // 12
    table = [((m + 3) ** 2 + 6) // 12 for m in range(n + 1)]
    for j in range(4, k + 1):
        for m in range(j, n + 1):
            table[m] += table[m - j]
        yield table[n - j]


@memo
def _set_partitions(k):
    """The Bell number B(k), capped (``_bell_numbers``)."""
    return capped_counts(_bell_numbers(), k)[-1]


def _bell_numbers():
    """B(0), B(1), ...: the first entries of the rows of the Bell triangle,
    each the running sums of the row before, started at its last entry."""
    row = [1]
    while True:
        yield row[0]
        row = list(accumulate(row, initial=row[-1]))


def _quasi_shuffles(p, q):
    """The quasi-shuffles of a p-part list with a q-part list, the Delannoy
    number D(p, q) = sum of C(p, k) C(q, k) 2^k over k, capped: the k-th
    addend is at least 2^k, so few are read."""
    return capped_sum(comb(p, k) * comb(q, k) << k for k in range(min(p, q) + 1))


@memo
def _compositions_with_parts(n, lo, hi):
    """The compositions of n into between lo and hi parts, the sum of
    C(n - 1, k - 1) over k, capped."""
    if not n:
        return int(lo <= 0)
    return capped_sum(comb(n - 1, k - 1) for k in range(max(lo, 1), min(hi, n) + 1))


@memo
def _piece_pairs(n, parts, largest):
    """The sum over 0 <= j <= n of c(j) c(n - j), capped, where c(j) bounds
    the compositions of j into at most ``parts`` parts of at most
    ``largest``: the smaller of the counts under each limit alone.
    Neither count falls as j grows, so the first is computed again only
    while the last one computed is below the second."""
    small = capped_counts(_window_counts(largest), n)
    small += small[-1:] * (n + 1 - len(small))
    few, counts = 1, []
    for j, bound in enumerate(small):
        if few < bound:
            few = capped_sum(comb(j - 1, k) for k in range(min(parts, j)))
        counts.append(min(few, bound))
    return capped_sum(counts[j] * counts[n - j] for j in range(n + 1))


@memo
def _compositions_with_parts_at_most(n, m):
    """The compositions of n into parts of at most m, capped: all of them,
    2^(n - 1), when no part can pass m."""
    if m >= n > 0:
        return capped_power(2, n - 1)
    return capped_counts(_window_counts(m), n)[-1]


def _window_counts(m):
    """The compositions of j into parts of at most m, for j = 0, 1, ...:
    each the sum of the m before it, a window sliding one count at a time."""
    counts, window = [1], 1
    yield 1
    for j in count(1):
        counts.append(window)
        yield window
        window += window - (counts[j - m] if j >= m else 0)


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
    """Complete homogeneous symmetric function: sum of all degree-k
    monomials, refused before any is made when there are more than
    ``TERM_CAP``."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    check_terms(f"h{k}", _partitions_at_most(k, k))
    return LinComb((lam, 1) for lam in partitions_of(k))


def p(k: int) -> LinComb:
    """Power sum: the one-part partition."""
    if k < 1:
        raise ValueError("power sums start at degree 1")
    return LinComb.single((k,))


def _conjugate(lam):
    return tuple(sum(1 for part in lam if part > i) for i in range(max(lam, default=0)))


_E_TO_M = memo_table()
_M_TO_E = memo_table()


def e_to_m_row(comp) -> LinComb:
    """e_{i_1} e_{i_2} ... in the monomial basis, for a composition, filled
    over its prefixes, each the last times one more e_k by the unpriced key
    products: the callers price the row."""
    return prefix_fold(comp, _E_TO_M, SYM.one, _times_e)


def _times_e(row, k):
    return SYM._times(row, e(k))


def m_to_e_row(lam) -> LinComb:
    """m_lam in the elementary basis, by integer back-substitution:
    e_{lam'} is m_lam plus terms m_mu with mu strictly below lam in
    dominance order (Macdonald, ch. I.6), so only the down-set of lam is
    visited, filled from an explicit stack (``foundations.bottom_up``).
    Priced once per new partition (``hopf``), by ``_m_to_e_terms``."""
    row = _M_TO_E.get(lam)
    if row is None:
        check_terms(f"{SYM.key_str(lam)} in the elementary basis", _m_to_e_terms(lam))
        row = bottom_up(lam, _M_TO_E, _m_lower, _m_to_e_value)
    return row


def _m_to_e_terms(lam):
    """An upper bound on the terms of ``m_to_e_row(lam)``, e_nu with nu at
    or above lam' in dominance order, so with at most lam_1 parts."""
    return _partitions_at_most(sum(lam), lam[0] if lam else 0)


def _m_lower(lam):
    """The partitions whose rows that of lam reads: the terms of e_{lam'}
    other than m_lam."""
    return [mu for mu in e_to_m_row(_conjugate(lam)) if mu != lam]


def _m_to_e_value(lam):
    conj = _conjugate(lam)
    lower = e_to_m_row(conj).filter_keys(lambda mu: mu != lam)
    return LinComb.single(conj) - lower.apply_linear(_M_TO_E.__getitem__)


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
