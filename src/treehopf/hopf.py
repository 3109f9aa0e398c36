"""Shared machinery for graded connected Hopf algebras with a chosen basis.

Each concrete algebra supplies the combinatorics on basis keys (grading,
basis enumeration, product and coproduct of keys, printing); this base class
supplies the linear extensions, the counit, and the antipode.  Every
extension is one of the sums in ``LinComb``: the product is
``LinComb.bilinear`` over the memoized key products, the coproduct and the
antipode are ``apply_linear``, and ``tensor_mult`` and ``tensor_map`` are
one ``LinComb.tensor_sum`` each: of c d (p1 q1 ⊗ p2 q2) over the pairs of
terms of two tensors, each key product read through ``_pk``, and of
c (left(k1) ⊗ right(k2)) over the terms of one.  HK, HF and NSYM are free:
``factors`` splits a key into generators g_1...g_k, and the key's coproduct
is the product of theirs and its antipode S(g_k)...S(g_1).  The antipode of
any other key but the unit is the algebra's ``antipode_rule``.  Five
algebras give it in closed form, each term once and with no cancellation:
SYM and QSYM on every key, NSYM on E_n, HK and HF on one-tree forests.  KT
and KP keep the default, the recursion that a one-dimensional degree-0 part
allows:

    S(1) = 1,   S(x) = -x - sum S(x') x''

where the sum runs over the middle (both-sides-positive-degree) terms of
the coproduct of x, and is one ``LinComb.scaled_sum`` of key products.

Pricing.  This is the one rule by which the package refuses work: each
public operation bounds the terms of its result before it makes any, and
``check_terms`` refuses it when the bound is above ``TERM_CAP``, once, at
its entry.  The public operations are ``product`` (``product_terms``),
``coproduct`` (``coproduct_terms``) and ``antipode`` (``antipode_terms``)
here; the maps tau, Z, Z_star and kbar (``morphisms``); the h<k> shorthand
and ``m_to_e_row`` (``symfun``), which phi and the sym pairing share; and
the CLI's enumerate and expand.  Each bound is computed without making any
term, and every count is capped, above ``COUNT_LIMIT`` at
``COUNT_LIMIT + 1``, by the ``capped_*`` helpers here, which stop at the
first partial count past the limit.  The kernels (``_pk``, ``_ck``,
``antipode_key``, ``antipode_rule`` and the key rules) price nothing, and
no kernel or verification suite reaches an algebra's priced ``product``,
``coproduct`` or ``antipode``: they multiply elements by ``_times``,
``LinComb.bilinear`` over ``_pk``, and take coproducts by
``a.apply_linear(alg._ck)``.  The maps and h price every call, the
suites' too, and ``m_to_e_row`` every new row.  The one other guard is
KT's and KP's ``GRAFT_CAP`` on their public ``product`` and ``antipode``,
whose work the terms do not bound (``hopf_rooted``).

Products, coproducts, and antipodes of basis keys are memoized per algebra
instance, in tables registered with ``foundations.clear_caches``; entries
are only ever written once.  The coproducts are filled from an explicit
stack (``foundations.bottom_up``), a key's generators first, and before a
generator the keys that ``coproduct_needs`` names, so that HK's and HF's
root recursion costs no Python recursion.  Nothing in the package uses
threads, and the algebras are meant for one thread at a time: interning a
new tree or forest (``trees``) looks it up and then inserts it, so two
threads building the same new key at once could each get an object of
their own.
"""

from collections import defaultdict
from functools import reduce
from itertools import groupby

from .foundations import LinComb, bottom_up, memo, memo_table

# most terms a priced operation may have: p(45) = 89,134 fits
TERM_CAP = 100_000
# the largest term count that a bound computes: past it, a count is capped
# at COUNT_LIMIT + 1, so that a degree far beyond any cap costs no work
COUNT_LIMIT = 10**9


def capped_sum(counts):
    """The sum of ``counts``, nonnegative, capped: no count after the first
    partial sum above the limit is read, so a lazy iterator is never read
    past it."""
    total = 0
    for count in counts:
        total += count
        if total > COUNT_LIMIT:
            return COUNT_LIMIT + 1
    return total


def capped_product(factors):
    """The product of ``factors``, nonnegative, capped: no factor after the
    first partial product of 0 or above the limit is read, so a factor that
    may be 0 comes first."""
    count = 1
    for factor in factors:
        count *= factor
        if not count or count > COUNT_LIMIT:
            return min(count, COUNT_LIMIT + 1)
    return count


def capped_power(base, exponent):
    """base ** exponent, capped: a base of at least 2 to the limit's bit
    length already passes it."""
    if base > 1 and exponent >= COUNT_LIMIT.bit_length():
        return COUNT_LIMIT + 1
    count = base ** exponent
    return count if count <= COUNT_LIMIT else COUNT_LIMIT + 1


def capped_binomial(n, k):
    """C(n, k), 0 for k > n, capped: the product stops once it passes the
    limit, so that no n, however large, costs more than a few steps."""
    k = min(k, n - k)
    count = int(k >= 0)
    for i in range(k):
        count = count * (n - i) // (i + 1)
        if count > COUNT_LIMIT:
            return COUNT_LIMIT + 1
    return count


def capped_counts(counts, n):
    """The first n + 1 of ``counts``, an iterator of counts that never
    fall, capped: up to the first above the limit, which stands for every
    later one, so a lazy iterator is never read past it."""
    out = []
    for _, count in zip(range(n + 1), counts):
        if count > COUNT_LIMIT:
            out.append(COUNT_LIMIT + 1)
            break
        out.append(count)
    return out


def _split_count(items):
    """The distinct ordered splits of the multiset ``items``, sorted so that
    equal items are neighbours, into two: the product of m + 1 over its
    multiplicities m, capped."""
    return capped_product(len(tuple(run)) + 1 for _, run in groupby(items))


@memo
def _growing_count(count, n, *args):
    """``count(n, *args)``, capped, for a count of n >= 1 that never falls
    as n grows, by ``capped_counts`` from n = 1.  Memoized, since an
    element's antipode prices each of its keys."""
    return capped_counts((count(m, *args) for m in range(1, n + 1)), n)[-1]


def check_terms(what, count, unit="terms"):
    """Refuse ``what`` before any of it is made when ``count``, a bound on
    its terms (or on the ``unit`` it writes), is above ``TERM_CAP``; a
    count above ``COUNT_LIMIT`` is named only as more than that."""
    if count > TERM_CAP:
        text = f"more than {COUNT_LIMIT:,}" if count > COUNT_LIMIT else f"up to {count:,}"
        raise ValueError(f"{what} would have {text} {unit}; the cap is {TERM_CAP:,}")


class HopfAlgebra:
    """Graded connected Hopf algebra presented by a combinatorial basis."""

    name = "?"

    def __init__(self):
        self._prod_memo = memo_table()
        self._cop_memo = memo_table()
        self._antipode_memo = memo_table()

    # combinatorial structure, supplied by subclasses

    def unit_key(self):
        raise NotImplementedError

    def degree(self, key) -> int:
        raise NotImplementedError

    def basis(self, n: int):
        """All basis keys of degree n, in a fixed deterministic order."""
        raise NotImplementedError

    def product_keys(self, k1, k2) -> LinComb:
        raise NotImplementedError

    def coproduct_key(self, key) -> LinComb:
        """Coproduct of the unit or a generator, as a LinComb over key pairs."""
        raise NotImplementedError

    def coproduct_needs(self, key) -> tuple:
        """The keys whose coproducts ``coproduct_key`` reads, through
        ``_ck``, for the unit or a generator: none unless overridden."""
        return ()

    def factors(self, key) -> tuple:
        """The generators whose product, in order, is ``key``: ``(key,)`` unless free."""
        return (key,)

    def key_str(self, key) -> str:
        raise NotImplementedError

    def key_sort(self, key):
        """Sort key implementing the global term order (degree first)."""
        raise NotImplementedError

    # linear structure, provided

    def one(self) -> LinComb:
        return LinComb.single(self.unit_key())

    def _pk(self, k1, k2) -> LinComb:
        memo = self._prod_memo
        out = memo.get((k1, k2))
        if out is None:
            out = self.product_keys(k1, k2)
            memo[(k1, k2)] = out
        return out

    def _ck(self, key) -> LinComb:
        # a hit is one lookup inline, with no call: the suites read every
        # key's coproduct here
        out = self._cop_memo.get(key)
        if out is None:
            out = bottom_up(key, self._cop_memo, self._cop_needs, self._cop_fold)
        return out

    def _cop_needs(self, key):
        gens = self.factors(key)
        return gens if len(gens) > 1 else self.coproduct_needs(key)

    def _cop_fold(self, key):
        """The coproduct of a key of several generators, the product of
        theirs from the memo; of any other key, ``coproduct_key``."""
        gens = self.factors(key)
        if len(gens) < 2:
            return self.coproduct_key(key)
        memo = self._cop_memo
        out = memo[gens[0]]
        for g in gens[1:]:
            out = tensor_mult(self, out, memo[g])
        return out

    def product(self, a: LinComb, b: LinComb) -> LinComb:
        """a b, refused before any term is made when ``product_terms`` is
        above ``TERM_CAP``."""
        check_terms("this product", self.product_terms(a, b))
        return self._times(a, b)

    def product_terms(self, a, b) -> int:
        """An upper bound on the terms of a b: the sum over each total
        degree n of the smaller of ``degree_terms(n)``, the keys of degree
        n, capped, and the sum of ``pair_terms`` over the key pairs of
        degree n.  When the first add up to at most ``TERM_CAP``, no pair is
        priced."""
        degree = self.degree
        degrees = {degree(k1) + degree(k2) for k1 in a for k2 in b}
        bound = sum(map(self.degree_terms, degrees))
        if bound <= TERM_CAP:
            return bound
        left, right = self._by_degree(a), self._by_degree(b)
        return sum(min(self.degree_terms(n), sum(self.pair_terms(k1, k2, n)
                                                 for i, keys in left.items() for k1 in keys
                                                 for k2 in right.get(n - i, ())))
                   for n in degrees)

    def _by_degree(self, a):
        """The keys of ``a`` by degree."""
        out = defaultdict(list)
        for key in a:
            out[self.degree(key)].append(key)
        return out

    def degree_terms(self, n) -> int:
        """The basis keys of degree n, capped."""
        raise NotImplementedError

    def pair_terms(self, k1, k2, n) -> int:
        """An upper bound on the terms of the product of two keys, of total
        degree n: 1 unless overridden, for a product that is one key."""
        return 1

    def coproduct(self, a: LinComb) -> LinComb:
        """The coproduct of an element, refused before any term is made when
        the ``coproduct_terms`` of its keys add up to more than
        ``TERM_CAP``."""
        check_terms("this coproduct", sum(map(self.coproduct_terms, a)))
        return a.apply_linear(self._ck)

    def coproduct_terms(self, key) -> int:
        """An upper bound on the terms of the coproduct of a key, capped,
        computed without making any of them."""
        raise NotImplementedError

    def counit(self, a: LinComb):
        return a[self.unit_key()]

    def antipode_key(self, key) -> LinComb:
        memo = self._antipode_memo
        out = memo.get(key)
        if out is not None:
            return out
        if len(gens := self.factors(key)) > 1:
            # S reverses products: S(g_1 ... g_k) = S(g_k) ... S(g_1)
            out = reduce(self._times, map(self.antipode_key, reversed(gens)))
        elif key == self.unit_key():
            out = self.one()
        else:
            out = self.antipode_rule(key)
        memo[key] = out
        return out

    def antipode_rule(self, key) -> LinComb:
        """S of a key that is neither the unit nor a product of other
        keys, by the recursion S(x) = -x - sum S(x') x'' over the middle
        terms of its coproduct.  An algebra with a closed form overrides
        this; ``antipode_key`` is the one entry point, and memoizes."""
        unit, pk, S = self.unit_key(), self._pk, self.antipode_key
        rest = LinComb.scaled_sum((-c * s, pk(u, z).items())
                                  for (y, z), c in self._ck(key).items()
                                  if unit not in (y, z) for u, s in S(y).items())
        return LinComb.single(key, -1) + rest

    def _times(self, a, b) -> LinComb:
        """a b by the unpriced key products."""
        return LinComb.bilinear(a, b, self._pk)

    def antipode_terms(self, key) -> int:
        """An upper bound on the number of terms of S(key), capped,
        computed without making any of them."""
        raise NotImplementedError

    def antipode(self, a: LinComb) -> LinComb:
        """S of an element, refused before any term is made when the
        ``antipode_terms`` of its keys add up to more than ``TERM_CAP``."""
        check_terms("this antipode", sum(map(self.antipode_terms, a)))
        return a.apply_linear(self.antipode_key)

    # printing

    def format(self, a: LinComb) -> str:
        return _signed_sum(a, self.key_sort, self.key_str)

    def tensor_key_str(self, pair) -> str:
        return f"{self.key_str(pair[0])} ⊗ {self.key_str(pair[1])}"

    def tensor_key_sort(self, pair):
        k1, k2 = pair
        return (
            self.degree(k1) + self.degree(k2),
            self.key_sort(k1),
            self.key_sort(k2),
        )

    def format_tensor(self, t: LinComb) -> str:
        return _signed_sum(t, self.tensor_key_sort, self.tensor_key_str)


def _signed_sum(a: LinComb, key_sort, key_str) -> str:
    """The terms of ``a`` in ``key_sort`` order, as ``2*x - y + 1/2*z``: a
    coefficient 1 is left out, and the unit (key string "1") prints as its
    bare coefficient."""
    if not a:
        return "0"
    pieces = []
    for key in sorted(a.keys(), key=key_sort):
        c = a[key]
        neg = c < 0
        mag = -c if neg else c
        ks = key_str(key)
        if ks == "1":
            body = str(mag)
        elif mag == 1:
            body = ks
        else:
            body = f"{mag}*{ks}"
        if not pieces:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def tensor_map(t: LinComb, left, right) -> LinComb:
    """Apply linear maps componentwise to a tensor: (left ⊗ right)(t).

    ``left`` and ``right`` send a basis key to a LinComb.
    """
    return LinComb.tensor_sum((c, left(k1), right(k2)) for (k1, k2), c in t.items())


def tensor_mult(algebra: HopfAlgebra, t1: LinComb, t2: LinComb) -> LinComb:
    """Componentwise product of two tensors over the same algebra: the sum
    of c d (p1 q1 ⊗ p2 q2) over the terms c (p1 ⊗ p2) of t1 and d (q1 ⊗ q2)
    of t2, each key product read from the memo."""
    pk = algebra._pk
    t2_items = t2.items()
    return LinComb.tensor_sum((c * d, pk(p1, q1), pk(p2, q2))
                              for (p1, p2), c in t1.items() for (q1, q2), d in t2_items)


def swap_tensor(t: LinComb) -> LinComb:
    return t.map_keys(lambda pair: (pair[1], pair[0]))
