"""Shared machinery for graded connected Hopf algebras with a chosen basis.

Each concrete algebra supplies the combinatorics on basis keys (grading,
basis enumeration, product and coproduct of keys, printing); this base class
supplies the linear extensions, the counit, and the antipode.  The
coproduct and the antipode are ``apply_linear``, and ``tensor_map`` is one
``LinComb.tensor_sum``, of c (left(k1) ⊗ right(k2)) over the terms of a
tensor.  The product is ``LinComb.bilinear`` over the memoized key
products, and ``tensor_mult``, of c d (p1 q1 ⊗ p2 q2) over the pairs of
terms of two tensors, one ``LinComb.tensor_sum`` of the products of keys
read from the table; in a free algebra each is a loop of its own, below.
HK, HF and NSYM are free:
``split`` cuts a product of generators into (all but the last, the last),
and ``multiplicative`` makes the table of a map multiplicative over that
cut from its values on the unit and the generators: the coproduct,
Δ(rest last) = Δ(rest) Δ(last), the antipode, S(rest last) = S(last)
S(rest), and tau, Z and Z_star (``symfun``, ``morphisms``).  The antipode
of any key but the unit that does not split is the algebra's
``antipode_rule``.  Five algebras give it in closed form, each term once
and with no cancellation: SYM and QSYM on every key, NSYM on E_n, HK and
HF on one-tree forests.  KT
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
the CLI's kappa, enumerate and expand.  Each bound is computed without
making any term, and every count is capped, above ``COUNT_LIMIT`` at
``COUNT_LIMIT + 1``, by the ``capped_*`` helpers here, which stop at the
first partial count past the limit, and named by ``count_text``, as the
suites' estimates are (``verify``).  The kernels (``_pk``, ``_ck``,
``antipode_key``, ``antipode_rule`` and the key rules) price nothing, and
no kernel or verification suite reaches an algebra's priced ``product``,
``coproduct`` or ``antipode``: they multiply elements by ``_times``, and
read key products, coproducts and antipodes from the tables below.  The
maps and h price every call, the suites' too, and ``m_to_e_row`` every new
row.  The one other guard is KT's and KP's ``GRAFT_CAP`` on their public
``product`` and ``antipode``, whose work the terms do not bound
(``hopf_rooted``).

Products, coproducts, and antipodes of basis keys are memoized per algebra
instance, in self-filling tables (``foundations.memo_table``), the one
way the package memoizes: a hit is one subscript, ``alg._prod_memo[k1,
k2]``, ``alg._cop_memo[key]`` or ``alg._antipode_memo[key]``, and a miss
computes the value by the table's fill, ``product_keys`` or the
multiplicative fill over ``split``, once the table holds the keys that
the key needs (``product_needs``; a key's two parts, or for a generator
those of ``coproduct_needs``).  The fills look the kernels up on the
instance when a key is missing, so a kernel replaced later is the one
called.  ``_pk``, ``_ck`` and ``antipode_key`` read them for the public
operations and for ``LinComb.bilinear``, whose image
is a function, and the hot loops subscript them: ``tensor_mult``,
``antipode_rule`` and the axiom rows of ``verify``.  Entries are only ever
written once.  In HK, HF and NSYM the product of two keys is one key,
their ``key_product``, read from a table of its own, a factor that is the
unit aside, and ``_pk`` wraps it in a one-term LinComb that no table
keeps, so they have no product table; there ``_times`` (the product and
the antipode table), ``tensor_mult`` (the coproduct table) and the
antipode convolution rows of ``verify`` add c d at the key product in
loops of their own, with no LinComb built per product of keys and no key
function called per term.  KT, KP, SYM and QSYM, whose key products have
many terms, read them from the product table.  A table fills what a key
needs from an explicit stack, so that neither a product of many
generators nor HK's and HF's root recursion costs Python recursion.  A
multiplicative table keeps the value of every prefix of a key, at a
price in memory: the coproduct of E(1^700) keeps those of its 698 longer
prefixes, about 245,000 terms more.  Nothing in the package uses threads, and the
algebras are meant for one thread at a time: interning a new tree or
forest (``trees``) looks it up and then inserts it, so two threads
building the same new key at once could each get an object of their own.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import groupby

from .foundations import LinComb, _whole, memo, memo_table

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


def count_text(count, qualifier="up to"):
    """A capped count as a refusal names it: ``qualifier`` and the count,
    or, above ``COUNT_LIMIT``, only more than that."""
    return f"more than {COUNT_LIMIT:,}" if count > COUNT_LIMIT else f"{qualifier} {count:,}"


def check_terms(what, count, unit="terms"):
    """Refuse ``what`` before any of it is made when ``count``, a bound on
    its terms (or on the ``unit`` it writes), is above ``TERM_CAP``."""
    if count > TERM_CAP:
        raise ValueError(f"{what} would have {count_text(count)} {unit}; the cap is {TERM_CAP:,}")


class HopfAlgebra:
    """Graded connected Hopf algebra presented by a combinatorial basis."""

    name = "?"
    # in a free algebra, the product of two keys, which is one key; None
    # where a product of keys has many terms
    key_product = None

    # (k1, k2) -> the pairs whose products ``product_keys`` reads from the
    # product table, which fills them first: None where it reads none
    product_needs = None

    def __init__(self):
        # the kernels are looked up when a key is missing, so that a kernel
        # replaced on the instance or the class later is the one called
        if self.key_product is None:
            self._prod_memo = memo_table(lambda pair, *_: self.product_keys(*pair),
                                         self.product_needs)
        self._cop_memo = self.multiplicative(lambda key: self.coproduct_key(key),
                                             lambda a, b: tensor_mult(self, a, b),
                                             self.coproduct_needs)
        self._antipode_memo = self.multiplicative(lambda key: self._antipode_generator(key),
                                                  lambda rest, last: self._times(last, rest))

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

    def split(self, key):
        """(rest, last) for a product of several generators: the product of
        all of them but the last, and the last; None for the unit, for a
        generator, and for every key of an algebra that is not free."""
        return None

    def key_str(self, key) -> str:
        raise NotImplementedError

    def key_sort(self, key):
        """Sort key implementing the global term order (degree first)."""
        raise NotImplementedError

    # linear structure, provided

    def one(self) -> LinComb:
        return LinComb.single(self.unit_key())

    def _pk(self, k1, k2) -> LinComb:
        return self._prod_memo[k1, k2]

    def _ck(self, key) -> LinComb:
        return self._cop_memo[key]

    def multiplicative(self, generator, times, needs=None) -> dict:
        """A new table of a map f multiplicative over ``split``: f(key) =
        times(f(rest), f(last)) for a key that splits, its two parts filled
        first, and ``generator(key)`` for the unit and the generators, which
        may read from the table the keys that ``needs(key)`` lists.  Every
        prefix of a key is kept.  ``split`` is looked up on each miss, and
        called once per key: the fill receives its pair, a tuple, where a
        generator's needs come as a list."""

        def parts(key):
            return self.split(key) or (list(needs(key)) if needs else [])

        def fill(key, found):
            if type(found) is tuple:
                return times(table[found[0]], table[found[1]])
            return generator(key)

        table = memo_table(fill, parts)
        return table

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
        """S of a key, from the antipode table."""
        return self._antipode_memo[key]

    def _antipode_generator(self, key) -> LinComb:
        """S of the unit, itself, or of a generator, ``antipode_rule``; the
        antipode table multiplies them in reverse over ``split``, since S
        reverses products: S(rest last) = S(last) S(rest)."""
        return self.one() if key == self.unit_key() else self.antipode_rule(key)

    def antipode_rule(self, key) -> LinComb:
        """S of a key that is neither the unit nor a product of other
        keys, by the recursion S(x) = -x - sum S(x') x'' over the middle
        terms of its coproduct.  An algebra with a closed form overrides
        this; the antipode table is the one entry point, and memoizes."""
        unit, pk, S = self.unit_key(), self._prod_memo, self._antipode_memo
        rest = LinComb.scaled_sum((-c * s, pk[u, z].items())
                                  for (y, z), c in self._cop_memo[key].items()
                                  if unit not in (y, z) for u, s in S[y].items())
        return LinComb.single(key, -1) + rest

    def _times(self, a, b) -> LinComb:
        """a b by the unpriced key products: in a free algebra, the sum of
        x y at the key product of k1 and k2 over the terms x k1 of a and y k2
        of b, in one loop, else the products of keys from the table.  A
        product of coefficients is taken as in ``LinComb.tensor_sum``; no
        term of a LinComb is zero, so neither is a product of two."""
        key_product = self.key_product
        if key_product is None:
            return LinComb.bilinear(a, b, self._pk)
        data = {}
        get = data.get
        b_items = b.items()
        for k1, x in a.items():
            unit = x == 1
            frac = type(x) is Fraction
            for k2, y in b_items:
                if not unit:
                    y = (x if y == 1 else x * y) if frac else x * y
                key = key_product(k1, k2)
                cur = get(key)
                if cur is None:
                    data[key] = y
                else:
                    cur += y
                    if cur:
                        data[key] = cur
                    else:
                        del data[key]
        return LinComb.trusted(_whole(data))

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
    of t2.  In a free algebra c d goes to the pair of key products, in one
    loop, else each key product is read from the table.  A product of
    coefficients is taken as in ``LinComb.tensor_sum``, and is never zero,
    since no term of a LinComb is."""
    key_product = algebra.key_product
    t2_items = t2.items()
    if key_product is None:
        pk = algebra._prod_memo
        return LinComb.tensor_sum((c * d, pk[p1, q1], pk[p2, q2])
                                  for (p1, p2), c in t1.items() for (q1, q2), d in t2_items)
    data = {}
    get = data.get
    for (p1, p2), c in t1.items():
        unit = c == 1
        frac = type(c) is Fraction
        for (q1, q2), d in t2_items:
            if not unit:
                d = (c if d == 1 else c * d) if frac else c * d
            key = key_product(p1, q1), key_product(p2, q2)
            cur = get(key)
            if cur is None:
                data[key] = d
            else:
                cur += d
                if cur:
                    data[key] = cur
                else:
                    del data[key]
    return LinComb.trusted(_whole(data))


def swap_tensor(t: LinComb) -> LinComb:
    return t.map_keys(lambda pair: (pair[1], pair[0]))
