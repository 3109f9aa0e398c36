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

where the sum runs over the middle (both-sides-positive-degree) terms of the
coproduct of x, and is one ``apply_linear`` over those terms.  Every algebra
prices its antipode too: ``antipode_terms`` bounds the terms of S on a key
(on QSYM and NSYM it counts them), and ``antipode`` refuses an element
whose keys' bounds add up to more than ``TERM_CAP`` before it makes any
term; ``antipode_key``, which the suites call, is not priced, and SYM and
QSYM price their products the same way (``symfun``).  Products,
coproducts, and antipodes of basis keys are memoized per algebra instance,
in tables registered with ``foundations.clear_caches``; entries are only
ever written once.  The coproducts are filled from an explicit stack
(``foundations.bottom_up``), a key's generators first, and before a
generator the keys that ``coproduct_needs`` names, so that HK's and HF's
root recursion costs no Python recursion.  Nothing in the package uses
threads, and the algebras are meant for one thread at a time: interning a
new tree or forest (``trees``) looks it up and then inserts it, so two
threads building the same new key at once could each get an object of
their own.
"""

from functools import reduce

from .foundations import LinComb, bottom_up, memo, memo_table

# most terms a priced operation (an antipode, a sym or qsym product, a map
# image, an m-to-e row, the h<k> shorthand) may have:
# p(45) = 89,134 fits
TERM_CAP = 100_000
# the largest term count that a bound computes: past it, it returns
# COUNT_LIMIT + 1, so that a degree far beyond any cap costs no work
COUNT_LIMIT = 10**9


def _power_of_two(k):
    return 1 << k if k < COUNT_LIMIT.bit_length() else COUNT_LIMIT + 1


@memo
def _growing_count(count, n, *args):
    """``count(n, *args)`` for a count of n >= 1 that grows with n without
    bound, or ``COUNT_LIMIT + 1`` above ``COUNT_LIMIT``: no count past the
    first above the limit is computed.  Memoized, since an element's
    antipode prices each of its keys."""
    m = 1
    while m < n and count(m, *args) <= COUNT_LIMIT:
        m += 1
    return min(count(m, *args), COUNT_LIMIT + 1)


def check_terms(what, count):
    """Refuse ``what`` before any of it is made when ``count``, a bound on
    its terms, is above ``TERM_CAP``; a count above ``COUNT_LIMIT`` is
    named only as more than that."""
    if count > TERM_CAP:
        text = f"more than {COUNT_LIMIT:,}" if count > COUNT_LIMIT else f"up to {count:,}"
        raise ValueError(f"{what} would have {text} terms; the cap is {TERM_CAP:,}")


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
        return LinComb.bilinear(a, b, self._pk)

    def coproduct(self, a: LinComb) -> LinComb:
        return a.apply_linear(self._ck)

    def counit(self, a: LinComb):
        return a[self.unit_key()]

    def antipode_key(self, key) -> LinComb:
        memo = self._antipode_memo
        out = memo.get(key)
        if out is not None:
            return out
        if len(gens := self.factors(key)) > 1:
            # S reverses products: S(g_1 ... g_k) = S(g_k) ... S(g_1)
            out = reduce(self.product, map(self.antipode_key, reversed(gens)))
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
        unit = self.unit_key()
        middle = self._ck(key).filter_keys(lambda pair: unit not in pair)
        return LinComb.single(key, -1) - middle.apply_linear(
            lambda pair: self.product(self.antipode_key(pair[0]), LinComb.single(pair[1]))
        )

    def antipode_terms(self, key) -> int:
        """An upper bound on the number of terms of S(key), or
        ``COUNT_LIMIT + 1`` above ``COUNT_LIMIT``, computed without making
        any of them."""
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
