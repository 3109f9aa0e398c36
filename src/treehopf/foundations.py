"""Sparse linear combinations over exact rationals, and integer compositions.

Every algebra in this package represents its elements the same way: a
finitely supported map from canonical hashable basis keys to exact rational
coefficients.  Coefficients are ``int`` or ``fractions.Fraction``, never
floats, so identity checks downstream are literal term-by-term equalities.
A sum over inputs with a ``Fraction`` coefficient hands back its whole
coefficients as ``int``s, so that only genuine fractions pay ``Fraction``
arithmetic downstream.  They enter at the edges, and the hot paths keep
to ``int``s.  ``epsilon`` returns the corolla over n! and ``kappa`` the
weights 1/sym(t), as their definitions say; Z keeps its table in
``int``s, the products of corollas, and the public ``Z`` divides once per
key as it reads it (``morphisms``); the suite rows that read Z,
``kappa`` or ``epsilon`` compare both sides times the product of the
factorials of the parts, or n!, in ``int``s (``verify``).  What still
pays ``Fraction`` arithmetic is the public Z and the sums it feeds (the
CLI's ``map --name Z``, and the dualities suite's adjoint row, which
checks the public Z through the pairings), ``kappa`` and ``epsilon``
where they are printed or summed unscaled (the CLI, and the one
divided-powers row on epsilon(n) alone), and ``exact_rank``'s clearing of
denominators, per row, in ``verify``.

Coproducts reuse the same container with ordered pairs ``(key, key)`` as
keys; nothing in the container itself cares what the keys mean.

``LinComb`` is where terms are summed and zeros pruned, the hot loops
named below aside.  Every structure map is the linear extension of a rule
on basis keys: a linear map is ``apply_linear`` (or
``map_keys``/``filter_keys``), a product is ``bilinear``, and a key-level
rule that already emits each key once hands its dict to ``trusted``, or
its keys with repetitions to ``tally``, so no result is summed a second
time.  A composite map sums all its terms in one pass, with no LinComb
built per term: ``scaled_sum`` takes a stream of scaled item streams (the
antipode recursion, the antipode convolution outside the free algebras, a
pairing row read through a coproduct index), and
``tensor_sum`` a stream of scaled tensor products c * (a ⊗ b)
(``tensor_map``, and ``tensor_mult`` where key products have many terms).
Three loops here do the summing: ``_sum``, behind ``scaled_sum``,
``bilinear`` and the rest; the copy of it inlined in ``apply_linear``, the
hottest sum; and ``tensor_sum``'s, which forms each pair key inline.  Four
loops elsewhere sum in place, where a stream would cost a generator step
or a key function call per term: a free algebra's product
(``HopfAlgebra._times``) and ``tensor_mult`` in ``hopf``, which add c d at
the key product, and in ``verify`` the sides of the hopf-axioms rows on
coassociativity and, in the free algebras, the antipode convolution.  Each
keeps its generic form in the tests as its oracle (CHANGES.md has their
timings).  The sums here compute no identity: a new key takes its term as
it is, and a unit coefficient multiplies nothing, so no ``Fraction`` is
built for 0 + x, 1 * x or x * 1.

The image of a basis key under an extension is a LinComb or a dict.  A
dict image is copied (its zero coefficients pruned), never kept, since its
owner may write to it later.  A LinComb image may be returned as it is: a
sum of one term with coefficient 1 is its image, so a result may be a
memo entry shared with other callers.  No result is ever mutated, and only
this module reads the terms of a LinComb.

Every cache in the package is registered here, and fills itself: a
function memoized with ``memo``, or a table made by ``memo_table(fill,
needs)``, a dict whose missing key is ``fill(key)``, computed when it is
subscripted, so a hit is one subscript, in C, with no Python call and no
"get, then fill if missing" in its caller.  That is the one memo rule: a
table names the smaller keys that a key's fill reads, ``needs(key)``, and
the table fills those first, from an explicit stack, so that a walk along
a tree's depth, a product of many generators or a sequence counted up
from n = 0 costs no Python recursion.  Such a key's fill is ``fill(key,
needed)``, handed what ``needs(key)`` returned, so that it does not find
again what its needs found (a key's split, a forest's leaf moves).
``clear_caches`` empties them all.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

# the clear method of every registered cache
_CLEARS = []


def memo(fn):
    """``functools.cache`` of ``fn``, registered for ``clear_caches``."""
    cached = cache(fn)
    _CLEARS.append(cached.cache_clear)
    return cached


# pushed on a table's stack above a key and what its needs returned, with
# the keys it needs above it: once it is popped, those are filled, and the
# key is next
_READY = object()


class _Table(dict):
    """A dict that fills itself: a missing key's value is ``fill(key)``,
    stored and returned, so a hit costs one subscript, in C.  With
    ``needs``, the keys that ``needs(key)`` lists, and theirs in turn, are
    filled first, from an explicit stack, so a chain of needs as long as a
    tree is deep costs no Python recursion, and the key's value is
    ``fill(key, needed)``, with ``needed`` the collection that ``needs(key)``
    returned, so that a fill reads what its needs found, not finding it
    again.  Each key's needs are read once and each key is filled once; a
    fill that raises leaves no entry."""

    __slots__ = ("fill", "needs")

    def __init__(self, fill, needs=None):
        super().__init__()
        self.fill = fill
        self.needs = needs

    def __missing__(self, key):
        fill, needs = self.fill, self.needs
        if needs is None:
            value = self[key] = fill(key)
            return value
        needed = needs(key)
        stack = [k for k in needed if k not in self]
        while stack:
            k = stack.pop()
            if k is _READY:
                k = stack.pop()
                self[k] = fill(k, stack.pop())
            elif k not in self:
                found = needs(k)
                stack += (found, k, _READY)
                stack += [d for d in found if d not in self]
        value = self[key] = fill(key, needed)
        return value


def memo_table(fill, needs=None) -> dict:
    """A self-filling ``_Table``, registered for ``clear_caches``."""
    table = _Table(fill, needs)
    _CLEARS.append(table.clear)
    return table


def clear_caches():
    """Empty every registered cache."""
    for clear in _CLEARS:
        clear()


class LinComb:
    """Finitely supported basis-key -> coefficient map with vector space ops.

    Keys must be canonical: two equal basis elements must compare and hash
    equal.  Zero coefficients are pruned by every operation, so ``==`` is
    independent of the order in which terms were accumulated.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        self._terms = _sum([(1, items)])

    @classmethod
    def trusted(cls, data: dict):
        """Wrap ``data``, a dict already summed and pruned (no key twice, no
        zero coefficient), without copying or checking it."""
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def tally(cls, keys):
        """The sum of ``keys``: each distinct key with its multiplicity."""
        return cls.trusted(dict(Counter(keys)))

    @classmethod
    def single(cls, key, coeff=1):
        return cls.trusted({key: coeff} if coeff else {})

    @classmethod
    def zero(cls):
        return cls.trusted({})

    def items(self):
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __contains__(self, key):
        return key in self._terms

    def __getitem__(self, key):
        """Coefficient of ``key`` (0 when absent)."""
        return self._terms.get(key, 0)

    def __eq__(self, other):
        if isinstance(other, LinComb):
            return self._terms == other._terms
        if isinstance(other, int) and other == 0:
            return not self._terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.trusted(_sum([(1, other._terms.items())], dict(self._terms)))

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.trusted(_sum([(-1, other._terms.items())], dict(self._terms)))

    def __neg__(self):
        return LinComb.trusted({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return LinComb.zero()
        return _one_term(scalar, self)

    __rmul__ = __mul__

    def apply_linear(self, image):
        """Linear extension: sum of coeff * image(key) over all terms.

        ``image`` maps a basis key to a LinComb or a dict (possibly over a
        different algebra's keys).  A dict image is copied, never kept, and
        its zero coefficients are pruned; a LinComb image may come back as
        it is, when ``self`` is that key with coefficient 1.  If a
        coefficient of ``self`` is a ``Fraction``, the whole coefficients of
        the result come back as ``int``s.
        """
        terms = self._terms
        if len(terms) == 1:
            for key, c in terms.items():
                return _one_term(c, image(key))
        data = {}
        get = data.get
        fractions = False
        for key, c in terms.items():
            frac = type(c) is Fraction
            if frac:
                fractions = True
            unit = c == 1
            for k, x in image(key).items():
                if not unit:
                    x = (c if x == 1 else c * x) if frac else c * x
                cur = get(k)
                if cur is None:
                    if x:
                        data[k] = x
                else:
                    cur += x
                    if cur:
                        data[k] = cur
                    else:
                        del data[k]
        return LinComb.trusted(_whole(data) if fractions else data)

    @staticmethod
    def scaled_sum(scaled):
        """The sum of c * x over each (key, x) of ``items``, for each
        (c, items) of ``scaled``: zeros pruned, and whole coefficients made
        ``int``s if a c is a ``Fraction`` (``_sum``).  A caller that streams
        the terms of several images here builds no LinComb per image."""
        return LinComb.trusted(_sum(scaled))

    @staticmethod
    def bilinear(a, b, image):
        """Bilinear extension: sum of c1 * c2 * image(k1, k2) over the terms
        of ``a`` and ``b``, with ``image``, its contract and whole
        coefficients as in ``apply_linear``."""
        a_items, b_items = a._terms.items(), b._terms.items()
        if len(a_items) == 1 == len(b_items):
            for (k1, c1), (k2, c2) in zip(a_items, b_items):
                return _one_term(_times(c1, c2), image(k1, k2))
        return LinComb.trusted(_sum([(_times(c1, c2), image(k1, k2).items())
                                     for k1, c1 in a_items for k2, c2 in b_items]))

    def map_keys(self, relabel):
        """Relabel every key by ``relabel`` (which must stay injective-enough
        to keep keys canonical; coefficients of collapsing keys add)."""
        return LinComb([(relabel(k), c) for k, c in self._terms.items()])

    def filter_keys(self, keep):
        return LinComb.trusted({k: c for k, c in self._terms.items() if keep(k)})

    @staticmethod
    def tensor(a, b):
        """Outer product of two LinCombs or dicts: keys become ordered
        pairs; ``tensor_sum`` of the one term a ⊗ b."""
        return LinComb.tensor_sum(((1, a, b),))

    @staticmethod
    def tensor_sum(scaled):
        """The sum of c * (a ⊗ b) for each (c, a, b) of ``scaled``, with a
        and b LinCombs or dicts: keys become ordered pairs, zeros are
        pruned, and whole ``Fraction`` coefficients come back as ``int``s.
        Each product of three coefficients is taken as in ``_sum``, with no
        product computed for a factor of 1, and no LinComb is built for a
        single a ⊗ b."""
        data = {}
        get = data.get
        for c, a, b in scaled:
            b_items = b.items()
            c_unit = c == 1
            c_frac = type(c) is Fraction
            for k1, x in a.items():
                if not c_unit:
                    x = (c if x == 1 else c * x) if c_frac else c * x
                unit = x == 1
                frac = type(x) is Fraction
                for k2, y in b_items:
                    if not unit:
                        y = (x if y == 1 else x * y) if frac else x * y
                    key = (k1, k2)
                    cur = get(key)
                    if cur is None:
                        if y:
                            data[key] = y
                    else:
                        cur += y
                        if cur:
                            data[key] = cur
                        else:
                            del data[key]
        return LinComb.trusted(_whole(data))

    def __repr__(self):
        inside = ", ".join(f"{k!r}: {c}" for k, c in self._terms.items())
        return "LinComb({%s})" % inside


def _whole(data: dict) -> dict:
    """``data`` with each whole ``Fraction`` coefficient replaced in place by
    its ``int``, so that later arithmetic on it runs at ``int`` speed.  The
    sums call it only when an input coefficient is a ``Fraction``, so that
    integer-only work pays no extra pass."""
    for key, c in data.items():
        if type(c) is Fraction and c.denominator == 1:
            data[key] = c.numerator
    return data


def _sum(scaled, data=None) -> dict:
    """``data`` (by default a new dict) plus c * x for each (key, x) of
    ``items``, for each (c, items) of ``scaled``: added in place, zeros
    pruned, and whole coefficients made ``int``s if a c is a ``Fraction``.
    A new key takes its term as it is, a c equal to 1 multiplies nothing,
    and under a ``Fraction`` c a coefficient 1 gives c.  ``bilinear`` hands
    it one (c, items) per pair of terms.  ``apply_linear`` runs this loop
    inline: every coproduct, antipode, map and suite row goes through it,
    and a list of (c, items) built on each of its calls slows the heaviest
    suites measurably (CHANGES.md)."""
    data = {} if data is None else data
    get = data.get
    fractions = False
    for c, items in scaled:
        frac = type(c) is Fraction
        if frac:
            fractions = True
        unit = c == 1
        for key, x in items:
            if not unit:
                x = (c if x == 1 else c * x) if frac else c * x
            cur = get(key)
            if cur is None:
                if x:
                    data[key] = x
            else:
                cur += x
                if cur:
                    data[key] = cur
                else:
                    del data[key]
    return _whole(data) if fractions else data


def _times(c1, c2):
    """c1 * c2, with no product computed for an ``int`` c1 of 1, nor for a
    c2 of 1 under a ``Fraction`` c1.  A ``Fraction`` factor keeps the
    product a ``Fraction``, so that the sum it scales still makes its whole
    coefficients ``int``s."""
    if c1 == 1 and type(c1) is int:
        return c2
    if c2 == 1 and type(c1) is Fraction:
        return c1
    return c1 * c2


def _one_term(c, image) -> LinComb:
    """``c`` times ``image``, the sum of one term: a LinComb image with an
    ``int`` c of 1 comes back as it is, and a dict image is copied with its
    zeros pruned."""
    if type(c) is not int:
        return LinComb.trusted(_sum([(c, image.items())]))
    if c == 1:
        if isinstance(image, LinComb):
            return image
        return LinComb.trusted({k: x for k, x in image.items() if x})
    return LinComb.trusted({k: c * x for k, x in image.items() if x})


@memo
def compositions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All compositions (ordered tuples of positive parts) summing to n.

    Deterministic order: first part descending, then recursively.  n = 0
    yields the single empty composition.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in compositions_of(n - first):
            out.append((first,) + rest)
    return tuple(out)


@memo
def partitions_of(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, largest part first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    cap = n if largest is None else min(largest, n)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def pi_forget(comp: tuple[int, ...]) -> tuple[int, ...]:
    """Forget the order of a composition: its parts sorted weakly decreasing."""
    return tuple(sorted(comp, reverse=True))


def multiset_permutations(items):
    """Each distinct ordering of ``items`` once, in lexicographic order, as
    tuples: Knuth's Algorithm L (TAOCP 7.2.1.2) steps from the sorted
    ordering to the next larger one, so the cost is that of the orderings
    returned, not of all n! permutations."""
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]


def multiset_splits(items):
    """Each distinct split of the multiset ``items`` into an ordered pair of
    submultisets once, as ``(left, right, count)``, where ``count`` (a
    product of binomials) is how many of the 2^n two-colourings give it.
    Both halves list equal items together, in order of first occurrence."""
    groups = list(Counter(items).items())
    for taken in product(*(range(m + 1) for _, m in groups)):
        left, right, count = [], [], 1
        for (value, m), k in zip(groups, taken):
            left += [value] * k
            right += [value] * (m - k)
            count *= comb(m, k)
        yield tuple(left), tuple(right), count


@memo
def rearrangements(partition: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All distinct compositions whose parts rearrange to ``partition``, in
    lexicographic order."""
    return tuple(multiset_permutations(partition))
