"""Sparse linear combinations over exact rationals, and integer compositions.

Every algebra in this package represents its elements the same way: a
finitely supported map from canonical hashable basis keys to exact rational
coefficients.  Coefficients are ``int`` or ``fractions.Fraction``, never
floats, so identity checks downstream are literal term-by-term equalities.
A sum over inputs with a ``Fraction`` coefficient hands back its whole
coefficients as ``int``s, so that only genuine fractions (1/n! in
``epsilon``, 1/2 in ``kappa``) pay ``Fraction`` arithmetic downstream.

Coproducts reuse the same container with ordered pairs ``(key, key)`` as
keys; nothing in the container itself cares what the keys mean.

``LinComb`` is the one place where terms are summed and zeros pruned.  Every
structure map is the linear extension of a rule on basis keys: a linear map
is ``apply_linear`` (or ``map_keys``/``filter_keys``), a product is
``bilinear``, and a key-level rule that already emits each key once hands
its dict to ``trusted``, or its keys with repetitions to ``tally``, so no
result is summed a second time.

Every cache in the package is registered here: a function memoized with
``memo``, or a dict made by ``memo_table`` for the recursions that look
themselves up inline.  ``clear_caches`` empties them all.
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


def memo_table() -> dict:
    """A new dict, registered for ``clear_caches``, for a cache looked up
    inline: the per-algebra memos, and the recursions along tree depth,
    where a ``memo`` wrapper's extra call per level would lower the deepest
    tree that fits under the recursion limit."""
    table = {}
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
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            cur = data.get(key, 0) + coeff
            if cur:
                data[key] = cur
            else:
                data.pop(key, None)
        self._terms = data

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
        data = dict(self._terms)
        for key, c in other._terms.items():
            cur = data.get(key, 0) + c
            if cur:
                data[key] = cur
            else:
                data.pop(key, None)
        return LinComb.trusted(data)

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        data = dict(self._terms)
        for key, c in other._terms.items():
            cur = data.get(key, 0) - c
            if cur:
                data[key] = cur
            else:
                data.pop(key, None)
        return LinComb.trusted(data)

    def __neg__(self):
        return LinComb.trusted({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return LinComb.zero()
        return LinComb.trusted({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def apply_linear(self, image):
        """Linear extension: sum of coeff * image(key) over all terms.

        ``image`` maps a basis key to a LinComb or a dict (possibly over a
        different algebra's keys).  If a coefficient of ``self`` is a
        ``Fraction``, the whole coefficients of the result come back as
        ``int``s.
        """
        data = {}
        fractions = False
        for key, c in self._terms.items():
            fractions = fractions or type(c) is Fraction
            for k2, c2 in image(key).items():
                cur = data.get(k2, 0) + c * c2
                if cur:
                    data[k2] = cur
                else:
                    data.pop(k2, None)
        return LinComb.trusted(_whole(data) if fractions else data)

    @staticmethod
    def bilinear(a, b, image):
        """Bilinear extension: sum of c1 * c2 * image(k1, k2) over the terms
        of ``a`` and ``b``, with ``image`` and whole coefficients as in
        ``apply_linear``."""
        data = {}
        fractions = False
        b_terms = b._terms.items()
        for k1, c1 in a._terms.items():
            for k2, c2 in b_terms:
                c = c1 * c2
                fractions = fractions or type(c) is Fraction
                for key, ck in image(k1, k2).items():
                    cur = data.get(key, 0) + c * ck
                    if cur:
                        data[key] = cur
                    else:
                        data.pop(key, None)
        return LinComb.trusted(_whole(data) if fractions else data)

    def map_keys(self, relabel):
        """Relabel every key by ``relabel`` (which must stay injective-enough
        to keep keys canonical; coefficients of collapsing keys add)."""
        return LinComb([(relabel(k), c) for k, c in self._terms.items()])

    def filter_keys(self, keep):
        return LinComb.trusted({k: c for k, c in self._terms.items() if keep(k)})

    @staticmethod
    def tensor(a, b):
        """Outer product: keys become ordered pairs."""
        return LinComb.trusted({
            (k1, k2): c1 * c2 for k1, c1 in a.items() for k2, c2 in b.items()
        })

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
