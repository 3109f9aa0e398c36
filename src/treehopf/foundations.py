"""Sparse linear combinations over exact rationals, and integer compositions.

Every algebra in this package represents its elements the same way: a
finitely supported map from canonical hashable basis keys to exact rational
coefficients.  Coefficients are ``int`` or ``fractions.Fraction``, never
floats, so identity checks downstream are literal term-by-term equalities.

Coproducts reuse the same container with ordered pairs ``(key, key)`` as
keys; nothing in the container itself cares what the keys mean.

Every cache in the package is registered here: a function memoized with
``memo``, or a dict made by ``memo_table`` for the recursions that look
themselves up inline.  ``clear_caches`` empties them all.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations

Scalar = int | Fraction

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
    def single(cls, key, coeff=1):
        out = cls.__new__(cls)
        out._terms = {key: coeff} if coeff else {}
        return out

    @classmethod
    def zero(cls):
        out = cls.__new__(cls)
        out._terms = {}
        return out

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
        out = LinComb.__new__(LinComb)
        out._terms = data
        return out

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
        out = LinComb.__new__(LinComb)
        out._terms = data
        return out

    def __neg__(self):
        out = LinComb.__new__(LinComb)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return LinComb.zero()
        out = LinComb.__new__(LinComb)
        out._terms = {k: c * scalar for k, c in self._terms.items()}
        return out

    __rmul__ = __mul__

    def apply_linear(self, image):
        """Linear extension: sum of coeff * image(key) over all terms.

        ``image`` maps a basis key to a LinComb (possibly in a different
        algebra's keys).
        """
        data = {}
        for key, c in self._terms.items():
            for k2, c2 in image(key).items():
                cur = data.get(k2, 0) + c * c2
                if cur:
                    data[k2] = cur
                else:
                    data.pop(k2, None)
        out = LinComb.__new__(LinComb)
        out._terms = data
        return out

    def map_keys(self, relabel):
        """Relabel every key by ``relabel`` (which must stay injective-enough
        to keep keys canonical; coefficients of collapsing keys add)."""
        return LinComb((relabel(k), c) for k, c in self._terms.items())

    def filter_keys(self, keep):
        out = LinComb.__new__(LinComb)
        out._terms = {k: c for k, c in self._terms.items() if keep(k)}
        return out

    @staticmethod
    def tensor(a, b):
        """Outer product: keys become ordered pairs."""
        data = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                data[(k1, k2)] = c1 * c2
        out = LinComb.__new__(LinComb)
        out._terms = data
        return out

    def __repr__(self):
        inside = ", ".join(f"{k!r}: {c}" for k, c in self._terms.items())
        return "LinComb({%s})" % inside


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


@memo
def rearrangements(partition: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All distinct compositions whose parts rearrange to ``partition``."""
    return tuple(sorted(set(permutations(partition))))
