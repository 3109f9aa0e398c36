"""Shared machinery for graded connected Hopf algebras with a chosen basis.

Each concrete algebra supplies the combinatorics on basis keys (grading,
basis enumeration, product and coproduct of keys, printing); this base class
supplies the linear extensions, the counit, and the antipode.  Every
extension is one of the two sums in ``LinComb``: the product and
``tensor_mult`` are ``LinComb.bilinear`` over the memoized key products (the
latter over their tensor), and the coproduct, the antipode and
``tensor_map`` are ``apply_linear``.  Because every algebra here is graded
with a one-dimensional degree-0 part, one antipode recursion serves all of
them:

    S(1) = 1,   S(x) = -x - sum S(x') x''

where the sum runs over the middle (both-sides-positive-degree) terms of the
coproduct of x, and is one ``apply_linear`` over those terms.  Products,
coproducts, and antipodes of basis keys are memoized per algebra instance,
in tables registered with ``foundations.clear_caches``; entries are only
ever written once.  Nothing in the package uses threads, and the
algebras are meant for one thread at a time: interning a new tree or
forest (``trees``) looks it up and then inserts it, so two threads
building the same new key at once could each get an object of their own.
"""

from .foundations import LinComb, memo_table


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
        """Coproduct of a basis key, as a LinComb over ordered key pairs."""
        raise NotImplementedError

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
        memo = self._cop_memo
        out = memo.get(key)
        if out is None:
            out = self.coproduct_key(key)
            memo[key] = out
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
        unit = self.unit_key()
        if key == unit:
            out = self.one()
        else:
            middle = self._ck(key).filter_keys(lambda pair: unit not in pair)
            out = LinComb.single(key, -1) - middle.apply_linear(
                lambda pair: self.product(self.antipode_key(pair[0]), LinComb.single(pair[1]))
            )
        memo[key] = out
        return out

    def antipode(self, a: LinComb) -> LinComb:
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
    return t.apply_linear(lambda pair: LinComb.tensor(left(pair[0]), right(pair[1])))


def tensor_mult(algebra: HopfAlgebra, t1: LinComb, t2: LinComb) -> LinComb:
    """Componentwise product of two tensors over the same algebra."""
    pk = algebra._pk
    return LinComb.bilinear(
        t1, t2, lambda p, q: LinComb.tensor(pk(p[0], q[0]), pk(p[1], q[1]))
    )


def swap_tensor(t: LinComb) -> LinComb:
    return t.map_keys(lambda pair: (pair[1], pair[0]))
