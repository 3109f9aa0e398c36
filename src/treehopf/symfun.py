"""Quasi-symmetric, noncommutative symmetric, and symmetric functions.

QSYM uses the monomial basis indexed by compositions: the quasi-shuffle
product (interleave the two part sequences, optionally adding a part of each
to a part of the other) and the deconcatenation coproduct.

NSYM is the free associative algebra on generators E_1, E_2, ... with basis
the products E_I indexed by compositions, concatenation product, and the
divided-power coproduct Δ(E_n) = sum E_i ⊗ E_j over i + j = n.  It is the
graded dual of QSYM under the Kronecker pairing of compositions.

SYM uses the monomial basis indexed by partitions.  It embeds into QSYM by
symmetrizing (a partition maps to the sum of its distinct rearrangements);
products are computed there and collected back, which also machine-checks
closure.  Its coproduct splits the part multiset into an ordered pair of
submultisets, each distinct splitting once.

The elementary/complete/power sums live here too, along with the conversion
between the monomial and elementary bases (exact linear solve per degree),
the append-a-part-one operator alpha_plus with its one-sided inverse
alpha_minus, their NSYM duals, and the truncated polynomial realization of
QSYM used as an independent oracle for the quasi-shuffle product.
"""

from fractions import Fraction
from itertools import product as iter_product

from .foundations import (
    LinComb,
    compositions_of,
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
        acc = {}
        for head, tail in (
            ((a,), self._pk(left[1:], right)),
            ((b,), self._pk(left, right[1:])),
            ((a + b,), self._pk(left[1:], right[1:])),
        ):
            for comp, c in tail.items():
                key = head + comp
                acc[key] = acc.get(key, 0) + c
        return LinComb(acc)

    def coproduct_key(self, comp):
        return LinComb(
            ((comp[:i], comp[i:]), 1) for i in range(len(comp) + 1)
        )


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
        return LinComb(acc)


class SymmetricFunctions(_PartLists):
    """Monomial-basis symmetric functions (partition-indexed)."""

    name = "sym"
    letter = "m"

    def basis(self, n):
        return partitions_of(n)

    def product_keys(self, lam, mu):
        prod = QSYM.product(include_sym(LinComb.single(lam)), include_sym(LinComb.single(mu)))
        return collect_sym(prod)

    def coproduct_key(self, lam):
        """Each distinct ordered splitting of the part multiset, once."""
        values = sorted(set(lam), reverse=True)
        mults = [lam.count(v) for v in values]
        acc = {}
        for taken in iter_product(*(range(m + 1) for m in mults)):
            left = []
            right = []
            for v, m, k in zip(values, mults, taken):
                left.extend([v] * k)
                right.extend([v] * (m - k))
            acc[(tuple(left), tuple(right))] = 1
        return LinComb(acc)


QSYM = QuasiSymmetricFunctions()
NSYM = NoncommutativeSymmetricFunctions()
SYM = SymmetricFunctions()


def include_sym(a: LinComb) -> LinComb:
    """Embed SYM into QSYM: a partition becomes the sum of its distinct
    rearrangements as compositions."""
    data = {}
    for lam, c in a.items():
        for comp in rearrangements(lam):
            data[comp] = data.get(comp, 0) + c
    return LinComb(data)


def collect_sym(q: LinComb) -> LinComb:
    """Inverse of include_sym on its image.

    Raises ValueError when the argument is not symmetric (some rearrangement
    class has unequal or missing coefficients).
    """
    out = {}
    seen = set()
    for comp in q:
        lam = pi_forget(comp)
        if lam in seen:
            continue
        seen.add(lam)
        c = q[lam]  # the weakly decreasing rearrangement is itself a composition
        for other in rearrangements(lam):
            if q[other] != c:
                raise ValueError(
                    f"not symmetric: coefficient of {other} differs from {lam}"
                )
        if c:
            out[lam] = c
    return LinComb(out)


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


_E_TO_M: dict[int, dict[tuple, LinComb]] = {}
_M_TO_E: dict[int, dict[tuple, LinComb]] = {}


def _transition(n: int):
    """Expansions of the products e_lam in the monomial basis, degree n,
    plus the inverse transition, solved exactly by Gauss-Jordan."""
    if n in _E_TO_M:
        return _E_TO_M[n], _M_TO_E[n]
    parts = partitions_of(n)
    e_rows = {}
    for lam in parts:
        acc = SYM.one()
        for part in lam:
            acc = SYM.product(acc, e(part))
        e_rows[lam] = acc
    index = {lam: j for j, lam in enumerate(parts)}
    size = len(parts)
    # augmented [A | I] over Fraction, rows indexed like parts
    matrix = [
        [Fraction(e_rows[lam][mu]) for mu in parts]
        + [Fraction(1 if j == i else 0) for j in range(size)]
        for i, lam in enumerate(parts)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col]), None)
        if pivot is None:
            raise ValueError(f"e-to-m transition matrix of degree {n} is singular")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [x * inv for x in matrix[col]]
        for r in range(size):
            if r != col and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[col])]
    # inverse of A: m_mu = sum_j inv[index(mu)][j] e_{parts[j]}
    m_rows = {}
    for mu in parts:
        i = index[mu]
        m_rows[mu] = LinComb(
            (parts[j], matrix[i][size + j]) for j in range(size)
        )
    _E_TO_M[n] = e_rows
    _M_TO_E[n] = m_rows
    return e_rows, m_rows


def m_to_e(a: LinComb) -> LinComb:
    """Rewrite a monomial-basis element as coefficients on the e_lam basis."""
    out = LinComb.zero()
    for lam, c in a.items():
        _, rows = _transition(sum(lam))
        out += c * rows[lam]
    return out


def m_to_e_row(lam) -> dict:
    """m_lam in the elementary basis, as a new dict {mu: coefficient of e_mu}."""
    return dict(_transition(sum(lam))[1][lam].items())


def e_to_m(a: LinComb) -> LinComb:
    """Expand e-basis coefficients back into the monomial basis."""
    out = LinComb.zero()
    for lam, c in a.items():
        rows, _ = _transition(sum(lam))
        out += c * rows[lam]
    return out


def alpha_plus(a: LinComb) -> LinComb:
    """Append a part 1 to every composition."""
    return a.map_keys(lambda comp: comp + (1,))


def alpha_minus(a: LinComb) -> LinComb:
    """Strip a trailing part 1; kill compositions that do not end in 1."""
    data = {}
    for comp, c in a.items():
        if comp and comp[-1] == 1:
            key = comp[:-1]
            data[key] = data.get(key, 0) + c
    return LinComb(data)


# Dual of alpha_plus on the E basis: strip a trailing E_1, else zero.
alpha_plus_dual = alpha_minus

# Dual of alpha_minus on the E basis: right-multiply by E_1.
alpha_minus_dual = alpha_plus


class TruncatedPolynomial:
    """Polynomial in x_1..x_nvars with exact coefficients, dict-backed.

    Keys are exponent tuples of length nvars.  Just enough arithmetic for
    the oracle: addition, multiplication, scalar scaling, equality.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        self.nvars = nvars
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for expo, c in items:
            cur = data.get(expo, 0) + c
            if cur:
                data[expo] = cur
            else:
                data.pop(expo, None)
        self.terms = data

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        data = dict(self.terms)
        for expo, c in other.terms.items():
            cur = data.get(expo, 0) + c
            if cur:
                data[expo] = cur
            else:
                data.pop(expo, None)
        return TruncatedPolynomial(self.nvars, data)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedPolynomial(
                self.nvars, {e_: c * other for e_, c in self.terms.items()}
            )
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        data = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                data[expo] = data.get(expo, 0) + c1 * c2
        return TruncatedPolynomial(self.nvars, data)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TruncatedPolynomial({self.nvars}, {self.terms})"


def _monomial_expansion(comp, nvars: int) -> TruncatedPolynomial:
    """Sum of x_{n1}^{i1} ... x_{nk}^{ik} over n1 < ... < nk <= nvars."""
    k = len(comp)
    data = {}

    def place(pos, var, expo):
        if pos == k:
            data[tuple(expo)] = data.get(tuple(expo), 0) + 1
            return
        for v in range(var, nvars - (k - pos) + 1):
            expo[v] = comp[pos]
            place(pos + 1, v + 1, expo)
            expo[v] = 0

    place(0, 0, [0] * nvars)
    return TruncatedPolynomial(nvars, data)


def expand_truncated(a: LinComb, nvars: int) -> TruncatedPolynomial:
    """Realize a QSYM element as a polynomial in x_1..x_nvars.

    Faithful (injective) on elements of degree <= nvars, which is what makes
    it an independent oracle for the quasi-shuffle product.
    """
    if nvars < 0:
        raise ValueError("variable count must be nonnegative")
    out = TruncatedPolynomial(nvars, {})
    for comp, c in a.items():
        out = out + c * _monomial_expansion(comp, nvars)
    return out
