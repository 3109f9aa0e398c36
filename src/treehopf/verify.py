"""Identity verification suites.

Every algebraic claim the library makes is runnable: each suite below
checks a family of identities on homogeneous bases up to a configurable
degree and reports pass/fail per identity, with the first counterexample
when one exists.  Every check is exhaustive through the requested degree
but one: the hexagon suite checks that its maps are Hopf morphisms
exhaustively through degree 4, plus seeded degree-5 spot checks.
Reports are deterministic: fixed iteration order, and the only
randomness (those spot checks) uses a hard-coded seed.

A check walks basis keys, and reads the product, coproduct and antipode of
keys from the algebra's self-filling tables, one subscript each
(``alg._prod_memo``, ``alg._cop_memo``, ``alg._antipode_memo``), as every
memo in the package is read and filled (``foundations``: a table fills
what a key needs first, then the key; the partition counts here too,
p(n) needing p(n - 1)); it multiplies elements by
the unpriced key products (``alg._times``), in a free algebra by its
``key_product``, and takes their coproducts and antipodes key by key, so
no suite meets the pricing of the public operations (``hopf``).  A
counterexample names its keys with ``key_str``.

The hopf-axioms suite is the largest, and two of its costliest rows sum
each side in one loop of its own over the tables, with no generator step
or key function called per term: coassociativity (``_coassoc_sides``) and,
in the free algebras, the antipode convolution (``_convolutions``).  In
HK, HF and NSYM the rows on products (associativity, the unit laws, the
algebra-morphism row, the grading and commutativity) compare key
products, and those algebras have no product table.  The sums
the loops replaced stay in the tests as their oracles.
The adjoint and delta rows of the dualities suite compare sparse rows, as
the duality criterion does, not every key pair: <f(u), v> = <u, g(v)> is
the row of f(u) against u's row through the transpose of g, and each e_mu
e_nu is its row against a one-term delta.

The hexagon cells and the morphism rows apply a map to an element
through a key rule, the subscript of a self-filling table of the image of
each basis key (``foundations._Table``) that lives for one suite run: the
full circuit maps each tree of Z(x) through Phistar and rhostar once per
run, not once per composition.  It is not a registered memo, since the
maps it reads may be patched between runs.

Nine rows compare both sides of their identity times a nonzero integer,
so that they run in ``int``s where the identity has fractions: the same
identity, scaled per key.  Four read Z from its integer table, the
product of corollas C_(a_1) ... C_(a_m), which is Z(E_a) times the
integer a_1! ... a_m! (``_z_scale``): the hexagon's left triangle and
full circuit, and zstar-intertwine's "dual append" and "dual strip"
rows, each times that integer for its composition a (``_z_times``).
Five of the divided-powers suite read n! kappa(n) and n! epsilon(n),
made once per run from ``kappa`` and ``epsilon`` as this module names
them (``_factorial_multiples``), and compare times n!: the symmetry-
weighted divided powers (Delta(n! kappa(n)) is the sum of C(n, i) (i!
kappa(i)) ⊗ ((n - i)! kappa(n - i))), the signed antipode images, the
factorial multiple (the terms weighted by C(n, i)), and the two ladder
projections (n! h_n and n! e_n).  The dualities suite's adjoint row
reads the public Z, which divides.

The quasi-shuffle-oracle suite checks QSYM's product against the
product of polynomials, in N = len(a) + len(b) variables for M_a M_b,
not in |a| + |b|: restricting QSYM to N variables is a ring
homomorphism, injective on the span of the M_c with at most N parts
(Grinberg-Reiner, Hopf Algebras in Combinatorics, 5.1), and every term
of M_a M_b has at most N parts.  So the row first fails a computed term
with more than N parts, which N variables would expand to 0, and then
compares the expansions (``_polynomial_product_holds``).  Its two rows
on symmetrized elements read one product per key pair, made once per
run in a ``_Table``.

The zstar-surjectivity suite decides each degree by a triangular
certificate: the images of one level forest per composition, whose
leading compositions are every composition once.  Elimination over the
images of every forest is its fallback, so a failure names the same rank.

Suites refuse degree bounds past their caps with a case-count estimate
instead of silently grinding.  A cap is the degree past which a suite
refuses, not a measure of its speed: README's suite table gives each
suite's time at its default degree and at its cap.
"""

from fractions import Fraction
from itertools import chain, count
from math import comb, factorial, gcd, lcm
import random

from .foundations import LinComb, _Table, _whole, compositions_of, memo, memo_table, partitions_of
from .trees import (
    Forest,
    LEAF,
    OrderedForest,
    RootedTree,
    catalan,
    enumerate_planar,
    enumerate_rooted,
    forests_of_degree,
    ladder_forest,
    ordered_forests_of_degree,
    planar_fiber,
    planar_from_string,
    planar_ladder,
    rooted_count,
    rooted_from_string,
    sym_order,
)
from .hopf import swap_tensor, tensor_map, tensor_mult
from .hopf import capped_binomial, capped_counts, capped_power, capped_sum, count_text
from .hopf_rooted import (
    HK,
    KT,
    ck_b_minus,
    ck_b_plus,
    epsilon,
    forest_b_plus,
    kappa,
    strip_primitive_root,
)
from .hopf_planar import HF, KP
from .symfun import (
    NSYM,
    QSYM,
    SYM,
    _monomial_expansion,
    alpha_minus,
    alpha_minus_dual,
    alpha_plus,
    alpha_plus_dual,
    collect_sym,
    e,
    e_to_m_row,
    h,
    include_sym,
    p,
)
from .morphisms import MAP_TABLE, Z, Z_star, _Z_MEMO, _z_scale, kbar, phi, phi_star, rho, tau
from .pairings import (
    _first_mismatch,
    _key_pairs,
    _through,
    _transpose,
    check_duality_criterion,
    check_pairing_compatibility,
    ip_ck,
    ip_hf,
    ip_kp,
    ip_kt,
    ip_ns,
    ip_qs,
    ip_sym,
    pair_kp_hf,
    pair_kt_ck,
    pair_ns_qs,
)

_SPOT_SEED = 74530121
_SPOT_COUNT = 8
_SPOT_DEGREE = 5


class SuiteBoundError(ValueError):
    """Raised when a requested degree bound exceeds a suite's cap."""


class IdentityResult:
    __slots__ = ("identity", "range_tested", "status", "counterexample")

    def __init__(self, identity: str, range_tested: str, status: str,
                 counterexample: str | None = None):
        self.identity = identity
        self.range_tested = range_tested
        self.status = status  # "pass" or "fail"
        self.counterexample = counterexample

    def to_dict(self):
        d = {
            "identity": self.identity,
            "range": self.range_tested,
            "status": self.status,
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d

    def line(self):
        mark = "PASS" if self.status == "pass" else "FAIL"
        out = f"  [{mark}] {self.identity} ({self.range_tested})"
        if self.counterexample is not None:
            out += f"\n         counterexample: {self.counterexample}"
        return out


class SuiteReport:
    __slots__ = ("suite", "max_degree", "results")

    def __init__(self, suite: str, max_degree: int, results: list[IdentityResult]):
        self.suite = suite
        self.max_degree = max_degree
        self.results = results

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_dict(self):
        return {
            "suite": self.suite,
            "max_degree": self.max_degree,
            "ok": self.ok,
            "results": [r.to_dict() for r in self.results],
        }

    def lines(self):
        head = f"suite {self.suite} (max degree {self.max_degree}): " + (
            "all identities hold" if self.ok else "FAILURES FOUND"
        )
        return [head] + [r.line() for r in self.results]


def _check(identity, range_tested, cases, holds, describe):
    """Result of one identity: ``holds(*case)`` for each case in order.  The
    first case that fails is reported as ``describe(*case)``, so the
    counterexample text is only built for a failure.  A ValueError raised
    while generating or checking a case is a defect the library detected
    itself: the identity fails with the error text as counterexample."""
    try:
        for case in cases:
            if not holds(*case):
                return IdentityResult(identity, range_tested, "fail", describe(*case))
    except ValueError as exc:
        return IdentityResult(identity, range_tested, "fail", f"ValueError: {exc}")
    return IdentityResult(identity, range_tested, "pass")


def _each(identity, range_tested, var, ns, holds):
    """``holds(n)`` for each n in ns; a failure reads ``var = n``."""
    return _check(
        identity, range_tested, ((n,) for n in ns), holds, lambda n: f"{var} = {n}"
    )


def _counts(identity, range_tested, ns, *sides):
    """``got(n) == want(n)`` for each n in ns and each side (text, got,
    want) in turn; a failure reads ``text`` formatted with n, got, want."""
    return _check(
        identity,
        range_tested,
        ((n, text, got(n), want(n)) for n in ns for text, got, want in sides),
        lambda n, text, got, want: got == want,
        lambda n, text, got, want: text.format(n=n, got=got, want=want),
    )


# ---------------------------------------------------------------- counting

def partition_count(n: int) -> int:
    """Number of partitions of n, by the pentagonal-number recurrence, from
    its table."""
    return _PARTITIONS[n] if n >= 0 else 0


def _pentagonal(n):
    """p(n) from p(m), m < n, by Euler's pentagonal-number theorem."""
    total, k = 0 if n else 1, 1
    while (g := k * (3 * k - 1) // 2) <= n:
        sign = 1 if k % 2 else -1
        total += sign * _PARTITIONS[n - g]
        if (g := g + k) <= n:
            total += sign * _PARTITIONS[n - g]
        k += 1
    return total


# n -> p(n); each n needs n - 1, so a table filled up to n holds every p(m)
_PARTITIONS = memo_table(lambda n, _: _pentagonal(n), lambda n: (n - 1,) if n else ())


def composition_count(n: int) -> int:
    return 2 ** (n - 1) if n >= 1 else 1


# ------------------------------------------------- independent generators

def _leaf_growth():
    """n -> the encodings of all rooted trees with n vertices, grown from the
    single vertex by attaching a new leaf at every vertex of every tree one
    vertex smaller.  Independent of the multiset-based enumerator.  Each
    level is grown once, from the one below, and kept only as long as the
    function: one suite run."""
    levels = [{}, {LEAF.encoding: LEAF}]

    def growth(n: int) -> set[str]:
        while len(levels) <= n:
            grown = {}
            for t in levels[-1].values():
                for g in _attach_leaf(t):
                    grown[g.encoding] = g
            levels.append(grown)
        return set(levels[n])

    return growth


def _attach_leaf(t: RootedTree):
    yield RootedTree(t.children + (LEAF,))
    for i, c in enumerate(t.children):
        for g in _attach_leaf(c):
            yield RootedTree(t.children[:i] + (g,) + t.children[i + 1 :])


def _dyck_planar(n: int) -> set[str]:
    """Encodings of all planar trees with n vertices, via balanced bracket
    strings: the root wraps any balanced string of n-1 bracket pairs."""
    out = set()

    def walk(prefix, opened, closed):
        if opened == n - 1 and closed == n - 1:
            out.add("[" + prefix + "]")
            return
        if opened < n - 1:
            walk(prefix + "[", opened + 1, closed)
        if closed < opened:
            walk(prefix + "]", opened, closed + 1)

    walk("", 0, 0)
    del walk  # it refers to itself: unbind it, so that no cycle is left
    return out


# ------------------------------------------------------------------ ranks

def _integer_row(row) -> dict:
    """A matrix row, a mapping ``{column: entry}`` (a dict or a ``LinComb``)
    or a dense sequence, as a new dict of its nonzero entries with
    denominators cleared, divided by the gcd of its entries."""
    entries = row.items() if hasattr(row, "items") else enumerate(row)
    r = {c: x for c, x in entries if x}
    denom = lcm(*(x.denominator for x in r.values() if isinstance(x, Fraction)))
    r = {c: int(x * denom) for c, x in r.items()}
    _divide_content(r)
    return r


def _divide_content(r: dict):
    g = gcd(*r.values())
    if g > 1:
        for c in r:
            r[c] //= g


def _clear(r: dict, col, prow: dict):
    """Make ``r[col]`` zero in place: r becomes ``a r - b prow`` for the
    least a > 0 (the pivot entry ``prow[col]`` is positive).  Only a > 1
    can grow the entries, and then r is divided by their gcd."""
    g = gcd(prow[col], r[col])
    a, b = prow[col] // g, r[col] // g
    if a > 1:
        for c in r:
            r[c] *= a
    for c, y in prow.items():
        x = r.get(c, 0) - b * y
        if x:
            r[c] = x
        else:
            del r[c]
    if a > 1:
        _divide_content(r)


def exact_rank(rows) -> int:
    """Exact rank of a matrix with integer or Fraction entries.  A row is a
    sparse mapping ``{column: entry}`` or a dense sequence.

    Sparse fraction-free Gauss-Jordan elimination over the integers, one
    row at a time, sparsest rows first.  The pivot rows found so far hold
    no pivot column but their own, so a new row is reduced by one step per
    pivot column it holds; if anything is left, it becomes a pivot row and
    its pivot column is cleared from the rows that hold it."""
    pivots = {}  # pivot column -> its row, with a positive pivot entry
    holders = {}  # any other column -> the pivot columns whose rows hold it
    for r in sorted(map(_integer_row, rows), key=len):
        for col in [c for c in r if c in pivots]:
            _clear(r, col, pivots[col])
        if not r:
            continue
        # the column that the fewest pivot rows hold, then the least entry
        p = min(r, key=lambda c: (len(holders.get(c, ())), abs(r[c])))
        if r[p] < 0:
            for c in r:
                r[c] = -r[c]
        for q in holders.pop(p, ()):
            qrow = pivots[q]
            before = set(qrow)
            _clear(qrow, p, r)
            for c in qrow.keys() - before:
                holders.setdefault(c, set()).add(q)
            for c in before - qrow.keys() - {p}:
                holders[c].discard(q)
        pivots[p] = r
        for c in r:
            if c != p:
                holders.setdefault(c, set()).add(p)
    return len(pivots)


def rank_of(elements, degree: int) -> int:
    """Exact rank of a set of homogeneous degree-n elements written in the
    composition basis."""
    comps = set(compositions_of(degree))
    rows = list(elements)
    stray = next((key for el in rows for key in el.keys() if key not in comps), None)
    if stray is not None:
        raise ValueError(f"element not homogeneous of degree {degree}: {stray}")
    return exact_rank(rows)


def _gram_rank(pairing, keys) -> int:
    """Rank of the Gram matrix of ``pairing`` with rows ``keys``."""
    return exact_rank([pairing.row(k) for k in keys])


# ------------------------------------------------------------------- cases

def _keys(basis, d):
    """Cases (key, element) for the keys of ``basis(n)``, n <= d, in order."""
    for n in range(d + 1):
        for key in basis(n):
            yield key, LinComb.single(key)


def _pairs(basis, d):
    """Cases (k1, k2, n): the ``_key_pairs`` of each total degree n <= d."""
    for n in range(d + 1):
        for k1, k2 in _key_pairs(basis, n):
            yield k1, k2, n


def _triples(alg, d):
    """Cases (kx, ky, kz, xy): basis keys of degrees i, j, n - i - j for
    n <= d, in order of n, i, j, kx, ky, kz, with xy the product of kx, ky:
    in a free algebra their key product, else their product from the
    table."""
    key_product = alg.key_product
    for n in range(d + 1):
        for i in range(n + 1):
            for j in range(n - i + 1):
                for kx in alg.basis(i):
                    for ky in alg.basis(j):
                        xy = alg._prod_memo[kx, ky] if key_product is None else key_product(kx, ky)
                        for kz in alg.basis(n - i - j):
                            yield kx, ky, kz, xy


def _times_key(alg, a, key):
    """The product ``a key`` of an element and a basis key."""
    pk = alg._prod_memo
    return a.apply_linear(lambda k: pk[k, key])


def _key_times(alg, key, a):
    """The product ``key a`` of a basis key and an element."""
    pk = alg._prod_memo
    return a.apply_linear(lambda k: pk[key, k])


def _divided_powers(alg, seq, k):
    """Delta seq(k) = sum of seq(i) (x) seq(k - i): seq is a sequence of
    divided powers through k."""
    cop = seq(k).apply_linear(alg._ck)
    return cop == LinComb.tensor_sum((1, seq(i), seq(k - i)) for i in range(k + 1))


def _symmetric(t):
    return swap_tensor(t) == t


# ------------------------------------------------------------- suite: axioms

_ALGEBRAS = (KT, HK, KP, HF, SYM, QSYM, NSYM)
_COMMUTATIVE = {"ck", "sym", "qsym"}
_COCOMMUTATIVE = {"kt", "sym", "nsym"}


def _coassoc_sides(alg, key):
    """(Delta (x) id) Delta and (id (x) Delta) Delta of a key: the sums of
    c d (a (x) b (x) z) over the terms c (y (x) z) of its coproduct and
    d (a (x) b) of Delta y, and of c d (y (x) a (x) b) over those of
    Delta z, both in one loop over the coproduct table."""
    ck = alg._cop_memo
    lhs, rhs = {}, {}
    lhs_get, rhs_get = lhs.get, rhs.get
    fractions = False
    for (y, z), c in ck[key].items():
        if type(c) is Fraction:
            fractions = True
        for (a, b), d in ck[y].items():
            d *= c
            k = a, b, z
            cur = lhs_get(k)
            if cur is None:
                lhs[k] = d
            else:
                cur += d
                if cur:
                    lhs[k] = cur
                else:
                    del lhs[k]
        for (a, b), d in ck[z].items():
            d *= c
            k = y, a, b
            cur = rhs_get(k)
            if cur is None:
                rhs[k] = d
            else:
                cur += d
                if cur:
                    rhs[k] = cur
                else:
                    del rhs[k]
    if fractions:
        _whole(lhs), _whole(rhs)
    return LinComb.trusted(lhs), LinComb.trusted(rhs)


def _coassoc_ok(alg, key):
    lhs, rhs = _coassoc_sides(alg, key)
    return lhs == rhs


def _counit_ok(alg, key, x):
    cop = alg._cop_memo[key]
    unit = alg.unit_key()
    left = cop.filter_keys(lambda pair: pair[0] == unit).map_keys(lambda pair: pair[1])
    right = cop.filter_keys(lambda pair: pair[1] == unit).map_keys(lambda pair: pair[0])
    return left == x and right == x


def _convolutions(alg, key):
    """m (S (x) id) Delta and m (id (x) S) Delta of a key: the sums of
    c s (u z) over the terms c (y (x) z) of its coproduct and s u of S(y),
    and of c s (y u) over those of S(z), each in one pass.  In a free
    algebra both sides sum c s at the key product in one loop over the
    coproduct and antipode tables; where the identity holds each side is
    at most one term, so making their whole coefficients ``int``s costs
    one pass over at most one term."""
    S, key_product = alg._antipode_memo, alg.key_product
    cop = alg._cop_memo[key].items()
    if key_product is None:
        pk = alg._prod_memo
        left = LinComb.scaled_sum((c * s, pk[u, z].items())
                                  for (y, z), c in cop for u, s in S[y].items())
        right = LinComb.scaled_sum((c * s, pk[y, u].items())
                                   for (y, z), c in cop for u, s in S[z].items())
        return left, right
    left, right = {}, {}
    left_get, right_get = left.get, right.get
    for (y, z), c in cop:
        for u, s in S[y].items():
            s *= c
            k = key_product(u, z)
            cur = left_get(k)
            if cur is None:
                left[k] = s
            else:
                cur += s
                if cur:
                    left[k] = cur
                else:
                    del left[k]
        for u, s in S[z].items():
            s *= c
            k = key_product(y, u)
            cur = right_get(k)
            if cur is None:
                right[k] = s
            else:
                cur += s
                if cur:
                    right[k] = cur
                else:
                    del right[k]
    return LinComb.trusted(_whole(left)), LinComb.trusted(_whole(right))


def _antipode_convolution_ok(alg, key, x):
    left, right = _convolutions(alg, key)
    target = alg.counit(x) * alg.one()
    return left == target and right == target


def _grading_cases(alg, d):
    """Cases (n, degrees, parts): for each total degree n <= d, the degrees
    of the terms of the product of each basis pair (in a free algebra, of
    their key product), then of the coproduct of each basis key; ``parts``
    holds the keys involved."""
    key_product, ck = alg.key_product, alg._cop_memo
    for n in range(d + 1):
        for kx, ky in _key_pairs(alg.basis, n):
            keys = alg._prod_memo[kx, ky] if key_product is None else (key_product(kx, ky),)
            yield n, [alg.degree(k) for k in keys], (kx, ky)
        for key in alg.basis(n):
            yield n, [alg.degree(k1) + alg.degree(k2) for k1, k2 in ck[key]], (key,)


def _axioms(alg, d):
    """The Hopf algebra axioms of one algebra on its basis through degree d.
    In a free algebra the rows on products compare key products: it has no
    product table."""
    key_product, ck, text = alg.key_product, alg._cop_memo, alg.key_str
    unit = alg.unit_key()
    key_text = lambda key, x: text(key)
    pair_text = lambda kx, ky, n: f"{text(kx)} , {text(ky)}"
    keys = lambda: _keys(alg.basis, d)
    if key_product is None:
        pk = alg._prod_memo
        associative = lambda kx, ky, kz, xy: (_times_key(alg, xy, kz)
                                              == _key_times(alg, kx, pk[ky, kz]))
        unit_laws = lambda key, x: pk[unit, key] == x == pk[key, unit]
        coproduct_of_product = lambda kx, ky: pk[kx, ky].apply_linear(ck.__getitem__)
        commutes = lambda kx, ky, n: pk[kx, ky] == pk[ky, kx]
    else:
        associative = lambda kx, ky, kz, xy: (key_product(xy, kz)
                                              == key_product(kx, key_product(ky, kz)))
        unit_laws = lambda key, x: key_product(unit, key) == key == key_product(key, unit)
        coproduct_of_product = lambda kx, ky: ck[key_product(kx, ky)]
        commutes = lambda kx, ky, n: key_product(kx, ky) == key_product(ky, kx)
    rows = [
        ("product is associative", _triples(alg, d), associative,
         lambda kx, ky, kz, xy: f"{text(kx)} , {text(ky)} , {text(kz)}"),
        ("unit laws", keys(), unit_laws, key_text),
        ("coproduct is coassociative", keys(), lambda key, x: _coassoc_ok(alg, key),
         key_text),
        ("counit laws", keys(), lambda key, x: _counit_ok(alg, key, x), key_text),
        ("coproduct is an algebra morphism", _pairs(alg.basis, d),
         lambda kx, ky, n: coproduct_of_product(kx, ky) == tensor_mult(alg, ck[kx], ck[ky]),
         pair_text),
        ("antipode convolution identity", keys(),
         lambda key, x: _antipode_convolution_ok(alg, key, x), key_text),
        ("operations respect the grading", _grading_cases(alg, d),
         lambda n, degrees, parts: all(m == n for m in degrees),
         lambda n, degrees, parts: " , ".join(map(text, parts))),
    ]
    if alg.name in _COMMUTATIVE:
        rows.append(("product is commutative", _pairs(alg.basis, d), commutes, pair_text))
    if alg.name in _COCOMMUTATIVE:
        rows.append(("coproduct is cocommutative", keys(),
                     lambda key, x: _symmetric(ck[key]), key_text))
    return [
        _check(f"{alg.name}: {identity}", f"degree <= {d}", *row)
        for identity, *row in rows
    ]


def _noncommuting(alg, k1, k2):
    product = alg._pk if alg.key_product is None else alg.key_product
    return product(k1, k2) != product(k2, k1)


def _noncocommuting(alg, key):
    return not _symmetric(alg._ck(key))


def _witnesses():
    """Cases (holds, text): fixed elements that do not (co)commute."""
    rt, pt = rooted_from_string, planar_from_string
    hf1, hf2 = (OrderedForest((planar_ladder(i),)) for i in (1, 2))
    yield _noncommuting(KT, rt("[[]]"), rt("[[][]]")), "kt commuted"
    yield _noncommuting(KP, pt("[[]]"), pt("[[][]]")), "kp commuted"
    yield _noncommuting(HF, hf1, hf2), "hf commuted"
    yield _noncommuting(NSYM, (1,), (2,)), "nsym commuted"
    yield _noncocommuting(HK, Forest((rt("[[][]]"),))), "ck cocommuted"
    yield _noncocommuting(QSYM, (2, 1)), "qsym cocommuted"
    yield _noncocommuting(KP, pt("[[][[]]]")), "kp cocommuted"
    yield _noncocommuting(HF, OrderedForest((pt("[[][[]]]"),))), "hf cocommuted"


def _antipode_signs_e(i):
    return e(i).apply_linear(SYM.antipode_key) == (-1) ** i * h(i)


def _suite_hopf_axioms(d: int) -> list[IdentityResult]:
    results = [result for alg in _ALGEBRAS for result in _axioms(alg, d)]
    results.append(_check(
        "noncommutativity and noncocommutativity witnesses",
        "fixed low-degree elements",
        _witnesses(), lambda ok, text: ok, lambda ok, text: text,
    ))
    results.append(_each(
        "sym: antipode sends elementary to signed complete", "i <= 8", "i", range(9),
        _antipode_signs_e,
    ))
    return results


# --------------------------------------------------------------- suite: ideh

def _alternating_sum(n):
    pieces = ((-1) ** (n - i) * SYM._times(e(i), h(n - i)) for i in range(n + 1))
    return sum(pieces, LinComb.zero())


def _primitive(alg, x):
    one = alg.one()
    return x.apply_linear(alg._ck) == LinComb.tensor_sum(((1, x, one), (1, one, x)))


def _suite_ideh(d: int) -> list[IdentityResult]:
    degree = f"degree <= {d}"
    return [
        _check("alternating elementary/complete convolution vanishes", degree,
               ((n, _alternating_sum(n)) for n in range(1, d + 1)),
               lambda n, acc: acc == LinComb.zero(),
               lambda n, acc: f"degree {n}: {SYM.format(acc)}"),
        _each("antipode sends e_i to (-1)^i h_i", f"i <= {d}", "i", range(d + 1),
              _antipode_signs_e),
        _each("complete function is the sum of all compositions", degree, "k",
              range(d + 1),
              lambda k: include_sym(h(k)) == LinComb((c, 1) for c in compositions_of(k))),
        _each("power sums are primitive", degree, "k", range(1, d + 1),
              lambda k: _primitive(SYM, p(k))),
        _each("elementary functions are divided powers", degree, "k", range(d + 1),
              lambda k: _divided_powers(SYM, e, k)),
    ]


# ------------------------------------------------------------ suite: hexagon

def _spot_pairs(dom, rng):
    """Seeded cases shaped like ``_pairs``: _SPOT_COUNT random basis key
    pairs for each split of _SPOT_DEGREE."""
    for i in range(_SPOT_DEGREE + 1):
        lows = dom.basis(i)
        highs = dom.basis(_SPOT_DEGREE - i)
        if not lows or not highs:
            continue
        for _ in range(_SPOT_COUNT):
            k1 = rng.choice(lows)
            k2 = rng.choice(highs)
            yield k1, k2, _SPOT_DEGREE


def _spot_keys(dom, rng):
    """Seeded cases shaped like ``_keys``: basis keys of _SPOT_DEGREE."""
    keys = dom.basis(_SPOT_DEGREE)
    for key in rng.sample(keys, min(_SPOT_COUNT, len(keys))):
        yield key, LinComb.single(key)


def _unit_counit_cases(dom, cod, fn, d):
    """Cases (lhs, rhs, key): the image of the unit, then the counit of the
    image of each basis key of degree <= d."""
    yield fn(dom.one()), cod.one(), None
    for key, x in _keys(dom.basis, d):
        yield cod.counit(fn(x)), dom.counit(x), key


def _morphism_checks(name, dom, cod, fn, d, rng):
    """fn: dom -> cod is a Hopf morphism, exhaustively through degree 4,
    plus seeded spot checks at _SPOT_DEGREE once d reaches it."""
    exhaustive = min(4, d)
    spotted = f"degree <= {exhaustive} exhaustive, degree-{_SPOT_DEGREE} spot checks"
    pairs = _pairs(dom.basis, exhaustive)
    keys = _keys(dom.basis, exhaustive)
    if d >= _SPOT_DEGREE:
        pairs = chain(pairs, _spot_pairs(dom, rng))
        keys = chain(keys, _spot_keys(dom, rng))

    fk = _Table(lambda key: fn(LinComb.single(key))).__getitem__
    return [
        _check(f"{name} is multiplicative", spotted, pairs,
               lambda kx, ky, n: fn(dom._pk(kx, ky)) == cod._times(fk(kx), fk(ky)),
               lambda kx, ky, n: f"{dom.key_str(kx)} , {dom.key_str(ky)}"),
        _check(f"{name} is comultiplicative", spotted, keys,
               lambda key, x: fn(x).apply_linear(cod._ck) == tensor_map(dom._ck(key), fk, fk),
               lambda key, x: dom.key_str(key)),
        _check(f"{name} preserves unit and counit", f"degree <= {exhaustive}",
               _unit_counit_cases(dom, cod, fn, exhaustive),
               lambda lhs, rhs, key: lhs == rhs,
               lambda lhs, rhs, key: "unit image" if key is None else dom.key_str(key)),
    ]


def _z_cases(d):
    """Cases (comp, E_comp, ``_z_scale(comp)``) for each composition of
    degree <= d: a row on Z(E_comp) compares both sides times the scale,
    which reads Z from its integer table (``_z_times``)."""
    for comp, x in _keys(compositions_of, d):
        yield comp, x, _z_scale(comp)


def _z_times(x, scale):
    """scale Z(x), from the integer table ``_Z_MEMO``: each key's product
    of corollas times scale over the key's own ``_z_scale``, a whole
    factor in every row here, so the sum stays in ``int``s."""
    def image(comp):
        own = _z_scale(comp)
        return _Z_MEMO[comp] * (scale // own if scale % own == 0 else Fraction(scale, own))

    return x.apply_linear(image)


def _suite_hexagon(d: int) -> list[IdentityResult]:
    degree = f"degree <= {d}"
    Phi, Phistar, rhostar = (MAP_TABLE[m][2] for m in ("Phi", "Phistar", "rhostar"))
    lower = _Table(lambda t: Phistar(rhostar(LinComb.single(t)))).__getitem__
    word_text = lambda comp, *_: NSYM.key_str(comp)
    rows = [
        ("upper diamond: forgetting order after ladder insertion matches "
         "ladders of the abelianization", _keys(compositions_of, d),
         lambda comp, x: rho(Phi(x)) == phi(tau(x)), word_text),
        ("left triangle: ladder-shape projection of the tree image is the "
         "abelianization", _z_cases(d),
         lambda comp, x, scale: phi_star(_z_times(x, scale)) == tau(x) * scale, word_text),
        ("right triangle: forest image collapses to the symmetrization",
         _keys(partitions_of, d),
         lambda lam, x: Z_star(phi(x)) == include_sym(x), lambda lam, x: SYM.key_str(lam)),
        ("lower diamond: planar-fiber then ladder projection matches "
         "symmetrized ladder projection", _keys(KT.basis, d),
         lambda t, x: lower(t) == include_sym(phi_star(x)),
         lambda t, x: t.encoding),
        ("full circuit: both long ways from divided powers to compositions agree",
         _z_cases(d),
         lambda comp, x, scale: Z_star(rho(Phi(x))) * scale
         == _z_times(x, scale).apply_linear(lower), word_text),
    ]
    results = [_check(identity, degree, *row) for identity, *row in rows]

    # the nine maps (plus the poset realization) are Hopf morphisms
    rng = random.Random(_SPOT_SEED)
    for mname, (dom, cod, fn) in MAP_TABLE.items():
        results += _morphism_checks(mname, dom, cod, fn, d, rng)
    return results


# ---------------------------------------------------------- suite: dualities

def _once(check, *args):
    """The one case ``(check(*args),)``, computed when ``_check`` asks for
    it, so that a ValueError it raises fails the identity."""
    yield (check(*args),)


def _found(identity, range_tested, finder, *args):
    """Result of an identity checked by one call: ``finder(*args)`` is its
    first counterexample as text, or None."""
    return _check(identity, range_tested, _once(finder, *args),
                  lambda failure: failure is None, str)


def _gram_cases(d):
    """Cases (label, n, rank, rows, columns) of each Gram matrix, n <= d + 1."""
    grid = [
        ("grafting inner product", ip_kt, KT, KT),
        ("forest inner product", ip_ck, HK, HK),
        ("planar grafting inner product", ip_kp, KP, KP),
        ("ordered forest inner product", ip_hf, HF, HF),
        ("symmetric inner product", ip_sym, SYM, SYM),
        ("divided power/composition pairing", pair_ns_qs, NSYM, QSYM),
        ("grafting/forest pairing", pair_kt_ck, KT, HK),
        ("planar/ordered-forest pairing", pair_kp_hf, KP, HF),
    ]
    for label, pairing, A, B in grid:
        for n in range(d + 2):
            ka = A.basis(n)
            kb = B.basis(n)
            yield label, n, _gram_rank(pairing, ka), len(ka), len(kb)


def _adjoint_failure(blocks, u_str, v_str):
    """The first basis keys (u, v) at which <f(u), v> differs from
    <u, g(v)>, as text ``u , v``, or None.  Each block (us, vs, f, g,
    f_pairing, g_pairing) is checked in turn, by u, then by v.  Per u it
    compares two sparse rows over the keys v: the row of f(u) under
    ``f_pairing``, and u's row under ``g_pairing`` through the transpose of
    g on vs (Grinberg-Reiner, Hopf Algebras in Combinatorics, 1.6)."""
    for us, vs, f, g, f_pairing, g_pairing in blocks:
        pos = {v: j for j, v in enumerate(vs)}
        g_index = _transpose((v, g(LinComb.single(v))) for v in vs)
        for u in us:
            f_row = f(LinComb.single(u)).apply_linear(f_pairing.row)
            j = _first_mismatch(f_row, _through(g_index, g_pairing.row(u)), pos)
            if j is not None:
                return f"{u_str(u)} , {v_str(vs[j])}"
    return None


def _z_adjoint_blocks(d):
    """Z against Zstar: compositions u and forests v of each degree n <= d."""
    for n in range(d + 1):
        yield compositions_of(n), forests_of_degree(n), Z, Z_star, pair_kt_ck, pair_ns_qs


def _alpha_blocks(d):
    """The duals of alpha_plus and alpha_minus against them: u, v of degrees
    n, n - 1 for alpha_plus, then n - 1, n for alpha_minus, for 1 <= n <= d."""
    for n in range(1, d + 1):
        for dual, op, i, j in (
            (alpha_plus_dual, alpha_plus, n, n - 1),
            (alpha_minus_dual, alpha_minus, n - 1, n),
        ):
            yield compositions_of(i), compositions_of(j), dual, op, pair_ns_qs, pair_ns_qs


def _e_str(mu):
    """e_mu, written as SYM writes m_mu: ``e(2,1)``, and 1 for the empty
    partition."""
    return SYM.key_str(mu).replace("m", "e")


def _delta_failure(d):
    """The first (n, lam, (mu, nu)) with |mu| + |nu| = |lam| = n <= d + 1
    at which <e_mu e_nu, m_lam> is not the delta of lam and the parts of mu
    and nu, as text, or None.  The row of each e_mu e_nu is compared with
    its one-term delta; the first failure, by lam and then by (mu, nu), is
    the least (lam, (mu, nu)) among the pairs' first mismatches."""
    for n in range(d + 2):
        lams = partitions_of(n)
        pos = {lam: j for j, lam in enumerate(lams)}
        first = None  # (position of lam, mu, nu)
        for mu, nu in _key_pairs(SYM.basis, n):
            row = SYM._times(e_to_m_row(mu), e_to_m_row(nu)).apply_linear(ip_sym.row)
            delta = LinComb.single(tuple(sorted(mu + nu, reverse=True)))
            j = _first_mismatch(row, delta, pos)
            if j is not None and (first is None or j < first[0]):
                first = j, mu, nu
        if first is not None:
            j, mu, nu = first
            return f"{_e_str(mu)}*{_e_str(nu)} vs {SYM.key_str(lams[j])}"
    return None


def _suite_dualities(d: int) -> list[IdentityResult]:
    degree = f"degree <= {d}"
    instances = [
        ("compositions against divided powers", QSYM, ip_qs, NSYM, ip_ns, lambda a: a),
        ("forests against grafting", HK, ip_ck, KT, ip_kt, forest_b_plus),
        ("ordered forests against planar grafting", HF, ip_hf, KP, ip_kp, forest_b_plus),
        ("symmetric functions against themselves", SYM, ip_sym, SYM, ip_sym, lambda a: a),
    ]
    results = [
        _check(f"duality criterion: {label}", degree,
               _once(check_duality_criterion, *instance, d), lambda report: report.ok, str)
        for label, *instance in instances
    ] + [
        _found(f"Hopf pairing compatibility: {label}", degree,
               check_pairing_compatibility, A, B, pairing, d)
        for label, A, B, pairing in (
            ("divided powers with compositions", NSYM, QSYM, pair_ns_qs),
            ("grafting with forests", KT, HK, pair_kt_ck),
        )
    ]
    return results + [
        _check("Gram matrices are nondegenerate", f"degree <= {d + 1}", _gram_cases(d),
               lambda label, n, rank, na, nb: rank == na == nb,
               lambda label, n, rank, *_: f"{label} at degree {n}: rank {rank}"),
        _found("tree embedding is adjoint to the composition quotient", degree,
               _adjoint_failure, _z_adjoint_blocks(d), NSYM.key_str, HK.key_str),
        _found("append/strip operators are mutually adjoint", degree,
               _adjoint_failure, _alpha_blocks(d), NSYM.key_str, QSYM.key_str),
        _found("split elementary products hit monomials as deltas", f"degree <= {d + 1}",
               _delta_failure, d),
    ]


# --------------------------------------------------- suite: divided powers

def _factorial_multiples(seq, d):
    """[n! seq(n) for n <= d], whole coefficients as ``int``s: n! kappa(n)
    is an integer sum, since sym(t) divides n! for a tree of n + 1
    vertices, whose automorphisms fix the root and permute the rest."""
    return [seq(n) * Fraction(factorial(n)) for n in range(d + 1)]


def _suite_divided_powers(d: int) -> list[IdentityResult]:
    def chain_forest(kind):
        """The forest of one i-vertex chain (empty for i = 0), as an element."""
        return lambda i: LinComb.single(ladder_forest((i,) if i else (), kind))

    # n! kappa(n) and n! epsilon(n), in ints: the rows on them compare both
    # sides times n!
    kappas, epsilons = _factorial_multiples(kappa, d), _factorial_multiples(epsilon, d)
    rows = [
        ("symmetry-weighted tree sums are divided powers", "n",
         lambda n: kappas[n].apply_linear(KT._ck)
         == LinComb.tensor_sum((comb(n, i), kappas[i], kappas[n - i]) for i in range(n + 1))),
        ("alternating tree elements are divided powers", "n",
         lambda n: _divided_powers(KT, epsilon, n)),
        ("alternating elements are the signed antipode images", "n",
         lambda n: epsilons[n] == (-1) ** n * kappas[n].apply_linear(KT.antipode_key)),
        # epsilon returns the corolla over n!: that it is the alternating
        # convolution inverse of kappa, which defines epsilon, proves the row
        # by induction on n
        ("factorial multiple is the star tree", "n",
         lambda n: sum(((-1) ** i * comb(n, i) * KT._times(kappas[i], epsilons[n - i])
                        for i in range(n + 1)), LinComb.zero())
         == (KT.one() if n == 0 else LinComb.zero())),
        ("ladder projection of the weighted sum is complete", "n",
         lambda n: phi_star(kappas[n]) == h(n) * factorial(n)),
        ("ladder projection of the alternating element is elementary", "n",
         lambda n: phi_star(epsilons[n]) == e(n) * factorial(n)),
        ("chains are divided powers among ordered forests", "i",
         lambda i: _divided_powers(HF, chain_forest(OrderedForest), i)),
        ("chains are divided powers among forests", "i",
         lambda i: _divided_powers(HK, chain_forest(Forest), i)),
    ]
    return [
        _each(identity, f"{var} <= {d}", var, range(d + 1), holds)
        for identity, var, holds in rows
    ]


# ------------------------------------------------ suite: zstar intertwining

def _suite_zstar_intertwine(d: int) -> list[IdentityResult]:
    forests, words = f"degree <= {d}", f"degree <= {d - 1}"
    forest_text = lambda f, x: HK.key_str(f)
    word_text = lambda comp, *_: NSYM.key_str(comp)
    eps1 = epsilon(1)
    rows = [
        ("rooting a forest appends a part one", forests, _keys(forests_of_degree, d),
         lambda f, x: Z_star(ck_b_plus(x)) == alpha_plus(Z_star(x)), forest_text),
        ("root removal strips a part one", forests, _keys(forests_of_degree, d),
         lambda f, x: Z_star(ck_b_minus(x)) == alpha_minus(Z_star(x)), forest_text),
        ("poset labeling realization agrees with the recursion", forests,
         _keys(forests_of_degree, d), lambda f, x: kbar(x) == Z_star(x), forest_text),
        ("dual append matches root stripping after the single-child projection",
         words, _z_cases(d - 1),
         lambda comp, u, scale: _z_times(alpha_plus_dual(u), scale)
         == strip_primitive_root(_z_times(u, scale)), word_text),
        ("dual strip matches right multiplication by the chain of two",
         words, _z_cases(d - 1),
         lambda comp, u, scale: _z_times(alpha_minus_dual(u), scale)
         == KT._times(_z_times(u, scale), eps1), word_text),
    ]
    return [_check(*row) for row in rows]


# ------------------------------------------------ suite: zstar surjectivity

def _level_forest(comp) -> Forest:
    """The level forest of a composition (a1, ..., ak): its deepest level
    has a1 vertices, its roots number ak, and each level hangs from the
    first vertex of the level above."""
    level = [LEAF] * comp[0]
    for a in comp[1:]:
        level = [RootedTree(level)] + [LEAF] * (a - 1)
    return Forest(level)


def _lead(image):
    """The leading composition of an image: the greatest under reverse
    lexicographic order, which compares last parts first."""
    return max(c[::-1] for c in image)[::-1]


def _triangular(n: int) -> bool:
    """Whether the images of the level forests of degree n certify rank
    composition_count(n): each lies in degree n, and their leads are every
    composition once.  Ordered by lead, their rows are then triangular with
    a nonzero diagonal.  (A last fiber holds roots only, and one of all ak
    roots leaves the level forest of (a1, ..., ak-1), so a level forest
    leads with its own composition; this function does not assume it.)"""
    comps = set(compositions_of(n))
    leads = set()
    for comp in compositions_of(n):
        image = Z_star(LinComb.single(_level_forest(comp)))
        if not image or not comps.issuperset(image.keys()):
            return False
        leads.add(_lead(image))
    return len(leads) == len(comps)


def _zstar_rank(n: int) -> int:
    """Rank of the images under Z_star of the forests of degree n: the
    certificate's when it holds, else elimination over every image."""
    if _triangular(n):
        return composition_count(n)
    return rank_of([Z_star(LinComb.single(f)) for f in forests_of_degree(n)], n)


def _suite_zstar_surjectivity(d: int) -> list[IdentityResult]:
    return [_check(
        "forest images span every composition", f"1 <= degree <= {d}",
        ((n, _zstar_rank(n)) for n in range(1, d + 1)),
        lambda n, r: r == composition_count(n), lambda n, r: f"degree {n}: rank {r}",
    )]


# --------------------------------------------- suite: quasi-shuffle oracle

def _symmetry_error(xy):
    """Why ``xy``, a QSYM product of symmetrized elements, is not the
    symmetrization of a SYM element, or None if it is."""
    try:
        collect_sym(xy)
    except ValueError as exc:
        return str(exc)
    return None


@memo
def _packed(comp, nvars: int, base: int) -> LinComb:
    """The monomial expansion of M_comp in x_1..x_nvars, each exponent tuple
    e packed into the int sum of e[v] * base**v, so that multiplying two
    monomials adds two ints.  While its entries are below ``base``, they are
    the digits of that int in base ``base``, so packing is injective; the
    caller picks ``base`` above every exponent it packs or makes by adding.
    Every coefficient is 1, as in the expansion, and a composition with
    more than nvars parts expands to nothing."""
    packed = {}
    for expo in _monomial_expansion(comp, nvars):
        x = 0
        for part in reversed(expo):
            x = x * base + part
        packed[x] = 1
    return LinComb.trusted(packed)


def _polynomial_product_holds(ci, cj, n):
    """Whether M_ci M_cj is the product of the polynomials M_ci and M_cj, in
    N = len(ci) + len(cj) variables, on packed exponent tuples.  Every term
    of the true product has at most N parts, so a computed term with more
    fails first; in N variables the M_comp with at most N parts are then
    independent, and restricting to N variables is a ring homomorphism, so
    N variables decide the identity as n = |ci| + |cj| do.  The exponents
    are the parts of the product's terms, and sums of a part of ci and a
    part of cj (at most n): the base is above them all.  The monomials of
    an expansion have coefficient 1, so the product of two is the tally of
    their sums."""
    xy = QSYM._pk(ci, cj)
    nvars = len(ci) + len(cj)
    if any(len(comp) > nvars for comp in xy):
        return False
    base = max(chain((n,), *xy)) + 1
    left, right = _packed(ci, nvars, base), _packed(cj, nvars, base)
    return xy.apply_linear(lambda comp: _packed(comp, nvars, base)) == LinComb.tally(
        x + y for x in left for y in right
    )


def _suite_quasi_shuffle_oracle(d: int) -> list[IdentityResult]:
    degree = f"degree <= {d}"
    pk, s = QSYM._pk, LinComb.single
    # the QSYM product of the symmetrizations of each SYM key pair, made
    # once per run for the two rows that read it
    sym_times = _Table(lambda pair: QSYM._times(*(include_sym(s(lam)) for lam in pair)))
    rows = [
        ("product agrees with truncated polynomial multiplication",
         f"combined degree <= {d}", _pairs(QSYM.basis, d), _polynomial_product_holds,
         lambda ci, cj, n: f"{QSYM.key_str(ci)} * {QSYM.key_str(cj)}"),
        ("stripping a trailing one is a derivation", degree, _pairs(QSYM.basis, d),
         lambda ci, cj, n: alpha_minus(pk(ci, cj))
         == _times_key(QSYM, alpha_minus(s(ci)), cj)
         + _key_times(QSYM, ci, alpha_minus(s(cj))),
         lambda ci, cj, n: f"{QSYM.key_str(ci)} , {QSYM.key_str(cj)}"),
        ("products of symmetrized elements stay symmetric", degree, _pairs(SYM.basis, d),
         lambda mu, nu, n: _symmetry_error(sym_times[mu, nu]) is None,
         lambda mu, nu, n: f"{SYM.key_str(mu)} * {SYM.key_str(nu)}: "
         f"{_symmetry_error(sym_times[mu, nu])}"),
        ("symmetrization is multiplicative", degree, _pairs(SYM.basis, d),
         lambda mu, nu, n: include_sym(SYM._pk(mu, nu)) == sym_times[mu, nu],
         lambda mu, nu, n: f"{SYM.key_str(mu)} , {SYM.key_str(nu)}"),
    ]
    return [_check(*row) for row in rows]


# ---------------------------------------------- suite: enumeration counts

def _suite_enumeration_counts(d: int) -> list[IdentityResult]:
    vertices, ns = f"vertices <= {d}", range(1, d + 1)
    mismatch = "{n} vertices: {got} != {want}"
    rows = [
        ("unordered tree counts match the convolution recurrence", vertices, ns,
         (mismatch, lambda n: len(enumerate_rooted(n)), rooted_count)),
        ("unordered trees match the leaf-growth generator", vertices, ns,
         ("{n} vertices", lambda n: {t.encoding for t in enumerate_rooted(n)},
          _leaf_growth())),
        ("planar tree counts are Catalan", vertices, ns,
         (mismatch, lambda n: len(enumerate_planar(n)), lambda n: catalan(n - 1))),
        ("planar trees match the bracket-string generator", vertices, ns,
         ("{n} vertices", lambda n: {t.encoding for t in enumerate_planar(n)},
          _dyck_planar)),
        ("forest bases biject with trees one degree up", f"degree <= {d - 1}", range(d),
         ("degree {n}: {got} != {want}", lambda n: len(forests_of_degree(n)),
          lambda n: rooted_count(n + 1)),
         ("ordered degree {n}: {got} != {want}",
          lambda n: len(ordered_forests_of_degree(n)), catalan)),
        ("composition and partition counts match closed forms", f"n <= {d}", ns,
         ("compositions of {n}", lambda n: len(compositions_of(n)), composition_count),
         ("partitions of {n}", lambda n: len(partitions_of(n)), partition_count)),
        ("symmetry orders count labeled rooted trees", vertices, ns,
         (mismatch, lambda n: sum(factorial(n) // sym_order(t) for t in enumerate_rooted(n)),
          lambda n: n ** (n - 1))),
        ("planar embeddings partition the planar trees", vertices, ns,
         (mismatch, lambda n: sum(len(planar_fiber(t)) for t in enumerate_rooted(n)),
          lambda n: catalan(n - 1))),
    ]
    return [_counts(*row) for row in rows]


# ------------------------------------------------------------ registry

_SUITES = {
    "hopf-axioms": (5, 7, _suite_hopf_axioms),
    "hexagon": (6, 9, _suite_hexagon),
    "dualities": (5, 7, _suite_dualities),
    "divided-powers": (6, 8, _suite_divided_powers),
    "zstar-intertwine": (6, 8, _suite_zstar_intertwine),
    "zstar-surjectivity": (7, 10, _suite_zstar_surjectivity),
    "quasi-shuffle-oracle": (6, 9, _suite_quasi_shuffle_oracle),
    "enumeration-counts": (8, 11, _suite_enumeration_counts),
    "ideh": (8, 18, _suite_ideh),
}

SUITE_NAMES = tuple(_SUITES)


def _convolve(a, b):
    """The first len(a) terms of the Cauchy product of the sequences a, b."""
    return [sum(a[i] * b[s - i] for i in range(s + 1)) for s in range(len(a))]


# Rough elementary-check counts per suite, used in refusal messages, capped
# as every count in the package is (``hopf.COUNT_LIMIT``): each key count
# is an algebra's ``degree_terms``, and each sum stops at its first partial
# sum past the limit, so that no degree, however large, costs more than a
# few hundred steps.
_ESTIMATES = {
    # basis triples of total degree <= n in each of kt, kp, sym and qsym
    "hopf-axioms": lambda n: capped_sum(
        capped_sum(_convolve(c, _convolve(c, c)))
        for c in (capped_counts(map(alg.degree_terms, count()), n) for alg in (KT, KP, SYM, QSYM))
    ),
    "hexagon": lambda n: capped_sum(QSYM.degree_terms(m) * KP.degree_terms(m)
                                    for m in range(n + 1)),
    # hypotheses (b) and (c) on ordered forests, the largest of the four
    # duality criteria: two checks per (a1, a2, a3) of equal total degree
    "dualities": lambda n: capped_sum(2 * KP.degree_terms(m + 1) * KP.degree_terms(m)
                                      for m in range(n + 1)),
    "divided-powers": lambda n: capped_sum(KT.degree_terms(m) ** 2 for m in range(n + 1)),
    "zstar-intertwine": lambda n: capped_sum(KT.degree_terms(m) * QSYM.degree_terms(m)
                                             for m in range(n + 1)),
    # terms of Z_star over the level forests of degree n, the certificate:
    # C(2n - 1, n) of them, counted through degree 10
    "zstar-surjectivity": lambda n: capped_binomial(2 * n - 1, n),
    # monomial products of the polynomial row: a pair of lengths l1, l2
    # expands in N = l1 + l2 variables to C(N, l1) and C(N, l2) monomials,
    # C(N, l1)^2 products; the pairs of combined degree m and N parts in
    # all are a composition of m into N parts and a split, and the sum of
    # C(N, l1)^2 over the splits is C(2N, N)
    "quasi-shuffle-oracle": lambda n: capped_sum(
        capped_sum(capped_binomial(m - 1, N - 1) * capped_binomial(2 * N, N)
                   for N in range(1, m + 1)) if m else 1
        for m in range(n + 1)),
    "enumeration-counts": lambda n: capped_sum((KT.degree_terms(n - 1) * n * n,
                                                KP.degree_terms(n - 1) * n)),
    "ideh": lambda n: capped_power(SYM.degree_terms(n), 3),
}


def run_suite(name: str, max_degree: int | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite: {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    default, cap, runner = _SUITES[name]
    d = default if max_degree is None else max_degree
    if d < 0:
        raise ValueError("max_degree must be nonnegative")
    if d > cap:
        raise SuiteBoundError(
            f"suite {name} at max_degree {d} would need "
            f"{count_text(_ESTIMATES[name](d), 'roughly')} "
            f"elementary checks with exact arithmetic; the cap is {cap}. "
            f"Rerun with --max-degree {cap} or lower."
        )
    return SuiteReport(name, d, runner(d))


def run_all(max_degree: int | None = None) -> list[SuiteReport]:
    """Run every suite, at its own default bound unless one is given."""
    return [run_suite(name, max_degree) for name in SUITE_NAMES]
