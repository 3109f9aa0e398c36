"""Identity verification suites.

Every algebraic claim the library makes is runnable: each suite below
checks a family of identities on homogeneous bases up to a configurable
degree and reports pass/fail per identity, with the first counterexample
when one exists.  Every check is exhaustive through the requested degree
but one: the hexagon suite checks that its maps are Hopf morphisms
exhaustively through degree 4, plus seeded degree-5 spot checks.
Reports are deterministic: fixed iteration order, and the only
randomness (those spot checks) uses a hard-coded seed.

A check walks basis keys, and reads the product and coproduct of keys
from the algebra memos (``alg._pk``, ``alg._ck``); a counterexample names
its keys with ``key_str``.

Suites refuse degree bounds past their caps with a case-count estimate
instead of silently grinding.  A cap is the degree past which a suite
refuses, not a measure of its speed: README's suite table gives each
suite's time at its default degree and at its cap.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, lcm
import random

from .foundations import LinComb, compositions_of, memo, partitions_of
from .trees import (
    Forest,
    LEAF,
    OrderedForest,
    RootedTree,
    enumerate_planar,
    enumerate_rooted,
    forests_of_degree,
    ladder_forest,
    ordered_forests_of_degree,
    planar_fiber,
    planar_from_string,
    planar_ladder,
    rooted_from_string,
    sym_order,
)
from .hopf import swap_tensor, tensor_map, tensor_mult
from .hopf_rooted import (
    HK,
    KT,
    ck_b_minus,
    ck_b_plus,
    corolla,
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
    alpha_minus,
    alpha_minus_dual,
    alpha_plus,
    alpha_plus_dual,
    collect_sym,
    e,
    e_to_m_row,
    expand_truncated,
    h,
    include_sym,
    p,
    polynomial_product,
)
from .morphisms import MAP_TABLE, Z, Z_star, kbar, phi, phi_star, rho, tau
from .pairings import (
    _key_pairs,
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


@dataclass
class IdentityResult:
    identity: str
    range_tested: str
    status: str  # "pass" or "fail"
    counterexample: str | None = None

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


@dataclass
class SuiteReport:
    suite: str
    max_degree: int
    results: list[IdentityResult] = field(default_factory=list)

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

@memo
def rooted_count(n: int) -> int:
    """Number of unordered rooted trees with n vertices, by the classical
    divisor-sum convolution (no enumeration)."""
    if n <= 1:
        return 1 if n == 1 else 0
    total = 0
    for k in range(1, n):
        s = sum(d * rooted_count(d) for d in range(1, k + 1) if k % d == 0)
        total += s * rooted_count(n - k)
    assert total % (n - 1) == 0
    return total // (n - 1)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@memo
def partition_count(n: int) -> int:
    if n < 0:
        return 0
    if n == 0:
        return 1
    # pentagonal-number recurrence
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def composition_count(n: int) -> int:
    return 2 ** (n - 1) if n >= 1 else 1


# ------------------------------------------------- independent generators

def _leaf_growth(n: int) -> set[str]:
    """Encodings of all rooted trees with n vertices, grown by attaching a
    new leaf at every vertex of every smaller tree.  Independent of the
    multiset-based enumerator."""
    trees = {LEAF.encoding: LEAF}
    for _ in range(n - 1):
        grown = {}
        for t in trees.values():
            for g in _attach_leaf(t):
                grown[g.encoding] = g
        trees = grown
    return set(trees)


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
    """A matrix row, a dict ``{column: entry}`` or a dense sequence, as a
    new dict of its nonzero entries with denominators cleared, divided by
    the gcd of its entries."""
    entries = row.items() if isinstance(row, dict) else enumerate(row)
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
    sparse dict ``{column: entry}`` or a dense sequence.

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
    rows = []
    for el in elements:
        for key in el.keys():
            if key not in comps:
                raise ValueError(f"element not homogeneous of degree {degree}: {key}")
        rows.append(dict(el.items()))
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
    n <= d, in order of n, i, j, kx, ky, kz, with xy the product of kx, ky."""
    for n in range(d + 1):
        for i in range(n + 1):
            for j in range(n - i + 1):
                for kx in alg.basis(i):
                    for ky in alg.basis(j):
                        xy = alg._pk(kx, ky)
                        for kz in alg.basis(n - i - j):
                            yield kx, ky, kz, xy


def _times_key(alg, a, key):
    """The product ``a key`` of an element and a basis key."""
    return a.apply_linear(lambda k: alg._pk(k, key))


def _key_times(alg, key, a):
    """The product ``key a`` of a basis key and an element."""
    return a.apply_linear(lambda k: alg._pk(key, k))


def _divided_powers(alg, seq, k):
    """Delta seq(k) = sum of seq(i) (x) seq(k - i): seq is a sequence of
    divided powers through k."""
    cop = alg.coproduct(seq(k))
    pieces = (LinComb.tensor(seq(i), seq(k - i)) for i in range(k + 1))
    return cop == sum(pieces, LinComb.zero())


def _symmetric(t):
    return swap_tensor(t) == t


# ------------------------------------------------------------- suite: axioms

_ALGEBRAS = (KT, HK, KP, HF, SYM, QSYM, NSYM)
_COMMUTATIVE = {"ck", "sym", "qsym"}
_COCOMMUTATIVE = {"kt", "sym", "nsym"}


def _coassoc_ok(alg, key):
    """Both ways of applying the coproduct twice to a key agree, as sums
    over key triples."""
    ck = alg._ck
    lhs = ck(key).apply_linear(lambda p: {(a, b, p[1]): c for (a, b), c in ck(p[0]).items()})
    rhs = ck(key).apply_linear(lambda p: {(p[0], a, b): c for (a, b), c in ck(p[1]).items()})
    return lhs == rhs


def _counit_ok(alg, key, x):
    cop = alg._ck(key)
    unit = alg.unit_key()
    left = cop.filter_keys(lambda pair: pair[0] == unit).map_keys(lambda pair: pair[1])
    right = cop.filter_keys(lambda pair: pair[1] == unit).map_keys(lambda pair: pair[0])
    return left == x and right == x


def _antipode_convolution_ok(alg, key, x):
    cop = alg._ck(key)
    left = cop.apply_linear(lambda pair: _times_key(alg, alg.antipode_key(pair[0]), pair[1]))
    right = cop.apply_linear(lambda pair: _key_times(alg, pair[0], alg.antipode_key(pair[1])))
    target = alg.counit(x) * alg.one()
    return left == target and right == target


def _grading_cases(alg, d):
    """Cases (n, degrees, parts): for each total degree n <= d, the degrees
    of the terms of the product of each basis pair, then of the coproduct
    of each basis key; ``parts`` holds the keys involved."""
    for n in range(d + 1):
        for kx, ky in _key_pairs(alg.basis, n):
            yield n, [alg.degree(k) for k in alg._pk(kx, ky)], (kx, ky)
        for key in alg.basis(n):
            cop = alg._ck(key)
            yield n, [alg.degree(k1) + alg.degree(k2) for k1, k2 in cop], (key,)


def _axioms(alg, d):
    """The Hopf algebra axioms of one algebra on its basis through degree d."""
    pk, ck, text = alg._pk, alg._ck, alg.key_str
    unit = alg.unit_key()
    key_text = lambda key, x: text(key)
    pair_text = lambda kx, ky, n: f"{text(kx)} , {text(ky)}"
    keys = lambda: _keys(alg.basis, d)
    rows = [
        ("product is associative", _triples(alg, d),
         lambda kx, ky, kz, xy: _times_key(alg, xy, kz) == _key_times(alg, kx, pk(ky, kz)),
         lambda kx, ky, kz, xy: f"{text(kx)} , {text(ky)} , {text(kz)}"),
        ("unit laws", keys(), lambda key, x: pk(unit, key) == x == pk(key, unit), key_text),
        ("coproduct is coassociative", keys(), lambda key, x: _coassoc_ok(alg, key),
         key_text),
        ("counit laws", keys(), lambda key, x: _counit_ok(alg, key, x), key_text),
        ("coproduct is an algebra morphism", _pairs(alg.basis, d),
         lambda kx, ky, n: alg.coproduct(pk(kx, ky)) == tensor_mult(alg, ck(kx), ck(ky)),
         pair_text),
        ("antipode convolution identity", keys(),
         lambda key, x: _antipode_convolution_ok(alg, key, x), key_text),
        ("operations respect the grading", _grading_cases(alg, d),
         lambda n, degrees, parts: all(m == n for m in degrees),
         lambda n, degrees, parts: " , ".join(map(text, parts))),
    ]
    if alg.name in _COMMUTATIVE:
        rows.append(("product is commutative", _pairs(alg.basis, d),
                     lambda kx, ky, n: pk(kx, ky) == pk(ky, kx), pair_text))
    if alg.name in _COCOMMUTATIVE:
        rows.append(("coproduct is cocommutative", keys(),
                     lambda key, x: _symmetric(alg._ck(key)), key_text))
    return [
        _check(f"{alg.name}: {identity}", f"degree <= {d}", *row)
        for identity, *row in rows
    ]


def _noncommuting(alg, k1, k2):
    return alg._pk(k1, k2) != alg._pk(k2, k1)


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
    return SYM.antipode(e(i)) == (-1) ** i * h(i)


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
    pieces = ((-1) ** (n - i) * SYM.product(e(i), h(n - i)) for i in range(n + 1))
    return sum(pieces, LinComb.zero())


def _primitive(alg, x):
    one = alg.one()
    return alg.coproduct(x) == LinComb.tensor(x, one) + LinComb.tensor(one, x)


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

    def fk(key):
        return fn(LinComb.single(key))

    return [
        _check(f"{name} is multiplicative", spotted, pairs,
               lambda kx, ky, n: fn(dom._pk(kx, ky)) == cod.product(fk(kx), fk(ky)),
               lambda kx, ky, n: f"{dom.key_str(kx)} , {dom.key_str(ky)}"),
        _check(f"{name} is comultiplicative", spotted, keys,
               lambda key, x: cod.coproduct(fn(x)) == tensor_map(dom._ck(key), fk, fk),
               lambda key, x: dom.key_str(key)),
        _check(f"{name} preserves unit and counit", f"degree <= {exhaustive}",
               _unit_counit_cases(dom, cod, fn, exhaustive),
               lambda lhs, rhs, key: lhs == rhs,
               lambda lhs, rhs, key: "unit image" if key is None else dom.key_str(key)),
    ]


def _suite_hexagon(d: int) -> list[IdentityResult]:
    degree = f"degree <= {d}"
    Phi, Phistar, rhostar = (MAP_TABLE[m][2] for m in ("Phi", "Phistar", "rhostar"))
    word_text = lambda comp, x: f"E{comp}"
    rows = [
        ("upper diamond: forgetting order after ladder insertion matches "
         "ladders of the abelianization", _keys(compositions_of, d),
         lambda comp, x: rho(Phi(x)) == phi(tau(x)), word_text),
        ("left triangle: ladder-shape projection of the tree image is the "
         "abelianization", _keys(compositions_of, d),
         lambda comp, x: phi_star(Z(x)) == tau(x), word_text),
        ("right triangle: forest image collapses to the symmetrization",
         _keys(partitions_of, d),
         lambda lam, x: Z_star(phi(x)) == include_sym(x), lambda lam, x: f"m{lam}"),
        ("lower diamond: planar-fiber then ladder projection matches "
         "symmetrized ladder projection", _keys(KT.basis, d),
         lambda t, x: Phistar(rhostar(x)) == include_sym(phi_star(x)),
         lambda t, x: t.encoding),
        ("full circuit: both long ways from divided powers to compositions agree",
         _keys(compositions_of, d),
         lambda comp, x: Z_star(rho(Phi(x))) == Phistar(rhostar(Z(x))), word_text),
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


def _z_adjoint_cases(d):
    """Cases (comp, u, <Z(u), f>, f, Zstar(f)) for forests f; Zstar(f) is
    computed once per f, and the pairings of Z(u) once per u."""
    for n in range(d + 1):
        forests = forests_of_degree(n)
        zf = [Z_star(LinComb.single(f)) for f in forests]
        for comp in compositions_of(n):
            u = LinComb.single(comp)
            zu = Z(u).apply_linear(pair_kt_ck.row)
            for f, zstar_f in zip(forests, zf):
                yield comp, u, zu[f], f, zstar_f


def _alpha_cases(d):
    """Cases (dual, op, cu, u, cv, v) with u, v of degrees n, n - 1 for
    alpha_plus, then n - 1, n for alpha_minus, for 1 <= n <= d."""
    for n in range(1, d + 1):
        for dual, op, i, j in (
            (alpha_plus_dual, alpha_plus, n, n - 1),
            (alpha_minus_dual, alpha_minus, n - 1, n),
        ):
            for cu in compositions_of(i):
                u = LinComb.single(cu)
                for cv in compositions_of(j):
                    yield dual, op, cu, u, cv, LinComb.single(cv)


def _delta_cases(d):
    """Cases (mu, nu, lam, <e_mu e_nu, m_lam>) with |mu| + |nu| = |lam| <= d + 1;
    the pairings of e_mu e_nu are computed once per (mu, nu)."""
    for n in range(d + 2):
        rows = {}
        for lam in partitions_of(n):
            for mu, nu in _key_pairs(SYM.basis, n):
                if (mu, nu) not in rows:
                    emunu = SYM.product(e_to_m_row(mu), e_to_m_row(nu))
                    rows[mu, nu] = emunu.apply_linear(ip_sym.row)
                yield mu, nu, lam, rows[mu, nu][lam]


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
        _check(f"Hopf pairing compatibility: {label}", degree,
               _once(check_pairing_compatibility, A, B, pairing, d),
               lambda failure: failure is None, str)
        for label, A, B, pairing in (
            ("divided powers with compositions", NSYM, QSYM, pair_ns_qs),
            ("grafting with forests", KT, HK, pair_kt_ck),
        )
    ]
    rows = [
        ("Gram matrices are nondegenerate", f"degree <= {d + 1}", _gram_cases(d),
         lambda label, n, rank, na, nb: rank == na == nb,
         lambda label, n, rank, *_: f"{label} at degree {n}: rank {rank}"),
        ("tree embedding is adjoint to the composition quotient", degree,
         _z_adjoint_cases(d),
         lambda comp, u, zu_f, f, zstar_f: zu_f == pair_ns_qs(u, zstar_f),
         lambda comp, u, zu_f, f, zstar_f: f"E{comp} , {HK.format(LinComb.single(f))}"),
        ("append/strip operators are mutually adjoint", degree, _alpha_cases(d),
         lambda dual, op, cu, u, cv, v: pair_ns_qs(dual(u), v) == pair_ns_qs(u, op(v)),
         lambda dual, op, cu, u, cv, v: f"E{cu} , M{cv}"),
        ("split elementary products hit monomials as deltas", f"degree <= {d + 1}",
         _delta_cases(d),
         lambda mu, nu, lam, value: value
         == (1 if tuple(sorted(mu + nu, reverse=True)) == lam else 0),
         lambda mu, nu, lam, *_: f"e{mu}*e{nu} vs m{lam}"),
    ]
    return results + [_check(*row) for row in rows]


# --------------------------------------------------- suite: divided powers

def _suite_divided_powers(d: int) -> list[IdentityResult]:
    def chain(kind):
        """The forest of one i-vertex chain (empty for i = 0), as an element."""
        return lambda i: LinComb.single(ladder_forest((i,) if i else (), kind))

    rows = [
        ("symmetry-weighted tree sums are divided powers", "n",
         lambda n: _divided_powers(KT, kappa, n)),
        ("alternating tree elements are divided powers", "n",
         lambda n: _divided_powers(KT, epsilon, n)),
        ("alternating elements are the signed antipode images", "n",
         lambda n: epsilon(n) == (-1) ** n * KT.antipode(kappa(n))),
        ("factorial multiple is the star tree", "n",
         lambda n: factorial(n) * epsilon(n) == LinComb.single(corolla(n))),
        ("ladder projection of the weighted sum is complete", "n",
         lambda n: phi_star(kappa(n)) == h(n)),
        ("ladder projection of the alternating element is elementary", "n",
         lambda n: phi_star(epsilon(n)) == e(n)),
        ("chains are divided powers among ordered forests", "i",
         lambda i: _divided_powers(HF, chain(OrderedForest), i)),
        ("chains are divided powers among forests", "i",
         lambda i: _divided_powers(HK, chain(Forest), i)),
    ]
    return [
        _each(identity, f"{var} <= {d}", var, range(d + 1), holds)
        for identity, var, holds in rows
    ]


# ------------------------------------------------ suite: zstar intertwining

def _suite_zstar_intertwine(d: int) -> list[IdentityResult]:
    forests, words = f"degree <= {d}", f"degree <= {d - 1}"
    forest_text = lambda f, x: HK.key_str(f)
    word_text = lambda comp, u: f"E{comp}"
    eps1 = epsilon(1)
    rows = [
        ("rooting a forest appends a part one", forests, _keys(forests_of_degree, d),
         lambda f, x: Z_star(ck_b_plus(x)) == alpha_plus(Z_star(x)), forest_text),
        ("root removal strips a part one", forests, _keys(forests_of_degree, d),
         lambda f, x: Z_star(ck_b_minus(x)) == alpha_minus(Z_star(x)), forest_text),
        ("poset labeling realization agrees with the recursion", forests,
         _keys(forests_of_degree, d), lambda f, x: kbar(x) == Z_star(x), forest_text),
        ("dual append matches root stripping after the single-child projection",
         words, _keys(compositions_of, d - 1),
         lambda comp, u: Z(alpha_plus_dual(u)) == strip_primitive_root(Z(u)), word_text),
        ("dual strip matches right multiplication by the chain of two",
         words, _keys(compositions_of, d - 1),
         lambda comp, u: Z(alpha_minus_dual(u)) == KT.product(Z(u), eps1), word_text),
    ]
    return [_check(*row) for row in rows]


# ------------------------------------------------ suite: zstar surjectivity

def _suite_zstar_surjectivity(d: int) -> list[IdentityResult]:
    def rank(n):
        return rank_of([Z_star(LinComb.single(f)) for f in forests_of_degree(n)], n)

    return [_check(
        "forest images span every composition", f"1 <= degree <= {d}",
        ((n, rank(n)) for n in range(1, d + 1)),
        lambda n, r: r == composition_count(n), lambda n, r: f"degree {n}: rank {r}",
    )]


# --------------------------------------------- suite: quasi-shuffle oracle

def _symmetrized_product_error(x, y):
    """Why the QSYM product of the symmetrizations of ``x`` and ``y`` is not
    the symmetrization of a SYM element, or None if it is."""
    try:
        collect_sym(QSYM.product(include_sym(x), include_sym(y)))
    except ValueError as exc:
        return str(exc)
    return None


def _suite_quasi_shuffle_oracle(d: int) -> list[IdentityResult]:
    degree = f"degree <= {d}"
    pk, s = QSYM._pk, LinComb.single
    rows = [
        ("product agrees with truncated polynomial multiplication",
         f"combined degree <= {d}", _pairs(QSYM.basis, d),
         lambda ci, cj, n: expand_truncated(pk(ci, cj), n)
         == polynomial_product(expand_truncated(s(ci), n), expand_truncated(s(cj), n)),
         lambda ci, cj, n: f"M{ci} * M{cj}"),
        ("stripping a trailing one is a derivation", degree, _pairs(QSYM.basis, d),
         lambda ci, cj, n: alpha_minus(pk(ci, cj))
         == _times_key(QSYM, alpha_minus(s(ci)), cj)
         + _key_times(QSYM, ci, alpha_minus(s(cj))),
         lambda ci, cj, n: f"M{ci} , M{cj}"),
        ("products of symmetrized elements stay symmetric", degree, _pairs(SYM.basis, d),
         lambda mu, nu, n: _symmetrized_product_error(s(mu), s(nu)) is None,
         lambda mu, nu, n: f"m{mu} * m{nu}: {_symmetrized_product_error(s(mu), s(nu))}"),
        ("symmetrization is multiplicative", degree, _pairs(SYM.basis, d),
         lambda mu, nu, n: include_sym(SYM._pk(mu, nu))
         == QSYM.product(include_sym(s(mu)), include_sym(s(nu))),
         lambda mu, nu, n: f"m{mu} , m{nu}"),
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
          _leaf_growth)),
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
    "hexagon": (6, 8, _suite_hexagon),
    "dualities": (5, 7, _suite_dualities),
    "divided-powers": (6, 7, _suite_divided_powers),
    "zstar-intertwine": (6, 7, _suite_zstar_intertwine),
    "zstar-surjectivity": (7, 8, _suite_zstar_surjectivity),
    "quasi-shuffle-oracle": (6, 7, _suite_quasi_shuffle_oracle),
    "enumeration-counts": (8, 11, _suite_enumeration_counts),
    "ideh": (8, 18, _suite_ideh),
}

SUITE_NAMES = tuple(_SUITES)


def _convolve(a, b):
    """The first len(a) terms of the Cauchy product of the sequences a, b."""
    return [sum(a[i] * b[s - i] for i in range(s + 1)) for s in range(len(a))]


# Rough elementary-check counts per suite, used in refusal messages.
_ESTIMATES = {
    # basis triples of total degree <= n in each of kt, kp, sym and qsym
    "hopf-axioms": lambda n: sum(
        sum(_convolve(c, _convolve(c, c)))
        for c in (
            [count(m) for m in range(n + 1)]
            for count in (
                lambda m: rooted_count(m + 1), catalan, partition_count, composition_count
            )
        )
    ),
    "hexagon": lambda n: sum(composition_count(m) * catalan(m) for m in range(n + 1)),
    # hypotheses (b) and (c) on ordered forests, the largest of the four
    # duality criteria: two checks per (a1, a2, a3) of equal total degree
    "dualities": lambda n: 2 * sum(catalan(m + 1) * catalan(m) for m in range(n + 1)),
    "divided-powers": lambda n: sum(rooted_count(m + 1) ** 2 for m in range(n + 1)),
    "zstar-intertwine": lambda n: sum(
        rooted_count(m + 1) * composition_count(m) for m in range(n + 1)
    ),
    "zstar-surjectivity": lambda n: rooted_count(n + 1) * composition_count(n) ** 2,
    "quasi-shuffle-oracle": lambda n: 4 ** n,
    "enumeration-counts": lambda n: rooted_count(n) * n * n + catalan(n - 1) * n,
    "ideh": lambda n: partition_count(n) ** 3,
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
        est = _ESTIMATES[name](d)
        raise SuiteBoundError(
            f"suite {name} at max_degree {d} would need roughly {est:,} "
            f"elementary checks with exact arithmetic; the cap is {cap}. "
            f"Rerun with --max-degree {cap} or lower."
        )
    return SuiteReport(name, d, runner(d))


def run_all(max_degree: int | None = None) -> list[SuiteReport]:
    """Run every suite, at its own default bound unless one is given."""
    return [run_suite(name, max_degree) for name in SUITE_NAMES]
