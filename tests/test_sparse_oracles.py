"""The sparse pairing rows, sparse exact rank, row-form duality criterion,
back-substituted e/m transition and the linear extensions through
``LinComb`` against the definitions they replaced, kept here as oracles:
dense Bareiss elimination, pairings of every two basis keys, the triple loop
over basis triples, the whole-degree Fraction Gauss-Jordan inversion of the
e-to-m matrix, the hand-written product, tensor product and tensor map
loops, the antipode's accumulator loop, the forest coproduct memoized
per tree, and the key kernels that enumerated every permutation or vertex
assignment and dropped the repeats: rearrangements from all permutations,
the SYM product through QSYM, the KT product over all |t'|^k attachments,
the KT coproduct over all 2^k two-colourings of the root's children,
planar embeddings from all orderings of the children, and the hopf-axioms
estimate as a triple sum.  Interned trees and forests are checked against
equality of kind and encoding, and the rooted-tree classes against
``networkx``'s rooted tree isomorphism."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

import treehopf.hopf_rooted
import treehopf.verify
from treehopf.foundations import (
    LinComb,
    clear_caches,
    compositions_of,
    multiset_splits,
    partitions_of,
    rearrangements,
)
from treehopf.hopf import tensor_map, tensor_mult
from treehopf.hopf_planar import HF, KP, attachment_points
from treehopf.hopf_rooted import HK, KT, _grafts, forest_b_plus
from treehopf.morphisms import MAP_TABLE, Z_star, kbar
from treehopf.pairings import (
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
    pair_tensor,
)
from treehopf.symfun import (
    NSYM,
    QSYM,
    SYM,
    _column_sums,
    _monomial_expansion,
    collect_sym,
    e,
    e_to_m,
    include_sym,
    m_to_e,
)
from treehopf.trees import (
    Forest,
    OrderedForest,
    PlanarTree,
    RootedTree,
    _child_lists,
    _tree_key,
    b_minus,
    b_plus,
    enumerate_planar,
    enumerate_rooted,
    forests_of_degree,
    forget_order,
    ordered_forests_of_degree,
    planar_fiber,
    planar_from_string,
    rooted_from_string,
    sym_order,
)
from treehopf.verify import (
    _ESTIMATES,
    catalan,
    composition_count,
    exact_rank,
    partition_count,
    rank_of,
    rooted_count,
)

s = LinComb.single


# ------------------------------------------------------------------ oracles

def bareiss_rank(rows) -> int:
    """Exact rank by dense fraction-free (Bareiss) elimination after
    clearing denominators per row."""
    mat = []
    for row in rows:
        r = list(row)
        if not any(r):
            continue
        denom = 1
        for x in r:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        mat.append([int(x * denom) for x in r])
    if not mat:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivval = mat[rank][col]
        for r in range(rank + 1, nrows):
            factor = mat[r][col]
            for c in range(col, ncols):
                mat[r][c] = (pivval * mat[r][c] - factor * mat[rank][c]) // prev
        prev = pivval
        rank += 1
        if rank == nrows:
            break
    return rank


def _kron(x, y):
    return 1 if x == y else 0


# The key-level definition of each pairing, and the algebras it couples.
DEFINITIONS = {
    "ip_kt": (ip_kt, KT, KT, lambda t, u: sym_order(t) if t == u else 0),
    "ip_ck": (ip_ck, HK, HK, lambda f, g: sym_order(RootedTree(f.trees)) if f == g else 0),
    "ip_kp": (ip_kp, KP, KP, _kron),
    "ip_hf": (ip_hf, HF, HF, _kron),
    "ip_qs": (ip_qs, QSYM, QSYM, _kron),
    "ip_ns": (ip_ns, NSYM, NSYM, _kron),
    "ip_sym": (ip_sym, SYM, SYM, lambda la, mu: m_to_e(s(la))[mu]),
    "pair_kt_ck": (pair_kt_ck, KT, HK,
                   lambda t, f: sym_order(t) if t == RootedTree(f.trees) else 0),
    "pair_ns_qs": (pair_ns_qs, NSYM, QSYM, _kron),
    "pair_kp_hf": (pair_kp_hf, KP, HF, lambda t, f: 1 if t == PlanarTree(f.trees) else 0),
}


def all_pairs(pair_key):
    """The bilinear extension of a key-level pairing, over every two terms."""

    def pairing(a, b):
        acc = 0
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                v = pair_key(k1, k2)
                if v:
                    acc = acc + c1 * c2 * v
        return acc

    return pairing


def ip_sym_by_e(a, b):
    """(e_lam, m_mu) = delta: the left argument in the elementary basis."""
    acc = 0
    for lam, c in m_to_e(a).items():
        d = b[lam]
        if d:
            acc = acc + c * d
    return acc


ORACLE = {pairing: all_pairs(key) for pairing, _, _, key in DEFINITIONS.values()}
ORACLE[ip_sym] = ip_sym_by_e


def pair_tensor_by_singles(pairing, s_, t):
    acc = 0
    for (a1, a2), c1 in s_.items():
        for (b1, b2), c2 in t.items():
            v1 = pairing(s(a1), s(b1))
            if not v1:
                continue
            v2 = pairing(s(a2), s(b2))
            if v2:
                acc = acc + c1 * c2 * v1 * v2
    return acc


def criterion_by_triples(A, ip_A, B, ip_B, psi, max_degree):
    """The duality criterion as a loop over every basis pair and triple,
    each side paired through ``ORACLE``; (ok, checked, hypothesis,
    counterexample) of the first failure."""
    ip_A, ip_B = ORACLE[ip_A], ORACLE[ip_B]
    checked = 0
    for n in range(max_degree + 1):
        singles = [s(k) for k in A.basis(n)]
        images = [psi(x) for x in singles]
        for i, x in enumerate(singles):
            for j in range(i, len(singles)):
                checked += 1
                if ip_A(x, singles[j]) != ip_B(images[i], images[j]):
                    return (False, checked, "a",
                            f"degree {n}: {A.format(x)} , {A.format(singles[j])}")
    for n in range(max_degree + 1):
        triples_a3 = [(k, s(k)) for k in A.basis(n)]
        psi_a3 = {k: psi(x) for k, x in triples_a3}
        cop_a3 = {k: A.coproduct(x) for k, x in triples_a3}
        cop_psi_a3 = {k: B.coproduct(psi_a3[k]) for k, _ in triples_a3}
        for i in range(n + 1):
            for k1 in A.basis(i):
                a1 = s(k1)
                p1 = psi(a1)
                for k2 in A.basis(n - i):
                    a2 = s(k2)
                    p2 = psi(a2)
                    prod_A = A.product(a1, a2)
                    prod_B = B.product(p1, p2)
                    left_tensor = LinComb.tensor(p1, p2)
                    a_tensor = LinComb.tensor(a1, a2)
                    for k3, a3 in triples_a3:
                        checked += 2
                        text = f"{A.key_str(k1)} , {A.key_str(k2)} , {A.key_str(k3)}"
                        if ip_A(prod_A, a3) != pair_tensor_by_singles(
                            ip_B, left_tensor, cop_psi_a3[k3]
                        ):
                            return (False, checked, "b", text)
                        if pair_tensor_by_singles(ip_A, a_tensor, cop_a3[k3]) != ip_B(
                            prod_B, psi_a3[k3]
                        ):
                            return (False, checked, "c", text)
    return (True, checked, None, None)


def _outcome(check, *args):
    """(ok, checked, hypothesis, counterexample), or the ValueError text."""
    try:
        got = check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    if isinstance(got, tuple):
        return got
    return (got.ok, got.checked, got.hypothesis, got.counterexample)


def transition_by_elimination(n):
    """The e_lam of degree n in the monomial basis, built as products from 1,
    and the m_lam in the elementary basis, by Gauss-Jordan elimination of
    the whole p(n) x p(n) matrix over Fraction."""
    parts = partitions_of(n)
    e_rows = {}
    for lam in parts:
        acc = SYM.one()
        for part in lam:
            acc = SYM.product(acc, e(part))
        e_rows[lam] = acc
    size = len(parts)
    matrix = [
        [Fraction(e_rows[lam][mu]) for mu in parts]
        + [Fraction(1 if j == i else 0) for j in range(size)]
        for i, lam in enumerate(parts)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [x * inv for x in matrix[col]]
        for r in range(size):
            if r != col and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[col])]
    m_rows = {
        mu: LinComb((parts[j], matrix[i][size + j]) for j in range(size))
        for i, mu in enumerate(parts)
    }
    return e_rows, m_rows


# -------------------------------------------------------------------- ranks

def _random_matrix(rng, nrows, ncols, rank, fractions):
    """A random nrows x ncols matrix of rank at most ``rank``, with some
    rows zeroed."""
    def entry():
        x = rng.randint(-3, 3)
        return Fraction(x, rng.randint(1, 4)) if fractions and x else x

    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    mat = [[sum(l[k] * right[k][j] for k in range(rank)) for j in range(ncols)] for l in left]
    for i in rng.sample(range(nrows), nrows // 4):
        mat[i] = [0] * ncols
    return mat


@pytest.mark.parametrize("fractions", [False, True])
def test_sparse_rank_matches_bareiss_on_random_matrices(fractions):
    rng = random.Random(20260 + fractions)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)  # wide, tall and square
        mat = _random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), fractions)
        want = bareiss_rank(mat)
        assert exact_rank(mat) == want
        sparse = [{j: x for j, x in enumerate(row) if x} for row in mat]
        rng.shuffle(sparse)
        assert exact_rank(sparse) == want
    assert exact_rank([{}, {"a": 0}, [0, 0]]) == 0


GRAMS = [
    (ip_kt, KT, KT), (ip_ck, HK, HK), (ip_kp, KP, KP), (ip_hf, HF, HF),
    (ip_sym, SYM, SYM), (pair_ns_qs, NSYM, QSYM), (pair_kt_ck, KT, HK),
    (pair_kp_hf, KP, HF),
]


def test_gram_ranks_match_bareiss_through_degree_6():
    for pairing, A, B in GRAMS:
        oracle = ORACLE[pairing]
        for n in range(7):
            ka, kb = A.basis(n), B.basis(n)
            dense = [[oracle(s(x), s(y)) for y in kb] for x in ka]
            want = bareiss_rank(dense)
            assert want == len(ka) == len(kb)
            assert treehopf.verify._gram_rank(pairing, ka) == want


def test_rank_of_matches_bareiss_through_degree_7():
    for n in range(1, 8):
        els = [Z_star(s(f)) for f in forests_of_degree(n)]
        comps = compositions_of(n)
        dense = [[el[c] for c in comps] for el in els]
        assert rank_of(els, n) == bareiss_rank(dense)
        # and on the first half of them, fewer rows than columns at every degree
        half = len(els) // 2
        assert rank_of(els[:half], n) == bareiss_rank(dense[:half])


# ----------------------------------------------------------------- pairings

def _random_element(rng, alg, degrees):
    out = LinComb.zero()
    for _ in range(rng.randint(0, 4)):
        keys = alg.basis(rng.choice(degrees))
        coeff = rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
        out = out + s(rng.choice(keys), coeff)
    return out


@pytest.mark.parametrize("name", sorted(DEFINITIONS))
def test_rows_match_the_all_pairs_definition(name):
    pairing, A, B, key = DEFINITIONS[name]
    for n in range(6):
        kb = B.basis(n)
        for k in A.basis(n):
            want = {y: key(k, y) for y in kb if key(k, y)}
            assert pairing.row(k) == want
            for y in kb:
                assert pairing(s(k), s(y)) == key(k, y)
    rng = random.Random(sum(map(ord, name)))
    oracle = all_pairs(key)
    for _ in range(60):
        a = _random_element(rng, A, range(5))
        b = _random_element(rng, B, range(5))
        assert pairing(a, b) == oracle(a, b)
        if pairing is ip_sym:
            assert pairing(a, b) == ip_sym_by_e(a, b)
        t = LinComb.tensor(a, _random_element(rng, A, range(4)))
        u = LinComb.tensor(b, _random_element(rng, B, range(4)))
        assert pair_tensor(pairing, t, u) == pair_tensor_by_singles(oracle, t, u)


# --------------------------------------------------------------- transition

@pytest.mark.parametrize("n", range(9))
def test_transitions_match_the_whole_degree_elimination(n):
    e_rows, m_rows = transition_by_elimination(n)
    for lam in partitions_of(n):
        assert e_to_m(s(lam)) == e_rows[lam]
        got = m_to_e(s(lam))
        assert got == m_rows[lam]
        assert all(type(c) is int for _, c in got.items()), lam
        row = ip_sym.row(lam)
        assert row == dict(m_rows[lam].items())
        assert row is not ip_sym.row(lam)


# ---------------------------------------------------------------- criterion

INSTANCES = {
    "qsym-nsym": (QSYM, ip_qs, NSYM, ip_ns, lambda a: a),
    "hk-kt": (HK, ip_ck, KT, ip_kt, forest_b_plus),
    "hf-kp": (HF, ip_hf, KP, ip_kp, forest_b_plus),
    "sym-sym": (SYM, ip_sym, SYM, ip_sym, lambda a: a),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_criterion_report_matches_the_triple_loop(name):
    for d in range(5):
        got = _outcome(check_duality_criterion, *INSTANCES[name], d)
        assert got == _outcome(criterion_by_triples, *INSTANCES[name], d)
        assert got[0]


def _drop_one(psi, A):
    """psi with the one term of the image of the last degree-3 key dropped."""
    victim = A.basis(3)[-1]
    return lambda a: LinComb.zero() if victim in a else psi(a)


def _negate_degree(psi, A, n):
    """psi negated on the keys of degree n only: (a) still holds."""
    keys = set(A.basis(n))
    return lambda a: -psi(a) if keys & set(a.keys()) else psi(a)


FAULTS = {
    "psi doubled": lambda A, psi: lambda a: 2 * psi(a),
    "psi negated": lambda A, psi: lambda a: -psi(a),
    "psi negated in degree 3": lambda A, psi: _negate_degree(psi, A, 3),
    "psi negated in degree 4": lambda A, psi: _negate_degree(psi, A, 4),
    "psi drops one term": lambda A, psi: _drop_one(psi, A),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_criterion_report_matches_under_a_faulty_map(name, fault):
    A, ip_A, B, ip_B, psi = INSTANCES[name]
    bad = (A, ip_A, B, ip_B, FAULTS[fault](A, psi))
    got = _outcome(check_duality_criterion, *bad, 4)
    assert got == _outcome(criterion_by_triples, *bad, 4)
    assert not got[0]


def _drop_last_term(product_keys):
    def broken(k1, k2):
        terms = list(product_keys(k1, k2).items())
        return LinComb(terms[:-1] if len(terms) > 1 else terms)

    return broken


def _double_last_term(product_keys):
    def broken(k1, k2):
        terms = list(product_keys(k1, k2).items())
        if len(terms) > 2:
            terms[-1] = (terms[-1][0], 2 * terms[-1][1])
        return LinComb(terms)

    return broken


BROKEN = {"drops its last term": _drop_last_term, "doubles its last term": _double_last_term}


# For each instance, the algebra whose product has several terms.
BROKEN_PRODUCT = {"qsym-nsym": QSYM, "hk-kt": KT, "hf-kp": KP, "sym-sym": SYM}


@pytest.fixture
def fresh_caches():
    """Every cache emptied before the test and again after it, so a run does
    not depend on what ran before it, and memos that a broken product filled
    never reach a later test."""
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("broken", sorted(BROKEN))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_criterion_report_matches_under_a_broken_product(name, broken, monkeypatch,
                                                         fresh_caches):
    alg = BROKEN_PRODUCT[name]
    product_keys = type(alg).product_keys.__get__(alg)
    monkeypatch.setitem(vars(alg), "product_keys", BROKEN[broken](product_keys))
    got = _outcome(check_duality_criterion, *INSTANCES[name], 4)
    clear_caches()
    assert got == _outcome(criterion_by_triples, *INSTANCES[name], 4)
    assert got[0] is not True


def test_dualities_estimate_tracks_the_criteria_checks():
    for d in range(3, 6):
        checked = sum(check_duality_criterion(*inst, d).checked for inst in INSTANCES.values())
        assert checked / 5 <= _ESTIMATES["dualities"](d) <= 5 * checked


# ------------------------------------------------------------ compatibility

def compatibility_by_triples(A, B, pairing, max_degree):
    """The first failure of <xy, z> = <x (x) y, Delta z> and
    <w, yz> = <Delta w, y (x) z> over every basis triple, or None."""
    oracle = ORACLE[pairing]
    for n in range(max_degree + 1):
        zs = [s(k) for k in B.basis(n)]
        cops = [B.coproduct(z) for z in zs]
        for i in range(n + 1):
            for kx in A.basis(i):
                for ky in A.basis(n - i):
                    x, y = s(kx), s(ky)
                    xy, txy = A.product(x, y), LinComb.tensor(x, y)
                    for z, cz in zip(zs, cops):
                        if oracle(xy, z) != pair_tensor_by_singles(oracle, txy, cz):
                            return f"{A.format(x)} , {A.format(y)} , {B.format(z)}"
        ws = [s(k) for k in A.basis(n)]
        wcops = [A.coproduct(w) for w in ws]
        for i in range(n + 1):
            for ky in B.basis(i):
                for kz in B.basis(n - i):
                    y, z = s(ky), s(kz)
                    yz, tyz = B.product(y, z), LinComb.tensor(y, z)
                    for w, cw in zip(ws, wcops):
                        if oracle(w, yz) != pair_tensor_by_singles(oracle, cw, tyz):
                            return f"{A.format(w)} , {B.format(y)} , {B.format(z)}"
    return None


COMPATIBLE = {"nsym-qsym": (NSYM, QSYM, pair_ns_qs), "kt-hk": (KT, HK, pair_kt_ck),
              "kp-hf": (KP, HF, pair_kp_hf)}
# the side of each pairing whose products have several terms
BROKEN_SIDE = {"nsym-qsym": QSYM, "kt-hk": KT, "kp-hf": KP}


@pytest.mark.parametrize("broken", [None] + sorted(BROKEN))
@pytest.mark.parametrize("name", sorted(COMPATIBLE))
def test_pairing_compatibility_matches_the_triple_loop(name, broken, monkeypatch,
                                                       fresh_caches):
    A, B, pairing = COMPATIBLE[name]
    if broken:
        alg = BROKEN_SIDE[name]
        product_keys = type(alg).product_keys.__get__(alg)
        monkeypatch.setitem(vars(alg), "product_keys", BROKEN[broken](product_keys))
    got = check_pairing_compatibility(A, B, pairing, 4)
    assert got == compatibility_by_triples(A, B, pairing, 4)
    assert (got is None) == (broken is None)


# ------------------------------------------------------ linear extensions

def _add_into(data, key, term, cancels):
    """Add ``term`` at ``key``, pruning a zero; count each cancellation."""
    cur = data.get(key, 0) + term
    if cur:
        data[key] = cur
    else:
        data.pop(key, None)
        cancels[0] += 1


def product_by_loops(alg, a, b, cancels):
    """The product as a loop over both arguments, summed again in LinComb()."""
    data = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            c = c1 * c2
            for key, ck in alg._pk(k1, k2).items():
                _add_into(data, key, c * ck, cancels)
    return LinComb(data)


def tensor_map_by_loops(t, left, right, cancels):
    data = {}
    for (k1, k2), c in t.items():
        img1 = left(k1)
        img2 = right(k2)
        for x, cx in img1.items():
            ccx = c * cx
            for y, cy in img2.items():
                _add_into(data, (x, y), ccx * cy, cancels)
    return LinComb(data)


def tensor_mult_by_loops(alg, t1, t2, cancels):
    data = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            c = c1 * c2
            for x, cx in alg._pk(a1, a2).items():
                ccx = c * cx
                for y, cy in alg._pk(b1, b2).items():
                    _add_into(data, (x, y), ccx * cy, cancels)
    return LinComb(data)


ALGEBRAS = (KT, HK, KP, HF, SYM, QSYM, NSYM)
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))


def _cancelling_pair(rng, alg, n):
    """a = c x + d 1 + r and b = e 1 + f x + r' for a random basis element x
    of degree 1..n and random r, r' of degree <= n, with c e + d f = 0: the
    x terms of ab, from x 1 and from 1 x, cancel."""
    x = rng.choice(alg.basis(rng.randint(1, n)))
    c, d, f = (rng.choice(COEFFS) for _ in range(3))
    e_ = Fraction(-d * f) / c
    if e_.denominator == 1:
        e_ = int(e_)
    unit = alg.unit_key()
    a = s(x, c) + s(unit, d) + _random_element(rng, alg, range(n + 1))
    b = s(unit, e_) + s(x, f) + _random_element(rng, alg, range(n + 1))
    return a, b


def _pruned(x):
    return all(c != 0 for _, c in x.items())


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: alg.name)
def test_linear_extensions_match_the_loops_through_degree_4(alg):
    rng = random.Random(f"extensions {alg.name}")
    # cancellations seen by the product, tensor_mult and tensor_map loops
    cancels = [0], [0], [0]
    for n in range(1, 5):
        for _ in range(6):
            a, b = _cancelling_pair(rng, alg, n)
            ab = alg.product(a, b)
            assert ab == product_by_loops(alg, a, b, cancels[0])
            ca, cb = alg.coproduct(a), alg.coproduct(b)
            t1 = ca + LinComb.tensor(a, b)
            assert tensor_mult(alg, t1, cb) == tensor_mult_by_loops(alg, t1, cb, cancels[1])
            left = lambda k: alg.product(s(k), b)
            assert tensor_map(t1, left, alg.antipode_key) == tensor_map_by_loops(
                t1, left, alg.antipode_key, cancels[2])
            for x in (ab, ca, cb, alg.antipode(a), alg.antipode(ab)):
                assert _pruned(x)
    assert all(count for (count,) in cancels), cancels


def _cancelling(rng, fn, keys):
    """(a, key): a = c1 k1 + c2 k2 for two of ``keys`` whose images under
    ``fn`` share ``key``, with coefficients that cancel ``key`` in fn(a);
    None if no two images meet within a few tries."""
    if len(keys) < 2:
        return None
    for _ in range(30):
        k1, k2 = rng.sample(list(keys), 2)
        i1, i2 = fn(s(k1)), fn(s(k2))
        common = [k for k in i1.keys() if k in i2]
        if common:
            key = rng.choice(common)
            scale = rng.choice(COEFFS)
            return s(k1, scale * i2[key]) - s(k2, scale * i1[key]), key
    return None


def test_no_result_holds_a_zero_coefficient():
    rng = random.Random("zero coefficients")
    ops = {f"{alg.name} {op}": (alg, getattr(alg, op))
           for alg in ALGEBRAS for op in ("coproduct", "antipode")}
    ops.update((name, (dom, fn)) for name, (dom, _, fn) in MAP_TABLE.items())
    cancelled = set()
    for name, (dom, fn) in ops.items():
        for n in range(2, 5):
            for _ in range(3):
                found = _cancelling(rng, fn, dom.basis(n))
                if found:
                    a, key = found
                    out = fn(a)
                    assert key not in out and _pruned(out), (name, a)
                    cancelled.add(name)
                x, y = _cancelling_pair(rng, dom, n)
                assert _pruned(fn(x)) and _pruned(fn(dom.product(x, y))), (name, x, y)
    # every antipode, and every map under which the images of two basis
    # keys can meet
    antipodes = {f"{alg.name} antipode" for alg in ALGEBRAS}
    assert antipodes | {"tau", "phi", "rho", "Z", "Zstar", "kbar"} <= cancelled, cancelled


# ------------------------------------------ antipode and forest coproduct

def antipode_by_accumulation(alg, key, memo):
    """S(key) as an accumulator: -key, less c S(x') x'' for each middle term
    c x' (x) x'' of the coproduct, one term at a time."""
    out = memo.get(key)
    if out is not None:
        return out
    unit = alg.unit_key()
    if key == unit:
        out = alg.one()
    else:
        acc = LinComb.single(key, -1)
        for (left, right), c in alg._ck(key).items():
            if left == unit or right == unit:
                continue
            acc -= c * alg.product(antipode_by_accumulation(alg, left, memo), s(right))
        out = acc
    memo[key] = out
    return out


def forest_coproduct_by_trees(alg, f, memo):
    """The coproduct of a forest as the product of those of its trees, each
    found from the forest of its root's children and memoized per tree."""
    out = None
    for t in f.trees:
        cop = tree_coproduct(alg, t, memo)
        out = cop if out is None else tensor_mult(alg, out, cop)
    return s((alg.empty, alg.empty)) if out is None else out


def tree_coproduct(alg, t, memo):
    cached = memo.get(t)
    if cached is not None:
        return cached
    inner = forest_coproduct_by_trees(alg, b_minus(t), memo)
    forest = type(alg.empty)
    out = s((forest((t,)), alg.empty))
    for (u, v), c in inner.items():
        out += s((u, forest((b_plus(v),))), c)
    memo[t] = out
    return out


def _by_keys(a, image):
    """The sum of c image(k) over the terms c k of a, one term at a time."""
    out = LinComb.zero()
    for k, c in a.items():
        out += c * image(k)
    return out


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: alg.name)
def test_antipode_matches_the_accumulator_through_degree_5(alg, fresh_caches):
    memo = {}
    oracle = lambda k: antipode_by_accumulation(alg, k, memo)
    for n in range(6):
        for key in alg.basis(n):
            assert alg.antipode_key(key) == oracle(key), alg.key_str(key)
    rng = random.Random(f"antipode {alg.name}")
    for _ in range(20):
        a = _random_element(rng, alg, range(6))
        assert alg.antipode(a) == _by_keys(a, oracle)


@pytest.mark.parametrize("alg", (HK, HF), ids=lambda alg: alg.name)
def test_forest_coproduct_matches_the_per_tree_recursion_through_degree_7(alg,
                                                                          fresh_caches):
    memo = {}
    oracle = lambda f: forest_coproduct_by_trees(alg, f, memo)
    for n in range(8):
        for f in alg.basis(n):
            assert alg._ck(f) == oracle(f), alg.key_str(f)
    clear_caches()
    rng = random.Random(f"coproduct {alg.name}")
    for _ in range(20):
        a = _random_element(rng, alg, range(8))
        assert alg.coproduct(a) == _by_keys(a, oracle)


# ------------------------------------------------------------- key kernels

def rearrangements_by_permutations(partition):
    return tuple(sorted(set(permutations(partition))))


def sym_product_through_qsym(lam, mu):
    return collect_sym(QSYM.product(include_sym(s(lam)), include_sym(s(mu))))


def kt_product_by_assignments(t, tp):
    """Every one of the |tp|^k ways to send the k root subtrees of t to
    vertices of tp, each grafted and counted."""
    points = [(v, 0) for v in range(tp.size)]
    return LinComb.tally(_grafts(tp, t.children, product(points, repeat=len(t.children))))


def kt_coproduct_by_colourings(t):
    """Every one of the 2^k two-colourings of the k root subtrees of t, each
    colour class under a new root, and counted."""
    kids = t.children
    return LinComb.tally(
        (RootedTree([c for i, c in enumerate(kids) if mask >> i & 1]),
         RootedTree([c for i, c in enumerate(kids) if not mask >> i & 1]))
        for mask in range(1 << len(kids))
    )


def planar_fiber_by_permutations(t, memo):
    """The planar trees over t from every permutation of its children, with
    the repeats dropped."""
    cached = memo.get(t)
    if cached is not None:
        return cached
    options = {c: planar_fiber_by_permutations(c, memo) for c in set(t.children)}
    results = set()
    for ordering in set(permutations(t.children)):
        for combo in product(*(options[c] for c in ordering)):
            results.add(PlanarTree(combo))
    out = memo[t] = tuple(sorted(results, key=_tree_key))
    return out


def hopf_axioms_estimate_by_triples(n):
    return sum(
        count(i) * count(j) * count(s - i - j)
        for count in (
            lambda m: rooted_count(m + 1), catalan, partition_count, composition_count
        )
        for s in range(n + 1)
        for i in range(s + 1)
        for j in range(s - i + 1)
    )


def test_rearrangements_match_the_permutations_through_degree_10(fresh_caches):
    for n in range(11):
        for lam in partitions_of(n):
            assert rearrangements(lam) == rearrangements_by_permutations(lam), lam


def test_sym_product_matches_the_qsym_round_trip_through_degree_9(fresh_caches):
    for n in range(10):
        for i in range(n + 1):
            for lam in partitions_of(i):
                for mu in partitions_of(n - i):
                    want = sym_product_through_qsym(lam, mu)
                    assert SYM.product_keys(lam, mu) == want, (lam, mu)
                    assert SYM.product(s(lam), s(mu)) == want, (lam, mu)


def test_kt_product_matches_every_assignment_through_8_vertices(fresh_caches):
    for n in range(2, 9):
        for i in range(1, n):
            for t in enumerate_rooted(i):
                for tp in enumerate_rooted(n - i):
                    want = kt_product_by_assignments(t, tp)
                    assert KT.product_keys(t, tp) == want, (t, tp)
                    assert KT.product(s(t), s(tp)) == want, (t, tp)


def _rooted_trees_through_10_vertices():
    trees = [t for n in range(1, 11) for t in enumerate_rooted(n)]
    assert len(trees) == 1205
    return trees


def test_kt_coproduct_matches_every_colouring_through_10_vertices(fresh_caches):
    for t in _rooted_trees_through_10_vertices():
        assert KT.coproduct_key(t) == kt_coproduct_by_colourings(t), t


def test_the_colouring_oracle_sees_an_unweighted_split(monkeypatch, fresh_caches):
    # with every split counted once, exactly the trees whose root has two
    # equal subtrees lose their multiplicities
    monkeypatch.setattr(treehopf.hopf_rooted, "multiset_splits",
                        lambda items: ((l, r, 1) for l, r, _ in multiset_splits(items)))
    trees = _rooted_trees_through_10_vertices()
    wrong = [t for t in trees if KT.coproduct_key(t) != kt_coproduct_by_colourings(t)]
    assert wrong == [t for t in trees if len(set(t.children)) < len(t.children)]
    assert RootedTree([RootedTree()] * 2) in wrong


def test_planar_fiber_matches_the_permutations_through_9_vertices(fresh_caches):
    memo = {}
    for n in range(1, 10):
        for t in enumerate_rooted(n):
            assert planar_fiber(t) == planar_fiber_by_permutations(t, memo), t


def monomial_expansion_by_placement(comp, nvars):
    """The recursion that placed one part at a time on a variable after
    the last one, summing as it went."""
    k, data = len(comp), {}

    def place(pos, var, expo):
        if pos == k:
            data[tuple(expo)] = data.get(tuple(expo), 0) + 1
            return
        for v in range(var, nvars - (k - pos) + 1):
            expo[v] = comp[pos]
            place(pos + 1, v + 1, expo)
            expo[v] = 0

    place(0, 0, [0] * nvars)
    return data


def test_monomial_expansion_matches_the_placement_recursion():
    for n in range(8):
        for comp in compositions_of(n):
            for nvars in range(9):
                want = monomial_expansion_by_placement(comp, nvars)
                got = _monomial_expansion(comp, nvars)
                assert got == want and list(got) == list(want), (comp, nvars)


def test_kbar_and_the_monomial_expansion_leave_no_cyclic_garbage(fresh_caches):
    # their recursions, and the recursive closures of the SYM product, the
    # planar attachment points, the child lists and the Dyck words, used to
    # hold their working tables in reference cycles, which only the cyclic
    # collector frees
    forest = Forest([rooted_from_string("[[[]][]]"), rooted_from_string("[[][][]]")])
    gc.collect()
    gc.disable()
    try:
        assert kbar(s(forest)) == Z_star(s(forest))
        assert len(_monomial_expansion((2, 1, 1), 6)) == 20
        assert len(_column_sums((2, 1), (1, 1))) == 4
        assert len(attachment_points(planar_from_string("[[[]][]]"))) == 7
        assert len(_child_lists(4, RootedTree)) == 9
        assert len(treehopf.verify._dyck_planar(4)) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hopf_axioms_estimate_matches_the_triple_sum():
    for n in range(41):
        assert _ESTIMATES["hopf-axioms"](n) == hopf_axioms_estimate_by_triples(n), n


# ------------------------------------------------------------- interning

def _shuffled(t, rng):
    """The bracket string of t with the children of every vertex shuffled."""
    kids = [_shuffled(c, rng) for c in t.children]
    rng.shuffle(kids)
    return "[" + "".join(kids) + "]"


def _value(x):
    """What makes two trees or forests equal: their kind and encoding."""
    if isinstance(x, (RootedTree, PlanarTree)):
        return type(x), x.encoding
    return type(x), tuple(t.encoding for t in x.trees)


def _interning_faults(objects):
    """The values among ``objects`` held by more than one object, and the
    objects that hold more than one value: both empty exactly when
    ``a is b`` ⇔ equal kind and encoding, over all pairs."""
    ids_of, values_of = {}, {}
    for x in objects:
        ids_of.setdefault(_value(x), set()).add(id(x))
        values_of.setdefault(id(x), set()).add(_value(x))
    return ([v for v, ids in ids_of.items() if len(ids) > 1],
            [vs for vs in values_of.values() if len(vs) > 1])


def _built_two_ways(max_vertices, max_degree, rng):
    """Every tree of up to ``max_vertices`` vertices and every forest of up
    to ``max_degree`` of both kinds, from the enumerations and again from
    parsed bracket strings: rooted ones with shuffled children, and as
    ``forget_order`` of each planar tree over them."""
    out = []
    for n in range(1, max_vertices + 1):
        for t in enumerate_rooted(n):
            out += [t, rooted_from_string(_shuffled(t, rng))]
            out += map(forget_order, planar_fiber(t))
        for t in enumerate_planar(n):
            out += [t, planar_from_string(t.encoding)]
    for n in range(max_degree + 1):
        for f in forests_of_degree(n):
            trees = [rooted_from_string(_shuffled(t, rng)) for t in f.trees]
            rng.shuffle(trees)
            out += [f, Forest(trees)]
        for f in ordered_forests_of_degree(n):
            out += [f, OrderedForest(planar_from_string(t.encoding) for t in f.trees)]
    return out


def test_equal_trees_and_forests_are_one_object():
    objects = _built_two_ways(9, 7, random.Random(11))
    # each rooted tree enumerated, parsed, and forgotten from each planar
    # tree over it; each planar tree and each forest of either kind twice
    assert len(objects) == 2 * 486 + 3 * 2056 + 2 * 200 + 2 * 626
    assert _interning_faults(objects) == ([], [])
    # the twin kinds share encodings but never an object
    assert RootedTree() is not PlanarTree() and Forest() is not OrderedForest()


def test_a_table_that_forgets_is_caught(monkeypatch, fresh_caches):
    class Forgetful(type(RootedTree._interned)):
        def get(self, key, default=None):
            return default

    monkeypatch.setattr(RootedTree, "_interned", Forgetful())
    duplicated, _ = _interning_faults(_built_two_ways(4, 0, random.Random(11)))
    assert (RootedTree, "[[][[]]]") in duplicated
    assert all(kind is RootedTree for kind, _ in duplicated)


def test_identity_survives_clear_caches():
    t = rooted_from_string("[[][[]]]")
    f = Forest((t, t))
    clear_caches()
    assert rooted_from_string("[[[]][]]") is t
    assert Forest((rooted_from_string("[[[]][]]"),) * 2) is f


def test_an_unreferenced_tree_leaves_its_table():
    t = PlanarTree([planar_from_string("[[[]][]]")] * 7)
    key, ref = t.children, weakref.ref(t)
    assert PlanarTree._interned[key]() is t
    f = OrderedForest(key)
    fkey, fref = f.trees, weakref.ref(f)
    del t, f
    gc.collect()
    assert ref() is None and fref() is None
    assert key not in PlanarTree._interned and fkey not in OrderedForest._interned


def _networkx_tree(t, nx):
    g = nx.Graph()
    g.add_node(0)

    def walk(node, idx):
        me = idx
        for c in node.children:
            g.add_edge(me, idx + 1)
            idx = walk(c, idx + 1)
        return idx

    walk(t, 0)
    return g


def _rooted_invariant(g, nx):
    """A rooted-tree isomorphism invariant, to skip pairs that cannot be
    isomorphic: each vertex's depth and degree."""
    depth = nx.single_source_shortest_path_length(g, 0)
    return tuple(sorted((depth[v], g.degree(v)) for v in g))


def test_interned_classes_are_the_networkx_isomorphism_classes():
    nx = pytest.importorskip("networkx")
    iso = nx.algorithms.isomorphism.rooted_tree_isomorphism
    for n in range(1, 10):
        # classes of the planar trees under networkx's rooted isomorphism
        reps, classes = {}, []
        for p in enumerate_planar(n):
            g = _networkx_tree(p, nx)
            bucket = reps.setdefault(_rooted_invariant(g, nx), [])
            for h, members in bucket:
                if iso(g, 0, h, 0):
                    members.append(p)
                    break
            else:
                bucket.append((g, [p]))
                classes.append(bucket[-1][1])
        by_object = {}
        for p in enumerate_planar(n):
            by_object.setdefault(forget_order(p), []).append(p)
        assert len(classes) == len(by_object) == rooted_count(n)
        assert sorted(sorted(map(id, c)) for c in classes) == sorted(
            sorted(map(id, c)) for c in by_object.values())
