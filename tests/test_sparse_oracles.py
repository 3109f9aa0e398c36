"""The sparse pairing rows, sparse exact rank, row-form duality criterion,
back-substituted e/m transition and the linear extensions through
``LinComb`` against the definitions they replaced, kept here as oracles:
dense Bareiss elimination, pairings of every two basis keys, the triple loop
over basis triples, the whole-degree Fraction Gauss-Jordan inversion of the
e-to-m matrix, the hand-written product, tensor product and tensor map
loops, the hopf-axioms convolution, coassociativity and associativity
rows and the pairing exchange as nested sums of a LinComb or dict per term,
before they summed in one pass, the antipode's accumulator loop (the recursion behind the closed-form
antipodes of SYM, QSYM and the generators of NSYM, HK and HF), LinComb's sums as they were before
they skipped 0 + x and 1 * x, the forest coproduct memoized per tree,
NSYM's coproduct as a DP over the splits of each part, epsilon by the
alternating recursion that defines it, kbar over every downset of its
poset, the hexagon's full circuit through Phistar and rhostar of
the whole image Z(x), before it read them once per tree, the dualities
suite's adjoint and delta rows over every key pair, and the key kernels
that enumerated every permutation or vertex assignment and dropped the
repeats: rearrangements from all permutations,
the SYM product through QSYM, the KT product over all |t'|^k attachments
and the KP product over every weakly increasing choice of attachment
points, each grafted as a whole tree,
the KT coproduct over all 2^k two-colourings of the root's children,
planar embeddings from all orderings of the children, the hopf-axioms
estimate as a triple sum, the quasi-shuffle-oracle suite's product of
polynomials on exponent tuples in |a| + |b| variables, before it packed
each tuple into an int and took len(a) + len(b) variables,
and the zstar-surjectivity suite's elimination over the image of every
forest, before one level forest per composition certified the rank.
The walks along a tree's depth (symmetry orders, the rooted tree under a
planar tree, planar embeddings and the forest coproduct) are checked
against recursions of a Python call per level, as they were before they
were filled from explicit stacks.  Interned trees and forests are checked against equality of kind and
encoding, and the rooted-tree classes against ``networkx``'s rooted tree
isomorphism.  The tree counts, with and without a bound on the levels,
and the partition counts are checked against the loops that grew them
in order, n = 1, 2, ..., before their tables named their needs."""

import gc
import inspect
import random
import sys
import textwrap
import weakref
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations_with_replacement, groupby, permutations, product
from math import comb, factorial, gcd, prod
from operator import add

import pytest

import treehopf.foundations
import treehopf.hopf_rooted
import treehopf.morphisms
import treehopf.trees
import treehopf.verify
from treehopf.cli import SERIES_CAP, parse_element
from treehopf.foundations import (
    LinComb,
    clear_caches,
    compositions_of,
    memo,
    multiset_splits,
    partitions_of,
    rearrangements,
)
from treehopf.hopf import COUNT_LIMIT, HopfAlgebra, tensor_map, tensor_mult
from treehopf.hopf_planar import HF, KP, PlanarGraftingAlgebra
from treehopf.hopf_rooted import (
    HK,
    KT,
    GraftingAlgebra,
    _blocks,
    _submultisets,
    corolla,
    epsilon,
    forest_b_plus,
    kappa,
    strip_primitive_root,
)
from treehopf.morphisms import MAP_TABLE, Z, Z_star, kbar, phi_star, rho, tau
from treehopf.pairings import (
    _coproduct_row,
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
    pair_tensor,
)
from treehopf.symfun import (
    NSYM,
    QSYM,
    SYM,
    _column_sums,
    _monomial_expansion,
    alpha_minus_dual,
    alpha_plus_dual,
    collect_sym,
    e,
    expand_truncated,
    h,
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
    ladder,
    ordered_forests_of_degree,
    planar_fiber,
    planar_from_string,
    rooted_count_by_levels,
    rooted_from_string,
    sym_order,
)
from treehopf.verify import (
    _ESTIMATES,
    _coassoc_sides,
    _convolutions,
    _packed,
    _pairs,
    _polynomial_product_holds,
    _triples,
    catalan,
    composition_count,
    exact_rank,
    partition_count,
    rank_of,
    rooted_count,
    run_suite,
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
            assert dict(pairing.row(k).items()) == want
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
        assert tau(s(lam)) == e_rows[lam]
        got = m_to_e(s(lam))
        assert got == m_rows[lam]
        assert all(type(c) is int for _, c in got.items()), lam
        # the row is the memoized m-to-e row itself, never a copy of it
        row = ip_sym.row(lam)
        assert row == m_rows[lam]
        assert row is ip_sym.row(lam)


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


# ------------------------------------------------- adjoint and delta rows

# The dualities suite's adjoint and delta rows as they were, one case per
# key pair.  They read the maps from ``treehopf.verify`` when they run, as
# the suite does, so a map broken there reaches both.
V = treehopf.verify


def _first_failure(cases, holds, describe):
    """``describe(*case)`` of the first case that does not hold, or None."""
    return next((describe(*case) for case in cases if not holds(*case)), None)


def _z_adjoint_cases(d):
    """Cases (comp, u, <Z(u), f>, f, Zstar(f)) for forests f; Zstar(f) is
    computed once per f, and the pairings of Z(u) once per u."""
    for n in range(d + 1):
        forests = forests_of_degree(n)
        zf = [V.Z_star(s(f)) for f in forests]
        for comp in compositions_of(n):
            u = s(comp)
            zu = V.Z(u).apply_linear(pair_kt_ck.row)
            for f, zstar_f in zip(forests, zf):
                yield comp, u, zu[f], f, zstar_f


def z_adjoint_by_pairs(d):
    return _first_failure(
        _z_adjoint_cases(d),
        lambda comp, u, zu_f, f, zstar_f: zu_f == pair_ns_qs(u, zstar_f),
        lambda comp, u, zu_f, f, zstar_f: f"{NSYM.key_str(comp)} , {HK.key_str(f)}")


def _alpha_cases(d):
    """Cases (dual, op, cu, u, cv, v) with u, v of degrees n, n - 1 for
    alpha_plus, then n - 1, n for alpha_minus, for 1 <= n <= d."""
    for n in range(1, d + 1):
        for dual, op, i, j in (
            (V.alpha_plus_dual, V.alpha_plus, n, n - 1),
            (V.alpha_minus_dual, V.alpha_minus, n - 1, n),
        ):
            for cu in compositions_of(i):
                u = s(cu)
                for cv in compositions_of(j):
                    yield dual, op, cu, u, cv, s(cv)


def alpha_by_pairs(d):
    return _first_failure(
        _alpha_cases(d),
        lambda dual, op, cu, u, cv, v: pair_ns_qs(dual(u), v) == pair_ns_qs(u, op(v)),
        lambda dual, op, cu, u, cv, v: f"{NSYM.key_str(cu)} , {QSYM.key_str(cv)}")


def _delta_cases(d):
    """Cases (mu, nu, lam, <e_mu e_nu, m_lam>) with |mu| + |nu| = |lam| <= d + 1;
    the pairings of e_mu e_nu are computed once per (mu, nu)."""
    for n in range(d + 2):
        rows = {}
        for lam in partitions_of(n):
            for mu, nu in _key_pairs(SYM.basis, n):
                if (mu, nu) not in rows:
                    emunu = SYM.product(V.e_to_m_row(mu), V.e_to_m_row(nu))
                    rows[mu, nu] = emunu.apply_linear(ip_sym.row)
                yield mu, nu, lam, rows[mu, nu][lam]


def delta_by_pairs(d):
    return _first_failure(
        _delta_cases(d),
        lambda mu, nu, lam, value: value
        == (1 if tuple(sorted(mu + nu, reverse=True)) == lam else 0),
        lambda mu, nu, lam, *_: f"{V._e_str(mu)}*{V._e_str(nu)} vs {SYM.key_str(lam)}")


# each row: (its key-pair oracle, the suite's sparse-row finder)
ADJOINT_ROWS = {
    "z-adjoint": (z_adjoint_by_pairs,
                  lambda d: V._adjoint_failure(V._z_adjoint_blocks(d), NSYM.key_str,
                                               HK.key_str)),
    "alpha": (alpha_by_pairs,
              lambda d: V._adjoint_failure(V._alpha_blocks(d), NSYM.key_str, QSYM.key_str)),
    "delta": (delta_by_pairs, lambda d: V._delta_failure(d)),
}


def _element_degree(x):
    return max((HK.degree(k) if isinstance(k, Forest) else sum(k) for k in x.keys()),
               default=0)


# a map that the rows read from treehopf.verify -> (the degree of its input,
# the least suite degree whose rows reach an input of degree 4): alpha_minus
# pairs degrees n - 1 and n, and the delta row runs to degree d + 1
BROKEN_FROM_DEGREE_4 = {"Z": (_element_degree, 4), "alpha_minus_dual": (_element_degree, 5),
                        "e_to_m_row": (sum, 3)}


@pytest.mark.parametrize("broken", [None] + sorted(BROKEN_FROM_DEGREE_4))
def test_adjoint_and_delta_rows_match_the_key_pair_walks_through_degree_7(
        broken, monkeypatch, fresh_caches):
    seen_from = 8
    if broken:
        fn, (degree, seen_from) = getattr(V, broken), BROKEN_FROM_DEGREE_4[broken]
        monkeypatch.setattr(V, broken, lambda x: fn(x) if degree(x) < 4 else 2 * fn(x))
    outcomes = {}
    for name, (oracle, row) in ADJOINT_ROWS.items():
        for d in range(8):
            outcomes[name, d] = row(d)
            assert outcomes[name, d] == oracle(d), (name, d)
    # the rows pass on the working maps, and a broken map fails one of them
    # from the first degree that reaches the break on
    failing = {d for (name, d), got in outcomes.items() if got is not None}
    assert failing == set(range(seen_from, 8))


def test_a_transpose_that_drops_a_column_fails_against_the_oracle(monkeypatch):
    transpose = V._transpose
    monkeypatch.setattr(V, "_transpose", lambda columns: transpose(list(columns)[:-1]))
    for name in ("z-adjoint", "alpha"):
        oracle, row = ADJOINT_ROWS[name]
        assert oracle(3) is None
        assert row(3) is not None, name


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


# ------------------------------------------------- identity-free sums

# LinComb's sums before they skipped identities (0 + x for a new key, 1 * x
# for a unit coefficient), copied as they were but for reading terms through
# ``items()``: ``_terms`` is private to foundations.

def _whole_by_loop(data):
    for key, c in data.items():
        if type(c) is Fraction and c.denominator == 1:
            data[key] = c.numerator
    return data


def init_by_loop(terms=()):
    data = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for key, coeff in items:
        cur = data.get(key, 0) + coeff
        if cur:
            data[key] = cur
        else:
            data.pop(key, None)
    return LinComb.trusted(data)


def add_by_loop(self, other):
    data = dict(self.items())
    for key, c in other.items():
        cur = data.get(key, 0) + c
        if cur:
            data[key] = cur
        else:
            data.pop(key, None)
    return LinComb.trusted(data)


def sub_by_loop(self, other):
    data = dict(self.items())
    for key, c in other.items():
        cur = data.get(key, 0) - c
        if cur:
            data[key] = cur
        else:
            data.pop(key, None)
    return LinComb.trusted(data)


def apply_linear_by_loop(self, image):
    data = {}
    fractions = False
    for key, c in self.items():
        fractions = fractions or type(c) is Fraction
        for k2, c2 in image(key).items():
            cur = data.get(k2, 0) + c * c2
            if cur:
                data[k2] = cur
            else:
                data.pop(k2, None)
    return LinComb.trusted(_whole_by_loop(data) if fractions else data)


def bilinear_by_loop(a, b, image):
    data = {}
    fractions = False
    b_terms = b.items()
    for k1, c1 in a.items():
        for k2, c2 in b_terms:
            c = c1 * c2
            fractions = fractions or type(c) is Fraction
            for key, ck in image(k1, k2).items():
                cur = data.get(key, 0) + c * ck
                if cur:
                    data[key] = cur
                else:
                    data.pop(key, None)
    return LinComb.trusted(_whole_by_loop(data) if fractions else data)


def scaled_sum_by_loop(scaled):
    data = {}
    fractions = False
    for c, items in scaled:
        fractions = fractions or type(c) is Fraction
        for key, x in items:
            cur = data.get(key, 0) + c * x
            if cur:
                data[key] = cur
            else:
                data.pop(key, None)
    return LinComb.trusted(_whole_by_loop(data) if fractions else data)


def tensor_sum_by_loop(scaled):
    """The sum of each c (a (x) b) as a loop, then every whole coefficient
    made an ``int``."""
    data = {}
    for c, a, b in scaled:
        for k1, x in a.items():
            for k2, y in b.items():
                cur = data.get((k1, k2), 0) + c * x * y
                if cur:
                    data[(k1, k2)] = cur
                else:
                    data.pop((k1, k2), None)
    return LinComb.trusted(_whole_by_loop(data))


def tensor_by_loop(a, b):
    """The outer product as it was, but with zero products pruned, then
    whole coefficients made ``int``s if a coefficient of either factor is a
    ``Fraction``."""
    data = {(k1, k2): c1 * c2 for k1, c1 in a.items() for k2, c2 in b.items() if c1 * c2}
    if any(type(c) is Fraction for x in (a, b) for _, c in x.items()):
        _whole_by_loop(data)
    return LinComb.trusted(data)


def _typed(x):
    """Each coefficient with its type: 2 and Fraction(2) differ."""
    return {k: (type(c), c) for k, c in x.items()}


def _check_sums_against_the_loops():
    """A seeded search for inputs on which a sum of LinComb differs from its
    loop, in value or in the type of a coefficient; raises AssertionError."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = st.integers(0, 3)
    coeffs = st.one_of(
        st.integers(-3, 3).filter(bool),
        st.fractions(-3, 3, max_denominator=4).filter(bool),
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(2)]),
    )
    lincombs = st.dictionaries(keys, coeffs, max_size=4).map(LinComb.trusted)
    # a dict image may carry zeros, which every sum prunes
    dicts = st.dictionaries(keys, st.one_of(coeffs, st.sampled_from([0, Fraction(0)])),
                            max_size=4)
    images = st.lists(st.one_of(lincombs, dicts), min_size=4, max_size=4)
    pairs = st.lists(st.tuples(keys, st.one_of(coeffs, st.just(0))), max_size=6)
    one, half = LinComb.single, Fraction(1, 2)

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=200, report_multiple_bugs=False)
    @hypothesis.given(lincombs, lincombs, images, pairs)
    # a one-term sum of a dict image with a zero, under coefficients 1 and 2
    @hypothesis.example(one(0), one(1, 2), [{1: 0, 2: 3}] * 4, [])
    # terms that cancel, and Fraction terms that sum to a whole number
    @hypothesis.example(LinComb.trusted({0: 1, 1: -1}), LinComb.trusted({0: half, 1: half}),
                        [{2: 1, 3: half}, {2: 1, 3: -half}, one(3, half), one(2)],
                        [(0, half), (0, half), (1, 1), (1, -1)])
    def check(a, b, imgs, pairs):
        image = imgs.__getitem__

        def pair_image(k1, k2):
            return imgs[(k1 + k2) % 4]

        # a stream per term of a, of the images of its key and the next
        scaled = [(c, imgs[k], imgs[(k + 1) % 4]) for k, c in a.items()]
        streams = [(c, x.items()) for c, x, _ in scaled]
        for got, want in (
            (a.apply_linear(image), apply_linear_by_loop(a, image)),
            (LinComb.bilinear(a, b, pair_image), bilinear_by_loop(a, b, pair_image)),
            (a + b, add_by_loop(a, b)),
            (a - b, sub_by_loop(a, b)),
            (LinComb(pairs), init_by_loop(pairs)),
            (LinComb(dict(pairs)), init_by_loop(dict(pairs))),
            (LinComb.tensor(a, b), tensor_by_loop(a, b)),
            (LinComb.tensor(a, imgs[0]), tensor_by_loop(a, imgs[0])),
            (LinComb.scaled_sum(streams), scaled_sum_by_loop(streams)),
            (LinComb.tensor_sum(scaled), tensor_sum_by_loop(scaled)),
        ):
            assert _typed(got) == _typed(want), (a, b, imgs, pairs)

    check()


def test_sums_match_the_loops_in_value_and_type():
    _check_sums_against_the_loops()


def test_the_loops_catch_a_one_term_sum_that_ignores_its_coefficient(monkeypatch):
    one_term = treehopf.foundations._one_term
    monkeypatch.setattr(treehopf.foundations, "_one_term", lambda c, image: one_term(1, image))
    with pytest.raises(AssertionError):
        _check_sums_against_the_loops()


def test_tensor_map_of_a_fraction_valued_map_gives_ints_on_integer_input():
    # (1/2 x) (x) (4 y), three times: 6, an int, where the outer product of
    # the images alone used to leave Fraction(2)
    t = LinComb.trusted({("a", "b"): 3, ("c", "d"): -1})
    got = tensor_map(t, lambda k: s(k, Fraction(1, 2)), lambda k: s(k, Fraction(4)))
    assert _typed(got) == {("a", "b"): (int, 6), ("c", "d"): (int, -2)}
    assert _typed(LinComb.tensor(s("x", Fraction(1, 2)), s("y", 2))) == {("x", "y"): (int, 1)}


def test_sums_in_foundations_build_no_fraction_for_an_identity(monkeypatch, fresh_caches):
    """While the hexagon and divided-powers suites run, no line of
    foundations computes 0 + x, x + 0, 1 * x or x * 1 with a Fraction x."""
    identities = []

    def watch(name, unit):
        op = getattr(Fraction, name)

        def watched(x, y):
            caller = sys._getframe(1).f_code
            if (x == unit or y == unit) and caller.co_filename == foundations_file:
                identities.append((name, caller.co_name, x, y))
            return op(x, y)

        monkeypatch.setattr(Fraction, name, watched)

    foundations_file = treehopf.foundations.__file__
    for name in ("__add__", "__radd__"):
        watch(name, 0)
    for name in ("__mul__", "__rmul__"):
        watch(name, 1)
    assert run_suite("hexagon", 5).ok and run_suite("divided-powers", 6).ok
    assert identities == []
    # the watch sees identities computed on a line of foundations
    exec(compile("0 + half, half * 1", foundations_file, "eval"), {"half": Fraction(1, 2)})
    assert [name for name, *_ in identities] == ["__radd__", "__mul__"]


# ------------------------------------------------------------ fused sums

# The hopf-axioms rows and the pairing exchange as they were before each
# summed its terms in one pass: a dict or LinComb per term of a coproduct,
# or a LinComb of k1 (x) k2, summed again by ``apply_linear``.  The loops
# of the free product and tensor product are checked against
# ``product_by_loops`` and ``tensor_mult_by_loops`` above.

def coassoc_by_nesting(alg, key):
    ck = alg._ck
    lhs = ck(key).apply_linear(lambda p: {(a, b, p[1]): c for (a, b), c in ck(p[0]).items()})
    rhs = ck(key).apply_linear(lambda p: {(p[0], a, b): c for (a, b), c in ck(p[1]).items()})
    return lhs, rhs


def convolutions_by_nesting(alg, key):
    cop, S, pk = alg._ck(key), alg.antipode_key, alg._pk
    left = cop.apply_linear(lambda p: S(p[0]).apply_linear(lambda u: pk(u, p[1])))
    right = cop.apply_linear(lambda p: S(p[1]).apply_linear(lambda u: pk(p[0], u)))
    return left, right


def coproduct_row_by_tensor(row1, row2, cop):
    return _through(cop, LinComb.tensor(row1, row2))


def _exchanged_rows(A, B, pairing, degree):
    """Cases (row1, row2, cop) as ``check_pairing_compatibility`` reads
    them through ``degree``: the rows of two keys of one side, and the
    transposed coproducts of the other side's keys of their total degree,
    both ways."""
    cols = {}
    for n in range(degree + 1):
        _transpose(((w, pairing.row(w)) for w in A.basis(n)), cols)
        for P, Q, row in ((A, B, pairing.row), (B, A, lambda k: cols.get(k, {}))):
            cop = _transpose((q, Q._ck(q)) for q in Q.basis(n))
            for k1, k2 in _key_pairs(P.basis, n):
                yield row(k1), row(k2), cop


def associativity_by_products(alg, kx, ky, kz):
    """(x y) z and x (y z) of three keys, each product of keys read through
    the product table and summed by ``apply_linear``."""
    pk = alg._pk
    return (pk(kx, ky).apply_linear(lambda k: pk(k, kz)),
            pk(ky, kz).apply_linear(lambda k: pk(kx, k)))


def _check_fused_sums(degree=5):
    """Every one-pass sum against its nesting, in value and type, on every
    key and pair of keys through ``degree`` of the seven algebras: both
    sides of coassociativity and of the antipode convolution,
    ``tensor_map`` of a key's coproduct under S (x) id, ``tensor_mult`` of
    two keys' coproducts and ``_times`` of two keys' antipodes; in a free
    algebra, on every triple of keys, the two key products that the
    associativity row compares against the products read through the
    product table; and the coproduct rows of every pairing in
    ``COMPATIBLE``.  Raises AssertionError."""
    for alg in ALGEBRAS:
        for n in range(degree + 1):
            for key in alg.basis(n):
                got = _coassoc_sides(alg, key) + _convolutions(alg, key)
                want = coassoc_by_nesting(alg, key) + convolutions_by_nesting(alg, key)
                assert list(map(_typed, got)) == list(map(_typed, want)), (alg.name, key)
                cop = alg._ck(key)
                assert _typed(tensor_map(cop, alg.antipode_key, s)) == _typed(
                    tensor_map_by_loops(cop, alg.antipode_key, s, [0])), (alg.name, key)
        for k1, k2, n in _pairs(alg.basis, degree):
            t1, t2 = alg._ck(k1), alg._ck(k2)
            assert _typed(tensor_mult(alg, t1, t2)) == _typed(
                tensor_mult_by_loops(alg, t1, t2, [0])), (alg.name, k1, k2)
            a, b = alg.antipode_key(k1), alg.antipode_key(k2)
            assert _typed(alg._times(a, b)) == _typed(product_by_loops(alg, a, b, [0])), (
                alg.name, k1, k2)
        key_product = alg.key_product
        if key_product is None:
            continue
        for kx, ky, kz, xy in _triples(alg, degree):
            got = s(key_product(xy, kz)), s(key_product(kx, key_product(ky, kz)))
            want = associativity_by_products(alg, kx, ky, kz)
            assert list(map(_typed, got)) == list(map(_typed, want)), (alg.name, kx, ky, kz)
    for name, (A, B, pairing) in COMPATIBLE.items():
        for row1, row2, cop in _exchanged_rows(A, B, pairing, degree):
            assert _typed(_coproduct_row(row1, row2, cop)) == _typed(
                coproduct_row_by_tensor(row1, row2, cop)), (name, row1, row2)


def test_fused_sums_match_the_nesting_through_degree_5(fresh_caches):
    _check_fused_sums()


def scaled_sum_keeping_zeros(scaled):
    """``LinComb.scaled_sum`` with one fault: a key whose terms cancel
    keeps a zero coefficient."""
    data = {}
    for c, items in scaled:
        for key, x in items:
            data[key] = data.get(key, 0) + c * x
    return LinComb.trusted(data)


_TENSOR_SUM = LinComb.tensor_sum


def tensor_sum_scaling_twice(scaled):
    """``LinComb.tensor_sum`` with one fault: each c (a (x) b) is scaled by
    c once more."""
    return _TENSOR_SUM((c * c, a, b) for c, a, b in scaled)


def with_fault(owner, name, old, new):
    """The function ``name`` of ``owner``, a module or a class, compiled
    again from its source with ``old`` replaced by ``new``: a summing loop
    written inline, with one fault."""
    fn = vars(owner)[name]
    source = textwrap.dedent(inspect.getsource(fn))
    assert old in source, (name, old)
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(source.replace(old, new), fn.__code__.co_filename, "exec"), namespace)
    return namespace[name]


def _patch_with_fault(monkeypatch, owner, name, old, new):
    """``owner.name`` replaced by ``with_fault(owner, name, old, new)``, and
    so is the copy of the name that verify or this module imported."""
    broken = with_fault(owner, name, old, new)
    monkeypatch.setattr(owner, name, broken)
    for module in (treehopf.verify, sys.modules[__name__]):
        if module is not owner and name in vars(module):
            monkeypatch.setattr(module, name, broken)


@pytest.mark.parametrize("name, broken", [("scaled_sum", scaled_sum_keeping_zeros),
                                          ("tensor_sum", tensor_sum_scaling_twice)],
                         ids=["scaled_sum-keeps-a-zero", "tensor_sum-scales-twice"])
def test_the_nestings_catch_a_broken_fused_sum(name, broken, monkeypatch, fresh_caches):
    monkeypatch.setattr(LinComb, name, staticmethod(broken))
    with pytest.raises(AssertionError):
        _check_fused_sums()


# each summing loop written outside foundations, with one fault: its
# owner, its name, the text replaced and its replacement; and the
# hopf-axioms rows that then fail at degree 4
BROKEN_LOOPS = {
    "_times-reversed": (HopfAlgebra, "_times", "key_product(k1, k2)", "key_product(k2, k1)",
                        {"hf: antipode convolution identity",
                         "nsym: antipode convolution identity"}),
    "tensor_mult-reversed": (treehopf.hopf, "tensor_mult", "key_product(p1, q1)",
                             "key_product(q1, p1)",
                             {f"{name}: {row}" for name in ("hf", "nsym")
                              for row in ("antipode convolution identity", "counit laws",
                                          "coproduct is coassociative")}
                             | {"nsym: coproduct is cocommutative"}),
    "_coassoc_sides-swapped": (treehopf.verify, "_coassoc_sides", "k = y, a, b", "k = y, b, a",
                               {f"{name}: coproduct is coassociative"
                                for name in ("ck", "hf", "kp", "qsym")}),
    "_convolutions-reversed": (treehopf.verify, "_convolutions", "k = key_product(u, z)",
                               "k = key_product(z, u)", {"hf: antipode convolution identity"}),
}


@pytest.mark.parametrize("case", sorted(BROKEN_LOOPS))
def test_the_oracle_and_the_axioms_catch_a_broken_loop(case, monkeypatch, fresh_caches):
    *loop, rows = BROKEN_LOOPS[case]
    _patch_with_fault(monkeypatch, *loop)
    with pytest.raises(AssertionError):
        _check_fused_sums()
    clear_caches()
    report = run_suite("hopf-axioms", 4)
    assert {r.identity for r in report.results if r.status == "fail"} == rows


def _memo_entries():
    """Every product, coproduct and antipode memo entry of the seven
    algebras, with a copy of its terms; a free algebra has no product
    table."""
    return {(alg.name, name, key): (value, dict(value.items()))
            for alg in ALGEBRAS
            for name in ("_prod_memo", "_cop_memo", "_antipode_memo") if hasattr(alg, name)
            for key, value in getattr(alg, name).items()}


def test_fused_sums_write_to_no_memo_entry(fresh_caches):
    _check_fused_sums(4)
    before = _memo_entries()
    _check_fused_sums(4)
    after = _memo_entries()
    assert after.keys() == before.keys()
    for entry, (value, terms) in before.items():
        assert after[entry][0] is value and dict(value.items()) == terms, entry


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


def nsym_coproduct_by_splits(comp):
    """The coproduct of E_comp as the DP over the splits of each part i into
    i' + i'' (zero parts dropped), one part at a time."""
    acc = {((), ()): 1}
    for part in comp:
        new = {}
        for (l, r), c in acc.items():
            for i in range(part + 1):
                key = (l + ((i,) if i else ()), r + ((part - i,) if part - i else ()))
                new[key] = new.get(key, 0) + c
        acc = new
    return LinComb.trusted(acc)


def _antipodes_match(alg, degree=5, extra=()):
    memo = {}
    oracle = lambda k: antipode_by_accumulation(alg, k, memo)
    for key in chain((k for n in range(degree + 1) for k in alg.basis(n)), extra):
        assert alg.antipode_key(key) == oracle(key), alg.key_str(key)
    rng = random.Random(f"antipode {alg.name}")
    for _ in range(20):
        a = _random_element(rng, alg, range(6))
        assert alg.antipode(a) == _by_keys(a, oracle)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: alg.name)
def test_antipode_matches_the_accumulator_through_degree_5(alg, fresh_caches):
    _antipodes_match(alg)


@pytest.mark.parametrize("alg, degree, extra", [
    (SYM, 10, ()), (QSYM, 9, ()), (NSYM, 5, [(n,) for n in range(6, 11)]), (HK, 8, ()),
    (HF, 8, ())], ids=["sym", "qsym", "nsym", "ck", "hf"])
def test_closed_form_antipodes_match_the_accumulator(alg, degree, extra, fresh_caches):
    # the closed forms on every key (sym, qsym) or generator (E_n, one-tree
    # forests), and on products of generators through their factors
    _antipodes_match(alg, degree, extra)


# a broken closed form: (algebra, the attribute broken, the broken attribute
# made from the original, the degree of hopf-axioms that sees it, the
# first key of its failing row)
ANTIPODE_DEFECTS = {
    # M_a's coarsenings taken on a as written, not reversed
    "qsym coarsens a unreversed": (QSYM, "antipode_rule",
                                   lambda rule: lambda comp: rule(comp[::-1]), 3, "M(2,1)"),
    # the pieces cut off in pre-order of their cut edges; a tree needs four
    # vertices to have two different pieces to cut off, so degree 3 cannot
    # see it
    "hf pieces in pre-order": (
        HF, "_cuts",
        lambda cuts: lambda t: {(trunk, pieces[::-1]): n for (trunk, pieces), n in cuts(t).items()},
        4, "([[[][]]])"),
}


@pytest.mark.parametrize("defect", list(ANTIPODE_DEFECTS))
def test_broken_closed_form_antipodes_fail_the_oracle_and_the_axioms(defect, monkeypatch,
                                                                     fresh_caches):
    alg, attr, breaking, degree, key = ANTIPODE_DEFECTS[defect]
    monkeypatch.setitem(vars(alg), attr, breaking(getattr(type(alg), attr).__get__(alg)))
    with pytest.raises(AssertionError):
        _antipodes_match(alg)
    clear_caches()
    report = run_suite("hopf-axioms", degree - 1)
    assert report.ok
    clear_caches()
    report = run_suite("hopf-axioms", degree)
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == {f"{alg.name}: antipode convolution identity": key}


def test_sym_antipode_is_the_signed_involution_omega_through_degree_8(fresh_caches):
    # S(m_lam) = (-1)^|lam| omega(m_lam), and omega sends e_mu to h_mu: the
    # m_lam = sum c_mu e_mu of m_to_e gives sum c_mu h_mu, with no antipode
    for n in range(9):
        for lam in partitions_of(n):
            omega = m_to_e(s(lam)).apply_linear(
                lambda mu: reduce(SYM.product, map(h, mu), SYM.one()))
            assert SYM.antipode_key(lam) == (-1) ** n * omega, lam


def test_five_algebras_take_no_antipode_recursion(monkeypatch, fresh_caches):
    def recursion(self, key):
        raise AssertionError(f"{self.name} took the recursion at {self.key_str(key)}")

    monkeypatch.setattr(HopfAlgebra, "antipode_rule", recursion)
    for alg in (SYM, QSYM, NSYM, HK, HF):
        for n in range(7):
            for key in alg.basis(n):
                alg.antipode_key(key)
    with pytest.raises(AssertionError, match="kt took the recursion at"):
        KT.antipode_key(corolla(2))


def _forest_coproducts_match(alg):
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


@pytest.mark.parametrize("alg", (HK, HF), ids=lambda alg: alg.name)
def test_forest_coproduct_matches_the_per_tree_recursion_through_degree_7(alg,
                                                                          fresh_caches):
    _forest_coproducts_match(alg)


def _nsym_coproducts_match():
    for n in range(9):
        for comp in compositions_of(n):
            assert NSYM._ck(comp) == nsym_coproduct_by_splits(comp), comp


def test_nsym_coproduct_matches_the_split_dp_through_degree_8(fresh_caches):
    _nsym_coproducts_match()


COPRODUCTS_MATCH = {"hf": lambda: _forest_coproducts_match(HF), "nsym": _nsym_coproducts_match}


@pytest.mark.parametrize("alg", (HF, NSYM), ids=lambda alg: alg.name)
def test_the_oracles_catch_factors_in_reverse_order(alg, monkeypatch, fresh_caches):
    # a split that hands back (last, rest): every fold over it multiplies
    # the generators of a key in reverse order
    split = type(alg).split.__get__(alg)
    monkeypatch.setitem(vars(alg), "split", lambda key: (pair := split(key)) and pair[::-1])
    with pytest.raises(AssertionError):
        COPRODUCTS_MATCH[alg.name]()
    clear_caches()
    with pytest.raises(AssertionError):
        _antipodes_match(alg)


def _unreversed_antipode(alg):
    """The fill of the antipode table, with one fault: a key that splits
    is S(rest) S(last), not S(last) S(rest)."""
    S = alg._antipode_memo
    return lambda key, _: (alg._times(S[pair[0]], S[pair[1]]) if (pair := alg.split(key))
                           else alg._antipode_generator(key))


@pytest.mark.parametrize("alg, key", [(HF, "([],[[]])"), (NSYM, "E(2,1)")],
                         ids=["hf", "nsym"])
def test_the_oracle_and_the_axioms_catch_an_unreversed_antipode(alg, key, monkeypatch,
                                                                fresh_caches):
    monkeypatch.setattr(alg._antipode_memo, "fill", _unreversed_antipode(alg))
    with pytest.raises(AssertionError):
        _antipodes_match(alg)
    clear_caches()
    assert run_suite("hopf-axioms", 2).ok
    clear_caches()
    report = run_suite("hopf-axioms", 3)
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == {f"{alg.name}: antipode convolution identity": key}


def _generators(alg, key):
    """The generators of a key, in order, by ``split``."""
    gens = []
    while (pair := alg.split(key)) is not None:
        key, last = pair
        gens.append(last)
    return [key] + gens[::-1]


@pytest.mark.parametrize("alg, text", [(NSYM, "E(4,4,3,3,2,2)"),
                                       (HF, "([[][]],[[[]]],[[][]],[[]],[[]])")],
                         ids=["nsym", "hf"])
def test_coproduct_key_sees_only_generators_and_the_unit(alg, text, monkeypatch,
                                                         fresh_caches):
    seen = []
    coproduct_key = type(alg).coproduct_key.__get__(alg)
    monkeypatch.setitem(vars(alg), "coproduct_key", lambda k: seen.append(k) or coproduct_key(k))
    (key,) = parse_element(text, alg.name).keys()
    gens = _generators(alg, key)
    assert len(gens) > 1
    alg.antipode_key(key)
    alg._ck(key)
    unit = alg.unit_key()
    assert set(gens) <= set(seen)
    assert all(k == unit or alg.split(k) is None for k in seen), seen


def test_antipodes_of_long_products_leave_the_recursion_limit_alone(fresh_caches):
    # the antipode and the coproduct fold over a key's generators from an
    # explicit stack: a product of more generators than the recursion
    # limit still gets both
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        leaves = Forest((RootedTree(),) * 1200)
        assert HK.antipode_key(leaves) == s(leaves, (-1) ** 1200)
        assert NSYM.antipode_key((1,) * 1000) == s((1,) * 1000)
        n = 300
        assert HK._ck(Forest((RootedTree(),) * n)) == LinComb.trusted({
            (Forest((RootedTree(),) * i), Forest((RootedTree(),) * (n - i))): comb(n, i)
            for i in range(n + 1)})
        assert NSYM._ck((1,) * n) == LinComb.trusted({
            ((1,) * i, (1,) * (n - i)): comb(n, i) for i in range(n + 1)})
    finally:
        sys.setrecursionlimit(limit)


# -------------------------------------------------------- free key products

# the product of two keys of each free algebra as the one-term product
# built it: the factors concatenated, an unordered forest's trees then put
# in the canonical order
CONCATENATED = {"ck": lambda f, g: Forest(f.trees + g.trees),
                "hf": lambda f, g: OrderedForest(f.trees + g.trees), "nsym": add}


@pytest.mark.parametrize("alg", (HK, HF, NSYM), ids=lambda alg: alg.name)
def test_key_product_is_the_one_key_of_the_product_through_degree_6(alg, fresh_caches):
    oracle = CONCATENATED[alg.name]
    for n in range(7):
        for k1, k2 in _key_pairs(alg.basis, n):
            want = s(oracle(k1, k2))
            assert s(alg.key_product(k1, k2)) == want == alg._pk(k1, k2), (k1, k2)


def test_the_axioms_catch_a_reversed_key_product(monkeypatch, fresh_caches):
    # HF's key product with its factors swapped: the product, and every sum
    # of key products, multiplies in the opposite order
    key_product = type(HF).key_product.__get__(HF)
    monkeypatch.setitem(vars(HF), "key_product", lambda f, g: key_product(g, f))
    assert run_suite("hopf-axioms", 2).ok
    failed = [r for r in run_suite("hopf-axioms", 3).results if r.status == "fail"]
    assert (failed[0].identity, failed[0].counterexample) == (
        "hf: coproduct is coassociative", "([],[[]])")
    assert {r.identity.split(":")[0] for r in failed} == {"hf"}


# ---------------------------------------------------------- divided powers

@memo
def epsilon_by_recursion(n: int) -> LinComb:
    """Divided-power sequence: alternating convolution inverse of kappa.

    epsilon(n) = kappa(1)∘epsilon(n-1) - kappa(2)∘epsilon(n-2) + ...
    ± kappa(n), with epsilon(0) the unit.  Equals 1/n! times the corolla
    with n leaf children.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return KT.one()
    acc = LinComb.zero()
    sign = 1
    for i in range(1, n + 1):
        acc += sign * KT.product(kappa(i), epsilon_by_recursion(n - i))
        sign = -sign
    return acc


def test_epsilon_is_the_recursion_in_value_and_type_through_the_series_cap():
    # every epsilon the CLI prints
    for n in range(SERIES_CAP + 1):
        assert _typed(epsilon(n)) == _typed(epsilon_by_recursion(n)), n
        assert {type(c) for _, c in epsilon(n).items()} == {int if n <= 1 else Fraction}, n


def test_the_divided_powers_suite_sees_epsilon_wrong_at_one_degree(monkeypatch):
    true_epsilon = treehopf.hopf_rooted.epsilon
    monkeypatch.setattr(treehopf.verify, "epsilon", lambda n: s(corolla(5), Fraction(1, 24))
                        if n == 5 else true_epsilon(n))
    report = run_suite("divided-powers", 6)
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == {
        "alternating tree elements are divided powers": "n = 5",
        "alternating elements are the signed antipode images": "n = 5",
        "factorial multiple is the star tree": "n = 5",
        "ladder projection of the alternating element is elementary": "n = 5",
    }
    assert "  [FAIL] factorial multiple is the star tree (n <= 6)\n" \
           "         counterexample: n = 5" in report.lines()


# ------------------------------------------------- Z and rows scaled to ints

@memo
def z_by_fractions(comp) -> LinComb:
    """Z(E_comp) as it was folded before its table held integers: the
    product epsilon(a_1) ... epsilon(a_m), in Fractions, prefix by prefix."""
    if not comp:
        return KT.one()
    return KT._times(z_by_fractions(comp[:-1]), epsilon(comp[-1]))


def test_Z_is_the_fraction_fold_in_value_and_type_through_degree_10(fresh_caches):
    for n in range(11):
        for comp in compositions_of(n):
            assert _typed(Z(s(comp))) == _typed(z_by_fractions(comp)), comp
    # the table keeps the products of corollas, in ints, and nothing else
    table = treehopf.morphisms._Z_MEMO
    assert {type(c) for whole in table.values() for _, c in whole.items()} == {int}


def _scaled_z_rows(lower):
    """Each row that reads Z from its integer table, by name: (its sides,
    times the scale, as the suite computes them; its sides as computed
    before, from Fraction Z), each a function of (E_comp, scale)."""
    z_int, z_frac = V._z_times, lambda x: x.apply_linear(z_by_fractions)
    Phi = MAP_TABLE["Phi"][2]
    return {
        "left triangle": (lambda x, k: (phi_star(z_int(x, k)), tau(x) * k),
                          lambda x: (phi_star(z_frac(x)), tau(x))),
        "full circuit": (lambda x, k: (Z_star(rho(Phi(x))) * k, z_int(x, k).apply_linear(lower)),
                         lambda x: (Z_star(rho(Phi(x))), z_frac(x).apply_linear(lower))),
        "dual append": (lambda x, k: (z_int(alpha_plus_dual(x), k),
                                      strip_primitive_root(z_int(x, k))),
                        lambda x: (z_frac(alpha_plus_dual(x)), strip_primitive_root(z_frac(x)))),
        "dual strip": (lambda x, k: (z_int(alpha_minus_dual(x), k),
                                     KT._times(z_int(x, k), epsilon(1))),
                       lambda x: (z_frac(alpha_minus_dual(x)), KT._times(z_frac(x), epsilon(1)))),
    }


def test_the_rows_on_integer_Z_are_the_fraction_rows_times_the_scale(fresh_caches):
    # each side of the hexagon's left triangle and full circuit through the
    # hexagon's cap, and of zstar-intertwine's dual rows through theirs,
    # is the side computed from Fraction Z times the product of the
    # factorials of the parts, in value and in type
    Phistar, rhostar = (MAP_TABLE[m][2] for m in ("Phistar", "rhostar"))
    lower = treehopf.foundations._Table(lambda t: Phistar(rhostar(s(t)))).__getitem__
    caps = {"left triangle": V._SUITES["hexagon"][1], "full circuit": V._SUITES["hexagon"][1],
            "dual append": V._SUITES["zstar-intertwine"][1] - 1,
            "dual strip": V._SUITES["zstar-intertwine"][1] - 1}
    for name, (scaled, fractions) in _scaled_z_rows(lower).items():
        for n in range(caps[name] + 1):
            for comp in compositions_of(n):
                x = s(comp)
                scale = prod(map(factorial, comp))
                assert V._z_scale(comp) == scale
                want = [side * Fraction(scale) for side in fractions(x)]
                assert list(map(_typed, scaled(x, scale))) == list(map(_typed, want)), (name, comp)


def _scaled_factorial_rows(kappas, epsilons):
    """Each divided-powers row that compares sides times n!, by name: (its
    sides from n! kappa(n) and n! epsilon(n), as the suite computes them;
    its sides as computed before, in Fractions), each a function of n."""
    def delta(n):
        return KT.one() if n == 0 else LinComb.zero()

    def alternating(n, ks, es, weight):
        return sum(((-1) ** i * weight(n, i) * KT._times(ks(i), es(n - i))
                    for i in range(n + 1)), LinComb.zero())

    K, E = kappas.__getitem__, epsilons.__getitem__
    S = KT.antipode_key
    return {
        "symmetry-weighted tree sums": (
            lambda n: (K(n).apply_linear(KT._ck),
                       LinComb.tensor_sum((comb(n, i), K(i), K(n - i)) for i in range(n + 1))),
            lambda n: (kappa(n).apply_linear(KT._ck),
                       LinComb.tensor_sum((1, kappa(i), kappa(n - i)) for i in range(n + 1)))),
        "signed antipode images": (
            lambda n: (E(n), (-1) ** n * K(n).apply_linear(S)),
            lambda n: (epsilon(n), (-1) ** n * kappa(n).apply_linear(S))),
        "factorial multiple": (
            lambda n: (alternating(n, K, E, comb), delta(n)),
            lambda n: (alternating(n, kappa, epsilon, lambda n, i: 1), delta(n))),
        "ladder projection of the weighted sum": (
            lambda n: (phi_star(K(n)), h(n) * factorial(n)),
            lambda n: (phi_star(kappa(n)), h(n))),
        "ladder projection of the alternating element": (
            lambda n: (phi_star(E(n)), e(n) * factorial(n)),
            lambda n: (phi_star(epsilon(n)), e(n))),
    }


def test_the_factorial_rows_are_the_fraction_rows_times_n_factorial(fresh_caches):
    # through the divided-powers suite's cap, in value and in type
    cap = V._SUITES["divided-powers"][1]
    kappas, epsilons = V._factorial_multiples(kappa, cap), V._factorial_multiples(epsilon, cap)
    for n in range(cap + 1):
        assert _typed(kappas[n]) == _typed(kappa(n) * Fraction(factorial(n))), n
        assert {type(c) for _, c in chain(kappas[n].items(), epsilons[n].items())} == {int}, n
    for name, (scaled, fractions) in _scaled_factorial_rows(kappas, epsilons).items():
        for n in range(cap + 1):
            want = [side * Fraction(factorial(n)) for side in fractions(n)]
            assert list(map(_typed, scaled(n))) == list(map(_typed, want)), (name, n)


def drop_a_term_of_one_corolla_product(monkeypatch, comp):
    """Give the integer Z table one fault: the product of corollas it
    fills for ``comp`` loses its last term, and so does every product it
    is a prefix of.  The wrong entries go with the caches."""
    table = treehopf.morphisms._Z_MEMO
    fill = table.fill

    def broken(key, found):
        whole = fill(key, found)
        return LinComb.trusted(dict(list(whole.items())[:-1])) if key == comp else whole

    monkeypatch.setattr(table, "fill", broken)


def test_a_z_table_missing_a_term_fails_the_oracle_and_the_suites(monkeypatch, fresh_caches):
    drop_a_term_of_one_corolla_product(monkeypatch, (1, 1))
    wrong = [comp for n in range(5) for comp in compositions_of(n)
             if Z(s(comp)) != z_by_fractions(comp)]
    assert wrong[0] == (1, 1)
    failed = {}
    for suite in ("hexagon", "zstar-intertwine"):
        report = run_suite(suite, 4)
        failed[suite] = {r.identity: r.counterexample for r in report.results
                         if r.status == "fail"}
    assert failed == {
        "hexagon": {
            "left triangle: ladder-shape projection of the tree image is the "
            "abelianization": "E(1,1)",
            "full circuit: both long ways from divided powers to compositions agree": "E(1,1)",
            "Z is multiplicative": "E(1) , E(1)",
            "Z is comultiplicative": "E(2,1)",
        },
        "zstar-intertwine": {
            "dual append matches root stripping after the single-child projection": "E(1,1)",
            "dual strip matches right multiplication by the chain of two": "E(1)",
        },
    }


def kappa_weight_off_by_one(monkeypatch, n, tree):
    """Give the divided-powers suite's n! kappa(n) one fault: ``tree``, of
    degree n, weighs one more than n!/sym(tree)."""
    multiples = treehopf.verify._factorial_multiples
    monkeypatch.setattr(treehopf.verify, "_factorial_multiples", lambda seq, d: [
        x + s(tree) if seq is kappa and i == n else x for i, x in enumerate(multiples(seq, d))])


def test_an_integer_kappa_weight_off_by_one_fails_the_oracle_and_the_suite(monkeypatch,
                                                                         fresh_caches):
    kappa_weight_off_by_one(monkeypatch, 4, corolla(4))
    kappas = treehopf.verify._factorial_multiples(kappa, 6)
    assert [n for n in range(7) if kappas[n] != kappa(n) * factorial(n)] == [4]
    report = run_suite("divided-powers", 6)
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == {
        "symmetry-weighted tree sums are divided powers": "n = 4",
        "alternating elements are the signed antipode images": "n = 4",
        "factorial multiple is the star tree": "n = 4",
        "ladder projection of the weighted sum is complete": "n = 4",
    }


def test_a_wrong_denominator_in_Z_fails_the_adjoint_row(monkeypatch, fresh_caches):
    # the public Z divides by a scale of 1 at E(2): the dualities suite,
    # which reads the public Z, sees it
    scale = treehopf.morphisms._z_scale
    monkeypatch.setattr(treehopf.morphisms, "_z_scale",
                        lambda comp: 1 if comp == (2,) else scale(comp))
    assert Z(s((2,))) == s(corolla(2))
    report = run_suite("dualities", 3)
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == {"tree embedding is adjoint to the composition quotient": "E(2) , [] []"}


# --------------------------------------------------------------------- kbar

@memo
def kbar_by_downsets(f: Forest) -> LinComb:
    """kbar of one forest as it was computed before leaf stripping: every
    downset of the poset as a bitmask, and at each one every nonempty subset
    of its minimal vertices."""
    child_mask = []

    def build(t):
        my = len(child_mask)
        child_mask.append(0)
        for c in t.children:
            child_mask[my] |= 1 << build(c)
        return my

    for t in f.trees:
        build(t)
    n = len(child_mask)
    full = (1 << n) - 1
    tails = {full: {(): 1}}

    def rest(removed):
        if removed in tails:
            return tails[removed]
        avail = [
            v
            for v in range(n)
            if not removed >> v & 1 and child_mask[v] & removed == child_mask[v]
        ]
        acc = {}
        for bits in range(1, 1 << len(avail)):
            mask = 0
            count = 0
            for i, v in enumerate(avail):
                if bits >> i & 1:
                    mask |= 1 << v
                    count += 1
            for comp, c in rest(removed | mask).items():
                key = (count,) + comp
                acc[key] = acc.get(key, 0) + c
        tails[removed] = acc
        return acc

    out = rest(0)
    # each recursive closure refers to itself through its cell: unbind them,
    # so that the tables they hold are freed now, not by the cyclic collector
    del build, rest
    return LinComb.trusted(out)


def _heavy_kbar_forests():
    """A heavy kbar input of the benchmark's stream, the corolla with 12
    leaves and 12 isolated vertices; the last two take seconds by
    downsets, since every set of their leaves is one."""
    leaves = [rooted_from_string("[]")] * 12
    heavy = map(rooted_from_string, ["[]", "[]", "[[[]][[][][][[]]]]"])
    return [Forest(heavy), Forest([RootedTree(leaves)]), Forest(leaves)]


def test_kbar_is_the_downset_dp_through_degree_8(fresh_caches):
    for n in range(9):
        for f in forests_of_degree(n):
            assert _typed(kbar(s(f))) == _typed(kbar_by_downsets(f)), f


def test_kbar_is_the_downset_dp_on_heavy_forests(fresh_caches):
    for f in _heavy_kbar_forests():
        assert _typed(kbar(s(f))) == _typed(kbar_by_downsets(f)), f


def strip_one_leaf_at_a_time(monkeypatch):
    """Give ``morphisms._kbar_forest`` one fault: each step removes a single
    leaf (``_leaf_moves``), never a larger set of leaves.  The module's own
    code runs, with one step replaced; the wrong values it keeps in the kbar
    table go with the caches."""
    leaf_moves = treehopf.morphisms._leaf_moves
    monkeypatch.setattr(treehopf.morphisms, "_leaf_moves", lambda g: {
        h: m for h, m in leaf_moves(g).items() if g.degree - h.degree == 1})


def test_kbar_stripping_one_leaf_at_a_time_fails_the_oracle_and_the_suite(monkeypatch,
                                                                         fresh_caches):
    strip_one_leaf_at_a_time(monkeypatch)
    broken = treehopf.morphisms._kbar_forest
    wrong = [f for n in range(9) for f in forests_of_degree(n)
             if broken(f) != kbar_by_downsets(f)]
    assert wrong[0] == Forest([rooted_from_string("[]")] * 2)
    report = run_suite("zstar-intertwine", 3)
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == {"poset labeling realization agrees with the recursion": "[] []"}
    assert "  [FAIL] poset labeling realization agrees with the recursion " \
           "(degree <= 3)\n         counterexample: [] []" in report.lines()


# -------------------------------------------------------- hexagon key rules

def test_the_full_circuit_key_rule_is_the_direct_path_through_degree_7(fresh_caches):
    # the hexagon maps Z(x) through Phistar and rhostar one tree at a time,
    # each tree once per run; the direct path maps the whole image at once
    Phistar, rhostar = (MAP_TABLE[m][2] for m in ("Phistar", "rhostar"))
    computed = []

    def lower_of(x):
        computed.append(x)
        return Phistar(rhostar(x))

    lower = treehopf.foundations._Table(lambda t: lower_of(s(t))).__getitem__
    for n in range(8):
        for t in KT.basis(n):
            assert _typed(lower(t)) == _typed(Phistar(rhostar(s(t)))), t
        for comp in compositions_of(n):
            zx = Z(s(comp))
            assert _typed(zx.apply_linear(lower)) == _typed(Phistar(rhostar(zx))), comp
    assert computed == [s(t) for n in range(8) for t in KT.basis(n)]


# ------------------------------------------- zstar surjectivity certificate

def level_sizes(forest):
    """The number of vertices at each depth of a forest, deepest first."""
    sizes, level = [], list(forest.trees)
    while level:
        sizes.append(len(level))
        level = [c for t in level for c in t.children]
    return tuple(reversed(sizes))


def check_the_surjectivity_certificate():
    # the suite's rank is the rank by elimination over every forest's image,
    # the suite's path before the certificate
    for n in range(1, 9):
        assert V._zstar_rank(n) == rank_of([Z_star(s(f)) for f in forests_of_degree(n)], n), n
    # and each level forest has its composition's level sizes and leads with
    # that composition at coefficient 1
    for n in range(1, 10):
        for comp in compositions_of(n):
            forest = V._level_forest(comp)
            assert level_sizes(forest) == comp
            image = Z_star(s(forest))
            lead = V._lead(image)
            assert (lead, image[lead]) == (comp, 1), comp


def test_the_surjectivity_certificate_matches_elimination_over_every_forest():
    check_the_surjectivity_certificate()


def test_leads_under_lexicographic_order_fail_the_certificate_oracle(monkeypatch):
    # the ranks still agree, since distinct leads under any order certify
    # the rank, but under plain lexicographic order the image of [] [[]],
    # the level forest of (1, 2), leads with (2, 1)
    monkeypatch.setattr(V, "_lead", max)
    with pytest.raises(AssertionError, match=r"^\(1, 2\)\nassert \(\(2, 1\), 1\)"):
        check_the_surjectivity_certificate()


def test_images_without_the_one_part_composition_fail_with_the_eliminated_rank(monkeypatch):
    # M_(n) dropped from every image of degree >= 3: no level forest leads
    # with (n), and elimination over every image names the rank
    zstar, rank, eliminated = V.Z_star, V.rank_of, []
    monkeypatch.setattr(
        V, "Z_star", lambda x: zstar(x).filter_keys(lambda c: len(c) > 1 or c[0] < 3))
    monkeypatch.setattr(V, "rank_of", lambda rows, n: eliminated.append(n) or rank(rows, n))
    assert run_suite("zstar-surjectivity", 5).to_dict() == {
        "suite": "zstar-surjectivity", "max_degree": 5, "ok": False,
        "results": [{"identity": "forest images span every composition",
                     "range": "1 <= degree <= 5", "status": "fail",
                     "counterexample": "degree 3: rank 3"}]}
    assert eliminated == [3]


def test_a_level_forest_without_its_lead_falls_back_to_elimination(monkeypatch):
    # the image of the level forest of (2, 2) loses M_(2,2): the certificate
    # fails at degree 4, and the other forests' images still span
    zstar, rank, eliminated = V.Z_star, V.rank_of, []
    target = s(V._level_forest((2, 2)))
    monkeypatch.setattr(V, "Z_star", lambda x: zstar(x).filter_keys(
        lambda c: c != (2, 2)) if x == target else zstar(x))
    monkeypatch.setattr(V, "rank_of", lambda rows, n: eliminated.append(n) or rank(rows, n))
    assert not V._triangular(4)
    assert run_suite("zstar-surjectivity", 6).ok
    assert eliminated == [4]


def _with_lower_term(y):
    n = max(map(sum, y.keys()), default=0)
    return y + s((1,) * (n - 1)) if n >= 2 else y


# a defect in Z_star -> what the suite reports at degree 4, as elimination
# over every forest's image reports it: M_(1^(n-1)) added to every image of
# degree n >= 2 leaves every lead in place, so only the certificate's degree
# check sends it to rank_of, and a zero image has no lead
IMAGE_DEFECTS = {
    "term of lower degree": (_with_lower_term,
                             "ValueError: element not homogeneous of degree 2: (1,)"),
    "zero image of the leaf": (lambda y: y if y.keys() != {(1,)} else LinComb.zero(),
                               "degree 1: rank 0"),
}


@pytest.mark.parametrize("defect", sorted(IMAGE_DEFECTS))
def test_images_off_the_certificate_fail_as_elimination_does(defect, monkeypatch):
    zstar, (broken, text) = V.Z_star, IMAGE_DEFECTS[defect]
    monkeypatch.setattr(V, "Z_star", lambda x: broken(zstar(x)))
    assert run_suite("zstar-surjectivity", 4).results[0].counterexample == text


def test_zstar_surjectivity_estimate_counts_the_certificate_terms():
    for n in range(1, 10):
        terms = sum(len(Z_star(s(V._level_forest(c)))) for c in compositions_of(n))
        assert terms / 5 <= _ESTIMATES["zstar-surjectivity"](n) <= 5 * terms, n


# ------------------------------------------------------------- key kernels

def rearrangements_by_permutations(partition):
    return tuple(sorted(set(permutations(partition))))


def sym_product_through_qsym(lam, mu):
    return collect_sym(QSYM.product(include_sym(s(lam)), include_sym(s(mu))))


def _graft(node, extra, idx):
    """Rebuild ``node`` with extra subtrees attached.  ``extra`` maps the
    preorder index of a vertex to its (gap, subtree) pairs, gaps weakly
    increasing; gap g sits just before the vertex's g-th child, the last
    gap after its last child."""
    my = idx
    idx += 1
    kids = []
    for child in node.children:
        sub, idx = _graft(child, extra, idx)
        kids.append(sub)
    more = extra.get(my)
    if more:
        # last gap first, so that each insertion leaves the earlier gaps put
        for gap, sub in reversed(more):
            kids.insert(gap, sub)
    return type(node)(kids), idx


def _grafts(tp, subs, choices):
    """The tree ``tp`` with the subtrees ``subs`` grafted at one choice of
    attachment points at a time: each choice gives every subtree, in order,
    a (vertex, gap) point; each choice rebuilds a whole tree."""
    for choice in choices:
        extra = {}
        for sub, (v, gap) in zip(subs, choice):
            extra.setdefault(v, []).append((gap, sub))
        yield _graft(tp, extra, 0)[0]


def attachment_points(t):
    """The 2m - 1 attachment points of a planar tree with m vertices, in
    natural order: (preorder index of a vertex, gap among its children),
    for a vertex v with children u_1..u_c gap 0 of v, the points of u_1,
    gap 1 of v, ..., the points of u_c, gap c of v."""
    out = []

    def walk(node, idx):
        my = idx
        idx += 1
        out.append((my, 0))
        for g, child in enumerate(node.children):
            idx = walk(child, idx)
            out.append((my, g + 1))
        return idx

    walk(t, 0)
    del walk  # it refers to itself: unbind it, so that no cycle is left
    return out


def kt_product_by_assignments(t, tp):
    """Every one of the |tp|^k ways to send the k root subtrees of t to
    vertices of tp, each grafted and counted."""
    points = [(v, 0) for v in range(tp.size)]
    return LinComb.tally(_grafts(tp, t.children, product(points, repeat=len(t.children))))


def kp_product_by_choices(t, tp):
    """Every one of the binomial(2m + k - 2, k) weakly increasing choices of
    points of tp for the k ordered root subtrees of t, each grafted and
    counted."""
    choices = combinations_with_replacement(attachment_points(tp), len(t.children))
    return LinComb.tally(_grafts(tp, t.children, choices))


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


def quasi_shuffle_by_first_parts(left, right):
    """M_left M_right by the first-part recursion, one Python call per
    step and no memo: the first part of the left factor, of the right one,
    or both fused, then the product of what is left.  ``QSYM.product_keys``
    unrolls this recursion's chains and fills them from a stack."""
    if not left or not right:
        return s(left + right)
    a, b = left[0], right[0]
    return (quasi_shuffle_by_first_parts(left[1:], right).map_keys(lambda c: (a,) + c)
            + quasi_shuffle_by_first_parts(left, right[1:]).map_keys(lambda c: (b,) + c)
            + quasi_shuffle_by_first_parts(left[1:], right[1:]).map_keys(
                lambda c: (a + b,) + c))


@pytest.mark.parametrize("broken", [False, True], ids=["true", "drops-a-term"])
def test_quasi_shuffle_matches_the_first_part_recursion_through_degree_8(
        broken, monkeypatch, fresh_caches):
    if broken:
        step = type(QSYM)._quasi_shuffle.__get__(QSYM)

        def drops_a_term(pair):
            out = step(pair)
            return LinComb(list(out.items())[:-1]) if len(out) > 1 else out

        monkeypatch.setitem(vars(QSYM), "_quasi_shuffle", drops_a_term)
    pairs = [pair for n in range(9) for pair in _key_pairs(QSYM.basis, n)]
    # and past the 16 parts on which it takes one step, unrolling either factor
    pairs += [((1,) * 12, (1, 2, 1)), ((2, 1, 3), (1,) * 12), ((3, 1, 4, 1, 5), (9, 2, 6, 5)),
              ((1,) * 17, (1, 1, 1)), ((2, 1), (1, 2) * 10), ((1,) * 20, (2, 3))]
    wrong = [pair for pair in pairs if QSYM._pk(*pair) != quasi_shuffle_by_first_parts(*pair)]
    assert bool(wrong) == broken


def _key_pairs_through(alg, degree):
    """Every pair of trees of ``alg`` whose degrees sum to at most ``degree``."""
    return [pair for n in range(degree + 1) for pair in _key_pairs(alg.basis, n)]


def test_attachment_points_count():
    for m in range(1, 7):
        for t in enumerate_planar(m):
            assert len(attachment_points(t)) == 2 * m - 1


def test_kt_product_matches_every_assignment_through_degree_7(fresh_caches):
    for t, tp in _key_pairs_through(KT, 7):
        want = kt_product_by_assignments(t, tp)
        assert KT.product_keys(t, tp) == want, (t, tp)
        assert KT.product(s(t), s(tp)) == want, (t, tp)


def test_kp_product_matches_every_weakly_increasing_choice_through_degree_7(fresh_caches):
    for t, tp in _key_pairs_through(KP, 7):
        want = kp_product_by_choices(t, tp)
        assert KP.product_keys(t, tp) == want, (t, tp)
        assert KP.product(s(t), s(tp)) == want, (t, tp)


def test_the_assignment_oracle_sees_an_unweighted_share(monkeypatch, fresh_caches):
    # a child subtree taking j of the m equal root subtrees of t counted
    # once, not binomial(m, j) times: exactly the products of a t with two
    # equal root subtrees into a tp with a child go wrong
    monkeypatch.setattr(
        GraftingAlgebra, "_shares",
        staticmethod(lambda rest: tuple((gap, part, left, 1)
                                        for gap, part, left, _ in _submultisets(rest))))
    pairs = _key_pairs_through(KT, 6)
    wrong = [(t, tp) for t, tp in pairs if KT.product_keys(t, tp) != kt_product_by_assignments(t, tp)]
    assert wrong == [(t, tp) for t, tp in pairs
                     if len(set(t.children)) < len(t.children) and tp.size > 1]
    assert (corolla(2), ladder(2)) in wrong


def test_the_choice_oracle_sees_a_gap_block_after_its_child(monkeypatch, fresh_caches):
    # the root's gap before a child given the block after the child's:
    # the counts stay, the order of the grafted subtrees goes wrong
    monkeypatch.setattr(
        PlanarGraftingAlgebra, "_shares",
        staticmethod(lambda rest: tuple((part, gap, left, 1)
                                        for gap, part, left, _ in _blocks(rest))))
    pairs = _key_pairs_through(KP, 6)
    wrong = [(t, tp) for t, tp in pairs if KP.product_keys(t, tp) != kp_product_by_choices(t, tp)]
    assert (planar_from_string("[[][[]]]"), planar_from_string("[[]]")) in wrong
    assert all(len(set(t.children)) > 1 and tp.size > 1 for t, tp in wrong)


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


def sym_order_by_recursion(t):
    """The automorphism group order, a Python call per level of t."""
    order = 1
    for _, grp in groupby(t.children):
        block = list(grp)
        order *= factorial(len(block)) * sym_order_by_recursion(block[0]) ** len(block)
    return order


def forget_order_by_recursion(t):
    """The rooted tree under a planar tree, a Python call per level of t."""
    return RootedTree(forget_order_by_recursion(c) for c in t.children)


def _walks_match(max_vertices):
    """The walks along tree depth, each filled from an explicit stack,
    against a recursion on every tree, planar tree and forest (of HK and
    HF) through ``max_vertices`` vertices: the forest coproduct against the
    root recursion memoized per tree, and the planar fibers against all
    orderings of the children."""
    fibers = {}
    for n in range(1, max_vertices + 1):
        for t in enumerate_rooted(n):
            assert sym_order(t) == sym_order_by_recursion(t), t
            assert planar_fiber(t) == planar_fiber_by_permutations(t, fibers), t
        for t in enumerate_planar(n):
            assert forget_order(t) is forget_order_by_recursion(t), t
    for alg in (HK, HF):
        coproducts = {}
        for n in range(max_vertices + 1):
            for f in alg.basis(n):
                assert alg._ck(f) == forest_coproduct_by_trees(alg, f, coproducts), f


def test_walks_along_tree_depth_match_their_recursions_through_9_vertices(fresh_caches):
    _walks_match(9)


def _drop_last_child(fold):
    return lambda t: fold(type(t)(t.children[:-1]))


# a fill that drops the last child of each tree: (module, attribute,
# the broken attribute made from the original)
BROKEN_FILLS = {
    "sym_order": (treehopf.trees, "_sym_order_fold", _drop_last_child),
    "forget_order": (treehopf.trees, "_forget_fold", _drop_last_child),
    "planar_fiber": (treehopf.trees, "_fiber_fold", _drop_last_child),
    "forest coproduct": (treehopf.hopf_rooted, "b_minus",
                         lambda b_minus: lambda t: b_minus(type(t)(t.children[:-1]))),
}


@pytest.mark.parametrize("fill", list(BROKEN_FILLS))
def test_the_recursions_catch_a_fill_that_drops_a_child(fill, monkeypatch, fresh_caches):
    module, attr, breaking = BROKEN_FILLS[fill]
    monkeypatch.setattr(module, attr, breaking(getattr(module, attr)))
    with pytest.raises(AssertionError):
        _walks_match(4)


# ------------------------------------------------------ counting sequences

def rooted_counts_by_loop(n):
    """[r(0), ..., r(n)], the rooted trees of each number of vertices, by
    the divisor-sum convolution in one loop over m = 1, 2, ..., as
    ``rooted_count`` filled its table before the table named its needs."""
    table, sums = [0, 1], [0]
    for m in range(2, n + 1):
        k = m - 1
        sums.append(sum(d * table[d] for d in range(1, k + 1) if k % d == 0))
        total = sum(sums[k] * table[m - k] for k in range(1, m))
        assert total % (m - 1) == 0
        table.append(total // (m - 1))
    return table


def level_counts_by_loop(n, top):
    """rows[L][m], the rooted trees of m <= n vertices and at most L <= top
    levels, a level at a time, as ``rooted_count_by_levels`` grew them."""
    rows, below = [[0] * (n + 1)], None
    for _ in range(top):
        counts = [0, 1]
        for m in range(2, n + 1):
            total = 0 if below is None else sum(below[k] * counts[m - k] for k in range(1, m))
            counts.append(total // (m - 1))
        below = [sum(d * counts[d] for d in range(1, k + 1) if k % d == 0) for k in range(n + 1)]
        rows.append(counts)
    return rows


def partition_counts_by_loop(n):
    """[p(0), ..., p(n)] by the pentagonal-number recurrence in one loop, as
    ``partition_count`` filled its table before the table named its needs."""
    table = []
    for m in range(n + 1):
        total, k = 0 if m else 1, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * table[m - g]
            if (g := g + k) <= m:
                total += sign * table[m - g]
            k += 1
        table.append(total)
    return table


def _counts_match():
    """The tree and partition counts of the tables against the loops."""
    rows = level_counts_by_loop(60, 61)
    assert [rooted_count(n) for n in range(61)] == rooted_counts_by_loop(60)
    for n in range(1, 61):
        for levels in range(62):
            assert rooted_count_by_levels(n, levels) == rows[levels][n], (n, levels)


def test_the_count_tables_match_the_loops(fresh_caches):
    _counts_match()
    assert [partition_count(n) for n in range(2001)] == partition_counts_by_loop(2000)
    clear_caches()
    assert rooted_count(1100) == rooted_counts_by_loop(1100)[1100]


def test_the_loops_catch_a_tree_count_off_by_one_level(monkeypatch, fresh_caches):
    # a row of at most L levels filled as the row of at most L - 1
    table = treehopf.trees._BY_LEVELS
    fill = table.fill
    monkeypatch.setattr(table, "fill", lambda key, needed: fill(key, needed)
                        if type(key) is int or key[1] < 2 else fill((key[0], key[1] - 1), needed))
    with pytest.raises(AssertionError, match=r"\(3, 2\)"):
        _counts_match()


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
    # child lists and the Dyck words, used to hold their working tables in
    # reference cycles, which only the cyclic collector frees; the grafting
    # recursion, with its explicit stack and generators, is checked with them
    forest = Forest([rooted_from_string("[[[]][]]"), rooted_from_string("[[][][]]")])
    gc.collect()
    gc.disable()
    try:
        assert kbar(s(forest)) == Z_star(s(forest))
        assert len(_monomial_expansion((2, 1, 1), 6)) == 20
        assert len(_column_sums((2, 1), (1, 1))) == 4
        assert len(KP.product_keys(planar_from_string("[[][]]"),
                                   planar_from_string("[[[]][]]"))) == 17
        assert len(_child_lists(4, RootedTree)) == 9
        assert len(treehopf.verify._dyck_planar(4)) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hopf_axioms_estimate_matches_the_triple_sum():
    # exact up to the limit, where it is capped as every count is
    for n in range(41):
        want = min(hopf_axioms_estimate_by_triples(n), COUNT_LIMIT + 1)
        assert _ESTIMATES["hopf-axioms"](n) == want, n


# ---------------------------------------------------- quasi-shuffle oracle

def polynomial_product(f: LinComb, g: LinComb) -> LinComb:
    """The product of two polynomials over exponent tuples of one length."""
    return LinComb.bilinear(f, g, lambda a, b: {tuple(map(add, a, b)): 1})


def polynomial_row_by_tuples(ci, cj, n):
    """The suite's row "product agrees with truncated polynomial
    multiplication" on exponent tuples in n variables, as it was before it
    packed them and took len(ci) + len(cj) variables."""
    return expand_truncated(QSYM._pk(ci, cj), n) == polynomial_product(
        expand_truncated(s(ci), n), expand_truncated(s(cj), n))


def _shuffles(product_keys):
    """The quasi-shuffle without its fused parts a + b."""
    def broken(left, right):
        if not left or not right:
            return s(left + right)
        return (QSYM._pk(left[1:], right).map_keys(lambda comp: left[:1] + comp)
                + QSYM._pk(left, right[1:]).map_keys(lambda comp: right[:1] + comp))

    return broken


def _adds_a_part_above_the_degree(product_keys):
    """Adds M(n + 2, 1, ..., 1) - M(1, 2, 1, ..., 1), both of length n, to a
    product of degree n >= 2: their exponent tuples differ, but packed in
    base n + 1 both are n + 2 + (n + 1) + (n + 1)^2 + ..."""
    def broken(left, right):
        n = sum(left) + sum(right)
        if n < 2:
            return product_keys(left, right)
        ones = (1,) * (n - 2)
        return product_keys(left, right) + s((n + 2, 1) + ones) - s((1, 2) + ones)

    return broken


# broken QSYM products, each made from the true one
QSYM_DEFECTS = {
    "concatenates": lambda product_keys: lambda left, right: s(left + right),
    "drops the fused part": _shuffles,
    "adds a part above the degree": _adds_a_part_above_the_degree,
}


@pytest.mark.parametrize("defect", [None] + sorted(QSYM_DEFECTS))
def test_the_packed_row_gives_the_tuple_verdicts_through_degree_7(defect, monkeypatch,
                                                                  fresh_caches):
    if defect is not None:
        product_keys = type(QSYM).product_keys.__get__(QSYM)
        monkeypatch.setitem(vars(QSYM), "product_keys", QSYM_DEFECTS[defect](product_keys))
    verdicts = {case: (_polynomial_product_holds(*case), polynomial_row_by_tuples(*case))
                for case in _pairs(QSYM.basis, 7)}
    assert [case for case, (got, want) in verdicts.items() if got != want] == []
    assert all(want for got, want in verdicts.values()) == (defect is None)


def test_only_the_length_guard_sees_a_term_with_more_parts_than_its_factors(
        monkeypatch, fresh_caches):
    # the table read adds M(1, ..., 1) of length n to M_ci M_cj when ci and
    # cj have fewer than n parts together, so the quasi-shuffle's own
    # recursion, which reads the table, stays correct
    pk = QSYM._pk

    def broken(ci, cj):
        n = sum(ci) + sum(cj)
        return pk(ci, cj) + s((1,) * n) if len(ci) + len(cj) < n else pk(ci, cj)

    monkeypatch.setitem(vars(QSYM), "_pk", broken)
    short = [(ci, cj, n) for ci, cj, n in _pairs(QSYM.basis, 7) if len(ci) + len(cj) < n]
    # in the N = len(ci) + len(cj) variables of the packed row the extra
    # term is 0, so the polynomial comparison cannot see it
    assert all(not expand_truncated(s((1,) * n), len(ci) + len(cj)) for ci, cj, n in short)
    verdicts = {case: (_polynomial_product_holds(*case), polynomial_row_by_tuples(*case))
                for case in _pairs(QSYM.basis, 7)}
    assert [case for case, (got, want) in verdicts.items() if got != want] == []
    assert [case for case, (got, want) in verdicts.items() if not got] == short
    assert short[0] == ((), (2,), 2)
    row = run_suite("quasi-shuffle-oracle", 7).results[0]
    assert (row.identity, row.status, row.counterexample) == (
        "product agrees with truncated polynomial multiplication", "fail", "1 * M(2)")


def test_the_suite_packs_exponent_tuples_injectively(monkeypatch):
    # every (nvars, base) the suite packs with, on every exponent tuple in
    # nvars variables with entries below base: the expansions of the
    # compositions of degree < base, which bounds the pair's combined degree
    packings = set()

    def spy(comp, nvars, base):
        packings.add((nvars, base))
        return _packed(comp, nvars, base)

    monkeypatch.setattr(treehopf.verify, "_packed", spy)
    assert run_suite("quasi-shuffle-oracle", 7).ok
    assert {nvars for nvars, base in packings} == set(range(8))
    for nvars, base in packings:
        tuple_of = {}
        for m in range(base):
            for comp in compositions_of(m):
                expos = _monomial_expansion(comp, nvars)
                for expo, x in zip(expos, _packed(comp, nvars, base)):
                    assert tuple_of.setdefault(x, expo) == expo, (nvars, base, expo)
    # base n would not do: x_v^n and x_{v+1} pack alike
    assert set(_packed((3,), 3, 3)) & set(_packed((1,), 3, 3)) == {3, 9}


def test_quasi_shuffle_estimate_counts_the_monomial_products():
    # the row expands M_ci and M_cj in N = len(ci) + len(cj) variables, to
    # C(N, len(ci)) and C(N, len(cj)) monomials; the estimate is exact
    products = 0
    for n in range(11):
        products += sum(comb(len(ci) + len(cj), len(ci)) * comb(len(ci) + len(cj), len(cj))
                        for ci, cj in _key_pairs(QSYM.basis, n))
        assert _ESTIMATES["quasi-shuffle-oracle"](n) == products, n
    assert products == 1_936_881


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
