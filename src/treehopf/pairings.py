"""Inner products, duality pairings, and the duality criterion checker.

Conventions.  An inner product lives on one algebra and vanishes across
degrees; a pairing couples an algebra with its graded dual.  The grafting
algebra pairs trees by symmetry order, and couples to the forest algebra
through rooting: pairing a tree t against a forest u gives the symmetry
order of t when t is u with a new root on top, else zero.  The planar
versions use plain Kronecker deltas, since planar trees are rigid.  On
compositions the pairing is Kronecker, and on the symmetric side the
elementary basis of one argument meets the monomial basis of the other.

Every pairing is read from its key-level row, ``pairing.row(k)``: the
nonzero pairings ``{k': <k, k'>}`` of one basis key.  Most rows have one
entry, so nothing here pairs every two basis keys.  The row of an element a
is ``a.apply_linear(pairing.row)``, a ``LinComb`` like any other, and <a, b>
is its dot product with b.

check_duality_criterion machine-checks the three hypotheses under which a
degree-preserving linear map psi: A -> B exhibits B as the graded dual of
A: psi preserves inner products, and it exchanges product against
coproduct in both directions.  check_pairing_compatibility checks that a
pairing of A with B exchanges product against coproduct.  Every such
exchange is one ``_exchange`` of two sparse rows over a third key, which
reaches the coproducts of the third keys through a transposed index
``{k: {j: c}}`` (``_transpose``).
"""

from dataclasses import dataclass

from .foundations import LinComb
from .trees import Forest, OrderedForest, RootedTree, sym_order
from .symfun import m_to_e_row


def _bilinear(row):
    """The pairing of two elements, given ``row(k) = {k': <k, k'>}``, the
    nonzero pairings of one basis key, which is kept as the pairing's
    ``row`` attribute.  A row is a new dict on every call."""

    def pairing(a: LinComb, b: LinComb):
        return _dot(a.apply_linear(row), b)

    pairing.row = row
    return pairing


def _dot(u: LinComb, b: LinComb):
    """The sum of ``u[k] * b[k]`` over the keys k of both."""
    return sum(c * b[k] for k, c in u.items() if k in b)


def _kron(k):
    return {k: 1}


ip_kt = _bilinear(lambda t: {t: sym_order(t)})
# rooting both sides reduces to the tree case
ip_ck = _bilinear(lambda f: {f: sym_order(RootedTree(f.trees))})
ip_kp = _bilinear(_kron)
ip_hf = _bilinear(_kron)
ip_qs = _bilinear(_kron)
ip_ns = _bilinear(_kron)
# a tree meets the one forest that it is the rooting of
pair_kt_ck = _bilinear(lambda t: {Forest(t.children): sym_order(t)})
pair_ns_qs = _bilinear(_kron)
pair_kp_hf = _bilinear(lambda t: {OrderedForest(t.children): 1})
# (e_lam, m_mu) = delta, so (m_lam, m_mu) is the coefficient of e_mu in m_lam
ip_sym = _bilinear(m_to_e_row)


def pair_tensor(pairing, s: LinComb, t: LinComb):
    """Componentwise pairing of two tensors: couple lefts with lefts and
    rights with rights, multiply, and sum."""
    row = pairing.row
    return _dot(s.apply_linear(lambda pair: LinComb.tensor(row(pair[0]), row(pair[1]))), t)


# ------------------------------------------------------------ sparse rows

def _transpose(columns, index=None) -> dict:
    """``{k: {j: c}}``: for each (j, element) of ``columns``, the keys k of
    the element with their coefficients c, added to ``index`` (by default a
    new dict)."""
    index = {} if index is None else index
    for j, el in columns:
        for k, c in el.items():
            index.setdefault(k, {})[j] = c
    return index


def _through(index, u: LinComb) -> LinComb:
    """``{j: sum over k of u[k] * c}``: u against every column j of a
    ``_transpose`` index."""
    return u.apply_linear(lambda k: index.get(k, {}))


def _first_mismatch(left: LinComb, right: LinComb, pos: dict, start=0):
    """The least position ``pos[k] >= start`` of a key k at which two
    sparse rows differ, or None.  Keys without a position are ignored."""
    if left == right:  # the common case, compared in C
        return None
    return min(
        (pos[k] for k in left.keys() | right.keys()
         if pos.get(k, -1) >= start and left[k] != right[k]),
        default=None,
    )


def _key_pairs(basis, n):
    """Key pairs (k1, k2) of ``basis(i)`` and ``basis(n - i)``, in order of
    i, k1, k2."""
    for i in range(n + 1):
        for k1 in basis(i):
            for k2 in basis(n - i):
                yield k1, k2


def _exchange(product_row: LinComb, row1, row2, cop: dict, pos: dict):
    """The least position ``pos[k]`` of a third key k at which <k1 k2, k>,
    given as ``product_row``, differs from <k1 (x) k2, coproduct(k)>, read
    from the rows of k1 and k2 through ``cop``, the ``_transpose`` of the
    coproducts of the third keys; or None."""
    return _first_mismatch(product_row, _through(cop, LinComb.tensor(row1, row2)), pos)


# --------------------------------------------------------------- checkers

def check_pairing_compatibility(A, B, pairing, max_degree: int) -> str | None:
    """The first failure, as text, of the Hopf pairing identities

      <x y, z> = <x (x) y, coproduct(z)>    (x, y in A, z in B)
      <w, y z> = <coproduct(w), y (x) z>    (w in A, y, z in B)

    on basis keys, or None.  Per degree n <= max_degree every x, y comes
    first, then every y, z, and the third key varies fastest.  Each
    identity is one ``_exchange`` per pair of keys: the rows of keys of A
    are ``pairing.row``, and those of keys of B are its transpose."""
    cols = {}  # key b of B -> {a: <a, b>} over the keys a of A
    directions = (
        (A, B, pairing.row, False),
        # the counterexample names the key w of A first
        (B, A, lambda k: cols.get(k, {}), True),
    )
    for n in range(max_degree + 1):
        _transpose(((w, pairing.row(w)) for w in A.basis(n)), cols)
        for P, Q, row, third_first in directions:
            qs = Q.basis(n)
            pos = {q: j for j, q in enumerate(qs)}
            cop = _transpose((q, Q._ck(q)) for q in qs)
            for k1, k2 in _key_pairs(P.basis, n):
                j = _exchange(P._pk(k1, k2).apply_linear(row), row(k1), row(k2), cop, pos)
                if j is not None:
                    keys = [P.key_str(k1), P.key_str(k2)]
                    keys.insert(0 if third_first else 2, Q.key_str(qs[j]))
                    return " , ".join(keys)
    return None


@dataclass
class CriterionReport:
    ok: bool
    checked: int
    hypothesis: str | None = None
    counterexample: str | None = None

    def __str__(self):
        if self.ok:
            return f"duality criterion holds ({self.checked} checks)"
        return (
            f"duality criterion fails hypothesis ({self.hypothesis}) "
            f"at {self.counterexample} after {self.checked} checks"
        )


def check_duality_criterion(A, ip_A, B, ip_B, psi, max_degree: int) -> CriterionReport:
    """Verify, exhaustively on homogeneous basis triples through max_degree,
    that the degree-preserving linear map psi: A -> B satisfies

      (a) (a1, a2)_A = (psi a1, psi a2)_B
      (b) (a1 a2, a3)_A = (psi a1 (x) psi a2, coproduct(psi a3))_B
      (c) (a1 (x) a2, coproduct(a3))_A = (psi a1 . psi a2, psi a3)_B

    so that B realizes the graded dual of A.  Returns the first
    counterexample on failure.  Hypothesis (a) is checked within each
    degree; inner products vanish across degrees by definition.

    The checks run in the order of the degree n, then a1 (by degree, then
    basis order) and a2 (for (a), a2 from a1 on within degree n), then a3,
    with (b) before (c) for each a3; ``checked`` counts them up to the
    first failure.  For each a1 (and a2) both sides are computed at once,
    as sparse rows over a3.
    """
    images, paired = {}, {}  # psi(a), and the row of (psi a, -)_B, by key of a
    psi_index = []  # per degree: where each key of B occurs in the images
    checked = 0
    for n in range(max_degree + 1):
        keys = A.basis(n)
        pos = {k: i for i, k in enumerate(keys)}
        for k in keys:
            images[k] = psi(LinComb.single(k))
        psi_index.append(_transpose((k, images[k]) for k in keys))
        for i, k in enumerate(keys):
            row = LinComb.trusted(ip_A.row(k))
            paired[k] = images[k].apply_linear(ip_B.row)
            j = _first_mismatch(row, _through(psi_index[n], paired[k]), pos, i)
            if j is not None:
                return CriterionReport(
                    False, checked + j - i + 1, "a",
                    f"degree {n}: {A.key_str(k)} , {A.key_str(keys[j])}",
                )
            checked += len(keys) - i
    for n in range(max_degree + 1):
        keys = A.basis(n)
        pos = {k: i for i, k in enumerate(keys)}
        cop_A = _transpose((k, A._ck(k)) for k in keys)
        cop_B = _transpose((k, B.coproduct(images[k])) for k in keys)
        for k1, k2 in _key_pairs(A.basis, n):
            prod_B = B.product(images[k1], images[k2]).apply_linear(ip_B.row)
            jb = _exchange(A._pk(k1, k2).apply_linear(ip_A.row),
                           paired[k1], paired[k2], cop_B, pos)
            jc = _exchange(_through(psi_index[n], prod_B),
                           ip_A.row(k1), ip_A.row(k2), cop_A, pos)
            if jb is None and jc is None:
                checked += 2 * len(keys)
                continue
            j = min(x for x in (jb, jc) if x is not None)
            return CriterionReport(
                False, checked + 2 * (j + 1), "b" if jb == j else "c",
                f"{A.key_str(k1)} , {A.key_str(k2)} , {A.key_str(keys[j])}",
            )
    return CriterionReport(True, checked)
