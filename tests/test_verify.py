"""Verification driver: counting oracles, exact rank, suite plumbing."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treehopf.hopf
import treehopf.verify
from treehopf import HF, HK, KP, KT, NSYM, QSYM, SYM
from treehopf.cli import main
from treehopf.foundations import LinComb, clear_caches
from treehopf.hopf_rooted import kappa
from treehopf.morphisms import MAP_TABLE
from treehopf.verify import (
    SUITE_NAMES,
    SuiteBoundError,
    catalan,
    composition_count,
    exact_rank,
    partition_count,
    rank_of,
    rooted_count,
    run_all,
    run_suite,
)

from test_sparse_oracles import QSYM_DEFECTS

s = LinComb.single


def test_rooted_count_series():
    want = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert [rooted_count(n) for n in range(1, 11)] == want


def test_counts_are_tables_filled_without_recursion():
    # past the recursion limit, and the same after the tables empty
    clear_caches()
    assert partition_count(2000) % 10**9 == 200_344_166 and rooted_count(1100) > 0
    clear_caches()
    assert partition_count(100) == 190_569_292
    assert rooted_count(30) == 354_426_847_597
    assert partition_count(-1) == rooted_count(0) == 0


def test_catalan_series():
    assert [catalan(n) for n in range(0, 8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_partition_and_composition_counts():
    assert [partition_count(n) for n in range(0, 9)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22,
    ]
    assert [composition_count(n) for n in range(0, 7)] == [
        1, 1, 2, 4, 8, 16, 32,
    ]


def test_exact_rank_small():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert exact_rank([[Fraction(1, 2), 1], [1, 3]]) == 2
    assert exact_rank([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]) == 1


def test_exact_rank_needs_no_pivot_luck():
    # leading zeros force row swaps
    m = [
        [0, 0, 1],
        [0, 1, 0],
        [1, 0, 0],
    ]
    assert exact_rank(m) == 3
    # wide and tall shapes
    assert exact_rank([[1, 1, 1, 1]]) == 1
    assert exact_rank([[1], [2], [3]]) == 1


def test_rank_of_composition_elements():
    els = [s((1, 1)), s((2,)), s((1, 1)) + s((2,))]
    assert rank_of(els, 2) == 2
    assert rank_of([s((1, 1)) - s((1, 1))], 2) == 0
    with pytest.raises(ValueError):
        rank_of([s((1,)) + s((2,))], 2)  # inhomogeneous


def test_suite_names_stable():
    assert set(SUITE_NAMES) == {
        "hopf-axioms",
        "hexagon",
        "dualities",
        "divided-powers",
        "zstar-intertwine",
        "zstar-surjectivity",
        "quasi-shuffle-oracle",
        "enumeration-counts",
        "ideh",
    }


def test_run_suite_passes_small():
    for name in SUITE_NAMES:
        rep = run_suite(name, 3)
        assert rep.ok, name
        assert rep.suite == name
        assert rep.max_degree == 3
        assert rep.results
        for r in rep.results:
            assert r.status == "pass"
            assert r.counterexample is None


def test_report_serialization():
    rep = run_suite("zstar-surjectivity", 4)
    d = rep.to_dict()
    assert d["suite"] == "zstar-surjectivity"
    assert d["max_degree"] == 4
    assert all(
        set(r) >= {"identity", "range", "status"} for r in d["results"]
    )
    lines = rep.lines()
    assert any("[PASS]" in ln for ln in lines)
    assert not any("[FAIL]" in ln for ln in lines)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="hopf-axioms"):
        run_suite("nonsense", 3)
    with pytest.raises(ValueError):
        run_suite("hexagon", -1)


def test_bound_refusal_names_cap_and_estimate():
    with pytest.raises(SuiteBoundError) as exc:
        run_suite("hexagon", 10)
    msg = str(exc.value)
    assert "hexagon" in msg
    assert "max_degree 10" in msg
    assert "roughly 10,059,754 elementary checks" in msg
    assert "cap is 9" in msg
    assert "--max-degree 9" in msg
    with pytest.raises(SuiteBoundError):
        run_suite("hopf-axioms", 8)
    with pytest.raises(SuiteBoundError):
        run_suite("dualities", 8)
    with pytest.raises(SuiteBoundError) as exc:
        run_suite("quasi-shuffle-oracle", 10)
    assert "cap is 9" in str(exc.value)
    with pytest.raises(SuiteBoundError) as exc:
        run_suite("zstar-surjectivity", 11)
    msg = str(exc.value)
    assert "roughly 352,716 elementary checks" in msg
    assert "cap is 10" in msg


def test_run_all_defaults():
    reports = run_all(2)
    assert len(reports) == len(SUITE_NAMES)
    assert all(r.ok for r in reports)
    assert [r.suite for r in reports] == list(SUITE_NAMES)


def test_dualities_and_hexagon_keep_no_product_of_a_free_algebra():
    # HK, HF and NSYM answer _pk by their key product, one key, and have
    # no product table beside their key-product table
    clear_caches()
    assert run_suite("dualities", 6).ok and run_suite("hexagon", 7).ok
    assert [hasattr(alg, "_prod_memo") for alg in (HK, HF, NSYM)] == [False] * 3
    for alg in (HK, HF, NSYM):
        for n in range(7):
            for i in range(n + 1):
                for k1 in alg.basis(i):
                    for k2 in alg.basis(n - i):
                        assert alg._pk(k1, k2) == s(alg.key_product(k1, k2)), (k1, k2)
    assert run_suite("hopf-axioms", 4).ok
    assert [hasattr(alg, "_prod_memo") for alg in (HK, HF, NSYM)] == [False] * 3


def test_divided_powers_takes_no_priced_antipode(monkeypatch):
    # S(kappa(n)) = (-1)^n epsilon(n) is one term, but the antipode bounds of
    # kappa(8)'s keys add up to 13,409: the row takes S key by key, so the
    # suite passes its cap under a term cap of 10,000
    monkeypatch.setattr(treehopf.hopf, "TERM_CAP", 10_000)
    assert sum(map(KT.antipode_terms, kappa(8))) == 13_409
    assert run_suite("divided-powers", 8).ok


# sha256 of each suite's JSON report at degree 3 (keys sorted)
REPORT_DIGESTS = {
    "hopf-axioms": "7b3b5bcd81d49e8477d4f97ad6c78d641b7d3f9c5223434b9e958d38930089d5",
    "hexagon": "1308894190ddc37e2dc039e03b8b9c3ff318709e308ac4aaadf6e7949b850021",
    "dualities": "0d2550378388476ae3b5d7e82d4dc8eac5780c9a3ac22b22cbbae7e8672ed5bf",
    "divided-powers": "5e1309ce781b776deade7059eba3aad347e3ec994d62b22e315b5c6ecbd25f23",
    "zstar-intertwine": "bb4b5ff71477fd07080b826635916eec4fbd69fe4e973f98ce9996028bea7847",
    "zstar-surjectivity": "bb4c46d1959f107e64e0e0af88e4df547d18988a20efc0f2b86db7ed5150ed75",
    "quasi-shuffle-oracle": "e6cb3518e71e3a9c572328ee29a47ac8c352cb35de894e39cd93831bad484257",
    "enumeration-counts": "07da75785778f3de63deff63020e789054a6f8d618709aae58f7fac461eed232",
    "ideh": "e176269f3a77b7eda145cd21f96af906e7f220d472af6ff39d2674cd05ab262d",
}


# sha256 of the dualities suite's JSON report at each degree through its cap
DUALITIES_DIGESTS = [
    "e260bceebd1bad45d44f913ec57f65c508305059d0fee2a731c80f7f258d9b82",
    "2128acee49621b7558a491dcbb132cbd290e92f721d37ba985e3a079cb893eac",
    "1dac90f12dbb8bed8a3cae8338e2d7c268f191d7a7551f74b340bc765f07c2b7",
    "0d2550378388476ae3b5d7e82d4dc8eac5780c9a3ac22b22cbbae7e8672ed5bf",
    "2b5668af2000891772a02dd0f36be66c365276f81da7f006930585d11d9c472a",
    "ac8d8519259834ed3b46fef0d0c5a5e5e665a0e0b972155f21cfefe6a83c9930",
    "4a34fb038f920ad30842a1f7cebc463eaa06e43fcd670993485f6008b15e0e92",
    "c2073fe6636a6b876e467855882cb179e0896ec1762068a8015e3d0e2c31658c",
]


def _report_digest(name, degree):
    text = json.dumps(run_suite(name, degree).to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_suite_report_is_pinned(name):
    assert _report_digest(name, 3) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("degree", range(len(DUALITIES_DIGESTS)))
def test_dualities_report_is_pinned_through_its_cap(degree):
    assert _report_digest("dualities", degree) == DUALITIES_DIGESTS[degree]


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # each costs import time that the CLI pays on every invocation
    code = ("import sys, treehopf.cli, treehopf.verify; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(treehopf.verify.__file__).parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "[]\n"


def test_failure_reports_first_counterexample(monkeypatch):
    monkeypatch.setattr(treehopf.verify, "kbar", lambda x: LinComb.zero())
    rep = run_suite("zstar-intertwine", 3)
    assert not rep.ok
    failed = [r for r in rep.results if r.status == "fail"]
    assert [r.identity for r in failed] == [
        "poset labeling realization agrees with the recursion"
    ]
    assert failed[0].counterexample == "1"
    lines = rep.lines()
    assert lines[0].endswith("FAILURES FOUND")
    assert (
        "  [FAIL] poset labeling realization agrees with the recursion "
        "(degree <= 3)\n         counterexample: 1"
    ) in lines


def test_failed_verification_exits_one(monkeypatch, capsys):
    tau = treehopf.verify.tau
    monkeypatch.setattr(treehopf.verify, "tau", lambda x: 2 * tau(x))
    code = main(["verify", "--suite", "hexagon", "--max-degree", "2",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    failed = {
        r["identity"].split(":")[0]: r["counterexample"]
        for r in report["results"] if r["status"] == "fail"
    }
    assert failed == {"upper diamond": "1", "left triangle": "1"}


@pytest.fixture
def concatenating_qsym(monkeypatch):
    """QSYM whose product concatenates compositions (a defect), with every
    cache emptied before the test, so the result does not depend on what
    earlier tests computed, and again after it, so that nothing the defect
    computed reaches a later test."""
    from treehopf import symfun

    clear_caches()
    # an instance attribute, so undoing the patch leaves the class method
    monkeypatch.setitem(vars(symfun.QSYM), "product_keys",
                        lambda l, r: LinComb.single(l + r))
    yield
    clear_caches()


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_library_detected_defect_fails_verification(concatenating_qsym, capsys, name):
    # a ValueError raised while checking is a failed identity (exit 1),
    # not a usage error (exit 2)
    code = main(["verify", "--suite", name, "--max-degree", "3"])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert err == ""
    if name == "quasi-shuffle-oracle":
        assert code == 1
        line = next(l for l in out.splitlines() if "stay symmetric" in l)
        assert line.startswith("  [FAIL] products of symmetrized elements stay symmetric")
        assert "not symmetric" in out


def _drops_last_term(coproduct_key):
    def broken(key):
        terms = list(coproduct_key(key).items())
        return LinComb(terms[:-1] if len(terms) > 1 else terms)

    return broken


def _wrong_in_degree_5(dom, fn):
    """fn with its image of degree-5 input doubled: wrong only where the
    hexagon suite has spot checks, not exhaustive ones."""
    return lambda x: fn(x) + fn(x.filter_keys(lambda k: dom.degree(k) == 5))


# the failing identities and their counterexamples under each defect
FAILURE_REPORTS = {
    "qsym product concatenates": {
        "qsym: coproduct is an algebra morphism": "M(1) , M(1)",
        "qsym: antipode convolution identity": "M(1,1)",
        "qsym: product is commutative": "M(1) , M(2)",
    },
    "kt coproduct drops a term": {
        "kt: coproduct is coassociative": "[[][]]",
        "kt: counit laws": "[[]]",
        "kt: coproduct is an algebra morphism": "[[]] , [[]]",
        "kt: antipode convolution identity": "[[]]",
        "kt: coproduct is cocommutative": "[[]]",
    },
    "hf coproduct drops a term": {
        "hf: counit laws": "([])",
        "hf: antipode convolution identity": "([])",
    },
    "tau": {"tau is multiplicative": "E(1) , E(2,2)",
            "tau is comultiplicative": "E(1,1,1,1,1)"},
    "phi": {"phi is multiplicative": "m(1) , m(2,1,1)",
            "phi is comultiplicative": "m(1,1,1,1,1)"},
    "phistar": {"phistar is multiplicative": "[[]] , [[][[[]]]]",
                "phistar is comultiplicative": "[[][[]][[]]]"},
    "Phi": {
        "upper diamond: forgetting order after ladder insertion matches ladders "
        "of the abelianization": "E(5)",
        "full circuit: both long ways from divided powers to compositions agree": "E(5)",
        "Phi is multiplicative": "E(1) , E(2,2)",
        "Phi is comultiplicative": "E(5)",
    },
    "Phistar": {
        "lower diamond: planar-fiber then ladder projection matches symmetrized "
        "ladder projection": "[[[[[[]]]]]]",
        "full circuit: both long ways from divided powers to compositions agree": "E(5)",
        "Phistar is multiplicative": "p[[]] , p[[][][[]]]",
    },
    "rho": {"rho is multiplicative": "([]) , ([[][]],[])",
            "rho is comultiplicative": "([[]],[],[[]])"},
    "rhostar": {
        "lower diamond: planar-fiber then ladder projection matches symmetrized "
        "ladder projection": "[[[[[[]]]]]]",
        "full circuit: both long ways from divided powers to compositions agree": "E(5)",
        "rhostar is multiplicative": "[[]] , [[][[[]]]]",
        "rhostar is comultiplicative": "[[][][][][]]",
    },
    "Z": {"Z is multiplicative": "E(1) , E(1,1,1,1)",
          "Z is comultiplicative": "E(3,1,1)"},
    "Zstar": {"Zstar is multiplicative": "[] , [[[[]]]]",
              "Zstar is comultiplicative": "[[[]][[]]]"},
    "kbar": {"kbar is multiplicative": "[] , [[][[]]]",
             "kbar is comultiplicative": "[] [[][[]]]"},
    "qsym product concatenates, quasi-shuffle-oracle": {
        "product agrees with truncated polynomial multiplication": "M(1) * M(1)",
        "stripping a trailing one is a derivation": "M(1) , M(1)",
        "products of symmetrized elements stay symmetric":
            "m(1) * m(2): not symmetric: coefficient of M(1,2) differs from M(2,1)",
        "symmetrization is multiplicative": "m(1) , m(1)",
    },
    "qsym product drops the fused part, quasi-shuffle-oracle": {
        "product agrees with truncated polynomial multiplication": "M(1) * M(1)",
        "symmetrization is multiplicative": "m(1) , m(1)",
    },
}


# a suite at degree 3 under a broken key rule: (suite, algebra, method, the
# broken method made from the original)
KEY_DEFECTS = {
    "qsym product concatenates": ("hopf-axioms", QSYM, "product_keys",
                                  QSYM_DEFECTS["concatenates"]),
    "kt coproduct drops a term": ("hopf-axioms", KT, "coproduct_key", _drops_last_term),
    "hf coproduct drops a term": ("hopf-axioms", HF, "coproduct_key", _drops_last_term),
    "qsym product concatenates, quasi-shuffle-oracle": (
        "quasi-shuffle-oracle", QSYM, "product_keys", QSYM_DEFECTS["concatenates"]),
    "qsym product drops the fused part, quasi-shuffle-oracle": (
        "quasi-shuffle-oracle", QSYM, "product_keys", QSYM_DEFECTS["drops the fused part"]),
}


@pytest.mark.parametrize("defect", list(FAILURE_REPORTS))
def test_failure_reports_are_pinned(defect, monkeypatch):
    # a map defect runs hexagon at 5, where its Hopf-morphism failures are
    # seeded spot cases
    clear_caches()
    if defect in KEY_DEFECTS:
        suite, alg, attr, breaking = KEY_DEFECTS[defect]
        # an instance attribute, so undoing the patch leaves the class method
        monkeypatch.setitem(vars(alg), attr, breaking(getattr(type(alg), attr).__get__(alg)))
        degree = 3
    else:
        dom, cod, fn = MAP_TABLE[defect]
        monkeypatch.setitem(MAP_TABLE, defect, (dom, cod, _wrong_in_degree_5(dom, fn)))
        suite, degree = "hexagon", 5
    try:
        report = run_suite(suite, degree)
    finally:
        clear_caches()
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == FAILURE_REPORTS[defect]


def test_a_broken_map_is_forgotten_when_the_next_run_starts(monkeypatch):
    # the hexagon reads each tree's Phistar(rhostar(t)) from a key rule that
    # lives for one run: what a broken Phistar computed never reaches the
    # next run, though no cache is cleared in between
    dom, cod, fn = MAP_TABLE["Phistar"]
    with monkeypatch.context() as patch:
        patch.setitem(MAP_TABLE, "Phistar", (dom, cod, _wrong_in_degree_5(dom, fn)))
        broken = run_suite("hexagon", 5)
    failed = {r.identity: r.counterexample for r in broken.results if r.status == "fail"}
    circuit = "full circuit: both long ways from divided powers to compositions agree"
    assert failed[circuit] == "E(5)"
    assert run_suite("hexagon", 5).ok


def test_a_basis_key_formats_as_its_key_string():
    # the counterexamples name keys with key_str, as format names a one-term sum
    for alg in (KT, HK, KP, HF, SYM, QSYM, NSYM):
        for n in range(6):
            for key in alg.basis(n):
                assert alg.format(s(key)) == alg.key_str(key), (alg.name, key)


# (suite, the name in verify that is broken) -> the failing identities and
# their counterexamples, each naming its keys with key_str
KEY_STR_REPORTS = {
    ("dualities", "Z"): {
        "tree embedding is adjoint to the composition quotient": "E(2) , [] []"},
    ("dualities", "alpha_plus_dual"): {
        "append/strip operators are mutually adjoint": "E(1,1) , M(1)"},
    ("dualities", "e_to_m_row"): {
        "split elementary products hit monomials as deltas": "1*e(2) vs m(2)"},
    ("zstar-intertwine", "alpha_plus_dual"): {
        "dual append matches root stripping after the single-child projection": "E(1,1)"},
    ("hexagon", "include_sym"): {
        "right triangle: forest image collapses to the symmetrization": "m(2)",
        "lower diamond: planar-fiber then ladder projection matches symmetrized "
        "ladder projection": "[[[]]]"},
}


@pytest.mark.parametrize("suite, name", list(KEY_STR_REPORTS))
def test_counterexamples_name_keys_with_key_str(suite, name, monkeypatch):
    # the broken function doubles its image of each input of degree >= 2;
    # e_to_m_row takes a partition, the others a homogeneous element
    clear_caches()
    fn = getattr(treehopf.verify, name)
    degree = sum if name == "e_to_m_row" else lambda x: max(map(sum, x.keys()), default=0)
    monkeypatch.setattr(treehopf.verify, name, lambda x: fn(x) if degree(x) < 2 else 2 * fn(x))
    try:
        report = run_suite(suite, 3)
    finally:
        clear_caches()
    failed = {r.identity: r.counterexample for r in report.results if r.status == "fail"}
    assert failed == KEY_STR_REPORTS[suite, name]
