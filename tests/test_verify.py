"""Verification driver: counting oracles, exact rank, suite plumbing."""

import hashlib
import json
from fractions import Fraction

import pytest

import treehopf.verify
from treehopf.cli import main
from treehopf.foundations import LinComb, clear_caches
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

s = LinComb.single


def test_rooted_count_series():
    want = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert [rooted_count(n) for n in range(1, 11)] == want


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
        run_suite("hexagon", 9)
    msg = str(exc.value)
    assert "hexagon" in msg
    assert "max_degree 9" in msg
    assert "cap is 8" in msg
    assert "--max-degree 8" in msg
    with pytest.raises(SuiteBoundError):
        run_suite("hopf-axioms", 8)
    with pytest.raises(SuiteBoundError):
        run_suite("dualities", 8)


def test_run_all_defaults():
    reports = run_all(2)
    assert len(reports) == len(SUITE_NAMES)
    assert all(r.ok for r in reports)
    assert [r.suite for r in reports] == list(SUITE_NAMES)


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


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_suite_report_is_pinned(name):
    report = run_suite(name, 3).to_dict()
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name]


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
    assert failed == {"upper diamond": "E()", "left triangle": "E()"}


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
