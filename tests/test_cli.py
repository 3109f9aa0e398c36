"""Command-line behavior: grammar, output formats, exit codes."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import treehopf
import treehopf.cli as cli
import treehopf.hopf_rooted
import treehopf.symfun
from treehopf.cli import CHAIN_CAP, build_parser, main, parse_element
from treehopf.foundations import LinComb, clear_caches
from treehopf.trees import rooted_from_string as rt, Forest, catalan, rooted_count
from treehopf.hopf import COUNT_LIMIT, TERM_CAP
from treehopf.hopf_planar import KP
from treehopf.hopf_rooted import GRAFT_CAP, KT, GraftingAlgebra
from treehopf.morphisms import Z
from treehopf.symfun import SYM


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grafting_product_golden(capsys):
    code, out, _ = run(
        capsys, "product", "--algebra", "gl", "[[]]", "[[][]]"
    )
    assert code == 0
    assert out.strip() == "2*[[][[]]] + [[][][]]"
    # same element as the two-term display with the corolla first
    got = parse_element(out.strip(), "kt")
    want = parse_element("[[][][]] + 2*[[][[]]]", "kt")
    assert got == want


def test_level_count_map_golden(capsys):
    code, out, _ = run(capsys, "map", "--name", "Zstar", "[[][[]]]")
    assert code == 0
    got = parse_element(out.strip(), "qsym")
    want = parse_element("3*M(1,1,1,1) + M(2,1,1) + M(1,2,1)", "qsym")
    assert got == want


def test_enumerate_count_golden(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "rooted", "--vertices", "5",
        "--count-only",
    )
    assert code == 0
    assert out.strip() == "9"


def test_enumerate_planar_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "planar", "--vertices", "3")
    assert code == 0
    assert out.split() == ["p[[[]]]", "p[[][]]"]


def test_enumerate_takes_its_kind_from_kind_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "rooted", "--planar", "--vertices", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --planar" in capsys.readouterr().err


def test_enumerate_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--vertices", "50")
    assert code == 2
    assert "cap" in err


def test_enumerate_and_expand_are_priced_by_their_output(capsys, monkeypatch):
    # listing 32,973 trees is within the term cap; counting builds no tree
    code, out, err = run(capsys, "enumerate", "--kind", "rooted", "--vertices", "14")
    assert (code, err, len(out.split())) == (0, "", 32_973)
    with monkeypatch.context() as patch:
        for alg in (KT, KP):
            patch.setattr(alg, "basis", None)
        assert run(capsys, "enumerate", "--vertices", "100", "--count-only") == (
            0, f"{rooted_count(100)}\n", "")
        assert run(capsys, "enumerate", "--kind", "planar", "--vertices", "1000",
                   "--count-only") == (0, f"{catalan(999)}\n", "")
        assert run(capsys, "enumerate", "--vertices", f"{CHAIN_CAP + 1}", "--count-only") == (
            2, "", f"error: vertex count {CHAIN_CAP + 1} exceeds the cap {CHAIN_CAP}; "
            "the count has more than 400 digits\n")
        for kind in ("rooted", "planar"):
            for n in (30, 40, 60):
                assert run(capsys, "enumerate", "--kind", kind, "--vertices", str(n)) == (
                    2, "", "error: this listing would have more than 1,000,000,000 trees; "
                    f"the cap is {TERM_CAP:,}\n")
    # each of the C(12, 8) = 495 monomials lists 12 exponents; with 16
    # variables, 12,870 monomials list 205,920
    code, out, err = run(capsys, "expand", "--vars", "12", "M(1,1,1,1,1,1,1,1)")
    assert (code, err, len(out.split(" + "))) == (0, "", 495)
    assert run(capsys, "expand", "--vars", "16", "M(1,1,1,1,1,1,1,1)") == (
        2, "", f"error: this expansion would have up to 205,920 exponents; "
        f"the cap is {TERM_CAP:,}\n")
    assert run(capsys, "expand", "--vars", "1000000000", "1")[:2] == (2, "")
    # a --vars of thousands of digits is priced in a few steps
    ones = "M(%s)" % ",".join(["1"] * 3000)
    assert run(capsys, "expand", "--vars", "9" * 4000, ones) == (
        2, "", f"error: this expansion would have more than 1,000,000,000 exponents; "
        f"the cap is {TERM_CAP:,}\n")
    # no monomial: the zero element, and more parts than variables, whatever
    # the other factor of the count
    for vars_, element in (("9" * 4000, "0"), ("0", "M(1)")):
        assert run(capsys, "expand", "--vars", vars_, element) == (0, "0\n", "")


def test_coproducts_are_priced_by_their_terms(capsys, monkeypatch):
    # m(20,19,...,1) has 2^20 distinct splits: refused before any is made
    monkeypatch.setattr(SYM, "_ck", None)
    lam = "m(%s)" % ",".join(map(str, range(20, 0, -1)))
    assert run(capsys, "coproduct", "--algebra", "sym", lam) == (
        2, "", f"error: this coproduct would have up to 1,048,576 terms; "
        f"the cap is {TERM_CAP:,}\n")
    monkeypatch.undo()
    # 17 equal parts split in 18 ways, exactly as the bound says; so do
    # E(1^17) and the leaves of the 17-leaf corolla, ordered or not, where
    # a product over the parts or the leaves would say 2^17
    ones = ",".join("1" * 17)
    corolla = "[" + "[]" * 17 + "]"
    for argv, terms in ((("sym", f"m({ones})"), 18), (("nsym", f"E({ones})"), 18),
                        (("ck", corolla), 19), (("hf", corolla), 19)):
        code, out, err = run(capsys, "coproduct", "--algebra", *argv)
        assert (code, err, len(out.split(" + "))) == (0, "", terms), argv


def test_coproduct_text(capsys):
    code, out, _ = run(capsys, "coproduct", "--algebra", "qsym", "M(2,1)")
    assert code == 0
    assert out.strip() == "1 ⊗ M(2,1) + M(2) ⊗ M(1) + M(2,1) ⊗ 1"


def test_antipode_and_counit(capsys):
    code, out, _ = run(capsys, "antipode", "--algebra", "sym", "e3")
    assert code == 0
    assert out.strip() == "-m(1,1,1) - m(2,1) - m(3)"
    code, out, _ = run(
        capsys, "counit", "--algebra", "nsym", "E(1,2) + 3*1"
    )
    assert code == 0
    assert out.strip() == "3"


def test_pair_kinds(capsys):
    code, out, _ = run(
        capsys, "pair", "--kind", "kt-ck",
        "--left", "[[][]]", "--right", "[] []",
    )
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys, "pair", "--kind", "ns-qs",
        "--left", "E(2,1)", "--right", "M(2,1)",
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys, "pair", "--kind", "kp-hf",
        "--left", "p[[[]][]]", "--right", "([[]],[])",
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys, "pair", "--kind", "sym",
        "--left", "m(2)", "--right", "m(2)",
    )
    assert code == 0 and out.strip() == "-2"


def test_series_elements(capsys):
    code, out, _ = run(capsys, "epsilon", "2")
    assert code == 0
    assert out.strip() == "1/2*[[][]]"
    code, out, _ = run(capsys, "kappa", "2")
    assert code == 0
    assert out.strip() == "[[[]]] + 1/2*[[][]]"
    code, _, err = run(capsys, "kappa", "40")
    assert code == 2
    assert "cap" in err
    code, out, err = run(capsys, "kappa", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: index must be nonnegative\n"


def test_tree_embedding_of_a_divided_power_needs_no_tree_sum(capsys, monkeypatch):
    # Z sends E_n to epsilon(n), the corolla with n leaves over n!, with no
    # kappa and no grafting of whole sums
    def no_kappa(n):
        raise AssertionError(f"kappa({n}) called")

    clear_caches()
    monkeypatch.setattr(treehopf.hopf_rooted, "kappa", no_kappa)
    code, out, _ = run(capsys, "map", "--name", "Z", "E(14)")
    assert code == 0
    assert out == "1/87178291200*[" + "[]" * 14 + "]\n"


def test_expand_golden(capsys):
    code, out, _ = run(capsys, "expand", "--vars", "2", "M(2,1)")
    assert code == 0
    assert out.strip() == "x1^2*x2"
    code, out, _ = run(capsys, "expand", "--vars", "2", "M(1,1,1)")
    assert code == 0
    assert out.strip() == "0"


def test_verify_text_and_exit(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "zstar-surjectivity", "--max-degree", "4"
    )
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "divided-powers",
        "--max-degree", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "divided-powers"
    assert doc["max_degree"] == 3
    assert all(r["status"] == "pass" for r in doc["results"])


def test_verify_bound_refusal(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "hexagon", "--max-degree", "10"
    )
    assert code == 2
    assert "cap is 9" in err


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_parse_error_exit_codes(capsys):
    code, _, err = run(capsys, "product", "--algebra", "kt", "[[]", "[]")
    assert code == 2
    assert "position" in err
    code, _, err = run(capsys, "coproduct", "--algebra", "qsym", "M(2,")
    assert code == 2
    code, _, err = run(capsys, "antipode", "--algebra", "sym", "q(2)")
    assert code == 2
    code, _, err = run(capsys, "counit", "--algebra", "kt", "")
    assert code == 2
    code, _, err = run(capsys, "product", "--algebra", "kt", "2**[[]]", "[]")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("product", "--algebra", "kt", "²*[]", "[]"),
         "error: expected a tree, found '²' at position 0\n"),
        (("expand", "--vars", "2", "M(٣)"), "error: expected positive part at position 2\n"),
    ],
    ids=["superscript-coefficient", "arabic-indic-part"],
)
def test_only_ascii_digits_are_numbers(capsys, argv, message):
    # str.isdigit accepts these, and int() reads the Arabic-Indic digit as 3
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "argv, depth",
    [(("antipode", "--algebra", "kt"), 1200), (("map", "--name", "rhostar"), CHAIN_CAP + 1)],
    ids=["antipode-kt", "map-rhostar"],
)
def test_deep_nesting_is_a_usage_error(capsys, argv, depth):
    # exit 1 means a verification failed; input too deep to process is exit 2,
    # refused by the parser at the bracket that passes the cap
    chain = "[" * depth + "]" * depth
    code, out, err = run(capsys, *argv, chain)
    assert (code, out) == (2, "")
    assert err == f"error: brackets nested deeper than the cap {CHAIN_CAP} at position {CHAIN_CAP}\n"
    assert "Traceback" not in err


def test_chain_literal_above_the_cap_is_refused_before_it_is_built(capsys, monkeypatch):
    # a chain of k vertices holds k encodings of up to 2k characters;
    # brackets nested as deep are refused at the same cap, while scanning
    def build(*args):
        raise AssertionError("the chain was built")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "ladder", build)
        patch.setattr(cli, "_parse_tree", build)
        code, out, err = run(capsys, "counit", "--algebra", "kt", f"l{CHAIN_CAP + 1}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: chain length {CHAIN_CAP + 1} exceeds the cap {CHAIN_CAP}")
        assert len(err.splitlines()) == 1
        deep = "[[]" + "[" * CHAIN_CAP + "]" * (CHAIN_CAP + 1)
        assert run(capsys, "counit", "--algebra", "kt", deep) == (
            2, "", f"error: brackets nested deeper than the cap {CHAIN_CAP} "
                   f"at position {CHAIN_CAP + 2}\n")
    assert run(capsys, "counit", "--algebra", "kt", f"l{CHAIN_CAP}") == (0, "0\n", "")
    assert run(capsys, "coproduct", "--algebra", "ck", f"l2 l{CHAIN_CAP + 1}")[0] == 2


@pytest.mark.parametrize("text, message", [
    (f"e{CHAIN_CAP + 1}", f"e{CHAIN_CAP + 1} exceeds the index cap {CHAIN_CAP}; its "
                          f"partitions have up to {CHAIN_CAP + 1:,} parts"),
    ("e100000000", "e100000000 exceeds the index cap"),
    (f"h{CHAIN_CAP + 1}", f"h{CHAIN_CAP + 1} exceeds the index cap {CHAIN_CAP}"),
    ("h46", f"h46 would have up to 105,558 terms; the cap is {TERM_CAP:,}"),
    ("h99", "h99 would have up to 169,229,875 terms"),
])
def test_shorthand_above_its_cap_is_refused_before_it_is_built(capsys, monkeypatch, text,
                                                              message):
    # e<k> is one partition of k parts, h<k> sums over all p(k) partitions
    # of k: the cli refuses an index above its cap, and h its p(k) terms
    def build(*args):
        raise AssertionError("the shorthand was built")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "e", build)
        patch.setattr(treehopf.symfun, "partitions_of", build)
        code, out, err = run(capsys, "counit", "--algebra", "sym", text)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1
    assert run(capsys, "counit", "--algebra", "sym", "h45") == (0, "0\n", "")
    assert run(capsys, "counit", "--algebra", "sym", f"e{CHAIN_CAP}") == (0, "0\n", "")


@pytest.mark.parametrize("algebra, text, message", [
    ("qsym", "M(" + ",".join("1" * 22) + ")", "up to 2,097,152 terms"),
    ("nsym", "E(18)", "up to 131,072 terms"),
    ("nsym", "E(1000000000)", "more than 1,000,000,000 terms"),
    ("sym", "e50", "up to 204,226 terms"),
    ("sym", "m(2,2," + ",".join("1" * 44) + ")", "up to 147,271 terms"),
    ("sym", "h30", "up to 15,505,062 terms"),
    ("ck", "l18", "up to 131,072 terms"),
    ("ck", "l300", "more than 1,000,000,000 terms"),
    ("hf", "l40", "more than 1,000,000,000 terms"),
    ("hf", "([[]],l17)", "up to 131,072 terms"),
])
def test_antipode_above_the_term_cap_is_refused_before_it_starts(capsys, monkeypatch, algebra,
                                                                 text, message):
    # the term count of each key: 2^(len - 1) for M_a, the product of
    # 2^(a_i - 1) for E_a, and for m_lam at most the partitions of |lam|
    # into at most len(lam) parts (p(48) less the two with more than 46
    # parts above), or the set partitions of its parts if fewer; for a
    # ck or hf forest at most 2^(edges), one term per set of edges cut
    alg = cli.ALGEBRAS[algebra]

    def start(key):
        raise AssertionError("the antipode was started")

    monkeypatch.setitem(vars(alg), "antipode_key", start)
    code, out, err = run(capsys, "antipode", "--algebra", algebra, text)
    assert (code, out) == (2, "")
    assert err == f"error: this antipode would have {message}; the cap is {TERM_CAP:,}\n"


def test_antipodes_within_the_term_cap_answer(capsys):
    # e45 has p(45) = 89,134 terms; a few parts, however large, have few
    code, out, err = run(capsys, "antipode", "--algebra", "sym", "e45")
    assert (code, err) == (0, "")
    assert out.count("m(") == 89_134
    a, b = 10**9, 10**9 + 1
    assert run(capsys, "antipode", "--algebra", "sym", f"m({a},1)") == (
        0, f"m({a},1) + 2*m({b})\n", "")
    assert run(capsys, "antipode", "--algebra", "qsym", f"M({a})") == (0, f"-M({a})\n", "")
    # the 17-vertex ladder's 2^16 cut sets are within the cap; on ck they
    # fall on its p(17) = 297 forests
    code, out, err = run(capsys, "antipode", "--algebra", "ck", "l17")
    assert (code, err) == (0, "")
    assert out.count(" + ") + out.count(" - ") + 1 == 297


@pytest.mark.parametrize("suite, degree, need", [
    ("ideh", 600, "more than "), ("enumeration-counts", 2000, "more than "),
    ("hopf-axioms", 100_000, "more than "), ("hexagon", 100_000, "more than ")])
def test_suite_bounds_far_above_the_cap_name_their_estimate(capsys, suite, degree, need):
    # every estimate is capped, as the term bounds are: past the limit it
    # is named only as more than that, and a huge degree costs a few steps
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-degree", str(degree))
    assert (code, out) == (2, "")
    assert f"would need more than {COUNT_LIMIT:,} elementary checks with" in err
    assert err.startswith(f"error: suite {suite} at max_degree {degree} would need {need}")


@pytest.mark.parametrize("algebra, left, right, message", [
    ("kt", "[[][]]", "l325", "this product would graft 52,975 attachment choices, "
     f"rebuilding roughly 2,832,281,887 vertices; the cap is {GRAFT_CAP:,}"),
    ("kt", "[[][]] + [[[]]]", "l1000", "this product would graft 501,500 attachment choices"),
    ("kp", "p[[][][][][][][][][]]", "l60", "this product would graft 17,722,355,795,375 "),
])
def test_grafting_product_above_its_cap_is_refused_before_grafting(capsys, monkeypatch,
                                                                   algebra, left, right,
                                                                   message):
    def graft(*args):
        raise AssertionError("a tree was grafted")

    # KP grafts through the same method
    with monkeypatch.context() as patch:
        patch.setattr(GraftingAlgebra, "graft", graft)
        code, out, err = run(capsys, "product", "--algebra", algebra, left, right)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


# The CLI's outcome for each element, (exit code, stdout terms or stderr):
# E(8,8,8) is refused by Z's term bound, before any product; E(10,10),
# within that bound (627 trees of 21 vertices and at most 3 levels), is
# answered, since Z multiplies by the unpriced key products
_Z_REFUSALS = {
    "E(10,10)": (0, 139),
    "E(8,8,8)": (2, f"error: this image under Z would have up to 580,901 terms; "
                    f"the cap is {TERM_CAP:,}\n"),
}


@pytest.mark.parametrize("warm, element, message", [
    # epsilon(10) grafted into epsilon(10): the product of two 10-leaf
    # corollas, which the product command refuses too
    ("E(10)", "E(10,10)", "this product would graft 184,756 attachment choices, "
     f"rebuilding roughly 40,738,698 vertices; the cap is {GRAFT_CAP:,}"),
    ("E(8,8)", "E(8,8,8)", "this product would graft 145,190,817 attachment choices"),
])
def test_tree_embedding_meets_the_graft_budget(capsys, monkeypatch, warm, element, message):
    # the public product of the image of the warm prefix by the image of
    # the last part meets the graft budget before any graft; Z multiplies
    # the same epsilons by the key products, so the CLI answers or refuses
    # the element by Z's term bound alone
    clear_caches()
    assert run(capsys, "map", "--name", "Z", warm)[0] == 0
    last = parse_element(f"E({element[2:-1].rsplit(',', 1)[1]})", "nsym")

    def graft(*args):
        raise AssertionError("a tree was grafted")

    with monkeypatch.context() as patch:
        patch.setattr(GraftingAlgebra, "graft", graft)
        with pytest.raises(ValueError) as refusal:
            KT.product(Z(parse_element(warm, "nsym")), Z(last))
    assert str(refusal.value).startswith(message)
    code, out, err = run(capsys, "map", "--name", "Z", element)
    assert (code, err or len(out.split(" + "))) == _Z_REFUSALS[element]


@pytest.mark.parametrize("element, terms", [("E(2,400)", 4), ("E(4,4,4,4)", 19_144)])
def test_tree_embeddings_within_the_term_bound_are_answered(capsys, element, terms):
    # Z grafts by the key products: the graft budget of the public product
    # refuses neither, since only Z's term bound prices them
    code, out, err = run(capsys, "map", "--name", "Z", element)
    assert (code, err, len(re.split(" [+-] ", out.strip()))) == (0, "", terms)


def test_grafting_antipode_meets_the_graft_budget(capsys, monkeypatch):
    # S of the 16-leaf corolla keeps the degree, so it has at most
    # rooted_count(17) = 634,847 terms: refused before any graft
    def start(key):
        raise AssertionError("the antipode was started")

    with monkeypatch.context() as patch:
        patch.setitem(vars(KT), "antipode_key", start)
        code, out, err = run(capsys, "antipode", "--algebra", "kt", "[" + "[]" * 16 + "]")
    assert (code, out) == (2, "")
    assert err == f"error: this antipode would have up to 634,847 terms; the cap is {TERM_CAP:,}\n"
    # within the term cap, the graft budget prices the antipode once, at
    # its entry, each term as one attachment choice: the 6-leaf corolla's
    # 48 terms of 7 vertices rebuild 48 * 7^2 // 2 = 1,176 vertices, and
    # the recursion's key products are not priced again
    clear_caches()
    corolla6 = "[" + "[]" * 6 + "]"
    monkeypatch.setattr(treehopf.hopf_rooted, "GRAFT_CAP", 1175)
    with monkeypatch.context() as patch:
        patch.setitem(vars(KT), "antipode_key", start)
        assert run(capsys, "antipode", "--algebra", "kt", corolla6) == (
            2, "", "error: this antipode of up to 48 terms would rebuild roughly 1,176 "
            "vertices in grafting; the cap is 1,175\n")
    monkeypatch.setattr(treehopf.hopf_rooted, "GRAFT_CAP", 1176)
    code, out, err = run(capsys, "antipode", "--algebra", "kt", corolla6)
    assert (code, err) == (0, "")
    # every tree of 7 vertices, rooted_count(7) of them
    terms = re.split(" [+-] ", out.strip())
    assert len(terms) == 48 and {t.split("*")[-1].count("[") for t in terms} == {7}
    # the public product meets it too: 210 choices into trees of 22 vertices
    assert run(capsys, "product", "--algebra", "kt", "[[][]]", "l20")[:2] == (2, "")


def test_grafting_antipode_within_the_term_cap_meets_the_graft_budget(capsys, monkeypatch):
    # the root's branches are two leaves and the ladder l310: S has at most
    # 313^2 = 97,969 terms, but its recursion would graft the two leaves
    # into a tree of 311 vertices in about 48,500 ways; refused at once
    def graft(*args):
        raise AssertionError("a tree was grafted")

    monkeypatch.setattr(GraftingAlgebra, "graft", graft)
    tree = "[[][]" + "[" * 310 + "]" * 310 + "]"
    assert run(capsys, "antipode", "--algebra", "kt", tree) == (
        2, "", "error: this antipode of up to 97,969 terms would rebuild roughly "
        f"4,798,962,480 vertices in grafting; the cap is {GRAFT_CAP:,}\n")
    # at 79 vertices, the same shape is within the budget: 79^2 * 79^2 // 2
    monkeypatch.undo()
    tree = "[[][]" + "[" * 76 + "]" * 76 + "]"
    code, out, err = run(capsys, "antipode", "--algebra", "kt", tree)
    assert (code, err) == (0, "")
    assert 79 ** 4 // 2 <= GRAFT_CAP < 80 ** 4 // 2


def test_planar_grafting_product_priced_by_its_attachment_choices(capsys):
    # the 7-leaf planar corolla grafted into l8 has 89,148 distinct trees,
    # but C(2 * 8 + 5, 7) = 116,280 weakly increasing choices of points:
    # the choices are the bound, since a count of the distinct trees would
    # have to graft them
    assert run(capsys, "product", "--algebra", "kp", "[" + "[]" * 7 + "]", "l8") == (
        2, "", f"error: this product would have up to 116,280 terms; the cap is {TERM_CAP:,}\n")


def test_grafting_products_below_the_cap_are_answered(capsys):
    # 3,240 choices into trees of 82 vertices: about 10.9 million
    code, out, err = run(capsys, "product", "--algebra", "kt", "[[][]]", "l80")
    assert (code, err) == (0, "")
    assert {term.count("[") for term in out.split(" + ")} == {82}
    # the largest kp product of the benchmark's pool, about 4.5e5, stays far below
    code, out, err = run(capsys, "product", "--algebra", "kp", "p[[][][][][]]",
                         "p[[[[[[[]]]]]]]")
    assert (code, err) == (0, "")
    assert 10 * 6188 * 11 ** 2 // 2 < GRAFT_CAP


def test_the_deepest_ladder_under_the_graft_budget_is_answered(capsys):
    # 341 choices, rebuilding 341 * 342^2 // 2 = 19,942,362 vertices: the
    # grafting recursion runs down 341 levels from an explicit stack
    assert 341 * 342 ** 2 // 2 <= GRAFT_CAP < 342 * 343 ** 2 // 2
    code, out, err = run(capsys, "product", "--algebra", "kt", "[[]]", "l341")
    assert (code, err) == (0, "")
    terms = out.split(" + ")
    assert len(terms) == 341
    assert {term.count("[") for term in terms} == {342}
    assert run(capsys, "product", "--algebra", "kt", "[[]]", "l342")[0] == 2


def test_phi_of_e25_is_the_25_vertex_ladder(capsys):
    # m_(1^25) = e_25 has a one-partition down-set, so no degree-25 table
    code, out, err = run(capsys, "map", "--name", "phi", "e25")
    assert (code, err) == (0, "")
    assert out == "[" * 25 + "]" * 25 + "\n"


def _cli_env():
    src = str(pathlib.Path(treehopf.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("command", [
    pytest.param(["map", "--name", "rhostar"], id="rhostar"),
    pytest.param(["map", "--name", "Zstar"], id="Zstar"),
    pytest.param(["coproduct", "--algebra", "ck"], id="ck-coproduct"),
])
def test_deep_chain_fits_under_the_recursion_limit(command):
    # these walks along tree depth run from explicit stacks, so a chain
    # deeper than the default recursion limit is answered, not refused
    chain = "[" * 450 + "]" * 450
    done = subprocess.run([sys.executable, "-m", "treehopf.cli", *command, chain],
                          capture_output=True, text=True, env=_cli_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.strip()


@pytest.mark.parametrize("name, depth", [("kbar", 984), ("Zstar", 492)])
def test_deepest_ladder_of_the_level_count_maps(name, depth):
    # both maps recurse over forests from explicit stacks, not by a Python
    # frame per level: Zstar, at two frames per level, once answered at
    # most 492 vertices, and kbar at most 984
    chain = "[" * depth + "]" * depth
    done = subprocess.run([sys.executable, "-m", "treehopf.cli", "map", "--name", name, chain],
                          capture_output=True, text=True, env=_cli_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "M(%s)\n" % ",".join(["1"] * depth)


# every subcommand that takes a tree, in each tree context, as its argv
# before the tree: a product takes the tree twice, and a pairing pairs it
# with the forest under its root
_TREE_COMMANDS = [
    *([op, "--algebra", alg] for alg in ("kt", "kp", "ck", "hf")
      for op in ("coproduct", "counit", "product")),
    *(["antipode", "--algebra", alg] for alg in ("kt", "kp", "ck", "hf")),
    *(["map", "--name", name] for name in ("phistar", "Phistar", "rhostar", "rho", "Zstar",
                                           "kbar")),
    ["pair", "--kind", "kt-ck", "--right", "{forest}", "--left"],
    ["pair", "--kind", "kp-hf", "--right", "{forest}", "--left"],
]

_RUN_UNDER_A_LOW_LIMIT = """
import contextlib, io, json, sys
from treehopf.cli import main
sys.setrecursionlimit(200)
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as o, \\
            contextlib.redirect_stderr(io.StringIO()) as e:
        code = main(argv)
    out.append([code, o.getvalue(), e.getvalue()])
print(json.dumps(out))
"""


def test_the_deepest_tree_runs_every_command_under_a_low_recursion_limit():
    # every walk along a tree's depth is a loop or a fill from an explicit
    # stack, so CHAIN_CAP, which the parser checks, is the one depth limit;
    # the ck and hf antipodes are refused by their 2^999 cut sets
    runs = []
    for tree, forest in ((f"l{CHAIN_CAP}", f"l{CHAIN_CAP - 1}"),
                         ("[" * CHAIN_CAP + "]" * CHAIN_CAP,
                          "[" * (CHAIN_CAP - 1) + "]" * (CHAIN_CAP - 1))):
        for argv in _TREE_COMMANDS:
            argv = [arg.format(forest=forest) for arg in argv] + [tree]
            runs.append(argv + [tree] if argv[0] == "product" else argv)
    too_deep = "[" * (CHAIN_CAP + 1) + "]" * (CHAIN_CAP + 1)
    runs += [["coproduct", "--algebra", alg, too_deep] for alg in ("kt", "kp", "ck", "hf")]
    done = subprocess.run([sys.executable, "-c", _RUN_UNDER_A_LOW_LIMIT, json.dumps(runs)],
                          capture_output=True, text=True, env=_cli_env())
    assert (done.returncode, done.stderr) == (0, "")
    results = dict(zip(map(tuple, runs), json.loads(done.stdout)))
    assert len(results) == len(runs) == 2 * len(_TREE_COMMANDS) + 4
    chain = "[" * CHAIN_CAP + "]" * CHAIN_CAP
    ones = "M(%s)\n" % ",".join(["1"] * CHAIN_CAP)
    for argv, (code, out, err) in results.items():
        if argv[-1] == too_deep:
            assert (code, out, err) == (2, "", f"error: brackets nested deeper than the cap "
                                               f"{CHAIN_CAP} at position {CHAIN_CAP}\n"), argv
        elif argv[0] == "product" and argv[2] in ("kt", "kp"):
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: this product would graft "), argv
            assert err.endswith(f"; the cap is {GRAFT_CAP:,}\n"), argv
        elif argv[0] == "antipode" and argv[2] in ("ck", "hf"):
            assert (code, out, err) == (2, "", "error: this antipode would have more than "
                                               f"1,000,000,000 terms; the cap is {TERM_CAP:,}\n"), argv
        else:
            assert (code, err) == (0, ""), argv
            want = {"counit": "0\n", "antipode": f"-{'p' * (argv[2] == 'kp')}{chain}\n",
                    "pair": "1\n", "Zstar": ones, "kbar": ones}
            assert out == want.get(argv[0], want.get(argv[2], out)) and out.strip(), argv


def _parts(letter, parts):
    return "%s(%s)" % (letter, ",".join(map(str, parts)))


# part lists of 500 parts or more through every command that walks one:
# argv -> the exit code, and the stdout line count or the refusal's estimate
_LONG_PART_LISTS = [
    (["product", "--algebra", "qsym", _parts("M", [1] * 1000), "M(1)"], 0, 1001),
    (["product", "--algebra", "qsym", "M(1)", _parts("M", [1] * 1000)], 0, 1001),
    (["product", "--algebra", "qsym", "M(1000000)", "M(1)"], 0, 3),
    (["product", "--algebra", "sym", _parts("m", [1] * 1000), "m(1)"], 0, 2),
    (["pair", "--kind", "sym", "--left", _parts("m", [1] * 990), "--right", "m(990)"], 0, 1),
    (["map", "--name", "phi", _parts("m", [1] * 990)], 0, 1),
    (["map", "--name", "tau", "E(990)"], 0, 1),
    (["map", "--name", "Z", "E(990)"], 0, 1),
    (["map", "--name", "Z", _parts("E", [1] * 500)], 2, "more than 1,000,000,000"),
    (["map", "--name", "tau", _parts("E", [1] * 500)], 2, "more than 1,000,000,000"),
    (["map", "--name", "phi", "p500"], 2, "more than 1,000,000,000"),
    (["pair", "--kind", "sym", "--left", "m(500)", "--right", "m(500)"], 2,
     "more than 1,000,000,000"),
    (["product", "--algebra", "qsym", _parts("M", [1] * 500), _parts("M", [1] * 500)], 2,
     "more than 1,000,000,000"),
    (["product", "--algebra", "sym", _parts("m", range(1000, 0, -1)), "m(1)"], 2,
     "more than 1,000,000,000"),
    (["map", "--name", "Zstar", "l500 l500"], 2, "more than 1,000,000,000"),
    (["map", "--name", "kbar", "l500 l500"], 2, "more than 1,000,000,000"),
]


def test_long_part_lists_run_every_command_under_a_low_recursion_limit():
    # every walk along a part list is a loop or a fill from an explicit
    # stack, so each run answers or refuses with an estimate, whatever the
    # recursion limit
    runs = [argv for argv, _, _ in _LONG_PART_LISTS]
    done = subprocess.run([sys.executable, "-c", _RUN_UNDER_A_LOW_LIMIT, json.dumps(runs)],
                          capture_output=True, text=True, env=_cli_env())
    assert (done.returncode, done.stderr) == (0, "")
    for (argv, code, want), (got, out, err) in zip(_LONG_PART_LISTS, json.loads(done.stdout)):
        if code == 0:
            assert (got, err) == (0, ""), argv[:3]
            assert len(out.split(" + ")) == want, argv[:3]
        else:
            assert (got, out) == (2, ""), argv[:3]
            assert err.startswith("error: ") and len(err.splitlines()) == 1, argv[:3]
            assert err.endswith(f" would have {want} terms; the cap is {TERM_CAP:,}\n"), argv[:3]


def test_closed_stdout_exits_141_without_a_traceback():
    # the read end is closed before the child has imported anything, and
    # verify computes its whole report before it writes a line
    child = subprocess.Popen(
        [sys.executable, "-m", "treehopf.cli", "verify", "--suite", "ideh"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait() == 141
    assert err == b""


def test_product_json_terms(capsys):
    code, out, _ = run(
        capsys, "product", "--algebra", "gl", "--format", "json",
        "[[]]", "[[][]]",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == "kt"
    assert doc["terms"] == [
        {"coefficient": "2", "basis": "[[][[]]]"},
        {"coefficient": "1", "basis": "[[][][]]"},
    ]


def test_map_json_names_domains(capsys):
    code, out, _ = run(
        capsys, "map", "--name", "phistar", "--format", "json", "[[][]]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["domain"] == "kt"
    assert doc["codomain"] == "sym"
    assert doc["terms"] == [{"coefficient": "2", "basis": "m(1,1)"}]


def test_algebra_aliases_agree(capsys):
    for a, b in [("gl", "kt"), ("hk", "ck"), ("pgl", "kp"),
                 ("foissy", "hf"), ("ns", "nsym"), ("qs", "qsym")]:
        _, out1, _ = run(capsys, "antipode", "--algebra", a,
                         "[[]]" if a in ("gl", "pgl") else
                         ("([[]])" if a == "foissy" else
                          ("[[]]" if a == "hk" else
                           ("E(2)" if a == "ns" else "M(2)"))))
        _, out2, _ = run(capsys, "antipode", "--algebra", b,
                         "[[]]" if b in ("kt", "kp") else
                         ("([[]])" if b == "hf" else
                          ("[[]]" if b == "ck" else
                           ("E(2)" if b == "nsym" else "M(2)"))))
        assert out1 == out2, (a, b)


ROUNDTRIP_CASES = [
    ("kt", "1/2*[[][]] + [[[]]] - 3*[]"),
    ("ck", "[] [[]] + 2*[[[]]] - 1"),
    ("kp", "p[[][[]]] - p[[[]][]]"),
    ("hf", "([[]],[]) - ([],[[]]) + 1/3*([[][]])"),
    ("sym", "m(2,1) + 3*m(1,1,1) - 1/2*m(3)"),
    ("qsym", "M(2,1) - 1/3*M(1,1,1) + M(3)"),
    ("nsym", "E(2,1) + E(1,2) - 2*E(3) + 5*1"),
]


def test_print_parse_print_fixed_point():
    from treehopf.cli import ALGEBRAS

    for ctx, text in ROUNDTRIP_CASES:
        alg = ALGEBRAS[ctx]
        el = parse_element(text, ctx)
        printed = alg.format(el)
        again = parse_element(printed, ctx)
        assert again == el, ctx
        assert alg.format(again) == printed, ctx


def test_a_long_element_is_the_running_sum_of_its_terms():
    # the parser sums its signed terms once, at the end, as a running sum
    # of each term parsed alone would: the same terms, in the same order,
    # with the same coefficient types, cancellations and fractions included
    import random

    rng = random.Random(4000)
    pieces = []
    for _ in range(4000):
        coeff = rng.choice(["", "2*", "3/2*", "1/2*", "4/4*"])
        pieces.append((rng.choice("+-"), f"{coeff}m({rng.randint(1, 9)},{rng.randint(1, 3)})"))
    text = " ".join(f"{sign} {term}" for sign, term in pieces)
    want = LinComb.zero()
    for sign, term in pieces:
        want += (-1 if sign == "-" else 1) * parse_element(term, "sym")
    got = parse_element(text, "sym")
    assert got == want
    assert [(k, c, type(c)) for k, c in got.items()] == [
        (k, c, type(c)) for k, c in want.items()]


def test_parser_canonicalizes_rooted_but_not_planar():
    assert parse_element("[[][[]]]", "kt") == parse_element("[[[]][]]", "kt")
    assert parse_element("[[][[]]]", "kp") != parse_element("[[[]][]]", "kp")
    # chain shorthand
    assert parse_element("l3", "kt") == LinComb.single(rt("[[[]]]"))
    assert parse_element("l2 l2", "ck") == LinComb.single(
        Forest((rt("[[]]"), rt("[[]]")))
    )


def test_parser_whitespace_and_signs():
    a = parse_element("  2*[[]]   -  [[]] ", "kt")
    assert a == LinComb.single(rt("[[]]"))
    b = parse_element("-[[]] + 2*[[]]", "kt")
    assert b == LinComb.single(rt("[[]]"))
    c = parse_element("-2", "kt")
    assert c == -2 * KT.one()


def test_build_parser_smoke():
    parser = build_parser()
    ns = parser.parse_args(
        ["product", "--algebra", "kt", "[[]]", "[[]]"]
    )
    assert ns.command == "product"


def test_the_parser_is_built_once_and_keeps_nothing_between_command_lines(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as rejected:
        main(["product", "--algebra", "nosuch", "[[]]", "[[]]"])
    assert rejected.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as rejected:
        main(["product", "--algebra", "kt", "[[]]"])
    assert rejected.value.code == 2
    capsys.readouterr()
    assert run(capsys, "product", "--algebra", "gl", "[[]]", "[[][]]") == (
        0, "2*[[][[]]] + [[][][]]\n", "")
    # an option given once is not a default the next time
    assert run(capsys, "counit", "--algebra", "kt", "[]", "--format", "json") == (
        0, '{\n  "value": "1"\n}\n', "")
    assert run(capsys, "counit", "--algebra", "kt", "[]") == (0, "1\n", "")


# ------------------------------------------- the one-pass table parse

def _goldens_pool():
    """Every argv of the benchmark's ``queries`` pool, from ``perfbench/gen.py``
    loaded by path: it imports nothing from treehopf."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.pool()


def _disagreement(argv):
    """How ``cli._parse_plain`` and argparse, the reference, differ on argv,
    or None: the table parse may decline anything, but what it answers
    argparse answers with the same namespace."""
    got = cli._parse_plain(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            want = build_parser().parse_args(argv)
    except SystemExit:
        want = None
    if got is None or (want is not None and vars(got) == vars(want)):
        return None
    return f"{argv}: table {vars(got)}, argparse {want and vars(want)}"


# tokens a plain command line holds nowhere, or only in some places
_ODD_TOKENS = ["--", "-h", "--help", "-", "-3", "-x", " -x", " 3", "", " ", "+3", "1_0",
               "\u0663", "\u00b2", "nosuch", "json", "[]"]
_VALUES = ("[]", "[[]]", "l3", "M(2,1)", "m(1)", "E(1)", "1/2*[]", "p[[]]")
# ASCII digits, the last more than int() converts by default
_DIGITS = ("0", "3", "12", "1" * 5000)


def _drawn_command_lines():
    """Token lists near the plain grammar: a subcommand's arguments in a
    drawn order, each value from its choices, its ints' digits or element
    texts, now and then an odd token or an option name instead, and now
    and then a required option left out; then up to three tokens inserted,
    replaced or deleted, drawn from those and the subcommand's option
    abbreviations and --opt=value forms."""
    st = pytest.importorskip("hypothesis").strategies
    names = sorted({name for _, _, before, after in cli._COMMANDS.values()
                    for name, _ in before + after if name[0] == "-"} | {"--format"})

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(cli._COMMANDS)))
        _, _, before, after = cli._COMMANDS[command]
        odd = _ODD_TOKENS + names + sorted(cli._COMMANDS)
        segments = []
        for name, kw in before + [cli._FORMAT] + after:
            valid = kw.get("choices") or (_DIGITS if "type" in kw else _VALUES)
            value = draw(st.sampled_from(valid if draw(st.integers(0, 5)) else odd))
            if name[0] != "-":
                segments.append([value])
                continue
            odd += [name[:k] for k in range(3, len(name))] + [f"{name}={value}"]
            if draw(st.integers(0, 5) if kw.get("required") else st.booleans()):
                segments.append([name] if "action" in kw else [name, value])
        argv = [command] + [token for seg in draw(st.permutations(segments)) for token in seg]
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(argv)))
            how, token = draw(st.sampled_from(("insert", "replace", "delete"))), draw(st.sampled_from(odd))
            if how == "insert":
                argv.insert(i, token)
            elif i < len(argv):
                argv[i:i + 1] = [token] if how == "replace" else []
        return argv

    return argvs()


def _check_drawn_command_lines():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @hypothesis.given(_drawn_command_lines())
    def check(argv):
        assert _disagreement(argv) is None

    check()


def test_table_parse_gives_argparse_namespace_on_the_goldens_pool():
    pool = _goldens_pool()
    assert [argv for argv in pool if _disagreement(argv)] == []
    # all but the one invalid choice are plain
    assert [argv for argv in pool if cli._parse_plain(argv) is None] == [
        ["product", "--algebra", "nosuch", "[]", "[]"]]


def test_table_parse_gives_argparse_namespace_on_drawn_token_lists():
    _check_drawn_command_lines()


def test_a_table_parse_that_skips_choices_fails_the_oracle(monkeypatch):
    broken = {command: (values, {name: (dest, None, kind, flag)
                                 for name, (dest, _, kind, flag) in options.items()},
                        positionals, required)
              for command, (values, options, positionals, required) in cli._PLAIN.items()}
    monkeypatch.setattr(cli, "_PLAIN", broken)
    assert _disagreement(["product", "--algebra", "nosuch", "[]", "[]"])
    with pytest.raises(AssertionError):
        _check_drawn_command_lines()


def _subparsers():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "-h"] for command in cli._COMMANDS],
                         ids=lambda argv: argv[0])
def test_help_is_argparse_help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    parser = build_parser() if argv == ["--help"] else _subparsers()[argv[0]]
    assert exc.value.code == 0
    assert capsys.readouterr() == (parser.format_help(), "")


@pytest.mark.parametrize("argv, message", [
    (["product", "--algebra", "nosuch", "[]", "[]"], "invalid choice: 'nosuch'"),
    (["counit", "[]"], "the following arguments are required: --algebra"),
    (["counit", "--algebra", "kt", "[]", "extra"], "unrecognized arguments: extra"),
], ids=["invalid-choice", "missing-required", "unrecognized"])
def test_usage_errors_are_argparse_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    with pytest.raises(SystemExit) as reference:
        build_parser().parse_args(argv)
    assert (exc.value.code, reference.value.code, out) == (2, 2, "")
    assert err == capsys.readouterr().err
    assert err.startswith("usage: treehopf ") and message in err


@pytest.mark.parametrize("argv, plain", [
    (["counit", "--alg", "kt", "[]"], ["counit", "--algebra", "kt", "[]"]),
    (["product", "--algebra", "kt", "--format=json", "[]", "[[]]"],
     ["product", "--algebra", "kt", "--format", "json", "[]", "[[]]"]),
], ids=["abbreviation", "equals"])
def test_forms_left_to_argparse_answer_as_the_plain_ones(capsys, argv, plain):
    assert cli._parse_plain(argv) is None and cli._parse_plain(plain) is not None
    assert run(capsys, *argv) == run(capsys, *plain)


# The exact JSON document of each subcommand on the README inputs.
JSON_DOCS = [
    (("coproduct", "--algebra", "qsym", "M(2,1)"),
     {"algebra": "qsym", "terms": [
         {"coefficient": "1", "left": "1", "right": "M(2,1)"},
         {"coefficient": "1", "left": "M(2)", "right": "M(1)"},
         {"coefficient": "1", "left": "M(2,1)", "right": "1"}]}),
    (("antipode", "--algebra", "sym", "e3"),
     {"algebra": "sym", "terms": [
         {"basis": "m(1,1,1)", "coefficient": "-1"},
         {"basis": "m(2,1)", "coefficient": "-1"},
         {"basis": "m(3)", "coefficient": "-1"}]}),
    (("counit", "--algebra", "nsym", "E(1,2) + 3*1"), {"value": "3"}),
    (("pair", "--kind", "kt-ck", "--left", "[[][]]", "--right", "[] []"),
     {"value": "2"}),
    (("kappa", "2"),
     {"algebra": "kt", "terms": [{"basis": "[[[]]]", "coefficient": "1"},
                                 {"basis": "[[][]]", "coefficient": "1/2"}]}),
    (("epsilon", "2"),
     {"algebra": "kt", "terms": [{"basis": "[[][]]", "coefficient": "1/2"}]}),
    (("enumerate", "--kind", "rooted", "--vertices", "5"),
     {"count": 9, "kind": "rooted", "vertices": 5, "trees": [
         "[[[[[]]]]]", "[[[[][]]]]", "[[[][[]]]]", "[[[][][]]]", "[[[]][[]]]",
         "[[][[[]]]]", "[[][[][]]]", "[[][][[]]]", "[[][][][]]"]}),
    (("enumerate", "--kind", "rooted", "--vertices", "5", "--count-only"),
     {"count": 9, "kind": "rooted", "vertices": 5}),
    (("expand", "--vars", "2", "M(2,1)"),
     {"terms": [{"coefficient": "1", "exponents": [2, 1]}], "vars": 2}),
]


@pytest.mark.parametrize(
    "argv, doc", JSON_DOCS,
    ids=[argv[0] + ("-count-only" if "--count-only" in argv else "") for argv, _ in JSON_DOCS],
)
def test_json_document_is_pinned(capsys, argv, doc):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def readme_examples():
    """(argv, printed line) for each ``treehopf`` example in README's
    "Command line" block that shows its output."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = block.strip().splitlines()
    return [
        (shlex.split(line)[1:], following)
        for line, following in zip(lines, lines[1:] + [""])
        if line.startswith("treehopf ") and not line.startswith("treehopf verify")
    ]


def test_readme_examples_print_what_readme_shows(capsys):
    examples = readme_examples()
    assert len(examples) == 8
    for argv, printed in examples:
        assert run(capsys, *argv) == (0, printed + "\n", ""), argv
