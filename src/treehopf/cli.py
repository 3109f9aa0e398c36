"""Command-line front end.

Subcommands: product, coproduct, antipode, counit (pick the algebra with
--algebra), map (one of the named homomorphisms), pair (a duality pairing),
kappa and epsilon (the distinguished tree elements), enumerate, expand (the
polynomial realization of the composition basis), and verify (the identity
suites).  Every subcommand takes --format text|json.

Element syntax, by algebra context:

  kt     bracket trees like [[][]]; l3 is the 3-vertex chain; [] the unit
  ck     forests: trees juxtaposed with spaces, [[]] [] ; 1 is empty
  kp     planar trees, optionally prefixed: p[[][[]]] (order matters)
  hf     ordered forests: ([[]],[]) ; a bare tree means the one-tree forest
  sym    m(2,1); the shorthands e3, h3, p3 expand to monomial form
  qsym   M(2,1,1)
  nsym   E(2,1)

Rational coefficients attach with *, e.g. 1/2*[[][]] + 2*[[[]]] - M(2).
A bare rational is that multiple of the unit.  Unordered tree input is
canonicalized; planar and ordered input is taken as written.  Exit codes:
0 success, 1 verification failure, 2 usage or parse error.
"""

import argparse
import json
import sys
from fractions import Fraction

from .foundations import LinComb
from .trees import (
    Forest,
    OrderedForest,
    PlanarTree,
    RootedTree,
    _parse_tree,
    enumerate_planar,
    enumerate_rooted,
    ladder,
    planar_ladder,
)
from .hopf_rooted import HK, KT, epsilon, kappa
from .hopf_planar import HF, KP
from .symfun import NSYM, QSYM, SYM, e, expand_truncated, h, p
from .morphisms import MAP_TABLE
from .pairings import ip_sym, pair_kp_hf, pair_kt_ck, pair_ns_qs
from .verify import SUITE_NAMES, run_all, run_suite

ALGEBRAS = {
    "kt": KT, "gl": KT,
    "ck": HK, "hk": HK,
    "kp": KP, "pgl": KP,
    "hf": HF, "foissy": HF,
    "sym": SYM,
    "qsym": QSYM, "qs": QSYM,
    "nsym": NSYM, "ns": NSYM,
}

PAIR_KINDS = {
    "kt-ck": (KT, HK, pair_kt_ck),
    "ns-qs": (NSYM, QSYM, pair_ns_qs),
    "kp-hf": (KP, HF, pair_kp_hf),
    "sym": (SYM, SYM, ip_sym),
}

ENUM_CAP = 12
SERIES_CAP = 10


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class _Parser:
    """Recursive-descent element parser for one algebra context."""

    def __init__(self, text, algebra):
        self.text = text
        self.pos = 0
        self.algebra = algebra

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> LinComb:
        total = LinComb.zero()
        self.skip_ws()
        if self.pos == len(self.text):
            self.error("empty element")
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        while True:
            total += sign * self.term()
            self.skip_ws()
            if self.pos == len(self.text):
                return total
            if self.peek() not in "+-":
                self.error(f"expected '+' or '-', found {self.peek()!r}")
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1

    def term(self) -> LinComb:
        self.skip_ws()
        coeff = None
        if self.peek().isdigit():
            coeff = self.rational()
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
            else:
                # a bare rational is a multiple of the unit
                return coeff * self.algebra.one()
        atom = self.atom()
        return atom if coeff is None else coeff * atom

    def rational(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        num = int(self.text[start : self.pos])
        if self.peek() == "/":
            self.pos += 1
            dstart = self.pos
            while self.peek().isdigit():
                self.pos += 1
            if dstart == self.pos:
                self.error("expected digits after '/'")
            den = int(self.text[dstart : self.pos])
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return num

    def atom(self) -> LinComb:
        name = self.algebra.name
        ch = self.peek()
        if ch == "":
            self.error("expected an element")
        if name == "kt":
            if ch == "1":
                self.pos += 1
                return self.algebra.one()
            return LinComb.single(self.tree_atom(RootedTree))
        if name == "kp":
            if ch == "1":
                self.pos += 1
                return self.algebra.one()
            return LinComb.single(self.planar_atom())
        if name == "ck":
            if ch == "1":
                self.pos += 1
                return self.algebra.one()
            trees = [self.tree_atom(RootedTree)]
            while True:
                self.skip_ws()
                if self.peek() in ("[", "l"):
                    trees.append(self.tree_atom(RootedTree))
                else:
                    break
            return LinComb.single(Forest(tuple(trees)))
        if name == "hf":
            if ch == "1":
                self.pos += 1
                return self.algebra.one()
            if ch == "(":
                self.pos += 1
                members = []
                self.skip_ws()
                if self.peek() == ")":
                    self.pos += 1
                    return self.algebra.one()
                while True:
                    members.append(self.planar_atom())
                    self.skip_ws()
                    if self.peek() == ",":
                        self.pos += 1
                        self.skip_ws()
                        continue
                    self.expect(")")
                    break
                return LinComb.single(OrderedForest(tuple(members)))
            return LinComb.single(OrderedForest((self.planar_atom(),)))
        if name == "sym":
            if ch == "1":
                self.pos += 1
                return self.algebra.one()
            if ch == "m":
                parts = self.part_list("m")
                return LinComb.single(tuple(sorted(parts, reverse=True)))
            if ch in "ehp":
                self.pos += 1
                k = self.integer("basis index")
                if ch == "e":
                    return e(k)
                if ch == "h":
                    return h(k)
                if k < 1:
                    self.error("power sums start at 1")
                return p(k)
            self.error(f"unexpected {ch!r} in symmetric context")
        if name == "qsym":
            if ch == "1":
                self.pos += 1
                return self.algebra.one()
            if ch == "M":
                return LinComb.single(self.part_list("M"))
            self.error(f"unexpected {ch!r} in quasi-symmetric context")
        if name == "nsym":
            if ch == "1":
                self.pos += 1
                return self.algebra.one()
            if ch == "E":
                return LinComb.single(self.part_list("E"))
            self.error(f"unexpected {ch!r} in noncommutative context")
        self.error(f"no grammar for algebra {name}")

    def tree_atom(self, factory):
        ch = self.peek()
        if ch == "l":
            self.pos += 1
            k = self.integer("chain length")
            if k < 1:
                self.error("chains start at 1 vertex")
            return ladder(k) if factory is RootedTree else planar_ladder(k)
        if ch != "[":
            self.error(f"expected a tree, found {ch!r}")
        tree, self.pos = _parse_tree(self.text, self.pos, factory)
        return tree

    def planar_atom(self):
        if self.peek() == "p":
            self.pos += 1
        return self.tree_atom(PlanarTree)

    def integer(self, what):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}")
        return int(self.text[start : self.pos])

    def part_list(self, letter):
        self.expect(letter)
        self.expect("(")
        parts = []
        self.skip_ws()
        if self.peek() == ")":
            self.pos += 1
            return ()
        while True:
            n = self.integer("positive part")
            if n < 1:
                self.error("parts must be positive")
            parts.append(n)
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                self.skip_ws()
                continue
            self.expect(")")
            break
        return tuple(parts)


def parse_element(text: str, context: str) -> LinComb:
    if context not in ALGEBRAS:
        raise ParseError(f"unknown algebra {context!r}", 0)
    parser = _Parser(text, ALGEBRAS[context])
    result = parser.parse()
    return result


# ------------------------------------------------------------- serialization

def _coeff_str(c):
    return str(c)


def element_terms(algebra, a: LinComb):
    keys = sorted(a.keys(), key=algebra.key_sort)
    return [
        {"coefficient": _coeff_str(a[k]), "basis": algebra.key_str(k)} for k in keys
    ]


def tensor_terms(algebra, t: LinComb):
    keys = sorted(t.keys(), key=algebra.tensor_key_sort)
    return [
        {
            "coefficient": _coeff_str(t[k]),
            "left": algebra.key_str(k[0]),
            "right": algebra.key_str(k[1]),
        }
        for k in keys
    ]


def _emit(args, text_fn, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        print(text_fn())
    return 0


# ---------------------------------------------------------------- handlers

def _cmd_product(args):
    alg = ALGEBRAS[args.algebra]
    x = parse_element(args.left, args.algebra)
    y = parse_element(args.right, args.algebra)
    result = alg.product(x, y)
    return _emit(
        args,
        lambda: alg.format(result),
        {"algebra": alg.name, "terms": element_terms(alg, result)},
    )


def _cmd_coproduct(args):
    alg = ALGEBRAS[args.algebra]
    x = parse_element(args.element, args.algebra)
    result = alg.coproduct(x)
    return _emit(
        args,
        lambda: alg.format_tensor(result),
        {"algebra": alg.name, "terms": tensor_terms(alg, result)},
    )


def _cmd_antipode(args):
    alg = ALGEBRAS[args.algebra]
    x = parse_element(args.element, args.algebra)
    result = alg.antipode(x)
    return _emit(
        args,
        lambda: alg.format(result),
        {"algebra": alg.name, "terms": element_terms(alg, result)},
    )


def _cmd_counit(args):
    alg = ALGEBRAS[args.algebra]
    x = parse_element(args.element, args.algebra)
    value = alg.counit(x)
    return _emit(args, lambda: _coeff_str(value), {"value": _coeff_str(value)})


def _cmd_map(args):
    domain, codomain, fn = MAP_TABLE[args.name]
    ctx = domain.name
    x = parse_element(args.element, ctx)
    result = fn(x)
    return _emit(
        args,
        lambda: codomain.format(result),
        {
            "map": args.name,
            "domain": domain.name,
            "codomain": codomain.name,
            "terms": element_terms(codomain, result),
        },
    )


def _cmd_pair(args):
    left_alg, right_alg, pairing = PAIR_KINDS[args.kind]
    x = parse_element(args.left, left_alg.name)
    y = parse_element(args.right, right_alg.name)
    value = pairing(x, y)
    return _emit(args, lambda: _coeff_str(value), {"value": _coeff_str(value)})


def _series_guard(n):
    if n < 0:
        raise ParseError("index must be nonnegative", 0)
    if n > SERIES_CAP:
        print(
            f"error: index {n} exceeds the cap {SERIES_CAP}; these elements "
            f"sum over all trees of that size and grow superexponentially",
            file=sys.stderr,
        )
        return False
    return True


def _cmd_kappa(args):
    if not _series_guard(args.n):
        return 2
    result = kappa(args.n)
    return _emit(
        args,
        lambda: KT.format(result),
        {"algebra": "kt", "terms": element_terms(KT, result)},
    )


def _cmd_epsilon(args):
    if not _series_guard(args.n):
        return 2
    result = epsilon(args.n)
    return _emit(
        args,
        lambda: KT.format(result),
        {"algebra": "kt", "terms": element_terms(KT, result)},
    )


def _cmd_enumerate(args):
    kind = "planar" if args.planar else args.kind
    n = args.vertices
    if n < 1:
        print("error: vertex count must be at least 1", file=sys.stderr)
        return 2
    if n > ENUM_CAP:
        print(
            f"error: refusing to enumerate {n}-vertex trees (cap {ENUM_CAP}); "
            f"counts grow exponentially",
            file=sys.stderr,
        )
        return 2
    if kind == "rooted":
        trees = enumerate_rooted(n)
        names = [t.encoding for t in trees]
    else:
        trees = enumerate_planar(n)
        names = ["p" + t.encoding for t in trees]
    if args.count_only:
        return _emit(
            args,
            lambda: str(len(names)),
            {"kind": kind, "vertices": n, "count": len(names)},
        )
    return _emit(
        args,
        lambda: "\n".join(names),
        {"kind": kind, "vertices": n, "count": len(names), "trees": names},
    )


def _cmd_expand(args):
    x = parse_element(args.element, "qsym")
    if args.vars < 0:
        print("error: variable count must be nonnegative", file=sys.stderr)
        return 2
    if args.vars > 10:
        print("error: refusing more than 10 variables", file=sys.stderr)
        return 2
    poly = expand_truncated(x, args.vars)
    items = sorted(poly.terms.items())

    def fmt():
        if not items:
            return "0"
        parts = []
        for expo, c in items:
            factors = [
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(expo)
                if k
            ]
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}" if factors else str(c))
        return " + ".join(parts)

    return _emit(
        args,
        fmt,
        {
            "vars": args.vars,
            "terms": [
                {"coefficient": _coeff_str(c), "exponents": list(expo)}
                for expo, c in items
            ],
        },
    )


def _cmd_verify(args):
    if args.suite == "all":
        reports = run_all(args.max_degree)
    else:
        reports = [run_suite(args.suite, args.max_degree)]
    ok = all(r.ok for r in reports)
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if args.suite != "all" else payload,
                         indent=2, sort_keys=True))
    else:
        for r in reports:
            print("\n".join(r.lines()))
    return 0 if ok else 1


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treehopf",
        description="exact computations in six graded Hopf algebras of trees, "
        "compositions, and partitions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output encoding (default text)",
        )

    def add_algebra(p):
        p.add_argument(
            "--algebra", required=True, choices=sorted(ALGEBRAS),
            help="algebra context for parsing and printing",
        )

    pr = sub.add_parser("product", help="multiply two elements")
    add_algebra(pr)
    add_format(pr)
    pr.add_argument("left")
    pr.add_argument("right")
    pr.set_defaults(fn=_cmd_product)

    co = sub.add_parser("coproduct", help="coproduct of an element")
    add_algebra(co)
    add_format(co)
    co.add_argument("element")
    co.set_defaults(fn=_cmd_coproduct)

    an = sub.add_parser("antipode", help="antipode of an element")
    add_algebra(an)
    add_format(an)
    an.add_argument("element")
    an.set_defaults(fn=_cmd_antipode)

    cu = sub.add_parser("counit", help="counit of an element")
    add_algebra(cu)
    add_format(cu)
    cu.add_argument("element")
    cu.set_defaults(fn=_cmd_counit)

    mp = sub.add_parser("map", help="apply one of the named homomorphisms")
    mp.add_argument("--name", required=True, choices=sorted(MAP_TABLE))
    add_format(mp)
    mp.add_argument("element")
    mp.set_defaults(fn=_cmd_map)

    pa = sub.add_parser("pair", help="evaluate a duality pairing")
    pa.add_argument("--kind", required=True, choices=sorted(PAIR_KINDS))
    add_format(pa)
    pa.add_argument("--left", required=True)
    pa.add_argument("--right", required=True)
    pa.set_defaults(fn=_cmd_pair)

    ka = sub.add_parser(
        "kappa", help="symmetry-weighted sum of all trees of a given size"
    )
    add_format(ka)
    ka.add_argument("n", type=int)
    ka.set_defaults(fn=_cmd_kappa)

    ep = sub.add_parser(
        "epsilon", help="alternating divided-power partner of kappa"
    )
    add_format(ep)
    ep.add_argument("n", type=int)
    ep.set_defaults(fn=_cmd_epsilon)

    en = sub.add_parser("enumerate", help="list or count trees by vertex count")
    en.add_argument("--kind", choices=("rooted", "planar"), default="rooted")
    en.add_argument(
        "--planar", action="store_true", help="shorthand for --kind planar"
    )
    en.add_argument("--vertices", type=int, required=True)
    en.add_argument("--count-only", action="store_true")
    add_format(en)
    en.set_defaults(fn=_cmd_enumerate)

    ex = sub.add_parser(
        "expand", help="realize a quasi-symmetric element as a polynomial"
    )
    ex.add_argument("--vars", type=int, required=True)
    add_format(ex)
    ex.add_argument("element")
    ex.set_defaults(fn=_cmd_expand)

    ve = sub.add_parser("verify", help="run an identity verification suite")
    ve.add_argument(
        "--suite", required=True, choices=SUITE_NAMES + ("all",),
    )
    ve.add_argument("--max-degree", type=int, default=None)
    add_format(ve)
    ve.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # ParseError and SuiteBoundError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # exit 1 is reserved for a failed verification
        print("error: input is nested too deeply to process", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
