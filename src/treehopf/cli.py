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
canonicalized; planar and ordered input is taken as written.

Brackets nest at most ``CHAIN_CAP`` deep, the longest chain l<k>: the one
depth limit, checked while scanning, before any tree is built.  Every walk
along a tree's depth or a part list runs from a loop or an explicit stack,
so no input meets Python's recursion limit.

This module checks only the shape of its input: chain lengths, bracket
depth, the indices of e<k>, h<k>, kappa and epsilon, the vertex count of
``enumerate --count-only`` and suite degrees.  Everything else is refused
by the pricing rule that ``hopf`` states, at the entry of the operation
that would build the result; ``enumerate`` and ``expand`` price their own
output by it.

Exit codes: 0 success; 1 a verification found a defect, including one the
library detects by raising while a suite runs; 2 a refusal.  Every refusal
(a parse error, a cap, a suite bound, a library refusal) prints exactly one
"error:" line on stderr.

The command table ``_COMMANDS`` parses a plain command line in one pass
(``_parse_plain``).  argparse, built from the same table, parses every
other form, prints help and rejects a command line with exit 2, after its
usage text.
A command whose stdout is closed before it finishes writing exits 141, as
if killed by SIGPIPE.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .foundations import LinComb, memo
from .trees import (
    Forest,
    OrderedForest,
    PlanarTree,
    RootedTree,
    _parse_tree,
    ladder,
)
from .hopf import capped_binomial, capped_product, capped_sum, check_terms
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

SERIES_CAP = 10
# longest chain literal l<k>, each of whose k trees holds its own encoding,
# largest index of the e<k> and h<k> shorthands, and most vertices that
# ``enumerate --count-only`` counts
CHAIN_CAP = 1000

# algebra whose basis is written as part lists (after its ``letter``) ->
# the context word of its parse errors
_PART_LISTS = {"sym": "symmetric", "qsym": "quasi-symmetric", "nsym": "noncommutative"}


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

    def at_digit(self):
        # ASCII only: str.isdigit also takes '²' or '٣', and "" at the end
        # of the text is a substring of any string of digits
        return "0" <= self.peek() <= "9"

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
        if not self.at_digit():
            return self.atom()
        coeff = self.rational()
        self.skip_ws()
        if self.peek() != "*":
            # a bare rational is a multiple of the unit
            return coeff * self.algebra.one()
        self.pos += 1
        self.skip_ws()
        return coeff * self.atom()

    def rational(self):
        num = self.integer("digits")
        if self.peek() != "/":
            return num
        self.pos += 1
        den = self.integer("digits after '/'")
        if den == 0:
            self.error("zero denominator")
        return Fraction(num, den)

    def atom(self) -> LinComb:
        name = self.algebra.name
        ch = self.peek()
        if ch == "":
            self.error("expected an element")
        if ch == "1":
            self.pos += 1
            return self.algebra.one()
        if name in _PART_LISTS:
            return self.part_atom(name, ch)
        if name == "kt":
            key = self.tree_atom(RootedTree)
        elif name == "kp":
            key = self.planar_atom()
        elif name == "ck":
            trees = [self.tree_atom(RootedTree)]
            self.skip_ws()
            while self.peek() in ("[", "l"):
                trees.append(self.tree_atom(RootedTree))
                self.skip_ws()
            key = Forest(tuple(trees))
        else:  # hf: a bare tree is the one-tree forest
            trees = self.comma_list(self.planar_atom) if ch == "(" else (self.planar_atom(),)
            key = OrderedForest(trees)
        return LinComb.single(key)

    def part_atom(self, name, ch) -> LinComb:
        if name == "sym" and ch in "ehp":
            self.pos += 1
            k = self.integer("basis index")
            if ch == "p" and k < 1:
                self.error("power sums start at 1")
            if ch in "eh" and k > CHAIN_CAP:
                raise ValueError(f"{ch}{k} exceeds the index cap {CHAIN_CAP}; its "
                                 f"partitions have up to {k:,} parts")
            return {"e": e, "h": h, "p": p}[ch](k)
        if ch != self.algebra.letter:
            self.error(f"unexpected {ch!r} in {_PART_LISTS[name]} context")
        self.pos += 1
        parts = self.comma_list(self.part)
        if name == "sym":  # a partition lists its parts in weakly decreasing order
            parts = tuple(sorted(parts, reverse=True))
        return LinComb.single(parts)

    def tree_atom(self, factory):
        ch = self.peek()
        if ch == "l":
            self.pos += 1
            k = self.integer("chain length")
            if k < 1:
                self.error("chains start at 1 vertex")
            if k > CHAIN_CAP:
                raise ValueError(f"chain length {k} exceeds the cap {CHAIN_CAP}; its trees "
                                 f"would hold {k * (k + 1):,} characters of encodings")
            return ladder(k, factory)
        if ch != "[":
            self.error(f"expected a tree, found {ch!r}")
        self.check_nesting()
        tree, self.pos = _parse_tree(self.text, self.pos, factory)
        return tree

    def check_nesting(self):
        """Refuse brackets nested deeper than ``CHAIN_CAP``, the longest
        chain l<k>, while scanning them, before any tree is built."""
        depth = 0
        for pos in range(self.pos, len(self.text)):
            ch = self.text[pos]
            if ch == "[":
                depth += 1
                if depth > CHAIN_CAP:
                    raise ParseError(f"brackets nested deeper than the cap {CHAIN_CAP}", pos)
            elif ch == "]" and depth > 1:
                depth -= 1
            else:  # the tree's end, or a parse error that _parse_tree reports
                return

    def planar_atom(self):
        if self.peek() == "p":
            self.pos += 1
        return self.tree_atom(PlanarTree)

    def integer(self, what):
        start = self.pos
        while self.at_digit():
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}")
        return int(self.text[start : self.pos])

    def part(self):
        n = self.integer("positive part")
        if n < 1:
            self.error("parts must be positive")
        return n

    def comma_list(self, item) -> tuple:
        """``(item, item, ...)``, possibly empty, with spaces around items."""
        self.expect("(")
        items = []
        self.skip_ws()
        if self.peek() == ")":
            self.pos += 1
            return ()
        while True:
            items.append(item())
            self.skip_ws()
            if self.peek() != ",":
                self.expect(")")
                return tuple(items)
            self.pos += 1
            self.skip_ws()


def parse_element(text: str, context: str) -> LinComb:
    if context not in ALGEBRAS:
        raise ParseError(f"unknown algebra {context!r}", 0)
    return _Parser(text, ALGEBRAS[context]).parse()


# ------------------------------------------------------------- serialization

def element_terms(algebra, a: LinComb):
    keys = sorted(a.keys(), key=algebra.key_sort)
    return [{"coefficient": str(a[k]), "basis": algebra.key_str(k)} for k in keys]


def tensor_terms(algebra, t: LinComb):
    keys = sorted(t.keys(), key=algebra.tensor_key_sort)
    return [
        {
            "coefficient": str(t[k]),
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


def _element(args, alg, result, **fields):
    """Print an element of ``alg``; ``fields`` head its JSON document."""
    doc = {**fields, "terms": element_terms(alg, result)}
    return _emit(args, lambda: alg.format(result), doc)


def _tensor(args, alg, result):
    doc = {"algebra": alg.name, "terms": tensor_terms(alg, result)}
    return _emit(args, lambda: alg.format_tensor(result), doc)


def _scalar(args, value):
    return _emit(args, lambda: str(value), {"value": str(value)})


def _monomial(expo, c):
    """Text of the term c * x1^expo[0] * x2^expo[1] * ..."""
    body = "*".join(
        f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(expo) if k
    )
    return str(c) if not body else body if c == 1 else f"{c}*{body}"


# ---------------------------------------------------------------- handlers
#
# A handler returns the exit code and refuses input by raising ValueError;
# ``main`` prints the refusal.

def _cmd_operation(args):
    """product, coproduct, antipode and counit in the --algebra context."""
    alg, op = ALGEBRAS[args.algebra], args.command
    texts = (args.left, args.right) if op == "product" else (args.element,)
    elements = [parse_element(text, args.algebra) for text in texts]
    result = getattr(alg, op)(*elements)
    if op == "coproduct":
        return _tensor(args, alg, result)
    if op == "counit":
        return _scalar(args, result)
    return _element(args, alg, result, algebra=alg.name)


def _cmd_map(args):
    domain, codomain, fn = MAP_TABLE[args.name]
    result = fn(parse_element(args.element, domain.name))
    return _element(
        args, codomain, result,
        map=args.name, domain=domain.name, codomain=codomain.name,
    )


def _cmd_pair(args):
    left_alg, right_alg, pairing = PAIR_KINDS[args.kind]
    x = parse_element(args.left, left_alg.name)
    y = parse_element(args.right, right_alg.name)
    return _scalar(args, pairing(x, y))


def _cmd_series(args):
    """kappa, a weighted sum of all trees of a size, and epsilon, a scaled corolla."""
    n = args.n
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > SERIES_CAP:
        raise ValueError(f"index {n} exceeds the cap {SERIES_CAP}; kappa({n}) sums over "
                         f"all {n + 1}-vertex trees, whose number grows exponentially")
    result = kappa(n) if args.command == "kappa" else epsilon(n)
    return _element(args, KT, result, algebra=KT.name)


def _cmd_enumerate(args):
    """The trees of a vertex count, listed and priced by their number, or
    that number alone, computed without building any tree."""
    kind = args.kind
    n = args.vertices
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    alg = KT if kind == "rooted" else KP
    if args.count_only:
        if n > CHAIN_CAP:
            raise ValueError(f"vertex count {n} exceeds the cap {CHAIN_CAP}; the count "
                             f"has more than {n * 4 // 10:,} digits")
        count = alg.tree_count(n)
        return _emit(args, lambda: str(count), {"kind": kind, "vertices": n, "count": count})
    check_terms("this listing", alg.degree_terms(n - 1), "trees")
    names = [alg.key_str(t) for t in alg.basis(n - 1)]
    doc = {"kind": kind, "vertices": n, "count": len(names)}
    return _emit(args, lambda: "\n".join(names), {**doc, "trees": names})


def _cmd_expand(args):
    x = parse_element(args.element, "qsym")
    n = args.vars
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    # a monomial of M_comp picks len(comp) of the n variables, and lists n
    # exponents; there may be no monomial, so that count comes first
    monomials = capped_sum(capped_binomial(n, len(comp)) for comp in x)
    check_terms("this expansion", capped_product((monomials, n)), "exponents")
    items = sorted(expand_truncated(x, n).items())
    terms = [{"coefficient": str(c), "exponents": list(expo)} for expo, c in items]
    return _emit(
        args, lambda: " + ".join(_monomial(*item) for item in items) or "0",
        {"vars": n, "terms": terms},
    )


def _cmd_verify(args):
    one, d = args.suite != "all", args.max_degree
    reports = [run_suite(args.suite, d)] if one else run_all(d)
    if args.format == "json":
        docs = [r.to_dict() for r in reports]
        print(json.dumps(docs[0] if one else docs, indent=2, sort_keys=True))
    else:
        print("\n".join(line for r in reports for line in r.lines()))
    return 0 if all(r.ok for r in reports) else 1


# ------------------------------------------------------------------ parser

_FORMAT = ("--format", {
    "choices": ("text", "json"), "default": "text",
    "help": "output encoding (default text)",
})
_ALGEBRA = ("--algebra", {
    "required": True, "choices": sorted(ALGEBRAS),
    "help": "algebra context for parsing and printing",
})
_ELEMENT = ("element", {})
_INDEX = ("n", {"type": int})

# subcommand -> (help, handler, arguments before --format, arguments after it);
# an argument is (name, add_argument keywords)
_COMMANDS = {
    "product": ("multiply two elements", _cmd_operation,
                [_ALGEBRA], [("left", {}), ("right", {})]),
    "coproduct": ("coproduct of an element", _cmd_operation, [_ALGEBRA], [_ELEMENT]),
    "antipode": ("antipode of an element", _cmd_operation, [_ALGEBRA], [_ELEMENT]),
    "counit": ("counit of an element", _cmd_operation, [_ALGEBRA], [_ELEMENT]),
    "map": ("apply one of the named homomorphisms", _cmd_map,
            [("--name", {"required": True, "choices": sorted(MAP_TABLE)})],
            [_ELEMENT]),
    "pair": ("evaluate a duality pairing", _cmd_pair,
             [("--kind", {"required": True, "choices": sorted(PAIR_KINDS)})],
             [("--left", {"required": True}), ("--right", {"required": True})]),
    "kappa": ("symmetry-weighted sum of all trees of a given size", _cmd_series,
              [], [_INDEX]),
    "epsilon": ("alternating divided-power partner of kappa", _cmd_series,
                [], [_INDEX]),
    "enumerate": ("list or count trees by vertex count", _cmd_enumerate, [
        ("--kind", {"choices": ("rooted", "planar"), "default": "rooted"}),
        ("--vertices", {"type": int, "required": True}),
        ("--count-only", {"action": "store_true"}),
    ], []),
    "expand": ("realize a quasi-symmetric element as a polynomial", _cmd_expand,
               [("--vars", {"type": int, "required": True})], [_ELEMENT]),
    "verify": ("run an identity verification suite", _cmd_verify, [
        ("--suite", {"required": True, "choices": SUITE_NAMES + ("all",)}),
        ("--max-degree", {"type": int}),
    ], []),
}


@memo
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing a
    command line leaves no state in it."""
    top = argparse.ArgumentParser(
        prog="treehopf",
        description="exact computations in seven graded Hopf algebras of trees, "
        "compositions, and partitions",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, before, after) in _COMMANDS.items():
        parser = sub.add_parser(command, help=help_text)
        for name, options in before + [_FORMAT] + after:
            parser.add_argument(name, **options)
        parser.set_defaults(fn=handler)
    return top


def _plain_table():
    """subcommand -> (argparse's namespace before any argument, option name
    -> spec, positional specs in order, required option names), a spec
    being (dest, choices, type or None, whether it stores True).  It reads
    the add_argument keywords that ``_COMMANDS`` uses: the oracle tests
    compare the one-pass parse with argparse on every subcommand."""
    table = {}
    for command, (_, handler, before, after) in _COMMANDS.items():
        values, options, positionals, required = {"command": command, "fn": handler}, {}, [], set()
        for name, kw in before + [_FORMAT] + after:
            flag = kw.get("action") == "store_true"
            dest = name.lstrip("-").replace("-", "_")
            spec = (dest, kw.get("choices"), kw.get("type"), flag)
            if name[0] != "-":
                positionals.append(spec)
                continue
            options[name] = spec
            values[dest] = kw.get("default", False if flag else None)
            if kw.get("required"):
                required.add(name)
        table[command] = (values, options, positionals, required)
    return table


_PLAIN = _plain_table()


def _parse_plain(argv):
    """argparse's namespace for a plain command line, parsed in one pass
    from ``_COMMANDS``: a known subcommand, then options by their exact
    names and positionals, every value valid and not starting with '-',
    every required argument given and nothing left over.  None for any
    other command line, which argparse parses: help, usage errors, and the
    forms this pass does not take (an abbreviated option, --opt=value, --,
    a value starting with '-', an int not written in ASCII digits)."""
    entry = _PLAIN.get(argv[0]) if argv else None
    if entry is None:
        return None
    values, options, positionals, required = entry
    values, given, tokens, free = dict(values), set(), iter(argv[1:]), iter(positionals)
    for token in tokens:
        if token[:1] == "-":
            spec = options.get(token)
            given.add(token)
        else:
            spec = next(free, None)
        if spec is None:
            return None
        dest, choices, kind, flag = spec
        if flag:
            values[dest] = True
            continue
        if token[:1] == "-":  # an option, whose value is the next token
            token = next(tokens, "-")
            if token[:1] == "-":
                return None
        if kind is not None:
            if not (token.isascii() and token.isdigit()):
                return None
            try:
                token = kind(token)
            except ValueError:  # more digits than the interpreter converts
                return None
        if choices is not None and token not in choices:
            return None
        values[dest] = token
    if not required <= given or next(free, None) is not None:
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # every refusal, ParseError, SuiteBoundError and the library's term
        # and graft caps included; exit 1 is reserved for a failed
        # verification.  No walk along a tree or a part list recurses, so
        # the recursion limit refuses nothing
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    """The console script: ``main``, exiting 141 if stdout closes early."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at shutdown; let that land
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
