"""Input streams for the ``queries`` workload, built from the seed alone.

Standard library only: this module imports nothing from ``treehopf``, so a
change to the program's enumeration order, canonical form, caps or
defaults cannot change what the workload sends.

The pool of every invocation the workload can send is fixed (it does not
depend on the seed), which is what lets ``goldens.json`` hold the expected
exit code and output digest of each one.  A seed picks, for every family,
a fixed number of distinct pool entries, and then the order of everything
after the stream's fixed opening.
"""

import random
from functools import lru_cache

ALGEBRAS = ("kt", "ck", "kp", "hf", "sym", "qsym", "nsym")
MAP_NAMES = ("tau", "phi", "phistar", "Phi", "Phistar", "rho", "rhostar",
             "Z", "Zstar", "kbar")
PAIR_KINDS = ("kt-ck", "ns-qs", "kp-hf", "sym")
SUITES = ("hopf-axioms", "hexagon", "dualities", "divided-powers",
          "zstar-intertwine", "zstar-surjectivity", "quasi-shuffle-oracle",
          "enumeration-counts", "ideh")

# Degree each suite runs at inside the query stream: 10-300 ms each from a
# fresh process, long enough to time reliably, short enough to stay light.
QUERY_SUITE_DEGREES = {"hopf-axioms": 4, "hexagon": 4, "dualities": 3, "divided-powers": 7,
                       "zstar-intertwine": 7, "zstar-surjectivity": 8,
                       "quasi-shuffle-oracle": 6, "enumeration-counts": 8, "ideh": 8}

# Every family draws from a pool of at most this many entries.
POOL_LIMIT = 40


# ----------------------------------------------------------- combinatorics

@lru_cache(maxsize=None)
def rooted(n):
    """Bracket strings of all rooted trees with n vertices, children of every
    vertex sorted by (size, text)."""
    if n == 1:
        return ("[]",)
    return tuple(sorted("[" + "".join(kids) + "]" for kids in _multisets(n - 1, 1)))


@lru_cache(maxsize=None)
def _multisets(m, smallest):
    """Multisets of rooted trees with m vertices in total, as tuples in
    non-decreasing (size, text) order, every member of size >= smallest."""
    if m == 0:
        return ((),)
    out = []
    for size in range(smallest, m + 1):
        for t in rooted(size):
            for rest in _multisets(m - size, size):
                if rest and len(rest[0]) // 2 == size and rest[0] < t:
                    continue  # keep equal-size members in text order
                out.append((t,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def planar(n):
    """Bracket strings of all planar trees with n vertices."""
    if n == 1:
        return ("[]",)
    return tuple("[" + "".join(seq) + "]" for seq in _sequences(n - 1))


@lru_cache(maxsize=None)
def _sequences(m):
    if m == 0:
        return ((),)
    return tuple(
        (t,) + rest
        for size in range(1, m + 1)
        for t in planar(size)
        for rest in _sequences(m - size)
    )


def forests(n):
    """Forest strings (space-separated trees) with n vertices in total."""
    return tuple(" ".join(ts) for ts in _multisets(n, 1))


def ordered_forests(n):
    return tuple("(" + ",".join(seq) + ")" for seq in _sequences(n))


@lru_cache(maxsize=None)
def partitions(n, largest=None):
    if n == 0:
        return ((),)
    cap = n if largest is None else min(n, largest)
    return tuple(
        (first,) + rest
        for first in range(cap, 0, -1)
        for rest in partitions(n - first, first)
    )


@lru_cache(maxsize=None)
def compositions(n):
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(n, 0, -1)
        for rest in compositions(n - first)
    )


def parts(letter, seq):
    return "%s(%s)" % (letter, ",".join(str(p) for p in seq))


def corolla(leaves, chains):
    """Root with ``leaves`` single-vertex children and ``chains`` two-vertex
    children."""
    return "[" + "[]" * leaves + "[[]]" * chains + "]"


def downsets(forest):
    """Number of downsets (sets closed under taking children) of a forest."""
    def tree(text, i):
        i += 1
        below = 1
        while text[i] == "[":
            d, i = tree(text, i)
            below *= d
        return below + 1, i + 1  # downsets without the root, plus the whole tree

    total = 1
    for t in forest.split(" "):
        total *= tree(t, 0)[0]
    return total


# ------------------------------------------------------------------- pools

def _take(items, limit=POOL_LIMIT):
    """A fixed, evenly spread selection of at most ``limit`` items."""
    items = list(items)
    if len(items) <= limit:
        return items
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


def _with_formats(argvs):
    """Every third entry asks for JSON output, the rest for text."""
    return [argv + ["--format", "json"] if i % 3 == 2 else argv
            for i, argv in enumerate(argvs)]


def _elements(alg, lo, hi):
    """Basis elements in the syntax of ``alg`` with size in [lo, hi]."""
    out = []
    for n in range(lo, hi + 1):
        if alg == "kt":
            out += rooted(n)
        elif alg == "kp":
            out += ["p" + t for t in planar(n)]
        elif alg == "ck":
            out += forests(n)
        elif alg == "hf":
            out += ordered_forests(n)
        elif alg == "sym":
            out += [parts("m", lam) for lam in partitions(n)]
        elif alg == "qsym":
            out += [parts("M", c) for c in compositions(n)]
        else:
            out += [parts("E", c) for c in compositions(n)]
    return out


def _combos(elems):
    """Short linear combinations with rational coefficients."""
    out = []
    for i in range(0, len(elems) - 1, 2):
        out.append(f"1/2*{elems[i]} - 3*{elems[i + 1]}")
    return out


# kt and kp products cost |t'|^k and binomial(2|t'| + k - 2, k) graftings,
# k being the root arity of the left factor, so light products keep k <= 3.
def _light_products(alg):
    if alg in ("kt", "kp"):
        trees = rooted if alg == "kt" else planar
        lefts = [t for n in range(1, 5) for t in trees(n)]  # at most 4 vertices
        rights = [t for n in range(1, 6) for t in trees(n)]
        prefix = "p" if alg == "kp" else ""
        pairs = [(prefix + a, prefix + b) for a in lefts for b in rights
                 if a.count("[") + b.count("[") <= 8]
    elif alg in ("sym", "qsym"):
        elems = [e for e in _elements(alg, 1, 4) if e.count(",") + 1 <= 3]
        pairs = [(a, b) for a in elems for b in elems if _weight(a) + _weight(b) <= 7]
    else:
        elems = _elements(alg, 1, 4)
        pairs = [(a, b) for a in elems for b in elems if _size(alg, a) + _size(alg, b) <= 8]
    pairs = _take(pairs)
    return [["product", "--algebra", alg, a, b] for a, b in pairs]


def _arity(tree):
    """Root arity of a bracket tree (an optional leading 'p' is skipped)."""
    depth = 0
    count = 0
    for ch in tree.lstrip("p"):
        if ch == "[":
            depth += 1
            if depth == 2:
                count += 1
        elif ch == "]":
            depth -= 1
    return count


def _weight(text):
    inner = text[text.index("(") + 1 : text.index(")")]
    return sum(int(x) for x in inner.split(",")) if inner else 0


def _size(alg, text):
    if alg in ("kt", "kp", "ck", "hf"):
        return text.count("[")
    return _weight(text)


def _light_unary(command, alg, lo, hi):
    elems = _take(_elements(alg, lo, hi) + _combos(_elements(alg, lo, min(hi, lo + 2))))
    return [[command, "--algebra", alg, x] for x in elems]


_ANTIPODE_SIZE = {"kt": (2, 6), "kp": (2, 6), "ck": (1, 5), "hf": (1, 5),
                  "sym": (1, 5), "qsym": (1, 5), "nsym": (1, 5)}

_MAP_INPUTS = {
    "tau": lambda: _elements("nsym", 1, 6),
    "phi": lambda: _elements("sym", 1, 5),
    "phistar": lambda: _elements("kt", 2, 7),
    "Phi": lambda: _elements("nsym", 1, 6),
    "Phistar": lambda: _elements("kp", 2, 7),
    "rho": lambda: _elements("hf", 1, 6),
    "rhostar": lambda: [t for t in _elements("kt", 2, 7) if _arity(t) <= 5],
    "Z": lambda: _elements("nsym", 1, 4),
    "Zstar": lambda: _elements("ck", 1, 7),
    "kbar": lambda: _elements("ck", 1, 7),
}


def _light_pairs(kind):
    if kind == "kt-ck":
        left = rooted(5) + rooted(6)
        right = forests(4) + forests(5)
    elif kind == "kp-hf":
        left = tuple("p" + t for t in planar(5))
        right = ordered_forests(4)
    elif kind == "ns-qs":
        left = tuple(parts("E", c) for c in compositions(5))
        right = tuple(parts("M", c) for c in compositions(5))
    else:
        left = tuple(parts("m", lam) for lam in partitions(5)) + ("e4", "h3", "p5")
        right = tuple(parts("m", lam) for lam in partitions(5) + partitions(4))
    pairs = _take([(a, b) for a in left for b in right])
    return [["pair", "--kind", kind, "--left", a, "--right", b] for a, b in pairs]


def _heavy_classes():
    """One pool per heavy class.  Members of a class cost about the same
    and each stream takes exactly one of each, so the tail of the latency
    distribution moves little from seed to seed."""
    classes = {}
    for arity in (4, 5):
        # left factors: root arity 4-5 over leaves and two-vertex chains
        lefts = [corolla(arity - j, j) for j in range(3)]
        for right_size in (6, 7):
            rights = rooted(right_size)
            picks = _take([(a, b) for a in lefts for b in rights], 12)
            classes[f"kt-product-a{arity}v{right_size}"] = [
                ["product", "--algebra", "kt", a, b] for a, b in picks]
            prights = planar(right_size)
            picks = _take([(a, b) for a in lefts for b in prights], 12)
            classes[f"kp-product-a{arity}v{right_size}"] = [
                ["product", "--algebra", "kp", "p" + a, "p" + b] for a, b in picks]
    # sym products of m(1^k) by a small partition.  The quasi-symmetric
    # round trip enumerates every ordering of each result's parts, so the
    # cost is set by the most parts in the result (9, 9 and 10 here), kept
    # equal within a class.  No two members of different classes, and no
    # phi or pair input (weights up to 10), have a result in common, so no
    # op's cost depends on which ops the seed put before it.
    rights = {7: ("m(2,2)", "m(3,2)", "m(4,2)", "m(3,3)", "m(5,2)"),
              8: ("m(7)", "m(8)", "m(9)", "m(10)"),
              9: ("m(2)", "m(3)", "m(4)", "m(5)")}
    for k, rs in rights.items():
        ones = parts("m", (1,) * k)
        classes[f"sym-product-1^{k}"] = [["product", "--algebra", "sym", ones, r] for r in rs]
    for leaves in (7, 8, 9):
        classes[f"rhostar-corolla{leaves}"] = [
            ["map", "--name", "rhostar", corolla(leaves - j, j)] for j in range(3)]
    for w in (8, 9, 10):
        classes[f"phi-w{w}"] = [
            ["map", "--name", "phi", parts("m", lam)]
            for lam in _take(partitions(w), 12)]
    for n, target in ((9, 120), (10, 210), (11, 340)):
        # forests of three or four trees whose kbar cost, which follows the
        # number of downsets, is within 15% of the class target
        cands = [f for f in forests(n) if 3 <= f.count(" ") + 1 <= 4
                 and abs(downsets(f) - target) <= 0.15 * target]
        classes[f"kbar-v{n}"] = [["map", "--name", "kbar", f] for f in _take(cands, 12)]
    for w in (7, 8, 9):
        lams = _take(partitions(w), 12)
        classes[f"pair-sym-w{w}"] = [
            ["pair", "--kind", "sym", "--left", parts("m", a), "--right", parts("m", b)]
            for a, b in zip(lams, reversed(lams))]
    for n in (8, 9):
        classes[f"kt-antipode-v{n}"] = [
            ["antipode", "--algebra", "kt", t] for t in _take(rooted(n), 12)]
    return classes


def _refusals():
    """Inputs every version of the program must refuse with exit code 2.

    Degrees and sizes sit far above any cap a faster program could reach.
    """
    verify = [["verify", "--suite", s, "--max-degree", str(d)]
              for s in SUITES for d in (30, 40)]
    enum = [["enumerate", "--kind", k, "--vertices", str(n)]
            for k in ("rooted", "planar") for n in (30, 40, 60)]
    series = [[cmd, str(n)] for cmd in ("kappa", "epsilon") for n in (30, 45, 60)]
    malformed = [
        ["product", "--algebra", "kt", "[[]", "[]"],
        ["product", "--algebra", "kt", "[[]]]", "[]"],
        ["coproduct", "--algebra", "kt", "[[][]"],
        ["antipode", "--algebra", "kp", "p[[]"],
        ["antipode", "--algebra", "sym", "M(2,1)"],
        ["coproduct", "--algebra", "qsym", "m(2,1)"],
        ["product", "--algebra", "nsym", "E(2,0)", "E(1)"],
        ["map", "--name", "tau", "M(2,1)"],
        ["map", "--name", "tau", "m(2)"],
        ["map", "--name", "Zstar", "E(1,1)"],
        ["pair", "--kind", "ns-qs", "--left", "M(1)", "--right", "E(1)"],
        ["expand", "--vars", "2", "E(1)"],
        ["product", "--algebra", "sym", "1/0*m(1)", "m(1)"],
        ["counit", "--algebra", "hf", "([[]],"],
        ["product", "--algebra", "ck", "[[]] x", "[]"],
        ["product", "--algebra", "nosuch", "[]", "[]"],
    ]
    return {"refuse-verify": verify, "refuse-enumerate": enum,
            "refuse-series": series, "malformed": malformed}


@lru_cache(maxsize=None)
def families():
    """Family name -> (picks per stream, pool of argv lists)."""
    fam = {}
    for alg in ALGEBRAS:
        fam[f"product-{alg}"] = (4, _with_formats(_light_products(alg)))
        fam[f"coproduct-{alg}"] = (4, _with_formats(_light_unary("coproduct", alg, 1, 7)))
        lo, hi = _ANTIPODE_SIZE[alg]
        fam[f"antipode-{alg}"] = (4, _with_formats(_light_unary("antipode", alg, lo, hi)))
        fam[f"counit-{alg}"] = (1, _with_formats(_light_unary("counit", alg, 1, 6)))
    for name in MAP_NAMES:
        pool = _take(_MAP_INPUTS[name]())
        fam[f"map-{name}"] = (4, _with_formats([["map", "--name", name, x] for x in pool]))
    for kind in PAIR_KINDS:
        fam[f"pair-{kind}"] = (3, _with_formats(_light_pairs(kind)))
    fam["kappa"] = (3, _with_formats([["kappa", str(n)] for n in range(0, 7)]))
    fam["epsilon"] = (3, _with_formats([["epsilon", str(n)] for n in range(0, 7)]))
    fam["enumerate"] = (4, _with_formats(
        [["enumerate", "--kind", k, "--vertices", str(n)] + (["--count-only"] if c else [])
         for k in ("rooted", "planar") for n in range(1, 9) for c in (False, True)]))
    fam["expand"] = (4, _with_formats(
        [["expand", "--vars", str(v), x]
         for v in range(0, 6) for x in _take(_elements("qsym", 1, 4), 8)]))
    for suite in SUITES:
        fam[f"verify-{suite}"] = (1, [
            ["verify", "--suite", suite, "--max-degree", str(QUERY_SUITE_DEGREES[suite])] + fmt
            for fmt in ([], ["--format", "json"])])
    for name, pool in _refusals().items():
        fam[name] = ({"malformed": 8, "refuse-verify": 3}.get(name, 2), pool)
    for name, pool in _heavy_classes().items():
        fam[f"heavy-{name}"] = (1, pool)
    return fam


def pool():
    """Every argv the workload can send, each once, in a fixed order."""
    seen = set()
    out = []
    for _, items in families().values():
        for argv in items:
            key = key_of(argv)
            if key not in seen:
                seen.add(key)
                out.append(argv)
    return out


def key_of(argv):
    """The goldens key of an invocation."""
    return "\t".join(argv)


def stream(seed):
    """The invocations one ``queries`` stream sends, in order, for ``seed``.

    The session opens with each suite, in registry order, so that their
    times start from a known cache state; the seed orders the rest.
    """
    rng = random.Random(seed)
    opening, ops = [], []
    for name in sorted(families()):
        count, items = families()[name]
        picks = [(name, argv) for argv in rng.sample(items, count)]
        (opening if name.startswith("verify-") else ops).extend(picks)
    rng.shuffle(ops)
    opening.sort(key=lambda op: SUITES.index(op[0][len("verify-"):]))
    return opening + ops
