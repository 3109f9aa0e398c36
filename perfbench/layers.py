"""Per-layer tracing, done from outside the program.

``install`` wraps the public functions and methods of every module of
``treehopf`` in spans.  A function is rebound in every ``treehopf`` module
namespace (and every module-level table) that holds it, and a method is
patched on its class, so each wrapper reaches every caller.  Nothing under
``src/`` changes.

A span has a name, a start, an end, a parent and the id of the workload
operation that was running.  Spans are kept in memory (up to
``SPAN_LIMIT`` records per process; aggregates cover every span) and
written when the pass ends.  Self time is a span's duration minus the time
covered by its child spans.
"""

import functools
import json
import sys
import time

from gen import ALGEBRAS, MAP_NAMES, SUITES

SPAN_LIMIT = 50_000

# Span that counts the memo misses (calls of product_keys) of each algebra.
PRODUCT_KEYS_SPAN = {
    "kt": "hopf_rooted.kt.product_keys", "ck": "hopf_rooted.ck.product_keys",
    "kp": "hopf_planar.kp.product_keys", "hf": "hopf_planar.hf.product_keys",
    "sym": "symfun.sym.product_keys", "qsym": "symfun.qsym.product_keys",
    "nsym": "symfun.nsym.product_keys",
}


class Tracer:
    """Span recorder with a stack of open spans.

    ``stats[name]`` is ``[calls, self seconds, measured count]``.  The root
    frame collects the time covered by top-level spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.root = [0.0, 0]  # [time covered by children, span id]
        self.stack = [self.root]
        self.spans = []
        self.spans_dropped = 0
        self.next_id = 1
        self.op = None
        self.lookups = {}

    def wrap(self, name, fn, measure=None):
        """``fn`` recorded as span ``name``; ``measure(args, result)`` adds
        to the span's count."""
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack, clock, spans, tracer = self.stack, self.clock, self.spans, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if len(spans) < SPAN_LIMIT:
                    spans.append((frame[1], name, start, end, parent[1], tracer.op))
                else:
                    tracer.spans_dropped += 1
            if measure is not None:
                stat[2] += measure(args, result)
            return result

        return traced

    def count_lookups(self, fn):
        """``fn`` is the memo entry ``HopfAlgebra._pk``; count calls per
        algebra without a span, it being the hottest call in the program."""
        lookups = self.lookups

        @functools.wraps(fn)
        def counted(alg, k1, k2):
            name = alg.name
            lookups[name] = lookups.get(name, 0) + 1
            return fn(alg, k1, k2)

        return counted

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def _terms(args, result):
    return len(result)


def _cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _checked(args, result):
    return result.checked


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "treehopf" or name.startswith("treehopf.")) and m is not None]


def _rebind(original, replacement):
    """Replace ``original`` wherever a treehopf module holds it: as a module
    attribute, or inside a module-level dict of tuples (``MAP_TABLE``,
    ``PAIR_KINDS``, the suite registry)."""
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, tuple) and any(x is original for x in item):
                        value[key] = tuple(replacement if x is original else x for x in item)


def _patch(cls, attr, wrap):
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(cls, attr, type(raw)(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def install(tracer=None):
    """Wrap every traced layer of the imported ``treehopf`` package."""
    import treehopf.cli as cli
    from treehopf import foundations, hopf, hopf_planar, hopf_rooted
    from treehopf import morphisms, pairings, symfun, trees, verify

    t = tracer or Tracer()

    def fn(name, func, measure=None):
        _rebind(func, t.wrap(name, func, measure))

    def method(name, cls, attr, measure=None):
        _patch(cls, attr, lambda f: t.wrap(name, f, measure))

    fn("foundations.rearrangements", foundations.rearrangements, _terms)
    for attr in ("__init__", "single", "zero", "apply_linear", "__add__", "__sub__",
                 "__mul__", "__rmul__", "tensor"):
        method("foundations.lincomb", foundations.LinComb, attr)

    fn("trees.planar_fiber", trees.planar_fiber, _terms)
    for func in (trees.enumerate_rooted, trees.enumerate_planar,
                 trees.forests_of_degree, trees.ordered_forests_of_degree):
        fn("trees.enumerate", func)
    fn("trees.sym_order", trees.sym_order)

    for attr in ("product", "coproduct", "antipode_key"):
        method(f"hopf.{attr}", hopf.HopfAlgebra, attr)
    _patch(hopf.HopfAlgebra, "_pk", t.count_lookups)
    for alg in (hopf_rooted.KT, hopf_rooted.HK, hopf_planar.KP, hopf_planar.HF,
                symfun.SYM, symfun.QSYM, symfun.NSYM):
        method(PRODUCT_KEYS_SPAN[alg.name], type(alg), "product_keys", _terms)
    method("hopf_rooted.ck.coproduct_key", hopf_rooted.ForestAlgebra, "coproduct_key", _terms)
    method("hopf_planar.hf.coproduct_key", hopf_planar.OrderedForestAlgebra,
           "coproduct_key", _terms)
    fn("hopf_rooted.kappa_epsilon", hopf_rooted.kappa)
    fn("hopf_rooted.kappa_epsilon", hopf_rooted.epsilon)

    fn("symfun.m_to_e", symfun.m_to_e)
    fn("symfun.expand_truncated", symfun.expand_truncated)

    for name, (_, _, func) in list(morphisms.MAP_TABLE.items()):
        fn(f"morphisms.{name}", func, _terms)

    for attr in ("ip_kt", "ip_ck", "ip_kp", "ip_hf", "ip_qs", "ip_ns", "ip_sym",
                 "pair_kt_ck", "pair_ns_qs", "pair_kp_hf"):
        fn("pairings.pairing", getattr(pairings, attr))
    fn("pairings.pair_tensor", pairings.pair_tensor)
    fn("pairings.check_duality_criterion", pairings.check_duality_criterion, _checked)

    fn("verify.exact_rank", verify.exact_rank, _cells)
    for name, (_, _, runner) in list(verify._SUITES.items()):
        fn(f"verify.suite.{name}", runner)

    fn("cli.build_parser", cli.build_parser)
    fn("cli.parse_element", cli.parse_element)
    for func in (cli._emit, cli.element_terms, cli.tensor_terms):
        fn("cli.format", func)
    return t


def memo_entries():
    """Entries in the per-instance memos of the seven algebras."""
    import treehopf

    total = 0
    for alg in (treehopf.KT, treehopf.HK, treehopf.KP, treehopf.HF,
                treehopf.SYM, treehopf.QSYM, treehopf.NSYM):
        total += sum(len(v) for k, v in vars(alg).items()
                     if k.endswith("_memo") and isinstance(v, dict))
    return total


def summary(tracer, wall):
    """What one traced process hands back to the benchmark."""
    return {
        "stats": tracer.stats,
        "covered_s": tracer.root[0],
        "wall_s": wall,
        "lookups": tracer.lookups,
        "memo_entries": memo_entries(),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
    }


# ------------------------------------------------------- per-layer metrics

def _metric_table():
    """Per-layer metric name -> (unit, better, how to read it from the
    summed summaries)."""
    table = {}

    def span(prefix, *fields):
        for field in fields:
            if field == "calls":
                table[f"{prefix}.calls"] = ("count", "lower", ("stat", prefix, 0))
            elif field == "self_s":
                table[f"{prefix}.self_s"] = ("s", "lower", ("stat", prefix, 1))
            else:
                better = "higher" if field == "checked" else "lower"
                table[f"{prefix}.{field}"] = ("count", better, ("stat", prefix, 2))

    span("foundations.rearrangements", "calls", "self_s", "terms_out")
    span("foundations.lincomb", "calls", "self_s")
    span("trees.planar_fiber", "calls", "self_s", "terms_out")
    span("trees.enumerate", "calls", "self_s")
    span("trees.sym_order", "calls", "self_s")
    for attr in ("product", "coproduct", "antipode_key"):
        span(f"hopf.{attr}", "calls", "self_s")
    for alg in ALGEBRAS:
        table[f"hopf.{alg}.memo_hit_ratio"] = ("ratio", "higher", ("hit", alg))
    table["hopf.memo_entries"] = ("count", "lower", ("memo_entries",))
    span("hopf_rooted.kt.product_keys", "calls", "self_s", "terms_out")
    span("hopf_rooted.ck.coproduct_key", "calls", "self_s", "terms_out")
    span("hopf_rooted.kappa_epsilon", "calls", "self_s")
    span("hopf_planar.kp.product_keys", "calls", "self_s", "terms_out")
    span("hopf_planar.hf.coproduct_key", "calls", "self_s", "terms_out")
    span("symfun.sym.product_keys", "calls", "self_s", "terms_out")
    span("symfun.qsym.product_keys", "calls", "self_s", "terms_out")
    span("symfun.m_to_e", "calls", "self_s")
    span("symfun.expand_truncated", "calls", "self_s")
    for name in MAP_NAMES:
        span(f"morphisms.{name}", "calls", "self_s", "terms_out")
    span("pairings.pairing", "calls", "self_s")
    span("pairings.pair_tensor", "calls", "self_s")
    span("pairings.check_duality_criterion", "calls", "self_s", "checked")
    span("verify.exact_rank", "calls", "self_s", "cells")
    for name in SUITES:
        span(f"verify.suite.{name}", "self_s")
    for name in ("build_parser", "parse_element", "format"):
        span(f"cli.{name}", "calls", "self_s")
    table["trace.overhead_ratio"] = ("ratio", "lower", ("overhead",))
    table["trace.coverage"] = ("ratio", "higher", ("coverage",))
    return table


METRICS = _metric_table()


def merge(summaries):
    """Sum the summaries of the processes of one traced pass, given as
    (summary, speed) pairs; ``speed`` turns the process's measured seconds
    into seconds at the reference speed (see speed.py)."""
    total = {"stats": {}, "covered_s": 0.0, "wall_s": 0.0, "lookups": {},
             "memo_entries": 0, "spans_kept": 0, "spans_dropped": 0}
    for s, speed in summaries:
        for name, (calls, self_s, count) in s["stats"].items():
            acc = total["stats"].setdefault(name, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += self_s * speed
            acc[2] += count
        for name, n in s["lookups"].items():
            total["lookups"][name] = total["lookups"].get(name, 0) + n
        for key in ("covered_s", "wall_s", "memo_entries", "spans_kept", "spans_dropped"):
            total[key] += s[key]
    return total


def layer_metrics(merged, traced_wall, untraced_wall):
    """Every per-layer metric, as {"value", "unit"} entries; the two walls
    are the traced and untraced passes' ``wall_s``."""
    out = {}
    for name, (unit, _, how) in METRICS.items():
        kind = how[0]
        if kind == "stat":
            value = merged["stats"].get(how[1], [0, 0.0, 0])[how[2]]
        elif kind == "hit":
            lookups = merged["lookups"].get(how[1], 0)
            misses = merged["stats"].get(PRODUCT_KEYS_SPAN[how[1]], [0])[0]
            value = 1 - misses / lookups if lookups else 0.0
        elif kind == "memo_entries":
            value = merged["memo_entries"]
        elif kind == "overhead":
            value = traced_wall / untraced_wall
        else:
            value = merged["covered_s"] / merged["wall_s"]
        out[name] = {"value": value, "unit": unit}
    return out
