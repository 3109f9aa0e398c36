"""Tests of the benchmark itself (not of treehopf).

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def _goldens():
    with open(run.GOLDENS) as fh:
        return json.load(fh)["ops"]


def test_generator_is_deterministic_and_imports_no_treehopf():
    code = (
        "import json, sys; sys.path.insert(0, %r); import gen; "
        "s = gen.stream(11); "
        "print(json.dumps([s, sorted(m for m in sys.modules if m.startswith('treehopf'))]))"
        % BENCH
    )
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    stream, imported = json.loads(outs[0])
    assert imported == []
    assert [list(x) for x in gen.stream(11)] == stream
    assert gen.stream(12) != gen.stream(11)


def test_stream_is_stratified_and_covered_by_goldens():
    goldens = _goldens()
    counts = {name: count for name, (count, _) in gen.families().items()}
    for seed in (0, 1, 2**31):
        ops = gen.stream(seed)
        assert len(ops) >= 200
        seen = {}
        for family, argv in ops:
            seen[family] = seen.get(family, 0) + 1
            assert gen.key_of(argv) in goldens
        assert seen == counts
    for argv in gen.pool():
        assert gen.key_of(argv) in goldens
    refusals = [f for f in counts if f.startswith(("refuse-", "malformed"))]
    assert all(goldens[gen.key_of(a)][0] == 2
               for f in refusals for a in gen.families()[f][1])


def test_check_counts_every_wrong_output():
    goldens = {"a": [0, "x"], "b": [2, "y"], "c": [0, "z"], "d": [0, "w"]}
    result = {"ops": [
        {"s": 0.1, "rc": 0, "digest": "x", "error": None},
        {"s": 0.1, "rc": 0, "digest": "y", "error": None},        # wrong exit code
        {"s": 0.1, "rc": 0, "digest": "corrupted", "error": None},  # wrong output
        {"s": 0.1, "rc": None, "digest": None, "error": "RecursionError: x"},
    ]}
    keys = [("f", "a"), ("f", "b"), ("f", "c"), ("f", "d")]
    failures = []
    samples = run.check([(result, keys)], goldens, failures)
    assert len(samples) == 4
    assert [f["op"] for f in failures] == ["b", "c", "d"]


def test_benchmark_exits_nonzero_on_golden_mismatch(tmp_path, monkeypatch, capsys):
    goldens = json.load(open(run.GOLDENS))
    key = run.suite_key("ideh", run.DEFAULT_DEGREES["ideh"])
    goldens["ops"][key] = [0, "0000000000000000"]
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(goldens))
    monkeypatch.setattr(run, "GOLDENS", str(corrupted))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "verify-default", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 9


def test_self_time_on_nested_spans():
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 14, 15])
    t = layers.Tracer(clock=lambda: next(ticks))

    def leaf():
        return None

    c = t.wrap("c", leaf)
    b = t.wrap("b", lambda: c())
    d = t.wrap("d", leaf)

    def body():
        b()   # b: 1..4, c inside: 2..3
        d()   # d: 5..9
        return None

    a = t.wrap("a", body)
    a()       # a: 0..10
    rec = []
    r = t.wrap("r", lambda n: r(n - 1) if n else rec.append(n))
    r(1)      # outer r: 11..15, inner r: 12..14
    assert t.stats["a"] == [1, 10 - 3 - 4, 0]
    assert t.stats["b"] == [1, 3 - 1, 0]
    assert t.stats["c"] == [1, 1, 0]
    assert t.stats["d"] == [1, 4, 0]
    assert t.stats["r"] == [2, (4 - 2) + 2, 0]
    assert t.root[0] == 10 + 4  # covered by top-level spans a and outer r
    parents = {span[0]: span[4] for span in t.spans}
    names = {span[0]: span[1] for span in t.spans}
    assert {names[i]: names.get(p) for i, p in parents.items() if names[i] in {"b", "c", "d"}} == {
        "b": "a", "c": "b", "d": "a"}


def test_scaled_time_weights_each_stretch_and_skips_the_probe():
    ref = speed.REFERENCE_S
    # probe runs at [0, 1], [5, 6] and [10, 11]; unit CPU times ref, 3 ref, ref
    samples = [(0, 1, ref), (5, 6, 3 * ref), (10, 11, ref)]
    # [1, 5] at mean unit 2 ref counts half; [6, 10] likewise
    assert speed.scaled(samples, 1, 11) == pytest.approx(2 + 2)
    assert speed.scaled(samples, 2, 4) == pytest.approx(1)
    assert speed.scaled(samples, 0.5, 5.5) == pytest.approx(2)


@pytest.mark.parametrize("mode", ["cli", "suites"])
def test_traced_run_gives_the_same_digests(mode, tmp_path):
    if mode == "cli":
        ops = [argv for family, argv in gen.stream(5) if not family.startswith("heavy-")][:60]
    else:
        ops = [["hexagon", 3], ["dualities", 2], ["ideh", 5]]
    plain = run.run_worker({"mode": mode, "ops": ops})
    traced = run.run_worker({"mode": mode, "ops": ops, "trace": True,
                             "spans": str(tmp_path / "spans.jsonl")})
    digests = [(o["rc"], o["digest"], o["error"]) for o in plain["ops"]]
    assert digests == [(o["rc"], o["digest"], o["error"]) for o in traced["ops"]]
    assert all(error is None for _, _, error in digests)
    assert traced["trace"]["spans_kept"] > 0
    assert (tmp_path / "spans.jsonl").exists()


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    for m in spec["per_layer"]:
        unit, better, _ = layers.METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
    e2e = {m["name"] for m in spec["end_to_end"]}
    printed = {"setup_s", "wall_s", "peak_rss_mb", "op_p50_ms", "op_p95_ms", "ok_ratio"}
    printed |= {f"suite_s.{s}" for s in run.SUITES}
    assert e2e == printed
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
