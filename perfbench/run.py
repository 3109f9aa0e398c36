"""The treehopf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (all closed loop, one client, one process at a time):

  verify-default  all nine suites in one fresh process, in registry order,
                  at the default degrees passed explicitly; repeated in
                  fresh processes until the time is used.  Small keys that
                  hit the memos, plus LinComb and Fraction overhead: the
                  warm-cache counterpart of ``queries``.
  verify-cap      each suite in its own fresh process at its cap (ideh at
                  11), so the cache state is known.  Each suite is
                  dominated by a different layer; the asymptotic workload.
  queries         a seeded, stratified stream of CLI invocations run
                  in-process through ``treehopf.cli.main`` (see gen.py),
                  repeated in fresh processes until the time is used.  The
                  cli layer, cold key-level combinatorics and memo growth
                  over one library session.

Every operation's exit code and output digest is checked against
``goldens.json``.  The last line of stdout is the result as JSON; a line
before it is the run record (Python version, git SHA, nproc, load average,
sample counts), also written under ``.perfbench_out/``.  With ``--trace 1``
the metrics are the per-layer ones from one traced pass (see layers.py),
next to one untraced pass that gives the tracing overhead.

Exit codes: 0 all outputs correct; 1 some output wrong or a worker crashed;
2 the program is missing or the command line is wrong.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "speed.py")
GOLDENS = os.path.join(HERE, "goldens.json")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

SUITES = gen.SUITES
# Degrees are passed explicitly, so raising a default or a cap in the
# program changes no workload.  ideh runs at 11 because 12 takes 90 s.
DEFAULT_DEGREES = {"hopf-axioms": 5, "hexagon": 6, "dualities": 5, "divided-powers": 6,
                   "zstar-intertwine": 6, "zstar-surjectivity": 7,
                   "quasi-shuffle-oracle": 6, "enumeration-counts": 8, "ideh": 8}
CAP_DEGREES = {"hopf-axioms": 6, "hexagon": 7, "dualities": 6, "divided-powers": 7,
               "zstar-intertwine": 7, "zstar-surjectivity": 8,
               "quasi-shuffle-oracle": 7, "enumeration-counts": 10, "ideh": 11}
# Fresh processes per suite in one verify-cap pass, about 1.5 s of each
# suite (or one run) at the commit that defined the benchmark; a suite's
# time is their median.
CAP_RUNS = {"hopf-axioms": 3, "hexagon": 3, "dualities": 1, "divided-powers": 9,
            "zstar-intertwine": 7, "zstar-surjectivity": 5, "quasi-shuffle-oracle": 3,
            "enumeration-counts": 3, "ideh": 1}
WORKLOADS = ("verify-default", "verify-cap", "queries")
SETUP_PROBES = 5
WORKER_TIMEOUT = 170


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def bench_cpu():
    """The core every worker and the speed probe are pinned to."""
    if hasattr(os, "sched_getaffinity"):
        return max(os.sched_getaffinity(0))
    return None


@contextlib.contextmanager
def speed_probe(cpu):
    """Run a speed probe (see speed.py) on ``cpu`` while the block runs;
    the list it yields holds the probe's samples once the block ends."""
    probe = subprocess.Popen([sys.executable, PROBE, "-" if cpu is None else str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT)
    samples = []
    try:
        if probe.stdout.readline() != "ready\n":
            raise BenchError("the speed probe did not start")
        yield samples
    finally:
        try:
            out = probe.communicate(timeout=60)[0]  # end of stdin stops the probe
        except subprocess.TimeoutExpired:
            probe.kill()
            probe.communicate()
            raise
    samples.extend(json.loads(out))


def run_worker(job, cpu=None):
    """Run one job in a fresh worker process pinned to ``cpu``."""
    proc = subprocess.run([sys.executable, WORKER], input=json.dumps(dict(job, cpu=cpu)),
                          capture_output=True, text=True, env=worker_env(), cwd=ROOT,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if not os.path.abspath(result["treehopf_file"]).startswith(SRC + os.sep):
        raise BenchError(f"treehopf imported from {result['treehopf_file']}, not {SRC}")
    return result


def scale(result, samples):
    """Turn a worker's measured intervals into seconds at the reference
    speed, given the speed probe's samples."""
    for op in result["ops"]:
        op["s"] = speed.scaled(samples, *op["span"])
    result["setup_s"] = speed.scaled(samples, *result["setup"])
    result["wall_s"] = speed.scaled(samples, *result["wall"])
    result["raw_wall_s"] = result["wall"][1] - result["wall"][0]


def suite_key(suite, degree):
    return f"verify-report\t{suite}\t{degree}"


def plan(workload, seed):
    """The jobs of one pass: (job, (family, goldens key) of each op, runs)."""
    if workload == "queries":
        ops = gen.stream(seed)
        return [({"mode": "cli", "ops": [argv for _, argv in ops]},
                 [(family, gen.key_of(argv)) for family, argv in ops], 1)]
    if workload == "verify-default":
        ops = [[s, DEFAULT_DEGREES[s]] for s in SUITES]
        return [({"mode": "suites", "ops": ops},
                 [(f"verify-{s}", suite_key(s, d)) for s, d in ops], 1)]
    return [({"mode": "suites", "ops": [[s, CAP_DEGREES[s]]]},
             [(f"verify-{s}", suite_key(s, CAP_DEGREES[s]))],
             CAP_RUNS[s]) for s in SUITES]


def run_pass(jobs, repeat=True, trace=False, spans_prefix=None):
    """Run the jobs of one pass, one fresh process after another, each job
    as many times as it asks when ``repeat`` is set, next to one speed
    probe on the same core.

    Returns the results and the pass's wall time: the sum over jobs of the
    median of a job's runs.
    """
    cpu = bench_cpu()
    done = []
    with speed_probe(cpu) as samples:
        for i, (job, keys, runs) in enumerate(jobs):
            job = dict(job, trace=trace)
            if spans_prefix:
                job["spans"] = f"{spans_prefix}-{i}.jsonl"
            done.append((keys, [run_worker(job, cpu) for _ in range(runs if repeat else 1)]))
    wall = 0.0
    for _, runs in done:
        for r in runs:
            scale(r, samples)
        wall += statistics.median(r["wall_s"] for r in runs)
    return [(r, keys) for keys, runs in done for r in runs], wall


def check(pass_results, goldens, failures):
    """Compare every op with its golden; returns the (family, seconds) of
    each op and appends each mismatch to ``failures``."""
    samples = []
    for result, keys in pass_results:
        for op, (family, key) in zip(result["ops"], keys):
            want = goldens.get(key)
            got = [op["rc"], op["digest"]]
            if op["error"] or want != got:
                failures.append({"op": key, "family": family, "want": want,
                                 "got": got, "error": op["error"]})
            samples.append((family, op["s"]))
    return samples


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(passes, setup):
    """Every end-to-end metric from the untraced passes of a run and the
    set-up times of all its fresh processes."""
    setup = list(setup)
    walls, raw_walls, p50, p95, suite_s, rss = [], [], [], [], {s: [] for s in SUITES}, 0
    for pass_results, wall, samples in passes:
        walls.append(wall)
        raw_walls.append(sum(r["raw_wall_s"] for r, _ in pass_results))
        setup += [r["setup_s"] for r, _ in pass_results]
        rss = max([rss] + [r["peak_rss_kb"] for r, _ in pass_results])
        op_ms = [seconds * 1000 for _, seconds in samples]
        p50.append(percentile(op_ms, 50))
        p95.append(percentile(op_ms, 95))
        for family, seconds in samples:
            if family.startswith("verify-"):
                suite_s[family[len("verify-"):]].append(seconds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss / 1024, "MB"),
        "op_p50_ms": (statistics.median(p50), "ms"),
        "op_p95_ms": (statistics.median(p95), "ms"),
    }
    for s in SUITES:
        metrics[f"suite_s.{s}"] = (statistics.median(suite_s[s]), "s")
    ops = len(passes[0][2])
    counts = {"setup_s": len(setup), "wall_s": len(walls),
              "op_ms_per_pass": ops, "op_ms_beyond_p95_per_pass": ops - math.ceil(ops * 95 / 100),
              "op_p50_p95_passes": len(p95), "peak_rss_mb": sum(len(p[0]) for p in passes),
              "suite_s": {s: len(v) for s, v in suite_s.items()}}
    return metrics, counts, statistics.median(raw_walls)


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_sha256():
    """Digest of every file under src/, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "treehopf", "__init__.py")):
        print(f"error: no treehopf package under {SRC}", file=sys.stderr)
        return 2
    with open(GOLDENS) as fh:
        goldens = json.load(fh)["ops"]
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "git_sha": git_sha(), "source_sha256": source_sha256(),
              "nproc": os.cpu_count(), "loadavg_1m_start": os.getloadavg()[0]}

    jobs = plan(args.workload, args.seed)
    failures = []
    attempted = 0
    try:
        if args.trace:
            # one run per job on both sides keeps a traced run within the time limit
            base, base_wall = run_pass(jobs, repeat=False)
            attempted += len(check(base, goldens, failures))
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}")
            traced, traced_wall = run_pass(jobs, repeat=False, trace=True, spans_prefix=spans)
            attempted += len(check(traced, goldens, failures))
            merged = layers.merge((r["trace"], r["wall_s"] / r["raw_wall_s"]) for r, _ in traced)
            metrics = layers.layer_metrics(merged, traced_wall, base_wall)
            record["samples"] = {"traced_passes": 1, "untraced_passes": 1,
                                 "spans_kept": merged["spans_kept"],
                                 "spans_dropped": merged["spans_dropped"]}
        else:
            probes, _ = run_pass([({"mode": "cli", "ops": []}, [], SETUP_PROBES)])
            setup = [r["setup_s"] for r, _ in probes]
            passes = []
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                results, wall = run_pass(jobs)
                samples = check(results, goldens, failures)
                attempted += len(samples)
                passes.append((results, wall, samples))
                took = time.perf_counter() - pass_start
                if time.perf_counter() - start + took > args.seconds:
                    break
            values, record["samples"], record["raw_wall_s_median"] = end_to_end(passes, setup)
            ok_ratio = (attempted - len(failures)) / attempted
            values["ok_ratio"] = (ok_ratio, "ratio")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["loadavg_1m_end"] = os.getloadavg()[0]
    record["failures"] = failures[:50]
    record["metrics"] = metrics
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
    summary = {k: v for k, v in record.items() if k not in ("metrics", "failures")}
    print("run record: " + json.dumps(summary))
    for failure in failures[:10]:
        print("golden mismatch: " + json.dumps(failure))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
