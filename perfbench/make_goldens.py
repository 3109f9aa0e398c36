"""Regenerate goldens.json: the expected exit code and stdout digest of
every invocation the benchmark can send.

    python3 perfbench/make_goldens.py

Covers the whole ``queries`` pool (gen.pool(), independent of any seed) and
the ``verify --format json`` report of every suite at the degrees of the
two verify workloads.  Run it only on a commit whose outputs are trusted:
every later run is checked against what it writes.
"""

import json
import sys

import run

CHUNK = 200


def main():
    ops = {}
    pool = run.gen.pool()
    for i in range(0, len(pool), CHUNK):
        chunk = pool[i : i + CHUNK]
        result = run.run_worker({"mode": "cli", "ops": chunk})
        for argv, op in zip(chunk, result["ops"]):
            if op["error"]:
                sys.exit(f"{argv}: {op['error']}")
            ops[run.gen.key_of(argv)] = [op["rc"], op["digest"]]
        print(f"queries pool {min(i + CHUNK, len(pool))}/{len(pool)}", file=sys.stderr)
    for degrees in (run.DEFAULT_DEGREES, run.CAP_DEGREES):
        for suite, degree in degrees.items():
            result = run.run_worker({"mode": "suites", "ops": [[suite, degree]]})
            op = result["ops"][0]
            if op["error"] or op["rc"] != 0:
                sys.exit(f"suite {suite} at {degree}: {op}")
            ops[run.suite_key(suite, degree)] = [op["rc"], op["digest"]]
            print(f"suite {suite} at {degree}", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(ops[k])}" for k in sorted(ops)]
    with open(run.GOLDENS, "w") as fh:
        fh.write('{"source_sha256": %s,\n"ops": {\n' % json.dumps(run.source_sha256()))
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")


if __name__ == "__main__":
    main()
