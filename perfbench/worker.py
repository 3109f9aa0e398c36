"""One benchmark job inside a fresh interpreter.

Reads a job as JSON on stdin and writes the result as JSON on stdout.  The
program's own output never reaches this process's stdout: each operation's
stdout and stderr are captured, and only a digest of the stdout leaves.

Job keys:
  mode    "cli": ``ops`` are argv lists run through ``treehopf.cli.main``;
          "suites": ``ops`` are [suite, degree] pairs run through
          ``treehopf.verify.run_suite``, the digest taken of the report as
          ``verify --format json`` prints it.
  trace   wrap every layer (see ``layers.py``) before the first operation.
  spans   when tracing, the file the recorded spans are written to.
  cpu     the core to pin this process to (the speed probe shares it).

The result gives ``perf_counter`` intervals: ``setup`` (``import treehopf``
plus ``cli.build_parser()``), ``wall`` (the operations loop) and each op's
``span``; the benchmark scales them with the probe's samples.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import speed


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line with exit 2
        rc = exc.code
    return rc, out.getvalue()


def run_report(verify, suite, degree):
    report = verify.run_suite(suite, degree)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return (0 if report.ok else 1), text


def main():
    job = json.load(sys.stdin)
    speed.pin(job.get("cpu"))
    clock = time.perf_counter
    setup_start = clock()
    import treehopf.cli as cli
    import treehopf.verify as verify

    cli.build_parser()
    setup_end = clock()

    tracer = None
    if job.get("trace"):
        import layers

        tracer = layers.install()

    results = []
    wall_start = clock()
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            if job["mode"] == "cli":
                rc, text = run_cli(cli, op)
            else:
                rc, text = run_report(verify, *op)
        except Exception as exc:  # counted as a failed operation, never skipped
            rc, text, error = None, None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        results.append({"span": (start, clock()), "rc": rc, "error": error,
                        "digest": None if text is None else digest(text)})
    wall_end = clock()

    out = {
        "ops": results,
        "setup": (setup_start, setup_end),
        "wall": (wall_start, wall_end),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "treehopf_file": cli.__file__,
    }
    if tracer is not None:
        out["trace"] = layers.summary(tracer, wall_end - wall_start)
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
