"""Machine-speed probe, to take the shared machine's speed out of timings.

On a shared two-core machine the speed of each core drifts by up to 2x
over seconds, and the two cores drift independently.  The benchmark pins
each worker process to one core and runs this module's probe, as a second
process, pinned to the same core.  Every ``PERIOD`` seconds the probe wakes
(the scheduler lets a waking task preempt the worker), runs a fixed
pure-Python work unit (dict, tuple, int and Fraction operations, the
program's own mix) and records when it ran and how much CPU time the unit
took.  Because it shares the core, it keeps sampling while the worker sits
in one long C call, which an in-process sampler could not.

``scaled`` turns a measured interval of the worker into seconds at the
reference speed: each stretch between two probe runs is weighted by
``REFERENCE_S`` / (mean CPU time of the two units), and the probe's own
runs are left out.

    python3 perfbench/speed.py CPU    # sample until stdin closes, then print samples
"""

import json
import os
import select
import sys
import time
from fractions import Fraction

PERIOD = 0.05
# CPU time of one work unit at the reference speed.  On the machine the
# benchmark was defined on a unit takes 0.8-1.4 ms, so scaled seconds are of
# the order of wall seconds; only ratios to it matter.
REFERENCE_S = 0.001


def work_unit():
    d = {}
    acc = Fraction(0)
    for i in range(300):
        key = (i % 13, i % 7)
        d[key] = d.get(key, 0) + i
        acc += Fraction(i % 5, 7)
    return len(d), acc


def pin(cpu):
    """Pin the calling process to ``cpu`` where the platform allows it."""
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def sample():
    start, cpu_start = time.perf_counter(), time.thread_time()
    work_unit()
    return start, time.perf_counter(), time.thread_time() - cpu_start


def probe(cpu, stdin=sys.stdin, stdout=sys.stdout):
    """Sample until ``stdin`` reaches end of file, then write the samples,
    (wall start, wall end, unit CPU seconds) triples, as JSON.  A first
    line "ready" says that sampling has begun."""
    pin(cpu)
    samples = [sample()]
    stdout.write("ready\n")
    stdout.flush()
    while True:
        ready, _, _ = select.select([stdin], [], [], PERIOD)
        samples.append(sample())
        if ready and not stdin.read():
            json.dump(samples, stdout)
            return


def scaled(samples, a, b):
    """Reference-speed seconds of the worker interval [a, b], given probe
    samples sorted by start that bracket it."""
    total = 0.0
    for (s0, e0, c0), (s1, e1, c1) in zip(samples, samples[1:]):
        lo, hi = max(a, e0), min(b, s1)  # stretch between two probe runs
        if hi > lo:
            total += (hi - lo) * REFERENCE_S / ((c0 + c1) / 2)
    return total


if __name__ == "__main__":
    probe(int(sys.argv[1]) if sys.argv[1] != "-" else None)
