"""Host-speed probe: scales the benchmark's timings to one reference speed.

The benchmark runs on a few cores of a shared host.  Other tenants there
slow every process by a tenth to a third, in phases that last from seconds
to minutes, and the slowdown shows in CPU time as well as in wall time, so
no clock the benchmark can read separates it from the program's own cost.

A probe is one short process that does the same fixed work every time: it
starts an interpreter, imports the standard modules a ``bookqa`` stage
imports, and runs a slice of pure-Python work of the kinds the pipeline
does (lower-casing and splitting text, counting words in a dict, filling
an LCS table).  Like a pipeline stage, it pays process start-up as well as
interpreter time, so it slows when the stages slow.  The benchmark runs
``probe`` right after every process it times.  ``scale(probes)`` is
``PROBE_REF_S`` over the median of the probe times it is given (the
benchmark passes those of one round: one set-up and one pass): a time
multiplied by it reads as the time the work would take on a host that runs
one probe in ``PROBE_REF_S`` seconds.  A change to the program moves the
scaled time as it moves the wall time; a slow phase of the host slows the
probes too and cancels out.  The raw wall times are reported next to the
scaled ones.

Run as a script, this file is the probe's work.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# The median probe time on the 2-vCPU host the benchmark was written on, so
# that scaled seconds read close to wall seconds there.  Any fixed value
# works: comparisons are between runs of one benchmark version.
PROBE_REF_S = 0.12
PROBE_ROUNDS = 3
# One probe is about as noisy as the host; a second one after each process
# cuts the noise of a round's median by a third, for about 0.1 s more.
PROBES_PER_PROCESS = 2

_TEXT = " ".join(f"Word{(i * 7919) % 61}" for i in range(1500))


def _work() -> int:
    words = _TEXT.lower().split()
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    a, b = words[:90], words[45:135]
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1] + len(counts)


def probe() -> list[float]:
    """Wall seconds of each of ``PROBES_PER_PROCESS`` probe processes, run
    one after the other (about 0.1 s each)."""
    times = []
    for _ in range(PROBES_PER_PROCESS):
        # No timeout: with one, ``subprocess`` polls for the exit with
        # sleeps of up to 50 ms, which would round every probe up to that
        # grid.  The probe's work is fixed and cannot hang.
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__], check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def scale(probes: list[float]) -> float:
    """Factor that turns wall seconds measured among ``probes`` into
    seconds at the reference speed."""
    return PROBE_REF_S / statistics.median(probes)


if __name__ == "__main__":
    import argparse  # noqa: F401  (the modules a stage imports)
    import collections  # noqa: F401
    import hashlib  # noqa: F401
    import json  # noqa: F401
    import re  # noqa: F401

    for _ in range(PROBE_ROUNDS):
        _work()
