"""Host speed calibrator: times a fixed chunk of pure-Python work, over and
over, on the CPU the benchmark's children are pinned to.

    hostspeed.py OUT

Writes one line per CAL_PERIOD_S to OUT until terminated: the time at the
middle of a chunk on the monotonic clock (``time.perf_counter``, which on
Linux is CLOCK_MONOTONIC, shared by every process) and the chunk's thread
CPU time. ``run.py`` starts it before the first timed child and stops it
after the last, then turns every timed command into ``norm_wall`` with the
chunks timed during it.

Why. On a shared virtual machine each vCPU switches every few seconds or
minutes between a fast mode and one up to 1.8x slower, and process CPU time
slows with the wall time, so a raw timing says as much about the host as
about the program. A chunk timed on the same CPU while the command runs
slows with it. The chunk mixes random lookups in a 300,000-key dict (cache
misses) with calls of small functions in a random order (calls and
unpredictable dispatch, which the slow mode hurts most); of the chunks
tried, this mix tracked the slowdown of both METEOR and BM25 best. It runs in a process of its own, so that its
table does not count in the program's peak RSS and its CPU time not in the
program's, and it never calls the package, so a change to the package
cannot move the yardstick.
"""

import os
import random
import statistics
import sys
import time

CAL_PERIOD_S = 0.05
CAL_TABLE_KEYS = 300_000
CAL_PROBES = 2000
CAL_CALLS = 3000
# chunks this far before and after a command count for it too, so that a
# command shorter than a few periods still gets a dozen chunks
CAL_MARGIN_S = 0.25
# the chunk's thread CPU time in the fast mode of the reference machine
# (2-vCPU shared VM, Intel Xeon, CPython 3.11), so norm_wall reads as seconds
REFERENCE_CHUNK_S = 0.0015


# small functions of different shapes; the chunk calls them in a seeded
# random order, so the interpreter's calls and dispatch are hard to predict
_CALLEES = (
    lambda v: v + 1,
    lambda v: v * 3 & 1023,
    lambda v: [v, v + 1][v & 1],
    lambda v: (v, v - 1)[0],
    lambda v: {"k": v}["k"],
    lambda v: len(str(v)),
    lambda v: -v & 1023,
    lambda v: v >> 1,
)


def calibration_chunk():
    """The chunk: CAL_PROBES random lookups in a CAL_TABLE_KEYS-key dict,
    then CAL_CALLS calls of _CALLEES in a random order."""
    rng = random.Random(0)
    keys = [f"{rng.getrandbits(40):010x}" for _ in range(CAL_TABLE_KEYS)]
    table = dict.fromkeys(keys, 1)
    probes = rng.sample(keys, CAL_PROBES)
    calls = [rng.choice(_CALLEES) for _ in range(CAL_CALLS)]

    def chunk():
        total = 0
        for key in probes:
            total += table[key]
        value = 1
        for fn in calls:
            value = fn(value) & 1023
        return total + value

    return chunk


def calibrate(out: str) -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    chunk = calibration_chunk()
    with open(out, "w", encoding="utf-8") as fh:
        while True:
            start, cpu_start = time.perf_counter(), time.thread_time()
            chunk()
            cpu, end = time.thread_time() - cpu_start, time.perf_counter()
            fh.write(f"{(start + end) / 2:.6f} {cpu:.9f}\n")
            fh.flush()
            time.sleep(CAL_PERIOD_S)


def read_samples(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [tuple(map(float, line.split())) for line in fh if line.endswith("\n")]


def norm_wall(timing: dict, samples: list) -> float:
    """The command's wall time with its CPU part at the reference speed: the
    waiting part (wall minus process CPU time, e.g. the mock's sleeps) as
    measured, less the time the calibrator held the CPU while the command
    could have run, and the CPU part scaled by REFERENCE_CHUNK_S over the
    harmonic mean of the chunks timed during the command. The chunks are
    timed at even steps of wall time, so the harmonic mean is the average
    speed even when the host changes mode part way through. The calibrator's
    chunks take longer in the slow mode, so left in the waiting part they
    would make a slow stretch read slower; the command wanted the CPU for a
    share cpu/wall of the chunks that fell inside it."""
    start, end, wall, cpu = timing["start"], timing["end"], timing["wall"], timing["cpu"]
    chunks = [c for mid, c in samples if start - CAL_MARGIN_S <= mid <= end + CAL_MARGIN_S]
    if not chunks:
        raise RuntimeError("no host speed samples during a timed command")
    held = sum(c for mid, c in samples if start <= mid <= end) * cpu / wall
    return wall - cpu - held + cpu * REFERENCE_CHUNK_S / statistics.harmonic_mean(chunks)


if __name__ == "__main__":
    calibrate(sys.argv[1])
