"""The operator-algebra suites run on the calling thread alone.

A dense product or factorization above OpenBLAS's threading size wakes
its worker threads, which then spin through the rest of the run and
double its CPU time.  The suites' dense work is small blocks only, so
the threads other than the main one must stay idle while the four
suite calls of the benchmark's ``operator-algebra`` pass run, and while
the ``kz-operator`` call of its ``kz-coassociator`` pass runs.  CPU time
per thread is read from ``/proc/self/task/<tid>/stat``.
"""

import os
import time

import pytest

from qheis import cli

TASKS = "/proc/self/task"

# the operator-algebra pass of perfbench/run.py, at its sizes
CALLS = (["slN", "--modes", "4", "--cutoff", "7"],
         ["soN-orbital", "--modes", "3", "--cutoff", "10"],
         ["sl2-bose", "--cutoff", "12"],
         ["sl2-fermi"])
KZ_CALL = ["kz-operator"]  # the kz-coassociator pass, at the suite's defaults


def _other_thread_ticks() -> int:
    """User plus system clock ticks of every thread but the main one."""
    total = 0
    for tid in os.listdir(TASKS):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"{TASKS}/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total


def _wait_idle(limit_s: float = 5.0) -> int:
    """Other-thread ticks once they stop growing (or after limit_s): a
    worker woken by an earlier test spins for a while before it sleeps."""
    ticks = _other_thread_ticks()
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        time.sleep(0.2)
        ticks, before = _other_thread_ticks(), ticks
        if ticks == before:
            break
    return ticks


def _ticks_gained(calls) -> int:
    start = _wait_idle()
    for argv in calls:
        cli.main(["suite", *argv, "--out", os.devnull])
    return _other_thread_ticks() - start


needs_threads = pytest.mark.skipif(not os.path.isdir(TASKS) or (os.cpu_count() or 1) == 1,
                                   reason="needs /proc/self/task and more than one CPU")


@needs_threads
def test_operator_algebra_leaves_other_threads_idle():
    gained = _ticks_gained(CALLS)
    assert gained <= 1, f"threads other than the main one used {gained} clock ticks"


@needs_threads
def test_kz_coassociator_leaves_other_threads_idle():
    # the first call imports kz, and scipy's own BLAS starts its threads
    # then, once; the benchmark's passes repeat the call after that
    _ticks_gained([KZ_CALL])
    gained = _ticks_gained([KZ_CALL])
    assert gained <= 1, f"threads other than the main one used {gained} clock ticks"
