"""Shared helpers: locating the package under test, timing, and statistics.

The benchmark runs from a source checkout and imports recsplit from the
checkout's own src/ directory, never from an installed copy, so that the
code measured is the code in the checkout.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

ns = time.perf_counter_ns


class BenchSetupError(Exception):
    """The checkout does not hold the package the benchmark measures."""


def import_package():
    """Put the checkout's src/ first on sys.path and import recsplit from it."""
    if not os.path.isfile(os.path.join(SRC, "recsplit", "__init__.py")):
        raise BenchSetupError(f"no recsplit package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import recsplit

    where = os.path.realpath(os.path.dirname(recsplit.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchSetupError(f"recsplit was imported from {where}, not from {SRC}")
    return recsplit


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """The highest order statistic with at least 10 samples beyond it.

    Returns (value, percentile); with fewer than 11 samples the maximum is
    returned and the percentile says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), 0.0
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def percentile(values, q):
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]
