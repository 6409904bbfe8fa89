"""The benchmark's own arithmetic: percentiles, ratios and roll-ups.

Kept free of program imports so ``test_perfbench.py`` can check it in
isolation.
"""

import bisect
import math
import os
from fractions import Fraction

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: ``host.<m>.self_frac`` buckets: the ``repro`` modules the workloads
#: run, then ``stdlib`` (builtins, the standard library and third-party
#: packages such as numpy) and ``other`` (every remaining ``repro``
#: module, e.g. ``repro.errors``, ``repro.faults``).
HOST_MODULES = (
    "sim", "simos", "nvme", "backend", "storage", "buffer", "core",
    "sched", "baselines", "palsm", "api",
)
HOST_BUCKETS = HOST_MODULES + ("stdlib", "other")


def percentile(samples, q):
    """Tie-aware ``q``-th percentile (q in [0, 100]), mid-distribution rule.

    Each distinct value sits at its mid-rank plotting position, (samples
    below it + half the samples equal to it) / n, and the percentile
    interpolates linearly between neighbouring distinct values.  Without
    ties this is the Hazen rule (Hyndman & Fan type 5, numpy's
    ``method="hazen"``).  Virtual latencies sit on a lattice of event
    costs, so ties are common: this rule moves when the share of samples
    at each lattice point moves, where an order statistic would stick to
    the most common value.  Raises on an empty sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    values = []
    positions = []
    low = 0
    while low < n:
        high = bisect.bisect_right(ordered, ordered[low], low)
        values.append(ordered[low])
        positions.append((low + (high - low) / 2.0) / n)
        low = high
    p = q / 100.0
    if p <= positions[0]:
        return float(values[0])
    if p >= positions[-1]:
        return float(values[-1])
    k = bisect.bisect_right(positions, p) - 1
    frac = (p - positions[k]) / (positions[k + 1] - positions[k])
    return values[k] + frac * (values[k + 1] - values[k])


def min_samples_for(q):
    """Samples needed so that ``TAIL_SAMPLES`` lie beyond percentile ``q``."""
    return math.ceil(TAIL_SAMPLES * 100 / (100 - Fraction(str(q))))


def tail_percentile(samples, q):
    """``percentile`` that refuses a tail with too few samples beyond it."""
    need = min_samples_for(q)
    if len(samples) < need:
        raise ValueError(
            "p%g needs >= %d samples, got %d" % (q, need, len(samples))
        )
    return percentile(samples, q)


def ratio(numerator, denominator):
    """``numerator / denominator``, 0.0 when the base is empty."""
    if not denominator:
        return 0.0
    return numerator / denominator


def completions_per_probe(completions, probes):
    """Useful outcomes per attempted device probe."""
    return ratio(completions, probes)


def write_amp(device_pages_written, page_size, user_bytes_written):
    """Device bytes written per user byte written."""
    return ratio(device_pages_written * page_size, user_bytes_written)


def keys_per_group(batch_keys, batch_groups):
    """Batch specs applied per leaf group (latch + vectored apply)."""
    return ratio(batch_keys, batch_groups)


def delta(after, before):
    """Counter-wise ``after - before`` over two flat snapshots."""
    return {name: after[name] - before[name] for name in after}


def module_of(filename, package_dir):
    """The ``host.*`` bucket a profiled function's file belongs to.

    ``<package_dir>/<m>/...`` and ``<package_dir>/<m>.py`` map to ``m``
    when it is one of ``HOST_MODULES`` and to ``other`` when not;
    builtins (filename ``~``) and every file outside ``package_dir``
    map to ``stdlib``.
    """
    prefix = os.path.join(os.path.abspath(package_dir), "")
    path = os.path.abspath(filename) if filename != "~" else filename
    if not path.startswith(prefix):
        return "stdlib"
    first = path[len(prefix):].split(os.sep, 1)[0]
    name = os.path.splitext(first)[0]
    return name if name in HOST_MODULES else "other"


def roll_up(self_times, package_dir):
    """Self-time shares per bucket from ``{filename: seconds}``.

    Every bucket is present; the shares sum to 1 (all 0 when nothing
    was timed).
    """
    totals = dict.fromkeys(HOST_BUCKETS, 0.0)
    for filename, seconds in self_times.items():
        totals[module_of(filename, package_dir)] += seconds
    grand = sum(totals.values())
    return {name: ratio(value, grand) for name, value in totals.items()}
