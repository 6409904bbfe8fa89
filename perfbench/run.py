"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload ycsb-point --seed 1 --seconds 8 --trace 0

Workloads (``perfbench/meaning.json`` records why each exists and what
every metric means): ``ycsb-point``, ``batch-ingest``, ``sync-threads``,
``lsm-ingest``.  Inputs come from ``--seed`` alone (``inputs.py``).

Every measurement happens in a fresh interpreter (``worker.py``), so
set-up time includes interpreter start, imports and the probe-model
training every ``repro`` process pays.  Each process runs the
workload's whole generated stream once -- the same work on every
commit -- and checks every result against the benchmark's own oracle.

* ``--trace 0`` runs at least three such processes, and more until
  their timed phases add up to ``--seconds`` of host time, and prints
  the end-to-end metrics: host metrics are medians over the processes,
  virtual-time metrics must be identical in all of them.  The first
  process also checks the final state (full scan and ``validate()``).
* ``--trace 1`` runs one process untraced and one under ``cProfile``
  and prints the per-layer metrics.  The virtual metrics and exact
  counts of both must be identical: the profiler must not perturb
  virtual time.

Every run also compares its virtual metrics and exact counts with
earlier runs of the same workload, seed and code (a ledger under
``.perfbench_cache/``); any difference fails the run.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every check passed; a process that fails prints no result.
"""

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CACHE = os.path.join(ROOT, ".perfbench_cache")
PYCACHE = os.path.join(CACHE, "pycache")
WORKLOAD_NAMES = ("ycsb-point", "batch-ingest", "sync-threads", "lsm-ingest")
#: Every process of one run must end within this many seconds.
DEADLINE_S = 170.0
#: Measuring processes per ``--trace 0`` run: host metrics are medians.
MIN_PROCESSES = 3
MAX_PROCESSES = 9


class BenchmarkFailure(Exception):
    """A process failed or ran out of time; no result is printed."""


def metric_units(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {row["name"]: row["unit"] for row in json.load(handle)[kind]}


def code_digest():
    """Digest of the program and benchmark sources (the ledger key)."""
    hasher = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".py", ".json", ".toml")):
                    path = os.path.join(dirpath, filename)
                    hasher.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def compile_sources():
    """Byte-compile the program once per checkout, outside every timing.

    Workers always import from this cache, so ``setup.import_s`` means
    the same thing whether or not the environment disables bytecode
    writing, and the first run in a fresh checkout is not an outlier.
    """
    sys.pycache_prefix = PYCACHE
    for top in ("src", "perfbench"):
        if not compileall.compile_dir(os.path.join(ROOT, top), quiet=1):
            raise BenchmarkFailure("cannot byte-compile %s/" % top)


def spawn(role, final, args, deadline):
    """Run one worker process to completion; returns its JSON result."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchmarkFailure("out of time before a %s process" % role)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    spawn_t = time.perf_counter()
    command = [
        sys.executable, WORKER, role, args.workload, str(args.seed),
        "1" if final else "0", repr(spawn_t),
    ]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, timeout=remaining, env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkFailure("a %s process ran out of time" % role) from None
    if proc.returncode != 0:
        raise BenchmarkFailure(
            "a %s process exited with %d" % (role, proc.returncode)
        )
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - spawn_t
    return result


def measure_processes(args, deadline):
    """At least ``MIN_PROCESSES``, then more until ``--seconds`` of host time."""
    results = []
    while len(results) < MAX_PROCESSES:
        if len(results) >= MIN_PROCESSES:
            host_s = sum(r["host_s"] for r in results)
            longest = max(r["wall_s"] for r in results)
            if host_s >= args.seconds or (
                time.perf_counter() + 1.5 * longest > deadline
            ):
                break
        results.append(spawn("measure", not results, args, deadline))
    return results


def fingerprint(result):
    """What must repeat exactly for a fixed workload, seed and code."""
    return {
        "virtual": result["virtual"],
        "counts": result["counts"],
        "digests": result["digests"],
    }


def check_ledger(args, results):
    """Compare with earlier runs of this workload, seed and code."""
    directory = os.path.join(CACHE, "ledger")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, "%s-s%d-%s.json" % (args.workload, args.seed, code_digest())
    )
    entry = {"fingerprint": fingerprint(results[0])}
    for result in results:
        if "profile_counts" in result:
            entry["profile_counts"] = result["profile_counts"]
    problems = []
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        for key, value in entry.items():
            if key in previous and previous[key] != value:
                problems.append("%s differs from an earlier run" % key)
        entry = dict(previous, **entry)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(entry, handle, sort_keys=True)
    os.replace(tmp, path)
    return problems


def end_to_end(results):
    metrics = dict(results[0]["virtual"])
    metrics["host_ops_per_s"] = statistics.median(
        r["counts"]["ops"] / r["host_s"] for r in results
    )
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in results)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    return metrics


def per_layer(results):
    untraced, traced = results
    metrics = dict(untraced["layers"])
    metrics.update(traced["layers"])
    metrics["host.trace_overhead"] = traced["host_s"] / untraced["host_s"]
    for phase in untraced["setup"]:
        metrics["setup." + phase] = statistics.median(
            r["setup"][phase] for r in results
        )
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_frac"))
    if abs(shares - 1.0) > 1e-9:
        raise BenchmarkFailure("host self-time shares sum to %r" % shares)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        compile_sources()
        if args.trace:
            results = [
                spawn("measure", True, args, deadline),
                spawn("profile", False, args, deadline),
            ]
            metrics = per_layer(results)
        else:
            results = measure_processes(args, deadline)
            metrics = end_to_end(results)
        units = metric_units("per_layer" if args.trace else "end_to_end")
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise BenchmarkFailure("metrics not produced: %s" % missing)
    except BenchmarkFailure as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    problems = check_ledger(args, results)
    if any(fingerprint(r) != fingerprint(results[0]) for r in results):
        problems.append("virtual-time metrics or counts differ between processes")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["errors"] + r["mismatch_count"] for r in results)
    for result in results:
        problems.extend("oracle: " + line for line in result["mismatches"])
    correct = not problems and failed == 0

    first = results[0]
    print("perfbench %s seed=%d trace=%d: %d process(es); input digests %s"
          % (args.workload, args.seed, args.trace, len(results),
             " ".join("%s=%s" % kv for kv in sorted(first["digests"].items()))))
    print("latency samples: %d (the p99 needs at least 1000)"
          % first["counts"]["latency_samples"])
    for name, unit in units.items():
        print("%-34s %16.6f %s" % (name, metrics[name], unit))
    print("%-34s %16.6f ratio (%d failed of %d attempted)"
          % ("failed_ops_frac", failed / attempted, failed, attempted))
    for problem in problems:
        print("FAILED: " + problem)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
