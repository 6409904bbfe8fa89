"""One measuring process of the benchmark; ``run.py`` spawns it.

Usage: ``python3 perfbench/worker.py ROLE WORKLOAD SEED FINAL SPAWN_T``

The process sets up the workload's store, runs its generated stream
once (the timed phase) and checks every result with the benchmark's
oracle.  ``ROLE`` is ``measure``, or ``profile`` to run the timed phase
under ``cProfile``.  With ``FINAL`` = 1 it then also checks the final
state: a full-range scan against the oracle and ``validate()``.
``SPAWN_T`` is the parent's ``time.perf_counter()`` just before the
spawn (a system-wide monotonic clock), so set-up time includes
interpreter start.

Prints one JSON object on stdout.
"""

import cProfile
import json
import os
import resource
import sys
import time

import inputs
import measure
from oracle import Oracle
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROLES = ("measure", "profile")


def set_up(workload, spawn_t):
    """Every step before the first timed operation, each one timed."""
    phases = {}
    mark = spawn_t

    def lap(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.api  # noqa: F401  (the program, timed as import_s)
    import repro.baselines  # noqa: F401
    import repro.core.ops  # noqa: F401
    import repro.core.tree  # noqa: F401

    lap("import_s")
    items = workload.preload()
    workload.prepare()
    stream = workload.generate()
    lap("inputs_s")
    workload.build(inputs.engine_seed(workload.seed))
    lap("construct_s")
    workload.load(items)
    lap("bulk_load_s")
    workload.warm()
    lap("warmup_s")
    return phases, mark - spawn_t, items, stream


def timed(workload, stream, profiler):
    """Run the stream; returns its operations and host seconds.

    Host seconds are this process's CPU time inside the program's call:
    the simulator is single-threaded and CPU-bound, and CPU time leaves
    out the time other tenants of the machine held the processor.
    """
    if profiler is not None:
        profiler.enable()
    start = time.process_time()
    operations = workload.execute(stream)
    host_s = time.process_time() - start
    if profiler is not None:
        profiler.disable()
    return operations, host_s


def check(workload, oracle, stream, operations):
    """Oracle-check the finished stream; returns (errors, latencies)."""
    records, latencies = workload.records(stream, operations)
    errors = sum(record.error is not None for record in records)
    ambiguous = oracle.check_results(records)
    if ambiguous:
        keys = sorted(ambiguous)
        for key, value in zip(keys, workload.read_back(keys)):
            oracle.resolve(key, ambiguous[key], value)
    return errors, latencies


def final_check(workload, oracle):
    """Full-range scan against the oracle, then structural validation."""
    try:
        oracle.check_scan(workload.final_rows())
        workload.validate()
    except Exception as exc:  # a failed check is reported, not raised
        oracle.mismatches.append("final check raised %r" % (exc,))


def stream_metrics(workload, before, after, stream, latencies, start_ns,
                   last_done_ns, queue_depth):
    """Virtual-time end-to-end metrics, per-layer metrics, exact counts."""
    d = measure.delta(after, before)
    n = workload.user_ops(stream)
    lat_us = [ns / 1000.0 for ns in latencies]
    virtual = {
        "sim_ops_per_s": n / ((last_done_ns - start_ns) / 1e9),
        "sim_p50_us": measure.percentile(lat_us, 50),
        "sim_p99_us": measure.tail_percentile(lat_us, 99),
        "sim_cpu_us_per_op": d["busy_ns"] / 1000.0 / n,
    }
    cpu_total = sum(v for k, v in d.items() if k.startswith("cpu."))
    layers = {
        "sim.events_per_op": d["events"] / n,
        "simos.context_switches_per_op": d["context_switches"] / n,
        "simos.sem_blocks_per_op": d["sem_blocks"] / n,
        "nvme.reads_per_op": d["reads"] / n,
        "nvme.write_amp": measure.write_amp(
            d["writes"],
            workload.device.profile.page_size,
            workload.user_bytes_written(stream),
        ),
        "nvme.queue_depth_avg": queue_depth,
        "sched.probes_per_op": d["probes"] / n,
        "sched.completions_per_probe": measure.completions_per_probe(
            d["reads"] + d["writes"], d["probes"]
        ),
        "sched.idle_spins_per_op": d["idle_spins"] / n,
        "core.latch_waits_per_op": d["latch_waits"] / n,
        "core.keys_per_group": measure.keys_per_group(
            d["batch_keys"], d["batch_groups"]
        ),
        "core.coalesced_write_frac": measure.ratio(
            d["coalesced_writes"], d["writes"]
        ),
        "buffer.hit_frac": measure.ratio(
            d["buffer_hits"], d["buffer_hits"] + d["buffer_misses"]
        ),
        "palsm.flushes_per_kop": 1000.0 * d["flushes"] / n,
        "palsm.compactions_per_kop": 1000.0 * d["compactions"] / n,
    }
    for key, ns in sorted(d.items()):
        if key.startswith("cpu."):
            layers["simos.cpu_frac." + key[4:]] = measure.ratio(ns, cpu_total)
    counts = dict(d, ops=n, latency_samples=len(latencies))
    return virtual, layers, counts


def profile_metrics(profiler, n, package_dir):
    """Counts and self-time split from a finished ``cProfile`` run."""
    profiler.create_stats()
    self_times = {}
    heap_compares = 0
    codec_calls = 0
    events_file = os.path.join(package_dir, "sim", "events.py")
    node_file = os.path.join(package_dir, "core", "node.py")
    for (filename, _, func), (_, calls, self_s, _, _) in profiler.stats.items():
        self_times[filename] = self_times.get(filename, 0.0) + self_s
        if filename == events_file and func == "__lt__":
            heap_compares += calls
        elif filename == node_file and func in ("from_bytes", "to_bytes"):
            codec_calls += calls
    layers = {
        "host.%s.self_frac" % name: share
        for name, share in measure.roll_up(self_times, package_dir).items()
    }
    layers["sim.heap_compares_per_op"] = heap_compares / n
    layers["core.node_codec_per_op"] = codec_calls / n
    counts = {"heap_compares": heap_compares, "node_codec_calls": codec_calls}
    return layers, counts


def main(argv):
    role, name, seed, final, spawn_t = argv
    if role not in ROLES or name not in WORKLOADS:
        raise SystemExit("usage: worker.py {%s} WORKLOAD SEED FINAL SPAWN_T"
                         % ",".join(ROLES))
    workload = WORKLOADS[name](int(seed))
    phases, setup_s, items, stream = set_up(workload, float(spawn_t))

    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    profiler = cProfile.Profile() if role == "profile" else None
    oracle = Oracle(items, workload.check_write_results)

    before = workload.counters()
    mark = workload.device.outstanding.mark()
    start_ns = workload.engine.now
    operations, host_s = timed(workload, stream, profiler)
    after = workload.counters()
    queue_depth = workload.device.outstanding.average(mark)
    last_done_ns = max(op.done_ns for op in operations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, latencies = check(workload, oracle, stream, operations)
    virtual, layers, counts = stream_metrics(
        workload, before, after, stream, latencies, start_ns, last_done_ns,
        queue_depth,
    )
    out = {}
    if profiler is not None:
        profile_layers, out["profile_counts"] = profile_metrics(
            profiler, counts["ops"], package_dir
        )
        layers.update(profile_layers)
    if final == "1":
        final_check(workload, oracle)
    workload.close()
    out.update(
        setup=phases,
        setup_s=setup_s,
        virtual=virtual,
        layers=layers,
        counts=counts,
        host_s=host_s,
        peak_rss_mb=peak_rss_mb,
        attempted=counts["ops"],
        errors=errors,
        mismatch_count=len(oracle.mismatches),
        mismatches=oracle.mismatches[:5],
        digests={"preload": inputs.digest(items), "stream": inputs.digest(stream)},
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), sort_keys=True))
