"""The four workloads, each driving the program through public entry points.

A workload builds its store (``build``, ``load``, ``warm``), runs its
generated operation stream (``execute``, the only timed call), turns the
finished operations into oracle records and latency samples
(``records``), reads keys back outside the timed region (``read_back``),
and exposes the program's public counters as one flat snapshot
(``counters``).  All loads are closed loops in virtual time: a fixed
number of simulated callers each wait for their reply before issuing
the next operation.
"""

import inputs
from oracle import Record

#: Largest key the full-range scan covers (keys stay below 2**40).
SCAN_HIGH = 1 << 62

KEY_BYTES = 8


def _write_bytes(verb):
    """User bytes a write carries: the key, plus the payload when set."""
    if verb == "delete":
        return KEY_BYTES
    if verb in ("put", "update"):
        return KEY_BYTES + inputs.PAYLOAD_SIZE
    return 0


class Workload:
    """Shared shape; subclasses bind the store and its counters."""

    name = None
    #: stream items (ops, or batches) in the timed phase, sized to a
    #: few host seconds and enough virtual time for a stable p99
    stream_items = None
    check_write_results = True

    def __init__(self, seed):
        self.seed = seed
        self.keys = None
        self.zipf = None

    # -- inputs --------------------------------------------------------

    def preload(self):
        self.keys = inputs.preload_keys(self.seed)
        return inputs.preload_items(self.keys)

    def generate(self):
        return self._generate(self.stream_items)

    @staticmethod
    def user_ops(items):
        """User operations in a stream (key specs for batches)."""
        return len(items)

    @staticmethod
    def user_bytes_written(items):
        return sum(_write_bytes(verb) for verb, _, _ in items)

    # -- program-facing, provided per store ----------------------------

    def counters(self):
        """Flat snapshot of cumulative public counters."""
        engine, simos, device = self.engine, self.simos, self.device
        snap = {
            "events": engine.dispatched,
            "busy_ns": simos.total_busy_ns(),
            "context_switches": simos.context_switches.value,
            "sem_blocks": simos.sem_blocks.value,
            "reads": device.reads_completed.value,
            "writes": device.writes_completed.value,
            "probes": device.probe_calls.value,
            "idle_spins": 0,
            "latch_waits": 0,
            "batch_keys": 0,
            "batch_groups": 0,
            "coalesced_writes": 0,
            "buffer_hits": 0,
            "buffer_misses": 0,
            "flushes": 0,
            "compactions": 0,
        }
        for category, ns in simos.cpu_account().by_category.items():
            snap["cpu." + category] = ns
        snap.update(self._store_counters())
        return snap

    def prepare(self):
        """Build per-run input tables after the preload keys exist."""

    def warm(self):
        """Bring the store to steady state before the timed phase."""

    def records(self, items, operations):
        """Oracle records and latency samples of the finished stream."""
        records = [
            Record(verb, key, payload, op.result, op.admit_ns, op.done_ns, op.error)
            for (verb, key, payload), op in zip(items, operations)
        ]
        latencies = [op.latency_ns for op in operations if op.error is None]
        return records, latencies

    def _store_counters(self):
        return {}

    def close(self):
        pass


class _PointStream:
    """The Zipf search/update stream ``ycsb-point`` and ``sync-threads`` share."""

    def prepare(self):
        self.zipf = inputs.ZipfRanks(self.seed, len(self.keys))

    def _generate(self, count):
        return inputs.point_ops(self.seed, count, self.keys, self.zipf)

    @staticmethod
    def operations(items):
        from repro.core.ops import search_op, update_op

        return [
            search_op(key) if verb == "get" else update_op(key, payload)
            for verb, key, payload in items
        ]


class _PaTreeWorkload(Workload):
    """Shared wiring for the two ``PATreeSession`` workloads."""

    session_config = None

    def build(self, engine_seed):
        from repro.api import PATreeSession

        self.session = PATreeSession(seed=engine_seed, **self.session_config)
        env = self.session.env
        self.engine, self.simos, self.device = env.engine, env.os, env.device

    def load(self, items):
        self.session.bulk_load(items)

    def read_back(self, keys):
        return self.session.get_many(keys)

    def final_rows(self):
        return self.session.scan(0, SCAN_HIGH)

    def validate(self):
        self.session.validate()

    def _store_counters(self):
        pa = self.session.pa_engine
        stats = pa.stats()
        out = {
            "idle_spins": pa.idle_spins.value,
            "latch_waits": stats["latch_waits"],
            "batch_keys": stats.get("batch_keys", 0),
            "batch_groups": stats.get("batch_groups", 0),
            "coalesced_writes": stats.get("coalesced_writes", 0),
        }
        if pa.buffer is not None:
            snap = pa.buffer.snapshot()
            out["buffer_hits"] = snap["hits"]
            out["buffer_misses"] = snap["misses"]
        return out

    def close(self):
        self.session.close()


class YcsbPoint(_PointStream, _PaTreeWorkload):
    """Fig 7 default: scalar search/update, no buffer, every visit a read."""

    name = "ycsb-point"
    stream_items = 4_000
    session_config = dict(
        buffer_pages=0,
        persistence="strong",
        scheduler="workload_aware",
        window=64,
    )

    def execute(self, items):
        return self.session.execute(self.operations(items))


class BatchIngest(_PaTreeWorkload):
    """Clustered put/get/delete batches over a buffer holding the tree."""

    name = "batch-ingest"
    # one latency sample per batch: 1 500 leaves 15 beyond the p99
    stream_items = 1_500
    session_config = dict(
        buffer_pages=8_192,
        persistence="strong",
        scheduler="workload_aware",
        window=8,
    )

    def warm(self):
        # one get per bulk-loaded leaf (<= 21 keys each) pulls every
        # leaf and inner page into the read-only buffer
        probe_keys = self.keys[::16]
        for start in range(0, len(probe_keys), 1_000):
            self.session.get_many(probe_keys[start:start + 1_000])

    def _generate(self, count):
        return inputs.batches(self.seed, count, self.keys)

    @staticmethod
    def user_ops(items):
        return sum(len(batch) for batch in items)

    @staticmethod
    def user_bytes_written(items):
        return sum(_write_bytes(verb) for batch in items for verb, _, _ in batch)

    def execute(self, items):
        from repro.core.ops import OpSpec, batch_op

        ops = [
            batch_op([OpSpec(verb, key, payload) for verb, key, payload in batch])
            for batch in items
        ]
        return self.session.execute(ops)

    def records(self, items, operations):
        records = []
        latencies = []
        for batch, op in zip(items, operations):
            results = op.result if op.error is None else [None] * len(batch)
            for (verb, key, payload), result in zip(batch, results):
                records.append(Record(
                    verb, key, payload, result, op.admit_ns, op.done_ns, op.error
                ))
            if op.error is None:
                latencies.append(op.latency_ns)
        return records, latencies


class SyncThreads(_PointStream, Workload):
    """The blocking thread-per-op comparator on the ``ycsb-point`` stream."""

    name = "sync-threads"
    stream_items = 4_000
    threads = 32

    def build(self, engine_seed):
        from repro.api import SimEnvironment
        from repro.baselines import (
            BlockingLatchTable,
            SharedIoService,
            SyncTreeAccessor,
        )
        from repro.core.tree import PaTree

        self.env = SimEnvironment(seed=engine_seed)
        self.engine, self.simos, self.device = (
            self.env.engine, self.env.os, self.env.device
        )
        self.tree = PaTree.create(self.env.device, payload_size=inputs.PAYLOAD_SIZE)
        self.latches = BlockingLatchTable()
        self.accessor = SyncTreeAccessor(
            self.tree, SharedIoService(self.env.driver), self.latches
        )

    def load(self, items):
        self.tree.bulk_load(items)

    def _run(self, ops, threads):
        from repro.baselines import BaselineRunner

        BaselineRunner(
            self.simos, self.accessor, ops, threads, name="sync"
        ).run_to_completion()
        return ops

    def execute(self, items):
        return self._run(self.operations(items), self.threads)

    def read_back(self, keys):
        from repro.core.ops import search_op

        return [op.result for op in self._run([search_op(k) for k in keys], 1)]

    def final_rows(self):
        from repro.core.ops import range_op

        (op,) = self._run([range_op(0, SCAN_HIGH)], 1)
        if op.error is not None:
            raise op.error
        return op.result

    def validate(self):
        self.tree.validate()

    def _store_counters(self):
        return {"latch_waits": self.latches.blocks}

    def close(self):
        self.env.close()


class LsmIngest(Workload):
    """PA-LSM ingest: fresh-key puts with flushes and compactions."""

    name = "lsm-ingest"
    # ~7 000 puts: seven memtable flushes, so level-0 compactions start
    stream_items = 10_000
    check_write_results = False

    def build(self, engine_seed):
        from repro.api import AsyncLsmSession

        self.session = AsyncLsmSession(
            seed=engine_seed, memtable_entries=1_000, window=64
        )
        env = self.session.env
        self.engine, self.simos, self.device = env.engine, env.os, env.device

    def load(self, items):
        self.session.bulk_load(items)

    def _generate(self, count):
        return inputs.lsm_ops(self.seed, count, self.keys)

    def execute(self, items):
        from repro.core.ops import insert_op, search_op

        ops = [
            insert_op(key, payload) if verb == "put" else search_op(key)
            for verb, key, payload in items
        ]
        return self.session.execute(ops)

    def read_back(self, keys):
        return self.session.get_many(keys)

    def final_rows(self):
        return self.session.scan(0, SCAN_HIGH)

    def validate(self):
        """The LSM session has no structural validator; the scan checks it."""

    def _store_counters(self):
        stats = self.session.stats()
        return {"flushes": stats["flushes"], "compactions": stats["compactions"]}

    def close(self):
        self.session.close()


WORKLOADS = {
    cls.name: cls for cls in (YcsbPoint, BatchIngest, SyncThreads, LsmIngest)
}
