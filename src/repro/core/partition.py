"""Multi-worker PA-Tree: range partitioning across working threads.

The paper's paradigm "creates a few working threads" but its
implementation is single-threaded because one thread saturates the
device.  This extension realizes the multi-thread variant the paper
sketches: the key space is range-partitioned, each partition is an
independent PA-Tree (own LBA region, own latch table, own queue pair,
own working thread), and a zero-shared-state router dispatches
operations by key.  Because partitions share *nothing* but the device,
the paradigm's no-inter-thread-synchronization property is preserved;
scaling helps exactly when a single working thread is CPU-bound
(buffered workloads), and stops at device saturation — which the
partition-scaling ablation bench demonstrates.

Range queries that span partition boundaries are scattered into
per-partition sub-ranges and gathered in key order; ``sync`` is
broadcast.
"""

import bisect
from collections import deque

from repro.buffer import ReadOnlyBuffer, ReadWriteBuffer
from repro.core.engine import PERSISTENCE_STRONG, PERSISTENCE_WEAK, PaTreeEngine
from repro.core.ops import RANGE, SYNC, range_op, sync_op
from repro.core.source import OperationSource
from repro.core.tree import PaTree
from repro.errors import SchedulerError
from repro.sched.naive import NaiveScheduling


class _PartitionSource(OperationSource):
    """Pull queue one partition worker polls; the router fills it."""

    def __init__(self, router):
        self._router = router
        self.pending = deque()
        self.inflight = 0

    def poll(self, now_ns):
        batch = []
        while self.pending:
            batch.append(self.pending.popleft())
            self.inflight += 1
        return batch

    def on_op_complete(self, op):
        self.inflight -= 1
        self._router._on_partition_complete(op)

    def exhausted(self):
        return self._router._drained and not self.pending and self.inflight == 0


class _GatherState:
    """Tracks a scattered range operation until all parts return."""

    __slots__ = ("parent", "parts", "remaining")

    def __init__(self, parent, parts):
        self.parent = parent
        self.parts = parts
        self.remaining = len(parts)


class PartitionedPaTree:
    """N independent PA-Tree partitions behind one operation router."""

    def __init__(
        self,
        simos,
        driver,
        n_partitions,
        payload_size=8,
        policy_factory=None,
        persistence=PERSISTENCE_STRONG,
        buffer_pages_per_partition=0,
        region_pages=None,
    ):
        if n_partitions < 1:
            raise SchedulerError("need at least one partition")
        self.simos = simos
        self.device = driver.device
        self.n_partitions = n_partitions
        self.persistence = persistence
        if policy_factory is None:
            policy_factory = NaiveScheduling
        capacity = self.device.profile.capacity_pages
        region = region_pages or capacity // n_partitions
        self._split_keys = [
            ((1 << 64) // n_partitions) * i for i in range(1, n_partitions)
        ]
        self.trees = []
        self.engines = []
        self._sources = []
        self._drained = True
        self._global_pending = deque()
        self._window = 0
        self._inflight = 0
        self._gathers = {}

        for index in range(n_partitions):
            tree = PaTree.create(
                self.device,
                payload_size=payload_size,
                base_lba=index * region,
                capacity_pages=region,
            )
            if buffer_pages_per_partition > 0:
                if persistence == PERSISTENCE_WEAK:
                    buffer = ReadWriteBuffer(buffer_pages_per_partition)
                else:
                    buffer = ReadOnlyBuffer(buffer_pages_per_partition)
            else:
                buffer = None
            source = _PartitionSource(self)
            engine = PaTreeEngine(
                simos,
                driver,
                tree,
                policy_factory(),
                source=source,
                buffer=buffer,
                persistence=persistence,
                name="pa-part-%d" % index,
            )
            self.trees.append(tree)
            self.engines.append(engine)
            self._sources.append(source)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def bulk_load(self, items, fill_factor=0.7):
        """Split sorted items at population quantiles and load each
        partition; boundaries are re-derived from the data so load is
        balanced."""
        items = list(items)
        if items and self.n_partitions > 1:
            step = len(items) // self.n_partitions
            self._split_keys = [
                items[step * i][0] for i in range(1, self.n_partitions)
            ]
        start = 0
        for index in range(self.n_partitions):
            end = (
                bisect.bisect_left(items, (self._split_keys[index], b""))
                if index < self.n_partitions - 1
                else len(items)
            )
            self.trees[index].bulk_load(items[start:end], fill_factor)
            start = end

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _partition_for(self, key):
        return bisect.bisect_right(self._split_keys, key)

    def _dispatch(self, op):
        if op.kind == SYNC:
            self._scatter(op, [sync_op() for _ in range(self.n_partitions)],
                          list(range(self.n_partitions)))
            return
        if op.kind == RANGE:
            low_part = self._partition_for(op.key)
            high_part = self._partition_for(op.high_key)
            if low_part != high_part:
                parts = []
                targets = []
                for index in range(low_part, high_part + 1):
                    low = op.key if index == low_part else self._split_keys[index - 1]
                    high = (
                        op.high_key
                        if index == high_part
                        else self._split_keys[index] - 1
                    )
                    parts.append(range_op(low, high, limit=op.limit))
                    targets.append(index)
                self._scatter(op, parts, targets)
                return
            self._sources[low_part].pending.append(op)
            return
        self._sources[self._partition_for(op.key)].pending.append(op)

    def _scatter(self, parent, parts, targets):
        state = _GatherState(parent, parts)
        for part in parts:
            self._gathers[id(part)] = state
        for part, target in zip(parts, targets):
            self._sources[target].pending.append(part)

    def _on_partition_complete(self, op):
        state = self._gathers.pop(id(op), None)
        if state is not None:
            state.remaining -= 1
            if state.remaining:
                return
            parent = state.parent
            for part in state.parts:
                if part.error is not None:
                    parent.error = part.error
                    break
            if parent.kind == RANGE:
                merged = []
                for part in state.parts:
                    if part.result:
                        merged.extend(part.result)
                if parent.limit:
                    merged = merged[: parent.limit]
                parent.result = None if parent.error is not None else merged
            else:  # broadcast sync
                parent.result = sum(part.result or 0 for part in state.parts)
            if parent.on_complete is not None:
                parent.on_complete(parent)
            op = parent
        self._inflight -= 1
        if op.done_ns is None:
            op.done_ns = self.simos.engine.now
        self._refill()

    def _refill(self):
        while self._inflight < self._window and self._global_pending:
            next_op = self._global_pending.popleft()
            next_op.admit_ns = self.simos.engine.now
            self._inflight += 1
            self._dispatch(next_op)
        if not self._global_pending and self._inflight == 0:
            self._drained = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_operations(self, operations, window=64):
        """Run a batch across all partitions; returns the operations."""
        operations = list(operations)
        self._global_pending = deque(operations)
        self._window = window
        self._drained = False
        self._inflight = 0
        self._refill()
        workers = []
        for engine in self.engines:
            engine.reset_source()
            workers.append(engine.start())
        self.simos.run_until_done(workers)
        if not all(worker.done for worker in workers):
            raise SchedulerError("partitioned run did not finish")
        for engine in self.engines:
            engine.latches.assert_quiescent()
        return operations

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def key_count(self):
        return sum(tree.meta.key_count for tree in self.trees)

    def validate(self):
        stats = {"keys": 0, "nodes": 0}
        for tree in self.trees:
            part = tree.validate()
            stats["keys"] += part["keys"]
            stats["nodes"] += part["nodes"]
        return stats

    def iterate_items_raw(self):
        for tree in self.trees:
            for item in tree.iterate_items_raw():
                yield item
