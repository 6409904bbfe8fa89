"""The PA-Tree working-thread engine.

One simulated thread runs the paper's main loop (Algorithm 1 or 2,
depending on the plugged scheduling policy): admit operations from the
source, process the highest-priority ready operation until it blocks,
probe the NVMe completion queue when the policy says so, and yield the
CPU when the policy predicts nothing useful to do.

The engine translates operation-coroutine *effects* into simulated-CPU
charges, latch-table calls and driver I/O, and shepherds operations
between the ready set and the two waiting states (I/O wait and latch
wait).  Optionally it also spawns the dedicated polling thread of the
PAD / PAD+ variants (Fig 11).
"""

from collections import deque

from repro.core.batch import vector_cost_ns
from repro.core.latch import LatchTable
from repro.core.node import Node
from repro.core.ops import (
    AllocEff,
    BATCH,
    ChargeEff,
    FreeEff,
    LatchEff,
    ReadEff,
    ST_DONE,
    ST_IO_WAIT,
    ST_LATCH_WAIT,
    ST_READY,
    SYNC,
    SyncEff,
    UnlatchEff,
    UnlatchManyEff,
    WriteEff,
)
from repro.core.plans import make_plan
from repro.errors import (
    IoError,
    QueueFullError,
    RetryExhaustedError,
    SchedulerError,
    TreeError,
)
from repro.backend.base import as_backend
from repro.nvme.command import Completion, OP_READ
from repro.sim.nulltrace import NULL_TRACER
from repro.sim.metrics import (
    CPU_NVME,
    CPU_REAL_WORK,
    CPU_SCHED,
    CPU_SYNC,
    Counter,
    LatencyRecorder,
)
from repro.simos.thread import Cpu, Sleep

PERSISTENCE_STRONG = "strong"
PERSISTENCE_WEAK = "weak"

POLLER_NONE = None
POLLER_CONTINUOUS = "continuous"  # PAD-Tree
POLLER_MODEL = "model"  # PAD+-Tree

_NODE_CACHE_LIMIT = 1_000_000


class PaTreeEngine:
    """Drives a :class:`~repro.core.tree.PaTree` with the PA paradigm."""

    def __init__(
        self,
        simos,
        backend,
        tree,
        policy,
        source,
        buffer=None,
        persistence=PERSISTENCE_STRONG,
        qpair=None,
        dedicated_poller=POLLER_NONE,
        name="pa-tree",
        tracer=None,
    ):
        if persistence not in (PERSISTENCE_STRONG, PERSISTENCE_WEAK):
            raise SchedulerError("unknown persistence mode %r" % persistence)
        if persistence == PERSISTENCE_WEAK and buffer is None:
            raise SchedulerError("weak persistence requires a read-write buffer")
        if persistence == PERSISTENCE_WEAK and buffer.mode != "weak":
            raise SchedulerError("weak persistence requires a ReadWriteBuffer")
        if persistence == PERSISTENCE_STRONG and buffer is not None and buffer.mode != "strong":
            raise SchedulerError("strong persistence requires a ReadOnlyBuffer")
        self.simos = simos
        self.engine = simos.engine
        self.clock = simos.engine.clock
        # the engine speaks the IoBackend contract; a bare NvmeDriver
        # (the historical wiring) is adopted into a SimNvmeBackend, so
        # both spellings drive the identical code path
        self.backend = as_backend(backend)
        self.driver = self.backend
        self.tree = tree
        self.policy = policy
        self.source = source
        self.buffer = buffer
        self.persistence = persistence
        self.qpair = qpair or self.backend.alloc_qpair(sq_size=4096, cq_size=4096)
        self.dedicated_poller = dedicated_poller
        self.name = name
        # observability: tracer records spans when enabled; op_observer
        # (a TraceSession) sees every completed operation
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.op_observer = None
        self._track = "worker:%s" % name

        from repro.sched.history import IoHistory

        model = getattr(policy, "probe_model", None)
        if model is not None:
            self.io_history = IoHistory(
                self.clock, window_us=model.window_us, slices=model.slices
            )
        else:
            self.io_history = IoHistory(self.clock)
        self.latches = LatchTable()
        self.sched_pick_cost_ns = tree.costs.priority_pick_ns
        self.sched_gate_cost_ns = tree.costs.probe_model_ns
        tree.on_page_released = self._on_page_released

        self._node_cache = {}
        self._writes_in_flight = {}
        self._deferred_flushes = deque()
        self._deferred_escalations = deque()
        self._background_outstanding = 0
        self._active_sync = None
        self._next_seq = 0
        self.inflight = 0
        self._shutdown = False
        # a write that keeps failing is re-driven (fresh command, the
        # escalation count carried forward) this many times before the
        # engine declares the page lost; only pathological fault
        # configs (error rate ~1) ever reach the cap
        self.max_write_escalations = 8

        # measurement state
        self.latencies = LatencyRecorder()
        self.completed = Counter()
        self.completed_by_kind = {}
        self.user_completed = 0
        self.last_user_done_ns = 0
        self.probes = Counter()
        # scheduler decision accounting: probes the policy declined,
        # and how idle iterations resolved (yield vs busy-spin)
        self.probe_skips = Counter()
        self.idle_yields = Counter()
        self.idle_spins = Counter()
        self.latch_wait_events = Counter()
        # batch pipeline accounting: completed batched ops, the specs
        # they carried, the leaf groups they formed, and page writes
        # that rode a coalesced command vector instead of their own
        # doorbell
        self.batch_ops = Counter()
        self.batch_keys = Counter()
        self.batch_groups = Counter()
        self.coalesced_writes = Counter()
        # error-path accounting: failures the driver delivered to us,
        # operations aborted with a typed error, write re-drives, and
        # writes abandoned at the escalation cap
        self.io_errors = Counter()
        self.failed_ops = Counter()
        self.io_escalations = Counter()
        self.lost_writes = Counter()
        self.worker_thread = None
        self.poller_thread = None

        policy.bind(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Spawn the working thread (and poller, if configured)."""
        self.worker_thread = self.simos.spawn(
            self._worker_body(), name=self.name, group=self.name
        )
        if self.dedicated_poller is not None:
            self.poller_thread = self.simos.spawn(
                self._poller_body(), name=self.name + "-poller", group=self.name
            )
        return self.worker_thread

    def run_to_completion(self, until_ns=None):
        """Convenience: run the simulation until the source drains."""
        self.start()
        self.simos.run_until_done([self.worker_thread], until_ns=until_ns)
        if not self.worker_thread.done:
            raise SchedulerError(
                "PA engine did not finish (inflight=%d, outstanding=%d)"
                % (self.inflight, self.io_history.outstanding_count)
            )
        self.latches.assert_quiescent()

    def reset_source(self, source=None):
        """Install a fresh operation source and re-arm the engine.

        The working thread exits once its source drains; facades that
        feed successive batches through one engine call this between
        batches instead of touching engine internals.  ``source=None``
        keeps the current source (routers whose per-shard pull queues
        are long-lived only need the re-arm).
        """
        if self.worker_thread is not None and not self.worker_thread.done:
            raise SchedulerError("cannot reset the source of a running engine")
        if source is not None:
            self.source = source
        self._shutdown = False

    # ------------------------------------------------------------------
    # the working thread main loop
    # ------------------------------------------------------------------

    def _worker_body(self):
        costs = self.tree.costs
        driver = self.driver
        policy = self.policy
        source = self.source
        profile = driver.profile
        poller = self.dedicated_poller is not None
        while True:
            worked = False

            new_ops = source.poll(self.clock.now)
            if new_ops:
                yield Cpu(costs.admit_ns * len(new_ops), CPU_SCHED)
                for op in new_ops:
                    self._admit(op)
                worked = True

            # drain deferred page writes (buffer evictions, sync
            # flushes) while the submission queue has headroom -- a
            # large sync() must not overrun the ring
            while self._deferred_flushes and self.qpair.sq.free_slots > 64:
                lba, data, flush_op = self._deferred_flushes.popleft()
                yield Cpu(driver.submit_cpu_ns, CPU_NVME)
                self._submit_page_write(lba, data, flush_op)
                worked = True

            # re-drive failed writes that could not be resubmitted from
            # callback context because the submission ring was full
            while self._deferred_escalations and self.qpair.sq.free_slots > 8:
                lba, data, esc_op, escalations = self._deferred_escalations.popleft()
                yield Cpu(driver.submit_cpu_ns, CPU_NVME)
                self._resubmit_write(lba, data, esc_op, escalations)
                worked = True

            if policy.ready_count():
                yield Cpu(policy.pick_cost_ns(), CPU_SCHED)
                op = policy.pick()
                tracer = self.tracer
                if tracer.enabled:
                    span = tracer.begin(
                        self._track,
                        "process:%s" % op.kind,
                        cat="worker",
                        args={"seq": op.seq},
                    )
                    yield from self._process(op)
                    tracer.end(span, args={"state": op.state})
                else:
                    yield from self._process(op)
                worked = True

            if not poller and self.io_history.outstanding_count:
                gate_cost = policy.gate_cost_ns()
                if gate_cost:
                    yield Cpu(gate_cost, CPU_SCHED)
                    worked = True
                if policy.should_probe():
                    tracer = self.tracer
                    probe_start_ns = self.clock.now if tracer.enabled else 0
                    yield Cpu(driver.probe_cpu_ns(0), CPU_NVME)
                    completed = driver.probe(self.qpair)
                    self.probes.add()
                    policy.note_probe(self.clock.now, len(completed))
                    if completed:
                        yield Cpu(
                            len(completed) * profile.probe_cpu_per_completion_ns,
                            CPU_NVME,
                        )
                    if tracer.enabled:
                        tracer.complete(
                            self._track,
                            "probe",
                            probe_start_ns,
                            self.clock.now,
                            cat="worker",
                            args={"completions": len(completed)},
                        )
                    worked = True
                else:
                    self.probe_skips.add()

            if self._finished():
                break

            if (
                policy.ready_count() == 0
                and not self._deferred_flushes
                and not self._deferred_escalations
            ):
                sleep_ns = policy.idle_sleep_ns()
                next_arrival = source.next_event_ns(self.clock.now)
                if sleep_ns > 0:
                    if next_arrival is not None:
                        sleep_ns = min(sleep_ns, max(1, next_arrival - self.clock.now))
                    self.idle_yields.add()
                    yield Sleep(sleep_ns)
                elif not worked:
                    self.idle_spins.add()
                    yield Cpu(costs.idle_spin_ns, CPU_SCHED)

        self._shutdown = True

    def _poller_body(self):
        """Dedicated polling thread (PAD / PAD+ variants, Fig 11)."""
        costs = self.tree.costs
        driver = self.driver
        profile = driver.profile
        model = getattr(self.policy, "probe_model", None)
        use_model = self.dedicated_poller == POLLER_MODEL and model is not None
        max_gap_ns = getattr(self.policy, "max_probe_gap_ns", 100_000)
        min_gap_ns = getattr(self.policy, "min_probe_gap_ns", 0)
        last_probe_ns = 0
        while not self._shutdown:
            if use_model:
                yield Cpu(costs.probe_model_ns, CPU_SCHED)
                gap = self.clock.now - last_probe_ns
                overdue = gap >= max_gap_ns
                gated = gap < min_gap_ns or (
                    self.io_history.outstanding_count == 0
                    or not model.gate(self.io_history)
                )
                if not overdue and gated:
                    yield Cpu(costs.idle_spin_ns, CPU_SCHED)
                    continue
                last_probe_ns = self.clock.now
            yield Cpu(driver.probe_cpu_ns(0), CPU_NVME)
            completed = driver.probe(self.qpair)
            self.probes.add()
            if completed:
                # cross-thread handoff: each completion moves through a
                # synchronized queue to the working thread
                yield Cpu(
                    len(completed)
                    * (profile.probe_cpu_per_completion_ns + costs.handoff_sync_ns),
                    CPU_SYNC,
                )
            else:
                yield Cpu(costs.idle_spin_ns, CPU_NVME)

    # ------------------------------------------------------------------
    # operation processing
    # ------------------------------------------------------------------

    def _admit(self, op):
        op.seq = self._next_seq
        self._next_seq += 1
        op.admit_ns = self.clock.now
        op.gen = make_plan(op, self.tree)
        op.state = ST_READY
        self.inflight += 1
        if self.tracer.enabled:
            self.tracer.async_begin(
                "op", op.seq, op.kind, args={"key": op.key}
            )
        self.policy.on_ready(op)

    def _process(self, op):
        """Run ``op`` until it waits or completes (paper's process(c))."""
        costs = self.tree.costs
        yield Cpu(costs.dispatch_ns, CPU_SCHED)

        send = op.resume_value
        op.resume_value = None
        if type(send) is Completion:
            # read completion: turn raw bytes into a parsed node
            yield Cpu(costs.node_parse_ns, CPU_REAL_WORK)
            send = self._node_from_completion(send)

        while True:
            try:
                effect = op.gen.send(send)
            except StopIteration:
                self._complete(op)
                return
            send = None
            kind = type(effect)

            if kind is LatchEff:
                yield Cpu(costs.latch_request_ns, CPU_SYNC)
                if not self.latches.request(op, effect.page_id, effect.mode):
                    op.state = ST_LATCH_WAIT
                    self.latch_wait_events.add()
                    if self.tracer.enabled:
                        self.tracer.async_instant(
                            "op", op.seq, "latch_wait",
                            args={"page": effect.page_id},
                        )
                    return

            elif kind is UnlatchEff:
                yield Cpu(costs.latch_release_ns, CPU_SYNC)
                woken = self.latches.release(op, effect.page_id)
                for waiter in woken:
                    waiter.state = ST_READY
                    self.policy.on_ready(waiter)

            elif kind is UnlatchManyEff:
                page_ids = effect.page_ids
                yield Cpu(
                    vector_cost_ns(costs.latch_release_ns, len(page_ids)),
                    CPU_SYNC,
                )
                woken = self.latches.release_many(op, page_ids)
                for waiter in woken:
                    waiter.state = ST_READY
                    self.policy.on_ready(waiter)

            elif kind is ReadEff:
                result = yield from self._read_page(op, effect.page_id)
                if result is None:
                    op.state = ST_IO_WAIT
                    if self.tracer.enabled:
                        self.tracer.async_instant("op", op.seq, "io_wait")
                    return
                send = result

            elif kind is WriteEff:
                waiting = yield from self._write_wave(op, effect)
                if waiting:
                    op.state = ST_IO_WAIT
                    if self.tracer.enabled:
                        self.tracer.async_instant("op", op.seq, "io_wait")
                    return

            elif kind is ChargeEff:
                yield Cpu(effect.ns, effect.category)

            elif kind is SyncEff:
                waiting, flushed = yield from self._start_sync(op)
                if waiting:
                    op.state = ST_IO_WAIT
                    if self.tracer.enabled:
                        self.tracer.async_instant("op", op.seq, "io_wait")
                    return
                send = flushed

            elif kind is AllocEff:
                send = self.tree.allocator.allocate()

            elif kind is FreeEff:
                self.tree.release_page(effect.page_id)

            else:
                raise TreeError("operation yielded unknown effect %r" % (effect,))

    def _read_page(self, op, page_id):
        """Serve a node read; returns the node or None (I/O submitted)."""
        costs = self.tree.costs
        if self.buffer is not None:
            yield Cpu(costs.buffer_lookup_ns, CPU_REAL_WORK)
            data = self.buffer.lookup(page_id)
            if data is not None:
                yield Cpu(costs.node_parse_ns, CPU_REAL_WORK)
                node = self._node_cache.get(page_id)
                if node is None:
                    node = Node.from_bytes(self.tree.config, page_id, data)
                    self._cache_node(node)
                return node
        yield Cpu(self.driver.submit_cpu_ns, CPU_NVME)
        command = self.driver.read(
            self.qpair, page_id, callback=self._on_io_done, context=op
        )
        self.io_history.on_submit(command)
        op.io_remaining = 1
        return None

    def _write_wave(self, op, effect):
        """Persist one wave of nodes; returns True when op must wait."""
        costs = self.tree.costs
        images = []
        for node in effect.nodes:
            yield Cpu(costs.node_serialize_ns, CPU_REAL_WORK)
            images.append((node.page_id, node.to_bytes()))
            self._cache_node(node)
        if effect.write_meta:
            yield Cpu(costs.node_serialize_ns, CPU_REAL_WORK)
            images.append((self.tree.meta_page, self.tree.meta.to_bytes()))

        if self.persistence == PERSISTENCE_WEAK:
            for page_id, data in images:
                evicted = self.buffer.write(page_id, data)
                for victim_id, victim_data in evicted:
                    yield Cpu(self.driver.submit_cpu_ns, CPU_NVME)
                    self._submit_page_write(victim_id, victim_data, None)
            return False

        if effect.coalesce and len(images) > 1:
            # Batch path: one command vector, one doorbell.  Pages with
            # a write already in flight join that page's serialization
            # chain exactly like the scalar path.
            immediate = []
            count = 0
            for page_id, data in images:
                pending = self._writes_in_flight.get(page_id)
                if pending is not None:
                    pending.append((data, op))
                else:
                    self._writes_in_flight[page_id] = deque()
                    immediate.append((page_id, data))
                count += 1
            if immediate:
                yield Cpu(
                    self.driver.submit_many_cpu_ns(len(immediate)), CPU_NVME
                )
                commands = self.driver.write_many(
                    self.qpair, immediate, callback=self._on_io_done, context=op
                )
                for command in commands:
                    self.io_history.on_submit(command)
                self.coalesced_writes.add(len(immediate) - 1)
            op.io_remaining = count
            return count > 0

        count = 0
        for page_id, data in images:
            yield Cpu(self.driver.submit_cpu_ns, CPU_NVME)
            self._submit_page_write(page_id, data, op)
            count += 1
        op.io_remaining = count
        return count > 0

    def _start_sync(self, op):
        """Handle a ``sync()`` operation; returns (waiting, flushed).

        Flush writes are queued through the deferred list so the main
        loop meters them into the submission ring instead of
        overrunning it when thousands of pages are dirty.
        """
        if self.persistence == PERSISTENCE_STRONG:
            return False, 0
        if self._active_sync is not None:
            raise SchedulerError("concurrent sync operations are not supported")
        yield Cpu(self.tree.costs.dispatch_ns, CPU_SCHED)
        flushing = self.buffer.take_dirty()
        for page_id, data in flushing:
            self._deferred_flushes.append((page_id, data, op))
        op.io_remaining = len(flushing)
        if op.io_remaining == 0 and self._background_outstanding == 0:
            return False, 0
        self._active_sync = op
        op.resume_value = len(flushing)
        return True, None

    def _complete(self, op):
        if op.held_latches:
            raise TreeError(
                "operation %r completed holding latches %r"
                % (op, sorted(op.held_latches))
            )
        op.state = ST_DONE
        op.done_ns = self.clock.now
        self.inflight -= 1
        self.completed.add()
        self.completed_by_kind[op.kind] = self.completed_by_kind.get(op.kind, 0) + 1
        if op.kind == BATCH:
            self.batch_ops.add()
            self.batch_keys.add(len(op.specs or ()))
            self.batch_groups.add(op.groups)
        if op.kind != SYNC and op.error is None:
            self.user_completed += 1
            self.last_user_done_ns = op.done_ns
        if op.error is None:
            # goodput only: an errored op produced no usable result, so
            # its (truncated) latency must not dilute the distribution
            self.latencies.record(op.latency_ns)
        if self.tracer.enabled:
            self.tracer.async_end("op", op.seq, op.kind)
        if self.op_observer is not None:
            self.op_observer.on_op_complete(op)
        self.source.on_op_complete(op)
        if op.on_complete is not None:
            op.on_complete(op)

    # ------------------------------------------------------------------
    # I/O plumbing
    # ------------------------------------------------------------------

    def _submit_page_write(self, lba, data, op):
        """Submit a page write, serializing concurrent writes per LBA."""
        if op is None:
            self._background_outstanding += 1
        pending = self._writes_in_flight.get(lba)
        if pending is not None:
            pending.append((data, op))
            return
        self._writes_in_flight[lba] = deque()
        command = self.driver.write(
            self.qpair, lba, data, callback=self._on_io_done, context=op
        )
        self.io_history.on_submit(command)

    def _on_io_done(self, completion):
        """Completion callback, fired from a probe (zero virtual time)."""
        command = completion.command
        self.io_history.on_complete(command)
        if not completion.ok:
            self._on_io_failed(completion)
            return
        op = command.context

        if command.opcode == OP_READ:
            if self.buffer is not None:
                for victim_id, victim_data in self.buffer.install(
                    command.lba, command.data
                ):
                    self._deferred_flushes.append((victim_id, victim_data, None))
            if op.state is ST_DONE:
                return  # late completion for an already-aborted op
            op.resume_value = completion
            op.io_remaining -= 1
            if op.io_remaining == 0:
                op.state = ST_READY
                self.policy.on_ready(op)
            return

        # write completion
        lba = command.lba
        pending = self._writes_in_flight.get(lba)
        if pending:
            next_data, next_op = pending.popleft()
            self._resubmit_write(lba, next_data, next_op, 0)
        else:
            self._writes_in_flight.pop(lba, None)

        if op is None:
            # background flush (eviction)
            self._background_outstanding -= 1
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            self._maybe_finish_sync()
            return

        if self.persistence == PERSISTENCE_STRONG and self.buffer is not None:
            self.buffer.install(lba, command.data)

        if op.kind == SYNC:
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            op.io_remaining -= 1
            self._maybe_finish_sync()
            return

        op.io_remaining -= 1
        if op.io_remaining == 0:
            if op.error is not None:
                # a sibling write in this wave was abandoned; finish
                # the abort now that the wave has fully drained
                self._abort_op(op, None)
            else:
                op.state = ST_READY
                self.policy.on_ready(op)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _on_io_failed(self, completion):
        """A failure the driver would not (or could no longer) retry."""
        command = completion.command
        self.io_errors.add()
        if self.tracer.enabled:
            self.tracer.async_instant(
                "io", id(command) % 1_000_000, "io_error",
                args={"status": str(completion.status), "lba": command.lba},
            )
        if command.opcode == OP_READ:
            op = command.context
            if op is None or op.state is ST_DONE:
                return
            op.io_remaining -= 1
            self._abort_op(op, self._error_from(completion))
            return
        # failed writes are never dropped: the in-memory tree already
        # reflects the mutation, so the page must eventually land or be
        # explicitly declared lost — abort would desync tree and media
        self._escalate_write(completion)

    def _error_from(self, completion):
        command = completion.command
        status = completion.status
        cls = RetryExhaustedError if status.retriable else IoError
        return cls(
            "%s of lba %d failed with status %s (retries=%d)"
            % (command.opcode, command.lba, status, command.retries),
            status=status,
            opcode=command.opcode,
            lba=command.lba,
        )

    def _abort_op(self, op, error):
        """Terminate ``op`` with a typed error, releasing its latches."""
        if error is not None and op.error is None:
            op.error = error
        op.result = None
        if op.gen is not None:
            op.gen.close()
        for page_id in sorted(op.held_latches):
            woken = self.latches.release(op, page_id)
            for waiter in woken:
                waiter.state = ST_READY
                self.policy.on_ready(waiter)
        self.failed_ops.add()
        if self.tracer.enabled:
            self.tracer.async_instant(
                "op", op.seq, "aborted", args={"error": str(op.error)}
            )
        self._complete(op)

    def _escalate_write(self, completion):
        """Re-drive a failed write (fresh command, escalation carried)."""
        command = completion.command
        if command.escalations >= self.max_write_escalations:
            self._give_up_write(completion)
            return
        self.io_escalations.add()
        self._resubmit_write(
            command.lba, command.data, command.context, command.escalations + 1
        )

    def _resubmit_write(self, lba, data, op, escalations):
        """Submit a write from callback context, deferring on a full ring."""
        try:
            command = self.driver.write(
                self.qpair, lba, data, callback=self._on_io_done, context=op
            )
        except QueueFullError:
            self._deferred_escalations.append((lba, data, op, escalations))
            return
        command.escalations = escalations
        self.io_history.on_submit(command)

    def _give_up_write(self, completion):
        """The escalation budget is spent; declare the page lost."""
        command = completion.command
        lba = command.lba
        op = command.context
        self.lost_writes.add()
        # advance the per-LBA serialization chain past the lost write
        pending = self._writes_in_flight.get(lba)
        if pending:
            next_data, next_op = pending.popleft()
            self._resubmit_write(lba, next_data, next_op, 0)
        else:
            self._writes_in_flight.pop(lba, None)
        error = self._error_from(completion)
        if op is None:
            self._background_outstanding -= 1
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            self._maybe_finish_sync()
            return
        if op.kind == SYNC:
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            if op.error is None:
                op.error = error
            op.io_remaining -= 1
            self._maybe_finish_sync()
            return
        op.io_remaining -= 1
        if op.error is None:
            op.error = error
        if op.io_remaining == 0:
            self._abort_op(op, None)

    def _maybe_finish_sync(self):
        op = self._active_sync
        if op is None:
            return
        if op.io_remaining == 0 and self._background_outstanding == 0:
            self._active_sync = None
            op.state = ST_READY
            self.policy.on_ready(op)

    def _finished(self):
        return (
            self.source.exhausted()
            and self.inflight == 0
            and self._background_outstanding == 0
            and not self._deferred_flushes
            and not self._deferred_escalations
        )

    # ------------------------------------------------------------------
    # caches
    # ------------------------------------------------------------------

    def _cache_node(self, node):
        if len(self._node_cache) >= _NODE_CACHE_LIMIT:
            self._node_cache.clear()
        self._node_cache[node.page_id] = node

    def _node_from_completion(self, completion):
        node = self._node_cache.get(completion.lba)
        if node is None:
            node = Node.from_bytes(self.tree.config, completion.lba, completion.data)
            self._cache_node(node)
        return node

    def _on_page_released(self, page_id):
        self._node_cache.pop(page_id, None)
        if self.buffer is not None:
            self.buffer.invalidate(page_id)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose the whole worker stack through a metric registry.

        Fans out to the driver (which covers the device), the queue
        pair, the latch table, the buffer and the scheduling policy, so
        attaching one engine registers every layer it owns under the
        same labels.  All registrations are callback-backed; nothing is
        added to the hot path.
        """
        registry.counter(
            "engine_completed_total", labels,
            fn=lambda: self.completed.value,
            help="operations completed (including failed ones)",
        )
        registry.counter(
            "engine_failed_ops_total", labels,
            fn=lambda: self.failed_ops.value,
            help="operations aborted with a typed error",
        )
        registry.counter(
            "engine_io_errors_total", labels,
            fn=lambda: self.io_errors.value,
            help="I/O failures the driver delivered to the engine",
        )
        registry.counter(
            "engine_io_escalations_total", labels,
            fn=lambda: self.io_escalations.value,
            help="failed writes re-driven with a fresh command",
        )
        registry.counter(
            "engine_lost_writes_total", labels,
            fn=lambda: self.lost_writes.value,
            help="writes abandoned at the escalation cap",
        )
        registry.counter(
            "engine_probes_total", labels,
            fn=lambda: self.probes.value,
            help="completion-queue probes performed",
        )
        registry.counter(
            "engine_probe_skips_total", labels,
            fn=lambda: self.probe_skips.value,
            help="probe opportunities the policy declined",
        )
        registry.counter(
            "engine_idle_yields_total", labels,
            fn=lambda: self.idle_yields.value,
            help="idle iterations resolved by yielding the core",
        )
        registry.counter(
            "engine_idle_spins_total", labels,
            fn=lambda: self.idle_spins.value,
            help="idle iterations resolved by busy-spinning",
        )
        registry.counter(
            "engine_latch_wait_events_total", labels,
            fn=lambda: self.latch_wait_events.value,
            help="operations that entered the latch-wait state",
        )
        registry.counter(
            "batch_ops_total", labels,
            fn=lambda: self.batch_ops.value,
            help="batched operations completed",
        )
        registry.counter(
            "batch_keys_total", labels,
            fn=lambda: self.batch_keys.value,
            help="specs carried by completed batched operations",
        )
        registry.counter(
            "batch_groups_total", labels,
            fn=lambda: self.batch_groups.value,
            help="leaf groups formed by completed batched operations",
        )
        registry.gauge(
            "batch_group_size", labels,
            fn=lambda: (
                self.batch_keys.value / self.batch_groups.value
                if self.batch_groups.value
                else 0.0
            ),
            help="mean specs per leaf group across completed batches",
        )
        registry.counter(
            "engine_coalesced_writes_total", labels,
            fn=lambda: self.coalesced_writes.value,
            help="page writes that shared a coalesced command vector",
        )
        registry.gauge(
            "engine_inflight_ops", labels,
            fn=lambda: self.inflight,
            help="admitted operations not yet complete",
        )
        registry.gauge(
            "engine_outstanding_io_count", labels,
            fn=lambda: self.io_history.outstanding_count,
            help="engine-submitted I/Os awaiting completion",
        )
        self.driver.register_metrics(registry, labels=labels)
        self.qpair.register_metrics(registry, labels=labels)
        self.latches.register_metrics(registry, labels=labels)
        self.policy.register_metrics(registry, labels=labels)
        if self.buffer is not None:
            self.buffer.register_metrics(registry, labels=labels)
        return registry

    def stats(self):
        """Totals snapshot; harnesses diff two snapshots for a window."""
        out = {
            "completed": self.completed.value,
            "completed_by_kind": dict(self.completed_by_kind),
            "probes": self.probes.value,
            "latch_waits": self.latch_wait_events.value,
            "outstanding_avg": self.io_history.outstanding_count,
            "mean_latency_us": self.latencies.mean_usec(),
            "p99_latency_us": self.latencies.p99_usec(),
            "io_errors": self.io_errors.value,
            "failed_ops": self.failed_ops.value,
            "io_retries": self.driver.retries_scheduled.value,
            "io_escalations": self.io_escalations.value,
            "lost_writes": self.lost_writes.value,
        }
        # batch keys appear only when batches actually ran, keeping
        # single-op artifacts bit-for-bit identical
        if self.batch_ops.value:
            out["batch_ops"] = self.batch_ops.value
            out["batch_keys"] = self.batch_keys.value
            out["batch_groups"] = self.batch_groups.value
            out["coalesced_writes"] = self.coalesced_writes.value
        return out
