"""The polled-mode asynchronous LSM working thread.

A lightweight sibling of :class:`repro.core.engine.PaTreeEngine` that
drives :class:`~repro.palsm.store.AsyncLsmStore` operation plans: one
simulated thread admits operations, processes the ready set under a
scheduling policy, submits reads/writes through the SPDK-style driver
and probes for completions — the same Algorithm 1/2 main loop, applied
to an LSM instead of a B+ tree (the paper's future-work direction).

Differences from the tree engine reflect LSM structure: there are no
latches (a single worker over immutable tables needs none), reads go
through a block cache, and internal maintenance work (memtable
flushes, compactions) runs as ordinary interleaved operations — a
compaction's page reads and writes are all in flight concurrently
while user gets and puts continue to complete between them.
"""

from collections import deque

from repro.core.ops import (
    ChargeEff,
    ST_DONE,
    ST_IO_WAIT,
    ST_READY,
    SYNC,
)
from repro.errors import (
    IoError,
    QueueFullError,
    RetryExhaustedError,
    SchedulerError,
)
from repro.backend.base import as_backend
from repro.nvme.command import OP_READ
from repro.sim.nulltrace import NULL_TRACER
from repro.palsm.store import (
    BackgroundWriteEff,
    OP_COMPACT,
    OP_FLUSH,
    ReadBatchEff,
    ReadPageEff,
    WriteBatchEff,
)
from repro.sim.clock import usec
from repro.sim.metrics import (
    CPU_NVME,
    CPU_REAL_WORK,
    CPU_SCHED,
    Counter,
    LatencyRecorder,
)
from repro.simos.thread import Cpu, Sleep

_INTERNAL_KINDS = (OP_FLUSH, OP_COMPACT, SYNC)


class PolledLsmWorker:
    """Single polled-mode worker over an :class:`AsyncLsmStore`."""

    def __init__(self, simos, backend, store, policy, source, name="pa-lsm",
                 tracer=None):
        self.simos = simos
        self.engine = simos.engine
        self.clock = simos.engine.clock
        # like the tree engine, the worker speaks the IoBackend
        # contract; a bare NvmeDriver is adopted onto it unchanged
        self.backend = as_backend(backend)
        self.driver = self.backend
        self.store = store
        self.policy = policy
        self.source = source
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.op_observer = None
        self._track = "worker:%s" % name
        self.qpair = self.backend.alloc_qpair(sq_size=4096, cq_size=4096)

        from repro.sched.history import IoHistory

        model = getattr(policy, "probe_model", None)
        if model is not None:
            self.io_history = IoHistory(
                self.clock, window_us=model.window_us, slices=model.slices
            )
        else:
            self.io_history = IoHistory(self.clock)

        self._internal = deque()
        self._batch_reads = {}  # op seq -> (lbas, {lba: image})
        self._deferred_escalations = deque()
        self._next_seq = 0
        self._active_seqs = set()
        self.inflight = 0
        self._background_outstanding = 0
        self._shutdown = False
        self._cache_hit_cost_ns = usec(0.12)
        self.sched_pick_cost_ns = usec(0.1)
        self.sched_gate_cost_ns = usec(0.1)
        self.max_write_escalations = 8

        self.latencies = LatencyRecorder()
        self.completed = Counter()
        self.user_completed = 0
        self.last_user_done_ns = 0
        self.probes = Counter()
        self.io_errors = Counter()
        self.failed_ops = Counter()
        self.io_escalations = Counter()
        self.lost_writes = Counter()
        self.worker_thread = None

        store.enqueue_internal = self._internal.append
        store.next_seq = lambda: self._next_seq
        policy.bind(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self.worker_thread = self.simos.spawn(
            self._worker_body(), name=self.name, group=self.name
        )
        return self.worker_thread

    def run_to_completion(self, until_ns=None):
        self.start()
        self.simos.run_until_done([self.worker_thread], until_ns=until_ns)
        if not self.worker_thread.done:
            raise SchedulerError(
                "PA-LSM worker did not finish (inflight=%d)" % self.inflight
            )

    def reset_source(self, source=None):
        """Install a fresh operation source and re-arm the worker.

        Mirrors :meth:`repro.core.engine.PaTreeEngine.reset_source`:
        the public way for facades to feed successive batches through
        one worker.
        """
        if self.worker_thread is not None and not self.worker_thread.done:
            raise SchedulerError("cannot reset the source of a running worker")
        if source is not None:
            self.source = source
        self._shutdown = False

    def run_operations(self, operations, window=64):
        from repro.core.source import ClosedLoopSource

        operations = list(operations)
        self.reset_source(ClosedLoopSource(operations, window=window))
        self.run_to_completion()
        return operations

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _worker_body(self):
        driver = self.driver
        policy = self.policy
        profile = driver.profile
        while True:
            worked = False

            new_ops = self.source.poll(self.clock.now)
            while self._internal:
                new_ops.append(self._internal.popleft())
            if new_ops:
                yield Cpu(usec(0.1) * len(new_ops), CPU_SCHED)
                for op in new_ops:
                    self._admit(op)
                worked = True

            # re-drive failed writes deferred because the ring was full
            while self._deferred_escalations and self.qpair.sq.free_slots > 8:
                deferred = self._deferred_escalations.popleft()
                yield Cpu(driver.submit_cpu_ns, CPU_NVME)
                self._resubmit_write(*deferred)
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

            if self.io_history.outstanding_count:
                gate_cost = policy.gate_cost_ns()
                if gate_cost:
                    yield Cpu(gate_cost, CPU_SCHED)
                    worked = True
                if policy.should_probe():
                    tracer = self.tracer
                    probe_start_ns = self.clock.now if tracer.enabled else 0
                    yield Cpu(driver.probe_cpu_ns(0), CPU_NVME)
                    done = driver.probe(self.qpair)
                    self.probes.add()
                    policy.note_probe(self.clock.now, len(done))
                    if done:
                        yield Cpu(
                            len(done) * profile.probe_cpu_per_completion_ns,
                            CPU_NVME,
                        )
                    if tracer.enabled:
                        tracer.complete(
                            self._track,
                            "probe",
                            probe_start_ns,
                            self.clock.now,
                            cat="worker",
                            args={"completions": len(done)},
                        )
                    worked = True

            if (
                self.source.exhausted()
                and self.inflight == 0
                and not self._internal
                and self._background_outstanding == 0
                and not self._deferred_escalations
            ):
                break

            if policy.ready_count() == 0 and not self._internal:
                sleep_ns = policy.idle_sleep_ns()
                next_arrival = self.source.next_event_ns(self.clock.now)
                if sleep_ns > 0:
                    if next_arrival is not None:
                        sleep_ns = min(
                            sleep_ns, max(1, next_arrival - self.clock.now)
                        )
                    yield Sleep(sleep_ns)
                elif not worked:
                    yield Cpu(usec(1.0), CPU_SCHED)

        self._shutdown = True

    # ------------------------------------------------------------------
    # operation processing
    # ------------------------------------------------------------------

    def _admit(self, op):
        op.seq = self._next_seq
        self._next_seq += 1
        op.admit_ns = self.clock.now
        op.gen = self.store.make_plan(op)
        op.state = ST_READY
        self.inflight += 1
        self._active_seqs.add(op.seq)
        if self.tracer.enabled:
            self.tracer.async_begin(
                "op", op.seq, op.kind, args={"key": op.key}
            )
        self.policy.on_ready(op)

    def _process(self, op):
        yield Cpu(usec(0.1), CPU_SCHED)
        send = op.resume_value
        op.resume_value = None
        while True:
            try:
                effect = op.gen.send(send)
            except StopIteration:
                self._complete(op)
                return
            send = None
            kind = type(effect)

            if kind is ReadPageEff:
                yield Cpu(self._cache_hit_cost_ns, CPU_REAL_WORK)
                cached = self.store.cache.get(effect.lba)
                if cached is not None:
                    send = cached
                    continue
                yield Cpu(self.driver.submit_cpu_ns, CPU_NVME)
                command = self.driver.read(
                    self.qpair, effect.lba, callback=self._on_io_done, context=op
                )
                self.io_history.on_submit(command)
                op.io_remaining = 1
                op.state = ST_IO_WAIT
                if self.tracer.enabled:
                    self.tracer.async_instant("op", op.seq, "io_wait")
                return

            if kind is ReadBatchEff:
                results = {}
                pending = 0
                for lba in effect.lbas:
                    yield Cpu(self._cache_hit_cost_ns, CPU_REAL_WORK)
                    cached = self.store.cache.get(lba)
                    if cached is not None:
                        results[lba] = cached
                        continue
                    yield Cpu(self.driver.submit_cpu_ns, CPU_NVME)
                    command = self.driver.read(
                        self.qpair, lba, callback=self._on_io_done, context=op
                    )
                    self.io_history.on_submit(command)
                    pending += 1
                if pending:
                    self._batch_reads[op.seq] = (effect.lbas, results)
                    op.io_remaining = pending
                    op.state = ST_IO_WAIT
                    if self.tracer.enabled:
                        self.tracer.async_instant(
                            "op", op.seq, "io_wait", args={"ios": pending}
                        )
                    return
                send = [results[lba] for lba in effect.lbas]
                continue

            if kind is WriteBatchEff:
                count = 0
                for lba, image in effect.pages:
                    yield Cpu(self.driver.submit_cpu_ns, CPU_NVME)
                    command = self.driver.write(
                        self.qpair, lba, image, callback=self._on_io_done, context=op
                    )
                    self.io_history.on_submit(command)
                    count += 1
                if count:
                    op.io_remaining = count
                    op.state = ST_IO_WAIT
                    if self.tracer.enabled:
                        self.tracer.async_instant(
                            "op", op.seq, "io_wait", args={"ios": count}
                        )
                    return
                continue

            if kind is BackgroundWriteEff:
                batch = _BackgroundBatch(len(effect.pages), effect.on_complete, self)
                for lba, image in effect.pages:
                    yield Cpu(self.driver.submit_cpu_ns, CPU_NVME)
                    command = self.driver.write(
                        self.qpair,
                        lba,
                        image,
                        callback=self._on_background_done,
                        context=batch,
                    )
                    self.io_history.on_submit(command)
                    self._background_outstanding += 1
                continue

            if kind is ChargeEff:
                yield Cpu(effect.ns, effect.category)
                continue

            raise SchedulerError("LSM plan yielded unknown effect %r" % (effect,))

    def _complete(self, op):
        op.state = ST_DONE
        op.done_ns = self.clock.now
        self.inflight -= 1
        self._active_seqs.discard(op.seq)
        self.completed.add()
        if self.tracer.enabled:
            self.tracer.async_end("op", op.seq, op.kind)
        if self.op_observer is not None:
            self.op_observer.on_op_complete(op)
        if op.kind in (OP_FLUSH, OP_COMPACT):
            pass  # internal maintenance: invisible to the source
        else:
            if op.kind not in _INTERNAL_KINDS and op.error is None:
                # goodput only: errored ops have no usable result
                self.user_completed += 1
                self.last_user_done_ns = op.done_ns
                self.latencies.record(op.latency_ns)
            self.source.on_op_complete(op)
        if op.on_complete is not None:
            op.on_complete(op)
        min_active = min(self._active_seqs) if self._active_seqs else self._next_seq
        self.store.release_frees(min_active)

    # ------------------------------------------------------------------
    # completion callbacks (fired from probe, zero virtual time)
    # ------------------------------------------------------------------

    def _on_io_done(self, completion):
        command = completion.command
        self.io_history.on_complete(command)
        if not completion.ok:
            self._on_io_failed(completion)
            return
        op = command.context
        if command.opcode == OP_READ:
            self.store.cache.put(command.lba, command.data)
            if op.state is ST_DONE:
                return  # late completion for an already-aborted op
            batch = self._batch_reads.get(op.seq)
            if batch is not None:
                lbas, results = batch
                results[command.lba] = command.data
                op.io_remaining -= 1
                if op.io_remaining == 0:
                    del self._batch_reads[op.seq]
                    op.resume_value = [results[lba] for lba in lbas]
                    op.state = ST_READY
                    self.policy.on_ready(op)
                return
            op.resume_value = command.data
            op.io_remaining -= 1
            if op.io_remaining == 0:
                op.state = ST_READY
                self.policy.on_ready(op)
            return
        op.io_remaining -= 1
        if op.io_remaining == 0:
            if op.error is not None:
                self._abort_op(op, None)
            else:
                op.state = ST_READY
                self.policy.on_ready(op)

    def _on_background_done(self, completion):
        command = completion.command
        self.io_history.on_complete(command)
        if not completion.ok:
            self.io_errors.add()
            if command.escalations < self.max_write_escalations:
                self.io_escalations.add()
                self._resubmit_write(
                    command.lba,
                    command.data,
                    command.context,
                    self._on_background_done,
                    command.escalations + 1,
                    background=True,
                )
                return
            self.lost_writes.add()
        self._background_outstanding -= 1
        batch = command.context
        batch.remaining -= 1
        if batch.remaining == 0 and batch.on_complete is not None:
            batch.on_complete()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _on_io_failed(self, completion):
        command = completion.command
        self.io_errors.add()
        if command.opcode == OP_READ:
            op = command.context
            if op is None or op.state is ST_DONE:
                return
            op.io_remaining -= 1
            self._batch_reads.pop(op.seq, None)
            self._abort_op(op, self._error_from(completion))
            return
        # writes must land: the store's in-memory manifest already
        # accounts for these pages, so re-drive until success or cap
        if command.escalations < self.max_write_escalations:
            self.io_escalations.add()
            self._resubmit_write(
                command.lba,
                command.data,
                command.context,
                self._on_io_done,
                command.escalations + 1,
            )
            return
        self.lost_writes.add()
        op = command.context
        op.io_remaining -= 1
        if op.error is None:
            op.error = self._error_from(completion)
        if op.io_remaining == 0:
            self._abort_op(op, None)

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
        """Terminate ``op`` with a typed error (LSM plans hold no latches)."""
        if error is not None and op.error is None:
            op.error = error
        op.result = None
        if op.gen is not None:
            op.gen.close()
        self.failed_ops.add()
        if self.tracer.enabled:
            self.tracer.async_instant(
                "op", op.seq, "aborted", args={"error": str(op.error)}
            )
        self._complete(op)

    def _resubmit_write(
        self, lba, image, context, callback, escalations, background=False
    ):
        try:
            command = self.driver.write(
                self.qpair, lba, image, callback=callback, context=context
            )
        except QueueFullError:
            self._deferred_escalations.append(
                (lba, image, context, callback, escalations, background)
            )
            return
        command.escalations = escalations
        self.io_history.on_submit(command)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose the LSM worker stack through a metric registry.

        Mirrors :meth:`repro.core.engine.PaTreeEngine.register_metrics`
        for the LSM sibling: worker counters plus delegation to the
        driver (covering the device), the queue pair and the policy.
        """
        registry.counter(
            "worker_completed_total", labels,
            fn=lambda: self.completed.value,
            help="operations completed (including failed ones)",
        )
        registry.counter(
            "worker_failed_ops_total", labels,
            fn=lambda: self.failed_ops.value,
            help="operations aborted with a typed error",
        )
        registry.counter(
            "worker_io_errors_total", labels,
            fn=lambda: self.io_errors.value,
            help="I/O failures the driver delivered to the worker",
        )
        registry.counter(
            "worker_io_escalations_total", labels,
            fn=lambda: self.io_escalations.value,
            help="failed writes re-driven with a fresh command",
        )
        registry.counter(
            "worker_lost_writes_total", labels,
            fn=lambda: self.lost_writes.value,
            help="writes abandoned at the escalation cap",
        )
        registry.counter(
            "worker_probes_total", labels,
            fn=lambda: self.probes.value,
            help="completion-queue probes performed",
        )
        registry.counter(
            "store_flushes_total", labels,
            fn=lambda: self.store.flushes,
            help="memtable flushes completed",
        )
        registry.counter(
            "store_compactions_total", labels,
            fn=lambda: self.store.compactions,
            help="compactions completed",
        )
        registry.gauge(
            "worker_inflight_ops", labels,
            fn=lambda: self.inflight,
            help="admitted operations not yet complete",
        )
        registry.gauge(
            "worker_outstanding_io_count", labels,
            fn=lambda: self.io_history.outstanding_count,
            help="worker-submitted I/Os awaiting completion",
        )
        self.driver.register_metrics(registry, labels=labels)
        self.qpair.register_metrics(registry, labels=labels)
        self.policy.register_metrics(registry, labels=labels)
        return registry

    def stats(self):
        return {
            "completed": self.completed.value,
            "user_completed": self.user_completed,
            "probes": self.probes.value,
            "flushes": self.store.flushes,
            "compactions": self.store.compactions,
            "mean_latency_us": self.latencies.mean_usec(),
            "p99_latency_us": self.latencies.p99_usec(),
            "io_errors": self.io_errors.value,
            "failed_ops": self.failed_ops.value,
            "io_retries": self.driver.retries_scheduled.value,
            "io_escalations": self.io_escalations.value,
            "lost_writes": self.lost_writes.value,
        }


class _BackgroundBatch:
    __slots__ = ("remaining", "on_complete", "worker")

    def __init__(self, remaining, on_complete, worker):
        self.remaining = remaining
        self.on_complete = on_complete
        self.worker = worker
