"""Unit tests for scheduling: I/O history, probe model, ready queues,
probing policies."""

import pytest

from repro.core.ops import search_op, update_op
from repro.nvme.device import NvmeDevice, fast_test_profile, i3_nvme_profile
from repro.nvme.driver import NvmeDriver
from repro.sched.history import IoHistory
from repro.sched.naive import NaiveScheduling
from repro.sched.policies import AvgLatencyProbing, FixedRateProbing
from repro.sched.priority import FifoReadyQueue, PriorityReadyQueue
from repro.sched.probe_model import LinearProbeModel, train_probe_model
from repro.sim.clock import usec
from repro.sim.engine import Engine

import numpy as np


class TestIoHistory:
    def _history(self):
        engine = Engine(seed=1)
        device = NvmeDevice(engine, fast_test_profile())
        driver = NvmeDriver(device)
        qpair = driver.alloc_qpair()
        history = IoHistory(engine.clock, window_us=1000, slices=20)
        return engine, driver, qpair, history

    def test_outstanding_tracking(self):
        engine, driver, qpair, history = self._history()
        command = driver.read(qpair, 1)
        history.on_submit(command)
        assert history.outstanding_count == 1
        engine.run()
        driver.probe(qpair)
        history.on_complete(command)
        assert history.outstanding_count == 0
        assert history.detected_completions == 1

    def test_feature_vector_buckets_by_age(self):
        engine, driver, qpair, history = self._history()
        read = driver.read(qpair, 1)
        history.on_submit(read)
        write = driver.write(qpair, 2, bytes(512))
        history.on_submit(write)
        features = history.feature_vector()
        n = history.slices
        assert features[n] == 1.0  # read, slice 0
        assert features[0] == 1.0  # write, slice 0
        # project the same vector 120us into the future: both age
        future = history.feature_vector(engine.now + usec(120))
        assert future[n + 2] == 1.0
        assert future[2] == 1.0

    def test_old_commands_clamp_to_last_slice(self):
        engine, driver, qpair, history = self._history()
        command = driver.read(qpair, 1)
        history.on_submit(command)
        features = history.feature_vector(engine.now + usec(5_000))
        assert features[2 * history.slices - 1] == 1.0

    def test_avg_latency_window(self):
        engine, driver, qpair, history = self._history()
        commands = [driver.read(qpair, lba) for lba in range(1, 5)]
        for command in commands:
            history.on_submit(command)
        engine.run()
        driver.probe(qpair)
        for command in commands:
            history.on_complete(command)
        average = history.avg_completion_latency_ns()
        assert usec(5) < average < usec(60)


def reference_feature_vector(history, outstanding, at_ns):
    """The per-command loop the sorted-times history replaced."""
    n = history.slices
    features = [0.0] * (2 * n)
    for submit_ns, is_write in outstanding:
        index = (at_ns - submit_ns) // history.slice_ns
        index = min(max(index, 0), n - 1)
        features[index if is_write else n + index] += 1.0
    return features


class _Submitted:
    def __init__(self, submit_ns, is_write):
        self.submit_ns = submit_ns
        self.is_write = is_write


class TestSparseGating:
    """The bisected slice counts and the sparse gate against the loop."""

    @pytest.fixture(scope="class")
    def model(self):
        return train_probe_model(5, i3_nvme_profile(), duration_us=100_000)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_per_command_loop(self, model, seed):
        import random

        rng = random.Random(seed)
        engine = Engine(seed=seed)
        history = IoHistory(engine.clock, model.window_us, model.slices)
        outstanding = {}
        now = 0
        for _ in range(400):
            roll = rng.random()
            if roll < 0.5 or not outstanding:
                # mostly submissions at the clock, with repeats and a
                # few out-of-order (older) submit times; times on a 5us
                # grid put many ages exactly on a slice boundary
                now += rng.choice((0, 0, usec(5) * rng.randrange(1, 8)))
                submit_ns = now - rng.choice((0, 0, 0, usec(5) * rng.randrange(60)))
                command = _Submitted(submit_ns, rng.random() < 0.3)
                history.on_submit(command)
                outstanding[id(command)] = command
            else:
                # completions in any order
                key = rng.choice(sorted(outstanding))
                history.on_complete(outstanding.pop(key))
            entries = [(c.submit_ns, c.is_write) for c in outstanding.values()]
            # now, the future (aged, up to clamping into the last
            # slice) and the past (negative ages clamp to slice 0)
            for at_ns in (
                now,
                now + usec(5) * rng.randrange(40),
                now + rng.randrange(usec(200)),
                now + rng.randrange(usec(3_000)),
                now - rng.randrange(usec(20)),
            ):
                expected = reference_feature_vector(history, entries, at_ns)
                assert history.feature_vector(at_ns) == expected
            features = reference_feature_vector(history, entries, now)
            engine.clock.advance_to(now)
            gate = model.predict_occupied(history.occupied_slices())
            assert gate == model.predict(features)
            assert model.gate(history) == model.predicts_completion(features)
            assert history.outstanding_count == len(outstanding)

    def test_clamps_old_commands_into_the_last_slice(self, model):
        engine = Engine(seed=1)
        history = IoHistory(engine.clock, model.window_us, model.slices)
        # commands are tracked by identity: keep them alive
        commands = [
            _Submitted(submit_ns, False)
            for submit_ns in (0, 0, 10, usec(900), usec(990))
        ]
        for command in commands:
            history.on_submit(command)
        at_ns = usec(5_000)
        last = 2 * model.slices - 1
        assert history.occupied_slices(at_ns) == [(last, 5)]
        entries = [(c.submit_ns, c.is_write) for c in commands]
        expected = reference_feature_vector(history, entries, at_ns)
        assert history.feature_vector(at_ns) == expected


class TestProbeModel:
    def test_training_produces_sane_model(self):
        model = train_probe_model(
            5, i3_nvme_profile(), duration_us=150_000
        )
        # a device-latency-aged read should predict ~1 completion
        n = model.slices
        features = [0.0] * (2 * n)
        features[n + 2] = 4.0  # four reads aged ~100-150us
        w0, r0 = model.predict(features)
        assert r0 > 1.0
        assert abs(w0) < 1.0
        # an empty system predicts nothing
        assert model.predict([0.0] * (2 * n)) == (0.0, 0.0)

    def test_predicts_completion_threshold(self):
        beta = np.zeros((40, 2))
        beta[20, 1] = 0.5
        model = LinearProbeModel(beta)
        features = [0.0] * 40
        features[20] = 1.0
        assert not model.predicts_completion(features)
        features[20] = 2.0
        assert model.predicts_completion(features)

    def test_beta_shape_validated(self):
        with pytest.raises(ValueError):
            LinearProbeModel(np.zeros((3, 2)))


class TestReadyQueues:
    def test_fifo_order(self):
        queue = FifoReadyQueue()
        ops = [search_op(i) for i in range(3)]
        for i, op in enumerate(ops):
            op.seq = i
            queue.push(op)
        assert [queue.pop() for _ in range(3)] == ops
        assert queue.pop() is None

    def test_priority_write_latch_holders_first(self):
        queue = PriorityReadyQueue()
        reader = search_op(1)
        reader.seq = 0
        writer = update_op(2, b"x" * 8)
        writer.seq = 5
        writer.write_latches = 1
        queue.push(reader)
        queue.push(writer)
        assert queue.pop() is writer
        assert queue.pop() is reader

    def test_priority_admission_order_tiebreak(self):
        queue = PriorityReadyQueue()
        older = search_op(1)
        older.seq = 1
        newer = search_op(2)
        newer.seq = 9
        queue.push(newer)
        queue.push(older)
        assert queue.pop() is older


class _FakeEngine:
    """Minimal engine stub for policy unit tests."""

    def __init__(self):
        self.clock = Engine(seed=0).clock

        class _History:
            outstanding_count = 1

            @staticmethod
            def avg_completion_latency_ns():
                return usec(40)

        self.io_history = _History()


class TestProbingPolicies:
    def test_naive_always_probes(self):
        policy = NaiveScheduling()
        assert policy.should_probe()
        assert policy.idle_sleep_ns() == 0

    def test_fixed_rate_period(self):
        policy = FixedRateProbing(50)
        engine = _FakeEngine()
        policy.bind(engine)
        assert policy.should_probe()  # never probed yet
        policy.note_probe(engine.clock.now, 0)
        assert not policy.should_probe()
        engine.clock.advance_to(usec(49))
        assert not policy.should_probe()
        engine.clock.advance_to(usec(51))
        assert policy.should_probe()

    def test_fixed_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedRateProbing(-1)

    def test_avg_latency_follows_measured_average(self):
        policy = AvgLatencyProbing()
        engine = _FakeEngine()
        policy.bind(engine)
        policy.note_probe(engine.clock.now, 0)
        engine.clock.advance_to(usec(39))
        assert not policy.should_probe()
        engine.clock.advance_to(usec(41))
        assert policy.should_probe()

    def test_timer_policies_skip_probe_with_no_outstanding(self):
        policy = FixedRateProbing(0)
        engine = _FakeEngine()
        engine.io_history.outstanding_count = 0
        policy.bind(engine)
        assert not policy.should_probe()
