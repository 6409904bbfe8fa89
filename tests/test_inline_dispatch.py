"""The in-place CPU-burst path must be invisible in virtual time.

``SimOS`` runs a thread's next CPU burst without the event heap when
the heap would dispatch that burst next anyway.  An ``on_dispatch``
hook turns the in-place path off (every event must reach the hook), so
running each stream once plain and once with a no-op hook compares the
two paths on identical input: per-op timing and results, dispatched
events, the final clock, the CPU ledger and context switches must all
match exactly.
"""

import random

import pytest

from repro.api import AsyncLsmSession, PATreeSession
from repro.baselines.io_service import SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.core.ops import insert_op, search_op, update_op
from repro.core.tree import PaTree
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS

PAYLOAD = 32


def _value(key, salt=0):
    return ((key * 7919 + salt) % 2**64).to_bytes(PAYLOAD, "little")


def _point_ops(rng, keys, count):
    ops = []
    for _ in range(count):
        key = rng.choice(keys)
        if rng.random() < 0.2:
            ops.append(update_op(key, _value(key, 1)))
        else:
            ops.append(search_op(key))
    return ops


def _pa_tree(hook):
    session = PATreeSession(
        seed=11, buffer_pages=0, window=64, payload_size=PAYLOAD
    )
    keys = list(range(10, 20_000, 10))
    session.bulk_load([(key, _value(key)) for key in keys])
    engine, simos = session.env.engine, session.env.os
    engine.on_dispatch = hook
    ops = session.execute(_point_ops(random.Random(3), keys, 400))
    return ops, engine, simos


def _sync_threads(hook):
    engine = Engine(seed=5)
    simos = SimOS(engine, OsProfile(cores=2))
    device = NvmeDevice(engine, fast_test_profile(capacity_pages=20_000))
    tree = PaTree.create(device, payload_size=PAYLOAD)
    keys = list(range(10, 5_000, 10))
    tree.bulk_load([(key, _value(key)) for key in keys])
    accessor = SyncTreeAccessor(
        tree, SharedIoService(NvmeDriver(device)), BlockingLatchTable()
    )
    engine.on_dispatch = hook
    ops = _point_ops(random.Random(4), keys, 300)
    ops += [insert_op(key + 5, _value(key, 2)) for key in keys[:60]]
    BaselineRunner(simos, accessor, ops, n_threads=6).run_to_completion()
    return ops, engine, simos


def _lsm(hook):
    session = AsyncLsmSession(seed=9, memtable_entries=100, window=32)
    keys = list(range(10, 4_000, 10))
    session.bulk_load([(key, _value(key)) for key in keys])
    engine, simos = session.env.engine, session.env.os
    engine.on_dispatch = hook
    rng = random.Random(5)
    ops = []
    for index in range(500):
        if rng.random() < 0.6:
            key = 5 + 10 * index
            ops.append(insert_op(key, _value(key, 3)))
        else:
            ops.append(search_op(rng.choice(keys)))
    ops = session.execute(ops)
    return ops, engine, simos


def _observe(run, hook):
    ops, engine, simos = run(hook)
    return {
        "ops": [(op.admit_ns, op.done_ns, op.result) for op in ops],
        "errors": [op.error for op in ops if op.error is not None],
        "dispatched": engine.dispatched,
        "now": engine.now,
        "cpu": dict(simos.cpu_account().by_category),
        "context_switches": simos.context_switches.value,
    }, engine.events._seq


@pytest.mark.parametrize(
    "run", [_pa_tree, _sync_threads, _lsm], ids=["pa-tree", "sync", "lsm"]
)
def test_in_place_bursts_match_the_heap_path(run):
    plain, plain_pushes = _observe(run, None)
    heap_only, heap_pushes = _observe(run, lambda event: None)
    assert plain["errors"] == []
    assert len(plain["ops"]) >= 300
    assert plain == heap_only
    # with the hook every dispatched event went through the heap ...
    assert heap_pushes >= heap_only["dispatched"]
    # ... while the plain run really took the in-place path
    assert plain_pushes < plain["dispatched"]
