"""Virtual-time pins for the synchronous baselines.

The blocking accessors must charge exactly the same CPU, semaphore and
device work for the same operation stream, whatever shape their code
takes.  Each configuration below runs one small stream on a tree with
four-key leaves, so the stream exercises leaf and inner splits, root
growth, updates, point and range reads, merges, borrows, root shrink
and (under weak persistence) a buffer ``sync``.  The expected figures
are exact: per-op results, final virtual time, the CPU ledger by
category, context switches, semaphore blocks and device I/O counts.
A change that moves any of them changes the paper's baseline numbers
and has to say so.
"""

import hashlib
import random

import pytest

from repro.baselines.blink_tree import BlinkTreeAccessor
from repro.baselines.io_service import DedicatedIoService, SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.lcb_tree import LcbTreeAccessor
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.buffer import ReadOnlyBuffer, ReadWriteBuffer
from repro.core.ops import delete_op, insert_op, range_op, search_op, sync_op, update_op
from repro.core.tree import PaTree
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS

PAYLOAD_SIZE = 104  # 512-byte pages hold four leaf entries


def payload(key, salt=0):
    return ((key ^ salt) % 2**64).to_bytes(PAYLOAD_SIZE, "little")


def op_stream():
    """Grow from empty, read and update, then shrink back, then sync."""
    rng = random.Random(2020)
    keys = rng.sample(range(1, 100_000), 120)
    ops = [insert_op(k, payload(k)) for k in keys]
    for k in rng.sample(keys, 30):
        ops.append(update_op(k, payload(k, 7)))
        ops.append(search_op(k))
    for k in rng.sample(keys, 10):
        ops.append(range_op(k, k + 20_000, limit=6))
    ops.append(update_op(100_001, payload(1)))  # absent key
    ops.extend(delete_op(k) for k in rng.sample(keys, 110))
    ops.append(delete_op(100_002))  # absent key
    ops.append(sync_op())
    return ops


def run_config(kind, io_kind, persistence):
    engine = Engine(seed=5)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile(capacity_pages=20_000))
    driver = NvmeDriver(device)
    tree = PaTree.create(device, payload_size=PAYLOAD_SIZE)
    io = SharedIoService(driver) if io_kind == "shared" else DedicatedIoService(driver)
    latches = BlockingLatchTable()
    if kind == "lcb":
        accessor = LcbTreeAccessor(
            tree, io, latches, ReadOnlyBuffer(16), persistence,
            wal_pages=1_024, checkpoint_pages=16,
        )
    else:
        buffer = ReadWriteBuffer(16) if persistence == "weak" else None
        cls = BlinkTreeAccessor if kind == "blink" else SyncTreeAccessor
        accessor = cls(tree, io, latches, buffer, persistence)
    ops = op_stream()
    runner = BaselineRunner(simos, accessor, ops, n_threads=4, name=kind)
    runner.run_to_completion()
    latches.assert_quiescent()
    assert runner.failed_ops.value == 0
    results = repr([op.result for op in ops]).encode()
    account = runner.worker_cpu_account()
    return {
        "results": hashlib.sha256(results).hexdigest()[:16],
        "end_ns": engine.now,
        "cpu": {k: v for k, v in account.by_category.items() if v},
        "context_switches": simos.context_switches.value,
        "sem_blocks": simos.sem_blocks.value,
        "reads": device.reads_completed.value,
        "writes": device.writes_completed.value,
        "height": tree.meta.height,
        "keys": tree.meta.key_count,
    }


EXPECTED = {
    "blink-dedicated-weak": {
        "results": "ab04ce86e7389908",
        "end_ns": 10398620,
        "cpu": {"nvme": 412300, "other": 14800000, "real_work": 1497020, "synchronization": 5115200},
        "context_switches": 1340,
        "sem_blocks": 1602,
        "reads": 175,
        "writes": 182,
        "height": 3,
        "keys": 10,
    },
    "blink-shared-strong": {
        "results": "caa4f5543f3a198b",
        "end_ns": 15792300,
        "cpu": {"other": 5832000, "real_work": 1362700, "synchronization": 5148800},
        "context_switches": 2658,
        "sem_blocks": 3111,
        "reads": 1138,
        "writes": 338,
        "height": 3,
        "keys": 10,
    },
    "lcb-dedicated-strong": {
        "results": "e089caf82a092949",
        "end_ns": 26427200,
        "cpu": {"nvme": 1156500, "other": 34284000, "real_work": 1245720, "synchronization": 8872000},
        "context_switches": 648,
        "sem_blocks": 945,
        "reads": 123,
        "writes": 747,
        "height": 2,
        "keys": 10,
    },
    "lcb-shared-weak": {
        "results": "c92a04452d67b531",
        "end_ns": 21607740,
        "cpu": {"other": 5037000, "real_work": 1245720, "synchronization": 10113600},
        "context_switches": 2050,
        "sem_blocks": 2704,
        "reads": 120,
        "writes": 390,
        "height": 2,
        "keys": 10,
    },
    "sync-dedicated-strong": {
        "results": "7310d785a00408bd",
        "end_ns": 24931500,
        "cpu": {"nvme": 1260300, "other": 33091000, "real_work": 1194000, "synchronization": 4859200},
        "context_switches": 557,
        "sem_blocks": 734,
        "reads": 803,
        "writes": 384,
        "height": 2,
        "keys": 10,
    },
    "sync-dedicated-weak": {
        "results": "d75088c11380093d",
        "end_ns": 13163980,
        "cpu": {"nvme": 301100, "other": 10205000, "real_work": 1290360, "synchronization": 7593600},
        "context_switches": 795,
        "sem_blocks": 1122,
        "reads": 137,
        "writes": 127,
        "height": 2,
        "keys": 10,
    },
    "sync-shared-strong": {
        "results": "7310d785a00408bd",
        "end_ns": 29466700,
        "cpu": {"other": 5841000, "real_work": 1194000, "synchronization": 7706400},
        "context_switches": 2689,
        "sem_blocks": 3209,
        "reads": 803,
        "writes": 384,
        "height": 2,
        "keys": 10,
    },
    "sync-shared-weak": {
        "results": "d75088c11380093d",
        "end_ns": 14329440,
        "cpu": {"other": 3336000, "real_work": 1290360, "synchronization": 8202400},
        "context_switches": 1301,
        "sem_blocks": 1650,
        "reads": 137,
        "writes": 126,
        "height": 2,
        "keys": 10,
    },
}


@pytest.mark.parametrize("config", sorted(EXPECTED))
def test_baseline_virtual_time_is_pinned(config):
    kind, io_kind, persistence = config.split("-")
    assert run_config(kind, io_kind, persistence) == EXPECTED[config]
