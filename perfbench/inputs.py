"""Seeded input streams owned by the benchmark.

Every key, value and verb the benchmark feeds the program comes from
here, derived from ``--seed`` alone through a SplitMix64 generator this
file implements.  Nothing is drawn from ``repro.workloads`` or from
``random``: a change to the program (or to the Python version) cannot
change the inputs, so two commits always see the same operations.

Streams are plain tuples:

* preload: ``(key, payload)`` pairs, sorted by key, unique;
* point ops (``ycsb-point``, ``sync-threads``, ``lsm-ingest``):
  ``(verb, key, payload)`` with verb ``get`` / ``update`` / ``put``;
* batches (``batch-ingest``): tuples of ``(verb, key, payload)`` specs,
  verbs ``put`` / ``get`` / ``delete``, keys distinct within a batch.

Each stream draws from its own named generator, so changing one
stream's length never changes another's contents.
"""

import bisect
import hashlib

MASK64 = (1 << 64) - 1

#: Keys preloaded before every workload (a 4-level tree of ~5 000 pages).
PRELOAD_KEYS = 100_000
#: Payload bytes per value, the paper's YCSB default.
PAYLOAD_SIZE = 8
#: Preload key ``i`` lies in the lower half of slot ``[(i+1)*STRIDE,
#: (i+2)*STRIDE)``; fresh keys are drawn from the upper half, so a
#: fresh key is never a preloaded one.
KEY_STRIDE = 1024

ZIPF_ALPHA = 0.3
YCSB_READ_FRAC = 0.9
BATCH_SPECS = 16
#: A batch draws its keys from this many consecutive preload slots, so
#: it spans only a few leaves (~21 keys per bulk-loaded leaf).
BATCH_CLUSTER = 48
LSM_PUT_FRAC = 0.7


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood 2014): small, fast, fully specified."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        """Integer in ``[0, n)``; the modulo bias is below 2**-40 here."""
        return self.next_u64() % n

    def uniform(self):
        """Float in ``[0, 1)`` with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def stream(seed, name):
    """An independent generator for ``(seed, name)``."""
    digest = hashlib.sha256(("%d:%s" % (seed, name)).encode()).digest()
    return SplitMix64(int.from_bytes(digest[:8], "little"))


def engine_seed(seed):
    """The simulation seed handed to the program, derived from ``seed``."""
    return stream(seed, "engine").below(1 << 31)


def payload_for(serial):
    """A distinct 8-byte value per write serial number."""
    mixed = (serial * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & MASK64
    return mixed.to_bytes(PAYLOAD_SIZE, "little")


def preload_keys(seed, n=PRELOAD_KEYS):
    rng = stream(seed, "preload")
    half = KEY_STRIDE // 2
    return [(index + 1) * KEY_STRIDE + rng.below(half) for index in range(n)]


def preload_items(keys):
    return [(key, payload_for(key)) for key in keys]


def fresh_key(rng, index):
    """A key in the upper half of preload slot ``index``."""
    half = KEY_STRIDE // 2
    return (index + 1) * KEY_STRIDE + half + rng.below(half)


class ZipfRanks:
    """Zipf(alpha) over ``n`` items by inverse-CDF table lookup.

    Rank ``r`` has weight ``1 / (r + 1) ** alpha``; ranks map to item
    indices through a seeded permutation, so hot keys are spread over
    the key space instead of sitting in the first leaves.
    """

    def __init__(self, seed, n, alpha=ZIPF_ALPHA):
        total = 0.0
        cdf = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** alpha
            cdf.append(total)
        self._cdf = [value / total for value in cdf]
        perm = list(range(n))
        rng = stream(seed, "zipf-permutation")
        for index in range(n - 1, 0, -1):
            other = rng.below(index + 1)
            perm[index], perm[other] = perm[other], perm[index]
        self._perm = perm
        self._n = n

    def draw(self, rng):
        rank = bisect.bisect_left(self._cdf, rng.uniform())
        return self._perm[min(rank, self._n - 1)]


#: First write serial; preload values are keyed by key < 2**40 instead.
SERIAL_BASE = 1 << 48


def point_ops(seed, count, keys, zipf):
    """``ycsb-point`` / ``sync-threads``: 90 % get, 10 % update, Zipf keys."""
    rng = stream(seed, "point-ops")
    serial = SERIAL_BASE
    ops = []
    for _ in range(count):
        key = keys[zipf.draw(rng)]
        if rng.uniform() < YCSB_READ_FRAC:
            ops.append(("get", key, None))
        else:
            serial += 1
            ops.append(("update", key, payload_for(serial)))
    return ops


def batches(seed, count, keys):
    """``batch-ingest``: clustered batches of put/get/delete specs.

    50 % put (half of them fresh keys), 30 % get, 20 % delete.
    """
    rng = stream(seed, "batches")
    serial = SERIAL_BASE
    n = len(keys)
    out = []
    for _ in range(count):
        base = rng.below(n - BATCH_CLUSTER)
        seen = set()
        specs = []
        while len(specs) < BATCH_SPECS:
            index = base + rng.below(BATCH_CLUSTER)
            u = rng.uniform()
            if u < 0.25:
                key = fresh_key(rng, index)
                verb = "put"
            elif u < 0.5:
                key, verb = keys[index], "put"
            elif u < 0.8:
                key, verb = keys[index], "get"
            else:
                key, verb = keys[index], "delete"
            if key in seen:
                continue
            seen.add(key)
            payload = None
            if verb == "put":
                serial += 1
                payload = payload_for(serial)
            specs.append((verb, key, payload))
        out.append(tuple(specs))
    return out


def lsm_ops(seed, count, keys):
    """``lsm-ingest``: 70 % fresh-key put, 30 % uniform get."""
    rng = stream(seed, "lsm-ops")
    serial = SERIAL_BASE
    n = len(keys)
    ops = []
    for _ in range(count):
        index = rng.below(n)
        if rng.uniform() < LSM_PUT_FRAC:
            serial += 1
            ops.append(("put", fresh_key(rng, index), payload_for(serial)))
        else:
            ops.append(("get", keys[index], None))
    return ops


def digest(items):
    """Short stable digest of a generated stream (printed per run)."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]
