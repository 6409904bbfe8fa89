"""Tests of the benchmark's own arithmetic, inputs and oracle.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root; they import nothing from the program.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from oracle import Oracle, Record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# -- percentiles and the sample-count rule --------------------------------


def test_percentile_is_hazen_without_ties():
    numpy = pytest.importorskip("numpy")
    samples = [7.0, 1.0, 4.0, 9.0, 2.5, 6.0, 3.0, 8.0, 5.5]
    for q in (0, 1, 25, 50, 75, 90, 99, 100):
        expected = numpy.percentile(samples, q, method="hazen")
        assert measure.percentile(samples, q) == pytest.approx(expected)


def test_percentile_interpolates_between_mid_ranks():
    assert measure.percentile([10, 20], 50) == 15.0
    assert measure.percentile([5], 99) == 5.0
    # 2 holds ranks 2..3 of 4, mid-rank position 0.5
    assert measure.percentile([1, 2, 2, 3], 50) == 2.0
    assert measure.percentile([1, 2, 2, 3], 0) == 1.0
    assert measure.percentile([1, 2, 2, 3], 100) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_percentile_follows_the_share_of_tied_values():
    # a plain order statistic reads 20 for both samples
    more_low = [10] * 45 + [20] * 55
    fewer_low = [10] * 40 + [20] * 60
    assert measure.percentile(more_low, 50) == pytest.approx(15.5)
    assert measure.percentile(fewer_low, 50) == pytest.approx(16.0)


def test_tail_needs_ten_samples_beyond_it():
    assert measure.min_samples_for(99) == 1000
    assert measure.min_samples_for(50) == 20
    assert measure.min_samples_for(99.9) == 10000
    measure.tail_percentile(list(range(1000)), 99)
    with pytest.raises(ValueError, match="p99 needs >= 1000"):
        measure.tail_percentile(list(range(999)), 99)


# -- ratio metrics ----------------------------------------------------------


def test_completions_per_probe_is_useful_over_attempted():
    assert measure.completions_per_probe(16_382, 10_805) == pytest.approx(
        1.516150, rel=1e-6
    )
    assert measure.completions_per_probe(5, 0) == 0.0


def test_write_amp_is_device_bytes_over_user_bytes():
    # 382 page writes of 512 B for 382 updates of 16 B each
    assert measure.write_amp(382, 512, 382 * 16) == 32.0
    assert measure.write_amp(10, 512, 0) == 0.0


def test_keys_per_group():
    assert measure.keys_per_group(16_000, 3_015) == pytest.approx(5.3068, 1e-4)
    assert measure.keys_per_group(0, 0) == 0.0


def test_delta_is_counter_wise():
    assert measure.delta({"a": 5, "b": 9}, {"a": 2, "b": 9}) == {"a": 3, "b": 0}


# -- module -> layer roll-up -----------------------------------------------


PKG = os.path.join(os.sep, "checkout", "src", "repro")


@pytest.mark.parametrize(
    "filename, bucket",
    [
        (os.path.join(PKG, "sim", "events.py"), "sim"),
        (os.path.join(PKG, "core", "node.py"), "core"),
        (os.path.join(PKG, "baselines", "lsm", "store.py"), "baselines"),
        (os.path.join(PKG, "api.py"), "api"),
        (os.path.join(PKG, "errors.py"), "other"),
        (os.path.join(PKG, "obs", "tracer.py"), "other"),
        (os.path.join(PKG, "__init__.py"), "other"),
        ("~", "stdlib"),
        (os.path.join(os.sep, "usr", "lib", "python3.11", "heapq.py"), "stdlib"),
        (os.path.join(os.sep, "other", "repro", "core", "x.py"), "stdlib"),
    ],
)
def test_module_of(filename, bucket):
    assert measure.module_of(filename, PKG) == bucket


def test_roll_up_sums_to_one_over_every_bucket():
    shares = measure.roll_up(
        {
            os.path.join(PKG, "sim", "events.py"): 3.0,
            os.path.join(PKG, "sim", "engine.py"): 1.0,
            os.path.join(PKG, "core", "plans.py"): 2.0,
            os.path.join(PKG, "faults.py"): 1.0,
            "~": 3.0,
        },
        PKG,
    )
    assert set(shares) == set(measure.HOST_BUCKETS)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sim"] == pytest.approx(0.4)
    assert shares["core"] == pytest.approx(0.2)
    assert shares["other"] == pytest.approx(0.1)
    assert shares["stdlib"] == pytest.approx(0.3)
    assert shares["palsm"] == 0.0
    assert all(v == 0.0 for v in measure.roll_up({}, PKG).values())


# -- inputs -------------------------------------------------------------------


def test_splitmix64_reference_values():
    # first outputs for seed 0 from the reference C implementation
    rng = inputs.SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_streams_repeat_per_seed_and_differ_across_seeds():
    keys = inputs.preload_keys(3, n=500)
    assert keys == inputs.preload_keys(3, n=500)
    assert keys != inputs.preload_keys(4, n=500)
    assert keys == sorted(set(keys))
    zipf = inputs.ZipfRanks(3, len(keys))
    first = inputs.point_ops(3, 200, keys, zipf)
    assert first == inputs.point_ops(3, 200, keys, zipf)
    assert first[:100] == inputs.point_ops(3, 100, keys, zipf)
    assert first != inputs.point_ops(4, 200, keys, zipf)
    assert inputs.digest(first) == inputs.digest(list(first))
    assert inputs.digest(first) != inputs.digest(first[:100])


def test_fresh_keys_never_collide_with_preload():
    keys = inputs.preload_keys(5, n=2_000)
    preload = set(keys)
    rng = inputs.stream(5, "test")
    for index in range(2_000):
        assert inputs.fresh_key(rng, index) not in preload


def test_batches_have_distinct_clustered_keys():
    keys = inputs.preload_keys(9, n=2_000)
    for batch in inputs.batches(9, 50, keys):
        batch_keys = [key for _, key, _ in batch]
        assert len(batch) == inputs.BATCH_SPECS
        assert len(set(batch_keys)) == len(batch_keys)
        span = max(batch_keys) - min(batch_keys)
        assert span < (inputs.BATCH_CLUSTER + 1) * inputs.KEY_STRIDE


# -- oracle ----------------------------------------------------------------------


def rec(verb, key, result, admit, done, payload=None):
    return Record(verb, key, payload, result, admit, done, None)


def test_oracle_accepts_correct_sequential_results():
    oracle = Oracle([(1, b"a"), (2, b"b")])
    ambiguous = oracle.check_results([
        rec("get", 1, b"a", 0, 10),
        rec("put", 3, True, 0, 10, b"c"),
        rec("delete", 2, True, 5, 15),
        rec("get", 3, b"c", 20, 30),
        rec("get", 2, None, 20, 30),
    ])
    assert ambiguous == {}
    assert oracle.mismatches == []
    assert oracle.state == {1: b"a", 3: b"c"}
    assert oracle.check_scan([(1, b"a"), (3, b"c")])


def test_oracle_flags_an_injected_wrong_result():
    oracle = Oracle([(1, b"a")])
    oracle.check_results([rec("get", 1, b"WRONG", 0, 10)])
    assert len(oracle.mismatches) == 1
    assert "get(1)" in oracle.mismatches[0]


def test_oracle_flags_a_stale_read_after_a_completed_write():
    oracle = Oracle([(1, b"a")])
    oracle.check_results([
        rec("update", 1, True, 0, 10, b"new"),
        rec("get", 1, b"a", 20, 30),  # the update finished before it began
    ])
    assert len(oracle.mismatches) == 1


def test_oracle_accepts_either_value_under_concurrency():
    for seen in (b"a", b"new"):
        oracle = Oracle([(1, b"a")])
        oracle.check_results([
            rec("update", 1, True, 0, 30, b"new"),
            rec("get", 1, seen, 10, 20),
        ])
        assert oracle.mismatches == []
        assert oracle.state == {1: b"new"}


def test_oracle_flags_wrong_was_new_flags():
    oracle = Oracle([(1, b"a")])
    oracle.check_results([
        rec("put", 1, True, 0, 10, b"b"),  # key existed: was_new is False
        rec("delete", 7, True, 0, 10),  # key absent: was_present is False
    ])
    assert len(oracle.mismatches) == 2
    lenient = Oracle([(1, b"a")], check_write_results=False)
    lenient.check_results([rec("put", 1, True, 0, 10, b"b")])
    assert lenient.mismatches == []


def test_oracle_resolves_concurrent_writes_by_read_back():
    oracle = Oracle([])
    ambiguous = oracle.check_results([
        rec("put", 4, True, 0, 20, b"x"),
        rec("put", 4, False, 5, 25, b"y"),
    ])
    assert ambiguous == {4: {b"x", b"y"}}
    oracle.resolve(4, ambiguous[4], b"y")
    assert oracle.state == {4: b"y"} and oracle.mismatches == []
    oracle.resolve(4, {b"x", b"y"}, b"z")
    assert len(oracle.mismatches) == 1


def test_oracle_flags_a_scan_that_misses_rows():
    oracle = Oracle([(1, b"a"), (2, b"b")])
    assert not oracle.check_scan([(1, b"a")])
    assert "1 missing" in oracle.mismatches[0]


# -- the metric records agree ------------------------------------------------


def test_benchmark_json_and_meaning_json_agree():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "meaning.json")) as handle:
        meaning = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == meaning["workloads"]
    for kind in ("end_to_end", "per_layer"):
        documented = {
            m["name"]: (m["unit"], m["better"]) for m in meaning[kind]
        }
        for metric in bench[kind]:
            assert documented[metric["name"]] == (metric["unit"], metric["better"])
    assert {m["name"] for m in bench["per_layer"]} == set(documented)
    host = {m["name"] for m in bench["per_layer"] if m["name"].endswith("self_frac")}
    assert host == {"host.%s.self_frac" % b for b in measure.HOST_BUCKETS}
