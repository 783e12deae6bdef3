"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import random
import time

from dcveb.bench import WorkloadConfig, run_workload
from dcveb.core import DcvebArray
from dcveb.history import (
    check_linearizable,
    record_history,
    replay_witness,
    write_history,
)
from dcveb.oracle import OracleMap
from dcveb.scenarios import run_scenario, stress, successor_liveness_run
from dcveb.walker import quiescent_walk, structure_fingerprint

from crafted_histories import violating_histories


def _verdict(name, ok, detail=""):
    line = "ACCEPTANCE %-28s %s" % (name + ":", "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line, flush=True)
    assert ok, "%s failed: %s" % (name, detail)


def _shadow_run(branching, ops, key_range, seed):
    rng = random.Random(seed)
    array = DcvebArray(branching=branching, key_bits=32)
    table = OracleMap()
    counter = 0
    mismatches = 0
    for _ in range(ops):
        roll = rng.randrange(100)
        key = rng.randrange(key_range)
        if roll < 30:
            counter += 1
            array.insert(key, counter)
            table.insert(key, counter)
        elif roll < 55:
            array.delete(key)
            table.delete(key)
        elif roll < 70:
            mismatches += array.get(key) != table.get(key)
        elif roll < 85:
            mismatches += array.successor(key) != table.successor(key)
        elif roll < 95:
            mismatches += array.predecessor(key) != table.predecessor(key)
        elif roll < 98:
            mismatches += array.minimum() != table.minimum()
        else:
            mismatches += array.maximum() != table.maximum()
    return mismatches


def test_sequential_oracle_equivalence():
    started = time.perf_counter()
    mismatches = sum(_shadow_run(n, 100_000, 10_000, seed=n) for n in (4, 64))
    elapsed = time.perf_counter() - started
    _verdict(
        "sequential-equivalence",
        mismatches == 0 and elapsed < 30.0,
        "mismatches=%d runtime=%.1fs" % (mismatches, elapsed),
    )


def test_exhaustive_small_space():
    # alphabet {insert, delete, get, successor}, keys 0..7, branching 2.
    # Queries never mutate, so checking every query at every state reachable
    # by <= 5 mutators covers every mixed sequence of length <= 5.  States
    # are deduplicated by full structural fingerprint; breadth-first order
    # guarantees the first visit carries the largest remaining depth.
    keys = range(8)
    mutators = [("insert", k) for k in keys] + [("delete", k) for k in keys]

    def build(seq):
        array = DcvebArray(branching=2, key_bits=8)
        table = OracleMap()
        for name, key in seq:
            if name == "insert":
                array.insert(key, key)
                table.insert(key, key)
            else:
                array.delete(key)
                table.delete(key)
        return array, table

    def query_mismatches(array, table):
        bad = 0
        for key in keys:
            bad += array.get(key) != table.get(key)
            bad += array.successor(key) != table.successor(key)
            bad += array.predecessor(key) != table.predecessor(key)
        bad += array.minimum() != table.minimum()
        bad += array.maximum() != table.maximum()
        return bad

    array, table = build([])
    mismatches = query_mismatches(array, table)
    frontier = {structure_fingerprint(array): []}
    seen = set(frontier)
    states = 1
    for _depth in range(5):
        grown = {}
        for fingerprint, seq in frontier.items():
            for op in mutators:
                extended = seq + [op]
                array, table = build(extended)
                mark = structure_fingerprint(array)
                if mark in seen:
                    continue
                seen.add(mark)
                mismatches += query_mismatches(array, table)
                grown[mark] = extended
        frontier = grown
        states += len(frontier)
    _verdict(
        "exhaustive-small-space",
        mismatches == 0,
        "states=%d mismatches=%d" % (states, mismatches),
    )


def test_linearizability(tmp_path):
    started = time.perf_counter()
    rejected_valid = 0
    broken_witness = 0
    kept = ""
    for seed in range(1000):
        events = record_history(3, (seed % 4) + 1, 8, seed=seed)
        result = check_linearizable(events)
        if not result.ok:
            rejected_valid += 1
            if not kept:
                # keep the first rejected history: it is the reproduction
                kept = str(tmp_path / ("rejected-seed%d.history" % seed))
                write_history(events, kept)
        elif not replay_witness(result.witness):
            broken_witness += 1
    accepted_invalid = sum(
        check_linearizable(events).ok for events in violating_histories()
    )
    elapsed = time.perf_counter() - started
    _verdict(
        "linearizability",
        rejected_valid == 0 and broken_witness == 0 and accepted_invalid == 0
        and elapsed < 300.0,
        "rejected_valid=%d broken_witness=%d accepted_invalid=%d runtime=%.1fs%s"
        % (rejected_valid, broken_witness, accepted_invalid, elapsed,
           " first_rejected=" + kept if kept else ""),
    )


def test_successor_liveness():
    misses = successor_liveness_run(
        total_queries=1_000_000, query_threads=4, churn_threads=4,
        key_span=4096, seed=17,
    )
    _verdict("successor-liveness", misses == 0, "empty_results=%d" % misses)


def test_growth_and_trim_arithmetic():
    array = DcvebArray()
    sizes = [array.capacity_snapshot().size]
    array.insert(2**31 - 1, "edge")
    snap = array.capacity_snapshot()
    growth_ok = snap.height == 6 and snap.size == 64**6
    sizes.append(snap.size)
    # every growth multiplies capacity by an exact power of the fanout
    multiplicative = sizes[1] == sizes[0] * 64**5
    array.insert(3, "small")
    array.delete(2**31 - 1)
    trim_once = array.capacity_snapshot() == (64, 1)
    array.delete(2**31 - 1)  # one more delete cycle: already trimmed, stays
    trim_ok = (
        trim_once
        and array.capacity_snapshot() == (64, 1)
        and array.get(3) is not None
        and quiescent_walk(array).ok()
    )
    _verdict(
        "growth-trim-arithmetic",
        growth_ok and multiplicative and trim_ok,
        "height=%d sizes=%s trimmed=%s" % (snap.height, sizes, trim_once),
    )


def test_memory_bound():
    array = DcvebArray()
    for key in range(4096):
        array.insert(key, key)
    report = quiescent_walk(array)
    bound = (64**2 - 1) // 63
    ok = (
        report.ok()
        and report.element_count == 4096
        and report.internal_node_count == 65
        and report.internal_node_count <= bound
    )
    _verdict(
        "memory-bound",
        ok,
        "internal=%d bound=%d" % (report.internal_node_count, bound),
    )


def test_scripted_races():
    details = []
    ok = True
    for name in ("insert-vs-trim", "grow-vs-delete-residue", "two-inserters-one-parent"):
        report = run_scenario(name, iterations=1000)
        ok = ok and report.passed
        details.append("%s failures=%d" % (name, len(report.failures)))
    _verdict("scripted-races", ok, "; ".join(details))


def test_stress_liveness():
    started = time.perf_counter()
    config = WorkloadConfig(
        getters=8, inserters=8, removers=8, successors=8,
        ops=100_000, key_range=1_000_000, seed=23,
        seconds_cap=120.0,
    )
    report = stress(config)
    elapsed = time.perf_counter() - started
    _verdict(
        "stress-liveness",
        report.ok() and elapsed < 120.0,
        "runtime=%.1fs violations=%d elements=%d"
        % (elapsed, len(report.violations), report.element_count),
    )


def test_benchmark_qualitative_shape():
    results = {}
    for structure in ("dcveb", "locked-oracle"):
        config = WorkloadConfig(
            getters=4, inserters=4, removers=4, successors=4,
            ops=100_000, key_range=100_000, structure=structure, seed=5,
        )
        results[structure] = run_workload(config)
    faster_than_locked = (
        results["dcveb"].mean_millis < results["locked-oracle"].mean_millis
    )
    groups = results["dcveb"].per_group_mean_millis
    ordering = groups["getter"] <= groups["successor"] <= groups["inserter"]
    _verdict(
        "benchmark-shape",
        faster_than_locked and ordering,
        "dcveb=%.0fms locked=%.0fms get=%.0f succ=%.0f ins=%.0f"
        % (results["dcveb"].mean_millis, results["locked-oracle"].mean_millis,
           groups["getter"], groups["successor"], groups["inserter"]),
    )
