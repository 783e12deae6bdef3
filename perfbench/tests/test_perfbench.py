"""Tests of the benchmark itself: seeded inputs, span arithmetic, the host-speed
calibration and tiny runs of every workload."""

import gc
from array import array

import dcveb
import dcveb.bench  # noqa: F401 - LockedOracle for the traced run
import pytest

import calibrate
import run
from layers import self_times
from workloads import (
    DELETE, INSERT, OP_NAMES, QUERIES, WORKLOADS, build_plan, replay_writes,
)


def _lists(plan):
    return plan.prefill, [(ops.codes, ops.keys.tobytes()) for ops in plan.clients]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = build_plan(workload, 7, 4000, prefill=300)
    assert _lists(first) == _lists(build_plan(workload, 7, 4000, prefill=300))
    other = build_plan(workload, 8, 4000, prefill=300)
    assert first.prefill != other.prefill
    assert _lists(first)[1] != _lists(other)[1]


def test_longer_churn_list_extends_the_same_sequence():
    short = build_plan("churn-sparse", 3, 400, prefill=100).clients[0]
    long = build_plan("churn-sparse", 3, 800, prefill=100).clients[0]
    assert long.codes[:400] == short.codes
    assert long.keys[:400] == short.keys


def test_churn_never_reuses_a_key_and_every_write_is_valid():
    plan = build_plan("churn-sparse", 5, 3000, prefill=200)
    ops = plan.clients[0]
    present = set(plan.prefill)
    inserted = [k for c, k in zip(ops.codes, ops.keys) if c == INSERT]
    assert len(set(inserted)) == len(inserted)
    assert not set(inserted) & present
    for code, key in zip(ops.codes, ops.keys):
        if code == INSERT:
            assert key not in present
            present.add(key)
        else:
            assert code == DELETE and key in present
            present.discard(key)


def test_mixed_cycle_keeps_each_thread_on_its_own_keys_and_returns_to_start():
    plan = build_plan("mixed-contended", 2, 5000, prefill=400)
    threads = WORKLOADS["mixed-contended"].threads
    for t, ops in enumerate(plan.clients):
        own = {k for k in plan.prefill if k % threads == t}
        present = set(own)
        for code, key in zip(ops.codes, ops.keys):
            if code in QUERIES:
                continue
            assert key % threads == t
            assert (key not in present) if code == INSERT else (key in present)
            (present.add if code == INSERT else present.discard)(key)
        assert present == own
        assert replay_writes(own, ops, len(ops)) == own


def test_self_time_is_duration_minus_union_of_child_cover():
    # root [0, 10]: children a [1, 4] and b [3, 6] overlap (cover 5), c [8, 12]
    # runs past the root's end (cover 2); d [2, 3] is a's child
    spans = {
        "root": (0.0, 10.0, None),
        "a": (1.0, 4.0, "root"),
        "b": (3.0, 6.0, "root"),
        "c": (8.0, 12.0, "root"),
        "d": (2.0, 3.0, "a"),
    }
    order = ["c", "d", "root", "b", "a"]
    index = {name: i for i, name in enumerate(order)}
    start = array("d", (spans[n][0] for n in order))
    end = array("d", (spans[n][1] for n in order))
    parent = array("i", (index[spans[n][2]] if spans[n][2] else -1 for n in order))
    got = dict(zip(order, self_times(start, end, parent)))
    assert got == pytest.approx({"root": 3.0, "a": 2.0, "b": 3.0, "c": 4.0, "d": 1.0})


def _tiny(workload, seed=1):
    # long enough that the non-cyclic churn list outlasts the tiny run
    return build_plan(workload, seed, 40_000, prefill=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_has_no_failed_ops(workload):
    spec = WORKLOADS[workload]
    result = run.run_untraced(dcveb, _tiny(workload), spec, 0.3, warmup=0.1)
    value, _, attempted = result["metrics"]["failed_op_ratio"]
    assert attempted > 0
    assert value == 0
    assert result["problems"] == []
    for name in ("throughput_ops_s", "latency_p50_us", "setup_s", "bytes_per_entry"):
        assert result["metrics"][name][0] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_is_correct_and_restores_the_program(workload, tmp_path):
    spec = WORKLOADS[workload]
    originals = (dcveb.core.Node, dcveb.core.atomic_set_child,
                 dcveb.rwlock.FairRWLock.acquire_read, dcveb.bitops.AtomicWord.load)
    result = run.run_traced(dcveb, _tiny(workload), spec, 0.5, warmup=0.1,
                            out_dir=str(tmp_path))
    assert result["failed"] == 0 and result["problems"] == []
    assert (dcveb.core.Node, dcveb.core.atomic_set_child,
            dcveb.rwlock.FairRWLock.acquire_read, dcveb.bitops.AtomicWord.load) == originals
    assert (tmp_path / ("%s-spans.bin" % workload)).stat().st_size > 0
    m = {name: v for name, (v, _, _) in result["metrics"].items()}
    if workload == "lookup-dense":
        assert m["rwlock.acquires"] == 0
        assert m["core.nodes_allocated"] == 0
        assert m["core.get_self_us"] > 0
    if workload == "churn-sparse":
        assert m["bitops.cas_fail_ratio"] == 0
        assert m["core.cas_child_lost_ratio"] == 0
        assert m["core.nodes_allocated_per_insert"] > 0
        assert m["rwlock.read_acquires_per_insert"] > 0


def test_wrong_answers_and_wrong_end_state_are_caught():
    plan = _tiny("lookup-dense")
    spec = WORKLOADS["lookup-dense"]
    structure = run.build(dcveb.DcvebArray, plan.prefill)
    structure.delete(plan.prefill[0])
    problems, _ = run.check_end_state(dcveb, structure, [(k, k) for k in sorted(plan.prefill)],
                                      walk=True)
    assert problems
    expected = run.expected_answers(dcveb, plan, spec)
    cursors = [run.Cursor(ops, exp) for ops, exp in zip(plan.clients, expected)]
    phase = run.run_phase(structure, cursors, 0.2)
    assert phase.failed > 0


def test_benchmark_json_matches_the_code(tmp_path):
    spec = run.load_benchmark_spec()
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    untraced = run.run_untraced(dcveb, _tiny("lookup-dense"), WORKLOADS["lookup-dense"],
                                0.2, warmup=0.05)
    for metric in spec["end_to_end"]:
        value, unit, _ = untraced["metrics"][metric["name"]]
        assert unit == metric["unit"] and value > 0
    plan = _tiny("churn-sparse")
    traced = run.run_traced(dcveb, plan, WORKLOADS["churn-sparse"], 0.4, warmup=0.05,
                            out_dir=str(tmp_path))
    for metric in spec["per_layer"]:
        assert traced["metrics"][metric["name"]][1] == metric["unit"]


def test_calibration_factor_is_reference_over_rolling_median():
    times = [2 * calibrate.REFERENCE_S] * 20
    times[10] = 100 * calibrate.REFERENCE_S  # one preempted block changes nothing
    assert calibrate.factors(times) == pytest.approx([0.5] * 20)
    slow_then_fast = [calibrate.REFERENCE_S] * 40 + [calibrate.REFERENCE_S / 2] * 40
    got = calibrate.factors(slow_then_fast)
    assert got[0] == pytest.approx(1.0) and got[-1] == pytest.approx(2.0)


def test_calibration_block_leaves_the_gc_count_alone():
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()
        calibrate.block()
        assert gc.get_count() == before
    finally:
        if enabled:
            gc.enable()


def test_calibrated_phase_scales_every_sample_of_its_measured_slices():
    plan = _tiny("lookup-dense")
    spec = WORKLOADS["lookup-dense"]
    structure = run.build(dcveb.DcvebArray, plan.prefill)
    expected = run.expected_answers(dcveb, plan, spec)
    cursors = [run.Cursor(ops, exp) for ops, exp in zip(plan.clients, expected)]
    phase = run.run_phase(structure, cursors, 0.3, warmup=0.05, calibrate=True)
    assert phase.calibrated and phase.failed == 0
    client = phase.clients[0]
    measured = phase.measured_slices
    assert measured[-1][0][2] - client.measured_from[1] == phase.calls
    for code in range(len(OP_NAMES)):
        assert len(phase.latencies(code, True)) == len(phase.latencies(code))
    scale = phase.busy_seconds(True) / phase.busy_seconds(False)
    factors = [f for _, f in measured]
    assert min(factors) <= scale <= max(factors)
    with pytest.raises(ValueError):
        run.run_phase(structure, cursors * 2, 0.1, calibrate=True)
