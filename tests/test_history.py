import pytest

from dcveb.core import DcvebArray, Entry
from dcveb.history import (
    Event,
    MalformedHistoryError,
    check_linearizable,
    check_linearizable_naive,
    format_history,
    pair_events,
    record_history,
    replay_witness,
    write_history,
)

from crafted_histories import _seq, overlapping_insert_delete_get, violating_histories


def test_empty_history_ok():
    result = check_linearizable([])
    assert result.ok and result.witness == []


def test_record_history_reraises_worker_error(monkeypatch):
    def crash(self, key):
        raise KeyError(key)

    monkeypatch.setattr(DcvebArray, "successor", crash)
    with pytest.raises(RuntimeError, match="KeyError"):
        record_history(3, 20, 8, seed=7)


def test_single_thread_matches_program_order():
    events = record_history(1, 3, 8, seed=11)
    assert len(events) == 6
    result = check_linearizable(events)
    assert result.ok
    assert [op.invoked for op in result.witness] == sorted(
        op.invoked for op in result.witness
    )


def test_recorded_histories_are_well_formed():
    events = record_history(3, 4, 8, seed=5)
    assert len(events) == 24
    ops = pair_events(events)
    assert len(ops) == 12
    per_thread = {}
    for e in events:
        per_thread.setdefault(e.thread, []).append(e.kind)
    for kinds in per_thread.values():
        assert kinds == ["invoke", "respond"] * (len(kinds) // 2)


@pytest.mark.parametrize("seed", range(8))
def test_recorded_histories_accepted(seed):
    events = record_history(3, 4, 8, seed=seed)
    result = check_linearizable(events)
    assert result.ok, format_history(events)
    assert replay_witness(result.witness)


def test_all_crafted_violations_rejected():
    histories = violating_histories()
    assert len(histories) == 10
    for i, events in enumerate(histories):
        result = check_linearizable(events)
        assert not result.ok, "violation %d wrongly accepted" % i
        assert result.counterexample


def test_counterexample_holds_the_deepest_prefix_only():
    # the second get repeats the first op, but only the first two ops
    # linearize, so only their events (ticks 1-4) make the counterexample
    events = _seq((0, ("get", 3), None), (0, ("insert", 3, 1), None),
                  (0, ("get", 3), None))
    result = check_linearizable(events)
    assert not result.ok
    assert [e.tick for e in result.counterexample] == [1, 2, 3, 4]


def test_overlapping_ops_admit_both_get_outcomes():
    for outcome in (Entry(1, "a"), None):
        result = check_linearizable(overlapping_insert_delete_get(outcome))
        assert result.ok, outcome


def test_witness_is_replayable_and_emitted():
    events = overlapping_insert_delete_get(None)
    result = check_linearizable(events)
    assert result.ok
    assert len(result.witness) == 3
    assert replay_witness(result.witness)


def test_naive_cross_validation():
    # completeness at small scale: the search must agree with the
    # all-permutations filter on every verdict
    cases = [overlapping_insert_delete_get(Entry(1, "a")),
             overlapping_insert_delete_get(None)]
    cases += violating_histories()[:6]
    for seed in range(6):
        cases.append(record_history(2, 2, 4, seed=seed))
    for events in cases:
        assert check_linearizable(events).ok == check_linearizable_naive(events)


def test_malformed_double_invoke():
    events = [
        Event(1, 0, "invoke", ("get", 1), None),
        Event(2, 0, "invoke", ("get", 2), None),
    ]
    with pytest.raises(MalformedHistoryError):
        check_linearizable(events)


def test_malformed_pending_op():
    events = [Event(1, 0, "invoke", ("get", 1), None)]
    with pytest.raises(MalformedHistoryError):
        check_linearizable(events)


def test_malformed_orphan_respond():
    events = [Event(1, 0, "respond", ("get", 1), None)]
    with pytest.raises(MalformedHistoryError):
        check_linearizable(events)


def test_history_dump_format(tmp_path):
    events = overlapping_insert_delete_get(None)
    lines = format_history(events)
    assert lines[0] == "1 0 invoke insert 1 a -"
    assert lines[-1] == "6 2 respond get 1 None"
    path = tmp_path / "history.txt"
    write_history(events, path)
    assert path.read_text().splitlines() == lines
