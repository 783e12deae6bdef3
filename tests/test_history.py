import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_replay_witness_rejects_a_result_the_oracle_does_not_give():
    (get,) = pair_events(_seq((0, ("get", 1), Entry(1, "a"))))
    assert not replay_witness([get])


def test_replay_witness_rejects_an_order_against_real_time():
    # both gets miss in either order, so only real time tells them apart
    first, second = pair_events(_seq((0, ("get", 1), None), (1, ("get", 2), None)))
    assert replay_witness([first, second])
    assert not replay_witness([second, first])


def test_replay_witness_reads_a_shared_tick_as_overlap():
    # the first get responds at the tick the second is invoked
    events = [
        Event(1, 0, "invoke", ("get", 1), None),
        Event(2, 0, "respond", ("get", 1), None),
        Event(2, 1, "invoke", ("get", 2), None),
        Event(3, 1, "respond", ("get", 2), None),
    ]
    first, second = pair_events(events)
    assert replay_witness([first, second])
    assert replay_witness([second, first])


_KEYS = st.integers(0, 3)
_VALUES = st.sampled_from("ab")
_OPS = st.one_of(
    st.tuples(st.just("insert"), _KEYS, _VALUES),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.sampled_from(["get", "successor", "predecessor"]), _KEYS),
)
_QUERY_RESULTS = st.one_of(st.none(), st.builds(Entry, _KEYS, _VALUES))


@st.composite
def tied_tick_histories(draw):
    """Complete histories of 1-3 threads with 1-2 ops each, interleaved at
    random, whose ticks may repeat: each event's tick is its predecessor's
    or one more."""
    programs = draw(st.lists(st.lists(_OPS, min_size=1, max_size=2),
                             min_size=1, max_size=3))
    queues = [[(kind, op) for op in ops for kind in ("invoke", "respond")]
              for ops in programs]
    events = []
    tick = 1
    while any(queues):
        thread = draw(st.sampled_from([t for t, q in enumerate(queues) if q]))
        kind, op = queues[thread].pop(0)
        result = None
        if kind == "respond" and op[0] not in ("insert", "delete"):
            result = draw(_QUERY_RESULTS)
        events.append(Event(tick, thread, kind, op, result))
        tick += draw(st.integers(0, 1))
    return events


@settings(max_examples=300, deadline=None)
@given(tied_tick_histories())
def test_tied_ticks_search_agrees_with_naive(events):
    # a respond and an invoke that share a tick overlap, for the search's
    # horizon as for the pairwise rule of replay_witness
    result = check_linearizable(events)
    assert result.ok == check_linearizable_naive(events)
    if result.ok:
        assert replay_witness(result.witness)


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


def test_malformed_tick_going_down():
    events = [
        Event(2, 0, "invoke", ("get", 1), None),
        Event(1, 0, "respond", ("get", 1), None),
    ]
    with pytest.raises(MalformedHistoryError, match="non-decreasing"):
        pair_events(events)


def test_naive_check_rejects_more_than_eight_ops():
    events = _seq(*[(0, ("get", key), None) for key in range(9)])
    assert check_linearizable(events).ok
    with pytest.raises(ValueError, match="8 operations"):
        check_linearizable_naive(events)


def test_history_dump_format(tmp_path):
    events = overlapping_insert_delete_get(None)
    lines = format_history(events)
    assert lines[0] == "1 0 invoke insert 1 a -"
    assert lines[-1] == "6 2 respond get 1 None"
    path = tmp_path / "history.txt"
    write_history(events, path)
    assert path.read_text().splitlines() == lines
