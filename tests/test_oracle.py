import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcveb.core import Entry
from dcveb.oracle import EMPTY_STATE, OracleMap, apply_op


def brute_successor(state, key):
    candidates = [(k, v) for k, v in state if k >= key]
    return Entry(*min(candidates)) if candidates else None


def brute_predecessor(state, key):
    candidates = [(k, v) for k, v in state if k <= key]
    return Entry(*max(candidates)) if candidates else None


def brute_apply(table, op):
    """Plain-dict reference model, independent of ``OracleMap``'s bisect
    code: applies ``op`` to the dict ``table`` and returns its result."""
    name = op[0]
    if name == "insert":
        table[op[1]] = op[2]
        return None
    if name == "delete":
        table.pop(op[1], None)
        return None
    if name == "get":
        return Entry(op[1], table[op[1]]) if op[1] in table else None
    pairs = sorted(table.items())
    if name == "successor":
        return brute_successor(pairs, op[1])
    if name == "predecessor":
        return brute_predecessor(pairs, op[1])
    if name == "minimum":
        return Entry(*pairs[0]) if pairs else None
    assert name == "maximum"
    return Entry(*pairs[-1]) if pairs else None


def test_successor_example():
    state = ((5, "A"), (130, "C"))
    result, after = apply_op(state, ("successor", 6))
    assert result == Entry(130, "C")
    assert after == state
    assert result == brute_successor(state, 6)


def test_delete_missing_is_noop():
    result, after = apply_op(((5, "A"),), ("delete", 9))
    assert result is None
    assert after == ((5, "A"),)


def test_minimum_of_empty():
    result, after = apply_op(EMPTY_STATE, ("minimum",))
    assert result is None
    assert after == EMPTY_STATE


def test_insert_overwrites():
    _, state = apply_op(EMPTY_STATE, ("insert", 3, "x"))
    _, state = apply_op(state, ("insert", 3, "y"))
    assert state == ((3, "y"),)


def test_insert_rejects_none_value():
    with pytest.raises(ValueError):
        apply_op(EMPTY_STATE, ("insert", 1, None))
    with pytest.raises(ValueError):
        OracleMap().insert(1, None)


def test_unknown_op_rejected():
    # ``items`` and ``__len__`` are OracleMap attributes but not ops
    for op in (("frobnicate", 1), ("items",), ("__len__",)):
        with pytest.raises(ValueError):
            apply_op(EMPTY_STATE, op)


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 30), st.integers(1, 99)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("get"), st.integers(0, 30)),
        st.tuples(st.just("successor"), st.integers(0, 30)),
        st.tuples(st.just("predecessor"), st.integers(0, 30)),
        st.tuples(st.just("minimum")),
        st.tuples(st.just("maximum")),
    ),
    max_size=40,
)


@settings(max_examples=200)
@given(ops_strategy)
def test_apply_is_deterministic_and_matches_brute_force(ops):
    state = EMPTY_STATE
    table = {}
    for op in ops:
        result_one, state_one = apply_op(state, op)
        result_two, state_two = apply_op(state, op)
        assert result_one == result_two and state_one == state_two
        assert result_one == brute_apply(table, op)
        assert state_one == tuple(sorted(table.items()))
        state = state_one
    assert list(state) == sorted(state, key=lambda p: p[0])


@settings(max_examples=200)
@given(ops_strategy)
def test_mutable_map_agrees_with_pure_transitions(ops):
    table = OracleMap()
    state = EMPTY_STATE
    for op in ops:
        expected, state = apply_op(state, op)
        assert getattr(table, op[0])(*op[1:]) == expected
    assert [tuple(e) for e in table.items()] == list(state)
    assert len(table) == len(state)


def test_map_query_semantics():
    table = OracleMap()
    table.insert(5, "A")
    table.insert(130, "C")
    assert table.get(5) == Entry(5, "A")
    assert table.get(6) is None
    assert table.successor(5) == Entry(5, "A")
    assert table.successor(6) == Entry(130, "C")
    assert table.successor(131) is None
    assert table.predecessor(129) == Entry(5, "A")
    assert table.predecessor(4) is None
    assert table.minimum() == Entry(5, "A")
    assert table.maximum() == Entry(130, "C")
    table.delete(5)
    assert table.minimum() == Entry(130, "C")
