"""Shared fixtures for the structure's tests."""

import pytest

from dcveb.walker import quiescent_walk


def _assert_no_lock_held(array):
    """Fail if the root guard is not idle or any node reachable from the
    published root has its mutex held."""
    guard = array._ap_lock
    assert not (guard._active_readers or guard._writer_active or guard._queue), \
        "root guard held"
    held = [v for v in quiescent_walk(array).violations if v[1] == "mutex-held"]
    assert held == []


@pytest.fixture
def assert_no_lock_held():
    """``assert_no_lock_held(array)``: the guard is idle and no reachable
    node's mutex is held."""
    return _assert_no_lock_held
