"""Hang guard for every test under ``tests/`` and ``perfbench/tests/``.

An operation that loops forever would otherwise hang the whole test run:
``faulthandler_timeout`` in ``pytest.ini`` only dumps tracebacks.  The guard
arms a daemon timer per test that raises :class:`HungTestError` in the main
thread once the test has run for ``HANG_SECONDS``, so the test fails with its
stack and the run goes on to the next test.  The exception lands only
between bytecodes: a main thread blocked inside one C call, such as a lock
acquire with no timeout, still relies on the harness's join caps
(``dcveb.bench.JOIN_SECONDS_CAP``).
"""

import ctypes
import threading

import pytest

# above every time limit a test sets itself (test_linearizability allows 300 s)
HANG_SECONDS = 330.0


class HungTestError(BaseException):
    """Raised in a test still running after ``HANG_SECONDS``.  A
    ``BaseException``, so a loop that catches ``Exception`` cannot swallow
    it."""


@pytest.fixture(autouse=True)
def hang_guard():
    main = ctypes.c_ulong(threading.get_ident())
    timer = threading.Timer(HANG_SECONDS, ctypes.pythonapi.PyThreadState_SetAsyncExc,
                            (main, ctypes.py_object(HungTestError)))
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()
