"""Concurrent ordered integer map with lock-free order queries.

The package exports the concurrent structure (:class:`DcvebArray` and its
result types :class:`Entry` and :class:`Capacity`), the sequential oracle
:class:`OracleMap` and the invariant walk :func:`quiescent_walk`.  The
harness is public through its own modules: ``dcveb.history`` (recording and
linearizability checking), ``dcveb.bench`` (the benchmark CLI and the
successor-liveness run), ``dcveb.walker`` and ``dcveb.oracle``.  Importing
``dcveb`` loads neither ``dcveb.bench`` nor ``dcveb.history``.  The
scripted races live with the tests.
"""

from .core import Capacity, DcvebArray, Entry
from .oracle import OracleMap
from .walker import quiescent_walk

__all__ = ["Capacity", "DcvebArray", "Entry", "OracleMap", "quiescent_walk"]
