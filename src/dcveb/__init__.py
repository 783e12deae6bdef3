"""Concurrent ordered integer map with lock-free order queries.

Public surface: the concurrent structure itself (:class:`DcvebArray`), the
sequential oracle used as ground truth, the concurrency harness (history
recording, linearizability checking, scripted races, stress, quiescent
walking) and the benchmark workload runner.
"""

from .bench import DeadlockSuspectedError
from .core import Capacity, DcvebArray, Entry
from .history import (
    CheckResult,
    Event,
    MalformedHistoryError,
    check_linearizable,
    check_linearizable_naive,
    format_history,
    record_history,
    replay_witness,
    write_history,
)
from .oracle import OracleMap, apply_op
from .rwlock import FairRWLock
from .scenarios import (
    ScenarioReport,
    run_scenario,
    scenario_names,
    stress,
    successor_liveness_run,
)
from .walker import WalkReport, quiescent_walk, structure_fingerprint

__all__ = [
    "Capacity",
    "CheckResult",
    "DcvebArray",
    "DeadlockSuspectedError",
    "Entry",
    "Event",
    "FairRWLock",
    "MalformedHistoryError",
    "OracleMap",
    "ScenarioReport",
    "WalkReport",
    "apply_op",
    "check_linearizable",
    "check_linearizable_naive",
    "format_history",
    "quiescent_walk",
    "record_history",
    "replay_witness",
    "run_scenario",
    "scenario_names",
    "stress",
    "structure_fingerprint",
    "successor_liveness_run",
    "write_history",
]
