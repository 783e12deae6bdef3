import os
import subprocess
import sys
import threading

import pytest

import dcveb
from dcveb.bench import (
    CSV_HEADER,
    JOIN_SECONDS_CAP,
    DeadlockSuspectedError,
    LockedOracle,
    WorkloadConfig,
    adapters,
    emit_csv,
    join_workers,
    main,
    run_workload,
    start_worker,
    successor_liveness_run,
)
from dcveb.core import DcvebArray, Entry
from dcveb.walker import quiescent_walk, structure_fingerprint


class RecordingAdapter:
    """Records each calling thread's (operation, key) stream."""

    def __init__(self):
        self.streams = {}

    def _record(self, op, key):
        self.streams.setdefault(threading.current_thread(), []).append((op, key))

    def get(self, key):
        self._record("get", key)

    def insert(self, key, value):
        self._record("insert", key)

    def delete(self, key):
        self._record("delete", key)

    def successor(self, key):
        self._record("successor", key)


def test_adapter_registry():
    names = adapters()
    assert "dcveb" in names
    assert "locked-oracle" in names


def test_locked_oracle_semantics():
    table = LockedOracle()
    table.insert(5, "A")
    table.insert(130, "C")
    assert table.get(5) == Entry(5, "A")
    assert table.successor(6) == Entry(130, "C")
    assert table.predecessor(129) == Entry(5, "A")
    table.delete(5)
    assert table.get(5) is None


def test_unknown_adapter_rejected():
    config = WorkloadConfig(getters=1, structure="no-such-thing")
    with pytest.raises(ValueError):
        run_workload(config)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        WorkloadConfig().validate()  # zero threads
    with pytest.raises(ValueError):
        WorkloadConfig(getters=1, ops=0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(getters=1, key_range=0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(getters=1, repeats=0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(getters=1, seconds_cap=0).validate()


@pytest.mark.parametrize("structure", ["dcveb", "locked-oracle"])
def test_workload_smoke(structure):
    config = WorkloadConfig(getters=1, inserters=1, removers=1, successors=1,
                            ops=1000, key_range=1000, structure=structure, seed=4)
    result = run_workload(config)
    assert len(result.timings) == 4
    assert result.mean_millis > 0
    assert set(result.per_group_mean_millis) == {
        "getter", "inserter", "remover", "successor"
    }


def test_fixed_work_semantics():
    adapter = RecordingAdapter()
    config = WorkloadConfig(getters=2, inserters=1, removers=1, successors=2,
                            ops=50, key_range=16, seed=8, repeats=3)
    result = run_workload(config, structure=adapter)
    # the caller's structure serves every repeat
    calls = [call for stream in adapter.streams.values() for call in stream]
    assert len(calls) == (2 + 1 + 1 + 2) * 50 * 3
    assert len(result.timings) == 6 * 3


def test_aggregate_throughput_is_calls_over_wall_time():
    config = WorkloadConfig(getters=2, inserters=1, successors=1, ops=200,
                            key_range=64, seed=3, repeats=2)
    result = run_workload(config)
    assert len(result.wall_seconds) == 2
    calls = (2 + 1 + 1) * 200 * 2
    assert result.aggregate_ops_per_s == pytest.approx(calls / sum(result.wall_seconds))
    # a repeat's wall time spans every one of its threads' own timings
    for repeat, wall in enumerate(result.wall_seconds):
        longest = max(t.millis for t in result.timings if t.repeat == repeat)
        assert wall * 1000.0 >= longest


def test_same_seed_same_keys_across_adapters():
    # the per-thread key streams depend only on (seed, group, index)
    def streams(seed):
        adapter = RecordingAdapter()
        config = WorkloadConfig(getters=2, inserters=1, removers=1, successors=1,
                                ops=100, key_range=64, seed=seed)
        run_workload(config, structure=adapter)
        return sorted(adapter.streams.values())

    first = streams(12)
    assert len(first) == 5
    assert streams(12) == first
    assert streams(13) != first
    getter_streams = [s for s in first if s[0][0] == "get"]
    assert len(getter_streams) == 2 and getter_streams[0] != getter_streams[1]


def test_worker_exception_raises_runtime_error():
    class RaisingAdapter(RecordingAdapter):
        def successor(self, key):
            raise KeyError(key)

    config = WorkloadConfig(getters=1, successors=1, ops=10, key_range=8)
    with pytest.raises(RuntimeError, match="KeyError") as info:
        run_workload(config, structure=RaisingAdapter())
    assert isinstance(info.value.__cause__, KeyError)


def test_blocked_worker_raises_deadlock_suspected():
    release = threading.Event()

    class BlockedAdapter(RecordingAdapter):
        def get(self, key):
            release.wait(30)

    config = WorkloadConfig(getters=1, inserters=1, ops=5, key_range=8,
                            seconds_cap=0.2)
    try:
        with pytest.raises(DeadlockSuspectedError):
            run_workload(config, structure=BlockedAdapter())
    finally:
        release.set()


def test_emit_csv(tmp_path):
    config = WorkloadConfig(getters=1, inserters=1, ops=100, key_range=64,
                            structure="dcveb", seed=2, repeats=2)
    result = run_workload(config)
    path = tmp_path / "out.csv"
    emit_csv([result], path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # two threads, two repeats
    first = lines[1].split(",")
    assert first[0] == "dcveb"
    assert first[9] == "getter"
    # deterministic order: repeat, then group, then thread
    repeats = [int(line.split(",")[8]) for line in lines[1:]]
    assert repeats == sorted(repeats)


def test_key_range_sweep_runs():
    # shrinking and growing the key universe only changes collision rates,
    # never the fixed amount of work
    for m in (10, 100, 1000):
        config = WorkloadConfig(getters=1, inserters=1, removers=1, successors=1,
                                ops=300, key_range=m, structure="dcveb", seed=6)
        result = run_workload(config)
        assert len(result.timings) == 4
        assert all(t.millis >= 0 for t in result.timings)


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_bad_path():
    config = WorkloadConfig(getters=1, ops=10, key_range=8, structure="dcveb")
    result = run_workload(config)
    with pytest.raises(OSError):
        emit_csv([result], "/no/such/dir/out.csv")


def test_cli_smoke(tmp_path, capsys):
    csv_path = tmp_path / "cli.csv"
    code = main(["--getters", "1", "--inserters", "1", "--ops", "200",
                 "--key-range", "128", "--structure", "dcveb",
                 "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean per-thread time" in out
    assert "aggregate throughput" in out
    assert csv_path.exists()


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's ``dcveb``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcveb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point_runs_without_warnings():
    # ``python -m dcveb`` runs the CLI; ``-W error`` turns any runpy warning
    # into a failure
    proc = _run_python("-W", "error", "-m", "dcveb", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--structure" in proc.stdout
    assert proc.stderr == ""


def test_package_import_loads_neither_the_cli_nor_the_checker():
    # the package exports the structure and what perfbench reads through it;
    # the harness stays in its own modules, loaded only by their callers.
    # perfbench's tracer reads bitops, core and rwlock off the package.
    assert dcveb.__all__ == ["Capacity", "DcvebArray", "Entry", "OracleMap",
                             "quiescent_walk"]
    proc = _run_python("-c", "import sys, dcveb; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"dcveb.bench", "dcveb.history"}.isdisjoint(loaded)
    assert {"dcveb.bitops", "dcveb.core", "dcveb.rwlock"} <= loaded


def test_cli_rejects_unknown_structure(capsys):
    code = main(["--getters", "1", "--structure", "bogus"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_zero_threads(capsys):
    code = main(["--ops", "10"])
    assert code == 2


def test_stress_smoke():
    array = DcvebArray()
    config = WorkloadConfig(getters=2, inserters=2, removers=2, successors=2,
                            ops=2000, key_range=512, seed=3, seconds_cap=60)
    run_workload(config, array)
    report = quiescent_walk(array)
    assert report.ok(), report.violations


def test_stress_single_thread_deterministic():
    reports = []
    for _ in range(2):
        array = DcvebArray()
        run_workload(WorkloadConfig(inserters=1, ops=3000, key_range=256,
                                    seed=9, seconds_cap=60), array)
        reports.append(quiescent_walk(array))
    assert reports[0] == reports[1]
    assert reports[0].element_count > 0


def test_read_only_workload_leaves_structure_identical():
    array = DcvebArray()
    for key in range(0, 3000, 3):
        array.insert(key, key)
    before = structure_fingerprint(array)
    config = WorkloadConfig(getters=8, ops=5000, key_range=4096,
                            seed=1, seconds_cap=60)
    run_workload(config, array)
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert structure_fingerprint(array) == before


def test_insert_only_workload_hits_node_bound():
    array = DcvebArray()

    def insert_all():
        for key in range(4096):
            array.insert(key, key)

    errors: list = []
    threads = [start_worker(errors, insert_all) for _ in range(2)]
    join_workers(threads, errors, JOIN_SECONDS_CAP)
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert report.element_count == 4096
    assert report.internal_node_count <= (64**2 - 1) // 63


def test_successor_liveness_smoke():
    misses = successor_liveness_run(total_queries=20_000, query_threads=2,
                                    churn_threads=2, key_span=512, seed=7)
    assert misses == 0


def test_successor_liveness_counts_empty_floor_queries(monkeypatch):
    # every floor query in the span has the pinned key 0 below it, so a
    # predecessor that answers None is counted as a miss each time
    monkeypatch.setattr(DcvebArray, "predecessor", lambda self, key: None)
    misses = successor_liveness_run(total_queries=200, query_threads=2,
                                    churn_threads=1, key_span=64, seed=7)
    assert misses == 200


def test_successor_liveness_makes_every_query_of_an_uneven_split(monkeypatch):
    # 201 queries over 2 queriers: one makes 101, the other 100, so the
    # always-empty floor query is counted 201 times, not 2 * (201 // 2)
    monkeypatch.setattr(DcvebArray, "predecessor", lambda self, key: None)
    misses = successor_liveness_run(total_queries=201, query_threads=2,
                                    churn_threads=1, key_span=64, seed=7)
    assert misses == 201


@pytest.mark.parametrize("bad", [
    {"query_threads": 0},
    {"total_queries": 3, "query_threads": 4},
    {"churn_threads": -1},
    {"key_span": 1},
    {"key_span": 2},  # no churn key strictly between the two pins
])
def test_successor_liveness_rejects_a_run_that_checks_nothing(bad):
    args = {"total_queries": 20, "query_threads": 2, "churn_threads": 2,
            "key_span": 64, **bad}
    with pytest.raises(ValueError):
        successor_liveness_run(**args)


def test_successor_liveness_raises_deadlock_suspected(monkeypatch):
    release = threading.Event()

    def blocked(self, key):
        # a wait that times out frees every later call, so a run that joins
        # its queriers without a cap ends, and fails below, instead of hanging
        release.wait(5)
        release.set()

    monkeypatch.setattr(DcvebArray, "successor", blocked)
    monkeypatch.setattr("dcveb.bench.JOIN_SECONDS_CAP", 0.2)
    try:
        with pytest.raises(DeadlockSuspectedError):
            successor_liveness_run(total_queries=200, query_threads=2,
                                   churn_threads=2, key_span=64, seed=7)
    finally:
        release.set()


def test_successor_liveness_reraises_worker_error(monkeypatch):
    def crash(self, key):
        raise KeyError(key)

    monkeypatch.setattr(DcvebArray, "successor", crash)
    with pytest.raises(RuntimeError, match="KeyError"):
        successor_liveness_run(total_queries=200, query_threads=2,
                               churn_threads=2, key_span=64, seed=7)
