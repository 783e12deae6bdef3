import threading

import pytest

from dcveb.bench import (
    CSV_HEADER,
    DeadlockSuspectedError,
    LockedOracle,
    WorkloadConfig,
    adapters,
    emit_csv,
    main,
    run_workload,
)
from dcveb.core import Entry


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
    assert csv_path.exists()


def test_cli_rejects_unknown_structure(capsys):
    code = main(["--getters", "1", "--structure", "bogus"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_zero_threads(capsys):
    code = main(["--ops", "10"])
    assert code == 2
