import pytest

from dcveb.bench import WorkloadConfig
from dcveb.core import DcvebArray
from dcveb.scenarios import (
    run_scenario,
    scenario_names,
    stress,
    successor_liveness_run,
)
from dcveb.walker import structure_fingerprint


def test_scenario_registry():
    assert scenario_names() == [
        "grow-vs-delete-residue",
        "insert-vs-grow-drop",
        "insert-vs-trim",
        "insert-vs-unlink",
        "two-inserters-one-parent",
    ]
    with pytest.raises(ValueError):
        run_scenario("no-such-scenario")


@pytest.mark.parametrize("name", ["insert-vs-trim", "insert-vs-grow-drop",
                                  "insert-vs-unlink", "grow-vs-delete-residue",
                                  "two-inserters-one-parent"])
def test_scenarios_pass_repeatedly(name):
    report = run_scenario(name, iterations=25)
    assert report.passed, report.failures


def test_stress_smoke():
    config = WorkloadConfig(getters=2, inserters=2, removers=2, successors=2,
                            ops=2000, key_range=512, seed=3, seconds_cap=60)
    report = stress(config)
    assert report.ok(), report.violations


def test_stress_single_thread_deterministic():
    reports = [
        stress(WorkloadConfig(inserters=1, ops=3000, key_range=256,
                              seed=9, seconds_cap=60))
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    assert reports[0].element_count > 0


def test_stress_rejects_invalid_config():
    array = DcvebArray()
    with pytest.raises(ValueError):
        stress(WorkloadConfig(ops=10), array=array)  # zero threads
    with pytest.raises(ValueError):
        stress(WorkloadConfig(inserters=1, ops=10, key_range=0), array=array)
    assert array.minimum() is None  # rejected before any thread ran


def test_read_only_workload_leaves_structure_identical():
    array = DcvebArray()
    for key in range(0, 3000, 3):
        array.insert(key, key)
    before = structure_fingerprint(array)
    config = WorkloadConfig(getters=8, ops=5000, key_range=4096,
                            seed=1, seconds_cap=60)
    report = stress(config, array=array)
    assert report.ok(), report.violations
    assert structure_fingerprint(array) == before


def test_insert_only_workload_hits_node_bound():
    array = DcvebArray()

    def insert_all():
        for key in range(4096):
            array.insert(key, key)

    import threading

    threads = [threading.Thread(target=insert_all) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    from dcveb.walker import quiescent_walk

    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert report.element_count == 4096
    assert report.internal_node_count <= (64**2 - 1) // 63


def test_successor_liveness_smoke():
    misses = successor_liveness_run(total_queries=20_000, query_threads=2,
                                    churn_threads=2, key_span=512, seed=7)
    assert misses == 0


def test_successor_liveness_reraises_worker_error(monkeypatch):
    def crash(self, key):
        raise KeyError(key)

    monkeypatch.setattr(DcvebArray, "successor", crash)
    with pytest.raises(RuntimeError, match="KeyError"):
        successor_liveness_run(total_queries=200, query_threads=2,
                               churn_threads=2, key_span=64, seed=7)
