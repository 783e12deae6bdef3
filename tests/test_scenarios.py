"""The five scripted races by their old scenario names, each repeated
through ``run_race`` (the loop ``test_scripted_races`` runs 1000 times), and
the workload driver's rejection of a bad config before any thread runs."""

import pytest

from dcveb.bench import WorkloadConfig, run_workload
from dcveb.core import DcvebArray

from test_race_edges import SCRIPTED_RACES, run_race


def test_scenario_registry():
    assert sorted(SCRIPTED_RACES) == [
        "grow-vs-delete-residue",
        "insert-vs-grow-drop",
        "insert-vs-trim",
        "insert-vs-unlink",
        "two-inserters-one-parent",
    ]
    # each name is a race test of its own in test_race_edges
    races = list(SCRIPTED_RACES.values())
    assert len(set(races)) == len(races)
    assert all(race.__module__ == "test_race_edges"
               and race.__name__.startswith("test_") for race in races)


@pytest.mark.parametrize("name", ["insert-vs-trim", "insert-vs-grow-drop",
                                  "insert-vs-unlink", "grow-vs-delete-residue",
                                  "two-inserters-one-parent"])
def test_scenarios_pass_repeatedly(name):
    assert run_race(SCRIPTED_RACES[name], 25) == (25, "")


def test_run_scenario_stops_at_the_first_failing_iteration():
    # A race that fails (say, a pause that never fires) is not run again:
    # the first failure, with its message, settles the result.
    calls = []

    def failing():
        calls.append(len(calls))
        raise AssertionError("the pause\n   never fired")

    assert run_race(failing, 1000) == (1, "AssertionError: the pause never fired")
    assert calls == [0]

    def third_fails():
        calls.append(len(calls))
        if len(calls) == 4:
            raise KeyError(3)

    assert run_race(third_fails, 1000) == (3, "KeyError: 3")
    assert calls == [0, 1, 2, 3]
    assert run_race(SCRIPTED_RACES["two-inserters-one-parent"], 3) == (3, "")


def test_stress_rejects_invalid_config():
    array = DcvebArray()
    with pytest.raises(ValueError):
        run_workload(WorkloadConfig(ops=10), array)  # zero threads
    with pytest.raises(ValueError):
        run_workload(WorkloadConfig(inserters=1, ops=10, key_range=0), array)
    assert array.minimum() is None  # rejected before any thread ran
