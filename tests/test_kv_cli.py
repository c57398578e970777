"""The ``uuidp kv`` front end: pinned op streams, pre-flight checks that
fail before any load op, and the per-shard report payload."""

import json

import pytest

from repro.cli import main

#: ``uuidp kv`` argument sets and the fingerprints they print. Any change
#: to an op stream, an outcome digest or the seed derivation moves one.
GOLDEN_FINGERPRINTS = [
    (
        "--workload a --target cluster --nodes 4 --replication 3 --records 500 "
        "--ops 1000 --shards 2 --seed 7",
        0x3B68856A,
    ),
    (
        "--workload c --target store --write-mode batch --records 500 --ops 1000 "
        "--seed 7",
        0x5A7BBB29,
    ),
    (
        "--workload a --target cluster --nodes 4 --replication 3 --write-mode batch "
        "--kill-at 300:1 --kill-mode crash --recover-at 700:1 --records 500 "
        "--ops 1000 --seed 7",
        0x1B684F9E,
    ),
    (
        "--workload e --target store --write-mode nosync --records 500 --ops 500 "
        "--seed 3",
        0x3C152701,
    ),
    ("--workload f --target store --records 500 --ops 1000 --seed 5", 0x7D7DA314),
    (
        "--workload b --target cluster --nodes 3 --replication 3 --arrival flash "
        "--autoscale --min-nodes 3 --max-nodes 6 --records 500 --ops 1000 "
        "--seed 11 --shards 2 --arrival-flash-at 600 --arrival-flash-ticks 500 "
        "--scale-check-every 50",
        0x70331C12,
    ),
    (
        "--workload d --target cluster --nodes 4 --rebalance-every 100 "
        "--records 500 --ops 1000 --seed 4 --workers 2",
        0x9C229A6B,
    ),
]

#: Misconfigurations the library rejects once the shard's target exists
#: (or earlier), never mid-run.
PREFLIGHT_FAILURES = [
    "--target cluster --replication 3 --kill-at 10:7",
    "--target cluster --replication 3 --kill-at 10:0 --kill-mode crash",
    "--target store --kill-at 10:0",
    "--target store --rebalance-every 5",
    "--target store --autoscale",
    "--target cluster --replication 3 --kill-at 10:0 --recover-at 5:0",
    "--target cluster --nodes 4 --replication 5",
    "--target store --replication 3",
]


def kv_json(capsys, argv):
    assert main(["kv", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv, fingerprint", GOLDEN_FINGERPRINTS)
def test_golden_fingerprints(capsys, argv, fingerprint):
    payload = kv_json(capsys, argv.split())
    assert payload["fingerprint"] == fingerprint
    if "--autoscale" in argv:
        assert payload["elasticity"]["schedule_fingerprint"] == 0x45E81873


@pytest.mark.parametrize("argv", PREFLIGHT_FAILURES)
def test_misconfiguration_fails_before_the_load_phase(monkeypatch, capsys, argv):
    def no_load(*args, **kwargs):
        raise AssertionError("the load phase started")

    monkeypatch.setattr("repro.workloads.driver.load_phase", no_load)
    assert main(["kv", *argv.split()]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.chaos
def test_drill_report_lists_fault_events_and_escalations(capsys):
    payload = kv_json(capsys, [
        "--workload", "a", "--target", "cluster", "--nodes", "5",
        "--replication", "3", "--kill-at", "200:1", "--recover-at", "400:1",
        "--records", "100", "--ops", "400", "--shards", "2",
    ])
    assert len(payload["cluster"]) == 2
    for report in payload["cluster"]:
        assert report["read_escalations"] == 0
        assert [event[:2] for event in report["fault_events"]] == [
            ["kill", "node1"], ["recover", "node1"],
        ]
