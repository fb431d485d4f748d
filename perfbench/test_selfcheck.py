"""Self-checks for the benchmark's own pieces.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
end-to-end checks run the command once per workload with a one-second
measurement and take about 40 seconds.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
from inputs import (  # noqa: E402
    OSI_TRANSFER,
    expected_transfer_counts,
    expected_transfer_firings,
    scaled_transfer_text,
)
from workloads import check_transfer_trace, transfer_cluster, transfer_mapping  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_transfer(text: str):
    from repro.estelle.frontend import compile_source
    from repro.runtime import SpecificationExecutor
    from repro.runtime.planner import PlannerDispatch

    executor = SpecificationExecutor(
        compile_source(text),
        transfer_cluster(),
        mapping=transfer_mapping(),
        dispatch=PlannerDispatch(),
        trace=True,
    )
    executor.run(max_rounds=100_000)
    return executor


@pytest.mark.parametrize("connections,units", [(1, 1), (2, 3), (3, 7), (5, 2)])
def test_scaled_spec_is_accepted_and_its_counts_hold(connections, units):
    executor = _run_transfer(scaled_transfer_text(connections, units))
    firings = executor.trace.all_firings()
    assert check_transfer_trace(firings, connections, units) == []
    assert len(firings) == expected_transfer_firings(connections, units)
    by_name = {}
    for event in firings:
        by_name[event.transition_name] = by_name.get(event.transition_name, 0) + 1
    assert by_name == expected_transfer_counts(connections, units)


def test_scaled_spec_reproduces_the_shipped_instances():
    from repro.runtime.parallel.trace import canonical_trace_bytes

    shipped = _run_transfer(OSI_TRANSFER.read_text())
    scaled = _run_transfer(scaled_transfer_text(2, 6))
    assert canonical_trace_bytes(scaled.trace) == canonical_trace_bytes(shipped.trace)


def test_transfer_check_rejects_a_wrong_trace():
    firings = list(_run_transfer(scaled_transfer_text(2, 3)).trace.all_firings())
    assert check_transfer_trace(firings[:-1], 2, 3)
    assert check_transfer_trace(firings, 2, 4)
    assert check_transfer_trace(list(reversed(firings)), 2, 3)


def test_scaled_spec_rejects_empty_sizes():
    with pytest.raises(ValueError):
        scaled_transfer_text(0, 5)


def test_teardown_check_sees_a_child_and_a_listener():
    assert run.teardown_problems() == []
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    listener = socket.socket()
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        problems = run.teardown_problems()
        assert any("left running" in p for p in problems)
        assert any("left open" in p for p in problems)
    finally:
        listener.close()
        child.kill()
        child.wait(timeout=10)
    assert run.teardown_problems() == []


def test_tail_fraction_keeps_ten_samples_beyond():
    assert run.tail_fraction(19) == 0.5
    assert run.tail_fraction(20) == 0.5
    assert run.tail_fraction(100) == 0.9
    assert run.tail_fraction(999) == 0.95
    assert run.tail_fraction(1000) == 0.99
    assert run.tail_fraction(31000) == 0.999
    assert run.percentile([3, 1, 2], 0.5) == 2
    assert run.percentile(list(range(1, 1001)), 0.99) == 990


def _result(args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_output_carries_every_end_to_end_metric(workload):
    done = _result(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_carries_every_per_layer_metric():
    done = _result(["--workload", "transfer", "--seed", "3", "--seconds", "4", "--trace", "1"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    started = time.monotonic()
    done = _result(["--workload", "transfer", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert time.monotonic() - started < 180
    assert '"correct"' not in done.stdout
