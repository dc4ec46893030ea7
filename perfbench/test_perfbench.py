"""Tests of the benchmark itself, each workload at tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM = ["fanout_batch64", "ingest_single", "echo_receiver_batch"]
#: socket_live runs by name only (see README.md)
ALL = SIM + ["socket_live"]
#: per-layer metrics that count work; they must repeat exactly on sim
COUNT_SUFFIXES = (".calls", ".calls_per_delivery", ".datagrams", ".frames")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--rounds", "3"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["lines"] = lines[:-1]
    return result


@pytest.fixture(scope="module")
def traced():
    return {workload: _run(workload, trace=1) for workload in ALL}


def test_spec_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == SIM
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", ALL)
def test_end_to_end_metrics_print_with_units(workload):
    result = _run(workload, trace=0)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[1:2] == [name] and line.endswith(unit)
                   for line in result["lines"]), name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["exactly_once_frac"]["value"] == 1.0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ALL)
def test_per_layer_metrics_print_with_units(traced, workload):
    result = traced[workload]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["correct"]
    assert result["metrics"]["failed_frac"]["value"] == 0


@pytest.mark.parametrize("workload", SIM)
def test_sim_has_no_retransmits(traced, workload):
    assert traced[workload]["metrics"]["net.reliable.retransmits"]["value"] == 0


@pytest.mark.parametrize("workload", SIM)
def test_sim_call_counts_repeat_for_a_fixed_seed(traced, workload):
    again = _run(workload, trace=1)

    def counts(result):
        return {
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if name.endswith(COUNT_SUFFIXES)
        }

    first = counts(traced[workload])
    assert first and counts(again) == first


def test_fanout_shows_the_known_shape(traced):
    metrics = {k: v["value"] for k, v in traced["fanout_batch64"]["metrics"].items()}
    assert metrics["pbio.register.calls"] > 0
    assert 4.0 <= metrics["pbio.unpack_header.calls_per_delivery"] <= 5.0
    assert metrics["morph.batch_frac"] == 0


def test_obs_runs_only_in_socket_live(traced):
    assert traced["socket_live"]["metrics"]["obs.spans"]["value"] > 0
    for workload in SIM:
        assert traced[workload]["metrics"]["obs.spans"]["value"] == 0


def test_host_probe_scales_to_nominal_speed():
    sys.path.insert(0, HERE)
    from hostspeed import NOMINAL_CHUNK_S, HostProbe, host_factor

    probe = HostProbe()
    assert probe.chunk() > 0
    assert host_factor(4 * NOMINAL_CHUNK_S, 4) == pytest.approx(1.0)
    assert host_factor(3 * NOMINAL_CHUNK_S, 2) == pytest.approx(1.5)


def test_untraced_run_prints_its_host_factor():
    result = _run("fanout_batch64", trace=0)
    line = next(l for l in result["lines"]
                if l.startswith("# per epoch host_factor: "))
    factors = json.loads(line.split(": ", 1)[1])
    assert len(factors) == 1 and factors[0] > 0
