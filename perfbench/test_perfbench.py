"""The benchmark's own tests, on the smoke setting of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common

common.use_program_sources()

import inproc  # noqa: E402
import pingpong  # noqa: E402
import run  # noqa: E402
from minidds.dcps.reader import DataReader  # noqa: E402
from tracing import PER_LAYER, Tracer, protocol_counts  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _stream(seed, tracer=None):
    return inproc.run_reliable_stream(seed, inproc.STREAM_SMOKE,
                                      rounds=inproc.STREAM_SMOKE.traced_rounds,
                                      tracer=tracer)


def _fanout(seed, tracer=None):
    return inproc.run_keyed_fanout(seed, inproc.FANOUT_SMOKE,
                                   rounds=inproc.FANOUT_SMOKE.traced_rounds,
                                   tracer=tracer)


@pytest.mark.parametrize("workload", [_stream, _fanout])
def test_in_process_smoke_is_correct(workload):
    outcome = workload(7)
    assert outcome.problems == []
    assert outcome.correct and outcome.attempted > 0
    assert all(value > 0 for value in outcome.metrics.values())


def test_udp_pingpong_smoke_is_correct():
    outcome = pingpong.run_udp_pingpong(7, pingpong.PING_SMOKE, seconds=0.3)
    assert outcome.problems == []
    assert outcome.correct and outcome.attempted == 300
    assert outcome.diagnostics["latency_samples"] == 300
    assert set(outcome.metrics) == {"setup_s", "latency_p50_us", "latency_p90_us"}
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("workload", [_stream, _fanout])
def test_counts_repeat_exactly_for_a_seed(workload):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        counts.append(protocol_counts(tracer, workload(11, tracer)))
    assert counts[0] == counts[1]
    assert counts[0]["datagrams"] > 0 and counts[0]["spins"] > 0


def test_fault_plan_follows_the_seed():
    def counts(seed):
        tracer = Tracer()
        return protocol_counts(tracer, _stream(seed, tracer))

    first = counts(11)
    assert first["retransmits"] > 0 and first["duplicates_discarded"] > 0
    assert counts(12) != first


def test_tracer_restores_every_entry_point():
    original = DataReader.take
    tracer = Tracer()
    tracer.install()
    assert DataReader.take is not original
    tracer.uninstall()
    assert DataReader.take is original


def test_lost_sample_fails_reliable_stream(monkeypatch):
    take = DataReader.take

    def lossy_take(self, *args, **kwargs):
        return take(self, *args, **kwargs)[1:]

    monkeypatch.setattr(DataReader, "take", lossy_take)
    outcome = _stream(7)
    assert not outcome.correct and outcome.failed > 0


def test_altered_value_fails_keyed_fanout(monkeypatch):
    take = DataReader.take

    def altering_take(self, *args, **kwargs):
        got = take(self, *args, **kwargs)
        if got:
            sample, info = got[0]
            values = sample.values[:3] + (sample.values[3] + 1.0,) + sample.values[4:]
            got[0] = (type(sample)(sample.type_name, values), info)
        return got

    monkeypatch.setattr(DataReader, "take", altering_take)
    outcome = _fanout(7)
    assert not outcome.correct
    assert any("values differ" in p for p in outcome.problems)


def _cli(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_listed_metric(trace, section):
    done = _cli("--workload", "keyed-fanout", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
            == [(name, unit, better) for name, unit, better, _ in PER_LAYER])
    # udp-pingpong runs on request but is not gated (see README.md).
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.GATED)


def test_all_runs_the_gated_workloads():
    done = _cli("--seed", "3", "--seconds", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert {name: set(metrics) for name, metrics in result["workloads"].items()} == {
        name: listed for name in run.GATED}


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _cli("--workload", "reliable-stream", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
