"""Tier-1 smoke test of the benchmark harness (a few seconds).

Runs every workload in-process at its tiny shape with tracing on and checks
the *contract*, not the numbers: every metric ``BENCHMARK.json`` names is
reported with its unit, outputs verify against the oracle, the verdict lag
repeats exactly, and nothing lands in the repository.  Tiny-shape numbers
are never benchmark results.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from perf import run
from perf.trace import SPAN_TABLE, LayerView, Tracer
from perf.workloads import WORKLOADS, ServeMicrobatch

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONTRACT_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _repo_files() -> set[str]:
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
    found = set()
    for directory, subdirs, files in os.walk(run.ROOT):
        subdirs[:] = [d for d in subdirs if d not in skip]
        found.update(os.path.join(directory, name) for name in files)
    return found


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    before = _repo_files()
    tmp_dir = tmp_path_factory.mktemp("perf-smoke")
    runs = {
        name: run.run_workload(name, 7, 0.0, True, tiny=True, tmp_dir=tmp_dir)
        for name in WORKLOADS
    }
    assert _repo_files() == before, "the benchmark wrote inside the repository"
    return runs


def test_benchmark_json_meets_the_contract():
    doc = run.BENCHMARK
    assert set(doc) == CONTRACT_KEYS
    assert doc["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    assert 1 <= doc["run_seconds"] <= 60
    assert len(doc["per_layer"]) <= 128
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer") for m in doc[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = run.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_and_verifies(results, name):
    result = results[name]
    assert result["ops_attempted"] >= 1
    assert result["ops_failed"] == 0 and result["failed_share"] == 0, result["notes"]
    for section, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert list(result[section]) == list(catalogue)
        for metric_name, metric in result[section].items():
            assert metric["unit"] == catalogue[metric_name]["unit"]
    for metric in result["end_to_end"].values():
        assert metric["value"] > 0 and np.isfinite(metric["value"])
    assert result["unresolved_spans"] == []
    assert all(m["value"] is not None for m in result["per_layer"].values())
    assert result["per_layer"]["trace.coverage_share"]["value"] > 0.5
    # The final line a run prints parses back to the contract's four keys.
    line = json.loads(run._final_line(result, "per_layer"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]


def test_scalar_share_separates_clean_from_pressure(results):
    share = "dataplane.scalar_packet_share"
    assert results["clean-replay"]["per_layer"][share]["value"] == 0
    assert results["pressure-replay"]["per_layer"][share]["value"] > 0.5
    assert results["dse-search"]["per_layer"]["core.evaluate_calls"]["value"] > 0


def test_verdict_lag_repeats_exactly():
    workload = ServeMicrobatch(7, tiny=True)
    workload.setup(Tracer())
    first, _ = workload.polled_session()
    second, _ = workload.polled_session()
    assert first.size > 0 and (first >= 0).all()
    assert np.array_equal(first, second)


def test_unresolved_span_reads_null_not_an_error():
    gone = type(SPAN_TABLE[0])("core.gone", "repro.core.dse:no_such_function")
    tracer = Tracer(SPAN_TABLE + (gone,))
    tracer.install()
    tracer.uninstall()
    assert tracer.unresolved == ["core.gone"]
    assert LayerView(tracer, 1).self_s("core.gone") is None


def test_refuses_to_run_under_splidt_env_knobs(monkeypatch, capsys):
    monkeypatch.setenv("SPLIDT_SERVE_TRANSPORT", "queue")
    assert run.main(["--workload", "clean-replay"]) == 2
    assert "SPLIDT_SERVE_TRANSPORT" in capsys.readouterr().err


def test_supervisor_stops_what_a_run_leaves_behind(tmp_path):
    # A run whose grandchild outlives it, in a session of its own.
    pid_file = tmp_path / "pid"
    run_script = (
        "import os, sys, time\n"
        "if os.fork() == 0:\n"
        "    if os.fork() == 0:\n"
        "        os.setsid()\n"
        f"        open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "        time.sleep(300)\n"
        "    os._exit(0)\n"
        f"while not os.path.exists({str(pid_file)!r}):\n"
        "    time.sleep(0.01)\n"
        "sys.exit(3)\n"
    )
    # In a process of its own: the supervisor takes over signals and children.
    supervisor = (
        "import sys\n"
        "from perf.supervise import supervise\n"
        f"sys.exit(supervise([sys.executable, '-c', {run_script!r}]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", supervisor], cwd=run.ROOT / "benchmarks", capture_output=True, text=True
    )
    assert done.returncode == 3, done.stderr
    assert "left behind" in done.stderr
    assert not os.path.exists(f"/proc/{int(pid_file.read_text())}")
