"""CLI smoke tests: ``python -m repro`` end to end via subprocess."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dataplane import oracle
from repro.pipeline import Experiment, ExperimentSpec, SpecError
from repro.pipeline.cli import _spec_from_args, build_parser
from repro.serve import ServeError, create_engine

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Arguments that keep the subprocess experiments fast.
FAST_RUN = ["--dataset", "D3", "--n-flows", "140", "--seed", "4",
            "--depth", "6", "--k", "3", "--partitions", "3",
            "--replay-flows", "80"]


def run_cli(*args: str, expect_code: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )
    assert process.returncode == expect_code, (
        f"exit {process.returncode} != {expect_code}\n"
        f"stdout:\n{process.stdout}\nstderr:\n{process.stderr}"
    )
    return process


def test_list_datasets():
    process = run_cli("list-datasets")
    for key in ("D1", "D7", "splidt", "netbeacon", "vpn-detection"):
        assert key in process.stdout


def test_run_smoke(tmp_path):
    out_dir = tmp_path / "run"
    process = run_cli("run", *FAST_RUN, "--out", str(out_dir))
    assert "data-plane F1" in process.stdout
    assert "TTD median" in process.stdout
    assert (out_dir / "spec.json").is_file()
    assert (out_dir / "model.pkl").is_file()
    summary = json.loads((out_dir / "result.json").read_text())
    assert summary["replayed"] is True


def test_replay_saved_run_matches(tmp_path):
    out_dir = tmp_path / "run"
    first = run_cli("run", *FAST_RUN, "--out", str(out_dir))
    second = run_cli("replay", str(out_dir))
    assert "restored stages: train, compile" in second.stdout

    def dataplane_f1(stdout: str) -> str:
        (line,) = [l for l in stdout.splitlines() if l.startswith("data-plane F1")]
        return line

    assert dataplane_f1(first.stdout) == dataplane_f1(second.stdout)


def test_run_rejects_bad_spec():
    process = run_cli("run", "--dataset", "D3", "--n-flows", "5", expect_code=2)
    assert "n_flows" in process.stderr


def test_run_unknown_dataset_rejected_by_argparse(capsys):
    process = run_cli("run", "--dataset", "D99", expect_code=2)
    assert "invalid choice" in process.stderr
    # Removed selectors are argparse errors too: no alias, nothing ignored.
    # The parser is the one `python -m repro` runs, so in-process suffices.
    for argv in (("run", "--lookup", "scan"), ("run", "--engine", "fused"),
                 ("run", "--engine", "reference"),
                 ("replay", "run-dir", "--lookup", "scan"),
                 ("replay", "run-dir", "--engine", "reference"),
                 ("serve", "--transport", "queue"),
                 ("serve", "--serve-engine", "sharded"), ("serve", "--shards", "2"),
                 ("serve", "--serve-engine", "streaming"),
                 ("serve", "--drift-detector", "page-hinkley"),
                 ("dse", "--dse-workers", "2"), ("dse", "--affinity")):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(list(argv))
        assert exit_info.value.code == 2, argv
        stderr = capsys.readouterr().err
        assert "usage:" in stderr, argv
        assert "invalid choice" in stderr or "unrecognized arguments" in stderr, argv
    # The same selectors below the CLI: rejected by name, not aliased.
    with pytest.raises(SpecError, match="replay_engine"):
        ExperimentSpec.from_dict({"dataset": "D3", "replay_engine": "reference"})
    with pytest.raises(ServeError, match="unknown serve engine 'streaming'"):
        create_engine(lambda: None, engine="streaming")


def test_compare_smoke():
    process = run_cli(
        "compare", "--dataset", "D3", "--n-flows", "140", "--seed", "4",
        "--replay-flows", "60", "--systems", "splidt,per_packet",
    )
    assert "splidt" in process.stdout
    assert "per_packet" in process.stdout


def test_compare_json_rows():
    process = run_cli(
        "compare", "--dataset", "D3", "--n-flows", "140", "--seed", "4",
        "--replay-flows", "60", "--systems", "splidt,per_packet", "--json",
    )
    payload = json.loads(process.stdout)
    assert payload["dataset"] == "D3" and payload["n_flows"] == 140
    rows = {row["system"]: row for row in payload["rows"]}
    assert set(rows) == {"splidt", "per_packet"}
    splidt = rows["splidt"]
    assert splidt["error"] is None
    assert 0.0 <= splidt["offline_f1"] <= 1.0
    assert splidt["replay_f1"] is not None and splidt["ttd_median_s"] > 0
    assert rows["per_packet"]["replay_f1"] is None  # no data-plane program


def test_serve_smoke():
    process = run_cli(
        "serve", *FAST_RUN, "--serve-engine", "microbatch",
        "--chunk-size", "64", "--progress-every", "16", "--digests",
    )
    assert "(microbatch engine, chunks of 64 pkts)" in process.stdout
    assert "stream complete" in process.stdout
    assert "digest  flow" in process.stdout
    (decided_line,) = [line for line in process.stdout.splitlines()
                       if line.startswith("flows decided")]
    assert "/80" in decided_line and "data-plane F1" in decided_line


def test_dse_json_reports_wall_time_without_pool_fields():
    process = run_cli(
        "dse", "--dataset", "D3", "--n-flows", "140", "--seed", "4",
        "--iterations", "4", "--batch-size", "2", "--depth-range", "2,5", "--json",
    )
    payload = json.loads(process.stdout)
    assert payload["wall_time_s"] > 0 and len(payload["history"]) == 4
    assert not {"workers", "aggregate_cpu_s"} & set(payload)


def test_serve_matches_replay_f1():
    served = run_cli("serve", *FAST_RUN, "--serve-engine", "microbatch",
                     "--progress-every", "0")
    replayed = run_cli("run", *FAST_RUN)

    def f1(stdout: str, prefix: str) -> str:
        (line,) = [l for l in stdout.splitlines() if l.startswith(prefix)]
        return line.rstrip(")").split()[-1]

    assert f1(served.stdout, "flows decided") == f1(replayed.stdout, "data-plane F1")
    # ... and both equal the per-packet oracle on the spec the CLI builds.
    experiment = Experiment(_spec_from_args(build_parser().parse_args(["run", *FAST_RUN])))
    spec = experiment.spec
    program = experiment.system.build_program(experiment.train(), experiment.compile(), spec)
    reference = oracle.replay_dataset(
        program, experiment.prepare().dataset, max_flows=spec.replay_flows
    )
    assert f1(served.stdout, "flows decided") == f"{reference.report.f1_score:.3f}"


def test_serve_rejects_systems_without_programs():
    process = run_cli("serve", *FAST_RUN, "--system", "per_packet", expect_code=2)
    assert "no data-plane program" in process.stderr


def test_serve_sharded_mp_smoke():
    process = run_cli(
        "serve", *FAST_RUN, "--serve-engine", "sharded-mp", "--workers", "2",
        "--chunk-size", "64", "--progress-every", "0",
    )
    assert "sharded-mp engine, 2 worker processes" in process.stdout
    assert "stream complete" in process.stdout
    (decided_line,) = [line for line in process.stdout.splitlines()
                       if line.startswith("flows decided")]
    assert "/80" in decided_line and "data-plane F1" in decided_line
