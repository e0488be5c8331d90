"""Tiny-seed runs of the whole benchmark, its generator and its tracer."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import worker
import workloads
from conftest import BENCH, ROOT
from treeshift import cli
from treeshift.trees import RootlessBinary, load_tree

END_TO_END = {"analyses_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "fail_frac": "ratio", "settled_frac": "ratio", "rank_frac": "ratio",
              "setup_s": "s", "peak_rss_mb": "MB"}


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload, tmp_path):
    done = _bench(["--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", "0"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for name, unit in END_TO_END.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 100
    # a short run covers exactly the minimum number of whole rounds
    per_round = len(workloads.write_round(workload, 0, 0, str(tmp_path))["instances"])
    assert result["attempted"] == worker.MIN_ROUNDS * per_round
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_run_reports_every_layer_metric():
    done = _bench(["--workload", "backward-cyclic", "--seed", "0", "--seconds", "0.1",
                   "--trace", "1"])
    assert done.returncode == 0, done.stderr
    assert "traced output differs" not in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["cyclicity.construct_s"]["value"] > 0.0
    assert result["metrics"]["trees.children_calls"]["value"] == 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench(["--workload", "binary-descent", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_rounds_are_a_function_of_workload_seed_and_index(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.write_round(workload, 3, 2, str(tmp_path / "a"))
        b = workloads.write_round(workload, 3, 2, str(tmp_path / "b"))
        c = workloads.write_round(workload, 4, 2, str(tmp_path / "c"))
        assert list(a["docs"].values()) == list(b["docs"].values())
        assert list(a["docs"].values()) != list(c["docs"].values())
        assert [i["slot"] for i in a["instances"]] == [i["slot"] for i in c["instances"]]
        assert os.path.isfile(tmp_path / "a" / "manifest.json")


def test_tracer_keeps_family_classes_and_restores_cli(tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"family": "rootless-binary", "params": {}}))
    original = cli.load_tree
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        model = tracer.run_analysis(0, cli.load_tree, str(tree))
        assert isinstance(model, RootlessBinary)
        assert model.children("0") == ("1", "0:1")
    finally:
        tracer.uninstall(cli)
    assert cli.load_tree is original
    assert type(load_tree(str(tree))) is RootlessBinary
    metrics = tracer.layer_metrics()
    assert metrics["trees.children_calls"] == 1
    assert metrics["trees.contains_calls"] == 1
    assert [s.name for s in tracer.spans] == ["cli.main", "trees.load_tree"]
