"""The benchmark harness drives the library through names it wraps and reads;
a traced repetition must keep running against the current sources."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from motifclust import cli, model
from motifclust.cli import RunConfig, main
from motifclust.model import ModelState
from motifclust.tensors import SparseTensor

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
REP = BENCHMARKS / "rep.py"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = load_benchmark_module("run")
TRACING = load_benchmark_module("tracing")


def test_names_the_harness_touches_resolve():
    """Every name the tracer wraps or the harness reads, checked here in
    process; a deleted one would otherwise fail only inside the traced
    subprocess of `test_traced_repetition_runs_and_counts_edges`."""
    touched = [
        *((cli, name) for name in TRACING.CLI_NAMES),
        *((model, name) for name in TRACING.MODEL_NAMES),
        (SparseTensor, "read_tsv"),
        (SparseTensor, "write_tsv"),
        (ModelState, "contributors"),
        (RunConfig, "threads"),
    ]
    missing = [f"{owner.__name__}.{name}" for owner, name in touched if not hasattr(owner, name)]
    assert not missing, (
        f"the benchmark harness uses {missing}: remove a name it uses only together with "
        "the harness change of ROADMAP item 1 (benchmark upkeep)"
    )


def test_traced_repetition_runs_and_counts_edges(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"clusters": 2, "nodes_per_type": 12}))
    data = tmp_path / "data"
    assert main(["gen-planted", "--params", str(params), "--out", str(data)]) == 0
    edges = json.loads(capsys.readouterr().out)["edges"]
    run = json.loads((data / "run.json").read_text())
    (data / "run.json").write_text(json.dumps(dict(run, max_outer_iters=2)))

    proc = subprocess.run(
        [sys.executable, str(REP), "--data", str(data), "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [op["op"] for op in result["ops"]] == ["transcribe", "fit", "evaluate"]
    assert all(op["ok"] for op in result["ops"]), result["ops"]
    assert result["layers"]["hin.edges"] == edges
    # a sweep that bypassed the traced `mttkrp_sparse` name would read 0 calls
    assert result["layers"]["tensors.mttkrp_calls"] == result["layers"]["model.update_factor_calls"] > 0
    # the tracer counts instances as len() of what enumerate_instances returns
    manifest = json.loads((data / run["tensor_dir"] / "manifest.json").read_text())
    assert result["layers"]["motifs.instances.quad"] == manifest["quad"]["nnz"] > 0


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_untimed_workload_setup_runs(workload, tmp_path):
    """The steps the benchmark runs before timing anything: generating the
    workload's inputs, recording the environment and reading its run.json."""
    data = tmp_path / workload
    RUN.generate(workload, 0, data)
    env = RUN.environment(workload, 0, data)
    config = RunConfig.from_json(data / "run.json")
    assert env["workload"] == workload and env["enum_threads_resolved"] == config.threads
    for key, value in RUN.WORKLOADS[workload]["run"].items():
        assert getattr(config.hyper, key) == value
