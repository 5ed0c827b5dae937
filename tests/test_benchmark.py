"""The benchmark harness drives the library through names it wraps and reads;
a traced repetition must keep running against the current sources."""

import hashlib
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


# sha256 of the files that `RUN.generate` writes for each workload at seed 0
# (gen-planted's outputs, with the workload's run.json overrides); refactors
# of the generator must leave the benchmark's inputs unchanged.
WORKLOAD_INPUT_SHA256 = {
    "many-motifs": {
        "edges.tsv": "c1bd88ea18ae1f5765495015342a162c1d5a7fa4981d782b5fd2afba32cfe4b1",
        "motif_ab.json": "dbde199e9b04944542c47229b9e4d5185d7c2d93bad90ce17c444d2bb8dc1035",
        "motif_ac_noise.json": "a03db9eed75f20d51a8884ece6a5406b98f321c99c36b30f3da8f0dc42a54820",
        "motif_bc.json": "a3c2fa4c5af765a42dfefb1e1a837ca5e78cf1e91e7d479d432b232bade3317b",
        "motif_path.json": "a268fa6b14017c3dfc3e2ca6192b83ba3677e39f1548643406a0b20edc6cbc5f",
        "motif_quad.json": "22bc3c50d8cf9ac6cbdee919e1cbcf3f71a7b203edef33a569c5727fe00fdebb",
        "motif_tri.json": "672e036b041d74913316b6d656f06d35aba11380deef25796f674cf376092613",
        "nodes.tsv": "3351d3ab1cb1e7d22fb7679f467418d97918753c986db9e3d3fbff46f0f69cd0",
        "run.json": "7fbdddd4cf49cb6b7229f4eaaebf6dfa4b5b41e7795d42ff6ce7d3f727d3a472",
        "seeds.tsv": "63be180b1edd0f3d9ac1b65637e33f5ee2aefb43edbd574ad52e6c545d2140e0",
        "truth.tsv": "50443f421dd0c770d90d3950bcc8fa2d8239a04fc76387a6012da59705017c83",
    },
    "planted-fit": {
        "edges.tsv": "e679cae2dcfa0101d8fc64706a759411ace5039bcd24d9f68b1a5e48aea8e6b5",
        "motif_pair.json": "58e123497e168fe8f907762a9d1ecc95bc229f3a7be2616a19f2964b334d821e",
        "motif_quad.json": "22bc3c50d8cf9ac6cbdee919e1cbcf3f71a7b203edef33a569c5727fe00fdebb",
        "nodes.tsv": "01b8f1ae831a9ac5c7b31d7881c304c11dab69d499629796656f44a893cf484f",
        "run.json": "67c751ca398e5845b0aebb94fd59f2d127150241c58bd55c8ff9565d3e6d44c6",
        "seeds.tsv": "5a3683fd6d108444d5eec786922c4faad4bcdb0302212c8acb4d8ead10d9b43a",
        "truth.tsv": "4fa7c5a82814f1b2750bdd8168ef3a9c6d5ab3c8216612c8c2f61cb5292d33c4",
    },
    "planted-large": {
        "edges.tsv": "4e00fe61875a0d80ddc209f05ca4a0c02dba8d74ffe1e48728f43a35d3ac4b92",
        "motif_pair.json": "58e123497e168fe8f907762a9d1ecc95bc229f3a7be2616a19f2964b334d821e",
        "motif_quad.json": "22bc3c50d8cf9ac6cbdee919e1cbcf3f71a7b203edef33a569c5727fe00fdebb",
        "nodes.tsv": "5a92c6681a7157e0d719555dd271992fe33b8454a0496e7c92782165654066c0",
        "run.json": "a4d29873551a449864c0b395794eaf9793405b011932888071b9d5627955c0cd",
        "seeds.tsv": "41c0107ba0a1463958d7fbc32c65dc95824f406023653c5c4109c52f29facdc0",
        "truth.tsv": "ff80af37943799c78399d7339d366e8bb4a4ff0c5dbf6d84c6e83c89d14d19a6",
    },
}


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_workload_inputs_are_pinned(workload, tmp_path):
    data = tmp_path / workload
    RUN.generate(workload, 0, data)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in data.iterdir() if p.name != "params.json"}
    assert got == WORKLOAD_INPUT_SHA256[workload]
