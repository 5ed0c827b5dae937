import builtins
import errno
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motifclust.cli as cli
from motifclust.cli import RunConfig, main
from motifclust.model import Hyperparameters
from motifclust.tensors import SparseTensor

from conftest import damage_snapshot, header_edited, names_layout, pre_names_layout, read_header

PAIR = {"name": "pair", "node_types": ["A", "B"], "edges": [[0, 1, "ab"]]}

# sha256 of every gen-planted output for default params; refactors of the
# generator must leave them unchanged.
DEFAULT_OUTPUT_SHA256 = {
    "edges.tsv": "e679cae2dcfa0101d8fc64706a759411ace5039bcd24d9f68b1a5e48aea8e6b5",
    "motif_pair.json": "58e123497e168fe8f907762a9d1ecc95bc229f3a7be2616a19f2964b334d821e",
    "motif_quad.json": "22bc3c50d8cf9ac6cbdee919e1cbcf3f71a7b203edef33a569c5727fe00fdebb",
    "nodes.tsv": "01b8f1ae831a9ac5c7b31d7881c304c11dab69d499629796656f44a893cf484f",
    "run.json": "67c751ca398e5845b0aebb94fd59f2d127150241c58bd55c8ff9565d3e6d44c6",
    "seeds.tsv": "5a3683fd6d108444d5eec786922c4faad4bcdb0302212c8acb4d8ead10d9b43a",
    "truth.tsv": "4fa7c5a82814f1b2750bdd8168ef3a9c6d5ab3c8216612c8c2f61cb5292d33c4",
}

# What the default gen-planted -> fit run gives, whatever the numpy or BLAS
# build: `labels.tsv`'s sha256, and the iteration and reason it stops at. The
# float bytes of the other outputs may differ between builds, so no pin holds them.
DEFAULT_FIT_LABELS_SHA256 = "0c7352a9e4cab4066b68bbf6b805053c932a662c8e8bb1b013e8ebc0d08b7423"
DEFAULT_FIT_STOP = {"outer_iterations": 32, "stop_reason": "stable_labels"}

# sha256 of the tensor exports of transcribe for default gen-planted params;
# refactors of the enumeration or of the export format must leave them unchanged.
DEFAULT_TENSOR_SHA256 = {
    "tensor_pair.tsv": "43b56b894a0bf76c2eb63c278a36e1560e97a37bd37ea98ed979110513261695",
    "tensor_quad.tsv": "46815d573a914d0ee1c4a18a8cc76290008f372b63963065839ea1f646eb85b1",
}


def key_formula(data, *names, tag=None):
    """A snapshot key: sha256 over the cache format tag (`tag`, by default
    `cli.CACHE_FORMAT`) and the named files of `data`, each followed by a NUL byte."""
    h = hashlib.sha256((cli.CACHE_FORMAT if tag is None else tag) + b"\x00")
    for name in names:
        h.update((data / name).read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def hand_dataset(tmp_path, nodes, edges, seeds, motifs):
    """A run.json over hand-written nodes, edges and seeds lines and motif
    specs given as `name: (node types, [(i, j, edge type name)])`."""
    for name, lines in (("nodes.tsv", nodes), ("edges.tsv", edges), ("seeds.tsv", seeds)):
        (tmp_path / name).write_text("".join(line + "\n" for line in lines))
    for name, (types, pattern) in motifs.items():
        spec = {
            "name": name,
            "nodes": [{"id": f"n{i}", "type": t} for i, t in enumerate(types)],
            "edges": [{"src": f"n{i}", "dst": f"n{j}", "etype": et, "dir": "u"} for i, j, et in pattern],
        }
        (tmp_path / f"motif_{name}.json").write_text(json.dumps(spec))
    run = {"nodes": "nodes.tsv", "edges": "edges.tsv", "seeds": "seeds.tsv", "clusters": 2,
           "motifs": [f"motif_{name}.json" for name in motifs]}
    (tmp_path / "run.json").write_text(json.dumps(run))
    return tmp_path / "run.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def enumerated(monkeypatch):
    """The names of the motifs the CLI enumerates, one per call."""
    calls = []
    real = cli.enumerate_instances
    monkeypatch.setattr(
        cli, "enumerate_instances", lambda hin, motif: calls.append(motif.name) or real(hin, motif)
    )
    return calls


@pytest.fixture
def planted_dir(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "clusters": 2,
                "nodes_per_type": 20,
                "types": ["A", "B"],
                "noise": 0.0,
                "seed_fraction": 0.1,
                "rng_seed": 5,
                "templates": [
                    {"name": "pair", "node_types": ["A", "B"], "edges": [[0, 1, "ab"]]}
                ],
            }
        )
    )
    out = tmp_path / "data"
    code, stdout, _ = run_cli(capsys, "gen-planted", "--params", str(params), "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["nodes"] == 40
    return out


class TestGenPlanted:
    def test_outputs_exist(self, planted_dir):
        for name in ("nodes.tsv", "edges.tsv", "truth.tsv", "seeds.tsv", "motif_pair.json", "run.json"):
            assert (planted_dir / name).is_file()

    def test_truth_covers_all_nodes(self, planted_dir):
        lines = (planted_dir / "truth.tsv").read_text().strip().splitlines()
        assert len(lines) == 40

    def test_failed_graph_write_keeps_the_previous_files(self, tmp_path, capsys, monkeypatch):
        params = tmp_path / "params.json"
        params.write_text("{}")
        out = tmp_path / "data"
        argv = ["gen-planted", "--params", str(params), "--out", str(out)]
        assert run_cli(capsys, *argv)[0] == 0
        graph = [out / "nodes.tsv", out / "edges.tsv"]
        before = [(p.stat().st_ino, p.read_bytes()) for p in graph]
        real = cli.write_hin

        def die_mid_edges(hin, nodes_path, edges_path):
            real(hin, nodes_path, edges_path)
            text = Path(edges_path).read_bytes()
            Path(edges_path).write_bytes(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_hin", die_mid_edges)
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1 and stdout == "" and json.loads(err)["error"] == "disk full"
        assert [(p.stat().st_ino, p.read_bytes()) for p in graph] == before
        assert not list(out.glob("*.tmp"))

    def test_default_params_outputs_are_pinned(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text("{}")
        out = tmp_path / "data"
        assert run_cli(capsys, "gen-planted", "--params", str(params), "--out", str(out))[0] == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == DEFAULT_OUTPUT_SHA256

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"noise": -0.5}, "noise must be non-negative"),
            ({"seed_fraction": 2}, r"seed_fraction must be in \[0, 1\]"),
            ({"seed_fraction": -0.1}, r"seed_fraction must be in \[0, 1\]"),
            ({"templates": [dict(PAIR, instances_per_block=-5)]}, "non-negative integer or null"),
            ({"templates": [dict(PAIR, instances_per_block=2.5)]}, "non-negative integer or null"),
            ({"nodes_per_typ": 30}, r"unknown params key\(s\) \['nodes_per_typ'\]"),
            ({"templates": [dict(PAIR, instance_per_block=3)]}, r"unknown template key\(s\)"),
            ({"templates": [dict(PAIR, signal="false")]}, "signal must be true or false"),
            ({"templates": [dict(PAIR, signal=0)]}, "signal must be true or false"),
            (  # both typos at once used to run with defaults and planted signal
                {"nodes_per_typ": 30, "templates": [dict(PAIR, signal="false")]},
                "unknown params key",
            ),
            ({"clusters": 3.7}, "clusters must be an integer, got 3.7"),
            ({"clusters": True}, "clusters must be an integer, got true"),
            ({"nodes_per_type": 60.0}, "nodes_per_type must be an integer"),
            ({"rng_seed": "1"}, "rng_seed must be an integer"),
            ({"noise": "0.1"}, "noise must be a number"),
            ({"seed_fraction": False}, "seed_fraction must be a number"),
            ({"noise": float("inf")}, "noise must be non-negative and finite"),
            ({"noise": float("nan")}, "noise must be non-negative and finite"),
            ({"types": "ABC"}, 'types must be a list of strings, got "ABC"'),
            ({"templates": [dict(PAIR, node_types="AB")]}, "node_types must be a list of strings"),
            (
                {"templates": [dict(PAIR, edges=[[0.7, 1.2, "ab"]])]},
                "an edge position must be an integer, got 0.7",
            ),
            (
                {"templates": [dict(PAIR, edges=[[0, 1, 2]])]},
                r"edge \[0, 1, 2\] is not \[int, int, edge type name\]",
            ),
            ({"templates": PAIR}, "templates must be a list of objects"),
            ({"templates": ["pair"]}, "templates must be a list of objects"),
            (
                {"templates": [{k: v for k, v in PAIR.items() if k != "edges"}]},
                r"template 0: missing template key\(s\) \['edges'\]",
            ),
            (
                {"templates": [{k: v for k, v in PAIR.items() if k != "name"}]},
                r"template 0: missing template key\(s\) \['name'\]",
            ),
            ({"templates": [dict(PAIR, name=7)]}, "template 0: name must be a non-empty string"),
            ({"templates": [dict(PAIR, name="")]}, "template 0: name must be a non-empty string"),
            ({"templates": [dict(PAIR, edges=3)]}, "template 'pair': edges must be a list"),
            (
                {"templates": [dict(PAIR, edges=[[0, 5, "ab"]])]},
                r"template 'pair': edge \(0, 5\) must join two distinct positions in 0\.\.1",
            ),
            (
                {"templates": [dict(PAIR, edges=[[0, 0, "ab"]])]},
                r"template 'pair': edge \(0, 0\) must join two distinct positions",
            ),
            (
                {"templates": [dict(PAIR, edges=[[0, -1, "ab"]])]},
                r"template 'pair': edge \(0, -1\) must join two distinct positions",
            ),
            (  # one edge type name on two node-type pairs, caught before sampling
                {"templates": [PAIR, dict(PAIR, name="pair_ac", node_types=["A", "C"])]},
                r"edge type 'ab' joins A-C in template 'pair_ac' but A-B in template 'pair'",
            ),
            ({"templates": [dict(PAIR, name="a/b")]}, r"template 'a/b': name must not contain"),
            ({"templates": [dict(PAIR, name="a\\b")]}, r"template 'a\\\\b': name must not contain"),
            ({"clusters": 0}, "n_clusters must be at least 2"),
            ({"clusters": -3}, "n_clusters must be at least 2"),
            ({"clusters": 1}, "n_clusters must be at least 2"),
            ({"nodes_per_type": 0}, "nodes_per_type must be at least 1"),
            ({"templates": []}, "templates must not be empty"),
            (  # planted 1,260 instances and wrote 0 edges
                {"templates": [dict(PAIR, edges=[])]},
                "template 'pair': its edges do not make a motif: motif 'pair': pattern is not connected",
            ),
            (  # `transcribe` then found the pattern not connected
                {"templates": [dict(PAIR, node_types=["A", "B", "C"])]},
                "template 'pair': its edges do not make a motif: motif 'pair': pattern is not connected",
            ),
            ({"templates": [dict(PAIR, node_types=[], edges=[])]}, "template 'pair': node_types must not be empty"),
            (  # the graph files cannot hold the type name: refused before --out is made
                {"types": ["A B", "B", "C"],
                 "templates": [{"name": "p", "node_types": ["A B", "B"], "edges": [[0, 1, "x"]]}]},
                "type name 'A B' is empty or holds whitespace",
            ),
            (  # exited 0 with the second template's tuples on the first's edge type, and `transcribe` then failed
                {"templates": [PAIR, dict(PAIR, node_types=["B", "C"], edges=[[0, 1, "bc"]])]},
                "template 'pair': templates 0 and 1 share this name, and names must be unique",
            ),
            (  # `transcribe` then found a duplicate pattern edge
                {"templates": [dict(PAIR, edges=[[0, 1, "ab"], [1, 0, "ab"]])]},
                "template 'pair': its edges do not make a motif: motif 'pair' edge n1-n0: duplicate pattern edge",
            ),
            ({"templates": [dict(PAIR, unknown=1)]}, r"template 0: unknown template key\(s\) \['unknown'\]"),
        ],
    )
    def test_invalid_params_rejected(self, tmp_path, capsys, params, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "data"
        code, stdout, err = run_cli(capsys, "gen-planted", "--params", str(path), "--out", str(out))
        assert code == 1 and stdout == "" and not out.exists()
        diag = json.loads(err)
        assert diag["type"] == "ValueError"
        assert diag["error"].startswith(f"{path}: ")
        assert re.search(message, diag["error"])


    def test_every_params_key_accepted(self, tmp_path, capsys):
        params = {
            "clusters": 2, "nodes_per_type": 12, "types": ["A", "B"], "noise": 0.1,
            "seed_fraction": 0.2, "rng_seed": 3,
            "templates": [
                PAIR,
                {"name": "noise", "node_types": ["A", "B"], "edges": [[0, 1, "n_ab"]],
                 "signal": False, "instances_per_block": 5},
            ],
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "data"
        code, stdout, _ = run_cli(capsys, "gen-planted", "--params", str(path), "--out", str(out))
        assert code == 0 and json.loads(stdout)["nodes"] == 24


class TestTranscribe:
    def test_writes_tensor_and_manifest(self, planted_dir, capsys):
        config = planted_dir / "run.json"
        code, stdout, _ = run_cli(capsys, "transcribe", "--config", str(config))
        assert code == 0
        report = json.loads(stdout)
        tensor_file = planted_dir / "tensors" / "tensor_pair.tsv"
        manifest = json.loads((planted_dir / "tensors" / "manifest.json").read_text())
        assert tensor_file.is_file()
        assert set(manifest["pair"]) == {"file", "dims", "nnz", "wall_time_s"}
        assert manifest["pair"]["nnz"] == report["pair"]["nnz"]
        # nnz equals data rows in the tensor file (one header line)
        rows = tensor_file.read_text().strip().splitlines()
        assert len(rows) - 1 == manifest["pair"]["nnz"]
        # and, for an edge-level motif, the edge count of that type
        ab_edges = [
            line
            for line in (planted_dir / "edges.tsv").read_text().splitlines()
            if line.split("\t")[2:3] == ["ab"]
        ]
        assert manifest["pair"]["nnz"] == len(ab_edges)

    def test_rerun_uses_cache_and_outputs_identical(self, planted_dir, capsys):
        config = planted_dir / "run.json"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0

        def snapshot():  # a warm run writes nothing, not even the same bytes
            return {
                p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
                for p in (planted_dir / "tensors").iterdir()
            }

        before = snapshot()
        assert set(before) == {"tensor_pair.tsv", "manifest.json", "graph.npz"}
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert snapshot() == before

    def test_crash_mid_rebuild_is_not_served_after_revert(self, planted_dir, capsys, monkeypatch, enumerated):
        """A rebuild removes the snapshot first and writes it last, so a run that
        dies before that leaves none, and the exports beside a served snapshot
        are the ones written with it."""
        config = planted_dir / "run.json"
        edges = planted_dir / "edges.tsv"
        tensor_dir = planted_dir / "tensors"
        tensor_file = tensor_dir / "tensor_pair.tsv"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        tensor_a, edges_a = tensor_file.read_bytes(), edges.read_text()
        edges.write_text("".join(edges_a.splitlines(keepends=True)[:-1]))  # inputs B

        def die_mid_write(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise OSError("disk full")

        crashes = [  # mid-export (the old export already removed), then with the exports of inputs B written
            (SparseTensor, "write_tsv", lambda tensor, path: die_mid_write(path), ["manifest.json"]),
            (cli, "write_snapshot", lambda hin, tensors, path, *keys: die_mid_write(path),
             ["manifest.json", "tensor_pair.tsv"]),
        ]
        for owner, name, crash, left in crashes:
            with monkeypatch.context() as m:
                m.setattr(owner, name, crash)
                assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 1
            assert sorted(p.name for p in tensor_dir.iterdir()) == left
        assert tensor_file.read_bytes() != tensor_a
        edges.write_text(edges_a)  # back to inputs A
        del enumerated[:]
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert enumerated == ["pair"]  # rebuilt, not served from the cache
        assert tensor_file.read_bytes() == tensor_a

    def test_rebuild_removes_leftover_temp_files(self, planted_dir, capsys):
        config = planted_dir / "run.json"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        # as from a run killed mid-write of a motif no longer configured
        leftover = planted_dir / "tensors" / "tensor_retired.tsv.tmp"
        leftover.write_text("partial")
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert leftover.exists()  # a warm run touches nothing
        edges = planted_dir / "edges.tsv"
        edges.write_text("".join(edges.read_text().splitlines(keepends=True)[:-1]))
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert not leftover.exists()

    def test_rebuild_removes_exports_of_retired_motifs(self, tmp_path, capsys, enumerated):
        """A rebuild for motifs {pair} after {pair, quad} leaves no quad export
        beside the new snapshot, and keeps files that are not exports."""
        params = tmp_path / "params.json"
        params.write_text("{}")
        out = tmp_path / "data"
        assert run_cli(capsys, "gen-planted", "--params", str(params), "--out", str(out))[0] == 0
        config, tensor_dir = out / "run.json", out / "tensors"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert sorted(p.name for p in tensor_dir.iterdir()) == [
            "graph.npz", "manifest.json", "tensor_pair.tsv", "tensor_quad.tsv"]
        pair = (tensor_dir / "tensor_pair.tsv").read_bytes()
        (tensor_dir / "notes.txt").write_text("kept")
        config.write_text(json.dumps(dict(json.loads(config.read_text()), motifs=["motif_pair.json"])))
        code, stdout, err = run_cli(capsys, "transcribe", "--config", str(config))
        assert code == 0 and err == "" and list(json.loads(stdout)) == ["pair"]
        assert enumerated == ["pair", "quad", "pair"]
        assert sorted(p.name for p in tensor_dir.iterdir()) == [
            "graph.npz", "manifest.json", "notes.txt", "tensor_pair.tsv"]
        assert list(json.loads((tensor_dir / "manifest.json").read_text())) == ["pair"]
        assert (tensor_dir / "tensor_pair.tsv").read_bytes() == pair

    def test_rebuild_renames_no_export_over_a_file(self, planted_dir, capsys, monkeypatch):
        """A rebuild over a populated tensor directory removes the exports
        first, so each export's rename lands on a free name (on ext4 a rename
        over a file waits for write-out), and it ends with exactly the
        configured exports."""
        config = planted_dir / "run.json"
        tensor_dir = planted_dir / "tensors"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        (tensor_dir / "tensor_retired.tsv").write_text("a retired motif's export")
        (tensor_dir / "tensor_pair.tsv.tmp").write_text("partial")
        edges = planted_dir / "edges.tsv"
        edges.write_text("".join(edges.read_text().splitlines(keepends=True)[:-1]))
        replaced, real_replace = [], os.replace

        def replace(src, dst):
            if Path(dst).name.startswith("tensor_"):
                assert not Path(dst).exists(), f"{dst} replaced"
                replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert replaced == ["tensor_pair.tsv"]
        assert sorted(p.name for p in tensor_dir.iterdir()) == ["graph.npz", "manifest.json", "tensor_pair.tsv"]

    @pytest.mark.parametrize("second", ["motif_pair.json", "motif_copy.json"])
    def test_repeated_motif_name_names_the_files(self, planted_dir, capsys, second):
        """A run.json that lists one motif file twice, or two files of one
        motif name, is refused with the name and both files."""
        (planted_dir / "motif_copy.json").write_bytes((planted_dir / "motif_pair.json").read_bytes())
        config = planted_dir / "run.json"
        config.write_text(json.dumps(dict(json.loads(config.read_text()), motifs=["motif_pair.json", second])))
        code, stdout, err = run_cli(capsys, "transcribe", "--config", str(config))
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"] == (
            f"{planted_dir / second}: motif 'pair' has the name of the motif in "
            f"{planted_dir / 'motif_pair.json'}, and motif names must be unique"
        )
        assert not (planted_dir / "tensors").exists()

    def test_key_keeps_its_formula(self, planted_dir, capsys):
        """The graph key hashes the cache format tag, then the nodes and edges
        files; the motif key the tag, then the motif files in config order."""
        cfg_path = planted_dir / "run.json"
        config = json.loads(cfg_path.read_text())
        motif = planted_dir / "motif_ab.json"
        motif.write_text(json.dumps(dict(json.loads((planted_dir / "motif_pair.json").read_text()),
                                         name="ab")))
        cfg_path.write_text(json.dumps(dict(config, motifs=["motif_pair.json", "motif_ab.json"])))
        assert run_cli(capsys, "transcribe", "--config", str(cfg_path))[0] == 0
        header = read_header(planted_dir / "tensors" / "graph.npz")
        assert [header["key"], header["motif_key"]] == [
            key_formula(planted_dir, "nodes.tsv", "edges.tsv"),
            key_formula(planted_dir, "motif_pair.json", "motif_ab.json"),
        ]

    def test_cache_written_by_an_earlier_version_is_rebuilt_once(self, planted_dir, capsys, enumerated):
        """The tensor directory as the TSV cache left it: a snapshot of the graph
        alone under the `tsv-1` tag, its key, names and duplicate count in
        arrays of their own, and manifest entries with a content key and the
        sha256 of their tensor file. It is refused once, with one warning, and
        rewritten; the next run is warm."""
        config = str(planted_dir / "run.json")
        tensor_dir = planted_dir / "tensors"
        snapshot = tensor_dir / "graph.npz"
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        old_key = key_formula(planted_dir, "nodes.tsv", "edges.tsv", tag=b"tsv-1")
        damage_snapshot(snapshot, header_edited(lambda h: dict(h, key=old_key)))
        damage_snapshot(snapshot, lambda arrays, data: {  # the graph alone
            k: v for k, v in names_layout(arrays, data).items() if k in ("key", "names", "edges", "duplicates")
        })
        manifest_file = tensor_dir / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        manifest["pair"].update(
            key=key_formula(planted_dir, "nodes.tsv", "edges.tsv", "motif_pair.json", tag=b"tsv-1"),
            sha256=hashlib.sha256((tensor_dir / "tensor_pair.tsv").read_bytes()).hexdigest(),
        )
        manifest_file.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        [warning] = err.splitlines()
        assert code == 0 and "ignoring the graph snapshot: unreadable: 'header is not a file" in warning
        assert enumerated == ["pair", "pair"]
        assert set(json.loads(manifest_file.read_text())["pair"]) == {"file", "dims", "nnz", "wall_time_s"}
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 0 and err == "" and enumerated == ["pair", "pair"]

    def test_npz2_snapshot_is_rebuilt_once(self, planted_dir, capsys, enumerated):
        """A snapshot in the `npz-2` layout: its keys hashed under that tag,
        and a `values{k}` member of ones beside each `indices{k}`. It is
        refused once, with the usual warning, and rewritten without values;
        the next run is warm."""
        config = str(planted_dir / "run.json")
        snapshot = planted_dir / "tensors" / "graph.npz"
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        keys = {
            "key": key_formula(planted_dir, "nodes.tsv", "edges.tsv", tag=b"npz-2"),
            "motif_key": key_formula(planted_dir, "motif_pair.json", tag=b"npz-2"),
        }
        damage_snapshot(snapshot, header_edited(lambda h: dict(h, **keys)))
        damage_snapshot(snapshot, lambda arrays, data: dict(arrays, values0=np.ones(len(arrays["indices0"]))))
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        [warning] = err.splitlines()
        assert code == 0 and f"{snapshot}: ignoring the graph snapshot: written for other graph files" in warning
        assert enumerated == ["pair", "pair"]
        with np.load(snapshot) as archive:
            assert sorted(archive.files) == ["edges", "header", "indices0"]
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 0 and err == "" and enumerated == ["pair", "pair"]

    def test_tagless_key_is_rebuilt(self, planted_dir, capsys, enumerated):
        """Tensors stored under a motif key hashed without the cache format tag are not served."""
        config = str(planted_dir / "run.json")
        snapshot = planted_dir / "tensors" / "graph.npz"
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        tagless = hashlib.sha256((planted_dir / "motif_pair.json").read_bytes() + b"\x00").hexdigest()
        damage_snapshot(snapshot, header_edited(lambda h: dict(h, motif_key=tagless)))
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 0 and err == "" and enumerated == ["pair", "pair"]
        assert read_header(snapshot)["motif_key"] == key_formula(planted_dir, "motif_pair.json")

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(
                lambda text: text[: text.rstrip("\n").rfind("\n") + 1], id="last_row_dropped"
            ),
            pytest.param(lambda text: text[: len(text) - 3], id="cut_mid_row"),
            pytest.param(lambda text: text.replace("#dims 20", "#dims 21", 1), id="dims_changed"),
            pytest.param(lambda text: text.replace("\t1\n", "\t2\n", 1), id="value_edited"),
        ],
    )
    def test_tensor_disagreeing_with_manifest_is_rebuilt(self, planted_dir, capsys, enumerated, damage):
        """A tensor export is never read: warm runs serve the snapshot and leave
        a damaged export as it is, and the next rebuild writes it afresh."""
        config = str(planted_dir / "run.json")
        tensor_dir = planted_dir / "tensors"
        tensor_file = tensor_dir / "tensor_pair.tsv"
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        original = tensor_file.read_bytes()
        damaged = damage(original.decode())
        tensor_file.write_text(damaged)
        for command in ("transcribe", "fit"):
            code, _, err = run_cli(capsys, command, "--config", config)
            assert code in (0, 3) and err == ""
        assert enumerated == ["pair"] and tensor_file.read_text() == damaged
        (tensor_dir / "graph.npz").unlink()
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        assert enumerated == ["pair", "pair"] and tensor_file.read_bytes() == original

    @pytest.mark.parametrize("command", ["transcribe", "fit"])
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
            pytest.param(lambda text: "[]\n", id="top_level_list"),
            pytest.param(lambda text: '{"pair": 7}\n', id="entry_not_object"),
        ],
    )
    def test_malformed_manifest_is_rebuilt(self, planted_dir, capsys, enumerated, command, damage):
        """The manifest is an export: a warm run neither reads a damaged one nor
        warns of it, and leaves it; the next rebuild writes it afresh."""
        cfg_path = planted_dir / "run.json"
        config = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps(dict(config, outer_tol=1e9)))  # fit converges, exit 0
        tensor_dir = planted_dir / "tensors"
        manifest_file = tensor_dir / "manifest.json"
        assert run_cli(capsys, "transcribe", "--config", str(cfg_path))[0] == 0
        written = json.loads(manifest_file.read_text())
        damaged = damage(manifest_file.read_text())
        manifest_file.write_text(damaged)
        code, _, err = run_cli(capsys, command, "--config", str(cfg_path))
        assert code == 0 and err == "" and enumerated == ["pair"]
        assert manifest_file.read_text() == damaged
        (tensor_dir / "graph.npz").unlink()
        code, _, err = run_cli(capsys, command, "--config", str(cfg_path))
        assert code == 0 and err == "" and enumerated == ["pair", "pair"]
        rebuilt = json.loads(manifest_file.read_text())
        for manifest in (written, rebuilt):
            del manifest["pair"]["wall_time_s"]
        assert rebuilt == written

    def test_default_params_tensors_are_pinned(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text("{}")
        out = tmp_path / "data"
        assert run_cli(capsys, "gen-planted", "--params", str(params), "--out", str(out))[0] == 0
        assert run_cli(capsys, "transcribe", "--config", str(out / "run.json"))[0] == 0
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out / "tensors").glob("*.tsv")
        }
        assert got == DEFAULT_TENSOR_SHA256
        with np.load(out / "tensors" / "graph.npz") as archive:
            assert sorted(archive.files) == ["edges", "header", "indices0", "indices1"]

    def test_cache_invalidated_by_input_change(self, planted_dir, capsys, enumerated):
        config = planted_dir / "run.json"
        snapshot = planted_dir / "tensors" / "graph.npz"

        def keys():
            header = read_header(snapshot)
            return header["key"], header["motif_key"]

        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        graph_key, motif_key = keys()
        edges = planted_dir / "edges.tsv"
        edges.write_text("".join(edges.read_text().splitlines(keepends=True)[:-1]))
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert enumerated == ["pair", "pair"]
        edited_key = keys()[0]
        assert keys() == (edited_key, motif_key) and edited_key != graph_key
        motif = planted_dir / "motif_pair.json"
        motif.write_text(json.dumps(json.loads(motif.read_text())))  # the same motif in other bytes
        code, _, err = run_cli(capsys, "transcribe", "--config", str(config))
        assert code == 0 and err == "" and enumerated == ["pair", "pair", "pair"]
        assert keys()[0] == edited_key and keys()[1] != motif_key


class TestGraphSnapshot:
    """`graph.npz` in the tensor directory: a warm run builds its graph from it."""

    OUTPUTS = ("labels.tsv", "consensus.tsv", "weights.tsv", "history.csv")

    @pytest.fixture
    def parses(self, monkeypatch):
        """The `load_hin` calls the CLI makes."""
        calls = []
        real = cli.load_hin
        monkeypatch.setattr(cli, "load_hin", lambda *a: calls.append(a) or real(*a))
        return calls

    def test_warm_fit_reads_the_snapshot(self, planted_dir, capsys, caplog, parses):
        config = str(planted_dir / "run.json")
        with caplog.at_level(logging.DEBUG, logger="motifclust"):
            assert run_cli(capsys, "--log-level", "DEBUG", "transcribe", "--config", config)[0] == 0
            assert len(parses) == 1 and "graph parsed from" in caplog.text
            caplog.clear()
            assert run_cli(capsys, "--log-level", "DEBUG", "fit", "--config", config)[0] in (0, 3)
        assert len(parses) == 1 and "graph read from the snapshot" in caplog.text
        assert "graph parsed from" not in caplog.text

    def test_outputs_identical_with_and_without_snapshot(self, planted_dir, capsys, parses):
        config = str(planted_dir / "run.json")
        snapshot = planted_dir / "tensors" / "graph.npz"
        outputs = []
        for _ in range(2):  # from the text, then from the snapshot
            code, stdout, _ = run_cli(capsys, "fit", "--config", config)
            assert code in (0, 3) and snapshot.is_file()
            outputs.append([stdout] + [(planted_dir / "out" / f).read_bytes() for f in self.OUTPUTS])
        assert len(parses) == 1 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("change", ["edges_edited", "cache_format"])
    def test_other_inputs_are_never_served(self, planted_dir, capsys, monkeypatch, parses, change):
        config = str(planted_dir / "run.json")
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        edges = planted_dir / "edges.tsv"
        if change == "edges_edited":
            edges.write_text("".join(edges.read_text().splitlines(keepends=True)[:-1]))
        else:
            monkeypatch.setattr(cli, "CACHE_FORMAT", cli.CACHE_FORMAT + b"-next")
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 0 and len(parses) == 2
        assert "ignoring the graph snapshot: written for other graph files" in err
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 0 and err == "" and len(parses) == 2  # the rewritten snapshot is served

    @pytest.mark.parametrize(
        "damage, reason",
        [
            pytest.param(lambda arrays, data: data[:100], "unreadable", id="truncated"),
            pytest.param(lambda arrays, data: dict(arrays, edges=arrays["edges"].astype(object)),
                         "allow_pickle=False", id="object_array"),
            pytest.param(pre_names_layout, "unreadable: 'header is not a file", id="old_layout"),
            pytest.param(names_layout, "unreadable: 'header is not a file", id="names_layout"),
        ],
    )
    def test_damaged_snapshot_is_rebuilt(self, planted_dir, capsys, caplog, parses, damage, reason):
        config = str(planted_dir / "run.json")
        snapshot = planted_dir / "tensors" / "graph.npz"
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        written = snapshot.read_bytes()
        damage_snapshot(snapshot, damage)
        with caplog.at_level(logging.WARNING, logger="motifclust"):
            assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        [record] = caplog.records
        assert record.levelno == logging.WARNING and str(snapshot) in record.getMessage()
        assert "ignoring the graph snapshot" in record.getMessage() and reason in record.getMessage()
        assert len(parses) == 2 and snapshot.read_bytes() == written
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 0 and err == "" and len(parses) == 2  # the rewritten snapshot is served

    def test_crash_mid_write_leaves_no_trusted_snapshot(self, planted_dir, capsys, monkeypatch, parses):
        config = str(planted_dir / "run.json")
        snapshot = planted_dir / "tensors" / "graph.npz"

        def die_mid_write(hin, tensors, path, key, motif_key):
            Path(path).write_bytes(b"PK\x03\x04partial")
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(cli, "write_snapshot", die_mid_write)
            code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 1 and json.loads(err)["error"] == "disk full"
        # the exports, written before the snapshot, and no temporary file
        assert sorted(p.name for p in snapshot.parent.iterdir()) == ["manifest.json", "tensor_pair.tsv"]
        code, _, err = run_cli(capsys, "transcribe", "--config", config)
        assert code == 0 and err == "" and len(parses) == 2 and snapshot.is_file()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: [["other", dims] for _, dims in doc], id="name"),
            pytest.param(lambda doc: [[name, [dims[0], dims[1] + 1]] for name, dims in doc], id="dims"),
        ],
    )
    def test_tensors_of_other_motifs_are_rebuilt(self, planted_dir, capsys, parses, enumerated, edit):
        """Tensors under the right key whose names or dims are not the
        configured motifs' are refused with one warning, and rebuilt."""
        config = str(planted_dir / "run.json")
        snapshot = planted_dir / "tensors" / "graph.npz"
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        damage_snapshot(snapshot, header_edited(lambda h: dict(h, tensors=edit(h["tensors"]))))
        code, _, err = run_cli(capsys, "fit", "--config", config)
        [warning] = err.splitlines()
        assert code in (0, 3) and f"{snapshot}: ignoring the snapshot's tensors" in warning
        assert enumerated == ["pair", "pair"] and len(parses) == 1  # the graph is served
        code, _, err = run_cli(capsys, "fit", "--config", config)
        assert code in (0, 3) and err == "" and enumerated == ["pair", "pair"]

    @pytest.mark.parametrize("exports", ["deleted", "damaged"])
    def test_fit_outputs_do_not_depend_on_the_exports(self, planted_dir, capsys, exports):
        """`fit` reads no tensor export or manifest, whatever their state (with
        them as written, see `test_outputs_identical_with_and_without_snapshot`)."""
        config = str(planted_dir / "run.json")
        tensor_dir = planted_dir / "tensors"

        def fit_outputs():
            code, stdout, err = run_cli(capsys, "fit", "--config", config)
            assert code in (0, 3) and err == ""
            return [stdout] + [(planted_dir / "out" / f).read_bytes() for f in self.OUTPUTS]

        cold = fit_outputs()
        for name in ("tensor_pair.tsv", "manifest.json"):
            if exports == "deleted":
                (tensor_dir / name).unlink()
            else:
                (tensor_dir / name).write_text("#dims 1\n0\t7\n")
        assert fit_outputs() == cold

    def test_warm_fit_opens_only_the_snapshot(self, planted_dir, capsys, monkeypatch):
        config = str(planted_dir / "run.json")
        tensor_dir = planted_dir / "tensors"
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        opened = []

        def recording(real):
            def wrapper(file, *args, **kwargs):
                opened.append(Path(file.name if isinstance(file, io.IOBase) else file))
                return real(file, *args, **kwargs)
            return wrapper

        for owner, name in ((builtins, "open"), (io, "open"), (np, "load")):
            monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
        assert run_cli(capsys, "fit", "--config", config)[0] in (0, 3)
        monkeypatch.undo()
        assert {p.name for p in opened if p.parent == tensor_dir} == {"graph.npz"}

    def test_malformed_graph_fails_before_any_write(self, planted_dir, capsys, parses):
        config = str(planted_dir / "run.json")
        assert run_cli(capsys, "transcribe", "--config", config)[0] == 0
        tensor_dir = planted_dir / "tensors"
        before = {p.name: (p.stat().st_ino, p.read_bytes()) for p in tensor_dir.iterdir()}
        edges = planted_dir / "edges.tsv"
        edges.write_text(edges.read_text() + "a0\tb0\tab\n")
        lines = edges.read_text().count("\n")
        code, stdout, err = run_cli(capsys, "fit", "--config", config)
        assert code == 1 and stdout == ""
        warning, diag = err.splitlines()
        assert "written for other graph files" in warning
        assert json.loads(diag)["error"] == f"{edges} line {lines}: expected 4 columns, got 3"
        assert {p.name: (p.stat().st_ino, p.read_bytes()) for p in tensor_dir.iterdir()} == before


class TestFit:
    def test_fit_outputs_and_monotone_log(self, planted_dir, capsys):
        config = json.loads((planted_dir / "run.json").read_text())
        config["seed_boost"] = 10.0
        (planted_dir / "run.json").write_text(json.dumps(config))
        code, stdout, _ = run_cli(capsys, "fit", "--config", str(planted_dir / "run.json"))
        assert code in (0, 3)
        summary = json.loads(stdout)
        assert summary["outer_iterations"] >= 1
        for name in ("consensus.tsv", "labels.tsv", "weights.tsv", "history.csv"):
            assert (planted_dir / "out" / name).is_file()
        rows = (planted_dir / "out" / "history.csv").read_text().strip().splitlines()
        objs = [float(line.split(",")[1]) for line in rows[1:]]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))
        weights = dict(
            line.split("\t") for line in (planted_dir / "out" / "weights.tsv").read_text().strip().splitlines()
        )
        assert set(weights) == {"pair"}

    def test_huge_tolerance_converges_immediately(self, planted_dir, capsys):
        config = json.loads((planted_dir / "run.json").read_text())
        config["outer_tol"] = 1e9
        config["out_dir"] = "out_quick"
        (planted_dir / "run.json").write_text(json.dumps(config))
        code, stdout, _ = run_cli(capsys, "fit", "--config", str(planted_dir / "run.json"))
        assert code == 0
        assert json.loads(stdout) == {
            "converged": True,
            "outer_iterations": 1,
            "objective": json.loads(stdout)["objective"],
            "stop_reason": "tolerance",
        }

    def test_default_planted_run_stops_on_stable_labels(self, tmp_path, capsys):
        """A work bound, counted in iterations: the default gen-planted run
        stops once its labels settle, with the labels of a run to the cap."""
        params = tmp_path / "params.json"
        params.write_text("{}")
        data = tmp_path / "data"
        assert run_cli(capsys, "gen-planted", "--params", str(params), "--out", str(data))[0] == 0
        config = json.loads((data / "run.json").read_text())
        assert "stable_iters" not in config  # the default applies
        code, stdout, _ = run_cli(capsys, "fit", "--config", str(data / "run.json"))
        summary = json.loads(stdout)
        assert code == 0 and summary["stop_reason"] == "stable_labels" and summary["converged"]
        assert summary["outer_iterations"] <= 34
        rows = (data / "out" / "history.csv").read_text().splitlines()
        assert rows[0].endswith(",mu_pair,mu_quad,labels_changed")
        changed = [int(row.split(",")[-1]) for row in rows[1:]]
        assert changed[-30:] == [0] * 30 and changed[-31] > 0  # stops as the 30th quiet one ends
        (data / "run.json").write_text(json.dumps(dict(config, stable_iters=0, out_dir="out_cap")))
        code, stdout, _ = run_cli(capsys, "fit", "--config", str(data / "run.json"))
        assert code == 3 and json.loads(stdout)["stop_reason"] == "max_iters"
        assert (data / "out" / "labels.tsv").read_bytes() == (data / "out_cap" / "labels.tsv").read_bytes()

    def test_default_planted_run_is_pinned(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text("{}")
        data = tmp_path / "data"
        assert run_cli(capsys, "gen-planted", "--params", str(params), "--out", str(data))[0] == 0
        code, stdout, _ = run_cli(capsys, "fit", "--config", str(data / "run.json"))
        summary = json.loads(stdout)
        assert code == 0 and {key: summary[key] for key in DEFAULT_FIT_STOP} == DEFAULT_FIT_STOP
        assert hashlib.sha256((data / "out" / "labels.tsv").read_bytes()).hexdigest() == DEFAULT_FIT_LABELS_SHA256

    def test_transcribe_and_fit_do_not_import_numpy_ma(self, planted_dir):
        """`numpy.ma` (0.9 MB) is a module that none of these steps needs, and
        importing it moves the heap layout that a run's peak RSS depends on
        (63.2 against 70.5 MB on the `planted-large` benchmark); run both
        steps in a fresh interpreter and look."""
        config = str(planted_dir / "run.json")
        script = (
            "import sys\n"
            "from motifclust.cli import main\n"
            f"codes = [main(['transcribe', '--config', {config!r}]), main(['fit', '--config', {config!r}])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes, imported = proc.stdout.splitlines()[-1].rsplit(" ", 1)
        assert codes in ("[0, 0]", "[0, 3]") and imported == "False"

    def test_recovers_planted_partition(self, planted_dir, capsys):
        config = json.loads((planted_dir / "run.json").read_text())
        config["seed_boost"] = 10.0
        (planted_dir / "run.json").write_text(json.dumps(config))
        assert run_cli(capsys, "fit", "--config", str(planted_dir / "run.json"))[0] in (0, 3)
        code, stdout, _ = run_cli(
            capsys,
            "evaluate",
            "--pred", str(planted_dir / "out" / "labels.tsv"),
            "--truth", str(planted_dir / "truth.tsv"),
            "--seeds", str(planted_dir / "seeds.tsv"),
        )
        assert code == 0
        metrics = json.loads(stdout)
        assert metrics["nmi"] >= 0.9
        assert metrics["accuracy"] == metrics["micro_f1"]

    def test_determinism_across_cold_runs(self, planted_dir, capsys):
        cfg_path = planted_dir / "run.json"
        config = json.loads(cfg_path.read_text())
        config["max_outer_iters"] = 5
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for _ in range(2):
            for f in (planted_dir / "tensors").glob("*"):
                f.unlink()
            run_cli(capsys, "fit", "--config", str(cfg_path))
            outputs.append(
                tuple(
                    (planted_dir / "out" / name).read_bytes()
                    for name in ("consensus.tsv", "labels.tsv", "weights.tsv", "history.csv")
                )
            )
        assert outputs[0] == outputs[1]

    def test_motif_over_a_type_without_nodes(self, tmp_path, capsys):
        config = hand_dataset(
            tmp_path,
            nodes=["#types A B", "a1\tA", "a2\tA", "a3\tA"],
            edges=["a1\ta2\taa\tu", "a2\ta3\taa\tu"],
            seeds=["a1\t0", "a3\t1"],
            motifs={"aa": (["A", "A"], [(0, 1, "aa")]), "b": (["B"], [])},
        )
        code, stdout, err = run_cli(capsys, "fit", "--config", str(config))
        assert code in (0, 3), err
        labels = (tmp_path / "out" / "labels.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in labels] == ["a1", "a2", "a3"]

    def test_motif_without_instances(self, tmp_path, capsys):
        path = [f"a{k}" for k in range(8)]
        config = hand_dataset(
            tmp_path,
            nodes=[f"{a}\tA" for a in path],
            edges=[f"{a}\t{b}\taa\tu" for a, b in zip(path, path[1:])],
            seeds=["a0\t0", "a7\t1"],
            motifs={
                "edge": (["A", "A"], [(0, 1, "aa")]),
                "triangle": (["A", "A", "A"], [(0, 1, "aa"), (1, 2, "aa"), (2, 0, "aa")]),
            },
        )
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        manifest = json.loads((tmp_path / "tensors" / "manifest.json").read_text())
        assert manifest["triangle"]["nnz"] == 0 and manifest["edge"]["nnz"] > 0
        code, _, err = run_cli(capsys, "fit", "--config", str(config))
        assert code in (0, 3), err
        weights = [float(line.split("\t")[1])
                   for line in (tmp_path / "out" / "weights.tsv").read_text().splitlines()]
        assert min(weights) >= 0 and abs(sum(weights) - 1) < 1e-9
        rows = (tmp_path / "out" / "history.csv").read_text().splitlines()[1:]
        objs = [float(line.split(",")[1]) for line in rows]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))

    def test_failed_output_write_keeps_the_previous_file(self, planted_dir, capsys, monkeypatch):
        config = planted_dir / "run.json"
        labels = planted_dir / "out" / "labels.tsv"
        assert run_cli(capsys, "fit", "--config", str(config))[0] in (0, 3)
        before = labels.stat().st_ino, labels.read_bytes()
        real = builtins.open

        class DiesMidWrite(io.BufferedWriter):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError("disk full")

        def die_mid_labels(file, *args, **kwargs):
            if not str(file).endswith("labels.tsv.tmp"):
                return real(file, *args, **kwargs)
            return DiesMidWrite(io.FileIO(file, "w"))

        with monkeypatch.context() as m:
            m.setattr(builtins, "open", die_mid_labels)
            code, stdout, err = run_cli(capsys, "fit", "--config", str(config))
        assert code == 1 and stdout == "" and json.loads(err)["error"] == "disk full"
        assert (labels.stat().st_ino, labels.read_bytes()) == before
        assert not list((planted_dir / "out").glob("*.tmp"))


def enospc(fd, offset, length):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# Values whose `.12g` text is awkward: a signed zero, the least subnormal, a
# value with more digits than the format keeps, and both sides of the two
# points where `g` switches to an exponent (below 1e-4, at 1e12 once rounded).
AWKWARD_FLOATS = [
    -0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-5, 1e-4, np.nextafter(1e-4, 0.0), 1e12,
    np.nextafter(1e12, 0.0), 999999999999.4, 999999999999.5, -123456789.123456789, 1.0,
]


@pytest.mark.parametrize("c", range(2, 11))
def test_row_formatter_is_fmt_of_each_entry(c):
    values = np.array(AWKWARD_FLOATS)
    matrix = np.column_stack([np.roll(values, -j) for j in range(c)])
    assert cli._fmt_rows(matrix) == ["\t".join(cli._fmt(x) for x in row) for row in matrix]


class TestWriteText:
    """`cli._write_text`, the writer of `fit`'s outputs, `manifest.json` and
    `gen-planted`'s text files, preallocates its temporary file."""

    OUTPUTS = ("consensus.tsv", "labels.tsv", "weights.tsv", "history.csv")

    @pytest.mark.parametrize("text", ["", "a\tb\n", "h\u00e9 \u2192 \u96c6\U0001f600\n", "a\rb\r\nc\n\r", "\r\n"])
    def test_bytes_equal_write_text(self, tmp_path, text):
        cli._write_text(tmp_path / "got", text)
        (tmp_path / "want").write_text(text, encoding="utf-8", newline="\n")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_no_fallocate_falls_back_to_a_plain_write(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
        cli._write_text(tmp_path / "out.txt", "caf\u00e9\r\n")
        assert (tmp_path / "out.txt").read_bytes() == "caf\u00e9\r\n".encode()

    @pytest.mark.parametrize("code", [errno.EOPNOTSUPP, errno.EINVAL])
    def test_unsupported_fallocate_falls_back_to_a_plain_write(self, tmp_path, monkeypatch, code):
        def unsupported(fd, offset, length):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "posix_fallocate", unsupported, raising=False)
        (tmp_path / "out.txt").write_bytes(b"old")
        cli._write_text(tmp_path / "out.txt", "new\n")
        assert (tmp_path / "out.txt").read_bytes() == b"new\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_no_space_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old\n")
        before = target.stat().st_ino, target.read_bytes()
        monkeypatch.setattr(os, "posix_fallocate", enospc, raising=False)
        with pytest.raises(OSError) as info:
            cli._write_text(target, "new\n")
        assert info.value.errno == errno.ENOSPC
        assert (target.stat().st_ino, target.read_bytes()) == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_no_space_fails_fit_and_keeps_its_outputs(self, planted_dir, capsys, monkeypatch):
        config = str(planted_dir / "run.json")
        out = planted_dir / "out"
        assert run_cli(capsys, "fit", "--config", config)[0] in (0, 3)
        before = {name: ((out / name).stat().st_ino, (out / name).read_bytes()) for name in self.OUTPUTS}
        monkeypatch.setattr(os, "posix_fallocate", enospc, raising=False)
        code, stdout, err = run_cli(capsys, "fit", "--config", config)
        assert code == 1 and stdout == "" and json.loads(err)["type"] == "OSError"
        assert {name: ((out / name).stat().st_ino, (out / name).read_bytes()) for name in self.OUTPUTS} == before
        assert not list(out.glob("*.tmp"))

    def test_fit_preallocates_each_output_to_its_length(self, planted_dir, capsys, monkeypatch):
        real = getattr(os, "posix_fallocate", None)
        allocated = {}  # inode -> (offset, length); the rename keeps the inode

        def spy(fd, offset, length):
            allocated[os.fstat(fd).st_ino] = offset, length
            if real is not None:
                real(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", spy, raising=False)
        assert run_cli(capsys, "fit", "--config", str(planted_dir / "run.json"))[0] in (0, 3)
        for name in self.OUTPUTS:
            stat = (planted_dir / "out" / name).stat()
            assert stat.st_size > 0 and allocated[stat.st_ino] == (0, stat.st_size)

    def test_fits_in_a_row_give_the_same_bytes(self, planted_dir, capsys):
        config = str(planted_dir / "run.json")
        out = planted_dir / "out"
        runs = []
        for _ in range(2):
            code, stdout, _ = run_cli(capsys, "fit", "--config", config)
            runs.append((code, stdout, {name: (out / name).read_bytes() for name in self.OUTPUTS}))
            assert not list(out.glob("*.tmp"))
        assert runs[0] == runs[1]


class TestEvaluate:
    def write(self, path, rows):
        path.write_text("".join(f"{n}\t{l}\n" for n, l in rows))
        return path

    def test_perfect_labels(self, tmp_path, capsys):
        rows = [("n1", 0), ("n2", 1), ("n3", 1)]
        pred = self.write(tmp_path / "p.tsv", rows)
        truth = self.write(tmp_path / "t.tsv", rows)
        code, stdout, _ = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        metrics = json.loads(stdout)
        assert code == 0
        assert metrics["accuracy"] == metrics["macro_f1"] == metrics["nmi"] == 1.0

    def test_hand_case(self, tmp_path, capsys):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", 0), ("c", 1), ("d", 1)])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 1), ("c", 1), ("d", 1)])
        _, stdout, _ = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        metrics = json.loads(stdout)
        assert metrics["accuracy"] == 0.75
        assert metrics["macro_f1"] == pytest.approx(11 / 15, abs=1e-4)

    def test_swapping_files_keeps_nmi(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows_p = [(f"n{i}", int(rng.integers(0, 3))) for i in range(30)]
        rows_t = [(f"n{i}", int(rng.integers(0, 3))) for i in range(30)]
        pred = self.write(tmp_path / "p.tsv", rows_p)
        truth = self.write(tmp_path / "t.tsv", rows_t)
        _, out1, _ = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        _, out2, _ = run_cli(capsys, "evaluate", "--pred", str(truth), "--truth", str(pred))
        assert json.loads(out1)["nmi"] == json.loads(out2)["nmi"]

    def test_seed_exclusion_toggle(self, tmp_path, capsys):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", 1), ("c", 1)])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 0), ("c", 1)])
        seeds = self.write(tmp_path / "s.tsv", [("b", 0)])
        _, out_excl, _ = run_cli(
            capsys, "evaluate", "--pred", str(pred), "--truth", str(truth), "--seeds", str(seeds)
        )
        assert json.loads(out_excl)["n_evaluated"] == 2
        assert json.loads(out_excl)["accuracy"] == 1.0
        _, out_incl, _ = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert json.loads(out_incl)["n_evaluated"] == 3

    def test_unknown_seed_id_names_file_and_line(self, tmp_path, capsys):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", 1)])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 1)])
        seeds = self.write(tmp_path / "s.tsv", [("a", 0), ("zz", 0)])
        code, stdout, err = run_cli(
            capsys, "evaluate", "--pred", str(pred), "--truth", str(truth), "--seeds", str(seeds)
        )
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"] == f"{seeds} line 2: unknown node id 'zz'"

    def test_non_integer_label_names_file_and_line(self, tmp_path, capsys):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", "x")])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 1)])
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert code == 1
        error = json.loads(err)["error"]
        assert f"{pred} line 2" in error and "'x'" in error

    @pytest.mark.parametrize("label", ["1_0", " 3", "3 ", "+3", "\uff13", "-1"])
    def test_label_must_be_ascii_digits(self, tmp_path, capsys, label):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", label)])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 1)])
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert code == 1
        assert json.loads(err)["error"] == (
            f"{pred} line 2: cluster index {label!r} is not a non-negative integer"
        )

    @pytest.mark.parametrize(
        "label", ["9223372036854775808", "99999999999999999999", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_label_must_fit_in_int64(self, tmp_path, capsys, label):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", label)])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 1)])
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert code == 1
        assert json.loads(err)["error"] == f"{pred} line 2: cluster index {label} does not fit in int64"

    def test_largest_int64_label_is_read(self, tmp_path, capsys):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", "0009223372036854775807")])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 1)])
        code, stdout, _ = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert code == 0 and json.loads(stdout)["nmi"] == pytest.approx(1.0)  # a relabelling

    def test_id_mismatch_errors(self, tmp_path, capsys):
        pred = self.write(tmp_path / "p.tsv", [("a", 0)])
        truth = self.write(tmp_path / "t.tsv", [("b", 0)])
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert code == 1
        diag = json.loads(err)
        assert "ids differ" in diag["error"]


class TestErrors:
    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--config", "/nonexistent/run.json")
        assert code == 1
        assert json.loads(err)["type"] in ("FileNotFoundError", "ValueError")

    def test_broken_input_reports_json_diagnostic(self, planted_dir, capsys):
        (planted_dir / "nodes.tsv").write_text("broken line\n")
        code, _, err = run_cli(capsys, "transcribe", "--config", str(planted_dir / "run.json"))
        assert code == 1
        assert "line 1" in json.loads(err)["error"]

    @pytest.mark.parametrize("key", ["max_outer_iters", "max_inner_iters"])
    def test_iteration_cap_below_one_rejected(self, planted_dir, capsys, key):
        cfg_path = planted_dir / "run.json"
        config = json.loads(cfg_path.read_text())
        config[key] = 0
        cfg_path.write_text(json.dumps(config))
        code, stdout, err = run_cli(capsys, "fit", "--config", str(cfg_path))
        assert code == 1 and stdout == ""
        diag = json.loads(err)
        assert diag["type"] == "ValueError"
        assert key in diag["error"]

    def test_missing_clusters_key(self, planted_dir, capsys):
        cfg_path = planted_dir / "run.json"
        config = json.loads(cfg_path.read_text())
        del config["clusters"]
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "fit", "--config", str(cfg_path))
        assert code == 1
        diag = json.loads(err)
        assert diag["type"] == "ValueError"
        assert "missing config key 'clusters'" in diag["error"]


    def test_unknown_seed_node_names_the_seeds_file(self, planted_dir, capsys):
        seeds = planted_dir / "seeds.tsv"
        seeds.write_text(seeds.read_text() + "nosuchnode\t0\n")
        code, stdout, err = run_cli(capsys, "fit", "--config", str(planted_dir / "run.json"))
        assert code == 1 and stdout == ""
        diag = json.loads(err)
        assert diag["type"] == "ValueError"
        assert str(seeds) in diag["error"] and "'nosuchnode'" in diag["error"]

    @pytest.mark.parametrize("kind", ["run", "params"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (b"5", "top level must be a JSON object, got int"),
            (b'"nodes"', "top level must be a JSON object, got str"),
            (b"[]", "top level must be a JSON object, got list"),
            (b"null", "top level must be a JSON object, got NoneType"),
            (b"{", "not valid JSON"),
            (b"", "not valid JSON"),
            (b"\xff{}", "not valid JSON"),  # not UTF-8
        ],
    )
    def test_config_not_a_json_object(self, planted_dir, capsys, kind, text, message):
        """A run.json or gen-planted params file must hold one JSON object."""
        path = planted_dir / f"{kind}.json"
        path.write_bytes(text)
        out = planted_dir / "data"
        if kind == "run":
            argv = ["transcribe", "--config", str(path)]
        else:
            argv = ["gen-planted", "--params", str(path), "--out", str(out)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1 and stdout == "" and not out.exists()
        diag = json.loads(err)
        assert diag["type"] == "ValueError"
        assert diag["error"].startswith(f"{path}: ") and message in diag["error"]

    def test_unknown_config_key_rejected(self, planted_dir, capsys):
        cfg_path = planted_dir / "run.json"
        config = json.loads(cfg_path.read_text())
        # A misspelt max_outer_iters, and two former knobs that are now constants.
        for key, value in (("max_outer_iter", 2), ("eps_div", 1e-12), ("pgd_step", 0.1)):
            cfg_path.write_text(json.dumps(dict(config, **{key: value})))
            code, stdout, err = run_cli(capsys, "fit", "--config", str(cfg_path))
            assert code == 1 and stdout == ""
            diag = json.loads(err)
            assert diag["type"] == "ValueError"
            assert "unknown config key" in diag["error"] and repr(key) in diag["error"]


class TestLogLevel:
    def test_info_reaches_stderr_without_stacking(self, planted_dir, capsys):
        config = str(planted_dir / "run.json")
        package_log = logging.getLogger("motifclust")
        handlers = None
        for message in ("transcribed", "read from cache", "read from cache"):
            code, _, err = run_cli(capsys, "--log-level", "INFO", "transcribe", "--config", config)
            assert code == 0
            lines = err.splitlines()
            assert len(lines) == 1 and message in lines[0]  # one motif, one line
            handlers = handlers or list(package_log.handlers)
            assert package_log.handlers == handlers == []  # main removes its handler
        code, _, err = run_cli(capsys, "--log-level", "DEBUG", "fit", "--config", config)
        assert "iteration 1: objective" in err and "fit " in err
        code, _, err = run_cli(capsys, "fit", "--config", config)  # default WARNING
        assert code in (0, 3) and err == ""
        assert package_log.handlers == handlers
        code, _, _ = run_cli(capsys, "fit", "--config", str(planted_dir / "missing.json"))
        assert code == 1 and package_log.handlers == []


class TestRunConfig:
    def _write(self, planted_dir, **hyper):
        config = json.loads((planted_dir / "run.json").read_text())
        for key in ("clusters", "init_seed", "seed_boost"):
            del config[key]
        config.update(hyper)
        path = planted_dir / "run.json"
        path.write_text(json.dumps(config))
        return path

    def test_only_clusters_gives_defaults(self, planted_dir):
        path = self._write(planted_dir, clusters=4)
        assert RunConfig.from_json(path).hyper == Hyperparameters(n_clusters=4)

    def test_values_take_the_field_type(self, planted_dir):
        path = self._write(
            planted_dir, clusters=3, mask_penalty=5, max_outer_iters=7, init_seed=3
        )
        hyper = RunConfig.from_json(path).hyper
        assert hyper == Hyperparameters(
            n_clusters=3, mask_penalty=5.0, max_outer_iters=7, init_seed=3
        )
        assert type(hyper.mask_penalty) is float and type(hyper.max_outer_iters) is int

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("max_outer_iters", 2.5, "max_outer_iters must be an integer, got 2.5"),
            ("max_inner_iters", 7.0, "max_inner_iters must be an integer, got 7.0"),
            ("clusters", 3.7, "clusters must be an integer, got 3.7"),
            ("clusters", True, "clusters must be an integer, got true"),
            ("init_seed", "3", "init_seed must be an integer"),
            ("threads", 1, "unknown config key(s) ['threads']"),
            ("mask_penalty", "5", "mask_penalty must be a number"),
            ("seed_boost", True, "seed_boost must be a number"),
            ("outer_tol", float("nan"), "outer_tol must be finite"),
            ("l1_weight", float("inf"), "l1_weight must be finite"),
            ("consensus_weight", float("-inf"), "consensus_weight must be finite"),
            ("clusters", 1, "n_clusters must be at least 2"),
            ("mask_penalty", -1, "mask_penalty must be non-negative"),
            ("seed_boost", 0.5, "seed_boost must be at least 1"),
            ("seed_boost", -3, "seed_boost must be at least 1"),
            ("init_seed", -1, "init_seed must be non-negative"),
            ("motifs", "motif_pair.json", "motifs must be a list of strings, got \"motif_pair.json\""),
            ("motifs", 5, "motifs must be a list of strings, got 5"),
            ("motifs", [], "config lists no motifs"),
            ("nodes", 5, "nodes must be a string, got 5"),
            ("edges", ["edges.tsv"], "edges must be a string"),
            ("seeds", None, "seeds must be a string, got null"),
            ("out_dir", 1, "out_dir must be a string"),
            ("tensor_dir", False, "tensor_dir must be a string, got false"),
        ],
    )
    def test_non_numbers_rejected(self, planted_dir, capsys, knob, value, message):
        path = self._write(planted_dir, **{"clusters": 2, knob: value})
        code, stdout, err = run_cli(capsys, "transcribe", "--config", str(path))
        assert code == 1 and stdout == "" and not (planted_dir / "tensors").exists()
        diag = json.loads(err)
        assert diag["type"] == "ValueError" and message in diag["error"]
        assert diag["error"].startswith(f"{path}: ")
