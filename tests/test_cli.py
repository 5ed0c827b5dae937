import hashlib
import json
import logging
import re

import numpy as np
import pytest

import motifclust.cli as cli
from motifclust.cli import RunConfig, main
from motifclust.model import Hyperparameters
from motifclust.tensors import SparseTensor

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

# sha256 of the transcribe outputs for default gen-planted params; a change
# to these bytes must also change cli.CACHE_FORMAT.
DEFAULT_TENSOR_SHA256 = {
    "tensor_pair.tsv": "43b56b894a0bf76c2eb63c278a36e1560e97a37bd37ea98ed979110513261695",
    "tensor_quad.tsv": "46815d573a914d0ee1c4a18a8cc76290008f372b63963065839ea1f646eb85b1",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert set(before) == {"tensor_pair.tsv", "manifest.json"}
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert snapshot() == before

    def test_crash_mid_rebuild_is_not_served_after_revert(self, planted_dir, capsys, monkeypatch):
        config = planted_dir / "run.json"
        edges = planted_dir / "edges.tsv"
        tensor_file = planted_dir / "tensors" / "tensor_pair.tsv"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        tensor_a, edges_a = tensor_file.read_bytes(), edges.read_text()
        edges.write_text("".join(edges_a.splitlines(keepends=True)[:-1]))  # inputs B

        def die_mid_write(tensor, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(SparseTensor, "write_tsv", die_mid_write)
            assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 1
        assert not tensor_file.with_name("tensor_pair.tsv.tmp").exists()
        edges.write_text(edges_a)  # back to inputs A
        enumerated = []
        real = cli.enumerate_instances
        monkeypatch.setattr(
            cli, "enumerate_instances", lambda *a, **k: enumerated.append(1) or real(*a, **k)
        )
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert enumerated == [1]  # rebuilt, not served from the cache
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

    def test_tagless_key_is_rebuilt(self, planted_dir, capsys, monkeypatch):
        """A manifest entry keyed without the cache format tag is not served."""
        config = planted_dir / "run.json"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        manifest_file = planted_dir / "tensors" / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        h = hashlib.sha256()
        for name in ("nodes.tsv", "edges.tsv", "motif_pair.json"):
            h.update((planted_dir / name).read_bytes())
            h.update(b"\x00")
        manifest["pair"]["key"] = h.hexdigest()
        manifest_file.write_text(json.dumps(manifest))
        enumerated = []
        real = cli.enumerate_instances
        monkeypatch.setattr(
            cli, "enumerate_instances", lambda *a, **k: enumerated.append(1) or real(*a, **k)
        )
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert enumerated == [1]
        assert json.loads(manifest_file.read_text())["pair"]["key"] != h.hexdigest()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(
                lambda text: text[: text.rstrip("\n").rfind("\n") + 1], id="last_row_dropped"
            ),
            pytest.param(lambda text: text[: len(text) - 3], id="cut_mid_row"),
            pytest.param(lambda text: text.replace("#dims 20", "#dims 21", 1), id="dims_changed"),
            # same dims and nnz: only the file's sha256 tells it apart
            pytest.param(lambda text: text.replace("\t1\n", "\t2\n", 1), id="value_edited"),
        ],
    )
    def test_tensor_disagreeing_with_manifest_is_rebuilt(
        self, planted_dir, capsys, monkeypatch, damage
    ):
        config = planted_dir / "run.json"
        tensor_file = planted_dir / "tensors" / "tensor_pair.tsv"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        original = tensor_file.read_bytes()
        tensor_file.write_text(damage(original.decode()))
        enumerated = []
        real = cli.enumerate_instances
        monkeypatch.setattr(
            cli, "enumerate_instances", lambda *a, **k: enumerated.append(1) or real(*a, **k)
        )
        code, _, err = run_cli(capsys, "transcribe", "--config", str(config))
        assert code == 0 and "rebuilding the cached tensor" in err
        assert enumerated == [1]
        assert tensor_file.read_bytes() == original

    def test_entry_without_hash_is_rebuilt(self, planted_dir, capsys, monkeypatch):
        config = planted_dir / "run.json"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        manifest_file = planted_dir / "tensors" / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        digest = manifest["pair"].pop("sha256")
        manifest_file.write_text(json.dumps(manifest))
        enumerated = []
        real = cli.enumerate_instances
        monkeypatch.setattr(
            cli, "enumerate_instances", lambda *a, **k: enumerated.append(1) or real(*a, **k)
        )
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert enumerated == [1]
        assert json.loads(manifest_file.read_text())["pair"]["sha256"] == digest

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

    def test_cache_invalidated_by_input_change(self, planted_dir, capsys):
        config = planted_dir / "run.json"
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        manifest_file = planted_dir / "tensors" / "manifest.json"
        key_before = json.loads(manifest_file.read_text())["pair"]["key"]
        edges = planted_dir / "edges.tsv"
        text = edges.read_text().splitlines()
        edges.write_text("\n".join(text[:-1]) + "\n")
        assert run_cli(capsys, "transcribe", "--config", str(config))[0] == 0
        assert json.loads(manifest_file.read_text())["pair"]["key"] != key_before


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
        }

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
        _, out_incl, _ = run_cli(
            capsys, "evaluate", "--pred", str(pred), "--truth", str(truth),
            "--seeds", str(seeds), "--include-seeds",
        )
        assert json.loads(out_incl)["n_evaluated"] == 3

    def test_non_integer_label_names_file_and_line(self, tmp_path, capsys):
        pred = self.write(tmp_path / "p.tsv", [("a", 0), ("b", "x")])
        truth = self.write(tmp_path / "t.tsv", [("a", 0), ("b", 1)])
        code, _, err = run_cli(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert code == 1
        error = json.loads(err)["error"]
        assert f"{pred} line 2" in error and "'x'" in error

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


    def test_unknown_config_key_rejected(self, planted_dir, capsys):
        cfg_path = planted_dir / "run.json"
        config = json.loads(cfg_path.read_text())
        config["max_outer_iter"] = 2  # misspelt max_outer_iters
        cfg_path.write_text(json.dumps(config))
        code, stdout, err = run_cli(capsys, "fit", "--config", str(cfg_path))
        assert code == 1 and stdout == ""
        diag = json.loads(err)
        assert diag["type"] == "ValueError"
        assert "unknown config key" in diag["error"] and "max_outer_iter" in diag["error"]


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
            assert package_log.handlers == handlers
        code, _, err = run_cli(capsys, "--log-level", "DEBUG", "fit", "--config", config)
        assert "iteration 1: objective" in err and "fit " in err
        code, _, err = run_cli(capsys, "fit", "--config", config)  # default WARNING
        assert code in (0, 3) and err == ""
        assert package_log.handlers == handlers


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
            ("threads", 1.5, "threads must be an integer"),
            ("mask_penalty", "5", "mask_penalty must be a number"),
            ("seed_boost", True, "seed_boost must be a number"),
            ("outer_tol", float("nan"), "outer_tol must be finite"),
            ("l1_weight", float("inf"), "l1_weight must be finite"),
            ("consensus_weight", float("-inf"), "consensus_weight must be finite"),
        ],
    )
    def test_non_numbers_rejected(self, planted_dir, capsys, knob, value, message):
        path = self._write(planted_dir, **{"clusters": 2, knob: value})
        code, stdout, err = run_cli(capsys, "transcribe", "--config", str(path))
        assert code == 1 and stdout == "" and not (planted_dir / "tensors").exists()
        diag = json.loads(err)
        assert diag["type"] == "ValueError" and message in diag["error"]
