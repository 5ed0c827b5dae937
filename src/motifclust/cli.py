"""Batch command line: transcribe motifs to tensors, fit, evaluate, generate.

Subcommands:
  transcribe   enumerate each motif and write its sparse tensor + manifest
  fit          run the full pipeline and write consensus/labels/weights/log
  evaluate     compare predicted labels against ground truth, print JSON
  gen-planted  write a synthetic planted-block dataset and a ready run config

Tensor files are cached: each motif's tensor carries a content hash of the
node/edge files and the motif spec, and is rebuilt when that changes or when
the file's sha256 differs from the one its manifest entry records.
Errors exit nonzero with a one-line JSON diagnostic on stderr; `fit` exits 0
on convergence and 3 when it stops at the iteration cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path


from .hin import load_hin, write_hin
from .metrics import accuracy_micro_f1, macro_f1, nmi
from .model import Hyperparameters, assign_clusters, fit, init_model
from .motifs import enumerate_instances, load_motif, transcribe
from .planted import MotifTemplate, PlantedConfig, generate_planted_hin
from .tensors import SparseTensor

EXIT_MAX_ITERS = 3
RUN_KEYS = ("nodes", "edges", "motifs", "seeds", "out_dir", "tensor_dir", "clusters", "threads")
# gen-planted params named other than their PlantedConfig field.
PARAM_KEYS = {"n_clusters": "clusters", "type_names": "types"}
# Hashed into every tensor cache key: a change to the tensor file format or
# to what a tensor means must change this, so no older file is served.
CACHE_FORMAT = b"tsv-1"
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    nodes: Path
    edges: Path
    motifs: list[Path]
    seeds: Path
    out_dir: Path
    tensor_dir: Path
    hyper: Hyperparameters
    threads: int  # validated but unused; benchmarks/run.py reports it

    @classmethod
    def from_json(cls, path):
        path = Path(path)
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        base = path.parent
        knob_names = {f.name for f in fields(Hyperparameters)} - {"n_clusters"}
        unknown = sorted(set(raw) - set(RUN_KEYS) - knob_names)
        if unknown:
            raise ValueError(f"{path}: unknown config key(s) {unknown}")

        def need(key):
            if key not in raw:
                raise ValueError(f"{path}: missing config key {key!r}")
            return raw[key]

        motifs = [base / p for p in raw.get("motifs", [])]
        if not motifs:
            raise ValueError(f"{path}: config lists no motifs")
        # Every other Hyperparameters field is read under its own name, with
        # the type of its default; absent keys keep the dataclass default.
        knobs = {
            f.name: _typed(path, f.name, raw[f.name], type(f.default))
            for f in fields(Hyperparameters)
            if f.name in knob_names and f.name in raw
        }
        hyper = Hyperparameters(n_clusters=_typed(path, "clusters", need("clusters"), int), **knobs)
        cfg = cls(
            nodes=base / need("nodes"),
            edges=base / need("edges"),
            motifs=motifs,
            seeds=base / need("seeds"),
            out_dir=base / raw.get("out_dir", "out"),
            tensor_dir=base / raw.get("tensor_dir", "tensors"),
            hyper=hyper,
            threads=_typed(path, "threads", raw.get("threads", 0), int) or (os.cpu_count() or 1),
        )
        for p in [cfg.nodes, cfg.edges, cfg.seeds, *cfg.motifs]:
            if not p.is_file():
                raise ValueError(f"{path}: referenced file {p} does not exist")
        return cfg


def _typed(path, key, value, kind):
    """A JSON config value as field type `kind`: an int field takes only a JSON
    integer, a float field any JSON number (a boolean is neither) and a tuple
    field a JSON list of strings."""
    if kind is tuple:
        if type(value) is not list or not all(type(v) is str for v in value):
            raise ValueError(f"{path}: {key} must be a list of strings, got {json.dumps(value)}")
    elif kind in (int, float) and type(value) not in (int, kind):
        wanted = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {key} must be {wanted}, got {json.dumps(value)}")
    return kind(value)


def _fmt(x):
    return format(float(x), ".12g")


def _content_key(config, motif_path):
    h = hashlib.sha256(CACHE_FORMAT + b"\x00")
    for p in (config.nodes, config.edges, motif_path):
        h.update(p.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def _file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_atomic(path, write):
    """`write(tmp)` then rename over `path`, so a crash leaves the old file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_manifest(config, manifest):
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_atomic(
        config.tensor_dir / "manifest.json",
        lambda tmp: tmp.write_text(text, encoding="utf-8", newline="\n"),
    )


def _read_manifest(config):
    manifest_path = config.tensor_dir / "manifest.json"
    if manifest_path.is_file():
        with open(manifest_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def _ensure_tensors(config):
    """Return (hin, motifs, tensors), transcribing only what the cache lacks."""
    hin = load_hin(config.nodes, config.edges)
    motifs = [load_motif(p, hin) for p in config.motifs]
    names = [m.name for m in motifs]
    if len(set(names)) != len(names):
        raise ValueError("motif names must be unique")
    config.tensor_dir.mkdir(parents=True, exist_ok=True)
    manifest = _read_manifest(config)
    tensors = []
    rebuilt = 0
    for motif, path in zip(motifs, config.motifs):
        key = _content_key(config, path)
        entry = manifest.get(motif.name)
        tensor_file = config.tensor_dir / f"tensor_{motif.name}.tsv"
        if entry and entry.get("key") == key and tensor_file.is_file():
            try:  # served only if its bytes and contents are as the manifest records
                if _file_sha256(tensor_file) != entry.get("sha256"):
                    raise ValueError(f"{tensor_file}: sha256 differs from the manifest")
                tensor = SparseTensor.read_tsv(tensor_file)
                got = [list(tensor.dims), tensor.nnz]
                if got != [entry.get("dims"), entry.get("nnz")]:
                    raise ValueError(f"{tensor_file}: dims and nnz {got} differ from the manifest")
            except ValueError as exc:
                log.warning("motif %r: rebuilding the cached tensor: %s", motif.name, exc)
            else:
                log.info("motif %r: tensor read from cache", motif.name)
                tensors.append(tensor)
                continue
        if not rebuilt:
            for stale in config.tensor_dir.glob("*.tmp"):
                stale.unlink()  # left by a run killed mid-write
        if manifest.pop(motif.name, None) is not None:
            _write_manifest(config, manifest)  # never trust a half-rebuilt entry
        start = time.perf_counter()
        instances = enumerate_instances(hin, motif)
        tensor = transcribe(instances, hin)
        elapsed = time.perf_counter() - start
        log.info("motif %r: %d nonzeros transcribed in %.3f s", motif.name, tensor.nnz, elapsed)
        _write_atomic(tensor_file, tensor.write_tsv)
        manifest[motif.name] = {
            "file": tensor_file.name,
            "dims": list(tensor.dims),
            "nnz": tensor.nnz,
            "wall_time_s": round(elapsed, 6),
            "key": key,
            "sha256": _file_sha256(tensor_file),
        }
        tensors.append(tensor)
        rebuilt += 1
    if rebuilt:
        _write_manifest(config, manifest)
    return hin, motifs, tensors


def _read_labels_tsv(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path} line {lineno}: expected 2 columns")
            node_id, label = parts
            if node_id in out:
                raise ValueError(f"{path} line {lineno}: duplicate node id {node_id!r}")
            try:
                out[node_id] = int(label)
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: cluster index {label!r} is not an integer"
                ) from None
    return out


def cmd_transcribe(args):
    config = RunConfig.from_json(args.config)
    _, motifs, tensors = _ensure_tensors(config)
    report = {
        m.name: {"nnz": t.nnz, "dims": list(t.dims)} for m, t in zip(motifs, tensors)
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_fit(args):
    config = RunConfig.from_json(args.config)
    hin, motifs, tensors = _ensure_tensors(config)
    seeds = _read_labels_tsv(config.seeds)
    state = init_model(hin, motifs, tensors, seeds, config.hyper)
    result = fit(state)
    assignments = assign_clusters(state)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    with open(config.out_dir / "consensus.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for t, assign in sorted(assignments.items()):
            tname = hin.type_names[t]
            for j, node in enumerate(hin.nodes_of_type(t)):
                row = "\t".join(_fmt(x) for x in assign.consensus[:, j])
                fh.write(f"{tname}\t{node}\t{row}\n")
    with open(config.out_dir / "labels.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for t, assign in sorted(assignments.items()):
            for j, node in enumerate(hin.nodes_of_type(t)):
                fh.write(f"{node}\t{int(assign.labels[j])}\n")
    with open(config.out_dir / "weights.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for name, w in zip(state.motif_names, state.mu):
            fh.write(f"{name}\t{_fmt(w)}\n")
    with open(config.out_dir / "history.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        mu_cols = [f"mu_{name}" for name in state.motif_names]
        writer.writerow(
            ["iter", "obj", "residual", "l1", "consensus_gap", "seed_penalty", *mu_cols]
        )
        for rec in result.history:
            writer.writerow(
                [
                    rec.iteration,
                    _fmt(rec.objective),
                    _fmt(rec.residual),
                    _fmt(rec.l1),
                    _fmt(rec.consensus_gap),
                    _fmt(rec.seed_penalty),
                    *[_fmt(w) for w in rec.weights],
                ]
            )
    summary = {
        "converged": result.converged,
        "outer_iterations": len(result.history),
        "objective": float(result.history[-1].objective),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if result.converged else EXIT_MAX_ITERS


def cmd_evaluate(args):
    pred = _read_labels_tsv(args.pred)
    truth = _read_labels_tsv(args.truth)
    if set(pred) != set(truth):
        only_pred = sorted(set(pred) - set(truth))[:3]
        only_truth = sorted(set(truth) - set(pred))[:3]
        raise ValueError(
            f"node ids differ between files (e.g. only in --pred: {only_pred}, "
            f"only in --truth: {only_truth})"
        )
    excluded = set()
    if args.seeds and not args.include_seeds:
        excluded = set(_read_labels_tsv(args.seeds))
    ids = sorted(set(pred) - excluded)
    if not ids:
        raise ValueError("no nodes left to evaluate")
    p = [pred[i] for i in ids]
    t = [truth[i] for i in ids]
    acc = accuracy_micro_f1(p, t)
    report = {
        "accuracy": acc,
        "micro_f1": acc,
        "macro_f1": macro_f1(p, t),
        "nmi": nmi(p, t),
        "n_evaluated": len(ids),
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def _template_from_dict(path, raw):
    where = f"{path}: template {raw.get('name')!r}"
    unknown = sorted(set(raw) - {f.name for f in fields(MotifTemplate)})
    if unknown:
        raise ValueError(f"{where}: unknown template key(s) {unknown}")
    if not isinstance(raw.get("signal", True), bool):
        raise ValueError(f"{where}: signal must be true or false")
    edges = []
    for edge in raw["edges"]:
        if type(edge) is not list or len(edge) != 3 or type(edge[2]) is not str:
            raise ValueError(f"{where}: edge {json.dumps(edge)} is not [int, int, edge type name]")
        edges.append((*(_typed(where, "an edge position", i, int) for i in edge[:2]), edge[2]))
    return MotifTemplate(
        name=raw["name"],
        node_types=_typed(where, "node_types", raw["node_types"], tuple),
        edges=tuple(edges),
        signal=raw.get("signal", True),
        instances_per_block=raw.get("instances_per_block"),
    )


def cmd_gen_planted(args):
    with open(args.params, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    unknown = sorted(set(raw) - {PARAM_KEYS.get(f.name, f.name) for f in fields(PlantedConfig)})
    if unknown:
        raise ValueError(f"{args.params}: unknown params key(s) {unknown}")
    # Each PlantedConfig field is read under its params key, with the type of
    # its default; absent keys keep the dataclass default.
    kwargs = {}
    for f in fields(PlantedConfig):
        key = PARAM_KEYS.get(f.name, f.name)
        if key not in raw:
            continue
        if f.name == "templates":
            kwargs[f.name] = tuple(_template_from_dict(args.params, t) for t in raw[key])
        else:
            kwargs[f.name] = _typed(args.params, key, raw[key], type(f.default))
    config = PlantedConfig(**kwargs)
    data = generate_planted_hin(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_hin(data.hin, out / "nodes.tsv", out / "edges.tsv")
    with open(out / "truth.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for node in sorted(data.labels):
            fh.write(f"{node}\t{data.labels[node]}\n")
    with open(out / "seeds.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for node in sorted(data.seeds):
            fh.write(f"{node}\t{data.seeds[node]}\n")
    motif_files = []
    for template in config.templates:
        name = f"motif_{template.name}.json"
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(template.motif_spec(), fh, indent=2)
            fh.write("\n")
        motif_files.append(name)
    run = {
        "nodes": "nodes.tsv",
        "edges": "edges.tsv",
        "motifs": motif_files,
        "seeds": "seeds.tsv",
        "out_dir": "out",
        "tensor_dir": "tensors",
        "clusters": config.n_clusters,
        "init_seed": 0,
        "seed_boost": 10.0,
    }
    with open(out / "run.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(run, fh, indent=2)
        fh.write("\n")
    print(
        json.dumps(
            {
                "nodes": sum(len(ns) for ns in data.hin.nodes_by_type),
                "edges": len(data.hin.edges),
                "seeds": len(data.seeds),
                "instances": {k: int(v.shape[0]) for k, v in data.instances.items()},
            },
            sort_keys=True,
        )
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="motifclust",
        description="Seed-guided clustering of typed graphs via motif tensors",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="WARNING",
        help="level of the motifclust log messages written to stderr (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transcribe", help="enumerate motifs and write tensor files")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_transcribe)

    p = sub.add_parser("fit", help="run the pipeline and write model outputs")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--seeds")
    p.add_argument("--include-seeds", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-planted", help="generate a planted-block benchmark dataset")
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_planted)
    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever `sys.stderr` is when a record is emitted."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


_LOG_HANDLER = _StderrHandler()


def main(argv=None):
    args = build_parser().parse_args(argv)
    package_log = logging.getLogger(__package__)
    package_log.setLevel(args.log_level)
    package_log.addHandler(_LOG_HANDLER)  # a no-op when main runs again
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(
            json.dumps({"error": str(exc), "type": type(exc).__name__}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
