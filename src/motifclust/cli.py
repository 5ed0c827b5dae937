"""Batch command line: transcribe motifs to tensors, fit, evaluate, generate.

Subcommands:
  transcribe   enumerate each motif and write its sparse tensor + manifest
  fit          run the full pipeline and write consensus/labels/weights/log
  evaluate     compare predicted labels against ground truth, print JSON
  gen-planted  write a synthetic planted-block dataset and a ready run config

The tensor directory caches one file, `graph.npz`: the graph keyed by the
hash of the node/edge files, and every motif's tensor keyed by the hash of
the motif files, so a warm run parses no graph text and enumerates no motif.
On any miss, every motif is enumerated again and exported as a
`tensor_<name>.tsv` with a `manifest.json`, which no command reads back.
Errors exit nonzero with a one-line JSON diagnostic on stderr. `fit` names
why it stopped as the `stop_reason` of its summary: it exits 0 on
"tolerance" (the objective settled) or "stable_labels" (no label moved for
`stable_iters` iterations), and 3 on "max_iters" (the iteration cap).
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .hin import _first_fault, _node_lines, _read_table, _repeats, load_hin, read_snapshot, write_hin, write_snapshot
from .metrics import accuracy_micro_f1, macro_f1, nmi
from .model import Hyperparameters, assign_clusters, fit, init_model
from .motifs import enumerate_instances, load_motif, transcribe
from .planted import MotifTemplate, PlantedConfig, generate_planted_hin

EXIT_MAX_ITERS = 3
# The largest cluster index a labels file may hold, as digits: compared as
# text, since `int` refuses a string of more than 4,300 digits.
INT64_MAX = str(np.iinfo(np.int64).max)
RUN_KEYS = ("nodes", "edges", "motifs", "seeds", "out_dir", "tensor_dir", "clusters")
# Dataclass fields read from run.json or params under another key.
FIELD_KEYS = {"n_clusters": "clusters", "type_names": "types"}
# Hashed into both keys of the snapshot: a change to its layout, or to what a
# tensor means, must change this, so no older file is served.
CACHE_FORMAT = b"npz-3"
GRAPH_SNAPSHOT = "graph.npz"  # in the tensor directory, its one cache file
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
    threads = 1  # not a field: enumeration runs on one thread; benchmarks/run.py reports it

    @classmethod
    def from_json(cls, path):
        path = Path(path)
        raw = _read_object(path)
        base = path.parent
        _check_keys(path, raw, "config", Hyperparameters, RUN_KEYS)

        def get(key, kind, default=None):  # a None default: the key is required
            if key in raw:
                return _typed(path, key, raw[key], kind)
            if default is None:
                raise ValueError(f"{path}: missing config key {key!r}")
            return default

        motifs = [base / p for p in get("motifs", tuple, ())]
        if not motifs:
            raise ValueError(f"{path}: config lists no motifs")
        knobs = _read_fields(path, raw, Hyperparameters)
        knobs["n_clusters"] = get("clusters", int)
        try:
            hyper = Hyperparameters(**knobs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        cfg = cls(
            nodes=base / get("nodes", str),
            edges=base / get("edges", str),
            motifs=motifs,
            seeds=base / get("seeds", str),
            out_dir=base / get("out_dir", str, "out"),
            tensor_dir=base / get("tensor_dir", str, "tensors"),
            hyper=hyper,
        )
        for p in [cfg.nodes, cfg.edges, cfg.seeds, *cfg.motifs]:
            if not p.is_file():
                raise ValueError(f"{path}: referenced file {p} does not exist")
        return cfg


def _read_object(path):
    """The JSON object in file `path`; anything else raises a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if type(raw) is not dict:
        raise ValueError(f"{path}: top level must be a JSON object, got {type(raw).__name__}")
    return raw


def _check_keys(where, raw, what, cls, extra=()):
    """Refuse any key of `raw` that is neither a field key of dataclass `cls`
    (see `_read_fields`) nor in `extra`."""
    unknown = sorted(set(raw) - {FIELD_KEYS.get(f.name, f.name) for f in fields(cls)} - set(extra))
    if unknown:
        raise ValueError(f"{where}: unknown {what} key(s) {unknown}")


def _read_fields(path, raw, cls):
    """Keyword arguments for dataclass `cls` from the JSON object `raw`: each
    field with a plain default is read under its key (its name, or its
    FIELD_KEYS entry) and typed as its default; an absent key keeps the default."""
    return {
        f.name: _typed(path, key, raw[key], type(f.default))
        for f in fields(cls)
        if f.default is not MISSING and (key := FIELD_KEYS.get(f.name, f.name)) in raw
    }


def _typed(path, key, value, kind):
    """A JSON config value as field type `kind`: an int field takes only a JSON
    integer, a float field any JSON number (a boolean is neither), a str field
    a JSON string and a tuple field a JSON list of strings."""
    if kind is tuple:
        if type(value) is not list or not all(type(v) is str for v in value):
            raise ValueError(f"{path}: {key} must be a list of strings, got {json.dumps(value)}")
    elif kind is str and type(value) is not str:
        raise ValueError(f"{path}: {key} must be a string, got {json.dumps(value)}")
    elif kind in (int, float) and type(value) not in (int, kind):
        wanted = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {key} must be {wanted}, got {json.dumps(value)}")
    return kind(value)


def _fmt(x):
    return format(float(x), ".12g")


def _fmt_rows(matrix):
    """`_fmt` of each entry of the 2-D `matrix`, tab-joined, one format per row."""
    row = "\t".join(["%.12g"] * matrix.shape[1])
    return [row % tuple(entries) for entries in matrix.tolist()]


def _key(paths):
    """sha256 of the cache format tag and the files `paths`, each followed by a NUL byte."""
    h = hashlib.sha256(CACHE_FORMAT + b"\x00")
    for p in paths:
        h.update(p.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def _write_atomic(path, write):
    """`write(tmp)` then rename over `path`, so a crash leaves the old file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_text(path, text):
    """`text` as UTF-8 with no newline translation, through `_write_atomic`, into a
    preallocated file: ext4 then starts no write-out when the rename replaces one."""
    data = text.encode("utf-8")

    def write(tmp):
        with open(tmp, "wb") as f:
            if data and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(f.fileno(), 0, len(data))
                except OSError as exc:
                    if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):  # ENOSPC propagates
                        raise
            f.write(data)

    _write_atomic(path, write)


def _write_json(path, obj, **kwargs):
    _write_text(path, json.dumps(obj, indent=2, **kwargs) + "\n")


def _ensure_tensors(config):
    """Return (hin, motifs, tensors), serving the graph and the tensors from
    the snapshot when it holds their keys. On a miss, every motif is
    enumerated, exported, and stored with the graph in a new snapshot, the
    last file written; no other motif's export is left beside it."""
    keys = _key([config.nodes, config.edges]), _key(config.motifs)
    snapshot = config.tensor_dir / GRAPH_SNAPSHOT
    hin = stored = None
    if snapshot.is_file():
        try:
            hin, stored = read_snapshot(snapshot, *keys, config.edges)
            log.debug("graph read from the snapshot %s", snapshot)
        except ValueError as exc:
            log.warning("%s: ignoring the graph snapshot: %s", snapshot, exc)
    if hin is None:
        hin = load_hin(config.nodes, config.edges)
        log.debug("graph parsed from %s and %s", config.nodes, config.edges)
    motifs = [load_motif(p, hin) for p in config.motifs]
    names = [m.name for m in motifs]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"{config.motifs[k]}: motif {name!r} has the name of the motif in "
                             f"{config.motifs[names.index(name)]}, and motif names must be unique")
    if stored is not None:
        want = [(m.name, tuple(hin.num_nodes(t) for t in m.node_types)) for m in motifs]
        got = [(name, t.dims) for name, t in stored.items()]
        if got == want:
            for name in names:
                log.info("motif %r: tensor read from cache", name)
            return hin, motifs, list(stored.values())
        log.warning("%s: ignoring the snapshot's tensors: it holds %s, the motifs are %s",
                    snapshot, got, want)
    config.tensor_dir.mkdir(parents=True, exist_ok=True)
    # The snapshot first, so none sits beside exports it did not write; no export rename replaces a file.
    for stale in [snapshot, *config.tensor_dir.glob("*.tmp"), *config.tensor_dir.glob("tensor_*.tsv")]:
        stale.unlink(missing_ok=True)
    tensors, manifest = {}, {}
    for motif in motifs:
        start = time.perf_counter()
        tensor = transcribe(hin, motif, enumerate_instances(hin, motif))
        elapsed = time.perf_counter() - start
        log.info("motif %r: %d nonzeros transcribed in %.3f s", motif.name, tensor.nnz, elapsed)
        tensor_file = config.tensor_dir / f"tensor_{motif.name}.tsv"
        _write_atomic(tensor_file, tensor.write_tsv)
        manifest[motif.name] = {
            "file": tensor_file.name,
            "dims": list(tensor.dims),
            "nnz": tensor.nnz,
            "wall_time_s": round(elapsed, 6),
        }
        tensors[motif.name] = tensor
    _write_json(config.tensor_dir / "manifest.json", manifest, sort_keys=True)
    _write_atomic(snapshot, lambda tmp: write_snapshot(hin, tensors, tmp, *keys))
    return hin, motifs, list(tensors.values())


def _read_labels_tsv(path, known=None):
    """`{node id: cluster index}` from a two-column labels file; with `known`,
    every id must be one of its keys. A bad line raises a ValueError naming it."""
    out = {}
    for numbers, counts, (ids, labels), _ in _read_table(path, 2):
        n = len(ids)
        unknown = np.zeros(n, bool) if known is None else ~np.fromiter(map(known.__contains__, ids), bool, n)
        # ASCII [0-9]+: `str.isdigit` alone also takes other digits, such as "\uff13".
        digits = np.fromiter(map(str.isdigit, labels), bool, n) & np.fromiter(map(str.isascii, labels), bool, n)
        wide = np.fromiter(
            (ok and (len(t := s.lstrip("0")), t) > (len(INT64_MAX), INT64_MAX) for ok, s in zip(digits, labels)),
            bool,
            n,
        )
        fault = _first_fault([
            (counts != 2, lambda k: "expected 2 columns"),
            (_repeats(ids, out), lambda k: f"duplicate node id {ids[k]!r}"),
            (unknown, lambda k: f"unknown node id {ids[k]!r}"),
            (~digits, lambda k: f"cluster index {labels[k]!r} is not a non-negative integer"),
            (wide, lambda k: f"cluster index {labels[k]} does not fit in int64"),
        ])
        if fault:
            raise ValueError(f"{path} line {numbers[fault[0]]}: {fault[1]}")
        out.update(zip(ids, map(int, labels)))
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
    seeds = _read_labels_tsv(config.seeds, known=hin.node_index)
    state = init_model(hin, motifs, tensors, seeds, config.hyper)
    result = fit(state)
    assignments = assign_clusters(state)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    consensus, labels = [], []
    for t, assign in sorted(assignments.items()):
        rows = _fmt_rows(assign.consensus.T)
        for node, row, label in zip(hin.nodes_of_type(t), rows, assign.labels.tolist()):
            consensus.append(f"{hin.type_names[t]}\t{node}\t{row}\n")
            labels.append(f"{node}\t{label}\n")
    _write_text(config.out_dir / "consensus.tsv", "".join(consensus))
    _write_text(config.out_dir / "labels.tsv", "".join(labels))
    weights = (f"{name}\t{_fmt(w)}\n" for name, w in zip(state.motif_names, state.mu))
    _write_text(config.out_dir / "weights.tsv", "".join(weights))
    history = io.StringIO()  # csv rows end in CRLF
    writer = csv.writer(history)
    mu_cols = [f"mu_{name}" for name in state.motif_names]
    writer.writerow(["iter", "obj", "residual", "l1", "consensus_gap", "seed_penalty", *mu_cols,
                     "labels_changed"])
    for rec in result.history:
        terms = (rec.objective, rec.residual, rec.l1, rec.consensus_gap, rec.seed_penalty)
        writer.writerow([rec.iteration, *map(_fmt, terms), *map(_fmt, rec.weights), rec.labels_changed])
    _write_text(config.out_dir / "history.csv", history.getvalue())
    summary = {
        "converged": result.converged,
        "outer_iterations": len(result.history),
        "objective": float(result.history[-1].objective),
        "stop_reason": result.stop_reason,
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
    excluded = set(_read_labels_tsv(args.seeds, known=pred)) if args.seeds else set()
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


def _template_from_dict(k, raw):
    """`MotifTemplate(**raw)` of the k-th template object, once it has the
    required keys and no other; `generate_planted_hin` checks the values."""
    missing = [key for key in ("name", "node_types", "edges") if key not in raw]
    if missing:
        raise ValueError(f"template {k}: missing template key(s) {missing}")
    _check_keys(f"template {k}", raw, "template", MotifTemplate)
    return MotifTemplate(**raw)


def cmd_gen_planted(args):
    raw = _read_object(args.params)
    _check_keys(args.params, raw, "params", PlantedConfig)
    kwargs = _read_fields(args.params, raw, PlantedConfig)
    try:
        if "templates" in raw:
            ts = raw["templates"]
            if type(ts) is not list or not all(type(t) is dict for t in ts):
                raise ValueError(f"templates must be a list of objects, got {json.dumps(ts)}")
            kwargs["templates"] = tuple(_template_from_dict(*kt) for kt in enumerate(ts))
        config = PlantedConfig(**kwargs)
        data = generate_planted_hin(config)
        _node_lines(data.hin)  # the graph files can hold it, before --out is made
    except ValueError as exc:
        raise ValueError(f"{args.params}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "nodes.tsv", lambda nodes: _write_atomic(
        out / "edges.tsv", lambda edges: write_hin(data.hin, nodes, edges)))
    for name, labels in (("truth.tsv", data.labels), ("seeds.tsv", data.seeds)):
        _write_text(out / name, "".join(f"{node}\t{labels[node]}\n" for node in sorted(labels)))
    motif_files = []
    for template in config.templates:
        name = f"motif_{template.name}.json"
        _write_json(out / name, template.motif_spec())
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
    _write_json(out / "run.json", run)
    stats = {
        "nodes": sum(len(ns) for ns in data.hin.nodes_by_type),
        "edges": len(data.hin.edges),
        "seeds": len(data.seeds),
        "instances": {k: int(v.shape[0]) for k, v in data.instances.items()},
    }
    print(json.dumps(stats, sort_keys=True))
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
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-planted", help="generate a planted-block benchmark dataset")
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_planted)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    package_log = logging.getLogger(__package__)
    package_log.setLevel(args.log_level)
    handler = logging.StreamHandler()  # the sys.stderr of this call
    package_log.addHandler(handler)
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
    finally:
        package_log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
