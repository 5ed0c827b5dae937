"""One benchmark repetition, run in a fresh process by `run.py`.

Calls the public CLI entry point `motifclust.cli.main` in process on a data
directory made by `gen-planted`: cold `transcribe` on an emptied tensor
directory (repeated until --setup-seconds have been spent, at least once),
then `fit` on the warm cache, then `evaluate`. Every operation's output is
checked. A host-speed probe runs before the transcribes, before the fit and
after it. The last stdout line is one JSON object with the timings, the checks
and, with --trace 1, the per-layer metrics of the repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import motifclust.cli as cli  # noqa: E402


def blas_threads():
    """Threads the bundled OpenBLAS resolved to, or None if not found."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def probe():
    """Wall time of a fixed mix of interpreter and numpy gather/scatter work
    that does not touch motifclust: the host's speed at this moment. Timed
    operations are scaled by it (see `normalized` in run.py)."""
    import numpy as np

    rng = np.random.default_rng(0)
    idx = rng.integers(0, 1000, size=(20000, 3))
    f = rng.random((1000, 4))
    acc = {}
    start = time.perf_counter()
    for _ in range(60):
        prod = f[idx[:, 0]] * f[idx[:, 1]] * f[idx[:, 2]]
        np.bincount(idx[:, 0], weights=prod[:, 0], minlength=1000)
        for i in range(3000):
            acc[i % 97] = acc.get(i % 97, 0) + i
    return time.perf_counter() - start


class Op:
    """One CLI operation: exit code, captured output, wall time, check errors."""

    def __init__(self, name, argv):
        self.name = name
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - an escaped exception is a failed operation
            self.rc = None
            err.write(traceback.format_exc())
        self.seconds = time.perf_counter() - start
        self.stdout, self.stderr = out.getvalue(), err.getvalue()
        self.errors = []

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def result(self):
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def report(self):
        return {"op": self.name, "rc": self.rc, "s": self.seconds,
                "ok": not self.errors, "errors": self.errors,
                "stderr": self.stderr[-2000:] if self.errors else ""}


def read_tsv_pairs(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                rows.append(line.split("\t"))
    return rows


def clustered_nodes(data, run):
    """Node ids of every type that some motif of the config covers."""
    types = set()
    for motif_file in run["motifs"]:
        with open(data / motif_file, encoding="utf-8") as fh:
            types.update(node["type"] for node in json.load(fh)["nodes"])
    return [node for node, t in read_tsv_pairs(data / run["nodes"]) if t in types]


def snapshot(directory):
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size, p.stat().st_ino)
            for p in sorted(directory.iterdir())}


def transcribe_op(data, run, config):
    op = Op("transcribe", ["transcribe", "--config", str(config)])
    op.check(op.rc == 0, f"exit code {op.rc}")
    if op.rc != 0:
        return op
    report = op.result()
    manifest = json.loads((data / run["tensor_dir"] / "manifest.json").read_text())
    op.check(set(report) == set(manifest), "transcribe report and manifest list different motifs")
    for name, entry in manifest.items():
        with open(data / run["tensor_dir"] / entry["file"], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        got = report.get(name, {}).get("nnz")
        op.check(got == entry["nnz"] == rows,
                 f"{name}: nnz reported {got}, manifest {entry['nnz']}, file rows {rows}")
    return op


def fit_op(data, run, config, tracer):
    tensor_dir = data / run["tensor_dir"]
    before = snapshot(tensor_dir)
    op = Op("fit", ["fit", "--config", str(config)])
    op.check(op.rc in (0, 3), f"exit code {op.rc}")
    if op.rc not in (0, 3):
        return op, None
    summary = op.result()
    out = data / run["out_dir"]
    op.check(snapshot(tensor_dir) == before, "warm fit rewrote the tensor cache")
    if tracer is not None:
        misses = tracer.counts["fit.cache_misses"]
        op.check(misses == 0, f"warm fit missed the cache {misses} time(s)")

    with open(out / "history.csv", encoding="utf-8", newline="") as fh:
        objs = [float(row["obj"]) for row in csv.DictReader(fh)]
    op.check(len(objs) == summary["outer_iterations"], "history.csv length != outer_iterations")
    op.check(all(b <= a for a, b in zip(objs, objs[1:])), "history.csv objective increases")

    labels = read_tsv_pairs(out / "labels.tsv")
    ids = [row[0] for row in labels]
    op.check(len(ids) == len(set(ids)), "labels.tsv lists a node more than once")
    op.check(set(ids) == set(clustered_nodes(data, run)),
             "labels.tsv does not cover exactly the clustered nodes")
    clusters = int(run["clusters"])
    op.check(all(0 <= int(row[1]) < clusters for row in labels), "label outside 0..C-1")

    weights = [float(row[1]) for row in read_tsv_pairs(out / "weights.tsv")]
    op.check(len(weights) == len(run["motifs"]), "weights.tsv has one row per motif")
    op.check(abs(sum(weights) - 1.0) <= 1e-9 and min(weights) >= 0.0,
             f"weights sum to {sum(weights)!r}, not 1 within 1e-9")
    op.check(math.isfinite(summary["objective"]), "non-finite objective")
    fingerprint = {
        "objective": summary["objective"],
        "outer_iterations": summary["outer_iterations"],
        "labels_sha256": hashlib.sha256((out / "labels.tsv").read_bytes()).hexdigest(),
    }
    return op, fingerprint


def evaluate_op(data, run):
    out = data / run["out_dir"]
    op = Op("evaluate", ["evaluate", "--pred", str(out / "labels.tsv"),
                         "--truth", str(data / "truth.tsv"), "--seeds", str(data / run["seeds"])])
    op.check(op.rc == 0, f"exit code {op.rc}")
    if op.rc != 0:
        return op, None
    scores = op.result()
    for key in ("nmi", "accuracy", "macro_f1"):
        op.check(0.0 <= scores.get(key, -1.0) <= 1.0, f"{key} outside [0, 1]")
    return op, {k: scores[k] for k in ("nmi", "accuracy", "macro_f1")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="directory written by gen-planted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="rep")
    parser.add_argument("--setup-seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="file for the span log (with --trace 1)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()

    data = Path(args.data)
    config = data / "run.json"
    run = json.loads(config.read_text())
    ops = []

    probes = [probe()]
    setup = []
    while not setup or sum(setup) < args.setup_seconds:
        shutil.rmtree(data / run["tensor_dir"], ignore_errors=True)
        if tracer is not None:
            tracer.phase = "transcribe"
        op = transcribe_op(data, run, config)
        ops.append(op)
        setup.append(op.seconds)
        if op.errors:
            break
    fit_s = fingerprint = scores = None
    if not ops[-1].errors:
        if tracer is not None:
            tracer.phase = "fit"
        probes.append(probe())
        op, fingerprint = fit_op(data, run, config, tracer)
        ops.append(op)
        fit_s = op.seconds
        probes.append(probe())
        if not op.errors:
            if tracer is not None:
                tracer.phase = "evaluate"
            op, scores = evaluate_op(data, run)
            ops.append(op)

    result = {
        "ops": [op.report() for op in ops],
        "setup_s": setup,
        "fit_s": fit_s,
        "probe_s": probes,
        "fingerprint": fingerprint,
        "scores": scores,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
