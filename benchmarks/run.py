"""Offline benchmark of motifclust, end to end through its public CLI.

    python3 benchmarks/run.py --workload planted-fit --seed 0 --seconds 40 --trace 0

Generates the workload's inputs with `motifclust gen-planted` (seeded by
--seed, not timed), then runs repetitions, one at a time, each in a fresh
child process (`rep.py`): cold `transcribe`, warm `fit`, `evaluate`, with
every output checked. Repetitions start until the next one would end after
--seconds (at least MIN_REPS, never past HARD_LIMIT_S).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the repetitions, with setup_s and fit_s scaled to a reference host speed
(see `normalized`). --trace 1 runs one traced repetition with
OPENBLAS_NUM_THREADS=1, then alternates traced and untraced repetitions (the
latter are the base of the tracing overhead), and reports the per-layer
metrics as medians over the traced ones. The last stdout line is the JSON result;
the lines before it record the environment. A report with every repetition,
and the span logs of traced ones, goes to .bench_work/ in the checkout.

See benchmarks/README.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
HARD_LIMIT_S = 150.0   # a run must exit well within 180 s
SETUP_SECONDS = 0.5    # cold transcribes per untraced repetition, at least one
# Median time of rep.probe() on the host where the bounds were set (2-vCPU
# Xeon, Python 3.11, numpy 2.4 with OpenBLAS). setup_s and fit_s are reported
# as seconds at that host speed.
PROBE_REF_S = 0.125

PAIR = {"name": "pair", "node_types": ["A", "B"], "edges": [[0, 1, "ab"]]}


def quad(instances_per_block):
    """The default planted 4-node template; every workload has it."""
    return {"name": "quad", "node_types": ["B", "C", "A", "C"],
            "edges": [[0, 1, "bc"], [1, 2, "ca"], [2, 3, "ca"]],
            "instances_per_block": instances_per_block}


# params: gen-planted --params (rng_seed is added from --seed).
# run: keys overriding the run.json that gen-planted writes.
WORKLOADS = {
    "planted-fit": {"params": {}, "run": {}},
    "planted-large": {
        "params": {"nodes_per_type": 300, "templates": [PAIR, quad(600)]},
        # Four inner sweeps per motif and outer iteration, as in many-motifs.
        "run": {"max_outer_iters": 2, "max_inner_iters": 4, "inner_tol": 1e-12},
    },
    "many-motifs": {
        "params": {
            "clusters": 6,
            "nodes_per_type": 120,
            "templates": [
                {"name": "ab", "node_types": ["A", "B"], "edges": [[0, 1, "ab"]],
                 "instances_per_block": 100},
                {"name": "bc", "node_types": ["B", "C"], "edges": [[0, 1, "e_bc"]],
                 "instances_per_block": 100},
                {"name": "ac_noise", "node_types": ["A", "C"], "edges": [[0, 1, "ac"]],
                 "signal": False, "instances_per_block": 40},
                {"name": "path", "node_types": ["A", "B", "C"],
                 "edges": [[0, 1, "p_ab"], [1, 2, "p_bc"]], "instances_per_block": 40},
                {"name": "tri", "node_types": ["A", "B", "C"],
                 "edges": [[0, 1, "t_ab"], [1, 2, "t_bc"], [2, 0, "t_ca"]],
                 "instances_per_block": 40},
                quad(40),
            ],
        },
        # Two inner sweeps per motif and outer iteration, so that every seed
        # does the same number of factor updates and weight steps.
        "run": {"max_outer_iters": 30, "max_inner_iters": 2, "inner_tol": 1e-12},
    },
}


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(workload, seed, data):
    import numpy
    from motifclust.cli import RunConfig

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "enum_threads_resolved": RunConfig.from_json(data / "run.json").threads,
    }


def generate(workload, seed, data):
    """Write the workload's inputs into `data` with gen-planted (not timed)."""
    from motifclust.cli import main as cli_main

    spec = WORKLOADS[workload]
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    params = dict(spec["params"], rng_seed=seed)
    (data / "params.json").write_text(json.dumps(params, indent=2) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["gen-planted", "--params", str(data / "params.json"), "--out", str(data)])
    if rc != 0:
        fail(f"gen-planted exited {rc}")
    run = json.loads((data / "run.json").read_text())
    run.update(spec["run"])
    (data / "run.json").write_text(json.dumps(run, indent=2) + "\n")


def run_child(data, trace, run_id, setup_seconds, spans, timeout, env=None):
    """One repetition in a fresh process; returns its result dict, or a
    dict with an "error" when the child died or printed no result."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--data", str(data), "--trace", str(trace),
           "--run-id", run_id, "--setup-seconds", str(setup_seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s", "wall_s": timeout}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}", "wall_s": wall}
    result["wall_s"] = wall
    return result


def run_reps(data, first, cycle, seconds, spans_dir):
    """Run the repetitions in `first` once, then those in `cycle` round and
    round, until the next one would end after `seconds`. Each entry is
    (kind, trace, setup_seconds, env)."""
    reps = []
    start = time.perf_counter()
    k = 0
    while True:
        kind, trace, setup_seconds, env = (
            first[k] if k < len(first) else cycle[(k - len(first)) % len(cycle)]
        )
        elapsed = time.perf_counter() - start
        if reps:
            last = reps[-1]["wall_s"]
            if elapsed + last > HARD_LIMIT_S:
                break
            if k >= max(len(first) + len(cycle), MIN_REPS) and elapsed + last > seconds:
                break
        run_id = f"{data.parent.name}-r{k}"
        spans = spans_dir / f"{run_id}-{kind}.jsonl.gz" if trace else None
        rep = run_child(data, trace, run_id, setup_seconds, spans,
                        timeout=max(HARD_LIMIT_S - elapsed, 10.0), env=env)
        rep["kind"] = kind
        reps.append(rep)
        k += 1
    return reps


def tally(reps):
    """(attempted, failed, error messages) over every CLI operation; a
    repetition that died counts its missing operations as failed. A fit whose
    labels or objective differ from the first repetition's is failed too.
    Traced and untraced repetitions must agree; the blas1 repetition runs in
    another environment and is left out of that comparison."""
    attempted = failed = 0
    errors = []
    first = None
    for rep in reps:
        if "error" in rep:
            attempted += 3
            failed += 3
            errors.append(rep["error"])
            continue
        ops = rep["ops"]
        attempted += len(ops)
        failed += sum(not op["ok"] for op in ops)
        errors += [f"{op['op']}: {e}" for op in ops for e in op["errors"]]
        missing = 2 + len(rep["setup_s"]) - len(ops)
        attempted += missing
        failed += missing
        fp = rep["fingerprint"]
        if fp is not None and rep["kind"] != "blas1":
            first = first or fp
            if fp != first:
                failed += 1
                errors.append(f"fit: result differs between repetitions: {fp} vs {first}")
    return attempted, failed, errors


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def normalized(seconds, probes):
    """Wall seconds scaled to the reference host speed, using the host-speed
    probes run just before and after the timed operation. On the shared
    reference host the same work ran up to 2x slower for tens of seconds at
    a time; the probe tracks that drift, so runs made at different times can
    be compared."""
    return seconds * PROBE_REF_S / statistics.mean(probes)


def end_to_end(reps, attempted, failed):
    ok = [r for r in reps if "error" not in r]
    fits = [r for r in ok if r["fit_s"] is not None]
    return {
        "setup_s": median([normalized(s, r["probe_s"][:2]) for r in ok for s in r["setup_s"]]),
        "fit_s": median([normalized(r["fit_s"], r["probe_s"][1:]) for r in fits]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "nmi": median([r["scores"]["nmi"] for r in ok if r["scores"]]),
        "accuracy": median([r["scores"]["accuracy"] for r in ok if r["scores"]]),
        "macro_f1": median([r["scores"]["macro_f1"] for r in ok if r["scores"]]),
        "ok_frac": (attempted - failed) / attempted,
        # Unscaled, for the report only.
        "setup_wall_s": median([s for r in ok for s in r["setup_s"]]),
        "fit_wall_s": median([r["fit_s"] for r in fits]),
        "probe_s": median([p for r in ok for p in r["probe_s"]]),
    }


def per_layer(reps):
    traced = [r for r in reps if r["kind"] == "traced" and "error" not in r]
    out = {}
    if traced:
        for name in traced[0]["layers"]:
            out[name] = median([r["layers"][name] for r in traced])
    blas1 = [r for r in reps if r["kind"] == "blas1" and "error" not in r]
    if blas1:
        out["tensors.residual_us_per_call.blas1"] = blas1[0]["layers"]["tensors.residual_us_per_call"]
    base = [r["fit_s"] for r in reps if r["kind"] == "untraced" and "error" not in r]
    if traced and base:
        out["trace.overhead_frac"] = median([r["fit_s"] for r in traced]) / median(base) - 1.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "motifclust" / "cli.py").is_file():
        fail(f"no motifclust sources at {SRC.relative_to(ROOT)}/; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the root of the checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    data = run_dir / "data"
    generate(args.workload, args.seed, data)
    env = environment(args.workload, args.seed, data)
    print(json.dumps({"environment": env}))

    if args.trace:
        blas1 = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        first = [("blas1", 1, 0.0, blas1)]
        cycle = [("traced", 1, 0.0, None), ("untraced", 0, 0.0, None)]
    else:
        first, cycle = [], [("untraced", 0, SETUP_SECONDS, None)]
    reps = run_reps(data, first, cycle, args.seconds, run_dir)
    attempted, failed, errors = tally(reps)
    values = per_layer(reps) if args.trace else end_to_end(reps, attempted, failed)

    for message in errors:
        print(f"benchmark: {message}", file=sys.stderr)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        failed += 1
        attempted += 1
        print(f"benchmark: no value for {missing}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    shutil.rmtree(data, ignore_errors=True)
    report = {"environment": env, "repetitions": reps, "attempted": attempted,
              "failed": failed, "errors": errors, "metrics": values}
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    keys = ("kind", "wall_s", "fit_s", "setup_s", "probe_s", "peak_rss_mb", "blas_threads", "error")
    print(json.dumps({"reps": [{k: r.get(k) for k in keys} for r in reps]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
