"""In-memory span tracer installed around the layers of motifclust.

The tracer wraps functions from the outside, so nothing under `src/` knows
about it. Wrappers go on the names as they are looked up at call time: the
names imported into `motifclust.cli` (the cli -> hin/motifs/model/metrics
boundary), the names inside `motifclust.model` (the model -> tensors boundary
and the model's own helpers, which call each other through module globals),
and three methods. A span is `[name, start, end, parent index]`; spans of one
repetition share the tracer's run id and are written out once, at the end.

Span names are `<layer>.<qualified function name>`, where the layer is the
module that defines the function, so `mttkrp_sparse` called from the model is
recorded as `tensors.mttkrp_sparse`.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import defaultdict

CLI_NAMES = (
    "main",
    "cmd_transcribe",
    "cmd_fit",
    "cmd_evaluate",
    "load_hin",
    "load_motif",
    "enumerate_instances",
    "transcribe",
    "init_model",
    "fit",
    "assign_clusters",
    "accuracy_micro_f1",
    "macro_f1",
    "nmi",
)
MODEL_NAMES = (
    "mttkrp_sparse",
    "gram_hadamard",
    "residual_fro_sq",
    "consensus",
    "objective",
    "update_factor",
    "motif_weight_gradient",
    "project_simplex",
    "optimize_motif_weights",
)
METRIC_FUNCTIONS = ("metrics.accuracy_micro_f1", "metrics.macro_f1", "metrics.nmi")


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def mttkrp_cost(x, c):
    """(flops, bytes) of one `mttkrp_sparse` call, computed from its shape:
    N-1 gathered factor columns multiplied into a value column, then one
    scatter-add, per nonzero and cluster. Bytes count the index, value and
    gathered factor entries read once each; the small output is ignored."""
    n = x.order
    return x.nnz * c * n, x.nnz * (4 * n + 8 + 8 * c * (n - 1))


def residual_cost(x, c):
    """(flops, bytes) of one `residual_fro_sq` call, computed from its shape:
    N gathered factor columns multiplied together, a row sum and a dot with
    the values, plus the value norm. The C x C Gram work is ignored."""
    n = x.order
    return x.nnz * (c * (n + 1) + 4), x.nnz * (4 * n + 8 + 8 * c * n)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self.phase = None           # the CLI operation running now
        self._tensor_names = {}     # id(SparseTensor) -> motif name

    def wrap(self, fn, after=None):
        name = _span_name(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(span[2] - span[1], args, kwargs, result)
            return result

        return wrapper

    # -- counters fed by per-function hooks ------------------------------------

    def _after_enumerate(self, dur, args, kwargs, result):
        motif = args[1]
        self.counts[f"motifs.enumerate_s.{motif.name}"] += dur
        self.counts[f"motifs.instances.{motif.name}"] += len(result)
        threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
        self.counts["motifs.enum_threads"] = max(self.counts["motifs.enum_threads"], threads)
        self.counts[f"{self.phase}.cache_misses"] += 1

    def _after_read(self, dur, args, kwargs, result):
        self.counts[f"{self.phase}.cache_hits"] += 1

    def _after_write(self, dur, args, kwargs, result):
        self.counts["tensors.file_bytes"] += os.path.getsize(args[1])

    def _after_load_hin(self, dur, args, kwargs, result):
        self.counts["hin.edges"] = len(result.edges)

    def _after_init(self, dur, args, kwargs, result):
        self._tensor_names = {id(t): n for n, t in zip(result.motif_names, result.tensors)}

    def _after_fit(self, dur, args, kwargs, result):
        self.counts["model.outer_iters"] = len(result.history)
        self.counts["model.objective_final"] = float(result.history[-1].objective)

    def _after_mttkrp(self, dur, args, kwargs, result):
        x, factors, mode = args
        name = self._tensor_names.get(id(x), "?")
        self.counts[f"tensors.mttkrp_s.{name}.mode{mode}"] += dur
        self.counts[f"tensors.mttkrp_n.{name}.mode{mode}"] += 1
        flops, nbytes = mttkrp_cost(x, factors[0].shape[0])
        self.counts["tensors.mttkrp_flops"] += flops
        self.counts["tensors.kernel_flops"] += flops
        self.counts["tensors.bytes_computed"] += nbytes

    def _after_residual(self, dur, args, kwargs, result):
        flops, nbytes = residual_cost(args[0], args[1][0].shape[0])
        self.counts["tensors.kernel_flops"] += flops
        self.counts["tensors.bytes_computed"] += nbytes

    def _after_update_factor(self, dur, args, kwargs, result):
        if args[2] == 0:  # every inner sweep starts at position 0
            self.counts["model.inner_sweeps"] += 1

    def install(self):
        """Wrap the layer boundaries of an imported motifclust in place."""
        import motifclust.cli as cli
        import motifclust.model as model
        from motifclust.model import ModelState
        from motifclust.tensors import SparseTensor

        hooks = {
            "enumerate_instances": self._after_enumerate,
            "load_hin": self._after_load_hin,
            "init_model": self._after_init,
            "fit": self._after_fit,
            "mttkrp_sparse": self._after_mttkrp,
            "residual_fro_sq": self._after_residual,
            "update_factor": self._after_update_factor,
        }
        for module, names in ((cli, CLI_NAMES), (model, MODEL_NAMES)):
            for name in names:
                setattr(module, name, self.wrap(getattr(module, name), hooks.get(name)))
        read = SparseTensor.__dict__["read_tsv"].__func__
        SparseTensor.read_tsv = classmethod(self.wrap(read, self._after_read))
        SparseTensor.write_tsv = self.wrap(SparseTensor.write_tsv, self._after_write)
        ModelState.contributors = self.wrap(ModelState.contributors)

    # -- results -----------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds). Self time is a
        span's duration minus the durations of its direct children, which
        nest inside it because the traced code runs on one thread."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - child[k])
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines: run id, name, start, end,
        index of the parent span (-1 for a root)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([self.run_id, name, start, end, parent]) + "\n")

    def layer_metrics(self):
        """Per-layer metrics of one traced repetition (one cold transcribe,
        one warm fit, one evaluate). Times are totals over the repetition."""
        tot = self.totals()
        c = self.counts

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def secs(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        fit_s = secs("model.fit")
        mttkrp_s = secs("tensors.mttkrp_sparse")
        residual_s = secs("tensors.residual_fro_sq")
        hits, misses = c["fit.cache_hits"], c["fit.cache_misses"]
        run_s = sum(secs(f"cli.cmd_{op}") for op in ("transcribe", "fit", "evaluate"))
        enum_io_s = (
            secs("motifs.enumerate_instances")
            + secs("tensors.SparseTensor.write_tsv")
            + secs("tensors.SparseTensor.read_tsv")
        )
        m = {
            "hin.load_s": secs("hin.load_hin"),
            "hin.edges": c["hin.edges"],
            "motifs.enumerate_s": secs("motifs.enumerate_instances"),
            "motifs.enumerate_s.quad": c["motifs.enumerate_s.quad"],
            "motifs.instances.quad": c["motifs.instances.quad"],
            "motifs.transcribe_s": secs("motifs.transcribe"),
            "motifs.enum_threads": c["motifs.enum_threads"],
            "tensors.write_s": secs("tensors.SparseTensor.write_tsv"),
            "tensors.read_s": secs("tensors.SparseTensor.read_tsv"),
            "tensors.file_bytes": c["tensors.file_bytes"],
            "tensors.mttkrp_calls": calls("tensors.mttkrp_sparse"),
            "tensors.mttkrp_s": mttkrp_s,
            "tensors.mttkrp_us_per_call": 1e6 * mttkrp_s / max(calls("tensors.mttkrp_sparse"), 1),
            "tensors.mttkrp_gflops_computed": c["tensors.mttkrp_flops"] / max(mttkrp_s, 1e-12) / 1e9,
            "tensors.gram_calls": calls("tensors.gram_hadamard"),
            "tensors.gram_s": secs("tensors.gram_hadamard"),
            "tensors.residual_calls": calls("tensors.residual_fro_sq"),
            "tensors.residual_s": residual_s,
            "tensors.residual_us_per_call": 1e6 * residual_s / max(calls("tensors.residual_fro_sq"), 1),
            "tensors.bytes_computed": c["tensors.bytes_computed"],
            "tensors.ops_per_byte_computed": c["tensors.kernel_flops"] / max(c["tensors.bytes_computed"], 1),
            "model.fit_s": fit_s,
            "model.init_s": secs("model.init_model"),
            "model.assign_s": secs("model.assign_clusters"),
            "model.outer_iters": c["model.outer_iters"],
            "model.inner_sweeps": c["model.inner_sweeps"],
            "model.update_factor_calls": calls("model.update_factor"),
            "model.update_factor_self_s": self_s("model.update_factor"),
            "model.objective_calls": calls("model.objective"),
            "model.objective_self_s": self_s("model.objective"),
            "model.residual_share": residual_s / max(fit_s, 1e-12),
            "model.consensus_calls": calls("model.consensus"),
            "model.contributors_calls": calls("model.ModelState.contributors"),
            "model.weight_step_s": secs("model.optimize_motif_weights"),
            "model.pgd_trials_per_step": calls("model.project_simplex")
            / max(calls("model.motif_weight_gradient"), 1),
            "model.objective_final": c["model.objective_final"],
            "metrics.evaluate_s": sum(secs(n) for n in METRIC_FUNCTIONS),
            "cli.cache_hits": hits,
            "cli.cache_misses": misses,
            "cli.cache_hit_ratio": hits / max(hits + misses, 1),
            "cli.self_s": sum(v[2] for k, v in tot.items() if k.startswith("cli.")),
            "trace.kernel_share_of_fit": (mttkrp_s + residual_s) / max(fit_s, 1e-12),
            "trace.enum_io_share_of_run": enum_io_s / max(run_s, 1e-12),
        }
        for mode in range(4):
            n = c[f"tensors.mttkrp_n.quad.mode{mode}"]
            m[f"tensors.mttkrp_us.quad.mode{mode}"] = (
                1e6 * c[f"tensors.mttkrp_s.quad.mode{mode}"] / n if n else 0.0
            )
        return m
