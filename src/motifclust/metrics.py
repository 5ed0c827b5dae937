"""Clustering metrics and a planted-block benchmark generator.

Metrics compare predicted hard labels against ground truth over an aligned
node set; cluster indices are meaningful (seeds bind them), so no matching
step is applied. The generator plants block structure into a typed graph by
sampling motif instances inside blocks and, at a configurable rate, across
them, and exports per-block seed nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .hin import HIN, Edge, EdgeType


def _check_labels(pred, true):
    pred = np.asarray(pred, dtype=np.int64).ravel()
    true = np.asarray(true, dtype=np.int64).ravel()
    if pred.size == 0 or pred.shape != true.shape:
        raise ValueError("need two equal-length, non-empty label vectors")
    if pred.min() < 0 or true.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return pred, true


def accuracy_micro_f1(pred, true):
    """Fraction of correct labels; equals micro-F1 on single-label data."""
    pred, true = _check_labels(pred, true)
    return float(np.mean(pred == true))


def macro_f1(pred, true):
    """Unweighted mean of per-class F1 over the classes present in `true`.

    A class never predicted (or never correct) contributes F1 = 0."""
    pred, true = _check_labels(pred, true)
    scores = []
    for c in np.unique(true):
        tp = float(np.sum((pred == c) & (true == c)))
        n_pred = float(np.sum(pred == c))
        n_true = float(np.sum(true == c))
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_true
        if precision + recall == 0.0:
            scores.append(0.0)
        else:
            scores.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def nmi(pred, true):
    """Mutual information over the arithmetic mean of the two label entropies.

    Both labelings constant is the same one-cluster partition, defined as 1.0;
    if exactly one entropy is zero the mutual information vanishes and the
    score is 0.0. Natural logarithms throughout."""
    pred, true = _check_labels(pred, true)
    n = pred.size
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(true, return_inverse=True)
    if pi.tobytes() > ti.tobytes():
        pi, ti = ti, pi  # canonical orientation makes nmi(a, b) == nmi(b, a) exactly
    table = np.zeros((pi.max() + 1, ti.max() + 1))
    np.add.at(table, (pi, ti), 1.0)
    joint = table / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    h_pred = -float(np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))))
    h_true = -float(np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))))
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])))
    return min(max(mi / ((h_pred + h_true) / 2.0), 0.0), 1.0)


# -- planted benchmark ---------------------------------------------------------


@dataclass(frozen=True)
class MotifTemplate:
    """Recipe for planting instances of one motif shape.

    node_types names the type of each position; edges are undirected
    (position, position, edge type name) triples. With signal=True instances
    are drawn inside blocks (plus cross-block noise); otherwise they are drawn
    uniformly and carry no block structure. instances_per_block=None plants
    every possible intra-block tuple (sensible for edge-level templates)."""

    name: str
    node_types: tuple[str, ...]
    edges: tuple[tuple[int, int, str], ...]
    signal: bool = True
    instances_per_block: int | None = None

    def motif_spec(self):
        """The matching motif definition, as a JSON-ready dict."""
        return {
            "name": self.name,
            "nodes": [
                {"id": f"n{i}", "type": t} for i, t in enumerate(self.node_types)
            ],
            "edges": [
                {"src": f"n{i}", "dst": f"n{j}", "etype": et, "dir": "u"}
                for i, j, et in self.edges
            ],
        }


def default_templates():
    """An edge-level pair template and a 4-node template over disjoint edge
    types, so either one can carry the block signal on its own."""
    return (
        MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),)),
        MotifTemplate(
            "quad",
            ("B", "C", "A", "C"),
            ((0, 1, "bc"), (1, 2, "ca"), (2, 3, "ca")),
            instances_per_block=120,
        ),
    )


@dataclass(frozen=True)
class PlantedConfig:
    n_clusters: int = 3
    nodes_per_type: int = 60
    type_names: tuple[str, ...] = ("A", "B", "C")
    templates: tuple[MotifTemplate, ...] = field(default_factory=default_templates)
    noise: float = 0.05
    seed_fraction: float = 0.05
    rng_seed: int = 0


@dataclass
class PlantedData:
    hin: HIN
    labels: dict            # node id -> block index, all nodes of all types
    seeds: dict             # node id -> block index, the exported guidance
    instances: dict         # template name -> (n, order) int array of tuples
    config: PlantedConfig


def _type_counts(template):
    counts = {}
    for t in template.node_types:
        counts[t] = counts.get(t, 0) + 1
    return counts


def _falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _draw_tuple(rng, template, pools):
    """One tuple with positions drawn from per-position pools, distinct within
    each type; None when the draw collides."""
    used = {}
    out = []
    for pos, t in enumerate(template.node_types):
        pool = pools[pos]
        node = int(pool[rng.integers(len(pool))])
        if node in used.setdefault(t, set()):
            return None
        used[t].add(node)
        out.append(node)
    return tuple(out)


def _sample_tuples(rng, template, pools, count, exclude=(), require=None):
    """`count` distinct tuples (rejection sampling); `require` optionally pins
    (position, node). Raises if the space is too small to satisfy the draw."""
    out = set()
    exclude = set(exclude)
    attempts = 0
    limit = 200 * max(count, 1) + 1000
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"template {template.name!r}: cannot sample {count} distinct tuples"
            )
        tup = _draw_tuple(rng, template, pools)
        if tup is None:
            continue
        if require is not None:
            pos, node = require
            tup = tup[:pos] + (node,) + tup[pos + 1 :]
            if not _distinct_within_type(template, tup):
                continue
        if tup in out or tup in exclude:
            continue
        out.add(tup)
    return out


def _distinct_within_type(template, tup):
    seen = {}
    for t, j in zip(template.node_types, tup):
        if j in seen.setdefault(t, set()):
            return False
        seen[t].add(j)
    return True


def _all_intra_tuples(template, block_nodes):
    tuples = []
    for combo in itertools.product(*[block_nodes[t] for t in template.node_types]):
        if _distinct_within_type(template, combo):
            tuples.append(tuple(int(j) for j in combo))
    return tuples


def generate_planted_hin(config):
    """Build a typed graph with planted block structure.

    Nodes of every type are split into n_clusters equal blocks. For each
    signal template, instances are sampled inside each block (all of them when
    instances_per_block is None), every block node of a covered type is
    patched into at least one instance, and `noise` times as many cross-block
    instances are added uniformly at random. Non-signal templates get the same
    number of instances drawn uniformly with no block structure at all. The
    union of instance edges forms the graph; per block, a seed_fraction share
    of nodes (at least one, when the fraction is positive) is exported as
    seeds."""
    c = config.n_clusters
    size = config.nodes_per_type
    if size % c != 0:
        raise ValueError("nodes_per_type must be divisible by n_clusters")
    block = size // c
    for template in config.templates:
        for t in template.node_types:
            if t not in config.type_names:
                raise ValueError(f"template {template.name!r} uses unknown type {t!r}")
        worst = max(_type_counts(template).values())
        if worst > block:
            raise ValueError(
                f"template {template.name!r} needs {worst} distinct nodes of one "
                f"type but blocks have only {block}"
            )

    rng = np.random.default_rng(config.rng_seed)
    blocks = {
        t: [np.arange(b * block, (b + 1) * block) for b in range(c)]
        for t in config.type_names
    }
    full = {t: np.arange(size) for t in config.type_names}

    instances = {}
    for template in config.templates:
        counts = _type_counts(template)
        possible_block = 1
        for t, k in counts.items():
            possible_block *= _falling(block, k)
        possible_all = 1
        for t, k in counts.items():
            possible_all *= _falling(size, k)
        per_block = (
            possible_block if template.instances_per_block is None
            else min(template.instances_per_block, possible_block)
        )
        if template.signal:
            tuples = set()
            for b in range(c):
                pools = [blocks[t][b] for t in template.node_types]
                if per_block == possible_block:
                    tuples.update(_all_intra_tuples(template, {t: blocks[t][b] for t in template.node_types}))
                else:
                    tuples.update(_sample_tuples(rng, template, pools, per_block))
            # Patch coverage: every block node of a covered type joins >= 1 tuple.
            for t in sorted(set(template.node_types)):
                positions = [p for p, tt in enumerate(template.node_types) if tt == t]
                covered = {tup[p] for tup in tuples for p in positions}
                for b in range(c):
                    pools = [blocks[tt][b] for tt in template.node_types]
                    for node in blocks[t][b]:
                        if int(node) not in covered:
                            extra = _sample_tuples(
                                rng, template, pools, 1, exclude=tuples,
                                require=(positions[0], int(node)),
                            )
                            tuples.update(extra)
            n_intra = len(tuples)
            n_cross = int(round(config.noise * n_intra))
            if n_cross:
                pools = [full[t] for t in template.node_types]
                cross = set()
                attempts = 0
                while len(cross) < n_cross:
                    attempts += 1
                    if attempts > 200 * n_cross + 1000:
                        raise ValueError(f"template {template.name!r}: noise sampling stalled")
                    tup = _draw_tuple(rng, template, pools)
                    if tup is None or tup in tuples or tup in cross:
                        continue
                    if len({int(j) // block for j in tup}) == 1:
                        continue  # landed inside one block; not noise
                    cross.add(tup)
                tuples.update(cross)
        else:
            pools = [full[t] for t in template.node_types]
            tuples = _sample_tuples(rng, template, pools, c * per_block)
        instances[template.name] = np.asarray(sorted(tuples), dtype=np.int32)

    type_ids = {t: i for i, t in enumerate(config.type_names)}
    nodes_by_type = [[f"{t}{j}" for j in range(size)] for t in config.type_names]
    edge_types = []
    edge_type_ids = {}
    edge_set = set()
    for template in config.templates:
        for i, j, etname in template.edges:
            ti, tj = type_ids[template.node_types[i]], type_ids[template.node_types[j]]
            if etname not in edge_type_ids:
                edge_type_ids[etname] = len(edge_types)
                edge_types.append(EdgeType(etname, False, ti, tj))
            et = edge_types[edge_type_ids[etname]]
            if {ti, tj} != {et.src_type, et.dst_type}:
                raise ValueError(f"edge type {etname!r} reused with different endpoint types")
        for tup in instances[template.name]:
            for i, j, etname in template.edges:
                et_id = edge_type_ids[etname]
                et = edge_types[et_id]
                a = (type_ids[template.node_types[i]], int(tup[i]))
                b = (type_ids[template.node_types[j]], int(tup[j]))
                if (a[0], b[0]) != (et.src_type, et.dst_type):
                    a, b = b, a
                if et.src_type == et.dst_type:
                    a, b = sorted((a, b))  # canonical order for symmetric dedup
                edge_set.add((et_id, a, b))
    edges = [Edge(src, dst, et_id) for et_id, src, dst in sorted(edge_set)]
    hin = HIN(list(config.type_names), nodes_by_type, edge_types, edges)

    labels = {
        f"{t}{j}": j // block for t in config.type_names for j in range(size)
    }
    seeds = {}
    if config.seed_fraction > 0:
        per_block_seeds = max(1, int(round(config.seed_fraction * block)))
        for t in config.type_names:
            for b in range(c):
                chosen = rng.choice(blocks[t][b], size=per_block_seeds, replace=False)
                for j in sorted(int(x) for x in chosen):
                    seeds[f"{t}{j}"] = b
    return PlantedData(hin, labels, seeds, instances, config)
