"""Planted-block benchmark generator.

Plants block structure into a typed graph by sampling motif instances inside
blocks and, at a configurable rate, across them, and exports per-block seed
nodes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .hin import HIN, Edge, EdgeType, orient


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


def _draw_tuple(rng, template, pool):
    """One tuple with every position drawn from `pool`, distinct within each
    type; None when the draw collides."""
    used = {}
    out = []
    for t in template.node_types:
        node = int(pool[rng.integers(len(pool))])
        if node in used.setdefault(t, set()):
            return None
        used[t].add(node)
        out.append(node)
    return tuple(out)


def _sample_tuples(rng, template, pool, count, exclude=(), require=None, accept=None):
    """`count` distinct tuples (rejection sampling); `require` optionally pins
    (position, node) and `accept` optionally filters draws. Raises if the
    space is too small to satisfy the draw."""
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
        tup = _draw_tuple(rng, template, pool)
        if tup is None:
            continue
        if require is not None:
            pos, node = require
            tup = tup[:pos] + (node,) + tup[pos + 1 :]
            if not _distinct_within_type(template, tup):
                continue
        if tup in out or tup in exclude or (accept is not None and not accept(tup)):
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
    if not 0 <= config.noise < math.inf:
        raise ValueError("noise must be non-negative and finite")
    if not 0 <= config.seed_fraction <= 1:
        raise ValueError("seed_fraction must be in [0, 1]")
    for template in config.templates:
        count = template.instances_per_block
        if count is not None and (type(count) is not int or count < 0):
            raise ValueError(
                f"template {template.name!r}: instances_per_block must be a non-negative integer or null"
            )
        for t in template.node_types:
            if t not in config.type_names:
                raise ValueError(f"template {template.name!r} uses unknown type {t!r}")
        worst = max(Counter(template.node_types).values())
        if worst > block:
            raise ValueError(
                f"template {template.name!r} needs {worst} distinct nodes of one "
                f"type but blocks have only {block}"
            )

    rng = np.random.default_rng(config.rng_seed)
    # Node j of every type sits in block j // block.
    blocks = [range(b * block, (b + 1) * block) for b in range(c)]

    instances = {}
    for template in config.templates:
        possible_block = math.prod(
            math.perm(block, k) for k in Counter(template.node_types).values()
        )
        per_block = (
            possible_block if template.instances_per_block is None
            else min(template.instances_per_block, possible_block)
        )
        if template.signal:
            tuples = set()
            for nodes in blocks:
                if per_block == possible_block:
                    tuples.update(
                        tup for tup in itertools.product(nodes, repeat=len(template.node_types))
                        if _distinct_within_type(template, tup)
                    )
                else:
                    tuples.update(_sample_tuples(rng, template, nodes, per_block))
            # Patch coverage: every block node of a covered type joins >= 1 tuple.
            for t in sorted(set(template.node_types)):
                positions = [p for p, tt in enumerate(template.node_types) if tt == t]
                covered = {tup[p] for tup in tuples for p in positions}
                for nodes in blocks:
                    for node in nodes:
                        if node not in covered:
                            tuples.update(_sample_tuples(
                                rng, template, nodes, 1, exclude=tuples,
                                require=(positions[0], node),
                            ))
            # Cross-block noise: uniform draws that do not land inside one block.
            tuples.update(_sample_tuples(
                rng, template, range(size), int(round(config.noise * len(tuples))),
                exclude=tuples, accept=lambda tup: len({j // block for j in tup}) > 1,
            ))
        else:
            tuples = _sample_tuples(rng, template, range(size), c * per_block)
        instances[template.name] = np.asarray(sorted(tuples), dtype=np.int32)

    # Every instance edge, in sorted stored order; HIN drops the repeats and
    # refuses an edge type reused between other node types.
    type_ids = {t: i for i, t in enumerate(config.type_names)}
    nodes_by_type = [[f"{t}{j}" for j in range(size)] for t in config.type_names]
    edge_types = []
    edge_type_ids = {}
    stored = []
    for template in config.templates:
        types = [type_ids[t] for t in template.node_types]
        for i, j, etname in template.edges:
            if etname not in edge_type_ids:
                edge_type_ids[etname] = len(edge_types)
                edge_types.append(EdgeType(etname, False, types[i], types[j]))
            et_id = edge_type_ids[etname]
            for tup in instances[template.name].tolist():
                src, dst = orient(edge_types[et_id], (types[i], tup[i]), (types[j], tup[j]))
                stored.append((et_id, src, dst))
    edges = [Edge(src, dst, et_id) for et_id, src, dst in sorted(stored)]
    hin = HIN(list(config.type_names), nodes_by_type, edge_types, edges)

    labels = {
        f"{t}{j}": j // block for t in config.type_names for j in range(size)
    }
    seeds = {}
    if config.seed_fraction > 0:
        per_block_seeds = max(1, int(round(config.seed_fraction * block)))
        for t in config.type_names:
            for b in range(c):
                chosen = rng.choice(blocks[b], size=per_block_seeds, replace=False)
                for j in sorted(int(x) for x in chosen):
                    seeds[f"{t}{j}"] = b
    return PlantedData(hin, labels, seeds, instances, config)
