"""Typed pattern graphs, subgraph matching, and tensor transcription.

Matching is non-induced: a motif instance must contain the pattern's edges but
may carry extra edges among the matched nodes. By default, distinct pattern
nodes of the same type must bind distinct graph nodes; this can be relaxed per
type via ``injective_types`` in the motif spec.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tensors import SparseTensor


@dataclass(frozen=True)
class PatternEdge:
    src: int
    dst: int
    etype: int
    directed: bool


@dataclass(frozen=True)
class Motif:
    """Pattern over node/edge types; position i of `node_types` is pattern node i."""

    name: str
    node_types: tuple[int, ...]
    edges: tuple[PatternEdge, ...]
    injective_types: frozenset[int]

    @property
    def order(self):
        return len(self.node_types)


@dataclass(frozen=True)
class MotifInstanceSet:
    """Deduplicated matches of a motif: one row of dense indices per instance,
    column i indexing the nodes of type ``motif.node_types[i]``."""

    motif: Motif
    tuples: np.ndarray  # (n, order) int32, lexicographically sorted, unique

    def __len__(self):
        return int(self.tuples.shape[0])


def parse_motif(spec_text, hin):
    """Parse a motif spec (JSON) and validate it against the HIN's schema.

    Spec shape: {"name": str,
                 "nodes": [{"id": str, "type": str}, ...],
                 "edges": [{"src": str, "dst": str, "etype": str, "dir": "d"|"u"}, ...],
                 "injective_types": [str, ...]}   # optional; default all types
    Node order in the spec defines the motif positions and hence tensor modes.
    """
    try:
        spec = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"motif spec is not valid JSON: {exc}") from exc
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("motif spec needs a non-empty string 'name'")
    nodes = spec.get("nodes")
    if not nodes:
        raise ValueError(f"motif {name!r}: needs at least one node")

    positions = {}
    node_types = []
    for entry in nodes:
        nid, tname = entry["id"], entry["type"]
        if nid in positions:
            raise ValueError(f"motif {name!r}: duplicate node id {nid!r}")
        positions[nid] = len(node_types)
        node_types.append(hin.type_id(tname))

    edges = []
    seen = set()
    for entry in spec.get("edges", []):
        for key in ("src", "dst", "etype", "dir"):
            if key not in entry:
                raise ValueError(f"motif {name!r}: edge missing field {key!r}")
        if entry["src"] not in positions or entry["dst"] not in positions:
            raise ValueError(f"motif {name!r}: edge references unknown node id")
        i, j = positions[entry["src"]], positions[entry["dst"]]
        if i == j:
            raise ValueError(f"motif {name!r}: self-edge on node {entry['src']!r}")
        if entry["dir"] not in ("d", "u"):
            raise ValueError(f"motif {name!r}: edge dir must be 'd' or 'u'")
        directed = entry["dir"] == "d"
        et_id = hin.edge_type_id(entry["etype"])
        et = hin.edge_types[et_id]
        label = f"{entry['src']}-{entry['dst']}"
        if et.directed != directed:
            raise ValueError(
                f"motif {name!r} edge {label}: edge type {et.name!r} is "
                f"{'directed' if et.directed else 'undirected'} in the graph"
            )
        ti, tj = node_types[i], node_types[j]
        sig = (et.src_type, et.dst_type)
        if directed:
            ok = (ti, tj) == sig
        else:
            ok = {ti, tj} == set(sig) and (ti, tj) in (sig, sig[::-1])
        if not ok:
            raise ValueError(
                f"motif {name!r} edge {label}: endpoint types do not match "
                f"edge type {et.name!r}"
            )
        key = (i, j, et_id) if directed else (min(i, j), max(i, j), et_id)
        if key in seen:
            raise ValueError(f"motif {name!r} edge {label}: duplicate pattern edge")
        seen.add(key)
        if not directed and ti != tj and ti != et.src_type:
            i, j = j, i  # store undirected edges in signature order for adjacency lookups
        edges.append(PatternEdge(i, j, et_id, directed))

    # Connectivity, ignoring direction.
    if len(node_types) > 1:
        adj = {i: set() for i in range(len(node_types))}
        for e in edges:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        reached = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        if len(reached) != len(node_types):
            raise ValueError(f"motif {name!r}: pattern is not connected")

    if "injective_types" in spec:
        injective = frozenset(hin.type_id(t) for t in spec["injective_types"])
    else:
        injective = frozenset(node_types)
    return Motif(name, tuple(node_types), tuple(edges), injective)


def load_motif(path, hin):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_motif(fh.read(), hin)


def _visit_order(hin, motif):
    """Static fail-fast order: start at the smallest type; then repeatedly take
    the pattern node adjacent to the visited set with the fewest type nodes."""
    n = motif.order
    adj = {i: set() for i in range(n)}
    for e in motif.edges:
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
    size = [hin.num_nodes(t) for t in motif.node_types]
    order = [min(range(n), key=lambda i: (size[i], i))]
    visited = {order[0]}
    while len(order) < n:
        frontier = [i for i in range(n) if i not in visited and adj[i] & visited]
        nxt = min(frontier, key=lambda i: (size[i], i))
        order.append(nxt)
        visited.add(nxt)
    return order


def _match_from(hin, motif, order, constraints, root):
    """Run the backtracking search with the first position bound to `root`."""
    n = motif.order
    binding = [-1] * n
    binding[order[0]] = root
    out = []
    injective = motif.injective_types

    def extend(depth):
        if depth == n:
            out.append(tuple(binding))
            return
        pos = order[depth]
        candidates = None
        for other_pos, etype, forward in constraints[depth]:
            bound = binding[other_pos]
            nbrs = hin.neighbors_fwd(etype, bound) if forward else hin.neighbors_rev(etype, bound)
            if candidates is None:
                candidates = set(nbrs)
            else:
                candidates &= set(nbrs)
            if not candidates:
                return
        t = motif.node_types[pos]
        if t in injective:
            taken = {binding[q] for q in range(n) if binding[q] >= 0 and motif.node_types[q] == t}
            candidates -= taken
        for cand in sorted(candidates):
            binding[pos] = cand
            extend(depth + 1)
            binding[pos] = -1

    extend(1)
    return out


def enumerate_instances(hin, motif, threads=1):
    """All bindings of the motif in the HIN, as sorted unique index tuples.

    Deterministic for any thread count: workers partition the candidates of the
    first pattern position and results are merged and sorted afterwards.
    """
    for t in motif.node_types:
        if not 0 <= t < hin.num_types():
            raise KeyError(f"motif {motif.name!r} uses unknown type id {t}")
    order = _visit_order(hin, motif)
    # For each later search depth: edges back to already-bound positions, as
    # (bound position, edge type, whether to follow the forward adjacency).
    pos_depth = {pos: d for d, pos in enumerate(order)}
    constraints = [[] for _ in range(motif.order)]
    for e in motif.edges:
        ds, dd = pos_depth[e.src], pos_depth[e.dst]
        if ds < dd:
            constraints[dd].append((e.src, e.etype, True))
        else:
            constraints[ds].append((e.dst, e.etype, False))
    root_type = motif.node_types[order[0]]
    roots = range(hin.num_nodes(root_type))
    if motif.order == 1:
        tuples = [(r,) for r in roots]
    elif threads > 1:
        chunks = np.array_split(np.asarray(roots, dtype=np.int64), threads * 4)
        tuples = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            jobs = [
                pool.submit(
                    lambda ch: [t for r in ch for t in _match_from(hin, motif, order, constraints, int(r))],
                    chunk,
                )
                for chunk in chunks
                if chunk.size
            ]
            for job in jobs:
                tuples.extend(job.result())
    else:
        tuples = []
        for r in roots:
            tuples.extend(_match_from(hin, motif, order, constraints, r))
    arr = np.asarray(sorted(set(tuples)), dtype=np.int32).reshape(-1, motif.order)
    return MotifInstanceSet(motif, arr)


def transcribe(instances, hin):
    """Binary sparse tensor of the instance set: one mode per motif position,
    mode i sized |V_t| for the position's type, value 1.0 at each instance."""
    motif = instances.motif
    dims = tuple(hin.num_nodes(t) for t in motif.node_types)
    if not len(instances):
        return SparseTensor.empty(dims)
    return SparseTensor(dims, instances.tuples, np.ones(len(instances)))
