"""Typed pattern graphs, subgraph matching, and tensor transcription.

Matching is non-induced: a motif instance must contain the pattern's edges but
may carry extra edges among the matched nodes. By default, distinct pattern
nodes of the same type must bind distinct graph nodes; this can be relaxed per
type via ``injective_types`` in the motif spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hin import orient
from .tensors import SparseTensor


@dataclass(frozen=True)
class PatternEdge:
    """A pattern edge between positions, in `orient` order of its edge type."""

    src: int
    dst: int
    etype: int


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


SPEC_KEYS = {"name", "nodes", "edges", "injective_types"}


def _list(name, spec, key, kind):
    """The spec's `key` (default empty), which must be a list of `kind`."""
    value = spec.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        noun = "strings" if kind is str else "objects"
        raise ValueError(f"motif {name!r}: {key!r} must be a list of {noun}")
    return value


def _fields(name, what, entry, keys):
    """The string fields `keys` of a spec object that has no other keys."""
    for key in keys:
        if key not in entry:
            raise ValueError(f"motif {name!r}: {what} missing field {key!r}")
        if not isinstance(entry[key], str):
            raise ValueError(f"motif {name!r}: {what} field {key!r} must be a string")
    extra = sorted(set(entry) - set(keys))
    if extra:
        raise ValueError(f"motif {name!r}: {what} has unknown keys {extra}")
    return [entry[key] for key in keys]


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
    if not isinstance(spec, dict):
        raise ValueError("motif spec must be a JSON object")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("motif spec needs a non-empty string 'name'")
    if "/" in name or "\\" in name:
        raise ValueError(f"motif {name!r}: name must not contain '/' or '\\'")
    if set(spec) - SPEC_KEYS:
        raise ValueError(f"motif {name!r}: unknown keys {sorted(set(spec) - SPEC_KEYS)}")
    if not spec.get("nodes"):
        raise ValueError(f"motif {name!r}: needs at least one node")

    positions = {}
    node_types = []
    for entry in _list(name, spec, "nodes", dict):
        nid, tname = _fields(name, "node", entry, ("id", "type"))
        if nid in positions:
            raise ValueError(f"motif {name!r}: duplicate node id {nid!r}")
        positions[nid] = len(node_types)
        node_types.append(hin.type_id(tname))

    edges = []
    for entry in _list(name, spec, "edges", dict):
        src, dst, etname, flag = _fields(name, "edge", entry, ("src", "dst", "etype", "dir"))
        if src not in positions or dst not in positions:
            raise ValueError(f"motif {name!r}: edge references unknown node id")
        if src == dst:
            raise ValueError(f"motif {name!r}: self-edge on node {src!r}")
        if flag not in ("d", "u"):
            raise ValueError(f"motif {name!r}: edge dir must be 'd' or 'u'")
        et_id = hin.edge_type_id(etname)
        et = hin.edge_types[et_id]
        label = f"{src}-{dst}"
        if et.directed != (flag == "d"):
            raise ValueError(
                f"motif {name!r} edge {label}: edge type {et.name!r} is "
                f"{'directed' if et.directed else 'undirected'} in the graph"
            )
        i, j = positions[src], positions[dst]
        (ti, i), (tj, j) = orient(et, (node_types[i], i), (node_types[j], j))
        if (ti, tj) != (et.src_type, et.dst_type):
            raise ValueError(
                f"motif {name!r} edge {label}: endpoint types do not match "
                f"edge type {et.name!r}"
            )
        if PatternEdge(i, j, et_id) in edges:
            raise ValueError(f"motif {name!r} edge {label}: duplicate pattern edge")
        edges.append(PatternEdge(i, j, et_id))

    if "injective_types" in spec:
        injective = frozenset(hin.type_id(t) for t in _list(name, spec, "injective_types", str))
    else:
        injective = frozenset(node_types)
    motif = Motif(name, tuple(node_types), tuple(edges), injective)
    _visit_order(hin, motif)  # raises unless the pattern is connected
    return motif


def load_motif(path, hin):
    """`parse_motif` of a file; a ValueError names the file first."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_motif(fh.read(), hin)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
        if not frontier:
            raise ValueError(f"motif {motif.name!r}: pattern is not connected")
        nxt = min(frontier, key=lambda i: (size[i], i))
        order.append(nxt)
        visited.add(nxt)
    return order


def enumerate_instances(hin, motif):
    """All bindings of the motif in the HIN: an (n, order) int32 array of
    unique rows in join order: sorted over the positions in `_visit_order`.

    A binary join over the HIN's CSR adjacency, one pattern position per step
    in `_visit_order`: the first edge back to a bound position expands every
    partial binding by that node's neighbours, each further back-edge keeps
    the rows whose pair is an edge, and injective types drop rows that repeat
    a node. Adjacency rows hold no repeats, so every binding comes out once.
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
    cols = {order[0]: np.arange(hin.num_nodes(motif.node_types[order[0]]), dtype=np.int32)}
    for depth in range(1, motif.order):
        pos = order[depth]
        (first, etype, forward), *rest = constraints[depth]
        indptr, indices = hin.adjacency(etype, forward)
        starts, deg = indptr[cols[first]], np.diff(indptr)[cols[first]]
        # new row k reads indices[starts[r] + i]: r is its source row, i its rank
        new = indices[np.arange(deg.sum()) + np.repeat(starts - np.cumsum(deg) + deg, deg)]
        cols = {q: np.repeat(c, deg) for q, c in cols.items()}
        keep = np.ones(new.size, dtype=bool)
        t = motif.node_types[pos]
        for other, etype, forward in rest:
            keep &= _has_edge(hin.adjacency(etype, forward), hin.num_nodes(t), cols[other], new)
        if t in motif.injective_types:
            for q, c in cols.items():
                if motif.node_types[q] == t:
                    keep &= c != new
        cols[pos] = new
        cols = {q: c[keep] for q, c in cols.items()}
    return np.column_stack([cols[i] for i in range(motif.order)])


def _has_edge(csr, width, rows, cols):
    """Whether each pair (rows[k], cols[k]) is stored in the CSR adjacency,
    by binary search over its sorted keys row * width + col."""
    indptr, indices = csr
    keys = np.repeat(np.arange(indptr.size - 1), np.diff(indptr)) * width + indices
    keys = np.append(keys, np.iinfo(np.int64).max)  # a sentinel above every query
    query = rows.astype(np.int64) * width + cols
    return keys[np.searchsorted(keys, query)] == query


def transcribe(hin, motif, tuples):
    """Binary sparse tensor of the motif's instance rows: one mode per motif
    position, mode i sized |V_t| for the position's type, value 1.0 at each."""
    dims = tuple(hin.num_nodes(t) for t in motif.node_types)
    return SparseTensor(dims, tuples, np.ones(len(tuples)))
