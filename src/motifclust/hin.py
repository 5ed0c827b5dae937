"""Typed graph store with dense per-type node indexing.

Nodes are identified by globally unique strings and grouped by type; within a
type, the dense index of a node is its first-appearance position in the nodes
file. Edge types carry a fixed endpoint-type signature and directedness,
inferred from the first edge of that type and enforced afterwards. Adjacency
is held per edge type and direction as CSR arrays (`HIN.adjacency`), built once
in the constructor. An `HIN` is immutable after construction.

File formats (UTF-8, LF, `#` comment lines skipped):
  nodes TSV: ``node_id<TAB>type_name`` per line; an optional directive line
             ``#types name1 name2 ...`` pre-registers types (allows empty ones)
  edges TSV: ``src_id<TAB>dst_id<TAB>edge_type_name<TAB>d|u``
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EdgeType:
    name: str
    directed: bool
    src_type: int
    dst_type: int


@dataclass(frozen=True)
class Edge:
    """Endpoints are (type_id, dense_index), stored in `orient` order."""

    src: tuple[int, int]
    dst: tuple[int, int]
    etype: int


def orient(et, src, dst):
    """Endpoints of an edge of type `et` in stored order: undirected edges go
    in signature order, the lower endpoint first when both ends share a type."""
    if et.directed:
        return src, dst
    if et.src_type == et.dst_type:
        return min(src, dst), max(src, dst)
    if (src[0], dst[0]) == (et.dst_type, et.src_type):
        return dst, src
    return src, dst


class EdgeError(ValueError):
    """An edge that `HIN` refuses; `index` is its position in the input."""

    def __init__(self, index, reason):
        super().__init__(f"edge {index}: {reason}")
        self.index = index
        self.reason = reason


class HIN:
    def __init__(self, type_names, nodes_by_type, edge_types, edges):
        self.type_names = list(type_names)
        self.type_ids = {name: i for i, name in enumerate(self.type_names)}
        if len(self.type_ids) != len(self.type_names):
            raise ValueError("duplicate type names")
        self.nodes_by_type = [list(ns) for ns in nodes_by_type]
        if len(self.nodes_by_type) != len(self.type_names):
            raise ValueError("nodes_by_type does not match type_names")
        self.node_index = {}
        for t, names in enumerate(self.nodes_by_type):
            for j, name in enumerate(names):
                if name in self.node_index:
                    raise ValueError(f"duplicate node id {name!r}")
                self.node_index[name] = (t, j)
        self.edge_types = list(edge_types)
        self.edge_type_ids = {et.name: i for i, et in enumerate(self.edge_types)}

        # Edge admission, the one home of these rules: stored order fits the
        # signature (see `orient`), endpoints exist, no self-loops, and a
        # repeated edge is dropped and counted in `duplicates`.
        seen = set()
        self.edges = []
        self.duplicates = 0
        for k, e in enumerate(edges):
            et = self.edge_types[e.etype]
            src, dst = orient(et, e.src, e.dst)
            if (src[0], dst[0]) != (et.src_type, et.dst_type):
                raise EdgeError(k, f"edge type {et.name!r} used between incompatible node types")
            for t, j in (src, dst):
                if not 0 <= j < len(self.nodes_by_type[t]):
                    raise EdgeError(k, f"edge references unknown node index {j} of type {t}")
            if src == dst:
                raise EdgeError(k, f"self-loop on {self.node_name(*src)!r}")
            key = (e.etype, src, dst)
            if key in seen:
                self.duplicates += 1
                continue
            seen.add(key)
            self.edges.append(e if src == e.src else Edge(src, dst, e.etype))

        # Per edge type, CSR adjacency forward (src side -> dst side) and
        # reverse; an undirected same-type edge is entered in both directions.
        flat = (v for e in self.edges for v in (e.etype, e.src[1], e.dst[1]))
        arr = np.fromiter(flat, np.int64, 3 * len(self.edges)).reshape(-1, 3)
        self._adj = {}
        for k, et in enumerate(self.edge_types):
            src, dst = arr[arr[:, 0] == k, 1:].T
            if not et.directed and et.src_type == et.dst_type:
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            self._adj[k, True] = _csr(src, dst, self.num_nodes(et.src_type))
            self._adj[k, False] = _csr(dst, src, self.num_nodes(et.dst_type))

    # -- lookups -------------------------------------------------------------

    def num_types(self):
        return len(self.type_names)

    def type_id(self, name):
        try:
            return self.type_ids[name]
        except KeyError:
            raise KeyError(f"unknown node type {name!r}") from None

    def edge_type_id(self, name):
        try:
            return self.edge_type_ids[name]
        except KeyError:
            raise KeyError(f"unknown edge type {name!r}") from None

    def nodes_of_type(self, t):
        """Ordered node ids of type t (dense index = position, stable)."""
        if not 0 <= t < len(self.nodes_by_type):
            raise KeyError(f"unknown type id {t}")
        return list(self.nodes_by_type[t])

    def num_nodes(self, t):
        return len(self.nodes_by_type[t])

    def node_name(self, t, j):
        return self.nodes_by_type[t][j]

    def lookup(self, node_id):
        try:
            return self.node_index[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def adjacency(self, etype, forward=True):
        """CSR `(indptr, indices)` of an edge type: row j lists, ascending, the
        dst-side neighbours of src-side node j (forward) or the reverse."""
        return self._adj[etype, forward]

    def neighbors_fwd(self, etype, j):
        """Dense indices on the dst side reachable from src-side node j."""
        indptr, indices = self._adj[etype, True]
        return indices[indptr[j]:indptr[j + 1]].tolist()

    def neighbors_rev(self, etype, j):
        indptr, indices = self._adj[etype, False]
        return indices[indptr[j]:indptr[j + 1]].tolist()

    def __eq__(self, other):
        if not isinstance(other, HIN):
            return NotImplemented
        return (
            self.type_names == other.type_names
            and self.nodes_by_type == other.nodes_by_type
            and self.edge_types == other.edge_types
            and sorted((e.etype, e.src, e.dst) for e in self.edges)
            == sorted((e.etype, e.src, e.dst) for e in other.edges)
        )


def _csr(rows, cols, n_rows):
    """CSR arrays of the pairs (rows[k], cols[k]), columns ascending per row."""
    order = np.lexsort((cols, rows))
    return np.searchsorted(rows[order], np.arange(n_rows + 1)), cols[order].astype(np.int32)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            yield lineno, raw.rstrip("\n")


def load_hin(nodes_path, edges_path):
    """Load and validate an HIN from the two TSV files.

    Malformed lines, duplicate node ids, and edges that reference unknown
    nodes or that `HIN` refuses raise ValueError naming the line.
    """
    type_names = []
    type_ids = {}
    nodes_by_type = []
    node_index = {}

    def intern_type(name):
        if name not in type_ids:
            type_ids[name] = len(type_names)
            type_names.append(name)
            nodes_by_type.append([])
        return type_ids[name]

    for lineno, line in _read_lines(nodes_path):
        if line.startswith("#types"):
            for name in line.split()[1:]:
                intern_type(name)
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{nodes_path} line {lineno}: expected 2 columns, got {len(parts)}")
        node_id, tname = parts
        if node_id in node_index:
            raise ValueError(f"{nodes_path} line {lineno}: duplicate node id {node_id!r}")
        t = intern_type(tname)
        node_index[node_id] = (t, len(nodes_by_type[t]))
        nodes_by_type[t].append(node_id)

    edge_types = []
    edge_type_ids = {}
    edges = []
    linenos = []
    for lineno, line in _read_lines(edges_path):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{edges_path} line {lineno}: expected 4 columns, got {len(parts)}")
        src_id, dst_id, etname, flag = parts
        if flag not in ("d", "u"):
            raise ValueError(f"{edges_path} line {lineno}: direction must be 'd' or 'u'")
        directed = flag == "d"
        for nid in (src_id, dst_id):
            if nid not in node_index:
                raise ValueError(f"{edges_path} line {lineno}: unknown node id {nid!r}")
        src = node_index[src_id]
        dst = node_index[dst_id]
        if etname not in edge_type_ids:
            edge_type_ids[etname] = len(edge_types)
            edge_types.append(EdgeType(etname, directed, src[0], dst[0]))
        et_id = edge_type_ids[etname]
        if edge_types[et_id].directed != directed:
            raise ValueError(
                f"{edges_path} line {lineno}: edge type {etname!r} used with inconsistent direction flag"
            )
        edges.append(Edge(src, dst, et_id))
        linenos.append(lineno)

    try:
        hin = HIN(type_names, nodes_by_type, edge_types, edges)
    except EdgeError as exc:
        raise ValueError(f"{edges_path} line {linenos[exc.index]}: {exc.reason}") from None
    if hin.duplicates:
        log.warning("%s: %d duplicate edge(s) dropped", edges_path, hin.duplicates)
    return hin


def write_hin(hin, nodes_path, edges_path):
    """Serialize back to the TSV formats; reloading reproduces the HIN."""
    with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#types " + " ".join(hin.type_names) + "\n")
        for t in range(hin.num_types()):
            for name in hin.nodes_by_type[t]:
                fh.write(f"{name}\t{hin.type_names[t]}\n")
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for e in hin.edges:
            et = hin.edge_types[e.etype]
            flag = "d" if et.directed else "u"
            fh.write(
                f"{hin.node_name(*e.src)}\t{hin.node_name(*e.dst)}\t{et.name}\t{flag}\n"
            )
