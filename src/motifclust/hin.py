"""Typed graph store with dense per-type node indexing.

Nodes are identified by globally unique strings and grouped by type; within a
type, the dense index of a node is its first-appearance position in the nodes
file. Edge types carry a fixed endpoint-type signature and directedness,
inferred from the first edge of that type and enforced afterwards. `HIN`
admits edges as `(edge type, src type, src index, dst type, dst index)` array
rows, which `load_hin` streams from the edges file, and holds the edge set
once, as `HIN.edges`: sorted `(edge type, src index, dst index)` int64 rows in
`orient` order. The CSR adjacency per edge type and direction
(`HIN.adjacency`) is built from it once. An `HIN` is immutable.

File formats (UTF-8, LF, `#` comment lines skipped):
  nodes TSV: ``node_id<TAB>type_name`` per line; an optional directive line
             ``#types name1 name2 ...`` (first token exactly ``#types``)
             pre-registers types (allows empty ones)
  edges TSV: ``src_id<TAB>dst_id<TAB>edge_type_name<TAB>d|u``

`write_snapshot` stores a loaded HIN and the tensors of its motifs in one
numpy `.npz` file, under two keys that name the files they came from: the
graph's names as one JSON document and its edges as the `HIN.edges` array
under one, each tensor's index and value arrays, with a JSON list of motif
names and dims, under the other. `read_snapshot` rebuilds the HIN through
`HIN.__init__` without parsing text, and the tensors through `SparseTensor`
when their key matches too.
"""

from __future__ import annotations

import json
import logging
import zipfile
from array import array
from dataclasses import dataclass

import numpy as np

from .tensors import SparseTensor, _first_of_runs, _packed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EdgeType:
    name: str
    directed: bool
    src_type: int
    dst_type: int


def orient(et, src, dst):
    """Endpoints of an edge of type `et` in stored order: undirected edges go
    in signature order, the lower endpoint first when both ends share a type.
    `src` and `dst` are `(type, index)` pairs, or `(2, m)` arrays of m edges."""
    (st, sj), (dt, dj) = src, dst
    if et.directed:
        return src, dst
    if et.src_type == et.dst_type:
        swap = (st > dt) | ((st == dt) & (sj > dj))
    else:
        swap = (st == et.dst_type) & (dt == et.src_type)
    if np.ndim(swap):
        return np.where(swap, dst, src), np.where(swap, src, dst)
    return (dst, src) if swap else (src, dst)


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
        if len(self.edge_type_ids) != len(self.edge_types):
            raise ValueError("duplicate edge type names")
        for et in self.edge_types:
            if not {et.src_type, et.dst_type} <= set(range(len(self.type_names))):
                raise ValueError(
                    f"edge type {et.name!r} joins node type ids {et.src_type} and "
                    f"{et.dst_type}, outside 0..{len(self.type_names) - 1}"
                )

        # Edge admission, the one home of these rules, over (n, 5) integer
        # rows `(edge type id, src type, src index, dst type, dst index)`: the
        # edge type exists, stored order fits the signature (see `orient`),
        # endpoints exist, no self-loops, and a repeated edge is dropped and
        # counted in `duplicates`. A row of an unknown edge type reads the
        # padding signature (-1, -1) and type size 0 after the real ones.
        edges = np.asarray(edges)
        if edges.ndim != 2 or edges.shape[1] != 5 or edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be (n, 5) integer rows, got {edges.dtype} {edges.shape}")
        edges = edges.astype(np.int64)  # a copy: rows are oriented in place below
        etype = edges[:, 0]
        known = (etype >= 0) & (etype < len(self.edge_types))
        sig = np.array([(et.src_type, et.dst_type) for et in self.edge_types] + [(-1, -1)])
        sig = sig[np.where(known, etype, -1)].T
        for k, et in enumerate(self.edge_types):
            rows = etype == k
            src, dst = orient(et, edges[rows, 1:3].T, edges[rows, 3:].T)
            edges[rows, 1:] = np.vstack([src, dst]).T
        st, sj, dt, dj = edges[:, 1:].T
        sizes = np.array([len(names) for names in self.nodes_by_type] + [0], dtype=np.int64)
        incompatible = "edge type {!r} used between incompatible node types"
        unknown = "edge references unknown node index {} of type {}"
        faults = [  # (refused rows, reason for refused row k), in checking order
            (~known, lambda k: f"unknown edge type id {etype[k]}"),
            ((st != sig[0]) | (dt != sig[1]), lambda k: incompatible.format(self.edge_types[etype[k]].name)),
            ((sj < 0) | (sj >= sizes[sig[0]]), lambda k: unknown.format(sj[k], st[k])),
            ((dj < 0) | (dj >= sizes[sig[1]]), lambda k: unknown.format(dj[k], dt[k])),
            ((st == dt) & (sj == dj), lambda k: f"self-loop on {self.node_name(st[k], sj[k])!r}"),
        ]
        refused = np.logical_or.reduce([mask for mask, _ in faults], initial=False)
        if refused.any():
            k = int(np.argmax(refused))
            raise EdgeError(k, next(reason(k) for mask, reason in faults if mask[k]))
        keys = edges[:, [0, 2, 4]]
        cols = _packed(keys, (len(self.edge_types), *[int(sizes.max(initial=0))] * 2))
        order = np.lexsort(cols[::-1])
        first = _first_of_runs([col[order] for col in cols])
        self.duplicates = int(first.size - first.sum())
        self.edges = keys[order[first]]
        self.edges.flags.writeable = False

        # Per edge type, CSR adjacency forward (src side -> dst side) and
        # reverse; an undirected same-type edge is entered in both directions.
        self._adj = {}
        for k, et in enumerate(self.edge_types):
            src, dst = self.edges[self.edges[:, 0] == k, 1:].T
            if not et.directed and et.src_type == et.dst_type:
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            self._adj[k, True] = _csr(src, dst, self.num_nodes(et.src_type), self.num_nodes(et.dst_type))
            self._adj[k, False] = _csr(dst, src, self.num_nodes(et.dst_type), self.num_nodes(et.src_type))

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

    def __eq__(self, other):
        if not isinstance(other, HIN):
            return NotImplemented
        return (
            self.type_names == other.type_names
            and self.nodes_by_type == other.nodes_by_type
            and self.edge_types == other.edge_types
            and np.array_equal(self.edges, other.edges)
        )


def _csr(rows, cols, n_rows, n_cols):
    """CSR arrays of the pairs (rows[k], cols[k]), columns ascending per row."""
    keys = rows * n_cols + cols  # rising when the pairs ascend already, as `HIN.edges` forward pairs do
    if not np.all(keys[1:] > keys[:-1]):
        rows, cols = np.divmod(np.sort(keys), n_cols)
    return np.searchsorted(rows, np.arange(n_rows + 1)), cols.astype(np.int32)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            yield lineno, raw.rstrip("\n")


def load_hin(nodes_path, edges_path):
    """Load and validate an HIN from the two TSV files.

    Malformed lines, duplicate node ids, and edges that reference unknown
    nodes or that `HIN` refuses raise ValueError naming the earliest bad line.
    """
    type_names = []
    type_ids = {}
    nodes_by_type = []
    node_index = {}  # node id -> its position in the nodes file
    node_ends = []  # (type, index) of each node, by position

    def intern_type(name):
        if name not in type_ids:
            type_ids[name] = len(type_names)
            type_names.append(name)
            nodes_by_type.append([])
        return type_ids[name]

    for lineno, line in _read_lines(nodes_path):
        if line.split()[:1] == ["#types"]:
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
        node_index[node_id] = len(node_ends)
        node_ends.append((t, len(nodes_by_type[t])))
        nodes_by_type[t].append(node_id)

    edge_types = []
    edge_type_ids = {}
    rows = array("q")  # per edge: edge type id, src position, dst position, line

    def admit():  # the HIN of the edges read so far
        table = np.frombuffer(rows, dtype=np.int64).reshape(-1, 4)
        ends = np.array(node_ends, dtype=np.int64).reshape(-1, 2)
        edges = np.column_stack([table[:, 0], ends[table[:, 1]], ends[table[:, 2]]])
        try:
            return HIN(type_names, nodes_by_type, edge_types, edges)
        except EdgeError as exc:
            raise ValueError(f"{edges_path} line {table[exc.index, 3]}: {exc.reason}") from None

    def refuse(lineno, reason):
        admit()  # the earliest bad line wins, so a refused edge above comes first
        raise ValueError(f"{edges_path} line {lineno}: {reason}")

    for lineno, line in _read_lines(edges_path):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            refuse(lineno, f"expected 4 columns, got {len(parts)}")
        src_id, dst_id, etname, flag = parts
        if flag not in ("d", "u"):
            refuse(lineno, "direction must be 'd' or 'u'")
        src, dst = node_index.get(src_id), node_index.get(dst_id)
        if src is None or dst is None:
            refuse(lineno, f"unknown node id {src_id if src is None else dst_id!r}")
        if etname not in edge_type_ids:
            edge_type_ids[etname] = len(edge_types)
            edge_types.append(EdgeType(etname, flag == "d", node_ends[src][0], node_ends[dst][0]))
        et_id = edge_type_ids[etname]
        if edge_types[et_id].directed != (flag == "d"):
            refuse(lineno, f"edge type {etname!r} used with inconsistent direction flag")
        rows.extend((et_id, src, dst, lineno))

    hin = admit()
    _warn_duplicates(hin, edges_path)
    return hin


def _warn_duplicates(hin, edges_path):
    if hin.duplicates:
        log.warning("%s: %d duplicate edge(s) dropped", edges_path, hin.duplicates)


def write_hin(hin, nodes_path, edges_path):
    """Serialize back to the TSV formats, edges in `hin.edges` order;
    reloading reproduces the HIN."""
    with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#types " + " ".join(hin.type_names) + "\n")
        for t in range(hin.num_types()):
            for name in hin.nodes_by_type[t]:
                fh.write(f"{name}\t{hin.type_names[t]}\n")
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for etype, src, dst in hin.edges.tolist():
            et = hin.edge_types[etype]
            ends = hin.node_name(et.src_type, src), hin.node_name(et.dst_type, dst)
            fh.write("\t".join((*ends, et.name, "d" if et.directed else "u")) + "\n")


# The arrays of a snapshot: name -> (dtype, shape), None for any length. The
# k-th tensor adds `indices{k}` and `values{k}` (see `_read_tensors`).
SNAPSHOT_ARRAYS = {
    "key": (np.uint8, (None,)),  # the graph key it was written under
    "names": (np.uint8, (None,)),  # JSON [type names, node ids by type, edge types]
    "edges": (np.int64, (None, 3)),  # `HIN.edges`
    "duplicates": (np.int64, ()),  # `HIN.duplicates`
    "motif_key": (np.uint8, (None,)),  # the key its tensors were written under
    "tensors": (np.uint8, (None,)),  # JSON [motif name, dims] per tensor
}


def write_snapshot(hin, tensors, path, key, motif_key):
    """Store `hin` under the string `key` and `tensors`, a dict of motif name
    to `SparseTensor`, under `motif_key`, at `path`; see `read_snapshot`."""
    edge_types = [[et.name, et.directed, et.src_type, et.dst_type] for et in hin.edge_types]
    names = json.dumps([hin.type_names, hin.nodes_by_type, edge_types])  # ASCII, NULs escaped
    entries = json.dumps([[name, list(t.dims)] for name, t in tensors.items()])
    arrays = {
        "key": np.frombuffer(key.encode("utf-8"), dtype=np.uint8),
        "names": np.frombuffer(names.encode("ascii"), dtype=np.uint8),
        "edges": hin.edges,
        "duplicates": np.array(hin.duplicates, dtype=np.int64),
        "motif_key": np.frombuffer(motif_key.encode("utf-8"), dtype=np.uint8),
        "tensors": np.frombuffer(entries.encode("ascii"), dtype=np.uint8),
    }
    for k, t in enumerate(tensors.values()):
        arrays[f"indices{k}"], arrays[f"values{k}"] = t.indices, t.values
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_arrays(archive, specs):
    """The arrays `specs` names from `archive`, each of its dtype and shape."""
    arrays = {name: archive[name] for name in specs}
    for name, (dtype, shape) in specs.items():
        a = arrays[name]
        if a.dtype != dtype or len(a.shape) != len(shape) or a.shape[1:] != shape[1:]:
            raise ValueError(f"array {name!r} is {a.dtype} of shape {a.shape}")
    return arrays


def _read_json(array, what):
    try:
        return json.loads(array.tobytes().decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{what} do not read as JSON: {exc}") from None


def _read_tensors(archive, doc):
    """The tensors of a snapshot `archive` whose `tensors` array is `doc`."""
    entries = _read_json(doc, "tensors")
    if type(entries) is not list or not all(
        type(e) is list and [*map(type, e)] == [str, list] and all(type(d) is int for d in e[1])
        for e in entries
    ):
        raise ValueError("tensors are not [motif name, dims] per tensor")
    tensors = {}
    for k, (name, dims) in enumerate(entries):
        specs = {f"indices{k}": (np.int32, (None, len(dims))), f"values{k}": (np.float64, (None,))}
        indices, values = _read_arrays(archive, specs).values()
        try:
            tensors[name] = SparseTensor(dims, indices, values)
        except ValueError as exc:
            raise ValueError(f"tensor {name!r}: {exc}") from None
    return tensors


def read_snapshot(path, key, motif_key, edges_path):
    """`(hin, tensors)` as `write_snapshot` stored them at `path` under `key`
    and `motif_key`: the HIN equal to the `load_hin` one it was taken from,
    warning of its dropped duplicates as that did, naming `edges_path`, and
    the dict of tensors, or None when they were written under another motif
    key. A file written under another graph key, or one that does not read as
    a snapshot, raises a ValueError saying why."""
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with archive:
                if archive["key"].tobytes() != key.encode("utf-8"):
                    raise ValueError("written for other graph files or another cache format")
                arrays = _read_arrays(archive, SNAPSHOT_ARRAYS)
                tensors = None
                if arrays["motif_key"].tobytes() == motif_key.encode("utf-8"):
                    tensors = _read_tensors(archive, arrays["tensors"])
    except (zipfile.BadZipFile, EOFError, KeyError) as exc:
        raise ValueError(f"unreadable: {exc}") from None
    names = _read_json(arrays["names"], "names")
    if not (
        type(names) is list and len(names) == 3 and all(type(part) is list for part in names)
        and all(type(ids) is list for ids in names[1])
        and all(type(s) is str for strings in [names[0], *names[1]] for s in strings)
        and all(type(et) is list and [*map(type, et)] == [str, bool, int, int] for et in names[2])
    ):
        raise ValueError("names are not [types, node ids by type, [name, directed, src, dst] per edge type]")
    duplicates = int(arrays["duplicates"])
    if duplicates < 0:
        raise ValueError(f"duplicates count {duplicates} is negative")
    type_names, nodes_by_type, edge_types = names
    # Endpoint types from the signatures turn the stored rows into admission
    # rows. An edge type id out of range reads a clipped row (the padding row
    # keeps the table non-empty), and `HIN` refuses it as unknown.
    edges = arrays["edges"]
    ends = np.array([et[2:] for et in edge_types] + [[-1, -1]])
    st, dt = ends.take(edges[:, 0], axis=0, mode="clip").T
    rows = np.column_stack([edges[:, 0], st, edges[:, 1], dt, edges[:, 2]])
    hin = HIN(type_names, nodes_by_type, [EdgeType(*et) for et in edge_types], rows)
    hin.duplicates = duplicates  # dropped from the edges file, not from `rows`
    _warn_duplicates(hin, edges_path)
    return hin, tensors
