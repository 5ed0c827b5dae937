"""Typed graph store with dense per-type node indexing.

Nodes are identified by globally unique strings and grouped by type; within a
type, the dense index of a node is its first-appearance position in the nodes
file. Edge types carry a fixed endpoint-type signature and directedness,
inferred from the first edge of that type and enforced afterwards. `HIN`
admits edges as `(edge type, src type, src index, dst type, dst index)` array
rows, which `load_hin` parses from the edges file in columns, a block of
lines at a time. It orients all rows in one pass and holds the edge set once,
as `HIN.edges`: sorted `(edge type, src index, dst index)` int64 rows in
`orient` order. `HIN.adjacency` builds the CSR adjacency of an edge type and
direction from it on first use. An `HIN` is immutable. `write_hin` refuses a
graph that the files cannot hold.

File formats (UTF-8, LF, `#` comment lines skipped):
  nodes TSV: ``node_id<TAB>type_name`` per line; an optional directive line
             ``#types name1 name2 ...`` (first token exactly ``#types``)
             pre-registers types (allows empty ones)
  edges TSV: ``src_id<TAB>dst_id<TAB>edge_type_name<TAB>d|u``

`write_snapshot` stores a loaded HIN and the tensors of its motifs in one
numpy `.npz` file: one JSON header (the two keys that name the files they
came from, the graph's names, its duplicate count and each tensor's motif
name and dims), the `HIN.edges` array, and each tensor's index array.
`read_snapshot` rebuilds the HIN through `HIN.__init__` without
parsing text when the graph key matches, and the tensors through
`SparseTensor` when the motif key matches too.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
import zipfile
from array import array
from dataclasses import dataclass

import numpy as np

from .tensors import SparseTensor, _groups

log = logging.getLogger(__name__)

# `_read_table` holds the lines of one block at a time. Blocks of 64 K characters
# parse `planted-large`'s edges no faster and leave about 2 MB more heap behind.
READ_BLOCK_CHARS = 1 << 14
DIRECTED = {"d": 1, "u": 0}  # an edge line's direction flag -> whether it is directed


@dataclass(frozen=True)
class EdgeType:
    name: str
    directed: bool
    src_type: int
    dst_type: int


def orient(et, src, dst):
    """Endpoints of an edge of type `et` in stored order: undirected edges go
    in signature order, the lower endpoint first when both ends share a type.
    `src` and `dst` are `(type, index)` pairs, or `(2, m)` arrays of m edges,
    and then `et`'s fields may be arrays of each edge's own signature."""
    (st, sj), (dt, dj) = src, dst
    swap = np.where(et.src_type == et.dst_type, (st > dt) | ((st == dt) & (sj > dj)),
                    (st == et.dst_type) & (dt == et.src_type)) & np.logical_not(et.directed)
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
        # padding signature (directed, -1, -1) and type size 0 after the real ones.
        edges = np.asarray(edges)
        if edges.ndim != 2 or edges.shape[1] != 5 or edges.dtype.kind not in "iu":
            raise ValueError(f"edges must be (n, 5) integer rows, got {edges.dtype} {edges.shape}")
        cols = np.ascontiguousarray(edges.T, dtype=np.int64)  # each column contiguous: `orient` reads it 3x faster
        etype = cols[0]
        known = (etype >= 0) & (etype < len(self.edge_types))
        sigs = np.array([(et.directed, et.src_type, et.dst_type) for et in self.edge_types] + [(1, -1, -1)])
        directed, *sig = sigs.T.take(np.where(known, etype, -1), axis=1)
        (st, sj), (dt, dj) = orient(EdgeType("", directed == 1, *sig), cols[1:3], cols[3:])
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
        fault = _first_fault(faults)
        if fault:
            raise EdgeError(*fault)
        dims = len(self.edge_types), *[int(sizes.max(initial=0))] * 2
        self.edges = _groups(np.column_stack([etype, sj, dj]), dims)[1]
        self.edges.flags.writeable = False
        self.duplicates = len(etype) - len(self.edges)
        self._adj = {}  # (edge type, forward) -> CSR arrays, built by `adjacency`

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
        """CSR `(indptr, indices)` of an edge type, built on first use and kept:
        row j lists, ascending, the dst-side neighbours of src-side node j
        (forward) or the reverse, an undirected same-type edge both ways."""
        if (etype, forward) not in self._adj:
            if etype not in range(len(self.edge_types)) or forward not in (True, False):
                raise KeyError((etype, forward))
            et = self.edge_types[etype]
            src, dst = self.edges[self.edges[:, 0] == etype, 1:].T
            if not et.directed and et.src_type == et.dst_type:
                src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            n_src, n_dst = self.num_nodes(et.src_type), self.num_nodes(et.dst_type)
            self._adj[etype, forward] = _csr(src, dst, n_src, n_dst) if forward else _csr(dst, src, n_dst, n_src)
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
    """CSR arrays of the distinct pairs (rows[k], cols[k]), columns ascending per row."""
    rows, cols = _groups(np.column_stack([rows, cols]), (n_rows, n_cols))[1].T
    return np.searchsorted(rows, np.arange(n_rows + 1)), cols.astype(np.int32)


def _first_fault(faults):
    """`(k, reason)` for the first row k that a mask of `faults`, `(mask,
    reason for row k)` pairs in checking order, refuses, with the first such
    mask's reason; None when no row is refused."""
    refused = np.logical_or.reduce([mask for mask, _ in faults], initial=False)
    if not refused.any():
        return None
    k = int(np.argmax(refused))
    return k, next(reason(k) for mask, reason in faults if mask[k])


def _repeats(ids, seen):
    """Mask over the list `ids`: the ids that are keys of `seen` or occur earlier in `ids`."""
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # id -> its first position
    earlier = np.fromiter(map(first.__getitem__, ids), np.int64, len(ids)) != np.arange(len(ids))
    return earlier | np.fromiter(map(seen.__contains__, ids), bool, len(ids))


def _blocks(path):
    """A text file, newlines translated, in blocks of whole lines of about
    `READ_BLOCK_CHARS` characters, each ending in a newline."""
    with open(path, "r", encoding="utf-8") as fh:
        tail = ""
        while block := fh.read(READ_BLOCK_CHARS):
            head, newline, tail = (tail + block).rpartition("\n")
            if newline:
                yield head + newline
    if tail:
        yield tail + "\n"  # no final newline


def _read_table(path, width, directive=None):
    """The lines of a file of tab-separated fields, per block of `_blocks`:
    `(line numbers, field counts, columns, directives)` of the lines that are
    neither blank nor start with "#". `columns` holds `width` lists of
    fields; the rows stop at the first line of another field count, whose
    fields read as empty. A line whose first whitespace-separated word is
    `directive` is no row: `directives` lists `(line number, its other
    words)` of those before the rows stop."""
    first = 1
    for text in _blocks(path):
        raw = text.encode("utf-8")  # a tab or a newline is one byte in UTF-8
        data = np.frombuffer(raw, np.uint8)
        ends = np.flatnonzero(data == ord("\n"))
        starts = np.concatenate([[0], ends[:-1] + 1])
        counts = 1 + np.diff(np.searchsorted(np.flatnonzero(data == ord("\t")), ends), prepend=0)
        keep = (starts < ends) & (data[starts] != ord("#"))
        lines = text.split("\n")
        directives = []
        hits = [m.start() for m in re.finditer(re.escape(directive.encode()), raw)] if directive else []
        # The lines holding a hit, once each (`np.unique` would import numpy.ma, 0.9 MB).
        for i in dict.fromkeys(np.searchsorted(ends, hits).tolist()):
            if lines[i].split()[:1] == [directive]:
                directives.append((first + i, lines[i].split()[1:]))
                keep[i] = False
        wrong = np.flatnonzero(keep & (counts != width))
        if wrong.size:
            keep[wrong[0] + 1:] = False
            directives = [d for d in directives if d[0] < first + wrong[0]]
        kept = list(itertools.compress(lines, keep.tolist()))
        if wrong.size:
            kept[-1] = "\t" * (width - 1)
        fields = "\t".join(kept).split("\t") if kept else []
        rows = np.flatnonzero(keep)
        yield first + rows, counts[rows], [fields[j::width] for j in range(width)], directives
        if wrong.size:
            return
        first += len(ends)


def load_hin(nodes_path, edges_path):
    """Load and validate an HIN from the two TSV files, checking each block
    of `_read_table` at once.

    Malformed lines, duplicate node ids, and edges that reference unknown
    nodes or that `HIN` refuses raise ValueError naming the earliest bad line.
    """
    type_ids = {}  # by first appearance, in node lines and `#types` lines
    node_index = {}  # node id -> its position in the nodes file
    node_types = [np.empty(0, dtype=np.int64)]  # type id of each node, by position
    for numbers, counts, (ids, tnames), directives in _read_table(nodes_path, 2, "#types"):
        fault = _first_fault([
            (counts != 2, lambda k: f"expected 2 columns, got {counts[k]}"),
            (_repeats(ids, node_index), lambda k: f"duplicate node id {ids[k]!r}"),
        ])
        if fault:
            raise ValueError(f"{nodes_path} line {numbers[fault[0]]}: {fault[1]}")
        at = 0  # the rows before each directive name their types before its words do
        places = [(np.searchsorted(numbers, lineno), words) for lineno, words in directives]
        for row, words in [*places, (len(ids), [])]:
            for name in dict.fromkeys(tnames[at:row] + words):
                type_ids.setdefault(name, len(type_ids))
            at = row
        node_index.update(zip(ids, range(len(node_index), len(node_index) + len(ids))))
        node_types.append(np.fromiter(map(type_ids.__getitem__, tnames), np.int64, len(ids)))
    t = np.concatenate(node_types)
    order = np.argsort(t, kind="stable")  # the nodes by type, each type in file order
    sizes = np.bincount(t, minlength=len(type_ids))
    starts = np.cumsum(sizes) - sizes
    ends = np.column_stack([t, np.empty_like(t)])  # (type, index) of each node, by position
    ends[order, 1] = np.arange(len(t)) - np.repeat(starts, sizes)
    ids = np.array(list(node_index), dtype=object)[order]
    nodes_by_type = [ids[a:a + size].tolist() for a, size in zip(starts, sizes)]

    edge_types = []
    edge_type_ids = {}
    rows = array("q")  # per edge: edge type id, src position, dst position, line

    def admit():  # the HIN of the edges read so far
        table = np.frombuffer(rows, dtype=np.int64).reshape(-1, 4)
        edges = np.column_stack([table[:, 0], ends[table[:, 1]], ends[table[:, 2]]])
        try:
            return HIN(list(type_ids), nodes_by_type, edge_types, edges)
        except EdgeError as exc:
            raise ValueError(f"{edges_path} line {table[exc.index, 3]}: {exc.reason}") from None

    for numbers, counts, (src_ids, dst_ids, names, flags), _ in _read_table(edges_path, 4):
        n = len(numbers)
        src, dst = (np.fromiter(map(node_index.get, col, itertools.repeat(-1)), np.int64, n)
                    for col in (src_ids, dst_ids))
        flag = np.fromiter(map(DIRECTED.get, flags, itertools.repeat(-1)), np.int8, n)
        known = len(edge_type_ids)
        for name in dict.fromkeys(names):  # edge type ids by first appearance
            edge_type_ids.setdefault(name, len(edge_type_ids))
        etype = np.fromiter(map(edge_type_ids.__getitem__, names), np.int64, n)
        new, heads = np.unique(etype, return_index=True)
        heads = heads[new >= known]  # the first edge of each new type fixes its direction and ends
        directed = np.array([et.directed for et in edge_types] + (flag[heads] == 1).tolist(), dtype=bool)
        fault = _first_fault([
            (counts != 4, lambda k: f"expected 4 columns, got {counts[k]}"),
            (flag < 0, lambda k: "direction must be 'd' or 'u'"),
            (src < 0, lambda k: f"unknown node id {src_ids[k]!r}"),
            (dst < 0, lambda k: f"unknown node id {dst_ids[k]!r}"),
            (directed[etype] != (flag == 1),
             lambda k: f"edge type {names[k]!r} used with inconsistent direction flag"),
        ])
        k = n if fault is None else fault[0]
        edge_types += [EdgeType(names[i], flags[i] == "d", int(ends[src[i], 0]), int(ends[dst[i], 0]))
                       for i in heads[heads < k].tolist()]
        rows.frombytes(np.column_stack([etype, src, dst, numbers])[:k].tobytes())
        if fault:
            admit()  # the earliest bad line wins, so a refused edge above comes first
            raise ValueError(f"{edges_path} line {numbers[k]}: {fault[1]}")

    hin = admit()
    _warn_duplicates(hin, edges_path)
    return hin


def _warn_duplicates(hin, edges_path):
    if hin.duplicates:
        log.warning("%s: %d duplicate edge(s) dropped", edges_path, hin.duplicates)


def _node_lines(hin):
    """The nodes file's lines of `hin`, once it is known that the files can
    hold it; otherwise a ValueError names the name at fault: a type name that
    is empty or holds whitespace (the `#types` line splits on it), a name
    that holds a tab, LF or CR, a node whose line would read as a comment or
    as the `#types` directive, or an edge type without edges."""
    for name in hin.type_names:
        if name.split() != [name]:
            raise ValueError(f"type name {name!r} is empty or holds whitespace")
    for name in itertools.chain(*hin.nodes_by_type, (et.name for et in hin.edge_types)):
        if re.search("[\t\n\r]", name):
            raise ValueError(f"name {name!r} holds a tab, LF or CR")
    lines = [f"{name}\t{tname}\n" for tname, names in zip(hin.type_names, hin.nodes_by_type) for name in names]
    for line in lines:
        if line.startswith("#") or line.split()[:1] == ["#types"]:
            name = line.split("\t")[0]
            raise ValueError(f"node id {name!r} would read as a comment or as the #types line")
    for et, count in zip(hin.edge_types, np.bincount(hin.edges[:, 0], minlength=len(hin.edge_types))):
        if count == 0:
            raise ValueError(f"edge type {et.name!r} has no edges, and the edges file cannot hold it")
    return lines


def write_hin(hin, nodes_path, edges_path):
    """The TSV files of `hin` (edges in `hin.edges` order), which reload as it, once `_node_lines` accepts it."""
    lines = _node_lines(hin)
    with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#types " + " ".join(hin.type_names) + "\n")
        fh.writelines(lines)
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        for etype, src, dst in hin.edges.tolist():
            et = hin.edge_types[etype]
            ends = hin.node_name(et.src_type, src), hin.node_name(et.dst_type, dst)
            fh.write("\t".join((*ends, et.name, "d" if et.directed else "u")) + "\n")


# The arrays of a snapshot: name -> (dtype, shape), None for any length:
# `header`, the ASCII bytes of one JSON object, and `HIN.edges`. The k-th
# tensor of the header adds `indices{k}`, its index tuples.
SNAPSHOT_ARRAYS = {"header": (np.uint8, (None,)), "edges": (np.int64, (None, 3))}
# The header's keys -> the type of their values: the graph key and the motif
# key it was written under, the type names, the node ids of each type,
# `[name, directed, src type, dst type]` per edge type, `HIN.duplicates`, and
# `[motif name, dims]` per tensor.
HEADER_TYPES = {
    "key": str, "motif_key": str, "types": list, "nodes": list, "edge_types": list,
    "duplicates": int, "tensors": list,
}


def write_snapshot(hin, tensors, path, key, motif_key):
    """Store `hin` under the string `key` and `tensors`, a dict of motif name
    to `SparseTensor`, under `motif_key`, at `path`; see `read_snapshot`."""
    header = json.dumps({  # ASCII, NULs escaped
        "key": key,
        "motif_key": motif_key,
        "types": hin.type_names,
        "nodes": hin.nodes_by_type,
        "edge_types": [[et.name, et.directed, et.src_type, et.dst_type] for et in hin.edge_types],
        "duplicates": hin.duplicates,
        "tensors": [[name, list(t.dims)] for name, t in tensors.items()],
    })
    arrays = {"header": np.frombuffer(header.encode("ascii"), dtype=np.uint8), "edges": hin.edges}
    for k, t in enumerate(tensors.values()):
        arrays[f"indices{k}"] = t.indices
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
                arrays = _read_arrays(archive, SNAPSHOT_ARRAYS)
                try:
                    h = json.loads(arrays["header"].tobytes().decode("utf-8"))
                except ValueError as exc:  # not UTF-8, or not JSON
                    raise ValueError(f"header does not read as JSON: {exc}") from None
                if not (
                    type(h) is dict and h.keys() == HEADER_TYPES.keys()
                    and all(type(h[name]) is kind for name, kind in HEADER_TYPES.items())
                    and all(type(ids) is list for ids in h["nodes"])
                    and all(type(s) is str for strings in [h["types"], *h["nodes"]] for s in strings)
                    and all(type(et) is list and [*map(type, et)] == [str, bool, int, int]
                            for et in h["edge_types"])
                    and all(type(e) is list and [*map(type, e)] == [str, list] for e in h["tensors"])
                    and all(type(d) is int for _, dims in h["tensors"] for d in dims)
                ):
                    raise ValueError(f"header is not an object of {', '.join(HEADER_TYPES)} of their types")
                if h["key"] != key:
                    raise ValueError("written for other graph files or another cache format")
                if h["duplicates"] < 0:
                    raise ValueError(f"duplicates count {h['duplicates']} is negative")
                tensors = None
                if h["motif_key"] == motif_key:
                    tensors = {}
                    for k, (name, dims) in enumerate(h["tensors"]):
                        (indices,) = _read_arrays(archive, {f"indices{k}": (np.int32, (None, len(dims)))}).values()
                        try:
                            tensors[name] = SparseTensor(dims, indices)
                        except ValueError as exc:
                            raise ValueError(f"tensor {name!r}: {exc}") from None
    except (zipfile.BadZipFile, EOFError, KeyError) as exc:
        raise ValueError(f"unreadable: {exc}") from None
    # Endpoint types from the signatures turn the stored rows into admission
    # rows. An edge type id out of range reads a clipped row (the padding row
    # keeps the table non-empty), and `HIN` refuses it as unknown.
    edges = arrays["edges"]
    ends = np.array([et[2:] for et in h["edge_types"]] + [[-1, -1]])
    st, dt = ends.take(edges[:, 0], axis=0, mode="clip").T
    rows = np.column_stack([edges[:, 0], st, edges[:, 1], dt, edges[:, 2]])
    hin = HIN(h["types"], h["nodes"], [EdgeType(*et) for et in h["edge_types"]], rows)
    hin.duplicates = h["duplicates"]  # dropped from the edges file, not from `rows`
    _warn_duplicates(hin, edges_path)
    return hin, tensors
