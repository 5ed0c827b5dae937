"""Dense and sampling oracles the tests check the library against.

They materialize full arrays or draw bulk samples, so they suit small-scale
verification only and are not part of the package.
"""

from array import array

import numpy as np

from motifclust.hin import HIN, EdgeError, EdgeType, _first_fault, _warn_duplicates
from motifclust.model import EPS_DIV, ModelState, objective, update_factor
from motifclust.planted import _sample_tuples
from motifclust.tensors import (
    WRITE_BLOCK_ROWS,
    SparseTensor,
    _first_of_runs,
    _packed,
    gram_hadamard,
    mttkrp_sparse,
    residual_fro_sq,
)

_LETTERS = "abcdefghijklmnopqrstuvwxy"


def from_tuples(dims, tuples, value=1.0):
    """Constant-valued tensor on the distinct index tuples of an iterable."""
    arr = np.asarray(sorted(set(map(tuple, tuples))), dtype=np.int32)
    return SparseTensor(dims, arr.reshape(-1, len(dims)), np.full(arr.shape[0], float(value)))


def todense(x, max_size=10**7):
    """Materialize the full array of a SparseTensor. Guarded: refuses volumes
    above max_size."""
    size = int(np.prod(x.dims, dtype=np.int64))
    if size > max_size:
        raise ValueError(f"dense volume {size} exceeds guard {max_size}")
    out = np.zeros(x.dims)
    out[tuple(x.indices.T)] = x.values
    return out


def mttkrp_nonzero_major(x, factors, mode):
    """`mttkrp_sparse` as one flat pass in the (nnz, C) layout: the values
    times the other factors' columns gathered per nonzero, summed per
    cluster by `bincount` in nonzero order. The library's dimension tree
    groups these sums differently, so it equals this up to roundoff."""
    c = factors[0].shape[0]
    out = np.zeros((x.dims[mode], c))
    if x.nnz == 0:
        return out
    prod = np.broadcast_to(x.values[:, None], (x.nnz, c)).copy()
    for i, f in enumerate(factors):
        if i != mode:
            prod *= f.T[x.indices[:, i], :]
    rows = x.indices[:, mode]
    for k in range(c):
        out[:, k] = np.bincount(rows, weights=prod[:, k], minlength=x.dims[mode])
    return out


def mttkrp_tree_nonzero_major(x, factors, mode):
    """`mttkrp_sparse` in the (rows, C) layout, with the products and sums
    grouped as the library's dimension tree groups them, and the tree's keys
    found by `np.unique`. The library's kernel must equal it bit for bit.

    From the root (the nonzeros) to the leaf of `mode`, the range of modes
    [lo, hi) splits at (lo + hi) // 2 into the half holding `mode` and its
    sibling. The half's partial is the product of the sibling's factor
    columns, taken per distinct sibling tuple in ascending mode order, times
    the parent's partial, summed per distinct tuple of the half: for the
    lower half, whose rows with one tuple are contiguous, as the first row
    plus the (pairwise) numpy sum of the rest, which is what `np.add.reduceat`
    computes; for the upper half, one parent row at a time in order."""
    c = factors[0].shape[0]
    out = np.zeros((x.dims[mode], c))
    if x.nnz == 0:
        return out
    lo, hi, keys, partial = 0, x.order, x.indices, x.values[:, None]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        half, sib = ((lo, mid), (mid, hi)) if mode < mid else ((mid, hi), (lo, mid))
        sib_keys, sib_rows = np.unique(
            keys[:, sib[0] - lo : sib[1] - lo], axis=0, return_inverse=True
        )
        spread = factors[sib[0]].T[sib_keys[:, 0]]
        for k in range(sib[0] + 1, sib[1]):
            spread = spread * factors[k].T[sib_keys[:, k - sib[0]]]
        prod = spread[sib_rows.ravel()] * partial
        half_keys, rows = np.unique(keys[:, half[0] - lo : half[1] - lo], axis=0, return_inverse=True)
        rows = rows.ravel()
        summed = np.zeros((len(half_keys), c))
        if half[0] == lo:
            for g in range(len(half_keys)):
                run = np.flatnonzero(rows == g)
                assert np.all(np.diff(run) == 1), "a lower half's rows are contiguous"
                rest = prod[run[1:]]
                summed[g] = prod[run[0]] + np.array([rest[:, k].sum() for k in range(c)])
        else:
            np.add.at(summed, rows, prod)
        (lo, hi), keys, partial = half, half_keys, summed
    out[keys[:, 0]] = partial
    return out


def write_tsv_reference(x, path):
    """`SparseTensor.write_tsv` one column at a time: each block of
    WRITE_BLOCK_ROWS rows formats each distinct cell of each column once,
    found by `np.unique` (values by bit pattern), and joins N+1 cells per
    row. The library's writer must write the same bytes."""
    formats = ["%d\t"] * x.order + ["%.17g\n"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#dims " + " ".join(map(str, x.dims)) + "\n")
        for start in range(0, x.nnz, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            cells = []
            for col, fmt in zip([*x.indices[block].T, x.values[block]], formats):
                keys, where = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
                text = [fmt % key for key in keys.view(col.dtype).tolist()]
                cells.append(np.array(text, dtype=object)[where])
            fh.write("".join(np.column_stack(cells).ravel().tolist()))


def reconstruction_norm_sq(factors):
    """||[[V]]||^2 as the sum of the Hadamard product of all factors' Grams."""
    c = factors[0].shape[0]
    out = np.ones((c, c))
    for f in factors:
        out *= f @ f.T
    return float(out.sum())


def residual_nonzero_major(x, factors):
    """`residual_fro_sq` as one flat pass: the cross term from an (nnz, C)
    product whose rows (one per nonzero) are summed over the clusters, and a
    negative result of cancellation clamped to zero."""
    c = factors[0].shape[0]
    cross = 0.0
    if x.nnz:
        prod = np.ones((x.nnz, c))
        for i, f in enumerate(factors):
            prod *= f.T[x.indices[:, i], :]
        cross = float(x.values @ prod.sum(axis=1))
    return max(x.norm_sq - 2.0 * cross + reconstruction_norm_sq(factors), 0.0)


def objective_from_scratch(state):
    """`objective` with its residual term from a full pass over every motif
    tensor, for callers that do not track the residual as `fit` does."""
    return objective(state, sum(map(residual_fro_sq, state.tensors, state.factors)))


def update_factor_fresh(state, m, i):
    """`update_factor` with mode i's MTTKRP and Gram product of motif m
    computed here, for callers that do not sweep as `fit` does."""
    x, factors = state.tensors[m], state.factors[m]
    return update_factor(state, m, i, mttkrp_sparse(x, factors, i), gram_hadamard(factors, i))


def consensus_loop(state, t):
    """`consensus` as a loop over the type's positions in layout order, each
    factor scaled by mu[m] / k and added to a running sum from zero."""
    out = np.zeros((state.hyper.n_clusters, state.type_sizes[t]))
    for m, i, k in state.layout[t].tolist():
        out += float(state.mu[m]) / k * state.factors[m][i]
    return out


def update_factor_loop(state, m, i, mttkrp, gram):
    """`update_factor` with one difference array per other position of the
    type, their positive parts and the differences summed by `sum` from 0,
    the consensus from `consensus_loop` and eta from the motif's count of
    the type. The library's stacked update must equal it bit for bit."""
    h = state.hyper
    t = state.motif_types[m][i]
    others = [(m2, i2) for m2, i2 in state.contributors(t) if (m2, i2) != (m, i)]
    eta = float(state.mu[m]) / state.motif_types[m].count(t)
    v = state.factors[m][i]
    cons = consensus_loop(state, t)
    theta = h.consensus_weight

    rest = cons - eta * v
    num = mttkrp.T.copy()
    num += theta * (1.0 - eta) * rest
    den = gram @ v
    den += theta * ((1.0 - eta) ** 2 + len(others) * eta**2) * v
    mask = state.masks.get(t)
    if mask is not None:
        den += h.mask_penalty * eta * (mask * cons)
    if others:
        diffs = [state.factors[m2][i2] - rest for m2, i2 in others]
        pos = sum(np.maximum(diff, 0.0) for diff in diffs)
        num += theta * eta * pos
        den += theta * eta * (pos - sum(diffs))
    den += h.l1_weight + EPS_DIV
    np.maximum(num, 0.0, out=num)
    return state.set_factor(m, i, v * np.sqrt(num / den))


def init_model_per_seed(hin, motifs, tensors, seeds, hyper):
    """`init_model` for valid seeds with the factors drawn first: each seed
    then scans every motif position for the factors of its type and scales
    its permitted-cluster entry in each of them by seed_boost."""
    rng = np.random.default_rng(hyper.init_seed)
    factors = [
        [rng.uniform(0.1, 1.1, size=(hyper.n_clusters, hin.num_nodes(t))) for t in motif.node_types]
        for motif in motifs
    ]
    masks = {}
    for node_id, label in seeds.items():
        t, j = hin.lookup(node_id)
        of_type = [f for motif, fs in zip(motifs, factors) for u, f in zip(motif.node_types, fs) if u == t]
        mask = masks.setdefault(t, np.zeros(of_type[0].shape))
        mask[:, j] = 1.0
        mask[label, j] = 0.0
        for f in of_type:
            f[label, j] *= hyper.seed_boost
    return ModelState(
        motif_names=[m.name for m in motifs],
        motif_types=[m.node_types for m in motifs],
        tensors=list(tensors),
        factors=factors,
        mu=np.full(len(motifs), 1.0 / len(motifs)),
        masks=masks,
        hyper=hyper,
    )


def init_model_two_pass(hin, motifs, tensors, seeds, hyper):
    """`init_model` for valid seeds as two passes: the seeds are grouped by
    type and made into masks before the factors are drawn, and a second loop
    then scales each factor's seed entries when seed_boost > 1."""
    by_type = {}
    for node_id, label in seeds.items():
        t, j = hin.lookup(node_id)
        by_type.setdefault(t, {})[j] = label
    masks = {}
    for t, per_node in by_type.items():
        mask = masks[t] = np.zeros((hyper.n_clusters, hin.num_nodes(t)))
        for j, c in per_node.items():
            mask[:, j] = 1.0
            mask[c, j] = 0.0
    rng = np.random.default_rng(hyper.init_seed)
    factors = [
        [rng.uniform(0.1, 1.1, size=(hyper.n_clusters, hin.num_nodes(t))) for t in motif.node_types]
        for motif in motifs
    ]
    if hyper.seed_boost > 1.0:
        for motif, fs in zip(motifs, factors):
            for t, f in zip(motif.node_types, fs):
                for j, c in by_type.get(t, {}).items():
                    f[c, j] *= hyper.seed_boost
    return ModelState(
        motif_names=[m.name for m in motifs],
        motif_types=[m.node_types for m in motifs],
        tensors=list(tensors),
        factors=factors,
        mu=np.full(len(motifs), 1.0 / len(motifs)),
        masks=masks,
        hyper=hyper,
    )


def read_lines_by_iteration(path):
    """The (line number, line) pairs of iterating over the open text file, one
    line at a time, with its newline stripped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            yield lineno, raw.rstrip("\n")


def read_table_by_lines(path, width, directive=None):
    """`hin._read_table` of a file, its blocks joined, by iterating over the
    lines: `[(line number, field count, fields)]` of the rows and the
    `[(line number, other words)]` of the directives."""
    rows, directives = [], []
    for lineno, line in read_lines_by_iteration(path):
        if directive is not None and line.split()[:1] == [directive]:
            directives.append((lineno, line.split()[1:]))
        elif line and not line.startswith("#"):
            fields = line.split("\t")
            if len(fields) != width:
                rows.append((lineno, len(fields), ("",) * width))
                break
            rows.append((lineno, width, tuple(fields)))
    return rows, directives


def load_hin_by_lines(nodes_path, edges_path):
    """`hin.load_hin` as a loop over the lines of each file, one line at a time."""
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

    for lineno, line in read_lines_by_iteration(nodes_path):
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

    for lineno, line in read_lines_by_iteration(edges_path):
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


def coupling_terms(state, mu):
    """Objective terms 3 and 4 by the direct pass over the factors: each
    type's consensus at weights `mu`, the squared gap of each of its factors
    to it and, for a seeded type, its squared masked entries."""
    h = state.hyper
    gap = 0.0
    penalty = 0.0
    for t in state.clustered_types():
        cons = np.zeros((h.n_clusters, state.type_sizes[t]))
        for m, i, k in state.layout[t]:
            cons += float(mu[m]) / k * state.factors[m][i]
        for m, i, _ in state.layout[t]:
            diff = state.factors[m][i] - cons
            gap += float(np.vdot(diff, diff))
        mask = state.masks.get(t)
        if mask is not None:
            masked = mask * cons
            penalty += float(np.vdot(masked, masked))
    return h.consensus_weight * gap, h.mask_penalty * penalty


def dense_reconstruct(factors):
    """Materialize the rank-C reconstruction sum_c outer(V_1[c], ..., V_N[c])."""
    n = len(factors)
    if n > len(_LETTERS):
        raise ValueError("too many modes for dense reconstruction")
    subs = ",".join(f"z{_LETTERS[i]}" for i in range(n))
    return np.einsum(f"{subs}->{_LETTERS[:n]}", *factors)


def pos_part(a):
    """Entrywise (|A| + A) / 2."""
    return (np.abs(a) + a) / 2.0


def neg_part(a):
    """Entrywise (|A| - A) / 2."""
    return (np.abs(a) - a) / 2.0


def matricize(dense, mode):
    """Mode-k unfolding: shape (prod of other dims, d_mode); column j is the
    slice with mode index j, remaining axes flattened in ascending order."""
    dense = np.asarray(dense)
    if not 0 <= mode < dense.ndim:
        raise ValueError(f"mode {mode} out of range for order {dense.ndim}")
    return np.moveaxis(dense, mode, -1).reshape(-1, dense.shape[mode])


def sample_template_tuples(template, nodes_per_type, count, rng_seed):
    """`count` distinct instance tuples of the template drawn uniformly over
    the whole (block-free) node range. Used to densify test tensors."""
    rng = np.random.default_rng(rng_seed)
    tuples = _sample_tuples(rng, template, range(nodes_per_type), count)
    return np.asarray(sorted(tuples), dtype=np.int32)


def edge_rows(edges):
    """The `HIN` edge rows `(edge type, src type, src index, dst type, dst
    index)` of `(edge type, (type, index), (type, index))` triples."""
    return np.array([(etype, *src, *dst) for etype, src, dst in edges], dtype=np.int64).reshape(-1, 5)


def admit_edges(edge_types, num_nodes, edges):
    """Set-based edge admission over `(etype, (type, index), (type, index))`
    triples. Returns the sorted `(etype, src index, dst index)` rows of the
    distinct edges, the number of repeats, and the position of the first
    refused edge (a self-loop, an endpoint index outside its type, or endpoint
    types that fit neither way round the signature), or None. An undirected
    edge is its set of endpoints, written src-type end first, and the lower
    index first when both ends share a type."""
    distinct = set()
    for k, (etype, a, b) in enumerate(edges):
        et = edge_types[etype]
        fits = {(a[0], b[0])} if et.directed else {(a[0], b[0]), (b[0], a[0])}
        inside = all(0 <= j < num_nodes[t] for t, j in (a, b))
        if a == b or (et.src_type, et.dst_type) not in fits or not inside:
            return None, None, k
        distinct.add((etype, (a, b) if et.directed else frozenset((a, b))))
    rows = []
    for etype, ends in distinct:
        et = edge_types[etype]
        if not et.directed:
            ends = sorted(ends, key=lambda end: (end[0] != et.src_type, end[1]))
        a, b = ends
        rows.append((etype, a[1], b[1]))
    return sorted(rows), len(edges) - len(distinct), None


def adjacency_pairs(edge_types, rows, etype, forward):
    """The (row, column) pairs of an edge type's adjacency given admitted
    rows: forward maps src side to dst side, reverse the other way; an
    undirected edge between two nodes of one type is listed both ways."""
    pairs = {(s, d) for e, s, d in rows if e == etype}
    et = edge_types[etype]
    if not et.directed and et.src_type == et.dst_type:
        pairs |= {(d, s) for s, d in pairs}
    return pairs if forward else {(d, s) for s, d in pairs}


def groups_by_lexsort(keys, dims):
    """`tensors._groups` by one lexsort over the packed keys, the form each
    of its callers used before it: `(group, distinct)`."""
    cols = _packed(keys, dims)
    order = np.lexsort(cols[::-1])
    first = _first_of_runs([col[order] for col in cols])
    group = np.empty(len(order), dtype=np.int32)
    group[order] = np.cumsum(first, dtype=np.int32) - 1
    return group, keys[order[first]]


def orient_one_type(et, src, dst):
    """`hin.orient` as it was before it took per-edge signatures: the
    `(2, m)` endpoint arrays of m edges of the one edge type `et`."""
    (st, sj), (dt, dj) = src, dst
    if et.directed:
        return src, dst
    if et.src_type == et.dst_type:
        swap = (st > dt) | ((st == dt) & (sj > dj))
    else:
        swap = (st == et.dst_type) & (dt == et.src_type)
    return np.where(swap, dst, src), np.where(swap, src, dst)


def admit_per_edge_type(nodes_by_type, edge_types, edges):
    """`HIN` edge admission as a loop over the edge types, each orienting its
    own rows by masked gather and scatter: `(HIN.edges, HIN.duplicates)` of
    the (n, 5) `edges`, or the `EdgeError` that `HIN` raises."""
    edges = np.asarray(edges).astype(np.int64)
    etype = edges[:, 0]
    known = (etype >= 0) & (etype < len(edge_types))
    sig = np.array([(et.src_type, et.dst_type) for et in edge_types] + [(-1, -1)])
    sig = sig[np.where(known, etype, -1)].T
    for k, et in enumerate(edge_types):
        rows = etype == k
        src, dst = orient_one_type(et, edges[rows, 1:3].T, edges[rows, 3:].T)
        edges[rows, 1:] = np.vstack([src, dst]).T
    st, sj, dt, dj = edges[:, 1:].T
    sizes = np.array([len(names) for names in nodes_by_type] + [0], dtype=np.int64)
    fault = _first_fault([
        (~known, lambda k: f"unknown edge type id {etype[k]}"),
        ((st != sig[0]) | (dt != sig[1]),
         lambda k: f"edge type {edge_types[etype[k]].name!r} used between incompatible node types"),
        ((sj < 0) | (sj >= sizes[sig[0]]), lambda k: f"edge references unknown node index {sj[k]} of type {st[k]}"),
        ((dj < 0) | (dj >= sizes[sig[1]]), lambda k: f"edge references unknown node index {dj[k]} of type {dt[k]}"),
        ((st == dt) & (sj == dj), lambda k: f"self-loop on {nodes_by_type[st[k]][sj[k]]!r}"),
    ])
    if fault:
        raise EdgeError(*fault)
    keys = edges[:, [0, 2, 4]]
    _, distinct = groups_by_lexsort(keys, (len(edge_types), *[int(sizes.max(initial=0))] * 2))
    return distinct, len(keys) - len(distinct)


def csr_by_sort(rows, cols, n_rows, n_cols):
    """CSR arrays of the pairs (rows[k], cols[k]), columns ascending per row,
    by one sort of their keys row * n_cols + col."""
    rows, cols = np.divmod(np.sort(rows * n_cols + cols), n_cols)
    return np.searchsorted(rows, np.arange(n_rows + 1)), cols.astype(np.int32)


def eager_adjacency(hin):
    """Every CSR array pair of `hin`, `{(edge type, forward): (indptr,
    indices)}`, built at once as `HIN.__init__` built them before
    `HIN.adjacency` built each on first use."""
    adj = {}
    for k, et in enumerate(hin.edge_types):
        src, dst = hin.edges[hin.edges[:, 0] == k, 1:].T
        if not et.directed and et.src_type == et.dst_type:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        adj[k, True] = csr_by_sort(src, dst, hin.num_nodes(et.src_type), hin.num_nodes(et.dst_type))
        adj[k, False] = csr_by_sort(dst, src, hin.num_nodes(et.dst_type), hin.num_nodes(et.src_type))
    return adj
