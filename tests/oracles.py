"""Dense and sampling oracles the tests check the library against.

They materialize full arrays or draw bulk samples, so they suit small-scale
verification only and are not part of the package.
"""

import numpy as np

from motifclust.planted import _sample_tuples
from motifclust.tensors import SparseTensor, _combine_residual, gram_hadamard

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
    """`mttkrp_sparse` in the (nnz, C) layout: the values times the other
    factors' columns gathered per nonzero, summed per cluster by `bincount`.
    The library's cluster-major kernel must equal it bit for bit."""
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


def residual_nonzero_major(x, factors):
    """`residual_fro_sq` with its cross term from an (nnz, C) product whose
    rows (one per nonzero) are summed over the clusters."""
    c = factors[0].shape[0]
    cross = 0.0
    if x.nnz:
        prod = np.ones((x.nnz, c))
        for i, f in enumerate(factors):
            prod *= f.T[x.indices[:, i], :]
        cross = float(x.values @ prod.sum(axis=1))
    recon = float(gram_hadamard(factors).sum())
    return _combine_residual(x.norm_sq, cross, recon)


def dense_reconstruct(factors):
    """Materialize the rank-C reconstruction sum_c outer(V_1[c], ..., V_N[c])."""
    n = len(factors)
    if n > len(_LETTERS):
        raise ValueError("too many modes for dense reconstruction")
    subs = ",".join(f"z{_LETTERS[i]}" for i in range(n))
    return np.einsum(f"{subs}->{_LETTERS[:n]}", *factors)


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
