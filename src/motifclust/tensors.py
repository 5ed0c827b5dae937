"""Binary sparse tensors, sets of index tuples, and the factorization kernels
built on them.

Factor matrices are plain numpy arrays of shape ``(C, d)`` where ``C`` is the
cluster count and column ``j`` holds the soft cluster membership of node ``j``.
The kernels touch only the nonzero entries and small Gram matrices, so their
cost is governed by ``nnz`` and the mode sizes rather than the full tensor
volume. `mttkrp_sparse` sums over the distinct index tuples of the tensor's
dimension tree (`SparseTensor.tree`) below its root, the nonzeros, and
`gram_hadamard` multiplies the Gram matrices of all factors but one mode.
The residual has one evaluation, `residual_from_mode`, from one mode's
MTTKRP and Gram product; `residual_fro_sq` applies it to mode 0.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# Indices are stored as int32; any mode larger than this cannot be addressed.
MAX_INDEX = np.iinfo(np.int32).max
# `write_tsv` writes this many rows per write call, the bound on the Python
# objects it holds at once (index cells: formatted once per call).
WRITE_BLOCK_ROWS = 1 << 14
DENSE_SPAN = 4  # `_groups` ranks keys in a table of their range up to this many slots a row


class SparseTensor:
    """N-th order binary tensor: the set of index tuples where it is 1.

    indices: (nnz, N) int32 array, rows sorted lexicographically, no
    duplicates, read-only. ||X||^2 is `nnz`.
    """

    def __init__(self, dims, indices):
        dims = tuple(dims)  # Python or numpy integers: a bool's dtype is not np.integer
        if not dims or any(not np.issubdtype(type(d), np.integer) or d < 0 for d in dims):
            raise ValueError(f"invalid dims {dims}")
        dims = tuple(map(int, dims))
        if any(d > MAX_INDEX for d in dims):
            raise ValueError(f"mode size exceeds index width {MAX_INDEX}")
        indices = np.asarray(indices) if np.size(indices) else np.empty((0, len(dims)), np.int32)
        if indices.ndim != 2 or indices.shape[1] != len(dims) or indices.dtype.kind not in "iu":
            raise ValueError(f"indices are {indices.dtype} {indices.shape}, not (nnz, {len(dims)}) integers")
        if indices.size and (indices.min() < 0 or any(col.max() >= d for col, d in zip(indices.T, dims))):
            raise ValueError("index out of bounds")
        # In bounds, so narrowing is exact; `_groups` returns a copy, so
        # freezing it never freezes the caller's array.
        distinct = _groups(indices.astype(np.int32, copy=False), dims)[1]
        if len(distinct) < len(indices):
            raise ValueError("duplicate index tuples")
        distinct.flags.writeable = False  # an in-place write would make `tree` stale
        self.dims = dims
        self.indices = distinct

    @property
    def order(self):
        return len(self.dims)

    @property
    def nnz(self):
        return int(self.indices.shape[0])

    @cached_property
    def tree(self):
        """The static binary dimension tree that `mttkrp_sparse` walks, built
        on first use and kept.

        Maps each mode range (lo, hi) to (keys, starts, lengths, group). keys
        holds the distinct index tuples over modes lo..hi-1, one row each,
        sorted lexicographically; the root (0, N) holds the tensor's own
        indices. A range of two or more modes splits at mid = (lo + hi) // 2.
        Its left child (lo, mid) takes a prefix of the parent's columns, so
        each child key covers one contiguous run of parent rows; `starts`
        holds the first parent row of each run and `lengths` its row count.
        Its right child (mid, hi) takes the suffix, and `group` holds the
        child row of every parent row (intp, so `take` and `bincount` need
        no cast per call), both from `_groups`.
        """
        tree = {(0, self.order): (self.indices, None, None, None)}
        ranges = [(0, self.order)]
        while ranges:
            lo, hi = ranges.pop()
            if hi - lo < 2:
                continue
            mid = (lo + hi) // 2
            keys = tree[lo, hi][0]
            head, tail = keys[:, : mid - lo], keys[:, mid - lo :]
            starts = np.flatnonzero(_first_of_runs(_packed(head, self.dims[lo:mid])))
            group, distinct = _groups(tail, self.dims[mid:hi])
            tree[lo, mid] = head[starts], starts, np.diff(starts, append=len(keys)), None
            tree[mid, hi] = distinct, None, None, group.astype(np.intp)
            ranges += [(lo, mid), (mid, hi)]
        return tree

    @classmethod
    def empty(cls, dims):
        return cls(dims, np.empty((0, len(dims)), dtype=np.int32))

    def write_tsv(self, path):
        """One `#dims d1 .. dN` header line, then `j1<TAB>..<TAB>jN<TAB>1`
        rows, the 1 being each entry's value. A block's rows are two cells
        each: the first N-1 index cells, joined once per run of rows sharing
        them, and the last index with the value."""
        cells = [_index_cells(col, d, "\t") for col, d in zip(self.indices.T[:-1], self.dims)]
        last = _index_cells(self.indices[:, -1], self.dims[-1], "\t1\n")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("#dims " + " ".join(map(str, self.dims)) + "\n")
            for start in range(0, self.nnz, WRITE_BLOCK_ROWS):
                idx = self.indices[start : start + WRITE_BLOCK_ROWS]
                row = [last(idx[:, -1])]
                if self.order > 1:
                    starts = np.flatnonzero(_first_of_runs(_packed(idx[:, :-1], self.dims[:-1])))
                    heads = [cell(col) for cell, col in zip(cells, idx[starts, :-1].T)]
                    row.insert(0, np.repeat(sum(heads[1:], heads[0]), np.diff(starts, append=len(idx))))
                fh.write("".join(np.column_stack(row).ravel().tolist()))

    @classmethod
    def read_tsv(cls, path):
        """Read a `write_tsv` file, the format `transcribe` exports tensors in
        (no command reads them back); anything malformed, a value other than
        1 included, raises a ValueError that names `path`."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                tokens = fh.readline().split()
                if tokens[:1] != ["#dims"]:
                    raise ValueError("missing #dims header")
                dims = tuple(int(tok) for tok in tokens[1:])
                row = np.dtype([("index", np.int32, (len(dims),)), ("value", np.float64)])
                rows = np.empty(0, row)
                body = fh.tell()
                while (char := fh.read(1)).isspace():
                    pass
                if char:  # loadtxt warns on a body without rows
                    fh.seek(body)
                    rows = np.loadtxt(fh, row, delimiter="\t", comments=None, ndmin=1)
            x = cls(dims, rows["index"])
            other = rows["value"][rows["value"] != 1.0]
            if other.size:
                raise ValueError(f"value {other[0]} is not 1")
            return x
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.indices, other.indices)

    def __repr__(self):
        return f"SparseTensor(dims={self.dims}, nnz={self.nnz})"


def _packed(keys, dims):
    """The columns of `keys` as int64 arrays, each run of adjacent columns
    whose dims' product fits in int64 folded into one mixed-radix column;
    rows compare and sort over them as over `keys`."""
    cols, width = [], 0
    for col, d in zip(keys.T, dims):
        if cols and width * d <= np.iinfo(np.int64).max:
            cols[-1] *= d  # in place: `astype` below made the column a copy
            cols[-1] += col
            width *= d
        else:
            cols.append(col.astype(np.int64))
            width = d
    return cols


def _groups(keys, dims):
    """`(group, distinct)` of the (n, k) integer `keys`, column j below dims[j]:
    the sorted distinct rows, a new array of their dtype, and each row's int32
    rank among them. Rising rows are copied, keys of a packed range up to
    `DENSE_SPAN` * n are ranked in a table over it, and others sorted."""
    cols = _packed(keys, dims)
    if np.all(cols[0][1:] > cols[0][:-1]):
        return np.arange(len(keys), dtype=np.int32), keys.copy()
    if len(cols) == 1 and (span := math.prod(dims)) <= DENSE_SPAN * len(keys):
        present = np.zeros(span, dtype=bool)
        present[cols[0]] = True
        distinct = np.column_stack(np.unravel_index(np.flatnonzero(present), dims)).astype(keys.dtype)
        return np.cumsum(present, dtype=np.int32)[cols[0]] - 1, distinct
    order = np.argsort(cols[0]) if len(cols) == 1 else np.lexsort(cols[::-1])  # ties are equal rows
    first = _first_of_runs([col[order] for col in cols])
    group = np.empty(len(order), dtype=np.int32)
    group[order] = np.cumsum(first, dtype=np.int32) - 1
    return group, keys[order[first]]


def _index_cells(col, d, end):
    """A function from a block of the indices `col` to their `f"{j}{end}"`
    cells, each index formatted once. If d <= len(col) they sit in a table
    over range(d), else they are found by binary search: a huge mode with
    few nonzeros allocates nothing of size d."""
    if d <= len(col):
        keys = np.flatnonzero(np.bincount(col, minlength=d))
        table = np.empty(d, dtype=object)
        table[keys] = [f"{j}{end}" for j in keys.tolist()]
        return table.take
    keys = np.unique(col)
    table = np.array([f"{j}{end}" for j in keys.tolist()], dtype=object)
    return lambda block: table.take(np.searchsorted(keys, block))


def _first_of_runs(cols):
    """Mask of the rows, over the sorted key columns `cols`, that differ
    from the row before."""
    first = np.zeros(len(cols[0]), dtype=bool)
    first[:1] = True
    for col in cols:
        first[1:] |= col[1:] != col[:-1]
    return first


def _check_factors(x, factors):
    if len(factors) != x.order:
        raise ValueError(f"expected {x.order} factors, got {len(factors)}")
    c = factors[0].shape[0]
    for i, (f, d) in enumerate(zip(factors, x.dims)):
        if f.shape != (c, d):
            raise ValueError(f"factor {i} has shape {f.shape}, expected ({c}, {d})")
    return c


def mttkrp_sparse(x, factors, mode, cache=None):
    """Matricized-tensor-times-factors product along `mode`, nonzeros only.

    Returns the (d_mode, C) matrix whose row j accumulates, over nonzeros whose
    mode-th index equals j, the elementwise product of the other factors'
    columns; factors[mode] is ignored. The call walks `x.tree` from the root
    to the leaf of `mode`: each node on the way gets a (C, n) partial product
    over its n keys from its parent's (`_descend`), and the leaf's partial
    holds the result's nonzero rows. The root's partial, its ones, is None,
    so an order-1 tensor's result is 1.0 at its nonzeros.

    `cache` is a dict that calls may share. It keeps each node's partial
    with its inputs, the tensor and the factor objects outside the node's
    range, and serves it while each input is the same object; a caller that
    changes a factor's values passes a new object for it. Any call sequence
    then returns the cache-free results bit for bit, and a Gauss-Seidel sweep
    (ascending modes, factors[i] replaced after mode i) computes each node once.
    """
    c = _check_factors(x, factors)
    if not 0 <= mode < x.order:
        raise ValueError(f"mode {mode} outside 0..{x.order - 1}")
    out = np.zeros((c, x.dims[mode]))
    if x.nnz == 0:
        return out.T
    cache = {} if cache is None else cache
    lo, hi, partial = 0, x.order, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        node, sibling = ((lo, mid), (mid, hi)) if mode < mid else ((mid, hi), (lo, mid))
        inputs = (x, *factors[: node[0]], *factors[node[1] :])
        # The tensor comes first: once it matches, so does the inputs' length.
        kept = cache.get(node)
        if kept and all(a is b for a, b in zip(kept[0], inputs)):
            partial = kept[1]
        else:
            partial = _descend(x.tree, node, sibling, partial, factors)
            cache[node] = inputs, partial
        lo, hi = node
    out[:, x.tree[lo, hi][0][:, 0]] = 1.0 if partial is None else partial
    return out.T


def _descend(tree, node, sibling, partial, factors):
    """The (C, n) partial product of tree `node` from its parent's `partial`.

    The product of the factor columns of the `sibling` range is taken once
    per sibling key (in ascending mode order), spread over the parent's rows
    by the sibling's run lengths or group index, and multiplied by the
    parent's partial unless that is None (the root's ones); it is then summed
    onto the node's n keys, by `np.add.reduceat` over runs for a left child
    and by one `bincount` per cluster, in parent row order, for a right child.
    The (C, parent rows) product lives only in this call."""
    keys, starts, _, group = tree[node]
    sib_keys, _, sib_lengths, sib_group = tree[sibling]
    lo = sibling[0]
    spread = factors[lo].take(sib_keys[:, 0], axis=1)
    for k in range(lo + 1, sibling[1]):
        spread *= factors[k].take(sib_keys[:, k - lo], axis=1)
    if sib_group is None:
        prod = np.repeat(spread, sib_lengths, axis=1)
    else:
        prod = spread.take(sib_group, axis=1)
    if partial is not None:
        prod *= partial
    if starts is not None:
        return np.add.reduceat(prod, starts, axis=1)
    return np.stack([np.bincount(group, weights=row, minlength=len(keys)) for row in prod])


def gram_hadamard(factors, mode):
    """Hadamard product of the C x C Gram matrices of all factors but `mode`.

    With factors of shape (C, d) each Gram is V V^T. The result is symmetric
    PSD (Schur product of PSD matrices).
    """
    if not 0 <= mode < len(factors):
        raise ValueError(f"mode {mode} outside 0..{len(factors) - 1}")
    c = factors[0].shape[0]
    out = np.ones((c, c))
    for i, f in enumerate(factors):
        if f.shape[0] != c:
            raise ValueError(f"factor {i} has {f.shape[0]} rows, expected {c}")
        if i != mode:
            out *= f @ f.T
    return out


def residual_fro_sq(x, factors, cache=None):
    """||X - [[V]]||^2, by `residual_from_mode` on mode 0's kernels (`cache`: `mttkrp_sparse`'s)."""
    return residual_from_mode(x, factors[0], mttkrp_sparse(x, factors, 0, cache=cache), gram_hadamard(factors, 0))


def residual_from_mode(x, factor, mttkrp, gram):
    """||X - [[V]]||^2 from the kernels of one mode, with no nonzero pass.

    `mttkrp` and `gram` are `mttkrp_sparse` and `gram_hadamard` of that mode,
    computed from the other factors, and `factor` is the mode's (C, d) factor,
    which they do not depend on. Then <X, [[V]]> = <mttkrp, factor^T> and
    ||[[V]]||^2 = sum(gram * factor factor^T) (the fit computation of
    Bader & Kolda's `cp_als`). A tiny negative result of cancellation is
    clamped to zero and a larger one raised as an error.
    """
    cross = float(np.sum(mttkrp.T * factor))
    recon = float((gram * (factor @ factor.T)).sum())
    res = x.nnz - 2.0 * cross + recon  # ||X||^2 is nnz
    if res < -1e-6 * (1.0 + x.nnz + recon):
        raise FloatingPointError(f"residual {res} is negative beyond roundoff")
    return max(res, 0.0)
