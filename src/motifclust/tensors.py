"""Coordinate-format sparse tensors and the factorization kernels built on them.

Factor matrices are plain numpy arrays of shape ``(C, d)`` where ``C`` is the
cluster count and column ``j`` holds the soft cluster membership of node ``j``.
The three sparse kernels (`mttkrp_sparse`, `gram_hadamard`, `residual_fro_sq`)
touch only the nonzero entries and small Gram matrices, so their cost is
governed by ``nnz`` and the mode sizes rather than the full tensor volume.
`residual_from_mode` gets the same residual from one mode's MTTKRP and Gram
product without another pass over the nonzeros.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Indices are stored as int32; any mode larger than this cannot be addressed.
MAX_INDEX = np.iinfo(np.int32).max
# `write_tsv` formats this many rows per write call, which bounds the Python
# objects it holds at once.
WRITE_BLOCK_ROWS = 1 << 14


class SparseTensor:
    """N-th order tensor stored as sorted unique (index tuple, value) pairs.

    indices: (nnz, N) int32 array, rows sorted lexicographically, no duplicates
    values:  (nnz,) float64 array
    """

    def __init__(self, dims, indices, values):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1 or any(d < 0 for d in dims):
            raise ValueError(f"invalid dims {dims}")
        if any(d > MAX_INDEX for d in dims):
            raise ValueError(f"mode size exceeds index width {MAX_INDEX}")
        indices = np.asarray(indices, dtype=np.int32).reshape(-1, len(dims))
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if indices.shape[0] != values.shape[0]:
            raise ValueError("indices and values disagree on nnz")
        if indices.size:
            if indices.min() < 0 or np.any(indices >= np.asarray(dims, dtype=np.int64)):
                raise ValueError("index out of bounds")
            order = np.lexsort(indices.T[::-1])
            indices = indices[order]
            values = values[order]
            if np.any(np.all(indices[1:] == indices[:-1], axis=1)):
                raise ValueError("duplicate index tuples")
        self.dims = dims
        self.indices = indices
        self.values = values

    @property
    def order(self):
        return len(self.dims)

    @property
    def nnz(self):
        return int(self.values.shape[0])

    @cached_property
    def norm_sq(self):
        """||X||^2, computed on first use and kept."""
        return float(self.values @ self.values)

    @classmethod
    def empty(cls, dims):
        return cls(dims, np.empty((0, len(dims)), dtype=np.int32), np.empty(0))

    def write_tsv(self, path):
        """One `#dims d1 .. dN` header line, then `j1<TAB>..<TAB>jN<TAB>value`
        rows; `%.17g` values read back bit-exactly."""
        row = "\t".join(["%d"] * self.order + ["%.17g"]) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("#dims " + " ".join(map(str, self.dims)) + "\n")
            for start in range(0, self.nnz, WRITE_BLOCK_ROWS):
                block = slice(start, start + WRITE_BLOCK_ROWS)
                idx = self.indices[block].astype(object)
                cells = np.column_stack([idx, self.values[block].astype(object)])
                fh.write(row * len(cells) % tuple(cells.ravel().tolist()))

    @classmethod
    def read_tsv(cls, path):
        """Read a `write_tsv` file; anything malformed raises a ValueError
        that names `path`."""
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
            return cls(dims, rows["index"], rows["value"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"SparseTensor(dims={self.dims}, nnz={self.nnz})"


def _check_factors(x, factors):
    if len(factors) != x.order:
        raise ValueError(f"expected {x.order} factors, got {len(factors)}")
    c = factors[0].shape[0]
    for i, (f, d) in enumerate(zip(factors, x.dims)):
        if f.shape != (c, d):
            raise ValueError(f"factor {i} has shape {f.shape}, expected ({c}, {d})")
    return c


def mttkrp_sparse(x, factors, mode):
    """Matricized-tensor-times-factors product along `mode`, nonzeros only.

    Returns the (d_mode, C) matrix whose row j accumulates, over nonzeros whose
    mode-th index equals j, value times the elementwise product of the other
    factors' columns. Cost O(nnz * (N-1) * C); factors[mode] is ignored.
    Cluster-major: a (C, nnz) product gathers factor rows with `take`, and a
    `bincount` per cluster sums it in nonzero order, as (nnz, C) would.
    """
    c = _check_factors(x, factors)
    out = np.zeros((c, x.dims[mode]))
    prod = np.broadcast_to(x.values, (c, x.nnz)).copy()
    for i, f in enumerate(factors):
        if i != mode:
            prod *= f.take(x.indices[:, i], axis=1)
    rows = x.indices[:, mode]
    for k in range(c):
        out[k] = np.bincount(rows, weights=prod[k], minlength=x.dims[mode])
    return out.T


def gram_hadamard(factors, mode=None):
    """Hadamard product of the C x C Gram matrices of all factors but `mode`.

    With factors of shape (C, d) each Gram is V V^T. Passing mode=None includes
    every factor. The result is symmetric PSD (Schur product of PSD matrices).
    """
    c = factors[0].shape[0]
    out = np.ones((c, c))
    for i, f in enumerate(factors):
        if f.shape[0] != c:
            raise ValueError(f"factor {i} has {f.shape[0]} rows, expected {c}")
        if i != mode:
            out *= f @ f.T
    return out


def _combine_residual(norm_x, cross, recon):
    """||X||^2 - 2<X, [[V]]> + ||[[V]]||^2, with tiny negative results from
    cancellation clamped to zero and larger ones raised as an error."""
    res = norm_x - 2.0 * cross + recon
    if res < -1e-6 * (1.0 + norm_x + recon):
        raise FloatingPointError(f"residual {res} is negative beyond roundoff")
    return max(res, 0.0)


def residual_fro_sq(x, factors):
    """Squared Frobenius norm of (X minus its rank-C reconstruction).

    Evaluated without materializing the reconstruction:
    ||X||^2 - 2 * sum over nonzeros of value * sum_c prod_i V_i[c, j_i]
    plus the total sum of the all-factor Gram Hadamard product.
    """
    c = _check_factors(x, factors)
    prod = np.ones((c, x.nnz))
    for i, f in enumerate(factors):
        prod *= f.take(x.indices[:, i], axis=1)
    cross = float(x.values @ prod.sum(axis=0))
    recon = float(gram_hadamard(factors).sum())
    return _combine_residual(x.norm_sq, cross, recon)


def residual_from_mode(x, factor, mttkrp, gram):
    """`residual_fro_sq` from the kernels of one mode, with no nonzero pass.

    `mttkrp` and `gram` are `mttkrp_sparse` and `gram_hadamard` of that mode,
    computed from the other factors, and `factor` is the mode's (C, d) factor,
    which they do not depend on. Then <X, [[V]]> = <mttkrp, factor^T> and
    ||[[V]]||^2 = sum(gram * factor factor^T) (the fit computation of
    Bader & Kolda's `cp_als`).
    """
    cross = float(np.sum(mttkrp.T * factor))
    recon = float((gram * (factor @ factor.T)).sum())
    return _combine_residual(x.norm_sq, cross, recon)
