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

    @classmethod
    def from_tuples(cls, dims, tuples, value=1.0):
        """Build a constant-valued tensor from an iterable of index tuples."""
        arr = np.asarray(sorted(set(map(tuple, tuples))), dtype=np.int32)
        if arr.size == 0:
            return cls.empty(dims)
        return cls(dims, arr, np.full(arr.shape[0], float(value)))

    def todense(self, max_size=10**7):
        """Materialize the full array. Guarded: refuses volumes above max_size."""
        size = int(np.prod(self.dims, dtype=np.int64))
        if size > max_size:
            raise ValueError(f"dense volume {size} exceeds guard {max_size}")
        out = np.zeros(self.dims)
        if self.nnz:
            out[tuple(self.indices.T)] = self.values
        return out

    def write_tsv(self, path):
        """One `#dims d1 .. dN` header line, then `j1<TAB>..<TAB>jN<TAB>value` rows."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("#dims " + " ".join(str(d) for d in self.dims) + "\n")
            for row, val in zip(self.indices, self.values):
                fh.write("\t".join(str(int(j)) for j in row) + "\t" + format(val, ".17g") + "\n")

    @classmethod
    def read_tsv(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith("#dims"):
                raise ValueError(f"{path}: missing #dims header")
            dims = tuple(int(tok) for tok in header.split()[1:])
            idx, vals = [], []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != len(dims) + 1:
                    raise ValueError(f"{path} line {lineno}: expected {len(dims) + 1} columns")
                idx.append([int(p) for p in parts[:-1]])
                vals.append(float(parts[-1]))
        if not idx:
            return cls.empty(dims)
        return cls(dims, np.asarray(idx, dtype=np.int32), np.asarray(vals))

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
    """
    c = _check_factors(x, factors)
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
    cross = 0.0
    if x.nnz:
        prod = np.ones((x.nnz, c))
        for i, f in enumerate(factors):
            prod *= f.T[x.indices[:, i], :]
        cross = float(x.values @ prod.sum(axis=1))
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
