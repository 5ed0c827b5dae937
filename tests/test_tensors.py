import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motifclust import tensors
from motifclust.hin import HIN, EdgeType
from motifclust.motifs import Motif, PatternEdge, _visit_order, enumerate_instances, transcribe
from motifclust.tensors import (
    DENSE_SPAN,
    MAX_INDEX,
    WRITE_BLOCK_ROWS,
    SparseTensor,
    _groups,
    _packed,
    gram_hadamard,
    mttkrp_sparse,
    residual_fro_sq,
    residual_from_mode,
)

from conftest import random_sparse_tensor
from oracles import (
    dense_reconstruct,
    edge_rows,
    from_tuples,
    groups_by_lexsort,
    matricize,
    mttkrp_nonzero_major,
    mttkrp_tree_nonzero_major,
    reconstruction_norm_sq,
    residual_nonzero_major,
    todense,
    write_tsv_reference,
)


# Prints, as float.hex, the `norm_sq` of a tensor of 50,000 random values.
NORM_SQ_CHILD = """
import numpy as np
from motifclust.tensors import SparseTensor
v = np.random.default_rng(0).random(50_000)
print(SparseTensor((len(v),), np.arange(len(v))[:, None], v).norm_sq.hex())
"""


def kr_columns(factors, skip):
    """Column-wise Kronecker of the factors' rows, skipping one mode.

    Column c is kron over i != skip of factors[i][c, :], in ascending mode
    order; this is the dense matrix the sparse kernels avoid materializing."""
    c = factors[0].shape[0]
    cols = []
    for k in range(c):
        col = np.ones(1)
        for i, f in enumerate(factors):
            if i != skip:
                col = np.kron(col, f[k, :])
        cols.append(col)
    return np.stack(cols, axis=1)


def random_factors(rng, dims, c):
    return [rng.uniform(0.0, 1.0, size=(c, d)) for d in dims]


class TestSparseTensor:
    def test_sorting_and_lookup(self):
        x = SparseTensor((2, 3), [[1, 2], [0, 0]], [5.0, 7.0])
        assert x.indices.tolist() == [[0, 0], [1, 2]]
        assert x.values.tolist() == [7.0, 5.0]
        assert x.nnz == 2

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            SparseTensor((2, 2), [[0, 2]], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseTensor((2, 2), [[0, 1], [0, 1]], [1.0, 1.0])

    def test_from_tuples_dedups(self):
        x = from_tuples((4, 4), [(1, 2), (1, 2), (0, 3)])
        assert x.nnz == 2
        assert set(map(tuple, x.indices.tolist())) == {(1, 2), (0, 3)}

    def test_todense(self):
        x = from_tuples((2, 2, 2), [(0, 1, 1), (1, 0, 0)])
        dense = todense(x)
        assert dense[0, 1, 1] == 1.0 and dense[1, 0, 0] == 1.0
        assert dense.sum() == 2.0

    def test_tsv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = random_sparse_tensor(rng, (5, 6, 7), 20)
        path = tmp_path / "x.tsv"
        x.write_tsv(path)
        assert SparseTensor.read_tsv(path) == x

    def test_empty(self):
        x = SparseTensor.empty((3, 4))
        assert x.nnz == 0 and x.dims == (3, 4)
        assert x.norm_sq == 0.0

    def test_norm_sq_does_not_depend_on_blas_threads(self):
        """50,000 values are past OpenBLAS's threading threshold for a dot
        product, whose partial sums then depend on its thread count."""
        src = str(Path(tensors.__file__).parents[1])
        results = [
            subprocess.run(
                [sys.executable, "-c", NORM_SQ_CHILD],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120, check=True,
            ).stdout.strip()
            for threads in ("1", "2")
        ]
        assert results[0] == results[1]
        v = np.random.default_rng(0).random(50_000)
        assert math.isclose(float.fromhex(results[0]), math.fsum(v * v), rel_tol=1e-12)

    @pytest.mark.parametrize("nnz", [0, 2])
    def test_arrays_are_read_only_and_callers_stay_writeable(self, nnz):
        idx = np.array([[1, 2], [0, 0]], dtype=np.int32)[:nnz]
        vals = np.array([5.0, 7.0])[:nnz]
        x = SparseTensor((2, 3), idx, vals)
        with pytest.raises(ValueError, match="read-only"):
            x.values[:] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            x.indices[:] = 0
        assert idx.flags.writeable and vals.flags.writeable
        idx[:] = 1
        vals[:] = 3.0
        assert x == SparseTensor((2, 3), [[0, 0], [1, 2]][:nnz], [7.0, 5.0][:nnz])

    @pytest.mark.parametrize(
        "indices, message",
        [
            (np.array([[0, 2**32 + 1]]), "out of bounds"),  # 1 once narrowed to int32
            ([[2**40, 0]], "out of bounds"),
            ([[0.9, 2.5]], r"not \(nnz, 2\) integers"),
            ([0, 1, 2, 2], r"not \(nnz, 2\) integers"),  # two rows once reshaped
            ([[True, False]], r"not \(nnz, 2\) integers"),
        ],
        ids=["int64-wraps", "python-int", "fractions", "flat", "bool"],
    )
    def test_indices_checked_before_narrowing(self, indices, message):
        with pytest.raises(ValueError, match=message):
            SparseTensor((3, 3), indices, np.ones(np.size(indices) // 2))

    @pytest.mark.parametrize(
        "dims",
        [(2.5, 3), (3.0, 3), (True, 3), (np.True_, 3), ("3", 3), (None, 3), (), (-1, 3)],
        ids=["fraction", "whole-float", "bool", "numpy-bool", "string", "none", "empty", "negative"],
    )
    def test_rejects_dims_that_are_not_integers(self, dims):
        with pytest.raises(ValueError, match="invalid dims"):
            SparseTensor(dims, [[1, 2]], [1.0])

    def test_numpy_integer_dims_are_kept_as_ints(self):
        x = SparseTensor((np.int64(2), np.uint8(3)), [[1, 2]], [1.0])
        assert x.dims == (2, 3) and all(type(d) is int for d in x.dims)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="finite"):
            SparseTensor((2, 2), [[0, 0], [0, 1]], [1.0, value])


class TestSortedFastPath:
    """Rows that arrive sorted and unique are copied, not sorted; every other
    input is sorted, and the result is the same either way."""

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_and_sorted_rows_build_equal_tensors(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 6, size=int(rng.integers(1, 5))))
        x = random_sparse_tensor(rng, dims, int(rng.integers(0, 30)))
        perm = rng.permutation(x.nnz)
        shuffled = SparseTensor(dims, x.indices[perm], x.values[perm])
        assert SparseTensor(dims, x.indices, x.values) == shuffled == x

    def test_sorted_rows_with_an_adjacent_duplicate_are_refused(self):
        with pytest.raises(ValueError, match="duplicate index tuples"):
            SparseTensor((3, 3), [[0, 1], [1, 2], [1, 2], [2, 0]], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_dims_past_int64_still_sort(self, shuffle):
        dims = (MAX_INDEX,) * 3
        rows = [[0, 0, MAX_INDEX - 1], [0, 1, 0], [5, 0, 2], [5, 0, 3], [MAX_INDEX - 1, 0, 0]]
        idx = np.array(rows[::-1] if shuffle else rows, dtype=np.int32)
        assert len(_packed(idx, dims)) > 1  # the product of dims overflows int64
        x = SparseTensor(dims, idx, np.arange(5.0)[::-1] if shuffle else np.arange(5.0))
        assert x.indices.tolist() == rows and x.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError, match="duplicate index tuples"):
            SparseTensor(dims, np.repeat(idx, 2, axis=0), np.ones(10))

    def test_sorted_input_is_copied_not_aliased(self):
        idx = np.array([[0, 0], [0, 2], [1, 1]], dtype=np.int32)
        vals = np.array([1.0, 2.0, 3.0])
        x = SparseTensor((2, 3), idx, vals)
        assert not np.shares_memory(x.indices, idx) and not np.shares_memory(x.values, vals)
        assert idx.flags.writeable and vals.flags.writeable
        idx[:] = 0
        vals[:] = 0.0
        assert x.indices.tolist() == [[0, 0], [0, 2], [1, 1]] and x.values.tolist() == [1.0, 2.0, 3.0]

    def test_motif_visited_out_of_position_order_transcribes_sorted(self):
        # Type B is smaller, so the join starts at position 1 and emits its
        # rows ordered by position 1 first.
        hin = HIN(
            ["A", "B"],
            [["a0", "a1", "a2"], ["b0", "b1"]],
            [EdgeType("ab", False, 0, 1)],
            edge_rows((0, (0, j), (1, k)) for j in range(3) for k in range(2) if (j + k) % 3),
        )
        motif = Motif("ab", (0, 1), (PatternEdge(0, 1, 0),), frozenset({0, 1}))
        assert _visit_order(hin, motif) == [1, 0]
        rows = enumerate_instances(hin, motif)
        assert rows.tolist() != sorted(rows.tolist())  # so the constructor must sort
        x = transcribe(hin, motif, rows)
        assert x.indices.tolist() == sorted(rows.tolist()) == hin.edges[:, 1:].tolist()


@st.composite
def group_keys(draw):
    """`(keys, dims)` for `_groups`: 0 to 40 int32 or int64 rows of 1 to 3
    columns, drawn from a pool so rows repeat, sorted or not. Columns are
    small, or MAX_INDEX-sized with indices at both ends, so that up to three
    columns pack into one or two."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        dims = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        cells = [st.integers(0, d - 1) for d in dims]
    else:
        dims = draw(st.lists(st.integers(MAX_INDEX - 2, MAX_INDEX), min_size=k, max_size=k))
        cells = [st.integers(0, 2) | st.integers(d - 3, d - 1) for d in dims]
    pool = draw(st.lists(st.tuples(*cells), min_size=1, max_size=12))
    rows = draw(st.lists(st.sampled_from(pool), max_size=40))
    if draw(st.booleans()):
        rows.sort()
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(rows, dtype=dtype).reshape(len(rows), k), tuple(dims)


class TestGroups:
    """`_groups` copies rising rows, ranks keys of a small packed range in a
    table and sorts the others, and every path equals one lexsort."""

    @staticmethod
    def assert_groups_equal_lexsort(keys, dims):
        group, distinct = _groups(keys, dims)
        want_group, want_distinct = groups_by_lexsort(keys, dims)
        assert group.dtype == np.int32 and np.array_equal(group, want_group)
        assert distinct.dtype == keys.dtype and np.array_equal(distinct, want_distinct)
        assert not np.shares_memory(distinct, keys)

    @given(case=group_keys())
    @settings(max_examples=400, deadline=None)
    @example(case=(np.empty((0, 2), dtype=np.int32), (3, 4)))
    @example(case=(np.empty((0, 1), dtype=np.int64), (0,)))
    @example(case=(np.array([[2, 1]], dtype=np.int64), (3, 4)))
    def test_equals_lexsort(self, case):
        self.assert_groups_equal_lexsort(*case)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("rows", [2, 7, 30])
    @pytest.mark.parametrize("past", [0, 1])
    def test_table_up_to_dense_span_rows_each(self, rows, past, dtype):
        """A range of exactly DENSE_SPAN slots a row is ranked in a table, in
        one column or three, and one slot more is sorted."""
        span = DENSE_SPAN * rows + past
        rng = np.random.default_rng(rows)
        flat = np.concatenate([[span - 1, 0], rng.integers(0, span, size=rows - 2)])  # not rising
        for dims in [(span,), (1, span, 1)] + ([(2, span // 2)] if span % 2 == 0 else []):
            keys = np.column_stack(np.unravel_index(flat, dims)).astype(dtype)
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
                self.assert_groups_equal_lexsort(keys, dims)
            assert lexsort.call_count == 1 + past  # the oracle's call, and `_groups`'s past the span

    def test_rising_rows_are_not_ranked(self):
        keys = np.array([[0, 5], [1, 0], [1, 3]], dtype=np.int32)
        with mock.patch.object(np, "cumsum", side_effect=AssertionError("ranked")):
            group, distinct = _groups(keys, (2, 6))
        assert group.tolist() == [0, 1, 2] and distinct.tolist() == keys.tolist()


def tsv_text(x):
    """The tensor file format, written out one row at a time."""
    rows = [
        "\t".join(str(j) for j in idx) + "\t" + format(v, ".17g") + "\n"
        for idx, v in zip(x.indices.tolist(), x.values.tolist())
    ]
    return "#dims " + " ".join(str(d) for d in x.dims) + "\n" + "".join(rows)


# Values the file must carry bit-exactly: negative, signed zero, subnormal, huge.
EDGE_VALUES = [-2.5, -0.0, 5e-324, 2.5e-310, 1e300, -1e300, 1 / 3]


@st.composite
def sparse_tensors(draw):
    """Tensors of order 1-4, empty ones included, with any finite values."""
    dims = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    cells = list(itertools.product(*map(range, dims)))
    cell_lists = st.lists(st.sampled_from(cells), unique=True, max_size=12)
    picked = draw(cell_lists if cells else st.just([]))
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
    values = draw(st.lists(floats, min_size=len(picked), max_size=len(picked)))
    return SparseTensor(dims, np.asarray(picked, dtype=np.int32).reshape(-1, len(dims)), values)


@st.composite
def blocked_tensors(draw):
    """Tensors of order 1-5 with 0 to about 3 write blocks of rows. Each mode
    is small (d <= nnz, unless nnz is tiny), huge (d > nnz) or MAX_INDEX.
    Half of them draw the leading N-1 indices from a few tuples, so runs of
    rows sharing them cross block boundaries. Values mix small integers with
    signed zeros, a subnormal, 1/3 and 1e308."""
    order = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["small", "huge", "max"]), min_size=order, max_size=order))
    rows = max(0, draw(st.integers(0, 3)) * WRITE_BLOCK_ROWS + draw(st.integers(-100, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [
        {"small": int(rng.integers(1, 9)), "huge": int(rng.integers(rows + 1, MAX_INDEX)), "max": MAX_INDEX}[k]
        for k in kinds
    ]
    heads = rng.integers(0, dims[:-1], size=(int(rng.integers(1, 40)) if draw(st.booleans()) else rows, order - 1))
    indices = np.column_stack([heads[rng.integers(0, len(heads), rows)], rng.integers(0, dims[-1], rows)])
    indices = np.unique(indices.reshape(rows, order), axis=0)
    edge = np.array([-0.0, 0.0, 5e-324, 1 / 3, 1e308])
    n = len(indices)
    values = np.where(rng.random(n) < 0.5, edge[rng.integers(0, len(edge), n)], rng.integers(1, 6, n))
    return SparseTensor(dims, indices, values)


class TestTsvCodec:
    @given(x=sparse_tensors())
    @example(x=SparseTensor.empty((2, 0, 3)))
    @example(x=SparseTensor((7,), np.arange(7)[:, None], EDGE_VALUES))
    @example(x=SparseTensor((3,), [[0], [1], [2]], [0.0, -0.0, 5e-324]))
    @example(  # repeated indices and values on both sides of a block boundary
        x=SparseTensor(
            (WRITE_BLOCK_ROWS // 64 + 1, 64),
            list(itertools.islice(np.ndindex(WRITE_BLOCK_ROWS // 64 + 1, 64), WRITE_BLOCK_ROWS + 1)),
            np.resize([1 / 3, -0.0, 0.0, 1e300, 5e-324], WRITE_BLOCK_ROWS + 1),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, x):
        path = tmp_path_factory.mktemp("codec") / "x.tsv"
        x.write_tsv(path)
        assert path.read_text(encoding="utf-8") == tsv_text(x)
        y = SparseTensor.read_tsv(path)
        assert y.dims == x.dims
        assert y.indices.dtype == np.int32 and np.array_equal(y.indices, x.indices)
        assert np.array_equal(y.values.view(np.int64), x.values.view(np.int64))

    @given(x=blocked_tensors())
    @example(x=SparseTensor.empty((MAX_INDEX, 3)))
    @example(  # six runs of 8,200 rows over three blocks: each crosses a boundary
        x=SparseTensor(
            (2, 3, MAX_INDEX),
            [(a, b, 1000 * c) for a in range(2) for b in range(3) for c in range(8200)],
            np.resize([-0.0, 0.0, 5e-324, 1 / 3, 1e308, 2.0], 6 * 8200),
        )
    )
    @example(x=SparseTensor((MAX_INDEX,) * 3, [[0, 0, 0], [0, 0, MAX_INDEX - 1], [7, 5, 3]], [-0.0, 1e308, 0.0]))
    @settings(max_examples=40, deadline=None)
    def test_writer_matches_reference(self, tmp_path_factory, x):
        folder = tmp_path_factory.mktemp("writer")
        x.write_tsv(folder / "x.tsv")
        write_tsv_reference(x, folder / "ref.tsv")
        assert (folder / "x.tsv").read_bytes() == (folder / "ref.tsv").read_bytes()
        y = SparseTensor.read_tsv(folder / "x.tsv")
        assert y == x and np.array_equal(y.values.view(np.int64), x.values.view(np.int64))

    def test_export_of_huge_modes_allocates_nothing_of_their_size(self, tmp_path):
        """A table over range(MAX_INDEX) would take gigabytes."""
        x = SparseTensor((MAX_INDEX,) * 3, [[0, 0, 0], [0, 1, 2], [9, 9, 9], [MAX_INDEX - 1, 0, 5],
                                            [MAX_INDEX - 1] * 3], [1.0, -0.0, 1 / 3, 5e-324, 2.0])
        tracemalloc.start()
        try:
            x.write_tsv(tmp_path / "x.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert SparseTensor.read_tsv(tmp_path / "x.tsv") == x

    @pytest.mark.parametrize("body", ["", "\n", "\n\n"])
    def test_empty_body_reads_without_warning(self, tmp_path, body):
        path = tmp_path / "x.tsv"
        path.write_text("#dims 3 4\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = SparseTensor.read_tsv(path)
        assert x == SparseTensor.empty((3, 4)) and x.indices.shape == (0, 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing #dims header"),
            ("0\t1\t1.0\n", "missing #dims header"),
            ("#dims 2 x\n", "invalid literal"),
            ("#dims\n", "invalid dims"),
            ("#dims 2 2\n0\t1\n", "columns"),
            ("#dims 2 2\n0\t1\t1.0\t7\n", "columns"),
            ("#dims 2 2\n0\t1\t1.0\n1\t1\n", "columns"),
            ("#dims 2 2\n1.5\t1\t1.0\n", "1.5"),
            ("#dims 2 2\n0\t1\tone\n", "one"),
            ("#dims 2 2\n# note\n0\t1\t1.0\n", "columns"),
            ("#dims 2 2\n0\t2\t1.0\n", "out of bounds"),
            ("#dims 2 2\n-1\t0\t1.0\n", "out of bounds"),
            ("#dims 2 2\n0\t1\t1.0\n0\t1\t2.0\n", "duplicate"),
            ("#dims 2 2\n0\t0\t1.0\n0\t1\tinf\n", "finite"),
            ("#dims 2 2\n0\t1\tnan\n", "finite"),
        ],
    )
    def test_malformed_file_names_its_path(self, tmp_path, text, message):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            SparseTensor.read_tsv(path)
        assert str(info.value).startswith(f"{path}: ")


class TestMttkrp:
    def test_all_zero_tensor(self):
        rng = np.random.default_rng(0)
        x = SparseTensor.empty((4, 5))
        f = random_factors(rng, (4, 5), 3)
        assert np.array_equal(mttkrp_sparse(x, f, 0), np.zeros((4, 3)))

    def test_identity_collapses_to_other_factor(self):
        # N=2 with X = I: row j of the result is column j of the other factor.
        rng = np.random.default_rng(1)
        x = from_tuples((3, 3), [(j, j) for j in range(3)])
        w = rng.uniform(0.0, 1.0, size=(4, 3))
        out = mttkrp_sparse(x, [np.zeros((4, 3)), w], 0)
        np.testing.assert_allclose(out, w.T, rtol=0, atol=0)

    def test_matches_dense_oracle_order4(self):
        rng = np.random.default_rng(7)
        dims = (5, 6, 7, 8)
        x = random_sparse_tensor(rng, dims, 50)
        dense = todense(x)
        for c in (3, 12):
            f = random_factors(rng, dims, c)
            for k in range(4):
                expected = matricize(dense, k).T @ kr_columns(f, k)
                got = mttkrp_sparse(x, f, k)
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", [-1, 2, 5])
    def test_mode_out_of_range_is_refused(self, mode):
        # Before the check, mode -1 read mode 1's size and returned mode 0's
        # rows padded to (3, C); mode 5 raised IndexError.
        x = SparseTensor((2, 3), [[0, 1], [1, 2]], [1.0, 2.0])
        with pytest.raises(ValueError, match=rf"mode {mode} outside 0\.\.1"):
            mttkrp_sparse(x, [np.ones((2, 2)), np.ones((2, 3))], mode)

    def test_shape_mismatch(self):
        x = SparseTensor.empty((4, 5))
        with pytest.raises(ValueError):
            mttkrp_sparse(x, [np.zeros((2, 4))], 0)
        with pytest.raises(ValueError):
            mttkrp_sparse(x, [np.zeros((2, 4)), np.zeros((2, 6))], 0)


class TestClusterMajorBitIdentity:
    """The cluster-major kernels against the nonzero-major oracles, which do
    the same products and sums in the (nnz, C) layout."""

    @staticmethod
    def residual_tree(x, f):
        """The residual from mode 0 of the oracle that groups the MTTKRP's
        sums as the dimension tree does."""
        return residual_from_mode(x, f[0], mttkrp_tree_nonzero_major(x, f, 0), gram_hadamard(f, 0))

    @staticmethod
    def case(order, c, values, seed):
        """A tensor whose top 3 indices of every mode are unused, so a result
        row only exists through `bincount`'s `minlength`, and its factors."""
        rng = np.random.default_rng(seed)
        used = tuple(int(d) for d in rng.integers(2, 7, size=order))
        x = random_sparse_tensor(rng, used, 40)
        vals = x.values if values == "binary" else rng.uniform(0.0, 10.0, size=x.nnz)
        dims = tuple(d + 3 for d in used)
        return SparseTensor(dims, x.indices, vals), random_factors(rng, dims, c)

    @pytest.mark.parametrize("values", ["binary", "random"])
    @pytest.mark.parametrize("c", [2, 3, 8, 12])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_mttkrp_equals_nonzero_major(self, order, c, values):
        x, f = self.case(order, c, values, seed=100 * order + c)
        for mode in range(order):
            got = mttkrp_sparse(x, f, mode)
            assert got.shape == (x.dims[mode], c)
            assert np.array_equal(got, mttkrp_tree_nonzero_major(x, f, mode))
            np.testing.assert_allclose(got, mttkrp_nonzero_major(x, f, mode), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c", [2, 3, 8, 12])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_empty_tensor(self, order, c):
        rng = np.random.default_rng(order + c)
        dims = tuple(int(d) for d in rng.integers(2, 7, size=order))
        x, f = SparseTensor.empty(dims), random_factors(rng, dims, c)
        for mode in range(order):
            assert np.array_equal(mttkrp_sparse(x, f, mode), np.zeros((dims[mode], c)))
        assert residual_fro_sq(x, f) == self.residual_tree(x, f)

    @pytest.mark.parametrize("values", ["binary", "random"])
    @pytest.mark.parametrize("c", [2, 3, 8, 12])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_residual_matches_nonzero_major(self, order, c, values):
        x, f = self.case(order, c, values, seed=100 * order + c + 50)
        got = residual_fro_sq(x, f)
        assert got == self.residual_tree(x, f)
        # The tree groups the cross term's sums differently from a flat pass
        # over the nonzeros: each nonzero's sum over the clusters may differ
        # by (C - 1) roundings and the sum over the nonzeros by nnz more. With
        # non-negative terms, cross <= (||X||^2 + recon) / 2.
        scale = x.norm_sq + reconstruction_norm_sq(f)
        want = residual_nonzero_major(x, f)
        assert abs(got - want) <= 4 * (c + x.nnz) * np.finfo(np.float64).eps * scale


def tree_ranges(lo, hi):
    """(parent, child) mode ranges of the dimension tree below (lo, hi)."""
    if hi - lo < 2:
        return []
    mid = (lo + hi) // 2
    return [((lo, hi), (lo, mid)), ((lo, hi), (mid, hi))] + tree_ranges(lo, mid) + tree_ranges(mid, hi)


def assert_tree_matches_unique(x):
    tree = x.tree
    edges = tree_ranges(0, x.order)
    assert set(tree) == {(0, x.order)} | {child for _, child in edges}
    assert tree[0, x.order][0] is x.indices
    for parent, (lo, hi) in edges:
        keys, starts, lengths, group = tree[lo, hi]
        assert np.array_equal(keys, np.unique(x.indices[:, lo:hi], axis=0))
        cols = tree[parent][0][:, lo - parent[0] : hi - parent[0]]
        if lo == parent[0]:
            assert group is None
            assert np.array_equal(lengths, np.diff(starts, append=len(cols)))
            rows = np.repeat(np.arange(len(keys)), lengths)
        else:
            assert starts is None and lengths is None and group.dtype == np.int32
            rows = group
        assert np.array_equal(keys[rows], cols)


class TestDimensionTree:
    """The static tree `mttkrp_sparse` walks, and its per-sweep cache."""

    @staticmethod
    def case(order, c, kind, seed):
        """A tensor with 3 unused trailing indices per mode and its factors.
        "repeated": modes alternate between two node types, as in a motif
        that repeats a type, and the positions of a type start from one
        shared factor object."""
        rng = np.random.default_rng(seed)
        types = [0, 1, 0, 0, 1, 0][:order] if kind == "repeated" else list(range(order))
        sizes = [int(d) for d in rng.integers(2, 6, size=order)]
        used = tuple(sizes[t] for t in types)
        x = random_sparse_tensor(rng, used, 0 if kind == "empty" else 150)
        dims = tuple(d + 3 for d in used)
        x = SparseTensor(dims, x.indices, rng.uniform(0.0, 10.0, size=x.nnz))
        shared = {t: rng.uniform(0.0, 1.0, size=(c, dims[i])) for i, t in enumerate(types)}
        return x, [shared[t] for t in types]

    @pytest.mark.parametrize("kind", ["random", "empty", "repeated"])
    @pytest.mark.parametrize("c", [2, 3, 8, 12])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_sweep_cache_equals_cache_free(self, order, c, kind):
        x, f = self.case(order, c, kind, seed=10 * order + c)
        rng = np.random.default_rng(order * c)
        for _ in range(2):
            cache = {}
            for i in range(order):
                got = mttkrp_sparse(x, f, i, cache=cache)
                assert np.array_equal(got, mttkrp_sparse(x, f, i))
                assert np.array_equal(got, mttkrp_tree_nonzero_major(x, f, i))
                f[i] = rng.uniform(0.0, 1.0, size=f[i].shape)
        assert_tree_matches_unique(x)

    @pytest.mark.parametrize("kind", ["random", "repeated"])
    @pytest.mark.parametrize("seed", range(6))
    def test_cache_serves_any_call_order(self, seed, kind):
        order = 2 + seed % 5
        x, f = self.case(order, 3, kind, seed=seed)
        # Same dims, other nonzeros: a shared dict must not serve x's partials.
        y = random_sparse_tensor(np.random.default_rng(seed + 100), x.dims, 60)
        rng = np.random.default_rng(seed)
        cache = {}
        for _ in range(40):
            tensor = x if rng.random() < 0.7 else y
            mode = int(rng.integers(0, order))  # repeats and descending modes too
            got = mttkrp_sparse(tensor, f, mode, cache=cache)
            assert np.array_equal(got, mttkrp_sparse(tensor, f, mode))
            for i in np.flatnonzero(rng.random(order) < 0.3):
                f[i] = rng.uniform(0.0, 1.0, size=f[i].shape)
            if kind == "repeated" and rng.random() < 0.3:  # one new object at every type-0 position
                shared = rng.uniform(0.0, 1.0, size=f[0].shape)
                for i in range(order):
                    if i in (0, 2, 3, 5):
                        f[i] = shared

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_sweep_computes_each_node_once(self, order, monkeypatch):
        calls, descend = [], tensors._descend

        def counted(*args):
            calls.append(args[1])  # the node computed
            return descend(*args)

        monkeypatch.setattr(tensors, "_descend", counted)
        x, f = self.case(order, 3, "random", seed=order)
        rng = np.random.default_rng(order)
        for _ in range(2):
            cache = {}
            calls.clear()
            for i in range(order):
                mttkrp_sparse(x, f, i, cache=cache)
                f[i] = rng.uniform(0.0, 1.0, size=f[i].shape)
            assert sorted(calls) == sorted(child for _, child in tree_ranges(0, order))
            assert len(calls) == 2 * order - 2

    def test_tree_is_built_on_first_use(self, tmp_path):
        x = random_sparse_tensor(np.random.default_rng(4), (5, 6, 7), 30)
        x.write_tsv(tmp_path / "x.tsv")
        y = SparseTensor.read_tsv(tmp_path / "x.tsv")
        assert "tree" not in vars(x) and "tree" not in vars(y)
        mttkrp_sparse(y, random_factors(np.random.default_rng(5), y.dims, 2), 0)
        assert "tree" in vars(y)

    @pytest.mark.parametrize("order", [5, 6])
    def test_tree_at_max_index(self, order):
        # Keys over three modes of this size overflow int64 when raveled.
        rng = np.random.default_rng(order)
        top = MAX_INDEX - 1
        idx = np.unique(rng.choice([0, 1, top - 1, top], size=(12, order)), axis=0)
        x = SparseTensor((MAX_INDEX,) * order, idx, np.ones(len(idx)))
        assert_tree_matches_unique(x)


class TestGramHadamard:
    @pytest.mark.parametrize("mode", [-1, 3, 7])
    def test_mode_out_of_range_is_refused(self, mode):
        # Mode 7 of three factors used to return the product of all three Grams.
        factors = [np.ones((2, 4)), np.ones((2, 5)), np.ones((2, 6))]
        with pytest.raises(ValueError, match=rf"mode {mode} outside 0\.\.2"):
            gram_hadamard(factors, mode)

    def test_single_other_factor(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(size=(3, 5))
        out = gram_hadamard([np.zeros((3, 9)), v], 0)
        np.testing.assert_allclose(out, v @ v.T)

    def test_zero_row_annihilates(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(3, 4))
        a[1, :] = 0.0
        out = gram_hadamard([a, rng.uniform(size=(3, 5))], 1)
        assert np.all(out[1, :] == 0) and np.all(out[:, 1] == 0)

    def test_matches_dense_kron_oracle(self):
        rng = np.random.default_rng(5)
        dims = (3, 4, 2, 3)
        f = random_factors(rng, dims, 3)
        for k in range(4):
            kr = kr_columns(f, k)
            np.testing.assert_allclose(gram_hadamard(f, k), kr.T @ kr, rtol=1e-10)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dims = tuple(rng.integers(2, 8, size=rng.integers(2, 5)))
            f = random_factors(rng, dims, int(rng.integers(2, 5)))
            g = gram_hadamard(f, int(rng.integers(0, len(dims))))
            np.testing.assert_allclose(g, g.T, rtol=1e-12)
            assert np.linalg.eigvalsh(g).min() >= -1e-10


class TestResidual:
    def test_all_zero(self):
        x = SparseTensor.empty((3, 4, 5))
        f = [np.zeros((2, d)) for d in (3, 4, 5)]
        assert residual_fro_sq(x, f) == 0.0

    def test_zero_tensor_measures_reconstruction(self):
        rng = np.random.default_rng(8)
        dims = (3, 4, 5)
        f = random_factors(rng, dims, 2)
        expected = np.sum(dense_reconstruct(f) ** 2)
        got = residual_fro_sq(SparseTensor.empty(dims), f)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            order = int(rng.integers(2, 5))
            dims = tuple(int(d) for d in rng.integers(2, 8, size=order))
            x = random_sparse_tensor(rng, dims, int(rng.integers(0, 20)))
            f = random_factors(rng, dims, int(rng.integers(1, 4)))
            expected = np.sum((todense(x) - dense_reconstruct(f)) ** 2)
            got = residual_fro_sq(x, f)
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)
            assert got >= 0.0

    def test_near_exact_fit_clamps_to_zero(self):
        rng = np.random.default_rng(10)
        f = random_factors(rng, (4, 5), 2)
        dense = dense_reconstruct(f)
        idx = np.argwhere(dense != 0)
        x = SparseTensor((4, 5), idx, dense[tuple(idx.T)])
        assert residual_fro_sq(x, f) <= 1e-10


class TestResidualFromMode:
    """The residual from one mode's MTTKRP and Gram equals the full pass."""

    @staticmethod
    def from_mode(x, f, mode):
        return residual_from_mode(
            x, f[mode], mttkrp_sparse(x, f, mode), gram_hadamard(f, mode)
        )

    def test_matches_full_pass_every_mode(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            order = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(2, 8, size=order))
            x = random_sparse_tensor(rng, dims, int(rng.integers(0, 20)))
            f = random_factors(rng, dims, int(rng.integers(1, 4)))
            want = residual_fro_sq(x, f)
            for mode in range(order):
                np.testing.assert_allclose(self.from_mode(x, f, mode), want, rtol=1e-9, atol=0)

    def test_empty_tensor(self):
        rng = np.random.default_rng(22)
        x = SparseTensor.empty((3, 4))
        f = random_factors(rng, (3, 4), 2)
        np.testing.assert_allclose(self.from_mode(x, f, 1), residual_fro_sq(x, f), rtol=1e-9, atol=0)

    def test_near_exact_fit_clamps_to_zero(self):
        rng = np.random.default_rng(10)
        f = random_factors(rng, (4, 5, 3), 2)
        dense = dense_reconstruct(f)
        idx = np.argwhere(dense != 0)
        x = SparseTensor((4, 5, 3), idx, dense[tuple(idx.T)])
        for mode in range(3):
            got = self.from_mode(x, f, mode)
            assert 0.0 <= got <= 1e-10

    def test_negative_beyond_roundoff_raises(self):
        # an MTTKRP that does not belong to the factors breaks the identity
        rng = np.random.default_rng(23)
        x = random_sparse_tensor(rng, (4, 5), 10)
        f = random_factors(rng, (4, 5), 2)
        mk = 10.0 * mttkrp_sparse(x, f, 1)
        with pytest.raises(FloatingPointError, match="negative beyond roundoff"):
            residual_from_mode(x, f[1], mk, gram_hadamard(f, 1))

    def test_norm_is_kept(self):
        x = SparseTensor((2, 2), [[0, 0], [1, 1]], [3.0, 4.0])
        assert x.norm_sq == 25.0
        assert x.__dict__["norm_sq"] == 25.0  # computed once, then read


class TestDenseOracles:
    def test_rank_one_ones(self):
        f = [np.ones((1, 3)), np.ones((1, 4))]
        np.testing.assert_array_equal(dense_reconstruct(f), np.ones((3, 4)))

    def test_matrix_case(self):
        rng = np.random.default_rng(11)
        v1, v2 = rng.uniform(size=(3, 4)), rng.uniform(size=(3, 5))
        np.testing.assert_allclose(dense_reconstruct([v1, v2]), v1.T @ v2)

    def test_order3_against_triple_loop(self):
        rng = np.random.default_rng(12)
        f = random_factors(rng, (3, 4, 2), 3)
        got = dense_reconstruct(f)
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    expected = sum(
                        f[0][c, i] * f[1][c, j] * f[2][c, k] for c in range(3)
                    )
                    assert got[i, j, k] == pytest.approx(expected, rel=1e-12)

    def test_matricize_order1(self):
        v = np.arange(4.0)
        np.testing.assert_array_equal(matricize(v, 0), v.reshape(1, 4).T.reshape(-1, 4))
        assert matricize(v, 0).shape == (1, 4)

    def test_matricize_2x3(self):
        m = np.arange(6.0).reshape(2, 3)
        out = matricize(m, 0)
        assert out.shape == (3, 2)
        # column j of the unfolding is the slice with first index j
        np.testing.assert_array_equal(out[:, 0], m[0])
        np.testing.assert_array_equal(out[:, 1], m[1])

    def test_matricize_invalid_mode(self):
        with pytest.raises(ValueError):
            matricize(np.zeros((2, 2)), 2)

    def test_unfolded_residual_matches_every_mode(self):
        # the Frobenius residual is the same computed natively or through any
        # mode's unfolding against the Kronecker-with-identity factor
        rng = np.random.default_rng(13)
        for _ in range(10):
            order = int(rng.integers(2, 5))
            dims = tuple(int(d) for d in rng.integers(2, 6, size=order))
            x = rng.uniform(size=dims)
            f = random_factors(rng, dims, int(rng.integers(1, 4)))
            native = np.linalg.norm(x - dense_reconstruct(f))
            for k in range(order):
                unfolded = np.linalg.norm(matricize(x, k) - kr_columns(f, k) @ f[k])
                np.testing.assert_allclose(unfolded, native, rtol=1e-9)
