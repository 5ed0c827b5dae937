import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motifclust.tensors import (
    SparseTensor,
    gram_hadamard,
    mttkrp_sparse,
    residual_fro_sq,
    residual_from_mode,
)

from conftest import random_sparse_tensor
from oracles import dense_reconstruct, from_tuples, matricize, todense


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


class TestTsvCodec:
    @given(x=sparse_tensors())
    @example(x=SparseTensor.empty((2, 0, 3)))
    @example(x=SparseTensor((7,), np.arange(7)[:, None], EDGE_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, x):
        path = tmp_path_factory.mktemp("codec") / "x.tsv"
        x.write_tsv(path)
        assert path.read_text(encoding="utf-8") == tsv_text(x)
        y = SparseTensor.read_tsv(path)
        assert y.dims == x.dims
        assert y.indices.dtype == np.int32 and np.array_equal(y.indices, x.indices)
        assert np.array_equal(y.values.view(np.int64), x.values.view(np.int64))

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
        f = random_factors(rng, dims, 3)
        dense = todense(x)
        for k in range(4):
            expected = matricize(dense, k).T @ kr_columns(f, k)
            got = mttkrp_sparse(x, f, k)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_shape_mismatch(self):
        x = SparseTensor.empty((4, 5))
        with pytest.raises(ValueError):
            mttkrp_sparse(x, [np.zeros((2, 4))], 0)
        with pytest.raises(ValueError):
            mttkrp_sparse(x, [np.zeros((2, 4)), np.zeros((2, 6))], 0)


class TestGramHadamard:
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
