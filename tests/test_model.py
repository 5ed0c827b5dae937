import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifclust.model as model
from motifclust.planted import MotifTemplate, PlantedConfig, generate_planted_hin
from motifclust.model import (
    Hyperparameters,
    ModelState,
    assign_clusters,
    consensus,
    fit,
    init_model,
    motif_weight_gradient,
    optimize_motif_weights,
    project_simplex,
)
from motifclust.motifs import enumerate_instances, parse_motif, transcribe
from motifclust.tensors import mttkrp_sparse

from conftest import block_factorization, random_state
from oracles import (
    coupling_terms, dense_reconstruct, from_tuples, init_model_per_seed, init_model_two_pass,
    neg_part, objective_from_scratch, pos_part, todense, update_factor_fresh,
)
from test_model_reference import gram_trace, repeated_type_state, states


def dense_objective_oracle(state):
    """Fully dense re-evaluation of all four objective terms from scratch."""
    h = state.hyper
    res = 0.0
    for x, fs in zip(state.tensors, state.factors):
        res += float(np.sum((todense(x) - dense_reconstruct(fs)) ** 2))
    l1 = h.l1_weight * sum(float(f.sum()) for fs in state.factors for f in fs)
    types = sorted({t for ts in state.motif_types for t in ts})
    cons = {}
    for t in types:
        total = None
        for m, ts in enumerate(state.motif_types):
            cnt = sum(1 for tt in ts if tt == t)
            for i, tt in enumerate(ts):
                if tt != t:
                    continue
                part = state.mu[m] / cnt * state.factors[m][i]
                total = part if total is None else total + part
        cons[t] = total
    gap = 0.0
    for m, ts in enumerate(state.motif_types):
        for i, t in enumerate(ts):
            gap += float(np.sum((state.factors[m][i] - cons[t]) ** 2))
    pen = 0.0
    for t in types:
        mask = state.masks.get(t)
        if mask is not None:
            pen += float(np.sum((mask * cons[t]) ** 2))
    return res + l1 + h.consensus_weight * gap + h.mask_penalty * pen


def simplex_oracle(v):
    """Exhaustive active-set search for the closest simplex point."""
    v = np.asarray(v, dtype=float)
    n = v.size
    best, best_d = None, np.inf
    for bits in range(1, 2**n):
        support = [i for i in range(n) if bits >> i & 1]
        tau = (v[support].sum() - 1.0) / len(support)
        x = np.zeros(n)
        x[support] = v[support] - tau
        if x[support].min() < -1e-12:
            continue
        d = float(np.sum((x - v) ** 2))
        if d < best_d:
            best, best_d = np.maximum(x, 0.0), d
    return best


class TestHyperparameters:
    @pytest.mark.parametrize("name", ["max_inner_iters", "max_outer_iters"])
    def test_iteration_cap_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            Hyperparameters(n_clusters=2, **{name: 0})
        assert getattr(Hyperparameters(n_clusters=2, **{name: 1}), name) == 1

    @pytest.mark.parametrize("value", [0.5, 0.0, -3.0])
    def test_seed_boost_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="seed_boost must be at least 1"):
            Hyperparameters(n_clusters=2, seed_boost=value)
        assert Hyperparameters(n_clusters=2, seed_boost=1.0).seed_boost == 1.0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_clusters", 3.0),
            ("n_clusters", True),
            ("n_clusters", "3"),
            ("max_inner_iters", 2.5),
            ("max_outer_iters", True),
            ("init_seed", True),
            ("init_seed", 0.0),
            ("stable_iters", True),
            ("stable_iters", 2.0),
        ],
    )
    def test_integer_fields_refuse_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Hyperparameters(**{"n_clusters": 3, name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("seed_boost", True),
            ("mask_penalty", np.bool_(True)),
            ("consensus_weight", "1"),
            ("inner_tol", None),
            ("l1_weight", 1j),
        ],
    )
    def test_real_fields_refuse_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            Hyperparameters(**{"n_clusters": 3, name: value})

    def test_real_fields_take_integers_and_numpy_reals(self):
        hyper = Hyperparameters(n_clusters=3, seed_boost=10, l1_weight=np.float32(0.5))
        assert (hyper.seed_boost, hyper.l1_weight) == (10, 0.5)

    def test_stable_iters_must_be_non_negative(self):
        with pytest.raises(ValueError, match="stable_iters must be non-negative"):
            Hyperparameters(n_clusters=2, stable_iters=-1)
        assert Hyperparameters(n_clusters=2).stable_iters == 30

    def test_integer_fields_take_numpy_integers(self):
        hyper = Hyperparameters(n_clusters=np.int64(3), max_outer_iters=np.int32(2), init_seed=np.uint8(1))
        assert (hyper.n_clusters, hyper.max_outer_iters, hyper.init_seed) == (3, 2, 1)

    def test_negative_init_seed_rejected(self):
        with pytest.raises(ValueError, match="init_seed must be non-negative"):
            Hyperparameters(n_clusters=2, init_seed=-1)
        assert Hyperparameters(n_clusters=2, init_seed=0).init_seed == 0


class TestParts:
    def test_sign_split(self):
        a = np.array([[-1.0, 2.0]])
        np.testing.assert_array_equal(pos_part(a), [[0.0, 2.0]])
        np.testing.assert_array_equal(neg_part(a), [[1.0, 0.0]])

    def test_nonnegative_input(self):
        a = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(pos_part(a), a)
        np.testing.assert_array_equal(neg_part(a), np.zeros_like(a))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_reconstruction_identities(self, vals):
        a = np.asarray(vals)
        np.testing.assert_allclose(pos_part(a) - neg_part(a), a, atol=1e-9)
        np.testing.assert_allclose(pos_part(a) + neg_part(a), np.abs(a), atol=1e-9)
        assert pos_part(a).min() >= 0 and neg_part(a).min() >= 0


class TestModelState:
    def _state(self, factor=None, mu=(0.5, 0.5), mask=None):
        """Two one-position motifs over type 0 (3 nodes, C = 2)."""
        rng = np.random.default_rng(3)
        first = rng.uniform(0.1, 1.1, (2, 3)) if factor is None else factor
        factors = [[first], [rng.uniform(0.1, 1.1, (2, 3))]]
        return ModelState(
            motif_names=["a", "b"],
            motif_types=[(0,), (0,)],
            tensors=[from_tuples((3,), [(0,)]), from_tuples((3,), [(1,)])],
            factors=factors,
            mu=np.array(mu),
            masks={} if mask is None else {0: mask},
            hyper=Hyperparameters(n_clusters=2),
        )

    def test_factor_shape_checked(self):
        with pytest.raises(ValueError, match=r"has shape \(3, 2\), expected \(2, 3\)"):
            self._state(factor=np.ones((3, 2)))

    @pytest.mark.parametrize("mu", [(0.6, 0.6), (1.5, -0.5)])
    def test_weights_off_the_simplex_rejected(self, mu):
        with pytest.raises(ValueError, match="standard simplex"):
            self._state(mu=mu)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_factor_rejected(self, value):
        factor = np.ones((2, 3))
        factor[1, 2] = value
        with pytest.raises(ValueError, match="factors must be finite and non-negative"):
            self._state(factor=factor)

    @pytest.mark.parametrize("mu", [(np.nan, 0.5), (np.inf, 0.5)])
    def test_non_finite_weights_rejected(self, mu):
        with pytest.raises(ValueError, match="motif weights must be finite"):
            self._state(mu=mu)

    def test_factors_and_masks_are_read_only_copies(self):
        factor, mask = np.ones((2, 3)), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        state = self._state(factor=factor, mask=mask)
        factor[0, 0] = mask[0, 0] = 2.0  # the caller's arrays stay its own
        assert state.factors[0][0][0, 0] == 1.0 and state.masks[0][0, 0] == 0.0
        update_factor_fresh(state, 1, 0)
        assigned = state.set_factor(0, 0, np.full((2, 3), 0.5))
        objective_from_scratch(state)
        for s in (state, state.copy()):
            for f in (s.factors[0][0], s.factors[1][0]):
                with pytest.raises(ValueError, match="read-only"):
                    f[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                s.masks[0][1, 1] = 1.0
        assert state.factors[0][0] is assigned and np.all(assigned == 0.5)


class TestGramRows:
    """The forms `_gram_rows` gives from the stacks must equal those of a
    fresh copy of the state, to the tolerances of
    `test_weight_forms_equal_coupling_terms`, after any replacement: one
    position, one motif's, any set of them, or all."""

    @settings(max_examples=20, deadline=None)
    @given(
        index=st.integers(0, len(states()) - 1),
        steps=st.lists(
            st.tuples(st.sampled_from(["position", "motif", "some", "all"]), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=5,
        ),
    )
    def test_kept_rows_equal_a_fresh_state(self, index, steps):
        state = states()[index]
        objective_from_scratch(state)
        positions = [(m, i) for m, ts in enumerate(state.motif_types) for i in range(len(ts))]
        for kind, seed in steps:
            rng = np.random.default_rng(seed)
            if kind == "position":
                chosen = [positions[rng.integers(len(positions))]]
            elif kind == "motif":
                m = int(rng.integers(state.n_motifs()))
                chosen = [(m, i) for i in range(len(state.motif_types[m]))]
            elif kind == "some":  # rows that need not be adjacent
                chosen = [pos for pos in positions if rng.random() < 0.5]
            else:
                chosen = positions
            for m, i in chosen:
                f = state.factors[m][i]
                state.set_factor(m, i, f * rng.uniform(0.5, 2.0, f.shape))
            fresh = state.copy()
            coupling, gradient = model._weight_forms(state)
            want_coupling, want_gradient = model._weight_forms(fresh)
            scale = state.hyper.consensus_weight * gram_trace(fresh)
            for mu in rng.dirichlet(np.ones(state.n_motifs()), size=20):
                (gap, penalty), (want_gap, want_penalty) = coupling(mu), want_coupling(mu)
                np.testing.assert_allclose(gap, want_gap, rtol=1e-12, atol=1e-12 * scale)
                np.testing.assert_allclose(penalty, want_penalty, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                gradient(state.mu), want_gradient(state.mu), rtol=1e-12, atol=1e-12 * scale
            )
            l1 = state.hyper.l1_weight * sum(float(f.sum()) for fs in state.factors for f in fs)
            got = objective_from_scratch(state).l1
            np.testing.assert_allclose(got, objective_from_scratch(fresh).l1, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got, l1, rtol=1e-12, atol=0)


class TestFactorStacks:
    """Each factor lives once, as a row of its type's stack; factors[m][i]
    is a read-only view of it and `set_factor` the one writer."""

    def test_sweep_equals_cache_free_updates(self):
        """A motif's MTTKRP cache, shared by its sweeps as in `fit`, keeps
        old view objects, which share memory with the rows written since; its
        updates must still equal those made with cache-free MTTKRPs bit for
        bit, on repeated types."""
        state = repeated_type_state(np.random.default_rng(12), with_mask=True)
        ref = state.copy()
        caches = [{} for _ in state.tensors]
        for _ in range(3):
            for m in range(state.n_motifs()):
                model._sweep(state, m, caches[m])
                for i in range(len(ref.motif_types[m])):
                    update_factor_fresh(ref, m, i)
                for f, want in zip(state.factors[m], ref.factors[m]):
                    assert np.array_equal(f, want)

    def test_shared_cache_sees_every_write(self):
        """MTTKRPs sharing one cache across `set_factor` calls equal
        cache-free ones: the new view object misses every kept partial."""
        state = repeated_type_state(np.random.default_rng(13), with_mask=False)
        x, cache = state.tensors[0], {}
        rng = np.random.default_rng(14)
        for _ in range(4):
            for i in range(x.order):
                got = mttkrp_sparse(x, state.factors[0], i, cache=cache)
                assert np.array_equal(got, mttkrp_sparse(x, state.factors[0], i))
            i = int(rng.integers(x.order))
            f = state.factors[0][i]
            state.set_factor(0, i, f * rng.uniform(0.5, 2.0, f.shape))

    def test_copy_shares_no_stack(self):
        state = repeated_type_state(np.random.default_rng(15), with_mask=True)
        before = [[f.copy() for f in fs] for fs in state.factors]
        terms = objective_from_scratch(state)
        twin = state.copy()
        for t, stack in state.stacks.items():
            assert not np.shares_memory(stack, twin.stacks[t])
        for m, i in twin.slots:
            twin.set_factor(m, i, 2.0 * twin.factors[m][i])
        update_factor_fresh(twin, 0, 1)
        for fs, want in zip(state.factors, before):
            for f, w in zip(fs, want):
                assert np.array_equal(f, w)
        assert objective_from_scratch(state) == terms

    def test_factors_are_read_only_views_of_the_stacks(self):
        state = repeated_type_state(np.random.default_rng(16), with_mask=True)
        update_factor_fresh(state, 0, 2)
        with pytest.raises(TypeError):
            state.factors[0][0] = np.ones_like(state.factors[0][0])
        with pytest.raises(TypeError):
            state.factors[0] = state.factors[1]
        for t, rows in state.layout.items():
            with pytest.raises(ValueError, match="read-only"):
                state.stacks[t][0, 0, 0] = 1.0
            for j, (m, i, _) in enumerate(rows):
                f = state.factors[m][i]
                assert not f.flags.writeable and np.shares_memory(f, state.stacks[t][j])
        with pytest.raises(ValueError, match=r"position 1 has shape \(3,\), expected \(3, 5\)"):
            state.set_factor(0, 1, np.ones(3))


class TestConsensus:
    def test_single_contributor_identity(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, n_motifs=1, with_mask=False)
        state.mu = np.array([1.0])
        # pick a type appearing exactly once in the single motif
        for t in state.clustered_types():
            if len(state.contributors(0)) and state.motif_types[0].count(t) == 1:
                m, i = [
                    (m, i) for m, i in state.contributors(t)
                ][0]
                np.testing.assert_allclose(consensus(state, t), state.factors[m][i])
                break

    def test_four_same_type_positions_coefficient(self):
        c, d = 2, 5
        rng = np.random.default_rng(1)
        factors = [[rng.uniform(0.1, 1.1, (c, d)) for _ in range(4)],
                   [rng.uniform(0.1, 1.1, (c, d))]]
        tensors = [
            from_tuples((d, d, d, d), [(0, 1, 2, 3)]),
            from_tuples((d,), [(0,)]),
        ]
        state = ModelState(
            motif_names=["four", "one"],
            motif_types=[(0, 0, 0, 0), (0,)],
            tensors=tensors,
            factors=factors,
            mu=np.array([0.5, 0.5]),
            masks={},
            hyper=Hyperparameters(n_clusters=c),
        )
        expected = 0.125 * sum(factors[0]) + 0.5 * factors[1][0]
        np.testing.assert_allclose(consensus(state, 0), expected)

    def test_matches_naive_resummation(self):
        rng = np.random.default_rng(2)
        state = random_state(rng)
        for t in state.clustered_types():
            expected = np.zeros_like(consensus(state, t))
            for m, ts in enumerate(state.motif_types):
                cnt = sum(1 for tt in ts if tt == t)
                for i, tt in enumerate(ts):
                    if tt == t:
                        expected += state.mu[m] / cnt * state.factors[m][i]
            np.testing.assert_allclose(consensus(state, t), expected, rtol=1e-12)

    def test_uncovered_type_errors(self):
        rng = np.random.default_rng(3)
        state = random_state(rng)
        with pytest.raises(ValueError, match="no motif"):
            consensus(state, 99)

    def test_coefficients_sum_to_weights_of_covering_motifs(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, n_motifs=3)
        for t in state.clustered_types():
            total = sum(float(state.mu[m]) / k for m, _, k in state.layout[t])
            covering = sum(
                state.mu[m]
                for m in range(state.n_motifs())
                if t in state.motif_types[m]
            )
            assert total == pytest.approx(covering, abs=1e-12)

    def test_layout_lists_every_position_once(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = random_state(rng, n_motifs=3)
            expected = {
                t: [
                    (m, i, ts.count(t))
                    for m, ts in enumerate(state.motif_types)
                    for i, tt in enumerate(ts)
                    if tt == t
                ]
                for t in state.clustered_types()
            }
            assert {t: list(map(tuple, rows.tolist())) for t, rows in state.layout.items()} == expected
            coeffs = [state.mu[m] / k for t in sorted(expected) for m, _, k in expected[t]]
            np.testing.assert_allclose(state.weight_map @ state.mu, coeffs, rtol=1e-15, atol=0)
            for t in state.clustered_types():
                assert state.contributors(t) == [(m, i) for m, i, _ in expected[t]]
        assert state.contributors(99) == []


class TestObjective:
    def test_zero_factors_leave_tensor_norms(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, hyper_overrides={"l1_weight": 1e-3})
        for m, i in state.slots:
            state.set_factor(m, i, np.zeros_like(state.factors[m][i]))
        terms = objective_from_scratch(state)
        expected = sum(t.nnz for t in state.tensors)  # binary tensors
        assert terms.residual == pytest.approx(expected)
        assert terms.l1 == 0.0 and terms.consensus_gap == 0.0 and terms.seed_penalty == 0.0

    def test_term_isolation(self):
        rng = np.random.default_rng(6)
        state = random_state(rng)
        state.hyper = Hyperparameters(
            n_clusters=state.hyper.n_clusters,
            consensus_weight=0.0,
            mask_penalty=0.0,
            l1_weight=0.0,
        )
        from motifclust.tensors import residual_fro_sq

        expected = sum(
            residual_fro_sq(state.tensors[m], state.factors[m])
            for m in range(state.n_motifs())
        )
        assert objective_from_scratch(state).total == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_state(rng)
            got = objective_from_scratch(state).total
            np.testing.assert_allclose(got, dense_objective_oracle(state), rtol=1e-9)


class TestUpdateFactor:
    def test_fixed_point_at_exact_factorization(self):
        x, factors = block_factorization(np.random.default_rng(8), (4, 3, 5), 2)
        state = ModelState(
            motif_names=["m"],
            motif_types=[(0, 1, 2)],
            tensors=[x],
            factors=[[f.copy() for f in factors]],
            mu=np.array([1.0]),
            masks={},
            hyper=Hyperparameters(
                n_clusters=2, consensus_weight=0.0, mask_penalty=0.0, l1_weight=0.0
            ),
        )
        for i in range(3):
            updated = update_factor_fresh(state, 0, i)
            np.testing.assert_allclose(updated, factors[i], rtol=1e-9)

    def test_reduces_to_matrix_factorization(self):
        # exactly factorable matrix, no coupling terms: residual is driven to ~0
        rng = np.random.default_rng(2)
        x, _ = block_factorization(rng, (4, 5), 2)
        state = ModelState(
            motif_names=["m"],
            motif_types=[(0, 1)],
            tensors=[x],
            factors=[[rng.uniform(0.1, 1.1, (2, 4)), rng.uniform(0.1, 1.1, (2, 5))]],
            mu=np.array([1.0]),
            masks={},
            hyper=Hyperparameters(
                n_clusters=2, consensus_weight=0.0, mask_penalty=0.0, l1_weight=0.0
            ),
        )
        from motifclust.tensors import residual_fro_sq

        for _ in range(500):
            update_factor_fresh(state, 0, 0)
            update_factor_fresh(state, 0, 1)
        assert residual_fro_sq(state.tensors[0], state.factors[0]) < 1e-6

    def test_monotone_on_random_states(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            state = random_state(rng)
            m = int(rng.integers(0, state.n_motifs()))
            i = int(rng.integers(0, len(state.motif_types[m])))
            before = objective_from_scratch(state).total
            update_factor_fresh(state, m, i)
            after = objective_from_scratch(state).total
            assert after <= before + 1e-9 * (1.0 + abs(before))

    def test_zeros_stay_zero_and_nonnegative(self):
        rng = np.random.default_rng(11)
        state = random_state(rng)
        f = state.factors[0][0].copy()
        f[0, :] = 0.0
        f[:, 0] = 0.0
        state.set_factor(0, 0, f)
        for _ in range(3):
            for m in range(state.n_motifs()):
                for i in range(len(state.motif_types[m])):
                    update_factor_fresh(state, m, i)
        assert np.all(state.factors[0][0][0, :] == 0.0)
        assert np.all(state.factors[0][0][:, 0] == 0.0)
        for fs in state.factors:
            for f in fs:
                assert f.min() >= 0.0


class TestWeightGradient:
    def test_zero_when_coupling_disabled(self):
        rng = np.random.default_rng(12)
        state = random_state(
            rng, hyper_overrides={"consensus_weight": 1e-300, "mask_penalty": 1e-300}
        )
        state.hyper.consensus_weight = 0.0
        state.hyper.mask_penalty = 0.0
        np.testing.assert_array_equal(motif_weight_gradient(state), 0.0)

    def test_single_motif_gradient_length(self):
        rng = np.random.default_rng(13)
        state = random_state(rng, n_motifs=1)
        grad = motif_weight_gradient(state)
        assert grad.shape == (1,)
        optimize_motif_weights(state, objective_from_scratch(state))
        np.testing.assert_array_equal(state.mu, np.array([1.0]))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(14)
        h = 1e-6
        for _ in range(25):
            state = random_state(rng, n_motifs=3)
            grad = motif_weight_gradient(state)
            fd = np.zeros_like(grad)
            for l in range(3):
                up = state.mu.copy()
                down = state.mu.copy()
                up[l] += h
                down[l] -= h
                up_total = sum(coupling_terms(state, up))  # terms 1 and 2 do not depend on mu
                fd[l] = (up_total - sum(coupling_terms(state, down))) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


class TestProjectSimplex:
    def test_idempotent_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)

    def test_vertex(self):
        np.testing.assert_array_equal(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_against_active_set_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=int(rng.integers(1, 7)))
            got = project_simplex(v)
            np.testing.assert_allclose(got, simplex_oracle(v), atol=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_always_lands_on_simplex(self, vals):
        x = project_simplex(np.asarray(vals))
        assert abs(x.sum() - 1.0) <= 1e-12
        assert x.min() >= 0.0


class TestOptimizeWeights:
    def test_never_increases_objective(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            state = random_state(rng, n_motifs=3)
            before = objective_from_scratch(state).total
            optimize_motif_weights(state, objective_from_scratch(state))
            after = objective_from_scratch(state).total
            assert after <= before + 1e-9 * (1 + abs(before))
            assert abs(state.mu.sum() - 1.0) <= 1e-9 and state.mu.min() >= 0

    def test_weight_shifts_toward_seed_respecting_motif(self):
        # motif 0 respects the mask, motif 1 piles mass on forbidden clusters
        c, d = 3, 6
        rng = np.random.default_rng(17)
        good = rng.uniform(0.1, 0.2, (c, d))
        bad = rng.uniform(0.1, 0.2, (c, d))
        mask = np.zeros((c, d))
        for j in range(3):
            mask[:, j] = 1.0
            mask[0, j] = 0.0
        good[mask == 1.0] = 0.0
        bad[mask == 1.0] = 5.0
        state = ModelState(
            motif_names=["good", "bad"],
            motif_types=[(0,), (0,)],
            tensors=[from_tuples((d,), [(0,)])] * 2,
            factors=[[good], [bad]],
            mu=np.array([0.5, 0.5]),
            masks={0: mask},
            hyper=Hyperparameters(n_clusters=c, mask_penalty=100.0),
        )
        before = objective_from_scratch(state).total
        optimize_motif_weights(state, objective_from_scratch(state))
        assert state.mu[0] > 0.5
        assert objective_from_scratch(state).total < before

    def test_multi_start_agreement_on_convex_subproblem(self):
        rng = np.random.default_rng(18)
        state = random_state(rng, n_motifs=3)
        finals = []
        for _ in range(20):
            trial = state.copy()
            trial.mu = rng.dirichlet(np.ones(3))
            trial.hyper = Hyperparameters(
                n_clusters=state.hyper.n_clusters,
                consensus_weight=state.hyper.consensus_weight,
                mask_penalty=state.hyper.mask_penalty,
                l1_weight=state.hyper.l1_weight,
                inner_tol=1e-12,
                max_inner_iters=5000,
            )
            optimize_motif_weights(trial, objective_from_scratch(trial))
            finals.append(objective_from_scratch(trial).total)
        finals = np.asarray(finals)
        assert (finals.max() - finals.min()) <= 1e-6 * (1 + finals.min())


class TestFit:
    def test_huge_tolerance_returns_after_one_outer(self):
        rng = np.random.default_rng(19)
        state = random_state(rng, hyper_overrides={"outer_tol": 1e6})
        result = fit(state)
        assert result.converged and len(result.history) == 1

    def test_objective_log_non_increasing(self):
        rng = np.random.default_rng(20)
        state = random_state(rng, hyper_overrides={"max_outer_iters": 10})
        result = fit(state)
        objs = [rec.objective for rec in result.history]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))

    def test_seed_mask_pull_holds_at_convergence(self):
        # in the recommended guided setup (mask penalty plus boosted seed
        # columns) no converged seed node may end up argmax-assigned to a
        # cluster its mask forbids; zero failures allowed over 20 runs.
        # Without the boost, zero-locking can strand a seed whose block
        # crystallizes on the opposite cluster; see the README notes.
        failures = 0
        for seed in range(20):
            config = PlantedConfig(
                n_clusters=2,
                nodes_per_type=20,
                type_names=("A", "B"),
                templates=(MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),)),),
                noise=0.05,
                seed_fraction=0.1,
                rng_seed=seed,
            )
            data = generate_planted_hin(config)
            hin = data.hin
            motif = parse_motif(
                '{"name":"pair","nodes":[{"id":"a","type":"A"},{"id":"b","type":"B"}],'
                '"edges":[{"src":"a","dst":"b","etype":"ab","dir":"u"}]}',
                hin,
            )
            tensor = transcribe(hin, motif, enumerate_instances(hin, motif))
            state = init_model(
                hin, [motif], [tensor], data.seeds,
                Hyperparameters(
                    n_clusters=2, mask_penalty=100.0, init_seed=seed, seed_boost=10.0
                ),
            )
            fit(state)
            assigned = assign_clusters(state)
            for node, label in data.seeds.items():
                t, j = hin.lookup(node)
                if int(assigned[t].labels[j]) != label:
                    failures += 1
        assert failures == 0

    def test_planted_two_block_recovery(self):
        config = PlantedConfig(
            n_clusters=2,
            nodes_per_type=20,
            type_names=("A", "B"),
            templates=(MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),)),),
            noise=0.0,
            seed_fraction=0.1,
            rng_seed=3,
        )
        data = generate_planted_hin(config)
        hin = data.hin
        motif = parse_motif(
            '{"name":"pair","nodes":[{"id":"a","type":"A"},{"id":"b","type":"B"}],'
            '"edges":[{"src":"a","dst":"b","etype":"ab","dir":"u"}]}',
            hin,
        )
        tensor = transcribe(hin, motif, enumerate_instances(hin, motif))
        state = init_model(hin, [motif], [tensor], data.seeds, Hyperparameters(n_clusters=2))
        fit(state)
        assigned = assign_clusters(state)
        correct = 0
        total = 0
        for t, assign in assigned.items():
            for j, node in enumerate(hin.nodes_of_type(t)):
                if node in data.seeds:
                    continue
                total += 1
                correct += int(assign.labels[j] == data.labels[node])
        assert correct / total == 1.0

    def test_twelve_clusters_fit_and_label_every_node(self):
        config = PlantedConfig(
            n_clusters=12,
            nodes_per_type=48,
            type_names=("A", "B"),
            templates=(MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),)),),
            seed_fraction=0.25,
            rng_seed=0,
        )
        data = generate_planted_hin(config)
        hin = data.hin
        motif = parse_motif(
            '{"name":"pair","nodes":[{"id":"a","type":"A"},{"id":"b","type":"B"}],'
            '"edges":[{"src":"a","dst":"b","etype":"ab","dir":"u"}]}',
            hin,
        )
        tensor = transcribe(hin, motif, enumerate_instances(hin, motif))
        hyper = Hyperparameters(n_clusters=12, max_outer_iters=5)
        state = init_model(hin, [motif], [tensor], data.seeds, hyper)
        result = fit(state)
        objs = [rec.objective for rec in result.history]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))
        for t, assign in assign_clusters(state).items():
            labels = np.asarray(assign.labels)
            assert labels.shape == (len(hin.nodes_of_type(t)),)
            assert labels.min() >= 0 and labels.max() <= 11


class TestAssign:
    def _single_type_state(self, cons_value):
        c, d = cons_value.shape
        return ModelState(
            motif_names=["m"],
            motif_types=[(0,)],
            tensors=[from_tuples((d,), [(0,)])],
            factors=[[cons_value.astype(float)]],
            mu=np.array([1.0]),
            masks={},
            hyper=Hyperparameters(n_clusters=c, l1_weight=1e-4),
        )

    def test_argmax_and_tie_break(self):
        cons = np.array([[0.1, 0.5, 0.0], [0.9, 0.5, 0.0]])
        state = self._single_type_state(cons)
        assign = assign_clusters(state)[0]
        assert assign.labels.tolist() == [1, 0, 0]
        assert assign.zero_columns.tolist() == [False, False, True]

    def test_global_scaling_leaves_assignment_unchanged(self):
        rng = np.random.default_rng(21)
        state = random_state(rng)
        base = {t: a.labels.copy() for t, a in assign_clusters(state).items()}
        for m, i in state.slots:
            state.set_factor(m, i, 37.5 * state.factors[m][i])
        scaled = assign_clusters(state)
        for t in base:
            np.testing.assert_array_equal(base[t], scaled[t].labels)


class TestInitModel:
    def _setup(self, toy_paths):
        from motifclust.hin import load_hin

        hin = load_hin(*toy_paths)
        motif = parse_motif(
            '{"name":"ap","nodes":[{"id":"a","type":"A"},{"id":"p","type":"P"}],'
            '"edges":[{"src":"a","dst":"p","etype":"writes","dir":"u"}]}',
            hin,
        )
        tensor = transcribe(hin, motif, enumerate_instances(hin, motif))
        return hin, motif, tensor

    def test_deterministic_init(self, toy_paths):
        hin, motif, tensor = self._setup(toy_paths)
        h = Hyperparameters(n_clusters=3, init_seed=7)
        s1 = init_model(hin, [motif], [tensor], {"a1": 0}, h)
        s2 = init_model(hin, [motif], [tensor], {"a1": 0}, h)
        for f1, f2 in zip(s1.factors[0], s2.factors[0]):
            np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(s1.mu, [1.0])
        assert np.all((s1.factors[0][0] > 0.1) & (s1.factors[0][0] < 1.1))

    def test_mask_column(self, toy_paths):
        hin, motif, tensor = self._setup(toy_paths)
        state = init_model(
            hin, [motif], [tensor], {"a2": 2}, Hyperparameters(n_clusters=3)
        )
        t = hin.type_id("A")
        np.testing.assert_array_equal(state.masks[t][:, 1], [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(state.masks[t][:, 0], [0.0, 0.0, 0.0])

    def test_uniform_weights(self, toy_paths):
        hin, motif, tensor = self._setup(toy_paths)
        motif2 = parse_motif(
            '{"name":"pt","nodes":[{"id":"p","type":"P"},{"id":"t","type":"T"}],'
            '"edges":[{"src":"p","dst":"t","etype":"uses","dir":"u"}]}',
            hin,
        )
        tensor2 = transcribe(hin, motif2, enumerate_instances(hin, motif2))
        state = init_model(
            hin, [motif, motif2], [tensor, tensor2], {}, Hyperparameters(n_clusters=2)
        )
        np.testing.assert_array_equal(state.mu, [0.5, 0.5])

    def test_seed_errors(self, toy_paths):
        hin, motif, tensor = self._setup(toy_paths)
        with pytest.raises(ValueError, match="label 5"):
            init_model(hin, [motif], [tensor], {"a1": 5}, Hyperparameters(n_clusters=3))
        with pytest.raises(KeyError, match="zz"):
            init_model(hin, [motif], [tensor], {"zz": 0}, Hyperparameters(n_clusters=3))
        with pytest.raises(ValueError, match="no motif covers"):
            init_model(hin, [motif], [tensor], {"v1": 0}, Hyperparameters(n_clusters=3))

    def test_seed_boost(self, toy_paths):
        hin, motif, tensor = self._setup(toy_paths)
        plain = init_model(
            hin, [motif], [tensor], {"a1": 1}, Hyperparameters(n_clusters=3, init_seed=1)
        )
        boosted = init_model(
            hin,
            [motif],
            [tensor],
            {"a1": 1},
            Hyperparameters(n_clusters=3, init_seed=1, seed_boost=10.0),
        )
        assert boosted.factors[0][0][1, 0] == pytest.approx(10 * plain.factors[0][0][1, 0])
        assert boosted.factors[0][0][0, 0] == plain.factors[0][0][0, 0]

    def _three_motifs(self, hin):
        """ap, apa (type A at positions 0 and 2) and pt, with their tensors."""
        specs = [
            ("ap", [("a", "A"), ("p", "P")], [("a", "p", "writes")]),
            (
                "apa", [("a", "A"), ("p", "P"), ("b", "A")],
                [("a", "p", "writes"), ("b", "p", "writes")],
            ),
            ("pt", [("p", "P"), ("t", "T")], [("p", "t", "uses")]),
        ]
        motifs = [
            parse_motif(json.dumps({
                "name": name,
                "nodes": [{"id": i, "type": t} for i, t in nodes],
                "edges": [{"src": a, "dst": b, "etype": e, "dir": "u"} for a, b, e in edges],
            }), hin)
            for name, nodes, edges in specs
        ]
        return motifs, [transcribe(hin, m, enumerate_instances(hin, m)) for m in motifs]

    @pytest.mark.parametrize("seed_boost", [1.0, 10.0])
    def test_equals_two_pass_reference(self, toy_paths, seed_boost):
        """Factors, masks and weights equal the two-pass construction bit for
        bit, for random seed sets over the types the motifs cover."""
        from motifclust.hin import load_hin

        hin = load_hin(*toy_paths)
        motifs, tensors = self._three_motifs(hin)
        nodes = [n for t in "APT" for n in hin.nodes_of_type(hin.type_id(t))]
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = int(rng.integers(2, 5))
            chosen = rng.choice(nodes, size=int(rng.integers(0, len(nodes) + 1)), replace=False)
            seeds = {str(n): int(rng.integers(c)) for n in chosen}
            hyper = Hyperparameters(
                n_clusters=c, init_seed=int(rng.integers(100)), seed_boost=seed_boost
            )
            got = init_model(hin, motifs, tensors, seeds, hyper)
            want = init_model_two_pass(hin, motifs, tensors, seeds, hyper)
            for fs, want_fs in zip(got.factors, want.factors):
                for f, want_f in zip(fs, want_fs):
                    np.testing.assert_array_equal(f, want_f)
            assert got.masks.keys() == want.masks.keys()
            for t in got.masks:
                np.testing.assert_array_equal(got.masks[t], want.masks[t])
            np.testing.assert_array_equal(got.mu, want.mu)

    @pytest.mark.parametrize("seed_boost", [1.0, 3.7, 10])
    def test_equals_per_seed_boost(self, toy_paths, seed_boost):
        """The factors equal, bit for bit, draws that each seed's boost
        scales in place, one seed and one factor of its type at a time."""
        from motifclust.hin import load_hin

        hin = load_hin(*toy_paths)
        motifs, tensors = self._three_motifs(hin)
        nodes = [n for t in "APT" for n in hin.nodes_of_type(hin.type_id(t))]
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = int(rng.integers(2, 5))
            chosen = rng.choice(nodes, size=int(rng.integers(0, len(nodes) + 1)), replace=False)
            seeds = {str(n): int(rng.integers(c)) for n in chosen}
            hyper = Hyperparameters(
                n_clusters=c, init_seed=int(rng.integers(100)), seed_boost=seed_boost
            )
            got = init_model(hin, motifs, tensors, seeds, hyper)
            want = init_model_per_seed(hin, motifs, tensors, seeds, hyper)
            for t, stack in got.stacks.items():
                assert stack.tobytes() == want.stacks[t].tobytes()
            assert {t: m.tobytes() for t, m in got.masks.items()} == {
                t: m.tobytes() for t, m in want.masks.items()}

    def test_seed_boosts_every_factor_of_its_type_once(self, toy_paths):
        from motifclust.hin import load_hin

        hin = load_hin(*toy_paths)
        motifs, tensors = self._three_motifs(hin)
        seeds = {"a2": 1, "p3": 0}
        plain = init_model(hin, motifs, tensors, seeds, Hyperparameters(n_clusters=3))
        hyper = Hyperparameters(n_clusters=3, seed_boost=10.0)
        boosted = init_model(hin, motifs, tensors, seeds, hyper)
        for m, motif in enumerate(motifs):
            for i, t in enumerate(motif.node_types):
                want = plain.factors[m][i].copy()
                if hin.type_names[t] == "A":
                    want[1, 1] *= 10.0
                elif hin.type_names[t] == "P":
                    want[0, 2] *= 10.0
                np.testing.assert_array_equal(boosted.factors[m][i], want)

    def test_tensors_must_match_motifs(self, toy_paths):
        from motifclust.hin import load_hin

        hin = load_hin(*toy_paths)
        motifs, tensors = self._three_motifs(hin)
        hyper = Hyperparameters(n_clusters=2)
        with pytest.raises(ValueError, match="one tensor per motif is required"):
            init_model(hin, motifs, tensors[:2], {}, hyper)
        message = r"tensor dims \(4, 5\) do not match motif 'ap' dims \(3, 4\)"
        with pytest.raises(ValueError, match=message):
            init_model(hin, motifs[:1], tensors[2:], {}, hyper)
