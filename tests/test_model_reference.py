"""The model's loops against their straightforward forms.

The references below rederive the model structure on every call, evaluate
the objective at the start of every motif's sweeps and build each type's
consensus once per motif. The package computes the same floating-point
expressions in the same order, so results must be equal bit for bit, not
merely close. The one exception is the residual: `fit` takes it from each
sweep's own kernels instead of a full pass over the nonzeros, so the
objective terms it records match the reference to 1e-9 relative.
"""

import numpy as np
import pytest

import motifclust.model as model
from motifclust.model import (
    Hyperparameters,
    ModelState,
    fit,
    motif_weight_gradient,
    objective,
    optimize_motif_weights,
    update_factor,
)
from motifclust.tensors import SparseTensor, residual_fro_sq

from conftest import random_state
from oracles import dense_reconstruct, from_tuples


def reference_contributors(state, t):
    return [
        (m, i)
        for m in range(state.n_motifs())
        for i, ti in enumerate(state.motif_types[m])
        if ti == t
    ]


def reference_multiplicity(state, m, t):
    return sum(1 for ti in state.motif_types[m] if ti == t)


def reference_coeff(state, m, i, mu=None):
    mu = state.mu if mu is None else mu
    return float(mu[m]) / reference_multiplicity(state, m, state.motif_types[m][i])


def reference_consensus(state, t, mu=None):
    out = np.zeros((state.hyper.n_clusters, state.type_sizes[t]))
    for m, i in reference_contributors(state, t):
        out += reference_coeff(state, m, i, mu) * state.factors[m][i]
    return out


def reference_motif_weight_gradient(state):
    h = state.hyper
    grad = np.zeros(state.n_motifs())
    cons = {t: reference_consensus(state, t) for t in state.clustered_types()}
    for l in range(state.n_motifs()):
        total = 0.0
        for t in sorted(set(state.motif_types[l])):
            pairs = reference_contributors(state, t)
            slope = np.zeros_like(cons[t])
            for m, i in pairs:
                if m == l:
                    slope += state.factors[l][i]
            slope /= reference_multiplicity(state, l, t)
            spread = -len(pairs) * cons[t]
            for m, i in pairs:
                spread += state.factors[m][i]
            total += -2.0 * h.consensus_weight * float(np.vdot(spread, slope))
            mask = state.masks.get(t)
            if mask is not None:
                total += 2.0 * h.mask_penalty * float(np.vdot(mask * cons[t], slope))
        grad[l] = total
    return grad


def reference_fit(state):
    """The fit loop that evaluates the objective again before every motif."""
    h = state.hyper
    history = []
    prev = objective(state).total
    for _ in range(h.max_outer_iters):
        for m in range(state.n_motifs()):
            inner_prev = objective(state).total
            for _ in range(h.max_inner_iters):
                for i in range(len(state.motif_types[m])):
                    update_factor(state, m, i)
                current = objective(state).total
                if abs(inner_prev - current) <= h.inner_tol * max(inner_prev, 1e-300):
                    break
                inner_prev = current
        optimize_motif_weights(state)
        terms = objective(state)
        history.append((terms, state.mu.copy()))
        if abs(prev - terms.total) <= h.outer_tol * max(prev, 1e-300):
            return history, True
        prev = terms.total
    return history, False


def repeated_type_state(rng, with_mask):
    """Three motifs over two types; motif 0 holds type 0 three times."""
    c = 3
    sizes = {0: 6, 1: 5}
    motif_types = [(0, 1, 0, 0), (1, 0), (1, 1)]
    tensors = []
    for types in motif_types:
        dims = tuple(sizes[t] for t in types)
        idx = {tuple(int(rng.integers(0, d)) for d in dims) for _ in range(15)}
        tensors.append(from_tuples(dims, idx))
    factors = [[rng.uniform(0.1, 1.1, (c, sizes[t])) for t in types] for types in motif_types]
    masks = {}
    if with_mask:
        mask = np.zeros((c, sizes[0]))
        mask[:, 1] = 1.0
        mask[2, 1] = 0.0
        masks[0] = mask
    return ModelState(
        motif_names=["rep", "ba", "bb"],
        motif_types=motif_types,
        tensors=tensors,
        factors=factors,
        mu=rng.dirichlet(np.ones(3)),
        masks=masks,
        hyper=Hyperparameters(n_clusters=c, max_outer_iters=6, max_inner_iters=4),
    )


def states():
    rng = np.random.default_rng(2024)
    out = []
    for k in range(6):
        out.append(random_state(
            rng, n_motifs=1 + k % 3, with_mask=k % 2 == 0,
            hyper_overrides={"max_outer_iters": 6, "max_inner_iters": 4},
        ))
    out.append(repeated_type_state(rng, with_mask=True))
    out.append(repeated_type_state(rng, with_mask=False))
    return out


@pytest.mark.parametrize("state", states())
def test_consensus_and_gradient_equal_reference(state):
    for t in state.clustered_types():
        assert np.array_equal(model.consensus(state, t), reference_consensus(state, t))
        mu = np.roll(state.mu, 1)
        assert np.array_equal(model.consensus(state, t, mu), reference_consensus(state, t, mu))
    assert np.array_equal(motif_weight_gradient(state), reference_motif_weight_gradient(state))


@pytest.mark.parametrize("state", states())
def test_fit_equals_reference(state):
    ref = state.copy()
    expected, expected_converged = reference_fit(ref)
    result = fit(state)
    assert result.converged == expected_converged
    assert len(result.history) == len(expected)
    for rec, (terms, weights) in zip(result.history, expected):
        got = [rec.objective, rec.residual, rec.l1, rec.consensus_gap, rec.seed_penalty]
        want = [terms.total, terms.residual, terms.l1, terms.consensus_gap, terms.seed_penalty]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        assert np.array_equal(rec.weights, weights)
    assert np.array_equal(state.mu, ref.mu)
    for fs, ref_fs in zip(state.factors, ref.factors):
        for f, ref_f in zip(fs, ref_fs):
            assert np.array_equal(f, ref_f)


def single_motif_state(x, factors, **hyper):
    return ModelState(
        motif_names=["m"],
        motif_types=[tuple(range(x.order))],
        tensors=[x],
        factors=[factors],
        mu=np.array([1.0]),
        masks={},
        hyper=Hyperparameters(n_clusters=factors[0].shape[0], **hyper),
    )


def sweep_cases():
    rng = np.random.default_rng(31)
    out = [random_state(rng, n_motifs=2) for _ in range(4)]
    out.append(repeated_type_state(rng, with_mask=True))
    out.append(single_motif_state(  # order 1
        from_tuples((7,), [(0,), (3,), (5,)]), [rng.uniform(0.1, 1.1, (3, 7))]
    ))
    out.append(single_motif_state(  # no nonzeros
        SparseTensor.empty((4, 5)), [rng.uniform(0.1, 1.1, (2, d)) for d in (4, 5)]
    ))
    return out


@pytest.mark.parametrize("state", sweep_cases())
def test_sweep_residual_equals_full_pass(state):
    for _ in range(3):
        for m in range(state.n_motifs()):
            got = model._sweep(state, m)
            want = residual_fro_sq(state.tensors[m], state.factors[m])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_sweep_residual_near_exact_fit():
    """An exactly factorable tensor fit by its own factors: the residual
    cancels to roundoff, and both forms clamp it the same way, without
    raising."""
    rng = np.random.default_rng(32)
    factors = [rng.uniform(0.1, 1.1, (2, d)) for d in (4, 3, 5)]
    dense = dense_reconstruct(factors)
    idx = np.argwhere(dense > 0)
    x = SparseTensor(dense.shape, idx, dense[tuple(idx.T)])
    state = single_motif_state(
        x, [f.copy() for f in factors], consensus_weight=0.0, mask_penalty=0.0, l1_weight=0.0
    )
    for _ in range(3):
        got = model._sweep(state, 0)
        want = residual_fro_sq(x, state.factors[0])
        assert 0.0 <= got <= 1e-9 * x.norm_sq
        assert 0.0 <= want <= 1e-9 * x.norm_sq


@pytest.mark.parametrize("state", states())
def test_history_residual_equals_full_pass(state, monkeypatch):
    """The cached residuals never go stale: after each weight step (which
    moves no factor) the recorded residual is the full pass over the state."""
    full = []
    real_weights = model.optimize_motif_weights

    def recording_weights(state, fixed=None):
        out = real_weights(state, fixed)
        full.append(sum(residual_fro_sq(x, fs) for x, fs in zip(state.tensors, state.factors)))
        return out

    monkeypatch.setattr(model, "optimize_motif_weights", recording_weights)
    result = fit(state)
    assert len(full) == len(result.history)
    for rec, want in zip(result.history, full):
        np.testing.assert_allclose(rec.residual, want, rtol=1e-9, atol=0)


def test_fit_evaluates_each_state_once(monkeypatch):
    """One objective for the initial state, one per inner sweep and one per
    outer iteration, after the weight step; one MTTKRP per factor update;
    one full residual pass per motif for the whole fit."""
    calls = {"objective": 0, "sweeps": 0, "updates": 0, "mttkrp": 0, "residual": 0}
    real_objective, real_update = model.objective, model.update_factor
    real_mttkrp, real_residual = model.mttkrp_sparse, model.residual_fro_sq

    def counting_objective(state, mu=None, residual=None):
        calls["objective"] += 1
        return real_objective(state, mu, residual)

    def counting_update(state, m, i, *kernels):
        calls["sweeps"] += i == 0
        calls["updates"] += 1
        return real_update(state, m, i, *kernels)

    def counting_mttkrp(x, factors, mode):
        calls["mttkrp"] += 1
        return real_mttkrp(x, factors, mode)

    def counting_residual(x, factors):
        calls["residual"] += 1
        return real_residual(x, factors)

    monkeypatch.setattr(model, "objective", counting_objective)
    monkeypatch.setattr(model, "update_factor", counting_update)
    monkeypatch.setattr(model, "mttkrp_sparse", counting_mttkrp)
    monkeypatch.setattr(model, "residual_fro_sq", counting_residual)
    state = repeated_type_state(np.random.default_rng(7), with_mask=True)
    result = fit(state)
    assert calls["sweeps"] > len(result.history) > 1
    assert calls["objective"] == 1 + calls["sweeps"] + len(result.history)
    assert calls["mttkrp"] == calls["updates"]
    assert calls["residual"] == state.n_motifs()
