"""The model's loops against their straightforward forms.

The references below rederive the model structure on every call, evaluate
the objective at the start of every motif's sweeps and build each type's
consensus once per motif. Where the package computes the same floating-point
expressions in the same order (the consensus, the factor and weight updates
of a fit), results must be equal bit for bit, not merely close. Three
evaluations group their sums differently and are held to tolerances
instead: `fit` takes each residual from its sweep's own kernels, so the
objective terms it records match the reference to 1e-9 relative; the
coupling terms and the weight gradient come from Gram forms over the
factors, which match the direct passes within 1e-12 relative or 1e-12 of
theta * tr G, the scale of the Gram sums.
"""

from dataclasses import replace

import numpy as np
import pytest

import motifclust.model as model
from motifclust.model import (
    Hyperparameters,
    ModelState,
    fit,
    motif_weight_gradient,
    optimize_motif_weights,
)
from motifclust.tensors import SparseTensor, gram_hadamard, mttkrp_sparse, residual_fro_sq

from conftest import random_sparse_tensor, random_state
from oracles import (
    coupling_terms, dense_reconstruct, from_tuples, neg_part, objective_from_scratch, pos_part,
    update_factor_fresh,
)


def reference_contributors(state, t):
    return [
        (m, i)
        for m in range(state.n_motifs())
        for i, ti in enumerate(state.motif_types[m])
        if ti == t
    ]


def reference_multiplicity(state, m, t):
    return sum(1 for ti in state.motif_types[m] if ti == t)


def reference_coeff(state, m, i):
    return float(state.mu[m]) / reference_multiplicity(state, m, state.motif_types[m][i])


def reference_consensus(state, t):
    out = np.zeros((state.hyper.n_clusters, state.type_sizes[t]))
    for m, i in reference_contributors(state, t):
        out += reference_coeff(state, m, i) * state.factors[m][i]
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


def reference_update_factor(state, m, i, mttkrp=None, gram=None):
    """`update_factor` as first written: each other position of the type
    adds its own sign-split terms, eta*v included, to both sides."""
    h = state.hyper
    t = state.motif_types[m][i]
    rows = state.layout[t]
    eta = next(float(state.mu[m]) / k for m2, i2, k in rows if (m2, i2) == (m, i))
    v = state.factors[m][i]
    cons = model.consensus(state, t)
    theta = h.consensus_weight

    if mttkrp is None:
        mttkrp = mttkrp_sparse(state.tensors[m], state.factors[m], i)
    num = mttkrp.T.copy()
    num += theta * (1.0 - eta) * (cons - eta * v)
    if gram is None:
        gram = gram_hadamard(state.factors[m], i)
    den = gram @ v
    den += theta * (1.0 - eta) ** 2 * v
    mask = state.masks.get(t)
    if mask is not None:
        den += h.mask_penalty * eta * (mask * cons)
    for m2, i2, _ in rows:
        if (m2, i2) == (m, i):
            continue
        diff = state.factors[m2][i2] - cons + eta * v
        num += theta * eta * pos_part(diff)
        den += theta * eta * (neg_part(diff) + eta * v)
    den += h.l1_weight + model.EPS_DIV
    np.maximum(num, 0.0, out=num)  # cons - eta*v is >= 0 up to roundoff

    updated = v * np.sqrt(num / den)
    if not np.all(np.isfinite(updated)):
        raise FloatingPointError(
            f"non-finite factor update for motif {state.motif_names[m]!r} position {i} "
            f"(max factor entry {v.max():.3e}, max numerator {num.max():.3e})"
        )
    return state.set_factor(m, i, updated)


def reference_labels(state):
    """Every clustered type's labels, types ascending: per consensus column,
    the lowest cluster index among its maxima."""
    return np.array([
        int(np.flatnonzero(col == col.max())[0])
        for t in state.clustered_types()
        for col in reference_consensus(state, t).T
    ])


def reference_fit(state):
    """The fit loop that evaluates the objective again before every motif.
    Returns the (terms, weights) history, whether the tolerance stopped it,
    and the labels of the initial state and after every iteration."""
    h = state.hyper
    history = []
    labels = [reference_labels(state)]
    prev = objective_from_scratch(state).total
    for _ in range(h.max_outer_iters):
        for m in range(state.n_motifs()):
            inner_prev = objective_from_scratch(state).total
            for _ in range(h.max_inner_iters):
                for i in range(len(state.motif_types[m])):
                    update_factor_fresh(state, m, i)
                current = objective_from_scratch(state).total
                if abs(inner_prev - current) <= h.inner_tol * max(inner_prev, 1e-300):
                    break
                inner_prev = current
        optimize_motif_weights(state, objective_from_scratch(state))
        terms = objective_from_scratch(state)
        history.append((terms, state.mu.copy()))
        labels.append(reference_labels(state))
        if abs(prev - terms.total) <= h.outer_tol * max(prev, 1e-300):
            return history, True, labels
        prev = terms.total
    return history, False, labels


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


def single_position_state(rng):
    """Types 0 and 2 are held by one position each; motif 1 has weight 0."""
    c = 3
    sizes = {0: 5, 1: 6, 2: 4}
    motif_types = [(0, 1), (1, 2)]
    tensors = [random_sparse_tensor(rng, tuple(sizes[t] for t in ts), 10) for ts in motif_types]
    factors = [[rng.uniform(0.1, 1.1, (c, sizes[t])) for t in ts] for ts in motif_types]
    mask = np.zeros((c, sizes[1]))
    mask[:, 2] = 1.0
    mask[0, 2] = 0.0
    return ModelState(
        motif_names=["lone", "zero"],
        motif_types=motif_types,
        tensors=tensors,
        factors=factors,
        mu=np.array([1.0, 0.0]),
        masks={1: mask},
        hyper=Hyperparameters(n_clusters=c),
    )


def cancelling_gap_state(rng):
    """Every motif covers both types and all factors of a type are equal:
    the consensus is that factor at any weights, so the gap is zero."""
    c, sizes = 3, {0: 6, 1: 5}
    motif_types = [(0, 0, 1), (1, 0)]
    shared = {t: rng.uniform(0.1, 1.1, (c, d)) for t, d in sizes.items()}
    return ModelState(
        motif_names=["aab", "ba"],
        motif_types=motif_types,
        tensors=[random_sparse_tensor(rng, tuple(sizes[t] for t in ts), 8) for ts in motif_types],
        factors=[[shared[t].copy() for t in ts] for ts in motif_types],
        mu=np.array([0.5, 0.5]),
        masks={},
        hyper=Hyperparameters(n_clusters=c),
    )


def gram_trace(state):
    """tr G over all positions, the scale of the Gram forms' sums."""
    return sum(float(np.vdot(f, f)) for fs in state.factors for f in fs)


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


@pytest.mark.parametrize(
    "state",
    [
        *states(),
        single_position_state(np.random.default_rng(9)),
        cancelling_gap_state(np.random.default_rng(11)),
    ],
)
def test_consensus_and_gradient_equal_reference(state):
    """The consensus equals the reference bit for bit; the gradient, which
    comes from the Gram forms, within 1e-12 relative or of theta * tr G."""
    for t in state.clustered_types():
        assert np.array_equal(model.consensus(state, t), reference_consensus(state, t))
    scale = state.hyper.consensus_weight * gram_trace(state)
    np.testing.assert_allclose(
        motif_weight_gradient(state), reference_motif_weight_gradient(state),
        rtol=1e-12, atol=1e-12 * scale,
    )


def assert_history_equals_reference(history, expected, labels):
    """`fit`'s records against the reference's, labels changed included."""
    assert len(history) == len(expected)
    for rec, (terms, weights), before, after in zip(history, expected, labels, labels[1:]):
        got = [rec.objective, rec.residual, rec.l1, rec.consensus_gap, rec.seed_penalty]
        want = [terms.total, terms.residual, terms.l1, terms.consensus_gap, terms.seed_penalty]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        assert np.array_equal(rec.weights, weights)
        assert rec.labels_changed == np.count_nonzero(before != after)


@pytest.mark.parametrize("state", states())
def test_fit_equals_reference(state):
    state = replace(state, hyper=replace(state.hyper, stable_iters=0))  # the rule off, as the reference
    ref = state.copy()
    expected, expected_converged, labels = reference_fit(ref)
    result = fit(state)
    assert result.converged == expected_converged
    assert result.stop_reason == ("tolerance" if expected_converged else "max_iters")
    assert_history_equals_reference(result.history, expected, labels)
    assert np.array_equal(state.mu, ref.mu)
    for fs, ref_fs in zip(state.factors, ref.factors):
        for f, ref_f in zip(fs, ref_fs):
            assert np.array_equal(f, ref_f)


def stable_cut(labels, k):
    """The first iteration n >= k whose labels equal those of each of the k
    iterations before it (0 is the initial state), or None."""
    return next((n for n in range(k, len(labels))
                 if all(np.array_equal(labels[n], labels[j]) for j in range(n - k, n))), None)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("state", states())
def test_stable_labels_cut_the_reference_history(state, k):
    """With stable_iters = k, `fit` stops at the first iteration where the
    labels of the last k + 1 iterations agree, unless the tolerance or the
    cap stops it first; up to there its history is the reference's."""
    expected, expected_converged, labels = reference_fit(state.copy())
    cut = stable_cut(labels, k)
    result = fit(replace(state, hyper=replace(state.hyper, stable_iters=k)))  # copies the arrays
    if cut is None:
        assert result.stop_reason == ("tolerance" if expected_converged else "max_iters")
    elif cut == len(expected) and expected_converged:
        assert result.stop_reason == "tolerance"  # checked first
    else:
        assert result.stop_reason == "stable_labels" and result.converged
        expected, labels = expected[:cut], labels[: cut + 1]
    assert_history_equals_reference(result.history, expected, labels)


def test_stable_labels_rule_fires_on_most_reference_states():
    """The cut test above is not vacuous: with k = 1, most states stop
    before their cap of 6 iterations."""
    cuts = [stable_cut(reference_fit(state)[2], 1) for state in states()]
    assert sum(cut is not None and cut < 6 for cut in cuts) >= len(cuts) // 2


@pytest.mark.parametrize("state", [*states(), single_position_state(np.random.default_rng(9))])
def test_update_factor_equals_reference(state):
    for _ in range(2):
        for m in range(state.n_motifs()):
            for i in range(len(state.motif_types[m])):
                want = reference_update_factor(state.copy(), m, i)
                got = update_factor_fresh(state, m, i)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("state", states())
def test_weight_forms_equal_coupling_terms(state):
    """Equal within 1e-12 relative. A gap that cancels (one motif, a type
    held once) is a roundoff-sized difference of Gram sums, so it is held to
    1e-12 of tr G, the scale of those sums."""
    rng = np.random.default_rng(5)
    coupling, _ = model._weight_forms(state)
    scale = state.hyper.consensus_weight * gram_trace(state)
    for mu in rng.dirichlet(np.ones(state.n_motifs()), size=50):
        gap, penalty = coupling(mu)
        want_gap, want_penalty = coupling_terms(state, mu)
        np.testing.assert_allclose(gap, want_gap, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(penalty, want_penalty, rtol=1e-12, atol=0)


def test_weight_forms_gap_cancels():
    """The gap of `cancelling_gap_state` is zero up to roundoff of the Gram
    sums, and the clamp keeps it from going negative."""
    rng = np.random.default_rng(11)
    state = cancelling_gap_state(rng)
    trace = gram_trace(state)
    coupling, _ = model._weight_forms(state)
    for mu in [state.mu, np.array([1.0, 0.0]), *rng.dirichlet(np.ones(2), size=20)]:
        gap, penalty = coupling(mu)
        assert 0.0 <= gap <= 1e-12 * trace
        assert penalty == 0.0


def test_weight_step_builds_forms_once(monkeypatch):
    """A weight step builds the forms once and evaluates every gradient and
    trial, and the terms it returns, on them, never on a consensus."""
    built = []
    real_forms = model._weight_forms

    def counting_forms(state):
        built.append(1)
        return real_forms(state)

    def direct(*args, **kwargs):
        raise AssertionError("the weight step evaluated the direct terms")

    state = repeated_type_state(np.random.default_rng(7), with_mask=True)
    terms = objective_from_scratch(state)
    monkeypatch.setattr(model, "_weight_forms", counting_forms)
    monkeypatch.setattr(model, "objective", direct)
    monkeypatch.setattr(model, "motif_weight_gradient", direct)
    monkeypatch.setattr(model, "consensus", direct)
    before = state.mu.copy()
    optimize_motif_weights(state, terms)
    assert built == [1]
    assert not np.array_equal(state.mu, before)


def test_objective_and_weight_step_build_no_consensus(monkeypatch):
    """The objective and a whole weight step take the coupling terms from the
    Gram forms alone."""

    def direct(*args, **kwargs):
        raise AssertionError("a consensus was built")

    state = repeated_type_state(np.random.default_rng(8), with_mask=True)
    monkeypatch.setattr(model, "consensus", direct)
    assert objective_from_scratch(state).total > 0.0
    before = state.mu.copy()
    optimize_motif_weights(state, objective_from_scratch(state))
    assert not np.array_equal(state.mu, before)


@pytest.mark.parametrize("state", states())
def test_weight_step_returns_objective_at_reached_weights(state, monkeypatch):
    """The terms a weight step returns equal `objective` at the weights it
    reaches, bit for bit. Then, with its gradient turned uphill, every trial
    raises the objective, and the step keeps mu and returns the terms there."""
    terms = optimize_motif_weights(state, objective_from_scratch(state))
    assert terms == objective_from_scratch(state)
    start = state.mu.copy()
    real_forms = model._weight_forms

    def uphill_forms(*args):
        coupling, gradient = real_forms(*args)
        return coupling, lambda mu: -gradient(mu)

    monkeypatch.setattr(model, "_weight_forms", uphill_forms)
    terms = optimize_motif_weights(state, objective_from_scratch(state))
    assert terms == objective_from_scratch(state)
    np.testing.assert_array_equal(state.mu, start)


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

    def recording_weights(state, terms):
        out = real_weights(state, terms)
        full.append(sum(residual_fro_sq(x, fs) for x, fs in zip(state.tensors, state.factors)))
        return out

    monkeypatch.setattr(model, "optimize_motif_weights", recording_weights)
    result = fit(state)
    assert len(full) == len(result.history)
    for rec, want in zip(result.history, full):
        np.testing.assert_allclose(rec.residual, want, rtol=1e-9, atol=0)


def test_fit_evaluates_each_state_once(monkeypatch):
    """One objective for the initial state and one per inner sweep, and none
    after a weight step, which returns the terms at the weights it reaches;
    one MTTKRP per factor update; one full residual pass per motif for the
    whole fit."""
    calls = {"objective": 0, "sweeps": 0, "updates": 0, "mttkrp": 0, "residual": 0}
    real_objective, real_update = model.objective, model.update_factor
    real_mttkrp, real_residual = model.mttkrp_sparse, model.residual_fro_sq

    def counting_objective(state, residual):
        calls["objective"] += 1
        return real_objective(state, residual)

    def counting_update(state, m, i, *kernels):
        calls["sweeps"] += i == 0
        calls["updates"] += 1
        return real_update(state, m, i, *kernels)

    def counting_mttkrp(x, factors, mode, **kwargs):
        calls["mttkrp"] += 1
        return real_mttkrp(x, factors, mode, **kwargs)

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
    assert calls["objective"] == 1 + calls["sweeps"]
    assert calls["mttkrp"] == calls["updates"]
    assert calls["residual"] == state.n_motifs()
