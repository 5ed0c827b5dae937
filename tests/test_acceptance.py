"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they stream. Tolerances are pinned here, not configurable."""

import json
import time

import numpy as np

from motifclust.metrics import accuracy_micro_f1, macro_f1, nmi
from motifclust.model import (
    Hyperparameters,
    ModelState,
    assign_clusters,
    fit,
    init_model,
    motif_weight_gradient,
    objective,
    project_simplex,
    update_factor,
)
from motifclust.motifs import enumerate_instances, parse_motif, transcribe
from motifclust.planted import (
    MotifTemplate,
    PlantedConfig,
    default_templates,
    generate_planted_hin,
)
from motifclust.tensors import gram_hadamard, mttkrp_sparse, residual_fro_sq

from conftest import random_state
from oracles import (
    dense_reconstruct, from_tuples, matricize, sample_template_tuples, todense,
)
from test_model import simplex_oracle
from test_motifs import brute_force, random_hin, random_motif


def check(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


def kr_columns(factors, skip):
    cols = []
    for c in range(factors[0].shape[0]):
        col = np.ones(1)
        for i, f in enumerate(factors):
            if i != skip:
                col = np.kron(col, f[c, :])
        cols.append(col)
    return np.stack(cols, axis=1)


def planted_pipeline(config, seeds, hyper):
    data = generate_planted_hin(config)
    hin = data.hin
    motifs = [parse_motif(json.dumps(t.motif_spec()), hin) for t in config.templates]
    tensors = [transcribe(enumerate_instances(hin, m), hin) for m in motifs]
    state = init_model(hin, motifs, tensors, seeds(data, hin), hyper)
    fit(state)
    return data, hin, motifs, tensors, state


def non_seed_labels(state, hin, data, type_names=None):
    assigned = assign_clusters(state)
    pred, true = [], []
    for t, assign in assigned.items():
        if type_names is not None and hin.type_names[t] not in type_names:
            continue
        for j, node in enumerate(hin.nodes_of_type(t)):
            if node in data.seeds:
                continue
            pred.append(int(assign.labels[j]))
            true.append(data.labels[node])
    return pred, true


def test_criterion_1_update_monotonicity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = -np.inf
    for _ in range(1000):
        state = random_state(rng)
        m = int(rng.integers(0, state.n_motifs()))
        i = int(rng.integers(0, len(state.motif_types[m])))
        before = objective(state).total
        update_factor(state, m, i)
        after = objective(state).total
        worst = max(worst, (after - before) / (1.0 + abs(before)))
        assert after <= before + 1e-9 * (1.0 + abs(before))
    elapsed = time.perf_counter() - start
    check(
        "criterion 1 (update monotonicity)",
        worst <= 1e-9 and elapsed < 120,
        f"worst normalized increase {worst:.2e} over 1000 states in {elapsed:.1f}s",
    )


def test_criterion_2_kernel_oracle_equivalence():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 12, size=order))
        while int(np.prod(dims)) > 10**5:
            dims = tuple(int(d) for d in rng.integers(2, 12, size=order))
        c = int(rng.integers(1, 5))
        factors = [rng.uniform(0.0, 1.0, (c, d)) for d in dims]
        total = int(np.prod(dims))
        nnz = int(rng.integers(0, min(total, 150) + 1))
        flat = rng.choice(total, size=nnz, replace=False)
        idx = np.stack(np.unravel_index(flat, dims), axis=1)
        x = from_tuples(dims, map(tuple, idx))
        dense = todense(x, max_size=10**5)
        k = int(rng.integers(0, order))
        kr = kr_columns(factors, k)
        m_ref = matricize(dense, k).T @ kr
        m_got = mttkrp_sparse(x, factors, k)
        worst = max(worst, np.abs(m_got - m_ref).max() / (1.0 + np.abs(m_ref).max()))
        g_ref = kr.T @ kr
        g_got = gram_hadamard(factors, k)
        worst = max(worst, np.abs(g_got - g_ref).max() / (1.0 + np.abs(g_ref).max()))
        r_ref = float(np.sum((dense - dense_reconstruct(factors)) ** 2))
        r_got = residual_fro_sq(x, factors)
        worst = max(worst, abs(r_got - r_ref) / (1.0 + abs(r_ref)))
    elapsed = time.perf_counter() - start
    check(
        "criterion 2 (kernel-oracle equivalence)",
        worst <= 1e-9 and elapsed < 60,
        f"worst relative error {worst:.2e} over 200 instances in {elapsed:.1f}s",
    )


def test_criterion_3_unfolding_residual_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=order))
        x = rng.uniform(size=dims)
        c = int(rng.integers(1, 4))
        factors = [rng.uniform(0.0, 1.0, (c, d)) for d in dims]
        native = np.linalg.norm(x - dense_reconstruct(factors))
        for k in range(order):
            unfolded = np.linalg.norm(matricize(x, k) - kr_columns(factors, k) @ factors[k])
            worst = max(worst, abs(unfolded - native) / native)
    check(
        "criterion 3 (unfolding residual identity)",
        worst <= 1e-9,
        f"worst relative deviation across modes {worst:.2e} over 50 instances",
    )


def test_criterion_4_weight_gradient_check():
    rng = np.random.default_rng(104)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        state = random_state(rng, n_motifs=3)
        grad = motif_weight_gradient(state)
        fd = np.zeros(3)
        for l in range(3):
            up, down = state.mu.copy(), state.mu.copy()
            up[l] += h
            down[l] -= h
            fd[l] = (
                objective(state, mu=up).total - objective(state, mu=down).total
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
    check(
        "criterion 4 (weight gradient vs central differences)",
        worst < 1e-5,
        f"worst relative error {worst:.2e} over 100 random 3-motif states",
    )


def test_criterion_5_simplex_projection():
    rng = np.random.default_rng(105)
    worst_gap = 0.0
    worst_sum = 0.0
    for _ in range(500):
        v = rng.normal(scale=float(rng.uniform(0.5, 5.0)), size=int(rng.integers(1, 7)))
        got = project_simplex(v)
        ref = simplex_oracle(v)
        worst_gap = max(worst_gap, float(np.abs(got - ref).max()))
        worst_sum = max(worst_sum, abs(got.sum() - 1.0))
        assert got.min() >= 0.0
    check(
        "criterion 5 (simplex projection)",
        worst_gap <= 1e-9 and worst_sum <= 1e-12,
        f"max deviation from active-set oracle {worst_gap:.2e}, max |sum-1| {worst_sum:.2e}",
    )


def test_criterion_6_enumeration_completeness():
    rng = np.random.default_rng(106)
    checked = 0
    while checked < 100:
        hin = random_hin(rng, max_nodes=12)
        motif = random_motif(rng, hin, max_order=5)
        if motif is None:
            continue
        got = [tuple(r) for r in enumerate_instances(hin, motif).tuples.tolist()]
        assert got == brute_force(hin, motif)
        checked += 1
    check(
        "criterion 6 (enumeration completeness)",
        True,
        "matched the exhaustive oracle on 100 random typed graphs",
    )


def test_criterion_7_planted_recovery():
    nmis, accs, walls = [], [], []
    for seed in range(5):
        start = time.perf_counter()
        config = PlantedConfig(rng_seed=seed)  # 3 clusters, 3 types, 60/type,
        # one edge-level and one 4-node motif, noise 0.05, 5% seeds
        hyper = Hyperparameters(n_clusters=3, init_seed=seed, seed_boost=10.0)
        data, hin, _, _, state = planted_pipeline(config, lambda d, h: d.seeds, hyper)
        pred, true = non_seed_labels(state, hin, data)
        walls.append(time.perf_counter() - start)
        nmis.append(nmi(pred, true))
        accs.append(accuracy_micro_f1(pred, true))
    med_nmi, med_acc = float(np.median(nmis)), float(np.median(accs))
    check(
        "criterion 7 (planted recovery)",
        med_nmi >= 0.9 and med_acc >= 0.9 and max(walls) < 60,
        f"median NMI {med_nmi:.3f}, median accuracy {med_acc:.3f}, "
        f"slowest run {max(walls):.1f}s",
    )


def test_criterion_8_motif_utility_trend():
    base = default_templates()
    templates = (
        MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),), signal=False,
                      instances_per_block=400),
        base[1],
    )
    gaps = []
    for seed in range(5):
        config = PlantedConfig(templates=templates, rng_seed=seed)
        data = generate_planted_hin(config)
        hin = data.hin
        motifs = [parse_motif(json.dumps(t.motif_spec()), hin) for t in config.templates]
        tensors = [transcribe(enumerate_instances(hin, m), hin) for m in motifs]
        hyper = Hyperparameters(n_clusters=3, init_seed=seed, seed_boost=10.0)

        full = init_model(hin, motifs, tensors, data.seeds, hyper)
        fit(full)
        full_nmi = nmi(*non_seed_labels(full, hin, data, type_names={"A"}))

        covered = set(motifs[0].node_types)
        seeds_ab = {n: c for n, c in data.seeds.items() if hin.lookup(n)[0] in covered}
        edge_only = init_model(hin, motifs[:1], tensors[:1], seeds_ab, hyper)
        fit(edge_only)
        edge_nmi = nmi(*non_seed_labels(edge_only, hin, data, type_names={"A"}))
        gaps.append(full_nmi - edge_nmi)
    med = float(np.median(gaps))
    check(
        "criterion 8 (motif-utility trend)",
        med >= 0.1,
        f"median NMI advantage of the full model {med:.3f} (gaps {np.round(gaps, 3)})",
    )


def test_criterion_9_per_sweep_scaling():
    quad = default_templates()[1]
    rng = np.random.default_rng(109)
    sizes = (10_000, 20_000, 40_000)
    states = {}
    for n in sizes:
        tuples = sample_template_tuples(quad, 60, n, rng_seed=n)
        x = from_tuples((60, 60, 60, 60), map(tuple, tuples))
        factors = [rng.uniform(0.1, 1.1, (3, 60)) for _ in range(4)]
        states[n] = ModelState(
            motif_names=["quad"],
            motif_types=[(0, 1, 2, 1)],
            tensors=[x],
            factors=[factors],
            mu=np.array([1.0]),
            masks={},
            hyper=Hyperparameters(n_clusters=3),
        )
    # Best of many sweeps, the sizes taken in turn, so that load on the host
    # slows all three alike instead of one unlucky size. Process CPU time,
    # not wall time, so that time spent descheduled does not count.
    times = dict.fromkeys(sizes, np.inf)
    for _ in range(20):
        for n in sizes:
            t0 = time.process_time()
            for i in range(4):
                update_factor(states[n], 0, i)
            times[n] = min(times[n], time.process_time() - t0)
    r1 = times[20_000] / times[10_000]
    r2 = times[40_000] / times[20_000]
    check(
        "criterion 9 (near-linear sweep scaling)",
        r1 <= 2.5 and r2 <= 2.5,
        f"doubling ratios {r1:.2f} and {r2:.2f} "
        f"(sweep times {[round(t * 1e3, 2) for t in times.values()]} ms)",
    )


def test_criterion_10_metric_hand_cases_and_invariances():
    ok = (
        accuracy_micro_f1([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
        and abs(macro_f1([0, 0, 1, 1], [0, 1, 1, 1]) - 11 / 15) < 1e-12
        and nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    )
    rng = np.random.default_rng(110)
    perm = rng.permutation(64)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        pred = rng.integers(0, 5, size=n)
        true = rng.integers(0, 5, size=n)
        ok = ok and nmi(pred, true) == nmi(true, pred)
        ok = ok and abs(nmi(perm[pred], true) - nmi(pred, true)) <= 1e-12
        ok = ok and abs(nmi(pred, perm[true]) - nmi(pred, true)) <= 1e-12
    check(
        "criterion 10 (metric hand cases and invariances)",
        ok,
        "0.75 / 11:15 / 0.0 hand cases exact; NMI symmetric and relabel-invariant",
    )
