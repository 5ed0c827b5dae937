"""Joint non-negative factorization of motif tensors under seed guidance.

Every motif position (m, i) owns a factor matrix of shape (C, d) over the
nodes of its type. Per node type, a consensus matrix averages the factors of
all positions of that type, weighted by the motif weights; binary seed masks
penalize consensus mass on forbidden clusters of labeled nodes. Factors are
refined by a multiplicative rule with a square-root exponent that never
increases the objective; motif weights live on the probability simplex and
are refined by projected gradient descent with backtracking.

The objective has four terms: the reconstruction residual of every motif
tensor, an entrywise l1 penalty on the factors, the squared gap between each
factor and its type's consensus, and the squared masked consensus entries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from itertools import groupby

import numpy as np

from .tensors import (
    SparseTensor, gram_hadamard, mttkrp_sparse, residual_fro_sq, residual_from_mode,
)

log = logging.getLogger(__name__)


@dataclass
class Hyperparameters:
    """Knobs of the model and its optimizer.

    consensus_weight, mask_penalty and l1_weight scale objective terms 3, 4
    and 2; defaults follow the values used across all reported experiments.
    eps_div is added to every update-rule denominator entry so that locked
    zero entries yield 0/eps = 0 instead of NaN.
    """

    n_clusters: int
    consensus_weight: float = 1.0
    mask_penalty: float = 100.0
    l1_weight: float = 0.0001
    pgd_step: float = 0.1
    inner_tol: float = 1e-4
    outer_tol: float = 1e-6
    max_inner_iters: int = 50
    max_outer_iters: int = 100
    eps_div: float = 1e-12
    init_seed: int = 0
    seed_boost: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.n_clusters < 2:
            raise ValueError("n_clusters must be at least 2")
        for name in ("consensus_weight", "mask_penalty", "l1_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("inner_tol", "outer_tol", "eps_div", "pgd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_inner_iters", "max_outer_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class ObjectiveTerms:
    residual: float
    l1: float
    consensus_gap: float
    seed_penalty: float

    @property
    def total(self):
        return self.residual + self.l1 + self.consensus_gap + self.seed_penalty


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    residual: float
    l1: float
    consensus_gap: float
    seed_penalty: float
    weights: np.ndarray


@dataclass
class FitResult:
    state: "ModelState"
    history: list[IterationRecord]
    converged: bool


@dataclass
class TypeAssignment:
    labels: np.ndarray        # hard cluster per node (argmax, lowest index on ties)
    consensus: np.ndarray     # (C, |V_t|) soft memberships
    zero_columns: np.ndarray  # nodes whose consensus column is all zero


@dataclass
class ModelState:
    """Everything the optimizer mutates, tied together and shape-checked.

    motif_types[m][i] is the node-type id of motif m's i-th position and
    factors[m][i] the matching (C, |V_t|) factor. masks maps a type id to its
    (C, |V_t|) binary seed mask.

    layout[t] holds one (m, i, k) row per position of type t, in motif then
    position order, where motif m has k positions of type t; position (m, i)
    enters the consensus of type t with coefficient mu[m] / k.
    """

    motif_names: list[str]
    motif_types: list[tuple[int, ...]]
    tensors: list[SparseTensor]
    factors: list[list[np.ndarray]]
    mu: np.ndarray
    masks: dict[int, np.ndarray]
    hyper: Hyperparameters
    type_sizes: dict[int, int] = field(init=False)
    layout: dict[int, list[tuple[int, int, int]]] = field(init=False)

    def __post_init__(self):
        n = len(self.motif_names)
        if not n or len(self.motif_types) != n or len(self.tensors) != n or len(self.factors) != n:
            raise ValueError("motif names, types, tensors and factors must align")
        c = self.hyper.n_clusters
        self.mu = np.asarray(self.mu, dtype=np.float64)
        if self.mu.shape != (n,):
            raise ValueError(f"expected {n} motif weights")
        if self.mu.min() < 0 or abs(self.mu.sum() - 1.0) > 1e-9:
            raise ValueError("motif weights must lie on the standard simplex")
        self.type_sizes = {}
        self.layout = {}
        for m in range(n):
            types = self.motif_types[m]
            if self.tensors[m].order != len(types) or len(self.factors[m]) != len(types):
                raise ValueError(f"motif {self.motif_names[m]!r}: order mismatch")
            for i, t in enumerate(types):
                d = self.tensors[m].dims[i]
                if self.type_sizes.setdefault(t, d) != d:
                    raise ValueError(f"type {t} has inconsistent node counts across tensors")
                f = self.factors[m][i]
                if f.shape != (c, d):
                    raise ValueError(
                        f"factor for motif {self.motif_names[m]!r} position {i} has shape "
                        f"{f.shape}, expected ({c}, {d})"
                    )
                if f.min() < 0:
                    raise ValueError("factors must be non-negative")
                self.layout.setdefault(t, []).append((m, i, types.count(t)))
        for t, mask in self.masks.items():
            if t not in self.type_sizes:
                raise ValueError(f"seed mask for type {t} which no motif covers")
            if mask.shape != (c, self.type_sizes[t]):
                raise ValueError(f"seed mask for type {t} has shape {mask.shape}")
            cols = mask.sum(axis=0)
            if not np.all(np.isin(mask, (0.0, 1.0))) or not np.all(np.isin(cols, (0, c - 1))):
                raise ValueError("mask columns must be all-zero or have exactly C-1 ones")

    # -- structure lookups ----------------------------------------------------

    def n_motifs(self):
        return len(self.motif_names)

    def clustered_types(self):
        """Type ids covered by at least one motif position, ascending."""
        return sorted(self.type_sizes)

    def contributors(self, t):
        """(motif, position) pairs whose factor feeds the consensus of type t."""
        return [(m, i) for m, i, _ in self.layout.get(t, ())]

    def copy(self):
        return ModelState(
            motif_names=list(self.motif_names),
            motif_types=[tuple(t) for t in self.motif_types],
            tensors=self.tensors,
            factors=[[f.copy() for f in fs] for fs in self.factors],
            mu=self.mu.copy(),
            masks={t: m.copy() for t, m in self.masks.items()},
            hyper=self.hyper,
        )


def pos_part(a):
    """Entrywise (|A| + A) / 2."""
    return (np.abs(a) + a) / 2.0


def neg_part(a):
    """Entrywise (|A| - A) / 2."""
    return (np.abs(a) - a) / 2.0


def consensus(state, t, mu=None):
    """Coefficient-weighted sum of all factors of type t."""
    if t not in state.layout:
        raise ValueError(f"type {t} appears in no motif and cannot be clustered")
    mu = state.mu if mu is None else mu
    out = np.zeros((state.hyper.n_clusters, state.type_sizes[t]))
    for m, i, k in state.layout[t]:
        out += float(mu[m]) / k * state.factors[m][i]
    return out


def _coupling_terms(state, mu):
    """Objective terms 3 and 4 (the only ones depending on the motif weights)."""
    h = state.hyper
    gap = 0.0
    penalty = 0.0
    for t in state.clustered_types():
        cons = consensus(state, t, mu)
        for m, i, _ in state.layout[t]:
            diff = state.factors[m][i] - cons
            gap += float(np.vdot(diff, diff))
        mask = state.masks.get(t)
        if mask is not None:
            masked = mask * cons
            penalty += float(np.vdot(masked, masked))
    return h.consensus_weight * gap, h.mask_penalty * penalty


def objective(state, mu=None, residual=None):
    """All four objective terms at the current factors (and optionally a
    candidate weight vector). Non-negative and finite on valid states.
    `residual` is the summed reconstruction residual of all motifs when the
    caller already knows it; otherwise every tensor's is computed."""
    if residual is None:
        residual = sum(
            residual_fro_sq(state.tensors[m], state.factors[m]) for m in range(state.n_motifs())
        )
    l1 = state.hyper.l1_weight * sum(
        float(f.sum()) for fs in state.factors for f in fs
    )
    gap, penalty = _coupling_terms(state, state.mu if mu is None else mu)
    return ObjectiveTerms(residual, l1, gap, penalty)


def update_factor(state, m, i, mttkrp=None, gram=None):
    """One multiplicative update of factor (m, i); never increases the
    objective and keeps exact zeros at zero. Returns the updated matrix.
    `mttkrp` (d, C) and `gram` (C, C) are mode i's `mttkrp_sparse` and
    `gram_hadamard` of motif m when the caller has them already."""
    h = state.hyper
    t = state.motif_types[m][i]
    rows = state.layout[t]
    eta = next(float(state.mu[m]) / k for m2, i2, k in rows if (m2, i2) == (m, i))
    v = state.factors[m][i]
    cons = consensus(state, t)
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
    den += h.l1_weight + h.eps_div
    np.maximum(num, 0.0, out=num)  # cons - eta*v is >= 0 up to roundoff

    updated = v * np.sqrt(num / den)
    if not np.all(np.isfinite(updated)):
        raise FloatingPointError(
            f"non-finite factor update for motif {state.motif_names[m]!r} position {i} "
            f"(max factor entry {v.max():.3e}, max numerator {num.max():.3e})"
        )
    state.factors[m][i] = updated
    return updated


def _sweep(state, m):
    """Update every factor of motif m once, in position order, and return
    m's residual afterwards. It comes from the MTTKRP and Gram product of
    the last update: no other factor of m moves after they are computed."""
    x, factors = state.tensors[m], state.factors[m]
    last = len(factors) - 1
    for i in range(last):
        update_factor(state, m, i)
    mttkrp, gram = mttkrp_sparse(x, factors, last), gram_hadamard(factors, last)
    updated = update_factor(state, m, last, mttkrp, gram)
    return residual_from_mode(x, updated, mttkrp, gram)


def motif_weight_gradient(state):
    """Gradient of the coupling terms with respect to the motif weights.

    The consensus of type t is linear in the weights; the partial derivative
    of it along motif l is the mean of l's type-t factors. Types are visited
    in ascending order, so each motif's entry sums its types in that order."""
    h = state.hyper
    grad = np.zeros(state.n_motifs())
    for t in state.clustered_types():
        rows = state.layout[t]
        cons = consensus(state, t)
        spread = -len(rows) * cons
        for m, i, _ in rows:
            spread += state.factors[m][i]
        mask = state.masks.get(t)
        masked = None if mask is None else mask * cons
        for l, own in groupby(rows, key=lambda row: row[0]):
            slope = np.zeros_like(cons)
            for _, i, k in own:
                slope += state.factors[l][i]
            slope /= k  # every row of motif l carries its multiplicity
            grad[l] += -2.0 * h.consensus_weight * float(np.vdot(spread, slope))
            if masked is not None:
                grad[l] += 2.0 * h.mask_penalty * float(np.vdot(masked, slope))
    return grad


def project_simplex(v):
    """Euclidean projection onto {x >= 0, sum x = 1} by sorting and thresholding."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    k = np.nonzero(u - shifted / ranks > 0)[0][-1]
    return np.maximum(v - shifted[k] / ranks[k], 0.0)


def optimize_motif_weights(state, fixed=None):
    """Projected gradient descent on the motif weights with factors fixed.

    Each step halves the trial step until the objective does not increase;
    stops at the relative-change tolerance, a vanishing step, or the inner
    iteration cap. The subproblem is convex, so this reaches its optimum.
    Factors are fixed here, so terms 1 and 2 are constant during the search:
    `fixed` is their sum when the caller knows it, else it is computed."""
    h = state.hyper
    if fixed is None:
        base = objective(state)
        fixed = base.residual + base.l1
    prev = fixed + sum(_coupling_terms(state, state.mu))
    for _ in range(h.max_inner_iters):
        grad = motif_weight_gradient(state)
        step = h.pgd_step
        accepted = None
        while step >= 1e-12:
            cand = project_simplex(state.mu - step * grad)
            trial = fixed + sum(_coupling_terms(state, cand))
            if trial <= prev:
                accepted = (cand, trial)
                break
            step *= 0.5
        if accepted is None:
            break
        state.mu, trial = accepted
        if abs(prev - trial) <= h.inner_tol * max(prev, 1e-300):
            prev = trial
            break
        prev = trial
    return state.mu


def fit(state):
    """Alternating optimization: per motif, sweep the factor updates to a
    local optimum, then optimize the weights; repeat until the relative
    objective change drops below outer_tol or the iteration cap is hit.

    The returned history holds one record per outer iteration; the objective
    column is non-increasing by construction of both update types. The loop
    evaluates each state's objective once: a motif's sweeps start from the
    last value computed before them. Each motif's residual is computed over
    its nonzeros once, at the start, and cached: a sweep of motif m replaces
    entry m with the residual it gets from its own kernels, and no other
    entry goes stale, since the sweep and the weight step move no other
    motif's factors."""
    h = state.hyper
    history = []
    residuals = [residual_fro_sq(x, fs) for x, fs in zip(state.tensors, state.factors)]
    terms = objective(state, residual=sum(residuals))
    current = terms.total
    converged = False
    for outer in range(1, h.max_outer_iters + 1):
        prev = current
        for m in range(state.n_motifs()):
            inner_prev = current
            for _ in range(h.max_inner_iters):
                residuals[m] = _sweep(state, m)
                terms = objective(state, residual=sum(residuals))
                current = terms.total
                if abs(inner_prev - current) <= h.inner_tol * max(inner_prev, 1e-300):
                    break
                inner_prev = current
        optimize_motif_weights(state, terms.residual + terms.l1)
        terms = objective(state, residual=terms.residual)
        current = terms.total
        history.append(
            IterationRecord(
                outer,
                current,
                terms.residual,
                terms.l1,
                terms.consensus_gap,
                terms.seed_penalty,
                state.mu.copy(),
            )
        )
        log.debug("iteration %d: objective %.12g, residual %.12g", outer, current, terms.residual)
        if abs(prev - current) <= h.outer_tol * max(prev, 1e-300):
            converged = True
            break
    log.info(
        "fit %s after %d outer iteration(s)",
        "converged" if converged else "stopped at the iteration cap", len(history),
    )
    return FitResult(state, history, converged)


def assign_clusters(state):
    """Hard labels per clustered type: argmax over the consensus columns,
    ties to the lowest cluster index. All-zero columns get label 0 and are
    flagged (and counted in a warning)."""
    out = {}
    for t in state.clustered_types():
        cons = consensus(state, t)
        labels = np.argmax(cons, axis=0)
        zero = cons.max(axis=0) == 0.0
        if zero.any():
            log.warning("type %d: %d node(s) have an all-zero consensus column", t, int(zero.sum()))
        out[t] = TypeAssignment(labels, cons, zero)
    return out


def build_seed_mask(n_clusters, type_sizes, seeds):
    """Masks from seeds given as {type id: {node index: cluster}}: a seed
    column has a zero at its permitted cluster and ones elsewhere."""
    masks = {}
    for t, per_node in seeds.items():
        if not per_node:
            continue
        mask = np.zeros((n_clusters, type_sizes[t]))
        for j, c in per_node.items():
            if not 0 <= c < n_clusters:
                raise ValueError(f"seed label {c} outside 0..{n_clusters - 1}")
            mask[:, j] = 1.0
            mask[c, j] = 0.0
        masks[t] = mask
    return masks


def init_model(hin, motifs, tensors, seeds, hyper):
    """Assemble a ready-to-fit state from parsed motifs and their tensors.

    seeds maps node id to cluster index. Factors start i.i.d. uniform on
    (0.1, 1.1) (strictly positive, since multiplicative updates lock zeros)
    drawn from init_seed; weights start uniform. With seed_boost > 1 the
    permitted-cluster entry of every seed column is scaled by it."""
    if len(motifs) != len(tensors):
        raise ValueError("one tensor per motif is required")
    for motif, tensor in zip(motifs, tensors):
        expected = tuple(hin.num_nodes(t) for t in motif.node_types)
        if tensor.dims != expected:
            raise ValueError(
                f"tensor dims {tensor.dims} do not match motif {motif.name!r} dims {expected}"
            )
    clustered = {t for motif in motifs for t in motif.node_types}
    by_type = {}
    for node_id, label in seeds.items():
        t, j = hin.lookup(node_id)
        if t not in clustered:
            raise ValueError(
                f"seed node {node_id!r} has type {hin.type_names[t]!r}, which no motif covers"
            )
        if not 0 <= label < hyper.n_clusters:
            raise ValueError(f"seed node {node_id!r}: label {label} outside 0..{hyper.n_clusters - 1}")
        by_type.setdefault(t, {})[j] = label

    type_sizes = {t: hin.num_nodes(t) for t in clustered}
    masks = build_seed_mask(hyper.n_clusters, type_sizes, by_type)
    rng = np.random.default_rng(hyper.init_seed)
    factors = [
        [rng.uniform(0.1, 1.1, size=(hyper.n_clusters, hin.num_nodes(t))) for t in motif.node_types]
        for motif in motifs
    ]
    if hyper.seed_boost > 1.0:
        for motif, fs in zip(motifs, factors):
            for t, f in zip(motif.node_types, fs):
                for j, c in by_type.get(t, {}).items():
                    f[c, j] *= hyper.seed_boost
    n = len(motifs)
    return ModelState(
        motif_names=[m.name for m in motifs],
        motif_types=[m.node_types for m in motifs],
        tensors=list(tensors),
        factors=factors,
        mu=np.full(n, 1.0 / n),
        masks=masks,
        hyper=hyper,
    )
