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
Each term has one evaluation. The residual comes from one mode's MTTKRP and
Gram product (`residual_from_mode`). The last two are one quadratic in the
weights; it and its gradient come from per-type Gram matrices of the factors
(`_weight_forms`), one product of each type's stack of factors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensors import (
    SparseTensor, gram_hadamard, mttkrp_sparse, residual_fro_sq, residual_from_mode,
)

log = logging.getLogger(__name__)

# Added to every update-rule denominator entry: locked zeros give 0, not NaN.
EPS_DIV = 1e-12
PGD_STEP = 0.1  # first trial step of each projected-gradient weight step


def check_number_fields(config):
    """Refuse, with a ValueError naming the field, a value of a dataclass's
    `int` field that is not an integer and of a `float` field that is not a
    real number; a bool is neither."""
    kinds = {"int": (Integral, "an integer"), "float": (Real, "a real number")}
    for f in fields(config):
        if f.type in kinds:
            (kind, wanted), value = kinds[f.type], getattr(config, f.name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")


@dataclass
class Hyperparameters:
    """Knobs of the model and its optimizer.

    consensus_weight, mask_penalty and l1_weight scale objective terms 3, 4
    and 2; defaults follow the values used across all reported experiments.
    """

    n_clusters: int
    consensus_weight: float = 1.0
    mask_penalty: float = 100.0
    l1_weight: float = 0.0001
    inner_tol: float = 1e-4
    outer_tol: float = 1e-6
    max_inner_iters: int = 50
    max_outer_iters: int = 100
    init_seed: int = 0
    seed_boost: float = 1.0
    stable_iters: int = 30  # stop once this many iterations in a row change no label; 0 = off

    def __post_init__(self):
        check_number_fields(self)
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.n_clusters < 2:
            raise ValueError("n_clusters must be at least 2")
        for name in ("consensus_weight", "mask_penalty", "l1_weight", "init_seed", "stable_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("inner_tol", "outer_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_inner_iters", "max_outer_iters", "seed_boost"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class ObjectiveTerms:
    residual: float
    l1: float
    consensus_gap: float
    seed_penalty: float
    gram: np.ndarray | None = field(default=None, repr=False, compare=False)  # G, H at these factors

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
    labels_changed: int  # of all clustered types, since the last iteration (or the start)


@dataclass
class FitResult:
    """How `fit` went; the state it fitted holds the factors and weights.
    stop_reason is "tolerance", "stable_labels" or "max_iters"."""

    history: list[IterationRecord]
    stop_reason: str

    @property
    def converged(self):
        return self.stop_reason != "max_iters"


@dataclass
class TypeAssignment:
    labels: np.ndarray        # hard cluster per node (argmax, lowest index on ties)
    consensus: np.ndarray     # (C, |V_t|) soft memberships
    zero_columns: np.ndarray  # nodes whose consensus column is all zero


@dataclass(eq=False)  # identity equality: a mutable state with array fields
class ModelState:
    """Everything the optimizer mutates, tied together and shape-checked.

    motif_types[m][i] is the node-type id of motif m's i-th position. masks
    maps a type id to its (C, |V_t|) binary seed mask, a read-only copy.

    layout[t], a read-only (P_t, 3) integer array, has one (m, i, k) row per
    position of type t, in motif then position order, where motif m has k
    positions of type t; (m, i) has coefficient mu[m] / k in t's consensus.
    weight_map is the (P, n) matrix of those coefficients over all P layout
    rows, types ascending: 1/k at (row, m), so that weight_map @ mu lists
    them. The rows of type t are the slice blocks[t], and type_count[r]
    counts the rows of r's type. stacks[t], a (P_t, C, |V_t|) array with
    rows in layout[t] order, is the one storage of type t's factors: it and
    factors[m][i], a view of its row in per-motif tuples, are read-only, and
    `set_factor`, which writes through `slots`, is the one writer.
    """

    motif_names: list[str]
    motif_types: list[tuple[int, ...]]
    tensors: list[SparseTensor]
    factors: tuple[tuple[np.ndarray, ...], ...]
    mu: np.ndarray
    masks: dict[int, np.ndarray]
    hyper: Hyperparameters
    type_sizes: dict[int, int] = field(init=False)
    layout: dict[int, np.ndarray] = field(init=False)
    weight_map: np.ndarray = field(init=False)
    blocks: dict[int, slice] = field(init=False)
    type_count: np.ndarray = field(init=False)
    stacks: dict[int, np.ndarray] = field(init=False, repr=False)
    slots: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.masks = {t: np.array(mask, dtype=np.float64) for t, mask in self.masks.items()}
        n = len(self.motif_names)
        if not n or len(self.motif_types) != n or len(self.tensors) != n or len(self.factors) != n:
            raise ValueError("motif names, types, tensors and factors must align")
        c = self.hyper.n_clusters
        self.mu = np.array(self.mu, dtype=np.float64)
        if self.mu.shape != (n,):
            raise ValueError(f"expected {n} motif weights")
        if not np.all(np.isfinite(self.mu)) or self.mu.min() < 0 or abs(self.mu.sum() - 1.0) > 1e-9:
            raise ValueError("motif weights must be finite and lie on the standard simplex")
        self.type_sizes = {}
        positions = {}  # type -> its (m, i, k) rows
        for m in range(n):
            types = self.motif_types[m]
            if self.tensors[m].order != len(types) or len(self.factors[m]) != len(types):
                raise ValueError(f"motif {self.motif_names[m]!r}: order mismatch")
            for i, t in enumerate(types):
                d = self.tensors[m].dims[i]
                if self.type_sizes.setdefault(t, d) != d:
                    raise ValueError(f"type {t} has inconsistent node counts across tensors")
                positions.setdefault(t, []).append((m, i, types.count(t)))
        for t, mask in self.masks.items():
            mask.flags.writeable = False
            if t not in self.type_sizes:
                raise ValueError(f"seed mask for type {t} which no motif covers")
            if mask.shape != (c, self.type_sizes[t]):
                raise ValueError(f"seed mask for type {t} has shape {mask.shape}")
            cols = mask.sum(axis=0)
            if not np.all(np.isin(mask, (0.0, 1.0))) or not np.all(np.isin(cols, (0, c - 1))):
                raise ValueError("mask columns must be all-zero or have exactly C-1 ones")
        self.layout = {t: as_strided(np.array(positions[t]), writeable=False) for t in sorted(positions)}
        motif, _, k = np.concatenate(list(self.layout.values())).T
        self.weight_map = np.eye(n)[motif] / k[:, None]
        sizes = [len(rs) for rs in self.layout.values()]
        self.blocks = {t: slice(e - p, e) for t, p, e in zip(self.layout, sizes, np.cumsum(sizes))}
        self.type_count = np.repeat(sizes, sizes)
        writable = {t: np.empty((len(rs), c, self.type_sizes[t])) for t, rs in self.layout.items()}
        self.stacks = {t: as_strided(w, writeable=False) for t, w in writable.items()}  # read-only views
        self.slots = {(m, i): (writable[t], self.stacks[t], j)
                      for t, rs in self.layout.items() for j, (m, i, _) in enumerate(rs.tolist())}
        given, self.factors = self.factors, tuple(map(tuple, self.factors))
        for m, i in self.slots:
            self.set_factor(m, i, np.asarray(given[m][i]))
        if not all(np.all(np.isfinite(s)) and not np.any(s < 0) for s in self.stacks.values()):
            raise ValueError("factors must be finite and non-negative")

    # -- structure lookups ----------------------------------------------------

    def n_motifs(self):
        return len(self.motif_names)

    def clustered_types(self):
        """Type ids covered by at least one motif position, ascending."""
        return sorted(self.type_sizes)

    def contributors(self, t):
        """(motif, position) pairs whose factor feeds the consensus of type t."""
        return [(m, i) for m, i, _ in self.layout[t].tolist()] if t in self.layout else []

    def copy(self):
        return replace(self)  # `__post_init__` copies the arrays into new stacks

    def set_factor(self, m, i, value):
        """Write factor (m, i) into its stack row; install and return a new
        view of the row as factors[m][i], so caches keyed by identity miss."""
        writable, stack, j = self.slots[m, i]
        if value.shape != stack.shape[1:]:
            raise ValueError(
                f"factor for motif {self.motif_names[m]!r} position {i} has shape "
                f"{value.shape}, expected {stack.shape[1:]}"
            )
        writable[j] = value
        view, fs = stack[j], self.factors[m]
        self.factors = (*self.factors[:m], (*fs[:i], view, *fs[i + 1 :]), *self.factors[m + 1 :])
        return view


def consensus(state, t):
    """Coefficient-weighted sum of type t's factors, one reduction of its stack."""
    if t not in state.layout:
        raise ValueError(f"type {t} appears in no motif and cannot be clustered")
    m, _, k = state.layout[t].T
    return ((state.mu[m] / k)[:, None, None] * state.stacks[t]).sum(axis=0)


def _gram_rows(state):
    """G[r, s] = <V_r, V_s> and H[r, s] = <M*V_r, V_s> over the P layout rows
    (zero unless r and s have one type; M is its binary mask) as one
    (2, P, P) array, and each row's l1 sum. Each type's block is one product
    of its stack, raveled to (P_t, C*d_t) rows, with itself."""
    p = len(state.type_count)
    gram, l1 = np.zeros((2, p, p)), np.empty(p)
    for t, block in state.blocks.items():
        rows = state.stacks[t].reshape(block.stop - block.start, -1)
        l1[block] = rows.sum(axis=1)
        both = np.concatenate([rows, rows * np.ravel(state.masks.get(t, 0.0))]) @ rows.T
        gram[:, block, block] = both.reshape(2, len(rows), -1)
    return gram, l1


def _weight_forms(state, gram=None):
    """Objective terms 3 and 4, the only ones depending on the motif weights,
    and their weight gradient, as functions of mu at the current factors.
    With G and H of `_gram_rows` (`gram`, if given) and W = weight_map, b = W'G1,
    A = sum_t P_t * W_t'G_t W_t over the per-type blocks and B = W'H W make
    the gap tr G - 2b'mu + mu'A mu and the penalty mu'B mu, with gradients
    2(A mu - b) and 2B mu; each evaluation costs O(n^2) for n motifs."""
    h = state.hyper
    gram = _gram_rows(state)[0] if gram is None else gram
    w = state.weight_map
    wg, wh = w.T @ gram
    trace, b = np.trace(gram[0]), wg.sum(axis=1)
    quad, masked = (wg * state.type_count) @ w, wh @ w

    def terms(mu):
        gap = float(trace - 2.0 * (b @ mu) + mu @ quad @ mu)
        penalty = float(mu @ masked @ mu)
        return h.consensus_weight * max(gap, 0.0), h.mask_penalty * max(penalty, 0.0)

    def gradient(mu):
        return 2.0 * h.consensus_weight * (quad @ mu - b) + 2.0 * h.mask_penalty * (masked @ mu)

    return terms, gradient


def objective(state, residual):
    """All four objective terms at the current factors and weights state.mu.
    `residual`, term 1, is the motifs' summed residual, which the caller
    tracks; terms 2-4 cost one Gram product per type (`_gram_rows`).
    Non-negative and finite on valid states."""
    gram, l1 = _gram_rows(state)
    gap, penalty = _weight_forms(state, gram)[0](state.mu)
    return ObjectiveTerms(residual, state.hyper.l1_weight * float(l1.sum()), gap, penalty, gram)


def update_factor(state, m, i, mttkrp, gram):
    """One multiplicative update of factor (m, i); never increases the
    objective and keeps exact zeros at zero. Returns the updated matrix.
    `mttkrp` (d, C) and `gram` (C, C) are mode i's `mttkrp_sparse` and
    `gram_hadamard` of motif m at the current factors. Each other row r of
    the type's stack adds eta times the positive part of diff = V_r - (cons
    - eta*v) to the numerator, and eta times its negative part (the positive
    part minus diff) plus eta*v to the denominator, summed along the stack."""
    h = state.hyper
    t = state.motif_types[m][i]
    _, stack, j = state.slots[m, i]
    eta = float(state.mu[m] / state.layout[t][j, 2])
    v = state.factors[m][i]
    cons = consensus(state, t)
    theta = h.consensus_weight

    rest = cons - eta * v
    num = mttkrp.T.copy()
    num += theta * (1.0 - eta) * rest
    den = gram @ v
    den += theta * ((1.0 - eta) ** 2 + (len(stack) - 1) * eta**2) * v
    mask = state.masks.get(t)
    if mask is not None:
        den += h.mask_penalty * eta * (mask * cons)
    if len(stack) > 1:
        diffs = stack - rest
        diffs[j] = 0.0
        pos = np.maximum(diffs, 0.0).sum(axis=0)
        num += theta * eta * pos
        den += theta * eta * (pos - diffs.sum(axis=0))
    den += h.l1_weight + EPS_DIV
    np.maximum(num, 0.0, out=num)  # cons - eta*v is >= 0 up to roundoff

    updated = v * np.sqrt(num / den)
    if not np.all(np.isfinite(updated)):
        raise FloatingPointError(
            f"non-finite factor update for motif {state.motif_names[m]!r} position {i} "
            f"(max factor entry {v.max():.3e}, max numerator {num.max():.3e})"
        )
    return state.set_factor(m, i, updated)


def _sweep(state, m, cache):
    """Update every factor of motif m once, in position order, and return
    m's residual afterwards. The MTTKRPs share `cache`, m's dict for the
    whole fit, and each update installs a new factor object, so each node of
    the tensor's dimension tree is computed at most once per sweep. The
    residual comes from the MTTKRP and Gram product of the last update,
    after which no factor of m moves."""
    x = state.tensors[m]
    for i in range(x.order):
        factors = state.factors[m]  # each update installs a new tuple
        mttkrp, gram = mttkrp_sparse(x, factors, i, cache=cache), gram_hadamard(factors, i)
        updated = update_factor(state, m, i, mttkrp, gram)
    return residual_from_mode(x, updated, mttkrp, gram)


def motif_weight_gradient(state):
    """Gradient of the coupling terms in the motif weights, at state.mu."""
    return _weight_forms(state)[1](state.mu)


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


def optimize_motif_weights(state, terms):
    """Projected gradient descent on the motif weights with factors fixed,
    starting from `terms`, the objective terms at the current state; returns
    the terms at the weights it reaches, which equal `objective` then.

    Each step halves the trial step until the objective does not increase;
    stops at the relative-change tolerance, a vanishing step, or the inner
    iteration cap. The subproblem is convex, so this reaches its optimum.
    Factors are fixed here, so terms 1 and 2 are constant during the search,
    and the gradients and trials evaluate terms 3 and 4 on the quadratic
    forms of `_weight_forms`, built once per call from `terms.gram` if set."""
    h = state.hyper
    fixed = terms.residual + terms.l1
    coupling, gradient = _weight_forms(state, terms.gram)
    prev = fixed + (terms.consensus_gap + terms.seed_penalty)  # grouped as the trials are
    for _ in range(h.max_inner_iters):
        grad = gradient(state.mu)
        step = PGD_STEP
        accepted = None
        while step >= 1e-12:
            cand = project_simplex(state.mu - step * grad)
            trial = fixed + sum(coupling(cand))
            if trial <= prev:
                accepted = (cand, trial)
                break
            step *= 0.5
        if accepted is None:
            break
        state.mu, trial = accepted
        if abs(prev - trial) <= h.inner_tol * max(prev, 1e-300):
            break
        prev = trial
    return ObjectiveTerms(terms.residual, terms.l1, *coupling(state.mu))


def _labels(state):
    """(type, consensus, labels) per clustered type, ascending: each label
    is the argmax of its consensus column, ties to the lowest cluster index."""
    for t in state.clustered_types():
        cons = consensus(state, t)
        yield t, cons, np.argmax(cons, axis=0)


def fit(state):
    """Alternating optimization: per motif, sweep the factor updates to a
    local optimum, then optimize the weights; repeat until the relative
    objective change drops below outer_tol ("tolerance"), until the last
    stable_iters iterations, when positive, each changed no label of
    `_labels` ("stable_labels"), or to the iteration cap ("max_iters").

    The returned history holds one record per outer iteration; the objective
    column is non-increasing by construction of both update types. The loop
    evaluates each state's objective once: a motif's sweeps start from the
    last value computed before them, and the weight step returns the terms
    at the weights it reaches. A sweep of motif m moves only m's factors, so
    m's residual, cached per motif from one pass over the nonzeros at the
    start, is replaced by the one the sweep's own kernels give, while no
    other motif's goes stale. That pass and m's sweeps share one MTTKRP
    cache, so the first sweep's mode 0 computes no tree node."""
    h = state.hyper
    history = []
    caches = [{} for _ in state.tensors]
    residuals = [residual_fro_sq(x, fs, cache=c) for x, fs, c in zip(state.tensors, state.factors, caches)]
    terms = objective(state, sum(residuals))
    current = terms.total

    def all_labels():
        return np.concatenate([lab for *_, lab in _labels(state)])

    labels = all_labels()
    stop_reason, quiet = "max_iters", 0
    for outer in range(1, h.max_outer_iters + 1):
        prev = current
        for m in range(state.n_motifs()):
            inner_prev = current
            for _ in range(h.max_inner_iters):
                residuals[m] = _sweep(state, m, caches[m])
                terms = objective(state, sum(residuals))
                current = terms.total
                if abs(inner_prev - current) <= h.inner_tol * max(inner_prev, 1e-300):
                    break
                inner_prev = current
        terms = optimize_motif_weights(state, terms)
        current = terms.total
        prev_labels, labels = labels, all_labels()
        changed = int(np.count_nonzero(labels != prev_labels))
        quiet = 0 if changed else quiet + 1
        history.append(IterationRecord(outer, current, terms.residual, terms.l1, terms.consensus_gap,
                                       terms.seed_penalty, state.mu.copy(), changed))
        log.debug("iteration %d: objective %.12g, residual %.12g", outer, current, terms.residual)
        if abs(prev - current) <= h.outer_tol * max(prev, 1e-300):
            stop_reason = "tolerance"
            break
        if 0 < h.stable_iters <= quiet:
            stop_reason = "stable_labels"
            break
    log.info("fit stopped after %d outer iteration(s): %s", len(history), stop_reason)
    return FitResult(history, stop_reason)


def assign_clusters(state):
    """Hard labels per clustered type: argmax over the consensus columns,
    ties to the lowest cluster index. All-zero columns get label 0 and are
    flagged (and counted in a warning)."""
    out = {}
    for t, cons, labels in _labels(state):
        zero = cons.max(axis=0) == 0.0
        if zero.any():
            log.warning("type %d: %d node(s) have an all-zero consensus column", t, int(zero.sum()))
        out[t] = TypeAssignment(labels, cons, zero)
    return out


def init_model(hin, motifs, tensors, seeds, hyper):
    """Assemble a ready-to-fit state from parsed motifs and their tensors.

    seeds maps node id to cluster index; each seed sets its column of its
    type's mask. Factors start i.i.d. uniform on (0.1, 1.1) (strictly
    positive, since multiplicative updates lock zeros), drawn from init_seed,
    times seed_boost at each seed's permitted-cluster entry (exact at the
    default 1); weights start uniform."""
    if len(motifs) != len(tensors):
        raise ValueError("one tensor per motif is required")
    for motif, tensor in zip(motifs, tensors):
        expected = tuple(hin.num_nodes(t) for t in motif.node_types)
        if tensor.dims != expected:
            raise ValueError(
                f"tensor dims {tensor.dims} do not match motif {motif.name!r} dims {expected}"
            )
    c, covered = hyper.n_clusters, {t for motif in motifs for t in motif.node_types}
    masks = {}
    for node_id, label in seeds.items():
        t, j = hin.lookup(node_id)
        if t not in covered:
            raise ValueError(
                f"seed node {node_id!r} has type {hin.type_names[t]!r}, which no motif covers"
            )
        if not 0 <= label < c:
            raise ValueError(f"seed node {node_id!r}: label {label} outside 0..{c - 1}")
        mask = masks.setdefault(t, np.zeros((c, hin.num_nodes(t))))
        mask[:, j] = 1.0
        mask[label, j] = 0.0
    boost = {t: np.where(mask.any(axis=0) & (mask == 0.0), hyper.seed_boost, 1.0)
             for t, mask in masks.items()}  # seed_boost at each seed's permitted cluster
    rng = np.random.default_rng(hyper.init_seed)
    factors = [
        [rng.uniform(0.1, 1.1, size=(c, hin.num_nodes(t))) * boost.get(t, 1.0) for t in motif.node_types]
        for motif in motifs
    ]
    return ModelState(
        motif_names=[m.name for m in motifs],
        motif_types=[m.node_types for m in motifs],
        tensors=list(tensors),
        factors=factors,
        mu=np.full(len(motifs), 1.0 / len(motifs)),
        masks=masks,
        hyper=hyper,
    )
