"""Dense and sampling oracles the tests check the library against.

They materialize full arrays or draw bulk samples, so they suit small-scale
verification only and are not part of the package.
"""

import numpy as np

from motifclust.planted import _sample_tuples

_LETTERS = "abcdefghijklmnopqrstuvwxy"


def dense_reconstruct(factors):
    """Materialize the rank-C reconstruction sum_c outer(V_1[c], ..., V_N[c])."""
    n = len(factors)
    if n > len(_LETTERS):
        raise ValueError("too many modes for dense reconstruction")
    subs = ",".join(f"z{_LETTERS[i]}" for i in range(n))
    return np.einsum(f"{subs}->{_LETTERS[:n]}", *factors)


def matricize(dense, mode):
    """Mode-k unfolding: shape (prod of other dims, d_mode); column j is the
    slice with mode index j, remaining axes flattened in ascending order."""
    dense = np.asarray(dense)
    if not 0 <= mode < dense.ndim:
        raise ValueError(f"mode {mode} out of range for order {dense.ndim}")
    return np.moveaxis(dense, mode, -1).reshape(-1, dense.shape[mode])


def sample_template_tuples(template, nodes_per_type, count, rng_seed):
    """`count` distinct instance tuples of the template drawn uniformly over
    the whole (block-free) node range. Used to densify test tensors."""
    rng = np.random.default_rng(rng_seed)
    tuples = _sample_tuples(rng, template, range(nodes_per_type), count)
    return np.asarray(sorted(tuples), dtype=np.int32)
