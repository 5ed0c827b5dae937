import json

import numpy as np
import pytest

from motifclust.model import Hyperparameters, ModelState

from oracles import from_tuples


def random_sparse_tensor(rng, dims, nnz):
    """Binary tensor with `nnz` distinct nonzero positions."""
    total = int(np.prod(dims))
    nnz = min(nnz, total)
    flat = rng.choice(total, size=nnz, replace=False)
    idx = np.stack(np.unravel_index(flat, dims), axis=1)
    return from_tuples(dims, map(tuple, idx))


def damage_snapshot(path, damage):
    """Rewrite the graph snapshot at `path` as `damage(arrays, data)` of its
    arrays and its bytes gives it: bytes as they are, a dict of arrays as an
    `.npz` and one array as an `.npy` file."""
    with np.load(path) as archive:
        arrays = dict(archive)
    damaged = damage(arrays, path.read_bytes())
    with open(path, "wb") as fh:
        if isinstance(damaged, bytes):
            fh.write(damaged)
        elif isinstance(damaged, dict):
            np.savez(fh, **damaged)
        else:
            np.save(fh, damaged)


def read_header(path):
    """The JSON header of the graph snapshot at `path`."""
    with np.load(path) as archive:
        return json.loads(archive["header"].tobytes())


def header_edited(edit):
    """A damage for `damage_snapshot` that replaces the header with
    `edit(header)`, written as is if bytes and as JSON otherwise."""
    def damage(arrays, data):
        doc = edit(json.loads(arrays["header"].tobytes()))
        raw = doc if isinstance(doc, bytes) else json.dumps(doc).encode("ascii")
        return dict(arrays, header=np.frombuffer(raw, dtype=np.uint8))
    return damage


def as_bytes(text):
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def pre_names_layout(arrays, data):
    """A damage for `damage_snapshot`: the graph alone in the layout before
    its names were one JSON document, with strings as UTF-8 bytes and end
    offsets, node counts and edge type signatures."""
    h = json.loads(arrays["header"].tobytes())
    strings = [*h["types"], *(n for ns in h["nodes"] for n in ns), *(et[0] for et in h["edge_types"])]
    encoded = [s.encode("utf-8") for s in strings]
    return {
        "key": as_bytes(h["key"]),
        "strings": np.frombuffer(b"".join(encoded), dtype=np.uint8),
        "ends": np.cumsum([len(b) for b in encoded], dtype=np.int64),
        "nodes": np.array([len(ns) for ns in h["nodes"]], dtype=np.int64),
        "edge_types": np.array([et[1:] for et in h["edge_types"]], dtype=np.int64).reshape(-1, 3),
        "edges": arrays["edges"],
        "duplicates": np.array(h["duplicates"], dtype=np.int64),
    }


def names_layout(arrays, data):
    """A damage for `damage_snapshot`: the layout before the header, with
    the keys, the names, the duplicate count and the tensor list each in an
    array of its own."""
    h = json.loads(arrays["header"].tobytes())
    return dict(
        {k: v for k, v in arrays.items() if k != "header"},
        key=as_bytes(h["key"]),
        names=as_bytes(json.dumps([h["types"], h["nodes"], h["edge_types"]])),
        duplicates=np.array(h["duplicates"], dtype=np.int64),
        motif_key=as_bytes(h["motif_key"]),
        tensors=as_bytes(json.dumps(h["tensors"])),
    )


def random_state(rng, n_motifs=2, max_order=4, max_dim=12, max_clusters=4,
                 with_mask=True, hyper_overrides=None):
    """Small random model state with every objective term active."""
    n_types = int(rng.integers(2, 4))
    sizes = {t: int(rng.integers(3, max_dim + 1)) for t in range(n_types)}
    c = int(rng.integers(2, max_clusters + 1))

    motif_types = []
    tensors = []
    for _ in range(n_motifs):
        order = int(rng.integers(2, max_order + 1))
        types = tuple(int(rng.integers(0, n_types)) for _ in range(order))
        dims = tuple(sizes[t] for t in types)
        nnz = int(rng.integers(1, min(12, int(np.prod(dims))) + 1))
        motif_types.append(types)
        tensors.append(random_sparse_tensor(rng, dims, nnz))

    factors = [
        [rng.uniform(0.1, 1.1, size=(c, sizes[t])) for t in types]
        for types in motif_types
    ]
    covered = sorted({t for types in motif_types for t in types})
    masks = {}
    if with_mask:
        for t in covered:
            n_seeds = max(1, sizes[t] // 5)
            cols = rng.choice(sizes[t], size=n_seeds, replace=False)
            mask = np.zeros((c, sizes[t]))
            for j in cols:
                mask[:, j] = 1.0
                mask[int(rng.integers(0, c)), j] = 0.0
            masks[t] = mask

    params = dict(
        n_clusters=c,
        consensus_weight=float(rng.uniform(0.2, 2.0)),
        mask_penalty=float(rng.uniform(1.0, 100.0)),
        l1_weight=float(10.0 ** rng.uniform(-5, -2)),
        init_seed=int(rng.integers(0, 2**31)),
    )
    if hyper_overrides:
        params.update(hyper_overrides)
    mu = rng.dirichlet(np.ones(n_motifs))
    return ModelState(
        motif_names=[f"m{i}" for i in range(n_motifs)],
        motif_types=motif_types,
        tensors=tensors,
        factors=factors,
        mu=mu,
        masks=masks,
        hyper=Hyperparameters(**params),
    )


TOY_NODES = """\
a1\tA
a2\tA
a3\tA
p1\tP
p2\tP
p3\tP
p4\tP
t1\tT
t2\tT
t3\tT
t4\tT
t5\tT
v1\tV
v2\tV
y1\tY
y2\tY
"""

TOY_EDGES = """\
a1\tp1\twrites\tu
a1\tp2\twrites\tu
a2\tp2\twrites\tu
a2\tp3\twrites\tu
a3\tp4\twrites\tu
p1\tt1\tuses\tu
p1\tt2\tuses\tu
p2\tt2\tuses\tu
p2\tt3\tuses\tu
p3\tt4\tuses\tu
p4\tt5\tuses\tu
p4\tt1\tuses\tu
p1\tv1\tpublished_in\tu
p2\tv1\tpublished_in\tu
p3\tv2\tpublished_in\tu
p4\tv2\tpublished_in\tu
p1\ty1\tin_year\tu
p2\ty1\tin_year\tu
p3\ty2\tin_year\tu
p2\tp1\tcites\td
"""


@pytest.fixture
def toy_paths(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(TOY_NODES, encoding="utf-8")
    edges.write_text(TOY_EDGES, encoding="utf-8")
    return nodes, edges
