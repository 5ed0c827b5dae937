import itertools
import json

import numpy as np
import pytest

from motifclust.hin import HIN, Edge, EdgeType, load_hin
from motifclust.motifs import MotifInstanceSet, enumerate_instances, parse_motif, transcribe

from oracles import todense


AP_SPEC = json.dumps(
    {
        "name": "ap",
        "nodes": [{"id": "a", "type": "A"}, {"id": "p", "type": "P"}],
        "edges": [{"src": "a", "dst": "p", "etype": "writes", "dir": "u"}],
    }
)

APPA_SPEC = json.dumps(
    {
        "name": "appa",
        "nodes": [
            {"id": "a1", "type": "A"},
            {"id": "p1", "type": "P"},
            {"id": "p2", "type": "P"},
            {"id": "a2", "type": "A"},
        ],
        "edges": [
            {"src": "a1", "dst": "p1", "etype": "writes", "dir": "u"},
            {"src": "p1", "dst": "p2", "etype": "cites", "dir": "d"},
            {"src": "p2", "dst": "a2", "etype": "writes", "dir": "u"},
        ],
    }
)


def edge_lookup(hin):
    """Raw edge set for the brute-force oracle, independent of adjacency."""
    present = set()
    for e in hin.edges:
        present.add((e.etype, e.src, e.dst))
        if not hin.edge_types[e.etype].directed:
            present.add((e.etype, e.dst, e.src))
    return present


def brute_force(hin, motif):
    """Exhaustive loop over all position-compatible node tuples."""
    present = edge_lookup(hin)
    ranges = [range(hin.num_nodes(t)) for t in motif.node_types]
    out = []
    for combo in itertools.product(*ranges):
        ok = True
        for t in motif.injective_types:
            bound = [combo[i] for i, ti in enumerate(motif.node_types) if ti == t]
            if len(bound) != len(set(bound)):
                ok = False
                break
        if not ok:
            continue
        for e in motif.edges:
            a = (motif.node_types[e.src], combo[e.src])
            b = (motif.node_types[e.dst], combo[e.dst])
            if (e.etype, a, b) not in present:
                ok = False
                break
        if ok:
            out.append(combo)
    return sorted(out)


def random_hin(rng, max_nodes=12):
    n_types = int(rng.integers(1, 4))
    counts = rng.multinomial(max_nodes - n_types, np.ones(n_types) / n_types) + 1
    type_names = [f"T{i}" for i in range(n_types)]
    nodes_by_type = [[f"T{i}n{j}" for j in range(counts[i])] for i in range(n_types)]
    edge_types = []
    for e in range(int(rng.integers(1, 4))):
        src, dst = rng.integers(0, n_types, size=2)
        edge_types.append(EdgeType(f"e{e}", bool(rng.integers(0, 2)), int(src), int(dst)))
    edges = set()
    for et_id, et in enumerate(edge_types):
        ns, nd = counts[et.src_type], counts[et.dst_type]
        for _ in range(int(rng.integers(0, ns * nd + 1))):
            u, v = int(rng.integers(0, ns)), int(rng.integers(0, nd))
            if (et.src_type, u) == (et.dst_type, v):
                continue
            key = ((et.src_type, u), (et.dst_type, v))
            if not et.directed and et.src_type == et.dst_type:
                key = tuple(sorted(key))  # dedup symmetric same-type pairs
            edges.add((et_id, *key))
    return HIN(
        type_names,
        nodes_by_type,
        edge_types,
        [Edge(src, dst, et) for et, src, dst in sorted(edges)],
    )


def random_motif(rng, hin, max_order=5):
    """Grow a random connected pattern compatible with the HIN's schema."""
    from motifclust.motifs import Motif, PatternEdge

    target = int(rng.integers(1, max_order + 1))
    et_ids = list(range(len(hin.edge_types)))
    node_types = [int(rng.integers(0, hin.num_types()))]
    edges = []
    guard = 0
    while len(node_types) < target and guard < 200:
        guard += 1
        et_id = int(rng.choice(et_ids))
        et = hin.edge_types[et_id]
        anchors = [
            (p, side)
            for p, t in enumerate(node_types)
            for side in ("src", "dst")
            if (side == "src" and t == et.src_type) or (side == "dst" and t == et.dst_type)
        ]
        if not anchors:
            continue
        p, side = anchors[int(rng.integers(0, len(anchors)))]
        if side == "src":
            node_types.append(et.dst_type)
            edges.append(PatternEdge(p, len(node_types) - 1, et_id, et.directed))
        else:
            node_types.append(et.src_type)
            edges.append(PatternEdge(len(node_types) - 1, p, et_id, et.directed))
    if len(node_types) > 1 and not edges:
        return None
    if len(node_types) < target:
        return None
    if rng.integers(0, 2):
        # A closing edge between two placed positions, so the pattern has a cycle.
        closing = [
            PatternEdge(p, q, et_id, et.directed)
            for et_id, et in enumerate(hin.edge_types)
            for p, tp in enumerate(node_types)
            for q, tq in enumerate(node_types)
            if p != q and (tp, tq) == (et.src_type, et.dst_type)
            and not any(
                e.etype == et_id
                and ((e.src, e.dst) == (p, q) or (not et.directed and (e.src, e.dst) == (q, p)))
                for e in edges
            )
        ]
        if closing:
            edges.append(closing[int(rng.integers(0, len(closing)))])
    types = sorted(set(node_types))
    injective = [frozenset(types), frozenset(), frozenset(t for t in types if rng.integers(0, 2))]
    return Motif("rand", tuple(node_types), tuple(edges), injective[int(rng.integers(0, 3))])


@pytest.fixture
def toy_hin(toy_paths):
    return load_hin(*toy_paths)


class TestParse:
    def test_edge_level_motif(self, toy_hin):
        m = parse_motif(AP_SPEC, toy_hin)
        assert m.order == 2
        assert m.node_types == (toy_hin.type_id("A"), toy_hin.type_id("P"))

    def test_appa(self, toy_hin):
        m = parse_motif(APPA_SPEC, toy_hin)
        assert m.order == 4
        assert m.injective_types == frozenset(
            {toy_hin.type_id("A"), toy_hin.type_id("P")}
        )

    def test_endpoint_type_contradiction(self, toy_hin):
        spec = json.dumps(
            {
                "name": "bad",
                "nodes": [{"id": "x", "type": "A"}, {"id": "y", "type": "A"}],
                "edges": [{"src": "x", "dst": "y", "etype": "writes", "dir": "u"}],
            }
        )
        with pytest.raises(ValueError, match="edge x-y.*endpoint types"):
            parse_motif(spec, toy_hin)

    def test_disconnected(self, toy_hin):
        spec = json.dumps(
            {
                "name": "bad",
                "nodes": [{"id": "x", "type": "A"}, {"id": "y", "type": "P"}],
                "edges": [],
            }
        )
        with pytest.raises(ValueError, match="not connected"):
            parse_motif(spec, toy_hin)

    def test_unknown_type(self, toy_hin):
        spec = json.dumps({"name": "bad", "nodes": [{"id": "x", "type": "ZZ"}]})
        with pytest.raises(KeyError, match="ZZ"):
            parse_motif(spec, toy_hin)

    def test_direction_flag_mismatch(self, toy_hin):
        spec = json.dumps(
            {
                "name": "bad",
                "nodes": [{"id": "x", "type": "P"}, {"id": "y", "type": "P"}],
                "edges": [{"src": "x", "dst": "y", "etype": "cites", "dir": "u"}],
            }
        )
        with pytest.raises(ValueError, match="directed in the graph"):
            parse_motif(spec, toy_hin)

    def test_injective_override(self, toy_hin):
        spec = json.loads(APPA_SPEC)
        spec["injective_types"] = ["A"]
        m = parse_motif(json.dumps(spec), toy_hin)
        assert m.injective_types == frozenset({toy_hin.type_id("A")})


class TestEnumerate:
    def test_single_node_motif(self, toy_hin):
        spec = json.dumps({"name": "a", "nodes": [{"id": "x", "type": "A"}]})
        inst = enumerate_instances(toy_hin, parse_motif(spec, toy_hin))
        assert inst.tuples.tolist() == [[0], [1], [2]]

    def test_edge_motif_enumerates_edges(self, toy_hin):
        inst = enumerate_instances(toy_hin, parse_motif(AP_SPEC, toy_hin))
        expected = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)}  # the writes pairs
        assert set(map(tuple, inst.tuples.tolist())) == expected

    def test_appa_matches_brute_force(self, toy_hin):
        motif = parse_motif(APPA_SPEC, toy_hin)
        inst = enumerate_instances(toy_hin, motif)
        assert [tuple(r) for r in inst.tuples.tolist()] == brute_force(toy_hin, motif)
        # p2 cites p1; distinct writers on each side leaves a2,p2 -> p1,a1
        assert set(map(tuple, inst.tuples.tolist())) == {(1, 1, 0, 0)}

    def test_completeness_on_random_graphs(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 60:
            hin = random_hin(rng)
            motif = random_motif(rng, hin)
            if motif is None:
                continue
            inst = enumerate_instances(hin, motif)
            assert [tuple(r) for r in inst.tuples.tolist()] == brute_force(hin, motif)
            checked += 1

    def test_soundness_reverifies(self, toy_hin):
        motif = parse_motif(APPA_SPEC, toy_hin)
        present = edge_lookup(toy_hin)
        for row in enumerate_instances(toy_hin, motif).tuples:
            for e in motif.edges:
                a = (motif.node_types[e.src], int(row[e.src]))
                b = (motif.node_types[e.dst], int(row[e.dst]))
                assert (e.etype, a, b) in present

    def test_automorphism_symmetry(self, toy_hin):
        # with an undirected P-P edge the reversed tuple is also an instance
        spec = json.dumps(
            {
                "name": "apxa",
                "nodes": [
                    {"id": "a1", "type": "A"},
                    {"id": "p1", "type": "P"},
                    {"id": "p2", "type": "P"},
                    {"id": "a2", "type": "A"},
                ],
                "edges": [
                    {"src": "a1", "dst": "p1", "etype": "writes", "dir": "u"},
                    {"src": "p1", "dst": "p2", "etype": "same_venue", "dir": "u"},
                    {"src": "p2", "dst": "a2", "etype": "writes", "dir": "u"},
                ],
            }
        )
        import conftest

        edges = conftest.TOY_EDGES + "p1\tp2\tsame_venue\tu\np3\tp4\tsame_venue\tu\n"
        nodes_path = toy_hin  # unused, rebuild below
        hin = None
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            np_, ep_ = pathlib.Path(d) / "n.tsv", pathlib.Path(d) / "e.tsv"
            np_.write_text(conftest.TOY_NODES, encoding="utf-8")
            ep_.write_text(edges, encoding="utf-8")
            hin = load_hin(np_, ep_)
        motif = parse_motif(spec, hin)
        got = set(map(tuple, enumerate_instances(hin, motif).tuples.tolist()))
        assert got
        for a1, p1, p2, a2 in got:
            assert (a2, p2, p1, a1) in got

    def test_injectivity_constraint(self, tmp_path):
        nodes = "a1\tA\np1\tP\np2\tP\n"
        edges = "a1\tp1\tw\tu\na1\tp2\tw\tu\n"
        (tmp_path / "n.tsv").write_text(nodes)
        (tmp_path / "e.tsv").write_text(edges)
        hin = load_hin(tmp_path / "n.tsv", tmp_path / "e.tsv")
        base = {
            "name": "wedge",
            "nodes": [
                {"id": "p", "type": "P"},
                {"id": "a", "type": "A"},
                {"id": "q", "type": "P"},
            ],
            "edges": [
                {"src": "a", "dst": "p", "etype": "w", "dir": "u"},
                {"src": "a", "dst": "q", "etype": "w", "dir": "u"},
            ],
        }
        strict = enumerate_instances(hin, parse_motif(json.dumps(base), hin))
        assert set(map(tuple, strict.tuples.tolist())) == {(0, 0, 1), (1, 0, 0)}
        base["injective_types"] = []
        loose = enumerate_instances(hin, parse_motif(json.dumps(base), hin))
        assert set(map(tuple, loose.tuples.tolist())) == {
            (0, 0, 0),
            (0, 0, 1),
            (1, 0, 0),
            (1, 0, 1),
        }


class TestTranscribe:
    def test_empty_instances(self, toy_hin):
        motif = parse_motif(AP_SPEC, toy_hin)
        inst = MotifInstanceSet(motif, np.empty((0, 2), dtype=np.int32))
        x = transcribe(inst, toy_hin)
        assert x.dims == (3, 4) and x.nnz == 0

    def test_edge_motif_equals_adjacency(self, toy_hin):
        motif = parse_motif(AP_SPEC, toy_hin)
        x = transcribe(enumerate_instances(toy_hin, motif), toy_hin)
        adj = np.zeros((3, 4))
        e = toy_hin.edge_type_id("writes")
        for a in range(3):
            for p in toy_hin.neighbors_fwd(e, a):
                adj[a, p] = 1.0
        np.testing.assert_array_equal(todense(x), adj)

    def test_dense_indicator_matches_brute_force(self, toy_hin):
        motif = parse_motif(APPA_SPEC, toy_hin)
        inst = enumerate_instances(toy_hin, motif)
        x = transcribe(inst, toy_hin)
        expected = np.zeros(x.dims)
        for combo in brute_force(toy_hin, motif):
            expected[combo] = 1.0
        np.testing.assert_array_equal(todense(x), expected)
        assert x.nnz == len(inst)
