import itertools
import json
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motifclust.hin as hin_module
from motifclust.hin import (
    HIN,
    EdgeError,
    EdgeType,
    _read_table,
    load_hin,
    orient,
    read_snapshot,
    write_hin,
    write_snapshot,
)
from motifclust.motifs import enumerate_instances, parse_motif, transcribe
from motifclust.planted import PlantedConfig, default_templates, generate_planted_hin
from motifclust.tensors import SparseTensor

from conftest import TOY_EDGES, TOY_NODES, damage_snapshot, header_edited, names_layout, pre_names_layout
from oracles import (
    admit_edges,
    admit_per_edge_type,
    adjacency_pairs,
    eager_adjacency,
    edge_rows,
    load_hin_by_lines,
    read_table_by_lines,
)


def read_table(path, width, directive=None):
    """`_read_table` of a file as `read_table_by_lines` gives it."""
    rows, directives = [], []
    for numbers, counts, columns, found in _read_table(path, width, directive):
        assert len(numbers) == len(counts) and all(len(c) == len(numbers) for c in columns)
        rows += zip(numbers.tolist(), counts.tolist(), zip(*columns))
        directives += found
    return rows, directives


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
@pytest.mark.parametrize(
    "data",
    [b"", b"\n", b"a\tb\r\nc\r\n", b"a\rb\r", b"a\nb", b"a\n\n\nb\r\n\r\n", b"\r\r\n\n\r",
     b"x\ty\n# note\n\n\xc3\xa9\t\x0b\x1c\xe2\x80\xa8z"],
    ids=["empty", "newline", "crlf", "lone_cr", "no_final_newline", "blank_lines", "mixed", "other_breaks"],
)
def test_read_lines_equals_line_iteration(tmp_path, monkeypatch, data, block):
    """Reading in blocks and cutting them into lines and fields gives the
    rows of iterating over the file's lines: universal newlines, also where a
    block ends between CR and LF, no line for a final newline, and Unicode
    line breaks other than newlines kept inside a line."""
    path = tmp_path / "f.tsv"
    path.write_bytes(data)
    monkeypatch.setattr(hin_module, "READ_BLOCK_CHARS", block)
    for width in (1, 2):
        assert read_table(path, width) == read_table_by_lines(path, width)


@given(
    text=st.lists(st.sampled_from(["a", "\t", "\n", "\r", "\r\n", "#", " ", "\x0b", "\u2028", "\u00e9",
                                   "#types"]), max_size=40).map("".join),
    width=st.integers(1, 3),
    block=st.one_of(st.integers(1, 7), st.just(1 << 16)),
    directive=st.sampled_from([None, "#types"]),
)
@settings(max_examples=300, deadline=None)
def test_read_lines_equals_line_iteration_on_any_text(tmp_path_factory, text, width, block, directive):
    path = tmp_path_factory.mktemp("table") / "f.tsv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(hin_module, "READ_BLOCK_CHARS", block):
        assert read_table(path, width, directive) == read_table_by_lines(path, width, directive)


def write_pair(tmp_path, nodes, edges):
    np_path, ep_path = tmp_path / "n.tsv", tmp_path / "e.tsv"
    np_path.write_text(nodes, encoding="utf-8")
    ep_path.write_text(edges, encoding="utf-8")
    return np_path, ep_path


def row(hin, etype, forward, j):
    """Row j of an edge type's CSR adjacency, as a list."""
    indptr, indices = hin.adjacency(etype, forward)
    return indices[indptr[j]:indptr[j + 1]].tolist()


def csr_pairs(hin, etype, forward):
    """The (row, column) pairs of an edge type's CSR adjacency; every row must
    list its columns strictly ascending."""
    indptr, indices = hin.adjacency(etype, forward)
    for j in range(len(indptr) - 1):
        assert np.all(np.diff(indices[indptr[j]:indptr[j + 1]]) > 0)  # ascending, distinct
    return {(j, v) for j in range(len(indptr) - 1) for v in row(hin, etype, forward, j)}


class TestLoad:
    def test_minimal(self, tmp_path):
        hin = load_hin(*write_pair(tmp_path, "a1\tA\n", ""))
        assert hin.num_types() == 1
        assert hin.nodes_of_type(0) == ["a1"]
        assert hin.edges.shape == (0, 3) and hin.edges.dtype == np.int64

    def test_single_undirected_edge_is_symmetric(self, tmp_path):
        hin = load_hin(*write_pair(tmp_path, "a1\tA\np1\tP\n", "a1\tp1\twrites\tu\n"))
        e = hin.edge_type_id("writes")
        assert row(hin, e, True, 0) == [0]  # a1 -> p1
        assert row(hin, e, False, 0) == [0]  # p1 -> a1

    def test_toy_counts_and_degrees_match_raw_files(self, toy_paths):
        # independent recount straight off the raw text
        type_counts = {}
        for line in TOY_NODES.strip().splitlines():
            _, t = line.split("\t")
            type_counts[t] = type_counts.get(t, 0) + 1
        degree = {}
        edge_lines = TOY_EDGES.strip().splitlines()
        for line in edge_lines:
            src, dst, _, _ = line.split("\t")
            degree[src] = degree.get(src, 0) + 1
            degree[dst] = degree.get(dst, 0) + 1

        hin = load_hin(*toy_paths)
        assert hin.num_types() == 5
        for tname, count in type_counts.items():
            assert hin.num_nodes(hin.type_id(tname)) == count
        assert len(hin.edges) == len(edge_lines) == 20
        got = {}
        for etype, src, dst in hin.edges.tolist():
            et = hin.edge_types[etype]
            for t, j in ((et.src_type, src), (et.dst_type, dst)):
                name = hin.node_name(t, j)
                got[name] = got.get(name, 0) + 1
        assert got == degree

    def test_first_appearance_order(self, toy_paths):
        hin = load_hin(*toy_paths)
        assert hin.nodes_of_type(hin.type_id("P")) == ["p1", "p2", "p3", "p4"]

    def test_empty_type_via_directive(self, tmp_path):
        hin = load_hin(*write_pair(tmp_path, "#types A B\na1\tA\n", ""))
        assert hin.nodes_of_type(hin.type_id("B")) == []

    def test_types_directive_is_a_whole_token(self, tmp_path):
        nodes = "#typeset by hand\n#types\tA  B\na1\tA\nb1\tB\n"
        hin = load_hin(*write_pair(tmp_path, nodes, ""))
        assert hin.type_names == ["A", "B"]

    def test_unknown_type_query(self, toy_paths):
        hin = load_hin(*toy_paths)
        with pytest.raises(KeyError):
            hin.nodes_of_type(99)

    def test_comments_skipped(self, tmp_path):
        hin = load_hin(*write_pair(tmp_path, "# c\na1\tA\n\n", "# c\n"))
        assert hin.num_nodes(0) == 1


class TestLoadErrors:
    def test_malformed_node_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_hin(*write_pair(tmp_path, "a1\tA\nbroken\n", ""))

    def test_duplicate_node(self, tmp_path):
        with pytest.raises(ValueError, match="line 2.*duplicate"):
            load_hin(*write_pair(tmp_path, "a1\tA\na1\tB\n", ""))

    def test_unknown_edge_endpoint(self, tmp_path):
        with pytest.raises(ValueError, match="line 1.*unknown node"):
            load_hin(*write_pair(tmp_path, "a1\tA\n", "a1\tzz\tw\tu\n"))

    def test_bad_direction_flag(self, tmp_path):
        with pytest.raises(ValueError, match="'d' or 'u'"):
            load_hin(*write_pair(tmp_path, "a1\tA\np1\tP\n", "a1\tp1\tw\tx\n"))

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="self-loop"):
            load_hin(*write_pair(tmp_path, "a1\tA\n", "a1\ta1\tw\tu\n"))

    def test_inconsistent_direction(self, tmp_path):
        edges = "a1\tp1\tw\tu\np1\ta1\tw\td\n"
        with pytest.raises(ValueError, match="inconsistent direction"):
            load_hin(*write_pair(tmp_path, "a1\tA\np1\tP\n", edges))

    def test_inconsistent_endpoint_types(self, tmp_path):
        nodes = "a1\tA\np1\tP\nt1\tT\n"
        edges = "a1\tp1\tw\tu\na1\tt1\tw\tu\n"
        with pytest.raises(ValueError, match="incompatible node types"):
            load_hin(*write_pair(tmp_path, nodes, edges))

    def test_admission_errors_name_their_line(self, tmp_path):
        nodes = "a1\tA\np1\tP\nt1\tT\n"
        with pytest.raises(ValueError, match=r"e\.tsv line 3: self-loop on 'p1'"):
            load_hin(*write_pair(tmp_path, nodes, "# c\na1\tp1\tw\tu\np1\tp1\tv\tu\n"))
        with pytest.raises(ValueError, match=r"e\.tsv line 3: edge type 'w' used between incompatible"):
            load_hin(*write_pair(tmp_path, nodes, "a1\tp1\tw\tu\n\na1\tt1\tw\tu\n"))

    # One bad edge line of each kind, after the good line "a1 p1 w u", and the
    # message it raises.
    FAULTS = {
        "columns": ("a1\tp1\tw\n", "expected 4 columns, got 3"),
        "flag": ("a1\tp1\tw\tx\n", "direction must be 'd' or 'u'"),
        "unknown node": ("a1\tzz\tw\tu\n", "unknown node id 'zz'"),
        "direction": ("p1\ta1\tw\td\n", "edge type 'w' used with inconsistent direction flag"),
        "admission": ("a1\ta1\tv\tu\n", "self-loop on 'a1'"),
    }

    @pytest.mark.parametrize("first, second", itertools.permutations(FAULTS, 2))
    def test_earliest_bad_line_wins(self, tmp_path, first, second):
        (line, message), (later, _) = self.FAULTS[first], self.FAULTS[second]
        edges = "a1\tp1\tw\tu\n# c\n" + line + "\n" + later
        with pytest.raises(ValueError, match=rf"e\.tsv line 3: {message}$"):
            load_hin(*write_pair(tmp_path, "a1\tA\np1\tP\n", edges))

    def test_duplicate_edges_warn_and_dedup(self, tmp_path, caplog):
        edges = "a1\tp1\tw\tu\np1\ta1\tw\tu\n"
        with caplog.at_level(logging.WARNING, logger="motifclust.hin"):
            hin = load_hin(*write_pair(tmp_path, "a1\tA\np1\tP\n", edges))
        assert len(hin.edges) == 1
        assert any("duplicate" in rec.message for rec in caplog.records)


# Ids and type names with spaces, non-ASCII characters and "#", so that some
# lines read as comments or as `#types` directives.
NAME = st.text(st.sampled_from("ab \u00e9#\x0b\u2028"), max_size=3)


@st.composite
def faulty_graph_files(draw):
    """The text of a nodes file and an edges file, and a block size: node and
    edge lines of random ids and types, comment, blank and `#types` lines
    anywhere, bad node lines, the bad edge lines of `TestLoadErrors.FAULTS`
    and lines with two faults, CRLF line ends and no final newline."""
    types = draw(st.lists(NAME, min_size=1, max_size=3, unique=True))
    type_of = {"a1": "A", "p1": "P"} if draw(st.booleans()) else {}
    for node in draw(st.lists(NAME, max_size=8, unique=True)):
        type_of[node] = draw(st.sampled_from(types))
    by_type = {}
    for node, t in type_of.items():
        by_type.setdefault(t, []).append(node)
    nodes = [f"{node}\t{t}" for node, t in type_of.items()]
    node_extras = ["", "# c", "#types", " #types A Z", "#types\tP Q", "#typesX A", "x #types",
                   "broken", "a\tb\tc", "a1\tB"]
    signatures, edges = {}, []
    for _ in range(draw(st.integers(0, 10)) if type_of else 0):
        name = draw(st.sampled_from(["w", "v", "\u00e9 x"]))
        if name not in signatures:
            ends = [type_of[draw(st.sampled_from(sorted(type_of)))] for _ in range(2)]
            signatures[name] = (*ends, draw(st.sampled_from("du")))
        src_type, dst_type, flag = signatures[name]
        a, b = (draw(st.sampled_from(by_type[t])) for t in (src_type, dst_type))
        if a != b:
            pair = (b, a) if flag == "u" and draw(st.booleans()) else (a, b)
            edges.append("\t".join(pair) + f"\t{name}\t{flag}")
    edge_extras = ["", "# c", " # c", "#types w", "a1\tp1\tw\tu", "zz\tp1\tw\tx", "a1\tzz\tv\td"]
    edge_extras += [line.rstrip("\n") for line, _ in TestLoadErrors.FAULTS.values()]
    files = []
    for lines, extras in ((nodes, node_extras), (edges, edge_extras)):
        for extra in draw(st.lists(st.sampled_from(extras), max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), extra)
        end = draw(st.sampled_from(["\n", "\r\n"]))
        files.append(end.join(lines) + draw(st.sampled_from([end, ""])))
    return files, draw(st.one_of(st.integers(1, 7), st.just(1 << 16)))


def load_outcome(load, paths):
    """What `load` makes of the graph files: the HIN's fields and the
    warnings logged, or the type and message of the error raised."""
    with mock.patch.object(hin_module.log, "warning") as warn:
        try:
            hin = load(*paths)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return type(exc), str(exc)
    return (hin.type_names, hin.nodes_by_type, hin.edge_types, hin.edges.tolist(), hin.duplicates,
            hin.node_index, warn.call_args_list)


@given(case=faulty_graph_files())
@settings(max_examples=400, deadline=None)
def test_load_equals_load_by_lines(tmp_path_factory, case):
    """Parsing the graph files in columns, by blocks of any size, gives the
    HIN and warnings of the line-by-line loader, or the same error."""
    (nodes, edges), block = case
    folder = tmp_path_factory.mktemp("graph")
    paths = folder / "n.tsv", folder / "e.tsv"
    for path, text in zip(paths, (nodes, edges)):
        path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(hin_module, "READ_BLOCK_CHARS", block):
        assert load_outcome(load_hin, paths) == load_outcome(load_hin_by_lines, paths)


class TestAdmission:
    def test_undirected_edges_stored_in_orient_order_once(self):
        edge_types = [EdgeType("w", False, 0, 1), EdgeType("rel", False, 1, 1)]
        edges = [
            (0, (1, 0), (0, 0)),
            (0, (0, 0), (1, 0)),
            (1, (1, 1), (1, 0)),
            (1, (1, 0), (1, 1)),
        ]
        hin = HIN(["A", "P"], [["a1"], ["p1", "p2"]], edge_types, edge_rows(edges))
        assert hin.edges.tolist() == [[0, 0, 0], [1, 0, 1]]
        assert hin.duplicates == 2

    def test_directed_edges_keep_their_direction(self):
        edge_types = [EdgeType("cites", True, 0, 0), EdgeType("by", True, 0, 1)]
        edges = [(0, (0, 1), (0, 0)), (0, (0, 0), (0, 1))]
        hin = HIN(["P", "A"], [["p1", "p2"], ["a1"]], edge_types, edge_rows(edges))
        assert hin.edges.tolist() == [[0, 0, 1], [0, 1, 0]] and hin.duplicates == 0
        with pytest.raises(EdgeError, match="incompatible node types") as info:
            HIN(["P", "A"], [["p1", "p2"], ["a1"]], edge_types, edge_rows(edges + [(1, (1, 0), (0, 0))]))
        assert info.value.index == 2

    @pytest.mark.parametrize(
        "edge, reason",
        [((0, (0, 1), (0, 1)), "self-loop"), ((0, (0, 0), (0, 5)), "unknown node index")],
    )
    def test_refused_edge_reports_its_index(self, edge, reason):
        with pytest.raises(EdgeError, match=reason) as info:
            HIN(["A"], [["a1", "a2"]], [EdgeType("d", True, 0, 0)], edge_rows([(0, (0, 0), (0, 1)), edge]))
        assert info.value.index == 1 and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("etype", [-1, 1])
    def test_unknown_edge_type_id_refused(self, etype):
        edge_types = [EdgeType("d", True, 0, 0)]
        good, bad = (0, (0, 0), (0, 1)), (etype, (0, 0), (0, 1))
        with pytest.raises(EdgeError, match=f"unknown edge type id {etype}") as info:
            HIN(["A"], [["a1", "a2"]], edge_types, edge_rows([good, bad, bad]))
        assert info.value.index == 1
        with pytest.raises(EdgeError, match="self-loop") as info:  # the first refused row
            HIN(["A"], [["a1", "a2"]], edge_types, edge_rows([good, (0, (0, 1), (0, 1)), bad]))
        assert info.value.index == 1

    @pytest.mark.parametrize("src, dst", [(0, 5), (-1, 0)])
    def test_edge_type_endpoints_must_be_type_ids(self, src, dst):
        for edges in ([], [(0, (0, 0), (0, 1))]):
            with pytest.raises(ValueError, match="edge type 'd' joins node type ids"):
                HIN(["A"], [["a1", "a2"]], [EdgeType("d", True, src, dst)], edge_rows(edges))

    def test_duplicate_edge_type_names_refused(self):
        edge_types = [EdgeType("d", True, 0, 0), EdgeType("d", False, 0, 0)]
        with pytest.raises(ValueError, match="duplicate edge type names"):
            HIN(["A"], [["a1", "a2"]], edge_types, edge_rows([(1, (0, 0), (0, 1))]))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_admission_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = [int(n) for n in rng.integers(1, 6, size=int(rng.integers(2, 4)))]
        edge_types = [EdgeType("same", False, 0, 0)]  # undirected, one type at both ends
        for e in range(int(rng.integers(1, 5))):
            src, dst = (int(t) for t in rng.integers(0, len(num_nodes), size=2))
            edge_types.append(EdgeType(f"e{e}", bool(rng.integers(0, 2)), src, dst))
        edges = [
            (etype, (et.src_type, u), (et.dst_type, v))
            for etype, et in enumerate(edge_types)
            for u in range(num_nodes[et.src_type])
            for v in range(num_nodes[et.dst_type])
            if (et.src_type, u) != (et.dst_type, v) and rng.random() < 0.5
        ]
        edges += [edges[k] for k in rng.integers(0, len(edges), size=len(edges) // 4)]
        edges = [
            (e, b, a) if not edge_types[e].directed and rng.random() < 0.5 else (e, a, b)
            for e, a, b in edges
        ]
        rng.shuffle(edges)
        type_names = [f"T{t}" for t in range(len(num_nodes))]
        nodes = [[f"T{t}n{j}" for j in range(n)] for t, n in enumerate(num_nodes)]

        rows, duplicates, refused = admit_edges(edge_types, num_nodes, edges)
        assert refused is None
        hin = HIN(type_names, nodes, edge_types, edge_rows(edges))
        assert hin.edges.tolist() == [list(r) for r in rows] and hin.duplicates == duplicates
        for etype in range(len(edge_types)):
            for forward in (True, False):
                want = adjacency_pairs(edge_types, rows, etype, forward)
                assert csr_pairs(hin, etype, forward) == want

        bad = [
            (0, (0, 0), (0, 0)),                           # self-loop
            (0, (0, 0), (1, 0)),                           # incompatible node types
            (0, (0, 0), (0, num_nodes[0])),                # unknown node index
        ]
        for k in rng.permutation(len(bad))[: int(rng.integers(1, 3))]:
            edges.insert(int(rng.integers(0, len(edges) + 1)), bad[k])
        refused = admit_edges(edge_types, num_nodes, edges)[2]
        with pytest.raises(EdgeError) as info:
            HIN(type_names, nodes, edge_types, edge_rows(edges))
        assert info.value.index == refused


    @pytest.mark.parametrize("seed", range(10))
    def test_array_rows_admit_like_triples(self, seed):
        rng = np.random.default_rng(seed)
        edge_types = [EdgeType("same", False, 0, 0), EdgeType("ab", False, 0, 1), EdgeType("ba", True, 1, 0)]
        nodes = [["a0", "a1", "a2"], ["b0", "b1"]]
        edges = []
        for _ in range(int(rng.integers(0, 12))):
            etype = int(rng.integers(0, 3))
            types = [edge_types[etype].src_type, edge_types[etype].dst_type]
            if etype == 1 and rng.random() < 0.5:
                types.reverse()  # the other way round the signature
            src, dst = ((t, int(rng.integers(0, len(nodes[t])))) for t in types)
            if src != dst:
                edges.append((etype, src, dst))
        rows = edge_rows(edges)
        before = rows.copy()
        hin = HIN(["A", "B"], nodes, edge_types, rows)
        want, duplicates, _ = admit_edges(edge_types, [3, 2], edges)
        assert hin.edges.tolist() == [list(r) for r in want] and hin.duplicates == duplicates
        assert np.array_equal(rows, before)  # the caller's rows are not oriented in place

    # Three valid rows for one directed edge type over three nodes of one type.
    VALID_ROWS = np.array([(0, 0, 0, 0, 1), (0, 0, 1, 0, 2), (0, 0, 2, 0, 0)])

    @pytest.mark.parametrize(
        "edges",
        [
            VALID_ROWS.reshape(5, 3),  # the layout of `HIN.edges`, not of rows
            VALID_ROWS.reshape(3, 5, 1),
            VALID_ROWS.ravel(),
            [[0, 0, 0.7, 0, 2.9]],
            VALID_ROWS.astype(np.float64),
            VALID_ROWS.astype(bool),
        ],
        ids=["5x3", "3x5x1", "flat", "fractions", "float", "bool"],
    )
    def test_edges_other_than_integer_rows_of_five_refused(self, edges):
        with pytest.raises(ValueError, match=r"edges must be \(n, 5\) integer rows"):
            HIN(["A"], [["a1", "a2", "a3"]], [EdgeType("d", True, 0, 0)], edges)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_integer_rows_of_five_admitted(self, dtype):
        edge_types = [EdgeType("d", True, 0, 0)]
        hin = HIN(["A"], [["a1", "a2", "a3"]], edge_types, self.VALID_ROWS.astype(dtype))
        assert hin.edges.tolist() == [[0, 0, 1], [0, 1, 2], [0, 2, 0]]
        empty = HIN(["A"], [["a1", "a2", "a3"]], edge_types, np.empty((0, 5), dtype=dtype))
        assert empty.edges.shape == (0, 3)

    def test_orient_of_arrays_is_orient_of_each_edge(self):
        ends = list(itertools.product(range(2), range(3)))
        pairs = [(a, b) for a in ends for b in ends]
        for et in (EdgeType("d", True, 0, 1), EdgeType("u", False, 0, 1), EdgeType("s", False, 1, 1)):
            src, dst = (np.array(side).T for side in zip(*pairs))
            (st, sj), (dt, dj) = orient(et, tuple(src), tuple(dst))
            got = [((a, b), (c, d)) for a, b, c, d in zip(st.tolist(), sj.tolist(), dt.tolist(), dj.tolist())]
            assert got == [orient(et, a, b) for a, b in pairs]


@st.composite
def admission_cases(draw):
    """`(nodes_by_type, edge_types, rows)` for `HIN`: up to three node types
    of 1 to 4 nodes and up to four edge types between any two of them,
    directed or not. The rows fit the edge types, undirected ones either way
    round (same-type swaps and reversed cross-type rows). In half of the
    cases, about one row in eight is drawn from anything instead: unknown edge
    type ids, endpoint types or indices outside the graph, and self-loops."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    types = st.integers(0, len(sizes) - 1)
    edge_types = [EdgeType(f"e{k}", draw(st.booleans()), draw(types), draw(types))
                  for k in range(draw(st.integers(0, 4)))]
    faulty = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        if faulty and draw(st.integers(0, 7)) == 0:
            rows.append(draw(st.tuples(st.integers(-2, len(edge_types) + 1), st.integers(-1, len(sizes)),
                                       st.integers(-1, 4), st.integers(-1, len(sizes)), st.integers(-1, 4))))
        elif edge_types:
            k = draw(st.integers(0, len(edge_types) - 1))
            et = edge_types[k]
            ends = [(t, draw(st.integers(0, sizes[t] - 1))) for t in (et.src_type, et.dst_type)]
            if not et.directed and draw(st.booleans()):
                ends.reverse()
            if faulty or ends[0] != ends[1]:
                rows.append((k, *ends[0], *ends[1]))
    nodes = [[f"T{t}n{j}" for j in range(n)] for t, n in enumerate(sizes)]
    return nodes, edge_types, np.array(rows, dtype=np.int64).reshape(-1, 5)


class TestOnePassAdmission:
    """`HIN` orients every row in one pass, and builds each CSR adjacency on
    first use, as the loops over edge types did."""

    @given(case=admission_cases(), order=st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_equals_per_edge_type_loop(self, case, order):
        nodes, edge_types, rows = case
        names = [f"T{t}" for t in range(len(nodes))]
        try:
            want, duplicates = admit_per_edge_type(nodes, edge_types, rows)
        except EdgeError as exc:
            with pytest.raises(EdgeError) as info:
                HIN(names, nodes, edge_types, rows)
            assert (info.value.index, info.value.reason) == (exc.index, exc.reason)
            return
        hin = HIN(names, nodes, edge_types, rows)
        assert hin.edges.dtype == want.dtype and np.array_equal(hin.edges, want)
        assert hin.duplicates == duplicates
        eager = eager_adjacency(hin)
        keys = list(eager)
        order.shuffle(keys)  # built in any order, each on its first request
        for key in keys + keys:
            got = hin.adjacency(*key)
            assert [a.dtype for a in got] == [a.dtype for a in eager[key]]
            assert all(np.array_equal(a, b) for a, b in zip(got, eager[key]))

    @pytest.mark.parametrize("etype", [-1, -3, 2, 7, np.int64(-1), np.int64(2)])
    @pytest.mark.parametrize("forward", [True, False])
    def test_adjacency_of_an_unknown_edge_type_is_a_key_error(self, etype, forward):
        edge_types = [EdgeType("d", True, 0, 0), EdgeType("u", False, 0, 0)]
        hin = HIN(["A"], [["a0", "a1"]], edge_types, edge_rows([(0, (0, 0), (0, 1)), (1, (0, 1), (0, 0))]))
        with pytest.raises(KeyError):  # neither an IndexError nor edge type etype % 2
            hin.adjacency(etype, forward)

    def test_enumeration_builds_the_adjacency_of_its_edge_types_only(self, toy_paths):
        hin = load_hin(*toy_paths)
        assert not hin._adj
        motif = parse_motif(json.dumps({
            "name": "w", "nodes": [{"id": "a", "type": "A"}, {"id": "p", "type": "P"}],
            "edges": [{"src": "a", "dst": "p", "etype": "writes", "dir": "u"}],
        }), hin)
        enumerate_instances(hin, motif)
        assert {etype for etype, _ in hin._adj} == {hin.edge_type_id("writes")}


class TestProperties:
    def test_round_trip(self, toy_paths, tmp_path):
        hin = load_hin(*toy_paths)
        n2, e2 = tmp_path / "n2.tsv", tmp_path / "e2.tsv"
        write_hin(hin, n2, e2)
        assert load_hin(n2, e2) == hin

    def test_undirected_symmetry(self, toy_paths):
        hin = load_hin(*toy_paths)
        for name, et in zip([e.name for e in hin.edge_types], hin.edge_types):
            if et.directed:
                continue
            e = hin.edge_type_id(name)
            for u in range(hin.num_nodes(et.src_type)):
                for v in row(hin, e, True, u):
                    assert u in row(hin, e, False, v)
            for v in range(hin.num_nodes(et.dst_type)):
                for u in row(hin, e, False, v):
                    assert v in row(hin, e, True, u)

    def test_directed_adjacency_is_transpose(self, toy_paths):
        hin = load_hin(*toy_paths)
        e = hin.edge_type_id("cites")
        pairs_fwd = csr_pairs(hin, e, True)
        pairs_rev = {(u, v) for v, u in csr_pairs(hin, e, False)}
        assert pairs_fwd == pairs_rev == {(1, 0)}  # p2 cites p1

    def test_same_type_undirected_edges(self, tmp_path):
        nodes = "p1\tP\np2\tP\np3\tP\n"
        edges = "p1\tp2\trel\tu\np2\tp3\trel\tu\n"
        hin = load_hin(*write_pair(tmp_path, nodes, edges))
        e = hin.edge_type_id("rel")
        assert row(hin, e, True, 1) == [0, 2]
        assert row(hin, e, True, 1) == row(hin, e, False, 1)


# Names, one in eight with characters that the graph files cannot hold in
# some places.
WRITE_NAME = st.sampled_from([False] * 7 + [True]).flatmap(lambda odd: st.one_of(
    st.sampled_from(["#types", " #types", "a b", "#a", ""]),
    st.text(st.sampled_from("a #\t\n\r\x0b\u2028\u00e9"), max_size=3),
) if odd else st.text("ab\u00e9\x00", min_size=1, max_size=3))


@st.composite
def hins(draw):
    """An HIN of random names: types with or without nodes, and directed and
    undirected edge types between any two types with nodes."""
    types = draw(st.lists(WRITE_NAME, min_size=1, max_size=3, unique=True))
    nodes_by_type = [[] for _ in types]
    for node in draw(st.lists(WRITE_NAME, min_size=2, max_size=6, unique=True)):
        nodes_by_type[draw(st.integers(0, len(types) - 1))].append(node)
    edge_types, rows = [], []
    for k, name in enumerate(draw(st.lists(WRITE_NAME, min_size=1, max_size=3, unique=True))):
        s = draw(st.sampled_from([t for t, nodes in enumerate(nodes_by_type) if nodes]))
        d = draw(st.sampled_from([t for t, nodes in enumerate(nodes_by_type) if len(nodes) > (t == s)] or [s]))
        edge_types.append(EdgeType(name, draw(st.booleans()), s, d))
        if nodes_by_type[s] and nodes_by_type[d]:
            for _ in range(draw(st.integers(1, 4))):
                i, j = (draw(st.integers(0, len(nodes_by_type[t]) - 1)) for t in (s, d))
                if (s, i) != (d, j):
                    rows.append((k, s, i, d, j))
    return HIN(types, nodes_by_type, edge_types, np.array(rows, dtype=np.int64).reshape(-1, 5))


class TestWriteHin:
    """`write_hin` writes only graphs that `load_hin` reads back equal."""

    @pytest.mark.parametrize(
        "types, nodes, edge_types, edges, message",
        [
            # Read back without the node and its edge: the line was a comment.
            (["A", "B"], [["#a"], ["b"]], [EdgeType("w", False, 0, 1)], [(0, 0, 0, 1, 0)], "node id '#a'"),
            # Read back as the types "my", "type" and "my type".
            (["my type"], [["a"]], [], [], "type name 'my type'"),
            # Read back with the type ids swapped.
            (["", "B"], [["a"], ["b"]], [], [], "type name ''"),
            (["A"], [["a\tb"]], [], [], r"name 'a\\tb' holds a tab, LF or CR"),
            (["A"], [["a\rb"]], [], [], r"name 'a\\rb' holds a tab, LF or CR"),
            (["A"], [["a", "b"]], [EdgeType("w\nx", True, 0, 0)], [(0, 0, 0, 0, 1)], r"name 'w\\nx'"),
            (["A"], [[" #types"]], [], [], "node id ' #types' would read as a comment or as the #types line"),
            (["#types"], [[""]], [], [], "node id '' would read as a comment or as the #types line"),
            (["A"], [["a"]], [EdgeType("w", True, 0, 0)], [], "edge type 'w' has no edges"),
        ],
        ids=["hash_id", "space_in_type", "empty_type", "tab", "cr", "lf_in_edge_type", "directive_id",
             "directive_type", "edge_type_without_edges"],
    )
    def test_refuses_what_the_files_cannot_hold(self, tmp_path, types, nodes, edge_types, edges, message):
        hin = HIN(types, nodes, edge_types, np.array(edges, dtype=np.int64).reshape(-1, 5))
        paths = tmp_path / "n.tsv", tmp_path / "e.tsv"
        with pytest.raises(ValueError, match=message):
            write_hin(hin, *paths)
        assert not any(path.exists() for path in paths)

    @given(hin=hins())
    @settings(max_examples=300, deadline=None)
    def test_what_is_written_reads_back_equal(self, tmp_path_factory, hin):
        folder = tmp_path_factory.mktemp("written")
        paths = folder / "n.tsv", folder / "e.tsv"
        try:
            write_hin(hin, *paths)
        except ValueError as exc:
            names = [*hin.type_names, *itertools.chain(*hin.nodes_by_type), *(et.name for et in hin.edge_types)]
            assert any(repr(name) in str(exc) for name in names)
            return
        got = load_hin(*paths)
        assert got == hin and got.node_index == hin.node_index


def planted_quad():
    """The tensor of the quad motif of the default planted graph."""
    hin = generate_planted_hin(PlantedConfig(rng_seed=3)).hin
    motif = parse_motif(json.dumps(default_templates()[1].motif_spec()), hin)
    return transcribe(hin, motif, enumerate_instances(hin, motif))


# Text of ids and edge type names: any character but tab, CR and LF (the
# file separators) or a lone surrogate, with NUL, U+2028 and non-ASCII
# characters drawn often. Type names also hold no whitespace, as `#types` splits on it.
LINE_TEXT = st.text(
    st.one_of(st.sampled_from("\x00\u2028\u00e9\U0001f600"),
              st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",))),
    min_size=1, max_size=5,
)
TYPE_NAMES = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=3)


@st.composite
def graph_files(draw):
    """The text of a nodes file and an edges file that `load_hin` accepts: an
    empty `#types` type, directed types, undirected same-type types, and
    edges repeated as written or the other way round."""
    types = draw(st.lists(TYPE_NAMES, min_size=2, max_size=4, unique=True))
    ids = draw(st.lists(LINE_TEXT.filter(lambda s: not s.startswith("#")), min_size=2, max_size=12, unique=True))
    node_types = draw(st.lists(st.sampled_from(types[1:]), min_size=len(ids), max_size=len(ids)))
    nodes = [f"#types {types[0]}"] + [f"{n}\t{t}" for n, t in zip(ids, node_types)]
    by_type = {t: [n for n, nt in zip(ids, node_types) if nt == t] for t in types}
    edge_types = draw(st.lists(LINE_TEXT, min_size=1, max_size=3, unique=True))
    edges = []
    for name in edge_types:
        src = draw(st.sampled_from([t for t in types if by_type[t]]))
        dst = draw(st.sampled_from([t for t in types if len(by_type[t]) > (t == src)]))
        flag = draw(st.sampled_from("du"))
        for _ in range(draw(st.integers(1, 6))):
            a = draw(st.sampled_from(by_type[src]))
            b = draw(st.sampled_from([n for n in by_type[dst] if n != a]))
            edges.append((a, b, name, flag))
            if draw(st.booleans()):  # a repeat, the other way round where that is the same edge
                edges.append((b, a, name, flag) if flag == "u" and src == dst else (a, b, name, flag))
    order = draw(st.permutations(range(len(edges))))
    edges = [edges[k] for k in order]
    # The first edge of a type fixes its signature, so the other edges of an
    # undirected type may be written the other way round.
    first = {}
    for k, (a, b, name, flag) in enumerate(edges):
        if first.setdefault(name, k) != k and flag == "u" and draw(st.booleans()):
            edges[k] = (b, a, name, flag)
    return "".join(line + "\n" for line in nodes), "".join("\t".join(e) + "\n" for e in edges)


class TestSnapshot:
    """`read_snapshot` gives back the `load_hin` graph and the tensors that
    `write_snapshot` stored."""

    # Tensors of no instance (as a motif without instances transcribes), of
    # order 1, with a name that is not ASCII, and of the planted quad.
    TENSORS = {
        "empty": SparseTensor.empty((8, 8, 8)),
        "order_1_\u00e9": SparseTensor((5,), [[1], [4]], [0.5, 2.0]),
        "quad": planted_quad(),
    }
    # The tensors of the damages below.
    PAIR = {"pair": SparseTensor((3, 4), [[0, 1], [2, 3]], [0.25, 0.75])}

    # An empty `#types` type, ids equal but for a trailing NUL, undirected
    # same-type edges and two duplicate edges, each written the other way round.
    EDGE_CASES = (
        "#types A B Empty\na\tA\na\x00\tA\nb1\tB\nb2\tB\n",
        "a\tb1\tab\tu\nb1\ta\tab\tu\nb1\tb2\tbb\tu\nb2\tb1\tbb\tu\n"
        "a\x00\tb2\tab\tu\na\ta\x00\taa\td\na\x00\ta\taa\td\n",
    )

    @pytest.fixture(params=["toy", "planted", "edge_cases"])
    def graph_paths(self, request, tmp_path):
        if request.param == "toy":
            return request.getfixturevalue("toy_paths")
        if request.param == "planted":
            paths = tmp_path / "n.tsv", tmp_path / "e.tsv"
            write_hin(generate_planted_hin(PlantedConfig(rng_seed=3)).hin, *paths)
            return paths
        return write_pair(tmp_path, *self.EDGE_CASES)

    def test_equals_load_hin(self, graph_paths, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="motifclust.hin"):
            hin = load_hin(*graph_paths)
            parsed_warnings = [rec.getMessage() for rec in caplog.records]
            caplog.clear()
            write_snapshot(hin, self.TENSORS, tmp_path / "g.npz", "key", "motif key")
            got, tensors = read_snapshot(tmp_path / "g.npz", "key", "motif key", graph_paths[1])
        assert got == hin
        assert list(tensors) == list(self.TENSORS) and tensors == self.TENSORS
        assert all((t.indices.dtype, t.values.dtype) == (np.int32, np.float64) for t in tensors.values())
        assert (got.node_index, got.edge_type_ids) == (hin.node_index, hin.edge_type_ids)
        assert got.duplicates == hin.duplicates
        assert [rec.getMessage() for rec in caplog.records] == parsed_warnings
        for k in range(len(hin.edge_types)):
            for forward in (True, False):
                for a, b in zip(got.adjacency(k, forward), hin.adjacency(k, forward)):
                    assert np.array_equal(a, b) and a.dtype == b.dtype

    @given(files=graph_files(), key=LINE_TEXT, motif_key=LINE_TEXT, motif=LINE_TEXT)
    @settings(max_examples=150, deadline=None)
    def test_header_round_trip(self, tmp_path_factory, files, key, motif_key, motif):
        """Random graph files, ids and keys with any character the files allow
        come back from the header as `load_hin` read them."""
        folder = tmp_path_factory.mktemp("snapshot")
        nodes, edges = folder / "n.tsv", folder / "e.tsv"
        nodes.write_bytes(files[0].encode("utf-8"))
        edges.write_bytes(files[1].encode("utf-8"))
        tensors = {motif: SparseTensor((3, 2), [[2, 1]], [0.5])}
        with mock.patch.object(hin_module.log, "warning") as warn:
            hin = load_hin(nodes, edges)
            parsed = warn.call_args_list
            warn.reset_mock()
            write_snapshot(hin, tensors, folder / "g.npz", key, motif_key)
            got, got_tensors = read_snapshot(folder / "g.npz", key, motif_key, edges)
            assert warn.call_args_list == parsed
        assert got == hin and got_tensors == tensors
        assert (got.node_index, got.duplicates) == (hin.node_index, hin.duplicates)

    def test_edge_cases_are_present(self, tmp_path):
        hin = load_hin(*write_pair(tmp_path, *self.EDGE_CASES))
        assert hin.nodes_by_type == [["a", "a\x00"], ["b1", "b2"], []]
        assert hin.duplicates == 2
        assert not hin.edge_types[hin.edge_type_id("bb")].directed

    def test_other_key_is_refused(self, toy_paths, tmp_path):
        write_snapshot(load_hin(*toy_paths), self.PAIR, tmp_path / "g.npz", "key", "motif key")
        with pytest.raises(ValueError, match="written for other graph files"):
            read_snapshot(tmp_path / "g.npz", "other", "motif key", toy_paths[1])

    def test_other_motif_key_serves_the_graph_alone(self, toy_paths, tmp_path):
        """Under another motif key, no tensor array is read, so a damaged one
        does not matter."""
        hin = load_hin(*toy_paths)
        path = tmp_path / "g.npz"
        write_snapshot(hin, self.PAIR, path, "key", "motif key")
        damage_snapshot(path, lambda arrays, data: dict(arrays, values0=arrays["values0"].astype(object)))
        assert read_snapshot(path, "key", "other", toy_paths[1]) == (hin, None)

    @pytest.mark.parametrize(
        "damage, reason",
        [
            pytest.param(lambda arrays, data: data[: len(data) // 2], "not a zip file", id="truncated"),
            pytest.param(lambda arrays, data: b"", "No data left", id="empty"),
            pytest.param(
                lambda arrays, data: data.replace(
                    arrays["edges"].tobytes(), (arrays["edges"] ^ 1).tobytes()
                ),
                "Bad CRC-32",
                id="edges_edited",
            ),
            pytest.param(
                lambda arrays, data: dict(arrays, header=np.array(["x"], dtype=object)),
                "allow_pickle=False",
                id="object_array",
            ),
            pytest.param(
                lambda arrays, data: dict(arrays, edges=arrays["edges"] * 1.0),
                "'edges' is float64",
                id="float_edges",
            ),
            pytest.param(header_edited(lambda h: b'{"key": '), "header does not read as JSON: Expecting",
                         id="names_not_json"),
            pytest.param(header_edited(lambda h: b'{"\xff": 1}'), "header does not read as JSON: 'utf-8'",
                         id="names_not_utf8"),
            pytest.param(header_edited(lambda h: [*h.values()][:2]), "header is not", id="names_two_items"),
            pytest.param(header_edited(lambda h: "abc"), "header is not", id="names_a_string"),
            pytest.param(
                header_edited(lambda h: {k: v for k, v in h.items() if k != "duplicates"}),
                "header is not", id="header_key_missing",
            ),
            pytest.param(header_edited(lambda h: dict(h, extra=1)), "header is not", id="header_extra_key"),
            pytest.param(header_edited(lambda h: dict(h, key=7)), "header is not", id="header_key_number"),
            pytest.param(
                header_edited(lambda h: dict(h, duplicates=0.0)), "header is not", id="header_duplicates_float",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, duplicates=True)), "header is not", id="header_duplicates_bool",
            ),
            pytest.param(header_edited(lambda h: dict(h, types="AB")), "header is not", id="header_types_a_string"),
            pytest.param(
                header_edited(lambda h: dict(h, nodes=[[7, *h["nodes"][0][1:]], *h["nodes"][1:]])),
                "header is not", id="names_node_id_number",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, nodes=["a1", *h["nodes"][1:]])),
                "header is not", id="names_node_ids_a_string",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, edge_types=[[n, int(d), s, t] for n, d, s, t in h["edge_types"]])),
                "header is not", id="names_directed_number",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, edge_types=[[n, d, str(s), t] for n, d, s, t in h["edge_types"]])),
                "header is not", id="names_type_id_string",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, edge_types=[et[:3] for et in h["edge_types"]])),
                "header is not", id="names_short_signature",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, edge_types=[[n, d, 10**30, t] for n, d, s, t in h["edge_types"]])),
                "joins node type ids", id="names_type_id_huge",
            ),
            pytest.param(pre_names_layout, "unreadable: .header is not a file", id="old_layout"),
            pytest.param(names_layout, "unreadable: .header is not a file", id="names_layout"),
            pytest.param(
                lambda arrays, data: {k: v for k, v in arrays.items() if k != "edges"},
                "edges is not a file",
                id="missing_array",
            ),
            pytest.param(
                lambda arrays, data: dict(arrays, edges=arrays["edges"] + [99, 0, 0]),
                "unknown edge type id 99",
                id="edge_type_id",
            ),
            pytest.param(lambda arrays, data: arrays["edges"], "not an .npz", id="npy_file"),
            pytest.param(
                header_edited(lambda h: dict(h, duplicates=-5)), "duplicates count -5 is negative",
                id="negative_duplicates",
            ),
            pytest.param(  # the graph key is checked first
                header_edited(lambda h: dict(h, key="other", duplicates=-5, motif_key="other")),
                "written for other graph files", id="other_key_first",
            ),
            pytest.param(  # then the duplicate count, before any tensor is read
                header_edited(lambda h: dict(h, duplicates=-5, tensors=[["pair", [3]]])),
                "duplicates count -5 is negative", id="duplicates_before_tensors",
            ),
            pytest.param(
                lambda arrays, data: dict(arrays, indices0=arrays["indices0"] + np.int32(3)),
                "tensor 'pair': index out of bounds",
                id="tensor_index_out_of_bounds",
            ),
            pytest.param(
                lambda arrays, data: dict(arrays, indices0=arrays["indices0"] * 1.0),
                "'indices0' is float64",
                id="tensor_float_indices",
            ),
            pytest.param(
                lambda arrays, data: {k: v for k, v in arrays.items() if k != "indices0"},
                "indices0 is not a file",
                id="tensor_missing_indices",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, tensors=[[name, [*dims, 2]] for name, dims in h["tensors"]])),
                r"'indices0' is int32 of shape \(2, 2\)",
                id="tensor_dims_disagree_with_width",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, tensors=[name for name, _ in h["tensors"]])),
                "header is not", id="tensors_without_dims",
            ),
            pytest.param(
                header_edited(lambda h: dict(h, tensors=[[name, [3.0, 4]] for name, _ in h["tensors"]])),
                "header is not", id="tensor_dims_float",
            ),
            pytest.param(
                lambda arrays, data: data.replace(
                    arrays["values0"].tobytes(), (arrays["values0"] + 1).tobytes()
                ),
                "Bad CRC-32",
                id="tensor_value_edited",
            ),
        ],
    )
    def test_damaged_snapshot_is_refused(self, toy_paths, tmp_path, damage, reason):
        path = tmp_path / "g.npz"
        write_snapshot(load_hin(*toy_paths), self.PAIR, path, "key", "motif key")
        damage_snapshot(path, damage)
        with pytest.raises(ValueError, match=reason):
            read_snapshot(path, "key", "motif key", toy_paths[1])
