import numpy as np
import pytest

from motifclust.metrics import accuracy_micro_f1, macro_f1, nmi
from motifclust.planted import (
    MotifTemplate,
    PlantedConfig,
    default_templates,
    generate_planted_hin,
)

from oracles import sample_template_tuples


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_micro_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_hand_case(self):
        assert accuracy_micro_f1([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_all_wrong(self):
        assert accuracy_micro_f1([0, 0], [1, 1]) == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy_micro_f1([], [])

    def test_equals_micro_f1_computed_from_class_counts(self):
        # micro-F1 aggregated over per-class TP/FP/FN collapses to accuracy
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            pred = rng.integers(0, 4, size=n)
            true = rng.integers(0, 4, size=n)
            tp = fp = fn = 0
            for c in np.unique(np.concatenate([pred, true])):
                tp += int(np.sum((pred == c) & (true == c)))
                fp += int(np.sum((pred == c) & (true != c)))
                fn += int(np.sum((pred != c) & (true == c)))
            micro = 2 * tp / (2 * tp + fp + fn)
            assert accuracy_micro_f1(pred, true) == pytest.approx(micro, abs=1e-12)


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 0], [0, 1, 0]) == 1.0

    def test_hand_case(self):
        assert macro_f1([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(11 / 15)

    def test_constant_prediction(self):
        assert macro_f1([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(1 / 3)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pred = rng.integers(0, 4, size=n)
            true = rng.integers(0, 4, size=n)
            assert 0.0 <= macro_f1(pred, true) <= 1.0


class TestNmi:
    def test_identical_nontrivial(self):
        assert nmi([0, 1, 0, 2], [0, 1, 0, 2]) == pytest.approx(1.0)

    def test_independent_two_by_two_is_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_statistically_independent_labels(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 2, size=10_000)
        pred = rng.integers(0, 2, size=10_000)
        assert nmi(pred, true) < 0.05

    def test_both_single_cluster(self):
        assert nmi([3, 3, 3], [1, 1, 1]) == 1.0

    def test_one_side_degenerate(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_symmetry_and_relabeling(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            pred = rng.integers(0, 4, size=n)
            true = rng.integers(0, 4, size=n)
            assert nmi(pred, true) == pytest.approx(nmi(true, pred), abs=1e-12)
            relabeled = (pred + 7) % 11  # injective on 0..3
            assert nmi(relabeled, true) == pytest.approx(nmi(pred, true), abs=1e-12)

    def test_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            pred = rng.integers(0, 5, size=n)
            true = rng.integers(0, 5, size=n)
            expected = sklearn_metrics.normalized_mutual_info_score(
                true, pred, average_method="arithmetic"
            )
            assert nmi(pred, true) == pytest.approx(expected, abs=1e-10)

    def test_common_permutation_invariance_all_metrics(self):
        rng = np.random.default_rng(4)
        perm = np.array([2, 0, 3, 1])
        for _ in range(20):
            n = int(rng.integers(1, 50))
            pred = rng.integers(0, 4, size=n)
            true = rng.integers(0, 4, size=n)
            for fn in (accuracy_micro_f1, macro_f1, nmi):
                assert fn(perm[pred], perm[true]) == pytest.approx(fn(pred, true), abs=1e-12)


class TestGenerator:
    def test_zero_noise_keeps_instances_intra_block(self):
        config = PlantedConfig(noise=0.0, rng_seed=5)
        data = generate_planted_hin(config)
        block = config.nodes_per_type // config.n_clusters
        for name, tuples in data.instances.items():
            blocks = tuples // block
            assert np.all(blocks == blocks[:, :1])

    def test_full_noise_matches_intra_count(self):
        # noise is the cross-to-intra instance count ratio: at 1.0 half of the
        # planted instances ignore the blocks entirely
        config = PlantedConfig(noise=1.0, rng_seed=6)
        data = generate_planted_hin(config)
        block = config.nodes_per_type // config.n_clusters
        tuples = data.instances["quad"]
        blocks = tuples // block
        cross = np.any(blocks != blocks[:, :1], axis=1)
        assert cross.mean() == pytest.approx(0.5, abs=0.01)

    def test_deterministic_and_counts_match_recount(self):
        config = PlantedConfig(rng_seed=7)
        d1 = generate_planted_hin(config)
        d2 = generate_planted_hin(config)
        for name in d1.instances:
            np.testing.assert_array_equal(d1.instances[name], d2.instances[name])
        assert d1.labels == d2.labels and d1.seeds == d2.seeds
        # recount: every pair instance is one 'ab' edge; dedup'd edge count of
        # that type must equal the distinct instance count
        ab_edges = np.count_nonzero(d1.hin.edges[:, 0] == d1.hin.edge_type_id("ab"))
        assert ab_edges == len({tuple(t) for t in d1.instances["pair"].tolist()})

    def test_seed_fraction_per_block(self):
        config = PlantedConfig(seed_fraction=0.05, rng_seed=8)
        data = generate_planted_hin(config)
        block = config.nodes_per_type // config.n_clusters
        per_block = max(1, round(0.05 * block))
        assert len(data.seeds) == per_block * config.n_clusters * len(config.type_names)
        for node, label in data.seeds.items():
            assert data.labels[node] == label

    def test_every_covered_node_appears_in_some_instance(self):
        config = PlantedConfig(rng_seed=9)
        data = generate_planted_hin(config)
        quad = data.instances["quad"]
        template = config.templates[1]
        for t in set(template.node_types):
            positions = [p for p, tt in enumerate(template.node_types) if tt == t]
            covered = set(quad[:, positions].ravel().tolist())
            assert covered == set(range(config.nodes_per_type))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_clusters", 3.0),
            ("n_clusters", True),
            ("nodes_per_type", 60.0),
            ("nodes_per_type", "60"),
            ("rng_seed", True),
            ("rng_seed", 1.5),
        ],
    )
    def test_integer_fields_refuse_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            generate_planted_hin(PlantedConfig(**{name: value}))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("noise", True),
            ("noise", "0.1"),
            ("noise", None),
            ("seed_fraction", True),
            ("seed_fraction", np.bool_(False)),
        ],
    )
    def test_real_fields_refuse_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            generate_planted_hin(PlantedConfig(**{name: value}))

    def test_numpy_integer_fields_build_the_same_graph(self):
        config = PlantedConfig(n_clusters=np.int64(3), nodes_per_type=np.int32(30), rng_seed=np.uint8(4))
        expected = generate_planted_hin(PlantedConfig(n_clusters=3, nodes_per_type=30, rng_seed=4))
        assert generate_planted_hin(config).hin == expected.hin

    @pytest.mark.parametrize(
        "templates, message",
        [
            pytest.param((MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),), signal="false"),),
                         "signal must be true or false, got 'false'", id="signal_a_string"),
            pytest.param((MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),), signal=0),),
                         "signal must be true or false, got 0", id="signal_an_integer"),
            pytest.param((MotifTemplate("pair", ("A", "B"), ((0.0, 1, "ab"),)),),
                         r"an edge position must be an integer, got 0\.0", id="edge_position_a_float"),
            pytest.param((MotifTemplate("pair", ("A", "B"), ((0, True, "ab"),)),),
                         "an edge position must be an integer, got True", id="edge_position_a_bool"),
            pytest.param((MotifTemplate("pair", "AB", ((0, 1, "ab"),)),),
                         "node_types must be a list of strings, got 'AB'", id="node_types_a_string"),
            pytest.param((MotifTemplate("pair", ("A", 1), ((0, 1, "ab"),)),),
                         r"node_types must be a list of strings, got \('A', 1\)", id="node_type_an_integer"),
            pytest.param((MotifTemplate("pair", ("A", "B"), ((0, 1),)),),
                         r"edge \(0, 1\) is not \[int, int, edge type name\]",
                         id="edge_of_two_entries"),
            pytest.param((MotifTemplate("pair", (), ()),), "node_types must not be empty", id="no_node_types"),
            pytest.param((MotifTemplate("pair", ("A", "B"), ()),),
                         "its edges do not make a motif: motif 'pair': pattern is not connected",
                         id="no_edges"),
            pytest.param((MotifTemplate("pair", ("A", "B", "C"), ((0, 1, "ab"),)),),
                         "its edges do not make a motif: motif 'pair': pattern is not connected",
                         id="edges_not_connected"),
            pytest.param((MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"), (1, 0, "ab"))),),
                         "its edges do not make a motif: motif 'pair' edge n1-n0: duplicate pattern edge",
                         id="edge_twice"),
            pytest.param((MotifTemplate("pair", ("A", "B"), 3),), "edges must be a list, got 3", id="edges_an_integer"),
            pytest.param(  # `instances` is keyed by name: the second template's tuples went into the first's edges
                (MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),)), MotifTemplate("pair", ("B", "C"), ((0, 1, "bc"),))),
                "templates 0 and 1 share this name, and names must be unique", id="name_repeated"),
        ],
    )
    def test_templates_refuse_other_types(self, templates, message):
        """The library refuses what `gen-planted` refuses in a template, naming it."""
        with pytest.raises(ValueError, match=f"^template 'pair': {message}$"):
            generate_planted_hin(PlantedConfig(templates=templates))

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param({"type_names": "ABC"}, "type_names must be a list of strings, got 'ABC'", id="types_a_string"),
            pytest.param({"type_names": ("A", 1)}, "type_names must be a list of strings", id="type_an_integer"),
            pytest.param({"templates": default_templates()[0]}, "templates must be a list of MotifTemplate",
                         id="templates_one_template"),
            pytest.param({"templates": (default_templates()[0], "pair")}, "templates must be a list of MotifTemplate",
                         id="template_a_string"),
            pytest.param({"templates": (MotifTemplate(7, ("A", "B"), ((0, 1, "ab"),)),)},
                         "template 0: name must be a non-empty string, got 7", id="name_an_integer"),
            pytest.param({"templates": (MotifTemplate("", ("A", "B"), ((0, 1, "ab"),)),)},
                         "template 0: name must be a non-empty string, got ''", id="name_empty"),
            pytest.param({"templates": (MotifTemplate("a/b", ("A", "B"), ((0, 1, "ab"),)),)},
                         r"template 'a/b': name must not contain '/' or '\\'", id="name_with_a_slash"),
            pytest.param({"templates": (MotifTemplate("a\\b", ("A", "B"), ((0, 1, "ab"),)),)},
                         r"template 'a\\\\b': name must not contain", id="name_with_a_backslash"),
        ],
    )
    def test_config_values_refused(self, fields, message):
        """A config value that only `gen-planted`'s JSON reader used to refuse
        is a ValueError of the library, not a TypeError or a wrong graph."""
        with pytest.raises(ValueError, match=f"^{message}"):
            generate_planted_hin(PlantedConfig(**fields))

    def test_numpy_integer_edge_positions_build_the_same_graph(self):
        template = MotifTemplate("pair", ("A", "B"), ((np.int64(0), np.uint8(1), "ab"),))
        expected = generate_planted_hin(PlantedConfig(templates=default_templates()[:1]))
        assert generate_planted_hin(PlantedConfig(templates=(template,))).hin == expected.hin

    def test_infeasible_block_size(self):
        template = MotifTemplate("big", ("A",) * 25, tuple((i, i + 1, "aa") for i in range(24)))
        config = PlantedConfig(templates=(template,), type_names=("A",))
        with pytest.raises(ValueError, match="distinct nodes"):
            generate_planted_hin(config)

    def test_non_signal_template_is_uniform(self):
        templates = (
            MotifTemplate("pair", ("A", "B"), ((0, 1, "ab"),), signal=False,
                          instances_per_block=100),
        )
        config = PlantedConfig(templates=templates, rng_seed=10)
        data = generate_planted_hin(config)
        block = config.nodes_per_type // config.n_clusters
        tuples = data.instances["pair"]
        assert tuples.shape[0] == 300
        blocks = tuples // block
        cross = np.any(blocks != blocks[:, :1], axis=1)
        assert 0.5 < cross.mean() < 0.85  # ~2/3 of uniform pairs are cross-block

    def test_sample_template_tuples_exact_count(self):
        template = default_templates()[1]
        tuples = sample_template_tuples(template, 60, 5000, rng_seed=11)
        assert tuples.shape == (5000, 4)
        assert len({tuple(t) for t in tuples.tolist()}) == 5000
        # within-type injectivity: the two C positions stay distinct
        assert np.all(tuples[:, 1] != tuples[:, 3])

    def test_motif_spec_round_trip(self):
        from motifclust.motifs import parse_motif
        import json

        config = PlantedConfig(rng_seed=12)
        data = generate_planted_hin(config)
        for template in config.templates:
            motif = parse_motif(json.dumps(template.motif_spec()), data.hin)
            assert motif.order == len(template.node_types)
