import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyscope import (
    ALNSpec,
    DistanceMatrix,
    Ensemble,
    FrequencyGrid,
    IllConditionedSpectrumError,
    InvalidParameterError,
    Link,
    Polytree,
    SpectralMatrix,
    TimeSeries,
    Tree,
    UndirectedGraph,
    WelchConfig,
    analytic_spectra,
    build_polytree,
    causal_distance_matrix,
    distance_matrix,
    edge_list_rows,
    export_dot,
    generate_polytree_aln,
    markov_blanket,
    minimum_spanning_tree,
    miso_blanket_topology,
    orthogonal_least_squares,
    simulate,
    spectral_matrix,
)
from polyscope import signals, topology
from polyscope.diagnostics import collect
from polyscope.topology import BLANKET_RMS_RTOL
from polyscope.wiener import CONDITION_RTOL, _clears_screen

from oracles import (
    blanket_edges_reference,
    blanket_reference,
    kruskal_reference,
    miso_reference,
    min_tree_bruteforce,
)


def collider_spectra(grid=None):
    """X1 -> X3 <- X2 with unit noises everywhere."""
    grid = grid or FrequencyGrid(256)
    spec = ALNSpec(
        ["X1", "X2", "X3"],
        [Link(0, 2, np.array([0.9, 0.4])), Link(1, 2, np.array([-0.8, 0.3]))],
        np.ones(3))
    return analytic_spectra(spec, grid)


def chain_spectra(grid=None):
    grid = grid or FrequencyGrid(256)
    spec = ALNSpec(
        ["X1", "X2", "X3"],
        [Link(0, 1, np.array([0.9, 0.4])), Link(1, 2, np.array([0.7, -0.5]))],
        np.ones(3))
    return analytic_spectra(spec, grid)


class TestContainers:
    def test_edges_canonicalized(self):
        g = UndirectedGraph(["a", "b", "c"], {(2, 0): 1.5})
        assert g.edges == {(0, 2): 1.5}
        assert g.total_weight() == 1.5

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            UndirectedGraph(["a", "b"], {(1, 1): 1.0})

    def test_rejects_duplicate_after_canonicalization(self):
        with pytest.raises(InvalidParameterError):
            UndirectedGraph(["a", "b"], {(0, 1): 1.0, (1, 0): 2.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            UndirectedGraph(["a", "b"], {(0, 2): 1.0})

    @pytest.mark.parametrize("bad", [0.0, 1.0, True, False])
    def test_node_indices_are_integers(self, bad):
        for cls in (UndirectedGraph, Polytree):
            with pytest.raises(InvalidParameterError,
                               match=f"node index must be an integer, not {bad!r}"):
                cls(["a", "b", "c"], {(bad, 2): 1.0})
        g = UndirectedGraph(["a", "b"], {(np.int64(1), np.int64(0)): 1.0})
        assert [type(v) for v in next(iter(g.edges))] == [int, int]

    def test_tree_needs_right_edge_count(self):
        with pytest.raises(InvalidParameterError):
            Tree(["a", "b", "c"], {(0, 1): 1.0})

    def test_tree_must_be_connected(self):
        with pytest.raises(InvalidParameterError, match="connected"):
            # three edges, but they form a cycle and leave "d" isolated
            Tree(["a", "b", "c", "d"],
                 {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})

    def test_polytree_accessors(self):
        pt = Polytree(["a", "b", "c", "d"],
                      {(0, 2): 1.0, (1, 2): 2.0, (2, 3): 0.5})
        assert pt.parents(2) == {0, 1}
        assert pt.children(2) == {3}
        assert pt.roots == {0, 1}
        assert pt.skeleton().edges == {(0, 2): 1.0, (1, 2): 2.0, (2, 3): 0.5}

    # a 2-cycle beside a valid tree edge, and a 2-cycle alone
    @pytest.mark.parametrize("edges", [
        {(0, 1): 1.0, (1, 0): 2.0, (1, 2): 1.0},
        {(1, 2): 1.0, (2, 1): 1.0}])
    def test_polytree_rejects_an_antiparallel_pair(self, edges):
        with pytest.raises(InvalidParameterError,
                           match=r"^duplicate edge \((0, 1|1, 2)\)$"):
            Polytree(["a", "b", "c"], edges)

    def test_polytree_rejects_unknown_tie(self):
        with pytest.raises(InvalidParameterError):
            Polytree(["a", "b"], {(0, 1): 1.0}, ties={(1, 0)})

    def test_polytree_stores_the_edges_its_skeleton_checked(self):
        two, one, zero = np.int64(2), np.int64(1), np.int64(0)
        pt = Polytree(["a", "b", "c"], {(two, one): np.float32(0.5), (one, zero): 3},
                      ties={(two, one)})
        assert pt.edges == {(2, 1): 0.5, (1, 0): 3.0}
        assert pt.ties == {(2, 1)}
        assert all(type(v) is int for edge in [*pt.edges, *pt.ties] for v in edge)
        assert all(type(w) is float for w in pt.edges.values())
        with pytest.raises(InvalidParameterError,
                           match="^edge weights must hold real numbers, not text$"):
            Polytree(["a", "b"], {(zero, one): "1.5"})


@st.composite
def tied_distances(draw):
    """Symmetric distances drawn from a few values, signed zeros among them,
    so most edges tie with another; sums of 0.1, 0.2 and 0.3 round by
    their order."""
    n = draw(st.integers(2, 9))
    levels = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.7])
    upper = np.array(draw(st.lists(levels, min_size=n * n, max_size=n * n)))
    upper = upper.reshape(n, n)
    above = np.triu(np.ones((n, n), dtype=bool), 1)
    values = np.where(above, upper, upper.T)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix([f"N{i}" for i in range(n)], values, "noncausal")


class TestMinimumSpanningTree:
    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            vals = rng.uniform(0.1, 1.0, size=(n, n))
            vals = 0.5 * (vals + vals.T)
            np.fill_diagonal(vals, 0.0)
            W = DistanceMatrix([f"N{i}" for i in range(n)], vals, "noncausal")
            tree = minimum_spanning_tree(W)
            optima = min_tree_bruteforce(vals)
            assert frozenset(tree.edges) in optima
            best = min(sum(vals[a, b] for a, b in t) for t in optima)
            assert tree.total_weight() == pytest.approx(best, abs=1e-9)

    def test_equal_weights_give_star_at_first_node(self):
        n = 5
        vals = np.full((n, n), 0.7)
        np.fill_diagonal(vals, 0.0)
        W = DistanceMatrix([f"N{i}" for i in range(n)], vals, "noncausal")
        tree = minimum_spanning_tree(W)
        assert set(tree.edges) == {(0, b) for b in range(1, n)}

    def test_rejects_causal_kind(self):
        W = DistanceMatrix(["a", "b"], np.zeros((2, 2)), "causal")
        with pytest.raises(InvalidParameterError, match="symmetric"):
            minimum_spanning_tree(W)

    def test_recovers_chain_skeleton(self):
        D = distance_matrix(chain_spectra())
        tree = minimum_spanning_tree(D)
        assert set(tree.edges) == {(0, 1), (1, 2)}

    @given(tied_distances())
    def test_matches_the_tuple_sorting_kruskal(self, W):
        def bits(tree):
            return ([(edge, np.float64(w).tobytes())
                     for edge, w in tree.edges.items()],
                    np.float64(tree.total_weight()).tobytes())

        assert bits(minimum_spanning_tree(W)) == bits(kruskal_reference(W))


class TestBuildPolytree:
    def test_delayed_pair_points_from_driver(self):
        spec = ALNSpec(["x", "y"], [Link(0, 1, np.array([1.0]), delay=1)],
                       np.array([1.0, 0.0]))
        DC = causal_distance_matrix(analytic_spectra(spec, FrequencyGrid(512)))
        pt = build_polytree(DC)
        assert set(pt.edges) == {(0, 1)}
        assert pt.ties == set()

    def test_tie_parent_is_higher_index(self):
        DC = DistanceMatrix(["a", "b"], np.array([[0.0, 0.5], [0.5, 0.0]]),
                            "causal")
        with collect() as events:
            pt = build_polytree(DC)
        assert set(pt.edges) == {(1, 0)}
        assert pt.ties == {(1, 0)}
        assert [(e.category, e.message) for e in events] == [
            ("tie", "causal tie between 'a' and 'b' at 0.500000")]

    def test_tie_off_the_tree_is_not_recorded(self):
        # (a, c) costs 0.9 both ways but is not a tree edge
        DC = DistanceMatrix(["a", "b", "c"], np.array([[0.0, 0.2, 0.9],
                                                       [0.3, 0.0, 0.4],
                                                       [0.9, 0.5, 0.0]]),
                            "causal")
        with collect() as events:
            pt = build_polytree(DC)
        assert set(pt.edges) == {(1, 0), (2, 1)}
        assert pt.ties == set()
        assert events == []

    def test_chain_orientation(self):
        DC = causal_distance_matrix(chain_spectra(FrequencyGrid(512)))
        pt = build_polytree(DC)
        assert set(pt.edges) == {(0, 1), (1, 2)}


class TestMarkovBlanket:
    def test_collider_includes_coparent(self):
        pt = Polytree(["a", "b", "c", "d"],
                      {(0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0})
        assert markov_blanket(pt, 0) == {1, 2}
        assert markov_blanket(pt, 2) == {0, 1, 3}
        assert markov_blanket(pt, 3) == {2}

    def test_matches_reference_on_random_polytrees(self):
        for seed in range(10):
            spec = generate_polytree_aln(7, seed=seed)
            pt = spec.to_polytree()
            for v in range(7):
                assert markov_blanket(pt, v) == \
                    blanket_reference(set(pt.edges), v)

    def test_out_of_range(self):
        pt = Polytree(["a", "b"], {(0, 1): 1.0})
        with pytest.raises(InvalidParameterError):
            markov_blanket(pt, 5)

    @pytest.mark.parametrize("node", [1.0, 1.5, True, False])
    def test_node_is_an_integer(self, node):
        pt = Polytree(["a", "b"], {(0, 1): 1.0})
        with pytest.raises(InvalidParameterError,
                           match=f"node must be an integer, not {node!r}"):
            markov_blanket(pt, node)
        assert markov_blanket(pt, np.int64(1)) == {0}


class TestMisoBlanketTopology:
    def test_collider_skeleton_and_purge(self):
        S = collider_spectra()
        D = distance_matrix(S)
        with collect() as events:
            g = miso_blanket_topology(S, D)
        assert set(g.edges) == {(0, 2), (1, 2)}
        assert [(e.category, e.message) for e in events] == [
            ("blanket-purge",
             "candidate 'X2' of target 'X1' explained by an indirect route"),
            ("blanket-purge",
             "candidate 'X1' of target 'X2' explained by an indirect route")]

    def test_chain_skeleton(self):
        S = chain_spectra()
        g = miso_blanket_topology(S, distance_matrix(S))
        assert set(g.edges) == {(0, 1), (1, 2)}

    def test_four_node_chain_far_inputs_below_threshold(self):
        grid = FrequencyGrid(256)
        spec = ALNSpec(
            ["X1", "X2", "X3", "X4"],
            [Link(0, 1, np.array([0.9, 0.4])),
             Link(1, 2, np.array([0.7, -0.5])),
             Link(2, 3, np.array([0.6, 0.3]))],
            np.ones(4))
        S = analytic_spectra(spec, grid)
        g = miso_blanket_topology(S, distance_matrix(S))
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_label_mismatch_raises(self):
        S = collider_spectra()
        D = distance_matrix(S)
        bad = DistanceMatrix(["p", "q", "r"], D.values, D.kind)
        with pytest.raises(InvalidParameterError):
            miso_blanket_topology(S, bad)

    def test_bad_threshold(self):
        S = collider_spectra()
        D = distance_matrix(S)
        for threshold in (0.0, 1.0, -1.0):
            with pytest.raises(InvalidParameterError, match=r"lie in \(0, 1\)"):
                miso_blanket_topology(S, D, threshold=threshold)
        for threshold in (np.nan, np.inf):
            with pytest.raises(InvalidParameterError,
                               match="^threshold must hold finite numbers$"):
                miso_blanket_topology(S, D, threshold=threshold)

    def test_single_node_raises(self):
        grid = FrequencyGrid(64)
        S = SpectralMatrix(["a"], grid, np.ones((1, 1, grid.size)))
        D = DistanceMatrix(["a"], np.zeros((1, 1)), "noncausal")
        with pytest.raises(InvalidParameterError, match="need at least two nodes"):
            miso_blanket_topology(S, D)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_matches_per_target_loop(self, n):
        grid = FrequencyGrid(128)
        for seed in range(10):
            S = analytic_spectra(generate_polytree_aln(n, seed), grid)
            D = distance_matrix(S)
            for threshold in (None, 1e-2, 0.3):
                with collect() as events:
                    g = miso_blanket_topology(S, D, threshold)
                with collect() as ref_events:
                    ref = miso_reference(S, D, threshold)
                assert g.edges == ref.edges
                assert [(e.category, e.message) for e in events] == \
                    [(e.category, e.message) for e in ref_events]


    def test_matches_per_target_loop_on_a_simulated_wide_record(self):
        spec = generate_polytree_aln(32, 4)
        S = spectral_matrix(simulate(spec, 1 << 13, 4).ensemble,
                            WelchConfig(grid_size=64))
        assert S._eigenvalue_ratio >= 2 * CONDITION_RTOL   # the inverse read-out
        D = distance_matrix(S)
        for threshold in (None, 1e-2, 0.3):
            with collect() as events:
                g = miso_blanket_topology(S, D, threshold)
            with collect() as ref_events:
                ref = miso_reference(S, D, threshold)
            assert g.edges == ref.edges
            assert [(e.category, e.message) for e in events] == \
                [(e.category, e.message) for e in ref_events]

    def test_purges_are_recorded_a_block_at_a_time(self, wide_record,
                                                   monkeypatch):
        # one record call per purge block, never one per purged candidate,
        # and every purge event still reaches the collector
        S, calls = wide_record, []
        D = distance_matrix(S)
        spy = topology.record

        def counting(category, *messages):
            calls.append(category)
            spy(category, *messages)

        monkeypatch.setattr(topology, "record", counting)
        with collect() as ref_events:
            miso_reference(S, D)
        expected = [(e.category, e.message) for e in ref_events]
        purges = [text for category, text in expected
                  if category == "blanket-purge"]
        assert len(purges) > S.n
        for targets_per_block in (S.n, 5):
            monkeypatch.setattr(signals, "BLOCK_VALUES",
                                targets_per_block * S.n ** 2)
            calls.clear()
            with collect() as events:
                miso_blanket_topology(S, D)
            assert [(e.category, e.message) for e in events] == expected
            assert set(calls) == {"blanket-purge"}
            assert len(calls) <= len(signals._blocks(S.n, S.n ** 2))

    def test_singular_matrix_raises_as_the_per_target_loop(self):
        # the per-target loop raises on the fit of b on a and its copy c;
        # MISO leaves c out of that fit instead, and keeps the record
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((2, 1 << 12))
        S = spectral_matrix(Ensemble([TimeSeries("a", x), TimeSeries("b", y),
                                      TimeSeries("c", x.copy())]),
                            WelchConfig(grid_size=64))
        assert S._eigenvalue_ratio < 2 * CONDITION_RTOL     # the per-target loop
        D = distance_matrix(S)
        with pytest.raises(IllConditionedSpectrumError, match="omega="):
            miso_reference(S, D)
        with collect() as events:
            g = miso_blanket_topology(S, D)
        assert set(g.edges) == {(0, 1), (0, 2)}
        assert [e.message.split(" is ")[0] for e in events
                if e.category == "collinear-candidate"] == [
            "candidate 'c' of target 'b'"]

    @pytest.mark.parametrize("producer", ["welch", "analytic"])
    def test_exact_copy_adds_one_edge_and_keeps_the_rest(self, producer):
        spec = generate_polytree_aln(8, 3)
        grid = FrequencyGrid(64)
        base = (analytic_spectra(spec, grid) if producer == "analytic" else
                spectral_matrix(simulate(spec, 2 ** 12, seed=5).ensemble,
                                WelchConfig(grid_size=grid.size)))
        idx = list(range(8)) + [0]
        S = SpectralMatrix([*base.labels, "copy"], grid,
                           base.values[np.ix_(idx, idx)])
        with collect() as events:
            g = miso_blanket_topology(S, distance_matrix(S))
        expected = set(miso_blanket_topology(base, distance_matrix(base)).edges)
        assert set(g.edges) == expected | {(0, 8)}
        assert sorted(e.message.split(" is ")[0] for e in events
                      if e.category == "collinear-candidate") == [
            f"candidate 'copy' of target 'X{j}'" for j in range(2, 9)]

    def test_screen_failing_matrix_with_solvable_fits_matches_the_loop(self):
        # a + b makes the whole matrix singular, yet every target's two
        # inputs are independent, so each per-target fit succeeds
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((2, 1 << 12))
        S = spectral_matrix(Ensemble([TimeSeries("a", a), TimeSeries("b", b),
                                      TimeSeries("sum", a + b)]),
                            WelchConfig(grid_size=64))
        assert not _clears_screen(S)
        D = distance_matrix(S)
        with collect() as events:
            g = miso_blanket_topology(S, D)
        with collect() as ref_events:
            ref = miso_reference(S, D)
        assert g.edges == ref.edges
        assert [(e.category, e.message) for e in events] == \
            [(e.category, e.message) for e in ref_events]


@st.composite
def purge_cases(draw):
    """Symmetric distances and filter RMS drawn from a few values, so ties
    are common, with one target whose RMS row is all zero."""
    n = draw(st.integers(2, 9))
    levels = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    upper = np.array(draw(st.lists(levels, min_size=n * n, max_size=n * n)))
    D = np.triu(upper.reshape(n, n), 1)
    D = D + D.T
    rms = np.array(draw(st.lists(st.sampled_from([0.0, 1e-4, 0.3, 1.0]),
                                 min_size=n * n, max_size=n * n))).reshape(n, n)
    rms[draw(st.integers(0, n - 1))] = 0.0
    rtol = draw(st.sampled_from([BLANKET_RMS_RTOL, 0.5]))
    return [f"v{i}" for i in range(n)], rms, D, rtol


class TestOnePassPurge:
    """Every target's purge in one array pass, in blocks of targets, gives
    the per-target loop's edges, edge order and events."""

    @given(purge_cases(), st.integers(1, 3))
    def test_matches_the_per_target_loop(self, case, targets_per_block):
        labels, rms, D, rtol = case
        with collect() as ref_events:
            expected = blanket_edges_reference(labels, rms, D, rtol)
        n = len(labels)
        # the default block holds every target at these sizes; the others
        # put a block boundary after every first, second or third target
        for values in (signals.BLOCK_VALUES, targets_per_block * n * n):
            with patch.object(signals, "BLOCK_VALUES", values):
                with collect() as events:
                    edges = topology._blanket_edges(labels, rms, D, rtol)
            assert list(edges.items()) == list(expected.items())
            assert all(type(i) is int for edge in edges for i in edge)
            assert [(e.category, e.message) for e in events] == \
                [(e.category, e.message) for e in ref_events]

    def test_transient_memory_is_bounded_by_the_block(self):
        n = 128
        rng = np.random.default_rng(5)
        points = rng.random((n, 3))
        D = np.sqrt(np.sum((points[:, None] - points[None]) ** 2, axis=-1))
        rms = rng.random((n, n))
        labels = [f"v{i}" for i in range(n)]
        tracemalloc.start()
        try:
            edges = topology._blanket_edges(labels, rms, D, BLANKET_RMS_RTOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges
        # four targets a block, 65536 route values: about 0.78 MB, mostly
        # one float and two boolean arrays of them; all 128 targets in one
        # block peak at about 19 MB
        assert peak < 24 * signals.BLOCK_VALUES


def permuted(S, perm):
    """``S`` with its series reordered: series ``p`` of the result is series
    ``perm[p]`` of ``S``."""
    return SpectralMatrix([S.labels[i] for i in perm], S.grid,
                          S.values[np.ix_(perm, perm)])


def labelled_edges(graph):
    return {frozenset((graph.nodes[a], graph.nodes[b])) for a, b in graph.edges}


class TestPermutationEquivariance:
    """Reordering the series only reorders every result."""

    @pytest.mark.parametrize("seed", range(20))
    def test_analytic_networks(self, seed):
        n = 4 + seed % 9
        S = analytic_spectra(generate_polytree_aln(n, seed), FrequencyGrid(64))
        perm = np.random.default_rng(seed).permutation(n)
        found = []
        for M in (S, permuted(S, perm)):
            D, DC = distance_matrix(M), causal_distance_matrix(M)
            pt = build_polytree(DC)
            found.append({
                "D": D.values,
                "DC": DC.values,
                "mst": labelled_edges(minimum_spanning_tree(D)),
                "skeleton": labelled_edges(pt.skeleton()),
                "untied": {(pt.nodes[p], pt.nodes[c]) for p, c in pt.edges
                           if (p, c) not in pt.ties},
                "miso": labelled_edges(miso_blanket_topology(M, D)),
                "ols": {M.labels[t]: {M.labels[b] for b in
                                      orthogonal_least_squares(M, t, 2).support}
                        for t in range(n)},
            })
        ours, theirs = found
        for name in ("D", "DC"):
            assert np.array_equal(theirs.pop(name), ours.pop(name)[np.ix_(perm, perm)])
        assert theirs == ours


class TestExports:
    def test_dot_undirected_quoting(self):
        g = UndirectedGraph(['node "one"', "two words"], {(0, 1): 0.25})
        text = export_dot(g)
        assert text.startswith("graph topology {")
        assert '"node \\"one\\"" -- "two words" [label="0.2500"];' in text
        assert text.endswith("}\n")

    def test_dot_directed(self):
        pt = Polytree(["a", "b"], {(1, 0): 0.5})
        text = export_dot(pt)
        assert "digraph topology {" in text
        assert '"b" -> "a" [label="0.5000"];' in text

    def test_edge_rows_directions(self):
        pt = Polytree(["a", "b", "c"], {(1, 0): 0.5, (1, 2): 0.25},
                      ties={(1, 2)})
        rows = edge_list_rows(pt)
        assert [r["direction"] for r in rows] == ["b_to_a", "a_to_b"]
        assert [r["tie_flag"] for r in rows] == [0, 1]
        assert rows[0]["node_a"] == "a" and rows[0]["node_b"] == "b"

    def test_edge_rows_undirected(self):
        g = UndirectedGraph(["a", "b", "c"], {(2, 1): 0.1, (0, 1): 0.2})
        rows = edge_list_rows(g)
        assert [(r["node_a"], r["node_b"]) for r in rows] == \
            [("a", "b"), ("b", "c")]
        assert all(r["direction"] == "none" for r in rows)
