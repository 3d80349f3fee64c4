import dataclasses
import gc
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyscope import (
    ALNSpec,
    Ensemble,
    FrequencyGrid,
    InsufficientDataError,
    InvalidParameterError,
    Link,
    SpectralMatrix,
    WelchConfig,
    analytic_spectra,
    check_identifiability,
    coherence_distance,
    coherence_function,
    generate_polytree_aln,
    run_recovery,
    simulate,
    spectral_matrix,
)

from oracles import (
    _longest_run,
    cross_spectra_reference,
    identifiability_reference,
    path_transfer_spectra,
    source_transfers_reference,
)
from polyscope import aln
from polyscope.aln import IDENTIFIABILITY_RTOL, IDENTIFIABILITY_RUN, _noise_spectra
from polyscope.diagnostics import collect


def chain_spec(taps_a=(0.9, 0.4), taps_b=(0.7, -0.5)):
    return ALNSpec(["X1", "X2", "X3"],
                   [Link(0, 1, np.array(taps_a)),
                    Link(1, 2, np.array(taps_b))],
                   np.ones(3))


def mixed_noise_spec(n, seed):
    """A generated network's links driven by mixed noises, and the number
    of distinct noise shapes among them.

    The generated white noises of unequal variance stay on some nodes; others
    get random MA shapings, the last of those twice the first's taps at the
    first's variance (the same shape up to a factor), and one noise is dead.
    """
    base = generate_polytree_aln(n, seed=seed)
    rng = np.random.default_rng([n, seed])
    variances = base.noise_variances.copy()
    shaping = [None] * n
    dead, *shaped = rng.permutation(n)[:1 + max(2, n // 3)]
    for k in shaped:
        shaping[k] = rng.uniform(-1.0, 1.0, size=rng.integers(2, 4))
    shaping[shaped[-1]] = 2.0 * shaping[shaped[0]]
    variances[shaped[-1]] = variances[shaped[0]]
    variances[dead] = 0.0
    white = n - 1 - len(shaped) > 0
    spec = ALNSpec(base.labels, base.links, variances, shaping, seed)
    # the white shape, one per shaping less the shared one, the dead one
    return spec, white + len(shaped)


def collider_spec():
    return ALNSpec(["X1", "X2", "X3"],
                   [Link(0, 2, np.array([0.9, 0.4])),
                    Link(1, 2, np.array([-0.8, 0.3]))],
                   np.ones(3))


class TestLink:
    def test_support(self):
        assert Link(0, 1, np.array([1.0, 0.5])).support == 1
        assert Link(0, 1, np.array([1.0, 0.5]), delay=1).support == 2

    def test_rejects_empty_or_zero_taps(self):
        for taps in (np.array([]), np.ones((2, 2)), 1.0):
            with pytest.raises(InvalidParameterError, match=(
                    "^link taps must be a non-empty vector, not shape ")):
                Link(0, 1, taps)
        with pytest.raises(InvalidParameterError):
            Link(0, 1, np.zeros(3))

    def test_rejects_long_delay(self):
        with pytest.raises(InvalidParameterError):
            Link(0, 1, np.array([1.0]), delay=2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, True, False])
    def test_endpoints_and_delay_are_integers(self, bad):
        for args in ((bad, 1, [1.0]), (0, bad, [1.0]), (0, 1, [1.0], bad)):
            with pytest.raises(InvalidParameterError,
                               match=f"must be an integer, not {bad!r}"):
                Link(*args)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ALNSpec(["a", "b"], [Link(bad, 1, [1.0])], [1, 1])

    def test_numpy_integers_are_stored_as_ints(self):
        link = Link(np.int64(0), np.int32(1), [1.0], delay=np.int64(1))
        assert [type(v) for v in (link.source, link.target, link.delay)] == \
            [int, int, int]
        spec = ALNSpec(["a", "b"], [link], [1, 1])
        assert ALNSpec.from_json(spec.to_json()) == spec

    def test_immutable_and_owns_its_taps(self):
        taps = np.array([0.5, -0.25])
        link = Link(0, 1, taps)
        taps[0] = 9.0
        assert link.taps.tolist() == [0.5, -0.25]
        with pytest.raises(ValueError):
            link.taps[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.delay = 1

    def test_value_equality(self):
        link = Link(0, 1, np.array([0.5, 0.0]), delay=1)
        same = Link(0, 1, [0.5, -0.0], delay=1)
        assert link == same and hash(link) == hash(same)
        for other in (Link(0, 1, [0.5, 0.1], delay=1), Link(0, 1, [0.5]),
                      Link(0, 1, [0.5, 0.0]), Link(1, 0, [0.5, 0.0], delay=1)):
            assert link != other
        assert link != "link" and link != (0, 1, [0.5, 0.0], 1)


class TestALNSpec:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidParameterError):
            ALNSpec(["a", "a"], [Link(0, 1, np.array([1.0]))], np.ones(2))

    def test_rejects_wrong_variance_count(self):
        with pytest.raises(InvalidParameterError):
            ALNSpec(["a", "b"], [Link(0, 1, np.array([1.0]))], np.ones(3))

    def test_rejects_negative_variance(self):
        with pytest.raises(InvalidParameterError):
            ALNSpec(["a", "b"], [Link(0, 1, np.array([1.0]))],
                    np.array([1.0, -0.5]))

    def test_skeleton_must_be_tree(self):
        links = [Link(0, 1, np.array([1.0])), Link(1, 2, np.array([1.0])),
                 Link(2, 0, np.array([1.0]))]
        with pytest.raises(InvalidParameterError):
            ALNSpec(["a", "b", "c"], links, np.ones(3))

    # a 2-cycle alone, and a 2-cycle beside a valid link
    @pytest.mark.parametrize("pairs", [[(0, 1), (1, 0)],
                                       [(0, 1), (1, 0), (1, 2)]])
    def test_antiparallel_links_are_a_duplicate_edge(self, pairs):
        links = [Link(a, b, np.array([1.0])) for a, b in pairs]
        with pytest.raises(InvalidParameterError,
                           match=r"^duplicate edge \(0, 1\)$"):
            ALNSpec(["a", "b", "c"][:len(pairs)], links, np.ones(len(pairs)))

    @pytest.mark.parametrize("entry", [np.ones((2, 2)), [], 0.5])
    def test_rejects_a_shaping_entry_that_is_not_a_tap_vector(self, entry):
        with pytest.raises(InvalidParameterError, match=(
                "^noise shaping of 'b' must be a non-empty vector, not shape ")):
            ALNSpec(["a", "b"], [Link(0, 1, [1.0])], np.ones(2),
                    noise_shaping=[None, entry])

    @pytest.mark.parametrize("text, message", [
        ("{", "spec is not valid JSON: "),
        ("[1]", "spec must be a JSON object"),
        ("{}", "spec is missing labels, links, noise_variances"),
        ('{"labels": ["a", "b"], "links": []}', "spec is missing noise_variances"),
        ('{"labels": ["a", "b"], "links": [7], "noise_variances": [1, 1]}',
         "link must be a JSON object"),
        ('{"labels": ["a", "b"], "links": [{"source": 0, "target": 1}], '
         '"noise_variances": [1, 1]}', "link is missing taps"),
        ('{"labels": ["a", "b"], "links": [{"taps": [1]}], '
         '"noise_variances": [1, 1]}', "link is missing source, target"),
    ])
    def test_from_json_names_what_is_wrong(self, text, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}"):
            ALNSpec.from_json(text)

    def test_topological_order_respects_links(self):
        spec = collider_spec()
        order = spec.topological_order()
        assert order.index(2) > order.index(0)
        assert order.index(2) > order.index(1)
        assert sorted(order) == [0, 1, 2]

    def test_parents_of(self):
        spec = collider_spec()
        assert {l.source for l in spec.parents_of(2)} == {0, 1}
        assert spec.parents_of(0) == []

    def test_immutable(self):
        variances, shaping = np.array([1.5, 0.5]), np.array([1.0, 0.9])
        spec = ALNSpec(["a", "b"], [Link(0, 1, np.array([0.3]))], variances,
                       noise_shaping=[shaping, None])
        assert isinstance(spec.labels, tuple) and isinstance(spec.links, tuple)
        assert isinstance(spec.noise_shaping, tuple)
        variances[0], shaping[0] = 9.0, 9.0
        assert spec.noise_variances.tolist() == [1.5, 0.5]
        assert spec.noise_shaping[0].tolist() == [1.0, 0.9]
        for array in (spec.noise_variances, spec.noise_shaping[0],
                      spec.links[0].taps):
            with pytest.raises(ValueError):
                array[0] = 1.0
        for name, value in [("seed", 3), ("labels", ("c", "d")),
                            ("noise_variances", np.ones(2))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)

    def test_polytree_copies_are_the_callers(self):
        spec = collider_spec()
        tree = spec.to_polytree()
        tree.edges.clear()
        assert set(spec.to_polytree().edges) == {(0, 2), (1, 2)}

    def test_json_roundtrip(self):
        spec = ALNSpec(["a", "b"],
                       [Link(0, 1, np.array([0.3, -0.2]), delay=1)],
                       np.array([1.5, 0.5]),
                       noise_shaping=[np.array([1.0, 0.9]), None],
                       seed=42)
        back = ALNSpec.from_json(spec.to_json())
        assert back.labels == spec.labels
        assert back.seed == 42
        np.testing.assert_array_equal(back.noise_variances,
                                      spec.noise_variances)
        np.testing.assert_array_equal(back.links[0].taps, spec.links[0].taps)
        assert back.links[0].delay == 1
        np.testing.assert_array_equal(back.noise_shaping[0],
                                      spec.noise_shaping[0])
        assert back.noise_shaping[1] is None
        assert back.to_json() == spec.to_json()

    def test_value_equality(self):
        shaped = ALNSpec(["a", "b", "c"],
                         [Link(0, 1, [0.3, -0.2], delay=1), Link(2, 1, [0.7])],
                         [1.5, 0.5, 2.0],
                         noise_shaping=[[1.0, 0.9], None, [1.0, -0.4, 0.2]],
                         seed=7)
        for spec in (generate_polytree_aln(4, seed=1),
                     generate_polytree_aln(9, seed=5), shaped):
            back = ALNSpec.from_json(spec.to_json())
            assert back is not spec and back == spec and not back != spec
            assert hash(back) == hash(spec) and len({spec, back}) == 1
            links, variances = list(spec.links), spec.noise_variances.copy()
            taps = links[-1].taps.copy()
            taps[0] += 0.125
            links[-1] = Link(links[-1].source, links[-1].target, taps,
                             links[-1].delay)
            variances[1] *= 2.0
            shaping = spec.noise_shaping
            for other in (
                    ALNSpec(spec.labels, links, spec.noise_variances,
                            shaping, spec.seed),
                    ALNSpec(spec.labels, spec.links, variances, shaping,
                            spec.seed),
                    ALNSpec(spec.labels, spec.links, spec.noise_variances,
                            shaping, None if spec.seed else 1)):
                assert other != spec and not other == spec
        assert generate_polytree_aln(4, seed=1) == generate_polytree_aln(4, seed=1)
        assert generate_polytree_aln(4, seed=1) != generate_polytree_aln(4, seed=2)
        # the shaping entries are compared position by position
        labels, links, variances = shaped.labels, shaped.links, shaped.noise_variances
        for shaping in (None, [None, None, None], [[1.0, 0.9], None, [1.0, -0.4]],
                        [[1.0, 0.9], [1.0], [1.0, -0.4, 0.2]],
                        [[1.0, 0.8], None, [1.0, -0.4, 0.2]]):
            assert ALNSpec(labels, links, variances, shaping, 7) != shaped
        assert ALNSpec(labels, links, variances,
                       [np.array([1.0, 0.9]), None, (1.0, -0.4, 0.2)], 7) == shaped
        assert shaped != shaped.to_json()


class TestGeneratePolytree:
    def test_deterministic(self):
        a = generate_polytree_aln(8, seed=3)
        b = generate_polytree_aln(8, seed=3)
        assert a.to_json() == b.to_json()

    def test_seeds_differ(self):
        a = generate_polytree_aln(8, seed=3)
        b = generate_polytree_aln(8, seed=4)
        assert a.to_json() != b.to_json()

    def test_structure(self):
        for seed in range(5):
            spec = generate_polytree_aln(9, seed=seed)
            assert spec.labels == tuple(f"X{i}" for i in range(1, 10))
            assert len(spec.links) == 8
            spec.to_polytree()          # tree shape validated inside
            assert np.all(spec.noise_variances >= 0.5)
            assert np.all(spec.noise_variances <= 2.0)
            for link in spec.links:
                assert 1 <= link.taps.size <= 4
                assert np.max(np.abs(link.taps)) >= 0.2
                assert link.delay in (0, 1)

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            generate_polytree_aln(1, seed=0)


class TestSimulate:
    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            simulate(chain_spec(), length=512, seed=0)

    def test_deterministic(self):
        spec = generate_polytree_aln(4, seed=7)
        a = simulate(spec, 2048, seed=1).ensemble.values()
        b = simulate(spec, 2048, seed=1).ensemble.values()
        np.testing.assert_array_equal(a, b)
        c = simulate(spec, 2048, seed=2).ensemble.values()
        assert not np.array_equal(a, c)

    def test_burn_in_covers_path_support(self):
        spec = chain_spec()             # two links of support 1 each
        result = simulate(spec, 1024, seed=0)
        assert result.burn_in == 4 * 2 + 16
        assert result.ensemble.length == 1024

    def test_child_is_exact_fir_of_parent(self):
        # with a noiseless child the link identity holds sample by sample
        taps = np.array([0.5, -0.25, 0.125])
        spec = ALNSpec(["p", "c"], [Link(0, 1, taps, delay=1)],
                       np.array([1.0, 0.0]))
        sim = simulate(spec, 4096, seed=9)
        parent, child = sim.ensemble.values()
        conv = np.convolve(parent, taps)
        support = spec.links[0].support          # = 3
        np.testing.assert_allclose(child[support:],
                                   conv[support - 1:4096 - 1],
                                   rtol=0, atol=1e-12)

    def test_noise_shaping_colours_the_node_noise(self):
        # shaping taps [0, 1] delay the root's noise by one sample
        plain = chain_spec()
        shaped = ALNSpec(plain.labels, plain.links, plain.noise_variances,
                         noise_shaping=[np.array([0.0, 1.0]), None, None])
        plain, shaped = (simulate(spec, 2048, seed=4).ensemble.values()[0]
                         for spec in (plain, shaped))
        assert np.array_equal(shaped[1:], plain[:-1])

    def test_raw_samples_not_demeaned(self):
        spec = chain_spec()
        ens = simulate(spec, 2048, seed=3).ensemble
        # raw Gaussian sample paths almost surely have non-zero sample mean
        assert np.max(np.abs(ens.values().mean(axis=1))) > 1e-12


class TestAnalyticSpectra:
    def test_matches_path_product_oracle(self):
        grid = FrequencyGrid(128)
        for seed in range(5):
            spec = generate_polytree_aln(6, seed=seed)
            S = analytic_spectra(spec, grid)
            ref = path_transfer_spectra(spec, grid)
            np.testing.assert_allclose(S.values, ref, atol=1e-10)

    def test_oracle_agrees_with_noise_shaping(self):
        grid = FrequencyGrid(128)
        spec = ALNSpec(["a", "b"], [Link(0, 1, np.array([0.8]))],
                       np.array([1.0, 0.3]),
                       noise_shaping=[np.array([1.0, 0.5]), None])
        S = analytic_spectra(spec, grid)
        np.testing.assert_allclose(S.values,
                                   path_transfer_spectra(spec, grid),
                                   atol=1e-12)
        shaped = np.abs(grid.response_from_taps(np.array([1.0, 0.5]))) ** 2
        np.testing.assert_allclose(np.real(S.values[0, 0]), shaped,
                                   atol=1e-12)

    @pytest.mark.parametrize("size", [64, 256])
    def test_kernels_match_the_replaced_forms_bit_for_bit(self, size):
        # the per-point matrix product against the optimised einsum, bit for
        # bit, and the half-grid transfers of one batched rfft against one
        # whole-grid DFT per link, to rounding, on networks of 2 to 16 nodes
        # (about half the links delayed) and one shaped-noise spec
        grid = FrequencyGrid(size)
        specs = [generate_polytree_aln(n, seed=seed)
                 for n in range(2, 17) for seed in range(3)]
        base = generate_polytree_aln(9, seed=4)
        specs.append(ALNSpec(base.labels, base.links, base.noise_variances,
                             noise_shaping=[np.array([1.0, 0.5, -0.3])
                                            if i % 2 else None for i in range(9)]))
        assert any(link.delay for spec in specs for link in spec.links)
        for spec in specs:
            H = source_transfers_reference(spec, grid)
            phi = _noise_spectra(spec, grid)
            cross = cross_spectra_reference(H, phi)
            assert np.array_equal(aln._cross_spectra(H, phi), cross)
            half = aln._source_transfers(spec, grid)
            assert np.max(np.abs(half - H[..., grid.half])) \
                <= 8 * np.finfo(float).eps * np.max(np.abs(H))
            cross = cross_spectra_reference(half, phi[:, grid.half])
            assert np.array_equal(analytic_spectra(spec, grid).values,
                                  SpectralMatrix(spec.labels, grid, cross).values)

    def test_positive_semidefinite(self):
        grid = FrequencyGrid(64)
        spec = generate_polytree_aln(5, seed=11)
        S = analytic_spectra(spec, grid)
        eigs = np.linalg.eigvalsh(S.values.transpose(2, 0, 1))
        assert np.min(eigs) >= -1e-10

    def test_root_spectrum_is_its_noise(self):
        grid = FrequencyGrid(64)
        S = analytic_spectra(collider_spec(), grid)
        np.testing.assert_allclose(np.real(S.values[0, 0]), 1.0, atol=1e-12)

    def test_welch_estimate_approaches_analytic(self):
        spec = chain_spec()
        grid = FrequencyGrid(256)
        S_true = analytic_spectra(spec, grid)
        sim = simulate(spec, 2 ** 16, seed=21)
        cfg = WelchConfig(grid_size=256, segment_length=256)
        S_hat = spectral_matrix(sim.ensemble, cfg)
        for i in range(3):
            rel = np.abs(np.real(S_hat.values[i, i]) -
                         np.real(S_true.values[i, i])) \
                / np.real(S_true.values[i, i])
            assert float(np.mean(rel)) < 0.15


class TestCoherenceStructure:
    def test_multiplicative_along_chain(self):
        grid = FrequencyGrid(256)
        S = analytic_spectra(chain_spec(), grid)
        c12 = coherence_function(S, 0, 1).values
        c23 = coherence_function(S, 1, 2).values
        c13 = coherence_function(S, 0, 2).values
        np.testing.assert_allclose(c13, c12 * c23, atol=1e-10)

    def test_coparents_exactly_independent(self):
        grid = FrequencyGrid(256)
        S = analytic_spectra(collider_spec(), grid)
        np.testing.assert_allclose(coherence_function(S, 0, 1).values, 0.0,
                                   atol=1e-14)
        assert coherence_distance(S, 0, 1) == pytest.approx(1.0, abs=1e-12)


class TestIdentifiability:
    def test_generated_networks_pass(self):
        for seed in range(5):
            spec = generate_polytree_aln(6, seed=seed)
            report = check_identifiability(spec, FrequencyGrid(256))
            assert report.passed
            assert report.violations == []

    def test_dead_noise_fails_every_tuple_naming_it(self):
        spec = ALNSpec(["X1", "X2", "X3"],
                       [Link(0, 1, np.array([0.9])),
                        Link(1, 2, np.array([0.7]))],
                       np.array([1.0, 1.0, 0.0]))
        report = check_identifiability(spec, FrequencyGrid(128))
        assert not report.passed
        assert all(k == 2 for (_, _, k) in report.violations)
        assert (0, 0, 2) in report.violations

    def test_collider_coparents_exempt(self):
        report = check_identifiability(collider_spec(), FrequencyGrid(128))
        assert report.passed
        assert report.exempt_pairs == 1

    @pytest.mark.parametrize("n, size", [
        pytest.param(4, 64, id="4"),
        pytest.param(10, 64, id="10"),
        pytest.param(16, 64, id="16"),
        pytest.param(10, 256, id="10-K256"),     # the benchmark's grid
        pytest.param(16, 256, id="16-K256"),     # and its largest network
    ])
    def test_matches_loop_oracle(self, n, size, monkeypatch):
        # each network as drawn; with one noise switched off; and under a
        # strict level and run, where short alive runs decide the verdict
        grid = FrequencyGrid(size)
        for seed in range(20):
            spec = generate_polytree_aln(n, seed=seed)
            dead = spec.noise_variances.copy()
            dead[seed % n] = 0.0
            cases = [(spec, IDENTIFIABILITY_RTOL, IDENTIFIABILITY_RUN),
                     (ALNSpec(spec.labels, spec.links, dead),
                      IDENTIFIABILITY_RTOL, IDENTIFIABILITY_RUN),
                     (spec, 0.9, 4)]
            for case, rtol, run in cases:
                monkeypatch.setattr(aln, "IDENTIFIABILITY_RTOL", rtol)
                monkeypatch.setattr(aln, "IDENTIFIABILITY_RUN", run)
                report = check_identifiability(case, grid)
                violations, exempt = identifiability_reference(
                    case, grid, rtol, run)
                assert report.violations == violations
                assert report.exempt_pairs == exempt
                assert report.passed == (not violations)

    @staticmethod
    def _passes(monkeypatch):
        """Record how many noise shapes each scan pass tests."""
        shapes, real = [], aln._has_run

        def spy(alive, run):
            shapes.append(alive.shape[1])
            return real(alive, run)
        monkeypatch.setattr(aln, "_has_run", spy)
        return shapes

    @pytest.mark.parametrize("size", [64, 256])
    def test_shaped_noises_match_loop_oracle(self, size, monkeypatch):
        # shaped, white and dead noises, at the default and the strict
        # level and run; noises of one shape share one pass
        grid = FrequencyGrid(size)
        passes = self._passes(monkeypatch)
        for n in range(3, 11):
            for seed in range(16):
                spec, shapes = mixed_noise_spec(n, seed)
                for rtol, run in [(IDENTIFIABILITY_RTOL, IDENTIFIABILITY_RUN),
                                  (0.9, 4)]:
                    monkeypatch.setattr(aln, "IDENTIFIABILITY_RTOL", rtol)
                    monkeypatch.setattr(aln, "IDENTIFIABILITY_RUN", run)
                    passes.clear()
                    report = check_identifiability(spec, grid)
                    violations, exempt = identifiability_reference(
                        spec, grid, rtol, run)
                    assert report.violations == violations
                    assert report.exempt_pairs == exempt
                    assert passes == [shapes]

    @pytest.mark.parametrize("factor", [2.0 ** 10, 2.0 ** -10])
    def test_report_ignores_a_common_noise_scale(self, factor, monkeypatch):
        # a power of two scales every cross spectrum exactly
        grid = FrequencyGrid(64)
        for n in (3, 6, 10):
            for seed in range(4):
                for spec in (generate_polytree_aln(n, seed=seed),
                             mixed_noise_spec(n, seed)[0]):
                    scaled = ALNSpec(spec.labels, spec.links,
                                     spec.noise_variances * factor,
                                     spec.noise_shaping)
                    for rtol, run in [(IDENTIFIABILITY_RTOL, IDENTIFIABILITY_RUN),
                                      (0.9, 4)]:
                        monkeypatch.setattr(aln, "IDENTIFIABILITY_RTOL", rtol)
                        monkeypatch.setattr(aln, "IDENTIFIABILITY_RUN", run)
                        assert check_identifiability(scaled, grid) == \
                            check_identifiability(spec, grid)

    def test_white_noises_share_one_verdict(self, monkeypatch):
        # at the strict level pairs fail; each fails with every noise of
        # positive variance or with none, in one pass over |Phi_ij|
        monkeypatch.setattr(aln, "IDENTIFIABILITY_RTOL", 0.9)
        monkeypatch.setattr(aln, "IDENTIFIABILITY_RUN", 4)
        passes = self._passes(monkeypatch)
        grid, failing = FrequencyGrid(64), 0
        for n in (3, 7, 12):
            for seed in range(6):
                spec = generate_polytree_aln(n, seed=seed)
                variances = spec.noise_variances.copy()
                variances[seed % n] = 0.0
                for case in (spec, ALNSpec(spec.labels, spec.links, variances)):
                    passes.clear()
                    report = check_identifiability(case, grid)
                    alive = set(np.flatnonzero(case.noise_variances > 0))
                    assert passes == [1 + (len(alive) < n)]
                    by_pair = {}
                    for i, j, k in report.violations:
                        by_pair.setdefault((i, j), set()).add(k)
                    for noises in by_pair.values():
                        assert noises & alive in (set(), alive)
                    failing += sum(noises >= alive for noises in by_pair.values())
        assert failing > 0

    @pytest.mark.parametrize("run", [3, 4])
    def test_run_across_omega_zero(self, run, monkeypatch):
        # |Phi_22| = 2 + 2 cos(omega) + 1e-3 peaks at omega = 0; at this
        # level it is alive at the three points -2pi/K, 0 and 2pi/K alone, so
        # the half grid holds two of them and the run crosses omega = 0
        grid = FrequencyGrid(64)
        spec = ALNSpec(["X1", "X2"], [Link(0, 1, np.array([1.0, 1.0]))],
                       np.array([1.0, 1e-3]))
        phi = np.abs(path_transfer_spectra(spec, grid)[1, 1])
        m = grid.size // 2
        rtol = (phi[m + 1] + phi[m + 2]) / (2 * phi[m])
        assert np.flatnonzero(phi > rtol * phi.max()).tolist() == [m - 1, m, m + 1]
        monkeypatch.setattr(aln, "IDENTIFIABILITY_RTOL", rtol)
        monkeypatch.setattr(aln, "IDENTIFIABILITY_RUN", run)
        report = check_identifiability(spec, grid)
        violations, exempt = identifiability_reference(spec, grid, rtol, run)
        assert report.violations == violations
        assert report.exempt_pairs == exempt
        # both noises are flat, so pair (1, 1) fails with each exactly when
        # its three-point run is too short
        assert [v for v in violations if v[:2] == (1, 1)] == \
            ([] if run == 3 else [(1, 1, 0), (1, 1, 1)])


@st.composite
def alive_masks(draw):
    """A run length and boolean rows of one width, at least that long.

    Besides random rows: rows alive only at both ends, whose wrapped join
    would make a run, and rows whose only run is ``run`` or ``run - 1``
    points long.
    """
    run = draw(st.integers(1, 6))
    size = draw(st.integers(run, 24))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "ends", "run"]),
                              min_size=1, max_size=6)):
        if kind == "random":
            rows.append(draw(st.lists(st.booleans(), min_size=size,
                                      max_size=size)))
            continue
        if kind == "ends":
            head = draw(st.integers(0, min(run - 1, size)))
            tail = draw(st.integers(0, min(run - 1, size - head)))
            alive = [(0, head), (size - tail, size)]
        else:
            length = draw(st.sampled_from([run - 1, run]))
            start = draw(st.integers(0, size - length))
            alive = [(start, start + length)]
        row = [False] * size
        for lo, hi in alive:
            row[lo:hi] = [True] * (hi - lo)
        rows.append(row)
    return run, np.array(rows, dtype=bool)


@given(alive_masks())
def test_run_check_matches_longest_run(case):
    run, mask = case
    expected = [_longest_run(row) >= run for row in mask]
    assert aln._has_run(mask, run).tolist() == expected


class TestRunRecovery:
    def test_analytic_chain_every_pipeline(self):
        spec = chain_spec()
        for pipeline in ("mst-coherence", "polytree-causal", "miso-blanket"):
            report = run_recovery(spec, mode="analytic", pipeline=pipeline,
                                  cfg=WelchConfig(grid_size=256))
            assert report.precision == 1.0
            assert report.recall == 1.0
            assert report.recovered_edges == [(0, 1), (1, 2)]
            if pipeline == "polytree-causal":
                assert report.direction_accuracy == 1.0
            else:
                assert report.direction_accuracy is None

    def test_simulated_recovery_deterministic_and_exact(self):
        spec = generate_polytree_aln(5, seed=2)
        kwargs = dict(mode="simulated", pipeline="mst-coherence",
                      length=2 ** 15, seed=6,
                      cfg=WelchConfig(grid_size=512, segment_length=512))
        first = run_recovery(spec, **kwargs)
        second = run_recovery(spec, **kwargs)
        assert first.to_json() == second.to_json()
        assert first.precision == 1.0 and first.recall == 1.0

    def test_simulated_needs_seed(self):
        with pytest.raises(InvalidParameterError):
            run_recovery(chain_spec(), mode="simulated")

    def test_unknown_mode_and_pipeline(self):
        with pytest.raises(InvalidParameterError):
            run_recovery(chain_spec(), mode="exact")
        with pytest.raises(InvalidParameterError):
            run_recovery(chain_spec(), pipeline="mst")

    def test_report_json_fields(self):
        report = run_recovery(chain_spec(), pipeline="polytree-causal",
                              cfg=WelchConfig(grid_size=256))
        import json
        payload = json.loads(report.to_json())
        assert payload["mode"] == "analytic"
        assert payload["true_edges"] == [[0, 1], [1, 2]]
        assert payload["tie_count"] == 0


class TestAnalyticBuild:
    """The identifiability check and every analytic recovery of one spec on
    one grid share one build, which lives no longer than its spec."""

    @staticmethod
    def _counting(monkeypatch):
        calls = {"_source_transfers": 0, "_cross_spectra": 0}
        for name in calls:
            real = getattr(aln, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(aln, name, spy)
        return calls

    def test_one_build_per_trial(self, monkeypatch):
        calls = self._counting(monkeypatch)
        spec, cfg = generate_polytree_aln(10, seed=7), WelchConfig(grid_size=256)
        assert check_identifiability(spec, FrequencyGrid(256)).passed
        for pipeline in ("mst-coherence", "polytree-causal"):
            report = run_recovery(spec, mode="analytic", pipeline=pipeline, cfg=cfg)
            assert report.precision == 1.0 and report.recall == 1.0
        assert calls == {"_source_transfers": 1, "_cross_spectra": 1}

    def test_shared_matrix_and_what_rebuilds(self, monkeypatch):
        spec, grid = generate_polytree_aln(6, seed=3), FrequencyGrid(64)
        S = analytic_spectra(spec, grid)
        assert analytic_spectra(spec, FrequencyGrid(64)) is S
        with pytest.raises(ValueError):
            S.values[0, 0, 0] = 1.0
        calls = self._counting(monkeypatch)
        twin = ALNSpec.from_json(spec.to_json())
        other = analytic_spectra(twin, grid)
        assert other is not S and np.array_equal(other.values, S.values)
        finer = analytic_spectra(twin, FrequencyGrid(128))
        assert finer.values.shape[-1] == 128
        assert calls == {"_source_transfers": 2, "_cross_spectra": 2}

    def test_every_recovery_reports_its_floor_events(self):
        # the zero of 1 + z^-1 at omega = -pi, with no noise of its own,
        # takes b's auto-spectrum to zero there
        spec = ALNSpec(["a", "b", "c"],
                       [Link(0, 1, [1.0, 1.0]), Link(1, 2, [1.0, 0.5])],
                       [1.0, 0.0, 1.0])
        cfg = WelchConfig(grid_size=64)
        analytic_spectra(spec, FrequencyGrid(64))._floored   # outside a collector
        floor = [("spectral-floor", "auto-spectrum of 'b' floored at 1.000e-11")]
        for pipeline in ("mst-coherence", "polytree-causal", "mst-coherence"):
            with collect() as events:
                run_recovery(spec, mode="analytic", pipeline=pipeline, cfg=cfg)
            assert [(e.category, e.message) for e in events
                    if e.category == "spectral-floor"] == floor
        fresh = ALNSpec.from_json(spec.to_json())
        with collect() as events:
            S = analytic_spectra(fresh, FrequencyGrid(64))
            assert events == []           # a new matrix records on first use
            S._floored
        assert [(e.category, e.message) for e in events] == floor

    def test_bytes_match_a_fresh_build(self):
        grid = FrequencyGrid(64)
        spec = generate_polytree_aln(8, seed=5)
        check_identifiability(spec, grid)
        S = analytic_spectra(spec, grid)
        H = aln._source_transfers(spec, grid)
        cross = aln._cross_spectra(H, _noise_spectra(spec, grid)[:, grid.half])
        assert np.array_equal(S.values,
                              SpectralMatrix(spec.labels, grid, cross).values)

    def test_at_most_one_build_alive(self):
        grid, specs, builds = FrequencyGrid(64), [], []
        for seed in range(100):
            specs.append(generate_polytree_aln(4, seed))
            check_identifiability(specs[-1], grid)
            builds.append(weakref.ref(aln._last_build[2]))
        gc.collect()
        assert sum(ref() is not None for ref in builds) == 1
        del specs
        assert aln._last_build is None
        assert builds[-1]() is None

    def test_threads_alternating_specs_match_a_serial_run(self):
        grid = FrequencyGrid(64)
        specs = [generate_polytree_aln(6, seed=1), generate_polytree_aln(9, seed=2)]
        serial = [(analytic_spectra(spec, grid).values.copy(),
                   check_identifiability(spec, grid)) for spec in specs]
        failures = []

        def work(offset):
            try:
                for i in range(200):
                    k = (i + offset) % 2
                    report = check_identifiability(specs[k], grid)
                    values = analytic_spectra(specs[k], grid).values
                    if report != serial[k][1] or \
                            not np.array_equal(values, serial[k][0]):
                        failures.append((offset, i))
            except Exception as exc:       # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def test_analytic_build_keeps_one_copy_of_the_cross_spectra():
    # the build retains its matrix's half grid, the noise spectra and the
    # shared-noise mask, and no second copy of the cross spectra
    spec, grid = generate_polytree_aln(16, seed=0), FrequencyGrid(256)
    tracemalloc.start()
    try:
        check_identifiability(spec, grid)
        S = analytic_spectra(spec, grid)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert aln._last_build[2].matrix is S
    assert retained < 1.5 * S.half.nbytes
