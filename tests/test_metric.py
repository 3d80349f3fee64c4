import re
import tracemalloc

import numpy as np
import pytest

from polyscope import (
    DegenerateSeriesError,
    DirectionMatrix,
    DistanceMatrix,
    Ensemble,
    FrequencyGrid,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSpectrumError,
    SpectralMatrix,
    Spectrum,
    TimeSeries,
    WelchConfig,
    causal_distance,
    causal_distance_matrix,
    causal_edge_weights,
    causal_wiener,
    coherence_distance,
    coherence_function,
    correlation_distance_matrix,
    distance_matrix,
    spearman_index,
    spectral_factorize,
    spectral_matrix,
    windowed_average_distance,
)
from polyscope import (analytic_spectra, build_polytree, generate_polytree_aln,
                       metric, signals, simulate)
from polyscope.diagnostics import collect
from polyscope.metric import _log_triangle_breaches

from oracles import (
    causal_error_costs_reference,
    causal_rows_reference,
    distance_matrix_reference,
    half_grid_matrix,
    random_psd_matrix,
    sinusoid_ensemble,
)


def delayed_pair_spectra(grid, delay=1):
    """Analytic spectra of white x and y(t) = x(t - delay)."""
    from polyscope import ALNSpec, Link, analytic_spectra
    spec = ALNSpec(["x", "y"],
                   [Link(0, 1, np.array([1.0]), delay=delay)],
                   np.array([1.0, 0.0]))
    return analytic_spectra(spec, grid)


class TestContainers:
    def test_distance_matrix_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            DistanceMatrix(["a", "b"], np.array([[0.0, -0.1], [-0.1, 0.0]]),
                           "noncausal")

    @pytest.mark.parametrize("kind", ["noncausal", "causal"])
    def test_distance_matrix_rejects_nan(self, kind):
        with pytest.raises(InvalidParameterError,
                           match="^distance matrix must hold finite numbers$"):
            DistanceMatrix(["a", "b"], np.array([[0.0, np.nan], [0.5, 0.0]]),
                           kind)
        # no builder yields an infinite distance: it is refused as NaN is
        with pytest.raises(InvalidParameterError,
                           match="^distance matrix must hold finite numbers$"):
            DistanceMatrix(["a", "b"], np.array([[0.0, np.inf], [np.inf, 0.0]]),
                           kind)

    def test_distance_matrix_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidParameterError):
            DistanceMatrix(["a", "b"], np.array([[0.1, 0.2], [0.2, 0.0]]),
                           "noncausal")

    def test_symmetric_kind_rejects_asymmetry(self):
        vals = np.array([[0.0, 0.1], [0.2, 0.0]])
        with pytest.raises(InvalidParameterError):
            DistanceMatrix(["a", "b"], vals, "correlation")
        DistanceMatrix(["a", "b"], vals, "causal")  # rows=targets: fine

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            DistanceMatrix(["a"], np.zeros((1, 1)), "euclidean")

    def test_direction_matrix_antisymmetry(self):
        with pytest.raises(InvalidParameterError):
            DirectionMatrix(["a", "b"], np.array([[0, 1], [1, 0]]),
                            np.zeros((2, 2), dtype=bool))


class TestCoherenceDistance:
    def test_self_distance_zero(self):
        S = random_psd_matrix(np.random.default_rng(0), 3, FrequencyGrid(64))
        for i in range(3):
            assert coherence_distance(S, i, i) == 0.0

    def test_duplicated_series_at_zero_distance(self):
        grid = FrequencyGrid(64)
        phi = np.ones(64)
        values = np.ones((2, 2, 64), dtype=complex)
        S_dup = __import__("polyscope").SpectralMatrix(["a", "a2"], grid,
                                                       values)
        assert coherence_distance(S_dup, 0, 1) == pytest.approx(0.0, abs=1e-9)
        with collect() as events:
            distance_matrix(S_dup)
        assert any(e.category == "degenerate-pair" for e in events)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            S = random_psd_matrix(rng, 4, FrequencyGrid(128))
            D = distance_matrix(S)
            np.testing.assert_array_equal(D.values, D.values.T)
            assert np.all(np.diag(D.values) == 0.0)
            assert np.all(D.values >= 0.0)
            assert np.all(D.values <= 1.0 + 1e-9)

    def test_matrix_equals_per_pair_loop_bit_for_bit(self):
        # analytic spectra come out of einsum in a strided layout; the
        # matrix must still sum each pair's coherence in the per-pair order
        for n, seed in [(4, 0), (7, 1), (10, 2), (13, 3), (16, 4)]:
            S = analytic_spectra(generate_polytree_aln(n, seed),
                                 FrequencyGrid(256))
            phi = [S.floored_autospectrum(i) for i in range(n)]
            ref = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    c = np.clip(np.abs(S.values[i, j]) ** 2
                                / (phi[i] * phi[j]), 0.0, 1.0)
                    ref[i, j] = ref[j, i] = np.sqrt(max(np.mean(1.0 - c), 0.0))
            assert np.array_equal(distance_matrix(S).values, ref)

    def test_every_zero_auto_spectrum_raises_naming_a_series(self):
        S = SpectralMatrix(["a", "b", "c"], FrequencyGrid(16),
                           np.zeros((3, 3, 16)))
        constant = Ensemble([TimeSeries(label, np.full(2048, value))
                             for label, value in zip("abc", (1.0, 2.0, 3.0))])
        welch = spectral_matrix(constant, WelchConfig(grid_size=64))
        for call in (lambda: distance_matrix(S), lambda: distance_matrix(welch),
                     lambda: coherence_distance(S, 0, 2),
                     lambda: coherence_function(S, 1, 2)):
            with pytest.raises(DegenerateSeriesError,
                               match="^series 'a' has zero variance$"):
                call()

    def test_one_constant_series_is_at_distance_one(self):
        rng = np.random.default_rng(2)
        ens = Ensemble([TimeSeries("a", rng.standard_normal(2048)),
                        TimeSeries("flat", np.full(2048, 2.5)),
                        TimeSeries("c", rng.standard_normal(2048))])
        D = distance_matrix(spectral_matrix(ens, WelchConfig(grid_size=64)))
        assert np.array_equal(D.values[1], [1.0, 0.0, 1.0])

    def test_triangle_breach_checked_on_large_ensembles(self):
        n = 300
        values = np.ones((n, n))
        np.fill_diagonal(values, 0.0)
        values[0, 1] = values[1, 0] = 2.5        # 2.5 > 1 + 1 via any third node
        with collect() as events:
            _log_triangle_breaches(values)
        breaches = [e for e in events if e.category == "triangle-breach"]
        assert len(breaches) == 1
        assert "0.5000" in breaches[0].message
        with collect() as events:
            _log_triangle_breaches(np.minimum(values, 1.0))
        assert not events

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            S = random_psd_matrix(rng, 4, FrequencyGrid(128))
            D = distance_matrix(S).values
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        assert D[i, j] <= D[i, k] + D[k, j] + 1e-8


def overshooting_matrix(n: int = 5, size: int = 32) -> SpectralMatrix:
    """A random Hermitian matrix that is not positive semi-definite: most
    pairs' coherence overshoots 1, some several times over."""
    rng = np.random.default_rng(n)
    half = rng.standard_normal((n, n, size // 2 + 1)) \
        + 1j * rng.standard_normal((n, n, size // 2 + 1))
    half = half + np.conj(half.transpose(1, 0, 2))
    half.imag[..., [0, -1]] = 0.0
    d = np.arange(n)
    half[d, d] = np.abs(half[d, d]) + 0.1
    return SpectralMatrix([f"s{i}" for i in range(n)], FrequencyGrid(size), half)


class TestDistanceMatrixMatchesRowLoop:
    """The pair kernel against the per-row loop it replaced: the same
    bytes and the same events in the same order."""

    @staticmethod
    def assert_matches(S):
        with collect() as events:
            D = distance_matrix(S)
        with collect() as ref_events:
            ref = distance_matrix_reference(S)
        assert D.values.tobytes() == ref.values.tobytes()
        assert events == ref_events

    @pytest.mark.parametrize("n", range(2, 17))
    def test_analytic_networks(self, n):
        for seed in range(3):
            self.assert_matches(analytic_spectra(generate_polytree_aln(n, seed),
                                                 FrequencyGrid(256)))

    def test_welch_records(self):
        sim = simulate(generate_polytree_aln(8, 3), 2 ** 12, seed=5)
        self.assert_matches(spectral_matrix(sim.ensemble, WelchConfig(grid_size=64)))
        self.assert_matches(spectral_matrix(sinusoid_ensemble(),
                                            WelchConfig(grid_size=256)))

    def test_records_that_overshoot(self):
        for n in (2, 5, 9):
            S = overshooting_matrix(n)
            with collect() as events:
                distance_matrix(S)
            assert sum(e.category == "coherence-overshoot" for e in events) >= n - 1
            self.assert_matches(S)


class TestDelayedPair:
    """A pure delay is invisible to coherence but kills zero-lag correlation."""

    def test_estimated_coherence_distance_is_small(self):
        rng = np.random.default_rng(91)
        w = rng.standard_normal(2 ** 15 + 3)
        x, y = w[3:], w[:-3]           # y(t) = x(t - 3)
        ens = Ensemble([TimeSeries("x", x), TimeSeries("y", y)])
        cfg = WelchConfig(grid_size=256, segment_length=256)
        D = distance_matrix(spectral_matrix(ens, cfg))
        assert D.values[0, 1] <= 0.1

    def test_correlation_distance_is_large(self):
        rng = np.random.default_rng(91)
        w = rng.standard_normal(2 ** 15 + 3)
        ens = Ensemble([TimeSeries("x", w[3:]), TimeSeries("y", w[:-3])])
        D = correlation_distance_matrix(ens)
        assert D.values[0, 1] >= 1.0


def targets_per_block(S: SpectralMatrix, budget: int) -> int:
    return max(1, budget // (S.n * (S.grid.size // 2 + 1)))


class TestCausalDistance:
    def test_matrix_matches_pairwise_solver(self, monkeypatch):
        small = random_psd_matrix(np.random.default_rng(11), 4, FrequencyGrid(128))
        split = half_grid_matrix("analytic", 13, 256)
        # one block of 4 targets; 13 targets in blocks of 5, 5 and 3
        for S, budget, block in [(small, signals.BLOCK_VALUES, 4),
                                 (split, 5 * 13 * 129, 5)]:
            monkeypatch.setattr(signals, "BLOCK_VALUES", budget)
            assert min(targets_per_block(S, budget), S.n) == block
            DC = causal_distance_matrix(S)
            assert DC.kind == "causal"
            for j in range(S.n):
                for i in range(S.n):
                    if i == j:
                        assert DC.values[j, i] == 0.0
                    else:
                        ref = np.sqrt(max(causal_wiener(S, j, i).cost, 0.0))
                        assert DC.values[j, i] == ref
                        assert causal_distance(S, j, i) == ref

    def test_factors_are_those_of_the_floored_autospectra(self, monkeypatch):
        S = spectral_matrix(sinusoid_ensemble(), WelchConfig(grid_size=256))
        factor, factored = metric._spectral_factors, []

        def spy(grid, phi):
            factored.append(factor(grid, phi))
            return factored[-1]

        monkeypatch.setattr(metric, "_spectral_factors", spy)
        with collect() as events:
            causal_distance_matrix(S)
        assert [e.message for e in events
                if e.category == "spectral-floor"] == [
            f"auto-spectrum of {label!r} floored at {S._floored.min():.3e}"
            for label in S.labels]
        responses = factored[0][0]
        assert len(responses) == S.n
        for i, response in enumerate(responses):
            F = spectral_factorize(Spectrum(S.grid, S.floored_autospectrum(i)))
            assert np.array_equal(response, F.response[S.grid.half])

    def test_causal_dominates_coherence(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            S = random_psd_matrix(rng, 4, FrequencyGrid(128))
            D = distance_matrix(S).values
            DC = causal_distance_matrix(S).values
            assert np.all(DC >= D - 1e-6)

    def test_range(self):
        S = random_psd_matrix(np.random.default_rng(13), 3, FrequencyGrid(64))
        DC = causal_distance_matrix(S)
        assert np.all(DC.values <= 1.0 + 1e-6)

    def test_single_pair_helper(self):
        S = random_psd_matrix(np.random.default_rng(14), 2, FrequencyGrid(64))
        assert causal_distance(S, 1, 0) == pytest.approx(
            np.sqrt(causal_wiener(S, 1, 0).cost))
        assert causal_distance(S, 1, 1) == 0.0


def causal_rows(S: SpectralMatrix, distances) -> tuple[bytes, list]:
    """The bytes of ``distances`` on a fresh copy of ``S``, with the
    events it records, in order."""
    fresh = SpectralMatrix(S.labels, S.grid, S.half)
    with collect() as events:
        values = distances(fresh)
    return values.tobytes(), events


#: Absolute tolerance between the Parseval cost ``1 - sum c^2`` and the
#: grid mean of the clipped error spectrum: both are within a few ``eps`` of
#: the exact cost of a positive semidefinite matrix (the largest measured
#: gap over the cases below is 2.6 ``eps``), and costs lie in [0, 1].
PARSEVAL_COST_ATOL = 8 * np.finfo(float).eps


class TestParsevalCost:
    """The cost ``1 - sum_{tau < K/2} c_tau^2`` against the error-spectrum
    kernel it replaced."""

    @pytest.mark.parametrize("size", [64, 256, 1024])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("producer", ["welch", "analytic"])
    def test_matches_the_error_spectrum_kernel(self, producer, n, size):
        S = half_grid_matrix(producer, n, size)
        with collect() as events:
            DC = causal_distance_matrix(S).values
        with collect() as ref_events:
            ref = causal_error_costs_reference(S)
        off = ~np.eye(n, dtype=bool)
        # the root and its square round by an ulp of the cost at most
        gap = np.abs(DC ** 2 - ref)[off]
        assert gap.max() <= PARSEVAL_COST_ATOL
        assert [e.category for e in events] == [e.category for e in ref_events]

    def test_residual_spectrum_mean_is_the_cost(self):
        for producer in ("welch", "analytic"):
            S = half_grid_matrix(producer, 8, 256)
            for target, input_ in [(0, 7), (7, 0), (1, 0), (3, 5)]:
                sol = causal_wiener(S, target, input_)
                mean = np.mean(sol.residual_spectrum.values.real)
                assert abs(mean - sol.cost) <= PARSEVAL_COST_ATOL

    def test_a_matrix_that_is_not_psd_is_refused_by_the_filter(
            self, monkeypatch):
        S = overshooting_matrix(5)
        costs = np.array([[metric._causal_pair(S, j, i)[1] if i != j else 0.0
                           for i in range(5)] for j in range(5)])
        assert costs.min() < -1e-8
        messages = {(j, i): f"causal cost of 's{j}' on 's{i}' is "
                            f"{costs[j, i]:.3e}: the spectral matrix is not "
                            f"positive semidefinite"
                    for j, i in np.argwhere(costs < -1e-8).tolist()}
        assert len(messages) > 1
        # the distances read 0, and every blocking flags each overshoot in
        # target-then-input order
        row = 5 * (S.grid.size // 2 + 1)
        for budget in (signals.BLOCK_VALUES, 1, 2 * row):
            monkeypatch.setattr(signals, "BLOCK_VALUES", budget)
            with collect() as events:
                DC = causal_distance_matrix(S).values
            assert np.array_equal(DC, np.sqrt(np.maximum(costs, 0.0)))
            assert [e.message for e in events
                    if e.category == "causal-overshoot"] == list(messages.values())
        j, i = np.unravel_index(np.argmin(costs), costs.shape)
        message = messages[j, i]
        with collect() as events:
            assert causal_distance(S, j, i) == 0.0
        assert [e.message for e in events
                if e.category == "causal-overshoot"] == [message]
        with pytest.raises(InvalidSpectrumError, match=f"^{re.escape(message)}$"):
            causal_wiener(S, j, i)


class TestCausalBlocks:
    """Targets are solved in blocks of ``signals.BLOCK_VALUES`` array values,
    with the bits and events of a per-target loop of the kernel's
    elementwise operations."""

    @pytest.mark.parametrize("size", [64, 256, 1024])
    @pytest.mark.parametrize("n", [4, 13, 16, 32])
    @pytest.mark.parametrize("producer", ["welch", "analytic"])
    def test_matches_the_per_target_loop(self, producer, n, size):
        S = half_grid_matrix(producer, n, size)
        assert causal_rows(S, lambda T: causal_distance_matrix(T).values) == \
            causal_rows(S, causal_rows_reference)

    @pytest.mark.parametrize("size", [64, 256, 1024])
    @pytest.mark.parametrize("producer", ["welch", "analytic"])
    def test_any_blocking_gives_the_same_bits(self, producer, size, monkeypatch):
        S = half_grid_matrix(producer, 13, size)
        row = 13 * (size // 2 + 1)
        expected = causal_rows(S, causal_rows_reference)
        for budget, block in [(1, 1), (5 * row + row // 2, 5), (13 * row, 13)]:
            monkeypatch.setattr(signals, "BLOCK_VALUES", budget)
            assert targets_per_block(S, budget) == block
            assert causal_rows(
                S, lambda T: causal_distance_matrix(T).values) == expected

    def test_transient_memory_is_bounded_by_the_block(self):
        # 3 of 32 targets per block at K 1024; all 32 in one pass peak
        # near 26 MB
        S = half_grid_matrix("analytic", 32, 1024)
        assert targets_per_block(S, signals.BLOCK_VALUES) == 3
        S._floored
        tracemalloc.start()
        try:
            causal_distance_matrix(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's kernel peaks near three times its sequences' bytes (the
        # layer near 3.2 MB here); the rest of the bound is room for the
        # factors of every series and their reciprocals
        assert peak < 6 * 16 * signals.BLOCK_VALUES


class TestCausalEdgeWeights:
    def test_delayed_pair_orientation(self):
        grid = FrequencyGrid(512)
        S = delayed_pair_spectra(grid, delay=1)
        DC = causal_distance_matrix(S)
        # y is perfectly explained by x's past; x needs y's future
        assert DC.values[1, 0] == pytest.approx(0.0, abs=1e-6)
        assert DC.values[0, 1] == pytest.approx(1.0, abs=1e-6)
        weights, direction = causal_edge_weights(DC)
        assert weights.kind == "causal-min"
        assert weights.values[0, 1] == pytest.approx(0.0, abs=1e-6)
        assert direction.values[1, 0] == 1       # x -> y won
        assert direction.values[0, 1] == -1
        assert not direction.ties.any()

    def test_exact_tie_breaks_upward_and_flags(self):
        DC = DistanceMatrix(["a", "b"], np.array([[0.0, 0.5], [0.5, 0.0]]),
                            "causal")
        with collect() as events:
            weights, direction = causal_edge_weights(DC)
        assert direction.values[0, 1] == 1
        assert direction.ties[0, 1] and direction.ties[1, 0]
        assert weights.values[0, 1] == 0.5
        assert events == []          # build_polytree records ties on tree edges

    def test_rounding_gap_ties_and_a_real_gap_does_not(self):
        d = np.zeros((3, 3))
        d[0, 1], d[1, 0] = 0.5 + 1e-16, 0.5      # one ulp: rounding decides it
        d[0, 2], d[2, 0] = 0.5 + 1e-9, 0.5       # a real gap, pointing 0 -> 2
        weights, direction = causal_edge_weights(
            DistanceMatrix(["a", "b", "c"], d, "causal"))
        assert d[0, 1] != d[1, 0]
        assert direction.ties[0, 1] and direction.ties[1, 0]
        assert direction.values[0, 1] == 1       # upward, as an exact tie
        assert not direction.ties[0, 2] and not direction.ties[2, 0]
        assert direction.values[2, 0] == 1
        assert weights.values[0, 1] == weights.values[1, 0] == 0.5

    def test_rounding_level_zero_costs_tie(self):
        d = np.zeros((3, 3))
        # costs of 6 and 7 eps: a series and its copy, far apart relatively
        d[0, 1], d[1, 0] = np.sqrt([6, 7]) * np.sqrt(np.finfo(float).eps)
        # both costs just above the bound: a real, if small, gap
        above = np.sqrt(metric.ZERO_COST_ATOL) * 1.01
        d[0, 2], d[2, 0] = above * 1.5, above
        _, direction = causal_edge_weights(
            DistanceMatrix(["a", "b", "c"], d, "causal"))
        assert abs(d[0, 1] - d[1, 0]) > metric.TIE_RTOL * d[1, 0]
        assert direction.ties[0, 1] and direction.ties[1, 0]
        assert direction.values[0, 1] == 1       # upward, as an exact tie
        assert not direction.ties[0, 2]
        assert direction.values[2, 0] == 1

    @pytest.mark.parametrize("size", [64, 256])
    def test_a_series_and_its_copy_are_a_flagged_tie(self, size):
        sim = simulate(generate_polytree_aln(8, 3), 2 ** 14, seed=5)
        x = sim.ensemble.values()
        ens = Ensemble([TimeSeries(label, row) for label, row
                        in zip(sim.ensemble.labels, x)]
                       + [TimeSeries("copy", x[0])])
        S = spectral_matrix(ens, WelchConfig(grid_size=size))
        DC = causal_distance_matrix(S)
        costs = DC.values[[0, 8], [8, 0]] ** 2
        assert costs.max() <= metric.ZERO_COST_ATOL
        for j, i in [(0, 8), (8, 0)]:
            # a cost that rounds below 0 is clipped, not refused
            assert causal_distance(S, j, i) == DC.values[j, i] == \
                np.sqrt(causal_wiener(S, j, i).cost)
        _, direction = causal_edge_weights(DC)
        assert direction.ties[0, 8] and direction.values[0, 8] == 1
        with collect() as events:
            tree = build_polytree(DC)
        assert (8, 0) in tree.ties
        assert any(e.category == "tie" and "'X1' and 'copy'" in e.message
                   for e in events)

    def test_rejects_symmetric_kind(self):
        D = DistanceMatrix(["a", "b"], np.zeros((2, 2)), "noncausal")
        with pytest.raises(InvalidParameterError):
            causal_edge_weights(D)


class TestCorrelationDistance:
    def test_known_values(self):
        t = np.arange(64, dtype=float)
        a = np.sin(0.7 * t)
        ens = Ensemble([TimeSeries("a", a),
                        TimeSeries("minus", -a),
                        TimeSeries("same", 2.0 * a)])
        D = correlation_distance_matrix(ens)
        assert D.values[0, 1] == pytest.approx(2.0, abs=1e-12)
        assert D.values[0, 2] == pytest.approx(0.0, abs=1e-7)

    def test_uncorrelated_pair(self):
        n = 64
        a = np.zeros(n)
        b = np.zeros(n)
        a[0], a[1] = 1.0, -1.0
        b[2], b[3] = 1.0, -1.0          # orthogonal, zero mean
        D = correlation_distance_matrix(
            Ensemble([TimeSeries("a", a), TimeSeries("b", b)]))
        assert D.values[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_constant_series_raises(self):
        ens = Ensemble([TimeSeries("a", np.sin(np.arange(32.0))),
                        TimeSeries("flat", np.full(32, 7.0))])
        with pytest.raises(DegenerateSeriesError, match="flat"):
            correlation_distance_matrix(ens)


class TestSpearmanIndex:
    @staticmethod
    def _sym(values):
        vals = np.asarray(values, dtype=float)
        return DistanceMatrix(["a", "b", "c"], vals, "noncausal")

    def test_monotone_transform_gives_one(self):
        vals = np.array([[0.0, 0.2, 0.5],
                         [0.2, 0.0, 0.9],
                         [0.5, 0.9, 0.0]])
        A = self._sym(vals)
        B = self._sym(vals ** 2)
        assert spearman_index(A, B) == pytest.approx(1.0)

    def test_reversed_ranks_give_minus_one(self):
        vals = np.array([[0.0, 0.2, 0.5],
                         [0.2, 0.0, 0.9],
                         [0.5, 0.9, 0.0]])
        rev = 1.0 - vals
        np.fill_diagonal(rev, 0.0)
        assert spearman_index(self._sym(vals), self._sym(rev)) == \
            pytest.approx(-1.0)

    def test_single_pair_is_undefined(self):
        A = DistanceMatrix(["a", "b"], np.array([[0.0, 0.3], [0.3, 0.0]]),
                           "noncausal")
        off = 1.0 - np.eye(3)
        labels = ["a", "b", "c"]
        varied = DistanceMatrix(labels, off * [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
                                "noncausal")
        constant = "constant distances; rank index undefined"
        flat = DistanceMatrix(labels, 0.3 * off, "correlation")
        cases = [((A, A), "fewer than two pairs; rank index undefined"),
                 ((flat, varied), constant), ((varied, flat), constant)]
        for pair, message in cases:
            with collect() as events:
                assert spearman_index(*pair) is None
            assert [(e.category, e.message) for e in events] == [
                ("spearman-undefined", message)]

    def test_rejects_causal_kind(self):
        A = DistanceMatrix(["a", "b"], np.zeros((2, 2)), "causal")
        with pytest.raises(InvalidParameterError):
            spearman_index(A, A)


class TestWindowedAverage:
    def test_matches_manual_window_mean(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((2, 640))
        ens = Ensemble([TimeSeries("a", data[0]), TimeSeries("b", data[1])])
        cfg = WelchConfig(grid_size=64, segment_length=64, segment_count=4)
        out = windowed_average_distance(ens, 256, cfg)

        raw = ens.values()
        total = np.zeros((2, 2))
        for w in range(2):                      # trailing 128 samples dropped
            chunk = raw[:, w * 256:(w + 1) * 256]
            sub = Ensemble([TimeSeries("a", chunk[0]),
                            TimeSeries("b", chunk[1])])
            total += distance_matrix(spectral_matrix(sub, cfg)).values
        np.testing.assert_allclose(out.values, total / 2, atol=1e-15)

    def test_short_record_raises(self):
        ens = Ensemble([TimeSeries("a", np.sin(np.arange(100.0))),
                        TimeSeries("b", np.cos(np.arange(100.0)))])
        cfg = WelchConfig(grid_size=16, segment_length=16)
        with pytest.raises(InsufficientDataError):
            windowed_average_distance(ens, 128, cfg)

    def test_bad_window_length(self):
        ens = Ensemble([TimeSeries("a", np.sin(np.arange(100.0))),
                        TimeSeries("b", np.cos(np.arange(100.0)))])
        with pytest.raises(InvalidParameterError):
            windowed_average_distance(ens, 1, WelchConfig())
