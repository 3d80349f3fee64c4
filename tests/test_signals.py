import re
import tracemalloc

import numpy as np
import pytest

from polyscope import (
    DistanceMatrix,
    Ensemble,
    FrequencyGrid,
    InsufficientDataError,
    InvalidParameterError,
    Link,
    SpectralMatrix,
    TimeSeries,
    TransferFunction,
    WelchConfig,
    analytic_spectra,
    causal_distance,
    causal_wiener,
    coherence_distance,
    coherence_function,
    generate_polytree_aln,
    inner_product,
    matching_pursuit,
    miso_blanket_topology,
    noncausal_wiener,
    orthogonal_least_squares,
    project,
    simulate,
    sparse_exhaustive,
    spectral_matrix,
    welch_cross_spectrum,
    windowed_average_distance,
)
from polyscope.diagnostics import collect

from oracles import csd_reference, random_psd_matrix, welch_reference

#: Every public function that takes a series index, given index ``b`` in
#: each position it can take.
INDEXED = {
    "floored_autospectrum": lambda S, b: S.floored_autospectrum(b),
    "coherence_function-i": lambda S, b: coherence_function(S, b, 0),
    "coherence_function-j": lambda S, b: coherence_function(S, 0, b),
    "coherence_distance-i": lambda S, b: coherence_distance(S, b, 0),
    "coherence_distance-j": lambda S, b: coherence_distance(S, 0, b),
    "causal_distance-target": lambda S, b: causal_distance(S, b, 0),
    "causal_distance-input": lambda S, b: causal_distance(S, 0, b),
    "causal_distance-both": lambda S, b: causal_distance(S, b, b),
    "causal_wiener-target": lambda S, b: causal_wiener(S, b, 0),
    "causal_wiener-input": lambda S, b: causal_wiener(S, 0, b),
    "noncausal_wiener-target": lambda S, b: noncausal_wiener(S, b, [0]),
    "noncausal_wiener-input": lambda S, b: noncausal_wiener(S, 0, [b]),
    "inner_product": lambda S, b: inner_product(S, b, 0),
    "project-empty": lambda S, b: project(S, b, []),
    "project-target": lambda S, b: project(S, b, [0]),
    "project-input": lambda S, b: project(S, 0, [b]),
    "sparse_exhaustive": lambda S, b: sparse_exhaustive(S, b, 1),
    "matching_pursuit": lambda S, b: matching_pursuit(S, b, 1),
    "orthogonal_least_squares": lambda S, b: orthogonal_least_squares(S, b, 1),
}

#: Every consumer whose first use of a matrix reads its floored auto-spectra.
FIRST_FLOOR_USES = {
    "floored_autospectrum": lambda S: S.floored_autospectrum(0),
    "orthogonal_least_squares": lambda S: orthogonal_least_squares(S, 0, 1),
    "noncausal_wiener": lambda S: noncausal_wiener(S, 0, [1, 2]),
    "sparse_exhaustive": lambda S: sparse_exhaustive(S, 0, 2),
    "miso_blanket_topology": lambda S: miso_blanket_topology(
        S, DistanceMatrix(S.labels, 1.0 - np.eye(S.n), "noncausal")),
}


@pytest.mark.parametrize("bad", [3, -1])
@pytest.mark.parametrize("call", INDEXED.values(), ids=INDEXED.keys())
def test_series_index_out_of_range(call, bad):
    S = random_psd_matrix(np.random.default_rng(0), 3, FrequencyGrid(16))
    with pytest.raises(InvalidParameterError,
                       match=rf"^index {bad} out of range for n=3$"):
        call(S, bad)


def _two_series(length: int) -> Ensemble:
    rng = np.random.default_rng(4)
    return Ensemble([TimeSeries(label, rng.standard_normal(length))
                     for label in "ab"])


#: Every size argument outside ``FrequencyGrid`` and ``WelchConfig`` that
#: must be an integer: a call given that size, and a valid value of it.
SIZED = {
    "generate_polytree_aln-n": (lambda v: generate_polytree_aln(v, 1), 4),
    "simulate-length": (
        lambda v: simulate(generate_polytree_aln(3, 0), v, 0), 2048),
    "windowed_average_distance-window_length": (
        lambda v: windowed_average_distance(_two_series(2048), v,
                                            WelchConfig(grid_size=64)), 1024),
    "from_taps-offset": (
        lambda v: TransferFunction.from_taps(FrequencyGrid(16), [1.0, 0.5], v), 1),
    "Link-delay": (lambda v: Link(0, 1, np.array([1.0]), v), 1),
}


@pytest.mark.parametrize("call", SIZED)
def test_sizes_are_integers_everywhere(call):
    run, size = SIZED[call]
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"must be an integer, not {float(size)!r}")):
        run(float(size))
    run(np.int64(size))


class TestFrequencyGrid:
    def test_omegas_span(self):
        grid = FrequencyGrid(8)
        assert grid.omegas[0] == pytest.approx(-np.pi)
        assert grid.omegas[4] == pytest.approx(0.0)
        assert grid.omegas[-1] == pytest.approx(np.pi - 2 * np.pi / 8)

    def test_size_must_be_an_integer(self):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            FrequencyGrid(64.0)
        half = np.arange(33.0)
        assert np.array_equal(FrequencyGrid(np.int64(64)).mirror(half),
                              FrequencyGrid(64).mirror(half))

    def test_integrate_is_grid_mean(self):
        grid = FrequencyGrid(16)
        assert grid.integrate(np.ones(16)) == pytest.approx(1.0)
        # (1/2pi) int cos^2 = 1/2, exact on the grid for this harmonic
        assert grid.integrate(np.cos(grid.omegas) ** 2) == pytest.approx(0.5)

    def test_integrate_sums_every_layout_in_c_order(self):
        grid = FrequencyGrid(64)
        values = np.random.default_rng(4).standard_normal((64, 5)).T
        assert not values.flags.c_contiguous
        assert np.array_equal(grid.integrate(values),
                              grid.integrate(values.copy()))

    def test_mirror_rebuilds_a_conjugate_even_grid_exactly(self):
        grid = FrequencyGrid(16)
        half = np.random.default_rng(5).standard_normal((3, 9)) * (1 + 2j)
        half[:, [0, 8]] = half[:, [0, 8]].real
        full = grid.mirror(half)
        rfft_bins = np.r_[8:16, 0]
        assert np.array_equal(full[:, rfft_bins], half)
        assert np.array_equal(full[:, 1:8], np.conj(full[:, 15:8:-1]))
        assert np.array_equal(grid.mirror(full[:, rfft_bins]), full)

    def test_mirror_of_rfft_is_the_shifted_fft(self):
        grid = FrequencyGrid(32)
        x = np.random.default_rng(6).standard_normal(32)
        np.testing.assert_allclose(grid.mirror(np.fft.rfft(x)),
                                   np.fft.fftshift(np.fft.fft(x)),
                                   rtol=0, atol=1e-12)

    def test_mirror_rejects_a_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            FrequencyGrid(16).mirror(np.ones(16))

    @pytest.mark.parametrize("size", [0, 7, 9, -4])
    def test_rejects_bad_sizes(self, size):
        with pytest.raises(InvalidParameterError):
            FrequencyGrid(size)

    def test_response_matches_direct_dtft(self):
        grid = FrequencyGrid(32)
        rng = np.random.default_rng(3)
        taps = rng.standard_normal(5)
        offset = 2
        resp = grid.response_from_taps(taps, offset)
        direct = sum(t * np.exp(-1j * grid.omegas * (offset + s))
                     for s, t in enumerate(taps))
        np.testing.assert_allclose(resp, direct, atol=1e-12)

    def test_taps_roundtrip(self):
        grid = FrequencyGrid(64)
        taps = np.array([0.3, -1.2, 0.5])
        resp = grid.response_from_taps(taps, offset=-1)
        back, offset = grid.taps_from_response(resp)
        rebuilt = grid.response_from_taps(back, offset)
        np.testing.assert_allclose(rebuilt, resp, atol=1e-12)


class TestSeriesContainers:
    def test_series_validation(self):
        with pytest.raises(InvalidParameterError):
            TimeSeries("x", np.array([1.0, np.nan]))
        with pytest.raises(InvalidParameterError):
            TimeSeries("x", np.ones((2, 2)))

    def test_ensemble_demeans_by_default(self):
        ens = Ensemble([TimeSeries("a", np.array([1.0, 2.0, 3.0])),
                        TimeSeries("b", np.array([5.0, 5.0, 8.0]))])
        assert ens.series[0].samples.mean() == pytest.approx(0.0)
        raw = Ensemble([TimeSeries("a", np.array([1.0, 2.0, 3.0])),
                        TimeSeries("b", np.array([5.0, 5.0, 8.0]))],
                       demean=False)
        assert raw.series[0].samples[0] == 1.0

    def test_ensemble_rejects_mismatches(self):
        a = TimeSeries("a", np.zeros(4))
        with pytest.raises(InvalidParameterError):
            Ensemble([a])
        with pytest.raises(InvalidParameterError):
            Ensemble([a, TimeSeries("b", np.zeros(5))])
        with pytest.raises(InvalidParameterError):
            Ensemble([a, TimeSeries("a", np.ones(4))])


class TestWelchConfig:
    def test_defaults(self):
        cfg = WelchConfig()
        assert cfg.effective_segment_length == 1024
        assert cfg.hop == 512

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            WelchConfig(overlap=1.0)
        with pytest.raises(InvalidParameterError):
            WelchConfig(segment_length=2048, grid_size=1024)
        with pytest.raises(InvalidParameterError):
            WelchConfig(segment_length=4)

    @pytest.mark.parametrize("kwargs", [
        {"grid_size": 64.0}, {"segment_count": 2.5}, {"segment_length": 64.0}])
    def test_sizes_must_be_integers(self, kwargs):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            WelchConfig(**kwargs)

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = WelchConfig(grid_size=np.int64(64), segment_length=np.int64(32),
                          segment_count=np.int64(4))
        assert (cfg.effective_segment_length, cfg.hop) == (32, 16)
        assert np.array_equal(cfg.window_taps,
                              WelchConfig(grid_size=64, segment_length=32).window_taps)

    @pytest.mark.parametrize("window", ["nosuch", "kaiser"])
    def test_window_that_cannot_be_built(self, window):
        with pytest.raises(InvalidParameterError,
                           match=f"cannot build window '{window}'"):
            WelchConfig(window=window)

    def test_segments_available(self):
        cfg = WelchConfig(grid_size=256, segment_length=256, overlap=0.5)
        assert cfg.segments_available(256) == 1
        assert cfg.segments_available(255) == 0
        assert cfg.segments_available(256 + 128 * 3) == 4


class TestWelchEstimator:
    def test_matches_scipy_csd(self):
        rng = np.random.default_rng(11)
        n = 1 << 13
        x = rng.standard_normal(n)
        y = np.convolve(x, [0.5, -0.2, 0.1])[:n] + 0.3 * rng.standard_normal(n)
        cfg = WelchConfig(grid_size=512, segment_length=512,
                          segment_count=8, overlap=0.5)
        mine = welch_cross_spectrum(TimeSeries("x", x), TimeSeries("y", y), cfg)
        ref = csd_reference(x, y, cfg)
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(mine.values, ref, atol=1e-12 * scale)

    def test_white_noise_power(self):
        # unit white noise: flat spectrum ~1, grid mean within 5% of the
        # sample variance, averaged over 10 seeded runs
        cfg = WelchConfig(grid_size=1024)
        means = []
        for seed in range(10):
            rng = np.random.default_rng(40 + seed)
            x = rng.standard_normal(1 << 15)
            psd = welch_cross_spectrum(TimeSeries("x", x),
                                       TimeSeries("x", x), cfg)
            assert np.all(psd.values.real >= 0)
            assert np.max(np.abs(psd.values.imag)) \
                < 1e-12 * np.max(psd.values.real)
            means.append(float(np.mean(psd.values.real)) / np.var(x))
        assert np.mean(means) == pytest.approx(1.0, rel=0.05)

    def test_delayed_pair_phase(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1 << 14)
        y = np.concatenate([np.zeros(3), x[:-3]])      # y(t) = x(t-3)
        cfg = WelchConfig(grid_size=256)
        cross = welch_cross_spectrum(TimeSeries("x", x), TimeSeries("y", y), cfg)
        expected_phase = np.exp(-3j * cross.grid.omegas)
        mask = np.abs(cross.values) > 0.3 * np.max(np.abs(cross.values))
        measured = cross.values[mask] / np.abs(cross.values[mask])
        np.testing.assert_allclose(measured, expected_phase[mask], atol=0.05)

    def test_too_short_raises(self):
        cfg = WelchConfig(grid_size=256, segment_length=256)
        short = TimeSeries("x", np.zeros(100))
        with pytest.raises(InsufficientDataError):
            welch_cross_spectrum(short, short, cfg)

    def test_fewer_segments_than_planned_is_flagged(self):
        rng = np.random.default_rng(0)
        x = TimeSeries("x", rng.standard_normal(300))
        cfg = WelchConfig(grid_size=256, segment_length=256, segment_count=8)
        with collect() as events:
            welch_cross_spectrum(x, x, cfg)
        assert any(e.category == "welch-segments" for e in events)


class TestSpectralMatrix:
    def _matrix(self, n=3, length=1 << 13, seed=2):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(length)
        series = [TimeSeries("s0", base)]
        for i in range(1, n):
            mixed = 0.6 * base + rng.standard_normal(length)
            series.append(TimeSeries(f"s{i}", mixed))
        ens = Ensemble(series)
        return ens, spectral_matrix(ens, WelchConfig(grid_size=256))

    def test_entries_match_pairwise_estimator(self):
        ens, S = self._matrix()
        cfg = WelchConfig(grid_size=256)
        scale = np.max(np.abs(S.values))
        for i, x in enumerate(ens.series):
            for j, y in enumerate(ens.series):
                ref = csd_reference(x.samples, y.samples, cfg)
                np.testing.assert_allclose(S.values[i, j], ref,
                                           atol=1e-12 * scale)

    def test_hermitian(self):
        ens, S = self._matrix()
        assert np.array_equal(S.values, np.conj(S.values.transpose(1, 0, 2)))
        again = spectral_matrix(ens, WelchConfig(grid_size=256))
        assert np.array_equal(again.values, S.values)

    def test_rejects_non_hermitian(self):
        grid = FrequencyGrid(8)
        values = np.ones((2, 2, 8), dtype=complex)
        values[0, 1] = 2.0        # breaks conjugate symmetry
        with pytest.raises(InvalidParameterError):
            SpectralMatrix(["a", "b"], grid, values)

    @pytest.mark.parametrize("entry,bad", [((0, 0, 3), np.inf),
                                           ((1, 1, 0), -np.inf),
                                           ((0, 1, 5), np.nan),
                                           ((1, 0, 2), complex(0, np.nan))])
    def test_rejects_non_finite_values(self, entry, bad):
        values = np.ones((2, 2, 8), dtype=complex)
        values[entry] = bad
        with pytest.raises(InvalidParameterError, match="non-finite"):
            SpectralMatrix(["a", "b"], FrequencyGrid(8), values)

    def test_owns_its_values(self):
        _, base = self._matrix()
        values = base.values.copy()
        S = SpectralMatrix(base.labels, base.grid, values)
        assert S.values is not values
        stored = S.values.copy()
        floored, ratio = S._floored.copy(), S._eigenvalue_ratio
        values *= 10.0
        assert np.array_equal(S.values, stored)
        assert np.array_equal(S._floored, floored)
        assert S._eigenvalue_ratio == ratio

    def test_every_producer_stores_an_exact_hermitian_matrix(self):
        grid = FrequencyGrid(64)
        matrices = [analytic_spectra(generate_polytree_aln(n, seed), grid)
                    for n, seed in [(4, 0), (7, 1), (12, 2)]]
        matrices.append(self._matrix(n=5)[1])
        for S in matrices:
            d = np.arange(S.n)
            assert np.array_equal(S.values, np.conj(S.values.transpose(1, 0, 2)))
            assert np.all(S.values[d, d].imag == 0.0)

    @pytest.mark.parametrize("scale", [1.0, 3.7e4])
    def test_tolerance_boundary_matches_allclose(self, scale):
        grid = FrequencyGrid(8)
        base = np.zeros((3, 3, grid.size), dtype=complex)
        base[[0, 1, 2], [0, 1, 2]] = scale
        base[0, 1] = (0.3 - 0.4j) * scale
        base[1, 0] = np.conj(base[0, 1])
        tol = 1e-9 * scale
        factors = [0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6, 2.0]
        cases = []
        for f in factors:
            for direction in (1.0, -1.0, 1j, (1 + 1j) / np.sqrt(2)):
                for entry in ((1, 0, 3), (0, 1, 3)):
                    cases.append((entry, f * tol * direction))
            # a diagonal differs from its conjugate by twice its imaginary part
            cases.append(((2, 2, 5), 0.5j * f * tol))
            cases.append(((2, 2, 5), np.nextafter(0.5 * f * tol, 0.0) * 1j))
        verdicts = set()
        for entry, delta in cases:
            values = base.copy()
            values[entry] += delta
            ref_scale = np.max(np.abs(values)) or 1.0
            accepted = np.allclose(values, np.conj(values.transpose(1, 0, 2)),
                                   atol=1e-9 * ref_scale, rtol=0)
            verdicts.add(accepted)
            if accepted:
                SpectralMatrix(["a", "b", "c"], grid, values)
            else:
                with pytest.raises(InvalidParameterError, match="not Hermitian"):
                    SpectralMatrix(["a", "b", "c"], grid, values)
        assert verdicts == {True, False}

    def test_floored_autospectra_record_each_floored_series_once(self):
        grid = FrequencyGrid(8)
        values = np.zeros((3, 3, 8), dtype=complex)
        values[0, 0] = [2.0] * 4 + [1e-3] * 4
        values[1, 1, :4] = 1.0            # half the grid below the floor
        values[2, 2, :4] = 0.5            # floored where 'b' is
        for name, first_use in FIRST_FLOOR_USES.items():
            with collect() as events:
                S = SpectralMatrix(["a", "b", "c"], grid, values)
                first_use(S)
            with collect() as later:
                floored = [S.floored_autospectrum(i) for i in range(3)]
                S.floored_autospectrum(1)
                S._floored_stack
            assert [(e.category, e.message) for e in events] == [
                ("spectral-floor", "auto-spectrum of 'b' floored at 2.000e-12"),
                ("spectral-floor", "auto-spectrum of 'c' floored at 2.000e-12")
            ], name
            assert not later, name
        assert np.array_equal(floored[1], np.maximum(values[1, 1].real, 2e-12))
        assert np.array_equal(floored[2], np.maximum(values[2, 2].real, 2e-12))
        assert not S._floored.flags.writeable
        with collect() as events:
            S = SpectralMatrix(["a", "b"], grid, np.zeros((2, 2, 8)))
            assert np.array_equal(S.floored_autospectrum(0),
                                  np.full(8, np.finfo(float).tiny))
        assert [e.message for e in events] == [
            "auto-spectrum of 'a' floored at 2.225e-308",
            "auto-spectrum of 'b' floored at 2.225e-308"]

    def test_rejects_empty_labels(self):
        with pytest.raises(InvalidParameterError, match="at least one series"):
            SpectralMatrix([], FrequencyGrid(8), np.zeros((0, 0, 8)))

    def test_duplicated_series_off_diagonal_equals_diagonal(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(1 << 12)
        ens = Ensemble([TimeSeries("a", x), TimeSeries("b", x.copy())])
        S = spectral_matrix(ens, WelchConfig(grid_size=256))
        np.testing.assert_allclose(S.values[0, 1], S.values[0, 0], atol=1e-12)

    def test_independent_whites_off_diagonal_small(self):
        rng = np.random.default_rng(23)
        n = 256 * 16
        ens = Ensemble([TimeSeries(f"s{i}", rng.standard_normal(n))
                        for i in range(3)])
        S = spectral_matrix(ens, WelchConfig(grid_size=256))
        diag = np.mean([np.mean(S.values[i, i].real) for i in range(3)])
        off = np.mean([np.mean(np.abs(S.values[i, j]))
                       for i in range(3) for j in range(3) if i != j])
        assert off / diag < 0.2


class TestWelchKernel:
    """The streamed Gram kernel against the per-row kernel it replaced and scipy."""

    @pytest.mark.parametrize("window", ["hann", "hamming"])
    @pytest.mark.parametrize("segment_length", [128, 96])
    @pytest.mark.parametrize("segments", [1, 63, 64, 65, 255])
    def test_matches_per_row_kernel_and_scipy(self, segments, segment_length,
                                              window):
        cfg = WelchConfig(grid_size=128, segment_length=segment_length,
                          window=window)
        length = segment_length + (segments - 1) * cfg.hop
        assert cfg.segments_available(length) == segments
        rng = np.random.default_rng(segments)
        base = rng.standard_normal(length)
        ens = Ensemble([
            TimeSeries(f"s{i}", 0.7 * base + rng.standard_normal(length))
            for i in range(3)])
        values = spectral_matrix(ens, cfg).values
        ref = welch_reference(ens.values(), cfg)
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(values, ref, rtol=0, atol=1e-12 * scale)
        for i, x in enumerate(ens.series):
            for j, y in enumerate(ens.series):
                np.testing.assert_allclose(
                    values[i, j], csd_reference(x.samples, y.samples, cfg),
                    rtol=0, atol=1e-12 * scale)

    def test_memory_does_not_grow_with_record_length(self):
        # segment DFTs are streamed in chunks, so beyond the stacked input the
        # peak is the same for a record twice as long
        cfg = WelchConfig(grid_size=1024)
        extra = []
        for length in (1 << 17, 1 << 18):
            rng = np.random.default_rng(3)
            ens = Ensemble([TimeSeries(f"s{i}", rng.standard_normal(length))
                            for i in range(8)])
            tracemalloc.start()
            try:
                spectral_matrix(ens, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - ens.values().nbytes)
        assert abs(extra[1] - extra[0]) < 2e6


def _analytic_pair(grid, phi_x, phi_y, cross):
    values = np.zeros((2, 2, grid.size), dtype=complex)
    values[0, 0] = phi_x
    values[1, 1] = phi_y
    values[0, 1] = cross
    values[1, 0] = np.conj(cross)
    return SpectralMatrix(["x", "y"], grid, values)


class TestCoherence:
    def test_overshoot_of_a_non_psd_matrix_is_recorded_and_clamped(self):
        # Hermitian with |Phi_12|^2 = 4 > Phi_11 * Phi_22 = 1
        values = np.ones((2, 2, 16), dtype=complex)
        values[0, 1] = values[1, 0] = 2.0
        S = SpectralMatrix(["a", "b"], FrequencyGrid(16), values)
        with collect() as events:
            curve = coherence_function(S, 0, 1)
        assert [e.message for e in events] == [
            "coherence of ('a', 'b') peaks at 4.000000 before clamping"]
        assert np.array_equal(curve.values, np.ones(16))

    def test_self_coherence_is_one(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1 << 12)
        ens = Ensemble([TimeSeries("a", x), TimeSeries("b", x.copy())])
        S = spectral_matrix(ens, WelchConfig(grid_size=256))
        np.testing.assert_allclose(coherence_function(S, 0, 0).values, 1.0,
                                   atol=1e-12)
        curve = coherence_function(S, 0, 1)
        np.testing.assert_allclose(curve.values, 1.0, atol=1e-9)

    def test_noiseless_filter_coherence_one(self):
        # y = h(z) x: phi_y = |h|^2 phi_x, cross = h phi_x -> C = 1
        grid = FrequencyGrid(128)
        h = grid.response_from_taps(np.array([1.0, -0.4, 0.2]))
        phi_x = np.abs(grid.response_from_taps(np.array([1.0, 0.3]))) ** 2
        S = _analytic_pair(grid, phi_x, np.abs(h) ** 2 * phi_x, h * phi_x)
        np.testing.assert_allclose(coherence_function(S, 0, 1).values, 1.0,
                                   atol=1e-9)

    def test_equal_noise_mixture_coherence_half(self):
        # y = x + v with unit spectra: cross = 1, phi_y = 2 -> C = 1/2
        grid = FrequencyGrid(64)
        one = np.ones(64)
        S = _analytic_pair(grid, one, 2.0 * one, one.astype(complex))
        np.testing.assert_allclose(coherence_function(S, 0, 1).values, 0.5,
                                   atol=1e-12)

    def test_coherence_symmetric_in_arguments(self):
        rng = np.random.default_rng(31)
        n = 1 << 12
        x = rng.standard_normal(n)
        y = np.convolve(x, [1.0, 0.5])[:n] + rng.standard_normal(n)
        ens = Ensemble([TimeSeries("a", x), TimeSeries("b", y)])
        S = spectral_matrix(ens, WelchConfig(grid_size=128))
        np.testing.assert_array_equal(coherence_function(S, 0, 1).values,
                                      coherence_function(S, 1, 0).values)

    def test_independent_noise_coherence_low(self):
        rng = np.random.default_rng(13)
        n = 1 << 15
        ens = Ensemble([TimeSeries("a", rng.standard_normal(n)),
                        TimeSeries("b", rng.standard_normal(n))])
        S = spectral_matrix(ens, WelchConfig(grid_size=256))
        curve = coherence_function(S, 0, 1)
        assert np.all(curve.values >= 0) and np.all(curve.values <= 1)
        assert np.mean(curve.values) < 0.2

    def test_welch_coherence_bias_matches_segment_count(self):
        # independent white pair: E[C_hat] ~= 1/n_segments for Welch with
        # non-overlapping segments; check within 50% over seeds
        cfg = WelchConfig(grid_size=128, segment_length=128,
                          segment_count=8, overlap=0.0)
        biases = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = 128 * 8
            ens = Ensemble([TimeSeries("a", rng.standard_normal(n)),
                            TimeSeries("b", rng.standard_normal(n))])
            S = spectral_matrix(ens, cfg)
            biases.append(float(np.mean(coherence_function(S, 0, 1).values)))
        assert np.mean(biases) == pytest.approx(1.0 / 8, rel=0.5)


class TestParseval:
    def test_analytic_ar1_grid_variance(self):
        # grid mean of the analytic AR(1) spectrum vs sigma^2/(1-a^2)
        grid = FrequencyGrid(1024)
        a, sigma2 = 0.8, 1.7
        phi = sigma2 / np.abs(1 - a * np.exp(-1j * grid.omegas)) ** 2
        closed_form = sigma2 / (1 - a ** 2)
        assert float(np.mean(phi)) == pytest.approx(closed_form, rel=1e-6)

