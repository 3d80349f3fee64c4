import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyscope import (
    Ensemble,
    FrequencyGrid,
    IllConditionedSpectrumError,
    InvalidParameterError,
    InvalidSpectrumError,
    SpectralMatrix,
    Spectrum,
    TimeSeries,
    TransferFunction,
    WelchConfig,
    apply_filter,
    causal_truncate,
    causal_wiener,
    distance_matrix,
    generate_polytree_aln,
    miso_blanket_topology,
    noncausal_wiener,
    orthogonal_least_squares,
    project,
    simulate,
    spectral_factorize,
    spectral_matrix,
)
from polyscope import wiener
from polyscope.diagnostics import collect
from polyscope.wiener import CONDITION_RTOL, _clears_screen, _joint_fits

from oracles import (
    dense_wiener,
    miso_reference,
    ols_reference,
    project_reference,
    rooting_spectral_factor,
    wiener_reference,
)


def pair_matrix(grid, phi_x, phi_y, cross, labels=("x", "y")):
    values = np.zeros((2, 2, grid.size), dtype=complex)
    values[0, 0] = phi_x
    values[1, 1] = phi_y
    values[0, 1] = cross
    values[1, 0] = np.conj(cross)
    return SpectralMatrix(list(labels), grid, values)


def ar1_pair_shifted(grid, a=0.8):
    """x AR(1) with coefficient a; y(t) = x(t+1). Exact grid spectra."""
    z = np.exp(-1j * grid.omegas)
    phi = 1.0 / np.abs(1 - a * z) ** 2
    cross = np.exp(1j * grid.omegas) * phi       # r_xy(tau) = r_x(tau + 1)
    return pair_matrix(grid, phi, phi, cross)


class TestTransferFunction:
    def test_from_taps_response_exact(self):
        grid = FrequencyGrid(64)
        taps = np.array([1.0, -0.3])
        tf = TransferFunction.from_taps(grid, taps, offset=-1)
        direct = (np.exp(1j * grid.omegas)
                  - 0.3 * np.ones(64))
        np.testing.assert_allclose(tf.response, direct, atol=1e-12)
        assert not tf.is_causal
        assert tf.impulse_matches_response()

    def test_with_impulse_centered_and_causal(self):
        grid = FrequencyGrid(32)
        tf = TransferFunction(grid, np.exp(-1j * grid.omegas))  # pure z^{-1}
        centered = tf.with_impulse("centered")
        idx = 1 - centered.support_offset
        assert centered.impulse[idx] == pytest.approx(1.0, abs=1e-10)
        causal = tf.with_impulse("causal")
        assert causal.support_offset == 0
        assert causal.impulse[1] == pytest.approx(1.0, abs=1e-10)

    def test_truncation_energy_flagged(self):
        grid = FrequencyGrid(32)
        # anticausal content cannot fit a causal support: energy is lost
        tf = TransferFunction(grid, np.exp(2j * grid.omegas))
        with collect() as events:
            tf.with_impulse("causal")
        assert any(e.category == "truncation-energy" for e in events)

    def test_rms(self):
        grid = FrequencyGrid(16)
        tf = TransferFunction(grid, 3.0 * np.ones(16, dtype=complex))
        assert tf.rms() == pytest.approx(3.0)


class TestNoncausalWiener:
    @pytest.mark.parametrize("inputs, message", [
        ([], "at least one input is required"),
        ([1, 1], "duplicate inputs"),
        ([1, 0], "target cannot be one of its inputs"),
    ])
    def test_rejects_invalid_inputs(self, inputs, message):
        S = ar1_pair_shifted(FrequencyGrid(16))
        with pytest.raises(InvalidParameterError, match=message):
            noncausal_wiener(S, 0, inputs)

    def test_static_gain(self):
        # y = 3 x: filter constant 3, zero residual
        grid = FrequencyGrid(128)
        phi = np.abs(grid.response_from_taps(np.array([1.0, 0.4]))) ** 2
        S = pair_matrix(grid, phi, 9.0 * phi, 3.0 * phi)
        sol = noncausal_wiener(S, target=1, inputs=[0])
        np.testing.assert_allclose(sol.filters[0].response, 3.0, atol=1e-9)
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_pure_delay(self):
        # y(t) = x(t-3): response e^{-3j omega}, zero residual
        grid = FrequencyGrid(256)
        phi = np.ones(256)
        cross = np.exp(-3j * grid.omegas)
        S = pair_matrix(grid, phi, phi, cross)
        sol = noncausal_wiener(S, target=1, inputs=[0])
        np.testing.assert_allclose(sol.filters[0].response,
                                   np.exp(-3j * grid.omegas), atol=1e-12)
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_chain_screens_grandparent(self):
        # X1 -> X2 -> X3 with unit noises: given X2, the X1 filter is zero
        # and the X2 filter equals the last link; cross-checked against an
        # independent per-frequency least-squares solver
        from polyscope import ALNSpec, Link, analytic_spectra
        grid = FrequencyGrid(256)
        g21 = np.array([0.9, -0.3])
        g32 = np.array([0.7, 0.2, -0.4])
        spec = ALNSpec(["X1", "X2", "X3"],
                       [Link(0, 1, g21), Link(1, 2, g32)],
                       np.ones(3))
        S = analytic_spectra(spec, grid)
        sol = noncausal_wiener(S, target=2, inputs=[0, 1])
        assert np.max(np.abs(sol.filters[0].response)) < 1e-6
        np.testing.assert_allclose(sol.filters[1].response,
                                   grid.response_from_taps(g32), atol=1e-6)
        W_ref, cost_ref = dense_wiener(S, 2, [0, 1])
        np.testing.assert_allclose(sol.filters[0].response, W_ref[:, 0],
                                   atol=1e-8)
        np.testing.assert_allclose(sol.filters[1].response, W_ref[:, 1],
                                   atol=1e-8)
        assert sol.cost == pytest.approx(cost_ref, abs=1e-9)

    def test_residual_orthogonal_to_inputs(self):
        # Residual cross spectrum c - A W vanishes per frequency
        from oracles import random_psd_matrix
        rng = np.random.default_rng(8)
        grid = FrequencyGrid(128)
        S = random_psd_matrix(rng, 4, grid)
        sol = noncausal_wiener(S, target=0, inputs=[1, 2, 3])
        W = np.stack([sol.filters[b].response for b in (1, 2, 3)], axis=1)
        A = S.values[np.ix_([1, 2, 3], [1, 2, 3])].transpose(2, 0, 1)
        c = S.values[[1, 2, 3], 0].T
        resid = c - np.einsum("kab,kb->ka", A, W)
        power = np.abs(A[:, np.arange(3), np.arange(3)])
        assert np.max(np.abs(resid)) <= 1e-8 * np.max(power)

    def test_filters_do_not_depend_on_weighting(self):
        from oracles import random_psd_matrix
        rng = np.random.default_rng(15)
        S = random_psd_matrix(rng, 3, FrequencyGrid(64))
        plain = noncausal_wiener(S, 0, [1, 2], normalize=False)
        whitened = noncausal_wiener(S, 0, [1, 2], normalize=True)
        for b in (1, 2):
            np.testing.assert_array_equal(plain.filters[b].response,
                                          whitened.filters[b].response)

    def test_normalized_cost_of_independent_target_is_one(self):
        grid = FrequencyGrid(64)
        S = pair_matrix(grid, np.ones(64), 5.0 * np.ones(64),
                        np.zeros(64, dtype=complex))
        sol = noncausal_wiener(S, target=1, inputs=[0], normalize=True)
        assert sol.cost == pytest.approx(1.0, abs=1e-12)

    def test_singular_inputs_raise_with_frequency(self):
        grid = FrequencyGrid(64)
        values = np.ones((3, 3, 64), dtype=complex)  # rank-one everywhere
        values[2, 2] = 2.0
        values[0, 2] = values[1, 2] = 1.0
        values[2, 0] = values[2, 1] = 1.0
        S = SpectralMatrix(["a", "b", "t"], grid, values)
        with pytest.raises(IllConditionedSpectrumError, match="omega"):
            noncausal_wiener(S, target=2, inputs=[0, 1])


def conditioned_matrix(seed: int, n: int, grid: FrequencyGrid,
                       ratio: float) -> SpectralMatrix:
    """Random Hermitian matrices whose worst eigenvalue ratio is ``ratio``.

    At every grid point three eigenvalues lie in ``[r, 3r]`` and the rest in
    ``[0.1, 1]``, with ``r = ratio`` at one point and up to ten times it
    elsewhere, so the larger principal blocks sit near the same ratio and
    the smaller ones far from it.
    """
    rng = np.random.default_rng(seed)
    k = grid.size
    low = ratio * np.ones(k)
    low[np.arange(k) != rng.integers(k)] *= rng.uniform(1.0, 10.0, k - 1)
    values = np.empty((k, n, n), dtype=complex)
    for f in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        lam = np.concatenate([[low[f], 1.0], low[f] * rng.uniform(1.0, 3.0, 2),
                              rng.uniform(0.1, 1.0, n - 4)])
        values[f] = (q * lam) @ q.conj().T
    return SpectralMatrix([f"s{i}" for i in range(n)], grid,
                          values.transpose(1, 2, 0))


def outcome(fit, *args):
    """``(error, result)``: the raised class and message, or None and the result."""
    try:
        return None, fit(*args)
    except (IllConditionedSpectrumError, InvalidSpectrumError) as exc:
        return (type(exc), str(exc)), None


def count_eigvalsh(monkeypatch) -> list:
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestConditioningScreen:
    """One whole-matrix eigenvalue ratio stands in for every fit's own check."""

    @pytest.mark.parametrize("ratio", [1e-11, 1e-10, 1.5e-10, 2e-10, 3e-10, 1e-6])
    def test_screen_and_fallback_match_per_fit_oracle(self, ratio):
        S = conditioned_matrix(int(ratio * 1e12), 6, FrequencyGrid(16), ratio)
        assert S._eigenvalue_ratio == pytest.approx(ratio, rel=1e-3)
        raised = 0
        for target in range(S.n):
            others = [b for b in range(S.n) if b != target]
            for q in range(1, S.n):
                for row in itertools.combinations(others, q):
                    error, got = outcome(_joint_fits, S, target, row)
                    ref_error, ref = outcome(wiener_reference, S, target, row)
                    assert error == ref_error
                    raised += ref_error is not None
                    if not ref_error:
                        W, residual, cost = got
                        assert np.array_equal(W, ref[2])
                        assert np.array_equal(residual, ref[3])
                        assert cost == ref[4]
                    error, got = outcome(project, S, target, row)
                    ref_error, ref = outcome(project_reference, S, target, row)
                    assert error == ref_error
                    if not ref_error:
                        assert got[1] == ref[1]
                        for b in row:
                            assert np.array_equal(got[0][b].response,
                                                  ref[0][b].response)
                    # descending, a block's lower triangle is the matrix's upper
                    # one, which the screen covers because the matrix is exact
                    error, got = outcome(noncausal_wiener, S, target, row[::-1])
                    ref_error, ref = outcome(wiener_reference, S, target, row[::-1])
                    assert error == ref_error
                    if not ref_error:
                        assert got.cost == ref[4]
                        for pos, b in enumerate(row[::-1]):
                            assert np.array_equal(got.filters[b].response,
                                                  ref[2][:, pos])
        # interlacing: no block is worse conditioned than the whole matrix
        if ratio > CONDITION_RTOL:
            assert raised == 0
        elif ratio < CONDITION_RTOL:
            assert raised > 0

    def test_near_hermitian_input_is_stored_from_its_upper_triangle(self):
        # Hermitian within the constructor's tolerance only: the lower
        # triangle alone would give the eigenvalue ratio 3e-10, the upper
        # one gives 5e-11, and the stored matrix is the upper one's
        grid = FrequencyGrid(8)
        values = np.zeros((3, 3, grid.size), dtype=complex)
        values[[0, 1, 2], [0, 1, 2]] = 1.0
        values[0, 1] = 1.0 - 1e-10
        values[1, 0] = 1.0 - 6e-10
        S = SpectralMatrix(["a", "b", "t"], grid, values)
        assert np.array_equal(S.values[1, 0], np.conj(S.values[0, 1]))
        assert S._eigenvalue_ratio == pytest.approx(5e-11, rel=1e-3)
        for inputs in ([0, 1], [1, 0]):
            with pytest.raises(IllConditionedSpectrumError) as got:
                noncausal_wiener(S, 2, inputs)
            with pytest.raises(IllConditionedSpectrumError) as ref:
                wiener_reference(S, 2, inputs)
            assert str(got.value) == str(ref.value)

    def test_well_conditioned_matrix_takes_one_eigensolve(self, monkeypatch):
        sim = simulate(generate_polytree_aln(12, 1), 2 ** 13, seed=2)
        S = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
        D = distance_matrix(S)
        calls = count_eigvalsh(monkeypatch)
        miso_blanket_topology(S, D)
        for target in range(S.n):
            orthogonal_least_squares(S, target, S.n - 1, min_gain=0.0)
        assert calls == [(64, 12, 12)]
        assert S._eigenvalue_ratio >= 2 * CONDITION_RTOL

    def test_screen_records_no_event(self):
        S = conditioned_matrix(3, 6, FrequencyGrid(16), 1e-6)
        with collect() as events:
            assert S._eigenvalue_ratio == pytest.approx(1e-6, rel=1e-3)
        assert events == []

    def test_duplicate_series_falls_back_to_per_fit_checks(self, monkeypatch):
        sim = simulate(generate_polytree_aln(8, 3), 2 ** 12, seed=5)
        base = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
        idx = list(range(base.n)) + [0]
        S = SpectralMatrix(base.labels + ["copy"], base.grid,
                           base.values[np.ix_(idx, idx)])
        assert not S._eigenvalue_ratio >= 2 * CONDITION_RTOL
        calls = count_eigvalsh(monkeypatch)
        for target in range(S.n):
            got = orthogonal_least_squares(S, target, 1)
            ref = ols_reference(S, target, 1)
            assert (got.support, got.cost, got.stop_reason) == \
                (ref.support, ref.cost, ref.stop_reason)
            for b in ref.filters:
                assert np.array_equal(got.filters[b].response,
                                      ref.filters[b].response)
        assert len(calls) > 1
        D = distance_matrix(S)
        with pytest.raises(IllConditionedSpectrumError, match="omega=") as ours:
            miso_blanket_topology(S, D)
        with pytest.raises(IllConditionedSpectrumError) as looped:
            miso_reference(S, D)
        assert str(ours.value) == str(looped.value)


class TestEveryFitIsChecked:
    """Each joint fit is checked against its normal equations."""

    def test_a_fit_off_its_normal_equations_raises(self):
        # A = I, c = 1 and W = 0 miss the normal equations by exactly 1
        A = np.ones((1, 4, 1, 1), dtype=complex)
        with pytest.raises(InvalidSpectrumError,
                           match=r"projection for target 0 violates "
                                 r"orthogonality by 1\.000e\+00 "):
            wiener._check_orthogonality(0, A, np.ones((1, 4, 1), dtype=complex),
                                        np.zeros((1, 4, 1), dtype=complex))

    def test_noncausal_and_per_target_miso_fits(self, monkeypatch):
        # a + b fails the screen, yet every target's two inputs are independent
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((2, 1 << 12))
        S = spectral_matrix(Ensemble([TimeSeries("a", a), TimeSeries("b", b),
                                      TimeSeries("sum", a + b)]),
                            WelchConfig(grid_size=64))
        assert not _clears_screen(S)
        D = distance_matrix(S)
        checked = []
        check = wiener._check_orthogonality

        def recording(target, A, c, W):
            checked.append((target, c))
            check(target, A, c, W)

        monkeypatch.setattr(wiener, "_check_orthogonality", recording)
        fits = [(2, [1, 0])] + [(j, [i for i in range(3) if i != j])
                                for j in range(3)]
        noncausal_wiener(S, *fits[0])
        miso_blanket_topology(S, D)
        assert len(checked) == len(fits)
        for (target, c), (fit_target, inputs) in zip(checked, fits):
            assert target == fit_target
            assert np.array_equal(c, S.values[inputs, target].T[None])


class TestSpectralFactorize:
    @pytest.mark.parametrize("value, message", [
        (0.0, "cannot factorize an identically zero spectrum"),
        (1.0 + 1.0j, "auto-spectrum has a non-real part"),
    ])
    def test_rejects_zero_and_complex_spectra(self, value, message):
        grid = FrequencyGrid(16)
        with pytest.raises(InvalidSpectrumError, match=message):
            spectral_factorize(Spectrum(grid, np.full(16, value)))

    def test_constant_spectrum(self):
        grid = FrequencyGrid(64)
        F = spectral_factorize(Spectrum(grid, 4.0 * np.ones(64)))
        np.testing.assert_allclose(F.response, 2.0, atol=1e-12)
        assert F.impulse[0] == pytest.approx(2.0)
        np.testing.assert_allclose(F.impulse[1:], 0.0, atol=1e-12)

    def test_ma1_known_factor(self):
        grid = FrequencyGrid(512)
        z = np.exp(-1j * grid.omegas)
        phi = np.abs(1 + 0.5 * z) ** 2
        F = spectral_factorize(Spectrum(grid, phi))
        assert F.is_causal
        np.testing.assert_allclose(F.impulse[:2], [1.0, 0.5], atol=1e-9)
        np.testing.assert_allclose(np.abs(F.response) ** 2, phi, rtol=1e-9)

    def test_ar1_factor_impulse(self):
        grid = FrequencyGrid(1024)
        z = np.exp(-1j * grid.omegas)
        phi = 1.0 / np.abs(1 - 0.8 * z) ** 2
        F = spectral_factorize(Spectrum(grid, phi))
        np.testing.assert_allclose(F.impulse[:4],
                                   [1.0, 0.8, 0.64, 0.512], atol=1e-8)

    def test_random_ma3_matches_rooting_oracle(self):
        grid = FrequencyGrid(512)
        rng = np.random.default_rng(19)
        for _ in range(10):
            roots = rng.uniform(0.1, 0.85, size=3) * \
                np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
            # real taps: use one real root + a conjugate pair
            roots = np.array([roots[0].real, roots[1], np.conj(roots[1])])
            taps = np.real(np.poly(roots)) * rng.uniform(0.5, 2.0)
            phi = np.abs(grid.response_from_taps(taps)) ** 2
            F = spectral_factorize(Spectrum(grid, phi))
            oracle = rooting_spectral_factor(phi, grid, order=3)
            np.testing.assert_allclose(F.impulse[:4], oracle, atol=1e-6)
            np.testing.assert_allclose(np.abs(F.response) ** 2, phi,
                                       rtol=1e-6)

    def test_first_tap_positive(self):
        grid = FrequencyGrid(256)
        z = np.exp(-1j * grid.omegas)
        phi = np.abs(-2.0 + 0.3 * z) ** 2   # sign of the MA poly irrelevant
        F = spectral_factorize(Spectrum(grid, phi))
        assert F.impulse[0] > 0

    def test_spectrum_with_zeros_is_floored_and_recorded(self):
        grid = FrequencyGrid(32)
        phi = np.where(np.abs(grid.omegas) < np.pi / 2, 4.0, 0.0)
        with collect() as events:
            F = spectral_factorize(Spectrum(grid, phi))
        assert [(e.category, e.message) for e in events
                if e.category == "spectral-floor"] == [
            ("spectral-floor", "factorization input floored at 4.000e-12")]
        np.testing.assert_allclose(np.abs(F.response) ** 2,
                                   np.maximum(phi, 4e-12), rtol=1e-9)

    def test_rejects_negative_spectrum(self):
        grid = FrequencyGrid(32)
        with pytest.raises(InvalidSpectrumError):
            spectral_factorize(Spectrum(grid, -np.ones(32)))

    def test_rejects_uneven_spectrum(self):
        # phi(omega) != phi(-omega): no real process has it, and the
        # cepstral factor's |F|^2 would not be phi
        grid = FrequencyGrid(32)
        phi = np.where(grid.omegas < 0, 4.0, 0.0)
        with pytest.raises(InvalidSpectrumError, match="not even in frequency"):
            spectral_factorize(Spectrum(grid, phi))

    def test_even_real_part_with_tolerated_imaginary_residue(self):
        # an even imaginary residue within the non-real tolerance is not
        # unevenness: only the real part is factorized
        grid = FrequencyGrid(32)
        F = spectral_factorize(Spectrum(grid, np.full(32, 1.0 + 0.8e-10j)))
        np.testing.assert_allclose(np.abs(F.response) ** 2, 1.0, atol=1e-12)


class TestCausalTruncate:
    def test_two_sided_example(self):
        # z + 1 + z^{-1}  ->  1 + z^{-1}
        grid = FrequencyGrid(32)
        tf = TransferFunction.from_taps(grid, np.array([1.0, 1.0, 1.0]),
                                        offset=-1)
        out = causal_truncate(tf)
        assert out.support_offset == 0
        np.testing.assert_allclose(out.impulse[:2], [1.0, 1.0], atol=1e-12)
        expected = grid.response_from_taps(np.array([1.0, 1.0]))
        np.testing.assert_allclose(out.response, expected, atol=1e-12)

    def test_causal_filter_unchanged_bit_exact(self):
        grid = FrequencyGrid(32)
        tf = TransferFunction.from_taps(grid, np.array([0.5, 0.25]), offset=2)
        out = causal_truncate(tf)
        np.testing.assert_array_equal(out.impulse, tf.impulse)
        np.testing.assert_array_equal(out.response, tf.response)

    def test_anticausal_becomes_zero(self):
        grid = FrequencyGrid(32)
        tf = TransferFunction.from_taps(grid, np.array([1.0, -2.0]), offset=-5)
        out = causal_truncate(tf)
        np.testing.assert_allclose(out.response, 0.0, atol=1e-12)

    @given(st.integers(min_value=-6, max_value=6),
           st.lists(st.floats(-2, 2), min_size=1, max_size=5))
    def test_idempotent(self, offset, taps):
        grid = FrequencyGrid(32)
        taps = np.asarray(taps)
        if not np.any(taps):
            taps = taps + 1.0
        tf = TransferFunction.from_taps(grid, taps, offset=offset)
        once = causal_truncate(tf)
        twice = causal_truncate(once)
        np.testing.assert_array_equal(once.impulse, twice.impulse)
        np.testing.assert_array_equal(once.response, twice.response)


class TestCausalWiener:
    def test_white_delay_is_exact(self):
        # y(t) = x(t-1), x white: W = z^{-1}, cost 0
        grid = FrequencyGrid(256)
        one = np.ones(256)
        cross = np.exp(-1j * grid.omegas)
        S = pair_matrix(grid, one, one, cross)
        sol = causal_wiener(S, target=1, input_=0)
        np.testing.assert_allclose(sol.filters[0].response,
                                   np.exp(-1j * grid.omegas), atol=1e-9)
        assert sol.cost == pytest.approx(0.0, abs=1e-9)

    def test_white_lead_unpredictable(self):
        # y(t) = x(t+1), x white: {z}_C = 0, cost 1
        grid = FrequencyGrid(256)
        one = np.ones(256)
        cross = np.exp(1j * grid.omegas)
        S = pair_matrix(grid, one, one, cross)
        sol = causal_wiener(S, target=1, input_=0)
        assert np.max(np.abs(sol.filters[0].response)) < 1e-9
        assert sol.cost == pytest.approx(1.0, abs=1e-9)

    def test_ar1_lead_under_weighted_cost(self):
        # x AR(1) a=0.8, y(t) = x(t+1), cost weighted by the target's
        # whitening factor (the fixed design choice): the whitened target
        # is the future innovation, so the optimum is the zero filter at
        # cost exactly 1 -- not the unweighted one-step predictor 0.8,
        # which under this weighting costs 1.64.
        grid = FrequencyGrid(1024)
        S = ar1_pair_shifted(grid, a=0.8)
        sol = causal_wiener(S, target=1, input_=0)
        assert np.max(np.abs(sol.filters[0].response)) < 1e-8
        assert sol.cost == pytest.approx(1.0, abs=1e-8)
        # sanity: the classical predictor would be strictly worse here
        phi = np.real(S.values[0, 0])
        resid_08 = (np.abs(1 * np.exp(1j * grid.omegas) - 0.8) ** 2 * phi)
        weighted = resid_08 / np.real(S.values[1, 1])
        assert float(np.mean(weighted)) == pytest.approx(1.64, abs=1e-6)

    def test_ar1_lag_fully_predictable(self):
        # the reverse direction: x(t) = y(t-1) exactly, so cost ~ 0
        grid = FrequencyGrid(1024)
        S = ar1_pair_shifted(grid, a=0.8)
        sol = causal_wiener(S, target=0, input_=1)
        z = np.exp(-1j * grid.omegas)
        np.testing.assert_allclose(sol.filters[1].response, z, atol=1e-6)
        assert sol.cost == pytest.approx(0.0, abs=1e-8)

    def test_causal_never_beats_noncausal(self):
        from oracles import random_psd_matrix
        rng = np.random.default_rng(77)
        for _ in range(5):
            S = random_psd_matrix(rng, 2, FrequencyGrid(128))
            causal = causal_wiener(S, 0, 1)
            free = noncausal_wiener(S, 0, [1], normalize=True)
            assert causal.cost >= free.cost - 1e-8

    def test_filter_is_causal(self):
        from oracles import random_psd_matrix
        rng = np.random.default_rng(78)
        S = random_psd_matrix(rng, 2, FrequencyGrid(128))
        sol = causal_wiener(S, 0, 1)
        assert sol.filters[1].is_causal


class TestApplyFilter:
    def test_identity(self):
        grid = FrequencyGrid(16)
        tf = TransferFunction.from_taps(grid, np.array([1.0]))
        x = TimeSeries("x", np.array([3.0, -1.0, 2.0, 0.5]))
        out = apply_filter(tf, x)
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_unit_delay(self):
        grid = FrequencyGrid(16)
        tf = TransferFunction.from_taps(grid, np.array([1.0]), offset=1)
        out = apply_filter(tf, TimeSeries("x", np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out.samples, [0.0, 1.0, 2.0])

    def test_fir_on_unit_impulse(self):
        grid = FrequencyGrid(16)
        tf = TransferFunction.from_taps(grid, np.array([1.0, 0.5]))
        x = TimeSeries("x", np.array([1.0, 0.0, 0.0, 0.0]))
        out = apply_filter(tf, x)
        np.testing.assert_allclose(out.samples, [1.0, 0.5, 0.0, 0.0])

    def test_anticausal_shift(self):
        grid = FrequencyGrid(16)
        tf = TransferFunction.from_taps(grid, np.array([1.0]), offset=-1)
        out = apply_filter(tf, TimeSeries("x", np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out.samples, [2.0, 3.0, 0.0])

    def test_transient_flagged(self):
        grid = FrequencyGrid(16)
        tf = TransferFunction.from_taps(grid, np.array([1.0, 0.2]), offset=1)
        with collect() as events:
            apply_filter(tf, TimeSeries("x", np.arange(8.0)))
        assert any(e.category == "transient" for e in events)
