import itertools

import numpy as np
import pytest

from polyscope import (
    DistanceMatrix,
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
    analytic_spectra,
    build_polytree,
    causal_distance_matrix,
    causal_wiener,
    distance_matrix,
    generate_polytree_aln,
    inner_product,
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
    assert_same_drops,
    assert_same_outcome,
    conditioning_reference,
    copies_record,
    digest_records,
    half_grid_matrix,
    causal_pair_reference,
    causal_reference,
    dense_wiener,
    eigenvalue_ratio_reference,
    filter_rms_reference,
    miso_reference,
    ols_reference,
    project_reference,
    rooting_spectral_factor,
    scaled_record,
    schur_reference,
    spectral_factors_reference,
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
        assert tf.support_offset == -1

    def test_with_impulse_causal(self):
        grid = FrequencyGrid(32)
        tf = TransferFunction(grid, np.exp(-1j * grid.omegas))  # pure z^{-1}
        causal = tf.with_impulse()
        assert causal.support_offset == 0
        assert causal.impulse[1] == pytest.approx(1.0, abs=1e-10)
        # a filter that has its taps keeps them
        assert causal.with_impulse() is causal

    def test_truncation_energy_flagged(self):
        grid = FrequencyGrid(32)
        # anticausal content cannot fit a causal support: energy is lost
        tf = TransferFunction(grid, np.exp(2j * grid.omegas))
        with collect() as events:
            tf.with_impulse()
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
        from polyscope import ALNSpec, Link
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
    ``[0.1, 1]``, with ``r = ratio`` at one point of the half grid (and its
    twin) and up to ten times it elsewhere, so the larger principal blocks
    sit near the same ratio and the smaller ones far from it.  The half
    grid is drawn and mirrored, real symmetric at ``omega = -pi`` and ``0``.
    """
    rng = np.random.default_rng(seed)
    m = grid.size // 2
    low = ratio * np.ones(m + 1)
    low[np.arange(m + 1) != rng.integers(m + 1)] *= rng.uniform(1.0, 10.0, m)
    half = np.empty((m + 1, n, n), dtype=complex)
    for f in range(m + 1):
        z = rng.normal(size=(n, n))
        if 0 < f < m:
            z = z + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(z)
        lam = np.concatenate([[low[f], 1.0], low[f] * rng.uniform(1.0, 3.0, 2),
                              rng.uniform(0.1, 1.0, n - 4)])
        half[f] = (q * lam) @ q.conj().T
    return SpectralMatrix([f"s{i}" for i in range(n)], grid,
                          grid.mirror(half.transpose(1, 2, 0)))


def near_hermitian_matrix() -> SpectralMatrix:
    """Two unit series ``a`` and ``b`` whose stored cross spectrum is
    ``1 - 2e-11`` and a target ``t`` independent of both; the lower
    triangle given is ``1 - 1e-10``."""
    grid = FrequencyGrid(8)
    values = np.zeros((3, 3, grid.size), dtype=complex)
    values[[0, 1, 2], [0, 1, 2]] = 1.0
    values[0, 1], values[1, 0] = 1.0 - 2e-11, 1.0 - 1e-10
    return SpectralMatrix(["a", "b", "t"], grid, values)


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
    """One whole-matrix eigenvalue ratio stands in for every fit's own check,
    the one conditioning rule (each input's Schur ratio)."""

    @pytest.mark.parametrize("ratio", [1e-11, 1e-10, 1.5e-10, 2e-10, 3e-10, 1e-6])
    def test_screen_and_fallback_match_per_fit_oracle(self, ratio):
        S = conditioned_matrix(int(ratio * 1e12), 6, FrequencyGrid(16), ratio)
        assert S._eigenvalue_ratio == pytest.approx(ratio, rel=1e-3)
        raised = 0
        for target in range(S.n):
            others = [b for b in range(S.n) if b != target]
            for q in range(1, S.n):
                for row in itertools.combinations(others, q):
                    error, _ = outcome(wiener._check_conditioning, S, row)
                    ref_error, ref = outcome(wiener_reference, S, target, row)
                    assert_same_outcome(error, ref_error)
                    raised += ref_error is not None
                    if not ref_error:
                        W, residual = _joint_fits(S, target, row)
                        assert np.array_equal(S.grid.mirror(W.T).T, ref[2])
                        assert np.array_equal(S.grid.mirror(residual), ref[3])
                        assert S.grid.half_mean(residual) == ref[4]
                    error, got = outcome(project, S, target, row)
                    ref_error, ref = outcome(project_reference, S, target, row)
                    assert_same_outcome(error, ref_error)
                    if not ref_error:
                        assert got[1] == ref[1]
                        for b in row:
                            assert np.array_equal(got[0][b].response,
                                                  ref[0][b].response)
                    # descending, a block's lower triangle is the matrix's upper
                    # one, which the screen covers because the matrix is exact
                    error, got = outcome(noncausal_wiener, S, target, row[::-1])
                    ref_error, ref = outcome(wiener_reference, S, target, row[::-1])
                    assert_same_outcome(error, ref_error)
                    if not ref_error:
                        assert got.cost == ref[4]
                        for pos, b in enumerate(row[::-1]):
                            assert np.array_equal(got.filters[b].response,
                                                  ref[2][:, pos])
        # interlacing: no block is worse conditioned than the whole matrix,
        # and no Schur ratio is below its block's eigenvalue ratio
        if ratio > CONDITION_RTOL:
            assert raised == 0
        elif ratio < CONDITION_RTOL:
            assert raised > 0

    def test_near_hermitian_input_is_stored_from_its_upper_triangle(self):
        # Hermitian within the constructor's tolerance only: the lower
        # triangle alone would give b the Schur ratio 2e-10, which the rule
        # passes, the upper one gives 4e-11, which it fails, and the stored
        # matrix is the upper one's
        S = near_hermitian_matrix()
        assert np.array_equal(S.values[1, 0], np.conj(S.values[0, 1]))
        assert S._eigenvalue_ratio == pytest.approx(1e-11, rel=1e-3)
        for inputs in ([0, 1], [1, 0]):
            with pytest.raises(IllConditionedSpectrumError) as got:
                noncausal_wiener(S, 2, inputs)
            with pytest.raises(IllConditionedSpectrumError) as ref:
                wiener_reference(S, 2, inputs)
            assert_same_outcome((got.type, str(got.value)),
                                (ref.type, str(ref.value)))
            assert "(input 'b', Schur ratio 4.000e-11)" in str(got.value)

    def test_well_conditioned_matrix_takes_one_factorization(self, monkeypatch):
        sim = simulate(generate_polytree_aln(12, 1), 2 ** 13, seed=2)
        S = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
        D = distance_matrix(S)
        calls = count_eigvalsh(monkeypatch)
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a, *args, **kwargs: (
            factored.append(np.shape(a)) or cholesky(a, *args, **kwargs)))
        miso_blanket_topology(S, D)
        for target in range(S.n):
            orthogonal_least_squares(S, target, S.n - 1, min_gain=0.0)
        # the certificate's one factorization of the half grid, no eigensolve
        assert factored == [(33, 12, 12)] and calls == []
        assert S._eigenvalue_ratio >= 2 * CONDITION_RTOL
        assert calls == [(33, 12, 12)]

    def test_screen_records_no_event(self):
        S = conditioned_matrix(3, 6, FrequencyGrid(16), 1e-6)
        with collect() as events:
            assert S._eigenvalue_ratio == pytest.approx(1e-6, rel=1e-3)
        assert events == []

    def test_duplicate_series_falls_back_to_per_fit_checks(self, monkeypatch):
        sim = simulate(generate_polytree_aln(8, 3), 2 ** 12, seed=5)
        base = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
        idx = list(range(base.n)) + [0]
        S = SpectralMatrix([*base.labels, "copy"], base.grid,
                           base.values[np.ix_(idx, idx)])
        calls = count_eigvalsh(monkeypatch)
        assert not S._eigenvalue_ratio >= 2 * CONDITION_RTOL
        for target in range(S.n):
            assert_ols_within_rounding(S, orthogonal_least_squares(S, target, 1),
                                       ols_reference(S, target, 1))
        # the per-fit loop aborts on the first singular target; MISO checks
        # each target's fit by one elimination, leaves the copy out of the
        # singular ones and links it to X1
        D = distance_matrix(S)
        with pytest.raises(IllConditionedSpectrumError, match="omega="):
            miso_reference(S, D)
        eliminated = []
        eliminate = wiener._eliminated
        monkeypatch.setattr(wiener, "_eliminated", lambda S, inputs: (
            eliminated.append(list(inputs)) or eliminate(S, inputs)))
        assert (0, base.n) in miso_blanket_topology(S, D).edges
        assert eliminated == [[i for i in range(S.n) if i != j]
                              for j in range(S.n)]
        # no fit takes an eigensolve: the screen's ratio is the only one
        assert calls == [(33, S.n, S.n)]


def screen_records() -> dict:
    """Every matrix the screen tests of this module, ``test_sparse.py`` and
    ``test_topology.py`` read, by name, each a fresh matrix."""
    records = {f"conditioned-{ratio}": conditioned_matrix(
        int(ratio * 1e12), 6, FrequencyGrid(16), ratio)
        for ratio in (1e-11, 1e-10, 1.5e-10, 2e-10, 3e-10, 1e-6)}
    records["conditioned-3"] = conditioned_matrix(3, 6, FrequencyGrid(16), 1e-6)
    records["near-hermitian"] = near_hermitian_matrix()

    def welch(spec, length, seed, size=64):
        return spectral_matrix(simulate(spec, length, seed=seed).ensemble,
                               WelchConfig(grid_size=size))

    def with_copy(base, i=0):
        idx = list(range(base.n)) + [i]
        return SpectralMatrix([*base.labels, "copy"], base.grid,
                              base.values[np.ix_(idx, idx)])

    def ensemble(*columns):
        return spectral_matrix(Ensemble([TimeSeries(label, x) for label, x
                                         in zip("abcdef", columns)]),
                               WelchConfig(grid_size=64))

    records["simulated-12"] = welch(generate_polytree_aln(12, 1), 2 ** 13, 2)
    base = welch(generate_polytree_aln(8, 3), 2 ** 12, 5)
    records["simulated-8-copy"] = with_copy(base)
    for producer in ("welch", "analytic"):
        for n in (4, 8, 16, 32):
            for size in (64, 256):
                records[f"{producer}-{n}-{size}"] = half_grid_matrix(producer, n, size)
        records[f"{producer}-8-copy"] = with_copy(half_grid_matrix(producer, 8, 64))
    records["analytic-polytree-8-copy"] = with_copy(
        analytic_spectra(generate_polytree_aln(8, 3), FrequencyGrid(64)))
    a, b = np.random.default_rng(9).standard_normal((2, 1 << 12))
    records["sum"] = ensemble(a, b, a + b)
    records["copy"] = ensemble(a, b, a.copy())
    records["wide-7"] = welch(generate_polytree_aln(32, 7), 2 ** 13, 11)
    records["wide-4"] = welch(generate_polytree_aln(32, 4), 1 << 13, 4)
    for name, S in zip(("digest", "digest-copy", "digest-sum"), digest_records()):
        records[name] = S
    records["scaled"] = scaled_record()
    records["copies"] = copies_record()
    return records


class TestScreenCertificate:
    """A Cholesky factorization per grid point clears the screen when it
    can; otherwise the eigenvalue ratio decides, so the answer is the ratio's."""

    def test_every_screen_record_gets_the_ratios_answer(self):
        certified = []
        for name, S in screen_records().items():
            T = SpectralMatrix(S.labels, S.grid, S.half)
            clears = S._eigenvalue_ratio >= 2 * CONDITION_RTOL
            assert _clears_screen(T) == clears, name
            if wiener._screen_certificate(S):
                assert clears, name
                certified.append(name)
        # the certificate serves every wide record
        assert {"wide-7", "wide-4", "welch-32-64", "simulated-12"} <= set(certified)

    def test_near_the_threshold_the_ratio_decides(self, monkeypatch):
        # ratio 3e-10 clears the screen, though its trace bound is too loose
        # for the certificate; 1.5e-10 fails both
        for ratio, clears in ((3e-10, True), (1.5e-10, False)):
            S = conditioned_matrix(int(ratio * 1e12), 6, FrequencyGrid(16), ratio)
            assert not wiener._screen_certificate(S)
            calls = count_eigvalsh(monkeypatch)
            assert _clears_screen(S) is clears
            assert calls == [(9, 6, 6)]
            assert (S._eigenvalue_ratio >= 2 * CONDITION_RTOL) is clears
            assert _clears_screen(S) is clears and len(calls) == 1   # kept


class TestBlockCertificate:
    """Behind a failed screen, each fit's block is tried by the Cholesky
    certificate before it is eliminated, and gets the elimination's
    outcome either way."""

    def test_every_block_gets_the_checks_outcome(self, monkeypatch):
        certified = raised = 0
        eliminate = wiener._eliminated
        for name, S in screen_records().items():
            if _clears_screen(S):
                continue
            n = S.n
            blocks = [list(b) for q in (1, 2)
                      for b in itertools.combinations(range(n), q)]
            blocks += [[i for i in range(n) if i != j] for j in range(n)]
            blocks += [list(range(n)), list(range(n))[::-1]]
            for inputs in blocks:
                idx = np.asarray(inputs)
                proved = wiener._certified(
                    S._floored_stack[:, idx[:, None], idx[None, :]],
                    np.sum(S._floored[idx], axis=0))
                calls = count_eigvalsh(monkeypatch)
                error, _ = outcome(wiener._check_conditioning, S, inputs)
                kept, dropped = eliminate(S, inputs)
                # the whole elimination, with the certificate out of play
                monkeypatch.setattr(wiener, "_certified", lambda *args: False)
                forced = eliminate(S, inputs)
                monkeypatch.undo()
                assert_same_outcome(error, outcome(
                    conditioning_reference, S, inputs)[0])
                ref_kept, ref_dropped = schur_reference(S, inputs)
                assert kept == forced[0] == ref_kept, (name, inputs)
                assert_same_drops(dropped, ref_dropped)
                assert_same_drops(forced[1], ref_dropped)
                # no block takes an eigensolve; a proved one drops nothing,
                # eliminated or not; a 1 x 1 block, a positive floored
                # auto-spectrum, is proved
                assert calls == [], (name, inputs)
                assert not (proved and (error or dropped or forced[1]))
                assert proved or len(inputs) > 1, (name, inputs)
                certified += proved
                raised += error is not None
        assert certified and raised


def assert_same_solution(S, target, inputs, normalize):
    """``noncausal_wiener`` equals :func:`wiener_reference`, errors included."""
    error, got = outcome(noncausal_wiener, S, target, inputs, normalize)
    ref_error, ref = outcome(wiener_reference, S, target, inputs, normalize)
    assert_same_outcome(error, ref_error)
    if not ref_error:
        _, _, W, residual, cost = ref
        assert got.cost == cost
        assert np.array_equal(got.residual_spectrum.values, residual)
        for pos, b in enumerate(inputs):
            assert np.array_equal(got.filters[b].response, W[:, pos])


def assert_ols_within_rounding(S, model, ref):
    """An OLS model equals the loop's in support, stop reason and filter
    keys; its cost and filter responses, which come from its closed-form
    scoring rather than a refit, agree to 1e-12 of the target's power."""
    assert (model.support, model.stop_reason) == (ref.support, ref.stop_reason)
    assert list(model.filters) == list(ref.filters)
    power = inner_product(S, model.target, model.target)
    assert_within_rounding(model.cost, ref.cost, power)
    for b in ref.filters:
        assert_within_rounding(model.filters[b].response,
                               ref.filters[b].response, power)


class TestHalfGridSolvers:
    """Solvers read the half grid; the full-grid oracles must agree bit for
    bit, OLS costs and filters to rounding."""

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("producer", ["welch", "analytic"])
    def test_match_the_full_grid_oracles(self, producer, n, size):
        S = half_grid_matrix(producer, n, size)
        assert S._floored_stack.shape == (size // 2 + 1, n, n)
        assert S._eigenvalue_ratio == eigenvalue_ratio_reference(S)
        assert np.array_equal(wiener._filter_rms(S), filter_rms_reference(S))
        D = distance_matrix(S)
        with collect() as events:
            g = miso_blanket_topology(S, D)
        with collect() as ref_events:
            ref = miso_reference(S, D)
        assert g.edges == ref.edges
        assert [(e.category, e.message) for e in events] == \
            [(e.category, e.message) for e in ref_events]
        for target in (0, n - 1):
            assert_ols_within_rounding(
                S, orthogonal_least_squares(S, target, 3, min_gain=0.0),
                ols_reference(S, target, 3, min_gain=0.0))
            others = [b for b in range(n) if b != target]
            for inputs in (others, others[:2][::-1]):
                for normalize in (False, True):
                    assert_same_solution(S, target, inputs, normalize)

    @pytest.mark.parametrize("producer", ["welch", "analytic"])
    def test_screen_failing_duplicate_fails_as_the_oracles(self, producer):
        base = half_grid_matrix(producer, 8, 64)
        n = base.n
        idx = list(range(n)) + [0]
        S = SpectralMatrix([*base.labels, "copy"], base.grid,
                           base.values[np.ix_(idx, idx)])
        assert not _clears_screen(S)
        assert S._eigenvalue_ratio == eigenvalue_ratio_reference(S)
        rms = wiener._filter_rms(S)
        assert np.array_equal(rms, filter_rms_reference(S))
        # targets 1 .. n-1 hold both copies among their inputs: the copy is
        # left out with RMS 0, and the rest is the fit without it, which the
        # record without the copy solves by the oracle's inverse
        ref = filter_rms_reference(base)
        assert np.all(rms[1:n, n] == 0.0)
        assert np.max(np.abs(rms[1:n, :n] - ref[1:])) <= 1e-12 * np.max(ref)
        # X1 and the copy explain each other exactly
        assert rms[0, n] == pytest.approx(1.0) and rms[n, 0] == pytest.approx(1.0)
        for target in (0, 3, base.n):
            others = [b for b in range(S.n) if b != target]
            assert_same_solution(S, target, others, False)
            assert_ols_within_rounding(S, orthogonal_least_squares(S, target, 1),
                                       ols_reference(S, target, 1))

    def test_screen_failing_solvable_fits_match_the_oracles(self):
        # a + b fails the screen, yet every target's two inputs are
        # independent: each per-fit solve reads the half grid
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((2, 1 << 12))
        S = spectral_matrix(Ensemble([TimeSeries("a", a), TimeSeries("b", b),
                                      TimeSeries("sum", a + b)]),
                            WelchConfig(grid_size=64))
        assert not _clears_screen(S)
        assert S._eigenvalue_ratio == eigenvalue_ratio_reference(S)
        assert np.array_equal(wiener._filter_rms(S), filter_rms_reference(S))
        for target in range(S.n):
            others = [b for b in range(S.n) if b != target]
            for normalize in (False, True):
                assert_same_solution(S, target, others, normalize)


def assert_within_rounding(got, ref, scale):
    """``got`` agrees with ``ref`` to 1e-12 of ``scale``."""
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


class TestHalfGridCausalLayer:
    """The causal layer solves the half grid; the whole-grid oracles agree to
    rounding, and the polytrees their distances build are the same."""

    @pytest.mark.parametrize("size", [64, 256, 1024])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("producer", ["welch", "analytic"])
    def test_match_the_full_grid_oracles(self, producer, n, size):
        S = half_grid_matrix(producer, n, size)
        with collect() as events:
            DC = causal_distance_matrix(S).values
        with collect() as ref_events:
            ref = causal_reference(S)
        np.testing.assert_allclose(DC, ref, rtol=1e-12, atol=0)
        assert [e.category for e in events] == [e.category for e in ref_events]
        phi = np.array([S.floored_autospectrum(i) for i in range(n)])
        for target, input_ in [(0, n - 1), (n - 1, 0), (1, 0)]:
            sol = causal_wiener(S, target, input_)
            response, weighted, cost = causal_pair_reference(S, target, input_)
            assert sol.cost == pytest.approx(cost, rel=1e-12, abs=0)
            assert_within_rounding(sol.residual_spectrum.values, weighted,
                                   np.max(np.abs(weighted)))
            # a filter that should vanish is rounding noise on both sides, so
            # responses compare in whitened units, where the zero filter
            # leaves the whole target unexplained
            whiten = np.sqrt(phi[input_] / phi[target])
            assert_within_rounding(sol.filters[input_].response * whiten,
                                   response * whiten, 1.0)
        for i in (0, n - 1):
            F = spectral_factorize(Spectrum(S.grid, phi[i]))
            responses, taps = spectral_factors_reference(S.grid, phi[i][None])
            assert_within_rounding(F.response, responses[0],
                                   np.max(np.abs(responses[0])))
            assert_within_rounding(F.impulse, taps[0], np.max(np.abs(taps[0])))

    def test_polytrees_match_the_full_grid_oracle(self):
        # networks of 4 to 16 nodes on the analytic benchmark's grid, where
        # exact and rounding-level orientation ties are common
        grid = FrequencyGrid(256)
        ties = 0
        for seed in range(1000, 1200):
            S = analytic_spectra(generate_polytree_aln(4 + seed % 13, seed), grid)
            tree = build_polytree(causal_distance_matrix(S))
            ref = build_polytree(DistanceMatrix(S.labels, causal_reference(S),
                                                "causal"))
            assert tree.edges.keys() == ref.edges.keys()
            assert tree.ties == ref.ties
            ties += len(tree.ties)
        assert ties > 0


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
            assert np.array_equal(c, S.values[inputs, target, S.grid.half].T[None])


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
        assert F.impulse is not None and F.support_offset == 0
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


class TestCausalWiener:
    @pytest.mark.parametrize("series", [0, 1])
    def test_rejects_the_target_as_its_input(self, series):
        S = ar1_pair_shifted(FrequencyGrid(16))
        with pytest.raises(InvalidParameterError,
                           match="^target cannot be one of its inputs$"):
            causal_wiener(S, series, series)

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
        tf = sol.filters[1]
        assert tf.impulse is not None and tf.support_offset == 0

