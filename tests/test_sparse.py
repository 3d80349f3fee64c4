import re
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from polyscope import (
    ALNSpec,
    CombinatorialLimitError,
    Ensemble,
    FrequencyGrid,
    IllConditionedSpectrumError,
    InvalidParameterError,
    InvalidSpectrumError,
    Link,
    SparseModel,
    SpectralMatrix,
    TimeSeries,
    WelchConfig,
    analytic_spectra,
    distance_matrix,
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
)
from polyscope import signals, sparse, wiener
from polyscope.diagnostics import collect
from polyscope.errors import PolyscopeError
from polyscope.sparse import DEFAULT_MIN_GAIN
from polyscope.wiener import _clears_screen, _filter_rms, _joint_fits

from oracles import (
    PRINTED_RTOL,
    SCHUR_RATIO_ATOL,
    assert_same_drops,
    copies_record,
    digest_records,
    disconnected_record,
    filter_rms_reference,
    first_step_reference,
    half_grid_matrix,
    make_two_sparse_instance,
    mp_reference,
    ols_per_target_reference,
    ols_reference,
    project_reference,
    random_psd_matrix,
    scaled_record,
    schur_reference,
    sinusoid_ensemble,
    wiener_reference,
)


def white_mixture(grid=None, gains=(0.8, 0.3, 0.0), noise_var=0.1):
    """Unit white candidates c0..c2 and target t = sum g_i c_i + noise."""
    grid = grid or FrequencyGrid(128)
    k = grid.size
    g = np.asarray(gains, dtype=float)
    n = g.size + 1
    values = np.zeros((n, n, k), dtype=complex)
    for i in range(g.size):
        values[i, i] = 1.0
        values[i, n - 1] = g[i]
        values[n - 1, i] = g[i]
    values[n - 1, n - 1] = float(np.sum(g ** 2) + noise_var)
    labels = [f"c{i}" for i in range(g.size)] + ["t"]
    return SpectralMatrix(labels, grid, values)


class TestInnerProduct:
    def test_matches_power_and_covariance(self):
        S = white_mixture()
        assert inner_product(S, 3, 3) == pytest.approx(0.83)
        assert inner_product(S, 0, 3) == pytest.approx(0.8)
        assert inner_product(S, 2, 3) == pytest.approx(0.0)

    def test_material_imaginary_part_raises(self):
        # a cross spectrum whose grid mean is 0.5j is not conjugate-even,
        # so no spectral matrix holds it
        grid = FrequencyGrid(32)
        values = np.zeros((2, 2, 32), dtype=complex)
        values[0, 0] = values[1, 1] = 1.0
        values[0, 1] = 0.5j
        values[1, 0] = -0.5j
        with pytest.raises(InvalidParameterError,
                           match="not conjugate-even in frequency"):
            SpectralMatrix(["a", "b"], grid, values)


class TestProject:
    def test_empty_support_returns_target_power(self):
        S = white_mixture()
        filters, cost = project(S, 3, ())
        assert filters == {}
        assert cost == pytest.approx(0.83)

    def test_full_support_reaches_noise_floor(self):
        S = white_mixture()
        filters, cost = project(S, 3, (0, 1, 2))
        assert cost == pytest.approx(0.1, abs=1e-9)
        np.testing.assert_allclose(filters[0].response, 0.8, atol=1e-9)
        np.testing.assert_allclose(filters[1].response, 0.3, atol=1e-9)
        np.testing.assert_allclose(filters[2].response, 0.0, atol=1e-9)

    def test_matches_per_fit_reference(self):
        fixtures = [(white_mixture(), 3),
                    (random_psd_matrix(np.random.default_rng(2), 5, FrequencyGrid(64)), 1)]
        fixtures += [make_two_sparse_instance(seed, correlated)[:2]
                     for seed in range(5) for correlated in (False, True)]
        for S, target in fixtures:
            others = [b for b in range(S.n) if b != target]
            for inputs in ([others[0]], others[:2][::-1], others):
                filters, cost = project(S, target, inputs)
                ref_filters, ref_cost = project_reference(S, target, inputs)
                assert cost == ref_cost
                assert list(filters) == list(ref_filters)
                for b in filters:
                    assert np.array_equal(filters[b].response,
                                          ref_filters[b].response)
                for normalize in (False, True):
                    sol = noncausal_wiener(S, target, inputs, normalize=normalize)
                    _, _, W, residual, ref_cost = wiener_reference(
                        S, target, inputs, normalize)
                    assert sol.cost == ref_cost
                    assert np.array_equal(sol.residual_spectrum.values, residual)
                    assert list(sol.filters) == list(inputs)
                    for pos, b in enumerate(inputs):
                        assert np.array_equal(sol.filters[b].response, W[:, pos])


class TestSparseModel:
    @pytest.mark.parametrize("support, message", [
        ((1, 1), "duplicate inputs"),
        ((2, 0), "target cannot be one of its inputs"),
    ])
    def test_support_is_checked_as_a_fits_inputs(self, support, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            SparseModel(0, support, {b: None for b in support}, 0.0,
                        solver="ols", stop_reason="budget")
        assert SparseModel(0, (2, 1), {1: None, 2: None}, 0.0, solver="ols",
                           stop_reason="budget").support == (1, 2)


@pytest.mark.parametrize("solver", [sparse_exhaustive, matching_pursuit,
                                    orthogonal_least_squares])
class TestMaxInputs:
    def test_non_integral_budget_is_rejected(self, solver):
        with pytest.raises(InvalidParameterError, match="integer"):
            solver(white_mixture(), 3, 1.5)

    def test_numpy_integer_budget_is_accepted(self, solver):
        S = white_mixture()
        model = solver(S, 3, np.int64(2))
        expected = solver(S, 3, 2)
        assert model.support == expected.support
        assert model.stop_reason == expected.stop_reason


class TestExhaustive:
    def test_chain_prefers_single_parent(self):
        spec = ALNSpec(["X1", "X2", "X3"],
                       [Link(0, 1, np.array([0.9, 0.4])),
                        Link(1, 2, np.array([0.7, -0.5]))],
                       np.ones(3))
        S = analytic_spectra(spec, FrequencyGrid(128))
        model = sparse_exhaustive(S, target=2, max_inputs=2)
        assert model.support == (1,)
        assert model.cost == pytest.approx(1.0, abs=1e-9)
        assert model.solver == "exhaustive"
        assert model.stop_reason == "complete"

    def test_equal_candidates_tie_breaks_low_index(self):
        S = white_mixture(gains=(0.5, 0.5), noise_var=0.2)
        model = sparse_exhaustive(S, target=2, max_inputs=1)
        assert model.support == (0,)

    def test_zero_budget(self):
        S = white_mixture()
        model = sparse_exhaustive(S, target=3, max_inputs=0)
        assert model.support == ()
        assert model.cost == pytest.approx(0.83)

    def test_combination_limit(self):
        S = random_psd_matrix(np.random.default_rng(5), 25, FrequencyGrid(16))
        with pytest.raises(CombinatorialLimitError):
            sparse_exhaustive(S, target=0, max_inputs=6)

    def test_negative_budget(self):
        with pytest.raises(InvalidParameterError):
            sparse_exhaustive(white_mixture(), target=3, max_inputs=-1)


class TestMatchingPursuit:
    def test_orthogonal_candidates_hand_solved(self):
        S = white_mixture()
        model = matching_pursuit(S, target=3, max_inputs=2)
        assert model.support == (0, 1)
        assert model.solver == "mp"
        assert model.stop_reason == "budget"
        np.testing.assert_allclose(model.raw_filters[0].response, 0.8,
                                   atol=1e-12)
        np.testing.assert_allclose(model.raw_filters[1].response, 0.3,
                                   atol=1e-12)
        assert model.raw_cost == pytest.approx(0.1, abs=1e-12)
        assert model.cost == pytest.approx(0.1, abs=1e-9)

    def test_zero_gain_candidate_stops_pursuit(self):
        S = white_mixture()                     # third candidate is useless
        model = matching_pursuit(S, target=3, max_inputs=3)
        assert model.support == (0, 1)
        assert model.stop_reason == "negligible-gain"

    def test_min_gain_stop(self):
        S = white_mixture(gains=(1.0, 0.5, 0.02), noise_var=0.1)
        model = matching_pursuit(S, target=3, max_inputs=3)
        assert model.support == (0, 1)
        assert model.stop_reason == "min-gain"
        # with the gate disabled the tiny atom is accepted
        full = matching_pursuit(S, target=3, max_inputs=3, min_gain=0.0)
        assert full.support == (0, 1, 2)

    def test_pool_exhausted(self):
        S = white_mixture(gains=(0.7, 0.4), noise_var=0.2)
        model = matching_pursuit(S, target=2, max_inputs=5, min_gain=0.0)
        assert model.support == (0, 1)
        assert model.stop_reason == "exhausted"

    def test_refit_never_worse_than_raw(self):
        for seed in range(5):
            S, target, _ = make_two_sparse_instance(seed, correlated=True)
            model = matching_pursuit(S, target, max_inputs=2, min_gain=0.0)
            assert model.cost <= model.raw_cost + 1e-8

    def test_equal_gains_pick_lower_index(self):
        S = white_mixture(gains=(0.5, 0.5), noise_var=0.2)
        model = matching_pursuit(S, target=2, max_inputs=1)
        assert model.support == (0,)

    def test_bad_min_gain(self):
        with pytest.raises(InvalidParameterError):
            matching_pursuit(white_mixture(), 3, 2, min_gain=1.0)


class TestOrthogonalLeastSquares:
    def test_first_atom_agrees_with_matching_pursuit(self):
        for seed in range(5):
            S, target, _ = make_two_sparse_instance(seed, correlated=True)
            mp = matching_pursuit(S, target, max_inputs=1, min_gain=0.0)
            ols = orthogonal_least_squares(S, target, max_inputs=1,
                                           min_gain=0.0)
            assert mp.support == ols.support

    def test_recovers_true_support(self):
        for seed in range(5):
            S, target, truth = make_two_sparse_instance(seed,
                                                        correlated=False)
            model = orthogonal_least_squares(S, target, max_inputs=2)
            assert model.support == truth
            assert model.solver == "ols"

    def test_filters_jointly_optimal(self):
        S, target, _ = make_two_sparse_instance(3, correlated=True)
        model = orthogonal_least_squares(S, target, max_inputs=2,
                                         min_gain=0.0)
        filters, cost = project(S, target, model.support)
        assert model.cost == pytest.approx(cost, abs=1e-12)
        for b in model.support:
            np.testing.assert_allclose(model.filters[b].response,
                                       filters[b].response, atol=1e-12)

    def test_stop_reasons(self):
        S = white_mixture()
        assert orthogonal_least_squares(S, 3, max_inputs=2).stop_reason \
            == "budget"
        assert orthogonal_least_squares(S, 3, max_inputs=3).stop_reason \
            == "negligible-gain"
        two = white_mixture(gains=(0.7, 0.4), noise_var=0.2)
        assert orthogonal_least_squares(two, 2, max_inputs=5,
                                        min_gain=0.0).stop_reason \
            == "exhausted"


def assert_same_model(model, ref):
    assert model.support == ref.support
    assert model.cost == ref.cost
    assert model.stop_reason == ref.stop_reason
    assert list(model.filters) == list(ref.filters)
    for b in ref.filters:
        assert np.array_equal(model.filters[b].response, ref.filters[b].response)


def assert_same_ols_model(S, model, ref):
    """OLS against a model of joint solves: supports, stop reasons and filter
    keys are equal, costs and filter responses within 1e-12 of the target's
    power (OLS reports its closed-form scoring, not a refit)."""
    assert model.support == ref.support
    assert model.stop_reason == ref.stop_reason
    assert list(model.filters) == list(ref.filters)
    tol = 1e-12 * inner_product(S, model.target, model.target)
    assert abs(model.cost - ref.cost) <= tol
    for b in ref.filters:
        assert np.max(np.abs(model.filters[b].response
                             - ref.filters[b].response)) <= tol


def assert_ols_matches_loop(S, targets):
    for target in targets:
        for budget in range(4):
            for min_gain in (0.0, DEFAULT_MIN_GAIN):
                assert_same_ols_model(
                    S, orthogonal_least_squares(S, target, budget, min_gain),
                    ols_reference(S, target, budget, min_gain))


class TestOLSMatchesPerCandidateLoop:
    """Each scored step against the loop that refits every candidate by itself."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_analytic_networks(self, n):
        grid = FrequencyGrid(64)
        for seed in range(20):
            S = analytic_spectra(generate_polytree_aln(n, seed), grid)
            assert_ols_matches_loop(S, range(n))

    def test_simulated_record(self):
        sim = simulate(generate_polytree_aln(8, 3), 2 ** 12, seed=5)
        S = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
        assert_ols_matches_loop(S, range(S.n))

    def test_copies_of_the_first_pick_leave_the_pool(self):
        base = random_psd_matrix(np.random.default_rng(4), 5, FrequencyGrid(64))
        target = 4
        x = orthogonal_least_squares(base, target, 1).support[0]
        # series 5 is x plus faint white noise, series 6 an exact copy of x:
        # x still wins the first step, and at the second both are collinear
        # with it, so they leave the pool once and the model is base's
        idx = list(range(5)) + [x, x]
        values = base.values[np.ix_(idx, idx)]
        values[5, 5] += 1e-12 * np.max(values[x, x].real)
        S = SpectralMatrix([f"s{i}" for i in range(7)], base.grid, values)
        for budget in (2, 3):
            with collect() as events:
                model = orthogonal_least_squares(S, target, budget, min_gain=0.0)
            assert_same_ols_model(
                S, model, ols_reference(base, target, budget, min_gain=0.0))
            dropped = [re.fullmatch(r"candidate '(s\d)' of target 's4' is "
                                    r"collinear with its support "
                                    r"\(Schur ratio (\S+)\)", e.message).groups()
                       for e in events if e.category == "collinear-candidate"]
            assert [b for b, _ in dropped] == ["s5", "s6"]
            assert float(dropped[0][1]) == pytest.approx(1e-12, rel=1e-3)
            assert abs(float(dropped[1][1])) < 1e-14


def step_supports(S, target, steps):
    """The supports OLS scores its first ``steps`` steps from, in order."""
    return [list(orthogonal_least_squares(S, target, q, 0.0).support)
            for q in range(steps)]


def twin(S):
    """A new matrix of ``S``'s values: its own floor events and kept results."""
    T = SpectralMatrix(S.labels, S.grid, S.half)
    assert T.half.tobytes() == S.half.tobytes()
    return T


class TestOLSClosedFormSteps:
    """Steps scored from the support's fit against fits of every extension."""

    def test_wide_record_matches_the_loop(self, wide_record):
        for target in range(wide_record.n):
            for budget in range(6):
                for min_gain in (0.0, DEFAULT_MIN_GAIN):
                    assert_same_ols_model(
                        wide_record,
                        orthogonal_least_squares(wide_record, target, budget,
                                                 min_gain),
                        ols_reference(wide_record, target, budget, min_gain))

    def test_scored_costs_match_the_joint_fits(self, wide_record):
        S = wide_record
        for target in range(S.n):
            tol = 1e-12 * inner_product(S, target, target)
            for support in step_supports(S, target, 3):
                free = [b for b in range(S.n) if b != target and b not in support]
                (scored,), (fits,), (messages,), (error,) = \
                    wiener._extension_costs(S, [target], [support], [free])
                assert messages == [] and error is None
                assert fits.shape == (len(free), S.grid.size // 2 + 1,
                                      len(support) + 1)
                for b, cost, W in zip(free, scored, fits):
                    W_joint, residual = _joint_fits(S, target, support + [b])
                    cost_joint = S.grid.half_mean(residual)
                    assert cost == pytest.approx(cost_joint, rel=1e-12, abs=0)
                    assert np.max(np.abs(W - W_joint)) <= tol

    def test_every_scored_extension_is_checked(self, wide_record, monkeypatch):
        # every scored extension of every step, the first included, is
        # checked by wiener._extension_orthogonality once, from its parts
        S, ref = twin(wide_record), twin(wide_record)
        steps = {target: step_supports(ref, target, 3) for target in range(S.n)}
        checked = []
        check = wiener._extension_orthogonality

        def recording(A_SS, A_Sb, A_bS, A_bb, c_S, c_b, W):
            checked.append((c_S, c_b))
            return check(A_SS, A_Sb, A_bS, A_bb, c_S, c_b, W)

        monkeypatch.setattr(wiener, "_extension_orthogonality", recording)
        for target in range(S.n):
            orthogonal_least_squares(S, target, 3, 0.0)
        # each cross spectrum names its input and target
        pairs = {S.half[b, t].tobytes(): (b, t)
                 for b in range(S.n) for t in range(S.n) if b != t}
        assert len(pairs) == S.n * (S.n - 1)
        fits = Counter()
        for c_S, c_b in checked:
            for support, candidates in zip(c_S, c_b):
                for candidate in candidates:
                    # each checked column is one input's cross spectrum to
                    # the fit's one target
                    inputs, targets = zip(*(pairs[col.tobytes()] for col in
                                            (*support.T, candidate)))
                    assert len(set(targets)) == 1
                    fits[targets[0], frozenset(inputs)] += 1
        expected = Counter()
        for target, supports in steps.items():
            assert supports[0] == [] and len(supports) == 3
            for support in supports:
                for b in range(S.n):
                    if b != target and b not in support:
                        expected[target, frozenset(support + [b])] += 1
        assert fits == expected

    def test_exact_copy_leaves_the_pool(self):
        sim = simulate(generate_polytree_aln(8, 3), 2 ** 12, seed=5)
        base = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
        idx = list(range(base.n)) + [0]
        S = SpectralMatrix([*base.labels, "copy"], base.grid,
                           base.values[np.ix_(idx, idx)])
        assert not _clears_screen(S)
        for target in range(S.n):
            for min_gain in (0.0, DEFAULT_MIN_GAIN):
                assert_same_ols_model(
                    S, orthogonal_least_squares(S, target, 1, min_gain),
                    ols_reference(S, target, 1, min_gain))
        # past one input the copy never joins X1: it leaves the pool
        # or loses the tie to it, so the model is the one without it
        for target in range(1, base.n):
            for budget in (2, 3):
                for min_gain in (0.0, DEFAULT_MIN_GAIN):
                    assert_same_ols_model(
                        S, orthogonal_least_squares(S, target, budget, min_gain),
                        ols_reference(base, target, budget, min_gain))


class TestOLSReportsItsScoredFit:
    """OLS reports the filters and cost its scoring solved, with no refit."""

    def test_fits_match_projections_of_their_support(self, wide_record):
        base, duplicated, summed = digest_records()
        assert not _clears_screen(duplicated) and not _clears_screen(summed)
        for S in (wide_record, duplicated, summed):
            for target in range(S.n):
                tol = 1e-12 * inner_product(S, target, target)
                for budget in range(4):
                    for min_gain in (0.0, DEFAULT_MIN_GAIN):
                        model = orthogonal_least_squares(S, target, budget,
                                                         min_gain)
                        filters, cost = project(S, target, model.support)
                        assert abs(model.cost - cost) <= tol
                        assert list(model.filters) == list(filters)
                        for b in filters:
                            assert np.max(np.abs(model.filters[b].response
                                                 - filters[b].response)) <= tol
                        try:
                            ref = ols_reference(S, target, budget, min_gain)
                        except IllConditionedSpectrumError:
                            # the loop fits the copy beside X1, where OLS
                            # drops it: the model is the one without it
                            assert S is duplicated
                            ref = ols_reference(base, target, budget, min_gain)
                        assert (model.support, model.stop_reason) == \
                            (ref.support, ref.stop_reason)

    def test_a_series_scale_leaves_every_fit_usable(self):
        # X1 multiplied by 1e4 or 1e5 fails the screen, which reads the
        # matrix in its units, and the winner blocks of targets 1 and 3 have
        # eigenvalue ratios near 2e-11 at 1e5; the conditioning rule reads
        # each input's Schur ratio, which a scale does not change, so every
        # OLS support at budget 2 is the unscaled one, and neither the fit
        # of X2 on every other series nor the MISO graph raises (the graph
        # itself may change: its candidate rule compares raw filter RMS)
        supports = [(1, 3), (0, 6), (1, 6), (0,), (1,), (1,), (1, 2), (6,)]
        for scale in (1.0, 1e4, 1e5):
            S = scaled_record(scale)
            assert _clears_screen(S) == (scale == 1.0)
            assert [orthogonal_least_squares(S, target, 2).support
                    for target in range(S.n)] == supports
            noncausal_wiener(S, 1, [0, *range(2, S.n)])
            miso_blanket_topology(S, distance_matrix(S))


def assert_first_steps_match(S, monkeypatch):
    """Every target's first step, scored by the one OLS step kernel with an
    empty support, against the per-target scoring of
    :func:`first_step_reference`: costs, filters, checks, the winner's
    filter bit for bit, and the budget-0 cost, with equal events."""
    lib, ref = twin(S), twin(S)
    # budget 0 reads only the initial cost, and records no floor events
    for target in range(S.n):
        with collect() as events:
            model = orthogonal_least_squares(lib, target, 0)
        with collect() as ref_events:
            expected = ols_reference(ref, target, 0)
        assert events == ref_events
        assert np.float64(model.cost).tobytes() == \
            np.float64(expected.cost).tobytes()
        assert (model.support, model.filters, model.stop_reason) == \
            ((), {}, expected.stop_reason)
    # the lockstep first step checks every target's fits by one rule call
    # per block, its rows the targets in order
    rules = []
    rule = wiener._orthogonality_failures

    def recording_rule(worst, *maxima):
        failed, scale = rule(worst, *maxima)
        rules.append((failed, worst, scale))
        return failed, scale

    with monkeypatch.context() as patch:
        patch.setattr(wiener, "_orthogonality_failures", recording_rule)
        models = [orthogonal_least_squares(lib, target, 1)
                  for target in range(S.n)]
    failed, worst, scale = (np.concatenate(parts) for parts in zip(*rules))
    assert worst.shape == (S.n, S.n - 1)
    for target in range(S.n):
        free = [b for b in range(S.n) if b != target]
        with collect() as events:
            (costs,), (W,), (messages,), (error,) = wiener._extension_costs(
                lib, [target], [[]], [free])
        assert messages == [] and error is None
        with collect() as ref_events:
            ref_costs, ref_W, ref_worst, ref_scale = first_step_reference(
                ref, target)
        assert events == ref_events
        assert costs.tobytes() == ref_costs.tobytes()
        assert W.shape == ref_W.shape and W.tobytes() == ref_W.tobytes()
        assert worst[target].tobytes() == ref_worst.tobytes()
        assert scale[target].tobytes() == ref_scale.tobytes()
        assert not failed[target].any()
        model = models[target]
        if model.support:
            (b,) = model.support
            pick = int(np.argmin(ref_costs))
            assert b == free[pick]
            assert np.float64(model.cost).tobytes() == ref_costs[pick].tobytes()
            assert model.filters[b].response.tobytes() == \
                S.grid.mirror(ref_W[pick, :, 0]).tobytes()
    assert "_first_steps" not in lib._memo


def count_runs(monkeypatch):
    """Record ``(S, max_inputs, min_gain)`` of every all-target OLS run
    from now on."""
    runs = []
    run = sparse._ols_outcomes

    def counting(S, max_inputs, min_gain):
        runs.append((S, max_inputs, min_gain))
        return run(S, max_inputs, min_gain)

    monkeypatch.setattr(sparse, "_ols_outcomes", counting)
    return runs


class TestFirstStepPass:
    """Every target's first step is the OLS step kernel's empty support."""

    def test_wide_record(self, wide_record, monkeypatch):
        assert_first_steps_match(wide_record, monkeypatch)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_analytic_networks(self, n, monkeypatch):
        grid = FrequencyGrid(64)
        for seed in range(3):
            assert_first_steps_match(
                analytic_spectra(generate_polytree_aln(n, seed), grid),
                monkeypatch)

    def test_random_psd_matrices(self, monkeypatch):
        rng = np.random.default_rng(27)
        for n in (2, 3, 6, 11):
            for k in (16, 64):
                assert_first_steps_match(
                    random_psd_matrix(rng, n, FrequencyGrid(k)), monkeypatch)

    def test_floored_sinusoids(self, monkeypatch):
        S = spectral_matrix(sinusoid_ensemble(), WelchConfig(grid_size=256))
        with collect() as events:
            S._floored
        assert len([e for e in events if e.category == "spectral-floor"]) == S.n
        assert_first_steps_match(S, monkeypatch)

    def test_copy_record_and_its_singular_miso_targets(self, monkeypatch):
        duplicated = digest_records()[1]
        assert not _clears_screen(duplicated)
        assert_first_steps_match(duplicated, monkeypatch)
        # MISO takes no OLS step: each target's fit on all other series is
        # one elimination in index order, which leaves out what the Schur
        # reference leaves out, records it, and solves the rest jointly
        S = twin(duplicated)
        stacks, eliminations = [], []
        stack, eliminate = wiener._extension_costs, wiener._eliminated
        monkeypatch.setattr(wiener, "_extension_costs", lambda *args: (
            stacks.append(args) or stack(*args)))
        monkeypatch.setattr(wiener, "_eliminated", lambda S, inputs: (
            eliminations.append((list(inputs), eliminate(S, inputs)))
            or eliminations[-1][1]))
        with collect() as events:
            rms = _filter_rms(S)
        assert stacks == []
        expected = []
        for j, (inputs, (kept, dropped)) in enumerate(eliminations):
            assert inputs == [i for i in range(S.n) if i != j]
            ref_kept, ref_dropped = schur_reference(duplicated, inputs)
            assert kept == ref_kept
            assert_same_drops(dropped, ref_dropped)
            expected += [(j, b, ratio) for b, _, ratio in ref_dropped]
        assert len(eliminations) == S.n
        assert {b for _, b, _ in expected} == {S.n - 1}     # the copy alone
        collinear = [e.message for e in events
                     if e.category == "collinear-candidate"]
        assert len(collinear) == len(expected)
        for message, (j, b, ratio) in zip(collinear, expected):
            text, printed = message[:-1].split(" (Schur ratio ")
            assert text == (f"candidate {S.labels[b]!r} of target "
                            f"{S.labels[j]!r} is collinear with its support")
            assert abs(float(printed) - ratio) <= \
                SCHUR_RATIO_ATOL + PRINTED_RTOL * abs(ratio)
        assert np.array_equal(rms, filter_rms_reference(duplicated))


class TestFirstStepCache:
    """The OLS outcomes, first steps included, are computed once per matrix
    and ``(max_inputs, min_gain)``, by identity, and kept while the matrix
    lives."""

    def test_one_pass_per_matrix(self, wide_record, monkeypatch):
        S = twin(wide_record)
        runs = count_runs(monkeypatch)
        for target in range(S.n):
            orthogonal_least_squares(S, target, 2)
        assert runs == [(S, 2, DEFAULT_MIN_GAIN)]
        # another budget or gain is a run of its own
        orthogonal_least_squares(S, 0, 1)
        orthogonal_least_squares(S, 0, 2, 0.0)
        assert runs[1:] == [(S, 1, DEFAULT_MIN_GAIN), (S, 2, 0.0)]
        # equal values, yet a matrix of its own: its own run
        T = twin(wide_record)
        orthogonal_least_squares(T, 0, 2)
        assert len(runs) == 4 and runs[3][0] is T
        runs.clear()
        # the kept runs go with their matrix, and the other matrix keeps its own
        key = ("orthogonal_least_squares", 2, DEFAULT_MIN_GAIN)
        kept, alive = weakref.ref(T._memo[key][0]), weakref.ref(T)
        del T
        assert alive() is None and kept() is None
        orthogonal_least_squares(S, 5, 2)
        assert runs == []
        assert "_first_steps" not in S._memo

    def test_two_threads_on_one_matrix(self, monkeypatch):
        base = random_psd_matrix(np.random.default_rng(4), 5, FrequencyGrid(64))
        x = orthogonal_least_squares(base, 4, 1).support[0]
        idx = list(range(5)) + [x, x]
        values = base.values[np.ix_(idx, idx)]
        values[5, 5] += 1e-12 * np.max(values[x, x].real)
        serial = SpectralMatrix([f"s{i}" for i in range(7)], base.grid, values)

        def run_all(S):
            with collect() as events:
                models = [orthogonal_least_squares(S, target, 3, min_gain=0.0)
                          for target in range(S.n)]
            return models, events

        S = twin(serial)
        expected_models, expected_events = run_all(serial)
        assert any(e.category == "collinear-candidate" for e in expected_events)
        runs = count_runs(monkeypatch)
        results = [None, None]

        def worker(slot):
            results[slot] = run_all(S)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert runs == [(S, 3, 0.0)]
        for models, events in results:
            assert events == expected_events
            for model, ref in zip(models, expected_models, strict=True):
                assert_same_model(model, ref)

    def test_a_failed_first_step_raises_for_its_target_alone(
            self, wide_record, monkeypatch):
        S, ref = twin(wide_record), twin(wide_record)
        target, b = 5, 17
        expected = [orthogonal_least_squares(ref, t, 2) for t in range(S.n)]
        # the pair's maxima name it alone among the matrix's fits on one input
        c_max = np.max(np.abs(S.half), axis=-1).T
        A_max = np.max(S._floored, axis=-1)[None, :]
        key = (c_max[target, b], A_max[0, b])
        off = ~np.eye(S.n, dtype=bool)
        assert np.sum(off & (c_max == key[0]) & (A_max == key[1])) == 1
        rule = wiener._orthogonality_failures

        def failing(worst, c_max, A_max, W_max):
            failed, scale = rule(worst, c_max, A_max, W_max)
            return failed | ((c_max == key[0]) & (A_max == key[1])), scale

        monkeypatch.setattr(wiener, "_orthogonality_failures", failing)
        _, _, worst, scale = first_step_reference(ref, target)
        pos = b - (b > target)
        message = (f"projection for target {target} violates orthogonality "
                   f"by {worst[pos]:.3e} (scale {scale[pos]:.3e})")
        for t in range(S.n):
            assert_same_model(orthogonal_least_squares(S, t, 0),
                              orthogonal_least_squares(ref, t, 0))
            if t == target:
                with pytest.raises(InvalidSpectrumError) as error:
                    orthogonal_least_squares(S, t, 2)
                assert str(error.value) == message
            else:
                assert_same_model(orthogonal_least_squares(S, t, 2), expected[t])


def ols_calls(S, select, targets, budget, min_gain):
    """Each target's model bytes, or error type and message, with the events
    of its own collector, from ``select(S, target, budget, min_gain)``."""
    rows = {}
    for target in targets:
        with collect() as events:
            try:
                model = select(S, target, budget, min_gain)
                got = (model.support, np.float64(model.cost).tobytes(),
                       model.stop_reason,
                       [(b, f.response.tobytes()) for b, f in model.filters.items()])
            except PolyscopeError as error:
                got = (type(error), str(error))
        rows[target] = (got, [(e.category, e.message) for e in events])
    return rows


def all_ols_calls(S, select, budgets, targets=None):
    targets = range(S.n) if targets is None else targets
    return {(budget, min_gain): ols_calls(S, select, targets, budget, min_gain)
            for budget in budgets for min_gain in (0.0, DEFAULT_MIN_GAIN)}


def count_blocks(monkeypatch):
    """Record ``(q, targets)`` of every block OLS scores from now on."""
    blocks = []
    score = sparse._extension_costs

    def counting(S, targets, supports, pools):
        blocks.append((len(supports[0]), len(targets)))
        return score(S, targets, supports, pools)

    monkeypatch.setattr(sparse, "_extension_costs", counting)
    return blocks


class TestOLSLockstep:
    """Every target steps in lockstep, in blocks of ``signals.BLOCK_VALUES``
    normal-equation values, with the bits, events and errors of the
    per-target runs they replaced, whatever the blocking and the call
    order."""

    @pytest.fixture(scope="class")
    def records(self, wide_record):
        base, duplicated, summed = digest_records()
        return {"wide": wide_record, "duplicated": duplicated,
                "summed": summed, "scaled": scaled_record(),
                "disconnected": disconnected_record()}

    @pytest.mark.parametrize("name", ["wide", "duplicated", "summed", "scaled",
                                      "disconnected"])
    def test_matches_the_per_target_runs_at_any_blocking(self, records, name,
                                                         monkeypatch):
        S = records[name]
        assert _clears_screen(S) == (name == "wide")
        budgets = range(5) if name == "wide" else range(S.n + 1)
        expected = all_ols_calls(twin(S), ols_per_target_reference, budgets)
        second = (S.n - 2) * (S.grid.size // 2 + 1) * 4    # one target at q 1
        blocks = count_blocks(monkeypatch)
        for values, block in [(1, 1), (3 * second + second // 2, 3),
                              (1 << 40, S.n)]:
            monkeypatch.setattr(signals, "BLOCK_VALUES", values)
            blocks.clear()
            assert all_ols_calls(twin(S), orthogonal_least_squares,
                                 budgets) == expected
            # every target scores a second step in some run, in full blocks
            assert max(size for q, size in blocks if q == 1) == min(block, S.n)
        if name == "scaled":
            # the one conditioning rule refuses no target of the scaled
            # record, whose screen fails
            assert not [got for rows in expected.values()
                        for got, _ in rows.values() if len(got) == 2]
        if name == "duplicated":
            assert any(category == "collinear-candidate"
                       for rows in expected.values()
                       for _, events in rows.values()
                       for category, _ in events)

    def test_default_block_is_sixteen_targets_on_the_wide_record(
            self, wide_record, monkeypatch):
        S = twin(wide_record)
        blocks = count_blocks(monkeypatch)
        for target in range(S.n):
            orthogonal_least_squares(S, target, 2)
        assert blocks == [(0, 32)] + [(1, 16)] * 2

    def test_initial_costs_are_those_of_the_empty_projection(self, records):
        for S in (*records.values(),
                  analytic_spectra(generate_polytree_aln(8, 2), FrequencyGrid(64)),
                  random_psd_matrix(np.random.default_rng(3), 6, FrequencyGrid(16))):
            for target in range(S.n):
                cost = orthogonal_least_squares(S, target, 0).cost
                assert np.float64(cost).tobytes() == \
                    np.float64(project(S, target, ())[1]).tobytes()

    def test_call_order_and_threads_do_not_change_models_or_events(self):
        # reverse order on one matrix, and three threads sharing another
        for S, budget in ((copies_record(), 3), (digest_records()[1], 2)):
            forward = all_ols_calls(twin(S), orthogonal_least_squares, [budget])
            assert any(category == "collinear-candidate"
                       for rows in forward.values()
                       for _, events in rows.values() for category, _ in events)
            assert all_ols_calls(twin(S), orthogonal_least_squares, [budget],
                                 range(S.n - 1, -1, -1)) == forward
            shared, results = twin(S), [None, None, None]

            def worker(slot):
                results[slot] = all_ols_calls(shared, orthogonal_least_squares,
                                              [budget])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(slot,))
                           for slot in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [forward] * 3

    def test_transient_memory_is_bounded_by_the_block(self):
        # one target's second step alone exceeds BLOCK_VALUES at n 64,
        # K 1024, so each block is one target; all 64 in one block would
        # gather about 130 MB
        S = half_grid_matrix("analytic", 64, 1024)
        block = max(signals.BLOCK_VALUES, (S.n - 2) * (S.grid.size // 2 + 1) * 4)
        _clears_screen(S)                       # a per-matrix pass
        tracemalloc.start()
        try:
            for target in range(S.n):
                orthogonal_least_squares(S, target, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the run peaks near 3.6 complex arrays of one block's counted
        # values, 7.3 MB
        assert peak < 8 * 16 * block


class TestOLSSmallSupports:
    """A 1 x 1 support divides where LAPACK would pay a call per system."""

    @pytest.mark.parametrize("name", ["wide", "summed", "scaled"])
    def test_one_by_one_division_is_lapacks_within_two_eps(
            self, name, wide_record, monkeypatch):
        records = {"wide": lambda: wide_record, "scaled": scaled_record,
                   "summed": lambda: digest_records()[2]}
        S = twin(records[name]())
        solves = []
        solve = wiener._support_solve

        def recording(A_SS, A_Sb, c_S):
            solved = solve(A_SS, A_Sb, c_S)
            solves.append(((A_SS, A_Sb, c_S), solved))
            return solved

        monkeypatch.setattr(wiener, "_support_solve", recording)
        for target in range(S.n):
            orthogonal_least_squares(S, target, 2, 0.0)
        ones = [call for call in solves if call[0][0].shape[-1] == 1]
        assert ones
        for (A_SS, A_Sb, c_S), (G, W_S) in ones:
            lapack = np.linalg.solve(
                A_SS, np.concatenate([A_Sb, c_S[..., None]], axis=-1))
            for got, ref in ((G, lapack[..., :-1]), (W_S, lapack[..., -1])):
                assert got.shape == ref.shape
                assert np.all(np.abs(got - ref)
                              <= 2 * np.finfo(float).eps * np.abs(ref))

    def test_budget_two_makes_no_lapack_solve(self, wide_record, monkeypatch):
        S = twin(wide_record)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args, **kwargs: (
            calls.append(np.shape(args[0])) or solve(*args, **kwargs)))
        models = [orthogonal_least_squares(S, target, 2)
                  for target in range(S.n)]
        # every target scored its second step, on a 1 x 1 support
        assert all(model.support for model in models)
        assert any(len(model.support) == 2 for model in models)
        assert calls == []


def assert_mp_matches_loop(S, targets):
    for target in targets:
        for budget in (0, 1, 2, 3, 5):
            for min_gain in (0.0, DEFAULT_MIN_GAIN):
                with collect() as events:
                    model = matching_pursuit(S, target, budget, min_gain)
                with collect() as ref_events:
                    ref = mp_reference(S, target, budget, min_gain)
                assert_same_model(model, ref)
                assert model.raw_cost == ref.raw_cost
                assert list(model.raw_filters) == list(ref.raw_filters)
                for b in ref.raw_filters:
                    assert np.array_equal(model.raw_filters[b].response,
                                          ref.raw_filters[b].response)
                assert events == ref_events


class TestMPMatchesPerCandidateLoop:
    """The array pursuit against the loop that kept one entry per candidate."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_analytic_networks(self, n):
        grid = FrequencyGrid(64)
        for seed in range(20):
            S = analytic_spectra(generate_polytree_aln(n, seed), grid)
            assert_mp_matches_loop(S, range(n))

    def test_hand_built_mixtures(self):
        # equal gains, a useless candidate and a tiny atom
        for S in (white_mixture(), white_mixture(gains=(0.5, 0.5)),
                  white_mixture(gains=(1.0, 0.5, 0.02))):
            assert_mp_matches_loop(S, range(S.n))

    def test_simulated_record(self):
        sim = simulate(generate_polytree_aln(8, 3), 2 ** 12, seed=5)
        S = spectral_matrix(sim.ensemble, WelchConfig(grid_size=64))
        assert_mp_matches_loop(S, range(S.n))


class TestSolverOrdering:
    def test_exhaustive_beats_ols_beats_refit_mp(self):
        for seed in range(5):
            S, target, _ = make_two_sparse_instance(seed, correlated=True)
            exh = sparse_exhaustive(S, target, max_inputs=2)
            ols = orthogonal_least_squares(S, target, max_inputs=2,
                                           min_gain=0.0)
            mp = matching_pursuit(S, target, max_inputs=2, min_gain=0.0)
            assert exh.cost <= ols.cost + 1e-10
            assert ols.cost <= mp.cost + 1e-10
