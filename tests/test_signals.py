import ast
import dataclasses
import json
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import polyscope
from polyscope import (
    ALNSpec,
    CoherenceCurve,
    DirectionMatrix,
    DistanceMatrix,
    Ensemble,
    FrequencyGrid,
    InsufficientDataError,
    InvalidParameterError,
    Link,
    PolyscopeError,
    Polytree,
    SpectralMatrix,
    Spectrum,
    TimeSeries,
    TransferFunction,
    Tree,
    UndirectedGraph,
    WelchConfig,
    analytic_spectra,
    causal_distance,
    causal_distance_matrix,
    causal_wiener,
    coherence_distance,
    coherence_function,
    distance_matrix,
    generate_polytree_aln,
    inner_product,
    matching_pursuit,
    miso_blanket_topology,
    noncausal_wiener,
    orthogonal_least_squares,
    project,
    run_recovery,
    simulate,
    sparse_exhaustive,
    spectral_matrix,
    welch_cross_spectrum,
    windowed_average_distance,
)
from polyscope import aln, signals
from polyscope.diagnostics import collect

from oracles import (
    cross_spectra_reference,
    csd_reference,
    random_psd_matrix,
    source_transfers_reference,
    welch_gather_reference,
    welch_reference,
)

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


@pytest.mark.parametrize("bad", [1.0, 1.5, True, False])
@pytest.mark.parametrize("call", INDEXED.values(), ids=INDEXED.keys())
def test_series_index_is_an_integer(call, bad):
    S = random_psd_matrix(np.random.default_rng(0), 3, FrequencyGrid(16))
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"series index must be an integer, "
                                       f"not {bad!r}")):
        call(S, bad)
    call(S, np.int64(1))


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
    "TransferFunction-support_offset": (
        lambda v: TransferFunction(FrequencyGrid(16), np.ones(16), [1.0], v), 1),
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
        assert np.array_equal(full[:, :9], half)
        assert np.array_equal(full[:, 9:], np.conj(full[:, 7:0:-1]))
        assert np.array_equal(grid.mirror(full[:, grid.half]), full)
        real = grid.mirror(half.real)
        assert real.dtype == float
        assert np.array_equal(real, full.real)

    def test_mirror_of_rfft_is_the_shifted_fft(self):
        grid = FrequencyGrid(32)
        x = np.random.default_rng(6).standard_normal(32)
        bins = np.fft.rfft(x)
        # bin j is omega = 2*pi*j/32: the half grid runs bin 16 (-pi), the
        # conjugates of bins 15 ... 1, then bin 0
        half = np.concatenate([bins[16:], np.conj(bins[15:0:-1]), bins[:1]])
        np.testing.assert_allclose(grid.mirror(half),
                                   np.fft.fftshift(np.fft.fft(x)),
                                   rtol=0, atol=1e-12)

    @given(st.sampled_from([8, 64, 1024]), st.data())
    def test_half_to_time_is_the_real_inverse_dft_of_the_mirror(self, size, data):
        # any complex half, imaginary parts at -pi and 0 included: the real
        # part of the inverse DFT ignores them too
        grid = FrequencyGrid(size)
        parts = data.draw(arrays(float, (2, 2, size // 2 + 1),
                                 elements=st.floats(-1e3, 1e3)))
        half = parts[0] + 1j * parts[1]
        ref = grid.to_time(grid.mirror(half)).real
        np.testing.assert_allclose(grid.half_to_time(half), ref, rtol=0,
                                   atol=1e-12 * max(np.max(np.abs(half)), 1.0))

    @given(st.integers(4, 512), st.booleans(), st.data())
    def test_half_mean_is_the_grid_mean_of_the_mirror(self, m, complex_, data):
        grid = FrequencyGrid(2 * m)
        lead = data.draw(st.lists(st.integers(1, 3), max_size=2))
        parts = data.draw(arrays(float, (2, *lead, m + 1),
                                 elements=st.floats(-1e3, 1e3)))
        half = parts[0] + 1j * parts[1] if complex_ else parts[0]
        assert grid.half_mean(half).tobytes() == \
            grid.integrate(grid.mirror(half)).tobytes()

    @given(st.sampled_from([8, 64, 1024]), st.data())
    def test_half_from_time_is_the_dft_at_the_half_points(self, size, data):
        grid = FrequencyGrid(size)
        seq = data.draw(arrays(float, (2, size), elements=st.floats(-1e3, 1e3)))
        half = grid.half_from_time(seq)
        assert half.shape == (2, size // 2 + 1)
        scale = max(np.sum(np.abs(seq), axis=-1).max(), 1.0)
        np.testing.assert_allclose(half, grid.from_time(seq)[..., grid.half],
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(grid.half_to_time(half), seq, rtol=0,
                                   atol=1e-12 * scale)

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

    #: Every holder of one value per grid point, given ``values``.
    ON_GRID = {
        "Spectrum": lambda grid, values: Spectrum(grid, values),
        "CoherenceCurve": lambda grid, values: CoherenceCurve(grid, values),
        "TransferFunction": lambda grid, values: TransferFunction(grid, values),
        "taps_from_response": lambda grid, values: grid.taps_from_response(values),
    }

    @pytest.mark.parametrize("shape", [(15,), (17,), (1, 16), ()])
    @pytest.mark.parametrize("make", ON_GRID.values(), ids=ON_GRID.keys())
    def test_one_value_per_grid_point(self, make, shape):
        grid = FrequencyGrid(16)
        with pytest.raises(InvalidParameterError,
                           match=r"must be an array of shape \(16,\), not shape \("):
            make(grid, np.full(shape, 0.5))
        make(grid, np.full(16, 0.5))

    def test_taps_from_response_flags_a_complex_impulse(self):
        grid = FrequencyGrid(16)
        with collect() as events:
            taps, _ = grid.taps_from_response(1j * np.ones(16))
        assert [e.category for e in events] == ["non-real-impulse"]
        assert np.all(taps == 0.0)
        with collect() as events:
            grid.taps_from_response(grid.response_from_taps([1.0, 0.5], -1))
        assert events == []

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

    @pytest.mark.parametrize("demean", [True, False])
    def test_ensemble_holds_one_read_only_array(self, demean):
        rng = np.random.default_rng(4)
        columns = rng.standard_normal((4099, 3)) + 2.5    # strided columns
        series = [TimeSeries(f"s{i}", columns[:, i]) for i in range(3)]
        ens = Ensemble(series, demean=demean)
        values = ens.values()
        assert ens.values() is values
        assert values.flags.c_contiguous and not values.flags.writeable
        for i, s in enumerate(series):
            expected = s.samples - s.samples.mean() if demean else s.samples
            assert values[i].tobytes() == expected.tobytes()
            assert np.shares_memory(ens.series[i].samples, values)
            with pytest.raises(ValueError):
                ens.series[i].samples[0] = 0.0
        with pytest.raises(ValueError):
            values[0, 0] = 0.0

    def test_ensemble_checks_each_series_once(self, monkeypatch):
        calls = []
        check = TimeSeries.__post_init__
        monkeypatch.setattr(TimeSeries, "__post_init__",
                            lambda series: calls.append(series) or check(series))
        rng = np.random.default_rng(5)
        ens = Ensemble([TimeSeries(f"s{i}", x)
                        for i, x in enumerate(rng.standard_normal((6, 512)))])
        assert len(calls) == 6
        assert ens.labels == [f"s{i}" for i in range(6)]
        assert (ens.n, ens.length) == (6, 512)
        assert all(type(s) is TimeSeries and s.label == label
                   for s, label in zip(ens.series, ens.labels))

    # the first overflows as it is demeaned, the second as its mean is taken
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_ensemble_rejects_a_series_its_demeaning_overflows(self, sign):
        big = TimeSeries("big", np.array([1.7e308, sign * 1.7e308, sign * 1.7e308]))
        with pytest.raises(InvalidParameterError,
                           match="^series 'big' must hold finite numbers$"):
            Ensemble([TimeSeries("a", np.ones(3)), big])
        Ensemble([TimeSeries("a", np.ones(3)), big], demean=False)

    def test_ensemble_rejects_mismatches(self):
        a = TimeSeries("a", np.zeros(4))
        with pytest.raises(InvalidParameterError):
            Ensemble([a])
        with pytest.raises(InvalidParameterError):
            Ensemble([a, TimeSeries("b", np.zeros(5))])
        with pytest.raises(InvalidParameterError):
            Ensemble([a, TimeSeries("a", np.ones(4))])


_G16 = FrequencyGrid(16)
_LINK = Link(0, 1, [1.0])

#: Every container that reads a caller array: the call, the field its
#: messages name, the field type, a value it accepts and its shape rule
#: (``(None,)`` a non-empty vector; None is ``SpectralMatrix``'s own rule).
CALLER_ARRAYS = {
    "TimeSeries": (lambda v: TimeSeries("x", v), "series 'x'", float,
                   np.ones(4), (None,)),
    "Spectrum": (lambda v: Spectrum(_G16, v), "spectrum", complex,
                 np.ones(16), (16,)),
    "CoherenceCurve": (lambda v: CoherenceCurve(_G16, v), "coherence", float,
                       np.full(16, 0.5), (16,)),
    "TransferFunction-response": (lambda v: TransferFunction(_G16, v),
                                  "response", complex, np.ones(16), (16,)),
    "TransferFunction-impulse": (
        lambda v: TransferFunction(_G16, np.ones(16), v), "impulse", float,
        np.ones(2), (None,)),
    "taps_from_response": (lambda v: _G16.taps_from_response(v), "response",
                           complex, np.ones(16), (16,)),
    "response_from_taps": (lambda v: _G16.response_from_taps(v), "taps",
                           float, np.ones(2), (None,)),
    "Link": (lambda v: Link(0, 1, v), "link taps", float, np.ones(2), (None,)),
    "noise_shaping": (
        lambda v: ALNSpec(["a", "b"], [_LINK], np.ones(2),
                          noise_shaping=[None, v]),
        "noise shaping of 'b'", float, np.ones(2), (None,)),
    "noise_variances": (lambda v: ALNSpec(["a", "b"], [_LINK], v),
                        "noise variances", float, np.ones(2), (2,)),
    "DistanceMatrix": (lambda v: DistanceMatrix(["a", "b"], v, "causal"),
                       "distance matrix", float,
                       np.array([[0.0, 1.0], [2.0, 0.0]]), (2, 2)),
    "DirectionMatrix-values": (
        lambda v: DirectionMatrix(["a", "b"], v, np.zeros((2, 2), bool)),
        "direction matrix", int, np.array([[0, 1], [-1, 0]]), (2, 2)),
    "DirectionMatrix-ties": (
        lambda v: DirectionMatrix(["a", "b"], [[0, 1], [-1, 0]], v),
        "direction ties", bool, np.array([[False, True], [True, False]]),
        (2, 2)),
    "SpectralMatrix": (lambda v: SpectralMatrix(["a"], _G16, v),
                       "spectral matrix", complex, np.ones((1, 1, 16)), None),
    # a graph's weights, one per edge, are read as one vector
    "Tree-weights": (lambda v: Tree(["a", "b", "c"],
                                    dict(zip([(0, 1), (2, 1)], v))),
                     "edge weights", float, np.array([0.5, 1.5]), (2,)),
    "Polytree-weights": (lambda v: Polytree(["a", "b", "c"],
                                            dict(zip([(1, 0), (1, 2)], v))),
                         "edge weights", float, np.array([0.5, 1.5]), (2,)),
}

#: A dtype whose cast into each field type would change values, where the
#: platform has one.
_WIDE_DTYPES = {int: np.uint64, float: np.longdouble, complex: np.clongdouble}

#: The non-finite values each real and complex field refuses.
_REAL_NON_FINITE = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf}
_NON_FINITE = {float: _REAL_NON_FINITE,
               complex: {**_REAL_NON_FINITE, "imaginary-nan": complex(0, np.nan)}}

#: What a field of each type holds, as the messages say it.
FIELD_WORDS = {float: "real numbers", complex: "complex numbers",
               int: "integers", bool: "booleans"}


def _malformed_arrays():
    """``(reader, case, value, message)`` for each malformed input a
    reader must refuse."""
    for reader, (_, field, dtype, valid, shape) in CALLER_ARRAYS.items():
        def kind(case, value, found):
            return (reader, case, value,
                    f"{field} must hold {FIELD_WORDS[dtype]}, not {found}")
        yield kind("ragged", [valid.tolist(), [1]], "ragged sequences")
        yield kind("non-numeric", np.full(valid.shape, "x"), "text")
        yield kind("numeric-string", valid.astype(str), "text")
        yield kind("none", np.full(valid.shape, None), "objects")
        if dtype is not complex:
            yield kind("complex-into-real", valid + 0.5j, "complex numbers")
        if dtype in (int, bool):
            yield kind("fraction-into-integer", valid + 0.5, "real numbers")
        if dtype is bool:
            yield kind("int-into-bool", valid.astype(int), "integers")
        wide = _WIDE_DTYPES.get(dtype)
        if wide is not None and not np.can_cast(wide, dtype):
            yield kind("wide-dtype", valid.astype(wide), np.dtype(wide).name)
        for case, value in _NON_FINITE.get(dtype, {}).items():
            entry = valid.astype(dtype)           # a copy
            entry.flat[1] = value
            yield (reader, f"non-finite-{case}", entry,
                   f"{field} must hold finite numbers")
        wrong = np.stack([valid, valid])
        if shape == (None,):
            yield (reader, "empty-vector", np.array([], dtype=valid.dtype),
                   f"{field} must be a non-empty vector, not shape (0,)")
            yield (reader, "wrong-shape", wrong,
                   f"{field} must be a non-empty vector, not shape "
                   f"{wrong.shape}")
        elif shape is not None:
            yield (reader, "wrong-shape", wrong,
                   f"{field} must be an array of shape {shape}, not shape "
                   f"{wrong.shape}")


MALFORMED = list(_malformed_arrays())

_S3 = random_psd_matrix(np.random.default_rng(0), 3, _G16)

#: Every real scalar parameter read as a 0-d array, and a value it accepts.
CALLER_SCALARS = {
    "overlap": (lambda v: WelchConfig(grid_size=16, overlap=v), 0.5),
    "min_gain": (lambda v: orthogonal_least_squares(_S3, 0, 1, min_gain=v),
                 0.1),
    "threshold": (lambda v: miso_blanket_topology(
        _S3, DistanceMatrix(_S3.labels, 1.0 - np.eye(3), "noncausal"),
        threshold=v), 0.5),
}

_SCALAR_CASES = [
    ("numeric-string", "0.5", "must hold real numbers, not text"),
    ("complex", 0.5j, "must hold real numbers, not complex numbers"),
    ("object", object(), "must hold real numbers, not objects"),
    ("ragged", [[0.5], [0.5, 0.5]],
     "must hold real numbers, not ragged sequences"),
    ("wrong-shape", [0.5], "must be an array of shape (), not shape (1,)"),
    ("nan", np.nan, "must hold finite numbers"),
    ("inf", np.inf, "must hold finite numbers"),
]

def _spec_json(**fields) -> str:
    """A valid spec's JSON with ``fields`` replaced."""
    return json.dumps({"labels": ["a", "b"], "noise_variances": [1, 1],
                       "links": [{"source": 0, "target": 1, "taps": [1]}],
                       **fields})


#: ``ALNSpec`` sequence fields, the arrays of a spec's JSON and the labels
#: or nodes of every container, each malformed, with the message that names
#: the field.
SPEC_CASES = {
    "labels-string": (lambda: ALNSpec("ab", [_LINK], np.ones(2)),
                      "labels must be a sequence, not str"),
    "links-int": (lambda: ALNSpec(["a", "b"], 5, np.ones(2)),
                  "links must be a sequence, not int"),
    "shaping-int": (lambda: ALNSpec(["a", "b"], [_LINK], np.ones(2),
                                    noise_shaping=5),
                    "noise shaping must be a sequence, not int"),
    "link-not-a-Link": (lambda: ALNSpec(["a", "b"], [(0, 1)], np.ones(2)),
                        "links must be Link objects, not tuple"),
    "json-labels-string": (
        lambda: ALNSpec.from_json(_spec_json(labels="ab")),
        "labels must be a sequence, not str"),
    "json-links-int": (lambda: ALNSpec.from_json(_spec_json(links=5)),
                       "links must be a sequence, not int"),
    "json-variances-text": (
        lambda: ALNSpec.from_json(_spec_json(noise_variances=["1", "1"])),
        "noise variances must hold real numbers, not text"),
    "json-taps-ragged": (
        lambda: ALNSpec.from_json(_spec_json(
            links=[{"source": 0, "target": 1, "taps": [[1], [1, 2]]}])),
        "link taps must hold real numbers, not ragged sequences"),
    "json-shaping-text": (
        lambda: ALNSpec.from_json(_spec_json(noise_shaping=[None, ["x"]])),
        "noise shaping of 'b' must hold real numbers, not text"),
    "SpectralMatrix-labels-string": (
        lambda: SpectralMatrix("ab", _G16, np.ones((2, 2, 16))),
        "labels must be a sequence, not str"),
    "SpectralMatrix-labels-int": (
        lambda: SpectralMatrix(2, _G16, np.ones((2, 2, 16))),
        "labels must be a sequence, not int"),
    "DistanceMatrix-labels-string": (
        lambda: DistanceMatrix("ab", 1.0 - np.eye(2), "noncausal"),
        "labels must be a sequence, not str"),
    "DistanceMatrix-labels-int": (
        lambda: DistanceMatrix(2, 1.0 - np.eye(2), "noncausal"),
        "labels must be a sequence, not int"),
    "DirectionMatrix-labels-string": (
        lambda: DirectionMatrix("ab", np.zeros((2, 2), int),
                                np.zeros((2, 2), bool)),
        "labels must be a sequence, not str"),
    "UndirectedGraph-nodes-string": (
        lambda: UndirectedGraph("ab", {(0, 1): 1.0}),
        "nodes must be a sequence, not str"),
    "Tree-nodes-string": (lambda: Tree("ab", {(0, 1): 1.0}),
                          "nodes must be a sequence, not str"),
    "Polytree-nodes-string": (lambda: Polytree("ab", {(0, 1): 1.0}),
                              "nodes must be a sequence, not str"),
}


class TestCallerArrays:
    """One rule, ``signals._array``, for every array a caller hands in:
    ragged, non-numeric, textual, complex-into-real, fractional, too wide
    and non-finite input and wrong shapes raise
    :class:`InvalidParameterError` naming the field."""

    @pytest.mark.parametrize(
        "reader, value, message", [(r, v, m) for r, _, v, m in MALFORMED],
        ids=[f"{r}-{c}" for r, c, _, _ in MALFORMED])
    def test_malformed_array_is_refused(self, reader, value, message):
        make, _, _, valid, _ = CALLER_ARRAYS[reader]
        with pytest.raises(InvalidParameterError,
                           match=f"^{re.escape(message)}$"):
            make(value)
        make(valid)

    @pytest.mark.parametrize("case, value, message", _SCALAR_CASES,
                             ids=[c for c, _, _ in _SCALAR_CASES])
    @pytest.mark.parametrize("name", CALLER_SCALARS)
    def test_malformed_scalar_is_refused(self, name, case, value, message):
        make, valid = CALLER_SCALARS[name]
        with pytest.raises(InvalidParameterError,
                           match=f"^{re.escape(f'{name} {message}')}$"):
            make(value)
        make(valid)

    @pytest.mark.parametrize("make, message", SPEC_CASES.values(),
                             ids=SPEC_CASES.keys())
    def test_malformed_spec_field_is_refused(self, make, message):
        with pytest.raises(InvalidParameterError,
                           match=f"^{re.escape(message)}$"):
            make()

    def test_a_well_formed_array_is_held_uncopied(self):
        x = np.ones(8)
        assert TimeSeries("x", x).samples is x
        v = np.ones(16, dtype=complex)
        assert Spectrum(_G16, v).values is v


def test_one_finite_rule_in_the_library():
    # NaN and inf are refused by ``signals._array`` alone: no other code in
    # the library tests for them
    banned = {"isfinite", "isnan", "isinf"}
    found = []
    for path in sorted(Path(polyscope.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = set()
        if path.stem == "signals":
            rule = next(node for node in tree.body if isinstance(
                node, ast.FunctionDef) and node.name == "_array")
            owner = {id(node) for node in ast.walk(rule)}
        for node in ast.walk(tree):
            if id(node) in owner:
                continue
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            found += [(path.stem, node.lineno, name) for name in names & banned]
    assert found == []


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


def conjugate_even_base(grid: FrequencyGrid, scale: float) -> np.ndarray:
    """Values of three series, exactly Hermitian and conjugate-even: auto-
    spectra ``scale``, pair ``(0, 1)`` the constant ``(0.3 - 0.4j) * scale``
    off ``omega = -pi`` and ``0`` and ``0.3 * scale`` on them, pair ``(0, 2)``
    zero."""
    half = np.zeros((3, 3, grid.size // 2 + 1), dtype=complex)
    half[[0, 1, 2], [0, 1, 2]] = scale
    half[0, 1] = (0.3 - 0.4j) * scale
    half[0, 1, [0, -1]] = 0.3 * scale
    half[1, 0] = np.conj(half[0, 1])
    return grid.mirror(half)


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
        with pytest.raises(InvalidParameterError,
                           match="^spectral matrix must hold finite numbers$"):
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

    def test_immutable(self):
        _, S = self._matrix()
        with pytest.raises(ValueError):
            S.values[0, 1, 0] = 0.0
        with pytest.raises(ValueError):
            S.values *= 2.0
        with pytest.raises(ValueError):
            S.half[0, 1, 0] = 0.0
        assert S.labels == ("s0", "s1", "s2")
        with pytest.raises(TypeError):
            S.labels[0] = "other"
        for name, value in (("values", S.values.copy()), ("half", S.half.copy()),
                            ("labels", ["a"] * 3), ("grid", FrequencyGrid(64))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(S, name, value)

    def test_equality_is_identity(self):
        # a matrix, a spectrum and a coherence curve equal only themselves;
        # the frozen matrix hashes
        grid = FrequencyGrid(64)
        S = analytic_spectra(generate_polytree_aln(4, 1), grid)
        copy = SpectralMatrix(S.labels, grid, S.values)
        assert S == S and S != copy
        assert hash(S) == hash(S) and len({S, copy, S}) == 2
        spectrum = Spectrum(grid, S.values[0, 1])
        assert spectrum == spectrum and spectrum != Spectrum(grid, S.values[0, 1])
        curve = coherence_function(S, 0, 1)
        assert curve == curve and curve != CoherenceCurve(grid, curve.values)

    def test_no_solver_mirrors_the_whole_grid(self):
        cfg = WelchConfig(grid_size=64)
        grid = FrequencyGrid(cfg.grid_size)
        spec = generate_polytree_aln(8, 3)
        rng = np.random.default_rng(3)
        welch = spectral_matrix(Ensemble([TimeSeries(f"s{i}", x) for i, x in
                                          enumerate(rng.standard_normal((5, 2048)))]),
                                cfg)
        for S in (analytic_spectra(spec, grid), welch):
            D = distance_matrix(S)
            causal_distance_matrix(S)
            miso_blanket_topology(S, D)
            for target in range(S.n):
                orthogonal_least_squares(S, target, 3)
                matching_pursuit(S, target, 3)
            if S is not welch:
                for pipeline in ("mst-coherence", "polytree-causal", "miso-blanket"):
                    run_recovery(spec, "analytic", pipeline, cfg=cfg)
                assert analytic_spectra(spec, grid) is S
            assert "values" not in vars(S)
            assert not S.half.flags.writeable and S.half.flags.c_contiguous
            assert S.half.shape == (S.n, S.n, grid.size // 2 + 1)

    def test_every_producer_stores_an_exact_hermitian_matrix(self):
        grid = FrequencyGrid(64)
        matrices = [analytic_spectra(generate_polytree_aln(n, seed), grid)
                    for n, seed in [(4, 0), (7, 1), (12, 2)]]
        matrices.append(self._matrix(n=5)[1])
        for S in matrices:
            d = np.arange(S.n)
            assert np.array_equal(S.values, np.conj(S.values.transpose(1, 0, 2)))
            assert np.all(S.values[d, d].imag == 0.0)

    def test_every_producer_stores_an_exact_conjugate_even_matrix(self):
        for size in (16, 64, 256):
            grid = FrequencyGrid(size)
            matrices = [analytic_spectra(generate_polytree_aln(n, seed), grid)
                        for n, seed in [(4, 0), (7, 1), (12, 2)]]
            rng = np.random.default_rng(size)
            ens = Ensemble([TimeSeries(f"s{i}", x)
                            for i, x in enumerate(rng.standard_normal((5, 4096)))])
            for seg in (None, size // 2):
                matrices.append(spectral_matrix(
                    ens, WelchConfig(grid_size=size, segment_length=seg)))
            m = size // 2
            for S in matrices:
                assert np.array_equal(S.values[..., m + 1:],
                                      np.conj(S.values[..., m - 1:0:-1]))
                assert np.all(S.values[..., [0, m]].imag == 0.0)

    def test_welch_matrices_keep_their_bits(self):
        # the rfft kernel is already conjugate-even and real at -pi and 0,
        # signed zeros included: the constructor changes no upper entry
        rng = np.random.default_rng(8)
        values = rng.standard_normal((6, 8192))
        for size, seg in [(64, None), (256, None), (256, 200)]:
            cfg = WelchConfig(grid_size=size, segment_length=seg)
            raw = signals._welch_matrix(values, cfg)
            assert raw.shape == (6, 6, size // 2 + 1)
            S = SpectralMatrix([f"s{i}" for i in range(6)], FrequencyGrid(size), raw)
            half = S.values[..., :size // 2 + 1]
            upper = np.triu_indices(6, 1)
            assert half[upper].tobytes() == raw[upper].tobytes()
            d = np.arange(6)
            assert half[d, d].real.tobytes() == raw[d, d].real.tobytes()

    def test_analytic_matrices_move_by_rounding_only(self):
        # the full-grid product computes point K - k apart from point k
        for size in (64, 256):
            grid = FrequencyGrid(size)
            for n, seed in [(4, 0), (9, 3), (16, 5)]:
                spec = generate_polytree_aln(n, seed)
                full = cross_spectra_reference(
                    source_transfers_reference(spec, grid),
                    aln._noise_spectra(spec, grid))
                S = analytic_spectra(spec, grid)
                assert np.max(np.abs(S.values - full)) \
                    <= 8 * np.finfo(float).eps * np.max(np.abs(full))

    @pytest.mark.parametrize("scale", [1.0, 3.7e4])
    def test_frequency_symmetry_boundary_matches_allclose(self, scale):
        grid = FrequencyGrid(8)
        base = conjugate_even_base(grid, scale)
        tol = 1e-9 * scale
        factors = [0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6, 2.0]
        cases = []
        for f in factors:
            for direction in (1.0, -1.0, 1j, (1 + 1j) / np.sqrt(2)):
                # (0, 2) is zero, so its differences are exactly f * tol
                for entry in ((0, 1, 3), (1, 0, 5), (0, 2, 6)):
                    cases.append((entry, f * tol * direction))
            # omega = -pi and 0 differ from their conjugates by twice the
            # imaginary part
            for point in (0, 4):
                cases.append(((0, 2, point), 0.5j * f * tol))
                cases.append(((0, 1, point), np.nextafter(0.5 * f * tol, 0.0) * 1j))
        verdicts = set()
        d = np.arange(3)
        for (i, j, k), delta in cases:
            values = base.copy()
            values[i, j, k] += delta
            values[j, i, k] += np.conj(delta)      # still exactly Hermitian
            ref_scale = np.max(np.abs(values)) or 1.0
            twins = values[..., -np.arange(grid.size)]    # omega -> -omega
            accepted = np.allclose(twins, np.conj(values),
                                   atol=1e-9 * ref_scale, rtol=0)
            verdicts.add(accepted)
            # half-grid values are conjugate-even by construction: of this
            # rule only their end points are checked, with the same verdict
            inputs = [values] + ([values[..., grid.half]] if k in (0, 4) else [])
            if accepted:
                S, *from_half = [SpectralMatrix(["a", "b", "c"], grid, given_values)
                                 for given_values in inputs]
                assert np.array_equal(S.values[..., 5:], np.conj(S.values[..., 3:0:-1]))
                assert np.all(S.values[..., [0, 4]].imag == 0.0)
                for T in from_half:
                    assert np.array_equal(T.values, S.values)
                # the stored half is the whole grid's first K/2 + 1 points,
                # and the mirror leaves no -0.0 on the diagonal
                for T in [S, *from_half]:
                    assert T.half.tobytes() == T.values[..., grid.half].tobytes()
                    assert not np.any(np.signbit(T.values[d, d].imag))
            else:
                for given_values in inputs:
                    with pytest.raises(InvalidParameterError,
                                       match="not conjugate-even in frequency"):
                        SpectralMatrix(["a", "b", "c"], grid, given_values)
        assert verdicts == {True, False}

    def test_half_grid_input_equals_its_mirror_bit_for_bit(self):
        # near-Hermitian values with imaginary parts at -pi and 0, all
        # within the tolerance: the same matrix from the half as from its
        # mirror, and a half-grid shape only of K/2 + 1 points
        grid = FrequencyGrid(16)
        rng = np.random.default_rng(17)
        half = rng.standard_normal((4, 4, 9)) + 1j * rng.standard_normal((4, 4, 9))
        half = half + np.conj(half.transpose(1, 0, 2))
        half[..., [0, 8]] = half[..., [0, 8]].real
        half += 1e-11 * (rng.standard_normal(half.shape)
                         + 1j * rng.standard_normal(half.shape))
        labels = list("abcd")
        S = SpectralMatrix(labels, grid, half)
        assert S.values.shape == (4, 4, 16)
        full = SpectralMatrix(labels, grid, grid.mirror(half))
        assert S.values.tobytes() == full.values.tobytes()
        for T in (S, full):
            assert T.half.tobytes() == T.values[..., grid.half].tobytes()
            assert not np.any(np.signbit(T.values[np.arange(4), np.arange(4)].imag))
        for size in (8, 10, 17):
            with pytest.raises(InvalidParameterError, match="does not match"):
                SpectralMatrix(labels, grid, np.ones((4, 4, size)))

    def test_stores_the_half_grid_and_its_mirror(self):
        # within the tolerance, point K - k is rebuilt from point k and the
        # imaginary parts at -pi and 0 are dropped
        grid = FrequencyGrid(8)
        values = conjugate_even_base(grid, 1.0)
        values[0, 1, 6] += 4e-10
        values[1, 0, 6] += 4e-10
        values[0, 1, 4] += 3e-10j
        values[1, 0, 4] -= 3e-10j
        S = SpectralMatrix(["a", "b", "c"], grid, values)
        assert np.array_equal(S.values, conjugate_even_base(grid, 1.0))

    @pytest.mark.parametrize("scale", [1.0, 3.7e4])
    def test_tolerance_boundary_matches_allclose(self, scale):
        grid = FrequencyGrid(8)
        base = conjugate_even_base(grid, scale)
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
        half = np.zeros((3, 3, 5), dtype=complex)
        half[0, 0] = [2.0] * 2 + [1e-3] * 3
        half[1, 1, :2] = 1.0              # most of the grid below the floor
        half[2, 2, :2] = 0.5              # floored where 'b' is
        values = grid.mirror(half)
        for name, first_use in FIRST_FLOOR_USES.items():
            with collect() as events:
                S = SpectralMatrix(["a", "b", "c"], grid, values)
                first_use(S)
            with collect() as later:
                floored = [S.floored_autospectrum(i) for i in range(3)]
                S.floored_autospectrum(1)
                S._floored_stack
            floor = [
                ("spectral-floor", "auto-spectrum of 'b' floored at 2.000e-12"),
                ("spectral-floor", "auto-spectrum of 'c' floored at 2.000e-12")]
            assert [(e.category, e.message) for e in events] == floor, name
            # a later collector records them once, whatever its reads
            assert [(e.category, e.message) for e in later] == floor, name
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

    @staticmethod
    def _half_by_separate_gathers(v, n, m):
        """The stored half as built when the Hermitian check and the
        rebuild gathered the triangle each on their own."""
        rows, cols = np.tril_indices(n)
        half = v[..., :m + 1].copy()
        half.imag[..., [0, m]] *= 0.0
        half[rows, cols] = np.conj(half[cols, rows])
        half.imag[np.arange(n), np.arange(n)] = 0.0
        return half

    def test_half_keeps_its_bytes(self):
        # raw Welch and analytic cross spectra, whose lower triangles and
        # end points carry rounding, and a perturbation inside the tolerance
        # that leaves zeros and tiny values of either sign at -pi and 0
        ens, _ = self._matrix(n=4)
        cfg = WelchConfig(grid_size=64)
        welch = signals._welch_matrix(ens.values(), cfg)
        grid = FrequencyGrid(64)
        spec = generate_polytree_aln(6, seed=3)
        H = aln._source_transfers(spec, grid)
        analytic = aln._cross_spectra(
            H, aln._noise_spectra(spec, grid)[:, grid.half])
        rng = np.random.default_rng(8)
        tiny = 1e-13 * np.max(np.abs(welch))
        nudged = welch + tiny * (rng.standard_normal(welch.shape)
                                 + 1j * rng.standard_normal(welch.shape))
        nudged.imag[..., [0, -1]] = rng.choice([-tiny, -0.0, 0.0, tiny],
                                               nudged.shape[:2] + (2,))
        m = grid.size // 2
        for raw in (welch, analytic, nudged):
            n = raw.shape[0]
            for values in (raw, grid.mirror(raw)):
                S = SpectralMatrix([f"s{i}" for i in range(n)], grid, values)
                assert S.half.tobytes() == \
                    self._half_by_separate_gathers(values, n, m).tobytes()

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


def _floored_welch() -> SpectralMatrix:
    """Three Welch series at K 64, the third scaled by 1e-9: its
    auto-spectrum needs the floor."""
    samples = np.random.default_rng(12).standard_normal((3, 2048))
    samples[2] *= 1e-9
    return spectral_matrix(Ensemble([TimeSeries(label, row) for label, row
                                     in zip("abc", samples)]),
                           WelchConfig(grid_size=64))


def _floored_analytic() -> SpectralMatrix:
    """A network whose zero at ``omega = -pi`` floors ``b``, on a build of
    its own."""
    spec = ALNSpec(["a", "b", "c"],
                   [Link(0, 1, [1.0, 1.0]), Link(1, 2, [1.0, 0.5])],
                   [1.0, 0.0, 1.0])
    return analytic_spectra(spec, FrequencyGrid(64))


#: Every reader of a matrix's floored auto-spectra, and OLS at budget 0,
#: which reads none.
FLOOR_READERS = {
    **FIRST_FLOOR_USES,
    "distance_matrix": distance_matrix,
    "causal_distance_matrix": causal_distance_matrix,
    "coherence_function": lambda S: coherence_function(S, 0, 2),
    "matching_pursuit": lambda S: matching_pursuit(S, 0, 2),
    "orthogonal_least_squares-0": lambda S: orthogonal_least_squares(S, 0, 0),
    "orthogonal_least_squares-2": lambda S: orthogonal_least_squares(S, 0, 2),
}


def _events_of(reader, S):
    """The events ``reader(S)`` records under a collector of its own, and
    the error it raises, if any."""
    outcome = None
    with collect() as events:
        try:
            reader(S)
        except PolyscopeError as error:
            outcome = (type(error), str(error))
    return [(e.category, e.message) for e in events], outcome


@pytest.mark.parametrize("make", [_floored_welch, _floored_analytic],
                         ids=["welch", "analytic"])
@pytest.mark.parametrize("name", FLOOR_READERS)
def test_a_readers_events_do_not_depend_on_earlier_readers(name, make):
    reader = FLOOR_READERS[name]
    fresh = _events_of(reader, make())
    floors = [event for event in fresh[0] if event[0] == "spectral-floor"]
    assert bool(floors) == (name != "orthogonal_least_squares-0")
    S = make()
    for other in FLOOR_READERS.values():
        _events_of(other, S)
    seen = []
    primer = threading.Thread(target=lambda: seen.append(
        [_events_of(other, S) for other in FLOOR_READERS.values()]))
    second = threading.Thread(target=lambda: seen.append(_events_of(reader, S)))
    for thread in (primer, second):
        thread.start()
        thread.join(timeout=120)
    assert not primer.is_alive() and not second.is_alive()
    assert seen[1] == fresh
    assert _events_of(reader, S) == fresh


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
        # segment DFTs are streamed in chunks and the samples are read in
        # place, so the peak is the same for a record twice as long
        cfg = WelchConfig(grid_size=1024)
        peaks = []
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
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 2e6


class TestWelchWindowView:
    """Each chunk is windowed from a strided view of the record, bit for bit
    the index-array gather it replaced."""

    @pytest.mark.parametrize("segments", [63, 64, 65, 129])
    @pytest.mark.parametrize("segment_length, overlap", [
        (None, 0.3), (None, 0.75), (50, 0.3), (50, 0.75)])
    def test_matches_the_index_gather(self, segment_length, overlap, segments):
        # hops 45, 16, 35 and 12 samples; 35 and 12 divide no segment of 50,
        # which the DFT pads to the grid of 64
        cfg = WelchConfig(grid_size=64, segment_length=segment_length,
                          overlap=overlap)
        # a partial hop at the end fits no further segment
        length = cfg.effective_segment_length + (segments - 1) * cfg.hop \
            + cfg.hop - 1
        assert cfg.segments_available(length) == segments
        rng = np.random.default_rng(segments)
        rows = rng.standard_normal((3, length))
        ens = Ensemble([TimeSeries(f"s{i}", x) for i, x in enumerate(rows)])
        values = ens.values()
        ref = welch_gather_reference(values, cfg)
        assert signals._welch_matrix(values, cfg).tobytes() == ref.tobytes()
        assert spectral_matrix(ens, cfg).half.tobytes() == SpectralMatrix(
            ens.labels, FrequencyGrid(64), ref).half.tobytes()
        # the cross spectrum of one pair is the stacked pair's matrix
        x, y = ens.series[:2]
        pair = welch_gather_reference(values[:2], cfg)[0, 1]
        assert welch_cross_spectrum(x, y, cfg).values.tobytes() == \
            FrequencyGrid(64).mirror(pair).tobytes()


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

