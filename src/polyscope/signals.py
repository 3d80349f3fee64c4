"""Time-series containers and spectral estimation on a shared frequency grid.

All spectral quantities live on a uniform grid of K angular frequencies
``omega_k = -pi + 2*pi*k/K``; frequency-domain integrals are evaluated as
``(1/2pi) * sum(f(omega_k)) * (2pi/K)``, i.e. the plain grid mean.  Cross
power spectra follow the convention ``Phi_xy(omega) = sum_tau E[x(t)
y(t+tau)] exp(-1j*omega*tau)``, which the Welch estimator realises as
``conj(X) * Y`` per windowed segment.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.signal import get_window

from .diagnostics import record
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
)

#: Relative floor applied to auto-spectra before divisions: the floor value is
#: this ratio times the largest diagonal spectral value of the matrix.
PSD_FLOOR_RATIO = 1e-12

#: Segments transformed and accumulated per step of the Welch estimator; it
#: bounds the segment DFTs held at once, whatever the record length.
WELCH_CHUNK_SEGMENTS = 64


def _integer(value, name: str) -> int:
    """``value`` as an int; any integer type passes, anything else raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(
            f"{name} must be an integer, not {value!r}") from None


def _floor(phi: np.ndarray) -> np.ndarray:
    """Real spectra ``phi`` clipped from below at ``PSD_FLOOR_RATIO`` times
    their largest value, or at the smallest normal float when that is not
    positive: the one floor rule, for matrices and for single spectra."""
    floor = PSD_FLOOR_RATIO * max(float(np.max(phi)), 0.0)
    return np.maximum(phi, floor or np.finfo(float).tiny)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of ``size`` angular frequencies on [-pi, pi)."""

    size: int

    def __post_init__(self):
        if _integer(self.size, "grid size") < 8 or self.size % 2 != 0:
            raise InvalidParameterError(
                f"grid size must be even and >= 8, got {self.size}")

    @property
    def omegas(self) -> np.ndarray:
        return -np.pi + 2.0 * np.pi * np.arange(self.size) / self.size

    def integrate(self, values: np.ndarray):
        """``(1/2pi) * sum(values) * (2pi/K)`` — the grid mean along the last
        axis, summed over a C-ordered copy so any layout gives the same bits."""
        return np.mean(np.ascontiguousarray(values), axis=-1)

    def rms(self, values: np.ndarray):
        """Root mean square magnitude along the last axis: ``sqrt`` of the
        grid integral of ``|values|^2``."""
        return np.sqrt(self.integrate(np.abs(values) ** 2))

    def mirror(self, half: np.ndarray) -> np.ndarray:
        """Grid values of a conjugate-even ``f``, ``f(-omega) = conj(f(omega))``,
        from its ``K/2 + 1`` ``rfft`` bins ``omega = 0 ... pi`` on the last axis."""
        half = np.asarray(half)
        m = self.size // 2
        if half.shape[-1] != m + 1:
            raise InvalidParameterError(f"need {m + 1} rfft bins, got {half.shape[-1]}")
        full = np.empty(half.shape[:-1] + (self.size,), dtype=half.dtype)
        full[..., m:] = half[..., :m]
        full[..., 0] = half[..., m]
        full[..., 1:m] = np.conj(half[..., m - 1:0:-1])
        return full

    def to_time(self, values: np.ndarray) -> np.ndarray:
        """Inverse DFT of grid values along the last axis: the sequence at
        times ``0 ... K-1``, where ``t >= K/2`` stands for ``t - K``."""
        return np.fft.ifft(np.fft.ifftshift(values, axes=-1))

    def from_time(self, seq: np.ndarray) -> np.ndarray:
        """Grid values of a sequence at times ``0 ... K-1`` along the last
        axis; the inverse of :meth:`to_time`."""
        return np.fft.fftshift(np.fft.fft(seq), axes=-1)

    def response_from_taps(self, taps: np.ndarray, offset: int = 0) -> np.ndarray:
        """Evaluate ``sum_t a(t) exp(-1j*omega*t)`` on the grid.

        ``taps[u]`` is the coefficient at time ``offset + u``.  Exact for any
        integer support because the grid points are K-th roots of unity.
        """
        taps = np.asarray(taps, dtype=float)
        if taps.ndim != 1:
            raise InvalidParameterError("taps must be one-dimensional")
        if taps.size > self.size:
            raise InvalidParameterError(
                f"{taps.size} taps exceed the grid size {self.size}")
        buf = np.zeros(self.size)
        idx = (_integer(offset, "offset") + np.arange(taps.size)) % self.size
        np.add.at(buf, idx, taps)
        return self.from_time(buf)

    def taps_from_response(self, response: np.ndarray) -> tuple[np.ndarray, int]:
        """Invert :meth:`response_from_taps` onto the centred support.

        Returns ``(taps, offset)`` with ``offset = -K/2``, one real tap per
        grid sample, time running over ``[-K/2, K/2)``.  A warning event is
        recorded when the response is materially non-Hermitian (complex
        impulse response).
        """
        response = np.asarray(response, dtype=complex)
        if response.shape != (self.size,):
            raise InvalidParameterError("response length must match the grid")
        seq = self.to_time(response)
        scale = np.max(np.abs(seq))
        if scale > 0 and np.max(np.abs(seq.imag)) > 1e-8 * scale:
            record("non-real-impulse",
                   "impulse response has a non-negligible imaginary part")
        return np.fft.fftshift(seq.real), -(self.size // 2)


@dataclass
class TimeSeries:
    """A labelled, uniformly sampled, real scalar series."""

    label: str
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise InvalidParameterError(
                f"series {self.label!r} must be a non-empty 1-d array")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidParameterError(
                f"series {self.label!r} contains non-finite samples")

    @property
    def length(self) -> int:
        return self.samples.size


class Ensemble:
    """An aligned collection of series observed over the same time span.

    Each series is mean-subtracted on ingestion (``demean=True``, the
    default) because every estimator downstream assumes zero-mean processes.
    Simulated data that is zero mean by construction may opt out to preserve
    sample-exact identities.
    """

    def __init__(self, series: list[TimeSeries], demean: bool = True):
        if len(series) < 2:
            raise InvalidParameterError("an ensemble needs at least 2 series")
        lengths = {s.length for s in series}
        if len(lengths) != 1:
            raise InvalidParameterError(
                f"series lengths differ: {sorted(lengths)}")
        labels = [s.label for s in series]
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise InvalidParameterError(f"duplicate series labels: {dup}")
        if demean:
            series = [TimeSeries(s.label, s.samples - s.samples.mean())
                      for s in series]
        self.series = list(series)

    @property
    def labels(self) -> list[str]:
        return [s.label for s in self.series]

    @property
    def n(self) -> int:
        return len(self.series)

    @property
    def length(self) -> int:
        return self.series[0].length

    def values(self) -> np.ndarray:
        """Stack the samples into an ``(n, length)`` array."""
        return np.stack([s.samples for s in self.series])


@dataclass
class Spectrum:
    """Complex spectral values on a :class:`FrequencyGrid`."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.size,):
            raise InvalidParameterError(
                "spectrum length does not match its grid")


@dataclass
class SpectralMatrix:
    """Hermitian matrix of cross spectra, ``values[i, j, k] = Phi_{x_i x_j}(omega_k)``.

    Keeps its own C-ordered copy of ``values`` (so any layout sums in one
    order), stored exactly Hermitian: lower triangle the conjugated upper,
    diagonal real.  Rejects non-finite values and any
    ``|v_ij - conj(v_ji)| > 1e-9 * max|v|``.
    """

    labels: list[str]
    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = v = np.array(self.values, dtype=complex, order="C")
        n = len(self.labels)
        if n == 0:
            raise InvalidParameterError("spectral matrix needs at least one series")
        if v.shape != (n, n, self.grid.size):
            raise InvalidParameterError(
                f"spectral matrix shape {v.shape} does not match "
                f"{n} labels on a grid of {self.grid.size}")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("spectral matrix has non-finite values")
        scale = np.max(np.abs(v)) or 1.0
        rows, cols = np.tril_indices(n)    # the upper entries mirror these
        if np.any(np.abs(v[rows, cols] - np.conj(v[cols, rows])) > 1e-9 * scale):
            raise InvalidParameterError("spectral matrix is not Hermitian")
        v[rows, cols] = np.conj(v[cols, rows])
        v.imag[np.arange(n), np.arange(n)] = 0.0

    @property
    def n(self) -> int:
        return len(self.labels)

    def check_index(self, *indices: int) -> None:
        """Raise unless every index names a series of the matrix."""
        for i in indices:
            if not 0 <= i < self.n:
                raise InvalidParameterError(f"index {i} out of range for n={self.n}")

    @cached_property
    def _floored(self) -> np.ndarray:
        """``(n, K)`` read-only real auto-spectra floored by :func:`_floor`;
        every solver reads them.  Computed on first use, it records each
        series that needed the floor once, as a ``spectral-floor`` event."""
        phi = np.real(np.einsum("iik->ik", self.values))
        floored = _floor(phi)
        for i in np.flatnonzero(np.any(floored > phi, axis=1)):
            # a clipped row's smallest value is the floor itself
            record("spectral-floor", f"auto-spectrum of {self.labels[i]!r} "
                                     f"floored at {np.min(floored[i]):.3e}")
        floored.flags.writeable = False
        return floored

    @cached_property
    def _floored_stack(self) -> np.ndarray:
        """``(K, n, n)`` read-only stack of ``values`` per grid point, with
        :attr:`_floored` on its diagonal.

        Computed on first use.  The floor events are :attr:`_floored`'s,
        recorded once whichever of the two is used first.
        """
        A = self.values.transpose(2, 0, 1).copy()
        d = np.arange(self.n)
        A[:, d, d] = self._floored.T
        A.flags.writeable = False
        return A

    @cached_property
    def _eigenvalue_ratio(self) -> float:
        """Least over greatest eigenvalue of the floored matrix, worst grid point.

        The matrix is :attr:`_floored_stack`; ``wiener._clears_screen``
        tests it.  Computed on first use.
        """
        eigs = np.linalg.eigvalsh(self._floored_stack)
        return float(np.min(eigs[:, 0] / eigs[:, -1]))

    def floored_autospectrum(self, i: int) -> np.ndarray:
        """Real auto-spectrum of series ``i``, clipped from below at the floor."""
        self.check_index(i)
        return self._floored[i].copy()


@dataclass
class CoherenceCurve:
    """Magnitude-squared coherence of one pair, clamped into [0, 1]."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise InvalidParameterError(
                "coherence length does not match its grid")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise InvalidParameterError("coherence values outside [0, 1]")


@dataclass(frozen=True)
class WelchConfig:
    """Welch averaging parameters.

    ``segment_length`` defaults to the grid size so every segment DFT lands
    directly on the analysis grid.  ``segment_count`` is the planned number
    of averages: the estimator always uses every full segment the data
    offers and records a diagnostic when fewer than planned fit.
    """

    grid_size: int = 1024
    segment_length: int | None = None
    segment_count: int = 8
    overlap: float = 0.5
    window: str = "hann"
    #: The window's samples, built once from ``window``; read-only.
    window_taps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        FrequencyGrid(self.grid_size)      # raises unless an even integer >= 8
        if self.segment_length is not None:
            _integer(self.segment_length, "segment_length")
        if _integer(self.segment_count, "segment_count") < 1:
            raise InvalidParameterError("segment_count must be >= 1")
        if not 0.0 <= self.overlap < 1.0:
            raise InvalidParameterError("overlap must lie in [0, 1)")
        if self.effective_segment_length > self.grid_size:
            raise InvalidParameterError(
                "segment_length cannot exceed grid_size")
        if self.effective_segment_length < 8:
            raise InvalidParameterError("segment_length must be >= 8")
        try:
            taps = get_window(self.window, self.effective_segment_length,
                              fftbins=True)
        except ValueError as exc:
            raise InvalidParameterError(
                f"cannot build window {self.window!r}: {exc}") from None
        taps.flags.writeable = False
        object.__setattr__(self, "window_taps", taps)

    @property
    def effective_segment_length(self) -> int:
        return self.grid_size if self.segment_length is None else self.segment_length

    @property
    def hop(self) -> int:
        step = int(round(self.effective_segment_length * (1.0 - self.overlap)))
        return max(step, 1)

    def segments_available(self, n_samples: int) -> int:
        if n_samples < self.effective_segment_length:
            return 0
        return (n_samples - self.effective_segment_length) // self.hop + 1


def _welch_matrix(values: np.ndarray, cfg: WelchConfig) -> np.ndarray:
    """Welch cross spectra of every pair of rows of ``values``, ``(n, n, K)``.

    A streamed Gram product: the windowed segments are real-transformed
    (``rfft``) :data:`WELCH_CHUNK_SEGMENTS` at a time, and each chunk adds
    its per-frequency ``X^H X`` to one ``(K/2+1, n, n)`` accumulator, so the
    segment DFTs held at once do not grow with the record.  The negative
    frequencies are :meth:`FrequencyGrid.mirror`'s (real input).  The lower
    triangle and imaginary diagonal keep their rounding: the
    :class:`SpectralMatrix` built from the result overwrites them.

    Raises :class:`InsufficientDataError` when not one segment fits, and
    records a ``welch-segments`` event when fewer segments fit than planned.
    """
    n_samples = values.shape[-1]
    seg = cfg.effective_segment_length
    available = cfg.segments_available(n_samples)
    if available < 1:
        raise InsufficientDataError(
            f"{n_samples} samples cannot fit one segment of {seg}")
    if available < cfg.segment_count:
        record("welch-segments",
               f"only {available} segments fit, {cfg.segment_count} planned")
    win = cfg.window_taps
    n, k = values.shape[0], cfg.grid_size
    offsets = np.arange(seg)
    gram = np.zeros((k // 2 + 1, n, n), dtype=complex)
    for first in range(0, available, WELCH_CHUNK_SEGMENTS):
        last = min(first + WELCH_CHUNK_SEGMENTS, available)
        starts = np.arange(first, last) * cfg.hop
        segments = values[:, starts[:, None] + offsets] * win    # (n, m, seg)
        # (K/2+1, m, n): one matrix of segment DFTs per frequency
        X = np.fft.rfft(segments, n=k, axis=-1).transpose(2, 1, 0)
        gram += np.conj(X.transpose(0, 2, 1)) @ X
    gram /= available * float(np.sum(win ** 2))
    return FrequencyGrid(k).mirror(gram.transpose(1, 2, 0))


def welch_cross_spectrum(x: TimeSeries, y: TimeSeries, cfg: WelchConfig) -> Spectrum:
    """Welch estimate of the cross power spectrum ``Phi_xy``.

    Segments are windowed by ``cfg.window``, overlapped by ``cfg.overlap``,
    and averaged as ``conj(X_seg) * Y_seg / sum(w**2)``, giving a two-sided
    density whose grid mean approximates the zero-lag cross covariance
    ``E[x(t) y(t)]``.  This is the two-row case of :func:`spectral_matrix`.

    Parameters
    ----------
    x, y : TimeSeries
        Equal-length series; ``x`` is the conjugated side.
    cfg : WelchConfig
        Segmentation and grid parameters.

    Returns
    -------
    Spectrum
        On ``FrequencyGrid(cfg.grid_size)``, ordered from -pi to pi.
    """
    if x.length != y.length:
        raise InvalidParameterError(
            f"length mismatch: {x.label!r} has {x.length}, "
            f"{y.label!r} has {y.length}")
    pairs = _welch_matrix(np.stack([x.samples, y.samples]), cfg)
    return Spectrum(FrequencyGrid(cfg.grid_size), pairs[0, 1])


def spectral_matrix(ens: Ensemble, cfg: WelchConfig) -> SpectralMatrix:
    """Estimate the full matrix of cross spectra for an ensemble.

    One streamed Gram product over chunks of real segment DFTs gives every
    pair at once (see :func:`_welch_matrix`); memory beyond the stacked
    samples does not grow with the record length.  The result is exactly
    Hermitian, as every :class:`SpectralMatrix` is.
    """
    return SpectralMatrix(list(ens.labels), FrequencyGrid(cfg.grid_size),
                          _welch_matrix(ens.values(), cfg))


def coherence_function(S: SpectralMatrix, i: int, j: int) -> CoherenceCurve:
    """Magnitude-squared coherence of the pair ``(i, j)``.

    ``C(omega) = |Phi_ij|^2 / (Phi_ii * Phi_jj)`` with floored auto-spectra,
    clamped into [0, 1].  Estimator overshoot beyond ``1 + 1e-6`` is recorded
    as a diagnostic rather than raised; identical series give exactly 1.
    """
    S.check_index(i, j)
    return CoherenceCurve(S.grid, _coherence_row(S, i, [j])[0])


def _coherence_row(S: SpectralMatrix, i: int, cols) -> np.ndarray:
    """Clamped coherence of series ``i`` with each series in ``cols``.

    ``cols`` is an index array or slice; the result has one row per column
    series.  Overshoot beyond ``1 + 1e-6`` is recorded per pair.
    """
    floored = S._floored
    raw = np.abs(S.values[i, cols]) ** 2 / (floored[i] * floored[cols])
    peaks = np.max(raw, axis=-1)
    over = peaks > 1.0 + 1e-6
    for j, peak in zip(np.arange(S.n)[cols][over], peaks[over]):
        record("coherence-overshoot",
               f"coherence of ({S.labels[i]!r}, {S.labels[j]!r}) "
               f"peaks at {peak:.6f} before clamping")
    return np.clip(raw, 0.0, 1.0)
