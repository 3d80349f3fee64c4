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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window

from .diagnostics import memo, record
from .errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
)

#: Relative floor applied to auto-spectra before divisions: the floor value is
#: this ratio times the largest diagonal spectral value of the matrix.
PSD_FLOOR_RATIO = 1e-12

#: Segments transformed and accumulated per step of the Welch estimator; it
#: bounds the segment DFTs held at once, whatever the record length.
WELCH_CHUNK_SEGMENTS = 64

#: Array values that one block of targets may span in a layer that solves
#: its targets a block at a time (:func:`_blocks`), so that layer's
#: transient memory does not grow with the number of series or the grid.
#: Per target an OLS step counts ``(n-1-q)(K/2+1)(q+1)^2`` normal-equation
#: values, about 40 bytes each at q = 1
#: (:func:`~polyscope.sparse._ols_outcomes`); the causal distances count
#: ``n (K/2+1)`` values, about 48 bytes each
#: (:func:`~polyscope.metric.causal_distance_matrix`); a MISO purge counts
#: ``n^2`` route values, about 12 bytes each
#: (:func:`~polyscope.topology._blanket_edges`).
BLOCK_VALUES = 1 << 16


def _blocks(count: int, values_each: int) -> list[slice]:
    """The consecutive slices of ``range(count)`` that each hold
    ``max(1, BLOCK_VALUES // values_each)`` items, the last one fewer when
    they do not divide ``count``: the one block rule of every layer that
    solves a block of targets, each target counting ``values_each`` array
    values."""
    step = max(1, BLOCK_VALUES // values_each)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _integer(value, name: str) -> int:
    """``value`` as an int; any integer type but ``bool`` passes, anything
    else raises (numpy reads a bool index as a mask)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, not {value!r}")


def _sequence(values, name: str) -> tuple:
    """``values`` as a tuple, once it is an iterable other than a string
    (a string would be split into its characters): the one rule on the
    labels of every container and on the sequence fields of a spec."""
    if not isinstance(values, (str, bytes)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise InvalidParameterError(
        f"{name} must be a sequence, not {type(values).__name__}")


#: What each numpy dtype kind holds, in the words of :func:`_array`'s messages.
_KIND_WORDS = dict(b="booleans", i="integers", u="integers", f="real numbers",
                   c="complex numbers", m="durations", M="dates", O="objects",
                   S="text", U="text", V="records", ragged="ragged sequences")

#: The numpy kinds each field type of :func:`_array` takes.  The last kind
#: names the field's values.
_FIELD_KINDS = {float: "biuf", complex: "biufc", int: "iu", bool: "b"}


def _array(values, dtype, name: str, shape=None) -> np.ndarray:
    """``values`` as an array of ``dtype`` (``float``, ``complex``, ``int``
    or ``bool``): the one rule by which a caller's numbers become an array.

    The conversion is :func:`np.asarray`'s, so an array that already has
    ``dtype`` is returned as it is, not copied.  Input whose cast would
    change a value is refused: a real field takes booleans, integers and
    reals, a complex field complex numbers too, an integer field integers
    only and a boolean field booleans only, and none takes a dtype that
    ``dtype`` cannot hold exactly (``uint64`` into an integer field, a real
    wider than float64, a complex wider than complex128); ragged nesting,
    text, objects and None are refused everywhere.  A real or complex field
    holds finite numbers only: NaN and ±inf are refused.  ``shape`` is None
    for any shape, an exact tuple, or ``(None,)`` for a non-empty vector.
    Every refusal is an :class:`InvalidParameterError` naming the field
    ``name``.
    """
    kinds = _FIELD_KINDS[dtype]
    try:
        found = (array := np.asarray(values)).dtype.kind
    except ValueError:             # numpy's refusal of ragged nesting
        found = "ragged"
    if found in kinds and array.dtype != dtype and not np.can_cast(array.dtype, dtype):
        found = array.dtype.name           # a kind it takes, but too wide
    if found not in kinds:
        raise InvalidParameterError(f"{name} must hold {_KIND_WORDS[kinds[-1]]}, "
                                    f"not {_KIND_WORDS.get(found, found)}")
    if found in "fc" and np.count_nonzero(np.isfinite(array)) != array.size:
        raise InvalidParameterError(f"{name} must hold finite numbers")
    if shape is None or array.shape == shape or (
            shape == (None,) and array.ndim == 1 and array.size):
        return array.astype(dtype, copy=False)
    want = "a non-empty vector" if shape == (None,) else f"an array of shape {shape}"
    raise InvalidParameterError(f"{name} must be {want}, not shape {array.shape}")


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

    def on_grid(self, values, dtype, name: str) -> np.ndarray:
        """``values`` as an array of ``dtype`` by :func:`_array`, once it
        holds one value per grid point: the one length rule for spectra,
        coherence curves and filter responses."""
        return _array(values, dtype, name, (self.size,))

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

    @property
    def half(self) -> slice:
        """The first ``K/2 + 1`` grid points, ``omega = -pi ... 0``: they
        carry every conjugate-even ``f``, which :meth:`mirror` rebuilds."""
        return slice(0, self.size // 2 + 1)

    def mirror(self, half: np.ndarray) -> np.ndarray:
        """Grid values of a conjugate-even ``f``, ``f(-omega) = conj(f(omega))``,
        from its values at the :attr:`half` points on the last axis.

        Those are copied as they are, ``omega = -pi`` and ``0`` included;
        point ``K - k`` is the conjugate of point ``k``.  Real ``f`` is even.
        """
        half = np.asarray(half)
        m = self.size // 2
        if half.shape[-1] != m + 1:
            raise InvalidParameterError(
                f"need {m + 1} half-grid points, got {half.shape[-1]}")
        full = np.empty(half.shape[:-1] + (self.size,), dtype=half.dtype)
        full[..., :m + 1] = half
        np.conjugate(half[..., m - 1:0:-1], out=full[..., m + 1:])
        return full

    def half_mean(self, half: np.ndarray):
        """Grid mean of a conjugate-even ``f`` from its :attr:`half` points on
        the last axis.  Every solver computes ``f`` at those points only and
        takes its means here: the :meth:`mirror` comes first, so the sum runs
        over the whole grid in grid order, bit for bit a full-grid solve's."""
        return self.integrate(self.mirror(half))

    def to_time(self, values: np.ndarray) -> np.ndarray:
        """Inverse DFT of grid values along the last axis: the sequence at
        times ``0 ... K-1``, where ``t >= K/2`` stands for ``t - K``."""
        return np.fft.ifft(np.fft.ifftshift(values, axes=-1))

    def from_time(self, seq: np.ndarray) -> np.ndarray:
        """Grid values of a sequence at times ``0 ... K-1`` along the last
        axis; the inverse of :meth:`to_time`."""
        return np.fft.fftshift(np.fft.fft(seq), axes=-1)

    def half_to_time(self, half: np.ndarray) -> np.ndarray:
        """Real sequence of a conjugate-even ``f`` known at the :attr:`half`
        points on the last axis: ``to_time(mirror(half)).real`` by an
        ``irfft`` of the conjugated, reversed half (its bins are
        ``omega = 0 ... pi``).  Only the real parts at ``-pi`` and ``0``
        count."""
        return np.fft.irfft(np.conj(half[..., ::-1]), n=self.size)

    def half_from_time(self, seq: np.ndarray) -> np.ndarray:
        """Values at the :attr:`half` points of a real sequence at times
        ``0 ... K-1`` on the last axis: ``from_time(seq)[..., half]`` by the
        conjugated, reversed ``rfft``; the inverse of :meth:`half_to_time`."""
        return np.conj(np.fft.rfft(seq)[..., ::-1])

    def response_from_taps(self, taps: np.ndarray, offset: int = 0) -> np.ndarray:
        """Evaluate ``sum_t a(t) exp(-1j*omega*t)`` on the grid.

        ``taps[u]`` is the coefficient at time ``offset + u``.  Exact for any
        integer support because the grid points are K-th roots of unity.
        """
        return self.from_time(self._place_taps([(taps, offset)])[0])

    def _place_taps(self, rows) -> np.ndarray:
        """Time buffer ``(len(rows), K)`` for :meth:`from_time`: for
        ``rows[r] = (taps, offset)``, row ``r`` holds ``taps[u]`` at time
        ``(offset + u) mod K``; each ``taps`` is a non-empty real vector
        (:func:`_array`)."""
        buf = np.zeros((len(rows), self.size))
        for row, (taps, offset) in zip(buf, rows):
            taps = _array(taps, float, "taps", (None,))
            if taps.size > self.size:
                raise InvalidParameterError(
                    f"{taps.size} taps exceed the grid size {self.size}")
            idx = (_integer(offset, "offset") + np.arange(taps.size)) % self.size
            row[idx] += taps
        return buf

    def taps_from_response(self, response: np.ndarray) -> tuple[np.ndarray, int]:
        """Invert :meth:`response_from_taps` onto the centred support.

        ``response`` holds one value per grid point (:meth:`on_grid`).
        Returns ``(taps, offset)`` with ``offset = -K/2``, one real tap per
        grid sample, time running over ``[-K/2, K/2)``.  A warning event is
        recorded when the response is materially non-Hermitian (complex
        impulse response).
        """
        seq = self.to_time(self.on_grid(response, complex, "response"))
        scale = np.max(np.abs(seq))
        if scale > 0 and np.max(np.abs(seq.imag)) > 1e-8 * scale:
            record("non-real-impulse",
                   "impulse response has a non-negligible imaginary part")
        return np.fft.fftshift(seq.real), -(self.size // 2)


@dataclass
class TimeSeries:
    """A labelled, uniformly sampled, real scalar series: ``samples`` is a
    non-empty real vector of finite values (:func:`_array`), the caller's
    own float array when it is one."""

    label: str
    samples: np.ndarray

    def __post_init__(self):
        name = f"series {self.label!r}"
        self.samples = _array(self.samples, float, name, (None,))

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
        samples = np.stack([s.samples for s in series])
        if demean:
            overflow = []
            with np.errstate(over="call", call=lambda *_: overflow.append(1)):
                samples -= samples.mean(axis=1, keepdims=True)
            if overflow:        # it left a row non-finite: TimeSeries names it
                for label, row in zip(labels, samples):
                    TimeSeries(label, row)
        samples.flags.writeable = False
        self._samples = samples
        self._labels = tuple(labels)
        # views of rows already checked: TimeSeries' check is not run again
        self.series = [TimeSeries.__new__(TimeSeries) for _ in labels]
        for view, label, row in zip(self.series, labels, samples):
            view.label, view.samples = label, row

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def length(self) -> int:
        return self._samples.shape[1]

    def values(self) -> np.ndarray:
        """The samples, held once: one read-only C-ordered ``(n, length)``
        array, the same on every call, whose rows are :attr:`series`."""
        return self._samples


@dataclass(eq=False)
class Spectrum:
    """Complex spectral values on a :class:`FrequencyGrid`, one per grid
    point (:meth:`FrequencyGrid.on_grid`); equal only to itself."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = self.grid.on_grid(self.values, complex, "spectrum")


def _kept(compute):
    """A read-only property of a :class:`SpectralMatrix`: ``compute(self)``
    on first read, kept with its events in the matrix's store by
    :func:`~polyscope.diagnostics.memo`."""
    return property(lambda self: memo(self._memo, compute.__name__,
                                      lambda: compute(self)),
                    doc=compute.__doc__)


@dataclass(frozen=True, init=False, eq=False)
class SpectralMatrix:
    """Hermitian matrix of cross spectra, ``values[i, j, k] = Phi_{x_i x_j}(omega_k)``.

    ``values`` may hold the whole grid, ``(n, n, K)``, or its
    :attr:`FrequencyGrid.half`, ``(n, n, K/2 + 1)``; either way the matrix
    stores only its own C-ordered copy of the half, :attr:`half`, exactly
    Hermitian (lower triangle the conjugated upper, diagonal real) and real
    at ``omega = -pi`` and ``0``.  The spectra of real series are
    conjugate-even, so the half carries the whole grid: :attr:`values` is
    its :meth:`FrequencyGrid.mirror`, built on first read.  Immutable and
    equal only to itself: ``labels`` is a tuple and both arrays read-only,
    so one matrix can be shared.  Rejects any
    ``|v_ij - conj(v_ji)| > 1e-9 * max|v|`` and any
    ``|v[..., K - k] - conj(v[..., k])| > 1e-9 * max|v|``; half-grid values
    are conjugate-even by construction, so of the last rule only the end
    points ``-pi`` and ``0`` are checked.  ``values`` is read as finite
    complex numbers by :func:`_array`.
    """

    labels: tuple[str, ...]
    grid: FrequencyGrid
    half: np.ndarray

    def __init__(self, labels, grid: FrequencyGrid, values):
        object.__setattr__(self, "labels", _sequence(labels, "labels"))
        object.__setattr__(self, "grid", grid)
        v = _array(values, complex, "spectral matrix")
        n, m = len(self.labels), grid.size // 2
        if n == 0:
            raise InvalidParameterError("spectral matrix needs at least one series")
        if v.shape not in ((n, n, grid.size), (n, n, m + 1)):
            raise InvalidParameterError(
                f"spectral matrix shape {v.shape} does not match "
                f"{n} labels on a grid of {grid.size}")
        tol = 1e-9 * (np.max(np.abs(v)) or 1.0)
        rows, cols = np.tril_indices(n)    # the upper entries mirror these
        mirrored = np.conj(v[cols, rows])
        if np.any(np.abs(v[rows, cols] - mirrored) > tol):
            raise InvalidParameterError("spectral matrix is not Hermitian")
        # point K - k (frequency -omega_k) is the twin of point k; -pi (k = 0)
        # and 0 (k = K/2) are their own
        ends = v[..., [0, m]]
        if (v.shape[-1] == grid.size and np.any(
                np.abs(v[..., :m:-1] - np.conj(v[..., 1:m])) > tol)) \
                or np.any(np.abs(ends - np.conj(ends)) > tol):
            raise InvalidParameterError(
                "spectral matrix is not conjugate-even in frequency")
        half = v[..., :m + 1].copy()
        half[rows, cols] = mirrored[..., :m + 1]
        half.imag[..., [0, m]] *= 0.0      # real; exact zeros keep their sign
        half.imag[np.arange(n), np.arange(n)] = 0.0
        half.flags.writeable = False
        object.__setattr__(self, "half", half)
        object.__setattr__(self, "_memo", {})

    @_kept
    def values(self) -> np.ndarray:
        """``(n, n, K)`` read-only whole grid, mirrored from :attr:`half` on
        first read."""
        v = self.grid.mirror(self.half)
        v.imag[np.arange(self.n), np.arange(self.n)] = 0.0    # conj(0.0) is -0.0
        v.flags.writeable = False
        return v

    @property
    def n(self) -> int:
        return len(self.labels)

    def check_index(self, *indices: int) -> None:
        """Raise unless every index is an integer naming a series of the matrix."""
        for i in indices:
            if not 0 <= _integer(i, "series index") < self.n:
                raise InvalidParameterError(f"index {i} out of range for n={self.n}")

    @_kept
    def _floored(self) -> np.ndarray:
        """``(n, K/2+1)`` read-only real auto-spectra on the :attr:`half`
        grid, floored by :func:`_floor`; every solver reads them.  An even
        spectrum has the same extremes on the half as on the whole grid, so
        the floors are the whole grid's.  Each series that needed the floor
        is a ``spectral-floor`` event, which each collector records once,
        from its first read of this or of a result computed from it."""
        phi = np.real(np.einsum("iik->ik", self.half))
        floored = _floor(phi)
        floored.flags.writeable = False
        # a clipped row's smallest value is the floor itself
        for i in np.flatnonzero(np.any(floored > phi, axis=1)):
            record("spectral-floor", f"auto-spectrum of {self.labels[i]!r} "
                                     f"floored at {np.min(floored[i]):.3e}")
        return floored

    @_kept
    def _floored_stack(self) -> np.ndarray:
        """``(K/2+1, n, n)`` read-only stack of :attr:`half` per grid point,
        with :attr:`_floored` on its diagonal.

        The matrix at grid point ``K - k`` is the exact conjugate of the one
        at ``k``, so every per-frequency solve of the stack stands for its
        twin too (see :meth:`FrequencyGrid.half_mean`).
        Computed on first use; its events are :attr:`_floored`'s.
        """
        A = self.half.transpose(2, 0, 1).copy()
        d = np.arange(self.n)
        A[:, d, d] = self._floored.T
        A.flags.writeable = False
        return A

    @_kept
    def _eigenvalue_ratio(self) -> float:
        """Least over greatest eigenvalue of the floored matrix, worst grid point.

        The matrix is :attr:`_floored_stack`, the half grid: a conjugate
        matrix has the same eigenvalues, so the other points add nothing.
        ``wiener._clears_screen`` tests the ratio when its Cholesky
        certificate fails.  Computed on first use.
        """
        eigs = np.linalg.eigvalsh(self._floored_stack)
        return float(np.min(eigs[:, 0] / eigs[:, -1]))

    def floored_autospectrum(self, i: int) -> np.ndarray:
        """Real auto-spectrum of series ``i``, clipped from below at the floor."""
        self.check_index(i)
        return self.grid.mirror(self._floored[i])


@dataclass(eq=False)
class CoherenceCurve:
    """Magnitude-squared coherence of one pair, clamped into [0, 1], one
    value per grid point (:meth:`FrequencyGrid.on_grid`); equal only to
    itself."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = self.grid.on_grid(self.values, float, "coherence")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise InvalidParameterError("coherence values outside [0, 1]")


@dataclass(frozen=True)
class WelchConfig:
    """Welch averaging parameters.

    ``segment_length`` defaults to the grid size so every segment DFT lands
    directly on the analysis grid.  ``segment_count`` is the planned number
    of averages: the estimator always uses every full segment the data
    offers and records a diagnostic when fewer than planned fit.
    ``overlap`` is a real number in [0, 1), read as a 0-d array by
    :func:`_array`.
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
        if not 0.0 <= _array(self.overlap, float, "overlap", ()) < 1.0:
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
    """Welch cross spectra of every pair of rows of ``values`` at the
    :attr:`FrequencyGrid.half` points, ``(n, n, K/2+1)``.

    A streamed Gram product: the segments, windowed from a strided view of
    the record (no index array gathers them), are real-transformed
    (``rfft``) :data:`WELCH_CHUNK_SEGMENTS` at a time, and each chunk adds
    its per-frequency ``X^H X`` to one ``(K/2+1, n, n)`` accumulator, so the
    segment DFTs held at once do not grow with the record.  The bins give
    the half-grid points, conjugated where they stand for negative
    frequencies; the rest of the grid are their conjugates (real input).
    The lower triangle and imaginary diagonal keep their rounding: the
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
    # (n, available, seg): every segment as a view of the record
    windows = sliding_window_view(values, seg, axis=-1)[:, ::cfg.hop]
    gram = np.zeros((k // 2 + 1, n, n), dtype=complex)
    for first in range(0, available, WELCH_CHUNK_SEGMENTS):
        segments = windows[:, first:first + WELCH_CHUNK_SEGMENTS] * win
        # (K/2+1, m, n): one matrix of segment DFTs per frequency
        X = np.fft.rfft(segments, n=k, axis=-1).transpose(2, 1, 0)
        gram += np.conj(X.transpose(0, 2, 1)) @ X
    gram /= available * float(np.sum(win ** 2))
    # bin j is omega = 2*pi*j/K: bin K/2 is omega = -pi, bins K/2-1 ... 1 are
    # the conjugates of the points after it, bin 0 is omega = 0
    m = k // 2
    half = np.concatenate([gram[m:], np.conj(gram[m - 1:0:-1]), gram[:1]])
    return half.transpose(1, 2, 0)


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
    grid = FrequencyGrid(cfg.grid_size)
    pairs = _welch_matrix(np.stack([x.samples, y.samples]), cfg)
    return Spectrum(grid, grid.mirror(pairs[0, 1]))


def spectral_matrix(ens: Ensemble, cfg: WelchConfig) -> SpectralMatrix:
    """Estimate the full matrix of cross spectra for an ensemble.

    One streamed Gram product over chunks of real segment DFTs gives every
    pair at once (see :func:`_welch_matrix`); memory beyond the samples
    does not grow with the record length.  The result is exactly
    Hermitian, as every :class:`SpectralMatrix` is.
    """
    return SpectralMatrix(ens.labels, FrequencyGrid(cfg.grid_size),
                          _welch_matrix(ens.values(), cfg))


def coherence_function(S: SpectralMatrix, i: int, j: int) -> CoherenceCurve:
    """Magnitude-squared coherence of the pair ``(i, j)``.

    ``C(omega) = |Phi_ij|^2 / (Phi_ii * Phi_jj)`` with floored auto-spectra,
    clamped into [0, 1].  Estimator overshoot beyond ``1 + 1e-6`` is recorded
    as a diagnostic rather than raised; identical series give exactly 1.
    """
    S.check_index(i, j)
    return CoherenceCurve(S.grid, S.grid.mirror(_coherence(S, [i], [j])[0]))


def _coherence(S: SpectralMatrix, rows, cols) -> np.ndarray:
    """Clamped coherence of each pair ``(rows[p], cols[p])`` of two
    equal-length index arrays at the :attr:`FrequencyGrid.half` points; the
    :meth:`FrequencyGrid.mirror` of row ``p`` is the pair's whole-grid
    coherence bit for bit (``|conj z| == |z|``).  Overshoot beyond
    ``1 + 1e-6`` is recorded per pair, in pair order.  Raises
    :class:`DegenerateSeriesError` when every auto-spectrum is zero, so
    floored at the smallest normal float, whose square is 0.
    """
    floored = S._floored
    if np.max(floored) == np.finfo(float).tiny:
        raise DegenerateSeriesError(f"series {S.labels[0]!r} has zero variance")
    raw = np.abs(S.half[rows, cols]) ** 2 / (floored[rows] * floored[cols])
    peaks = np.max(raw, axis=-1)
    for p in np.flatnonzero(peaks > 1.0 + 1e-6):
        record("coherence-overshoot",
               f"coherence of ({S.labels[rows[p]]!r}, {S.labels[cols[p]]!r}) "
               f"peaks at {peaks[p]:.6f} before clamping")
    return np.clip(raw, 0.0, 1.0, out=raw)
