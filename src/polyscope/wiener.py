"""Wiener filtering on the frequency grid.

The non-causal filter is the per-frequency least-squares solution
``W(omega) = Phi_x(omega)^{-1} c(omega)`` with ``c_a = Phi_{x_a -> y}``; it
is weighting-independent.  The causal filter solves the one-sided problem
through the classical Wiener--Hopf split: factor the input spectrum as
``Phi = G * conj(G)`` with ``G`` minimum phase, keep the causal part of the
whitened cross spectrum, and undo the whitening,

    W_c = Fj_inv_factor * { Fj * Phi_xy / conj(G) }_causal / G,

where ``Fj`` whitens the target so that the reported cost is the
dimensionless error variance of the whitened residual (1 for the zero
filter).  Spectral factorization uses the real-cepstrum construction, which
is exact in magnitude on the grid by design.  This module alone reads the
conditioning screen (:func:`_clears_screen`), so it alone decides how a
multi-input fit is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import record
from .errors import (
    IllConditionedSpectrumError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidSpectrumError,
)
from .signals import FrequencyGrid, SpectralMatrix, Spectrum, TimeSeries, _floor

#: Fraction of total impulse energy that may be discarded by support
#: truncation before a diagnostic event is recorded.
TRUNCATION_ENERGY_TOL = 1e-6

#: Relative eigenvalue ratio below which an input spectral matrix is
#: declared singular beyond the floor.
CONDITION_RTOL = 1e-10


@dataclass
class TransferFunction:
    """A linear filter known by its grid response, optionally by its taps.

    ``impulse[u]`` (when present) is the real coefficient at time
    ``support_offset + u``; a causal filter has ``support_offset >= 0``.
    Filters built from taps satisfy ``DFT(impulse) == response`` exactly;
    filters materialised from a response keep the analytic response and may
    record a truncation-energy diagnostic when the discarded tail is not
    negligible.
    """

    grid: FrequencyGrid
    response: np.ndarray
    impulse: np.ndarray | None = None
    support_offset: int = 0

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=complex)
        if self.response.shape != (self.grid.size,):
            raise InvalidParameterError("response length must match the grid")
        if self.impulse is not None:
            self.impulse = np.asarray(self.impulse, dtype=float)
            if self.impulse.ndim != 1 or self.impulse.size == 0:
                raise InvalidParameterError("impulse must be a non-empty 1-d array")

    @classmethod
    def from_taps(cls, grid: FrequencyGrid, taps, offset: int = 0) -> "TransferFunction":
        taps = np.asarray(taps, dtype=float)
        return cls(grid, grid.response_from_taps(taps, offset), taps, offset)

    @property
    def is_causal(self) -> bool:
        return self.impulse is not None and self.support_offset >= 0

    def rms(self) -> float:
        """Root mean square response magnitude over the grid."""
        return float(self.grid.rms(self.response))

    def with_impulse(self, support: str = "centered") -> "TransferFunction":
        """Materialise an impulse response of length K/2 from the response.

        ``support="centered"`` keeps taps on ``[-K/4, K/4)`` (non-causal
        filters), ``support="causal"`` keeps ``[0, K/2)``.  The discarded
        energy fraction is checked against :data:`TRUNCATION_ENERGY_TOL`.
        """
        if self.impulse is not None:
            return self
        k = self.grid.size
        taps, offset = self.grid.taps_from_response(self.response)
        if support == "centered":
            lo = k // 4            # tap index of time -K/4
            kept = taps[lo:lo + k // 2]
            new_offset = -(k // 4)
        elif support == "causal":
            lo = k // 2            # tap index of time 0
            kept = taps[lo:]
            new_offset = 0
        else:
            raise InvalidParameterError(f"unknown support {support!r}")
        total = float(np.sum(taps ** 2))
        lost = total - float(np.sum(kept ** 2))
        if total > 0 and lost > TRUNCATION_ENERGY_TOL * total:
            record("truncation-energy",
                   f"impulse truncation discards {lost / total:.2e} "
                   f"of the energy ({support} support)")
        return TransferFunction(self.grid, self.response, kept, new_offset)

    def impulse_matches_response(self, rtol: float = 1e-8) -> bool:
        """Check the DFT of the stored impulse against the stored response."""
        if self.impulse is None:
            return True
        rebuilt = self.grid.response_from_taps(self.impulse, self.support_offset)
        scale = np.max(np.abs(self.response))
        if scale == 0.0:
            return bool(np.max(np.abs(rebuilt)) == 0.0)
        return bool(np.max(np.abs(rebuilt - self.response)) <= rtol * scale)


@dataclass
class WienerSolution:
    """Optimal filters for one target, with the residual error spectrum.

    ``cost`` equals the grid mean of ``residual_spectrum`` (the
    ``(1/2pi) d omega`` integral); whether that spectrum is raw or whitened
    by the target factor depends on the operation that produced it.
    """

    target: int
    inputs: tuple[int, ...]
    filters: dict[int, TransferFunction]
    cost: float
    residual_spectrum: Spectrum

    def __post_init__(self):
        if self.cost < 0:
            raise InvalidParameterError("cost must be non-negative")
        spectrum = self.residual_spectrum
        mean = float(np.real(spectrum.grid.integrate(spectrum.values)))
        if abs(mean - self.cost) > 1e-8 * max(1.0, abs(self.cost)):
            raise InvalidParameterError(
                "cost is not the grid mean of the residual spectrum")


def _check_inputs(S: SpectralMatrix, target: int, inputs: tuple) -> None:
    """Reject an empty, repeated, out-of-range or target-including input set."""
    if not inputs:
        raise InvalidParameterError("at least one input is required")
    if len(set(inputs)) != len(inputs):
        raise InvalidParameterError("duplicate inputs")
    if target in inputs:
        raise InvalidParameterError("target cannot be one of its inputs")
    S.check_index(*inputs, target)


def _clears_screen(S: SpectralMatrix) -> bool:
    """Whether every fit on ``S`` is conditioned well enough to need no
    check of its own.

    A fit's blocks are principal submatrices of the floored spectral
    matrix, so by Cauchy interlacing their eigenvalue ratios are no smaller
    than the whole matrix's, ``S._eigenvalue_ratio``, when that is positive.
    The factor 2 leaves :data:`CONDITION_RTOL` of the largest eigenvalue for
    rounding, far above ``eigvalsh``'s error of a few ``n * eps``.
    """
    return S._eigenvalue_ratio >= 2 * CONDITION_RTOL


def _joint_fits(S: SpectralMatrix, target: int, inputs
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """Joint least-squares fit of ``target`` on one valid input set (see
    :func:`_check_inputs`).

    The fit is checked for conditioning before it is solved: at once by
    :func:`_clears_screen`, or when that fails, its blocks with their own
    eigenvalues against :data:`CONDITION_RTOL`.  The solution is
    always checked against its normal equations (residual orthogonal to
    every input).  Returns the filter responses ``W (K, q)`` (column ``p``
    belongs to ``inputs[p]``), the raw residual spectrum and its grid mean.
    """
    A, c = _normal_equations(S, target, np.asarray([inputs]))
    if not _clears_screen(S):
        eigs = np.linalg.eigvalsh(A[0])
        ratio = eigs[:, 0] / eigs[:, -1]
        worst = np.argmin(ratio)
        if eigs[worst, 0] < CONDITION_RTOL * eigs[worst, -1]:
            raise IllConditionedSpectrumError(
                f"input spectral matrix singular beyond the floor at "
                f"omega={S.grid.omegas[worst]:.6f} (eigenvalue ratio "
                f"{ratio[worst]:.3e})")
    W = np.linalg.solve(A, c[..., None])[..., 0]
    _check_orthogonality(target, A, c, W)
    explained = np.real(np.sum(np.conj(c[0]) * W[0], axis=-1))
    residual = np.maximum(np.real(S.values[target, target]) - explained, 0.0)
    return W[0], residual, float(S.grid.integrate(residual))


def _normal_equations(S: SpectralMatrix, target: int, idx: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frequency normal equations ``A (m, K, q, q)`` and ``c (m, K, q)``
    of ``target`` on each row of an ``(m, q)`` index array, with
    ``S._floored`` on the diagonals."""
    A = S._floored_stack[:, idx[:, :, None], idx[:, None, :]].swapaxes(0, 1)
    c = S.values[idx, target].transpose(0, 2, 1).copy()
    return A, c


def _extension_costs(S: SpectralMatrix, target: int, support, free) -> np.ndarray:
    """Costs of the joint fits of ``target`` on ``support + [b]``, one per
    ``b`` in ``free``, from the fit on ``support`` alone.

    This is the orthogonal least squares recursion (Chen, Billings & Luo,
    Int. J. Control 50(5), 1989).  At each frequency, with ``A_SS W_S = c_S``
    the support's fit, adding ``b`` lowers the residual spectrum by
    ``|r_b|^2 / s_b``, where ``G_b = A_SS^{-1} A_Sb``, the Schur complement
    is ``s_b = A_bb - A_bS G_b`` and ``r_b = c_b - A_bS W_S``.  One solve of
    ``A_SS`` against ``[A_S,free | c_S]`` serves every candidate, and none
    is needed for an empty support.  The residual is clipped at zero per
    frequency as in :func:`_joint_fits`.

    Every extension's filters, ``w_b = r_b / s_b`` for ``b`` and
    ``W_S - G_b w_b`` for the support, are checked against their normal
    equations as :func:`_joint_fits` checks its own.  This path needs
    :func:`_clears_screen` to hold, which keeps every ``s_b`` away from
    zero; otherwise each extension is fitted by :func:`_joint_fits` in
    ``free`` order, and the first failing fit raises.  ``support`` must be
    a valid input set and ``free`` the inputs outside it.
    """
    if not _clears_screen(S):
        return np.array([_joint_fits(S, target, sorted([*support, b]))[2]
                         for b in free])
    support = np.asarray(support, dtype=int)
    free = np.asarray(free, dtype=int)
    q, m = support.size, free.size
    A, c = _normal_equations(
        S, target, np.column_stack([np.broadcast_to(support, (m, q)), free]))
    rhs = np.concatenate([A[:, :, :q, q].transpose(1, 2, 0), c[0, :, :q, None]],
                         axis=-1)
    solved = np.linalg.solve(A[0, :, :q, :q], rhs) if q else rhs
    G, W_S = solved[..., :m].transpose(2, 0, 1), solved[..., m]
    A_bS = A[:, :, q, :q]
    s = np.real(A[:, :, q, q]) - np.real(np.sum(A_bS * G, axis=-1))
    r = c[:, :, q] - np.sum(A_bS * W_S, axis=-1)
    w = r / s
    W = np.concatenate([W_S - G * w[..., None], w[..., None]], axis=-1)
    _check_orthogonality(target, A, c, W)
    explained = np.real(np.sum(np.conj(c[0, :, :q]) * W_S, axis=-1))
    residual = np.maximum(np.real(S.values[target, target]) - explained
                          - np.abs(r) ** 2 / s, 0.0)
    return S.grid.integrate(residual)


def _filter_rms(S: SpectralMatrix) -> np.ndarray:
    """``(n, n)`` filter RMS: ``[j, i]`` for input ``i`` of target ``j``'s
    :func:`noncausal_wiener` filter over all other series.

    When :func:`_clears_screen` holds, every filter is read from one inverse
    ``P`` of ``S._floored_stack``: the filter of target ``j`` on input ``i``
    is ``-P[i, j] / P[j, j]``.  Otherwise each target is fitted by
    :func:`_joint_fits` in target order, and the first failing fit raises.
    The diagonal is 1 and means nothing.
    """
    if _clears_screen(S):
        P = np.linalg.inv(S._floored_stack)
        d = np.arange(S.n)
        return S.grid.rms((P / P[:, d, d][:, None, :]).transpose(2, 1, 0))
    rms = np.ones((S.n, S.n))
    for j in range(S.n):
        inputs = [i for i in range(S.n) if i != j]
        rms[j, inputs] = S.grid.rms(_joint_fits(S, j, inputs)[0].T)
    return rms


def _check_orthogonality(target: int, A: np.ndarray, c: np.ndarray,
                         W: np.ndarray) -> None:
    """Check each fit's normal equations hold: residual orthogonal to every input."""
    lhs = np.einsum("mkab,mkb->mka", A, W)
    scale = np.maximum(
        np.max(np.abs(c), axis=(1, 2)),
        np.max(np.abs(A), axis=(1, 2, 3))
        * np.maximum(np.max(np.abs(W), axis=(1, 2)), 1.0))
    scale = np.maximum(scale, np.finfo(float).tiny)
    worst = np.max(np.abs(c - lhs), axis=(1, 2))
    failed = np.flatnonzero(worst > 1e-8 * scale)
    if failed.size:
        f = failed[0]
        raise InvalidSpectrumError(
            f"projection for target {target} violates orthogonality by "
            f"{worst[f]:.3e} (scale {scale[f]:.3e})")


def _filters(grid: FrequencyGrid, inputs, W: np.ndarray) -> dict[int, TransferFunction]:
    """One fit's filter columns ``W (K, q)`` as transfer functions keyed by input."""
    return {a: TransferFunction(grid, W[:, pos].copy()) for pos, a in enumerate(inputs)}


def noncausal_wiener(S: SpectralMatrix, target: int, inputs,
                     normalize: bool = False) -> WienerSolution:
    """Unconstrained (two-sided) multi-input Wiener filter.

    Solves ``A(omega) W(omega) = c(omega)`` independently at each grid point,
    where ``A`` is the input sub-matrix of ``S`` and ``c`` the cross spectra
    from the inputs to the target.  The solution does not depend on any
    spectral weighting of the error.

    Parameters
    ----------
    S : SpectralMatrix
    target : int
        Index of the modelled series.
    inputs : sequence of int
        Non-empty, duplicate-free, not containing ``target``.
    normalize : bool
        When True the residual spectrum and cost are divided by the target
        auto-spectrum (whitened-error units, zero filter costs 1).  The
        filters themselves are identical either way.

    Returns
    -------
    WienerSolution
        ``cost`` is the residual variance ``E[(y - W x)^2]`` (or its
        whitened counterpart), always within ``[0, var(y)]``.
    """
    inputs = tuple(inputs)
    _check_inputs(S, target, inputs)
    W, residual, _ = _joint_fits(S, target, inputs)
    if normalize:
        residual = residual / S.floored_autospectrum(target)
    return WienerSolution(target, inputs, _filters(S.grid, inputs, W),
                          float(S.grid.integrate(residual)),
                          Spectrum(S.grid, residual))


def spectral_factorize(phi: Spectrum) -> TransferFunction:
    """Minimum-phase spectral factor of a real positive auto-spectrum.

    Uses the real-cepstrum construction: halve the log spectrum, fold its
    inverse DFT onto causal support, exponentiate the DFT back.  The
    returned filter ``F`` is causal with a positive leading tap and satisfies
    ``|F(omega)|^2 == phi(omega)`` exactly on the grid (in its analytic
    response; the stored impulse keeps the first K/2 taps).  The spectrum is
    floored by ``signals._floor``, and a ``spectral-floor`` event is
    recorded when any value is raised.
    """
    values = phi.values
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise InvalidSpectrumError("cannot factorize an identically zero spectrum")
    if np.max(np.abs(values.imag)) > 1e-10 * scale:
        raise InvalidSpectrumError("auto-spectrum has a non-real part")
    if np.min(values.real) < -1e-10 * scale:
        raise InvalidSpectrumError("auto-spectrum is negative")
    # grid point k mirrors K - k; only the real part is factorized
    if np.max(np.abs(values.real[1:] - values.real[:0:-1])) > 1e-10 * scale:
        raise InvalidSpectrumError("auto-spectrum is not even in frequency")
    floored = _floor(values.real)
    if np.any(floored > values.real):          # its minimum is the floor
        record("spectral-floor",
               f"factorization input floored at {np.min(floored):.3e}")
    responses, taps = _spectral_factors(phi.grid, floored[None, :])
    return TransferFunction(phi.grid, responses[0], taps[0], 0)


def _spectral_factors(grid: FrequencyGrid, phi: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Cepstral factors of each row of positive real spectra ``phi (m, K)``.

    The rows must already be floored by ``signals._floor``: a matrix's come
    from ``SpectralMatrix._floored``, a single spectrum's from
    :func:`spectral_factorize`.  Returns the grid responses ``(m, K)`` and
    the first K/2 taps ``(m, K/2)``; a row whose discarded tail holds more
    than :data:`TRUNCATION_ENERGY_TOL` of its energy is recorded.
    """
    k = grid.size
    cepstrum = grid.to_time(np.log(phi)).real
    folded = np.zeros_like(cepstrum)
    folded[:, 0] = 0.5 * cepstrum[:, 0]
    folded[:, 1:k // 2] = cepstrum[:, 1:k // 2]
    folded[:, k // 2] = 0.5 * cepstrum[:, k // 2]
    responses = np.exp(grid.from_time(folded))

    taps_full = grid.to_time(responses).real
    tail = np.sum(taps_full[:, k // 2:] ** 2, axis=-1)
    total = np.sum(taps_full ** 2, axis=-1)
    for row in range(phi.shape[0]):
        if total[row] > 0 and tail[row] > TRUNCATION_ENERGY_TOL * total[row]:
            record("truncation-energy",
                   f"spectral factor tail holds {tail[row] / total[row]:.2e} "
                   f"of the energy")
    return responses, taps_full[:, :k // 2]


def causal_truncate(h: TransferFunction) -> TransferFunction:
    """Zero every strictly anti-causal tap of a filter.

    The tap at time zero is kept.  Already-causal filters are returned
    unchanged; a filter known only by its response is first expanded onto
    the full centred support.  The response of the result is recomputed from
    the surviving taps, so truncation is idempotent.
    """
    if h.impulse is None:
        taps, offset = h.grid.taps_from_response(h.response)
    else:
        taps, offset = h.impulse, h.support_offset
    if offset >= 0:
        return h
    kept = taps[-offset:]
    if kept.size == 0:
        kept = np.zeros(1)
    return TransferFunction.from_taps(h.grid, kept, 0)


def _wiener_hopf(S: SpectralMatrix, target: int, inputs, target_factor: np.ndarray,
                 input_factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Wiener filters of ``target`` on each single input in ``inputs``.

    ``inputs`` is an index array or slice, ``input_factors`` the spectral
    factors of those inputs.  Returns, one row per input, the filter
    response, the whitened error spectrum and its grid mean (the cost).
    """
    phi = S._floored
    cross = S.values[inputs, target]
    # the causal part of the whitened cross spectrum keeps t = 0, drops t < 0
    causal = S.grid.to_time((1.0 / target_factor) * cross / np.conj(input_factors))
    causal[..., S.grid.size // 2:] = 0.0
    response = S.grid.from_time(causal) / input_factors * target_factor
    err = phi[target] + np.abs(response) ** 2 * phi[inputs] \
        - 2.0 * np.real(np.conj(response) * cross)
    weighted = np.maximum(err, 0.0) / phi[target]
    return response, weighted, S.grid.integrate(weighted)


def _causal_pair(S: SpectralMatrix, target: int, input_: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_wiener_hopf` of one validated pair, factoring only its two series."""
    if target == input_:
        raise InvalidParameterError("target and input must differ")
    S.check_index(target, input_)
    factors = _spectral_factors(S.grid, S._floored[[target, input_]])[0]
    return _wiener_hopf(S, target, [input_], factors[0], factors[1:])


def causal_wiener(S: SpectralMatrix, target: int, input_: int) -> WienerSolution:
    """One-sided (causal) Wiener filter of ``target`` on a single input.

    The target is whitened by its inverse spectral factor before the causal
    truncation, so the reported cost is dimensionless: the zero filter costs
    exactly 1 and the optimum can only be smaller.  The filter itself is
    causal; its cost is never below the non-causal whitened cost of the same
    pair.

    Parameters
    ----------
    S : SpectralMatrix
    target, input_ : int
        Distinct series indices.

    Returns
    -------
    WienerSolution
        ``residual_spectrum`` is the whitened error spectrum; ``cost`` is
        its grid mean.
    """
    response, weighted, cost = _causal_pair(S, target, input_)
    tf = TransferFunction(S.grid, response[0]).with_impulse("causal")
    return WienerSolution(target, (input_,), {input_: tf}, float(cost[0]),
                          Spectrum(S.grid, weighted[0]))


def apply_filter(h: TransferFunction, x: TimeSeries) -> TimeSeries:
    """Convolve a series with a filter's impulse response.

    The output has the same length as the input; samples that would need
    data beyond either end are computed against zero padding and their count
    is recorded as a ``transient`` diagnostic.  A filter without a stored
    impulse is materialised on the centred support first.
    """
    if h.impulse is None:
        h = h.with_impulse("centered")
    if x.length < 1:
        raise InsufficientDataError("empty input series")
    taps = h.impulse
    full = np.convolve(x.samples, taps)
    n = x.length
    out = np.zeros(n)
    # y[t] = full[t - offset] where that index exists
    t_lo = max(0, h.support_offset)
    t_hi = min(n, full.size + h.support_offset)
    if t_lo < t_hi:
        out[t_lo:t_hi] = full[t_lo - h.support_offset:t_hi - h.support_offset]
    leading = min(n, max(0, h.support_offset + taps.size - 1))
    trailing = min(n, max(0, -h.support_offset))
    transient = leading + trailing
    record("transient", f"{transient} edge samples of {x.label!r} are "
                        f"transient after filtering")
    return TimeSeries(x.label, out)
