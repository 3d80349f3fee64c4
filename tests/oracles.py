"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route than the library code:
scipy's Welch estimator instead of our segment bookkeeping, polynomial
rooting instead of the cepstrum, per-frequency least squares instead of the
normal-equation solve, Prüfer enumeration instead of Kruskal, and raw
path-product transfer algebra instead of the topological-order recursion.
The exceptions are the kernels that whole-matrix code replaced, kept as
they were: the per-row Welch average that the streamed Gram product
replaced, which tests compare at a tolerance; the per-fit Wiener
solve, the per-row coherence distances, the per-candidate greedy loops,
the per-target blanket loop, the per-pair identifiability run test, the
per-link source-transfer loop and the ``einsum`` of the analytic cross
spectra that array code replaced, and the whole-grid floored stack,
eigenvalue ratio and filter RMS that half-grid solvers replaced, against
which tests require bit-identical solutions, or equal supports and events
(the OLS loop's joint solves: equal supports and stop reasons, costs and
filters within 1e-12 of the target's power, as OLS reports its
closed-form scoring), the per-target first OLS step that one pass
per matrix replaced (the same bits, checks and events), the per-target OLS
runs that lockstep blocks of targets replaced (the same bits, events and
errors), and the per-target
Wiener--Hopf loop that blocks of targets replaced (the same bits and
events); the error-spectrum Wiener--Hopf kernel that the Parseval cost
replaced, against which tests require costs within a stated absolute
tolerance; the whole-grid
cepstral factors and Wiener--Hopf split that the half-grid causal layer replaced, against which tests
require agreement to rounding and equal polytrees; and the per-cell CSV reader and ``csv.writer`` text builders
that whole-body parsing and joined ``repr`` rows replaced, against which
tests require the same series, messages and bytes; and the index-array
Welch gather that a strided view replaced, the per-target blanket purge
that one array pass replaced and the tuple-sorting Kruskal that one
lexsort replaced, against which tests require the same bits, or the same
edges, edge order and events.  The per-target OLS runs divide
at a 1 x 1 support, as the kernel does.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from pathlib import Path

import numpy as np
from scipy import signal as sps

from polyscope import (
    DistanceMatrix,
    Ensemble,
    FrequencyGrid,
    IllConditionedSpectrumError,
    InputFormatError,
    InvalidSpectrumError,
    SparseModel,
    SpectralMatrix,
    TimeSeries,
    TransferFunction,
    Tree,
    UndirectedGraph,
    WelchConfig,
    analytic_spectra,
    generate_polytree_aln,
    inner_product,
    orthogonal_least_squares,
    project,
    simulate,
    spectral_matrix,
)
from polyscope.diagnostics import record
from polyscope.metric import _log_triangle_breaches
from polyscope.signals import WELCH_CHUNK_SEGMENTS
from polyscope.sparse import DEFAULT_MIN_GAIN, NEGLIGIBLE_RTOL
from polyscope.topology import BLANKET_RMS_RTOL
from polyscope.wiener import CONDITION_RTOL, TRUNCATION_ENERGY_TOL, _spectral_factors
from polyscope.aln import _noise_spectra


def csd_reference(x: np.ndarray, y: np.ndarray, cfg: WelchConfig) -> np.ndarray:
    """Two-sided cross spectral density via scipy, on our shifted grid."""
    seg = cfg.effective_segment_length
    _, pxy = sps.csd(x, y, fs=1.0, window=cfg.window, nperseg=seg,
                     noverlap=seg - cfg.hop, nfft=cfg.grid_size,
                     detrend=False, return_onesided=False, scaling="density")
    return np.fft.fftshift(pxy)


def welch_reference(values: np.ndarray, cfg: WelchConfig) -> np.ndarray:
    """Welch matrix ``(n, n, K)`` as the per-row kernel computed it.

    Holds every full-``fft`` segment DFT at once and averages row ``i``
    against rows ``i..n-1``; the lower triangle is conjugate-filled.
    """
    seg = cfg.effective_segment_length
    available = cfg.segments_available(values.shape[-1])
    win = cfg.window_taps
    idx = (np.arange(available) * cfg.hop)[:, None] + np.arange(seg)[None, :]
    ffts = np.fft.fft(values[..., idx] * win, n=cfg.grid_size, axis=-1)
    norm = float(np.sum(win ** 2))
    n, k = values.shape[0], cfg.grid_size
    out = np.empty((n, n, k), dtype=complex)
    for i in range(n):
        cross = np.mean(np.conj(ffts[i]) * ffts[i:], axis=1) / norm
        out[i, i:] = np.fft.fftshift(cross, axes=-1)
        out[i + 1:, i] = np.conj(out[i, i + 1:])
    return out


def welch_gather_reference(values: np.ndarray, cfg: WelchConfig) -> np.ndarray:
    """``signals._welch_matrix`` as it gathered each chunk of segments
    through an index array, ``values[:, starts[:, None] + offsets]``: the
    half-grid ``(n, n, K/2+1)``, without its events."""
    seg = cfg.effective_segment_length
    available = cfg.segments_available(values.shape[-1])
    win = cfg.window_taps
    n, k = values.shape[0], cfg.grid_size
    offsets = np.arange(seg)
    gram = np.zeros((k // 2 + 1, n, n), dtype=complex)
    for first in range(0, available, WELCH_CHUNK_SEGMENTS):
        last = min(first + WELCH_CHUNK_SEGMENTS, available)
        starts = np.arange(first, last) * cfg.hop
        segments = values[:, starts[:, None] + offsets] * win
        X = np.fft.rfft(segments, n=k, axis=-1).transpose(2, 1, 0)
        gram += np.conj(X.transpose(0, 2, 1)) @ X
    gram /= available * float(np.sum(win ** 2))
    m = k // 2
    half = np.concatenate([gram[m:], np.conj(gram[m - 1:0:-1]), gram[:1]])
    return half.transpose(1, 2, 0)


def covariance_sequence(phi: np.ndarray, grid: FrequencyGrid, order: int) -> np.ndarray:
    """Autocovariances r[0..order] of a spectrum given on the grid."""
    return np.array([
        float(np.real(np.mean(phi * np.exp(1j * grid.omegas * tau))))
        for tau in range(order + 1)
    ])


def rooting_spectral_factor(phi: np.ndarray, grid: FrequencyGrid,
                            order: int) -> np.ndarray:
    """Minimum-phase moving-average taps of an MA(order) spectrum by rooting.

    The covariance polynomial ``sum_{|tau|<=m} r[tau] z^{m-tau}`` has roots
    in reciprocal pairs; the factor keeps the ones strictly inside the unit
    circle and rescales to match total power.  Returns taps with positive
    leading coefficient, length ``order + 1``.
    """
    r = covariance_sequence(phi, grid, order)
    full = np.concatenate([r[::-1], r[1:]])          # r[-m..m]
    coeffs = full[::-1]                              # z^{2m} .. z^0
    roots = np.roots(coeffs)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size != order:
        raise AssertionError(
            f"expected {order} roots inside the unit circle, got {inside.size}")
    taps = np.real(np.poly(inside))                  # monic, degree = order
    response = np.polyval(taps, np.exp(1j * grid.omegas))
    ratio = phi / np.abs(response) ** 2
    gain2 = float(np.mean(ratio))
    if np.max(ratio) - np.min(ratio) > 1e-6 * gain2:
        raise AssertionError("spectrum is not |b|^2 times a constant")
    taps = np.sqrt(gain2) * taps
    # np.polyval treats taps[0] as the highest power; our convention is
    # taps[k] multiplying z^{-k}, which for a monic polynomial in z means
    # reading the coefficients in the same order once normalized: b(z) =
    # prod (z - rho) = z^m * prod(1 - rho z^{-1}), so taps[] already maps to
    # impulse-response order after the z^m shift.
    if taps[0] < 0:
        taps = -taps
    return taps


def dense_wiener(S: SpectralMatrix, target: int, inputs) -> tuple[np.ndarray, float]:
    """Per-frequency least-squares filters and residual power.

    Uses ``lstsq`` on each frequency slice and evaluates the residual with
    the explicit quadratic form rather than the explained-power shortcut.
    """
    inputs = list(inputs)
    K = S.grid.size
    A = S.values[np.ix_(inputs, inputs)].transpose(2, 0, 1)
    c = S.values[inputs, target].T
    W = np.empty((K, len(inputs)), dtype=complex)
    for k in range(K):
        W[k], *_ = np.linalg.lstsq(A[k], c[k], rcond=None)
    phi_t = np.real(S.values[target, target])
    quad = np.real(np.einsum("ka,kab,kb->k", np.conj(W), A, W))
    cross = 2.0 * np.real(np.einsum("ka,ka->k", np.conj(c), W))
    residual = phi_t + quad - cross
    return W, float(np.mean(np.maximum(residual, 0.0)))


def wiener_reference(S: SpectralMatrix, target: int, inputs, normalize: bool = False
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """One joint fit as the per-fit solver computed it, one call per input set,
    refused as :func:`conditioning_reference` refuses it.

    Returns the floored normal-equation blocks ``A (K, k, k)`` and
    ``c (K, k)``, the filters ``W (K, k)``, the residual spectrum and its
    grid mean.
    """
    inputs = list(inputs)
    A = S.values[np.ix_(inputs, inputs)].transpose(2, 0, 1).copy()
    d = np.arange(len(inputs))
    A[:, d, d] = np.array([S.floored_autospectrum(a) for a in inputs]).T
    c = S.values[inputs, target].T.copy()
    conditioning_reference(S, inputs)
    W = np.linalg.solve(A, c[..., None])[..., 0]
    phi_t = np.real(S.values[target, target])
    explained = np.real(np.sum(np.conj(c) * W, axis=-1))
    residual = np.maximum(phi_t - explained, 0.0)
    if normalize:
        residual = residual / S.floored_autospectrum(target)
    return A, c, W, residual, float(np.mean(residual))


def distance_matrix_reference(S: SpectralMatrix) -> DistanceMatrix:
    """``metric.distance_matrix`` as the per-row loop computed it.

    Row ``i`` takes the coherence of series ``i`` with every later series
    at once, recording each overshoot; the upper triangle is mirrored and
    the degenerate-pair and triangle-breach events follow.
    """
    n = S.n
    upper = np.zeros((n, n))
    for i in range(n - 1):
        cols = slice(i + 1, None)
        raw = np.abs(S.half[i, cols]) ** 2 / (S._floored[i] * S._floored[cols])
        peaks = np.max(raw, axis=-1)
        over = peaks > 1.0 + 1e-6
        for j, peak in zip(np.arange(n)[cols][over], peaks[over]):
            record("coherence-overshoot",
                   f"coherence of ({S.labels[i]!r}, {S.labels[j]!r}) "
                   f"peaks at {peak:.6f} before clamping")
        mean = S.grid.half_mean(1.0 - np.clip(raw, 0.0, 1.0))
        upper[i, cols] = np.sqrt(np.maximum(mean, 0.0))
    out = upper + upper.T
    for i, j in np.argwhere(np.triu(out < 1e-9, 1)):
        record("degenerate-pair",
               f"{S.labels[i]!r} and {S.labels[j]!r} are at distance "
               f"{out[i, j]:.3e}; duplicated series?")
    _log_triangle_breaches(out)
    return DistanceMatrix(list(S.labels), out, "noncausal")


def floored_stack_reference(S: SpectralMatrix) -> np.ndarray:
    """``(K, n, n)`` stack of the whole grid, floored auto-spectra on its
    diagonal, as solvers read it before they solved the half grid."""
    A = S.values.transpose(2, 0, 1).copy()
    d = np.arange(S.n)
    A[:, d, d] = np.array([S.floored_autospectrum(i) for i in range(S.n)]).T
    return A


def eigenvalue_ratio_reference(S: SpectralMatrix) -> float:
    """Least over greatest eigenvalue of :func:`floored_stack_reference`,
    worst grid point of the whole grid."""
    eigs = np.linalg.eigvalsh(floored_stack_reference(S))
    return float(np.min(eigs[:, 0] / eigs[:, -1]))


def schur_reference(S: SpectralMatrix, inputs) -> tuple[list, list]:
    """The conditioning rule of every fit by its own route: on the whole
    grid of :func:`floored_stack_reference`, each input ``b`` in the order
    given takes its Schur complement ``A_bb - A_bK solve(A_KK, A_Kb)``
    against the inputs ``K`` kept before it, one general solve per input,
    and is left out when its least ratio to ``A_bb`` is not at least
    ``CONDITION_RTOL``.  Returns the kept inputs and, for each input left
    out, ``(input, point, ratio)``: its worst grid point, named by its
    half-grid mirror ``K - k`` when it lies past ``omega = 0``, and its
    ratio there."""
    A = floored_stack_reference(S)
    size = S.grid.size
    kept, dropped = [], []
    for b in inputs:
        s = A[:, b, b].real.copy()
        if kept:
            G = np.linalg.solve(A[:, kept][:, :, kept], A[:, kept, b][..., None])
            s -= np.real(np.sum(A[:, b, kept] * G[..., 0], axis=-1))
        ratios = s / A[:, b, b].real
        k = int(np.argmin(ratios))
        if ratios[k] >= CONDITION_RTOL:
            kept.append(b)
        else:
            dropped.append((b, k if k <= size // 2 else size - k,
                            float(ratios[k])))
    return kept, dropped


def conditioning_reference(S: SpectralMatrix, inputs) -> None:
    """Refuse a fit on ``inputs`` when :func:`schur_reference` leaves out any
    of them in index order, naming the first one left out, its worst
    frequency and its ratio."""
    dropped = schur_reference(S, sorted(inputs))[1]
    if dropped:
        b, point, ratio = dropped[0]
        raise IllConditionedSpectrumError(
            f"input spectral matrix singular beyond the floor at "
            f"omega={S.grid.omegas[point]:.6f} (input {S.labels[b]!r}, "
            f"Schur ratio {ratio:.3e})")


#: Absolute bound within which a Schur ratio of the library's elimination on
#: the half grid agrees with :func:`schur_reference`'s, which solves each
#: input on its own: over every block of the screen records of
#: ``test_wiener.py`` the two differ by at most 5.8e-16.
SCHUR_RATIO_ATOL = 1e-14

#: Relative error of a ratio printed with ``.3e``, which both sides round.
PRINTED_RTOL = 1e-3

_REFUSED = re.compile(r"input spectral matrix singular beyond the floor at "
                      r"omega=(\S+) \(input (.+), Schur ratio (\S+)\)")


def assert_same_drops(got, ref, printed: bool = False) -> None:
    """Two lists of left-out inputs ``(input, point, ratio)`` agree: the
    same inputs in the same order, the ratios within
    :data:`SCHUR_RATIO_ATOL` (plus :data:`PRINTED_RTOL` of the ratio when
    both were ``printed``), and the same points wherever the ratio is more
    than rounding.  An input that is an exact combination of those kept
    before it has a ratio of rounding at every point, so its worst point
    is rounding too, and is not compared."""
    assert [b for b, _, _ in got] == [b for b, _, _ in ref]
    for (_, point, ratio), (_, ref_point, ref_ratio) in zip(got, ref):
        slack = PRINTED_RTOL * abs(ref_ratio) if printed else 0.0
        assert abs(ratio - ref_ratio) <= SCHUR_RATIO_ATOL + slack
        if abs(ref_ratio) > SCHUR_RATIO_ATOL + slack:
            assert point == ref_point


def assert_same_outcome(got, ref) -> None:
    """Two outcomes, each None or an error's ``(class, message)``, agree:
    equal, except that a refusal by the conditioning rule is compared by
    :func:`assert_same_drops` on its printed input, frequency and ratio."""
    match = ref and ref[0] is IllConditionedSpectrumError and \
        _REFUSED.fullmatch(ref[1])
    if not match:
        assert got == ref
        return
    assert got is not None and got[0] is ref[0]
    drops = [(name, omega, float(ratio)) for omega, name, ratio in
             (_REFUSED.fullmatch(got[1]).groups(), match.groups())]
    assert_same_drops(drops[:1], drops[1:], printed=True)


def filter_rms_reference(S: SpectralMatrix) -> np.ndarray:
    """``wiener._filter_rms`` on the whole grid: one inverse of
    :func:`floored_stack_reference` when its ratio clears the screen, else
    per target the inputs :func:`schur_reference` keeps in index order, one
    :func:`wiener_reference` fit on them and one ``TransferFunction.rms``
    per filter, RMS 0 for each input left out."""
    if eigenvalue_ratio_reference(S) >= 2 * CONDITION_RTOL:
        P = np.linalg.inv(floored_stack_reference(S))
        d = np.arange(S.n)
        return S.grid.rms((P / P[:, d, d][:, None, :]).transpose(2, 1, 0))
    rms = np.ones((S.n, S.n))
    for j in range(S.n):
        inputs = [i for i in range(S.n) if i != j]
        kept = schur_reference(S, inputs)[0]
        W = wiener_reference(S, j, kept)[2]
        rms[j, inputs] = 0.0
        rms[j, kept] = [TransferFunction(S.grid, W[:, pos]).rms()
                        for pos in range(len(kept))]
    return rms


def spectral_factors_reference(grid: FrequencyGrid, phi: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """``wiener._spectral_factors`` on the whole grid: cepstral factors of
    each row of floored spectra ``phi (m, K)`` by complex DFTs.  Returns the
    grid responses ``(m, K)`` and the first K/2 taps, recording the same
    ``truncation-energy`` events."""
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


def wiener_hopf_reference(S: SpectralMatrix, target: int, inputs,
                          target_factor: np.ndarray, input_factors: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The error-spectrum Wiener--Hopf kernel on the whole grid, with the
    whole-grid factors of :func:`spectral_factors_reference`: per input the
    filter response, the whitened error spectrum clipped at 0 per
    frequency, and its grid mean."""
    phi = np.array([S.floored_autospectrum(i) for i in range(S.n)])
    cross = S.values[inputs, target]
    causal = S.grid.to_time((1.0 / target_factor) * cross / np.conj(input_factors))
    causal[..., S.grid.size // 2:] = 0.0
    response = S.grid.from_time(causal) / input_factors * target_factor
    err = phi[target] + np.abs(response) ** 2 * phi[inputs] \
        - 2.0 * np.real(np.conj(response) * cross)
    weighted = np.maximum(err, 0.0) / phi[target]
    return response, weighted, np.mean(weighted, axis=-1)


def causal_pair_reference(S: SpectralMatrix, target: int, input_: int
                          ) -> tuple[np.ndarray, np.ndarray, float]:
    """Whole-grid one-sided filter response, whitened error spectrum and
    cost of ``target`` on ``input_``, as ``causal_wiener`` computed them."""
    phi = np.array([S.floored_autospectrum(i) for i in (target, input_)])
    factors = spectral_factors_reference(S.grid, phi)[0]
    response, weighted, cost = wiener_hopf_reference(
        S, target, [input_], factors[0], factors[1:])
    return response[0], weighted[0], float(cost[0])


def causal_reference(S: SpectralMatrix) -> np.ndarray:
    """``causal_distance_matrix(S).values`` by the whole-grid causal layer:
    one factor per series, one Wiener--Hopf solve per target."""
    phi = np.array([S.floored_autospectrum(i) for i in range(S.n)])
    factors = spectral_factors_reference(S.grid, phi)[0]
    out = np.zeros((S.n, S.n))
    for j in range(S.n):
        cost = wiener_hopf_reference(S, j, slice(None), factors[j], factors)[2]
        out[j] = np.sqrt(np.maximum(cost, 0.0))
        out[j, j] = 0.0
    return out


def causal_rows_reference(S: SpectralMatrix) -> np.ndarray:
    """``causal_distance_matrix(S).values`` as a per-target loop with the
    kernel's elementwise operations: half-grid factors of every series and
    their reciprocals, then per target row one whitening of the cross
    spectra from every input, one ``irfft`` and the cost ``1 - sum c^2``
    over the causal times."""
    factors = _spectral_factors(S.grid, S._floored)[0]
    inverses = 1.0 / factors
    out = np.zeros((S.n, S.n))
    for j in range(S.n):
        c = S.grid.half_to_time(inverses[j] * S.half[:, j] * np.conj(inverses))
        cost = 1.0 - np.sum(np.square(c[:, :S.grid.size // 2]), axis=-1)
        out[j] = np.sqrt(np.maximum(cost, 0.0))
        out[j, j] = 0.0
    return out


def causal_error_costs_reference(S: SpectralMatrix) -> np.ndarray:
    """Whitened causal costs ``(n, n)`` as the error-spectrum kernel computed
    them before the Parseval cost: per target row, the causal part of the
    whitened cross spectra, the filter responses it gives, the whitened
    error spectrum of each filter clipped at 0 per frequency, and its
    half-grid mean.  The diagonal means nothing."""
    phi = S._floored
    factors = _spectral_factors(S.grid, phi)[0]
    out = np.zeros((S.n, S.n))
    for j in range(S.n):
        cross = S.half[:, j]
        causal = S.grid.half_to_time(
            (1.0 / factors[j]) * cross / np.conj(factors))
        causal[..., S.grid.size // 2:] = 0.0
        response = S.grid.half_from_time(causal) / factors * factors[j]
        err = phi[j] + np.abs(response) ** 2 * phi \
            - 2.0 * np.real(np.conj(response) * cross)
        out[j] = S.grid.half_mean(np.maximum(err, 0.0) / phi[j])
    return out


def project_reference(S: SpectralMatrix, target: int, support
                      ) -> tuple[dict[int, TransferFunction], float]:
    """``sparse.project`` as one fit plus one orthogonality check per call."""
    support = tuple(sorted(support))
    if not support:
        return {}, max(inner_product(S, target, target), 0.0)
    A, c, W, _, cost = wiener_reference(S, target, support)
    lhs = np.einsum("kab,kb->ka", A, W)
    scale = max(
        float(np.max(np.abs(c))),
        float(np.max(np.abs(A))) * max(float(np.max(np.abs(W))), 1.0),
        np.finfo(float).tiny,
    )
    worst = float(np.max(np.abs(c - lhs)))
    if worst > 1e-8 * scale:
        raise InvalidSpectrumError(
            f"projection for target {target} violates orthogonality by "
            f"{worst:.3e} (scale {scale:.3e})")
    filters = {b: TransferFunction(S.grid, W[:, pos].copy())
               for pos, b in enumerate(support)}
    return filters, cost


def first_step_reference(S: SpectralMatrix, target: int):
    """OLS's first step for one target by the general Schur path with an
    empty support (nothing to solve), one target at a time: its normal
    equations gathered from ``S._floored_stack`` and checked per candidate.
    With an empty support every Schur ratio is 1, so no candidate is
    collinear and that branch is left out.

    Returns, over the candidates in index order, the costs ``(m,)``, the
    filters ``(m, K/2+1, 1)``, and the normal-equation residuals ``worst``
    and their ``scale`` ``(m,)``.
    """
    free = np.array([b for b in range(S.n) if b != target])
    m = free.size
    idx = free[:, None]
    A = S._floored_stack[:, idx[:, :, None], idx[:, None, :]].swapaxes(0, 1)
    c = S.half[idx, target].transpose(0, 2, 1).copy()
    rhs = np.concatenate([A[:, :, :0, 0].transpose(1, 2, 0), c[0, :, :0, None]],
                         axis=-1)
    G, W_S = rhs[..., :m].transpose(2, 0, 1), rhs[..., m]
    explained = np.real(np.sum(np.conj(c[0, :, :0]) * W_S, axis=-1))
    A_bS, A_bb = A[:, :, 0, :0], np.real(A[:, :, 0, 0])
    s = A_bb - np.real(np.sum(A_bS * G, axis=-1))
    r = c[:, :, 0] - np.sum(A_bS * W_S, axis=-1)
    w = r / s
    W = np.concatenate([W_S - G * w[..., None], w[..., None]], axis=-1)
    lhs = np.einsum("mkab,mkb->mka", A, W)
    scale = np.maximum(
        np.max(np.abs(c), axis=(1, 2)),
        np.max(np.abs(A), axis=(1, 2, 3))
        * np.maximum(np.max(np.abs(W), axis=(1, 2)), 1.0))
    scale = np.maximum(scale, np.finfo(float).tiny)
    worst = np.max(np.abs(c - lhs), axis=(1, 2))
    residual = np.maximum(np.real(S.half[target, target])
                          - explained - np.abs(r) ** 2 / s, 0.0)
    costs = S.grid.half_mean(residual)
    return costs, W, worst, scale


def ols_reference(S: SpectralMatrix, target: int, max_inputs: int,
                  min_gain: float = DEFAULT_MIN_GAIN) -> SparseModel:
    """Orthogonal least squares scoring each candidate extension by its own fit."""
    pool = [b for b in range(S.n) if b != target]
    support: list[int] = []
    filters, cost = project_reference(S, target, ())
    initial = max(cost, np.finfo(float).tiny)
    stop_reason = "budget"
    while True:
        if len(support) >= min(max_inputs, len(pool)):
            stop_reason = "budget" if len(support) == max_inputs else "exhausted"
            break
        trials = {}
        for b in pool:
            if b in support:
                continue
            trials[b] = project_reference(S, target, support + [b])
        best = min(trials, key=lambda b: (trials[b][1], b))
        best_filters, best_cost = trials[best]
        gain = cost - best_cost
        if gain <= NEGLIGIBLE_RTOL * initial:
            stop_reason = "negligible-gain"
            break
        if support and gain < min_gain * max(cost, np.finfo(float).tiny):
            stop_reason = "min-gain"
            break
        support.append(best)
        filters, cost = best_filters, best_cost
    return SparseModel(target, tuple(support), filters, cost,
                       solver="ols", stop_reason=stop_reason)


def ols_per_target_reference(S: SpectralMatrix, target: int, max_inputs: int,
                             min_gain: float = DEFAULT_MIN_GAIN) -> SparseModel:
    """``sparse.orthogonal_least_squares`` as it ran before targets stepped
    in lockstep: one target at a time, its first step read from
    :func:`first_step_reference`, each later step scored by the Schur
    recursion on that target alone, each collinear candidate recorded as it
    is dropped, and each failed normal-equation check raised at once; no
    block is checked for conditioning beyond its candidates' Schur ratios.
    The same bits, events and errors."""
    pool = [b for b in range(S.n) if b != target]
    support: list[int] = []
    cost = max(inner_product(S, target, target), 0.0)
    initial = max(cost, np.finfo(float).tiny)
    while True:
        if len(support) >= max_inputs:
            stop_reason = "budget"
            break
        if pool:
            costs, fits = _schur_step_reference(S, target, support, pool)
            kept = costs < np.inf
            pool, costs = [b for b, k in zip(pool, kept) if k], costs[kept]
        if not pool:
            stop_reason = "exhausted"
            break
        pick = int(np.argmin(costs))
        best, best_cost = pool.pop(pick), float(costs[pick])
        gain = cost - best_cost
        if gain <= NEGLIGIBLE_RTOL * initial:
            stop_reason = "negligible-gain"
            break
        if support and gain < min_gain * max(cost, np.finfo(float).tiny):
            stop_reason = "min-gain"
            break
        extended = support + [best]
        support, cost = sorted(extended), best_cost
        W = fits[pick][:, np.argsort(extended)]
    filters = {b: TransferFunction(S.grid, S.grid.mirror(W[:, pos]))
               for pos, b in enumerate(support)}
    return SparseModel(target, tuple(support), filters, cost,
                       solver="ols", stop_reason=stop_reason)


def _schur_step_reference(S: SpectralMatrix, target: int, support, pool
                          ) -> tuple[np.ndarray, np.ndarray]:
    """One target's OLS step: costs ``(m,)`` (``inf`` when collinear) and the
    kept extensions' filters ``(m_kept, K/2+1, q+1)``."""
    if not support:
        costs, W, worst, scale = first_step_reference(S, target)
        others = [b for b in range(S.n) if b != target]
        free = [others.index(b) for b in pool]
        _raise_first_failure(target, worst[free], scale[free])
        return costs[free], W[free]
    support, free = np.asarray(support), np.asarray(pool)
    q, m = support.size, free.size
    idx = np.column_stack([np.broadcast_to(support, (m, q)), free])
    A = S._floored_stack[:, idx[:, :, None], idx[:, None, :]].swapaxes(0, 1)
    c = S.half[idx, target].transpose(0, 2, 1).copy()
    rhs = np.concatenate([A[:, :, :q, q].transpose(1, 2, 0), c[0, :, :q, None]],
                         axis=-1)
    # a 1 x 1 support divides by its reciprocal, as the kernel does
    solved = (rhs * (1.0 / A[0, :, :1, :1].real) if q == 1
              else np.linalg.solve(A[0, :, :q, :q], rhs))
    G, W_S = solved[..., :m].transpose(2, 0, 1), solved[..., m]
    explained = np.real(np.sum(np.conj(c[0, :, :q]) * W_S, axis=-1))
    A_bS, A_bb = A[:, :, q, :q], np.real(A[:, :, q, q])
    s = A_bb - np.real(np.sum(A_bS * G, axis=-1))
    ratio = (s / A_bb).min(axis=-1)
    kept = ratio >= CONDITION_RTOL
    for b, worst in zip(free[~kept], ratio[~kept]):
        record("collinear-candidate",
               f"candidate {S.labels[b]!r} of target {S.labels[target]!r} "
               f"is collinear with its support (Schur ratio {worst:.3e})")
    A, c, G, A_bS, s = A[kept], c[kept], G[kept], A_bS[kept], s[kept]
    r = c[:, :, q] - np.sum(A_bS * W_S, axis=-1)
    w = r / s
    W = np.concatenate([W_S - G * w[..., None], w[..., None]], axis=-1)
    lhs = np.einsum("mkab,mkb->mka", A, W)
    scale = np.maximum(
        np.max(np.abs(c), axis=(1, 2)),
        np.max(np.abs(A), axis=(1, 2, 3))
        * np.maximum(np.max(np.abs(W), axis=(1, 2)), 1.0))
    _raise_first_failure(target, np.max(np.abs(c - lhs), axis=(1, 2)),
                         np.maximum(scale, np.finfo(float).tiny))
    residual = np.maximum(np.real(S.half[target, target])
                          - explained - np.abs(r) ** 2 / s, 0.0)
    costs = np.full(m, np.inf)
    costs[kept] = S.grid.half_mean(residual)
    return costs, W


def _raise_first_failure(target: int, worst: np.ndarray, scale: np.ndarray) -> None:
    failed = np.flatnonzero(worst > 1e-8 * scale)
    if failed.size:
        f = failed[0]
        raise InvalidSpectrumError(
            f"projection for target {target} violates orthogonality by "
            f"{worst[f]:.3e} (scale {scale[f]:.3e})")


def digest_records() -> list[SpectralMatrix]:
    """The first record of ``tools/artifact_digest.py`` (``simulate --nodes 8
    --length 16384 --seed 3``) and its two variants that fail the screen:
    ``(base, duplicated, sum)``, the second with ``X1`` repeated as ``copy``,
    the third ``X1``, ``X2`` and their sum."""
    noise_seed = int(np.random.SeedSequence([3, 1]).generate_state(1)[0])
    series = simulate(generate_polytree_aln(8, 3), 16384, noise_seed).ensemble.series
    x1, x2 = series[0].samples, series[1].samples
    return [spectral_matrix(Ensemble(ens), WelchConfig())
            for ens in (series,
                        [*series, TimeSeries("copy", x1)],
                        [*series[:2], TimeSeries("sum", x1 + x2)])]


def scaled_record(scale: float = 1e5):
    """A record whose ``X1`` is scaled by ``scale``.  At 1e5 it fails the
    screen, and the winning two-input blocks of targets 1 and 3 have
    eigenvalue ratios near 2e-11, though their Schur ratios, which the
    scale does not change, are far above the rule's threshold."""
    sim = simulate(generate_polytree_aln(8, 3), 2 ** 15, seed=5)
    return spectral_matrix(
        Ensemble([TimeSeries(x.label, x.samples * scale) if x.label == "X1"
                  else x for x in sim.ensemble.series]),
        WelchConfig(grid_size=256))


def disconnected_record():
    """Two analytic networks of four series on one K = 64 grid, the second
    in units 1e5 times larger: every cross spectrum between them is exactly
    zero, so a candidate of the other network explains nothing, and the
    scale fails the screen."""
    grid = FrequencyGrid(64)
    parts = [analytic_spectra(generate_polytree_aln(4, seed), grid)
             for seed in (1, 2)]
    values = np.zeros((8, 8, grid.size), dtype=complex)
    values[:4, :4], values[4:, 4:] = parts[0].values, 1e10 * parts[1].values
    return SpectralMatrix([f"{network}{i}" for network in "AB"
                           for i in range(4)], grid, values)


def copies_record():
    """Seven series: five random ones, then a faint copy and an exact copy
    of target 4's first pick, which leave its pool at the second step."""
    base = random_psd_matrix(np.random.default_rng(4), 5, FrequencyGrid(64))
    x = orthogonal_least_squares(base, 4, 1).support[0]
    idx = list(range(5)) + [x, x]
    values = base.values[np.ix_(idx, idx)]
    values[5, 5] += 1e-12 * np.max(values[x, x].real)
    return SpectralMatrix([f"s{i}" for i in range(7)], base.grid, values)


def mp_reference(S: SpectralMatrix, target: int, max_inputs: int,
                 min_gain: float = DEFAULT_MIN_GAIN) -> SparseModel:
    """``sparse.matching_pursuit`` with one dict entry per candidate.

    Gains are scored and cross spectra updated candidate by candidate; the
    refit and the ``sparse-refit`` event are the library's.
    """
    pool = [b for b in range(S.n) if b != target]
    floored = {b: S.floored_autospectrum(b) for b in pool}
    cross = {b: S.values[b, target].copy() for b in pool}
    phi_r = np.maximum(np.real(S.values[target, target]).copy(), 0.0)
    initial = max(float(np.mean(phi_r)), np.finfo(float).tiny)
    cost = float(np.mean(phi_r))
    raw_filters: dict[int, np.ndarray] = {}
    stop_reason = "budget"
    while True:
        if len(raw_filters) >= max_inputs:
            stop_reason = "budget"
            break
        unused = [b for b in pool if b not in raw_filters]
        if not unused:
            stop_reason = "exhausted"
            break
        gains = {b: float(np.mean(np.abs(cross[b]) ** 2 / floored[b]))
                 for b in unused}
        best = min(unused, key=lambda b: (-gains[b], b))
        gain = gains[best]
        if gain <= NEGLIGIBLE_RTOL * initial:
            stop_reason = "negligible-gain"
            break
        if raw_filters and gain < min_gain * max(cost, np.finfo(float).tiny):
            stop_reason = "min-gain"
            break
        V = cross[best] / floored[best]
        phi_r = np.maximum(phi_r - np.abs(cross[best]) ** 2 / floored[best], 0.0)
        for b in unused:
            if b != best:
                cross[b] = cross[b] - V * S.values[b, best]
        raw_filters[best] = V
        cost = float(np.mean(phi_r))
    support = tuple(sorted(raw_filters))
    refit_filters, refit_cost = project(S, target, support)
    if refit_cost > cost + 1e-8 * max(1.0, cost):
        record("sparse-refit",
               f"joint refit cost {refit_cost:.6e} above greedy bookkeeping "
               f"{cost:.6e} for target {target}")
    raw = {b: TransferFunction(S.grid, resp) for b, resp in raw_filters.items()}
    return SparseModel(target, support, refit_filters, refit_cost,
                       solver="mp", stop_reason=stop_reason,
                       raw_filters=raw, raw_cost=cost)


def miso_reference(S: SpectralMatrix, D, threshold: float | None = None
                   ) -> UndirectedGraph:
    """``topology.miso_blanket_topology`` with one per-fit solve per target.

    Each target's filters come from :func:`wiener_reference`, which checks
    its own blocks' conditioning, and each input's RMS from
    ``TransferFunction.rms``; purges are recorded as the library records them.
    """
    rtol = BLANKET_RMS_RTOL if threshold is None else float(threshold)
    n = S.n
    edges: dict[tuple[int, int], float] = {}
    for j in range(n):
        inputs = [i for i in range(n) if i != j]
        W = wiener_reference(S, j, inputs)[2]
        rms = {i: TransferFunction(S.grid, W[:, pos].copy()).rms()
               for pos, i in enumerate(inputs)}
        top = max(rms.values())
        if top == 0.0:
            continue
        candidates = [i for i in inputs if rms[i] > rtol * top]
        kept = []
        for i in candidates:
            if any(max(D.values[i, c], D.values[c, j]) < D.values[i, j]
                   for c in candidates if c != i):
                record("blanket-purge",
                       f"candidate {S.labels[i]!r} of target {S.labels[j]!r} "
                       f"explained by an indirect route")
            else:
                kept.append(i)
        for i in kept:
            edges.setdefault((min(i, j), max(i, j)), float(D.values[i, j]))
    return UndirectedGraph(list(S.labels), edges)


def blanket_edges_reference(labels, rms: np.ndarray, D: np.ndarray,
                            rtol: float) -> dict[tuple[int, int], float]:
    """``topology._blanket_edges`` as ``miso_blanket_topology`` ran it, one
    target at a time: its candidates from Python floats, its purges from
    one ``np.ix_`` block of distances, its events and edges in candidate
    order."""
    n = len(labels)
    edges: dict[tuple[int, int], float] = {}
    for j in range(n):
        inputs = [i for i in range(n) if i != j]
        row = rms[j, inputs].tolist()
        top = max(row)
        if top == 0.0:
            continue
        candidates = [i for i, r in zip(inputs, row) if r > rtol * top]
        to_target = D[candidates, j]
        routes = np.maximum(D[np.ix_(candidates, candidates)],
                            to_target[None, :]) < to_target[:, None]
        np.fill_diagonal(routes, False)
        kept = []
        for i, explained in zip(candidates, routes.any(axis=1)):
            if explained:
                record("blanket-purge",
                       f"candidate {labels[i]!r} of target {labels[j]!r} "
                       f"explained by an indirect route")
            else:
                kept.append(i)
        for i in kept:
            edges.setdefault((min(i, j), max(i, j)), float(D[i, j]))
    return edges


def prufer_decode(seq: tuple[int, ...], n: int) -> frozenset:
    """Edge set of the labelled tree encoded by a Prüfer sequence."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    available = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = available.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            lo, hi = 0, len(available)
            while lo < hi:
                mid = (lo + hi) // 2
                if available[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            available.insert(lo, v)
    a, b = available
    edges.append((min(a, b), max(a, b)))
    return frozenset(edges)


def spanning_trees(n: int):
    """All labelled spanning trees on n nodes (n^(n-2) of them)."""
    if n == 2:
        yield frozenset([(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def min_tree_bruteforce(values: np.ndarray) -> list[frozenset]:
    """All minimum-total-weight spanning trees by full enumeration."""
    n = values.shape[0]
    best, minima = np.inf, []
    for tree in spanning_trees(n):
        weight = sum(values[a, b] for a, b in tree)
        if weight < best - 1e-12:
            best, minima = weight, [tree]
        elif weight <= best + 1e-12:
            minima.append(tree)
    return minima


def kruskal_reference(W: DistanceMatrix) -> Tree:
    """Kruskal's spanning tree as ``minimum_spanning_tree`` built it before
    one lexsort gave its order: every upper-triangle edge as a ``(weight,
    min index, max index)`` tuple of a numpy weight and two ints, sorted by
    Python, then joined by a union-find of its own."""
    n = W.n
    candidates = sorted(
        (W.values[a, b], a, b) for a in range(n) for b in range(a + 1, n))
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    chosen = {}
    for w, a, b in candidates:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[rb] = ra
            chosen[(a, b)] = w
            if len(chosen) == n - 1:
                break
    return Tree(W.labels, chosen)


def blanket_reference(directed_edges, node: int) -> set[int]:
    """Markov blanket straight from the definition."""
    parents = {p for p, c in directed_edges if c == node}
    children = {c for p, c in directed_edges if p == node}
    coparents = {p for p, c in directed_edges
                 if c in children and p != node}
    return parents | children | coparents


def _path_transfers(spec, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Source transfers ``H[a, i]`` by explicit path products, noise spectra."""
    n, K = spec.n, grid.size
    resp = {(l.source, l.target): grid.response_from_taps(l.taps, l.delay)
            for l in spec.links}
    children = {v: [l.target for l in spec.links if l.source == v]
                for v in range(n)}
    H = np.zeros((n, n, K), dtype=complex)
    for i in range(n):
        stack = [(i, np.ones(K, dtype=complex))]
        while stack:
            node, acc = stack.pop()
            H[node, i] = acc
            for child in children[node]:
                stack.append((child, acc * resp[(node, child)]))
    phi_e = np.repeat(spec.noise_variances[:, None], K, axis=1)
    if spec.noise_shaping is not None:
        for i, shaping in enumerate(spec.noise_shaping):
            if shaping is not None:
                phi_e[i] = phi_e[i] * np.abs(grid.response_from_taps(shaping)) ** 2
    return H, phi_e


def source_transfers_reference(spec, grid: FrequencyGrid) -> np.ndarray:
    """Source transfers ``H[a, i]`` by the topological-order recursion, one
    ``response_from_taps`` per link and ``parents_of`` per node."""
    n, k = spec.n, grid.size
    responses = {(l.source, l.target): grid.response_from_taps(l.taps, l.delay)
                 for l in spec.links}
    H = np.zeros((n, n, k), dtype=complex)
    for v in spec.topological_order():
        H[v, v] = 1.0
        for link in spec.parents_of(v):
            H[v] += responses[(link.source, v)] * H[link.source]
    return H


def cross_spectra_reference(H: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``Phi_ab = sum_i conj(H_ai) H_bi phi_i`` as one optimised ``einsum``."""
    return np.einsum("aik,bik,ik->abk", np.conj(H), H, phi, optimize=True)


def path_transfer_spectra(spec, grid: FrequencyGrid) -> np.ndarray:
    """Analytic spectral matrix via explicit path products.

    Walks, for every noise source, the unique directed paths outward
    through the link filters, multiplying responses edge by edge; no
    topological-order recursion is shared with the library implementation.
    """
    H, phi_e = _path_transfers(spec, grid)
    n = spec.n
    out = np.zeros((n, n, grid.size), dtype=complex)
    for a in range(n):
        for b in range(n):
            out[a, b] = np.sum(np.conj(H[a]) * H[b] * phi_e, axis=0)
    return out


def _longest_run(mask: np.ndarray) -> int:
    best = current = 0
    for flag in mask:
        current = current + 1 if flag else 0
        best = max(best, current)
    return best


def identifiability_reference(spec, grid: FrequencyGrid, rtol: float,
                              run: int) -> tuple[list[tuple[int, int, int]], int]:
    """Violations and exempt-pair count of the identifiability scan.

    Pair by pair and noise by noise on path-product spectra: a related pair
    ``i <= j`` (some noise reaches both) fails with noise ``k`` unless
    ``|Phi_ij| * phi_k`` stays above ``rtol`` times its maximum on ``run``
    consecutive grid points.
    """
    H, phi_e = _path_transfers(spec, grid)
    S = path_transfer_spectra(spec, grid)
    n = spec.n
    violations, exempt = [], 0
    for i in range(n):
        for j in range(i, n):
            if not any(np.any(H[i, s] != 0) and np.any(H[j, s] != 0)
                       for s in range(n)):
                exempt += 1
                continue
            for k in range(n):
                product = np.abs(S[i, j]) * phi_e[k]
                top = float(np.max(product))
                if top == 0.0 or _longest_run(product > rtol * top) < run:
                    violations.append((i, j, k))
    return violations, exempt


def random_psd_matrix(rng: np.random.Generator, n: int, grid: FrequencyGrid,
                      fir_len: int = 4) -> SpectralMatrix:
    """Random rational spectral matrix S = H^H D H with FIR mixing rows.

    Positive semi-definite at every frequency by construction; a small
    white floor keeps it strictly positive definite.
    """
    K = grid.size
    H = np.zeros((n, n, K), dtype=complex)
    for i in range(n):
        for j in range(n):
            taps = rng.uniform(-1.0, 1.0, size=fir_len)
            H[i, j] = grid.response_from_taps(taps)
    d = rng.uniform(0.2, 2.0, size=n)
    values = np.einsum("iak,ibk,i->abk", np.conj(H), H, d, optimize=True)
    floor = 1e-6
    idx = np.arange(n)
    values[idx, idx] = values[idx, idx].real + floor
    labels = [f"s{i}" for i in range(n)]
    return SpectralMatrix(labels, grid, values)


def half_grid_matrix(producer: str, n: int, size: int) -> SpectralMatrix:
    """An analytic or a Welch spectral matrix of an ``n``-node polytree."""
    spec = generate_polytree_aln(n, seed=n)
    if producer == "analytic":
        return analytic_spectra(spec, FrequencyGrid(size))
    return spectral_matrix(simulate(spec, 1 << 13, seed=n).ensemble,
                           WelchConfig(grid_size=size))


def sinusoid_ensemble() -> Ensemble:
    """Four series, each a sum of five low-frequency sinusoids.

    Their Welch auto-spectra on a 256-point grid fall below the spectral
    floor at high frequencies, so every series is floored.
    """
    t = np.arange(8192)
    return Ensemble([
        TimeSeries(label, sum(np.sin(2 * np.pi * (m + 1 + 0.37 * k) * t / 1024
                                     + k + m) for m in range(5)))
        for k, label in enumerate("abcd")])


def make_two_sparse_instance(seed: int, correlated: bool):
    """A 6-node spectral matrix whose last node is exactly 2-sparse.

    Five candidate processes (independent white, or correlated through a
    random tree when ``correlated``) plus a target built from FIR filters on
    two distinct candidates and an independent disturbance.  Returns
    ``(S, target_index, true_support)``.
    """
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(256)
    K = grid.size
    m = 5
    if correlated:
        cand = generate_polytree_aln(m, seed=int(rng.integers(1 << 31)))
        Hc = source_transfers_reference(cand, grid)
        phi_e = _noise_spectra(cand, grid)
    else:
        Hc = np.zeros((m, m, K), dtype=complex)
        for i in range(m):
            Hc[i, i] = 1.0
        phi_e = np.repeat(rng.uniform(0.5, 2.0, size=m)[:, None], K, axis=1)
    a, b = sorted(rng.choice(m, size=2, replace=False).tolist())
    ga = grid.response_from_taps(rng.uniform(0.5, 1.5) *
                                 np.array([1.0, rng.uniform(-0.5, 0.5)]))
    gb = grid.response_from_taps(rng.uniform(0.5, 1.5) *
                                 np.array([1.0, rng.uniform(-0.5, 0.5)]), 1)
    sigma_t = rng.uniform(0.05, 0.2)

    # extended transfer rows: sources are the 5 candidate noises + e_t
    H = np.zeros((m + 1, m + 1, K), dtype=complex)
    H[:m, :m] = Hc
    H[m, :m] = ga * Hc[a] + gb * Hc[b]
    H[m, m] = 1.0
    phi = np.zeros((m + 1, K))
    phi[:m] = phi_e
    phi[m] = sigma_t
    values = np.einsum("aik,bik,ik->abk", np.conj(H), H, phi, optimize=True)
    labels = [f"c{i}" for i in range(m)] + ["t"]
    return SpectralMatrix(labels, grid, values), m, (a, b)


def read_csv_reference(path: Path) -> Ensemble:
    """``cli.read_ensemble_csv`` as it was: ``csv.reader`` and ``float()``
    cell by cell, and a ``nan`` or infinite cell refused where it stands.
    A ``csv.Error`` (a cell over the field limit) escapes."""
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports often write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [cell.strip() for cell in next(reader)]
            except StopIteration:
                raise InputFormatError(f"{path}: file is empty") from None
            if len(header) < 2:
                raise InputFormatError(
                    f"{path}: need at least 2 series columns, found {len(header)}")
            if any(not cell for cell in header):
                raise InputFormatError(f"{path}: line 1: blank series label")
            columns: list[list[float]] = [[] for _ in header]
            for line_no, row in enumerate(reader, 2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputFormatError(
                        f"{path}: line {line_no}: expected {len(header)} values, "
                        f"found {len(row)}")
                for col, cell in enumerate(row):
                    cell = cell.strip()
                    if not cell:
                        raise InputFormatError(
                            f"{path}: line {line_no}, column {col + 1} "
                            f"({header[col]!r}): missing value")
                    try:
                        columns[col].append(float(cell))
                    except ValueError:
                        raise InputFormatError(
                            f"{path}: line {line_no}, column {col + 1} "
                            f"({header[col]!r}): cannot parse {cell!r} as a "
                            f"number") from None
                    if not math.isfinite(columns[col][-1]):
                        raise InputFormatError(
                            f"{path}: line {line_no}, column {col + 1} "
                            f"({header[col]!r}): {cell!r} is not a finite "
                            f"number")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not columns[0]:
        raise InputFormatError(f"{path}: no data rows")
    series = [TimeSeries(label, np.asarray(col, dtype=float))
              for label, col in zip(header, columns)]
    return Ensemble(series)


def csv_text_reference(header: list, rows) -> str:
    """CSV text as ``cli.matrix_csv_text`` and ``cli.ensemble_csv_text`` built
    it: every row, Python floats included, through ``csv.writer``.

    ``ensemble_csv_text(ens)`` was ``csv_text_reference(ens.labels,
    ens.values().T.tolist())``; ``matrix_csv_text(labels, values)`` was
    ``csv_text_reference(["label"] + labels, [[label] + row ...])``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
