"""Wiener filtering on the frequency grid.

The non-causal filter is the per-frequency least-squares solution
``W(omega) = Phi_x(omega)^{-1} c(omega)`` with ``c_a = Phi_{x_a -> y}``; it
is weighting-independent.  The causal filter solves the one-sided problem
through the classical Wiener--Hopf split: factor the input spectrum as
``Phi = G * conj(G)`` and the target's as ``F * conj(F)``, both minimum
phase, keep the causal part of the whitened cross spectrum, and undo the
whitening,

    W_c = F * { Phi_xy / (F * conj(G)) }_causal / G.

Whitening the target makes the cost the dimensionless error variance of the
whitened residual (1 for the zero filter), which by Parseval is 1 less the
energy of the causal part: ``1 - sum_{tau < K/2} c_tau^2``, where ``c`` is
the whitened cross spectrum's real sequence.  Spectral factorization uses
the real-cepstrum construction, which is exact in magnitude on the grid by
design.  This module alone reads the conditioning screen
(:func:`_clears_screen`, proved by one Cholesky certificate when it can
be), so it alone decides how a multi-input fit is computed, and it owns
the one rule on whether a fit's inputs are usable: each input's Schur
ratio against the inputs taken before it (:func:`_schur_ratios`) must
pass :func:`_usable`.  OLS steps score a block of targets at once
(:func:`_extension_costs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import memo, record
from .errors import (
    IllConditionedSpectrumError,
    InvalidParameterError,
    InvalidSpectrumError,
)
from .signals import (FrequencyGrid, SpectralMatrix, Spectrum, _array, _floor,
                      _integer)

#: Fraction of total impulse energy that may be discarded by support
#: truncation before a diagnostic event is recorded.
TRUNCATION_ENERGY_TOL = 1e-6

#: Least Schur ratio of a usable input (:func:`_usable`); the conditioning
#: screen asks twice it of the whole floored matrix's eigenvalue ratio.
CONDITION_RTOL = 1e-10


@dataclass
class TransferFunction:
    """A linear filter known by its grid response, optionally by its taps.

    ``impulse[u]`` (when present, a non-empty real vector by
    :func:`~polyscope.signals._array`) is the coefficient at time
    ``support_offset + u``, an integer; a causal filter has
    ``support_offset >= 0``.  ``response`` holds one value per grid point
    (:meth:`FrequencyGrid.on_grid`).
    Filters built from taps satisfy ``DFT(impulse) == response`` exactly;
    filters materialised from a response (:meth:`with_impulse`) keep the
    analytic response, take the causal taps and may record a
    truncation-energy diagnostic when the discarded anti-causal part is not
    negligible.
    """

    grid: FrequencyGrid
    response: np.ndarray
    impulse: np.ndarray | None = None
    support_offset: int = 0

    def __post_init__(self):
        self.response = self.grid.on_grid(self.response, complex, "response")
        self.support_offset = _integer(self.support_offset, "support offset")
        if self.impulse is not None:
            self.impulse = _array(self.impulse, float, "impulse", (None,))

    @classmethod
    def from_taps(cls, grid: FrequencyGrid, taps, offset: int = 0) -> "TransferFunction":
        return cls(grid, grid.response_from_taps(taps, offset), taps, offset)

    def rms(self) -> float:
        """Root mean square response magnitude over the grid."""
        return float(self.grid.rms(self.response))

    def with_impulse(self) -> "TransferFunction":
        """Materialise the causal impulse response, the taps at times
        ``[0, K/2)``, from the response.

        A filter that has its taps keeps them.  The discarded energy
        fraction is checked against :data:`TRUNCATION_ENERGY_TOL`.
        """
        if self.impulse is not None:
            return self
        taps = self.grid.taps_from_response(self.response)[0]
        kept = taps[self.grid.size // 2:]        # tap index of time 0 onwards
        total = float(np.sum(taps ** 2))
        lost = total - float(np.sum(kept ** 2))
        if total > 0 and lost > TRUNCATION_ENERGY_TOL * total:
            record("truncation-energy",
                   f"impulse truncation discards {lost / total:.2e} "
                   "of the energy (causal support)")
        return TransferFunction(self.grid, self.response, kept, 0)


@dataclass
class WienerSolution:
    """Optimal filters for one target, with the residual error spectrum.

    ``cost`` is non-negative and equals the grid mean of
    ``residual_spectrum`` (the ``(1/2pi) d omega`` integral) within ``1e-8``
    of ``max(1, cost)``: :func:`noncausal_wiener` takes it as that mean,
    :func:`causal_wiener` by Parseval from the whitened cross spectrum's
    sequence, which its spectrum matches to rounding.  Whether that
    spectrum is raw or whitened by the target factor depends on the
    operation that produced it.
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


def _check_support(target: int, inputs: tuple) -> None:
    """Reject a fit support that repeats an input or holds the target: the
    one rule on which inputs a fit may use, read by :func:`_check_inputs`
    and :class:`~polyscope.sparse.SparseModel`."""
    if len(set(inputs)) != len(inputs):
        raise InvalidParameterError("duplicate inputs")
    if target in inputs:
        raise InvalidParameterError("target cannot be one of its inputs")


def _check_inputs(S: SpectralMatrix, target: int, inputs: tuple) -> None:
    """Reject an empty input set or an index out of range, then a support
    that :func:`_check_support` rejects."""
    if not inputs:
        raise InvalidParameterError("at least one input is required")
    S.check_index(*inputs, target)
    _check_support(target, inputs)


def _clears_screen(S: SpectralMatrix) -> bool:
    """Whether every fit on ``S`` is conditioned well enough to need no
    check of its own; kept per matrix by :func:`~polyscope.diagnostics.memo`.

    A fit's blocks are principal submatrices of the floored spectral
    matrix, so by Cauchy interlacing their eigenvalue ratios are no smaller
    than the whole matrix's, ``S._eigenvalue_ratio``, when that is positive,
    and no Schur ratio of a block is smaller than its eigenvalue ratio (see
    :func:`_certified`).  The screen holds when that ratio is at least twice
    :data:`CONDITION_RTOL`, which leaves :data:`CONDITION_RTOL` of the
    largest eigenvalue for rounding, far above the eigensolver's error of a
    few ``n * eps``.  :func:`_screen_certificate` is tried first; only when
    it fails does the ratio's eigensolve decide, so the answer is the
    ratio's either way.
    """
    return memo(S._memo, "_clears_screen", lambda: _screen_certificate(S)
                or S._eigenvalue_ratio >= 2 * CONDITION_RTOL)


def _screen_certificate(S: SpectralMatrix) -> bool:
    """Whether :func:`_certified` proves the screen for the whole floored
    stack, its trace the sum of :attr:`SpectralMatrix._floored`.  On the
    stack of 32 series at K 64 the factorization takes about 0.3 ms, the
    eigensolve about 2 ms."""
    return _certified(S._floored_stack, np.sum(S._floored, axis=0))


def _certified(A: np.ndarray, trace: np.ndarray) -> bool:
    """Whether one Cholesky factorization per grid point proves that each
    matrix of the stack ``A (K/2+1, q, q)`` has an eigenvalue ratio of at
    least ``2 * CONDITION_RTOL``, as an eigensolver computes it; ``trace``
    holds their ``(K/2+1,)`` traces.

    Each matrix is shifted by ``tau * b``, where ``b`` is its trace and
    ``tau`` is ``2 * CONDITION_RTOL`` plus ``4 (q+1)^2 eps``, and the whole
    stack is factored.  A factorization that succeeds is exact for the
    shifted matrix plus a perturbation of norm at most about ``q (q+1) eps
    b`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, ch. 10), so the matrix is positive definite, ``b`` bounds its
    largest eigenvalue, and its least eigenvalue exceeds ``(2 *
    CONDITION_RTOL + 3 (q+1)^2 eps) b``: the rest of the margin covers the
    eigensolver's own error, so the ratio it computes clears ``2 *
    CONDITION_RTOL`` too.  A failed factorization proves nothing.

    A proved block keeps every input by the conditioning rule, so
    :func:`_eliminated` eliminates nothing: an eigenvalue ratio of at least
    ``2 * CONDITION_RTOL`` bounds every Schur ratio from below, since a
    Schur complement ``s_b`` is at least the least eigenvalue and ``A_bb``
    at most the greatest, and the margin beyond ``CONDITION_RTOL`` covers
    an elimination's rounding.
    """
    shifted, d = A.copy(), np.arange(A.shape[-1])
    tau = 2 * CONDITION_RTOL + 4 * (d.size + 1) ** 2 * np.finfo(float).eps
    shifted[:, d, d] -= tau * trace[:, None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _schur_ratios(s: np.ndarray, A_bb: np.ndarray) -> np.ndarray:
    """The Schur ratio of an input at each half-grid point: its Schur
    complement ``s`` against the inputs taken before it over its floored
    auto-spectrum ``A_bb``, 1 for the first input.  The input is usable
    when its worst ratio over the grid passes :func:`_usable`; the
    ratio does not change when a series is multiplied by a constant."""
    return s / A_bb


def _usable(ratio):
    """The one conditioning rule of every fit: whether an input's worst
    Schur ratio is at least :data:`CONDITION_RTOL`.  A non-positive or NaN
    ratio fails."""
    return ratio >= CONDITION_RTOL


def _collinear(S: SpectralMatrix, candidate: int, target: int, ratio) -> str:
    """The ``collinear-candidate`` text of an input ``candidate`` that
    :func:`_usable` leaves out of ``target``'s fit at worst ratio
    ``ratio``."""
    return (f"candidate {S.labels[candidate]!r} of target "
            f"{S.labels[target]!r} is collinear with its support "
            f"(Schur ratio {ratio:.3e})")


def _eliminated(S: SpectralMatrix, inputs) -> tuple[list, list]:
    """One elimination of the inputs' floored block ``(K/2+1, q, q)`` in the
    order given, leaving out each input whose worst Schur ratio
    (:func:`_schur_ratios`) against the inputs kept before it fails
    :func:`_usable`.

    The pivots of the elimination are those Schur complements; a left-out
    input is not eliminated, so it changes no later pivot.  When
    :func:`_certified` proves the block, nothing is eliminated and every
    input is kept.  Returns the kept inputs in order and, for each input
    left out, ``(input, point, ratio)``: its worst :attr:`FrequencyGrid.half`
    point and its ratio there.
    """
    idx = np.asarray(inputs)
    M = S._floored_stack[:, idx[:, None], idx[None, :]]
    A_bb = S._floored[idx]
    if _certified(M, np.sum(A_bb, axis=0)):
        return list(inputs), []
    kept, dropped = [], []
    for p, b in enumerate(inputs):
        pivot = M[:, p, p].real
        ratios = _schur_ratios(pivot, A_bb[p])
        point = int(np.argmin(ratios))
        if not _usable(ratios[point]):
            dropped.append((b, point, float(ratios[point])))
            continue
        kept.append(b)
        column = M[:, p + 1:, p]
        M[:, p + 1:, p + 1:] -= (column[:, :, None]
                                 * (np.conj(column) / pivot[:, None])[:, None])
    return kept, dropped


def _check_conditioning(S: SpectralMatrix, inputs) -> None:
    """Raise :class:`IllConditionedSpectrumError` when :func:`_eliminated`
    leaves out any of ``inputs``, taken in index order, naming the first
    input it leaves out, the frequency of its worst Schur ratio and that
    ratio.  Nothing is computed when :func:`_clears_screen` holds.
    """
    if _clears_screen(S):
        return
    dropped = _eliminated(S, sorted(inputs))[1]
    if dropped:
        b, point, ratio = dropped[0]
        raise IllConditionedSpectrumError(
            f"input spectral matrix singular beyond the floor at "
            f"omega={S.grid.omegas[point]:.6f} (input {S.labels[b]!r}, "
            f"Schur ratio {ratio:.3e})")


def _joint_fits(S: SpectralMatrix, target: int, inputs
                ) -> tuple[np.ndarray, np.ndarray]:
    """Joint least-squares fit of ``target`` on one valid input set (see
    :func:`_check_inputs`) that the conditioning rule keeps whole (its
    caller checks that, by :func:`_check_conditioning` or
    :func:`_eliminated`).

    The solution is always checked against its normal equations (residual
    orthogonal to every input).  Returns the filter responses ``W (K/2+1,
    q)`` (column ``p`` belongs to ``inputs[p]``; :func:`_filters` mirrors
    them) and the raw residual spectrum, both on the
    :attr:`FrequencyGrid.half` grid.
    """
    idx = np.asarray(inputs)
    A = S._floored_stack[:, idx[:, None], idx][None]
    c = S.half[idx, target].T[None].copy()
    W = np.linalg.solve(A, c[..., None])[..., 0]
    _check_orthogonality(target, A, c, W)
    explained = np.real(np.sum(np.conj(c[0]) * W[0], axis=-1))
    return W[0], np.maximum(np.real(S.half[target, target]) - explained, 0.0)


def _extension_costs(S: SpectralMatrix, targets, supports, pools) -> list:
    """Costs and filters of the joint fits of each of a block of targets on
    ``support + [b]``, one per ``b`` in its pool, from the fit on its
    ``support`` alone.

    This is the orthogonal least squares recursion (Chen, Billings & Luo,
    Int. J. Control 50(5), 1989).  At each frequency, with ``A_SS W_S = c_S``
    the support's fit, adding ``b`` lowers the residual spectrum by
    ``|r_b|^2 / s_b``, where ``G_b = A_SS^{-1} A_Sb``, the Schur complement
    is ``s_b = A_bb - A_bS G_b`` and ``r_b = c_b - A_bS W_S``.  One solve of
    ``A_SS`` against ``[A_S,pool | c_S]`` serves every candidate of a
    target.  Targets with pools of one size are solved as one stack, so
    each target's solve has the shapes of its own and every elementwise
    operation and reduction meets the same values in the same order: a
    target's bits do not depend on the targets beside it.  An empty support
    is the case ``q = 0`` of the same steps, with nothing to solve: its
    filters are ``c_b / A_bb``; a 1 x 1 support divides
    (:func:`_support_solve`).  Residuals are clipped at zero as in
    :func:`_joint_fits`; costs are their :meth:`FrequencyGrid.half_mean`.

    A candidate whose Schur ratio ``s_b / A_bb`` (:func:`_schur_ratios`)
    fails :func:`_usable` is collinear with the support, by the rule
    :func:`_eliminated` applies to every other fit: it costs ``inf``, its
    filters are not returned, its fit is not checked, and it is named in a
    ``collinear-candidate`` message (:func:`_collinear`).  Its Schur
    complement can only shrink as the support grows.  When
    :func:`_clears_screen` holds no candidate is dropped, since interlacing
    keeps ``s_b / A_bb`` at or above the screen's ratio.  Every other
    extension's filters, ``w_b = r_b / s_b`` for ``b`` and ``W_S - G_b w_b``
    for the support, are checked against their normal equations by
    :func:`_extension_orthogonality`, from the parts of the extension's
    ``(q+1, q+1)`` block, under :func:`_orthogonality_failures`, the rule
    :func:`_joint_fits` checks its own fit by.

    ``targets`` are distinct indices; ``supports`` holds one support per
    target, all of one size ``q``, each empty or a valid input set whose own
    fit is solvable; ``pools`` holds one sorted non-empty list of inputs
    outside its support per target.  Nothing is recorded and nothing
    raised: each target gets ``(costs, W, messages, error)``, its ``(m,)``
    costs (``inf`` for each collinear candidate), the checked half-grid
    filters ``W (m_kept, K/2+1, q+1)`` of its kept extensions in pool order
    with columns in ``support + [b]`` order, its ``collinear-candidate``
    messages, and the error of its first failed check, or None.  A cost
    equals its filters' joint solve to rounding, not bit for bit.
    """
    supports = np.asarray(supports, dtype=int).reshape(len(targets), -1)
    scored = [None] * len(targets)
    sizes = [len(pool) for pool in pools]
    for m in sorted(set(sizes)):
        rows = [i for i, size in enumerate(sizes) if size == m]
        for i, result in zip(rows, _extension_stack(
                S, [targets[i] for i in rows], supports[rows],
                np.asarray([pools[i] for i in rows], dtype=int))):
            scored[i] = result
    return scored


def _extension_stack(S: SpectralMatrix, targets, supports: np.ndarray,
                     pools: np.ndarray) -> list:
    """:func:`_extension_costs` of ``g`` targets with ``(g, q)`` supports and
    ``(g, m)`` pools of one size, as one stack.

    Each part of the normal equations is read from ``S`` once and kept
    apart, ``A_SS (g, K/2+1, q, q)`` and ``c_S (g, K/2+1, q)`` per target,
    ``A_Sb (g, K/2+1, q, m)``, ``A_bS (g, m, K/2+1, q)``, the floored
    ``A_bb`` and ``c_b (g, m, K/2+1)`` per candidate: no extension's block
    is gathered, neither for the recursion nor for the normal-equation
    check, which reads the same parts.  An empty support solves nothing:
    its ``G_b`` and ``W_S`` are empty.  The residuals, Schur complements and
    ``G`` are freed before the check, whose temporaries take their place."""
    (g, q), m = supports.shape, pools.shape[1]
    t, inputs = np.asarray(targets)[:, None], supports[:, :, None]
    F = S._floored_stack
    A_SS = np.moveaxis(F[:, inputs, supports[:, None, :]], 0, 1)
    c_S = np.moveaxis(S.half[supports, t], -1, 1)           # (g, K/2+1, q)
    A_Sb = np.moveaxis(F[:, inputs, pools[:, None, :]], 0, 1)
    A_bS = np.moveaxis(F[:, pools[:, :, None], supports[:, None, :]], 0, 2)
    A_bb, c_b = S._floored[pools], S.half[pools, t]         # (g, m, K/2+1)
    G, W_S = _support_solve(A_SS, A_Sb, c_S)
    G, W_S = G.transpose(0, 3, 1, 2), W_S[:, None]     # (g, m | 1, K/2+1, q)
    explained = np.real(np.sum(np.conj(c_S) * W_S[:, 0], axis=-1))
    s = A_bb - np.real(np.sum(A_bS * G, axis=-1))
    ratio = _schur_ratios(s, A_bb).min(axis=-1)
    kept = _usable(ratio)
    if not kept.all():      # a collinear candidate enters no division by s
        s = np.where(kept[..., None], s, A_bb)
    r = c_b - np.sum(A_bS * W_S, axis=-1)
    W = np.empty(A_bS.shape[:-1] + (q + 1,), complex)
    w = np.divide(r, s, out=W[..., q])
    W[..., :q] = W_S - G * w[..., None]
    residual = np.maximum(np.real(S.half[targets, targets])[:, None]
                          - explained[:, None] - np.abs(r) ** 2 / s, 0.0)
    costs = np.where(kept, S.grid.half_mean(residual), np.inf)
    del G, r, s, residual   # the check's temporaries take their place
    failed, worst, scale = _extension_orthogonality(A_SS, A_Sb, A_bS, A_bb,
                                                    c_S, c_b, W)
    messages, errors = [[] for _ in targets], [None] * g
    for i, j in zip(*np.nonzero(~kept)):
        messages[i].append(_collinear(S, pools[i, j], targets[i], ratio[i, j]))
    for i, j in zip(*np.nonzero(failed & kept)):
        if errors[i] is None:       # target i's first failed fit
            errors[i] = _orthogonality_error(targets[i], worst[i, j],
                                             scale[i, j])
    return [(costs[i], W[i] if kept[i].all() else W[i][kept[i]], messages[i],
             errors[i]) for i in range(g)]


def _support_solve(A_SS: np.ndarray, A_Sb: np.ndarray, c_S: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``G = A_SS^{-1} A_Sb`` and ``W_S = A_SS^{-1} c_S`` of each target's
    support, ``A_SS (g, K/2+1, q, q)``, ``A_Sb (g, K/2+1, q, m)`` and ``c_S
    (g, K/2+1, q)``, in their layouts.

    An empty support solves nothing.  A 1 x 1 support, every support at
    budget 2, is its floored auto-spectrum, real and positive: its systems
    are multiplied by its reciprocal, where ``np.linalg.solve`` pays a
    LAPACK call for each; the result agrees with LAPACK's within ``2 eps``
    of its magnitude, and often bit for bit.  Larger supports go to
    ``np.linalg.solve`` as one stack.
    """
    q, m = A_Sb.shape[-2:]
    if q == 1:
        inverse = 1.0 / A_SS.real
        return A_Sb * inverse, c_S * inverse[..., 0]
    if q:
        solved = np.linalg.solve(
            A_SS, np.concatenate([A_Sb, c_S[..., None]], axis=-1))
        return solved[..., :m], solved[..., m]
    return A_Sb, c_S


def _filter_rms(S: SpectralMatrix) -> np.ndarray:
    """``(n, n)`` filter RMS: ``[j, i]`` for input ``i`` of target ``j``'s
    :func:`noncausal_wiener` filter over all other series.

    When :func:`_clears_screen` holds, every filter is read from one inverse
    ``P`` of ``S._floored_stack``: the filter of target ``j`` on input ``i``
    is ``-P[i, j] / P[j, j]``.  Otherwise each target takes one
    :func:`_eliminated` pass over the other series in index order: each
    input it leaves out is recorded (``collinear-candidate``) and gets RMS
    0, and the kept inputs' filters are their joint solve by
    :func:`_joint_fits`, which a block :func:`_certified` proves keeps
    whole.  Either way the RMS is taken by :meth:`FrequencyGrid.half_mean`.
    The diagonal is 1 and means nothing.
    """
    if _clears_screen(S):
        P = np.linalg.inv(S._floored_stack)
        d = np.arange(S.n)
        W = (P / P[:, d, d][:, None, :]).transpose(2, 1, 0)
    else:
        W = np.ones((S.n, S.n, S.grid.size // 2 + 1), dtype=complex)
        for j in range(S.n):
            kept, dropped = _eliminated(S, [i for i in range(S.n) if i != j])
            for b, _, ratio in dropped:
                record("collinear-candidate", _collinear(S, b, j, ratio))
                W[j, b] = 0.0
            W[j, kept] = _joint_fits(S, j, kept)[0].T
    return np.sqrt(S.grid.half_mean(np.abs(W) ** 2))


def _orthogonality_failures(worst, c_max, A_max, W_max
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The normal-equation rule every checked fit obeys, from its maxima.

    A fit ``A W = c`` fails when its largest residual ``worst = max|c - A W|``
    exceeds ``1e-8`` of its scale, the larger of ``max|c|`` and
    ``max|A| * max(max|W|, 1)`` (at least the smallest normal float).  The
    arguments are per-fit maxima of any one broadcast shape; returns the
    failure mask and the scales.
    """
    scale = np.maximum(c_max, A_max * np.maximum(W_max, 1.0))
    scale = np.maximum(scale, np.finfo(float).tiny)
    return worst > 1e-8 * scale, scale


def _orthogonality_error(target: int, worst, scale) -> InvalidSpectrumError:
    return InvalidSpectrumError(
        f"projection for target {target} violates orthogonality by "
        f"{worst:.3e} (scale {scale:.3e})")


def _extension_orthogonality(A_SS, A_Sb, A_bS, A_bb, c_S, c_b, W
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normal-equation check of each extension of a stack by
    :func:`_orthogonality_failures`, as :func:`_check_orthogonality` checks
    a gathered fit, read from the parts :func:`_extension_stack` holds:
    ``A_SS (g, K/2+1, q, q)``, ``A_Sb (g, K/2+1, q, m)``, ``A_bS (g, m,
    K/2+1, q)``, ``A_bb`` and ``c_b (g, m, K/2+1)``, ``c_S (g, K/2+1, q)``
    and the filters ``W (g, m, K/2+1, q+1)``.

    The support's rows are ``A_SS W_S + A_Sb w`` and the candidate's row is
    ``A_bS W_S + A_bb w``.  The maxima ``c_max``, ``A_max`` and ``W_max``
    are taken over the same values as the block's (``|A_bS| = |A_Sb|``
    exactly, the matrix being exactly Hermitian), so they keep its bits, and
    so does ``worst`` at ``q = 0``; at ``q >= 1`` its rows sum in another
    order, so it may differ by rounding.  Returns the failure mask, the
    largest residuals and the scales, ``(g, m)`` each."""
    W_S, w = W[..., :-1], W[..., -1]
    lhs = A_bb * w                                      # the candidate's row
    c_max, A_max = np.max(np.abs(c_b), axis=-1), np.max(A_bb, axis=-1)
    rows = 0.0
    if W_S.shape[-1]:
        lhs += np.sum(A_bS * W_S, axis=-1)
        support = np.einsum("gkab,gmkb->gmka", A_SS, W_S)
        support += A_Sb.transpose(0, 3, 1, 2) * w[..., None]
        rows = np.max(np.abs(np.subtract(c_S[:, None], support, out=support)),
                      axis=(-2, -1))
        c_max = np.maximum(c_max, np.max(np.abs(c_S), axis=(-2, -1))[:, None])
        A_max = np.maximum(A_max, np.maximum(
            np.max(np.abs(A_SS), axis=(-3, -2, -1))[:, None],
            np.max(np.abs(A_Sb), axis=(-3, -2))))
    worst = np.maximum(
        np.max(np.abs(np.subtract(c_b, lhs, out=lhs)), axis=-1), rows)
    failed, scale = _orthogonality_failures(
        worst, c_max, A_max, np.max(np.abs(W), axis=(-2, -1)))
    return failed, worst, scale


def _check_orthogonality(target: int, A: np.ndarray, c: np.ndarray,
                         W: np.ndarray) -> None:
    """Check each fit's normal equations hold, residual orthogonal to every
    input, by :func:`_orthogonality_failures`: fits ``A (..., K/2+1, q,
    q)``, ``c`` and ``W (..., K/2+1, q)``.  The first failing fit raises."""
    lhs = np.einsum("...ab,...b->...a", A, W)
    worst = np.max(np.abs(np.subtract(c, lhs, out=lhs)), axis=(-2, -1))
    failed, scale = _orthogonality_failures(
        worst, np.max(np.abs(c), axis=(-2, -1)),
        np.max(np.abs(A), axis=(-3, -2, -1)), np.max(np.abs(W), axis=(-2, -1)))
    if failed.any():
        f = np.flatnonzero(failed)[0]
        raise _orthogonality_error(target, worst[f], scale[f])


def _filters(grid: FrequencyGrid, inputs, W: np.ndarray) -> dict[int, TransferFunction]:
    """One fit's half-grid filter columns ``W (K/2+1, q)`` as transfer
    functions on the full grid, keyed by input."""
    full = grid.mirror(W.T)
    return {a: TransferFunction(grid, full[pos]) for pos, a in enumerate(inputs)}


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
    _check_conditioning(S, inputs)
    W, residual = _joint_fits(S, target, inputs)
    if normalize:
        residual = residual / S._floored[target]
    return WienerSolution(target, inputs, _filters(S.grid, inputs, W),
                          float(S.grid.half_mean(residual)),
                          Spectrum(S.grid, S.grid.mirror(residual)))


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
    responses, taps = _spectral_factors(phi.grid, floored[None, phi.grid.half])
    return TransferFunction(phi.grid, phi.grid.mirror(responses[0]), taps[0], 0)


def _spectral_factors(grid: FrequencyGrid, phi: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Cepstral factors of each row of positive real even spectra ``phi``,
    given at the :attr:`FrequencyGrid.half` points, ``(m, K/2+1)``.

    The rows must already be floored by ``signals._floor``: a matrix's come
    from ``SpectralMatrix._floored``, a single spectrum's from
    :func:`spectral_factorize`.  The cepstrum of ``log phi`` is real and
    even, and the factor's response is conjugate-even, so every DFT is a
    real-sequence kernel (:meth:`FrequencyGrid.half_to_time` and
    :meth:`FrequencyGrid.half_from_time`).  Returns the half-grid responses
    ``(m, K/2+1)`` and the first K/2 taps ``(m, K/2)``; a row whose
    discarded tail holds more than :data:`TRUNCATION_ENERGY_TOL` of its
    energy is recorded.
    """
    k = grid.size
    cepstrum = grid.half_to_time(np.log(phi))
    folded = np.zeros_like(cepstrum)
    folded[:, 0] = 0.5 * cepstrum[:, 0]
    folded[:, 1:k // 2] = cepstrum[:, 1:k // 2]
    folded[:, k // 2] = 0.5 * cepstrum[:, k // 2]
    responses = np.exp(grid.half_from_time(folded))

    taps_full = grid.half_to_time(responses)
    tail = np.sum(taps_full[:, k // 2:] ** 2, axis=-1)
    total = np.sum(taps_full ** 2, axis=-1)
    for row in range(phi.shape[0]):
        if total[row] > 0 and tail[row] > TRUNCATION_ENERGY_TOL * total[row]:
            record("truncation-energy",
                   f"spectral factor tail holds {tail[row] / total[row]:.2e} "
                   f"of the energy")
    return responses, taps_full[:, :k // 2]


def _wiener_hopf(S: SpectralMatrix, targets, inputs, target_inverses: np.ndarray,
                 input_inverses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitened one-sided Wiener costs of each of a block of ``b`` targets on
    each of ``m`` single inputs, all in one pass.

    ``targets`` is a slice and ``inputs`` a slice or an index array;
    ``target_inverses (b, K/2+1)`` holds ``1 / F_t`` and ``input_inverses
    (m, K/2+1)`` holds ``1 / conj(G_i)``, of the half-grid responses of
    :func:`_spectral_factors`, each taken once per matrix by its caller.  The
    whitened cross spectrum ``Phi_{i -> t} / (F_t conj(G_i))`` is
    conjugate-even, so one ``irfft`` of the block gives its real sequence
    ``c (b, m, K)`` (:meth:`FrequencyGrid.half_to_time`).  The optimal
    causal filter keeps ``c`` at times ``0 ... K/2 - 1``, so by Parseval its
    whitened error variance is ``1 - sum_{tau < K/2} c_tau^2`` (Wiener 1949;
    Kailath, Sayed & Hassibi, *Linear Estimation*, 2000, ch. 7): the cost
    of ``[t, i]``, ``(b, m)``, exact when ``S`` is positive semidefinite and
    below 0 by rounding alone.  Every pair gets the same elementwise
    operations and the same row reduction in the same order whatever the
    block, so a pair's bits do not depend on the targets and inputs solved
    beside it.  Returns ``c`` and the costs; a call's allocations peak at
    about three times ``c``'s bytes, which it returns.
    """
    cross = S.half[inputs, targets].swapaxes(0, 1)    # Phi_{input -> target}
    white = target_inverses[:, None] * cross
    white *= input_inverses
    c = S.grid.half_to_time(white)
    del white
    return c, 1.0 - np.sum(np.square(c[..., :S.grid.size // 2]), axis=-1)


def _causal_pair(S: SpectralMatrix, target: int, input_: int
                 ) -> tuple[np.ndarray, float, np.ndarray]:
    """:func:`_wiener_hopf` of one pair, checked by :func:`_check_inputs`, as
    a block of one target and one input, factoring only its two series;
    returns its sequence ``c (K,)``, its cost and the half-grid factors
    ``(2, K/2+1)`` of the target and the input."""
    _check_inputs(S, target, (input_,))
    factors = _spectral_factors(S.grid, S._floored[[target, input_]])[0]
    inverses = 1.0 / factors
    c, cost = _wiener_hopf(S, slice(target, target + 1), [input_],
                           inverses[:1], np.conj(inverses[1:]))
    return c[0, 0], cost[0, 0], factors


def _causal_overshoots(S: SpectralMatrix, targets, inputs, costs) -> list[str]:
    """One message for each causal cost ``costs[t, i]``, of series
    ``targets[t]`` on ``inputs[i]`` (index sequences), that is below
    ``-1e-8``, in target-then-input order.  No positive semidefinite matrix
    gives such a cost, whose coherence overshoots 1; rounding alone leaves
    a cost a few ``eps`` from 0."""
    costs = np.reshape(costs, (len(targets), len(inputs)))
    rows, cols = np.nonzero(costs < -1e-8)
    return [f"causal cost of {S.labels[targets[t]]!r} on "
            f"{S.labels[inputs[i]]!r} is {costs[t, i]:.3e}: the spectral "
            f"matrix is not positive semidefinite"
            for t, i in zip(rows.tolist(), cols.tolist())]


def causal_wiener(S: SpectralMatrix, target: int, input_: int) -> WienerSolution:
    """One-sided (causal) Wiener filter of ``target`` on a single input.

    The target is whitened by its inverse spectral factor and the input by
    its own, so the reported cost is dimensionless: the zero filter costs
    exactly 1 and the optimum can only be smaller.  The cost is
    :func:`_wiener_hopf`'s, ``1 - sum_{tau < K/2} c_tau^2`` of the whitened
    cross spectrum's sequence ``c``, clipped at 0, so
    :func:`~polyscope.metric.causal_distance` is its square root bit for
    bit.  The filter is ``F_t C / G_i``, where ``C`` is the transform of the
    causal part of ``c``; it is causal, and its cost is never below the
    non-causal whitened cost of the same pair.

    Parameters
    ----------
    S : SpectralMatrix
        Positive semidefinite at every grid point, as every estimate is.  A
        caller-built matrix whose pair coherence overshoots 1 can make the
        cost negative; beyond ``1e-8`` (:func:`_causal_overshoots`) that
        raises :class:`InvalidSpectrumError`.
    target, input_ : int
        Distinct series indices, checked as a fit's inputs are
        (:func:`noncausal_wiener`).

    Returns
    -------
    WienerSolution
        ``residual_spectrum`` is the whitened error spectrum
        ``1 - |W|^2 + |A|^2``, where ``W`` is the whitened cross spectrum
        and ``A`` the transform of ``c``'s anti-causal part: what no filter
        explains plus what causality forgoes.  Its grid mean is the cost
        to rounding.
    """
    c, cost, factors = _causal_pair(S, target, input_)
    overshoots = _causal_overshoots(S, [target], [input_], cost)
    if overshoots:
        raise InvalidSpectrumError(overshoots[0])
    k = S.grid.size
    parts = np.zeros((2, k))
    parts[0, :k // 2], parts[1, k // 2:] = c[:k // 2], c[k // 2:]
    causal, anti = S.grid.half_from_time(parts)
    weighted = 1.0 - np.abs(causal + anti) ** 2 + np.abs(anti) ** 2
    response = causal * factors[0] / factors[1]
    tf = TransferFunction(S.grid, S.grid.mirror(response)).with_impulse()
    return WienerSolution(target, (input_,), {input_: tf}, float(max(cost, 0.0)),
                          Spectrum(S.grid, S.grid.mirror(weighted)))

