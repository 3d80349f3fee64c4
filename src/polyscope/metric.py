"""Distances between processes derived from coherence and Wiener residuals.

The symmetric coherence distance of a pair is
``d = sqrt(mean_k(1 - C(omega_k)))``, a pseudo-metric with range [0, 1]:
0 for pairs linked by a noiseless invertible filter, 1 for uncorrelated
pairs.  Its causal counterpart is the square root of the whitened one-sided
Wiener cost, which is direction dependent and never smaller than the
symmetric distance of the same pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .diagnostics import record
from .errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
)
from .signals import (
    Ensemble,
    SpectralMatrix,
    TimeSeries,
    WelchConfig,
    _array,
    _blocks,
    _coherence,
    _integer,
    _sequence,
    spectral_matrix,
)
from .wiener import (_causal_overshoots, _causal_pair, _spectral_factors,
                     _wiener_hopf)

SYMMETRIC_KINDS = ("noncausal", "correlation", "causal-min")
KINDS = SYMMETRIC_KINDS + ("causal",)

#: Triangle-inequality slack tolerated on estimated spectra before a
#: diagnostic event is recorded.
TRIANGLE_TOL = 0.05

#: Relative gap below which a pair's two causal directions count as tied:
#: summation order alone moves causal costs by up to about 1e-14 of their
#: size, while real orientation gaps of analytic networks start near 1e-9.
TIE_RTOL = 1e-12

#: Causal cost at or below which a direction is explained exactly, so that
#: a pair with both directions there is tied.  Such a cost ``1 - sum c^2``
#: is 1 less a sum that rounds near 1, so it lands a few ``eps`` either side
#: of 0 (at most 8 ``eps``, 1.8e-15, on copies of simulated series at K 64
#: to 4096), and its root, the distance, near 1e-8: far apart in relative
#: terms, yet neither direction is better.  The bound leaves a factor of
#: about 50 above that; its root is 3.2e-7.
ZERO_COST_ATOL = 1e-13


@dataclass
class DistanceMatrix:
    """Square matrix of pairwise distances with zero diagonal.

    ``kind`` states the construction: "noncausal" (coherence), "causal"
    (row = target, column = input), "correlation" (zero-lag), or
    "causal-min" (pairwise minimum of the two causal directions).  All kinds
    except "causal" are symmetric by construction.  ``values`` is read by
    :func:`~polyscope.signals._array` as finite real numbers of shape
    ``(n, n)``.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.labels = _sequence(self.labels, "labels")
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown distance kind {self.kind!r}")
        self.values = _array(self.values, float, "distance matrix", (self.n, self.n))
        if np.any(self.values < 0.0):
            raise InvalidParameterError("distances must be non-negative")
        if np.any(np.diag(self.values) != 0.0):
            raise InvalidParameterError("diagonal distances must be zero")
        if self.kind in SYMMETRIC_KINDS and not np.array_equal(
                self.values, self.values.T):
            raise InvalidParameterError(f"{self.kind} matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass
class DirectionMatrix:
    """Antisymmetric orientation marks for causal edge weights.

    ``values[j, i] = +1`` means the pair's minimal one-sided cost models
    series ``j`` from input ``i`` (direction i -> j); ``-1`` means the
    opposite; the diagonal is 0.  ``ties[j, i]`` flags pairs whose two
    directions cost the same, broken deterministically.  Both are ``(n, n)``
    arrays read by :func:`~polyscope.signals._array`: integers for
    ``values`` (a fraction is refused, not truncated) and booleans for
    ``ties``.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    ties: np.ndarray

    def __post_init__(self):
        self.labels = _sequence(self.labels, "labels")
        n = len(self.labels)
        self.values = _array(self.values, int, "direction matrix", (n, n))
        self.ties = _array(self.ties, bool, "direction ties", (n, n))
        if not np.all(np.isin(self.values, (-1, 0, 1))):
            raise InvalidParameterError("direction entries must be -1, 0, +1")
        if np.any(self.values != -self.values.T):    # so the diagonal is 0
            raise InvalidParameterError("direction matrix must be antisymmetric")


def _coherence_distances(S: SpectralMatrix, rows, cols) -> np.ndarray:
    """``sqrt(mean(1 - C))`` of each pair ``(rows[p], cols[p])``."""
    mean = S.grid.half_mean(1.0 - _coherence(S, rows, cols))
    return np.sqrt(np.maximum(mean, 0.0))


def coherence_distance(S: SpectralMatrix, i: int, j: int) -> float:
    """Coherence pseudo-distance of one pair, ``sqrt(mean(1 - C))``.

    Symmetric in its arguments; exactly zero when ``i == j``.
    """
    S.check_index(i, j)
    if i == j:
        return 0.0
    return float(_coherence_distances(S, [i], [j])[0])


def _log_triangle_breaches(values: np.ndarray) -> None:
    n = values.shape[0]
    if n < 3:
        return
    # worst of d(i,k) - (d(i,j) + d(j,k)), one i at a time: O(n^2) memory
    worst = max(float(np.max(row[None, :] - (row[:, None] + values)))
                for row in values)
    if worst > TRIANGLE_TOL:
        record("triangle-breach",
               f"triangle inequality violated by {worst:.4f} "
               f"(tolerance {TRIANGLE_TOL})")


def distance_matrix(S: SpectralMatrix) -> DistanceMatrix:
    """Symmetric matrix of coherence distances for every pair.

    Entries with ``i < j`` are computed once and mirrored, so symmetry is
    exact.  Near-zero off-diagonal distances (duplicated series) and
    triangle-inequality breaches beyond :data:`TRIANGLE_TOL` are recorded as
    diagnostics; on analytic spectra neither occurs.
    """
    rows, cols = np.triu_indices(S.n, 1)
    upper = np.zeros((S.n, S.n))
    upper[rows, cols] = _coherence_distances(S, rows, cols)
    out = upper + upper.T
    record("degenerate-pair", *(
        f"{S.labels[i]!r} and {S.labels[j]!r} are at distance "
        f"{out[i, j]:.3e}; duplicated series?"
        for i, j in np.argwhere(np.triu(out < 1e-9, 1))))
    _log_triangle_breaches(out)
    return DistanceMatrix(S.labels, out, "noncausal")


def causal_distance(S: SpectralMatrix, target: int, input_: int) -> float:
    """One-sided modelling distance: root of the whitened causal Wiener cost.

    Asymmetric: ``causal_distance(S, j, i)`` measures how well the past of
    series ``i`` explains series ``j``.  Lies in [0, 1] up to numerical
    tolerance because the zero filter already costs 1; a cost that rounding
    takes below 0 reads as 0.  Bit for bit ``causal_distance_matrix(S)``'s
    entry and the root of ``causal_wiener(S, target, input_).cost``, and
    records the matrix's ``causal-overshoot`` event for the pair where
    ``causal_wiener`` raises.
    """
    S.check_index(target, input_)
    if target == input_:
        return 0.0
    cost = _causal_pair(S, target, input_)[1]
    record("causal-overshoot", *_causal_overshoots(S, [target], [input_], cost))
    return float(np.sqrt(max(cost, 0.0)))


def causal_distance_matrix(S: SpectralMatrix) -> DistanceMatrix:
    """All pairwise one-sided distances; rows are targets, columns inputs.

    Spectral factors, and their reciprocals, are computed once per series.
    The targets are solved in blocks by
    :func:`~polyscope.signals._blocks`, each target counting its ``n
    (K/2+1)`` values, each block one Wiener--Hopf pass against every input
    at once, whose cost is ``1 - sum_{tau < K/2} c_tau^2`` of the whitened
    cross spectra's sequences ``c`` (:func:`~polyscope.wiener._wiener_hopf`).
    A block's kernel peaks near three times its sequences' bytes, about
    ``48 * BLOCK_VALUES`` bytes whatever ``n`` and ``K``, unless one target
    row alone is larger; then each block is one target.  With the factors
    and their reciprocals the layer's traced peak was 3.16 MB at n 32,
    K 1024 (3 targets a block).  A pair's bits do not depend on the
    blocking, so each entry is :func:`causal_distance`'s.  A caller-built
    matrix that is not positive semidefinite overshoots coherence 1, which
    can make a cost negative: its distance reads 0, and each cost below
    ``-1e-8``, where :func:`~polyscope.wiener.causal_wiener` raises, is
    recorded as a ``causal-overshoot`` event, in target-then-input order.
    """
    n = S.n
    factors = _spectral_factors(S.grid, S._floored)[0]
    inverses = 1.0 / factors
    input_inverses = np.conj(inverses)
    out = np.zeros((n, n))
    for targets in _blocks(n, factors.size):
        cost = _wiener_hopf(S, targets, slice(None), inverses[targets],
                            input_inverses)[1]
        record("causal-overshoot", *_causal_overshoots(
            S, range(n)[targets], range(n), cost))
        out[targets] = np.sqrt(np.maximum(cost, 0.0))
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(S.labels, out, "causal")


def causal_edge_weights(DC: DistanceMatrix) -> tuple[DistanceMatrix, DirectionMatrix]:
    """Fold a causal matrix into symmetric weights plus orientations.

    The weight of a pair is the cheaper of its two modelling directions; the
    direction matrix marks which direction won, ``+1`` at ``[j, i]`` meaning
    i -> j.  A pair is tied when its two directions differ by at most
    :data:`TIE_RTOL` times the larger, or when both costs, the squared
    distances, are at most :data:`ZERO_COST_ATOL` (a series and its copy),
    so a rounding-level gap never picks an orientation; ties are broken
    toward ``+1`` on the upper triangle (the edge points from the higher to
    the lower index) and flagged.
    """
    if DC.kind != "causal":
        raise InvalidParameterError("causal_edge_weights needs a causal matrix")
    d = DC.values
    weights = np.minimum(d, d.T)
    larger = np.maximum(d, d.T)
    tied = np.triu((np.abs(d - d.T) <= TIE_RTOL * larger)
                   | (larger ** 2 <= ZERO_COST_ATOL), 1)
    upper = np.triu(np.where((d <= d.T) | tied, 1, -1), 1)
    direction = upper - upper.T
    return (DistanceMatrix(DC.labels, weights, "causal-min"),
            DirectionMatrix(DC.labels, direction, tied | tied.T))


def correlation_distance_matrix(ens: Ensemble) -> DistanceMatrix:
    """Zero-lag correlation distances ``sqrt(2 * (1 - rho))``.

    ``rho`` is the plain Pearson correlation of the samples, so the range is
    [0, 2] with 2 attained by perfect anti-correlation.  A zero-variance
    series cannot be correlated and raises.
    """
    data = ens.values()
    std = data.std(axis=1)
    for label, s in zip(ens.labels, std):
        if s == 0.0:
            raise DegenerateSeriesError(
                f"series {label!r} has zero variance")
    rho = np.corrcoef(data)
    rho = np.clip(rho, -1.0, 1.0)
    out = np.sqrt(2.0 * (1.0 - rho))
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(ens.labels, out, "correlation")


def spearman_index(A: DistanceMatrix, B: DistanceMatrix) -> float | None:
    """Spearman rank correlation of two symmetric matrices' upper triangles.

    Ties receive average ranks.  With fewer than two off-diagonal pairs, or
    when every pair of either matrix is equal, the index is undefined and
    ``None`` is returned (recorded as a diagnostic).
    """
    if A.kind not in SYMMETRIC_KINDS or B.kind not in SYMMETRIC_KINDS:
        raise InvalidParameterError("spearman_index needs symmetric matrices")
    if A.labels != B.labels:
        raise InvalidParameterError("matrices are over different labels")
    iu = np.triu_indices(A.n, k=1)
    xa, xb = A.values[iu], B.values[iu]
    if xa.size < 2:
        record("spearman-undefined",
               "fewer than two pairs; rank index undefined")
        return None
    if np.all(xa == xa[0]) or np.all(xb == xb[0]):
        record("spearman-undefined",
               "constant distances; rank index undefined")
        return None
    result = stats.spearmanr(xa, xb)
    return float(result.statistic)


def _windowed_average(ens: Ensemble, window_length: int,
                      distances) -> DistanceMatrix:
    """Entrywise mean of ``distances(window)`` over consecutive windows.

    Each window of ``window_length`` samples is re-ingested as its own
    ensemble (fresh mean removal); a trailing partial window is discarded.
    """
    if _integer(window_length, "window_length") < 2:
        raise InvalidParameterError("window_length must be >= 2")
    count = ens.length // window_length
    if count < 1:
        raise InsufficientDataError(
            f"record of {ens.length} samples is shorter than one window "
            f"of {window_length}")
    data = ens.values()
    total = np.zeros((ens.n, ens.n))
    for w in range(count):
        chunk = data[:, w * window_length:(w + 1) * window_length]
        window = distances(Ensemble([TimeSeries(label, row)
                                     for label, row in zip(ens.labels, chunk)]))
        total += window.values
    return DistanceMatrix(ens.labels, total / count, window.kind)


def windowed_average_distance(ens: Ensemble, window_length: int,
                              cfg: WelchConfig) -> DistanceMatrix:
    """Average coherence distances over consecutive non-overlapping windows.

    The record is cut into ``floor(length / window_length)`` windows; each
    window is re-ingested as its own ensemble (fresh mean removal), measured
    with :func:`distance_matrix`, and the matrices are averaged entrywise.
    A trailing partial window is discarded.
    """
    return _windowed_average(
        ens, window_length, lambda sub: distance_matrix(spectral_matrix(sub, cfg)))
