"""Sparse input selection for a single target, in the frequency domain.

The stationary inner product ``<x_a, x_b> = E[x_a(t) x_b(t)]`` is the grid
mean of the cross spectrum, so selecting a few input processes whose filtered
sum best explains a target is least squares in a Hilbert space of processes:
every candidate subset is scored by one joint unconstrained Wiener solve, and
the score is the integrated residual spectrum.

Three solvers:

* :func:`sparse_exhaustive` scans every subset up to the budget (exact,
  guarded by a combination count limit),
* :func:`matching_pursuit` is greedy on residual cross spectra without
  revisiting earlier filters (cheap, reported both raw and jointly refit),
* :func:`orthogonal_least_squares` is greedy with every candidate extension
  scored by its jointly optimal cost (the usual accuracy/cost middle ground).
  :mod:`polyscope.wiener` scores a step's extensions in closed form from
  the current support's fit, and drops a candidate collinear with the
  support from the rest of the run, by the one conditioning rule every
  Wiener fit obeys, so OLS checks no block of its own.  Every target of a matrix is selected
  at once, the targets stepping in lockstep in blocks by the one block
  rule, :func:`~polyscope.signals._blocks`, the first step included, and
  the outcomes are kept per matrix and ``(max_inputs, min_gain)``.
  Nothing is refit: each step reports the winner's filters and cost from
  its scoring, which agree with a joint solve to rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import memo, record
from .errors import CombinatorialLimitError, InvalidParameterError
from .signals import SpectralMatrix, _array, _blocks, _integer
from .wiener import (
    TransferFunction,
    _check_support,
    _extension_costs,
    _filters,
    noncausal_wiener,
)

#: Hard cap on the number of subsets the exhaustive solver will score.
EXHAUSTIVE_LIMIT = 100_000

#: Fraction of the running cost a greedy step must remove to continue.
DEFAULT_MIN_GAIN = 0.01

#: Gains below this fraction of the *initial* cost are numerical noise.
NEGLIGIBLE_RTOL = 1e-12


@dataclass
class SparseModel:
    """Result of one sparse selection run for a single target.

    ``support`` is stored sorted and checked as a fit's inputs are
    (:func:`~polyscope.wiener._check_support`): no repeats, no target.
    """

    target: int
    support: tuple[int, ...]
    filters: dict[int, TransferFunction]
    cost: float
    solver: str
    stop_reason: str
    raw_filters: dict[int, TransferFunction] | None = None
    raw_cost: float | None = None

    def __post_init__(self):
        self.support = tuple(sorted(self.support))
        _check_support(self.target, self.support)
        if set(self.filters) != set(self.support):
            raise InvalidParameterError("filters must cover the support exactly")
        if self.cost < 0:
            raise InvalidParameterError("cost must be non-negative")


def inner_product(S: SpectralMatrix, a: int, b: int) -> float:
    """Stationary inner product ``E[x_a(t) x_b(t)]`` as a grid mean.

    Every :class:`SpectralMatrix` is exactly conjugate-even in frequency,
    as the spectra of real processes are, so the mean is real: its
    imaginary part is rounding and is dropped.
    """
    S.check_index(a, b)
    return complex(S.grid.half_mean(S.half[a, b])).real


def project(S: SpectralMatrix, target: int, support
            ) -> tuple[dict[int, TransferFunction], float]:
    """Joint least-squares fit of ``target`` on a fixed input set.

    Empty support returns no filters and the target's own power.  Otherwise
    the fit is :func:`noncausal_wiener`'s on the sorted support, and the
    returned cost is ``E[(x_t - sum W_b x_b)^2]``.
    """
    support = tuple(sorted(support))
    if not support:
        return {}, max(inner_product(S, target, target), 0.0)
    fit = noncausal_wiener(S, target, support)
    return fit.filters, fit.cost


def _check_solver_args(max_inputs: int, min_gain: float) -> int:
    """Validate the shared solver arguments; return ``max_inputs`` as an int.
    ``min_gain`` is read as a real 0-d array by
    :func:`~polyscope.signals._array`."""
    max_inputs = _integer(max_inputs, "max_inputs")
    if max_inputs < 0:
        raise InvalidParameterError("max_inputs must be >= 0")
    if not 0 <= _array(min_gain, float, "min_gain", ()) < 1:
        raise InvalidParameterError("min_gain must be in [0, 1)")
    return max_inputs


def _greedy_stop(gain, cost, initial, min_gain: float, first: bool
                 ) -> np.ndarray:
    """Why each greedy step of ``gain`` from ``cost`` stops, or None to take
    it, elementwise over arrays (a 0-d array for numbers).

    Gains that are numerical noise relative to the ``initial`` cost always
    stop; ``min_gain`` gates every step after the ``first``.
    """
    late = np.logical_and(not first, np.less(
        gain, min_gain * np.maximum(cost, np.finfo(float).tiny)))
    return np.where(np.less_equal(gain, NEGLIGIBLE_RTOL * initial),
                    "negligible-gain", np.where(late, "min-gain", None))


def _candidates(S: SpectralMatrix, target: int) -> list[int]:
    S.check_index(target)
    return [b for b in range(S.n) if b != target]


def sparse_exhaustive(S: SpectralMatrix, target: int, max_inputs: int
                      ) -> SparseModel:
    """Exact best subset of at most ``max_inputs`` inputs.

    Scans sizes in increasing order and, inside a size, subsets in
    lexicographic order; only strict cost improvements replace the
    incumbent, so ties resolve to the smallest then lexicographically
    first support.
    """
    # no gain rule: every subset is scored
    max_inputs = _check_solver_args(max_inputs, 0.0)
    pool = _candidates(S, target)
    top = min(max_inputs, len(pool))
    total = sum(math.comb(len(pool), s) for s in range(top + 1))
    if total > EXHAUSTIVE_LIMIT:
        raise CombinatorialLimitError(
            f"exhaustive search over {total} subsets exceeds the "
            f"{EXHAUSTIVE_LIMIT} limit; use a greedy solver")
    best_support: tuple[int, ...] = ()
    best_filters, best_cost = project(S, target, ())
    for size in range(1, top + 1):
        for combo in itertools.combinations(pool, size):
            filters, cost = project(S, target, combo)
            if cost < best_cost:
                best_support, best_filters, best_cost = combo, filters, cost
    return SparseModel(target, best_support, best_filters, best_cost,
                       solver="exhaustive", stop_reason="complete")


def matching_pursuit(S: SpectralMatrix, target: int, max_inputs: int,
                     min_gain: float = DEFAULT_MIN_GAIN) -> SparseModel:
    """Greedy selection on residual cross spectra, one new filter per step.

    After picking input ``b`` with per-frequency filter
    ``V = Phi_{b,r} / phi_b``, the residual bookkeeping is closed form:
    the residual power drops by ``|Phi_{b,r}|^2 / phi_b`` and every other
    candidate's cross spectrum to the residual drops by ``V Phi_{a,b}``.
    Earlier filters are never revisited, so the raw model is reported
    alongside a joint refit on the selected support.  ``min_gain`` gates
    every atom after the first; gains that are numerical noise relative to
    the initial power stop the pursuit regardless.  It runs on the
    :attr:`FrequencyGrid.half` points and mirrors each raw filter once.
    """
    max_inputs = _check_solver_args(max_inputs, min_gain)
    pool = np.array(_candidates(S, target), dtype=int)
    floored = S._floored[pool]
    cross = S.half[pool, target]
    unused = np.ones(pool.size, dtype=bool)
    phi_r = np.maximum(np.real(S.half[target, target]), 0.0)
    cost = float(S.grid.half_mean(phi_r))
    initial = max(cost, np.finfo(float).tiny)
    raw_filters: dict[int, TransferFunction] = {}
    stop_reason = "budget"
    while True:
        if len(raw_filters) >= max_inputs:
            break
        if not unused.any():
            stop_reason = "exhausted"
            break
        gains = np.where(unused,
                         S.grid.half_mean(np.abs(cross) ** 2 / floored), -np.inf)
        # the first maximum picks the lowest index, as the pool is sorted
        best = int(np.argmax(gains))
        stop = _greedy_stop(gains[best], cost, initial, min_gain,
                            first=not raw_filters).item()
        if stop:
            stop_reason = stop
            break
        V = cross[best] / floored[best]
        phi_r = np.maximum(phi_r - np.abs(cross[best]) ** 2 / floored[best], 0.0)
        unused[best] = False
        cross[unused] -= V * S.half[pool[unused], pool[best]]
        raw_filters[int(pool[best])] = TransferFunction(S.grid, S.grid.mirror(V))
        cost = float(S.grid.half_mean(phi_r))
    support = tuple(sorted(raw_filters))
    refit_filters, refit_cost = project(S, target, support)
    if refit_cost > cost + 1e-8 * max(1.0, cost):
        record("sparse-refit",
               f"joint refit cost {refit_cost:.6e} above greedy bookkeeping "
               f"{cost:.6e} for target {target}")
    return SparseModel(target, support, refit_filters, refit_cost,
                       solver="mp", stop_reason=stop_reason,
                       raw_filters=raw_filters, raw_cost=cost)


def orthogonal_least_squares(S: SpectralMatrix, target: int, max_inputs: int,
                             min_gain: float = DEFAULT_MIN_GAIN) -> SparseModel:
    """Greedy selection where each candidate is scored by its joint fit.

    Equivalent to matching pursuit for the first atom; afterwards each step
    scores every candidate extension by its jointly optimal cost and keeps
    the best.  :func:`~polyscope.wiener._extension_costs` scores a step in
    closed form from the current support's fit (one Schur complement per
    candidate, one solve per step) and checks every scored extension's
    filters against their normal equations.  The first step is the same
    recursion on the empty support, with nothing to solve.  A candidate
    collinear with the support is scored ``inf`` and leaves the pool for
    the rest of the run, as in the classical rule of Chen, Billings & Luo
    (1989); a pool left empty stops on ``exhausted``.  The winner is not
    refit: its filters and its closed-form cost, which the stopping rules
    read, are those its scoring solved and checked, and they agree with
    :func:`project` on the same support to rounding.  No block is checked
    beyond that: each pick cleared the one conditioning rule
    (:func:`~polyscope.wiener._usable`) against the support before it when
    it was scored, so OLS never raises
    :class:`~polyscope.errors.IllConditionedSpectrumError`.  Its verdict on
    a support is the step-order one; :func:`project` takes the sorted
    order, and the two agree for supports of at most two inputs only, where
    the Schur ratio is ``1 - |C_ab|^2`` either way (``C_ab`` the pair's
    coherence).  Stopping rules match :func:`matching_pursuit`.

    Every target of ``S`` is selected at once (:func:`_ols_outcomes`), on
    the first call for ``S`` with these ``max_inputs`` and ``min_gain``, and
    the outcomes are kept while ``S`` lives by
    :func:`~polyscope.diagnostics.memo`, with the floor events they read.
    A loop over all targets (``cli sparse``) pays for them once; a lone call
    on a fresh matrix pays for every target, about 4.8 ms at n 32, K 64 and
    budget 2 on one Xeon core, against about 0.53 ms for its own target's
    two steps through the same kernel.  Each call records its own target's
    ``collinear-candidate`` events in step order, raises only its own
    target's error, and returns a model of its own.  At budget 0 nothing is
    read but the initial cost, ``project``'s on the empty support, so no
    floor is read.
    """
    max_inputs = _check_solver_args(max_inputs, min_gain)
    S.check_index(target)
    min_gain = float(min_gain)
    runs = memo(S._memo, ("orthogonal_least_squares", max_inputs, min_gain),
                lambda: _ols_outcomes(S, max_inputs, min_gain))
    record("collinear-candidate", *runs.messages[target])
    if runs.error[target] is not None:
        kind, message = runs.error[target]
        raise kind(message)
    size = runs.size[target]
    support = tuple(runs.support[target, :size].tolist())
    filters = _filters(S.grid, support, runs.W[target, :size].T)
    return SparseModel(target, support, filters, float(runs.cost[target]),
                       solver="ols", stop_reason=runs.stop[target])


@dataclass
class _OLSRuns:
    """The OLS runs of every target in :func:`_ols_outcomes`, as arrays
    over the ``n`` targets, and once they stop their outcomes; ``w`` is the
    largest support, ``min(max_inputs, n - 1)``.

    Row ``t`` of ``support (n, w)`` holds target ``t``'s support sorted in
    its first ``size[t]`` places, and the same rows of ``W[t] (w, K/2+1)``
    that support's half-grid filters in its order.  ``cost`` and
    ``initial`` are its running and initial costs, ``free (n, n)`` marks
    its pool and ``stop`` holds its stop reason, None while it runs or once
    it fails.  ``messages`` and ``error`` hold per target its
    ``collinear-candidate`` messages and the type and message of the error
    its run raised, if any, after them."""

    support: np.ndarray
    size: np.ndarray
    cost: np.ndarray
    initial: np.ndarray
    free: np.ndarray
    stop: np.ndarray
    W: np.ndarray
    messages: list
    error: list


def _ols_outcomes(S: SpectralMatrix, max_inputs: int, min_gain: float
                  ) -> _OLSRuns:
    """The OLS runs of every target of ``S``, stepped in lockstep.

    Every target's initial cost comes from one :meth:`FrequencyGrid.half_mean`
    over the diagonal of ``S.half``, clipped at 0, bit for bit
    :func:`project`'s on the empty support.  At each step the targets still
    running are scored by :func:`~polyscope.wiener._extension_costs`, those
    whose pools have one size ``m`` together, in blocks by
    :func:`~polyscope.signals._blocks`, each target counting its
    ``m(K/2+1)(q+1)^2`` normal-equation values, ``(q+1)^2`` per extension
    and grid point: 16 targets at the second step at n 32, K 64.  No block
    is gathered: the kernel reads the parts, and its transient peak is
    about 40 bytes per counted value at q = 1 and 22 at q = 3, where 16 is
    one complex array of them.  A target's bits do not depend on its block.
    Each block's step is taken on its arrays by :func:`_ols_step`; a target
    whose stopping rule fires, or whose check fails, leaves the run.  At
    n 32, K 64 and budget 2 the run takes about 4.5 ms on one Xeon core,
    4.0 ms of it in the kernel.
    """
    n, points = S.n, S.grid.size // 2 + 1
    cost = np.maximum(np.real(S.grid.half_mean(np.einsum("iik->ik", S.half))),
                      0.0)
    width = min(max_inputs, n - 1)
    runs = _OLSRuns(np.zeros((n, width), dtype=int), np.zeros(n, dtype=int),
                    cost, np.maximum(cost, np.finfo(float).tiny),
                    ~np.eye(n, dtype=bool), np.full(n, None, dtype=object),
                    np.empty((n, width, points), complex),
                    [[] for _ in range(n)], [None] * n)
    active = np.arange(n)
    for q in itertools.count():
        if q >= max_inputs:
            runs.stop[active] = "budget"
            return runs
        pooled = np.count_nonzero(runs.free[active], axis=1)
        runs.stop[active[pooled == 0]] = "exhausted"
        going = []
        for m in np.unique(pooled[pooled > 0]).tolist():
            scoring = active[pooled == m]
            for block in _blocks(scoring.size, m * points * (q + 1) ** 2):
                targets = scoring[block]
                pools = np.nonzero(runs.free[targets])[1].reshape(-1, m)
                scored = _extension_costs(S, targets,
                                          runs.support[targets, :q], pools)
                going.append(_ols_step(runs, q, targets, pools, scored,
                                       min_gain))
        if not going:
            return runs
        active = np.sort(np.concatenate(going))


def _ols_step(runs: _OLSRuns, q: int, targets: np.ndarray, pools: np.ndarray,
              scored, min_gain: float) -> np.ndarray:
    """Take step ``q`` of the runs of a block of ``targets`` with ``(g, m)``
    ``pools`` from the block's :func:`~polyscope.wiener._extension_costs`
    outcome ``scored``, in array passes over its ``(g, m)`` costs and
    ``(g, m, K/2+1, q+1)`` filters: returns the targets that go on."""
    costs, W, messages, errors = scored
    for t, text, error in zip(targets.tolist(), messages, errors):
        runs.messages[t] += text
        if error is not None:
            runs.error[t] = (type(error), str(error))
    rows = np.flatnonzero([error is None for error in errors])
    t, costs = targets[rows], costs[rows]
    # a collinear candidate scores inf and leaves the pool for good
    runs.free[t[:, None], pools[rows]] = costs < math.inf
    # the first minimum adds the lowest index, as the pool is sorted
    pick = np.argmin(costs, axis=1)
    best = costs[np.arange(t.size), pick]
    stop = _greedy_stop(runs.cost[t] - best, runs.cost[t], runs.initial[t],
                        min_gain, first=q == 0)
    stop[best == math.inf] = "exhausted"        # every candidate collinear
    runs.stop[t] = stop
    go = np.equal(stop, None)
    t, rows, pick = t[go], rows[go], pick[go]
    b = pools[rows, pick]
    runs.free[t, b], runs.size[t], runs.cost[t] = False, q + 1, best[go]
    # the support stays sorted, and its filters in its order
    extended = np.column_stack([runs.support[t, :q], b])
    columns = np.argsort(extended, axis=1)
    runs.support[t, :q + 1] = extended[np.arange(t.size)[:, None], columns]
    runs.W[t, :q + 1] = W[rows[:, None], pick[:, None], :, columns]
    return t
