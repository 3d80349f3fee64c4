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
from dataclasses import dataclass, field

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


def _greedy_stop(gain: float, cost: float, initial: float, min_gain: float,
                 first: bool) -> str | None:
    """Why a greedy step of ``gain`` from ``cost`` stops, or None to take it.

    Gains that are numerical noise relative to the ``initial`` cost always
    stop; ``min_gain`` gates every step after the ``first``.
    """
    if gain <= NEGLIGIBLE_RTOL * initial:
        return "negligible-gain"
    if not first and gain < min_gain * max(cost, np.finfo(float).tiny):
        return "min-gain"
    return None


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
        stop = _greedy_stop(float(gains[best]), cost, initial, min_gain,
                            first=not raw_filters)
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
    on a fresh matrix pays for every target, about 5.5 ms at n 32, K 64 and
    budget 2 on one Xeon core, against about 0.55 ms for its own target's
    two steps through the same kernel.  Each call records its own target's
    ``collinear-candidate`` events in step order, raises only its own
    target's error, and returns a model of its own.  At budget 0 nothing is
    read but the initial cost, ``project``'s on the empty support, so no
    floor is read.
    """
    max_inputs = _check_solver_args(max_inputs, min_gain)
    S.check_index(target)
    min_gain = float(min_gain)
    outcome = memo(S._memo, ("orthogonal_least_squares", max_inputs, min_gain),
                   lambda: _ols_outcomes(S, max_inputs, min_gain))[target]
    for message in outcome.messages:
        record("collinear-candidate", message)
    if outcome.error is not None:
        kind, message = outcome.error
        raise kind(message)
    filters = (_filters(S.grid, outcome.support, outcome.W)
               if outcome.support else {})
    return SparseModel(target, outcome.support, filters, outcome.cost,
                       solver="ols", stop_reason=outcome.stop_reason)


@dataclass
class _OLSRun:
    """One target's selection state in :func:`_ols_outcomes`, and once it
    stops its outcome: ``support`` sorted, ``W (K/2+1, q)`` its half-grid
    filters in that order, and ``error`` the type and message of the error
    its run raised, if any, after its ``messages``."""

    support: list
    pool: list
    cost: float
    initial: float
    W: np.ndarray | None = None
    messages: list = field(default_factory=list)
    stop_reason: str | None = None
    error: tuple | None = None


def _ols_outcomes(S: SpectralMatrix, max_inputs: int, min_gain: float
                  ) -> tuple[_OLSRun, ...]:
    """The OLS runs of every target of ``S``, stepped in lockstep.

    Every target's initial cost comes from one :meth:`FrequencyGrid.half_mean`
    over the diagonal of ``S.half``, clipped at 0, bit for bit
    :func:`project`'s on the empty support.  At each step the targets still
    running are scored by :func:`~polyscope.wiener._extension_costs` in
    blocks by :func:`~polyscope.signals._blocks`, each target counting its
    ``(n-1-q)(K/2+1)(q+1)^2`` normal-equation values, ``(q+1)^2`` per
    extension and grid point: 16 targets at the second step at n 32, K 64.
    No block is gathered: the kernel reads the parts, and its transient
    peak is about 40 bytes per counted value at q = 1 and 22 at q = 3,
    where 16 is one complex array of them.  A target's bits do not depend
    on its block.  A target whose stopping rule fires, or whose check
    fails, leaves the run.
    """
    half = np.einsum("iik->ik", S.half)
    initial = np.maximum(np.real(S.grid.half_mean(half)), 0.0)
    runs = tuple(_OLSRun([], [b for b in range(S.n) if b != t], float(cost),
                         max(float(cost), np.finfo(float).tiny))
                 for t, cost in enumerate(initial))
    active = list(range(S.n))
    for q in itertools.count():
        scoring = []
        for t in active:
            if q >= max_inputs:
                runs[t].stop_reason = "budget"
            elif not runs[t].pool:
                runs[t].stop_reason = "exhausted"
            else:
                scoring.append(t)
        if not scoring:
            return runs
        size = (S.n - 1 - q) * (S.grid.size // 2 + 1) * (q + 1) ** 2
        active = []
        for block in _blocks(len(scoring), size):
            targets = scoring[block]
            scored = _extension_costs(S, targets,
                                      [runs[t].support for t in targets],
                                      [runs[t].pool for t in targets])
            active += [t for t, step in zip(targets, scored)
                       if _ols_step(runs[t], step, min_gain)]


def _ols_step(run: _OLSRun, scored, min_gain: float) -> bool:
    """Take one step of ``run`` from its
    :func:`~polyscope.wiener._extension_costs` outcome ``scored``: whether
    the run goes on."""
    costs, fits, messages, error = scored
    run.messages += messages
    if error is not None:
        run.error = (type(error), str(error))
        return False
    # a collinear candidate scores inf and leaves the pool for good
    kept = costs < math.inf
    run.pool, costs = [b for b, k in zip(run.pool, kept) if k], costs[kept]
    if not run.pool:
        run.stop_reason = "exhausted"
        return False
    # the first minimum adds the lowest index, as the pool is sorted
    pick = int(np.argmin(costs))
    best, best_cost = run.pool.pop(pick), float(costs[pick])
    run.stop_reason = _greedy_stop(run.cost - best_cost, run.cost, run.initial,
                                   min_gain, first=not run.support)
    if run.stop_reason:
        return False
    extended = run.support + [best]
    run.support, run.cost = sorted(extended), best_cost
    run.W = fits[pick][:, np.argsort(extended)]
    return True
