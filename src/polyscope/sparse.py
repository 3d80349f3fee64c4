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
  support from the rest of the run.  The first step of every target comes
  from one checked array pass per spectral matrix.  Nothing is refit:
  each step reports the winner's filters and cost from its scoring, which
  agree with a joint solve to rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import record
from .errors import (
    CombinatorialLimitError,
    InvalidParameterError,
)
from .signals import SpectralMatrix, _array, _integer
from .wiener import (
    TransferFunction,
    _check_conditioning,
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
    filters against their normal equations.  The initial cost is
    :func:`project`'s on the empty support, so a run at budget 0 reads no
    floor.  The first step needs no solve: it is read from one array pass
    over every target of ``S`` (:func:`~polyscope.wiener._first_steps`),
    made on the first call for ``S`` and kept while ``S`` lives, with the
    floor events it read.  A loop over all targets pays for it once; a lone
    call pays for every target's first step (about 0.95 ms at n 32, K 64 on
    one Xeon core, against 0.15 ms for its own).  The pass checks every
    first step, and a failed check raises only when its target's first
    step is scored, with the message of a per-target check.  A candidate
    collinear with the support is scored ``inf`` and leaves the pool for the
    rest of the run, as in the classical rule of Chen, Billings & Luo
    (1989); a pool left empty stops on ``exhausted``.  The winner is not refit: its filters and
    its closed-form cost, which the stopping rules read, are those its
    scoring solved and checked, and they agree with :func:`project` on the
    same support to rounding; they are mirrored once, for the last step
    taken.  When the conditioning screen fails, the input block of each
    extension the stopping rules take is still checked as :func:`project`
    would check it, and raises the same error; a winner they reject is not
    checked.  Stopping rules match :func:`matching_pursuit`.
    """
    max_inputs = _check_solver_args(max_inputs, min_gain)
    pool = _candidates(S, target)
    support: list[int] = []
    cost = project(S, target, ())[1]
    initial = max(cost, np.finfo(float).tiny)
    while True:
        if len(support) >= max_inputs:
            stop_reason = "budget"
            break
        if pool:
            costs, fits = _extension_costs(S, target, support, pool)
            # a collinear candidate scores inf and leaves the pool for good
            kept = costs < math.inf
            pool, costs = [b for b, k in zip(pool, kept) if k], costs[kept]
        if not pool:
            stop_reason = "exhausted"
            break
        # the first minimum adds the lowest index, as the pool is sorted
        pick = int(np.argmin(costs))
        best, best_cost = pool.pop(pick), float(costs[pick])
        stop = _greedy_stop(cost - best_cost, cost, initial, min_gain,
                            first=not support)
        if stop:
            stop_reason = stop
            break
        extended = support + [best]
        chosen = sorted(extended)
        _check_conditioning(S, chosen)
        support, cost = chosen, best_cost
        W = fits[pick][:, np.argsort(extended)]
    filters = _filters(S.grid, support, W) if support else {}
    return SparseModel(target, tuple(support), filters, cost,
                       solver="ols", stop_reason=stop_reason)
