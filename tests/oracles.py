"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route than the library code:
scipy's Welch estimator instead of our segment bookkeeping, polynomial
rooting instead of the cepstrum, per-frequency least squares instead of the
normal-equation solve, Prüfer enumeration instead of Kruskal, and raw
path-product transfer algebra instead of the topological-order recursion.
The exceptions are the kernels that whole-matrix code replaced, kept as
they were: the per-row Welch average that the streamed Gram product
replaced, which tests compare at a tolerance; the per-fit Wiener
solve, the per-candidate greedy loops, the per-target blanket loop and the
per-pair identifiability run test that array code replaced, against which
tests require bit-identical solutions, or equal supports and events; and
the per-cell CSV reader and ``csv.writer`` text builders that whole-body
parsing and joined ``repr`` rows replaced, against which tests require the
same series, messages and bytes.
"""

from __future__ import annotations

import csv
import io
import itertools
from pathlib import Path

import numpy as np
from scipy import signal as sps

from polyscope import (
    Ensemble,
    FrequencyGrid,
    IllConditionedSpectrumError,
    InputFormatError,
    InvalidSpectrumError,
    SparseModel,
    SpectralMatrix,
    TimeSeries,
    TransferFunction,
    UndirectedGraph,
    WelchConfig,
    generate_polytree_aln,
    inner_product,
    project,
)
from polyscope.diagnostics import record
from polyscope.sparse import DEFAULT_MIN_GAIN, NEGLIGIBLE_RTOL
from polyscope.topology import BLANKET_RMS_RTOL
from polyscope.wiener import CONDITION_RTOL
from polyscope.aln import _noise_spectra, _source_transfers


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
    """One joint fit as the per-fit solver computed it, one call per input set.

    Returns the floored normal-equation blocks ``A (K, k, k)`` and
    ``c (K, k)``, the filters ``W (K, k)``, the residual spectrum and its
    grid mean.
    """
    inputs = list(inputs)
    A = S.values[np.ix_(inputs, inputs)].transpose(2, 0, 1).copy()
    floor = S.psd_floor or np.finfo(float).tiny
    d = np.arange(len(inputs))
    A[:, d, d] = np.maximum(A[:, d, d].real, floor)
    c = S.values[inputs, target].T.copy()
    eigs = np.linalg.eigvalsh(A)
    worst = np.argmin(eigs[:, 0] / eigs[:, -1])
    if eigs[worst, 0] < CONDITION_RTOL * eigs[worst, -1]:
        omega = S.grid.omegas[worst]
        raise IllConditionedSpectrumError(
            f"input spectral matrix singular beyond the floor at "
            f"omega={omega:.6f} (eigenvalue ratio "
            f"{eigs[worst, 0] / eigs[worst, -1]:.3e})")
    W = np.linalg.solve(A, c[..., None])[..., 0]
    phi_t = np.real(S.values[target, target])
    explained = np.real(np.sum(np.conj(c) * W, axis=-1))
    residual = np.maximum(phi_t - explained, 0.0)
    if normalize:
        residual = residual / S.floored_autospectrum(target)
    return A, c, W, residual, float(np.mean(residual))


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
        Hc = _source_transfers(cand, grid)
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
    cell by cell.  A ``csv.Error`` (a cell over the field limit) escapes."""
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
