"""Acyclic linear networks over polytrees: generation, simulation, ground truth.

A network is a polytree of FIR links driven by independent white (optionally
MA-shaped) noises: ``x_j = e_j + sum_p G_{jp}(z) x_p`` over the parents of
``j``.  Because the underlying graph is a tree, every signal decomposes as
``x_a = sum_i H_{ai}(z) e_i`` with ``H`` the product of the link filters
along the unique directed path, which gives exact analytic cross spectra

    Phi_{x_a x_b}(omega) = sum_i conj(H_ai) H_bi phi_{e_i}.

These exact spectra are the ground truth for end-to-end recovery tests; the
simulator provides the finite-sample counterpart.
"""

from __future__ import annotations

import bisect
import json
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError
from .metric import causal_distance_matrix, distance_matrix
from .signals import (
    Ensemble,
    FrequencyGrid,
    SpectralMatrix,
    TimeSeries,
    WelchConfig,
    _array,
    _integer,
    _sequence,
    spectral_matrix,
)
from .topology import Polytree, build_polytree, minimum_spanning_tree, miso_blanket_topology

#: Tap magnitude every generated link must reach somewhere in its FIR.
MIN_LINK_TAP = 0.2

#: Most taps a generated link FIR has; each link draws 1..this many.
MAX_LINK_ORDER = 4

#: Range the generated white-noise variances are drawn uniformly from.
NOISE_VARIANCE_RANGE = (0.5, 2.0)

#: Probability that a generated link carries a one-sample delay.
DELAY_PROB = 0.5

#: Relative level defining "alive" in the identifiability scan.
IDENTIFIABILITY_RTOL = 1e-9

#: Consecutive grid points a product must stay alive for.
IDENTIFIABILITY_RUN = 3


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


def _taps(values, name: str) -> np.ndarray:
    """``values`` as FIR taps: a :func:`_frozen` copy, once
    :func:`~polyscope.signals._array` finds a non-empty real vector.  The
    one tap rule, for links and noise shaping."""
    return _frozen(_array(values, float, name, (None,)))


def _values_key(values: np.ndarray) -> tuple[float, ...]:
    """A hashable key that is equal for arrays :func:`np.array_equal`
    calls equal: Python floats that compare equal (``0.0`` and ``-0.0``)
    hash alike."""
    return tuple(values.ravel().tolist())


def _same_shaping(a, b) -> bool:
    """Whether two ``noise_shaping`` fields are equal, entry by entry."""
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(
        x is y if x is None or y is None else np.array_equal(x, y)
        for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class Link:
    """One directed FIR edge ``source -> target`` with optional unit delay.

    Immutable: ``taps`` is the link's own read-only copy of the caller's,
    checked by :func:`_taps`, and ``source``, ``target`` and ``delay`` are
    stored as ints.
    Links are values: two are equal when their endpoints, delays and taps
    are (the taps by :func:`np.array_equal`), and equal links hash alike."""

    source: int
    target: int
    taps: np.ndarray
    delay: int = 0

    def __post_init__(self):
        for name in ("source", "target", "delay"):
            object.__setattr__(self, name, _integer(getattr(self, name),
                                                    f"link {name}"))
        object.__setattr__(self, "taps", _taps(self.taps, "link taps"))
        if not np.any(self.taps != 0.0):
            raise InvalidParameterError(
                f"link {self.source}->{self.target} is identically zero")
        if self.delay not in (0, 1):
            raise InvalidParameterError("link delay must be 0 or 1 samples")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.delay)
                == (other.source, other.target, other.delay)
                and np.array_equal(self.taps, other.taps))

    def __hash__(self):
        return hash((self.source, self.target, self.delay,
                     _values_key(self.taps)))

    @property
    def support(self) -> int:
        """Last time index the link's impulse response touches."""
        return self.delay + self.taps.size - 1


@dataclass(frozen=True, eq=False)
class ALNSpec:
    """Full description of an acyclic linear network.

    ``noise_variances[i]`` scales the white noise driving node ``i``;
    ``noise_shaping[i]`` (None or FIR taps, checked as a link's) colours
    it.  The links must form a :class:`~polyscope.topology.Polytree`, which
    checks their skeleton as a tree once: links ``a -> b`` and ``b -> a``
    are its duplicate edge, and no directed cycle can occur.

    Immutable, so one spec object always describes the same network:
    ``labels``, ``links`` and ``noise_shaping`` are stored as tuples, and
    ``noise_variances`` and each shaping entry as read-only copies.  Each
    of the three tuples must be given as a sequence other than a string,
    ``links`` holding :class:`Link` objects; ``noise_variances`` is one
    finite real number ``>= 0`` per node (:func:`~polyscope.signals._array`).

    Specs are values: two are equal when their labels, links, seeds,
    noise variances and ``noise_shaping`` fields are, arrays compared by
    :func:`np.array_equal` and shaping entries (each None or taps) position
    by position; equal specs hash alike.  The analytic build of
    :func:`analytic_spectra` is still kept per spec object, not per value.
    """

    labels: tuple[str, ...]
    links: tuple[Link, ...]
    noise_variances: np.ndarray
    noise_shaping: tuple[np.ndarray | None, ...] | None = None
    seed: int | None = None
    #: The skeleton, validated once; :meth:`to_polytree` hands out copies.
    _skeleton: Polytree = field(init=False, repr=False, compare=False)
    #: Nodes in the order :meth:`topological_order` returns.
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def store(name, value):
            object.__setattr__(self, name, value)

        store("labels", _sequence(self.labels, "labels"))
        store("links", _sequence(self.links, "links"))
        n = len(self.labels)
        if n < 2:
            raise InvalidParameterError("a network needs at least 2 nodes")
        if len(set(self.labels)) != n:
            raise InvalidParameterError("node labels must be unique")
        store("noise_variances", _frozen(_array(
            self.noise_variances, float, "noise variances", (n,))))
        if np.any(self.noise_variances < 0):
            raise InvalidParameterError("noise variances must be >= 0")
        if self.noise_shaping is not None:
            shaping = _sequence(self.noise_shaping, "noise shaping")
            if len(shaping) != n:
                raise InvalidParameterError("need one shaping entry per node")
            store("noise_shaping", tuple(
                None if s is None else _taps(s, f"noise shaping of {label!r}")
                for label, s in zip(self.labels, shaping)))
        edges = {}
        for link in self.links:
            if not isinstance(link, Link):
                raise InvalidParameterError(
                    f"links must be Link objects, not {type(link).__name__}")
            key = (link.source, link.target)
            if key in edges:
                raise InvalidParameterError(f"duplicate link {key}")
            edges[key] = float(np.max(np.abs(link.taps)))
        store("_skeleton", Polytree(self.labels, edges))
        store("_order", self._topological_order())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels == other.labels and self.links == other.links
                and self.seed == other.seed
                and np.array_equal(self.noise_variances, other.noise_variances)
                and _same_shaping(self.noise_shaping, other.noise_shaping))

    def __hash__(self):
        shaping = self.noise_shaping
        if shaping is not None:
            shaping = tuple(None if s is None else _values_key(s)
                            for s in shaping)
        return hash((self.labels, self.links, self.seed,
                     _values_key(self.noise_variances), shaping))

    @property
    def n(self) -> int:
        return len(self.labels)

    def to_polytree(self) -> Polytree:
        """The skeleton with its link directions, as a new :class:`Polytree`."""
        return Polytree(self.labels, dict(self._skeleton.edges))

    def parents_of(self, node: int) -> list[Link]:
        return [l for l in self.links if l.target == node]

    def topological_order(self) -> list[int]:
        return list(self._order)

    def _topological_order(self) -> tuple[int, ...]:
        """Nodes in waves, each wave sorted: the nodes whose parents are all
        placed.  The links form a polytree, so every wave is non-empty."""
        pending = {i: {l.source for l in self.parents_of(i)}
                   for i in range(self.n)}
        order = []
        while pending:
            ready = sorted(v for v, deps in pending.items() if not deps)
            order += ready
            pending = {v: deps.difference(ready)
                       for v, deps in pending.items() if deps}
        return tuple(order)

    def to_json(self) -> str:
        payload = {
            "labels": list(self.labels),
            "links": [
                {"source": l.source, "target": l.target,
                 "taps": l.taps.tolist(), "delay": l.delay}
                for l in self.links
            ],
            "noise_variances": self.noise_variances.tolist(),
            "noise_shaping": None if self.noise_shaping is None else [
                None if s is None else s.tolist() for s in self.noise_shaping
            ],
            "seed": self.seed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ALNSpec":
        """The spec :meth:`to_json` wrote.  Invalid JSON, a payload that is
        not an object or a link that is not one, and a missing field raise
        :class:`InvalidParameterError` naming the problem."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"spec is not valid JSON: {exc}") from None
        _json_object(raw, "spec", ("labels", "links", "noise_variances"))
        for l in _sequence(raw["links"], "links"):
            _json_object(l, "link", ("source", "target", "taps"))
        return cls(
            labels=raw["labels"],
            links=[Link(l["source"], l["target"], l["taps"], l.get("delay", 0))
                   for l in raw["links"]],
            noise_variances=raw["noise_variances"],
            noise_shaping=raw.get("noise_shaping"),
            seed=raw.get("seed"),
        )


def _json_object(raw, what: str, fields) -> None:
    """Raise unless ``raw`` is a JSON object holding every one of ``fields``."""
    if not isinstance(raw, dict):
        raise InvalidParameterError(f"{what} must be a JSON object")
    missing = [name for name in fields if name not in raw]
    if missing:
        raise InvalidParameterError(f"{what} is missing {', '.join(missing)}")


@dataclass
class SimResult:
    """Simulated sample paths of a network."""

    ensemble: Ensemble
    spec: ALNSpec
    burn_in: int


@dataclass
class IdentifiabilityReport:
    passed: bool
    violations: list[tuple[int, int, int]]
    exempt_pairs: int


@dataclass
class RecoveryReport:
    """Scored comparison of a recovered graph against the generating network."""

    mode: str
    pipeline: str
    n: int
    seed: int | None
    true_edges: list[tuple[int, int]]
    recovered_edges: list[tuple[int, int]]
    precision: float
    recall: float
    direction_accuracy: float | None
    tie_count: int

    def __post_init__(self):
        for value in (self.precision, self.recall):
            if not 0.0 <= value <= 1.0:
                raise InvalidParameterError("precision/recall must be in [0, 1]")
        if self.direction_accuracy is not None and not \
                0.0 <= self.direction_accuracy <= 1.0:
            raise InvalidParameterError("direction accuracy must be in [0, 1]")

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "pipeline": self.pipeline,
            "n": self.n,
            "seed": self.seed,
            "true_edges": [list(e) for e in self.true_edges],
            "recovered_edges": [list(e) for e in self.recovered_edges],
            "precision": self.precision,
            "recall": self.recall,
            "direction_accuracy": self.direction_accuracy,
            "tie_count": self.tie_count,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _prufer_tree(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree on n nodes via a Prüfer sequence."""
    if n == 2:
        return [(0, 1)]
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=int)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            # keep the pool sorted so the construction is deterministic
            bisect.insort(leaves, int(v))
    edges.append((leaves[0], leaves[1]))
    return edges


def generate_polytree_aln(n: int, seed: int) -> ALNSpec:
    """Draw a random identifiable network on a uniform random polytree.

    Tree shape comes from a uniform Prüfer sequence; each edge gets a fair
    coin orientation, a FIR with 1..``MAX_LINK_ORDER`` uniform [-1, 1] taps
    (redrawn until some tap reaches ``MIN_LINK_TAP`` in magnitude), and with
    probability ``DELAY_PROB`` a one-sample delay so causal structure is
    exercised.  Noise variances are uniform in ``NOISE_VARIANCE_RANGE``.
    Deterministic for a fixed ``(n, seed)``.
    """
    if _integer(n, "n") < 2:
        raise InvalidParameterError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    links = []
    for a, b in _prufer_tree(rng, n):
        if rng.random() < 0.5:
            a, b = b, a
        order = int(rng.integers(1, MAX_LINK_ORDER + 1))
        while True:
            taps = rng.uniform(-1.0, 1.0, size=order)
            if np.max(np.abs(taps)) >= MIN_LINK_TAP:
                break
        delay = 1 if rng.random() < DELAY_PROB else 0
        links.append(Link(a, b, taps, delay))
    variances = rng.uniform(*NOISE_VARIANCE_RANGE, size=n)
    labels = [f"X{i + 1}" for i in range(n)]
    return ALNSpec(labels, links, variances, seed=seed)


def _path_supports(spec: ALNSpec) -> int:
    """Longest total impulse support along any directed path."""
    depth = {v: 0 for v in range(spec.n)}
    for v in spec._order:
        for link in spec.parents_of(v):
            depth[v] = max(depth[v], depth[link.source] + link.support)
    return max(depth.values())


def simulate(spec: ALNSpec, length: int, seed: int) -> SimResult:
    """Sample the network: Gaussian noises filtered through the polytree.

    A burn-in of four times the longest path support is prepended and
    discarded, after which FIR transients have died exactly.  The returned
    ensemble keeps raw samples (no mean removal): outputs are zero-mean
    processes by construction and exact linear identities between series
    are preserved.
    """
    if _integer(length, "length") < 1024:
        raise InsufficientDataError("simulation length must be >= 1024")
    burn = 4 * _path_supports(spec) + 16
    total = length + burn
    rng = np.random.default_rng(seed)
    noises = rng.standard_normal((spec.n, total))
    noises *= np.sqrt(spec.noise_variances)[:, None]
    if spec.noise_shaping is not None:
        for i, shaping in enumerate(spec.noise_shaping):
            if shaping is not None:
                noises[i] = np.convolve(noises[i], shaping)[:total]
    signals = np.zeros((spec.n, total))
    for v in spec._order:
        acc = noises[v].copy()
        for link in spec.parents_of(v):
            filtered = np.convolve(signals[link.source], link.taps)[:total]
            if link.delay:
                filtered = np.concatenate([[0.0], filtered[:-1]])
            acc += filtered
        signals[v] = acc
    series = [TimeSeries(label, row[burn:])
              for label, row in zip(spec.labels, signals)]
    return SimResult(Ensemble(series, demean=False), spec, burn)


def _noise_spectra(spec: ALNSpec, grid: FrequencyGrid) -> np.ndarray:
    phi = np.repeat(spec.noise_variances[:, None], grid.size, axis=1)
    if spec.noise_shaping is not None:
        for i, shaping in enumerate(spec.noise_shaping):
            if shaping is not None:
                phi[i] *= np.abs(grid.response_from_taps(shaping)) ** 2
    return phi


def _source_transfers(spec: ALNSpec, grid: FrequencyGrid) -> np.ndarray:
    """``H[a, i]`` = transfer from noise ``e_i`` into signal ``x_a`` at the
    :attr:`FrequencyGrid.half` points, ``(n, n, K/2+1)``: the taps are real,
    so every link's response there comes from one ``rfft``."""
    responses = grid.half_from_time(
        grid._place_taps([(l.taps, l.delay) for l in spec.links]))
    parents = [[] for _ in spec.labels]
    for response, link in zip(responses, spec.links):
        parents[link.target].append((link.source, response))
    H = np.zeros((spec.n, spec.n, grid.size // 2 + 1), dtype=complex)
    for v in spec._order:
        H[v, v] = 1.0
        for source, response in parents[v]:
            H[v] += response * H[source]
    return H


def _cross_spectra(H: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``Phi_ab = sum_i conj(H_ai) H_bi phi_i``, one matrix product per grid point."""
    return np.matmul((np.conj(H) * phi).transpose(2, 0, 1),
                     H.transpose(2, 1, 0)).transpose(1, 2, 0)


class _AnalyticBuild:
    """One network's analytic quantities on one grid, all read-only, at
    the :attr:`FrequencyGrid.half` points: ``shares[a, i]``, whether the
    source transfer ``H[a, i]`` (:func:`_source_transfers`) is ever
    nonzero, the noise spectra ``phi``, and the :class:`SpectralMatrix` of
    the cross spectra (:func:`_cross_spectra`)."""

    def __init__(self, spec: ALNSpec, grid: FrequencyGrid):
        H = _source_transfers(spec, grid)
        # tested on its real and imaginary parts
        self.shares = np.any(H.view(float) != 0, axis=2)
        self.phi = _noise_spectra(spec, grid)[:, grid.half]
        self.shares.flags.writeable = self.phi.flags.writeable = False
        self.matrix = SpectralMatrix(spec.labels, grid,
                                     _cross_spectra(H, self.phi))


#: The one memoized build: ``(weak reference to the spec, grid size,
#: _AnalyticBuild)``, or None.  One slot, not one build per spec, so that
#: specs held in a list do not hold their builds too.  Read once and
#: replaced in one step, so a race between threads can only cost a rebuild.
_last_build = None


def _analytic_build(spec: ALNSpec, grid: FrequencyGrid) -> _AnalyticBuild:
    """The build of ``spec`` on ``grid``, memoized in :data:`_last_build`:
    a spec is immutable, so equal keys mean equal builds.  Another spec or
    grid size replaces it, and the spec's collection drops it."""
    global _last_build
    slot = _last_build
    if slot is not None and slot[0]() is spec and slot[1] == grid.size:
        return slot[2]
    build = _AnalyticBuild(spec, grid)
    _last_build = (weakref.ref(spec, _drop_build), grid.size, build)
    return build


def _drop_build(ref: weakref.ref) -> None:
    """Empty the slot when the spec it was built for is collected."""
    global _last_build
    slot = _last_build
    if slot is not None and slot[0] is ref:
        _last_build = None


def analytic_spectra(spec: ALNSpec, grid: FrequencyGrid) -> SpectralMatrix:
    """Exact spectral matrix of the network on a grid.

    Positive semi-definite at every frequency by construction (it is a
    noise-weighted Gram matrix of the source transfer rows).  The cross
    spectra are built on the :attr:`FrequencyGrid.half` grid only, which
    is all the :class:`SpectralMatrix` stores, as the spectra of real series
    are conjugate-even.

    The network's last analytic build is kept until its spec is collected
    or another spec or grid size is built, so repeated calls (and
    :func:`check_identifiability` before them) share one build and return
    the same immutable matrix.  It reports its ``spectral-floor`` events
    as a fresh matrix would: each collector records them once, from its
    first read of the floors, whichever call computed them.
    """
    return _analytic_build(spec, grid).matrix


def check_identifiability(spec: ALNSpec, grid: FrequencyGrid | None = None
                          ) -> IdentifiabilityReport:
    """Scan for frequency intervals where cross spectra and noises are alive.

    For every structurally related pair ``(i, j)`` (sharing at least one
    noise source; this includes ``i == j``) and every noise ``k``, the
    product ``|Phi_ij| * phi_k`` must exceed ``IDENTIFIABILITY_RTOL`` times
    its maximum on ``IDENTIFIABILITY_RUN`` consecutive grid points, tested
    by :func:`_has_run`, never wrapping around the grid.  Pairs that are
    exactly independent by the graph structure are exempt (their distance
    is maximal, which cannot corrupt a spanning tree) and only counted.  A
    dead noise fails every tuple that names it.  Violations are ordered by
    pair ``(i, j)``, then by noise.

    The rule is scale-free: a positive factor on ``phi_k`` moves neither
    its alive runs nor their ratio to the maximum, so a noise's verdict
    depends on its spectrum only up to a positive factor.  Each noise
    spectrum is therefore scaled to a maximum of 1 (a dead one stays
    zero), and the scan makes one pass per distinct scaled shape: every
    white noise of positive variance is the shape 1, so all of them share
    one pass over ``|Phi_ij|``.

    The products are even in frequency, so the scan reads only the
    :attr:`FrequencyGrid.half` points ``omega = -pi ... 0`` followed by the
    ``(IDENTIFIABILITY_RUN - 1) // 2`` points past ``0``, which repeat the
    points before it.  The mirror image of a run of the whole grid is a run
    too, and one of the two reaches no further past ``0`` than that, so
    runs across ``omega = 0`` are found as well.

    The scan reads the cross spectra of the network's analytic build,
    whose matrix :func:`analytic_spectra` then hands out (see there).
    """
    grid = grid or FrequencyGrid(1024)
    build = _analytic_build(spec, grid)
    shares = build.shares
    related = shares @ shares.T    # [a, b]: common noise source exists
    rows, cols = np.nonzero(np.triu(related))
    # the points past omega = 0 are the twins of those before it
    m, past = grid.size // 2, (IDENTIFIABILITY_RUN - 1) // 2
    scan = np.concatenate((np.arange(m + 1), np.arange(m - 1, m - 1 - past, -1)))
    pairs = np.abs(build.matrix.half[rows, cols])[:, scan]
    top = np.max(build.phi, axis=1, keepdims=True)
    scaled = build.phi[:, scan] / np.where(top > 0.0, top, 1.0)
    # one pass per distinct scaled shape; shape_of[k] indexes noise k's
    distinct: dict[bytes, int] = {}
    shape_of = [distinct.setdefault(row.tobytes(), len(distinct))
                for row in scaled]
    shapes = np.frombuffer(b"".join(distinct)).reshape(len(distinct), -1)
    product = pairs[:, None, :] * shapes
    peak = np.max(product, axis=-1, keepdims=True)
    failed = ~_has_run(product > IDENTIFIABILITY_RTOL * peak,
                       IDENTIFIABILITY_RUN)
    violations = [(int(rows[p]), int(cols[p]), int(k))
                  for p, k in zip(*np.nonzero(failed[:, shape_of]))]
    exempt = spec.n * (spec.n + 1) // 2 - rows.size
    return IdentifiabilityReport(not violations, violations, exempt)


def _has_run(alive: np.ndarray, run: int) -> np.ndarray:
    """Rows of ``alive`` holding ``run`` consecutive true points, unwrapped:
    the AND of ``alive`` shifted by ``0 ... run-1`` points marks run starts."""
    width = alive.shape[-1] - run + 1
    starts = alive[..., :width]
    for shift in range(1, run):
        starts = starts & alive[..., shift:shift + width]
    return starts.any(axis=-1)


def _score(true_tree: Polytree, graph, mode: str, pipeline: str,
           seed: int | None) -> RecoveryReport:
    """Score a recovered graph's edges against the true polytree; a
    :class:`Polytree` is also scored on its directions and counts its ties."""
    truth = {frozenset(e) for e in true_tree.edges}
    undirected = {frozenset(e) for e in graph.edges}
    hits = truth & undirected
    precision = len(hits) / len(undirected) if undirected else 1.0
    recall = len(hits) / len(truth) if truth else 1.0
    accuracy, tie_count = None, 0
    if isinstance(graph, Polytree):
        correct = sum(edge in true_tree.edges for edge in graph.edges)
        accuracy = correct / len(hits) if hits else 1.0
        tie_count = len(graph.ties)
    return RecoveryReport(
        mode=mode, pipeline=pipeline, n=true_tree.n, seed=seed,
        true_edges=sorted((min(p, c), max(p, c)) for p, c in true_tree.edges),
        recovered_edges=sorted(tuple(sorted(p)) for p in undirected),
        precision=precision, recall=recall,
        direction_accuracy=accuracy, tie_count=tie_count,
    )


def run_recovery(spec: ALNSpec, mode: str = "analytic",
                 pipeline: str = "mst-coherence",
                 length: int = 131072, seed: int | None = None,
                 cfg: WelchConfig | None = None) -> RecoveryReport:
    """Run one end-to-end topology recovery and score it against the truth.

    ``mode`` picks the spectra: exact ("analytic") or Welch estimates from a
    fresh simulation ("simulated", needs ``length`` and ``seed``).
    ``pipeline`` picks the recovery route: "mst-coherence" (undirected MST),
    "polytree-causal" (directed), or "miso-blanket" (undirected, filter
    supports).
    """
    if mode not in ("analytic", "simulated"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if pipeline not in ("mst-coherence", "polytree-causal", "miso-blanket"):
        raise InvalidParameterError(f"unknown pipeline {pipeline!r}")
    cfg = cfg or WelchConfig()
    grid = FrequencyGrid(cfg.grid_size)
    if mode == "analytic":
        S = analytic_spectra(spec, grid)
    else:
        if seed is None:
            raise InvalidParameterError("simulated mode needs a seed")
        sim = simulate(spec, length, seed)
        S = spectral_matrix(sim.ensemble, cfg)
    if pipeline == "mst-coherence":
        graph = minimum_spanning_tree(distance_matrix(S))
    elif pipeline == "polytree-causal":
        graph = build_polytree(causal_distance_matrix(S))
    else:
        graph = miso_blanket_topology(S, distance_matrix(S))
    return _score(spec._skeleton, graph, mode, pipeline, seed)
