"""Graph construction from distance matrices.

A minimum spanning tree over the coherence distances recovers the skeleton
of a tree-shaped network; orienting its edges by the cheaper causal
modelling direction yields a polytree.  The alternative route goes through
multi-input Wiener filters: the support of the filter of one target is its
Markov blanket (parents, children, co-parents), and co-parents are pruned
by an indirect-path test on the distances; :mod:`polyscope.wiener` decides
how the filters over all other series are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import record
from .errors import InvalidParameterError
from .metric import SYMMETRIC_KINDS, DistanceMatrix, causal_edge_weights
from .signals import SpectralMatrix, _array, _blocks, _integer, _sequence
from .wiener import _filter_rms

#: Relative filter magnitude below which a MISO input does not count as a
#: blanket candidate.
BLANKET_RMS_RTOL = 1e-3


@dataclass
class UndirectedGraph:
    """Weighted undirected graph over labelled nodes.

    Edges are keyed by the ordered index pair ``(min, max)`` of two
    integer node indices; self-loops and duplicates are rejected, ``(a, b)``
    and ``(b, a)`` naming one edge.  The weights are read together by
    :func:`~polyscope.signals._array` as finite real numbers and stored as
    floats.  The one check of edges: :class:`Tree` and, through its
    skeleton, :class:`Polytree` read it.
    """

    nodes: tuple[str, ...]
    edges: dict[tuple[int, int], float]

    def __post_init__(self):
        self.nodes = _sequence(self.nodes, "nodes")
        n, m, canonical = len(self.nodes), len(self.edges), {}
        weights = _array(list(self.edges.values()), float, "edge weights", (m,))
        for (a, b), w in zip(self.edges, weights.tolist()):
            a, b = _integer(a, "node index"), _integer(b, "node index")
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidParameterError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise InvalidParameterError(f"self-loop on node {a}")
            key = (min(a, b), max(a, b))
            if key in canonical:
                raise InvalidParameterError(f"duplicate edge {key}")
            canonical[key] = w
        self.edges = canonical

    @property
    def n(self) -> int:
        return len(self.nodes)

    def total_weight(self) -> float:
        return float(sum(self.edges.values()))


class Tree(UndirectedGraph):
    """An undirected graph that is connected and has exactly n-1 edges."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.edges) != self.n - 1:
            raise InvalidParameterError(
                f"a tree on {self.n} nodes needs {self.n - 1} edges, "
                f"got {len(self.edges)}")
        # n - 1 edges connect n nodes exactly when none of them closes a cycle
        uf = _UnionFind(self.n)
        if not all(uf.union(a, b) for a, b in self.edges):
            raise InvalidParameterError("tree is not connected")


@dataclass
class Polytree:
    """A directed tree: the edges of a tree, each given one direction.

    Edges are keyed ``(parent, child)``.  The edges are checked once, as
    the :meth:`skeleton` :class:`Tree`: an antiparallel pair is that tree's
    duplicate edge, so no directed cycle, not even a 2-cycle, can occur.
    The polytree stores the endpoints (as ints, direction kept) and the
    weights (as floats) that tree read, and keys ``ties`` as its edges.
    ``ties`` flags edges whose orientation came from a deterministic
    tie-break rather than a strict cost comparison.
    """

    nodes: tuple[str, ...]
    edges: dict[tuple[int, int], float]
    ties: set[tuple[int, int]] = field(default_factory=set)

    def __post_init__(self):
        self.nodes = _sequence(self.nodes, "nodes")
        tree = self.skeleton()      # raises unless the skeleton is a tree
        # the tree keeps the edges' order, keyed (min, max)
        keys = {edge: (a, b) if edge[0] == a else (b, a)
                for edge, (a, b) in zip(self.edges, tree.edges)}
        for edge in self.ties:
            if edge not in keys:
                raise InvalidParameterError(f"tie flag on unknown edge {edge}")
        self.ties = {keys[edge] for edge in self.ties}
        self.edges = dict(zip(keys.values(), tree.edges.values()))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def parents(self, v: int) -> set[int]:
        return {p for (p, c) in self.edges if c == v}

    def children(self, v: int) -> set[int]:
        return {c for (p, c) in self.edges if p == v}

    @property
    def roots(self) -> set[int]:
        return {v for v in range(self.n) if not self.parents(v)}

    def skeleton(self) -> Tree:
        """The edges without their directions, as a new :class:`Tree`."""
        return Tree(self.nodes, dict(self.edges))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def minimum_spanning_tree(W: DistanceMatrix) -> Tree:
    """Kruskal's minimum spanning tree over the complete distance graph.

    Candidate edges are processed in lexicographic ``(weight, min index,
    max index)`` order, which makes the result deterministic under ties;
    one :func:`numpy.lexsort` over the upper triangle gives it.  Requires a
    symmetric distance kind.
    """
    if W.kind == "causal":
        raise InvalidParameterError(
            "spanning trees need a symmetric matrix; fold causal distances "
            "with causal_edge_weights first")
    n = W.n
    if n < 2:
        raise InvalidParameterError("need at least two nodes")
    index = np.arange(n)
    rows, cols = np.nonzero(index[:, None] < index)     # the upper triangle
    weights = W.values[rows, cols]
    order = np.lexsort((cols, rows, weights))
    uf = _UnionFind(n)
    chosen: dict[tuple[int, int], float] = {}
    for w, a, b in zip(weights[order].tolist(), rows[order].tolist(),
                       cols[order].tolist()):
        if uf.union(a, b):
            chosen[(a, b)] = w
            if len(chosen) == n - 1:
                break
    return Tree(W.labels, chosen)


def build_polytree(DC: DistanceMatrix) -> Polytree:
    """Orient the spanning tree of the folded causal weights.

    The tree is grown on the pairwise-minimum causal weights; each tree edge
    then points along its cheaper modelling direction (ties keep their
    deterministic orientation, are flagged on the edge and are recorded as
    ``tie`` events).
    """
    weights, directions = causal_edge_weights(DC)
    tree = minimum_spanning_tree(weights)
    edges: dict[tuple[int, int], float] = {}
    ties: set[tuple[int, int]] = set()
    messages = []
    for (a, b), w in tree.edges.items():
        # +1 at [a, b] reads: modelling a from input b won, i.e. b -> a.
        if directions.values[a, b] == 1:
            key = (b, a)
        else:
            key = (a, b)
        edges[key] = w
        if directions.ties[a, b]:
            ties.add(key)
            messages.append(f"causal tie between {DC.labels[a]!r} and "
                            f"{DC.labels[b]!r} at {DC.values[a, b]:.6f}")
    record("tie", *messages)
    return Polytree(DC.labels, edges, ties)


def markov_blanket(tree: Polytree, node: int) -> set[int]:
    """Parents, children and co-parents of a node in a polytree."""
    if not 0 <= _integer(node, "node") < tree.n:
        raise InvalidParameterError(f"node {node} out of range")
    parents = tree.parents(node)
    children = tree.children(node)
    coparents = set()
    for child in children:
        coparents |= tree.parents(child)
    coparents.discard(node)
    return parents | children | coparents


def miso_blanket_topology(S: SpectralMatrix, D: DistanceMatrix,
                          threshold: float | None = None) -> UndirectedGraph:
    """Recover the skeleton from multi-input Wiener filter supports.

    For each target the filter over all remaining series is solved; inputs
    whose filter RMS exceeds ``threshold`` (relative to the largest RMS for
    that target; a real number in (0, 1), read as a 0-d array by
    :func:`~polyscope.signals._array`) are blanket candidates.  A candidate
    ``i`` is then purged when some other candidate ``c`` explains it away,
    i.e. both legs of the indirect route are shorter than the direct
    distance: ``max(D(i,c), D(c,j)) < D(i,j)``.  In a tree this removes exactly the
    co-parents, which sit at maximal distance from the target.  Surviving
    links are symmetrised by union over targets.

    The filters are the ones :func:`noncausal_wiener` returns, and their RMS
    comes from :func:`~polyscope.wiener._filter_rms`: one inverse of the
    floored matrix when it clears the conditioning screen, else one checked
    fit per target, which leaves out each input collinear with those kept
    before it by the one conditioning rule of every Wiener fit (RMS 0, a
    ``collinear-candidate`` event), so no record makes it raise
    :class:`~polyscope.errors.IllConditionedSpectrumError`.  Every target
    is purged in one array pass by :func:`_blanket_edges`.
    """
    if D.kind not in SYMMETRIC_KINDS:
        raise InvalidParameterError("need a symmetric distance matrix")
    if tuple(D.labels) != S.labels:
        raise InvalidParameterError("distance labels do not match the spectra")
    rtol = (BLANKET_RMS_RTOL if threshold is None
            else float(_array(threshold, float, "threshold", ())))
    if not 0 < rtol < 1:
        raise InvalidParameterError(f"threshold must lie in (0, 1), got {rtol}")
    if S.n < 2:
        raise InvalidParameterError("need at least two nodes")
    return UndirectedGraph(S.labels, _blanket_edges(S.labels, _filter_rms(S),
                                                    D.values, rtol))


def _blanket_edges(labels, rms: np.ndarray, D: np.ndarray, rtol: float
                   ) -> dict[tuple[int, int], float]:
    """The edges of :func:`miso_blanket_topology` from the ``(n, n)`` filter
    RMS ``rms[j, i]`` (its diagonal ignored) and the values ``D`` of a
    :class:`~polyscope.metric.DistanceMatrix` (non-negative, zero diagonal).

    Every target's candidates and purges are marked in one boolean array
    pass, in blocks by :func:`~polyscope.signals._blocks`, each target
    counting its ``n^2`` route values (all 32 targets at n 32), so the
    temporaries never grow as ``n^3``.  Purges are recorded, one call a
    block, and edges inserted in target order, then candidate order; each
    edge keeps the distance of its first target.
    """
    n, names = len(labels), [repr(label) for label in labels]
    off = ~np.eye(n, dtype=bool)
    top = np.max(rms, axis=1, where=off, initial=-np.inf)
    # a target whose largest RMS is 0 has no candidate: no RMS exceeds 0
    candidates = off & (rms > rtol * top[:, None])
    edges: dict[tuple[int, int], float] = {}
    for block in _blocks(n, n ** 2):
        lo = block.start
        chosen = candidates[block]
        to_target = D[:, block].T                   # [j, i] = D(i, j)
        # [j, i, c]: candidate c of target j explains candidate i away; c = i
        # never does, as D(i, i) = 0 leaves the leg D(i, j) itself
        routes = np.maximum(D, to_target[:, None, :]) < to_target[:, :, None]
        routes &= chosen[:, None, :]
        purged = chosen & routes.any(axis=-1)
        record("blanket-purge", *(
            f"candidate {names[i]} of target {names[lo + j]} explained by an "
            f"indirect route" for j, i in np.argwhere(purged).tolist()))
        for j, i in np.argwhere(chosen & ~purged).tolist():
            edges.setdefault((min(i, lo + j), max(i, lo + j)),
                             float(D[i, lo + j]))
    return edges


def _quote(label: str) -> str:
    return '"' + label.replace('"', r'\"') + '"'


def export_dot(graph) -> str:
    """Render a graph in DOT syntax with 4-decimal weight labels.

    Accepts :class:`UndirectedGraph`/:class:`Tree` (rendered as ``graph``)
    or :class:`Polytree` (rendered as ``digraph``).  Node and edge order is
    deterministic.
    """
    directed = isinstance(graph, Polytree)
    lines = ["digraph topology {" if directed else "graph topology {"]
    for label in graph.nodes:
        lines.append(f"    {_quote(label)};")
    connector = "->" if directed else "--"
    for (a, b), w in sorted(graph.edges.items()):
        lines.append(f"    {_quote(graph.nodes[a])} {connector} "
                     f"{_quote(graph.nodes[b])} [label=\"{w:.4f}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_list_rows(graph) -> list[dict]:
    """Edge rows for CSV export: node_a, node_b, weight, direction, tie_flag.

    Undirected edges carry direction "none"; polytree edges state which
    endpoint is the source.  Rows are sorted by node indices.
    """
    directed = isinstance(graph, Polytree)
    rows = []
    for (p, c), w in sorted(graph.edges.items(), key=lambda e: sorted(e[0])):
        a, b = min(p, c), max(p, c)
        rows.append({
            "node_a": graph.nodes[a],
            "node_b": graph.nodes[b],
            "weight": w,
            "direction": ("a_to_b" if p == a else "b_to_a") if directed else "none",
            "tie_flag": 1 if directed and (p, c) in graph.ties else 0,
        })
    return rows
