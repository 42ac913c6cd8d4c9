"""Undirected graph representation and the spectral quantities gain design needs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import MALFORMED, ConfigError, NotConnected


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1.

    Each edge is a pair of whole node indices (1.0 is node 1), stored as
    (i, j) with i < j; duplicates and self-loops are rejected.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = int(self.n_nodes)
        if n != self.n_nodes or n < 1:
            raise ConfigError(f"graph needs a whole number of nodes >= 1, got {self.n_nodes!r}")
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "edges", _checked_edges(self.edges, n))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def lambda2(self) -> float:
        """lambda2(self), computed once; NotConnected is raised at every read."""
        return lambda2(self)


def _checked_edges(edges, n: int) -> tuple[tuple[int, int], ...]:
    """The edges as (i, j) with i < j, checked in whole-list passes: pairs of
    ints in range, no self-loop, no duplicate. Edges in any other form, and
    a fault, go through the edges one at a time, which names the first bad one."""
    edges = tuple(edges)
    if all(type(e) is tuple and len(e) == 2 for e in edges):
        ends = list(itertools.chain.from_iterable(edges))
        if {int}.issuperset(map(type, ends)) and (not ends or 0 <= min(ends) and max(ends) < n):
            pairs = [(a, b) if a < b else (b, a) for a, b in edges]
            if all(a != b for a, b in pairs) and len(set(pairs)) == len(pairs):
                return tuple(pairs)
    return _edges_one_by_one(edges, n)


def _edges_one_by_one(edges, n: int) -> tuple[tuple[int, int], ...]:
    norm_edges = []
    seen = set()
    for e in edges:
        # a pair of whole numbers, as n_nodes is one: 1.0 is node 1, 1.7,
        # inf and nan no node
        try:
            a, b = e
            i, j = int(a), int(b)
            whole = i == a and j == b
        except MALFORMED:
            whole = False
        if not whole:
            shown = list(e) if isinstance(e, (list, tuple)) else e
            raise ConfigError(f"edge {shown!r} is not a pair of whole node indices")
        if i == j:
            raise ConfigError(f"self-loop ({i}, {j}) not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigError(f"edge ({i}, {j}) out of range for {n} nodes")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ConfigError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        norm_edges.append((i, j))
    return tuple(norm_edges)


def edge_index(g: Graph) -> NDArray[np.intp]:
    """2 x n_edges index array: the tail (lower index) and the head of each
    stored edge."""
    return np.asarray(g.edges, dtype=np.intp).reshape(-1, 2).T


def incidence_matrix(g: Graph) -> NDArray[np.float64]:
    """n_nodes x n_edges incidence matrix.

    Column k for edge (i, j) has +1 at row i and -1 at row j; the lower
    index is the tail. The Laplacian is invariant to this choice.
    """
    D = np.zeros((g.n_nodes, g.n_edges))
    for k, (i, j) in enumerate(g.edges):
        D[i, k] = 1.0
        D[j, k] = -1.0
    return D


def laplacian(g: Graph) -> NDArray[np.float64]:
    """Graph Laplacian: degree matrix minus adjacency matrix (= D D^T)."""
    L = np.zeros((g.n_nodes, g.n_nodes))
    i, j = edge_index(g)
    L[i, j] = L[j, i] = -1.0      # simple graph: each pair at most once
    # the degrees, counted from the edge ends in O(E), not summed over N x N
    np.fill_diagonal(L, np.bincount(np.concatenate([i, j]), minlength=g.n_nodes))
    return L


def is_connected(g: Graph) -> bool:
    """True iff every node pair is joined by a path (BFS from node 0)."""
    if g.n_nodes == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n_nodes)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n_nodes


def lambda2(g: Graph) -> float:
    """Algebraic connectivity: second-smallest Laplacian eigenvalue.

    Raises NotConnected on disconnected graphs (the zero eigenvalue would
    not be simple). `laplacian` builds L exactly symmetric, so eigvalsh reads it as built.
    """
    if not is_connected(g):
        raise NotConnected("lambda2 requires a connected graph")
    return float(np.linalg.eigvalsh(laplacian(g))[1])
