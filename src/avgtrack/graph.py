"""Undirected graph representation and the spectral quantities gain design needs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, NotConnected


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1.

    Edges are stored as (i, j) pairs with i < j; duplicates and self-loops
    are rejected.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = int(self.n_nodes)
        if n != self.n_nodes or n < 1:
            raise ConfigError(f"graph needs a whole number of nodes >= 1, got {self.n_nodes!r}")
        object.__setattr__(self, "n_nodes", n)
        norm_edges = []
        seen = set()
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ConfigError(f"self-loop ({i}, {j}) not allowed")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ConfigError(f"edge ({i}, {j}) out of range for {self.n_nodes} nodes")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ConfigError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            norm_edges.append((i, j))
        object.__setattr__(self, "edges", tuple(norm_edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


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
    np.fill_diagonal(L, -L.sum(axis=1))
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
