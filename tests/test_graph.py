import importlib.util
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import avgtrack as at
from avgtrack import (
    Graph,
    is_connected,
    lambda2,
    laplacian,
)
from avgtrack.graph import incidence_matrix
from avgtrack.errors import ConfigError, NotConnected
from avgtrack.numerics import sym_eigvals
from avgtrack.scenarios import NAMES
from conftest import neighbors

# the benchmark's workload generator, from its file
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

P2 = Graph(2, ((0, 1),))
TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
C6 = Graph(6, tuple((i, (i + 1) % 6) for i in range(6)))


def random_graph(rng, n):
    pairs = list(itertools.combinations(range(n), 2))
    keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.9)
    return Graph(n, tuple(p for p, k in zip(pairs, keep) if k))


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            Graph(3, ((1, 1),))

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            Graph(3, ((0, 1), (1, 0)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Graph(2, ((0, 2),))

    # once truncated to (0, 1) or cut to its first two entries; int() of
    # inf, of nan and len() of 5 raised Python's own errors
    @pytest.mark.parametrize("edge", [(0, 1.7), (0.5, 1), (0, 1, 5), (0,), ("0", 1),
                                      (0, float("inf")), (0, float("nan")), 5])
    def test_edge_not_a_pair_of_whole_indices_rejected(self, edge):
        shown = list(edge) if isinstance(edge, tuple) else edge
        with pytest.raises(ConfigError, match=re.escape(
                f"edge {shown!r} is not a pair of whole node indices")):
            Graph(3, (edge,))

    def test_whole_float_indices_accepted(self):
        # as a whole float node count is
        g = Graph(3.0, ((0, 1.0), (2.0, 1)))
        assert g.n_nodes == 3 and g.edges == ((0, 1), (1, 2))
        assert all(type(v) is int for e in g.edges for v in e)

    def test_neighbor_symmetry(self):
        g = TRIANGLE
        for i in range(3):
            for j in neighbors(g, i):
                assert i in neighbors(g, j)


class TestIncidence:
    def test_p2(self):
        np.testing.assert_array_equal(incidence_matrix(P2), [[1.0], [-1.0]])

    def test_triangle(self):
        np.testing.assert_array_equal(
            incidence_matrix(TRIANGLE),
            [[1, 1, 0], [-1, 0, 1], [0, -1, -1]],
        )

    def test_empty(self):
        assert incidence_matrix(Graph(3)).shape == (3, 0)


class TestLaplacian:
    def test_p2(self):
        np.testing.assert_array_equal(laplacian(P2), [[1, -1], [-1, 1]])

    def test_triangle(self):
        np.testing.assert_array_equal(
            laplacian(TRIANGLE), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    def test_c6_circulant(self):
        L = laplacian(C6)
        assert np.all(np.diag(L) == 2)
        for i in range(6):
            assert L[i, (i + 1) % 6] == -1
            assert L[i, (i - 1) % 6] == -1

    def test_equals_incidence_product(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 9)))
            D = incidence_matrix(g)
            np.testing.assert_allclose(laplacian(g), D @ D.T, atol=1e-12)

    def test_degrees_have_the_bits_of_the_row_sums(self):
        # the diagonal counts edge ends; the negated row sums of the
        # off-diagonal entries, over the dense N x N matrix, gave the same bits
        network = json.loads(workloads.config_text("network-1k", 1))["graph"]
        graphs = [at.parse_scenario(at.scenario_config(name)).graph for name in NAMES]
        graphs.append(Graph(network["n"], tuple(map(tuple, network["edges"]))))
        for g in graphs:
            L = np.zeros((g.n_nodes, g.n_nodes))
            i, j = at.graph.edge_index(g)
            L[i, j] = L[j, i] = -1.0
            np.fill_diagonal(L, -L.sum(axis=1))
            assert laplacian(g).tobytes() == L.tobytes()

    def test_row_sums_zero_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng, 7)
            assert np.all(laplacian(g) @ np.ones(7) == 0.0)

    def test_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_graph(rng, 6)
            assert np.linalg.eigvalsh(laplacian(g)).min() >= -1e-10


class TestConnectivity:
    def test_p2(self):
        assert is_connected(P2)

    def test_isolated(self):
        assert not is_connected(Graph(3))

    def test_two_triangles(self):
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        assert not is_connected(g)

    def test_zero_multiplicity_equals_components(self):
        # zero-eigenvalue multiplicity of L counts connected components
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            vals = np.linalg.eigvalsh(laplacian(g))
            zero_mult = int(np.count_nonzero(np.abs(vals) < 1e-8))
            adj = [[] for _ in range(n)]
            for i, j in g.edges:
                adj[i].append(j)
                adj[j].append(i)
            seen, comps = set(), 0
            for s in range(n):
                if s in seen:
                    continue
                comps += 1
                stack = [s]
                seen.add(s)
                while stack:
                    u = stack.pop()
                    for v in adj[u]:
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
            assert zero_mult == comps


class TestLambda2:
    def test_p2(self):
        assert lambda2(P2) == pytest.approx(2.0, abs=1e-10)

    def test_k3(self):
        assert lambda2(TRIANGLE) == pytest.approx(3.0, abs=1e-10)

    def test_c6(self):
        # brute-force circulant spectrum: 2 - 2 cos(2 pi k / 6), min nonzero at k=1
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi / 6.0)
        assert lambda2(C6) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(1.0)

    def test_disconnected_raises(self):
        with pytest.raises(NotConnected):
            lambda2(Graph(3))

    def test_one_node_names_its_node_count(self):
        # one node is connected but has no second eigenvalue: this was a
        # bare IndexError, also from design_gains
        g = Graph(1)
        assert is_connected(g)
        plant = at.LinearPlant(A=[[0.0]], B=[[1.0]])
        for read in (lambda: lambda2(g), lambda: g.lambda2,
                     lambda: at.design_gains(plant, g, np.eye(1), f0=1.0)):
            with pytest.raises(ConfigError, match="lambda2 needs at least 2 nodes, got 1"):
                read()

    def test_property_raises_at_every_read(self):
        g = Graph(3)
        for _ in range(2):
            with pytest.raises(NotConnected, match="lambda2 requires a connected graph"):
                g.lambda2

    def test_property_is_one_call_of_the_function(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        g = Graph(6, C6.edges)
        assert g.lambda2 == g.lambda2
        assert len(calls) == 1 and np.array_equal(calls[0], laplacian(g))

    def test_property_has_the_bits_of_the_function(self):
        # the canned graphs and the benchmark's seed-1 network (1000 nodes,
        # 2000 edges)
        network = json.loads(workloads.config_text("network-1k", 1))["graph"]
        graphs = [at.parse_scenario(at.scenario_config(name)).graph for name in NAMES]
        graphs.append(Graph(network["n"], tuple(map(tuple, network["edges"]))))
        for g in graphs:
            assert g.lambda2.hex() == lambda2(g).hex()

    def test_equals_the_symmetrised_spectrum(self):
        # the Laplacian is built exactly symmetric, so eigvalsh on it as built
        # keeps the bits of eigvalsh on (L + L^T) / 2
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            g = random_graph(rng, int(rng.integers(2, 30)))
            if is_connected(g):
                assert lambda2(g) == sym_eigvals(laplacian(g))[1]
                checked += 1

    def test_allocates_about_one_laplacian(self):
        ring = Graph(400, tuple((i, (i + 1) % 400) for i in range(400)))
        lambda2(ring)    # first call outside the trace: numpy's lazy set-up
        tracemalloc.start()
        try:
            lambda2(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * laplacian(ring).nbytes

    def test_rayleigh_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_graph(rng, 7)
            if not is_connected(g):
                continue
            L = laplacian(g)
            lam2 = lambda2(g)
            x = rng.standard_normal(7)
            x -= x.mean()
            assert x @ L @ x >= (lam2 - 1e-8) * (x @ x)

    def test_orientation_invariance(self):
        # flipping stored edge orientation changes D but not D D^T
        g = TRIANGLE
        D = incidence_matrix(g)
        for cols in itertools.product([1, -1], repeat=3):
            Df = D * np.array(cols)
            np.testing.assert_allclose(Df @ Df.T, laplacian(g), atol=1e-12)
