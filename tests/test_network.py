import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ridepool.network import (INF, Network, NetworkError, euclidean_network,
                              load_network)


def test_minimal_graph():
    net = load_network([(0, None, None), (1, None, None)], [(0, 1, 10.0)])
    assert net.nodes == [0, 1]
    assert net.shortest_time(0, 1) == 10.0


def test_unknown_node_rejected():
    with pytest.raises(NetworkError, match="unknown node 99"):
        load_network([(0, None, None)], [(0, 99, 5.0)])


def test_nonpositive_time_rejected():
    with pytest.raises(NetworkError, match="row 1"):
        load_network([(0, None, None), (1, None, None)], [(0, 1, 0.0)])


def test_duplicate_arc_keeps_minimum():
    net = load_network([(0, None, None), (1, None, None)],
                       [(0, 1, 10.0), (0, 1, 7.0)])
    assert net.shortest_time(0, 1) == 7.0


def test_identity_and_triangle():
    net = load_network([(0, None, None), (1, None, None), (2, None, None)],
                       [(0, 1, 10.0), (1, 2, 10.0), (0, 2, 25.0)])
    assert net.shortest_time(0, 0) == 0.0
    assert net.shortest_time(0, 2) == 20.0  # via the middle node


def test_disconnected_pair_is_infinite():
    net = load_network([(0, None, None), (1, None, None)], [])
    assert net.shortest_time(0, 1) == INF


def test_euclidean_figure_distances(fig_net):
    assert fig_net.shortest_time(10, 30) == pytest.approx(math.sqrt(45), abs=1e-9)
    assert fig_net.shortest_time(30, 31) == pytest.approx(math.sqrt(10), abs=1e-9)


def test_euclidean_single_point():
    net = euclidean_network([(7, 1.0, 2.0)])
    assert net.nodes == [7]
    assert net.adjacency[7] == []


def test_euclidean_duplicate_id_rejected():
    with pytest.raises(NetworkError):
        euclidean_network([(1, 0, 0), (1, 1, 1)])


def _random_net(rng, n):
    nodes = [(i, None, None) for i in range(n)]
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.3:
                arcs.append((u, v, rng.uniform(1.0, 50.0)))
    return load_network(nodes, arcs), arcs


def _floyd_warshall(n, arcs):
    d = [[INF] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for u, v, t in arcs:
        d[u][v] = min(d[u][v], t)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


@pytest.mark.parametrize("seed", range(5))
def test_matches_floyd_warshall(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 50)
    net, arcs = _random_net(rng, n)
    want = _floyd_warshall(n, arcs)
    for i in range(n):
        for j in range(n):
            got = net.shortest_time(i, j)
            if want[i][j] == INF:
                assert got == INF
            else:
                assert got == pytest.approx(want[i][j], abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_triangle_inequality(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 15)
    net, _ = _random_net(rng, n)
    for _ in range(20):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        ab, bc, ac = net.shortest_time(a, b), net.shortest_time(b, c), net.shortest_time(a, c)
        if ab < INF and bc < INF:
            assert ac <= ab + bc + 1e-9


def test_cached_equals_uncached():
    rng = random.Random(99)
    net, arcs = _random_net(rng, 20)
    first = [net.shortest_time(3, j) for j in range(20)]
    second = [net.shortest_time(3, j) for j in range(20)]
    assert first == second


def test_path_legs_consistent(fig_net):
    legs = fig_net.path_legs(10, 30)
    assert sum(t for _, t, _ in legs) == pytest.approx(fig_net.shortest_time(10, 30))
    assert legs[-1][0] == 30


def test_length_defaults_to_time():
    net = load_network([(0, None, None), (1, None, None)], [(0, 1, 12.5)])
    assert net.arc(0, 1) == (12.5, 12.5)


def test_mutation_after_finish_rejected():
    net = load_network([(0, None, None), (1, None, None), (2, None, None)],
                       [(0, 1, 10.0), (1, 2, 10.0), (0, 2, 25.0)])
    assert net.shortest_time(0, 2) == 20.0
    with pytest.raises(NetworkError, match="read-only"):
        net.add_arc(0, 2, 5.0)
    with pytest.raises(NetworkError, match="read-only"):
        net.add_node(3)
    assert net.shortest_time(0, 2) == 20.0
    assert net.nodes == [0, 1, 2]


def test_first_query_closes_an_unfinished_network():
    net = Network()
    for i in range(3):
        net.add_node(i)
    net.add_arc(0, 2, 9.0)
    net.add_arc(0, 1, 4.0)
    net.add_arc(1, 2, 5.0)
    assert net.path(0, 2).node_sequence == (0, 2)  # a tie keeps the first relaxation
    with pytest.raises(NetworkError, match="read-only"):
        net.add_node(3)


def test_unknown_query_nodes_rejected():
    net = load_network([(0, None, None), (1, None, None)], [(0, 1, 10.0)])
    for query in (net.shortest_time, net.path):
        with pytest.raises(NetworkError, match="unknown node 7"):
            query(0, 7)
        with pytest.raises(NetworkError, match="unknown node 7"):
            query(7, 0)


def test_unreachable_path_is_empty():
    net = load_network([(0, None, None), (1, None, None)], [(1, 0, 3.0)])
    assert net.path(0, 1).node_sequence == ()
    assert net.path(0, 1).total_time == INF
    assert net.path(1, 0).node_sequence == (1, 0)
    assert net.path(1, 1).node_sequence == (1,)
