"""Golden pins: event logs, served counts and VMT that must not move across
code versions, plus a reference check of the shortest-path memo.

Each pin is the first 12 hex digits of the sha256 of the events.csv rows
(header excluded), with served, expired and VMT. A pinned value changes only
together with a CHANGES.md entry that names the tie-break or semantic fix
that moved it.
"""

import hashlib
import heapq
import os
import random

import pytest

from ridepool.config import parse_config
from ridepool.core import read_requests_csv, read_vehicles_csv
from ridepool.network import INF, load_network, load_network_csv
from ridepool.sim import run_simulation

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "data")


def simulate_bundled(name, algo):
    """Run one bundled data set the way `ridepool simulate` does."""
    d = os.path.join(DATA, name)
    cfg = parse_config(None, {"algo": algo})
    net = load_network_csv(os.path.join(d, "nodes.csv"), os.path.join(d, "edges.csv"))
    requests = read_requests_csv(os.path.join(d, "requests.csv"), cfg.max_wait,
                                 cfg.max_detour)
    vehicles = read_vehicles_csv(os.path.join(d, "vehicles.csv"), cfg.capacity)
    return run_simulation(cfg, net, requests, vehicles)


def events_hash(events) -> str:
    rows = "".join(f"{ev.time:.6f},{ev.kind},{ev.request_id},{ev.vehicle_id},{ev.node}\n"
                   for ev in events)
    return hashlib.sha256(rows.encode()).hexdigest()[:12]


# algo -> (hash, served, expired, VMT in metres) on data/town (40 requests)
TOWN_PINS = {
    "la": ("9a83578f7a0e", 37, 3, 12200.0),
    "la-mr": ("0954126c63b4", 40, 0, 10300.0),
    "la-mr-ns": ("6f1d295f1be7", 40, 0, 9000.0),
    "la-mr-ps": ("576b820840db", 40, 0, 8000.0),
    "la-mr-ce": ("a83fe9952c50", 40, 0, 8200.0),
    "rtv": ("66a36627b268", 40, 0, 7700.0),
    "fast-rtv": ("66a36627b268", 40, 0, 7700.0),
    "cg": ("675c476444a4", 40, 0, 7600.0),
}


@pytest.mark.parametrize("algo", sorted(TOWN_PINS))
def test_town_pin(algo):
    result = simulate_bundled("town", algo)
    m = result.metrics
    assert (events_hash(result.events), m.served, m.expired, m.vmt_m) == TOWN_PINS[algo]


def test_cg_completes_on_figure():
    # every epoch of data/figure has an empty column pool
    m = simulate_bundled("figure", "cg").metrics
    assert m.requests_total == 3


# -- shortest-path memo against a dict-based reference -------------------------------


def reference_dijkstra(adj, source):
    """Plain dict Dijkstra with (dist, id) heap entries and strict relaxation
    over sorted adjacency: the tie-break the memo promises."""
    dist, pred, done = {source: 0.0}, {}, set()
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, t in sorted(adj[u]):
            if d + t < dist.get(v, INF):
                dist[v] = d + t
                pred[v] = u
                heapq.heappush(heap, (d + t, v))
    return dist, pred


def reference_path(dist, pred, a, b):
    if b not in dist:
        return ()
    seq = [b]
    while seq[-1] != a:
        seq.append(pred[seq[-1]])
    return tuple(reversed(seq))


@pytest.mark.parametrize("seed", range(8))
def test_memo_matches_reference_with_ties(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    # sparse, unsorted ids so that rank and id differ; small integer weights
    # make equal-cost paths common
    ids = rng.sample(range(1000), n)
    arcs = {}
    for u in ids:
        for v in ids:
            if u != v and rng.random() < 0.15:
                arcs[(u, v)] = float(rng.randint(1, 4))
    net = load_network([(i, None, None) for i in ids],
                       [(u, v, t) for (u, v), t in arcs.items()])
    adj = {u: [] for u in ids}
    for (u, v), t in arcs.items():
        adj[u].append((v, t))
    for a in ids:
        dist, pred = reference_dijkstra(adj, a)
        for b in ids:
            assert net.shortest_time(a, b) == dist.get(b, INF)
            got = net.path(a, b)
            assert got.node_sequence == reference_path(dist, pred, a, b)
            assert got.total_time == dist.get(b, INF)
