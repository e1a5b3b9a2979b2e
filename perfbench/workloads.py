"""Benchmark workloads: grid scenarios generated from the workload seed.

A grid scenario is `grid_network(n, n)`, then `generate(DemandSpec(rate,
horizon, seed), net)`, then `vehicles` vehicles placed at
`random.Random(seed).choice(net.nodes)`, run with the default `SimConfig`
except for `algo`, `horizon` and `capacity`. It is an offline replay of a
fixed request set, so speed is reported as run time for a stated input size.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_ridepool():
    """Import the ridepool package of this checkout, never an installed one."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ridepool
    where = os.path.dirname(os.path.abspath(ridepool.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"ridepool imported from {where}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    grid: int
    vehicles: int
    capacity: int
    rate_per_min: int
    horizon: float
    scenarios: int      # independent scenarios per run, seeded seed*scenarios+i
    batch: int          # scenarios per worker process
    round_s: float      # wall time of one round on the reference machine
    why: str


# Run time of one scenario varies with its seed (a lamr-grid15 scenario takes
# 4-7 s on 2 cores), so a run measures several scenarios and reports their
# mean. Long horizons at a moderate rate average many epochs: at 30 vehicles,
# 20 req/min and 600 s, la-mr took 6.7-13.9 s across seeds, too spread for a
# bound of 25%. rtv and cg cost grows steeply with the requests a vehicle
# holds, so one epoch of a loaded scenario can take most of a run (rtv on 8x8,
# 6 vehicles, 4 req/min, 240 s: 2.4-39 s across seeds). Their workloads run
# many small scenarios instead, several per worker process, on a fleet of
# capacity 1 that both algorithms overload: they lose requests through the
# committed-request drop that loses 2 of 60 on the 40x40 cg scenario. Two rtv
# vehicles of capacity 2 hold enough requests to merge, but then one
# scenario in a hundred takes a tenth of the total time. A la-grid70
# scenario varies little with its seed (5%) but up to 2x with the load on
# the machine, so that workload runs two scenarios twice; rtv and cg run
# theirs twice as well.
WORKLOADS = {w.name: w for w in (
    Workload("lamr-grid15", "la-mr", 15, 40, 4, 10, 1800.0, 5, 1, 27.0,
             "matching and cached-oracle work: one dense bipartite matching per "
             "round plus exact stop ordering behind a 90%-hit oracle cache"),
    Workload("la-grid70", "la", 70, 30, 4, 15, 1800.0, 2, 1, 13.0,
             "shortest paths and the epoch loop: one Dijkstra per new source on "
             "4,900 nodes, carry-over and expiry; stop ordering and matching are small"),
    Workload("rtv-grid10", "rtv", 10, 3, 1, 2, 900.0, 140, 70, 10.5,
             "shareability graph, trip enumeration and the trip set-packing program; "
             "some committed requests end neither served nor expired"),
    Workload("cg-grid10", "cg", 10, 2, 1, 2, 900.0, 70, 35, 10.5,
             "column generation: pricing through the oracle, restricted-master LPs; "
             "some committed requests end neither served nor expired"),
)}


def scenario_seeds(workload: Workload, seed: int) -> list[int]:
    return [seed * workload.scenarios + i for i in range(workload.scenarios)]


def demand(workload: Workload, seed: int, net):
    from ridepool.demand import DemandSpec, generate
    return generate(DemandSpec(workload.rate_per_min, workload.horizon, seed), net)


def request_count(workload: Workload, seed: int) -> int:
    """Requests offered by one scenario, known without running it, so a run
    that fails can count every one of its requests as failed."""
    from ridepool.network import grid_network
    return len(demand(workload, seed, grid_network(workload.grid, workload.grid)))


def build_inputs(workload: Workload, seed: int):
    """(config, network, requests, vehicles) of one scenario; a fresh network
    each call, so every run starts with a cold shortest-path memo."""
    from ridepool.config import SimConfig
    from ridepool.core import make_vehicle
    from ridepool.network import grid_network

    net = grid_network(workload.grid, workload.grid)
    requests = demand(workload, seed, net)
    rng = random.Random(seed)
    vehicles = [make_vehicle(i, rng.choice(net.nodes), workload.capacity)
                for i in range(workload.vehicles)]
    config = SimConfig(algo=workload.algo, horizon=workload.horizon,
                       capacity=workload.capacity)
    return config, net, requests, vehicles
