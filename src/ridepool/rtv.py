"""Full and fast request-trip-vehicle assignment: shareability graph,
clique-driven trip enumeration, and the epoch set-packing program.

The fast variant only puts a wall-clock budget on trip enumeration; an
in-flight trip is finished before stopping, so the catalog stays
subset-closed. Vehicles' committed unpicked requests are re-exposed each
epoch when reassignment is on, with their incumbent trips pre-seeded so the
program can always retain the status quo.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import Request, Route, make_vehicle
from .ctsp import request_items, solve_exact_items
from .epoch import AssignedTrip, AssignmentSolution, EpochState, finalize
from .optim import LpProblem, bnb_solve

INF = math.inf


@dataclass
class ShareabilityGraph:
    rr: set[frozenset[int]] = field(default_factory=set)
    rv: dict[tuple[int, int], float] = field(default_factory=dict)  # (vid, rid) -> cost

    def rv_neighbors(self, vid: int) -> list[int]:
        return sorted(r for (v, r) in self.rv if v == vid)

    def pair_ok(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.rr


@dataclass(frozen=True)
class Trip:
    vehicle_id: int
    requests: frozenset[int]
    route: Route
    cost: float   # route-cost delta against the vehicle's committed route


class TripCatalog:
    def __init__(self):
        self.trips: list[Trip] = []
        self._by_vehicle: dict[int, dict[frozenset, int]] = {}

    def add(self, trip: Trip) -> bool:
        per = self._by_vehicle.setdefault(trip.vehicle_id, {})
        if trip.requests in per:
            return False
        per[trip.requests] = len(self.trips)
        self.trips.append(trip)
        return True

    def has(self, vid: int, requests: frozenset) -> bool:
        return requests in self._by_vehicle.get(vid, {})

    def of_vehicle(self, vid: int) -> list[Trip]:
        return [self.trips[i] for i in self._by_vehicle.get(vid, {}).values()]

    def __len__(self):
        return len(self.trips)

    def max_size(self) -> int:
        return max((len(t.requests) for t in self.trips), default=0)


def _virtual_pair_feasible(state: EpochState, r1: Request, r2: Request) -> bool:
    """Could the two requests share a trip in a fresh vehicle parked at the
    origin of either request right now?"""
    cap = max((v.capacity for v in state.vehicles.values()), default=4)
    items = request_items(state.net, r1) + request_items(state.net, r2)
    for origin in (r1.origin, r2.origin):
        virtual = make_vehicle(-1, origin, capacity=max(cap, 2))
        got, _ = solve_exact_items(state.net, virtual, items, state.now)
        if got is not None:
            return True
    return False


def build_shareability_graph(state: EpochState) -> ShareabilityGraph:
    graph = ShareabilityGraph()
    rids = state.request_ids()
    for i, a in enumerate(rids):
        for b in rids[i + 1:]:
            if _virtual_pair_feasible(state, state.requests[a], state.requests[b]):
                graph.rr.add(frozenset((a, b)))
    for vid in state.vehicle_ids():
        for rid in rids:
            route, cost = state.plan(state.vehicles[vid], [rid])
            if route is not None and cost < INF:
                graph.rv[(vid, rid)] = cost
    return graph


def enumerate_trips(state: EpochState, graph: ShareabilityGraph,
                    deadline_s: float | None = None) -> TripCatalog:
    """Size-incremental clique expansion. A size-k trip is attempted only if
    its request set is a clique, the vehicle link exists for the new request,
    and every (k-1)-subset is already a feasible trip."""
    catalog = TripCatalog()
    t_start = time.monotonic()

    def out_of_time():
        return deadline_s is not None and (time.monotonic() - t_start) > deadline_s

    # incumbent trips: vehicles keep their committed unpicked sets available
    if state.reassign:
        for vid in state.vehicle_ids():
            veh = state.vehicles[vid]
            kept = frozenset(veh.waiting)
            if kept and kept <= set(state.requests):
                route, cost = state.plan(veh, kept)
                if route is not None:
                    catalog.add(Trip(vid, kept, route, cost - state.base_cost(veh)))

    for vid in state.vehicle_ids():
        veh = state.vehicles[vid]
        base = state.base_cost(veh)
        for rid in graph.rv_neighbors(vid):
            route, cost = state.plan(veh, [rid])
            if route is not None:
                catalog.add(Trip(vid, frozenset((rid,)), route, cost - base))

    size = 1
    while size < max(len(state.requests), 1):
        grew = False
        for vid in state.vehicle_ids():
            veh = state.vehicles[vid]
            base = state.base_cost(veh)
            current = [t for t in catalog.of_vehicle(vid) if len(t.requests) == size]
            neighbors = graph.rv_neighbors(vid)
            for trip in sorted(current, key=lambda t: tuple(sorted(t.requests))):
                top = max(trip.requests)
                for rid in neighbors:
                    if rid <= top:
                        continue
                    if not all(graph.pair_ok(rid, other) for other in trip.requests):
                        continue
                    cand = trip.requests | {rid}
                    if catalog.has(vid, cand):
                        continue
                    if not all(catalog.has(vid, cand - {x}) for x in cand):
                        continue
                    if out_of_time():
                        return catalog
                    route, cost = state.plan(veh, cand)
                    if route is not None:
                        if catalog.add(Trip(vid, cand, route, cost - base)):
                            grew = True
        if not grew:
            break
        size += 1
    return catalog


def solve_trip_ilp(state: EpochState, catalog: TripCatalog):
    """Min-cost set packing with a penalty per unserved request."""
    rids = state.request_ids()
    vids = sorted({t.vehicle_id for t in catalog.trips})
    nt = len(catalog.trips)
    n = nt + len(rids)
    c = np.empty(n)
    for j, t in enumerate(catalog.trips):
        c[j] = t.cost
    c[nt:] = state.config.penalty_m
    a_ub = np.zeros((len(vids), n))
    vrow = {v: i for i, v in enumerate(vids)}
    a_eq = np.zeros((len(rids), n))
    rrow = {r: i for i, r in enumerate(rids)}
    for j, t in enumerate(catalog.trips):
        a_ub[vrow[t.vehicle_id], j] = 1.0
        for r in t.requests:
            a_eq[rrow[r], j] = 1.0
    for i in range(len(rids)):
        a_eq[i, nt + i] = 1.0
    p = LpProblem(c, a_ub, np.ones(len(vids)), a_eq, np.ones(len(rids)),
                  upper=np.ones(n), integer=np.ones(n, dtype=bool))
    return bnb_solve(p, node_limit=state.config.node_limit)


def rtv_assign(state: EpochState, fast: bool = False) -> AssignmentSolution:
    deadline = state.config.rtv_timeout_s if fast else None
    graph = build_shareability_graph(state)
    catalog = enumerate_trips(state, graph, deadline)
    assigned: dict[int, AssignedTrip] = {}
    if len(catalog):
        sol = solve_trip_ilp(state, catalog)
        if sol.x is not None:
            for j, t in enumerate(catalog.trips):
                if sol.x[j] > 0.5:
                    assigned[t.vehicle_id] = AssignedTrip(
                        t.vehicle_id, tuple(sorted(t.requests)), t.route)
    if state.reassign:
        # vehicles whose committed requests moved away need a shrunken route
        for vid in state.vehicle_ids():
            veh = state.vehicles[vid]
            if vid not in assigned and veh.waiting:
                route, _ = state.plan(veh, [])
                assigned[vid] = AssignedTrip(vid, (), route)
    return finalize(state, assigned)


def fast_rtv_assign(state: EpochState) -> AssignmentSolution:
    return rtv_assign(state, fast=True)
