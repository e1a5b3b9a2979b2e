"""Column generation over the trip formulation: restricted masters solved as
linear programs, a dual-guided sized-column pricing heuristic, and one final
integral solve over the generated columns.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .epoch import AssignedTrip, AssignmentSolution, EpochState, finalize
from .optim import LpProblem, bnb_solve, simplex_solve
from .rtv import ShareabilityGraph, Trip, build_shareability_graph

INF = math.inf
NEG = -1e-9


@dataclass
class Duals:
    pi: dict[int, float]      # per request
    sigma: dict[int, float]   # per vehicle; 0 when the vehicle has no column yet


class RestrictedMaster:
    """Column pool plus LP/ILP solves. Slack variables y_r carry the unserved
    penalty, so the relaxation is always feasible and the duals meaningful."""

    def __init__(self, state: EpochState):
        self.state = state
        self.columns: list[Trip] = []
        self._index: set[tuple[int, frozenset]] = set()

    def add(self, trip: Trip) -> bool:
        key = (trip.vehicle_id, trip.requests)
        if key in self._index:
            return False
        self._index.add(key)
        self.columns.append(trip)
        return True

    def has(self, vid: int, requests: frozenset) -> bool:
        return (vid, requests) in self._index

    def _problem(self, integral: bool) -> LpProblem:
        state = self.state
        rids = state.request_ids()
        vids = sorted({t.vehicle_id for t in self.columns})
        nt = len(self.columns)
        n = nt + len(rids)
        c = np.empty(n)
        for j, t in enumerate(self.columns):
            c[j] = t.cost
        c[nt:] = state.config.penalty_m
        a_ub = np.zeros((len(vids), n))
        a_eq = np.zeros((len(rids), n))
        vrow = {v: i for i, v in enumerate(vids)}
        rrow = {r: i for i, r in enumerate(rids)}
        for j, t in enumerate(self.columns):
            a_ub[vrow[t.vehicle_id], j] = 1.0
            for r in t.requests:
                a_eq[rrow[r], j] = 1.0
        for i in range(len(rids)):
            a_eq[i, nt + i] = 1.0
        integer = np.ones(n, dtype=bool) if integral else None
        return LpProblem(c, a_ub, np.ones(len(vids)), a_eq, np.ones(len(rids)),
                         upper=np.ones(n), integer=integer)

    def solve_lp(self) -> tuple[float, Duals]:
        state = self.state
        rids = state.request_ids()
        vids = sorted({t.vehicle_id for t in self.columns})
        sol = simplex_solve(self._problem(integral=False))
        if sol.status != "optimal":
            raise RuntimeError(f"restricted master LP came back {sol.status}")
        sigma = {v: 0.0 for v in state.vehicle_ids()}
        for i, v in enumerate(vids):
            sigma[v] = float(sol.duals_ub[i])
        pi = {r: float(sol.duals_eq[i]) for i, r in enumerate(rids)}
        return float(sol.objective), Duals(pi, sigma)

    def solve_ilp(self):
        if not self.columns:  # nothing to choose from: every vehicle keeps its status quo
            return []
        sol = bnb_solve(self._problem(integral=True),
                        node_limit=self.state.config.node_limit)
        chosen = [t for j, t in enumerate(self.columns) if sol.x is not None and sol.x[j] > 0.5]
        return chosen


def reduced_cost(trip: Trip, duals: Duals) -> float:
    return trip.cost - sum(duals.pi[r] for r in trip.requests) - duals.sigma[trip.vehicle_id]


def generate_sized_columns(state: EpochState, j: int, duals: Duals,
                           graph: ShareabilityGraph, master: RestrictedMaster) -> list[Trip]:
    """One pricing pass at size j: vehicles in decreasing-sigma order each
    claim the subset minimizing reduced cost, if negative; claimed requests
    leave the pool for the rest of the call."""
    pool = set(state.request_ids())
    out: list[Trip] = []
    order = sorted(state.vehicle_ids(), key=lambda v: (-duals.sigma[v], v))
    cap = state.config.cg_subset_cap
    for vid in order:
        veh = state.vehicles[vid]
        base = state.base_cost(veh)
        cands = [r for r in graph.rv_neighbors(vid) if r in pool]
        if len(cands) < j:
            continue
        best: Trip | None = None
        best_rc = INF
        examined = 0
        for subset in itertools.combinations(cands, j):
            if examined >= cap:
                break
            if j > 1 and not all(graph.pair_ok(a, b)
                                 for a, b in itertools.combinations(subset, 2)):
                continue
            examined += 1
            fs = frozenset(subset)
            route, cost = state.plan(veh, fs)
            if route is None:
                continue
            trip = Trip(vid, fs, route, cost - base)
            rc = reduced_cost(trip, duals)
            if rc < best_rc - 1e-12:
                best, best_rc = trip, rc
        if best is not None and best_rc < NEG and not master.has(vid, best.requests):
            out.append(best)
            pool -= best.requests
    return out


def generate_columns(state, duals, graph, master) -> list[Trip]:
    j = 1
    while j <= len(state.requests):
        cols = generate_sized_columns(state, j, duals, graph, master)
        if cols:
            return cols
        j += 1
    return []


def cg_assign(state: EpochState) -> AssignmentSolution:
    t0 = time.monotonic()
    limit = state.config.cg_time_limit_s
    graph = build_shareability_graph(state)
    master = RestrictedMaster(state)

    # initial columns: every feasible singleton, plus incumbents so committed
    # requests can always stay where they are
    if state.reassign:
        for vid in state.vehicle_ids():
            veh = state.vehicles[vid]
            kept = frozenset(veh.waiting)
            if kept and kept <= set(state.requests):
                route, cost = state.plan(veh, kept)
                if route is not None:
                    master.add(Trip(vid, kept, route, cost - state.base_cost(veh)))
    for vid in state.vehicle_ids():
        veh = state.vehicles[vid]
        base = state.base_cost(veh)
        for rid in graph.rv_neighbors(vid):
            route, cost = state.plan(veh, [rid])
            if route is not None:
                master.add(Trip(vid, frozenset((rid,)), route, cost - base))

    last_obj = INF
    while True:
        if limit is not None and (time.monotonic() - t0) > limit:
            break
        if not master.columns:
            break
        obj, duals = master.solve_lp()
        if obj > last_obj + 1e-6:
            raise RuntimeError("restricted master objective increased")
        last_obj = obj
        cols = generate_columns(state, duals, graph, master)
        if not cols:
            break
        for trip in cols:
            if reduced_cost(trip, duals) >= 0:
                raise RuntimeError("pricing returned a non-improving column")
            master.add(trip)

    assigned: dict[int, AssignedTrip] = {}
    for trip in master.solve_ilp():
        assigned[trip.vehicle_id] = AssignedTrip(
            trip.vehicle_id, tuple(sorted(trip.requests)), trip.route)
    if state.reassign:
        for vid in state.vehicle_ids():
            veh = state.vehicles[vid]
            if vid not in assigned and veh.waiting:
                route, _ = state.plan(veh, [])
                assigned[vid] = AssignedTrip(vid, (), route)
    return finalize(state, assigned)
