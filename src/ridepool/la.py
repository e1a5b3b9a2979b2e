"""Linear assignment and its multi-round swapping extensions.

All four variants share one round engine: build single-request edges against
the vehicles' tentative routes, solve a matching, sample a compatible subset
of the matched edges, execute, repeat. They differ in what else enters the
matching (duplicate swap nodes, vehicle-vehicle proper-swap edges) and in
the compatibility relation used while sampling (request independence vs
vehicle independence).

Assignment edges score penalty_m - cost (carried-over requests get the
kappa multiplier), swap edges score their raw cost reduction; serving new
requests therefore always dominates reshuffling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import Request, Route, route_cost
from .epoch import (AlgorithmInvariantError, AssignedTrip, AssignmentSolution,
                    EpochState, finalize)
from .optim import max_weight_bipartite_matching, max_weight_general_matching

INF = math.inf
MIN_REDUCTION = 1e-9


@dataclass(frozen=True)
class AssignEdge:
    request_id: int
    vehicle_id: int
    cost: float
    gain: float


@dataclass(frozen=True)
class SwapEdge:
    request_id: int
    from_vehicle: int
    to_vehicle: int
    reduction: float   # old total - new total over the two trips; > 0 is valid


@dataclass(frozen=True)
class ProperSwapEdge:
    v1: int
    v2: int
    request_id: int
    from_vehicle: int
    to_vehicle: int
    reduction: float


@dataclass
class _Round:
    """Mutable state for one epoch of any LA-family algorithm."""
    state: EpochState
    assigned: dict[int, list[int]] = field(default_factory=dict)   # vid -> rids, this epoch
    pool: set[int] = field(default_factory=set)

    def __post_init__(self):
        self.assigned = {vid: [] for vid in self.state.vehicle_ids()}
        self.pool = set(self.state.requests)

    def plan_cost(self, vid: int, extra_ids=()) -> float:
        ids = self.assigned[vid] + list(extra_ids)
        route, cost = self.state.plan(self.state.vehicles[vid], ids)
        return cost if route is not None else INF

    def route_of(self, vid: int) -> Route | None:
        route, _ = self.state.plan(self.state.vehicles[vid], self.assigned[vid])
        return route

    def total_cost(self) -> float:
        return sum(self.plan_cost(vid) for vid in self.assigned)

    def penalized_cost(self) -> float:
        m = self.state.config.penalty_m
        return self.total_cost() + m * len(self.pool)

    def solution(self) -> AssignmentSolution:
        trips = {}
        for vid, rids in self.assigned.items():
            veh = self.state.vehicles[vid]
            if rids or (self.state.reassign and veh.waiting):
                route, _ = self.state.plan(veh, rids)
                trips[vid] = AssignedTrip(vid, tuple(sorted(rids)), route)
        return finalize(self.state, trips)


def build_bipartite(rnd: _Round) -> list[AssignEdge]:
    """Feasible single-request additions against current tentative routes."""
    state = rnd.state
    m = state.config.penalty_m
    kappa = state.config.carryover_kappa

    def probe(vid, rid):
        base = rnd.plan_cost(vid)
        if base == INF:
            return None
        cost = rnd.plan_cost(vid, [rid])
        if cost == INF:
            return None
        delta = cost - base
        scale = kappa * m if rid in state.carried else m
        return AssignEdge(rid, vid, delta, scale - delta)

    pool = sorted(rnd.pool)
    edges = [probe(vid, rid) for vid in sorted(rnd.assigned) for rid in pool]
    return [e for e in edges if e is not None]


def solve_assignment_matching(edges: list[AssignEdge]) -> list[AssignEdge]:
    weights = {(e.request_id, e.vehicle_id): e.gain for e in edges}
    chosen, _ = max_weight_bipartite_matching(weights)
    by_pair = {(e.request_id, e.vehicle_id): e for e in edges}
    return sorted((by_pair[p] for p in chosen), key=lambda e: e.request_id)


def request_dependent(edges: list[AssignEdge]) -> callable:
    """Def-style request independence: dependent iff some vehicle could take
    either request this round."""
    feas: dict[int, set[int]] = {}
    for e in edges:
        feas.setdefault(e.request_id, set()).add(e.vehicle_id)

    def dependent(r1: int, r2: int) -> bool:
        return bool(feas.get(r1, set()) & feas.get(r2, set()))

    return dependent


def sample_independent(matched, edges, mode: str, swap_pairs=frozenset()):
    """Visit matched edges in ascending request id and accept each one that
    is compatible with everything accepted so far.

    mode="requests": accepted requests must be pairwise independent.
    mode="vehicles": no two accepted edges may touch the same vehicle, and
    their endpoint vehicles must not be a dependent pair (a pair related by
    any duplicate swap edge built this round).
    """
    accepted = []
    if mode == "requests":
        dependent = request_dependent([e for e in edges if isinstance(e, AssignEdge)])
        acc_reqs: list[int] = []
        for e in matched:
            if all(not dependent(e.request_id, r) for r in acc_reqs):
                accepted.append(e)
                acc_reqs.append(e.request_id)
        return accepted
    if mode != "vehicles":
        raise ValueError(f"unknown sampling mode {mode!r}")

    def involved(e) -> frozenset:
        if isinstance(e, SwapEdge):
            return frozenset((e.from_vehicle, e.to_vehicle))
        return frozenset((e.vehicle_id,))

    def endpoint(e) -> int:
        return e.to_vehicle if isinstance(e, SwapEdge) else e.vehicle_id

    for e in matched:
        ok = True
        for a in accepted:
            if involved(e) & involved(a):
                ok = False
                break
            pair = frozenset((endpoint(e), endpoint(a)))
            if pair in swap_pairs:
                ok = False
                break
        if ok:
            accepted.append(e)
    return accepted


# -- plain linear assignment ------------------------------------------------------------


def la_assign(state: EpochState) -> AssignmentSolution:
    """One max-gain matching; every matched edge is committed."""
    rnd = _Round(state)
    edges = build_bipartite(rnd)
    for e in solve_assignment_matching(edges):
        rnd.assigned[e.vehicle_id].append(e.request_id)
        rnd.pool.discard(e.request_id)
    _sync_memory(rnd)
    return rnd.solution()


# -- multi-round ------------------------------------------------------------------------


def _sync_memory(rnd: _Round):
    """Round boundary: remember each touched vehicle's tentative route."""
    memory = rnd.state.oracle.memory
    for vid, rids in rnd.assigned.items():
        if rids:
            route = rnd.route_of(vid)
            if route is not None:
                memory.put(vid, [s.key for s in route.stops])


def la_mr_assign(state: EpochState, max_rounds: int | None = None) -> AssignmentSolution:
    rnd = _Round(state)
    la_mr_rounds(rnd, max_rounds)
    return rnd.solution()


def la_mr_rounds(rnd: _Round, max_rounds: int | None = None) -> int:
    state = rnd.state
    rounds = 0
    while rnd.pool:
        if max_rounds is not None and rounds >= max_rounds:
            break
        edges = build_bipartite(rnd)
        if not edges:
            break
        matched = solve_assignment_matching(edges)
        accepted = sample_independent(matched, edges, "requests")
        if not accepted:
            break
        for e in accepted:
            rnd.assigned[e.vehicle_id].append(e.request_id)
            rnd.pool.discard(e.request_id)
        _sync_memory(rnd)
        rounds += 1
    return rounds


# -- naive swapping ------------------------------------------------------------------------


def extend_naive_swaps(rnd: _Round) -> list[SwapEdge]:
    """Duplicate nodes for already-assigned requests, one edge per feasible
    positive-reduction single-request move. Isolated duplicates are dropped
    by construction (no edge, no node)."""
    state = rnd.state
    swaps: list[SwapEdge] = []
    assigned_pairs = [(vid, rid) for vid in sorted(rnd.assigned)
                      for rid in sorted(rnd.assigned[vid])]
    for vid, rid in assigned_pairs:
        cost_with = rnd.plan_cost(vid)
        without = [r for r in rnd.assigned[vid] if r != rid]
        route_wo, cost_wo = state.plan(state.vehicles[vid], without)
        if route_wo is None:
            continue
        for other in sorted(rnd.assigned):
            if other == vid:
                continue
            cost_other = rnd.plan_cost(other)
            if cost_other == INF:
                continue
            cost_other_with = rnd.plan_cost(other, [rid])
            if cost_other_with == INF:
                continue
            reduction = (cost_with + cost_other) - (cost_wo + cost_other_with)
            if reduction > MIN_REDUCTION:
                swaps.append(SwapEdge(rid, vid, other, reduction))
    return swaps


def _execute_round(rnd: _Round, accepted, check: bool):
    """Apply accepted assign/swap edges; verify each swap's stated reduction
    is realized exactly (the sampling rule keeps vehicle sets disjoint, so
    decoupled pricing is exact)."""
    state = rnd.state
    realized_total = 0.0
    swaps_executed = 0
    for e in accepted:
        if isinstance(e, SwapEdge):
            before = rnd.plan_cost(e.from_vehicle) + rnd.plan_cost(e.to_vehicle)
            rnd.assigned[e.from_vehicle].remove(e.request_id)
            rnd.assigned[e.to_vehicle].append(e.request_id)
            after = rnd.plan_cost(e.from_vehicle) + rnd.plan_cost(e.to_vehicle)
            realized = before - after
            if check and abs(realized - e.reduction) > 1e-6:
                raise AlgorithmInvariantError(
                    f"swap of request {e.request_id}: stated {e.reduction:.9f} "
                    f"!= realized {realized:.9f}")
            realized_total += realized
            swaps_executed += 1
        else:
            rnd.assigned[e.vehicle_id].append(e.request_id)
            rnd.pool.discard(e.request_id)
    return swaps_executed, realized_total


def la_mr_ns_assign(state: EpochState, check: bool = True) -> AssignmentSolution:
    """Multi-round matching over the duplicate-extended graph, sampling with
    vehicle independence. Every round with swaps must strictly reduce the
    penalized committed cost, which bounds the rounds."""
    rnd = _Round(state)
    guard = 2 * len(state.requests) + len(state.vehicles) + 4
    for _ in range(guard):
        assign_edges = build_bipartite(rnd)
        swap_edges = extend_naive_swaps(rnd)
        if not assign_edges and not swap_edges:
            break
        before = rnd.penalized_cost() if check else 0.0
        weights = {}
        lookup = {}
        for e in assign_edges:
            key = (("r", e.request_id), ("v", e.vehicle_id))
            weights[key] = e.gain
            lookup[key] = e
        for e in swap_edges:
            key = (("d", e.request_id), ("v", e.to_vehicle))
            if key in weights:      # keep the better edge on a duplicate pair
                if e.reduction <= weights[key]:
                    continue
            weights[key] = e.reduction
            lookup[key] = e
        chosen, _ = max_weight_bipartite_matching(weights)
        matched = sorted((lookup[k] for k in chosen), key=lambda e: e.request_id)
        swap_pairs = {frozenset((e.from_vehicle, e.to_vehicle)) for e in swap_edges}
        accepted = sample_independent(matched, assign_edges, "vehicles", swap_pairs)
        if not accepted:
            break
        swaps, _ = _execute_round(rnd, accepted, check)
        _sync_memory(rnd)
        if check:
            after = rnd.penalized_cost()
            if not after < before - MIN_REDUCTION:
                raise AlgorithmInvariantError(
                    f"round did not reduce penalized cost: {before} -> {after}")
    else:
        raise AlgorithmInvariantError("swap rounds failed to terminate")
    return rnd.solution()


# -- proper swapping ---------------------------------------------------------------------


def proper_swap(rnd: _Round, v1: int, v2: int) -> ProperSwapEdge | None:
    """The most cost-efficient valid single-request move between the pair,
    evaluating both directions through the routing oracle."""
    best: ProperSwapEdge | None = None
    for src, dst in ((v1, v2), (v2, v1)):
        base_src = rnd.plan_cost(src)
        base_dst = rnd.plan_cost(dst)
        if base_src == INF or base_dst == INF:
            continue
        for rid in sorted(rnd.assigned[src]):
            without = [r for r in rnd.assigned[src] if r != rid]
            _, cost_wo = rnd.state.plan(rnd.state.vehicles[src], without)
            route_with, cost_with = rnd.state.plan(
                rnd.state.vehicles[dst], rnd.assigned[dst] + [rid])
            if route_with is None:
                continue
            reduction = (base_src + base_dst) - (cost_wo + cost_with)
            if reduction > MIN_REDUCTION and (best is None or reduction > best.reduction + 1e-12):
                best = ProperSwapEdge(v1, v2, rid, src, dst, reduction)
    return best


def la_mr_ps_assign(state: EpochState, check: bool = True) -> AssignmentSolution:
    """Rounds of general matching over assignment edges plus one
    vehicle-vehicle edge per pair (its best naive swap); sampling keeps
    request independence exactly as in the multi-round baseline."""
    rnd = _Round(state)
    guard = 2 * len(state.requests) + len(state.vehicles) + 4
    for _ in range(guard):
        assign_edges = build_bipartite(rnd)
        vids = sorted(rnd.assigned)
        gammas: list[ProperSwapEdge] = []
        for i, v1 in enumerate(vids):
            for v2 in vids[i + 1:]:
                if not rnd.assigned[v1] and not rnd.assigned[v2]:
                    continue
                edge = proper_swap(rnd, v1, v2)
                if edge is not None:
                    gammas.append(edge)
        if not assign_edges and not gammas:
            break
        before = rnd.penalized_cost() if check else 0.0
        edges = []
        lookup = []
        for e in assign_edges:
            edges.append((("r", e.request_id), ("v", e.vehicle_id), e.gain))
            lookup.append(e)
        for g in gammas:
            edges.append((("v", g.v1), ("v", g.v2), g.reduction))
            lookup.append(g)
        chosen_idx, _ = max_weight_general_matching(edges)
        matched_assign = sorted((lookup[j] for j in chosen_idx
                                 if isinstance(lookup[j], AssignEdge)),
                                key=lambda e: e.request_id)
        matched_gamma = [lookup[j] for j in chosen_idx
                         if isinstance(lookup[j], ProperSwapEdge)]
        accepted = sample_independent(matched_assign, assign_edges, "requests")
        to_exec = list(accepted) + [
            SwapEdge(g.request_id, g.from_vehicle, g.to_vehicle, g.reduction)
            for g in matched_gamma]
        if not to_exec:
            break
        _execute_round(rnd, to_exec, check)
        _sync_memory(rnd)
        if check:
            after = rnd.penalized_cost()
            if not after < before - MIN_REDUCTION:
                raise AlgorithmInvariantError(
                    f"round did not reduce penalized cost: {before} -> {after}")
    else:
        raise AlgorithmInvariantError("swap rounds failed to terminate")
    return rnd.solution()
