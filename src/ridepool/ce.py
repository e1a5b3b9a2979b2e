"""Cyclic exchange on top of multi-round linear assignment.

Requests assigned in the current epoch (plus the epoch's unserved requests,
parked in a null partition) form the exchange graph: request nodes, one
dummy node per vehicle, and arcs weighted by the receiving partition's cost
reduction. Serving a parked request earns +U on its outgoing arc and
unserving one costs -U on the arc into it, so any positive cycle can only
trade cost while never trading away served requests.

The cycle search is a best-first node-labeling scan keeping the top-k labels
per node; with unlimited labels and pruning off it enumerates every valid
path, which the acceptance oracle exploits.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .epoch import (AlgorithmInvariantError, AssignedTrip, AssignmentSolution,
                    EpochState, finalize)
from .la import _Round, la_mr_rounds

INF = math.inf
NULL_PARTITION = -1
MIN_REDUCTION = 1e-9


@dataclass(frozen=True)
class CeNode:
    id: object              # request id, or ("veh", vid) for dummy nodes
    kind: str               # "request" | "vehicle"
    partition: int          # owning vehicle id, NULL_PARTITION, or own vid


@dataclass
class ExchangeGraph:
    nodes: dict[object, CeNode] = field(default_factory=dict)
    arcs: dict[tuple, float] = field(default_factory=dict)
    removal_gain: dict[object, float] = field(default_factory=dict)  # node -> T

    def build_adjacency(self):
        adj: dict[object, list] = {u: [] for u in self.nodes}
        for (a, b), w in sorted(self.arcs.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))):
            adj[a].append((b, w))
        return adj


def _veh_key(vid: int):
    return ("veh", vid)


def build_exchange_graph(rnd: _Round, u_value: float) -> ExchangeGraph:
    """Arcs: request->request (replace target in its partition),
    request->vehicle (append), vehicle->request (open the slot)."""
    state = rnd.state
    g = ExchangeGraph()
    owner: dict[int, int] = {}
    for vid in sorted(rnd.assigned):
        for rid in rnd.assigned[vid]:
            owner[rid] = vid
    for rid in sorted(owner):
        g.nodes[rid] = CeNode(rid, "request", owner[rid])
    for rid in sorted(rnd.pool):
        g.nodes[rid] = CeNode(rid, "request", NULL_PARTITION)
    for vid in sorted(rnd.assigned):
        g.nodes[_veh_key(vid)] = CeNode(_veh_key(vid), "vehicle", vid)

    cost_of = {vid: rnd.plan_cost(vid) for vid in rnd.assigned}

    def removal_gain(rid: int) -> float:
        part = g.nodes[rid].partition
        if part == NULL_PARTITION:
            return u_value
        kept = [r for r in rnd.assigned[part] if r != rid]
        _, cost = state.plan(state.vehicles[part], kept)
        return cost_of[part] - cost

    request_ids = sorted(r for r, n in g.nodes.items() if isinstance(r, int))
    for rid in request_ids:
        g.removal_gain[rid] = removal_gain(rid)

    for ri in request_ids:
        ni = g.nodes[ri]
        bonus = u_value if ni.partition == NULL_PARTITION else 0.0
        for rj in request_ids:
            nj = g.nodes[rj]
            if ri == rj or ni.partition == nj.partition:
                continue
            if nj.partition == NULL_PARTITION:
                # ri becomes unserved; rj's own service gain rides on rj's out-arc
                g.arcs[(ri, rj)] = -u_value + bonus
                continue
            vid = nj.partition
            newset = [r for r in rnd.assigned[vid] if r != rj] + [ri]
            route, cost = state.plan(state.vehicles[vid], newset)
            if route is None:
                continue
            g.arcs[(ri, rj)] = (cost_of[vid] - cost) + bonus
    for ri in request_ids:
        ni = g.nodes[ri]
        bonus = u_value if ni.partition == NULL_PARTITION else 0.0
        for vid in sorted(rnd.assigned):
            vkey = _veh_key(vid)
            if ni.partition != vid:
                # append ri to vid
                route, cost = state.plan(state.vehicles[vid], rnd.assigned[vid] + [ri])
                if route is not None:
                    g.arcs[(ri, vkey)] = (cost_of[vid] - cost) + bonus
                # open ri's slot (ri moves on; nobody replaces it)
                g.arcs[(vkey, ri)] = 0.0 if ni.partition == NULL_PARTITION \
                    else g.removal_gain[ri]
    return g


@dataclass(frozen=True)
class _Label:
    value: float
    path: tuple          # node ids, source first
    partitions: frozenset
    used_vehicle: bool


def max_cost_reducing_cycle(graph: ExchangeGraph, source, labels_per_node: int | None = 1,
                            prune: bool = True):
    """Best positive-reduction valid cycle through `source`, plus the set of
    nodes the search explored. Validity: no two request nodes from one
    partition, at most one vehicle node."""
    if source not in graph.nodes or graph.nodes[source].kind != "request":
        raise ValueError("source must be a request node")
    adj = graph.build_adjacency()
    threshold = graph.removal_gain.get(source, 0.0)
    explored = {source}
    start = _Label(0.0, (source,), frozenset((graph.nodes[source].partition,)), False)
    counter = itertools.count()
    heap = [(-0.0, next(counter), start)]
    kept: dict[object, list[float]] = {source: [0.0]}
    best_cycle: tuple | None = None
    best_value = 0.0
    while heap:
        neg, _, label = heapq.heappop(heap)
        value = -neg
        if prune and value < -threshold:
            break
        node = label.path[-1]
        for nxt, w in adj[node]:
            nv = value + w
            if nxt == source:
                if nv > best_value + MIN_REDUCTION and len(label.path) > 1:
                    best_value = nv
                    best_cycle = label.path + (source,)
                continue
            target = graph.nodes[nxt]
            # every node claims its partition once, the dummy vehicle node
            # included: a second touch would decouple the arc pricing
            if target.partition in label.partitions:
                continue
            if target.kind == "vehicle":
                if label.used_vehicle:
                    continue
                new_parts = label.partitions | {target.partition}
                used_veh = True
            else:
                new_parts = label.partitions | {target.partition}
                used_veh = label.used_vehicle
            if nxt in label.path:
                continue
            explored.add(nxt)
            if labels_per_node is not None:
                slot = kept.setdefault(nxt, [])
                if len(slot) >= labels_per_node and nv <= min(slot) + 1e-12:
                    continue
                slot.append(nv)
                slot.sort(reverse=True)
                del slot[labels_per_node:]
            nl = _Label(nv, label.path + (nxt,), new_parts, used_veh)
            heapq.heappush(heap, (-nv, next(counter), nl))
    return best_cycle, explored


def _cycle_moves(graph: ExchangeGraph, cycle):
    """Decode a node cycle into (request, from_partition, to_partition) moves."""
    moves = []
    for a, b in zip(cycle, cycle[1:]):
        na, nb = graph.nodes[a], graph.nodes[b]
        if na.kind == "request":
            dest = nb.partition if nb.kind == "vehicle" or nb.kind == "request" else None
            moves.append((a, na.partition, dest))
    return moves


def cycle_reduction(graph: ExchangeGraph, cycle) -> float:
    return sum(graph.arcs[(a, b)] for a, b in zip(cycle, cycle[1:]))


def _assert_valid_cycle(graph: ExchangeGraph, cycle):
    body = cycle[:-1]
    vehicles = [n for n in body if graph.nodes[n].kind == "vehicle"]
    if len(vehicles) > 1:
        raise AlgorithmInvariantError("cycle uses more than one vehicle node")
    parts = [graph.nodes[n].partition for n in body]
    if len(parts) != len(set(parts)):
        raise AlgorithmInvariantError("cycle touches one partition twice")


def cyclic_exchange(rnd: _Round, u_value: float, labels_per_node: int = 1,
                    check: bool = True) -> float:
    """Run the frontier loop until no request node yields an improving cycle.
    Returns the total stated reduction executed."""
    state = rnd.state
    graph = build_exchange_graph(rnd, u_value)
    frontier = sorted(r for r in graph.nodes if isinstance(r, int))
    memo: dict[int, set] = {}
    heapq.heapify(frontier)
    total = 0.0
    executions = 0
    guard = 200 + 20 * len(graph.nodes)
    while frontier:
        rid = heapq.heappop(frontier)
        if rid not in graph.nodes:
            continue
        cycle, explored = max_cost_reducing_cycle(graph, rid, labels_per_node)
        if cycle is None:
            memo[rid] = explored
            continue
        executions += 1
        if executions > guard:
            raise AlgorithmInvariantError("cyclic exchange failed to terminate")
        _assert_valid_cycle(graph, cycle)
        stated = cycle_reduction(graph, cycle)
        if stated <= MIN_REDUCTION:
            raise AlgorithmInvariantError("executed cycle lacks positive reduction")
        served_before = sum(len(v) for v in rnd.assigned.values())
        cost_before = rnd.total_cost()
        _execute_cycle(rnd, graph, cycle)
        served_after = sum(len(v) for v in rnd.assigned.values())
        cost_after = rnd.total_cost()
        realized = (cost_before - cost_after) + u_value * (served_after - served_before)
        if check and abs(realized - stated) > 1e-6:
            raise AlgorithmInvariantError(
                f"cycle reduction mismatch: stated {stated:.9f} realized {realized:.9f}")
        total += stated
        new_graph = build_exchange_graph(rnd, u_value)
        affected = _affected_nodes(graph, new_graph)
        graph = new_graph
        back = {rid} | {j for j, seen in memo.items() if seen & affected}
        for j in sorted(back):
            if j in graph.nodes and j not in frontier:
                heapq.heappush(frontier, j)
            memo.pop(j, None)
    return total


def _execute_cycle(rnd: _Round, graph: ExchangeGraph, cycle):
    for rid, src, dst in _cycle_moves(graph, cycle):
        if src == NULL_PARTITION:
            rnd.pool.discard(rid)
        else:
            rnd.assigned[src].remove(rid)
        if dst == NULL_PARTITION:
            rnd.pool.add(rid)
        else:
            rnd.assigned[dst].append(rid)
            rnd.assigned[dst].sort()


def _affected_nodes(old: ExchangeGraph, new: ExchangeGraph) -> set:
    """Endpoints of arcs created, deleted, or re-weighted by the update."""
    touched = set()
    keys = set(old.arcs) | set(new.arcs)
    for key in keys:
        wo = old.arcs.get(key)
        wn = new.arcs.get(key)
        if wo is None or wn is None or abs(wo - wn) > 1e-12:
            touched.update(key)
    return touched


def la_mr_ce_assign(state: EpochState, check: bool = True) -> AssignmentSolution:
    """Stage one: multi-round linear assignment. Stage two: cyclic exchange."""
    rnd = _Round(state)
    la_mr_rounds(rnd)
    cyclic_exchange(rnd, state.config.ce_u_value, state.config.ce_labels_per_node, check)
    from .la import _sync_memory
    _sync_memory(rnd)
    return rnd.solution()
