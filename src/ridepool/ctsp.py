"""Stop-ordering oracle: exact recursive search and heuristics with stability.

Every assignment algorithm funnels its routing questions through this module:
given a vehicle (position, onboard passengers, committed-but-unboarded
requests) and a set of extra requests, return the cheapest feasible stop
ordering, or None.

Below the enumerate limit the exact recursive search runs, pruned by follower
(precedence) sets and a running-cost bound. Above it, the configured
heuristic takes over. The order-fixing and limit-and-recall heuristics never
reorder previously committed stops relative to each other, which is what
makes them stable under re-computation after time elapses; the bare insertion
heuristic rebuilds from scratch and is deliberately kept unstable so the
regression in the route re-computation example stays reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import DROPOFF, PICKUP, RELOCATE, Request, Route, Stop, VehicleState, route_cost
from .network import Network

INF = math.inf
EPS = 1e-9


@dataclass(frozen=True)
class PlanItem:
    key: tuple[int, int]      # (request id, 0 = pickup / 1 = dropoff)
    node: int
    deadline: float           # absolute; INF when unconstrained
    not_before: float         # pickup gate (emergence time); 0 otherwise
    floating: bool            # deadline = own pickup time + slack
    slack: float              # direct ride time + max detour, when floating
    delta_load: int


@dataclass(frozen=True)
class CtspQuery:
    vehicle: VehicleState
    new_requests: tuple[Request, ...]
    now: float
    drop: frozenset[int] = frozenset()  # committed request ids to plan without


@dataclass(frozen=True)
class CtspPolicy:
    mode: str = "oof"            # exact | insertion | oof | lrp
    enumerate_limit: int = 12    # max stops handled by the exact search
    lrp_eta: int = 8
    use_followers: bool = True

    def __post_init__(self):
        if self.enumerate_limit < 2:
            raise ValueError("enumerate_limit must be >= 2")
        if self.lrp_eta < 2:
            raise ValueError("lrp_eta must be >= 2")
        if self.mode not in ("exact", "insertion", "oof", "lrp"):
            raise ValueError(f"unknown ctsp mode {self.mode!r}")


class RouteMemory:
    """Last route returned per vehicle, keyed by stop keys; written only at
    round/epoch synchronization points by the coordinating loop."""

    def __init__(self):
        self._routes: dict[int, tuple[tuple[int, int], ...]] = {}

    def get(self, vehicle_id: int):
        return self._routes.get(vehicle_id)

    def put(self, vehicle_id: int, stop_keys):
        self._routes[vehicle_id] = tuple(stop_keys)


# -- plan items ---------------------------------------------------------------


def committed_items(net: Network, vehicle: VehicleState, drop=frozenset()) -> list[PlanItem]:
    """Uncompleted committed stops as plan items, in current route order."""
    items = []
    seen = set()
    for stop in vehicle.remaining_stops:
        if stop.action == RELOCATE or stop.request_id in drop:
            continue
        seen.add(stop.key)
        items.append(_item_for_stop(net, vehicle, stop))
    # vehicles can hold onboard/waiting state without a committed route yet
    for rid in sorted(vehicle.onboard):
        ob = vehicle.onboard[rid]
        if rid in drop:
            continue
        if (rid, 1) not in seen:
            items.append(PlanItem((rid, 1), ob.request.destination, ob.dropoff_deadline,
                                  0.0, False, 0.0, -1))
    for rid in sorted(vehicle.waiting):
        if rid in drop:
            continue
        req = vehicle.waiting[rid]
        if (rid, 0) not in seen:
            items.extend(request_items(net, req))
    return items


def _item_for_stop(net: Network, vehicle: VehicleState, stop: Stop) -> PlanItem:
    rid = stop.request_id
    if stop.action == DROPOFF and rid in vehicle.onboard:
        ob = vehicle.onboard[rid]
        return PlanItem(stop.key, stop.node, ob.dropoff_deadline, 0.0, False, 0.0, -1)
    req = vehicle.request_of(rid)
    if stop.action == PICKUP:
        return PlanItem(stop.key, stop.node, req.latest_boarding,
                        req.emergence_time, False, 0.0, +1)
    if req.arrival_deadline is not None:
        return PlanItem(stop.key, stop.node, req.arrival_deadline, 0.0, False, 0.0, -1)
    slack = net.shortest_time(req.origin, req.destination) + req.max_detour
    return PlanItem(stop.key, stop.node, INF, 0.0, True, slack, -1)


def request_items(net: Network, req: Request) -> list[PlanItem]:
    pickup = PlanItem((req.id, 0), req.origin, req.latest_boarding,
                      req.emergence_time, False, 0.0, +1)
    if req.arrival_deadline is not None:
        drop = PlanItem((req.id, 1), req.destination, req.arrival_deadline,
                        0.0, False, 0.0, -1)
    else:
        slack = net.shortest_time(req.origin, req.destination) + req.max_detour
        drop = PlanItem((req.id, 1), req.destination, INF, 0.0, True, slack, -1)
    return [pickup, drop]


# -- order evaluation ----------------------------------------------------------


def evaluate_order(net: Network, vehicle: VehicleState, items, now: float):
    """(travel_cost, times) for this exact ordering, or None if infeasible."""
    t = now + vehicle.time_to_loc
    travel = vehicle.time_to_loc if items else 0.0
    pos = vehicle.loc_node
    load = len(vehicle.onboard)
    pickup_times: dict[int, float] = {}
    picked = set()
    times = []
    for it in items:
        leg = net.shortest_time(pos, it.node)
        if leg == INF:
            return None
        travel += leg
        t += leg
        pos = it.node
        rid, kind = it.key
        if kind == 0:
            t = max(t, it.not_before)
            load += 1
            if load > vehicle.capacity:
                return None
            picked.add(rid)
            pickup_times[rid] = t
        else:
            if rid in vehicle.onboard:
                pass
            elif rid not in picked:
                return None  # dropoff scheduled before its pickup
            load -= 1
        deadline = it.deadline
        if it.floating:
            deadline = pickup_times[rid] + it.slack
        if t > deadline + EPS:
            return None
        times.append(t)
    return travel, times


def feasible(net: Network, vehicle: VehicleState, candidate, now: float,
             requests: dict[int, Request] | None = None) -> bool:
    """True iff the candidate stop sequence meets every deadline, capacity
    bound, and pickup-before-dropoff precedence from the vehicle's position.

    Stops for requests the vehicle does not carry yet are resolved through
    the `requests` mapping.
    """
    requests = requests or {}
    items = []
    for stop in candidate:
        if stop.action == RELOCATE:
            continue
        rid = stop.request_id
        if rid in vehicle.onboard or rid in vehicle.waiting:
            items.append(_item_for_stop(net, vehicle, stop))
        elif rid in requests:
            req = requests[rid]
            pickup, drop = request_items(net, req)
            items.append(pickup if stop.action == PICKUP else drop)
        else:
            return False
    return evaluate_order(net, vehicle, items, now) is not None


# -- follower pruning ------------------------------------------------------------


def _blockers(net: Network, vehicle: VehicleState, items, now: float):
    """blockers[i] = bitmask of items that must precede item i."""
    n = len(items)
    masks = [0] * n
    index = {it.key: i for i, it in enumerate(items)}
    start_t = now + vehicle.time_to_loc
    earliest = []
    for it in items:
        leg = net.shortest_time(vehicle.loc_node, it.node)
        earliest.append(max(start_t + leg, it.not_before))
    for j, itj in enumerate(items):
        # dropoff follows its own pickup
        if itj.key[1] == 1 and (itj.key[0], 0) in index:
            masks[j] |= 1 << index[(itj.key[0], 0)]
        for i, iti in enumerate(items):
            if i == j:
                continue
            # latest deadline item i could possibly have
            di = iti.deadline
            if iti.floating:
                pk = index.get((iti.key[0], 0))
                di = (items[pk].deadline if pk is not None else INF)
                di = di + iti.slack if di < INF else INF
            if di == INF:
                continue
            # j anywhere before i forces arrival(i) >= earliest(j) + c(j, i)
            if earliest[j] + net.shortest_time(itj.node, iti.node) > di + EPS:
                masks[j] |= 1 << i
    return masks


# -- exact recursive search -------------------------------------------------------


def solve_exact_items(net: Network, vehicle: VehicleState, items, now: float,
                      use_followers: bool = True):
    """Minimum-cost feasible ordering over all permutations of the items.

    Ties break toward the lexicographically smallest key sequence because
    candidates are scanned in key order and only strict improvements replace
    the incumbent. Returns (ordered items, travel_cost) or (None, inf).
    """
    items = sorted(items, key=lambda it: it.key)
    n = len(items)
    if n == 0:
        return [], 0.0
    blockers = _blockers(net, vehicle, items, now) if use_followers else None
    if blockers is None:
        blockers = [0] * n
        for j, itj in enumerate(items):
            if itj.key[1] == 1:
                for i, iti in enumerate(items):
                    if iti.key == (itj.key[0], 0):
                        blockers[j] |= 1 << i
    st = net.shortest_time
    cap = vehicle.capacity
    best_cost = [INF]
    best_order: list = [None]
    full = (1 << n) - 1
    order = [0] * n

    def rec(pos, t, travel, load, visited, depth, pickup_times):
        if travel >= best_cost[0] - EPS:
            return
        if visited == full:
            best_cost[0] = travel
            best_order[0] = order[:depth]
            return
        for i in range(n):
            bit = 1 << i
            if visited & bit or (blockers[i] & ~visited):
                continue
            it = items[i]
            leg = st(pos, it.node)
            if leg == INF:
                continue
            t2 = t + leg
            if it.key[1] == 0:
                t2 = max(t2, it.not_before)
                load2 = load + 1
                if load2 > cap:
                    continue
            else:
                load2 = load - 1
            deadline = it.deadline
            if it.floating:
                deadline = pickup_times[it.key[0]] + it.slack
            if t2 > deadline + EPS:
                continue
            order[depth] = i
            if it.key[1] == 0:
                pickup_times[it.key[0]] = t2
                rec(it.node, t2, travel + leg, load2, visited | bit, depth + 1, pickup_times)
                del pickup_times[it.key[0]]
            else:
                rec(it.node, t2, travel + leg, load2, visited | bit, depth + 1, pickup_times)

    start_pickups = {}
    rec(vehicle.loc_node, now + vehicle.time_to_loc, vehicle.time_to_loc,
        len(vehicle.onboard), 0, 0, start_pickups)
    if best_order[0] is None:
        return None, INF
    return [items[i] for i in best_order[0]], best_cost[0]


# -- insertion heuristic ------------------------------------------------------------


def insertion_items(net: Network, vehicle: VehicleState, items, now: float,
                    insertion_order=None):
    """Rebuild the route from empty, inserting one node at a time at its
    cheapest feasible position. Previously placed order is preserved; any
    node without a feasible slot fails the whole computation."""
    if insertion_order is None:
        pending = sorted(items, key=lambda it: it.key)
    else:
        by_key = {it.key: it for it in items}
        pending = [by_key[k] for k in insertion_order]
        if len(pending) != len(items):
            raise ValueError("insertion_order must cover all items exactly once")
    partial: list[PlanItem] = []
    for it in pending:
        best = None
        best_cost = INF
        for i in range(len(partial) + 1):
            cand = partial[:i] + [it] + partial[i:]
            res = evaluate_order(net, vehicle, cand, now)
            if res is not None and res[0] < best_cost - EPS:
                best_cost = res[0]
                best = cand
        if best is None:
            return None, INF
        partial = best
    res = evaluate_order(net, vehicle, partial, now)
    return partial, res[0]


# -- order-preserving merge (used by oof and lrp) ---------------------------------


def _best_merge(net, vehicle, prefix, spine, new_items, now):
    """Cheapest feasible ordering that keeps prefix, then interleaves
    new_items into spine without disturbing the spine's relative order."""
    st = net.shortest_time
    cap = vehicle.capacity
    new_items = sorted(new_items, key=lambda it: it.key)
    m = len(new_items)
    best_cost = [INF]
    best_seq: list = [None]

    seed = evaluate_order(net, vehicle, prefix, now)
    if seed is None:
        return None, INF
    base_travel = seed[0] if prefix else (vehicle.time_to_loc if (spine or new_items) else 0.0)
    t0 = now + vehicle.time_to_loc
    load0 = len(vehicle.onboard)
    pickups0: dict[int, float] = {}
    pos0 = vehicle.loc_node
    for it, tt in zip(prefix, seed[1]):
        if it.key[1] == 0:
            load0 += 1
            pickups0[it.key[0]] = tt
        else:
            load0 -= 1
        t0 = tt
        pos0 = it.node

    seq: list = []

    def rec(pos, t, travel, load, si, used_mask, pickups):
        if travel >= best_cost[0] - EPS:
            return
        if si == len(spine) and used_mask == (1 << m) - 1:
            best_cost[0] = travel
            best_seq[0] = seq[:]
            return
        cands = []
        if si < len(spine):
            cands.append(("s", spine[si]))
        for i in range(m):
            if not (used_mask >> i) & 1:
                it = new_items[i]
                if it.key[1] == 1 and it.key[0] not in pickups and \
                        any(new_items[j].key == (it.key[0], 0) and not (used_mask >> j) & 1
                            for j in range(m)):
                    continue  # its pickup is pending
                cands.append((i, it))
        for tag, it in cands:
            leg = st(pos, it.node)
            if leg == INF:
                continue
            t2 = t + leg
            if it.key[1] == 0:
                t2 = max(t2, it.not_before)
                load2 = load + 1
                if load2 > cap:
                    continue
            else:
                load2 = load - 1
            deadline = it.deadline
            if it.floating:
                pk = pickups.get(it.key[0])
                if pk is None:
                    continue
                deadline = pk + it.slack
            if t2 > deadline + EPS:
                continue
            seq.append(it)
            if it.key[1] == 0:
                pickups[it.key[0]] = t2
            if tag == "s":
                rec(it.node, t2, travel + leg, load2, si + 1, used_mask, pickups)
            else:
                rec(it.node, t2, travel + leg, load2, si, used_mask | (1 << tag), pickups)
            if it.key[1] == 0:
                del pickups[it.key[0]]
            seq.pop()

    rec(pos0, t0, base_travel, load0, 0, 0, pickups0)
    if best_seq[0] is None:
        return None, INF
    return list(prefix) + best_seq[0], best_cost[0]


def oof_items(net, vehicle, committed, new_items, now):
    """Keep every committed stop in its current order; interleave only the
    new requests' nodes, exact-optimally over all interleavings."""
    return _best_merge(net, vehicle, [], committed, new_items, now)


def lrp_items(net, vehicle, committed, new_items, now, eta, memory: RouteMemory | None):
    """Recall the previous route, keep a prefix intact, and re-merge only a
    suffix sized so that suffix nodes plus new nodes equal eta."""
    n_new = len(new_items)
    if n_new > eta:
        return None, INF
    committed_by_key = {it.key: it for it in committed}
    recalled = memory.get(vehicle.id) if memory is not None else None
    ordered: list[PlanItem] = []
    if recalled:
        for key in recalled:
            if key in committed_by_key:
                ordered.append(committed_by_key.pop(key))
    ordered.extend(committed_by_key.values())  # entries absent from memory keep route order
    suffix_len = max(0, min(len(ordered), eta - n_new))
    cut = len(ordered) - suffix_len
    prefix, suffix = ordered[:cut], ordered[cut:]
    return _best_merge(net, vehicle, prefix, suffix, new_items, now)


# -- spec-surface operations ---------------------------------------------------------


def _query_items(net: Network, query: CtspQuery):
    committed = committed_items(net, query.vehicle, query.drop)
    new = []
    for req in sorted(query.new_requests, key=lambda r: r.id):
        new.extend(request_items(net, req))
    return committed, new


def _to_route(net, vehicle, items, times) -> Route:
    time_of = {it.key: t for it, t in zip(items, times)}
    stops = []
    for it, t in zip(items, times):
        action = PICKUP if it.key[1] == 0 else DROPOFF
        deadline = it.deadline
        if it.floating:  # materialize from this plan's boarding time
            deadline = time_of[(it.key[0], 0)] + it.slack
        stops.append(Stop(it.node, it.key[0], action, deadline))
    return Route(tuple(stops), tuple(times))


def _finish(net, vehicle, items, now):
    if items is None:
        return None
    res = evaluate_order(net, vehicle, items, now)
    if res is None:
        return None
    return _to_route(net, vehicle, items, res[1])


def solve_exact(net: Network, query: CtspQuery, use_followers=True) -> Route | None:
    committed, new = _query_items(net, query)
    items, _ = solve_exact_items(net, query.vehicle, committed + new, query.now, use_followers)
    return _finish(net, query.vehicle, items, query.now)


def insertion(net: Network, query: CtspQuery, insertion_order=None) -> Route | None:
    committed, new = _query_items(net, query)
    items, _ = insertion_items(net, query.vehicle, committed + new, query.now, insertion_order)
    return _finish(net, query.vehicle, items, query.now)


def oof(net: Network, query: CtspQuery, threshold: int) -> Route | None:
    """Threshold counts passengers onboard plus requests yet to board."""
    committed, new = _query_items(net, query)
    vehicle = query.vehicle
    yet_to_board = sum(1 for it in committed if it.key[1] == 0) + len(query.new_requests)
    if len(vehicle.onboard) + yet_to_board <= threshold:
        items, _ = solve_exact_items(net, vehicle, committed + new, query.now)
    else:
        items, _ = oof_items(net, vehicle, committed, new, query.now)
    return _finish(net, vehicle, items, query.now)


def lrp(net: Network, query: CtspQuery, eta: int, memory: RouteMemory | None) -> Route | None:
    """Node count: one per onboard passenger, two per yet-to-board request."""
    committed, new = _query_items(net, query)
    vehicle = query.vehicle
    total_nodes = len(committed) + len(new)
    if total_nodes <= eta:
        items, _ = solve_exact_items(net, vehicle, committed + new, query.now)
    else:
        items, _ = lrp_items(net, vehicle, committed, new, query.now, eta, memory)
    return _finish(net, vehicle, items, query.now)


def oracle(net: Network, query: CtspQuery, policy: CtspPolicy,
           memory: RouteMemory | None = None):
    """Dispatch by stop count and policy; returns (Route | None, trip_cost).

    trip_cost is route_cost(new) - route_cost(current committed route);
    infeasible queries price at +inf.
    """
    vehicle = query.vehicle
    if not query.new_requests and not query.drop:
        return Route(vehicle.remaining_stops,
                     vehicle.route.planned_times[vehicle._cursor:]), 0.0
    committed, new = _query_items(net, query)
    items = committed + new
    if policy.mode == "exact" or len(items) <= policy.enumerate_limit:
        ordered, _ = solve_exact_items(net, vehicle, items, query.now, policy.use_followers)
    elif policy.mode == "insertion":
        ordered, _ = insertion_items(net, vehicle, items, query.now)
    elif policy.mode == "oof":
        ordered, _ = oof_items(net, vehicle, committed, new, query.now)
    else:
        ordered, _ = lrp_items(net, vehicle, committed, new, query.now, policy.lrp_eta, memory)
    route = _finish(net, vehicle, ordered, query.now)
    if route is None:
        return None, INF
    base = route_cost(net, vehicle, vehicle.remaining_stops)
    return route, route_cost(net, vehicle, route.stops) - base


class CtspOracle:
    """Caching front end used by the assignment algorithms.

    Results are memoized by (vehicle id, state version, extra ids, dropped
    ids); versions bump whenever a vehicle moves or commits, so stale entries
    can never be served.
    """

    def __init__(self, net: Network, policy: CtspPolicy, memory: RouteMemory | None = None):
        self.net = net
        self.policy = policy
        self.memory = memory if memory is not None else RouteMemory()
        self._cache: dict = {}
        self.calls = 0
        self.cache_hits = 0

    def best_route(self, vehicle: VehicleState, extra=(), drop=frozenset(), now=0.0):
        """(Route | None, absolute travel cost of that route)."""
        extra = tuple(sorted(extra, key=lambda r: r.id))
        key = (vehicle.id, vehicle.version, tuple(r.id for r in extra), frozenset(drop), now)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.calls += 1
        query = CtspQuery(vehicle, extra, now, frozenset(drop))
        route, _ = oracle(self.net, query, self.policy, self.memory)
        cost = route_cost(self.net, vehicle, route.stops) if route is not None else INF
        self._cache[key] = (route, cost)
        return route, cost

    def trip_cost(self, vehicle, extra=(), drop=frozenset(), now=0.0, baseline=None):
        """(Route | None, cost delta vs the vehicle's committed route)."""
        route, cost = self.best_route(vehicle, extra, drop, now)
        if route is None:
            return None, INF
        if baseline is None:
            baseline = route_cost(self.net, vehicle, vehicle.remaining_stops)
        return route, cost - baseline
