"""Domain model: requests, stops, routes, vehicles, epoch batching.

Vehicle motion is precomputed: committing a route builds an absolute timeline
(travel and wait segments plus stop events), and advancing the clock just
moves a cursor along it. That makes event times independent of how the
advance is split into steps, which the replay invariant requires.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field, replace

from .network import Network, NetworkError

INF = math.inf

PICKUP = "pickup"
DROPOFF = "dropoff"
RELOCATE = "relocate"

_ACTION_RANK = {PICKUP: 0, DROPOFF: 1, RELOCATE: 2}


class DataError(ValueError):
    """Malformed request/vehicle input rows."""


@dataclass(frozen=True)
class Request:
    id: int
    origin: int
    destination: int
    emergence_time: float
    max_wait: float
    max_detour: float
    # Absolute drop-off deadline override. When unset the deadline floats with
    # the boarding time: boarded_at + direct + max_detour.
    arrival_deadline: float | None = None

    def __post_init__(self):
        if self.origin == self.destination:
            raise DataError(f"request {self.id}: origin equals destination")
        if not self.max_wait > 0:
            raise DataError(f"request {self.id}: max_wait must be positive")
        if self.max_detour < 0:
            raise DataError(f"request {self.id}: max_detour must be nonnegative")

    @property
    def latest_boarding(self) -> float:
        return self.emergence_time + self.max_wait

    def dropoff_deadline(self, boarded_at: float, direct_time: float) -> float:
        if self.arrival_deadline is not None:
            return self.arrival_deadline
        return boarded_at + direct_time + self.max_detour


@dataclass(frozen=True)
class Stop:
    node: int
    request_id: int
    action: str
    deadline: float = INF

    @property
    def key(self) -> tuple[int, int]:
        return (self.request_id, _ACTION_RANK[self.action])


@dataclass(frozen=True)
class Route:
    stops: tuple[Stop, ...] = ()
    planned_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class Onboard:
    request: Request
    dropoff_deadline: float
    boarded_at: float


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # arrival | assignment | reassignment | pickup | dropoff | relocation | expiry
    request_id: int
    vehicle_id: int
    node: int


class _Timeline:
    """Absolute motion plan: piecewise segments plus timed stop events."""

    __slots__ = ("t0", "t1", "node_to", "seg_len", "is_wait", "cum0", "events",
                 "end_time", "end_node", "init_pos")

    def __init__(self):
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.node_to: list[int] = []
        self.seg_len: list[float] = []
        self.is_wait: list[bool] = []
        self.cum0: list[float] = []
        self.events: list[tuple[float, int]] = []  # (time, stop index)
        self.end_time = 0.0
        self.end_node = -1
        self.init_pos: tuple[int, float, float] = (-1, 0.0, 0.0)

    def add_segment(self, t0, t1, node_to, length, cum, wait=False):
        self.t0.append(t0)
        self.t1.append(t1)
        self.node_to.append(node_to)
        self.seg_len.append(length)
        self.cum0.append(cum)
        self.is_wait.append(wait)

    def distance_at(self, t: float) -> float:
        if not self.t0:
            return 0.0
        if t >= self.end_time:
            return self.cum0[-1] + self.seg_len[-1]
        i = bisect.bisect_right(self.t0, t) - 1
        if i < 0:
            return 0.0
        span = self.t1[i] - self.t0[i]
        if span <= 0.0:
            return self.cum0[i] + self.seg_len[i]
        frac = min(1.0, (t - self.t0[i]) / span)
        return self.cum0[i] + self.seg_len[i] * frac

    def position_at(self, t: float) -> tuple[int, float, float]:
        """(loc_node, time_to_loc, dist_to_loc) at absolute time t."""
        if not self.t0 or t >= self.end_time:
            return self.end_node, 0.0, 0.0
        if t <= self.t0[0]:
            return self.init_pos
        # exactly at a node boundary: the vehicle is at that node, replannable
        j = bisect.bisect_left(self.t1, t)
        if j < len(self.t1) and self.t1[j] == t:
            return self.node_to[j], 0.0, 0.0
        i = bisect.bisect_right(self.t0, t) - 1
        if i < 0:
            i = 0
        if self.is_wait[i]:
            return self.node_to[i], 0.0, 0.0
        remaining = self.t1[i] - t
        if remaining <= 0.0:
            return self.node_to[i], 0.0, 0.0
        span = self.t1[i] - self.t0[i]
        dist_left = self.seg_len[i] * (remaining / span) if span > 0 else 0.0
        return self.node_to[i], remaining, dist_left


@dataclass
class VehicleState:
    id: int
    capacity: int
    loc_node: int
    time_to_loc: float = 0.0
    dist_to_loc: float = 0.0
    onboard: dict[int, Onboard] = field(default_factory=dict)
    waiting: dict[int, Request] = field(default_factory=dict)
    route: Route = field(default_factory=Route)
    version: int = 0
    dist_anchor: float = 0.0  # meters accumulated before the live timeline
    _timeline: _Timeline = field(default_factory=_Timeline, repr=False)
    _cursor: int = 0          # next unprocessed stop event
    _anchor_time: float = 0.0

    # -- derived views ------------------------------------------------------

    @property
    def remaining_stops(self) -> tuple[Stop, ...]:
        return self.route.stops[self._cursor:]

    @property
    def idle(self) -> bool:
        return self._cursor >= len(self.route.stops)

    def distance_m(self, now: float) -> float:
        return self.dist_anchor + self._timeline.distance_at(now)

    def request_of(self, request_id: int) -> Request:
        if request_id in self.waiting:
            return self.waiting[request_id]
        return self.onboard[request_id].request

    def snapshot(self, now: float):
        return (
            self.loc_node, self.time_to_loc, self.dist_to_loc,
            tuple(sorted(self.onboard)), tuple(sorted(self.waiting)),
            tuple(s.key for s in self.remaining_stops), self.distance_m(now),
        )

    # -- route commitment ---------------------------------------------------

    def commit_route(self, net: Network, stops, now: float):
        """Replace the committed route; rebuilds the absolute timeline."""
        self.dist_anchor = self.distance_m(now)
        tl = _Timeline()
        tl.init_pos = (self.loc_node, self.time_to_loc, self.dist_to_loc)
        t = now
        pos = self.loc_node
        cum = 0.0
        if self.time_to_loc > 0.0:
            tl.add_segment(now, now + self.time_to_loc, self.loc_node, self.dist_to_loc, 0.0)
            t = now + self.time_to_loc
            cum = self.dist_to_loc
        planned = []
        stops = tuple(stops)
        for idx, stop in enumerate(stops):
            if stop.node != pos:
                for node, arc_t, arc_l in net.path_legs(pos, stop.node):
                    tl.add_segment(t, t + arc_t, node, arc_l, cum)
                    t += arc_t
                    cum += arc_l
                pos = stop.node
            if stop.action == PICKUP:
                ready = self.waiting[stop.request_id].emergence_time
                if t < ready:  # hold position until the passenger appears
                    tl.add_segment(t, ready, pos, 0.0, cum, wait=True)
                    t = ready
            tl.events.append((t, idx))
            planned.append(t)
        tl.end_time = t
        tl.end_node = pos
        self._timeline = tl
        self._anchor_time = now
        self._cursor = 0
        self.route = Route(stops, tuple(planned))
        self.version += 1

    # -- simulation ---------------------------------------------------------

    def advance(self, net: Network, dt: float, now: float) -> list[Event]:
        """Move dt simulated seconds forward from absolute time `now`."""
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        target = now + dt
        events: list[Event] = []
        tl = self._timeline
        while self._cursor < len(tl.events) and tl.events[self._cursor][0] <= target:
            t_ev, idx = tl.events[self._cursor]
            stop = self.route.stops[idx]
            if stop.action == PICKUP:
                req = self.waiting.pop(stop.request_id)
                direct = net.shortest_time(req.origin, req.destination)
                self.onboard[req.id] = Onboard(req, req.dropoff_deadline(t_ev, direct), t_ev)
                events.append(Event(t_ev, "pickup", req.id, self.id, stop.node))
            elif stop.action == DROPOFF:
                self.onboard.pop(stop.request_id)
                events.append(Event(t_ev, "dropoff", stop.request_id, self.id, stop.node))
            self._cursor += 1
        node, ttl, dtl = tl.position_at(target)
        if node != -1:
            self.loc_node, self.time_to_loc, self.dist_to_loc = node, ttl, dtl
        if dt > 0:
            self.version += 1
        return events


def make_vehicle(vehicle_id: int, start_node: int, capacity: int = 4) -> VehicleState:
    v = VehicleState(id=vehicle_id, capacity=capacity, loc_node=start_node)
    v._timeline.end_node = start_node
    return v


# -- batching ----------------------------------------------------------------


def batch_requests(stream, t1: float, t2: float, visibility: float = 0.0):
    """Requests emerging in (t1, t2 + W] that persist to the epoch end.

    Returns (batch sorted by id, ids flagged as future-visible).
    """
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    batch, future = [], set()
    for r in stream:
        if t1 < r.emergence_time <= t2 + visibility and t2 <= r.latest_boarding:
            batch.append(r)
            if r.emergence_time > t2:
                future.add(r.id)
    batch.sort(key=lambda r: r.id)
    return batch, future


# -- costs -------------------------------------------------------------------


def route_cost(net: Network, vehicle: VehicleState, stops) -> float:
    """Travel time of the route from the vehicle's position (waits excluded)."""
    stops = tuple(stops)
    if not stops:
        return 0.0
    total = vehicle.time_to_loc
    pos = vehicle.loc_node
    for stop in stops:
        leg = net.shortest_time(pos, stop.node)
        if leg == INF:
            return INF
        total += leg
        pos = stop.node
    return total


# -- CSV interfaces ------------------------------------------------------------


def read_requests_csv(path, default_max_wait: float = 300.0,
                      default_max_detour: float = 600.0) -> list[Request]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = {"request_id", "origin_node", "dest_node", "emergence_time_s"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise DataError(f"{path}: header must contain {sorted(need)}")
        for i, row in enumerate(reader, start=2):
            try:
                mw = row.get("max_wait_s")
                md = row.get("max_detour_s")
                out.append(Request(
                    id=int(row["request_id"]),
                    origin=int(row["origin_node"]),
                    destination=int(row["dest_node"]),
                    emergence_time=float(row["emergence_time_s"]),
                    max_wait=float(mw) if mw not in (None, "") else default_max_wait,
                    max_detour=float(md) if md not in (None, "") else default_max_detour,
                ))
            except (TypeError, ValueError, DataError) as e:
                raise DataError(f"{path} line {i}: {e}") from None
    ids = [r.id for r in out]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate request ids")
    return sorted(out, key=lambda r: (r.emergence_time, r.id))


def read_vehicles_csv(path, default_capacity: int = 4) -> list[VehicleState]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = {"vehicle_id", "start_node"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise DataError(f"{path}: header must contain {sorted(need)}")
        for i, row in enumerate(reader, start=2):
            try:
                cap = row.get("capacity")
                out.append(make_vehicle(
                    int(row["vehicle_id"]), int(row["start_node"]),
                    int(cap) if cap not in (None, "") else default_capacity))
            except (TypeError, ValueError) as e:
                raise DataError(f"{path} line {i}: {e}") from None
    ids = [v.id for v in out]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate vehicle ids")
    return sorted(out, key=lambda v: v.id)


def validate_against_network(net: Network, requests, vehicles):
    """Row-level referential checks; raises DataError naming the offender."""
    for r in requests:
        for n in (r.origin, r.destination):
            if n not in net.coords:
                raise DataError(f"request {r.id}: unknown node {n}")
    for v in vehicles:
        if v.loc_node not in net.coords:
            raise DataError(f"vehicle {v.id}: unknown start node {v.loc_node}")
