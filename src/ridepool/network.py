"""Road network with a memoized shortest-path oracle.

The network is read-only once `finish()` has run (the first query runs it if
the builder did not): `add_node` and `add_arc` raise afterwards, so a
memoized distance can never go stale. Shortest-path queries run one full
Dijkstra per source and memoize its distances and predecessors; the
assignment algorithms hammer the same sources, so the memo dominates runtime
savings. The searches run over a dense node index (each node id's rank in
sorted id order), built on the first memo miss, and each memoized source
holds one `array` row of distances and one of predecessor ranks.
"""

from __future__ import annotations

import csv
import heapq
import math
from array import array
from dataclasses import dataclass

INF = math.inf


class NetworkError(ValueError):
    """Malformed network data or a query against an unknown node."""


@dataclass(frozen=True)
class PathResult:
    total_time: float
    node_sequence: tuple[int, ...]


class Network:
    def __init__(self):
        self.coords: dict[int, tuple[float, float] | None] = {}
        self.adjacency: dict[int, list[tuple[int, float, float]]] = {}
        self._finished = False
        # dense index, built on the first memo miss: node id -> rank, rank ->
        # node id, and per rank the sorted (rank, travel_time) out-arcs
        self._rank: dict[int, int] | None = None
        self._ids: list[int] = []
        self._out: list[list[tuple[int, float]]] = []
        # source id -> (dist, pred) indexed by rank; pred -1 = no predecessor
        self._sp: dict[int, tuple[array, array]] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, node_id: int, xy: tuple[float, float] | None = None):
        if self._finished:
            raise NetworkError("network is read-only after finish()")
        if node_id in self.coords:
            raise NetworkError(f"duplicate node {node_id}")
        self.coords[node_id] = xy
        self.adjacency[node_id] = []

    def add_arc(self, u: int, v: int, travel_time: float, length_m: float | None = None):
        if self._finished:
            raise NetworkError("network is read-only after finish()")
        if u not in self.coords:
            raise NetworkError(f"unknown node {u}")
        if v not in self.coords:
            raise NetworkError(f"unknown node {v}")
        if not (travel_time >= 0.0) or not math.isfinite(travel_time):
            raise NetworkError(f"bad travel time {travel_time} on arc {u}->{v}")
        if length_m is None:
            length_m = travel_time  # distance proxy at 1 m/s so VMT is always defined
        # duplicate arcs keep the minimum travel time
        arcs = self.adjacency[u]
        for i, (w, t, _) in enumerate(arcs):
            if w == v:
                if travel_time < t:
                    arcs[i] = (v, travel_time, length_m)
                return
        arcs.append((v, travel_time, length_m))

    def finish(self):
        """Sort adjacency lists so Dijkstra tie-breaking is reproducible, and
        close the network to further changes."""
        for u in self.adjacency:
            self.adjacency[u].sort()
        self._finished = True
        self._sp.clear()
        return self

    @property
    def nodes(self) -> list[int]:
        return sorted(self.coords)

    def arc(self, u: int, v: int) -> tuple[float, float]:
        """(travel_time, length) of the direct arc u->v."""
        for w, t, l in self.adjacency[u]:
            if w == v:
                return t, l
        raise NetworkError(f"no arc {u}->{v}")

    # -- shortest paths ----------------------------------------------------

    def _build_index(self):
        if not self._finished:
            self.finish()
        ids = sorted(self.coords)
        rank = {v: i for i, v in enumerate(ids)}
        self._ids = ids
        self._out = [[(rank[v], t) for v, t, _ in self.adjacency[u]] for u in ids]
        self._rank = rank

    def _run_dijkstra(self, source: int):
        if self._rank is None:
            self._build_index()
        out = self._out
        n = len(out)
        dist = array("d", [INF]) * n
        pred = array("i", [-1]) * n
        done = bytearray(n)
        s = self._rank[source]
        dist[s] = 0.0
        # (d, rank) entries pop in the same order as (d, id): ranks keep id order
        heap = [(0.0, s)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if done[u]:
                continue
            done[u] = 1
            for v, t in out[u]:
                nd = d + t
                if nd < dist[v]:  # strict: equal-cost keeps the earlier pred
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd, v))
        self._sp[source] = (dist, pred)
        return dist, pred

    def _tables(self, source: int):
        cached = self._sp.get(source)
        if cached is None:
            if source not in self.coords:
                raise NetworkError(f"unknown node {source}")
            cached = self._run_dijkstra(source)
        return cached

    def shortest_time(self, a: int, b: int) -> float:
        tables = self._sp.get(a)
        if tables is None:
            tables = self._tables(a)
        try:
            return tables[0][self._rank[b]]
        except KeyError:
            raise NetworkError(f"unknown node {b}") from None

    def path(self, a: int, b: int) -> PathResult:
        dist, pred = self._tables(a)
        j = self._rank.get(b)
        if j is None:
            raise NetworkError(f"unknown node {b}")
        if dist[j] == INF:
            return PathResult(INF, ())
        ids = self._ids
        seq = [b]
        k = pred[j]
        while k != -1:
            seq.append(ids[k])
            k = pred[k]
        seq.reverse()
        return PathResult(dist[j], tuple(seq))

    def path_legs(self, a: int, b: int) -> list[tuple[int, float, float]]:
        """Consecutive (next_node, arc_time, arc_length) legs from a to b."""
        res = self.path(a, b)
        if not res.node_sequence:
            raise NetworkError(f"{b} unreachable from {a}")
        legs = []
        for u, v in zip(res.node_sequence, res.node_sequence[1:]):
            t, l = self.arc(u, v)
            legs.append((v, t, l))
        return legs


# -- builders --------------------------------------------------------------


def load_network(node_records, arc_records) -> Network:
    """Build a network from parsed (id, x, y) and (u, v, time[, length]) rows."""
    net = Network()
    for row_no, rec in enumerate(node_records, start=1):
        node_id, xy = rec[0], (rec[1], rec[2]) if len(rec) >= 3 and rec[1] is not None else None
        try:
            net.add_node(int(node_id), xy)
        except NetworkError as e:
            raise NetworkError(f"nodes row {row_no}: {e}") from None
    for row_no, rec in enumerate(arc_records, start=1):
        u, v, t = int(rec[0]), int(rec[1]), float(rec[2])
        length = float(rec[3]) if len(rec) >= 4 and rec[3] is not None else None
        if u not in net.coords:
            raise NetworkError(f"edges row {row_no}: unknown node {u}")
        if v not in net.coords:
            raise NetworkError(f"edges row {row_no}: unknown node {v}")
        if not (t > 0.0) or not math.isfinite(t):
            raise NetworkError(f"edges row {row_no}: non-positive travel time {t}")
        net.add_arc(u, v, t, length)
    return net.finish()


def grid_network(rows: int, cols: int, spacing_m: float = 100.0,
                 speed_mps: float = 10.0) -> Network:
    """Four-neighbor street grid; node r*cols+c sits at (c, r) * spacing."""
    net = Network()
    for r in range(rows):
        for c in range(cols):
            net.add_node(r * cols + c, (c * spacing_m, r * spacing_m))
    t = spacing_m / speed_mps
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                net.add_arc(u, u + 1, t, spacing_m)
                net.add_arc(u + 1, u, t, spacing_m)
            if r + 1 < rows:
                net.add_arc(u, u + cols, t, spacing_m)
                net.add_arc(u + cols, u, t, spacing_m)
    return net.finish()


def euclidean_network(points) -> Network:
    """Complete directed graph over planar points; arc time = distance (speed 1)."""
    net = Network()
    pts = list(points)
    for node_id, x, y in pts:
        net.add_node(int(node_id), (float(x), float(y)))
    for i, (a, xa, ya) in enumerate(pts):
        for b, xb, yb in pts:
            if a == b:
                continue
            d = math.hypot(xa - xb, ya - yb)
            net.add_arc(int(a), int(b), d, d)
    return net.finish()


# -- CSV interfaces ----------------------------------------------------------


def read_nodes_csv(path) -> list[tuple]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "node_id" not in reader.fieldnames:
            raise NetworkError(f"{path}: missing header row with node_id")
        for i, row in enumerate(reader, start=2):
            try:
                node_id = int(row["node_id"])
            except (TypeError, ValueError):
                raise NetworkError(f"{path} line {i}: bad node_id {row.get('node_id')!r}") from None
            x, y = row.get("x"), row.get("y")
            if x not in (None, "") and y not in (None, ""):
                rows.append((node_id, float(x), float(y)))
            else:
                rows.append((node_id, None, None))
    return rows


def read_edges_csv(path) -> list[tuple]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = {"from", "to", "travel_time_s"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise NetworkError(f"{path}: header must contain from,to,travel_time_s")
        for i, row in enumerate(reader, start=2):
            try:
                u, v, t = int(row["from"]), int(row["to"]), float(row["travel_time_s"])
            except (TypeError, ValueError):
                raise NetworkError(f"{path} line {i}: bad edge row {row!r}") from None
            length = row.get("length_m")
            rows.append((u, v, t, float(length) if length not in (None, "") else None))
    return rows


def load_network_csv(nodes_path, edges_path) -> Network:
    return load_network(read_nodes_csv(nodes_path), read_edges_csv(edges_path))
