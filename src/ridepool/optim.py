"""Desk-scale optimization kernels: two-phase simplex with duals, binary
branch-and-bound, matchings, and an integral transportation solver.

All solvers are hand-rolled and deterministic: Bland's rule for pivoting,
best-bound search with fixed tie-breaking for branch-and-bound. Sizes here
are small enough that dense tableaus are the simple, robust choice.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
INT_TOL = 1e-6
GAP_TOL = 1e-9


class SolverError(RuntimeError):
    pass


@dataclass
class LpProblem:
    """min (or max) c.x  s.t.  a_ub.x <= b_ub, a_eq.x = b_eq, 0 <= x <= upper."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    upper: np.ndarray | None = None     # per-variable upper bounds (inf allowed)
    integer: np.ndarray | None = None   # binary marks; requires upper == 1
    maximize: bool = False

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.a_ub is None:
            self.a_ub = np.zeros((0, n))
            self.b_ub = np.zeros(0)
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n)
        self.b_ub = np.asarray(self.b_ub, dtype=float).reshape(-1)
        if self.a_eq is None:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        self.b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        if self.upper is not None:
            self.upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if self.integer is None:
            self.integer = np.zeros(n, dtype=bool)
        else:
            self.integer = np.asarray(self.integer, dtype=bool).reshape(-1)
        if not np.all(np.isfinite(self.c)):
            raise SolverError("objective has non-finite coefficients")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str                      # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float = math.nan
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None


@dataclass
class IlpSolution:
    status: str                      # optimal | feasible | infeasible
    x: np.ndarray | None = None
    objective: float = math.nan
    optimal: bool = False
    nodes: int = 0


# -- simplex ---------------------------------------------------------------------


def _bland_simplex(tab, basis, n_total, obj_row):
    """In-place primal simplex on rows [0..m) with objective row obj_row.

    Entering variable: smallest index with negative reduced cost (Bland);
    leaving: min-ratio with smallest basis index on ties. Anti-cycling and
    fully deterministic.
    """
    m = len(basis)
    it = 0
    limit = 20000 + 200 * (m + n_total)
    while True:
        it += 1
        if it > limit:
            raise SolverError("simplex iteration limit (cycling guard)")
        enter = -1
        for j in range(n_total):
            if tab[obj_row, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave, best_ratio, best_basis = -1, INF, -1
        for i in range(m):
            a = tab[i, enter]
            if a > PIVOT_TOL:
                ratio = tab[i, -1] / a
                if ratio < best_ratio - PIVOT_TOL or \
                        (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < best_basis):
                    leave, best_ratio, best_basis = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        piv = tab[leave, enter]
        tab[leave] /= piv
        for i in range(tab.shape[0]):
            if i != leave and abs(tab[i, enter]) > 1e-14:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter


def simplex_solve(p: LpProblem) -> LpSolution:
    """Two-phase dense simplex returning primal values and row duals."""
    c = -p.c if p.maximize else p.c
    n = p.n
    # fold finite upper bounds in as <= rows
    ub_rows = []
    if p.upper is not None:
        for j, u in enumerate(p.upper):
            if math.isfinite(u):
                row = np.zeros(n)
                row[j] = 1.0
                ub_rows.append((row, u))
    a_ub = np.vstack([p.a_ub] + [r for r, _ in ub_rows]) if ub_rows else p.a_ub
    b_ub = np.concatenate([p.b_ub, [u for _, u in ub_rows]]) if ub_rows else p.b_ub

    m_ub, m_eq = a_ub.shape[0], p.a_eq.shape[0]
    m = m_ub + m_eq
    a = np.vstack([a_ub, p.a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, p.b_eq])
    senses = ["ub"] * m_ub + ["eq"] * m_eq
    sign = np.ones(m)
    neg = b < 0
    a[neg] *= -1.0
    b = b.copy()
    b[neg] *= -1.0
    sign[neg] = -1.0

    # columns: n structural + m_ub slacks (sign-adjusted) + artificials
    slack_cols = np.zeros((m, m_ub))
    art_needed = []
    for i in range(m):
        if senses[i] == "ub":
            slack_cols[i, i] = sign[i]  # flipped rows get surplus, need artificial
            if sign[i] < 0:
                art_needed.append(i)
        else:
            art_needed.append(i)
    n_art = len(art_needed)
    art_cols = np.zeros((m, n_art))
    for k, i in enumerate(art_needed):
        art_cols[i, k] = 1.0
    n_total = n + m_ub + n_art
    tab = np.zeros((m + 2, n_total + 1))
    if m:
        tab[:m, :n] = a
        tab[:m, n:n + m_ub] = slack_cols
        tab[:m, n + m_ub:n_total] = art_cols
        tab[:m, -1] = b
    tab[m, :n] = c                      # phase-2 objective
    tab[m + 1, n + m_ub:n_total] = 1.0  # phase-1 objective

    basis = []
    art_of_row = {i: n + m_ub + k for k, i in enumerate(art_needed)}
    for i in range(m):
        if i in art_of_row:
            basis.append(art_of_row[i])
        else:
            basis.append(n + i)  # its own slack
    # price out basic artificials from the phase-1 row
    for i, bv in enumerate(basis):
        if bv >= n + m_ub:
            tab[m + 1] -= tab[i]

    if n_art:
        status = _bland_simplex(tab, basis, n_total, m + 1)
        if status != "optimal":
            raise SolverError("phase-1 cannot be unbounded")
        if -tab[m + 1, -1] > FEAS_TOL:  # rhs holds -objective
            return LpSolution("infeasible")
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= n + m_ub and tab[i, -1] <= FEAS_TOL:
                for j in range(n + m_ub):
                    if abs(tab[i, j]) > PIVOT_TOL:
                        piv = tab[i, j]
                        tab[i] /= piv
                        for r in range(tab.shape[0]):
                            if r != i and abs(tab[r, j]) > 1e-14:
                                tab[r] -= tab[r, j] * tab[i]
                        basis[i] = j
                        break
    # block artificial columns from re-entering
    tab[:, n + m_ub:n_total] = 0.0
    for i, bv in enumerate(basis):  # restore identity for any basic artificial (degenerate row)
        if bv >= n + m_ub:
            tab[i, bv] = 1.0
    # price out basic variables from the phase-2 row
    for i, bv in enumerate(basis):
        if abs(tab[m, bv]) > 1e-14:
            tab[m] -= tab[m, bv] * tab[i]
    status = _bland_simplex(tab, basis, n + m_ub, m)
    if status == "unbounded":
        return LpSolution("unbounded")

    x = np.zeros(n_total)
    for i, bv in enumerate(basis):
        x[bv] = tab[i, -1]
    xs = x[:n]
    obj = float(p.c @ xs)

    # duals from the priced-out objective row on slack columns; equality-row
    # duals recovered by solving B^T y = c_B on the original system
    y = _duals(p, a, b, senses, sign, basis, n, m_ub, c)
    duals_ub = y[:p.a_ub.shape[0]]
    duals_eq = y[m_ub:m_ub + m_eq] if m_eq else np.zeros(0)
    if p.maximize:
        duals_ub, duals_eq = -duals_ub, -duals_eq
    return LpSolution("optimal", xs, obj, duals_ub, duals_eq)


def _duals(p, a, b, senses, sign, basis, n, m_ub, c):
    m = a.shape[0]
    if m == 0:
        return np.zeros(0)
    art_rows = [i for i in range(m) if senses[i] == "eq" or sign[i] < 0]
    cols = []
    cost = []
    for bv in basis:
        col = np.zeros(m)
        if bv < n:
            col[:] = a[:, bv]
            cost.append(c[bv])
        elif bv < n + m_ub:
            i = bv - n
            col[i] = sign[i]
            cost.append(0.0)
        else:  # leftover degenerate artificial: unit vector on its row
            col[art_rows[bv - (n + m_ub)]] = 1.0
            cost.append(0.0)
        cols.append(col)
    bmat = np.array(cols).T
    try:
        y = np.linalg.solve(bmat.T, np.array(cost))
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(bmat.T, np.array(cost), rcond=None)
    return y * sign  # undo row normalizations


# -- branch and bound ------------------------------------------------------------------


def bnb_solve(p: LpProblem, node_limit: int | None = None) -> IlpSolution:
    """Provably optimal 0/1 solve via best-bound branch and bound.

    Branches on the most fractional binary (ties: lowest index); equal-cost
    incumbents resolve toward the lexicographically greatest 0/1 vector, so
    e.g. matchings prefer the lowest edge index.
    """
    n = p.n
    int_idx = np.flatnonzero(p.integer)
    for j in int_idx:
        u = p.upper[j] if p.upper is not None else INF
        if not (0.999999 <= u <= 1.000001):
            raise SolverError("bnb_solve handles binary variables only")
    sense = -1.0 if p.maximize else 1.0

    incumbent = None
    incumbent_obj = INF  # in min-sense
    nodes_done = 0
    counter = itertools.count()
    heap = []

    def lp_with(fixed: dict[int, int]):
        upper = (p.upper.copy() if p.upper is not None
                 else np.full(n, INF))
        lower_one = [j for j, v in fixed.items() if v == 1]
        for j, v in fixed.items():
            if v == 0:
                upper[j] = 0.0
        sub = LpProblem(p.c, p.a_ub.copy(), p.b_ub.copy(), None, None,
                        upper, None, p.maximize)
        # force x_j = 1 with equality rows; keeps the core solver simple
        a_eq = [p.a_eq, ] if p.a_eq.size else []
        b_eq = [p.b_eq, ] if p.a_eq.size else []
        if lower_one:
            rows = np.zeros((len(lower_one), n))
            for k, j in enumerate(lower_one):
                rows[k, j] = 1.0
            a_eq.append(rows)
            b_eq.append(np.ones(len(lower_one)))
        if a_eq:
            sub.a_eq = np.vstack(a_eq)
            sub.b_eq = np.concatenate(b_eq)
        return simplex_solve(sub)

    root = lp_with({})
    if root.status == "infeasible":
        return IlpSolution("infeasible", nodes=1)
    if root.status == "unbounded":
        raise SolverError("LP relaxation unbounded")
    heapq.heappush(heap, (sense * root.objective, next(counter), {}, root))

    def lex_key(x):
        return tuple(int(round(v)) for v in x)

    while heap:
        bound, _, fixed, sol = heapq.heappop(heap)
        nodes_done += 1
        if bound > incumbent_obj + GAP_TOL:
            continue
        if node_limit is not None and nodes_done > node_limit:
            status = "feasible" if incumbent is not None else "limit"
            return IlpSolution(status, incumbent,
                               (math.nan if incumbent is None else sense * incumbent_obj),
                               optimal=False, nodes=nodes_done)
        x = sol.x
        frac = [(abs(x[j] - round(x[j])), j) for j in int_idx
                if abs(x[j] - round(x[j])) > INT_TOL]
        if not frac:
            obj = sense * sol.objective
            if obj < incumbent_obj - GAP_TOL or (
                    incumbent is not None and abs(obj - incumbent_obj) <= GAP_TOL
                    and lex_key(x) > lex_key(incumbent)):
                incumbent = x.copy()
                incumbent_obj = obj
            continue
        # most fractional, then lowest index
        _, branch_j = max(((f, -j) for f, j in frac))
        branch_j = -branch_j
        for val in (1, 0):
            child = dict(fixed)
            child[branch_j] = val
            s = lp_with(child)
            if s.status == "infeasible":
                continue
            child_bound = sense * s.objective
            if child_bound > incumbent_obj + GAP_TOL:
                continue
            heapq.heappush(heap, (child_bound, next(counter), child, s))

    if incumbent is None:
        return IlpSolution("infeasible", nodes=nodes_done)
    return IlpSolution("optimal", incumbent, sense * incumbent_obj,
                       optimal=True, nodes=nodes_done)


# -- matchings ---------------------------------------------------------------------------


def max_weight_bipartite_matching(weights: dict) -> tuple[list, float]:
    """weights: {(left, right): w}. Returns (chosen pairs, total weight).

    Solved through the binary LP; the bipartite polytope is integral so the
    branch-and-bound finishes at the root.
    """
    edges = sorted(weights)
    if not edges:
        return [], 0.0
    lefts = sorted({l for l, _ in edges})
    rights = sorted({r for _, r in edges})
    li = {l: i for i, l in enumerate(lefts)}
    ri = {r: i for i, r in enumerate(rights)}
    n = len(edges)
    a_ub = np.zeros((len(lefts) + len(rights), n))
    for j, (l, r) in enumerate(edges):
        a_ub[li[l], j] = 1.0
        a_ub[len(lefts) + ri[r], j] = 1.0
    p = LpProblem(np.array([weights[e] for e in edges]), a_ub,
                  np.ones(len(lefts) + len(rights)),
                  upper=np.ones(n), integer=np.ones(n, dtype=bool), maximize=True)
    sol = bnb_solve(p)
    chosen = [edges[j] for j in range(n) if sol.x[j] > 0.5]
    return chosen, float(sum(weights[e] for e in chosen))


def max_weight_general_matching(edges: list[tuple]) -> tuple[list[int], float]:
    """edges: [(u, v, w)] over arbitrary hashable nodes; vehicle-vehicle edges
    welcome. Returns (chosen edge indexes, total weight)."""
    if not edges:
        return [], 0.0
    nodes = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges}, key=repr)
    ni = {u: i for i, u in enumerate(nodes)}
    n = len(edges)
    a_ub = np.zeros((len(nodes), n))
    for j, (u, v, _) in enumerate(edges):
        a_ub[ni[u], j] = 1.0
        a_ub[ni[v], j] = 1.0
    p = LpProblem(np.array([w for _, _, w in edges]), a_ub, np.ones(len(nodes)),
                  upper=np.ones(n), integer=np.ones(n, dtype=bool), maximize=True)
    sol = bnb_solve(p)
    chosen = [j for j in range(n) if sol.x[j] > 0.5]
    return chosen, float(sum(edges[j][2] for j in chosen))


# -- transportation -----------------------------------------------------------------------


def transportation_solve(costs) -> list[tuple[int, int]]:
    """Min-cost unit assignment shipping exactly min(m, n) units.

    Successive shortest augmenting paths with Johnson potentials; supplies
    and demands are all 1, so the optimum is integral by construction.
    """
    costs = [list(row) for row in costs]
    m = len(costs)
    n = len(costs[0]) if m else 0
    flow_target = min(m, n)
    if flow_target == 0:
        return []
    # node ids: 0 = source, 1..m = rows, m+1..m+n = cols, m+n+1 = sink
    src, snk = 0, m + n + 1
    N = m + n + 2
    cap = {}
    cost = {}
    adj = [[] for _ in range(N)]

    def add(u, v, ca, co):
        cap[(u, v)] = ca
        cap[(v, u)] = 0
        cost[(u, v)] = co
        cost[(v, u)] = -co
        adj[u].append(v)
        adj[v].append(u)

    for i in range(m):
        add(src, 1 + i, 1, 0.0)
    for i in range(m):
        for j in range(n):
            if math.isfinite(costs[i][j]):
                add(1 + i, m + 1 + j, 1, float(costs[i][j]))
    for j in range(n):
        add(m + 1 + j, snk, 1, 0.0)

    pot = [0.0] * N
    flow = {k: 0 for k in cap}
    shipped = 0
    while shipped < flow_target:
        dist = [INF] * N
        prev = [-1] * N
        dist[src] = 0.0
        pq = [(0.0, src)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u] + 1e-12:
                continue
            for v in adj[u]:
                if cap[(u, v)] - flow[(u, v)] > 0:
                    nd = d + cost[(u, v)] + pot[u] - pot[v]
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        prev[v] = u
                        heapq.heappush(pq, (nd, v))
        if dist[snk] == INF:
            raise SolverError("transportation network cannot ship required units")
        for u in range(N):
            if dist[u] < INF:
                pot[u] += dist[u]
        v = snk
        while v != src:
            u = prev[v]
            flow[(u, v)] += 1
            flow[(v, u)] -= 1
            v = u
        shipped += 1
    return sorted((i, j) for i in range(m) for j in range(n)
                  if (1 + i, m + 1 + j) in flow and flow[(1 + i, m + 1 + j)] > 0)
