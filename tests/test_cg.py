import random
from dataclasses import replace

import numpy as np
import pytest

from ridepool.cg import Duals, RestrictedMaster, cg_assign, generate_sized_columns, reduced_cost
from ridepool.config import SimConfig
from ridepool.core import Route, make_vehicle
from ridepool.epoch import validate_solution
from ridepool.optim import simplex_solve
from ridepool.rtv import Trip, build_shareability_graph, enumerate_trips, rtv_assign, solve_trip_ilp

from conftest import make_state, random_epoch_instance, solution_sets
from test_rtv import small_state


def _trip(vid, rids, cost):
    return Trip(vid, frozenset(rids), Route(), cost)


def test_reduced_cost_zero_duals_is_cost():
    t = _trip(1, {2, 3}, 17.5)
    duals = Duals(pi={2: 0.0, 3: 0.0}, sigma={1: 0.0})
    assert reduced_cost(t, duals) == 17.5


def test_reduced_cost_negative_when_duals_cover():
    t = _trip(1, {2}, 10.0)
    duals = Duals(pi={2: 25.0}, sigma={1: 0.0})
    assert reduced_cost(t, duals) == -15.0


def test_existing_columns_nonnegative_at_optimum():
    state = small_state([(0.0, 0.0), (3.0, 0.0)],
                        [(5, 0, 25, 0, 300.0), (6, 0, 26, 0, 300.0)])
    master = RestrictedMaster(state)
    graph = build_shareability_graph(state)
    for vid in state.vehicle_ids():
        veh = state.vehicles[vid]
        base = state.base_cost(veh)
        for rid in graph.rv_neighbors(vid):
            route, cost = state.plan(veh, [rid])
            master.add(Trip(vid, frozenset((rid,)), route, cost - base))
    _, duals = master.solve_lp()
    for trip in master.columns:
        assert reduced_cost(trip, duals) >= -1e-6  # complementary slackness


def test_pricing_empty_when_no_negative_columns():
    state = small_state([(0.0, 0.0), (50.0, 0.0)],
                        [(1, 0, 21, 0, 300.0), (51, 0, 71, 0, 300.0)])
    master = RestrictedMaster(state)
    graph = build_shareability_graph(state)
    sol = cg_assign(state)   # terminates naturally on this trivial instance
    validate_solution(state, sol)
    assert solution_sets(sol) == {1: (0,), 2: (1,)}


def test_sigma_ordering_gives_priority():
    # two vehicles compete for one request; the one with larger sigma prices first
    state = small_state([(0.0, 0.0), (4.0, 0.0)], [(10, 0, 30, 0, 300.0)])
    graph = build_shareability_graph(state)
    master = RestrictedMaster(state)
    duals = Duals(pi={0: 1e7}, sigma={1: -3.0, 2: -1.0})
    cols = generate_sized_columns(state, 1, duals, graph, master)
    assert len(cols) == 1
    assert cols[0].vehicle_id == 2  # sigma -1 > -3, so vehicle 2 claims it


def test_cg_matches_rtv_on_shareable_pair():
    state = small_state([(0.0, 0.0)],
                        [(5, 0, 25, 0, 300.0), (6, 0, 26, 0, 300.0)])
    sol = cg_assign(state)
    assert solution_sets(sol) == {1: (0, 1)}  # size-2 column generated and chosen
    rtv = rtv_assign(small_state([(0.0, 0.0)],
                                 [(5, 0, 25, 0, 300.0), (6, 0, 26, 0, 300.0)]))
    assert sol.objective == pytest.approx(rtv.objective, abs=1e-6)


def test_time_limit_zero_keeps_singleton_master():
    net_state = small_state([(0.0, 0.0)],
                            [(5, 0, 25, 0, 300.0), (6, 0, 26, 0, 300.0)])
    cfg = replace(net_state.config, cg_time_limit_s=0.0)
    net_state.config = cfg
    sol = cg_assign(net_state)
    validate_solution(net_state, sol)
    # only singleton columns exist, so the two requests need the one vehicle twice
    assert len(sol.unserved) == 1


def test_final_lp_bound_matches_full_catalog():
    rng = random.Random(2)
    for _ in range(6):
        net, vehicles, requests = random_epoch_instance(rng, 2, 4, capacity=3)
        state = make_state(net, vehicles, requests, now=60.0)
        graph = build_shareability_graph(state)
        catalog = enumerate_trips(state, graph)
        if not catalog.trips:
            continue
        # LP bound of the full trip program
        from ridepool.rtv import solve_trip_ilp  # noqa: F401 (structure reuse below)
        master_full = RestrictedMaster(state)
        for t in catalog.trips:
            master_full.add(t)
        full_lp, _ = master_full.solve_lp()

        state2 = make_state(net, vehicles, requests, now=60.0)
        cfg = replace(state2.config, cg_subset_cap=10_000)
        state2.config = cfg
        cg_assign(state2)  # runs to natural termination
        # rebuild the master the same way cg_assign did to read its LP value
        master = RestrictedMaster(state2)
        graph2 = build_shareability_graph(state2)
        for vid in state2.vehicle_ids():
            veh = state2.vehicles[vid]
            base = state2.base_cost(veh)
            for rid in graph2.rv_neighbors(vid):
                route, cost = state2.plan(veh, [rid])
                master.add(Trip(vid, frozenset((rid,)), route, cost - base))
        while True:
            _, duals = master.solve_lp()
            from ridepool.cg import generate_columns
            cols = generate_columns(state2, duals, graph2, master)
            if not cols:
                break
            for t in cols:
                master.add(t)
        final_lp, _ = master.solve_lp()
        assert final_lp == pytest.approx(full_lp, abs=1e-5)


@pytest.mark.parametrize("seed", range(8))
def test_cg_never_beats_rtv(seed):
    rng = random.Random(200 + seed)
    net, vehicles, requests = random_epoch_instance(rng, 3, 5, capacity=3)
    cg_sol = cg_assign(make_state(net, vehicles, requests, now=60.0))
    rtv_sol = rtv_assign(make_state(net, vehicles, requests, now=60.0))
    validate_solution(make_state(net, vehicles, requests, now=60.0), cg_sol)
    assert rtv_sol.objective <= cg_sol.objective + 1e-9


def test_empty_epoch_keeps_status_quo():
    # no requests and no incumbent: the column pool stays empty, so there is no
    # integer program to solve
    state = small_state([(0.0, 0.0)], [])
    assert RestrictedMaster(state).solve_ilp() == []
    sol = cg_assign(state)
    validate_solution(state, sol)
    assert sol.assigned == {} and sol.unserved == set()
