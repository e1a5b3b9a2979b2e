"""Per-epoch assignment state shared by every algorithm, and the solution
container with a uniform objective so algorithms compare on one scale."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import SimConfig
from .core import Request, Route, VehicleState, route_cost
from .ctsp import CtspOracle, feasible
from .network import Network

INF = math.inf


class AlgorithmInvariantError(AssertionError):
    """An algorithm-internal invariant (monotonicity, validity) was violated."""


@dataclass(frozen=True)
class AssignedTrip:
    vehicle_id: int
    request_ids: tuple[int, ...]   # full new-assignment set for this vehicle
    route: Route


@dataclass
class AssignmentSolution:
    assigned: dict[int, AssignedTrip]
    unserved: set[int]
    objective: float = math.nan


@dataclass
class EpochState:
    net: Network
    vehicles: dict[int, VehicleState]
    requests: dict[int, Request]          # this epoch's assignable pool
    now: float
    config: SimConfig
    oracle: CtspOracle
    carried: set[int] = field(default_factory=set)       # carried-over ids (priority)
    committed_owner: dict[int, int] = field(default_factory=dict)  # rid -> vid for re-exposed requests
    reassign: bool = False                 # plan vehicles without their unpicked commitments

    def vehicle_ids(self) -> list[int]:
        return sorted(self.vehicles)

    def request_ids(self) -> list[int]:
        return sorted(self.requests)

    def drops(self, vehicle: VehicleState) -> frozenset[int]:
        if self.reassign:
            return frozenset(vehicle.waiting)
        return frozenset()

    def base_cost(self, vehicle: VehicleState) -> float:
        return route_cost(self.net, vehicle, vehicle.remaining_stops)

    def plan(self, vehicle: VehicleState, request_ids):
        """(Route | None, absolute cost) for serving exactly these new ids."""
        extra = tuple(self.requests[r] for r in sorted(request_ids))
        return self.oracle.best_route(vehicle, extra, self.drops(vehicle), self.now)


def evaluate_objective(state: EpochState, solution: AssignmentSolution) -> float:
    """Route-cost delta against each vehicle's committed route, plus the
    unserved penalty. Identical for all algorithms, so epoch objectives of
    different methods are directly comparable."""
    total = 0.0
    for vid, trip in sorted(solution.assigned.items()):
        veh = state.vehicles[vid]
        total += route_cost(state.net, veh, trip.route.stops) - state.base_cost(veh)
    return total + state.config.penalty_m * len(solution.unserved)


def finalize(state: EpochState, assigned: dict[int, AssignedTrip]) -> AssignmentSolution:
    served = set()
    for trip in assigned.values():
        served.update(trip.request_ids)
    unserved = set(state.requests) - served
    sol = AssignmentSolution(assigned, unserved)
    sol.objective = evaluate_objective(state, sol)
    return sol


def validate_solution(state: EpochState, solution: AssignmentSolution):
    """Re-validate the output against the container invariants and QoS."""
    seen: set[int] = set()
    for vid, trip in solution.assigned.items():
        if vid != trip.vehicle_id:
            raise AlgorithmInvariantError("trip filed under the wrong vehicle")
        for rid in trip.request_ids:
            if rid in seen:
                raise AlgorithmInvariantError(f"request {rid} assigned twice")
            seen.add(rid)
        veh = state.vehicles[vid]
        if not feasible(state.net, veh, trip.route.stops, state.now,
                        requests=state.requests):
            raise AlgorithmInvariantError(f"vehicle {vid} route violates QoS")
    overlap = seen & solution.unserved
    if overlap:
        raise AlgorithmInvariantError(f"requests both served and unserved: {overlap}")
    for rid in set(state.requests) - seen - solution.unserved:
        raise AlgorithmInvariantError(f"request {rid} unaccounted for")
    return True
