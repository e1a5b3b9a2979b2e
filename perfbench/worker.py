"""Simulation runs in a fresh process: for each scenario seed, build the
inputs, run `ridepool.sim.run_simulation`, check the outputs and print one
JSON line as soon as the run ends.

Usage: python3 perfbench/worker.py '{"workload": ..., "seeds": [...], "mode": ...}'

mode "plain" runs each seed untraced, on its own freshly built network, so
every run starts with a cold shortest-path memo; a run that raises prints
its error instead of a result. mode "traced" runs the seeds under the full
tracer and prints one line for all of them; then it runs the first seed
again on freshly built inputs with only the Dijkstra searches counted, so
the caller can check that consecutive runs start from an equally cold memo.
`peak_rss_mb` is the peak of this process so far.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EPS = 1e-6


def events_sha256(events) -> str:
    """Hash of the event log in the row format of the CLI's events.csv."""
    h = hashlib.sha256(b"time,event,request_id,vehicle_id,node\n")
    for ev in events:
        h.update(f"{ev.time:.6f},{ev.kind},{ev.request_id},{ev.vehicle_id},{ev.node}\n"
                 .encode())
    return h.hexdigest()


def check_events(net, requests, result) -> list[str]:
    """Independent checks of the run's outputs against the request set."""
    errors = []
    m = result.metrics
    by_id = {r.id: r for r in requests}
    pickup, dropoff, expired = {}, {}, set()
    for ev in result.events:
        if ev.kind == "pickup":
            if ev.request_id in pickup:
                errors.append(f"request {ev.request_id} picked up twice")
            pickup[ev.request_id] = ev
        elif ev.kind == "dropoff":
            if ev.request_id in dropoff:
                errors.append(f"request {ev.request_id} dropped off twice")
            dropoff[ev.request_id] = ev
        elif ev.kind == "expiry":
            expired.add(ev.request_id)
    for rid, d in dropoff.items():
        r, p = by_id[rid], pickup.get(rid)
        if p is None:
            errors.append(f"request {rid} dropped off without a pickup")
            continue
        if p.vehicle_id != d.vehicle_id or p.node != r.origin or d.node != r.destination:
            errors.append(f"request {rid} served at the wrong vehicle or node")
        if not r.emergence_time - EPS <= p.time <= r.latest_boarding + EPS:
            errors.append(f"request {rid} boarded at {p.time} outside its window")
        deadline = r.dropoff_deadline(p.time, net.shortest_time(r.origin, r.destination))
        if not p.time <= d.time <= deadline + EPS:
            errors.append(f"request {rid} dropped off at {d.time} after {deadline}")
    if expired & set(dropoff):
        errors.append(f"requests both served and expired: {sorted(expired & set(dropoff))}")
    if len(dropoff) != m.served or len(expired) != m.expired:
        errors.append(f"metrics count {m.served} served / {m.expired} expired, event log "
                      f"{len(dropoff)} / {len(expired)}")
    if m.requests_total != len(requests):
        errors.append(f"requests_total {m.requests_total} != {len(requests)} offered")
    return errors


def setup(workload, seed, reps):
    """Build the inputs `reps` times; returns the last build and each time."""
    from workloads import build_inputs
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        inputs = build_inputs(workload, seed)
        times.append(time.perf_counter() - t0)
    return inputs, times


def simulate(config, net, requests, vehicles):
    from ridepool.sim import run_simulation
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = run_simulation(config, net, requests, vehicles)
    return result, time.perf_counter() - t0, time.process_time() - cpu0


def summarize(net, requests, result, sim_s, cpu_s) -> dict:
    m = result.metrics
    return {
        "sim_s": sim_s,
        "cpu_s": cpu_s,
        "epoch_s": list(m.per_epoch_runtime_s),
        "requests_total": m.requests_total,
        "served": m.served,
        "expired": m.expired,
        "service_rate": m.service_rate,
        "vmt_km": m.vmt_m / 1000.0,
        "events_sha256": events_sha256(result.events),
        "errors": check_events(net, requests, result),
    }


def traced_run(workload, seeds, spans_path) -> dict:
    """Run every seed under one tracer, then the first seed again with only
    its Dijkstra searches counted."""
    import tracing
    tracer = tracing.Tracer()
    sites = tracing.install(tracer)
    done, first_dijkstra_runs = [], None
    try:
        for seed in seeds:
            config, net, requests, vehicles = setup(workload, seed, 1)[0]
            done.append((seed, net, requests) + simulate(config, net, requests, vehicles))
            if first_dijkstra_runs is None:
                first_dijkstra_runs = tracer.counts["network.dijkstra.calls"]
    finally:
        tracer.restore()
    # outputs are checked untraced: the checks query the network too
    runs = [dict(summarize(net, requests, result, sim_s, cpu_s), seed=seed)
            for seed, net, requests, result, sim_s, cpu_s in done]
    del done
    tracer.write_spans(spans_path)
    out = {
        "runs": runs,
        "sim_s": sum(r["sim_s"] for r in runs),
        "epoch_s": [e for r in runs for e in r["epoch_s"]],
        "trace": {
            "sites": sites,
            "counts": dict(tracer.counts),
            "total_s": dict(tracer.total_s),
            "self_s": dict(tracer.self_s),
            "layer_self_s": tracer.layer_self_s(),
            "root_s": tracer.root_s,
            "spans": len(tracer.spans),
        },
        "first_dijkstra_runs": first_dijkstra_runs,
    }
    del tracer

    # the first seed again in the same process, Dijkstra searches counted only
    config, net, requests, vehicles = setup(workload, seeds[0], 1)[0]
    counter = tracing.Tracer()
    from ridepool.network import Network
    counter.patch_method(Network, "_run_dijkstra",
                         lambda fn: counter.counter("network.dijkstra_runs", fn))
    try:
        result, _, _ = simulate(config, net, requests, vehicles)
    finally:
        counter.restore()
    out["repeat_dijkstra_runs"] = counter.counts["network.dijkstra_runs"]
    out["repeat_events_sha256"] = events_sha256(result.events)
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, import_ridepool
    import_ridepool()
    workload = WORKLOADS[spec["workload"]]
    if spec["mode"] == "traced":
        out = traced_run(workload, spec["seeds"], spec["spans_path"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out))
        return 0
    for seed in spec["seeds"]:
        try:
            (config, net, requests, vehicles), setup_s = setup(workload, seed,
                                                               spec["setup_reps"])
            result, sim_s, cpu_s = simulate(config, net, requests, vehicles)
        except Exception as e:  # noqa: BLE001 - reported as a failed run
            print(json.dumps({"seed": seed, "error": f"{type(e).__name__}: {e}"}),
                  flush=True)
            continue
        out = summarize(net, requests, result, sim_s, cpu_s)
        del result, net
        out["seed"] = seed
        out["setup_s"] = statistics.median(setup_s)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
