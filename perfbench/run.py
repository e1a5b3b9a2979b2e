"""The ridepool benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/ridepool`. Simulations run
in worker processes (`worker.py`), a fixed number of scenarios per process,
and each builds its own network, so every run starts with a cold
shortest-path memo.

--trace 0 runs each of the workload's scenarios in as many rounds as S
seconds hold at the workload's stated round time, and reports the
end-to-end metrics. A scenario's times come from its fastest round; run
times are the mean over scenarios, epoch times pool those rounds' epochs,
and the quality metrics pool the scenarios.
--trace 1 runs the scenarios of the first worker once untraced and once
under the outside-in tracer (`tracing.py`), and reports the per-layer
metrics.

Correctness: every run's event log is checked against its requests; the
event-log hash, service rate and VMT must agree across the rounds of an
invocation, between the traced and untraced run, and with every earlier run
of the same scenario on the same source tree (kept in `.perfbench/`). Human-
readable lines go first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "ridepool")
OUT = os.path.join(ROOT, ".perfbench")
TOTAL_CAP_S = 170.0    # every invocation ends within 180 s
SETUP_REPS = 20        # set-up takes milliseconds: report the median of many
sys.path.insert(0, HERE)

from workloads import WORKLOADS, import_ridepool, request_count, scenario_seeds  # noqa: E402


# -- environment ---------------------------------------------------------------


def blas_threads():
    """OpenBLAS thread count as numpy's BLAS reports it, or None."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numpy.ones((2, 2)) @ numpy.ones((2, 2))   # load the BLAS library
    return {
        "workload": workload.name,
        "seed": seed,
        "scenario_seeds": scenario_seeds(workload, seed),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def code_digest(workload) -> str:
    """Digest of the ridepool sources, the benchmark's own code and the
    workload definition: outputs must repeat exactly while all three do."""
    h = hashlib.sha256(repr(workload).encode())
    for top in (SRC_PKG, HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


# -- workers -------------------------------------------------------------------


def run_worker(spec: dict, deadline: float) -> tuple[list[dict], str | None]:
    """Run one worker to completion, or kill it at the deadline. Returns the
    result lines it printed and, if it did not finish cleanly, why."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return [], "no time left for the run"
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             json.dumps(spec)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    error = None
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        error = f"timeout after {timeout:.0f} s (per-run cap)"
    finally:
        if proc.poll() is None:   # timed out, or this process is being stopped
            proc.kill()
            out, err = proc.communicate()
    if error is None and proc.returncode != 0:
        error = f"worker exited {proc.returncode}: {err.strip()[-2000:]}"
    results = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return results, error


class Checker:
    """Collects correctness failures; outputs of one scenario must agree."""

    def __init__(self, workload):
        self.workload = workload
        self.errors: list[str] = []
        self.seen: dict[int, tuple] = {}

    def outputs(self, scenario: int, run: dict, label: str):
        for e in run["errors"]:
            self.errors.append(f"seed {scenario} {label}: {e}")
        key = (run["events_sha256"], run["service_rate"], run["vmt_km"])
        first = self.seen.setdefault(scenario, key)
        if key != first:
            self.errors.append(f"seed {scenario} {label}: outputs differ between runs "
                               f"{first} vs {key}")

    def against_record(self):
        """Compare with earlier invocations of the same code and workload."""
        path = os.path.join(OUT, "outputs.json")
        record = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        digest = code_digest(self.workload)
        for scenario, key in sorted(self.seen.items()):
            name = f"{self.workload.name}/{scenario}/{digest}"
            old = record.setdefault(name, list(key))
            if old != list(key):
                self.errors.append(f"{name}: outputs differ from an earlier run {old}")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


# -- end-to-end run ------------------------------------------------------------


def run_scenarios(spec: dict, seeds: list[int], deadline: float, checker) -> dict:
    """Run seeds in one worker; returns the result of each seed that finished.
    A seed without a result is recorded as a failure."""
    results, error = run_worker(dict(spec, seeds=seeds), deadline)
    done = {}
    for r in results:
        if "error" in r:
            checker.errors.append(f"seed {r['seed']}: {r['error']}")
        else:
            done[r["seed"]] = r
    for s in seeds:
        if s not in done and not any(r["seed"] == s for r in results):
            checker.errors.append(f"seed {s}: {error or 'worker printed no result'}")
    return done


def run_plain(workload, seed, seconds, checker: Checker):
    """Returns the runs per scenario, the rounds and the requests attempted
    and failed; every request of a run that failed counts as failed."""
    deadline = time.monotonic() + TOTAL_CAP_S
    seeds = scenario_seeds(workload, seed)
    offered = {s: request_count(workload, s) for s in seeds}
    runs: dict[int, list[dict]] = {s: [] for s in seeds}
    attempted = failed = 0
    # the round count follows from the stated round time, not a measured one,
    # so a slower program repeats its scenarios as often as a faster one
    rounds = max(1, int(seconds // workload.round_s))
    spec = {"workload": workload.name, "mode": "plain", "setup_reps": SETUP_REPS}
    for r in range(rounds):
        for i in range(0, len(seeds), workload.batch):
            batch = seeds[i:i + workload.batch]
            done = run_scenarios(spec, batch, deadline, checker)
            for s in batch:
                attempted += offered[s]
                if s not in done:
                    failed += offered[s]
                    continue
                checker.outputs(s, done[s], f"round {r}")
                runs[s].append(done[s])
        if checker.errors:
            break
    return runs, rounds, attempted, failed


def end_to_end(runs: dict[int, list[dict]]) -> dict:
    # Host slowdowns of a few seconds hit whole scenarios (one la-grid70
    # scenario took 4.9 s, the next 9.0 s), so each scenario counts with its
    # fastest round: the repeat least disturbed by the rest of the machine.
    best = [min(rs, key=lambda r: r["sim_s"]) for rs in runs.values() if rs]
    every = [r for rs in runs.values() for r in rs]
    total = sum(r["requests_total"] for r in best)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in every), "s"),
        "sim_s": (statistics.fmean(r["sim_s"] for r in best), "s"),
        "cpu_s": (statistics.fmean(r["cpu_s"] for r in best), "s"),
        "epoch_p50_s": (statistics.median(e for r in best for e in r["epoch_s"]), "s"),
        "service_rate": (sum(r["served"] for r in best) / total, "fraction"),
        "vmt_km": (statistics.fmean(r["vmt_km"] for r in best), "km"),
        "accounted_share": (sum(r["served"] + r["expired"] for r in best) / total,
                            "fraction"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in every), "MB"),
    }


# -- traced run ----------------------------------------------------------------

# Layer metrics that must read nonzero on each workload: the layers that do
# most of its work. A zero means the tracer missed a call site.
MUST_BE_BUSY = {
    "lamr-grid15": ("ctsp.best_route_calls", "ctsp.cache_hits", "ctsp.exact_s",
                    "assign.candidates_s", "assign.solve_s", "la.rounds",
                    "la.bipartite_edges", "optim.matching_calls", "optim.bnb_s",
                    "optim.simplex_s", "network.shortest_time_calls"),
    "la-grid70": ("network.dijkstra_runs", "network.dijkstra_s", "core.advance_s",
                  "core.commit_s", "epoch.validate_s", "rebalance.s", "la.rounds"),
    "rtv-grid10": ("rtv.trips", "assign.candidates_s", "assign.solve_s", "ctsp.exact_calls",
                  "ctsp.exact_s", "optim.bnb_calls", "network.shortest_time_calls"),
    "cg-grid10": ("cg.pricing_calls", "cg.columns", "assign.candidates_s", "assign.solve_s",
                  "ctsp.best_route_calls", "optim.simplex_calls", "optim.bnb_calls"),
}

# Span names behind the two algorithm-neutral assignment times: building
# candidates (LA edges, the shareability graph, trip enumeration, CG
# pricing) and solving the epoch program over them.
CANDIDATE_SPANS = ("la.bipartite", "rtv.shareability", "rtv.enumerate", "cg.pricing")
SOLVE_SPANS = ("la.matching", "rtv.trip_ilp", "cg.rmp_lp", "cg.rmp_ilp")


def layer_metrics(traced: dict, plain: list[dict]) -> dict:
    """Per-layer metrics of a traced run; plain holds the untraced runs of
    the same scenarios."""
    t = traced["trace"]
    c, tot, own, layer = t["counts"], t["total_s"], t["self_s"], t["layer_self_s"]
    calls = c.get("ctsp.best_route.calls", 0)
    assign_s = sum(traced["epoch_s"])
    m = {
        "network.dijkstra_runs": (c.get("network.dijkstra.calls", 0), "count"),
        "network.dijkstra_s": (tot.get("network.dijkstra", 0.0), "s"),
        "network.shortest_time_calls": (c.get("network.shortest_time_calls", 0), "count"),
        "network.path_calls": (c.get("network.path_calls", 0), "count"),
        "ctsp.best_route_calls": (calls, "count"),
        "ctsp.cache_hits": (c.get("ctsp.cache_hits", 0), "count"),
        "ctsp.cache_hit_ratio": (c.get("ctsp.cache_hits", 0) / calls if calls else 0.0,
                                 "ratio"),
        "ctsp.best_route_s": (tot.get("ctsp.best_route", 0.0), "s"),
        "ctsp.best_route_self_s": (own.get("ctsp.best_route", 0.0), "s"),
        "ctsp.exact_calls": (c.get("ctsp.exact.calls", 0), "count"),
        "ctsp.exact_s": (tot.get("ctsp.exact", 0.0), "s"),
        "ctsp.merge_calls": (c.get("ctsp.merge.calls", 0), "count"),
        "ctsp.insertion_calls": (c.get("ctsp.insertion.calls", 0), "count"),
        "assign.candidates_s": (sum(tot.get(n, 0.0) for n in CANDIDATE_SPANS), "s"),
        "assign.solve_s": (sum(tot.get(n, 0.0) for n in SOLVE_SPANS), "s"),
        "la.bipartite_edges": (c.get("la.bipartite_edges", 0), "count"),
        "la.rounds": (c.get("la.matching.calls", 0), "count"),
        "rtv.trips": (c.get("rtv.trips", 0), "count"),
        "cg.pricing_calls": (c.get("cg.pricing.calls", 0), "count"),
        "cg.columns": (c.get("cg.columns", 0), "count"),
        "optim.simplex_calls": (c.get("optim.simplex.calls", 0), "count"),
        "optim.simplex_s": (tot.get("optim.simplex", 0.0), "s"),
        "optim.lp_cells": (c.get("optim.lp_cells", 0), "count"),
        "optim.bnb_calls": (c.get("optim.bnb.calls", 0), "count"),
        "optim.bnb_nodes": (c.get("optim.bnb_nodes", 0), "count"),
        "optim.bnb_s": (tot.get("optim.bnb", 0.0), "s"),
        "optim.bnb_not_optimal": (c.get("optim.bnb_not_optimal", 0), "count"),
        "optim.matching_calls": (c.get("optim.matching.calls", 0), "count"),
        "optim.transport_calls": (c.get("optim.transport.calls", 0), "count"),
        "core.advance_s": (tot.get("core.advance", 0.0), "s"),
        "core.commit_s": (tot.get("core.commit", 0.0), "s"),
        "epoch.validate_s": (tot.get("epoch.validate", 0.0), "s"),
        "rebalance.s": (tot.get("rebalance.run", 0.0), "s"),
        "rebalance.moves": (c.get("rebalance.moves", 0), "count"),
        "sim.assign_s": (assign_s, "s"),
        "sim.epoch_max_s": (max(e for r in plain for e in r["epoch_s"]), "s"),
        "sim.loop_s": (traced["sim_s"] - assign_s, "s"),
        "sim.trace_overhead_s": (traced["sim_s"] - sum(r["sim_s"] for r in plain), "s"),
    }
    for name in ("network", "ctsp", "assign", "optim", "core", "epoch", "rebalance"):
        m[f"{name}.self_s"] = (layer.get(name, 0.0), "s")
    m["sim.self_s"] = (traced["sim_s"] - t["root_s"], "s")
    return m


def run_traced(workload, seed, checker: Checker):
    """Runs the first worker's worth of scenarios untraced, then traced;
    returns the layer metrics (None when a run failed), the requests
    attempted and failed, and the trace."""
    deadline = time.monotonic() + TOTAL_CAP_S
    seeds = scenario_seeds(workload, seed)[:workload.batch]
    offered = sum(request_count(workload, s) for s in seeds)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload.name}-{seed}.csv")
    plain = run_scenarios({"workload": workload.name, "mode": "plain", "setup_reps": 1},
                          seeds, deadline, checker)
    if len(plain) < len(seeds):
        return None, offered, sum(request_count(workload, s) for s in seeds
                                  if s not in plain), {}
    for s, run in plain.items():
        checker.outputs(s, run, "untraced")
    results, error = run_worker({"workload": workload.name, "mode": "traced",
                                 "seeds": seeds, "spans_path": spans_path}, deadline)
    if error or not results:
        checker.errors.append(f"traced run: {error or 'worker printed no result'}")
        return None, 2 * offered, offered, {}
    traced = results[-1]
    for run in traced["runs"]:
        checker.outputs(run["seed"], run, "traced")
    if traced["repeat_events_sha256"] != traced["runs"][0]["events_sha256"]:
        checker.errors.append("event log differs between consecutive runs in one process")
    metrics = layer_metrics(traced, list(plain.values()))
    if traced["repeat_dijkstra_runs"] != traced["first_dijkstra_runs"]:
        checker.errors.append(f"self-test: {traced['first_dijkstra_runs']} Dijkstra runs, "
                              f"then {traced['repeat_dijkstra_runs']} in the next run: the "
                              "shortest-path memo is not cold at the start of each run")
    for site, hits in traced["trace"]["sites"].items():
        if hits == 0:
            checker.errors.append(f"self-test: tracer patched no call site of {site}")
    for name in MUST_BE_BUSY[workload.name]:
        if not metrics[name][0] > 0:
            checker.errors.append(f"self-test: {name} reads 0 on {workload.name}; "
                                  "the tracer is not wired to that layer")
    return metrics, 2 * offered, 0, {"trace": traced["trace"]}


# -- main ------------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through run_worker so the running worker is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC_PKG, "sim.py")):
        print(f"error: no ridepool sources at {SRC_PKG}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import_ridepool()
    os.makedirs(OUT, exist_ok=True)
    env = environment(workload, args.seed)
    checker = Checker(workload)
    if args.trace:
        metrics, attempted, failed, detail = run_traced(workload, args.seed, checker)
    else:
        runs, rounds, attempted, failed = run_plain(workload, args.seed, args.seconds, checker)
        metrics = end_to_end(runs) if any(runs.values()) else None
        done = [rs[0] for rs in runs.values() if rs]
        lost = sum(r["requests_total"] - r["served"] - r["expired"] for r in done)
        detail = {"rounds": rounds, "runs": runs, "lost_requests": lost,
                  "lost_share": lost / max(1, sum(r["requests_total"] for r in done))}
    if metrics is None:
        checker.errors.append("no run finished, so there are no metrics")
        metrics = {}
    checker.against_record()
    if metrics and sorted(metrics) != sorted(declared_metrics(bool(args.trace))):
        checker.errors.append("metric names differ from BENCHMARK.json")
    with open(os.path.join(OUT, f"result-{workload.name}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "errors": checker.errors, "detail": detail,
                   "metrics": metrics}, fh, indent=1)

    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:12s} {name:28s} {value:>16.6g} {unit}")
    if not args.trace and metrics:
        print(f"{workload.name:12s} {'lost_share':28s} {detail['lost_share']:>16.6g} "
              f"fraction ({detail['lost_requests']} requests neither served nor expired)")
    for e in checker.errors:
        print("FAILED: " + e)
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
