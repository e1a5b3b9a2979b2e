"""Outside-in tracer for one simulation run.

The tracer patches the public functions of the ridepool layers from the
outside: `src/` carries no tracing code. Every module attribute and every
registry entry that refers to a wrapped function is replaced, because the
algorithm modules bind the kernels they call with `from ... import` and
`sim.ALGORITHMS` holds plain function references; patching only the
defining module would leave those call sites untraced.

Timed functions record a span (name, start, end, parent). Spans stay in
memory and are written when the run ends; a span's self time is its
duration minus the time its direct child spans cover. The shortest-path
queries are far too frequent for spans (millions per run), so they are only
counted; the Dijkstra search behind a memo miss is a `network.dijkstra`
span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Span-name prefix -> layer that owns its self time. The three algorithm
# families share one "assign" layer, so each layer is busy on every workload.
LAYER_OF_PREFIX = {"la": "assign", "rtv": "assign", "cg": "assign"}


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return LAYER_OF_PREFIX.get(prefix, prefix)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, t0, t1
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)   # inclusive time per span name
        self.self_s: defaultdict = defaultdict(float)    # self time per span name
        self.root_s = 0.0                                # time covered by root spans
        self._stack: list[list] = []                     # [span id, child seconds]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records a span; on_result(args, result)
        may add counts measured at the same boundary."""
        stack, spans, counts = self._stack, self.spans, self.counts
        total_s, self_s = self.total_s, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                else:
                    self.root_s += dur
                spans.append((span_id, parent[0] if parent else 0, name, t0, t1))
                counts[name + ".calls"] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Wrap fn so that each call only bumps a count."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def patch_function(self, module, attr: str, wrapper_of):
        """Replace every reference to module.attr across the ridepool modules
        (module globals and dict registries) with wrapper_of(original)."""
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        hits = 0
        for name, mod in list(sys.modules.items()):
            if not name.startswith("ridepool"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapped)
                    hits += 1
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        if v is original:
                            self._set(val, k, wrapped)
                            hits += 1
        return hits

    def patch_method(self, cls, attr: str, wrapper_of):
        self._set(cls, attr, wrapper_of(cls.__dict__[attr]))

    def restore(self):
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out: defaultdict = defaultdict(float)
        for name, s in self.self_s.items():
            out[layer_of(name)] += s
        return dict(out)

    def write_spans(self, path: str):
        """One CSV row per span; times in microseconds from the first span."""
        t_base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for span_id, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{span_id},{parent},{name},{(t0 - t_base) * 1e6:.1f},"
                         f"{(t1 - t_base) * 1e6:.1f}\n")


def install(tracer: Tracer):
    """Wrap the public functions of every traced layer. Returns the number of
    call sites patched per target, so a self-test can see each one took."""
    from ridepool import cg, core, ctsp, epoch, la, network, optim, rebalance, rtv, sim

    t = tracer
    counts = t.counts
    sites: dict[str, int] = {}

    def add(key, n):
        counts[key] += n

    t.patch_method(network.Network, "_run_dijkstra",
                   lambda fn: t.span("network.dijkstra", fn))
    t.patch_method(network.Network, "shortest_time",
                   lambda fn: t.counter("network.shortest_time_calls", fn))
    t.patch_method(network.Network, "path",
                   lambda fn: t.counter("network.path_calls", fn))

    def best_route(fn):
        def measured(oracle, *args, **kwargs):
            hits = oracle.cache_hits
            out = fn(oracle, *args, **kwargs)
            add("ctsp.cache_hits", oracle.cache_hits - hits)
            return out
        return t.span("ctsp.best_route", measured)

    t.patch_method(ctsp.CtspOracle, "best_route", best_route)
    t.patch_method(core.VehicleState, "advance", lambda fn: t.span("core.advance", fn))
    t.patch_method(core.VehicleState, "commit_route", lambda fn: t.span("core.commit", fn))
    t.patch_method(cg.RestrictedMaster, "solve_lp", lambda fn: t.span("cg.rmp_lp", fn))
    t.patch_method(
        cg.RestrictedMaster, "solve_ilp",
        lambda fn: t.span("cg.rmp_ilp", fn,
                          lambda args, out: add("cg.columns", len(args[0].columns))))

    def lp_cells(args, out):
        p = args[0]
        add("optim.lp_cells", (p.a_ub.shape[0] + p.a_eq.shape[0]) * p.n)

    def bnb_done(args, out):
        add("optim.bnb_nodes", out.nodes)
        add("optim.bnb_not_optimal", 0 if out.optimal else 1)

    functions = [
        (ctsp, "solve_exact_items", "ctsp.exact", None),
        (ctsp, "oof_items", "ctsp.merge", None),
        (ctsp, "lrp_items", "ctsp.merge", None),
        (ctsp, "insertion_items", "ctsp.insertion", None),
        (la, "build_bipartite", "la.bipartite",
         lambda args, out: add("la.bipartite_edges", len(out))),
        (la, "solve_assignment_matching", "la.matching", None),
        (rtv, "build_shareability_graph", "rtv.shareability", None),
        (rtv, "enumerate_trips", "rtv.enumerate",
         lambda args, out: add("rtv.trips", len(out))),
        (rtv, "solve_trip_ilp", "rtv.trip_ilp", None),
        (cg, "generate_columns", "cg.pricing", None),
        (optim, "simplex_solve", "optim.simplex", lp_cells),
        (optim, "bnb_solve", "optim.bnb", bnb_done),
        (optim, "max_weight_bipartite_matching", "optim.matching", None),
        (optim, "max_weight_general_matching", "optim.matching", None),
        (optim, "transportation_solve", "optim.transport", None),
        (rebalance, "rebalance", "rebalance.run",
         lambda args, out: add("rebalance.moves", len(out.moves))),
        (epoch, "validate_solution", "epoch.validate", None),
    ]
    for module, attr, name, hook in functions:
        sites[f"{module.__name__}.{attr}"] = t.patch_function(
            module, attr, lambda fn, name=name, hook=hook: t.span(name, fn, hook))
    # the algorithm registry: one span per epoch's assignment call
    for algo, fn in list(sim.ALGORITHMS.items()):
        family = "cg" if algo == "cg" else "rtv" if "rtv" in algo else "la"
        t.patch_function(sys.modules[fn.__module__], fn.__name__,
                         lambda f, family=family: t.span(family + ".assign", f))
        sites[f"ridepool.sim.ALGORITHMS[{algo}]"] = int(sim.ALGORITHMS[algo] is not fn)
    return sites
