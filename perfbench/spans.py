"""In-memory span tracing of ekrmatch from outside the engine.

Each traced layer function is replaced, at every module attribute that names
it, by a wrapper that records a span: name, start, end, parent span, wall time
and process CPU time.  Callers inside the engine look these names up at call
time (module globals, or `from .x import y` inside a function body), so the
wrappers see every call without any change to the engine source.

Spans stay in memory; `Tracer.dump` writes them out once the repetition ends.
Calls made in forked worker processes are not recorded (their spans would be
lost with the worker), so a pool's time shows as waiting in its caller.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

MODULES = ("matchings", "predicates", "constructions", "search", "harness", "storage", "cli")


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # [name, parent, start, end, cpu]
        self.stack = []
        self.counts = defaultdict(int)
        self.universe_keys = set()
        self.parallel_solves = []  # (graph, node_budget, seed, nodes) of max_clique calls with workers > 1

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; name may be a callable of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            sid = len(self.spans)
            record = [label, self.stack[-1] if self.stack else None, 0.0, 0.0, 0.0]
            self.spans.append(record)
            self.stack.append(sid)
            cpu0 = time.process_time()
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                record[4] = time.process_time() - cpu0
                self.stack.pop()
            self.counts[label + ".calls"] += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # ---------------------------------------------------------------- summary

    def self_times(self):
        """Per span: wall minus the wall of its direct child spans."""
        out = [s[3] - s[2] for s in self.spans]
        for name, parent, start, end, cpu in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def check_accounting(self, tol: float = 1e-6) -> list:
        """Self times plus child spans must add up to each span's wall time.

        Checked from the raw intervals: every child lies inside its parent,
        siblings do not overlap, no self time is negative, and the self times
        of a tree sum to its root's wall time.
        """
        problems = []
        selfs = self.self_times()
        children = defaultdict(list)
        for sid, (name, parent, start, end, cpu) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {sid} {name} ends before it starts")
            if parent is not None:
                children[parent].append(sid)
                p = self.spans[parent]
                if start < p[2] - tol or end > p[3] + tol:
                    problems.append(f"span {sid} {name} leaves its parent {p[0]}")
        for parent, kids in children.items():
            kids.sort(key=lambda s: self.spans[s][2])
            for a, b in zip(kids, kids[1:]):
                if self.spans[b][2] < self.spans[a][3] - tol:
                    problems.append(f"spans {a} and {b} overlap under {parent}")
        for sid, value in enumerate(selfs):
            if value < -tol:
                problems.append(f"span {sid} {self.spans[sid][0]} has negative self time {value}")
        tree_self = defaultdict(float)
        for sid in range(len(self.spans)):
            root = sid
            while self.spans[root][1] is not None:
                root = self.spans[root][1]
            tree_self[root] += selfs[sid]
        for root, total in tree_self.items():
            wall = self.spans[root][3] - self.spans[root][2]
            if abs(total - wall) > tol * max(1.0, len(self.spans)):
                problems.append(f"tree of span {root} self times sum to {total}, wall is {wall}")
        return problems

    def by_name(self) -> dict:
        """name -> {wall_s, self_s, cpu_s, wait_s}, summed over calls."""
        selfs = self.self_times()
        out = {}
        for sid, (name, parent, start, end, cpu) in enumerate(self.spans):
            agg = out.setdefault(name, {"wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "wait_s": 0.0})
            agg["wall_s"] += end - start
            agg["self_s"] += selfs[sid]
            agg["cpu_s"] += cpu
            agg["wait_s"] += max(0.0, (end - start) - cpu)
        return out

    def dump(self, path: str):
        keys = ("name", "parent", "start", "end", "cpu")
        doc = {"pid": self.pid, "spans": [dict(zip(keys, s)) for s in self.spans],
               "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# counters taken at the layer boundaries


def _after_universe(tracer, args, kwargs, universe):
    tracer.counts["matchings.universe_items"] += len(universe)
    tracer.universe_keys.add(universe.key)


def _after_graph(tracer, args, kwargs, graph):
    n = graph.n
    tracer.counts["search.graph_vertices"] += n
    tracer.counts["search.graph_edges"] += (sum(row.bit_count() for row in graph.rows) - n) // 2


def _after_max_clique(tracer, args, kwargs, result):
    nodes = result[2]
    tracer.counts["search.max_clique.nodes"] += nodes
    params = dict(zip(("graph", "node_budget", "workers", "seed"), args))
    params.update(kwargs)
    if params.get("workers", 1) > 1:
        tracer.parallel_solves.append((params["graph"], params.get("node_budget"), params.get("seed"), nodes))
    else:
        tracer.counts["search.max_clique.serial_nodes"] += nodes


def _after_all_max(tracer, args, kwargs, result):
    tracer.counts["search.all_max_cliques.maxima"] += len(result)


def _after_write(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["storage.write.bytes"] += os.path.getsize(path)


def install(ekrmatch_pkg) -> Tracer:
    """Wrap the layer functions of an imported ekrmatch package in spans."""
    import importlib

    mods = {m: importlib.import_module(f"{ekrmatch_pkg.__name__}.{m}") for m in MODULES}
    tracer = Tracer()
    plan = [
        (mods["matchings"], "enumerate_union_universe", "matchings.enumerate_union_universe", _after_universe),
        (mods["predicates"], "classify_star", "predicates.classify_star", None),
        (mods["search"], "build_compat_graph", "search.build_compat_graph", _after_graph),
        (mods["search"], "max_clique", "search.max_clique", _after_max_clique),
        (mods["search"], "all_max_cliques", "search.all_max_cliques", _after_all_max),
        (mods["search"], "extremal", "search.extremal", None),
        (mods["harness"], "run_builtin", lambda name, **kw: f"harness.{name}", None),
        (mods["storage"], "write_report_csv", "storage.write", _after_write),
        (mods["storage"], "write_report_json", "storage.write", _after_write),
        (mods["cli"], "main", "cli.main", None),
    ]
    cons = mods["constructions"]
    for attr, value in sorted(vars(cons).items()):
        if callable(value) and not attr.startswith("_") and getattr(value, "__module__", "") == cons.__name__:
            plan.append((cons, attr, "constructions", None))

    namespaces = [ekrmatch_pkg] + list(mods.values())
    for mod, attr, name, after in plan:
        original = getattr(mod, attr)
        wrapped = tracer.wrap(name, original, after)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
    return tracer
