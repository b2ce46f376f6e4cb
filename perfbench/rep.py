"""One benchmark repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N [--trace] [--setup-only]

Run from the repository root (`perfbench/run.py` does this).  The last line
of standard output is one JSON object: the monotonic time at which `import
ekrmatch` completed (set-up ends there) and the host's wall slowdown right
after it, the repetition's wall and CPU time from the first call into
ekrmatch to the returned answer with the host's wall and CPU slowdowns over
that interval (see hostspeed.py), its peak resident set, and per operation the problems the
correctness gate found.  With --trace the layer functions are wrapped in
spans first, and the object also carries this repetition's per-layer
figures.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import ekrmatch  # noqa: E402  (set-up is the time to get here)

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from typing import NamedTuple  # noqa: E402

from ekrmatch import cli, counts, predicates, search  # noqa: E402

import hostspeed  # noqa: E402  (perfbench/ is on sys.path as the script's directory)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"  # relative to ROOT: report configs embed the --out path


class Cell(NamedTuple):
    parts: tuple
    r: int
    pred: str
    expect_max: int  # closed-form star size, from counts.py
    all_maxima: bool = False
    workers: int = 1

    @property
    def key(self) -> str:
        # the worker count and the all-maxima flag are not part of the answer's identity
        return f"{','.join(map(str, self.parts))}|r={self.r}|{self.pred}"

    @property
    def label(self) -> str:
        extra = ("|all-maxima" if self.all_maxima else "") + (f"|workers={self.workers}" if self.workers > 1 else "")
        return self.key + extra


CELLS = {
    "dense": (
        Cell((4, 4, 4), 3, "weakly-intersecting:1", 108),
        Cell((6, 6), 3, "intersecting:1", 200),
        Cell((4, 4, 4), 4, "weakly-set-intersecting:2", 16),
    ),
    "deep-clique": (Cell((10,), 4, "intersecting:1", 84),),
    "all-maxima": (
        Cell((6, 6), 3, "intersecting:1", 200, all_maxima=True),
        Cell((5, 5), 4, "intersecting:2", 18, all_maxima=True),
    ),
    "parallel": (Cell((4, 4, 4), 3, "weakly-intersecting:1", 108, workers=2),),
}
WORKLOADS = ("sweep",) + tuple(CELLS)


def load_reference() -> dict:
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        return json.load(fh)


def sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def usage_seconds() -> float:
    """User plus system CPU of this process and of its reaped children (pool workers)."""
    return sum(ru.ru_utime + ru.ru_stime
               for ru in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)))


# ---------------------------------------------------------------------------
# workloads: each returns one answer per operation; nothing here is checked


def run_cells(cells) -> list:
    answers = []
    for cell in cells:
        try:
            rep = search.extremal(
                cell.parts, (cell.r,), predicates.Predicate.parse(cell.pred),
                all_maxima=cell.all_maxima, workers=cell.workers,
            )
        except Exception as exc:  # a cap, budget or overflow error, or an engine bug: a failed operation
            answers.append({"op": cell.label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        answers.append({
            "op": cell.label,
            "max_size": rep.max_size,
            "witness": rep.witness_indices,
            "witness_members": rep.witness.members(),
            "nodes": rep.nodes,
            "maxima_count": rep.maxima_count,
            "maxima_kinds": rep.maxima_kinds,
            "centres": None if rep.classifications is None else [c.centres for c in rep.classifications],
        })
    return answers


def run_sweep(campaigns, seed: int) -> list:
    answers = []
    for campaign in campaigns:
        argv = ["verify", "--campaign", f"builtin:{campaign}", "--out", f"{OUT_DIR}/sweep/{campaign}"]
        if campaign == "lemma1":
            argv += ["--seed", str(seed)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # the CLI must return an exit code, never raise
            answers.append({"op": campaign, "error": f"{type(exc).__name__}: {exc}"})
            continue
        answers.append({"op": campaign, "exit": code})
    return answers


def sweep_digests(campaign: str) -> dict:
    """Digests of a campaign's CSV and JSON report, read after the timed region."""
    out = {}
    for ext in ("csv", "json"):
        path = os.path.join(ROOT, OUT_DIR, "sweep", f"{campaign}.{ext}")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            out[ext] = None
            continue
        if campaign == "lemma1":
            # the benchmark seed reaches the report only as the config's seed values
            data = re.sub(rb'"seed": -?\d+', b'"seed": 0', data)
        out[ext] = sha256(data)
    return out


# ---------------------------------------------------------------------------
# correctness gate: every answer against closed forms, independent oracles
# and the reference recorded at the seed commit


def star_size(cell: Cell) -> int:
    pred = predicates.Predicate.parse(cell.pred)
    size_fn = counts.t_set_star_size if pred.is_set else counts.t_star_size
    return size_fn(cell.parts, cell.r, pred.t)


def check_cell(cell: Cell, answer: dict, reference: dict) -> list:
    if "error" in answer:
        return [answer["error"]]
    ref = reference["cells"][cell.key]
    problems = []
    size = answer["max_size"]
    if size != cell.expect_max or size != star_size(cell) or size != ref["max_size"]:
        problems.append(f"max_size {size}, expected {cell.expect_max} (closed form {star_size(cell)})")
    if len(answer["witness"]) != size or len(set(answer["witness"])) != size:
        problems.append(f"witness has {len(answer['witness'])} members, max_size is {size}")
    if sha256(answer["witness"]) != ref["witness_sha256"]:
        problems.append("witness indices differ from the reference")
    members = answer["witness_members"]
    check = predicates.pair_checker(predicates.Predicate.parse(cell.pred), len(cell.parts))
    if any(not check(members[a], members[b]) for a in range(len(members)) for b in range(a)):
        problems.append("witness is not a family under the pairwise predicate")
    if cell.all_maxima:
        t = predicates.Predicate.parse(cell.pred).t
        count = answer["maxima_count"]
        centres = answer["centres"] or []
        # every maximum is a t-star and every t-star is a maximum: one per t-edge centre
        if count != ref["maxima_count"] or count != counts.count_matchings(cell.parts, t):
            problems.append(f"maxima_count {count}, expected {ref['maxima_count']}")
        if answer["maxima_kinds"] != {"t-star": count}:
            problems.append(f"maxima kinds {answer['maxima_kinds']}, expected all t-star")
        flat = [c for cs in centres for c in cs]
        if len(centres) != count or len(flat) != count or len(set(flat)) != count:
            problems.append("maxima do not have one distinct t-star centre each")
        if any(len(c) != t for c in flat):
            problems.append(f"a maximum's centre does not have {t} edges")
        if sha256(centres) != ref["centres_sha256"]:
            problems.append("maxima centres differ from the reference")
    elif answer["maxima_count"] is not None:
        problems.append("maxima were enumerated but not requested")
    return problems


def check_sweep(answer: dict, reference: dict) -> list:
    if "error" in answer:
        return [answer["error"]]
    ref = reference["sweep"][answer["op"]]
    problems = []
    if answer["exit"] != ref["exit"] or answer["exit"] != cli.EXIT_OK:
        problems.append(f"exit code {answer['exit']}, expected {ref['exit']}")
    for ext in ("csv", "json"):
        if answer["digests"][ext] != ref[ext]:
            problems.append(f"{ext} report differs from the reference")
    return problems


def answer_digest(answer: dict) -> str:
    """What must repeat exactly between repetitions, traced or not."""
    return sha256({k: v for k, v in answer.items() if k != "witness_members"})


# ---------------------------------------------------------------------------
# per-layer figures of one traced repetition


def layer_metrics(tracer, campaigns, original_max_clique) -> dict:
    spans = tracer.by_name()
    cnt = tracer.counts

    def span(name, field):
        return spans.get(name, {}).get(field, 0.0)

    nodes = cnt["search.max_clique.nodes"]
    serial = cnt["search.max_clique.serial_nodes"]
    for graph, budget, seed, _ in tracer.parallel_solves:
        serial += original_max_clique(graph, budget, 1, seed)[2]
    universe_calls = cnt["matchings.enumerate_union_universe.calls"]
    out = {
        "search.build_compat_graph.self_s": span("search.build_compat_graph", "self_s"),
        "search.build_compat_graph.wait_s": span("search.build_compat_graph", "wait_s"),
        "search.graph_vertices": cnt["search.graph_vertices"],
        "search.graph_edges": cnt["search.graph_edges"],
        "search.max_clique.self_s": span("search.max_clique", "self_s"),
        "search.max_clique.wait_s": span("search.max_clique", "wait_s"),
        "search.max_clique.nodes": nodes,
        "search.max_clique.node_ratio": serial / nodes if nodes else 0.0,
        "search.all_max_cliques.self_s": span("search.all_max_cliques", "self_s"),
        "search.all_max_cliques.maxima": cnt["search.all_max_cliques.maxima"],
        "predicates.classify_star.self_s": span("predicates.classify_star", "self_s"),
        "predicates.classify_star.calls": cnt["predicates.classify_star.calls"],
        "matchings.enumerate_union_universe.self_s": span("matchings.enumerate_union_universe", "self_s"),
        "matchings.enumerate_union_universe.calls": universe_calls,
        "matchings.enumerate_union_universe.distinct_ratio":
            len(tracer.universe_keys) / universe_calls if universe_calls else 0.0,
        "matchings.universe_items": cnt["matchings.universe_items"],
        "constructions.self_s": span("constructions", "self_s"),
        "constructions.calls": cnt["constructions.calls"],
        "storage.write.self_s": span("storage.write", "self_s"),
        "storage.write.bytes": cnt["storage.write.bytes"],
        "search.extremal.self_s": span("search.extremal", "self_s"),
        "cli.main.self_s": span("cli.main", "self_s"),
    }
    for campaign in campaigns:
        out[f"harness.{campaign}.s"] = span(f"harness.{campaign}", "wall_s")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    args = parser.parse_args(argv)
    setup_factor, _ = hostspeed.slowdowns(hostspeed.bracket())
    if args.setup_only:
        return {"ready": READY, "setup_factor": setup_factor}
    if args.workload is None:
        parser.error("--workload is required")
    if os.path.dirname(os.path.abspath(ekrmatch.__file__)) != os.path.join(SRC, "ekrmatch"):
        raise SystemExit(f"imported ekrmatch from {ekrmatch.__file__}, not from {SRC}")

    reference = load_reference()
    campaigns = reference["campaigns"]
    out_dir = os.path.join(ROOT, OUT_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    if args.workload == "sweep":
        for campaign in campaigns:  # a stale report must not pass for a fresh one
            for ext in ("csv", "json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(out_dir, f"{campaign}.{ext}"))

    tracer = None
    original_max_clique = search.max_clique
    if args.trace:
        import spans  # perfbench/ is on sys.path as the script's directory

        tracer = spans.install(ekrmatch)

    probe_sink = os.path.join(out_dir, "probes")
    hostspeed.sample_workers(search, probe_sink)
    probes = hostspeed.bracket()
    sampler = hostspeed.Sampler()
    sampler.start()
    cpu0 = usage_seconds()
    start = time.perf_counter()
    if args.workload == "sweep":
        answers = run_sweep(campaigns, args.seed)
    else:
        answers = run_cells(CELLS[args.workload])
    wall = time.perf_counter() - start
    cpu = usage_seconds() - cpu0
    probes += sampler.stop() + hostspeed.bracket() + hostspeed.collect(probe_sink)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    ops = []
    for i, answer in enumerate(answers):
        if args.workload == "sweep":
            if "error" not in answer:
                answer["digests"] = sweep_digests(answer["op"])
            problems = check_sweep(answer, reference)
        else:
            problems = check_cell(CELLS[args.workload][i], answer, reference)
        ops.append({"op": answer["op"], "problems": problems, "digest": answer_digest(answer),
                    "nodes": answer.get("nodes")})

    wall_factor, cpu_factor = hostspeed.slowdowns(probes)
    result = {"ready": READY, "setup_factor": setup_factor, "wall_s": wall, "cpu_s": cpu,
              "wall_factor": wall_factor, "cpu_factor": cpu_factor, "probes": len(probes),
              "peak_rss_mb": rss_kb / 1024.0, "ops": ops}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, campaigns, original_max_clique)
        result["accounting"] = tracer.check_accounting()
        tracer.dump(os.path.join(out_dir, f"spans-{os.getpid()}.json"))
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
