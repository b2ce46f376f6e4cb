"""Benchmark of ekrmatch: closed-loop workloads, one client, one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition runs the whole workload in a
fresh interpreter (`perfbench/rep.py`), so caches start cold as they do for
a command-line user.  Repetitions are started until S seconds have passed,
with at least two per run.

Every time is divided by the host's slowdown measured in the same process
at the same time (hostspeed.py), so it reads as seconds at a fixed host
speed rather than at whatever speed the shared host runs in that phase.
--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb as
the median over the run's repetitions, and setup_s as the median over every
fresh interpreter of the run.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus
trace.overhead_s.  Every answer passes the correctness gate
in rep.py or its operation counts as failed.  Metric names and units come
from BENCHMARK.json.  The last line of standard output is the result object;
the lines before it are a readable table, including fail_ratio.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REP = os.path.join(BENCH_DIR, "rep.py")
WORKLOADS = ("sweep", "dense", "deep-clique", "all-maxima", "parallel")
MIN_REPS = 2
SETUP_SAMPLES = 4  # set-up-only interpreters before each repetition, spread over the run
HARD_LIMIT_S = 160.0  # a run must end within 180 s


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(args, timeout: float):
    """Run rep.py in a fresh interpreter; return (its result object or None, set-up seconds)."""
    start = time.monotonic()
    # a session of its own, so that a timeout also stops the repetition's pool workers
    with subprocess.Popen([sys.executable, REP] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"repetition {args} timed out after {timeout:.0f} s", file=sys.stderr)
            return None, None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition {args} exited with {proc.returncode}", file=sys.stderr)
        return None, None
    result = json.loads(lines[-1])
    # set-up at the host speed probed right after it, in the same process
    return result, (result["ready"] - start) / result["setup_factor"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ekrmatch", "__init__.py")):
        fail(f"no ekrmatch source under {ROOT}/src; run from a checkout of the repository")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference_commit = json.load(fh)["commit"]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"loadavg={os.getloadavg()[0]:.2f} reference_commit={reference_commit}")

    run_start = time.monotonic()
    warm, _ = spawn(["--setup-only"], timeout=60)  # compiles bytecode once, as an install would
    if warm is None:
        fail("ekrmatch does not import")
    setups = []

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain, traced = [], []
    attempted = failed = 0
    problems, digests = [], {}
    traced_nodes = None
    expected_ops = None
    while True:
        elapsed = time.monotonic() - run_start
        done = len(plain) + len(traced)
        if done >= MIN_REPS and elapsed >= args.seconds:
            break
        if done and elapsed + (elapsed / done) > HARD_LIMIT_S:
            break
        for _ in range(SETUP_SAMPLES):
            result, setup = spawn(["--setup-only"], timeout=60)
            if result is None:
                fail("ekrmatch does not import")
            setups.append(setup)
        use_trace = bool(args.trace) and len(traced) < len(plain)
        result, setup = spawn(base + (["--trace"] if use_trace else []),
                              timeout=max(5.0, HARD_LIMIT_S - elapsed))
        if result is None:
            attempted += expected_ops or 1
            failed += expected_ops or 1
            problems.append("a repetition did not complete")
            break
        setups.append(setup)
        (traced if use_trace else plain).append(result)
        expected_ops = len(result["ops"])
        for op in result["ops"]:
            attempted += 1
            bad = list(op["problems"])
            # answers, witness and node counts must repeat exactly, traced or not
            if digests.setdefault(op["op"], op["digest"]) != op["digest"]:
                bad.append("answer differs from an earlier repetition")
            if bad:
                failed += 1
                problems.extend(f"{op['op']}: {p}" for p in bad)
        if use_trace:
            problems.extend(result["accounting"])
            nodes = result["layers"]["search.max_clique.nodes"]
            if traced_nodes is not None and traced_nodes != nodes:
                problems.append("traced node counts differ between repetitions")
            traced_nodes = nodes
            cell_nodes = [op["nodes"] for op in result["ops"] if op["nodes"] is not None]
            if cell_nodes and sum(cell_nodes) != nodes:
                problems.append(f"traced nodes {nodes} != untraced answers' {sum(cell_nodes)}")

    def at_ref_speed(rep_result, seconds):
        return seconds / rep_result["wall_factor"]

    values = {}
    if plain:
        values["wall_s"] = statistics.median(at_ref_speed(r, r["wall_s"]) for r in plain)
        values["cpu_s"] = statistics.median(r["cpu_s"] / r["cpu_factor"] for r in plain)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    values["setup_s"] = statistics.median(setups)
    if traced:
        for name in traced[0]["layers"]:
            series = [r["layers"][name] for r in traced]
            if name.endswith(("_s", ".s")):
                values[name] = statistics.median(at_ref_speed(r, v) for r, v in zip(traced, series))
            else:
                values[name] = series[0]
                if any(v != series[0] for v in series):
                    problems.append(f"count {name} differs between traced repetitions: {series}")
        values["trace.overhead_s"] = (statistics.median(at_ref_speed(r, r["wall_s"]) for r in traced)
                                      - statistics.median(at_ref_speed(r, r["wall_s"]) for r in plain))

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        if metric["name"] not in values:
            problems.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    print(f"# repetitions: {len(plain)} untraced, {len(traced)} traced; "
          f"setup samples: {len(setups)}; elapsed {time.monotonic() - run_start:.1f} s")
    reps = plain + traced
    if reps:
        print("# host slowdown of each repetition, wall/cpu: "
              + " ".join(f"{r['wall_factor']:.3f}/{r['cpu_factor']:.3f}" for r in reps)
              + "; raw wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':52s} {failed / max(attempted, 1):>14.6g} ({failed}/{attempted} operations)")
    for p in problems:
        print(f"# FAIL {p}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
