"""Host-speed probes: a fixed piece of work timed while a repetition runs.

On a shared host the same Python code runs up to 2x slower for stretches of
a fraction of a second to a minute, with CPU time growing alike, and at
times the hypervisor also withholds the CPU for a tenth or more of the wall
time (steal).  A raw time then measures the host's phase more than the
program.  A probe is a fixed ~2 ms piece of pure Python in the engine's own
idioms, in two halves that the host's phases slow by different amounts:

- greedy colouring over Python-int bit rows and a pairwise check over
  tuples, as in `search._colour_order` and the graph build;
- object churn as in the predicates' projections: frozensets of small
  tuples, sorted projections, list comprehensions and a dict of results.

The probe runs

- BRACKET_PROBES times right after set-up, and right before and after the
  timed region, and
- inside it, from a SIGPROF handler every PROBE_INTERVAL_S of the process's
  CPU time, in the repetition process and in the engine's pool workers.

Each probe records its wall time, its thread CPU time and the part of its
wall time the thread was neither running nor queued behind another task of
this machine: the time stolen by the hypervisor.  From these `slowdowns`
gives the factors by which the host's phase stretched CPU time and wall
time; a time divided by its factor reads as seconds on an unshared host at
the speed where one probe takes REF_PROBE_S of CPU.  The probes in the timed
region cost about REF_PROBE_S / PROBE_INTERVAL_S of it (~3 %) on every
commit alike.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import statistics
import time

# the probe's typical CPU time on the 2-CPU host used to build the benchmark
REF_PROBE_S = 0.0018
PROBE_INTERVAL_S = 0.06
BRACKET_PROBES = 50

_N = 128


def _graph():
    """A fixed random graph on _N vertices (density ~1/2) as neighbour bit rows."""
    x, rows = 12345, [0] * _N
    for u in range(_N):
        for v in range(u):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x & 0x100:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


_ROWS = _graph()
_FEATURES = [(v % 7, v % 5, (v * 3) % 11) for v in range(_N)]
_TRIPLES = [((i * 7) % 13, (i * 5) % 11, i % 4) for i in range(240)]


def _check(a, b):
    return a[0] != b[0] or a[1] == b[1] or a[2] < b[2]


def _kernel() -> int:
    rows = _ROWS
    colours = 0
    pmask = (1 << _N) - 1
    while pmask:  # greedy colouring, lowest vertex first
        colours += 1
        avail = pmask
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            pmask ^= low
            avail &= ~rows[v] & ~low
    feats = _FEATURES
    edges = 0
    for u in range(0, _N, 4):
        fu = feats[u]
        for v in range(u):
            if _check(fu, feats[v]):
                edges += 1
    return colours + edges


def _churn() -> int:
    seen = {}
    for i in range(228):
        m = _TRIPLES[i : i + 12]
        key = frozenset(m)
        seen[key] = (tuple(sorted(a for a, _, _ in m)), len(key), [c for _, _, c in m if c])
    return len(seen)


def _run_delay() -> float:
    """Seconds this thread has waited, runnable, behind other tasks of this machine."""
    with open("/proc/thread-self/schedstat") as fh:
        return int(fh.read().split()[1]) / 1e9


def probe() -> list:
    """[wall, cpu, stolen] seconds of one run of the fixed work, now."""
    delay0 = _run_delay()
    wall0 = time.perf_counter()
    cpu0 = time.thread_time()
    _kernel()
    _kernel()
    _churn()
    cpu = time.thread_time() - cpu0
    wall = time.perf_counter() - wall0
    queued = _run_delay() - delay0
    return [wall, cpu, max(0.0, wall - cpu - queued)]


def slowdowns(samples) -> tuple:
    """(wall factor, CPU factor) of the host over the samples' span.

    Probes are spread evenly over the time the process computes, and a fixed
    piece of work finishes at the time-averaged speed, so the CPU factor is
    the harmonic mean of the probe CPU times over REF_PROBE_S.  The wall
    factor also stretches by the share of the probes' time that was stolen.
    """
    cpu_factor = statistics.harmonic_mean([s[1] for s in samples]) / REF_PROBE_S
    stolen = sum(s[2] for s in samples)
    kept = sum(s[0] for s in samples) - stolen
    return cpu_factor * (1.0 + stolen / kept), cpu_factor


def bracket() -> list:
    return [probe() for _ in range(BRACKET_PROBES)]


class Sampler:
    """Probes from a SIGPROF handler while the process uses CPU."""

    def __init__(self):
        self.samples = []

    def _on_tick(self, signum, frame):
        self.samples.append(probe())

    def start(self):
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        return self.samples


def sample_workers(search_module, sink_dir: str, names=("_build_row_block", "_solve_root_chunk")):
    """Probe inside the engine's pool workers too.

    The pool functions are replaced at their module attribute, which is what a
    pickled task names, so forked workers run the wrappers.  Each call probes
    while it computes and appends its samples to sink_dir/probes-<pid>.jsonl;
    `collect` reads them back in the parent.
    """
    os.makedirs(sink_dir, exist_ok=True)
    for name in names:
        original = getattr(search_module, name)

        @functools.wraps(original)
        def sampled(*args, _original=original, **kwargs):
            sampler = Sampler()
            sampler.start()
            try:
                return _original(*args, **kwargs)
            finally:
                samples = sampler.stop()
                with open(os.path.join(sink_dir, f"probes-{os.getpid()}.jsonl"), "a") as fh:
                    fh.write(json.dumps(samples) + "\n")

        setattr(search_module, name, sampled)


def collect(sink_dir: str) -> list:
    """Every worker sample written to sink_dir; the files are removed."""
    samples = []
    for entry in sorted(os.listdir(sink_dir)):
        if entry.startswith("probes-") and entry.endswith(".jsonl"):
            path = os.path.join(sink_dir, entry)
            with open(path) as fh:
                for line in fh:
                    samples.extend(json.loads(line))
            os.remove(path)
    return samples
