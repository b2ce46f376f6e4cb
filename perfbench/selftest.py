"""Self-test of the benchmark's correctness gate and span accounting.

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds.  Shows that the gate in
rep.py accepts the engine's real answers and rejects each kind of perturbed
answer (a wrong max_size, a changed witness, wrong maxima, a failed
operation, a changed report byte, a nonzero exit code), that span self
times plus child spans add up to each span's wall time, and that the host-speed
probes fire while the process computes.  Exits nonzero on
the first expectation that does not hold.
"""

import copy
import os
import time

import hostspeed
import rep
import spans

CHECKS = 0


def expect(condition: bool, message: str):
    global CHECKS
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    CHECKS += 1


def perturbed(answer: dict, **changes) -> dict:
    out = copy.deepcopy(answer)
    out.update(changes)
    return out


def incompatible_matching(cell, members):
    """A matching of the cell's universe that breaks the predicate with some member."""
    check = rep.predicates.pair_checker(rep.predicates.Predicate.parse(cell.pred), len(cell.parts))
    universe = rep.ekrmatch.enumerate_universe(cell.parts, cell.r)
    return next(m for m in universe.items if any(not check(m, x) for x in members[:-1]))


def test_cell_gate(reference: dict):
    cells = rep.CELLS["dense"][2:] + rep.CELLS["all-maxima"][1:]  # the two cheapest cells
    for cell, answer in zip(cells, rep.run_cells(cells)):
        expect(rep.check_cell(cell, answer, reference) == [], f"{cell.label}: real answer rejected")
        rejects = {
            "max_size + 1": perturbed(answer, max_size=answer["max_size"] + 1),
            "max_size - 1": perturbed(answer, max_size=answer["max_size"] - 1),
            "witness index changed": perturbed(answer, witness=answer["witness"][:-1] + [answer["witness"][-1] + 1]),
            "witness member dropped": perturbed(answer, witness=answer["witness"][:-1]),
            "witness not a family": perturbed(answer, witness_members=answer["witness_members"][:-1]
                                              + [incompatible_matching(cell, answer["witness_members"])]),
            "cap exception": {"op": cell.label, "error": "NodeBudgetExceeded: clique search exceeded node budget"},
            "maxima enumerated unasked": perturbed(answer, maxima_count=1),
        }
        if cell.all_maxima:
            count = answer["maxima_count"]
            centres = answer["centres"]
            rejects = {
                **{k: v for k, v in rejects.items() if k != "maxima enumerated unasked"},
                "maxima_count - 1": perturbed(answer, maxima_count=count - 1),
                "maxima overflow": perturbed(answer, maxima_count="overflow"),
                "a non-star maximum": perturbed(answer, maxima_kinds={"t-star": count - 1, "none": 1}),
                "a centre changed": perturbed(answer, centres=[centres[1]] + centres[1:]),
                "a maximum missing": perturbed(answer, centres=centres[:-1]),
            }
        for what, bad in rejects.items():
            expect(rep.check_cell(cell, bad, reference) != [], f"{cell.label}: gate accepted {what}")


def test_sweep_gate(reference: dict):
    os.makedirs(os.path.join(rep.ROOT, rep.OUT_DIR, "sweep"), exist_ok=True)
    campaigns = ("intersecting", "lemma1")
    for answer in rep.run_sweep(campaigns, seed=12345):
        answer["digests"] = rep.sweep_digests(answer["op"])
        expect(rep.check_sweep(answer, reference) == [], f"{answer['op']}: real report rejected")
        expect(rep.check_sweep(perturbed(answer, exit=1), reference) != [], "gate accepted exit code 1")
        expect(rep.check_sweep({"op": answer["op"], "error": "boom"}, reference) != [],
               "gate accepted a raising CLI")
        for ext in ("csv", "json"):
            path = os.path.join(rep.ROOT, rep.OUT_DIR, "sweep", f"{answer['op']}.{ext}")
            with open(path, "rb") as fh:
                data = bytearray(fh.read())
            data[len(data) // 2] ^= 0x01
            with open(path, "wb") as fh:
                fh.write(data)
            bad = perturbed(answer, digests=rep.sweep_digests(answer["op"]))
            expect(rep.check_sweep(bad, reference) != [], f"{answer['op']}: gate accepted a changed {ext} byte")
            os.remove(path)
            bad = perturbed(answer, digests=rep.sweep_digests(answer["op"]))
            expect(rep.check_sweep(bad, reference) != [], f"{answer['op']}: gate accepted a missing {ext}")


def busy(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_span_accounting():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: busy(0.01))
    sleeper = tracer.wrap("sleeper", lambda: time.sleep(0.02))

    def middle_body():
        busy(0.005)
        leaf()
        sleeper()
        leaf()

    middle = tracer.wrap("middle", middle_body)
    root = tracer.wrap("root", lambda: [middle(), busy(0.005), leaf()])
    root()
    expect(tracer.check_accounting() == [], f"accounting problems: {tracer.check_accounting()}")
    selfs = tracer.self_times()
    for sid, (name, parent, start, end, cpu) in enumerate(tracer.spans):
        child_wall = sum(s[3] - s[2] for s in tracer.spans if s[1] == sid)
        expect(abs(selfs[sid] + child_wall - (end - start)) < 1e-9, f"span {name}: self + children != wall")
    agg = tracer.by_name()
    expect(agg["sleeper"]["wait_s"] > 0.015, "a sleeping span shows no waiting")
    expect(agg["leaf"]["cpu_s"] > agg["sleeper"]["cpu_s"], "a busy span shows less CPU than a sleeping one")
    expect(tracer.counts["leaf.calls"] == 3, "call count of leaf is not 3")

    broken = copy.deepcopy(tracer)
    broken.spans[1][3] = broken.spans[0][3] + 1.0  # a child outlives its parent
    expect(broken.check_accounting() != [], "accounting accepted a child that outlives its parent")


def test_host_probes():
    sampler = hostspeed.Sampler()
    sampler.start()
    busy(0.5)
    samples = sampler.stop()
    expect(len(samples) >= 0.5 / hostspeed.PROBE_INTERVAL_S / 2, f"only {len(samples)} probes in 0.5 s of CPU")
    expect(all(0 < cpu <= wall * 1.001 and 0 <= stolen <= wall for wall, cpu, stolen in samples),
           f"a probe's wall, cpu and stolen times do not fit together: {samples[:3]}")
    ref = hostspeed.REF_PROBE_S
    # fixed work at speeds 1 and 1/3 for equal times runs at mean speed 2/3: factor 1.5
    wall_f, cpu_f = hostspeed.slowdowns([[ref, ref, 0.0], [3 * ref, 3 * ref, 0.0]])
    expect(abs(cpu_f - 1.5) < 1e-12 and abs(wall_f - 1.5) < 1e-12, f"CPU factor {cpu_f}, expected 1.5")
    # half of the probes' wall time stolen: the wall factor doubles, the CPU factor does not
    wall_f, cpu_f = hostspeed.slowdowns([[2 * ref, ref, ref]])
    expect(abs(cpu_f - 1.0) < 1e-12 and abs(wall_f - 2.0) < 1e-12, f"factors {wall_f}, {cpu_f}, expected 2, 1")


def main():
    os.chdir(rep.ROOT)
    reference = rep.load_reference()
    test_cell_gate(reference)
    test_sweep_gate(reference)
    test_span_accounting()
    test_host_probes()
    print(f"selftest passed: {CHECKS} checks")


if __name__ == "__main__":
    main()
