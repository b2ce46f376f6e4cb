"""Acceptance criteria, one test per criterion.

Every check is exact (integer equality); each test prints a single
PASS/FAIL line and enforces its runtime budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import sys
import time

from ekrmatch.constructions import klein_family
from ekrmatch.counts import (
    ak_family_size,
    katona_bound,
    semi_star_size,
    t_star_size,
)
from ekrmatch.harness import (
    run_example_suite,
    run_formula_campaign,
    run_lemma1_suite,
    run_weak_star_suite,
)
from ekrmatch.matchings import enumerate_universe
from ekrmatch.predicates import Predicate, classify_star
from ekrmatch.search import (
    CompatGraph,
    extremal,
    max_clique,
    max_clique_naive,
)
from ekrmatch.storage import write_report_csv


class _Check:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.1f}s/"
              f"{self.budget_s}s) -- {self.description}", file=sys.stderr, flush=True)
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget_s}s"
            )
        return False


def test_criterion_1_intersecting_bound_and_uniqueness():
    cells = {(3, 3): 4, (3, 4): 6, (4, 4): 9, (3, 3, 3): 8}
    with _Check(1, "maximum intersecting size equals the star formula with "
                   "star-only maxima on four part structures", 10):
        for parts, expected in cells.items():
            rep = extremal(parts, 2, Predicate("intersecting", 1), all_maxima=True)
            assert rep.formula_value == t_star_size(parts, 2, 1) == expected
            assert rep.max_size == expected, (parts, rep.max_size)
            assert rep.status == "MATCHES_STAR_BOUND"
            assert rep.maxima_kinds == {"t-star": rep.maxima_count}, (parts, rep.maxima_kinds)


def test_criterion_2_permutation_cell():
    with _Check(2, "maximum intersecting family of 3-permutations has size 2 "
                   "with maxima classification recorded", 1):
        rep = extremal((3, 3), 3, Predicate("intersecting", 1), all_maxima=True)
        assert rep.max_size == 2 == rep.formula_value
        assert rep.maxima_count == 9
        assert rep.maxima_kinds == {"t-star": 9}


def test_criterion_3_small_n_frame_regime():
    boundary = 6  # (r-t+1)(t+1) at r=3, t=2
    with _Check(3, "k=1 frame regime: clique max equals the best frame size and "
                   "exceeds the star bound exactly below n=6", 30):
        for n in range(5, 10):
            frames = [ak_family_size(n, 3, 2, i) for i in range((n - 2) // 2 + 1)]
            rep = extremal((n,), 3, Predicate("intersecting", 2))
            assert rep.max_size == max(frames), (n, rep.max_size, frames)
            if n < boundary:
                assert rep.status == "EXCEEDS_STAR_BOUND"
                assert n != 5 or (rep.max_size, rep.formula_value) == (4, 3)
            else:
                assert rep.status == "MATCHES_STAR_BOUND"


def test_criterion_4_power_set_thresholds():
    with _Check(4, "non-uniform k=1 clique max equals the parity-correct "
                   "threshold value for n in 4..6, t in 1..2", 300):
        for n in (4, 5, 6):
            sizes = tuple(range(1, n + 1))
            for t in (1, 2):
                rep = extremal((n,), sizes, Predicate("intersecting", t))
                assert rep.max_size == katona_bound(n, t), (n, t, rep.max_size)
        assert katona_bound(5, 1) == 16 == 2 ** 4


def test_criterion_5_worked_examples():
    with _Check(5, "all four worked examples reproduce exactly "
                   "(26 vs 24; Klein families at k=2 and k=3)", 10):
        rep = run_example_suite()
        assert rep.ok, [r for r in rep.rows if r["outcome"] != "pass"]
        assert rep.counts()["pass"] == 4


def test_criterion_6_nonuniform_union_bound():
    with _Check(6, "union universe over edge counts {1,2}: max 5 with "
                   "non-uniform star maxima only", 10):
        rep = extremal((3, 3), (1, 2), Predicate("intersecting", 1), all_maxima=True)
        assert rep.max_size == 5 == rep.formula_value
        assert rep.maxima_kinds == {"t-star": rep.maxima_count}
        assert rep.maxima_count == 9


def test_criterion_7_closure_identities():
    with _Check(7, "1000 seeded predicate-closed families satisfy all four "
                   "projection/restriction identities", 60):
        rep = run_lemma1_suite(samples=1000, seed=2024)
        assert rep.ok, [r for r in rep.rows if r["outcome"] == "fail"]
        assert all("0 violations" in r["detail"] for r in rep.rows)


def test_criterion_8_weak_star_collapse_and_set_analogue():
    with _Check(8, "every centre-consistent weak 1-star is a 1-star; the Klein "
                   "k=3 family is a weak 2-set-star but not a 2-set-star", 60):
        rep = run_weak_star_suite()
        assert rep.ok, [r for r in rep.rows if r["outcome"] == "fail"]
        u = enumerate_universe((4, 4, 4), 4)
        cls = classify_star(klein_family(u), 2)
        assert cls.kind == "weak-t-set-star"
        assert cls.projections_are_box_stars is False


def test_criterion_9_formulas_vs_enumeration():
    with _Check(9, "every construction cardinality equals its closed form on "
                   "the built-in grids", 60):
        rep = run_formula_campaign()
        assert rep.ok, [r for r in rep.rows if r["outcome"] == "fail"]
        # the misalignment step is exercised at both u=t and u=t+1
        cases = {r["case"] for r in rep.rows}
        assert any("u=1" in c for c in cases) and any("u=2" in c for c in cases)
        assert semi_star_size((3, 3, 3), 2, 1, 2) == 4


def test_criterion_10_clique_solver_cross_validation(tmp_path):
    with _Check(10, "branch-and-bound equals naive enumeration on 200 seeded "
                    "graphs; multi-worker runs byte-identical", 60):
        rng = random.Random(31337)
        base = enumerate_universe((21,), 1)
        for trial in range(200):
            n = rng.randint(2, 20)
            p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.85])
            rows = [1 << v for v in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < p:
                        rows[a] |= 1 << b
                        rows[b] |= 1 << a
            g = CompatGraph(base, Predicate("intersecting", 1), rows)
            bb_size, bb_wit, _ = max_clique(g)
            naive_size, _ = max_clique_naive(g)
            assert bb_size == naive_size, (trial, n, p, bb_size, naive_size)
            par_size, par_wit, _ = max_clique(g, workers=2)
            assert (par_size, par_wit.bits) == (bb_size, bb_wit.bits), (trial, n, p)

        # serialised multi-worker outputs are byte-identical
        def csv_bytes(workers):
            rep = extremal((3, 3, 3), 2, Predicate("intersecting", 1),
                           all_maxima=True, workers=workers)
            row = {"campaign": "xval", "case": "cell", "parts": rep.parts,
                   "sizes": rep.sizes, "predicate": rep.predicate, "expect": "",
                   "universe_size": rep.universe_size, "formula": rep.formula_value,
                   "max_size": rep.max_size, "status": rep.status,
                   "maxima_count": rep.maxima_count, "maxima_kinds": rep.maxima_kinds,
                   "outcome": "record", "detail": ""}
            path = tmp_path / f"w{workers}.csv"
            write_report_csv([row], str(path))
            return path.read_bytes()

        assert csv_bytes(1) == csv_bytes(2)
