"""Differential tests on seeded random small cells.

Each seed draws one cell with `random.Random(seed)`: k in {1, 2, 3}, parts of
size 2 to 4 (2 to 3 at k = 3), one to three edge counts (0 allowed), any of
the four predicate kinds, t from 1 to the largest edge count, and at most 40
vertices.  The engine's graph and answer on it are checked against oracles
that share none of its search: the pairwise predicate, the include/exclude
solver `max_clique_naive`, a listing of the maximum cliques written here over
the pairwise predicate, the pairwise family check, and a random relabelling of
the parts.
"""

import functools
import random

import pytest

from ekrmatch.matchings import enumerate_union_universe
from ekrmatch.predicates import PREDICATE_KINDS, Predicate, family_satisfies, pair_checker
from ekrmatch.search import build_compat_graph, extremal, max_clique_naive

SEEDS = range(100)
MAX_VERTICES = 40


@functools.cache
def cell(seed: int):
    """(universe, pred, report) of the seed's cell, the report with all maxima."""
    rng = random.Random(seed)
    while True:
        k = rng.choice((1, 2, 3))
        parts = tuple(rng.randint(2, 3 if k == 3 else 4) for _ in range(k))
        sizes = tuple(sorted(rng.sample(range(min(parts) + 1), rng.randint(1, 3))))
        if sizes[-1] == 0:
            continue
        universe = enumerate_union_universe(parts, sizes)
        if len(universe) <= MAX_VERTICES:
            break
    pred = Predicate(rng.choice(PREDICATE_KINDS), rng.randint(1, sizes[-1]))
    return universe, pred, extremal(parts, sizes, pred, all_maxima=True, universe=universe)


def brute_maxima(universe, pred, size: int) -> list:
    """Every clique of the given size under the pairwise test, as bits, in index-lexicographic order."""
    check = pair_checker(pred, universe.k)
    items = universe.items
    n = len(items)
    out = []

    def extend(chosen, bits, start):
        if len(chosen) == size:
            out.append(bits)
            return
        for v in range(start, n - (size - len(chosen)) + 1):
            if all(check(items[v], items[u]) for u in chosen):
                extend(chosen + [v], bits | 1 << v, v + 1)

    extend([], 0, 0)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_rows_equal_the_pairwise_test(seed):
    universe, pred, _ = cell(seed)
    check = pair_checker(pred, universe.k)
    items = universe.items
    want = [sum(1 << v for v, q in enumerate(items) if v == u or check(p, q)) for u, p in enumerate(items)]
    assert build_compat_graph(universe, pred).rows == want, (universe.key, pred)


@pytest.mark.parametrize("seed", SEEDS)
def test_maximum_equals_the_naive_solver(seed):
    universe, pred, report = cell(seed)
    naive, _ = max_clique_naive(build_compat_graph(universe, pred))
    assert report.max_size == naive, (universe.key, pred)


@pytest.mark.parametrize("seed", SEEDS)
def test_maxima_list_equals_the_brute_force_listing(seed):
    universe, pred, report = cell(seed)
    assert [f.bits for f in report.maxima] == brute_maxima(universe, pred, report.max_size), (universe.key, pred)
    assert report.maxima_count == len(report.maxima)


@pytest.mark.parametrize("seed", SEEDS)
def test_witness_satisfies_the_pairwise_predicate(seed):
    universe, pred, report = cell(seed)
    assert len(report.witness) == report.max_size
    assert report.witness in report.maxima
    assert family_satisfies(report.witness, pred), (universe.key, pred)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_random_part_relabelling_maps_the_maxima_onto_themselves(seed):
    universe, pred, report = cell(seed)
    rng = random.Random(f"relabel{seed}")
    perms = []
    for n in universe.parts:
        image = list(range(1, n + 1))
        rng.shuffle(image)
        perms.append(dict(zip(range(1, n + 1), image)))
    move = [universe.matching_index([tuple(pi[x] for pi, x in zip(perms, e)) for e in m]) for m in universe.items]
    moved = {sum(1 << move[v] for v in f.indices()) for f in report.maxima}
    assert moved == {f.bits for f in report.maxima}, (universe.key, pred, perms)
