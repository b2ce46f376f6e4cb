"""The two-phase maximum: a Re-NUMBER proof from the star bound, then one witness search.

The kernel under the proof's bound is checked against `max_clique_naive`
from several incumbents.  The two-phase size, witness and status are checked against the
single search of an unmarked copy of the same graph on every cell that the
builtin campaigns solve, on the benchmark cells and on the Katona union
cells, seeded and unseeded, at one and two workers.
"""

import functools
import random

import pytest

from ekrmatch import search
from ekrmatch.harness import BUILTIN_CAMPAIGNS
from ekrmatch.matchings import Family, enumerate_union_universe, enumerate_universe
from ekrmatch.predicates import Predicate
from ekrmatch.search import (
    CompatGraph,
    InternalCheckError,
    NodeBudgetExceeded,
    _branch,
    _neighbour_rows,
    _search_roots,
    _SearchState,
    build_compat_graph,
    max_clique,
    max_clique_naive,
    star_formula_value,
)

from test_search import _random_graph
from test_symmetry import star_seed


def test_proof_kernel_equals_naive_from_every_incumbent():
    rng = random.Random(8)
    for _ in range(300):
        g = _random_graph(rng.randint(1, 22), rng.choice([0.2, 0.5, 0.8, 0.95]), rng)
        omega = max_clique_naive(g)[0]
        nadj = _neighbour_rows(g)
        for best in sorted({0, max(omega - 2, 0), max(omega - 1, 0), omega, omega + 1}):
            state = _SearchState(budget=10**9, best=best, renumber=True)
            _branch(nadj, (1 << g.n) - 1, 0, 0, state)
            assert state.best == max(best, omega)
            if omega > best:  # the proof's last leaf is a maximum clique
                members = Family(g.universe, state.witness).indices()
                assert len(members) == omega
                assert all(nadj[a] >> b & 1 for a in members for b in members if a != b)


def unmarked(graph):
    return CompatGraph(graph.universe, graph.pred, graph.rows)


def single_search(graph):
    """The reference: the single search of an unmarked copy, as (size, witness bits)."""
    full = unmarked(graph)

    def reference(seed, workers):
        size, witness, _ = max_clique(full, workers=workers, seed=seed)
        return size, witness.bits

    return reference


def builtin_graphs():
    """Every graph whose maximum a builtin campaign asks for, once per (universe, predicate)."""
    seen = {}
    real = search.max_clique

    def recording(graph, node_budget=search.DEFAULT_NODE_BUDGET, workers=1, seed=None):
        seen.setdefault((graph.universe.key, str(graph.pred)), graph)
        return real(graph, node_budget, workers, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "max_clique", recording)
        for run in BUILTIN_CAMPAIGNS.values():
            run()
    return list(seen.values())


# the benchmark's cells, apart from the deep one below and the three dense
# cells, which test_symmetry's SHORTCUT_CELLS compare with the same check
BENCH_CELLS = [((5, 5), (4,), "intersecting:2")]
KATONA_CELLS = [((n,), tuple(range(lo, n + 1)), f"intersecting:{t}")
                for n in (4, 5, 6) for lo in (0, 1) for t in (1, 2, 3)]


def seeds(graph):
    universe, pred = graph.universe, graph.pred
    if pred.t <= max(universe.sizes) and pred.t <= min(universe.parts):
        return [None, star_seed(universe, pred)]
    return [None]


def assert_two_phase_equals(graph, reference):
    """Size, witness bits and status of the two phases equal reference(seed, workers)'s."""
    assert graph.symmetric
    universe = graph.universe
    star = star_formula_value(universe.parts, universe.sizes, graph.pred)
    for seed in seeds(graph):
        for workers in (1, 2):
            size, witness, _ = max_clique(graph, workers=workers, seed=seed)
            want_size, want_bits = reference(seed, workers)
            assert (size, witness.bits) == (want_size, want_bits)
            assert (size == star) == (want_size == star) and size >= star


def test_two_phase_equals_single_search_on_every_builtin_cell():
    graphs = builtin_graphs()
    assert len(graphs) >= 30
    for graph in graphs:
        assert_two_phase_equals(graph, single_search(graph))


@pytest.mark.parametrize("parts,sizes,pred", BENCH_CELLS + KATONA_CELLS,
                         ids=[f"{p}-{s}-{pred}" for p, s, pred in BENCH_CELLS + KATONA_CELLS])
def test_two_phase_equals_single_search(parts, sizes, pred):
    graph = build_compat_graph(enumerate_union_universe(parts, sizes), Predicate.parse(pred))
    assert_two_phase_equals(graph, single_search(graph))


def root_zero_search(graph, seed):
    """The single search from root 0 alone, which equals the full search on a transitive graph."""
    nadj = _neighbour_rows(graph)
    state = _SearchState(budget=10**9)
    if seed is not None:
        state.best, state.witness = len(seed), seed.bits
    _search_roots(nadj, [(0, 0, nadj[0])], state)
    return state.best, state.witness


def test_deep_cell_witness_equals_root_zero_search():
    # the unmarked full search takes 108,119 nodes here; root 0 alone gives the same bits
    graph = build_compat_graph(enumerate_universe((10,), 4), Predicate("intersecting", 1))
    assert graph.transitive
    reference = functools.cache(lambda seed, workers: root_zero_search(graph, seed))
    assert_two_phase_equals(graph, reference)
    assert max_clique(graph)[2] < 500


EXCEEDS_CELLS = [((8,), (4,), 2), ((4,), (1, 2, 3, 4), 2), ((6,), (1, 2, 3, 4, 5, 6), 2)]


def witness_stops(monkeypatch):
    """Spy on `_witness_phase`: the list of its stops, one per run."""
    stops = []
    real = search._witness_phase

    def spy(nadj, roots, state, workers, stop):
        stops.append(stop)
        return real(nadj, roots, state, workers, stop)

    monkeypatch.setattr(search, "_witness_phase", spy)
    return stops


@pytest.mark.parametrize("parts,sizes,t", EXCEEDS_CELLS)
def test_exceeds_cells_search_for_the_witness_once(parts, sizes, t, monkeypatch):
    graph = build_compat_graph(enumerate_union_universe(parts, sizes), Predicate("intersecting", t))
    stops = witness_stops(monkeypatch)
    size, witness, _ = max_clique(graph)
    star = star_formula_value(parts, sizes, graph.pred)
    assert stops == [size] and size > star
    monkeypatch.undo()
    full = max_clique(unmarked(graph))
    assert (size, witness.bits) == (full[0], full[1].bits)


def test_witness_search_runs_at_most_once_on_every_builtin_cell(monkeypatch):
    graphs = builtin_graphs()
    stops = witness_stops(monkeypatch)
    for graph in graphs:
        for seed in seeds(graph):
            stops.clear()
            size = max_clique(graph, seed=seed)[0]
            assert stops in ([], [size])


@pytest.mark.parametrize("parts,sizes", [((10,), (4,)), ((3, 3), (1, 2))])
def test_star_seeded_matches_cell_keeps_the_seed_without_a_witness_search(parts, sizes, monkeypatch):
    graph = build_compat_graph(enumerate_union_universe(parts, sizes), Predicate("intersecting", 1))
    seed = star_seed(graph.universe, graph.pred)
    stops = witness_stops(monkeypatch)
    size, witness, _ = max_clique(graph, seed=seed)
    assert size == len(seed) == star_formula_value(parts, sizes, graph.pred)
    assert witness.bits == seed.bits and stops == []


def test_exceeds_cell_closes_in_few_nodes():
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    size, _, nodes = max_clique(graph)
    assert size == 17
    assert nodes < 60  # 60 when the witness search stopped at the star bound before the proof


def test_a_graph_is_marked_exactly_when_built_without_rows():
    u = enumerate_universe((3, 3), 2)
    pred = Predicate("intersecting", 1)
    built = build_compat_graph(u, pred)
    assert built.symmetric and built.transitive
    assert CompatGraph(u, pred).symmetric
    union = build_compat_graph(enumerate_union_universe((3, 3), (1, 2)), pred)
    assert union.symmetric and not union.transitive
    for graph in (built, union):
        hand = CompatGraph(graph.universe, pred, graph.rows)
        assert not hand.symmetric and not hand.transitive
    # given rows are searched as given, never swapped for the predicate's: all 18 vertices are adjacent
    complete = CompatGraph(u, pred, [(1 << len(u)) - 1] * len(u))
    assert not complete.symmetric
    assert max_clique(complete)[0] == 18


def test_unmarked_graph_keeps_the_single_search():
    # a hand-built graph is searched once, with no stop and no proof phase
    g = _random_graph(14, 0.6, random.Random(3))
    nadj = _neighbour_rows(g)
    state = _SearchState(budget=10**9)
    _search_roots(nadj, search._root_subproblems(nadj, g.n), state)
    size, witness, nodes = max_clique(g)
    assert (size, witness.bits, nodes) == (state.best, state.witness, state.nodes)


def test_one_budget_bounds_both_phases(monkeypatch):
    # (8,) r=4 intersecting:2: no averaging bound, so both phases run
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    proof_nodes = []
    real = search._witness_phase

    def spy(nadj, roots, state, workers, stop):
        proof_nodes.append(state.nodes)
        real(nadj, roots, state, workers, stop)

    monkeypatch.setattr(search, "_witness_phase", spy)
    size, witness, total = max_clique(graph)
    assert proof_nodes and 0 < proof_nodes[0] < total
    for budget in (proof_nodes[0] // 2, proof_nodes[0], (proof_nodes[0] + total) // 2, total - 1):
        with pytest.raises(NodeBudgetExceeded):
            max_clique(graph, node_budget=budget)
    assert max_clique(graph, node_budget=total)[:2] == (size, witness)


def test_witness_search_below_the_star_bound_is_an_internal_error(monkeypatch):
    graph = build_compat_graph(enumerate_universe((3, 3), 2), Predicate("intersecting", 1))
    monkeypatch.setattr(search, "star_formula_value", lambda parts, sizes, pred: 5)
    with pytest.raises(InternalCheckError, match="ended at 4, below 5"):
        max_clique(graph)


def test_frontier_cell_closes_in_few_nodes():
    graph = build_compat_graph(enumerate_universe((9,), 4), Predicate("intersecting", 1))
    size, _, nodes = max_clique(graph)
    assert size == 56
    assert nodes < 400  # 879 without orbital branching in the proof


def test_deep_cell_closes_in_few_nodes():
    graph = build_compat_graph(enumerate_universe((10,), 4), Predicate("intersecting", 1))
    size, _, nodes = max_clique(graph)
    assert size == 84
    assert nodes < 150  # 380 without orbital branching in the proof
