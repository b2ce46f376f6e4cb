"""The one branch-and-bound kernel: the proof, the witness search and the listing.

Node counts are pinned exactly.  The depth-first tree is fixed by the inputs,
so a count moves only when the search itself changes; the counts of PINNED
are those of the separate proof and witness kernels that `search._branch`
replaced, with the averaging bound off.  The Re-NUMBER colouring at
kmin <= 0 is the greedy colouring, which is what lets one kernel serve both
bounds.
"""

import random

import pytest

from ekrmatch import search
from ekrmatch.matchings import enumerate_union_universe, enumerate_universe
from ekrmatch.predicates import Predicate
from ekrmatch.search import (
    CompatGraph,
    NodeBudgetExceeded,
    _colour_order,
    _neighbour_rows,
    _renumber_order,
    all_max_cliques,
    build_compat_graph,
    extremal,
    max_clique,
)

from test_averaging import averaging_off
from test_search import _random_graph

# (parts, sizes, predicate, maximum, status, nodes of extremal)
PINNED = [
    ((4, 4, 4), (3,), "weakly-intersecting:1", 108, "MATCHES_STAR_BOUND", 108),
    ((6, 6), (3,), "intersecting:1", 200, "MATCHES_STAR_BOUND", 200),
    ((4, 4, 4), (4,), "weakly-set-intersecting:2", 16, "MATCHES_STAR_BOUND", 16),
    ((10,), (4,), "intersecting:1", 84, "MATCHES_STAR_BOUND", 103),
    ((5, 5), (4,), "intersecting:2", 18, "MATCHES_STAR_BOUND", 20),
    ((8,), (4,), "intersecting:2", 17, "EXCEEDS_STAR_BOUND", 46),
    ((6,), (1, 2, 3, 4, 5, 6), "intersecting:2", 22, "EXCEEDS_STAR_BOUND", 363),
    ((3, 3), (1, 2), "intersecting:1", 5, "MATCHES_STAR_BOUND", 6),
]


@pytest.mark.parametrize("parts,sizes,pred,size,status,nodes", PINNED,
                         ids=[f"{p}-{s}-{pred}" for p, s, pred, *_ in PINNED])
def test_extremal_node_counts_are_pinned(parts, sizes, pred, size, status, nodes, monkeypatch):
    averaging_off(monkeypatch)
    rep = extremal(parts, sizes, Predicate.parse(pred))
    assert (rep.max_size, rep.status, rep.nodes) == (size, status, nodes)


# the cells of PINNED where the averaging bound is tight: its clique-number search, then the witness search
AVERAGED = [
    ((6, 6), (3,), "intersecting:1", 200, 230),
    ((10,), (4,), "intersecting:1", 84, 94),
]


@pytest.mark.parametrize("parts,sizes,pred,size,nodes", AVERAGED,
                         ids=[f"{p}-{s}-{pred}" for p, s, pred, *_ in AVERAGED])
def test_extremal_node_counts_with_the_averaging_bound_are_pinned(parts, sizes, pred, size, nodes):
    rep = extremal(parts, sizes, Predicate.parse(pred))
    assert (rep.max_size, rep.status, rep.nodes) == (size, "MATCHES_STAR_BOUND", nodes)


def test_unmarked_random_graph_node_count_is_pinned():
    graph = _random_graph(60, 0.5, random.Random(15))
    size, witness, nodes = max_clique(graph)
    assert (size, witness.indices(), nodes) == (8, [3, 8, 11, 26, 28, 35, 40, 45], 145)


def test_renumber_order_at_kmin_up_to_zero_is_the_greedy_colouring():
    rng = random.Random(21)
    for _ in range(200):
        graph = _random_graph(rng.randint(1, 40), rng.choice([0.1, 0.4, 0.7, 0.95]), rng)
        nadj = _neighbour_rows(graph)
        pmask = rng.getrandbits(graph.n)
        for kmin in (0, -1, -5):
            assert _renumber_order(pmask, nadj, kmin) == _colour_order(pmask, nadj)


def kernel_calls(monkeypatch):
    """Spy on `_branch`: a one-item list counting its calls, recursive ones included."""
    calls = [0]
    real = search._branch

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(search, "_branch", counting)
    return calls


# (7,) r=3 intersecting:1 is closed by the averaging bound, so its nodes are the clique-number search's
# and the witness search's; the proof runs on the other three
@pytest.mark.parametrize("parts,sizes,pred", [((7,), (3,), "intersecting:1"),
                                              ((8,), (4,), "intersecting:2"),
                                              ((6,), (1, 2, 3, 4, 5, 6), "intersecting:2"),
                                              ((4, 4), (1, 2), "weakly-intersecting:1")])
def test_every_node_of_both_phases_and_the_listing_is_one_kernel_call(parts, sizes, pred, monkeypatch):
    graph = build_compat_graph(enumerate_union_universe(parts, sizes), Predicate.parse(pred))
    calls = kernel_calls(monkeypatch)
    size, _, nodes = max_clique(graph)
    assert calls[0] == nodes
    calls[0] = 0
    assert max_clique(CompatGraph(graph.universe, graph.pred, graph.rows))[2] == calls[0]
    calls[0] = 0
    maxima = all_max_cliques(graph, size)
    listed = calls[0]
    assert listed > 0 and all_max_cliques(graph, size, node_budget=listed) == maxima
    with pytest.raises(NodeBudgetExceeded):
        all_max_cliques(graph, size, node_budget=listed - 1)


def test_proof_state_is_reset_before_the_witness_phase(monkeypatch):
    seen = []
    real = search._witness_phase

    def spy(nadj, roots, state, workers, stop):
        seen.append((state.renumber, state.relabel))
        return real(nadj, roots, state, workers, stop)

    monkeypatch.setattr(search, "_witness_phase", spy)
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    assert max_clique(graph)[0] == 17
    assert seen == [(False, None)]
