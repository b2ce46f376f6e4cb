"""The one branch-and-bound kernel: the proof, the witness search and the listing.

Node counts are pinned exactly.  The depth-first tree is fixed by the inputs,
so a count moves only when the search itself changes; with the averaging
bound off, the counts of PINNED are those of the separate proof and witness
kernels that `search._branch` replaced, less the nodes that orbital branching
at every proof node cuts.  The Re-NUMBER colouring at
kmin <= 0 is the greedy colouring, which is what lets one kernel serve both
bounds.  Under the greedy bound a clique candidate set closes in one step,
its chain's nodes counted; with that switched off (`chains_off`) each node is
one `_branch` call, and the two must give the same counts, bits and budgets.
A first branch whose vertex sees every other candidate passes its colouring
on to the child, which reads a prefix of it; every such colouring must be the
child's own greedy colouring, and with the inheritance switched off
(`inheritance_off`) the answers, counts and budgets must be the same.
"""

import random

import pytest

from ekrmatch import search
from ekrmatch.matchings import enumerate_union_universe, enumerate_universe
from ekrmatch.predicates import Predicate
from ekrmatch.search import (
    CompatGraph,
    MaximaOverflowError,
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
from test_search import _complete_graph, _random_graph

# (parts, sizes, predicate, maximum, status, nodes of extremal)
PINNED = [
    ((4, 4, 4), (3,), "weakly-intersecting:1", 108, "MATCHES_STAR_BOUND", 108),
    ((6, 6), (3,), "intersecting:1", 200, "MATCHES_STAR_BOUND", 200),
    ((4, 4, 4), (4,), "weakly-set-intersecting:2", 16, "MATCHES_STAR_BOUND", 16),
    ((10,), (4,), "intersecting:1", 84, "MATCHES_STAR_BOUND", 103),
    ((5, 5), (4,), "intersecting:2", 18, "MATCHES_STAR_BOUND", 20),
    ((8,), (4,), "intersecting:2", 17, "EXCEEDS_STAR_BOUND", 46),
    ((6,), (1, 2, 3, 4, 5, 6), "intersecting:2", 22, "EXCEEDS_STAR_BOUND", 359),
    ((8,), (0, 1, 2, 3, 4, 5), "intersecting:1", 99, "MATCHES_STAR_BOUND", 1652),
    ((6,), (0, 1, 2, 3, 4, 5, 6), "intersecting:1", 32, "MATCHES_STAR_BOUND", 65),
    ((3, 3), (1, 2), "intersecting:1", 5, "MATCHES_STAR_BOUND", 6),
]


@pytest.mark.parametrize("parts,sizes,pred,size,status,nodes", PINNED,
                         ids=[f"{p}-{s}-{pred}" for p, s, pred, *_ in PINNED])
def test_extremal_node_counts_are_pinned(parts, sizes, pred, size, status, nodes, monkeypatch):
    averaging_off(monkeypatch)
    rep = extremal(parts, sizes, Predicate.parse(pred))
    assert (rep.max_size, rep.status, rep.nodes) == (size, status, nodes)


# cells where the averaging bound is tight, the first two from PINNED: its clique-number search, then the
# witness search
AVERAGED = [
    ((6, 6), (3,), "intersecting:1", 200, 230),
    ((10,), (4,), "intersecting:1", 84, 94),
    ((5, 5), (5,), "intersecting:3", 2, 1),  # S_5 at t = 3, over PGL(2, 4)
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


def chains_off(monkeypatch):
    """No candidate set closes in one step: the kernel walks down every clique chain node by node."""
    monkeypatch.setattr(search, "_close_clique", lambda *args: False)


# (7,) r=3 intersecting:1 is closed by the averaging bound, so its nodes are the clique-number search's
# and the witness search's; the proof runs on the other three
@pytest.mark.parametrize("parts,sizes,pred", [((7,), (3,), "intersecting:1"),
                                              ((8,), (4,), "intersecting:2"),
                                              ((6,), (1, 2, 3, 4, 5, 6), "intersecting:2"),
                                              ((4, 4), (1, 2), "weakly-intersecting:1")])
def test_every_node_of_both_phases_and_the_listing_is_one_kernel_call(parts, sizes, pred, monkeypatch):
    # with the collapse off each node is one call; with it on the node counts and budgets are the same
    graph = build_compat_graph(enumerate_union_universe(parts, sizes), Predicate.parse(pred))
    hand = CompatGraph(graph.universe, graph.pred, graph.rows)
    with monkeypatch.context() as mp:
        chains_off(mp)
        calls = kernel_calls(mp)
        solved = max_clique(graph)
        assert calls[0] == solved[2]
        calls[0] = 0
        unmarked = max_clique(hand)
        assert unmarked[2] == calls[0]
        calls[0] = 0
        maxima = all_max_cliques(graph, solved[0])
        listed = calls[0]
    assert max_clique(graph) == solved and max_clique(hand) == unmarked
    assert listed > 0 and all_max_cliques(graph, solved[0], node_budget=listed) == maxima
    with pytest.raises(NodeBudgetExceeded) as exc:
        all_max_cliques(graph, solved[0], node_budget=listed - 1)
    assert exc.value.nodes == listed


def test_proof_state_is_reset_before_the_witness_phase(monkeypatch):
    seen = []
    real = search._witness_phase

    def spy(nadj, roots, state, workers, stop):
        seen.append((state.relabel, state.stop))
        return real(nadj, roots, state, workers, stop)

    monkeypatch.setattr(search, "_witness_phase", spy)
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    assert max_clique(graph)[0] == 17
    assert seen == [(None, None)]


# ---------------------------------------------------------------------------
# clique candidate sets close in one step


def kernel_answers(graph, monkeypatch):
    """(size, witness bits, nodes) of `max_clique`, then the maxima (or "overflow") and the listing's nodes."""
    size, witness, nodes = max_clique(graph)
    listed = []
    real = search._search_roots

    def spy(nadj, roots, state):
        at = real(nadj, roots, state)
        listed.append(state.nodes)
        return at

    with monkeypatch.context() as mp:
        mp.setattr(search, "_search_roots", spy)
        try:
            maxima = [f.bits for f in all_max_cliques(graph, size)]
        except MaximaOverflowError:
            maxima = "overflow"
    return size, witness.bits, nodes, maxima, listed


def assert_collapse_changes_nothing(graph, monkeypatch):
    on = kernel_answers(graph, monkeypatch)
    with monkeypatch.context() as mp:
        chains_off(mp)
        off = kernel_answers(graph, mp)
    assert on == off, (graph.universe.key, str(graph.pred))


def test_collapse_changes_nothing_on_every_transitive_builtin_cell(monkeypatch):
    from test_two_phase import builtin_graphs

    graphs = [g for g in builtin_graphs() if g.transitive]
    assert len(graphs) > 20
    for graph in graphs:
        assert_collapse_changes_nothing(graph, monkeypatch)


# the benchmark's cells
BENCH = [((4, 4, 4), 3, "weakly-intersecting:1"), ((6, 6), 3, "intersecting:1"),
         ((4, 4, 4), 4, "weakly-set-intersecting:2"), ((10,), 4, "intersecting:1"),
         ((5, 5), 4, "intersecting:2")]


@pytest.mark.parametrize("parts,r,pred", BENCH, ids=[f"{p}-r{r}-{pred}" for p, r, pred in BENCH])
def test_collapse_changes_nothing_on_the_benchmark_cells(parts, r, pred, monkeypatch):
    assert_collapse_changes_nothing(build_compat_graph(enumerate_universe(parts, r), Predicate.parse(pred)),
                                    monkeypatch)


def disjoint_cliques(widths):
    """A hand-built graph that is the disjoint union of cliques of these widths."""
    rows, lo = [], 0
    for w in widths:
        rows += [((1 << w) - 1) << lo] * w
        lo += w
    return CompatGraph(enumerate_universe((max(lo, 2),), 1), Predicate("intersecting", 1), rows)


def test_collapse_changes_nothing_on_random_complete_and_disjoint_clique_graphs(monkeypatch):
    rng = random.Random(18)
    graphs = [_complete_graph(n) for n in (1, 2, 3, 7, 20)]
    graphs += [disjoint_cliques([rng.randint(1, 8) for _ in range(rng.randint(1, 6))]) for _ in range(30)]
    graphs += [_random_graph(rng.randint(1, 40), rng.choice([0.3, 0.6, 0.9, 0.97]), rng) for _ in range(150)]
    for graph in graphs:
        assert_collapse_changes_nothing(graph, monkeypatch)


def test_every_budget_raises_at_the_same_node_with_and_without_the_collapse(monkeypatch):
    rng = random.Random(19)
    graphs = [_complete_graph(9), disjoint_cliques([3, 6, 2, 6])]
    graphs += [_random_graph(rng.randint(5, 25), rng.choice([0.6, 0.9]), rng) for _ in range(20)]
    for graph in graphs:
        nodes = max_clique(graph)[2]
        for budget in range(1, nodes + 1):
            raised = []
            for off in (False, True):
                with monkeypatch.context() as mp:
                    if off:
                        chains_off(mp)
                    try:
                        raised.append(max_clique(graph, node_budget=budget)[2])
                    except NodeBudgetExceeded as exc:
                        raised.append(("raised", exc.nodes, exc.budget))
            assert raised[0] == raised[1]
            assert raised[0] == (nodes if budget == nodes else ("raised", budget + 1, budget))


def test_budget_whose_last_node_is_inside_a_collapsed_chain(monkeypatch):
    # the witness search of (6,6) r=3 intersecting:1 ends in a clique chain: its last node is a counted one
    graph = build_compat_graph(enumerate_universe((6, 6), 3), Predicate("intersecting", 1))
    chains = []
    real = search._close_clique

    def spy(pmask, width, rbits, rsize, state):
        try:
            return real(pmask, width, rbits, rsize, state)
        finally:  # the chain that reaches the stop ends the search by raising
            chains.append((width, state.nodes))

    with monkeypatch.context() as mp:
        mp.setattr(search, "_close_clique", spy)
        size, witness, nodes = max_clique(graph)
    width, last = chains[-1]
    assert width > 1 and last == nodes
    assert max_clique(graph, node_budget=nodes) == (size, witness, nodes)
    for off in (False, True):
        with monkeypatch.context() as mp:
            if off:
                chains_off(mp)
            with pytest.raises(NodeBudgetExceeded) as exc:
                max_clique(graph, node_budget=nodes - 1)
        assert (exc.value.nodes, exc.value.budget) == (nodes, nodes - 1)


# ---------------------------------------------------------------------------
# a first branch whose vertex sees every other candidate inherits the colouring


def inheritance_off(monkeypatch):
    """Every node colours its candidate set in full: each `_branch` call drops the colouring passed to it."""
    real = search._branch
    monkeypatch.setattr(search, "_branch",
                        lambda nadj, pmask, rbits, rsize, state, *inherited: real(nadj, pmask, rbits, rsize, state))


def inherited_colourings(monkeypatch):
    """Spy on `_branch`: each inherited colouring must be `_colour_order` of the candidate set; a count of them."""
    checked = [0]
    real = search._branch

    def checking(nadj, pmask, rbits, rsize, state, order=None, colours=None, end=0):
        if order is not None:
            assert (order[:end], colours[:end]) == _colour_order(pmask, nadj)
            checked[0] += 1
        return real(nadj, pmask, rbits, rsize, state, order, colours, end)

    monkeypatch.setattr(search, "_branch", checking)
    return checked


def assert_inheritance_changes_nothing(graph, monkeypatch) -> int:
    """Every inherited colouring is the full one, and the answers are those without inheritance; the count."""
    with monkeypatch.context() as mp:
        checked = inherited_colourings(mp)
        on = kernel_answers(graph, mp)
    with monkeypatch.context() as mp:
        inheritance_off(mp)
        off = kernel_answers(graph, mp)
    assert on == off, (graph.universe.key, str(graph.pred))
    return checked[0]


def test_inheritance_changes_nothing_on_random_complete_and_disjoint_clique_graphs(monkeypatch):
    rng = random.Random(32)
    graphs = [_complete_graph(n) for n in (1, 2, 3, 7, 20)]
    graphs += [disjoint_cliques([rng.randint(1, 8) for _ in range(rng.randint(1, 6))]) for _ in range(30)]
    graphs += [_random_graph(rng.randint(1, 40), rng.choice([0.3, 0.6, 0.9, 0.97]), rng) for _ in range(150)]
    assert sum(assert_inheritance_changes_nothing(graph, monkeypatch) for graph in graphs) > 100


def test_inheritance_changes_nothing_on_every_transitive_builtin_cell(monkeypatch):
    from test_two_phase import builtin_graphs

    graphs = [g for g in builtin_graphs() if g.transitive]
    assert len(graphs) > 20
    assert sum(assert_inheritance_changes_nothing(graph, monkeypatch) for graph in graphs) > 0


@pytest.mark.parametrize("parts,r,pred", BENCH, ids=[f"{p}-r{r}-{pred}" for p, r, pred in BENCH])
def test_inheritance_changes_nothing_on_the_benchmark_cells(parts, r, pred, monkeypatch):
    assert_inheritance_changes_nothing(build_compat_graph(enumerate_universe(parts, r), Predicate.parse(pred)),
                                       monkeypatch)


def test_every_budget_raises_at_the_same_node_with_and_without_inheritance(monkeypatch):
    rng = random.Random(33)
    graphs = [_complete_graph(9), disjoint_cliques([3, 6, 2, 6])]
    graphs += [_random_graph(rng.randint(5, 25), rng.choice([0.6, 0.9]), rng) for _ in range(20)]
    graphs.append(build_compat_graph(enumerate_universe((5, 5), 5), Predicate("intersecting", 1)))
    for graph in graphs:
        size, _, nodes = max_clique(graph)
        listed = kernel_answers(graph, monkeypatch)[4][0]
        for budget in range(1, max(nodes, listed) + 2):
            raised = []
            for off in (False, True):
                with monkeypatch.context() as mp:
                    if off:
                        inheritance_off(mp)
                    answers = []
                    for solve in (lambda: max_clique(graph, node_budget=budget),
                                  lambda: [f.bits for f in all_max_cliques(graph, size, node_budget=budget)]):
                        try:
                            answers.append(solve())
                        except NodeBudgetExceeded as exc:
                            answers.append(("raised", exc.nodes, exc.budget))
                    raised.append(answers)
            assert raised[0] == raised[1]
            assert (raised[0][0] == ("raised", budget + 1, budget)) == (budget < nodes)


def test_the_witness_path_of_s7_colours_16_times_not_129(monkeypatch):
    # (7,7) r=7 intersecting:1: a path of 719 nodes to the star, none backtracking
    graph = build_compat_graph(enumerate_universe((7, 7), 7), Predicate("intersecting", 1))
    counts, answers = [], []
    for off in (False, True):
        with monkeypatch.context() as mp:
            if off:
                inheritance_off(mp)
            colourings = [0]
            real = search._colour_order

            def counting(pmask, nadj):
                colourings[0] += 1
                return real(pmask, nadj)

            mp.setattr(search, "_colour_order", counting)
            size, witness, nodes = max_clique(graph)
        counts.append(colourings[0])
        answers.append((size, witness.bits, nodes))
    assert answers[0] == answers[1] and answers[0][0] == 720 and answers[0][2] == 719
    assert counts == [16, 129]
