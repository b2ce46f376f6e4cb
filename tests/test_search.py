import random
from itertools import combinations

import pytest

from ekrmatch.constructions import klein_family, t_star
from ekrmatch.matchings import enumerate_union_universe, enumerate_universe
from ekrmatch.predicates import Predicate, classify_star, family_satisfies, intersects_t
from ekrmatch.search import (
    CompatGraph,
    GraphTooLargeError,
    InternalCheckError,
    MaximaOverflowError,
    NodeBudgetExceeded,
    all_max_cliques,
    build_compat_graph,
    extremal,
    max_clique,
    max_clique_naive,
    star_formula_value,
)


def _random_graph(n, p, rng):
    u = enumerate_universe((max(n, 2),), 1)
    rows = [1 << v for v in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return CompatGraph(u, Predicate("intersecting", 1), rows)


def _complete_graph(n):
    u = enumerate_universe((max(n, 2),), 1)
    full = (1 << n) - 1
    return CompatGraph(u, Predicate("intersecting", 1), [full] * n)


def test_graph_build_matches_pairwise_oracle():
    u = enumerate_universe((3, 3), 2)
    g = build_compat_graph(u, Predicate("intersecting", 1))
    assert g.n == 18
    for a in range(18):
        assert g.rows[a] >> a & 1  # diagonal convention
        for b in range(18):
            expect = a == b or intersects_t(u.items[a], u.items[b], 1)
            assert bool(g.rows[a] >> b & 1) == expect
    # symmetry
    for a in range(18):
        for b in range(18):
            assert (g.rows[a] >> b & 1) == (g.rows[b] >> a & 1)


def test_permutation_graph_agreement_table():
    # S_3: two permutations are compatible exactly when they agree somewhere
    u = enumerate_universe((3, 3), 3)
    g = build_compat_graph(u, Predicate("intersecting", 1))
    assert g.n == 6
    for a in range(6):
        for b in range(6):
            agree = any(pa == pb for pa, pb in zip(u.items[a], u.items[b]))
            assert bool(g.rows[a] >> b & 1) == (agree or a == b)


def test_graph_cap():
    u = enumerate_universe((3, 3), 2)
    with pytest.raises(GraphTooLargeError):
        build_compat_graph(u, Predicate("intersecting", 1), cap=10)


def test_weak_rows_equal_plain_rows_at_low_arity():
    for parts, r in [((3, 4), 2), ((4,), 2)]:
        u = enumerate_universe(parts, r)
        for kind in ("intersecting", "set-intersecting"):
            g1 = build_compat_graph(u, Predicate(kind, 1))
            g2 = build_compat_graph(u, Predicate("weakly-" + kind, 1))
            assert g1.rows == g2.rows


def test_max_clique_known_cells():
    u = enumerate_universe((3, 3), 2)
    g = build_compat_graph(u, Predicate("intersecting", 1))
    size, witness, _ = max_clique(g)
    assert size == 4
    assert family_satisfies(witness, Predicate("intersecting", 1))

    s3 = build_compat_graph(enumerate_universe((3, 3), 3), Predicate("intersecting", 1))
    assert max_clique(s3)[0] == 2

    assert max_clique(_complete_graph(7))[0] == 7
    assert max_clique(_complete_graph(1))[0] == 1


def test_max_clique_agrees_with_naive_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        g = _random_graph(rng.randint(2, 18), rng.choice([0.2, 0.5, 0.8]), rng)
        assert max_clique(g)[0] == max_clique_naive(g)[0]


def test_max_clique_structured_graphs():
    # empty graph
    g = _random_graph(9, 0.0, random.Random(0))
    assert max_clique(g)[0] == 1
    # two disjoint triangles plus isolated vertices
    rows = [1 << v for v in range(8)]
    for tri in [(0, 1, 2), (3, 4, 5)]:
        for a in tri:
            for b in tri:
                rows[a] |= 1 << b
    g = CompatGraph(enumerate_universe((8,), 1), Predicate("intersecting", 1), rows)
    size, witness, _ = max_clique(g)
    assert size == 3
    assert witness.indices() == [0, 1, 2]  # first maximum in the fixed order


def test_max_clique_worker_determinism():
    rng = random.Random(4)
    for _ in range(12):
        g = _random_graph(rng.randint(3, 16), 0.5, rng)
        s1, w1, _ = max_clique(g, workers=1)
        s2, w2, _ = max_clique(g, workers=2)
        s3, w3, _ = max_clique(g, workers=5)
        assert (s1, w1.bits) == (s2, w2.bits) == (s3, w3.bits)


def test_node_budget_bounds_all_workers_together():
    marked = build_compat_graph(enumerate_universe((5, 5), 4), Predicate("intersecting", 1))
    # the unmarked copy searches every root, as a graph from a union universe does
    g = CompatGraph(marked.universe, marked.pred, marked.rows)
    for workers in (1, 2):
        with pytest.raises(NodeBudgetExceeded):
            max_clique(g, node_budget=400, workers=workers)
    size, witness, serial_nodes = max_clique(g)
    size2, witness2, parallel_nodes = max_clique(g, workers=2)
    assert (size2, witness2.bits) == (size, witness.bits)
    assert parallel_nodes < 2 * serial_nodes  # the chunk's roots share one incumbent
    # the uniform graph searches root 0 alone, serially, within the same budget
    pruned = [max_clique(marked, node_budget=400, workers=w) for w in (1, 2)]
    assert {(s, w.bits, n) for s, w, n in pruned} == {(size, witness.bits, pruned[0][2])}


def test_graph_build_worker_determinism():
    u = enumerate_universe((4, 4), 2)
    g1 = build_compat_graph(u, Predicate("intersecting", 1), workers=1)
    g2 = build_compat_graph(u, Predicate("intersecting", 1), workers=3)
    assert g1.rows == g2.rows


def test_node_budget_abort():
    g = _complete_graph(12)
    with pytest.raises(NodeBudgetExceeded):
        max_clique(g, node_budget=3)


def test_node_budget_abort_propagates_from_workers():
    g = _complete_graph(12)
    with pytest.raises(NodeBudgetExceeded):
        max_clique(g, node_budget=3, workers=2)


def test_search_errors_survive_pickling():
    import pickle

    for exc in (NodeBudgetExceeded(10, 5), MaximaOverflowError(7),
                GraphTooLargeError(100, 10)):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc) and str(clone) == str(exc)


def test_all_max_cliques_are_the_stars():
    u = enumerate_universe((3, 3), 2)
    g = build_compat_graph(u, Predicate("intersecting", 1))
    maxima = all_max_cliques(g, 4)
    assert len(maxima) == 9
    stars = {t_star(u, ((x, y),)).bits for x in (1, 2, 3) for y in (1, 2, 3)}
    assert {f.bits for f in maxima} == stars
    for f in maxima:
        assert family_satisfies(f, Predicate("intersecting", 1))


def test_all_max_cliques_complete_graph_single_maximum():
    g = _complete_graph(6)
    maxima = all_max_cliques(g, 6)
    assert len(maxima) == 1 and maxima[0].bits == (1 << 6) - 1


def test_all_max_cliques_overflow():
    u = enumerate_universe((3, 3), 2)
    g = build_compat_graph(u, Predicate("intersecting", 1))
    with pytest.raises(MaximaOverflowError):
        all_max_cliques(g, 4, cap=3)


def test_all_max_cliques_equal_brute_force_in_order():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 14)
        g = _random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        omega = max_clique_naive(g)[0]
        want = [list(c) for c in combinations(range(n), omega)
                if all(g.rows[a] >> b & 1 for a, b in combinations(c, 2))]
        assert [f.indices() for f in all_max_cliques(g, omega)] == want


def test_all_max_cliques_node_budget_and_size_checks():
    g = _complete_graph(12)
    with pytest.raises(NodeBudgetExceeded):
        all_max_cliques(g, 12, node_budget=3)
    with pytest.raises(ValueError):
        all_max_cliques(g, 11)  # 11 is not the maximum


def test_all_max_cliques_includes_klein_exception():
    u = enumerate_universe((4, 4), 4)
    g = build_compat_graph(u, Predicate("set-intersecting", 2))
    maxima = all_max_cliques(g, 4)
    assert len(maxima) == 24  # 18 box stars + 6 Klein-group cosets
    klein = klein_family(u)
    assert klein.bits in {f.bits for f in maxima}
    kinds = {}
    for f in maxima:
        kinds[classify_star(f, 2).kind] = kinds.get(classify_star(f, 2).kind, 0) + 1
    assert kinds == {"t-set-star": 18, "none": 6}


def test_star_formula_value():
    assert star_formula_value((3, 3), (2,), Predicate("intersecting", 1)) == 4
    assert star_formula_value((3, 3), (1, 2), Predicate("intersecting", 1)) == 5
    assert star_formula_value((4, 4), (4,), Predicate("set-intersecting", 2)) == 4
    # levels below t contribute nothing
    assert star_formula_value((3, 3), (1, 2), Predicate("intersecting", 2)) == 1


def test_extremal_pipeline_statuses():
    rep = extremal((3, 3), 2, Predicate("intersecting", 1), all_maxima=True)
    assert rep.status == "MATCHES_STAR_BOUND"
    assert rep.max_size == 4 and rep.maxima_count == 9
    assert rep.maxima_kinds == {"t-star": 9}

    rep = extremal((5,), 3, Predicate("intersecting", 2))
    assert rep.status == "EXCEEDS_STAR_BOUND"
    assert rep.max_size == 4 and rep.formula_value == 3

    rep = extremal((3, 3), (1, 2), Predicate("intersecting", 1), all_maxima=True)
    assert rep.max_size == 5 and rep.maxima_kinds == {"t-star": 9}


@pytest.mark.parametrize("parts,sizes,t", [((3, 3), (2,), 5), ((3, 3), (0,), 1), ((4,), (0, 1, 2), 3)])
def test_extremal_rejects_t_above_every_edge_count(parts, sizes, t):
    # no two matchings could meet, so a single matching would read as beating the star bound
    with pytest.raises(ValueError, match="t at most the largest edge count"):
        extremal(parts, sizes, Predicate("intersecting", t))
    with pytest.raises(ValueError, match="t at most the largest edge count"):
        extremal(parts, sizes, Predicate("intersecting", t), universe=enumerate_union_universe(parts, sizes))


def test_extremal_seed_star_witness():
    rep = extremal((3, 3), 2, Predicate("intersecting", 1), seed_star=True)
    u = enumerate_universe((3, 3), 2)
    assert rep.max_size == 4
    assert rep.witness.bits == t_star(u, ((1, 1),)).bits
    assert "seeded-with-star" in rep.annotations


def test_extremal_worker_determinism():
    kw = dict(all_maxima=True)
    r1 = extremal((3, 3, 3), 2, Predicate("intersecting", 1), workers=1, **kw)
    r2 = extremal((3, 3, 3), 2, Predicate("intersecting", 1), workers=2, **kw)
    assert r1.to_dict() == r2.to_dict()


def test_extremal_report_serialisation():
    rep = extremal((3, 3), 2, Predicate("intersecting", 1), all_maxima=True)
    doc = rep.to_dict()
    assert doc["max_size"] == 4 and doc["status"] == "MATCHES_STAR_BOUND"
    assert "elapsed_s" not in doc
    timed = rep.to_dict(include_timings=True)
    assert "elapsed_s" in timed and "nodes" in timed


def test_below_star_bound_is_an_internal_error(monkeypatch):
    import ekrmatch.search as search_mod

    def undersized_max_clique(graph, node_budget=0, workers=1, seed=None):
        from ekrmatch.matchings import Family

        return 1, Family.from_indices(graph.universe, [0]), 1

    monkeypatch.setattr(search_mod, "max_clique", undersized_max_clique)
    with pytest.raises(InternalCheckError):
        extremal((3, 3), 2, Predicate("intersecting", 1))
