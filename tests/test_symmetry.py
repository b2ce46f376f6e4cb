"""Vertex-transitivity of uniform compatibility graphs, and the root-0 searches it allows.

The premise is checked without the clique search: per-part vertex
permutations carry matching 0 to every matching and map the graph's rows onto
themselves, and so does every relabelling generator.  The root-0 maximum and
the list of all maxima, read off star centres or closed under the generators,
are then checked against the full root loop on an unmarked copy of the same
graph.
"""

import random
from collections import Counter
from itertools import islice

import pytest

from ekrmatch import predicates, search
from ekrmatch.constructions import diagonal_matching, t_set_star, t_star
from ekrmatch.counts import count_matchings
from ekrmatch.harness import BOUND_CAMPAIGNS
from ekrmatch.matchings import (
    Family,
    enumerate_union_universe,
    enumerate_universe,
    relabelling_generators,
)
from ekrmatch.predicates import PREDICATE_KINDS, Predicate, StarClassification, classify_star
from ekrmatch.search import (
    CompatGraph,
    InternalCheckError,
    MaximaOverflowError,
    _index_order,
    _neighbour_rows,
    _orbit_closure,
    _root_subproblems,
    all_max_cliques,
    build_compat_graph,
    extremal,
    max_clique,
)

from test_averaging import averaging_off
from test_signatures import oracle_rows

# (parts, r) at k = 1, 2 and 3
UNIFORM = [((5,), 3), ((3, 4), 2), ((3, 3), 3), ((2, 3, 3), 2), ((3, 3, 3), 2)]


def part_permutations(parts, source, target):
    """Per-part bijections of 1..n_i sending the j-th edge of source to the j-th edge of target."""
    perms = []
    for i, n in enumerate(parts):
        pi = {a[i]: b[i] for a, b in zip(source, target)}
        rest = [x for x in range(1, n + 1) if x not in pi]
        free = [x for x in range(1, n + 1) if x not in pi.values()]
        pi.update(zip(rest, free))
        perms.append(pi)
    return perms


def image_index(universe, perms, m):
    return universe.matching_index([tuple(p[x] for p, x in zip(perms, e)) for e in m])


def maps_rows_onto_themselves(rows, pi):
    return all(rows[pi[u]] == sum(1 << pi[w] for w in range(len(rows)) if row >> w & 1)
               for u, row in enumerate(rows))


@pytest.mark.parametrize("kind", PREDICATE_KINDS)
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("parts,r", UNIFORM, ids=[f"{p}-r{r}" for p, r in UNIFORM])
def test_uniform_graphs_are_vertex_transitive(parts, r, kind, t):
    universe = enumerate_universe(parts, r)
    rows = build_compat_graph(universe, Predicate(kind, t)).rows
    items = universe.items
    for v in range(len(items)):
        perms = part_permutations(parts, items[0], items[v])
        pi = [image_index(universe, perms, m) for m in items]
        assert pi[0] == v
        assert sorted(pi) == list(range(len(items)))
        assert maps_rows_onto_themselves(rows, pi)


@pytest.mark.parametrize("kind", PREDICATE_KINDS)
@pytest.mark.parametrize("parts,r", UNIFORM, ids=[f"{p}-r{r}" for p, r in UNIFORM])
def test_relabelling_generators_are_graph_automorphisms(parts, r, kind):
    universe = enumerate_universe(parts, r)
    rows = build_compat_graph(universe, Predicate(kind, 1)).rows
    generators = relabelling_generators(universe)
    assert [len(g) for g in generators] == [min(n - 1, 2) for n in parts]
    flat = [perm for part in generators for perm in part]
    for perm in flat:
        assert sorted(perm) == list(range(len(universe)))
        assert maps_rows_onto_themselves(rows, perm)
    # together they generate a transitive group: the orbit of vertex 0 is every vertex
    assert sorted(_orbit_closure([1], flat, len(universe))) == [1 << v for v in range(len(universe))]


UNION = [((3, 3), (1, 2)), ((4,), (0, 1, 2, 3, 4)), ((2, 3), (0, 1, 2)), ((3, 3, 3), (1, 2))]


def relabelled_indices(universe):
    """The relabelling generators of `relabelling_generators`, each item's image re-sorted and looked up."""
    out = []
    for i, n in enumerate(universe.parts):
        cycles = ([{1: 2, 2: 1}] if n >= 2 else []) + ([{x: x % n + 1 for x in range(1, n + 1)}] if n >= 3 else [])
        out.append(tuple(
            [universe.matching_index([e[:i] + (pi.get(e[i], e[i]),) + e[i + 1:] for e in m])
             for m in universe.items]
            for pi in cycles))
    return tuple(out)


@pytest.mark.parametrize("parts,sizes", [(p, (r,)) for p, r in UNIFORM] + UNION + [((6, 6), (3,)), ((1, 3), (0, 1))])
def test_relabelling_generators_equal_the_resorting_oracle(parts, sizes):
    universe = enumerate_union_universe(parts, sizes)
    assert relabelling_generators(universe) == relabelled_indices(universe)


@pytest.mark.parametrize("kind", PREDICATE_KINDS)
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("parts,sizes", UNION, ids=[f"{p}-R{s}" for p, s in UNION])
def test_relabellings_map_union_rows_onto_themselves(parts, sizes, kind, t):
    # the premise of the proof phase's roots: the orbits are exactly the edge-count levels
    universe = enumerate_union_universe(parts, sizes)
    graph = build_compat_graph(universe, Predicate(kind, t))
    rows = graph.rows
    flat = [perm for part in relabelling_generators(universe) for perm in part]
    for perm in flat:
        assert sorted(perm) == list(range(len(universe)))
        assert maps_rows_onto_themselves(rows, perm)
    starts = [v for _, v, _ in search._proof_roots(graph, rows)]
    assert starts == [sum(count_matchings(parts, s) for s in sizes if s < r) for r in sizes]
    ends = starts + [len(universe)]
    for lo, hi in zip(ends, ends[1:]):
        orbit = _orbit_closure([1 << lo], flat, len(universe))
        assert sorted(orbit) == [1 << v for v in range(lo, hi)]


@pytest.mark.parametrize("kind", PREDICATE_KINDS)
def test_uniform_rows_equal_pairwise_oracle(kind):
    universe = enumerate_universe((2, 3, 3), 2)
    pred = Predicate(kind, 1)
    assert build_compat_graph(universe, pred).rows == oracle_rows(universe, pred)


def uniform_builtin_cells():
    """(parts, r, predicate) of every uniform cell of the four uniform bound builtins."""
    cells = []
    for name in ("set-intersecting", "intersecting", "permutations", "t-intersecting"):
        for cell in BOUND_CAMPAIGNS[name]:
            assert len(cell.sizes) == 1
            cells.append((cell.parts, cell.sizes[0], cell.pred))
            if cell.weak_twin and len(cell.parts) > 2:
                cells.append((cell.parts, cell.sizes[0], Predicate("weakly-" + cell.pred.kind, cell.pred.t)))
    return cells


SHORTCUT_CELLS = uniform_builtin_cells() + [
    ((4, 4, 4), 3, Predicate("weakly-intersecting", 1)),
    ((4, 4, 4), 4, Predicate("weakly-set-intersecting", 2)),
    ((6, 6), 3, Predicate("intersecting", 1)),
]


def star_seed(universe, pred):
    parts = universe.parts
    if pred.is_set:
        return t_set_star(universe, tuple(tuple(range(1, pred.t + 1)) for _ in parts))
    return t_star(universe, diagonal_matching(parts, pred.t))


@pytest.mark.parametrize("parts,r,pred", SHORTCUT_CELLS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in SHORTCUT_CELLS])
def test_root_zero_search_equals_full_search(parts, r, pred):
    universe = enumerate_universe(parts, r)
    marked = build_compat_graph(universe, pred)
    full = CompatGraph(marked.universe, marked.pred, marked.rows)
    assert marked.transitive and not full.transitive
    nadj = _neighbour_rows(marked)
    assert _root_subproblems(nadj, marked.n)[0] == (0, 0, nadj[0])
    seeds = [None]
    if pred.t <= r:
        seeds.append(star_seed(universe, pred))
    for seed in seeds:
        for workers in (1, 2):
            size, witness, nodes = max_clique(marked, workers=workers, seed=seed)
            want_size, want_witness, want_nodes = max_clique(full, workers=workers, seed=seed)
            assert (size, witness.bits) == (want_size, want_witness.bits)
            if workers == 1:
                assert nodes <= want_nodes
        if seed is not None and len(seed) == size:
            assert witness.bits == seed.bits


def test_union_universe_graphs_keep_every_root():
    universe = enumerate_union_universe((3, 3), (1, 2))
    assert not build_compat_graph(universe, Predicate("intersecting", 1)).transitive


def test_deep_uniform_cell_closes_from_root_zero():
    g = build_compat_graph(enumerate_universe((10,), 4), Predicate("intersecting", 1))
    size, _, nodes = max_clique(g)
    assert size == 84
    assert nodes < 5_000


CLOSURE_CELLS = SHORTCUT_CELLS + [
    ((4, 4), 4, Predicate("set-intersecting", 2)),  # Klein cell: 18 box stars and 6 non-stars
    ((5, 5), 4, Predicate("intersecting", 2)),
    ((3, 3), 3, Predicate("intersecting", 2)),  # degenerate centres: 18 centres, 6 one-member stars
    ((6,), 3, Predicate("intersecting", 1)),  # both paths at k = 1: 6 t-stars and 1,018 non-stars
]


def lexicographic(bitsets, universe):
    return sorted(bitsets, key=lambda bits: Family(universe, bits).indices())


@pytest.mark.parametrize("parts,r,pred", CLOSURE_CELLS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in CLOSURE_CELLS])
def test_orbit_closed_maxima_equal_full_listing(parts, r, pred):
    marked = build_compat_graph(enumerate_universe(parts, r), pred)
    full = CompatGraph(marked.universe, marked.pred, marked.rows)
    size = max_clique(marked)[0]
    want = [f.bits for f in all_max_cliques(full, size)]
    assert [f.bits for f in all_max_cliques(marked, size)] == want
    assert want == lexicographic(want, marked.universe)


# the all-maxima cells of the benchmark's `all-maxima` workload
BENCH_MAXIMA_CELLS = [((6, 6), 3, Predicate("intersecting", 1)), ((5, 5), 4, Predicate("intersecting", 2))]


def test_closure_cells_hold_the_builtin_and_benchmark_cells():
    assert set(uniform_builtin_cells() + BENCH_MAXIMA_CELLS) <= set(CLOSURE_CELLS)


@pytest.mark.parametrize("parts,r,pred", CLOSURE_CELLS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in CLOSURE_CELLS])
def test_orbit_classifications_equal_classify_star(parts, r, pred, monkeypatch):
    calls, real = [], search.classify_star
    monkeypatch.setattr(search, "classify_star", lambda fam, t: calls.append(fam.bits) or real(fam, t))
    rep = extremal(parts, (r,), pred, all_maxima=True)
    # the listing classifies the maxima through vertex 0 alone; the others inherit their orbit's
    assert sorted(calls) == sorted(f.bits for f in rep.maxima if f.bits & 1)
    assert rep.classifications == [classify_star(f, pred.t) for f in rep.maxima]


def test_every_listing_comes_classified():
    klein = build_compat_graph(enumerate_universe((4, 4), 4), Predicate("set-intersecting", 2))
    graphs = {
        "transitive": klein,  # box stars and non-stars
        "hand-built": CompatGraph(klein.universe, klein.pred, klein.rows),
        "union": build_compat_graph(enumerate_union_universe((5,), (1, 2, 3)), Predicate("intersecting", 2)),
        "union-set": build_compat_graph(enumerate_union_universe((4, 4), (2, 3, 4)), Predicate("set-intersecting", 2)),
    }
    for name, graph in graphs.items():
        maxima = all_max_cliques(graph, max_clique(graph)[0])
        kinds = {c.kind for c in maxima.classifications}
        assert maxima.classifications == [classify_star(f, graph.pred.t) for f in maxima], name
        # all but the set-kind union mix kinds, so one kind copied to every maximum would not pass
        assert len(kinds) > 1 or name == "union-set", (name, kinds)


SEED_CELLS = [
    ((3, 3), (2,), Predicate("intersecting", 1)),
    ((5,), (1, 2, 3), Predicate("intersecting", 2)),
    ((3, 3, 3), (2,), Predicate("weakly-intersecting", 2)),
    ((3, 3, 3), (1, 2), Predicate("weakly-intersecting", 1)),
    ((4, 4), (4,), Predicate("set-intersecting", 2)),
    ((4, 4), (2, 3, 4), Predicate("set-intersecting", 2)),
    ((3, 3, 3), (3,), Predicate("weakly-set-intersecting", 2)),
    ((3, 3, 3), (2, 3), Predicate("weakly-set-intersecting", 1)),
]


@pytest.mark.parametrize("parts,sizes,pred", SEED_CELLS,
                         ids=[f"{p}-{s}-{pred}" for p, s, pred in SEED_CELLS])
def test_star_seed_is_the_diagonal_star(parts, sizes, pred, monkeypatch):
    seeds, real = [], search.max_clique
    monkeypatch.setattr(search, "max_clique",
                        lambda graph, budget, workers, seed: seeds.append(seed) or real(graph, budget, workers, seed))
    universe = enumerate_union_universe(parts, sizes)
    rep = extremal(parts, sizes, pred, seed_star=True, universe=universe)
    [seed] = seeds
    assert seed.universe is universe and seed.bits == star_seed(universe, pred).bits
    assert "seeded-with-star" in rep.annotations


def test_klein_cell_kinds_pass_the_tally_check():
    rep = extremal((4, 4), (4,), Predicate("set-intersecting", 2), all_maxima=True)
    assert rep.maxima_count == 24
    assert rep.maxima_kinds == {"t-set-star": 18, "none": 6}


@pytest.mark.parametrize("parts,sizes,pred,kinds", [
    ((3, 3), (3,), Predicate("intersecting", 2), {"t-star": 6}),
    ((6,), (3,), Predicate("intersecting", 1), {"t-star": 6, "none": 1018}),
    ((4, 4, 4), (4,), Predicate("set-intersecting", 2), {"t-set-star": 108}),  # 216 boxes
])
def test_mixed_and_degenerate_kinds_pass_the_tally_check(parts, sizes, pred, kinds):
    rep = extremal(parts, sizes, pred, all_maxima=True)
    assert rep.maxima_kinds == kinds and rep.maxima_count == sum(kinds.values())


def test_closure_overflow_past_the_cap(monkeypatch):
    g = build_compat_graph(enumerate_universe((3, 3), 2), Predicate("intersecting", 1))
    assert len(all_max_cliques(g, 4, cap=9)) == 9
    with pytest.raises(MaximaOverflowError):
        all_max_cliques(g, 4, cap=3)  # 2 maxima through vertex 0, 9 in all
    # the 9 maxima are edge stars: the star path overflows one below the count, holding cap + 1 stars
    made, real = [], search._star_orbit
    monkeypatch.setattr(search, "_star_orbit", lambda *args: (made.append(b) or b for b in real(*args)))
    with pytest.raises(MaximaOverflowError):
        all_max_cliques(g, 4, cap=8)
    assert len(made) == 9
    # the Klein cell overflows in the generator closure after its 18 box stars
    klein = build_compat_graph(enumerate_universe((4, 4), 4), Predicate("set-intersecting", 2))
    assert len(all_max_cliques(klein, 4, cap=24)) == 24
    with pytest.raises(MaximaOverflowError):
        all_max_cliques(klein, 4, cap=23)


def test_double_count_catches_a_partial_closure(monkeypatch):
    # the Klein cell's 6 non-star maxima take the generator closure; part 1's relabellings alone
    # act regularly on the 24 perfect matchings, so the mutation keeps only each part's swap
    g = build_compat_graph(enumerate_universe((4, 4), 4), Predicate("set-intersecting", 2))
    assert len(all_max_cliques(g, 4)) == 24
    swaps_only = lambda universe: tuple(part[:1] for part in relabelling_generators(universe))
    monkeypatch.setattr(search, "relabelling_generators", swaps_only)
    with pytest.raises(InternalCheckError, match="holds 20 maxima"):
        all_max_cliques(g, 4)


def test_double_count_catches_missing_star_centres(monkeypatch):
    # the 36 maxima of (6,6) r=3 are edge stars, listed from their centres without the tables
    g = build_compat_graph(enumerate_universe((6, 6), 3), Predicate("intersecting", 1))
    assert len(all_max_cliques(g, 200)) == 36
    monkeypatch.setattr(search, "relabelling_generators", None)
    assert len(all_max_cliques(g, 200)) == 36
    real = search._star_orbit
    monkeypatch.setattr(search, "_star_orbit", lambda *args: islice(real(*args), 30))
    with pytest.raises(InternalCheckError, match="holds 30 maxima"):
        all_max_cliques(g, 200)


def test_orbit_guard_catches_a_kind_that_depends_on_vertex_zero(monkeypatch):
    # the listing classifies only the maxima through vertex 0; every other maximum inherits its orbit's
    fake = lambda fam, t: StarClassification("t-star" if fam.bits & 1 else "none", t)
    monkeypatch.setattr(search, "classify_star", fake)
    with pytest.raises(InternalCheckError, match="through vertex 0 classifies as .*kind='t-star'"):
        extremal((3, 3), (2,), Predicate("intersecting", 1), all_maxima=True)


def wrong_first_centre(real):
    """`_star_orbit` with the first star given the second star's centre."""
    def orbit(*args):
        pairs = list(real(*args))
        pairs[0] = (pairs[1][0], pairs[0][1])
        return iter(pairs)
    return orbit


@pytest.mark.parametrize("parts,r,pred,mutate", [
    ((5, 5), 4, Predicate("intersecting", 2), wrong_first_centre),
    # each one-member star has three centres: dropping the first leaves item 0 with two
    ((3, 3), 3, Predicate("intersecting", 2), lambda real: lambda *args: islice(real(*args), 1, None)),
], ids=["wrong-centre", "dropped-degenerate-centre"])
def test_orbit_guard_catches_wrong_star_centres(parts, r, pred, mutate, monkeypatch):
    # the first centre's star holds item 0; the count and the kinds stay right, so only the guard sees it
    graph = build_compat_graph(enumerate_universe(parts, r), pred)
    size = max_clique(graph)[0]
    all_max_cliques(graph, size)
    monkeypatch.setattr(search, "_star_orbit", mutate(search._star_orbit))
    with pytest.raises(InternalCheckError, match="through vertex 0 classifies as .*kind='t-star'"):
        all_max_cliques(graph, size)


def test_kind_tally_check_scales_each_kind_through_vertex_zero():
    # (6,) r=3 intersecting:1: 20 vertices, maxima of size 10, and half of each kind through vertex 0
    search._check_kind_tallies({"t-star": 6, "none": 1018}, {"t-star": 3, "none": 509}, 10, 20)
    with pytest.raises(InternalCheckError, match="1018 maxima of kind none but 508 through vertex 0"):
        search._check_kind_tallies({"t-star": 6, "none": 1018}, {"t-star": 3, "none": 508}, 10, 20)


# cells where t > r: item 0 has no signature, so N[0] = {0}
LONE_CELLS = [
    ((4, 4), 2, Predicate("intersecting", 3)),
    ((4, 4, 4), 2, Predicate("weakly-set-intersecting", 3)),
]
ROOT_ROW_CELLS = CLOSURE_CELLS + LONE_CELLS


@pytest.mark.parametrize("parts,r,pred", ROOT_ROW_CELLS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in ROOT_ROW_CELLS])
def test_root_rows_are_full_rows_masked_to_the_closed_neighbourhood(parts, r, pred):
    graph = build_compat_graph(enumerate_universe(parts, r), pred)
    nadj, members = search._root_rows(graph)
    rows = graph.rows
    assert graph.n == len(rows)
    assert members == [v for v in range(graph.n) if rows[0] >> v & 1]
    assert len(nadj) == len(members) and members[0] == 0
    for i, v in enumerate(members):
        local = sum(1 << members[j] for j in range(len(members)) if nadj[i] >> j & 1)
        assert local == rows[v] & rows[0] & ~(1 << v)
    if pred.t > r:
        assert rows[0] == 1 and nadj == [0] and members == [0]


def universe_position_rows(graph):
    """The full neighbour rows, at universe positions: N[0]-local rows as before they existed."""
    return _neighbour_rows(graph), range(graph.n)


@pytest.mark.parametrize("parts,r,pred", ROOT_ROW_CELLS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in ROOT_ROW_CELLS])
def test_searches_on_root_rows_equal_searches_on_full_rows(parts, r, pred, monkeypatch):
    universe = enumerate_universe(parts, r)
    seeds = [None] + ([star_seed(universe, pred)] if pred.t <= r else [])

    def answers():
        graph = build_compat_graph(universe, pred)
        out = []
        for seed in seeds:
            for workers in (1, 2):
                size, witness, nodes = max_clique(graph, workers=workers, seed=seed)
                out.append((size, witness.bits, nodes))
        out.append([f.bits for f in all_max_cliques(graph, out[0][0])])
        return out

    got = answers()
    # the same marked graph, searched on its full rows at universe positions
    monkeypatch.setattr(search, "_root_rows", universe_position_rows)
    assert got == answers()


# (9,) r=4 intersecting:1: with the averaging bound off, its orbital proof takes 314 nodes and runs
# the key pass, but N[0] is a prefix of the universe there; at t = 2, N[0] is not, so the local
# positions move
LOCAL_CELLS = CLOSURE_CELLS + [
    ((9,), 4, Predicate("intersecting", 1)),
    ((8,), 4, Predicate("intersecting", 2)),
    ((9,), 4, Predicate("intersecting", 2)),
]


@pytest.mark.parametrize("parts,r,pred", LOCAL_CELLS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in LOCAL_CELLS])
def test_local_positions_give_the_universe_position_search(parts, r, pred, monkeypatch):
    universe = enumerate_universe(parts, r)
    real = search.atom_orbits
    # listing the 9 maxima of (9,) r=4 intersecting:1 takes about 18 s, so that cell checks the maximum alone
    deep = (parts, pred) == ((9,), Predicate("intersecting", 1))
    if deep:
        averaging_off(monkeypatch)  # the bound closes the cell without a proof

    def answers():
        orbits = []

        def recording(local, atoms, candidates):
            # each orbit the proof takes out, mapped to universe vertices through the local items
            keyed = real(local, atoms, candidates)
            vertex = [universe.matching_index(m) for m in local.items]
            orbits.append(sorted((vertex[v], sum(1 << vertex[w] for w in keyed if bits >> w & 1))
                                 for v, bits in keyed.items()))
            return keyed

        monkeypatch.setattr(search, "atom_orbits", recording)
        graph = build_compat_graph(universe, pred)
        size, witness, nodes = max_clique(graph)
        maxima = None if deep else [f.bits for f in all_max_cliques(graph, size)]
        return size, witness.bits, nodes, maxima, orbits

    got = answers()
    monkeypatch.setattr(search, "_root_rows", universe_position_rows)
    assert got == answers()
    if deep:
        assert got[2] == 314 and got[4]


def test_transitive_cell_builds_no_full_rows_weak_index_or_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    built, real_build = [], search.build_compat_graph

    def recording(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    indexed, real_index = [], search.signature_index
    monkeypatch.setattr(search, "fork_pool", no_pool)
    monkeypatch.setattr(search, "build_compat_graph", recording)
    monkeypatch.setattr(search, "signature_index",
                        lambda items, *rest: indexed.append(len(items)) or real_index(items, *rest))
    universe = enumerate_universe((4, 4, 4), 3)
    pred = Predicate("weakly-intersecting", 1)
    rep = extremal((4, 4, 4), (3,), pred, workers=2, universe=universe)
    assert rep.max_size == 108
    # one index, over N[0]; the universe keeps nothing but its unit postings
    assert indexed == [307]
    assert set(universe.memo) <= {("units", False), ("units", True)}
    [graph] = built
    assert graph._full_rows is None and graph.n == 2304
    assert search._root_rows(graph) is search._root_rows(graph)


def test_row_builds_compute_each_item_signatures_once(monkeypatch):
    calls, real = Counter(), predicates.project_pair

    def counting(m, i, j):
        calls[m] += 1
        return real(m, i, j)

    monkeypatch.setattr(predicates, "project_pair", counting)
    graph = build_compat_graph(enumerate_universe((4, 4, 4), 3), Predicate("weakly-intersecting", 1))
    items = graph.universe.items
    _, members = search._root_rows(graph)
    # item 0's three pair projections give row 0; the index over N[0] reads the unit codes and projects nothing
    assert len(members) == 307
    assert calls == Counter({items[0]: 3})
    calls.clear()
    graph.rows
    assert calls == Counter()
    union = enumerate_union_universe((3, 3, 3), (1, 2))
    for workers in (1, 2):
        build_compat_graph(union, Predicate("weakly-set-intersecting", 1), workers=workers)
        assert calls == Counter()


def test_union_universe_builds_rows_on_first_read(monkeypatch):
    universe = enumerate_union_universe((3, 3, 3), (1, 2))
    pred = Predicate("weakly-intersecting", 1)
    graph = build_compat_graph(universe, pred)
    assert graph._full_rows is None and graph.n == len(universe) == 135
    want = predicates.signature_rows(*predicates.signature_index(universe.items, pred, universe.parts))
    assert graph.rows == want and graph._full_rows is graph.rows
    # at two workers a pool builds the rows in blocks, at once
    pooled = build_compat_graph(universe, pred, workers=2)
    assert pooled._full_rows == want and pooled.symmetric

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(search, "fork_pool", no_pool)
    with pytest.raises(AssertionError, match="worker pool"):
        build_compat_graph(universe, pred, workers=2)


def bitwise_closure(seeds, generators, cap):
    """The orbit closure as it was first written: bit by bit through every generator, in BFS order."""
    queue = list(seeds)
    seen = set(queue)
    for bits in queue:
        for perm in generators:
            image, rest = 0, bits
            while rest:
                low = rest & -rest
                image |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            if image not in seen:
                seen.add(image)
                queue.append(image)
                if len(queue) > cap:
                    raise MaximaOverflowError(cap)
    return queue


CLOSURE_TUPLE_CELLS = [((5, 5), 4, Predicate("intersecting", 2)),
                       ((4, 4, 4), 2, Predicate("weakly-intersecting", 1))]


@pytest.mark.parametrize("parts,r,pred", CLOSURE_TUPLE_CELLS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in CLOSURE_TUPLE_CELLS])
def test_tuple_closure_equals_the_bitwise_closure(parts, r, pred):
    universe = enumerate_universe(parts, r)
    graph = build_compat_graph(universe, pred)
    flat = [perm for part in relabelling_generators(universe) for perm in part]
    size = max_clique(graph)[0]
    through_zero = [f.bits for f in all_max_cliques(graph, size) if f.bits & 1]
    rng = random.Random(len(universe))
    sparse = [sum(1 << v for v in rng.sample(range(len(universe)), 3)) for _ in range(2)]
    for seeds in [through_zero, through_zero[:1], [1], sparse]:
        want = bitwise_closure(seeds, flat, 10**6)
        got = _orbit_closure(seeds, flat, len(want))
        assert set(got) == set(want) and len(got) == len(want)
        assert _index_order(got, len(universe)) == lexicographic(want, universe)
        for closure in (bitwise_closure, _orbit_closure):
            with pytest.raises(MaximaOverflowError):
                closure(seeds, flat, len(want) - 1)
