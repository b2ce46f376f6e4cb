"""The group-averaging bound at the proof's root.

The candidate sets are checked on their own: the cyclic class intervals by
their size and the classes they come from, AGL(1, q) and PGL(2, q) by their
size and by meeting in fewer than t edges.  The field tables behind both
groups are checked against the field axioms by brute force, and the groups
against the integer and GF(2) arithmetic they were first built from.  The bound is checked against the
maximum that the proof finds without it, and against `max_clique_naive`
where the graph is small, on every transitive builtin and benchmark cell and
on random small cells.  The rows of each set are checked against
`pair_checker`.
"""

import functools
import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from ekrmatch import constructions, search
from ekrmatch.constructions import (
    _field,
    affine_line_group,
    averaging_sets,
    cyclic_class_intervals,
    projective_line_group,
)
from ekrmatch.counts import t_star_size
from ekrmatch.matchings import Family, Universe, enumerate_union_universe, enumerate_universe
from ekrmatch.predicates import PREDICATE_KINDS, Predicate, family_satisfies, pair_checker
from ekrmatch.search import (
    CompatGraph,
    InternalCheckError,
    _averaging_bound,
    _SearchState,
    build_compat_graph,
    extremal,
    max_clique,
    max_clique_naive,
)


def averaging_off(monkeypatch):
    """No candidate sets: `max_clique` proves every maximum by search, as before the bound."""
    monkeypatch.setattr(constructions, "averaging_sets", lambda universe, pred: [])


@functools.cache
def permutations_of(n):
    return enumerate_universe((n, n), n)


def bound_of(graph):
    return _averaging_bound(graph, _SearchState(budget=10**9))


# ---------------------------------------------------------------------------
# the candidate sets


@pytest.mark.parametrize("parts,r", [((7,), 3), ((10,), 4), ((6,), 6), ((4, 6), 2), ((4, 6), 4),
                                     ((6, 4, 5), 2), ((3, 3, 3), 3), ((6, 6), 3)])
def test_cyclic_class_intervals_are_the_intervals_of_every_class(parts, r):
    universe = enumerate_universe(parts, r)
    family = cyclic_class_intervals(universe)
    n = min(parts)
    p = parts.index(n)
    classes = 1
    for i, m in enumerate(parts):
        classes *= m if i != p else 1
    assert len(family) == classes * (1 if r == n else n)
    owner = {}  # each edge lies in one class, read off its coordinates
    for m in family.members():
        assert len(m) == r
        keys = {tuple((e[i] - e[p]) % parts[i] for i in range(len(parts))) for e in m}
        assert len(keys) == 1
        # the part-p coordinates form a cyclic interval of Z_n
        ys = {e[p] - 1 for e in m}
        assert any(ys == {(s + j) % n for j in range(r)} for s in range(n))
        for e in m:
            assert owner.setdefault(e, keys) == keys


def test_cyclic_class_intervals_read_the_sorted_items_without_the_index(monkeypatch):
    real, calls = constructions.cyclic_class_intervals, []
    monkeypatch.setattr(constructions, "cyclic_class_intervals", lambda u: calls.append(u) or real(u))
    universe = enumerate_universe((6, 6), 3)
    rep = extremal((6, 6), (3,), Predicate("intersecting", 1), universe=universe)
    assert rep.max_size == t_star_size((6, 6), 3, 1) and calls == [universe]
    assert Universe.__slots__ == ("parts", "sizes", "items", "memo")  # no lookup table: every interval is bisected
    # an interval missing from the items raises, as an index lookup would
    family = real(universe)
    gap = Universe(universe.parts, universe.sizes, [m for m in universe.items if m != family.members()[0]])
    with pytest.raises(KeyError):
        real(gap)


AGL_ORDERS = [2, 3, 4, 5, 7, 8]
PGL_ORDERS = [2, 3, 4, 5, 7]
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
NO_FIELD = [1, 6, 10, 12, 15]


def meet(p, q):
    return len(set(p) & set(q))


@pytest.fixture(scope="module")
def s9():
    return permutations_of(9)


def assert_sharply_transitive(family, n, t):
    """n(n-1)...(n-t+1) members, no two meeting in t points: each ordered t-tuple goes to each exactly once."""
    size = 1
    for i in range(t):
        size *= n - i
    assert len(family) == size
    assert all(meet(a, b) < t for a, b in combinations(family.members(), 2))


# ---------------------------------------------------------------------------
# the field tables


@pytest.mark.parametrize("q", range(33))
def test_field_tables_are_a_field_exactly_at_prime_powers(q):
    field = _field(q)
    if q not in PRIME_POWERS:
        assert field is None
        return
    add, mul = field
    els = range(q)
    for op in (add, mul):
        assert all(op[a][b] == op[b][a] for a in els for b in els)
        assert all(op[op[a][b]][c] == op[a][op[b][c]] for a in els for b in els for c in els)
    assert all(mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]] for a in els for b in els for c in els)
    assert add[0] == mul[1] == list(els)
    assert all(0 in add[a] for a in els) and all(1 in mul[a] for a in els if a)


@pytest.mark.parametrize("q", NO_FIELD)
def test_both_groups_need_a_prime_power(q):
    # only the universe's shape is read before the field is asked for, so no S_10 or S_16 is built
    assert _field(q) is None
    with pytest.raises(ValueError, match="not a prime power"):
        affine_line_group(SimpleNamespace(parts=(q, q), sizes=(q,)))
    with pytest.raises(ValueError, match="not a prime power"):
        projective_line_group(SimpleNamespace(parts=(q + 1, q + 1), sizes=(q + 1,)))


def oracle_field_ops(q):
    """(add, mul) on 0..q-1: integers mod q for q prime, else polynomials over GF(2) for q = 4 or 8."""
    if all(q % d for d in range(2, q)):
        return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q)
    modulus = {4: 0b111, 8: 0b1011}[q]

    def mul(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & q:
                a ^= modulus
        return out

    return (lambda a, b: a ^ b), mul


def oracle_projective_line_group(universe, p):
    """PGL(2, p), p prime, through mod-p arithmetic and `pow` for the inverse."""
    def image(a, b, c, d, x):
        num, den = (a, c) if x == p else ((a * x + b) % p, (c * x + d) % p)
        return p if den == 0 else num * pow(den, -1, p) % p

    perms = {tuple(image(a, b, c, d, x) for x in range(p + 1))
             for a, b, c, d in product(range(p), repeat=4) if (a * d - b * c) % p}
    return Family.from_matchings(universe, ([(x + 1, y + 1) for x, y in enumerate(s)] for s in perms))


@pytest.mark.parametrize("q", AGL_ORDERS)
def test_affine_line_group_equals_the_integer_and_binary_oracle(q):
    universe = permutations_of(q)
    add, mul = oracle_field_ops(q)
    oracle = Family.from_matchings(universe, ([(x + 1, add(mul(a, x), b) + 1) for x in range(q)]
                                              for a in range(1, q) for b in range(q)))
    assert affine_line_group(universe).bits == oracle.bits


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_line_group_equals_the_mod_p_oracle(p):
    universe = permutations_of(p + 1)
    assert projective_line_group(universe).bits == oracle_projective_line_group(universe, p).bits


# ---------------------------------------------------------------------------
# the groups


@pytest.mark.parametrize("q", AGL_ORDERS)
def test_affine_line_group_is_sharply_two_transitive(q):
    family = affine_line_group(permutations_of(q))
    members = family.members()
    assert len(family) == q * (q - 1)
    assert all(meet(a, b) < 2 for a, b in combinations(members, 2))
    # sharply: each ordered pair of points goes to each ordered pair of points exactly once
    images = [dict(m) for m in members]
    for x, y, u, v in product(range(1, q + 1), repeat=4):
        if x != y and u != v:
            assert sum(s[x] == u and s[y] == v for s in images) == 1


@pytest.mark.parametrize("q", PGL_ORDERS)
def test_projective_line_group_is_sharply_three_transitive(q):
    assert_sharply_transitive(projective_line_group(permutations_of(q + 1)), q + 1, 3)


def test_groups_over_the_new_fields_are_sharply_transitive(s9):
    assert_sharply_transitive(affine_line_group(s9), 9, 2)
    assert_sharply_transitive(projective_line_group(s9), 9, 3)


@pytest.mark.parametrize("n", range(2, 9))
def test_groups_bound_every_small_permutation_cell_at_the_star(n):
    # AGL(1, n) at t = 2 and PGL(2, n - 1) at t = 3 exist exactly where the field does
    for t, q in ((2, n), (3, n - 1)):
        if t <= n:
            graph = build_compat_graph(permutations_of(n), Predicate("intersecting", t), cap=50_000)
            assert bound_of(graph) == (t_star_size((n, n), n, t) if _field(q) else None)


def test_sharply_transitive_sets_need_their_universe():
    with pytest.raises(ValueError):
        affine_line_group(permutations_of(6))
    with pytest.raises(ValueError):
        projective_line_group(permutations_of(7))
    with pytest.raises(ValueError):
        affine_line_group(enumerate_universe((5, 5), 4))


def test_candidate_sets_are_built_only_where_they_can_reach_the_star():
    sizes = lambda parts, r, pred: [len(f) for f in averaging_sets(enumerate_universe(parts, r),
                                                                  Predicate.parse(pred))]
    assert sizes((10,), 4, "intersecting:1") == [10]
    assert sizes((9,), 5, "intersecting:1") == []  # 2r > n: any two intervals meet
    assert sizes((5,), 5, "intersecting:1") == [1]
    assert sizes((8,), 4, "intersecting:2") == []
    assert sizes((5, 5), 5, "intersecting:2") == [20]
    assert sizes((6, 6), 6, "intersecting:2") == []
    assert sizes((6, 6), 6, "weakly-intersecting:3") == [120]
    assert sizes((6, 6), 6, "set-intersecting:3") == []
    assert sizes((5, 5), 5, "intersecting:3") == [60]  # PGL(2, 4)


# ---------------------------------------------------------------------------
# soundness: the bound is at least the maximum


def assert_sound(graph, monkeypatch):
    """The bound of a transitive graph is at least its maximum; returns (bound, maximum)."""
    assert graph.transitive
    bound = bound_of(graph)
    with monkeypatch.context() as mp:
        averaging_off(mp)
        size, witness, _ = max_clique(graph)
    assert bound is None or bound >= size, (graph.universe.key, graph.pred)
    if graph.n <= 40:
        assert max_clique_naive(graph)[0] == size
    assert max_clique(graph)[:2] == (size, witness)
    return bound, size


def test_bound_is_at_least_the_maximum_on_every_transitive_builtin_cell(monkeypatch):
    from test_two_phase import builtin_graphs

    tight = bounded = 0
    for graph in builtin_graphs():
        if graph.transitive:
            bound, size = assert_sound(graph, monkeypatch)
            bounded += bound is not None
            tight += bound == size
    assert bounded >= 6 and tight >= 5


BENCH_CELLS = [((4, 4, 4), 3, "weakly-intersecting:1"), ((6, 6), 3, "intersecting:1"),
               ((4, 4, 4), 4, "weakly-set-intersecting:2"), ((10,), 4, "intersecting:1"),
               ((5, 5), 4, "intersecting:2"), ((4, 4, 4), 2, "weakly-intersecting:1"),
               ((6, 6), 3, "set-intersecting:1"), ((7, 7), 7, "intersecting:2"),
               ((4, 6), 4, "intersecting:1"), ((3, 3, 3), 3, "weakly-intersecting:1")]


@pytest.mark.parametrize("parts,r,pred", BENCH_CELLS, ids=[f"{p}-r{r}-{pred}" for p, r, pred in BENCH_CELLS])
def test_bound_is_at_least_the_maximum_on_bench_cells(parts, r, pred, monkeypatch):
    assert_sound(build_compat_graph(enumerate_universe(parts, r), Predicate.parse(pred)), monkeypatch)


def test_bound_is_at_least_the_maximum_on_random_cells(monkeypatch):
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        k = rng.choice((1, 1, 2, 2, 3))
        parts = tuple(sorted(rng.randint(2, 8 if k == 1 else 5 if k == 2 else 3) for _ in range(k)))
        r = rng.randint(1, min(parts))
        if k == 2 and rng.random() < 0.3:
            parts, r = (parts[1],) * 2, parts[1]
        pred = Predicate(rng.choice(PREDICATE_KINDS), rng.choice((1, 1, 2, 3)))
        universe = enumerate_universe(parts, r)
        if pred.t > r or len(universe) > 400 or not averaging_sets(universe, pred):
            continue
        assert_sound(build_compat_graph(universe, pred), monkeypatch)
        checked += 1


CHECKED_SETS = [((10,), 4, "intersecting:1"), ((6, 6), 3, "intersecting:1"),
                ((6, 6), 3, "set-intersecting:1"), ((4, 4, 4), 2, "weakly-intersecting:1"),
                ((4, 4, 4), 2, "weakly-set-intersecting:1"), ((3, 4, 5), 3, "weakly-intersecting:1"),
                ((5, 5), 5, "intersecting:2"), ((4, 4), 4, "weakly-intersecting:3"),
                ((6, 6), 6, "intersecting:3"), ((5, 5), 5, "intersecting:3")]


@pytest.mark.parametrize("parts,r,pred", CHECKED_SETS,
                         ids=[f"{p}-r{r}-{pred}" for p, r, pred in CHECKED_SETS])
def test_signature_rows_of_each_set_equal_pair_checker_rows(parts, r, pred, monkeypatch):
    universe, pred = enumerate_universe(parts, r), Predicate.parse(pred)
    seen = []
    real = search.signature_rows
    monkeypatch.setattr(search, "signature_rows", lambda *args: seen.append(real(*args)) or seen[-1])
    graph = build_compat_graph(universe, pred)
    families = averaging_sets(universe, pred)
    assert families and bound_of(graph) is not None
    check = pair_checker(pred, universe.k)
    assert len(seen) == len(families)
    for family, rows in zip(families, seen):
        members = family.members()
        assert rows == [sum(1 << j for j, b in enumerate(members) if i == j or check(a, b))
                        for i, a in enumerate(members)]


# ---------------------------------------------------------------------------
# use in max_clique


def proof_runs(monkeypatch):
    """Spy on the proof: the list of its root calls, one per proof."""
    runs = []
    real = search._proof_roots
    monkeypatch.setattr(search, "_proof_roots", lambda graph, nadj: runs.append(1) or real(graph, nadj))
    return runs


def test_tight_bound_skips_the_proof(monkeypatch):
    graph = build_compat_graph(enumerate_universe((10,), 4), Predicate("intersecting", 1))
    runs = proof_runs(monkeypatch)
    plain = max_clique(graph)
    assert runs == [] and bound_of(graph) == plain[0] == 84
    averaging_off(monkeypatch)
    full = max_clique(graph)
    assert runs == [1] and full[:2] == plain[:2]


def test_loose_bound_stops_the_proof(monkeypatch):
    # Katona's cycle at (8,) r=4 intersecting:2 holds 3 pairwise 2-intersecting intervals of 8: a
    # sound bound of 70 * 3 // 8 = 26, above the maximum 17 and the star 15, so the proof runs to 17
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    monkeypatch.setattr(constructions, "averaging_sets",
                        lambda universe, pred: [cyclic_class_intervals(universe)])
    stops = []
    real = search._search_roots
    monkeypatch.setattr(search, "_search_roots",
                        lambda nadj, roots, state: stops.append(state.stop) or real(nadj, roots, state))
    size, witness, _ = max_clique(graph)
    assert bound_of(graph) == 26 and 26 in stops and size == 17
    averaging_off(monkeypatch)
    assert max_clique(graph)[:2] == (size, witness)


def test_seed_of_the_bound_size_builds_no_row(monkeypatch):
    from test_symmetry import star_seed

    graph = build_compat_graph(enumerate_universe((11,), 5), Predicate("intersecting", 1))
    seed = star_seed(graph.universe, graph.pred)
    monkeypatch.setattr(search, "_plan", lambda graph: pytest.fail("the search planned its rows"))
    size, witness, _ = max_clique(graph, seed=seed)
    assert size == len(seed) == 210 and witness.bits == seed.bits


def test_nodes_include_the_clique_number_search(monkeypatch):
    graph = build_compat_graph(enumerate_universe((10,), 4), Predicate("intersecting", 1))
    state = _SearchState(budget=10**9)
    _averaging_bound(graph, state)
    size, witness, nodes = max_clique(graph)
    assert state.nodes > 0 and nodes > state.nodes
    with pytest.raises(search.NodeBudgetExceeded):
        max_clique(graph, node_budget=state.nodes - 1)
    assert max_clique(graph, node_budget=nodes)[:2] == (size, witness)


def test_bound_is_never_applied_to_an_unmarked_or_union_graph(monkeypatch):
    calls = []
    monkeypatch.setattr(constructions, "averaging_sets", lambda universe, pred: calls.append(universe) or [])
    built = build_compat_graph(enumerate_universe((7,), 3), Predicate("intersecting", 1))
    max_clique(CompatGraph(built.universe, built.pred, built.rows))
    max_clique(build_compat_graph(enumerate_union_universe((7,), (2, 3)), Predicate("intersecting", 1)))
    assert calls == []
    max_clique(built)
    assert calls == [built.universe]


def test_bound_below_the_incumbent_is_an_internal_error(monkeypatch):
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    monkeypatch.setattr(search, "_averaging_bound", lambda graph, state: 14)
    with pytest.raises(InternalCheckError, match="averaging bound 14 is below"):
        max_clique(graph)


def test_proof_clique_above_the_bound_is_an_internal_error(monkeypatch):
    # (8,) r=4 intersecting:2 has maximum 17 over a star of 15; the proof's first clique above 15 has 17
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    monkeypatch.setattr(search, "_averaging_bound", lambda graph, state: 16)
    with pytest.raises(InternalCheckError, match="size 17 above the averaging bound 16"):
        max_clique(graph)


# ---------------------------------------------------------------------------
# frontier cells the bound closes


def test_katona_frontier_cell_closes_with_the_star_seed():
    rep = extremal((11,), (5,), Predicate("intersecting", 1), seed_star=True, node_budget=1000)
    assert rep.max_size == rep.formula_value == 210
    assert family_satisfies(rep.witness, Predicate("intersecting", 1))


def test_s7_at_t2_closes_at_the_affine_bound():
    graph = build_compat_graph(permutations_of(7), Predicate("intersecting", 2))
    size, witness, nodes = max_clique(graph, node_budget=1000)
    assert size == len(witness) == 120 and family_satisfies(witness, graph.pred)


def test_s8_at_t3_closes_at_the_projective_bound():
    graph = build_compat_graph(permutations_of(8), Predicate("intersecting", 3), cap=50_000)
    size, witness, nodes = max_clique(graph, node_budget=1000)
    assert size == len(witness) == 120 and family_satisfies(witness, graph.pred)
    assert bound_of(graph) == 120

