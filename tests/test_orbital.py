"""Orbital branching in the exact-maximum proof.

The orbit keys of `matchings.atom_orbits` are checked against orbits found by
brute force: every per-part permutation of the vertices, kept when it fixes
each member of the clique.  At k = 1 the key classes are exactly those orbits;
at k >= 2 the atom group misses the coupled stabilisers, so each key class
lies inside one orbit.  The orbital proof is checked against the plain one
(`search.ORBIT_DEPTH` at 0) on symmetric cells of every kind, k and size shape.
"""

import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from ekrmatch import search
from ekrmatch.counts import count_matchings
from ekrmatch.matchings import (
    atom_orbits,
    clique_atoms,
    enumerate_union_universe,
    enumerate_universe,
    relabelling_generators,
)
from ekrmatch.predicates import PREDICATE_KINDS, Predicate
from ekrmatch.search import (
    CompatGraph,
    _neighbour_rows,
    _proof_roots,
    _search_roots,
    _SearchState,
    build_compat_graph,
    max_clique,
)

from test_averaging import averaging_off

BRUTE_CELLS = [((5,), (2,)), ((6,), (1, 2, 3)), ((4, 4), (2,)), ((3, 3, 3), (1,)), ((2, 3, 3), (1, 2))]


def index_permutations(universe):
    """Every per-part vertex permutation as an index permutation of the universe."""
    out = []
    for perms in product(*(permutations(range(1, n + 1)) for n in universe.parts)):
        pis = [dict(zip(range(1, len(p) + 1), p)) for p in perms]
        out.append([universe.matching_index([tuple(pi[x] for pi, x in zip(pis, e)) for e in m])
                    for m in universe.items])
    return out


def member_sets(n, rng):
    """The empty set, every singleton, and a fixed sample of pairs and triples."""
    sets = [()] + [(v,) for v in range(n)]
    sets += rng.sample(list(combinations(range(n), 2)), min(40, n * (n - 1) // 2))
    return sets + [tuple(rng.sample(range(n), 3)) for _ in range(20)]


@pytest.mark.parametrize("parts,sizes", BRUTE_CELLS, ids=[f"{p}-R{s}" for p, s in BRUTE_CELLS])
def test_orbit_keys_against_brute_force_stabiliser_orbits(parts, sizes):
    universe = enumerate_union_universe(parts, sizes)
    n = len(universe)
    perms = index_permutations(universe)
    everything = (1 << n) - 1
    finer = 0
    for members in member_sets(n, random.Random(10)):
        stabiliser = [pi for pi in perms if all(pi[c] == c for c in members)]
        atoms = clique_atoms(universe, sum(1 << c for c in members))
        keyed = atom_orbits(universe, atoms, everything) if atoms else {v: 1 << v for v in range(n)}
        assert sorted(keyed) == list(range(n))
        for v in range(n):
            orbit = sum(1 << w for w in {pi[v] for pi in stabiliser})
            if len(parts) == 1:
                assert keyed[v] == orbit
            else:
                assert keyed[v] & ~orbit == 0
                finer += keyed[v] != orbit
        if atoms and len(parts) > 1:
            # the group is the symmetric group on each part's vertices no member uses
            for i, atom in enumerate(atoms):
                used = {e[i] for c in members for e in universe.items[c]}
                free = [x for x in range(1, parts[i] + 1) if x not in used]
                assert all(atom[x] == (x if x in used else free[0]) for x in range(1, parts[i] + 1))
    if parts == (4, 4):
        assert finer  # the coupled stabilisers, e.g. the diagonal swap fixing {(1,1),(2,2)}, are missed


def test_atom_orbits_partition_the_candidates():
    universe = enumerate_universe((7,), 3)
    atoms = clique_atoms(universe, 1 | 1 << 20)
    candidates = sum(1 << v for v in range(0, len(universe), 3))
    keyed = atom_orbits(universe, atoms, candidates)
    assert sum(1 << v for v in keyed) == candidates
    assert all(orbit & ~candidates == 0 and orbit >> v & 1 for v, orbit in keyed.items())
    assert all(keyed[u] == orbit for orbit in set(keyed.values()) for u in keyed if orbit >> u & 1)


def symmetric_cells(limit):
    """(parts, sizes) of k = 1..4, uniform and contiguous unions from 0 or 1, at most limit vertices."""
    out = []
    for k in range(1, 5):
        for parts in combinations_with_replacement(range(1, 9), k):
            for lo in range(min(parts) + 1):
                for hi in range(max(lo, 1), min(parts) + 1):
                    sizes = tuple(range(lo, hi + 1))
                    if (len(sizes) == 1 or lo <= 1) and \
                            sum(count_matchings(parts, r) for r in sizes) <= limit:
                        out.append((parts, sizes))
    return out


def proofs(graph, monkeypatch):
    """max_clique's (size, witness bits, nodes) with orbital branching, then with the plain proof."""
    size, witness, nodes = max_clique(graph)
    with monkeypatch.context() as mp:
        mp.setattr(search, "ORBIT_DEPTH", 0)
        plain = max_clique(graph)
    return (size, witness.bits, nodes), (plain[0], plain[1].bits, plain[2])


def test_orbital_proof_equals_plain_proof(monkeypatch):
    # every kind at t = 1..3 on each cell of at most 40 vertices with parts up to 8;
    # at k = 2 and 3 the colouring bound rarely leaves a node that branches twice
    fewer = more = 0
    for parts, sizes in symmetric_cells(40) + [((4, 6), (4,)), ((4, 7), (4,))]:
        universe = enumerate_union_universe(parts, sizes)
        kinds = PREDICATE_KINDS if len(parts) > 1 else PREDICATE_KINDS[:1]  # all four agree at k = 1
        for kind, t in product(kinds, (1, 2, 3)):
            orbital, plain = proofs(build_compat_graph(universe, Predicate(kind, t)), monkeypatch)
            assert orbital[:2] == plain[:2], (parts, sizes, kind, t)
            fewer += orbital[2] < plain[2]
            more += orbital[2] > plain[2]
    assert fewer and not more


FRONTIER = [((9,), (4,), 1), ((10,), (4,), 1), ((8,), (4,), 2), ((6,), (1, 2, 3, 4, 5, 6), 2)]


@pytest.mark.parametrize("parts,sizes,t", FRONTIER, ids=[f"{p}-R{s}-t{t}" for p, s, t in FRONTIER])
def test_orbital_proof_equals_plain_proof_on_deeper_cells(parts, sizes, t, monkeypatch):
    averaging_off(monkeypatch)  # it closes the t = 1 cells without a proof
    graph = build_compat_graph(enumerate_union_universe(parts, sizes), Predicate("intersecting", t))
    orbital, plain = proofs(graph, monkeypatch)
    assert orbital[:2] == plain[:2] and orbital[2] < plain[2]


def pair_orbits(universe):
    """The orbits of vertex pairs under the part relabellings, by union-find over the generators."""
    generators = [g for part in relabelling_generators(universe) for g in part]
    parent = {}

    def find(pair):
        while parent.get(pair, pair) != pair:
            pair = parent[pair]
        return pair

    pairs = list(combinations(range(len(universe)), 2))
    for u, v in pairs:
        for g in generators:
            a, b = find((u, v)), find(tuple(sorted((g[u], g[v]))))
            if a != b:
                parent[a] = b
    orbits = {}
    for pair in pairs:
        orbits.setdefault(find(pair), []).append(pair)
    return list(orbits.values())


INVARIANT_CELLS = [((4, 4), (2,)), ((2, 3, 3), (1, 2)), ((3, 3, 3), (1,)), ((3, 4), (1, 2)),
                   ((5,), (1, 2, 3))]


def test_orbital_kernel_on_random_invariant_graphs(monkeypatch):
    # a random union of pair orbits colours loosely, so the proof branches often at k >= 2 too
    passes = []
    real = search.atom_orbits
    monkeypatch.setattr(search, "atom_orbits", lambda *args: passes.append(args[0].k) or real(*args))
    rng, nodes = random.Random(11), [0, 0]
    for parts, sizes in INVARIANT_CELLS:
        universe = enumerate_union_universe(parts, sizes)
        orbits = pair_orbits(universe)
        for density in (0.3, 0.6, 0.85) * 3:
            rows = [1 << v for v in range(len(universe))]
            for u, v in (pair for orbit in orbits if rng.random() < density for pair in orbit):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            graph = CompatGraph(universe, Predicate("intersecting", 1), rows)
            nadj = _neighbour_rows(graph)
            best = 0
            for root in _proof_roots(graph, nadj):
                plain = _SearchState(budget=10**7, renumber=True)
                orbital = _SearchState(budget=10**7, renumber=True, relabel=universe)
                _search_roots(nadj, [root], plain)
                _search_roots(nadj, [root], orbital)
                assert orbital.best == plain.best
                best = max(best, orbital.best)
                nodes[0] += orbital.nodes
                nodes[1] += plain.nodes
            assert best == max_clique(graph)[0]  # the unmarked graph's single search
    assert 1 in passes and {2, 3} <= set(passes)
    assert nodes[0] < nodes[1]


def test_trivial_atom_group_skips_the_key_pass(monkeypatch):
    # perfect matchings at k >= 2: one member uses every vertex, so every atom is a singleton
    calls = []
    real = search.clique_atoms

    def spy(universe, members):
        calls.append(real(universe, members))
        return calls[-1]

    def no_keys(*args):
        raise AssertionError("orbit keys computed for a trivial group")

    monkeypatch.setattr(search, "clique_atoms", spy)
    monkeypatch.setattr(search, "atom_orbits", no_keys)
    # (6,6) r=6 intersecting:2: no field of 6 elements, so no averaging bound skips the proof
    graph = build_compat_graph(enumerate_universe((6, 6), 6), Predicate("intersecting", 2))
    assert max_clique(graph)[0] == 24
    assert calls and all(atoms is None for atoms in calls)


def test_keys_only_at_nodes_that_branch_twice(monkeypatch):
    passes = []
    real = search.atom_orbits

    def counting(universe, atoms, candidates):
        passes.append(candidates)
        return real(universe, atoms, candidates)

    monkeypatch.setattr(search, "atom_orbits", counting)
    graph = build_compat_graph(enumerate_universe((8,), 4), Predicate("intersecting", 2))
    _, _, nodes = max_clique(graph)
    assert 0 < len(passes) < nodes
