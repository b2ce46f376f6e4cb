"""Exact maximum-family search via maximum cliques of compatibility graphs.

A compatibility graph has one vertex per universe matching and an edge where
the pairwise predicate holds, so maximum predicate-satisfying families are
exactly maximum cliques.  Two matchings satisfy any of the four predicates
exactly when they share a t-signature in every component
(`predicates.signatures`), so a vertex's row is the AND over components of
the OR of its signatures' index entries (`predicates.signature_rows`); no
pair of matchings is compared.  The index keys each signature by its edges
(plain intersecting) or by a small int, the sum of its units' codes read
per edge off a table built once per part structure
(`predicates.signature_index`), so no matching is projected or boxed to
build a row.  One branch-and-bound kernel over bit-rows
(Python ints), `_branch`, runs every search under a node budget.  With a
greedy-colouring bound and degeneracy root ordering it finds the maximum
clique and, holding its incumbent one below the maximum, lists all maximum
cliques; with the Re-NUMBER bound and orbital branching it proves the
maximum of the predicate's graph, one built without rows (below).  Workers
each search a strided chunk of the roots under one incumbent, and the budget
bounds their summed nodes.  All tie-breaking is by lowest vertex index, so
results are deterministic; the reported witness is the first maximum clique
in the fixed depth-first order, which is also independent of the worker
count.

Under the greedy colouring a clique candidate set closes in one step
(`_close_clique`), and its chain's nodes are still counted.  A candidate set
P gets one colour per vertex exactly when it is a clique: each class starts
at the lowest candidate left, which then has no non-neighbour left.  The
subtree of such a node R is one chain.  It branches on the highest
candidate, whose candidates are the rest of P, down to the leaf R + P; once
that leaf is recorded, the incumbent (or, in a listing, the held size one
below the maximum) prunes every later branch of the chain.  So the kernel
returns at once when |R| + |P| is at most the incumbent, as the chain's
first bound test would.  Otherwise it adds the chain's |P| - 1 further nodes
to the count and records R + P as the leaf would, with the same witness
stop, listing checks and cap.  A budget that the chain would pass raises at
the same node, budget + 1.  The node counts, witnesses, maxima and
exceptions are those of the walked chain.  The Re-NUMBER proof walks its
chains: a clique candidate set above its incumbent means a larger clique,
which is rare there.

Under the greedy colouring a node's first child may inherit its colouring.
The greedy colouring, class by class with each class filled in ascending
index order, is first-fit in index order: each vertex takes the least class
that holds no lower-index neighbour.  The first branch is on v, the last
vertex of the top class.  When v sees every other candidate, the child's
candidate set is P without v, and so is its colouring: a vertex below v never
reads v, and a vertex above v could read v only if its own class were v's,
the top one, of which v is the highest member.  The child reads the first
end - 1 entries of the parent's order and colours, passed down as the lists
and an end index, not as slices, which would hold O(depth * |P|) entries on
a long path.  The colouring is the one the child would compute, so the tree,
node counts, witnesses, maxima and budget exceptions do not change.  On a
tight cell the witness search is one path of w - 1 nodes, most of which drop
only their branched vertex, so it colours in full only where more leave.
The witness search, the listing, the unmarked search and the averaging
bound's omega(G[S]) inherit alike.  Re-NUMBER moves vertices between
classes, so the proof colours every node in full.

The predicate's graph on a uniform universe (one edge count) is searched from
the root at vertex 0 alone, serially.  The group S_{n_1} x ... x S_{n_k} of
per-part vertex permutations acts transitively on the r-edge matchings, and
all four predicates are invariant under it, so the graph is vertex-transitive
and some maximum clique contains vertex 0.  The bits are those of the full
search: a vertex-transitive graph is regular, so the degeneracy order takes
vertex 0 first (lowest index on the tie), every neighbour of vertex 0 comes
later, and the full search's first root is exactly (0, 0, nadj[0]).  That root
reaches the maximum; later roots replace the witness only by a strictly
larger clique, which cannot exist, so the witness is the first maximum under
root 0.  With a seed clique, nothing beats the seed in either search and the
seed stays the witness.  Only the node count shrinks.  Graphs built by hand
and union universes (several edge counts, not transitive) search every root.

The root-0 searches read only the rows of N[0], masked to N[0] and
renumbered to it, so a transitive graph builds no other row and every AND
works on |N[0]| bits rather than |V| (`_root_rows`; San Segundo,
Rodriguez-Losada and Jimenez, Comput. Oper. Res. 2011).  Every read of a row
nadj[v] in `_branch`, `_colour_order` and `_renumber_order` is ANDed with a
candidate set, and every candidate set lies inside N(0): the
root's is nadj[0], and each child's is its parent's ANDed with a row.  So
rows masked to N[0] give the same search.  Bit i of a local row stands for
members[i], the i-th vertex of N[0] in ascending order (members[0] = 0).
That map is monotone, so every lowest-index tie-break picks the same vertex:
the colourings, the depth-first tree, the node count and, mapped back
through members, the witness and the maxima through vertex 0 are those of
the full rows.  The proof's atom groups read the matchings of N[0] at their
local positions, so its orbits, mapped back, are the same too.  Row 0 is
read off the edge postings (`predicates.holders`), and the rows of N(0) come
from a signature index over the items of N[0] alone, which sets bit i for
the i-th item.  Such a graph builds its full rows only when they are read,
through `CompatGraph.rows`.

All maxima of a transitive graph come the same way: the kernel lists the m0
maxima through vertex 0 from the root (0, 0, nadj[0]), and their orbits under
the group give the full list.  Every image of a maximum is a maximum, since
the group preserves the predicate, and every maximum C is an image of one
through vertex 0, since some group element sends a vertex of C to vertex 0
(Godsil and Meagher, cited below).  Each maximum through vertex 0 is
classified (`predicates.classify_star`), and one that no orbit listed so far
holds adds its orbit.  A relabelling g maps the star of a t-edge centre c
onto the star of g(c), and the group acts transitively on the t-edge
matchings, so the orbit of a full t-star is the full star of every t-edge
matching; likewise the orbit of a t-set-star is the box star of every box of
per-part t-sets.  These are read off the edge postings (`_star_orbit`), and
equal stars of distinct centres count once.  Only a maximum of another kind
(none, or a weak star) is closed by a breadth-first search under generators
of the group (per part the swap (1 2) and the n_i-cycle,
`matchings.relabelling_generators`), whose index tables are built only then.
The members of an orbit inherit their classification rather than being
classified again.  A star's centres are the centres that `_star_orbit` gives
it, in ascending order as `classify_star` lists them; every member of a
generator closure shares its seed's classification, since the kind, the
box-star flag of a weak t-set-star and the notes are invariant under the
relabellings.  The list is sorted in the order of `Family.indices`
(`_index_order`), so its order, and everything read from it, does not
depend on the path.  Three checks that fail only through an engine bug guard
the path.  Each maximum through vertex 0, a share size / |V| of the list,
must get from `classify_star` exactly the classification its orbit gave it,
so a wrong or missing centre there is caught.  By double counting the pairs
(vertex, maximum containing it), the list must hold exactly |V| * m0 / size
maxima, which a generator set too small for the group, or too few star
centres, would miss.  The star kind is invariant too, so the listing
requires each kind's tally times the size to equal |V| times that kind's
tally among the maxima through vertex 0.  The maxima of any other graph are
each classified by `classify_star`, so every listing comes classified.  The
node budget bounds the root-0 listing.  The cap bounds the orbits, which
make the whole list, so it overflows exactly when the full listing would,
with at most cap + 1 maxima held.

A graph built without rows, as `build_compat_graph` builds it, is the
predicate's graph on a whole (union) universe, so the part relabellings map
it onto itself, and it is marked symmetric.  Its maximum comes in two phases,
the proof first.  A graph given its rows is built by hand: it is never
marked, and it gets the single search above on those rows.  The proof phase
is the kernel with `_SearchState.renumber` and `relabel` set, from the
incumbent max(seed size, s), where s is the star bound
(`star_formula_value`).  A star is a clique of size s, so nothing is lost
below it, and the proof ends at the maximum w.  It colours by MCS
Re-NUMBER (Tomita et al., WALCOM 2010): with kmin = incumbent - depth, the
first kmin greedy classes are never branched on, and a vertex past them
first tries to join one of them, directly or by moving its single
conflicting neighbour there to a later class up to kmin.
The listing keeps the greedy bound, which costs less at its incumbent.  The
proof's roots, one per orbit of the relabelling group, go through
`_search_roots` too.  The group acts transitively on each edge-count level,
so the orbits are the levels, and root i is the lowest index of level i with
its neighbours outside the earlier levels: a clique whose lowest level is i
has an image through root i, and that image avoids the earlier levels too.  A
transitive graph has the one root (0, nadj[0]).

On a transitive graph the proof reads a group-averaging bound first.  The
part relabellings act transitively on V and preserve adjacency, so for any
vertex set S and any clique C, averaging |C & gS| over the relabellings g
gives |C| * |S| / |V| <= omega(G[S]), that is, omega(G) <= floor(|V| *
omega(G[S]) / |S|) (Katona, *A simple proof of the Erdos-Chao Ko-Rado
theorem*, JCTB 1972; the clique-coclique bound of Godsil and Meagher,
*Erdos-Ko-Rado Theorems: Algebraic Approaches*, CUP 2016).  The candidate
sets S are families from `constructions.averaging_sets`.  At t = 1 where
2r <= n or r = n, n the smallest part, S is Katona's cyclic r-intervals of
every cyclic class; matchings of two classes share no edge, so under
`intersecting:1` omega(G[S]) = r and the bound is the star's.  On the
permutations of [n] under the intersecting kinds, S is AGL(1, n) at t = 2
(n a prime power) or PGL(2, n - 1) at t = 3 (n - 1 a prime power): sharply
t-transitive, so two members meet in fewer than t edges, omega(G[S]) = 1,
and the bound is (n - t)!, the star's.  omega(G[S]) is the greedy-bound
kernel over every root of S's rows, which come from a signature index over
its members; its nodes count toward the budget and the node count.  The
least bound UB is at least the incumbent max(seed size, s), or the engine
is wrong (`InternalCheckError`).  A UB equal to the incumbent is the
maximum, and the proof is skipped; a UB equal to the seed's size skips the
witness phase too, so no row of the graph is built.  Otherwise the proof runs with UB as its
stop, as the witness phase does, and a proof clique above UB is an
`InternalCheckError` too.  The witness phase is unchanged, so only the node
count differs from a proof without the bound.

The witness phase then runs the single search once, with the incumbent at
w - 1, and stops at its first clique of size w; ending below w is an engine
bug, and so is a star bound above the maximum.  The witness is the full
search's.  The colour order depends only on the candidate set, so the
depth-first tree is fixed, and a branch is pruned only when its colour bound
is at most the incumbent, that is, when it holds no clique larger than the
incumbent.  While the incumbent is below w, no branch holding a w-clique is
pruned, so every such search reaches the same first leaf of size w; that is
the full search's witness, which only a strictly larger clique could
replace.  A seed of size w skips the phase and stays the witness, as it does
in the full search.  One node budget bounds both phases, and the node count
is their sum.  With workers on a union universe the witness phase gives each
chunk of roots the same stop; a chunk runs the serial search of its roots
until it stops, so the earliest root position to reach the stop holds the
serial witness.  The proof runs serially.

The proof branches on orbits (Ostrowski, Linderoth, Rossi and Smriglio,
*Orbital branching*, Math. Prog. 2011).  At a node whose clique C has at
most ORBIT_DEPTH members, once the search under a candidate v returns, v's
whole orbit under G_C leaves the candidate set, not v alone, and a later
candidate that has already left is skipped.  G_C is the clique's atom group
(`matchings.clique_atoms`): the per-part relabellings that permute each
part's vertices only inside the atoms of C, where two vertices of a part
share an atom when every member of C misses both or has edges through both
that agree in the other parts.  Every element of G_C fixes each member of C
and, the graph being symmetric, preserves its rows.  G_C also maps the
candidate set onto itself, by induction: a root's set, its later neighbours,
is kept by every relabelling that fixes the root; the atoms of C + v refine
those of C, so G_{C+v} lies inside G_C, fixes v and keeps the child's set,
the parent's ANDed with v's row; and only whole orbits ever leave a set.  So
a clique through an orbit-mate u of v has an image through v, of the same
size, inside the set that the search under v covered.  The Re-NUMBER colours
stay upper bounds, since candidates only leave.  The orbits are keyed by the
sorted tuples of per-edge atom labels (`matchings.atom_orbits`).  They are
computed once per node, only when a second branch is due, and not at all
when every atom is a singleton, as for perfect matchings at k >= 2.  The
proof proves the same size, and the witness phase replaces any witness it
records, so only its node count changes.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations, permutations, product

from .counts import t_set_star_size, t_star_size
from .matchings import (
    DEFAULT_UNIVERSE_CAP,
    Family,
    Universe,
    atom_orbits,
    bit_positions,
    clique_atoms,
    enumerate_union_universe,
    index_bits,
    relabelling_generators,
)
from .predicates import (Predicate, StarClassification, box_star_bits, check_strength, classify_star, holders,
                         signature_index, signature_rows, signatures, star_bits, star_param_notes)

DEFAULT_GRAPH_CAP = 20_000
DEFAULT_NODE_BUDGET = 10**9
DEFAULT_MAXIMA_CAP = 10**5
ORBIT_DEPTH = 4  # the proof branches on whole orbits at nodes of at most this many clique members


class GraphTooLargeError(ValueError):
    def __init__(self, n: int, cap: int):
        super().__init__(
            f"compatibility graph on {n} vertices exceeds cap {cap} "
            f"(about {n * n // 8} bytes of adjacency)"
        )
        self.vertices = n
        self.cap = cap

    def __reduce__(self):  # keep picklable across worker processes
        return (self.__class__, (self.vertices, self.cap))


class NodeBudgetExceeded(RuntimeError):
    """The branch-and-bound node budget ran out; no answer is reported."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"clique search exceeded node budget: {nodes} > {budget}")
        self.nodes = nodes
        self.budget = budget

    def __reduce__(self):
        return (self.__class__, (self.nodes, self.budget))


class MaximaOverflowError(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"more than {cap} maximum cliques; raise the cap to enumerate them")
        self.cap = cap

    def __reduce__(self):
        return (self.__class__, (self.cap,))


class InternalCheckError(RuntimeError):
    """An invariant that can only fail through an engine bug was violated."""


class CompatGraph:
    """A compatibility graph: the predicate's graph on the universe, or, given rows, a graph built by hand.

    Without rows the graph is the predicate's on the whole universe, so the
    part relabellings map it onto itself: it is marked `symmetric`, and its
    rows are built from the signature index on first read of `rows`.  A graph
    given its rows is searched on those rows alone and is never marked.
    """

    __slots__ = ("universe", "pred", "symmetric", "_full_rows", "_root_rows")

    def __init__(self, universe: Universe, pred: Predicate, rows=None):
        self.universe = universe
        self.pred = pred
        self.symmetric = rows is None
        self._full_rows = rows
        self._root_rows = None  # the root-0 search's rows of a transitive graph, once built

    @property
    def rows(self) -> list:
        """Adjacency bit-rows with the diagonal set."""
        if self._full_rows is None:
            u = self.universe
            self._full_rows = signature_rows(*signature_index(u.items, self.pred, u.parts))
        return self._full_rows

    @property
    def n(self) -> int:
        return len(self.universe) if self._full_rows is None else len(self._full_rows)

    @property
    def transitive(self) -> bool:
        """Vertex-transitive: a symmetric graph of one edge count, where root 0 alone finds the maximum."""
        return self.symmetric and len(self.universe.sizes) == 1


# ---------------------------------------------------------------------------
# graph construction


def fork_pool(processes: int, initializer=None, initargs=()):
    """A pool of forked workers; `multiprocessing` is imported only here, so `import ekrmatch` skips it."""
    from multiprocessing import get_context

    return get_context("fork").Pool(processes, initializer=initializer, initargs=initargs)


_BUILD_CTX = None


def _init_build(index, sigs):
    global _BUILD_CTX
    _BUILD_CTX = (index, sigs)


def _build_row_block(block):
    lo, hi = block
    index, sigs = _BUILD_CTX
    return signature_rows(index, sigs[lo:hi], lo)


def build_compat_graph(
    universe: Universe,
    pred: Predicate,
    cap: int = DEFAULT_GRAPH_CAP,
    workers: int = 1,
) -> CompatGraph:
    """The predicate's graph on the universe, marked symmetric; adjacency bit-rows have the diagonal set.

    Its rows are built on first read, except on a union universe at several
    workers, where a pool builds them in blocks now.  A uniform universe
    gives a transitive graph, whose searches read only the rows of N[0]
    (`_root_rows`).
    """
    n = len(universe)
    if n > cap:
        raise GraphTooLargeError(n, cap)
    graph = CompatGraph(universe, pred)
    if len(universe.sizes) > 1 and workers > 1 and n >= 64:
        index, sigs = signature_index(universe.items, pred, universe.parts)
        step = -(-n // (workers * 4))
        blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
        with fork_pool(workers, _init_build, (index, sigs)) as pool:  # map keeps the blocks' order
            graph._full_rows = [row for block_rows in pool.map(_build_row_block, blocks) for row in block_rows]
    return graph


# ---------------------------------------------------------------------------
# maximum clique


@dataclass
class _SearchState:
    budget: int
    best: int = 0
    witness: int = 0
    nodes: int = 0
    found: list | None = None
    cap: int = 0
    stop: int | None = None  # the witness phase ends at its first clique this large
    renumber: bool = False  # the proof's Re-NUMBER bound in place of the greedy colouring
    relabel: Universe | None = None  # the proof's matchings at the rows' bit positions, for the atom groups


class _Stopped(Exception):
    """The witness phase reached its stop size."""


def _neighbour_rows(graph: CompatGraph) -> list:
    """Adjacency rows without the diagonal; the recursion limit covers a clique of every vertex."""
    n = graph.n
    sys.setrecursionlimit(max(sys.getrecursionlimit(), n + 512))
    return [graph.rows[v] & ~(1 << v) for v in range(n)]


def _local_rows(items, pred: Predicate, parts) -> list:
    """Neighbour rows of the items among themselves, bit i for items[i], from a signature index over them alone."""
    rows = signature_rows(*signature_index(items, pred, parts))
    return [row & ~(1 << i) for i, row in enumerate(rows)]


def _root_rows(graph: CompatGraph):
    """(nadj, members): the neighbour rows of N[0] in a transitive graph, at N[0]-local bit positions.

    members is N[0] in ascending vertex order, so members[0] = 0, and bit i
    of a local row stands for vertex members[i].  Row 0 is read off the edge
    postings, then a signature index over the items of N[0] alone gives
    their rows, already masked to N[0].  The search reads rows only inside
    N(0), so its bits, mapped back through members, are those of the full
    rows (module docstring).  Built once per graph.
    """
    if graph._root_rows is None:
        universe, pred, k = graph.universe, graph.pred, graph.universe.k
        row0 = holders(universe, pred, signatures(universe.items[0], pred, k))
        members = Family(universe, row0 | 1).indices()
        nadj = _local_rows([universe.items[v] for v in members], pred, universe.parts)
        sys.setrecursionlimit(max(sys.getrecursionlimit(), len(members) + 512))
        graph._root_rows = nadj, members
    return graph._root_rows


def _to_vertices(bits: int, members) -> int:
    """A bitset over local positions, mapped to the vertices members[i], in time linear in the width.

    members is ascending, so the last vertex bounds the width; the positions
    are read by `bit_positions` and the vertices set by `index_bits`.
    """
    vertices = list(map(members.__getitem__, bit_positions(bits)))
    return index_bits(vertices, vertices[-1] + 1 if vertices else 0)


def _plan(graph: CompatGraph):
    """(rows, roots, members) of the search, where bit i of a row stands for vertex members[i].

    A transitive graph has root 0 alone, on its N[0]-local rows; any other
    graph has every root in degeneracy order, on its full rows.
    """
    if graph.transitive:
        nadj, members = _root_rows(graph)
        return nadj, [(0, 0, nadj[0])], members
    nadj = _neighbour_rows(graph)
    return nadj, _root_subproblems(nadj, graph.n), range(graph.n)


def _colour_order(pmask: int, nadj):
    """Greedy colouring of the candidate set; returns vertices with ascending colours."""
    order, colours = [], []
    colour = 0
    while pmask:
        colour += 1
        avail = pmask
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append(v)
            colours.append(colour)
            pmask ^= low
            avail = (avail ^ low) & ~nadj[v]
    return order, colours


def _record(state: _SearchState, bits: int, size: int):
    """A maximal clique larger than state.best: the new incumbent, or one more maximum."""
    if state.found is None:
        state.best, state.witness = size, bits
        if state.stop is not None and size >= state.stop:
            raise _Stopped
        return
    if size > state.best + 1:
        raise ValueError(f"a clique of size {size} exists; {state.best + 1} is not the maximum")
    state.found.append(bits)
    if len(state.found) > state.cap:
        raise MaximaOverflowError(state.cap)


def _degeneracy_order(nadj, n: int):
    """Repeatedly remove a minimum-degree vertex, lowest index first on ties."""
    import heapq

    alive = (1 << n) - 1
    heap = [((nadj[v] & alive).bit_count(), v) for v in range(n)]
    heapq.heapify(heap)
    removed = 0
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed >> v & 1:
            continue
        cur = (nadj[v] & ~removed).bit_count()
        if cur != d:
            heapq.heappush(heap, (cur, v))
            continue
        order.append(v)
        removed |= 1 << v
    return order


def _root_subproblems(nadj, n: int):
    """(position, vertex, later neighbours) per vertex in degeneracy order."""
    order = _degeneracy_order(nadj, n)
    later = 0
    laters = [0] * n
    for pos in range(n - 1, -1, -1):
        laters[pos] = later
        later |= 1 << order[pos]
    return [(pos, order[pos], nadj[order[pos]] & laters[pos]) for pos in range(n)]


def _search_roots(nadj, roots, state: _SearchState):
    """Search the roots in order; return the position of the root holding the witness, or None.

    With a stop size the search returns at the root where it reaches it.
    """
    at = None
    for pos, v, pmask in roots:
        before = state.best
        try:
            if pmask:
                _branch(nadj, pmask, 1 << v, 1, state)
            elif state.best < 1:
                _record(state, 1 << v, 1)
        except _Stopped:
            return pos
        if state.best > before:
            at = pos
    return at


_CLIQUE_CTX = None


def _init_clique(nadj, state):
    global _CLIQUE_CTX
    _CLIQUE_CTX = (nadj, state)


def _solve_root_chunk(chunk):
    """One worker's roots under one shared incumbent: (best, witness, position, nodes)."""
    nadj, start = _CLIQUE_CTX
    state = replace(start)
    at = _search_roots(nadj, chunk, state)
    return state.best, state.witness, at, state.nodes - start.nodes


def _search_with_workers(nadj, roots, state: _SearchState, workers: int):
    """Search the roots from state's incumbent, in place, up to state.stop if set.

    The witness is the serial one at any worker count: each chunk of roots
    runs the serial search of its roots, so the first chunk position to reach
    the stop, or without a stop the first position of the largest clique,
    holds the serial witness.
    """
    if workers <= 1 or len(roots) == 1:
        _search_roots(nadj, roots, state)
        return
    # strided chunks balance load (early roots carry the larger subtrees)
    chunks = [c for c in (roots[i::workers] for i in range(workers)) if c]
    with fork_pool(len(chunks), _init_clique, (nadj, state)) as pool:
        results = pool.map(_solve_root_chunk, chunks)
    state.nodes += sum(r[3] for r in results)
    if state.nodes > state.budget:
        raise NodeBudgetExceeded(state.nodes, state.budget)
    if state.stop is not None:
        stopped = [r for r in results if r[0] >= state.stop]
        if stopped:
            state.best, state.witness, _, _ = min(stopped, key=lambda r: r[2])
            return
    # a chunk without a position never beat the incumbent and holds its bits
    state.best, state.witness, _, _ = min(results, key=lambda r: (-r[0], r[2] or 0))


def _witness_phase(nadj, roots, state: _SearchState, workers: int, stop: int):
    """The first clique of size at least stop in the fixed order, from the incumbent stop - 1."""
    state.best, state.stop = stop - 1, stop
    _search_with_workers(nadj, roots, state, workers)
    if state.best < stop:
        raise InternalCheckError(f"the witness search ended at {state.best}, below {stop}")
    state.stop = None


def _renumber_order(pmask: int, nadj, kmin: int):
    """The candidates to branch on, with ascending colours, all above kmin (MCS Re-NUMBER).

    Classes 1..kmin are built as in `_colour_order` and never branched on.
    Each leftover vertex p then joins one of them if it has no neighbour
    there, or if its one neighbour q there can move to a later class up to
    kmin that holds no neighbour of q.  Only the vertices still left are
    coloured greedily from kmin + 1.  At kmin <= 0 that is `_colour_order`.
    """
    if kmin <= 0:
        return _colour_order(pmask, nadj)
    classes = []
    while pmask and len(classes) < kmin:
        cls, avail = 0, pmask
        while avail:
            low = avail & -avail
            cls |= low
            pmask ^= low
            avail = (avail ^ low) & ~nadj[low.bit_length() - 1]
        classes.append(cls)
    left, rest = 0, pmask
    while rest:
        low = rest & -rest
        rest ^= low
        adj = nadj[low.bit_length() - 1]
        for k1, cls in enumerate(classes):
            hit = adj & cls
            if not hit:
                classes[k1] = cls | low
                break
            if hit & (hit - 1) == 0:
                nq = nadj[hit.bit_length() - 1]
                for k2 in range(k1 + 1, kmin):
                    if not nq & classes[k2]:
                        classes[k2] |= hit
                        classes[k1] = cls ^ hit ^ low
                        break
                else:
                    continue
                break
        else:
            left |= low
    order, colours = _colour_order(left, nadj)
    return order, [c + kmin for c in colours]


def _close_clique(pmask: int, width: int, rbits: int, rsize: int, state: _SearchState) -> bool:
    """Settle a node whose greedy colouring used width colours, if that is one per candidate; else False.

    Such a candidate set (never empty: width >= 1) is a clique, so the node's
    subtree is one chain that adds the highest candidate at each step and
    ends at rbits + pmask.  The chain's other width - 1 nodes are counted, as
    is the node where it would pass the budget, and its end is recorded as
    the chain's leaf would record it (module docstring).
    """
    if width != pmask.bit_count():
        return False
    size = rsize + width
    if size > state.best:
        state.nodes += width - 1
        if state.nodes > state.budget:
            state.nodes = state.budget + 1
            raise NodeBudgetExceeded(state.nodes, state.budget)
        _record(state, rbits | pmask, size)
    return True


def _branch(nadj, pmask: int, rbits: int, rsize: int, state: _SearchState, order=None, colours=None, end=0):
    """Search the cliques rbits + some of pmask, recording each larger one, or listing each maximum.

    The bound is the greedy colouring, or with state.renumber Re-NUMBER's.
    Under the greedy colouring a clique candidate set closes in one step
    (`_close_clique`), and a node may inherit its colouring: given order and
    colours, its own is their first end entries.  Its first branch, on the
    last vertex of the top class, passes the same lists on with end - 1 when
    that vertex sees every other candidate (module docstring).  With
    state.relabel set, at nodes of at most ORBIT_DEPTH members each branched
    vertex takes its whole orbit under the clique's atom group out of the
    candidates (module docstring).
    """
    state.nodes += 1
    if state.nodes > state.budget:
        raise NodeBudgetExceeded(state.nodes, state.budget)
    if state.renumber:
        order, colours = _renumber_order(pmask, nadj, state.best - rsize)
        end, last = len(order), None
    else:
        if order is None:
            order, colours = _colour_order(pmask, nadj)
            end = len(order)
        if _close_clique(pmask, colours[end - 1], rbits, rsize, state):
            return
        last = end - 1  # the first branch, whose child may inherit the colouring
    universe = state.relabel if rsize <= ORBIT_DEPTH else None
    # each candidate's orbit once a second branch is due, {} for a trivial group; till then the first branch
    orbit = first = None
    for idx in range(end - 1, -1, -1):
        if rsize + colours[idx] <= state.best:
            return
        v = order[idx]
        if universe is not None:
            if first is not None:
                atoms = clique_atoms(universe, rbits)
                orbit = atom_orbits(universe, atoms, pmask | 1 << first) if atoms else {}
                pmask &= ~orbit.get(first, 0)
                first = None
            if not pmask >> v & 1:  # an earlier branch's orbit took it
                continue
        vbit = 1 << v
        newp = pmask & nadj[v]
        if newp:
            if idx == last and newp == pmask ^ vbit:
                _branch(nadj, newp, rbits | vbit, rsize + 1, state, order, colours, last)
            else:
                _branch(nadj, newp, rbits | vbit, rsize + 1, state)
        elif rsize + 1 > state.best:
            _record(state, rbits | vbit, rsize + 1)
        pmask ^= vbit
        if universe is not None:
            if orbit:
                pmask &= ~orbit[v]
            elif orbit is None:
                first = v


def _proof_roots(graph: CompatGraph, nadj):
    """(position, v, v's later neighbours) per edge-count level, v its lowest index.

    v is found by bisection on edge count in the universe's items, which
    hold every level of `sizes`, sorted by edge count.  The part
    relabellings act transitively on each level, and a clique whose lowest
    level is i has an image through root i that avoids earlier levels.
    A transitive graph has the single root 0, with candidates nadj[0], at
    local positions too, since members[0] = 0.
    """
    items = graph.universe.items
    levels = [bisect_left(items, r, key=len) for r in graph.universe.sizes]
    return [(pos, v, nadj[v] >> v << v) for pos, v in enumerate(levels)]


def _averaging_bound(graph: CompatGraph, state: _SearchState):
    """The least floor(|V| * omega(G[S]) / |S|) over the candidate sets S of a transitive graph, or None.

    Each S is a family from `constructions.averaging_sets`.  Its rows come
    from a signature index over its members, and omega(G[S]) from the kernel
    over every root, under state's budget; the nodes add to state.nodes.
    """
    from .constructions import averaging_sets  # on first use, so `import ekrmatch` does not load it

    bound = None
    for family in averaging_sets(graph.universe, graph.pred):
        nadj = _local_rows(family.members(), graph.pred, graph.universe.parts)
        omega = _SearchState(budget=state.budget, nodes=state.nodes)
        _search_roots(nadj, _root_subproblems(nadj, len(nadj)), omega)
        state.nodes = omega.nodes
        value = graph.n * omega.best // len(family)
        bound = value if bound is None else min(bound, value)
    return bound


def max_clique(
    graph: CompatGraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
    seed: Family | None = None,
):
    """Exact maximum clique size and a deterministic witness family.

    An optional seed family (known clique, e.g. a star) only raises the
    initial lower bound; when nothing larger exists the seed itself is the
    witness.  Exceeding the node budget raises, never degrades to a wrong
    answer; with workers, the budget bounds the nodes of all workers together.
    A graph from `build_compat_graph` is solved in two phases, a proof of the
    maximum from the star bound and one witness search that stops at it, and
    a transitive one searches root 0 alone, serially (module docstring).
    On a transitive graph a group-averaging bound equal to max(seed size,
    star bound) skips the proof, and a larger one stops it; a bound below
    that, or a proof clique above it, raises `InternalCheckError`.  The node
    count is the sum over both phases and the bound's clique-number searches.
    """
    state = _SearchState(budget=node_budget)
    if seed is not None:
        if seed.universe.key != graph.universe.key:
            raise ValueError("seed family lives in a different universe")
        state.best, state.witness = len(seed), seed.bits
    universe = graph.universe
    if not graph.symmetric:
        nadj, roots, _ = _plan(graph)
        _search_with_workers(nadj, roots, state, workers)
        return state.best, Family(universe, state.witness), state.nodes

    seeded = state.best
    # a star is a clique of the star bound's size
    state.best = max(seeded, star_formula_value(universe.parts, universe.sizes, graph.pred))
    bound = _averaging_bound(graph, state) if graph.transitive else None
    if bound is not None and bound < state.best:
        raise InternalCheckError(f"the averaging bound {bound} is below the clique of size {state.best}")
    if bound == seeded:  # the seed is a maximum: neither phase runs, so no row is built
        return seeded, Family(universe, state.witness), state.nodes
    nadj, roots, members = _plan(graph)
    if bound != state.best:
        state.renumber, state.relabel, state.stop = True, universe, bound
        if graph.transitive:  # the atom helpers read the matchings at the rows' bit positions, those of N[0]
            state.relabel = Universe(universe.parts, universe.sizes, [universe.items[v] for v in members])
        _search_roots(nadj, _proof_roots(graph, nadj), state)
        state.renumber, state.relabel, state.stop = False, None, None
        if bound is not None and state.best > bound:
            raise InternalCheckError(
                f"the proof found a clique of size {state.best} above the averaging bound {bound}")
    if state.best > seeded:
        _witness_phase(nadj, roots, state, workers, state.best)
        state.witness = _to_vertices(state.witness, members)
    return state.best, Family(universe, state.witness), state.nodes


def max_clique_naive(graph: CompatGraph):
    """Plain include/exclude enumeration; the independent oracle for the solver."""
    nadj = _neighbour_rows(graph)
    best = [0, 0]

    def rec(rbits, rsize, pmask):
        if pmask == 0:
            if rsize > best[0]:
                best[0], best[1] = rsize, rbits
            return
        if rsize + pmask.bit_count() <= best[0]:
            return
        low = pmask & -pmask
        v = low.bit_length() - 1
        rec(rbits | low, rsize + 1, (pmask ^ low) & nadj[v])
        rec(rbits, rsize, pmask ^ low)

    rec(0, 0, (1 << graph.n) - 1)
    return best[0], Family(graph.universe, best[1])


def _orbit_closure(seeds: list, generators, cap: int) -> list:
    """Breadth-first closure of distinct bitsets under index permutations; raises past cap members.

    The search runs on sorted index tuples, an image being the sorted tuple
    of the permuted indices.
    """
    queue = [tuple(bit_positions(bits)) for bits in seeds]
    seen = set(queue)
    maps = [perm.__getitem__ for perm in generators]
    for members in queue:
        for image_of in maps:
            image = tuple(sorted(map(image_of, members)))
            if image not in seen:
                seen.add(image)
                queue.append(image)
                if len(queue) > cap:
                    raise MaximaOverflowError(cap)
    shift = (1).__lshift__
    return [sum(map(shift, members)) for members in queue]


def _star_orbit(universe: Universe, kind: str, t: int):
    """(centre, bits) of every full t-star (kind "t-star") or every box star of a uniform universe.

    The stars form the orbit of any one of them under the part relabellings
    (module docstring); distinct centres may give the same star.  A centre is
    a t-edge matching, its edges in ascending order, or a box of per-part
    t-sets, as `classify_star` reports them.
    """
    ranges = [range(1, n + 1) for n in universe.parts]
    if kind == "t-set-star":
        return ((box, box_star_bits(universe, box)) for box in product(*(combinations(xs, t) for xs in ranges)))
    centres = (tuple(zip(rows, *cols))
               for rows in combinations(ranges[0], t) for cols in product(*(permutations(xs, t) for xs in ranges[1:])))
    return ((centre, star_bits(universe, centre)) for centre in centres)


_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _index_order(found, n: int) -> list:
    """Bitsets of one size over n positions, sorted as their `Family.indices` lists.

    Two such sets first differ at the lowest position of their symmetric
    difference, and the earlier set holds it.  Little-endian bytes with each
    byte's bits reversed put that position first and highest, so the earlier
    set has the larger byte string.
    """
    width = (n + 7) >> 3
    return sorted(found, key=lambda bits: bits.to_bytes(width, "little").translate(_REVERSED_BITS), reverse=True)


class _Maxima(list):
    """The maximum families of `all_max_cliques`, and in `classifications` each one's `StarClassification`."""

    def __init__(self, families, classifications):
        super().__init__(families)
        self.classifications = classifications


def all_max_cliques(graph: CompatGraph, size: int, cap: int = DEFAULT_MAXIMA_CAP,
                    node_budget: int = DEFAULT_NODE_BUDGET):
    """Every clique of the maximum size, in index-lexicographic order, each classified.

    A transitive graph lists the maxima through vertex 0 alone, within the
    node budget, and adds each one's orbit under the part relabellings: the
    stars of every centre for a star, the generator closure otherwise.  Each
    member inherits its orbit's classification, and each maximum through
    vertex 0 must get the same from `classify_star`.  The list must hold
    |V| * m0 / size members, and each kind n / size times its tally through
    vertex 0, by double counting (module docstring).  Other graphs search
    every root and classify each maximum with `classify_star`.  Raises past
    cap maxima, past the node budget, or on a clique larger than size.
    """
    if size < 1:
        raise ValueError("clique size must be positive")
    state = _SearchState(budget=node_budget, best=size - 1, found=[], cap=cap)
    nadj, roots, members = _plan(graph)
    _search_roots(nadj, roots, state)
    universe, t = graph.universe, graph.pred.t
    if not graph.transitive:
        maxima = [Family(universe, bits) for bits in _index_order(state.found, graph.n)]
        return _Maxima(maxima, [classify_star(f, t) for f in maxima])
    notes = star_param_notes(universe, t)
    found, generators = {}, None  # each maximum's classification, derived from its orbit
    for seed in [_to_vertices(bits, members) for bits in state.found]:
        own = classify_star(Family(universe, seed), t)
        if seed in found:  # an orbit already listed holds it
            pass
        elif own.kind in ("t-star", "t-set-star"):
            orbit = {}  # each star's centres
            for centre, bits in _star_orbit(universe, own.kind, t):
                orbit.setdefault(bits, []).append(centre)
                if len(found) + len(orbit) > cap:
                    raise MaximaOverflowError(cap)
            for bits, centres in orbit.items():
                found[bits] = StarClassification(own.kind, t, tuple(sorted(centres)), annotations=notes)
        else:
            if generators is None:
                generators = [g for part in relabelling_generators(universe) for g in part]
            found.update(dict.fromkeys(_orbit_closure([seed], generators, cap - len(found)), own))
        if found.get(seed) != own:
            raise InternalCheckError(
                f"a maximum through vertex 0 classifies as {own}, but its orbit lists it as {found.get(seed)}")
    if len(found) * size != graph.n * len(state.found):
        raise InternalCheckError(
            f"the orbit list holds {len(found)} maxima, but double counting {len(state.found)} "
            f"through vertex 0 over {graph.n} vertices at size {size} gives "
            f"{graph.n * len(state.found) / size}"
        )
    through_zero = Counter(cls.kind for bits, cls in found.items() if bits & 1)
    _check_kind_tallies(Counter(cls.kind for cls in found.values()), through_zero, size, graph.n)
    order = _index_order(found, graph.n)
    return _Maxima((Family(universe, bits) for bits in order), [found[bits] for bits in order])


# ---------------------------------------------------------------------------
# end-to-end driver


STATUS_MATCHES = "MATCHES_STAR_BOUND"
STATUS_EXCEEDS = "EXCEEDS_STAR_BOUND"


def star_formula_value(parts, sizes, pred: Predicate) -> int:
    """The predicate-appropriate full-star size (summed over edge counts)."""
    size_fn = t_set_star_size if pred.is_set else t_star_size
    return sum(size_fn(parts, r, pred.t) for r in sizes if r >= pred.t)


@dataclass
class ExtremalReport:
    parts: tuple
    sizes: tuple
    predicate: str
    universe_size: int
    formula_value: int
    max_size: int
    status: str
    witness_indices: list
    witness: Family
    maxima_count: object = None  # int, or "overflow", or None when not requested
    maxima_kinds: dict | None = None
    maxima: list | None = None  # the maximum families themselves; not serialised
    classifications: list | None = None
    annotations: tuple = ()
    nodes: int = 0
    elapsed: float = 0.0

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "parts": list(self.parts),
            "sizes": list(self.sizes),
            "predicate": self.predicate,
            "universe_size": self.universe_size,
            "formula_value": self.formula_value,
            "max_size": self.max_size,
            "status": self.status,
            "witness_indices": list(self.witness_indices),
            "witness_matchings": [[list(e) for e in m] for m in self.witness.members()],
            "maxima_count": self.maxima_count,
            "maxima_kinds": self.maxima_kinds,
            "annotations": list(self.annotations),
        }
        if include_timings:
            out["nodes"] = self.nodes
            out["elapsed_s"] = round(self.elapsed, 3)
        return out


def _check_kind_tallies(kinds: dict, through_zero: dict, size: int, n: int):
    """On a transitive graph each kind's tally is n / size times its tally through vertex 0."""
    for kind in sorted(kinds.keys() | through_zero.keys()):
        if kinds.get(kind, 0) * size != n * through_zero.get(kind, 0):
            raise InternalCheckError(
                f"{kinds.get(kind, 0)} maxima of kind {kind} but {through_zero.get(kind, 0)} "
                f"through vertex 0: double counting over {n} vertices and size {size} fails"
            )


def extremal(
    parts,
    sizes,
    pred: Predicate,
    universe_cap: int = DEFAULT_UNIVERSE_CAP,
    graph_cap: int = DEFAULT_GRAPH_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    all_maxima: bool = False,
    maxima_cap: int = DEFAULT_MAXIMA_CAP,
    workers: int = 1,
    seed_star: bool = False,
    universe: Universe | None = None,
) -> ExtremalReport:
    """Enumerate, build the graph, solve, optionally enumerate all maxima and tally their kinds.

    The maxima come classified from `all_max_cliques`.  With seed_star the
    search starts from the star of the diagonal centre, the t-edge matching
    (1, ..., 1), ..., (t, ..., t), or for the set kinds the box of the sets
    {1, ..., t}; it is read off the edge postings.  A t above every edge
    count raises ValueError (`check_strength`).
    """
    start = time.perf_counter()
    if isinstance(sizes, int):
        sizes = (sizes,)
    if universe is None:
        universe = enumerate_union_universe(parts, sizes, universe_cap)
    parts = universe.parts
    sizes = universe.sizes
    check_strength(pred, sizes)
    graph = build_compat_graph(universe, pred, graph_cap, workers)

    seed = None
    annotations = []
    if seed_star:
        diagonal = range(1, pred.t + 1)
        if pred.is_set:
            bits = box_star_bits(universe, (tuple(diagonal),) * universe.k)
        else:
            bits = star_bits(universe, [(x,) * universe.k for x in diagonal])
        seed = Family(universe, bits)
        annotations.append("seeded-with-star")

    max_size, witness, nodes = max_clique(graph, node_budget, workers, seed)
    formula = star_formula_value(parts, sizes, pred)
    if max_size < formula:
        raise InternalCheckError(
            f"clique max {max_size} below star bound {formula} at parts={parts}, "
            f"sizes={sizes}, pred={pred}: stars are always feasible cliques"
        )
    status = STATUS_MATCHES if max_size == formula else STATUS_EXCEEDS

    maxima = None
    maxima_count = None
    maxima_kinds = None
    if all_maxima:
        try:
            maxima = all_max_cliques(graph, max_size, maxima_cap, node_budget)
            maxima_count = len(maxima)
            maxima_kinds = dict(Counter(c.kind for c in maxima.classifications))
        except MaximaOverflowError:
            maxima_count = "overflow"
            annotations.append(f"maxima-overflow:cap={maxima_cap}")

    return ExtremalReport(
        parts=parts,
        sizes=sizes,
        predicate=str(pred),
        universe_size=len(universe),
        formula_value=formula,
        max_size=max_size,
        status=status,
        witness_indices=witness.indices(),
        witness=witness,
        maxima_count=maxima_count,
        maxima_kinds=maxima_kinds,
        maxima=maxima,
        classifications=None if maxima is None else maxima.classifications,
        annotations=tuple(annotations),
        nodes=nodes,
        elapsed=time.perf_counter() - start,
    )
