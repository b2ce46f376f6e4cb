"""Matching universes of complete k-partite k-graphs and their projection operators.

A matching is stored canonically as a tuple of k-tuples (edges) sorted
lexicographically; vertices of part i are the integers 1..n_i.  A Universe is
the full, deterministically ordered list of matchings for a part structure and
one or more edge counts; a Family is a bit-vector over one Universe.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import combinations, permutations, product
from operator import add, getitem, itemgetter

from .counts import count_matchings, int_tuple, validate_parts

DEFAULT_UNIVERSE_CAP = 10**6
_ONE = re.compile("1")

Edge = tuple
Matching = tuple


class UniverseTooLargeError(ValueError):
    """Raised before enumerating a universe whose predicted size exceeds the cap."""

    def __init__(self, predicted: int, cap: int):
        super().__init__(f"universe too large: predicted {predicted} matchings exceeds cap {cap}")
        self.predicted = predicted
        self.cap = cap

    def __reduce__(self):  # keep picklable across worker processes
        return (self.__class__, (self.predicted, self.cap))


def canonical_matching(edges) -> Matching:
    """The edges as sorted tuples; raises ValueError naming a coordinate that is not an int (a bool is not one)."""
    return tuple(sorted(int_tuple(e, "matching coordinates") for e in edges))


def validate_matching(parts, m, r: int | None = None) -> Matching:
    """Check arity, coordinate ranges and per-part distinctness; return canonical form."""
    parts = validate_parts(parts)
    k = len(parts)
    m = canonical_matching(m)
    if r is not None and len(m) != r:
        raise ValueError(f"expected {r} edges, got {len(m)}")
    for e in m:
        if len(e) != k:
            raise ValueError(f"edge {e} has arity {len(e)}, expected {k}")
        for i, x in enumerate(e):
            if not 1 <= x <= parts[i]:
                raise ValueError(f"coordinate {x} of edge {e} outside part {i + 1} of size {parts[i]}")
    for i in range(k):
        coords = [e[i] for e in m]
        if len(set(coords)) != len(coords):
            raise ValueError(f"repeated coordinate in part {i + 1}: not a matching")
    return m


def _edge_table(parts) -> list:
    """The edges of a part structure as one table: ``table[x - 1][c]`` is the c-th edge through part-1 vertex x.

    The column c numbers the part-2..k coordinates in mixed radix, 0-based,
    part k fastest.  Every edge is one tuple, shared by all matchings built
    from the table.
    """
    edges = list(product(*(range(1, n + 1) for n in parts)))
    width = len(edges) // parts[0]
    return [edges[lo : lo + width] for lo in range(0, len(edges), width)]


def _enumerate_level(parts, r, table) -> list:
    """All r-edge matchings read off the edge table (`_edge_table`), as one ascending run per row set.

    A matching takes the table rows of an r-subset of part 1 and reads row p
    at column ``col[p]``.  ``cols`` lists every choice of one r-arrangement
    per part 2..k, summed into the table's column numbers; it is built and
    sorted once per level, then transposed into r per-edge columns and
    dropped, so no invalid tuple is made and equal edges are one object.
    Each row set zips its rows' reads of the per-edge columns, so the tuples
    are built in C.  Within one row set the edges' part-1 vertices are
    fixed, and a column number orders its edges as their coordinates do
    (mixed radix, part k fastest), so the sorted columns give the row set's
    matchings in ascending order: the level is C(n_1, r) sorted runs for the
    caller's sort to merge.  At k = 1 every row is one edge and the level is
    ``combinations`` of them, ascending already; r = 0 is the one empty
    matching, which ``zip`` of no columns would not yield.
    """
    if r == 0:
        return [()]
    if len(parts) == 1:
        return list(combinations([row[0] for row in table], r))
    cols = list(permutations(range(parts[-1]), r))
    stride = parts[-1]
    for n in reversed(parts[1:-1]):
        pool = list(permutations(range(0, n * stride, stride), r))
        cols = [tuple(map(add, col, arr)) for arr in pool for col in cols]
        stride *= n
    cols.sort()
    per_edge = [list(map(itemgetter(p), cols)) for p in range(r)]
    del cols
    level = []
    for rows in combinations(table, r):
        level.extend(zip(*map(map, [row.__getitem__ for row in rows], per_edge)))
    return level


class Universe:
    """All matchings for a part structure at one or more edge counts.

    Items are ordered by edge count, then lexicographically on the canonical
    edge list, so indices are stable across runs.  Every lookup
    (`position`) bisects the items, so it holds for any item list sorted in
    that order, a sub-list of a universe's items too, and never returns a
    wrong index.  Instances are immutable after construction, apart from
    ``memo``, a dict in which each reader keeps what it derives from the
    items under keys of its own (`predicates.unit_postings`' postings, the
    Lemma 1 checks' projections).
    """

    __slots__ = ("parts", "sizes", "items", "memo")

    def __init__(self, parts, sizes, items):
        self.parts = validate_parts(parts)
        self.sizes = tuple(sizes)
        self.items = tuple(items)
        self.memo = {}

    def position(self, m) -> int | None:
        """The index of a canonical matching (`canonical_matching`), or None when it is not an item.

        Bisection finds m's edge-count run of the items, then m inside it;
        a hit is confirmed by equality.
        """
        items, r = self.items, len(m)
        lo = bisect_left(items, r, key=len)
        hi = bisect_right(items, r, lo, key=len)
        i = bisect_left(items, m, lo, hi)
        return i if i < hi and items[i] == m else None

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def r(self) -> int:
        if len(self.sizes) != 1:
            raise ValueError(f"universe has several edge counts {self.sizes}; no single r")
        return self.sizes[0]

    def __len__(self) -> int:
        return len(self.items)

    @property
    def key(self):
        return (self.parts, self.sizes)

    def matching_index(self, m) -> int:
        i = self.position(canonical_matching(m))
        if i is None:
            raise KeyError(f"matching {m} is not in universe {self.key}")
        return i

    def __repr__(self):
        return f"Universe(parts={self.parts}, sizes={self.sizes}, count={len(self.items)})"


def relabelling_generators(universe: Universe) -> tuple:
    """Generators of the part relabellings S_{n_1} x ... x S_{n_k}, per part, as index permutations.

    For a part of size n >= 3 they are the swap of vertices 1 and 2 and the
    cycle x -> x + 1 (mod n); for n = 2 the swap alone, for n = 1 none.  A
    generator g sends items[v] to items[g[v]].  Each item is keyed by the
    bitset of its edges' ordinals in the edge grid, so an item's image is the
    sum of its edges' moved bits, looked up with no re-sorting of edges.
    """
    edges = list(product(*(range(1, n + 1) for n in universe.parts)))
    ordinal = dict(zip(edges, range(len(edges))))
    ordinals = [tuple(map(ordinal.__getitem__, m)) for m in universe.items]
    bit = [1 << o for o in range(len(edges))]
    keyed = {sum(map(bit.__getitem__, os)): v for v, os in enumerate(ordinals)}
    out = []
    for i, n in enumerate(universe.parts):
        relabellings = []
        if n >= 2:
            relabellings.append({1: 2, 2: 1})
        if n >= 3:
            relabellings.append({x: x % n + 1 for x in range(1, n + 1)})
        perms = []
        for pi in relabellings:
            moved = [bit[ordinal[e[:i] + (pi.get(e[i], e[i]),) + e[i + 1 :]]] for e in edges].__getitem__
            perms.append([keyed[sum(map(moved, os))] for os in ordinals])
        out.append(tuple(perms))
    return tuple(out)


def clique_atoms(universe: Universe, members: int) -> tuple | None:
    """Per part, each vertex's atom, named by its lowest vertex, under the members (a bitset of indices).

    Vertices x and y of part i share an atom when every member either misses
    both or has edges through both that agree outside part i.  Permuting a
    part's vertices inside their atoms fixes every member, and these
    permutations form the clique's atom group: at k = 1 the Venn-atom group,
    at k >= 2, where an edge's other coordinates tell its vertices apart, the
    symmetric group on each part's vertices that no member uses.  Returns
    None when every atom is a singleton, that is, when the group is trivial.
    """
    items = universe.items
    ms = []
    while members:
        low = members & -members
        ms.append(items[low.bit_length() - 1])
        members ^= low
    out, trivial = [], True
    for i, n in enumerate(universe.parts):
        through = [{e[i]: e[:i] + e[i + 1 :] for e in m} for m in ms]
        first, atom = {}, [0] * (n + 1)
        for x in range(1, n + 1):
            atom[x] = first.setdefault(tuple(t.get(x) for t in through), x)
        trivial = trivial and len(first) == n
        out.append(atom)
    return None if trivial else tuple(out)


def atom_orbits(universe: Universe, atoms: tuple, candidates: int) -> dict:
    """Each candidate index's orbit under the atom group of `clique_atoms`, as a bitset of candidates.

    Two matchings share an orbit exactly when their sorted tuples of per-edge
    atom labels are equal: matching the edges label by label gives, per part,
    an injection inside the atoms, which extends to a permutation of each atom.
    """
    items = universe.items
    if len(atoms) == 1:  # k = 1: an edge's label is its vertex's atom
        atom = atoms[0]
        labels = lambda m: [atom[x] for (x,) in m]
    else:
        labels = lambda m: [tuple(map(getitem, atoms, e)) for e in m]
    keys, classes = {}, {}
    rest = candidates
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        key = keys[v] = tuple(sorted(labels(items[v])))
        classes[key] = classes.get(key, 0) | low
    return {v: classes[key] for v, key in keys.items()}


def enumerate_union_universe(parts, sizes, cap: int = DEFAULT_UNIVERSE_CAP) -> Universe:
    """Enumerate the union universe over the given edge counts (ascending).

    Each level comes from `_enumerate_level` as sorted runs and is sorted in
    place, so no second copy of it is made.
    """
    parts = validate_parts(parts)
    sizes = tuple(sorted(set(int_tuple(sizes, "edge counts"))))
    if not sizes:
        raise ValueError("need at least one edge count")
    if sizes[0] < 0 or sizes[-1] > min(parts):
        raise ValueError(f"edge counts {sizes} out of range for parts {parts}")
    predicted = sum(count_matchings(parts, r) for r in sizes)
    if predicted > cap:
        raise UniverseTooLargeError(predicted, cap)
    table = _edge_table(parts)
    items = []
    for r in sizes:
        level = _enumerate_level(parts, r, table)
        level.sort()
        if len(level) != count_matchings(parts, r):
            raise AssertionError(
                f"enumeration bug: got {len(level)} matchings at r={r}, "
                f"expected {count_matchings(parts, r)}"
            )
        items.extend(level)
    return Universe(parts, sizes, items)


def enumerate_universe(parts, r: int, cap: int = DEFAULT_UNIVERSE_CAP) -> Universe:
    parts = validate_parts(parts)
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    return enumerate_union_universe(parts, (r,), cap)


# ---------------------------------------------------------------------------
# projection / restriction operators (part indices are 1-based)


def _check_part_index(k: int, i: int):
    if not 1 <= i <= k:
        raise ValueError(f"part index {i} out of range 1..{k}")


def project_pair(m, i: int, j: int) -> Matching:
    """The pair projection onto parts (i, j): the set of (x_i, x_j) over the edges."""
    if i == j:
        raise ValueError("projection needs two distinct parts")
    k = len(m[0]) if m else max(i, j)
    if not (1 <= i <= k and 1 <= j <= k):
        _check_part_index(k, i)
        _check_part_index(k, j)
    return tuple(sorted(map(itemgetter(i - 1, j - 1), m)))


def project_all(m, i: int, k: int | None = None) -> tuple:
    """All pair projections from part i, in increasing order of the other part."""
    if k is None:
        if not m:
            raise ValueError("cannot infer arity of an empty matching; pass k")
        k = len(m[0])
    _check_part_index(k, i)
    return tuple(project_pair(m, i, j) for j in range(1, k + 1) if j != i)


def drop_part(m, j: int) -> Matching:
    """Remove coordinate j from every edge, giving a matching of arity k-1."""
    if m and len(m[0]) == 1:
        raise ValueError("cannot drop the only part")
    if m:
        _check_part_index(len(m[0]), j)
    return tuple(sorted(e[: j - 1] + e[j:] for e in m))


def vertex_shadow(m, i: int) -> frozenset:
    """The set of part-i vertices incident to an edge of the matching."""
    if m:
        _check_part_index(len(m[0]), i)
    return frozenset(e[i - 1] for e in m)


def reduce_projection(m, i: int, j: int) -> tuple:
    """The tuple of pair projections from part i onto every part other than i and j."""
    if i == j:
        raise ValueError("reduction needs two distinct parts")
    if not m:
        return ()
    k = len(m[0])
    _check_part_index(k, i)
    _check_part_index(k, j)
    return tuple(project_pair(m, i, l) for l in range(1, k + 1) if l != i and l != j)


# ---------------------------------------------------------------------------
# families


def bit_positions(bits: int) -> list:
    """The positions of a bitset's set bits, ascending, in one pass over its binary digits.

    The digits are read lowest first, so each '1' is found at its position;
    the time is linear in the width, not in the width times the set bits.
    """
    if bits < 0:
        raise ValueError("a bitset cannot be negative")
    return [m.start() for m in _ONE.finditer(bin(bits)[:1:-1])]


def index_bits(indices, size: int) -> int:
    """The bitset with bit i set for each of the indices, each in range(size).

    Each index sets its bit in a little-endian byte buffer, which becomes an
    int once, so no bit is set by rebuilding an int as wide as the bitset.
    Raises ValueError at the first index out of range.
    """
    buf = bytearray((size + 7) >> 3)
    for i in indices:
        if not 0 <= i < size:
            raise ValueError(f"index {i} out of range for universe of size {size}")
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class Family:
    """A subset of one universe, stored as a bit-vector (Python int bitmask)."""

    __slots__ = ("universe", "bits", "annotations")

    def __init__(self, universe: Universe, bits: int, annotations: tuple = ()):
        if bits < 0 or bits >> len(universe):
            raise ValueError("bit-vector does not fit the universe")
        self.universe = universe
        self.bits = bits
        self.annotations = tuple(annotations)

    @classmethod
    def empty(cls, universe: Universe) -> "Family":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: Universe) -> "Family":
        return cls(universe, (1 << len(universe)) - 1)

    @classmethod
    def from_indices(cls, universe: Universe, indices, annotations: tuple = ()) -> "Family":
        return cls(universe, index_bits(indices, len(universe)), annotations)

    @classmethod
    def from_matchings(cls, universe: Universe, ms, annotations: tuple = ()) -> "Family":
        return cls.from_indices(universe, (universe.matching_index(m) for m in ms), annotations)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list:
        return bit_positions(self.bits)

    def members(self) -> list:
        items = self.universe.items
        return [items[i] for i in self.indices()]

    def contains(self, m) -> bool:
        idx = self.universe.position(canonical_matching(m))
        return idx is not None and bool(self.bits >> idx & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Family)
            and self.universe.key == other.universe.key
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.universe.key, self.bits))

    def __repr__(self):
        return f"Family(size={len(self)}, universe={self.universe.key})"


def reduction_classes(fam: Family, i: int, j: int) -> dict:
    """Group the members' pair projections onto (i, j), sorted, by their reduced projection.

    The reduced projection keeps the pair projections from part i onto every
    part except i and j; both are computed from each member.
    """
    k = fam.universe.k
    if i == j or not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"reduction needs two distinct part indices in 1..{k}, got {i} and {j}")
    classes: dict = {}
    for m in fam.members():
        classes.setdefault(reduce_projection(m, i, j), set()).add(project_pair(m, i, j))
    return {x: sorted(ps) for x, ps in classes.items()}


def restrict_family(fam: Family, i: int, j: int, x) -> list:
    """Pair projections onto (i, j) of the members whose reduced projection equals x."""
    return reduction_classes(fam, i, j).get(tuple(x), [])
