"""Pairwise and family-level intersection predicates, and star recognition.

Four pairwise notions are supported, each with a strength parameter t:

* intersecting        -- the matchings share at least t edges;
* weakly-intersecting -- every 2-part pair projection shares at least t pairs;
* set-intersecting    -- some box of per-part t-sets contains exactly t edges
                         of each matching;
* weakly-set-intersecting -- every pair projection 2-part t-set-intersects
                         (projection-level reading; the notion is only used
                         at the projection level, so reports label it
                         "inferred").

For k = 1 the weak kinds coincide with their plain kinds; for k = 2 they
coincide as well, which the test suite checks by comparing whole adjacency
rows.

Every notion asks the same thing of two matchings: a common t-signature in
every component.  `signatures` states this once, and only this module turns
signatures into bits: graph rows through `signature_index` and
`signature_rows`, and the holders of given signatures (stars, weak centre
systems, row 0 of a transitive graph) through `holders` and `signature_bits`,
read off the edge postings; a plain star is `star_bits`, the AND of its
edges' postings, and a box star `box_star_bits`.  The pairwise functions
stay as the oracle.
An index key stands for one signature, equal exactly when the signatures
are: its edges for the plain intersecting kind, and for the other kinds a
small int, the sum of its t units' codes, looked up per edge in a table
built once per part structure (`unit_codes`).  So the rows are built
without projecting or boxing a matching.
The weak stars are the stars of the pair projections (`pair_projections`),
found by the same star recognisers.

The weak kinds' pair machinery lives here alone: the part-pair order of their
components (`part_pairs`), the pair universes (`pair_universe`) and the
pairwise tests (`pair_checker`), the last two built once per process.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, permutations, product

from .counts import int_tuple, t_set_star_size
from .matchings import Family, enumerate_universe, project_pair

PREDICATE_KINDS = (
    "intersecting",
    "weakly-intersecting",
    "set-intersecting",
    "weakly-set-intersecting",
)


@dataclass(frozen=True)
class Predicate:
    kind: str
    t: int

    def __post_init__(self):
        if self.kind not in PREDICATE_KINDS:
            raise ValueError(f"unknown predicate kind {self.kind!r}; expected one of {PREDICATE_KINDS}")
        int_tuple((self.t,), "predicate strengths")
        if self.t < 1:
            raise ValueError(f"predicate strength t must be positive, got {self.t}")

    @classmethod
    def parse(cls, spec: str) -> "Predicate":
        kind, sep, t = spec.partition(":")
        if not sep:
            raise ValueError(f"predicate spec {spec!r} must look like 'kind:t'")
        return cls(kind, int(t))

    @property
    def is_weak(self) -> bool:
        return self.kind.startswith("weakly-")

    @property
    def is_set(self) -> bool:
        return "set" in self.kind

    def plain(self) -> "Predicate":
        return Predicate(self.kind.removeprefix("weakly-"), self.t)

    def __str__(self):
        return f"{self.kind}:{self.t}"


@cache
def predicate(kind: str, t: int) -> Predicate:
    """The predicate of a kind and strength, built once per process."""
    return Predicate(kind, t)


def check_strength(pred: Predicate, sizes):
    """Reject t above every edge count: no two matchings could meet, so the cell says nothing."""
    if pred.t > max(sizes):
        raise ValueError(f"{pred} needs t at most the largest edge count, {max(sizes)}")


# ---------------------------------------------------------------------------
# pairwise predicates


def intersects_t(p, q, t: int) -> bool:
    return len(set(p) & set(q)) >= t


def weakly_intersects_t(p, q, t: int) -> bool:
    k = len(p[0]) if p else 0
    if k < 2:
        raise ValueError("weak intersection needs at least 2 parts")
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if len(set(project_pair(p, i, j)) & set(project_pair(q, i, j))) < t:
                return False
    return True


def box_signatures(m, t: int) -> frozenset:
    """Per-part shadow tuples of the t-edge subsets of a matching.

    Two matchings t-set-intersect exactly when they have a common signature:
    equal shadows pin down a box containing exactly t edges of each (the
    per-part distinctness of coordinates makes 'exactly t' automatic).
    """
    if t > len(m):
        return frozenset()
    return frozenset(tuple(map(frozenset, zip(*sub))) for sub in combinations(m, t))


def set_intersects_t(p, q, t: int) -> bool:
    if t > len(p) or t > len(q):
        raise ValueError(f"t={t} exceeds a matching size ({len(p)}, {len(q)})")
    return not box_signatures(p, t).isdisjoint(box_signatures(q, t))


def weakly_set_intersects_t(p, q, t: int) -> bool:
    k = len(p[0]) if p else 0
    if k < 2:
        raise ValueError("weak set intersection needs at least 2 parts")
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if not set_intersects_t(project_pair(p, i, j), project_pair(q, i, j), t):
                return False
    return True


@cache
def pair_checker(pred: Predicate, k: int):
    """The pairwise test over arity-k matchings (weak = plain at k = 1), built once per process.

    A matching with fewer than t edges meets nothing.
    """
    effective = pred.plain() if (pred.is_weak and k == 1) else pred
    t = effective.t
    test = {
        "intersecting": intersects_t,
        "weakly-intersecting": weakly_intersects_t,
        "set-intersecting": set_intersects_t,
        "weakly-set-intersecting": weakly_set_intersects_t,
    }[effective.kind]
    return lambda p, q: len(p) >= t and len(q) >= t and test(p, q, t)


def part_pairs(k: int) -> list:
    """The part pairs (i < j), 1-based, in order: the weak kinds' components, one pair each."""
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def signatures(m, pred: Predicate, k: int) -> tuple:
    """The t-signatures of an arity-k matching, one collection per component.

    Two matchings satisfy the predicate exactly when they share a signature
    in every component.  The plain kinds have one component, the matching;
    the weak kinds have one per pair projection (weak equals plain at k = 1).
    The signatures are the t-edge subsets for the intersecting kinds and the
    box signatures for the set kinds, so a matching with fewer than t edges
    has none and meets nothing.
    """
    t = pred.t
    views = [project_pair(m, i, j) for i, j in part_pairs(k)] if pred.is_weak and k > 1 else [m]
    if pred.is_set:
        return tuple(tuple(box_signatures(view, t)) for view in views)
    return tuple(tuple(combinations(view, t)) for view in views)


@cache
def unit_codes(parts: tuple, weak: bool, boxes: bool) -> dict:
    """The int codes of the units, built once per part structure: each edge to its units' codes, one per component.

    A component views some parts: all of them, or for the weak kinds one
    pair (i, j) each, in `part_pairs` order.  An edge's unit there is its
    coordinates on those parts: the edge itself, or the projected pair.  An
    intersecting-kind code (boxes false) is a bit of the unit's own, at its
    mixed-radix ordinal over the viewed parts; a set-kind code has one bit
    per viewed part, at that part's offset plus the coordinate, 0-based.
    `signature_index` reads it for every kind but plain intersecting.
    """
    k = len(parts)
    views = part_pairs(k) if weak else [tuple(range(1, k + 1))]
    table = {}
    for e in product(*(range(1, n + 1) for n in parts)):
        codes = []
        for view in views:
            code = offset = 0
            for p in view:
                if boxes:
                    code |= 1 << (offset + e[p - 1] - 1)
                    offset += parts[p - 1]
                else:
                    code = code * parts[p - 1] + e[p - 1] - 1
            codes.append(code if boxes else 1 << code)
        table[e] = tuple(codes)
    return table


def signature_index(items, pred: Predicate, parts) -> tuple:
    """(index, sigs): per component, a dict from each signature's key to the bitset of the items having it,
    bit i for items[i]; and sigs[i], the keys of items[i]'s signatures per component, computed once for the rows.

    Two keys are equal exactly when the signatures of `signatures` are, and
    no matching is projected or boxed.  The plain intersecting kind keys a
    signature by itself, its t edges, or at t = 1 by its edge, so a
    matching's keys are its edges there.  The other kinds key it by a small
    int, the sum of its t units' codes (`unit_codes`).  A matching's units
    have pairwise disjoint codes, since its units are distinct and its
    coordinates in one part are distinct, so the sum is their OR: the t-set
    of unit bits for weakly-intersecting, the box's per-part coordinate bits
    for the set kinds, as the t units of a box signature cover its sides.

    As in `unit_postings`, each key collects its items' bits in a
    little-endian byte buffer, which becomes an int once, so no bit is set
    by rebuilding an int as wide as the items indexed so far.
    """
    t = pred.t
    weak = pred.is_weak and len(parts) > 1
    components = len(part_pairs(len(parts))) if weak else 1
    if not (weak or pred.is_set):
        sigs = [(m,) for m in items] if t == 1 else [(tuple(combinations(m, t)),) for m in items]
    else:
        codes = unit_codes(parts, weak, pred.is_set).__getitem__
        # the empty matching has every component, each without signatures
        none = ((),) * components
        if t == 1:
            sigs = [tuple(zip(*map(codes, m))) or none for m in items]
        else:
            sigs = [tuple(tuple(map(sum, combinations(units, t))) for units in zip(*map(codes, m))) or none
                    for m in items]
    bufs = [defaultdict(partial(bytearray, (len(sigs) + 7) >> 3)) for _ in range(components)]
    for i, own in enumerate(sigs):
        byte, bit = i >> 3, 1 << (i & 7)
        for comp, ss in zip(bufs, own):
            for s in ss:
                comp[s][byte] |= bit
    return tuple({s: int.from_bytes(buf, "little") for s, buf in comp.items()} for comp in bufs), sigs


def signature_rows(index, sigs, first: int = 0) -> list:
    """The items' rows, the i-th with its diagonal at bit first + i: per component the OR of its entries, ANDed."""
    out = []
    for u, own in enumerate(sigs, first):
        row = -1
        for comp, ss in zip(index, own):
            hit = 0
            for s in ss:
                hit |= comp[s]
            row &= hit
        out.append(row | (1 << u))
    return out


def unit_postings(universe, weak: bool = False) -> tuple:
    """Per component, a dict from each unit to the bitset of the matchings holding it.

    A unit is an edge for the plain kinds (the edge postings) and a projected
    pair for the weak ones (components as in `part_pairs`), where a matching
    holds the pair (a, b) on parts (i, j) when one of its edges has
    coordinates a and b there.  Both are memoised on the universe.

    The edge postings are built in time linear in the universe: each edge
    collects its matchings' bits in a little-endian byte buffer, which
    becomes an int once, so no bit is set by rebuilding a universe-wide int.
    Edges come in the order first seen over the items, and each weak
    posting is the OR of its edges' postings.
    """
    key = ("units", weak)
    units = universe.memo.get(key)
    if units is None:
        if weak:
            pairs = part_pairs(universe.k)
            units = tuple({} for _ in pairs)
            for e, bits in unit_postings(universe)[0].items():
                for comp, (i, j) in zip(units, pairs):
                    pair = (e[i - 1], e[j - 1])
                    comp[pair] = comp.get(pair, 0) | bits
        else:
            bufs = defaultdict(partial(bytearray, (len(universe) + 7) >> 3))
            for i, m in enumerate(universe.items):
                byte, bit = i >> 3, 1 << (i & 7)
                for e in m:
                    bufs[e][byte] |= bit
            units = ({e: int.from_bytes(buf, "little") for e, buf in bufs.items()},)
        universe.memo[key] = units
    return units


def signature_bits(universe, pred: Predicate, component: int, signature) -> int:
    """The matchings of the universe having `signature` in `component`.

    It is read off the edge postings alone.  A signature of the intersecting
    kinds is t distinct units, held together exactly by the matchings in the
    AND of their postings.  A box of per-part t-sets holds t units of a
    matching exactly when they form a perfect matching of the box, since t
    units inside it cover every side; so its entry is the OR, over the box's
    t!^(k-1) perfect matchings, of the AND of their units.  A matching with
    fewer than t units holds no signature either way.
    """
    units = unit_postings(universe, pred.is_weak and universe.k > 1)[component]
    everything = (1 << len(universe)) - 1
    if not pred.is_set:
        return _and_postings(units, signature, everything)
    first, *rest = (sorted(side) for side in signature)
    bits = 0
    for cols in product(*map(permutations, rest)):
        bits |= _and_postings(units, zip(first, *cols), everything)
    return bits


def _and_postings(postings: dict, units, bits: int) -> int:
    """bits AND the posting of every unit, a unit that no matching holds posting nothing."""
    for unit in units:
        bits &= postings.get(unit, 0)
    return bits


def holders(universe, pred: Predicate, sigs) -> int:
    """The matchings holding one of sigs[c] in every component c; for ``signatures(m, pred, k)``, m's row."""
    bits = (1 << len(universe)) - 1
    for component, ss in enumerate(sigs):
        hit = 0
        for s in ss:
            hit |= signature_bits(universe, pred, component, s)
        bits &= hit
    return bits


def family_satisfies(fam: Family, pred: Predicate) -> bool:
    """Whether every two members satisfy the pairwise predicate (quadratic loop)."""
    members = fam.members()
    check = pair_checker(pred, fam.universe.k)
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            if not check(members[a], members[b]):
                return False
    return True


def cross_set_intersecting(g: Family, h: Family, t: int) -> bool:
    """Whether every member of one family t-set-intersects every member of the other: h lies in their holders."""
    if g.universe.sizes != h.universe.sizes or g.universe.k != h.universe.k:
        raise ValueError(
            f"cross check needs matching edge counts and arity: "
            f"{g.universe.key} vs {h.universe.key}"
        )
    pred = predicate("set-intersecting", t)
    return all(h.bits & ~holders(h.universe, pred, signatures(m, pred, g.universe.k)) == 0
               for m in g.members())


# ---------------------------------------------------------------------------
# star recognition


@dataclass
class StarClassification:
    kind: str  # "t-star" | "t-set-star" | "weak-t-star" | "weak-t-set-star" | "none"
    t: int
    centres: tuple = ()
    projections_are_box_stars: bool | None = None
    annotations: tuple = ()


def degenerate_star_params(parts, r: int, t: int) -> bool:
    """Parameter sets where a t-star centre is not unique (single-member stars)."""
    return r == t or (r == t + 1 and all(n == t + 1 for n in parts))


def star_param_notes(universe, t: int) -> tuple:
    """The annotations of a uniform universe whose t-(set-)star centres are not unique; () otherwise.

    A t-set-star is ambiguous when a box and its complement are both centres.
    """
    if len(universe.sizes) != 1:
        return ()
    parts, r = universe.parts, universe.r
    notes = []
    if degenerate_star_params(parts, r, t):
        notes.append("degenerate-star-centre")
    if r == 2 * t and all(n == 2 * t for n in parts):
        notes.append("ambiguous-box-centre")
    return tuple(notes)


def edges_in_box(m, box) -> int:
    return sum(all(e[i] in box[i] for i in range(len(e))) for e in m)


def _star_centres(fam: Family, t: int) -> tuple:
    """All t-edge centres whose full star in the universe equals the family.

    A centre's edges lie in every member, the lowest one included, and an
    edge lies in every member exactly when its posting holds the family.
    """
    u, bits = fam.universe, fam.bits
    edges = unit_postings(u)[0]
    lowest = u.items[(bits & -bits).bit_length() - 1]
    common = [e for e in lowest if edges[e] & bits == bits]
    return tuple(c for c in combinations(common, t) if star_bits(u, c) == bits)


def star_bits(universe, edges) -> int:
    """The matchings of the universe holding every given edge: the AND of the edge postings, every matching for none."""
    return _and_postings(unit_postings(universe)[0], edges, (1 << len(universe)) - 1)


def box_star_bits(universe, box) -> int:
    """The matchings of the universe with exactly t edges inside a box of per-part t-sets."""
    return signature_bits(universe, predicate("set-intersecting", len(box[0])), 0, box)


def _set_star_boxes(fam: Family, t: int) -> tuple:
    """All t-boxes whose full set-star in the universe equals the family, read off its lowest member."""
    u, bits = fam.universe, fam.bits
    first = u.items[(bits & -bits).bit_length() - 1]
    found = []
    # distinct t-subsets of one matching have distinct boxes
    for sub in combinations(first, t):
        box = tuple(frozenset(e[i] for e in sub) for i in range(u.k))
        if box_star_bits(u, box) == bits:
            found.append(tuple(tuple(sorted(side)) for side in box))
    return tuple(found)


@cache
def pair_universe(n_i: int, n_j: int, r: int):
    """The r-edge matchings between parts of sizes n_i and n_j, enumerated once per process."""
    return enumerate_universe((n_i, n_j), r)


def pair_projections(fam: Family):
    """Yield a uniform family's pair projections in `part_pairs` order, each a Family of its pair universe.

    `project_pair`'s output is canonical already, so each is placed in
    `pair_universe` by `Universe.position` with no validation step.
    """
    u = fam.universe
    members, r = fam.members(), u.r
    for i, j in part_pairs(u.k):
        pu = pair_universe(u.parts[i - 1], u.parts[j - 1], r)
        bits = 0
        for m in members:
            bits |= 1 << pu.position(project_pair(m, i, j))
        yield Family(pu, bits)


def projections_are_stars(projs, t: int) -> bool:
    """Whether every pair projection (`pair_projections`) is a full t-star of its pair universe: a weak t-star."""
    return all(_star_centres(p, t) for p in projs)


def classify_star(fam: Family, t: int) -> StarClassification:
    """Identify whether a family is exactly a full (set-)star or a weak one.

    Precedence: t-star, then t-set-star, then the weak variants.  All valid
    centres are reported, which covers both degenerate regimes (single-member
    stars, and box/complement-box ambiguity at r = 2t with all parts of size
    2t).  A weak t-star (k >= 3, uniform) has a t-star in every pair
    projection (`pair_projections`); a weak t-set-star has a box-star-sized
    t-set-intersecting family there, and records whether each is a box star.
    """
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    u = fam.universe
    if len(fam) == 0:
        return StarClassification("none", t, annotations=("empty",))
    notes = star_param_notes(u, t)

    centres = _star_centres(fam, t)
    if centres:
        return StarClassification("t-star", t, centres, annotations=notes)

    if u.k >= 2:
        boxes = _set_star_boxes(fam, t)
        if boxes:
            return StarClassification("t-set-star", t, boxes, annotations=notes)

    if u.k >= 3 and len(u.sizes) == 1 and t <= u.r:
        projs = list(pair_projections(fam))
        if projections_are_stars(projs, t):
            return StarClassification("weak-t-star", t, annotations=notes)
        if all(len(p) == t_set_star_size(p.universe.parts, u.r, t) and cross_set_intersecting(p, p, t)
               for p in projs):
            genuine = all(_set_star_boxes(p, t) for p in projs)
            return StarClassification(
                "weak-t-set-star", t, projections_are_box_stars=genuine, annotations=notes
            )

    return StarClassification("none", t, annotations=notes)
