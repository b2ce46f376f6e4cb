"""The signature index against the pairwise predicates and brute-force star scans."""

from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest

from ekrmatch.constructions import t_set_star, t_star
from ekrmatch.matchings import enumerate_union_universe, enumerate_universe, project_pair
from ekrmatch.predicates import (
    PREDICATE_KINDS,
    Predicate,
    box_signatures,
    box_star_bits,
    edges_in_box,
    pair_checker,
    signature_bits,
    signature_index,
    signatures,
    unit_codes,
    unit_postings,
)
from ekrmatch.search import build_compat_graph

# (parts, sizes): k = 1, 2 and 3; union universes with r = 0 members and
# members with fewer than t edges
UNIVERSES = [
    ((5,), (0, 1, 2, 3)),
    ((3, 3), (0, 1, 2, 3)),
    ((3, 4), (2,)),
    ((3, 3, 3), (0, 1, 2)),
    ((2, 3, 3), (2,)),
]


def oracle_rows(universe, pred):
    """Rows from pair_checker on every pair of distinct matchings, diagonal set."""
    items = universe.items
    check = pair_checker(pred, universe.k)
    rows = []
    for u, p in enumerate(items):
        row = 1 << u
        for v, q in enumerate(items):
            if v != u and check(p, q):
                row |= 1 << v
        rows.append(row)
    return rows


@pytest.mark.parametrize("kind", PREDICATE_KINDS)
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("parts,sizes", UNIVERSES)
def test_rows_equal_pairwise_oracle(parts, sizes, kind, t):
    universe = enumerate_union_universe(parts, sizes)
    pred = Predicate(kind, t)
    want = oracle_rows(universe, pred)
    assert build_compat_graph(universe, pred).rows == want
    assert build_compat_graph(universe, pred, workers=2).rows == want


def test_small_matchings_have_no_signatures():
    for kind in PREDICATE_KINDS:
        pred = Predicate(kind, 2)
        for m in [(), ((1, 1, 1),)]:
            comps = signatures(m, pred, 3)
            assert len(comps) == (3 if pred.is_weak else 1)
            assert all(len(sigs) == 0 for sigs in comps)


def test_weak_equals_plain_at_k1():
    universe = enumerate_union_universe((5,), (1, 2, 3))
    for kind in ("intersecting", "set-intersecting"):
        weak, plain = Predicate("weakly-" + kind, 2), Predicate(kind, 2)
        assert signature_index(universe.items, weak, (5,)) == signature_index(universe.items, plain, (5,))


def test_postings_are_memoised_per_universe():
    a = enumerate_union_universe((3, 3), (2,))
    b = enumerate_union_universe((3, 3), (2,))
    for weak in (False, True):
        assert unit_postings(a, weak) is unit_postings(a, weak)
        assert unit_postings(a, weak) is not unit_postings(b, weak)
        assert unit_postings(a, weak) == unit_postings(b, weak)
    # the edge postings against a scan, and nothing else is kept on the universe
    want = {}
    for idx, m in enumerate(a.items):
        for e in m:
            want[e] = want.get(e, 0) | 1 << idx
    assert unit_postings(a) == (want,)
    assert set(a.memo) == {("units", False), ("units", True)}


@pytest.mark.parametrize("parts,sizes", [((2, 3, 3), (2,)), ((3, 3, 3), (0, 1, 2)), ((3, 4), (1, 2, 3)),
                                         ((6,), (0, 2, 3)), ((4, 4, 4), (3,))])
def test_unit_postings_equal_the_scan(parts, sizes):
    # (2,3,3) r=2 has 36 items and the (3,4) union 3 + 36 + 24: not whole bytes
    universe = enumerate_union_universe(parts, sizes)
    edges = {}
    for idx, m in enumerate(universe.items):
        for e in m:
            edges[e] = edges.get(e, 0) | 1 << idx
    (got,) = unit_postings(universe)
    assert got == edges and list(got) == list(edges)  # first-seen key order too
    assert all(bits >> len(universe) == 0 for bits in got.values())
    if universe.k < 2:
        return
    pairs = [(i, j) for i in range(1, universe.k + 1) for j in range(i + 1, universe.k + 1)]
    weak = tuple({} for _ in pairs)
    for e, bits in edges.items():
        for comp, (i, j) in zip(weak, pairs):
            pair = (e[i - 1], e[j - 1])
            comp[pair] = comp.get(pair, 0) | bits
    got = unit_postings(universe, True)
    assert got == weak and [list(comp) for comp in got] == [list(comp) for comp in weak]


@pytest.mark.parametrize("parts,r", [((5,), 3), ((4, 4), 4), ((3, 4, 5), 3), ((2, 2, 2), 2)])
def test_box_signatures_equal_the_per_part_oracle(parts, r):
    for m in enumerate_universe(parts, r).items[:25]:
        k = len(m[0])
        for t in range(1, len(m) + 2):
            want = frozenset(tuple(frozenset(e[i] for e in sub) for i in range(k)) for sub in combinations(m, t))
            assert box_signatures(m, t) == want


@pytest.mark.parametrize("parts,sizes", [((4, 4), (0, 1, 2, 3)), ((3, 3, 3), (1, 2, 3))])
@pytest.mark.parametrize("t", [1, 2])
def test_star_constructions_equal_brute_scan(parts, sizes, t):
    universe = enumerate_union_universe(parts, sizes)
    k = len(parts)
    edges = sorted({e for m in universe.items for e in m})
    for centre in combinations(edges, t):
        if any(len({e[i] for e in centre}) < t for i in range(k)):
            continue  # not a matching
        want = sum(1 << idx for idx, m in enumerate(universe.items) if set(centre) <= set(m))
        assert t_star(universe, centre).bits == want
    sides = [list(combinations(range(1, n + 1), t)) for n in parts]
    for box in product(*sides):
        want = sum(1 << idx for idx, m in enumerate(universe.items)
                   if edges_in_box(m, [set(side) for side in box]) == t)
        assert t_set_star(universe, box).bits == want



# uniform universes at k = 1, 2, 3, and union universes with r = 0 members
# and members smaller than t
BOX_UNIVERSES = [
    ((5,), (3,)),
    ((4, 4), (3,)),
    ((3, 4), (2,)),
    ((3, 3, 3), (3,)),
    ((5,), (0, 1, 2, 3)),
    ((4, 4), (0, 1, 2, 3)),
    ((3, 3, 3), (0, 1, 2)),
]


def unit_keys(parts, pred):
    """Per component, each unit's code from `unit_codes`, which gives every edge through a unit the same code.

    None for the plain intersecting kind, whose keys are edges.
    """
    k = len(parts)
    weak = pred.is_weak and k > 1
    if not (weak or pred.is_set):
        return None
    views = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)] if weak else [range(1, k + 1)]
    per_unit = [{} for _ in views]
    for e, codes in unit_codes(parts, weak, pred.is_set).items():
        assert len(codes) == len(views)
        for comp, view, code in zip(per_unit, views, codes):
            assert comp.setdefault(tuple(e[p - 1] for p in view), code) == code
    return per_unit


def key_of(per_unit, pred, component, signature):
    """A signature's index key: the sum of its t units' codes, a box's units any perfect matching of it.

    The plain intersecting kind keys a signature by itself, or at t = 1 by its edge.
    """
    if per_unit is None:
        return signature[0] if pred.t == 1 else signature
    units = zip(*map(sorted, signature)) if pred.is_set else signature
    return sum(per_unit[component][u] for u in units)


@pytest.mark.parametrize("parts,sizes", BOX_UNIVERSES)
@pytest.mark.parametrize("t", [1, 2, 3])
def test_box_star_bits_equal_brute_scan(parts, sizes, t):
    universe = enumerate_union_universe(parts, sizes)
    sides = [list(combinations(range(1, n + 1), t)) for n in parts]
    for box in product(*sides):
        box = tuple(frozenset(side) for side in box)
        want = sum(1 << idx for idx, m in enumerate(universe.items)
                   if len(m) >= t and edges_in_box(m, box) == t)
        assert box_star_bits(universe, box) == want


@pytest.mark.parametrize("parts,sizes", BOX_UNIVERSES)
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("kind", PREDICATE_KINDS)
def test_signature_bits_equal_posting_entries(parts, sizes, t, kind):
    universe = enumerate_union_universe(parts, sizes)
    pred = Predicate(kind, t)
    index, _ = signature_index(universe.items, pred, parts)
    assert len(index) == (3 if pred.is_weak and len(parts) == 3 else 1)
    assert any(index) == (t <= max(sizes))
    per_unit = unit_keys(parts, pred)
    for component, entries in enumerate(index):
        sigs = {s for m in universe.items for s in signatures(m, pred, universe.k)[component]}
        assert {key_of(per_unit, pred, component, s): signature_bits(universe, pred, component, s)
                for s in sigs} == entries


def test_t_set_star_errors_unchanged():
    u = enumerate_universe((4, 4), 3)
    cases = [
        (((1, 2),), "box has 1 sides, expected 2"),
        (((1, 2), (1, 2, 3)), "box sides must all have the same size"),
        (((), ()), "box side size 0 out of range for matching sizes (3,)"),
        (((1, 2, 3, 4), (1, 2, 3, 4)), "box side size 4 out of range for matching sizes (3,)"),
        (((1, 5), (1, 2)), "box side [1, 5] not inside part 1 of size 4"),
        (((1, 2), (0, 2)), "box side [0, 2] not inside part 2 of size 4"),
    ]
    for box, message in cases:
        with pytest.raises(ValueError) as err:
            t_set_star(u, box)
        assert str(err.value) == message


def item_signatures(m, pred, k):
    """One matching's signatures, a set per component, each item dispatched alone."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    views = [project_pair(m, i, j) for i, j in pairs] if pred.is_weak and k > 1 else [m]
    return [set(box_signatures(view, pred.t) if pred.is_set else combinations(view, pred.t)) for view in views]


def per_universe_index(universe, pred, indices):
    """The signature index as a loop over universe indices, bit idx for items[idx]."""
    k = universe.k
    index = tuple({} for _ in item_signatures((), pred, k))
    for idx in indices:
        for comp, sigs in zip(index, item_signatures(universe.items[idx], pred, k)):
            for s in sigs:
                comp[s] = comp.get(s, 0) | 1 << idx
    return index


INDEX_UNIVERSES = sorted(set(UNIVERSES + BOX_UNIVERSES))


@pytest.mark.parametrize("parts,sizes", INDEX_UNIVERSES)
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("kind", PREDICATE_KINDS)
def test_signature_index_over_item_lists_equals_the_per_universe_index(parts, sizes, t, kind):
    universe = enumerate_union_universe(parts, sizes)
    pred, k = Predicate(kind, t), len(parts)
    n = len(universe)
    per_unit = unit_keys(parts, pred)

    def keyed(comps):
        return [{key_of(per_unit, pred, c, s): bits for s, bits in comp.items()} for c, comp in enumerate(comps)]

    index, sigs = signature_index(universe.items, pred, parts)
    assert list(index) == keyed(per_universe_index(universe, pred, range(n)))
    assert [list(map(set, own)) for own in sigs] == [
        [{key_of(per_unit, pred, c, s) for s in ss} for c, ss in enumerate(item_signatures(m, pred, k))]
        for m in universe.items]
    # a sub-list sets bit i for its i-th item: the per-universe entries, compressed to the sub-list
    sub = list(range(0, n, 3)) + list(range(1, n, 3))[::2]
    sub.sort()
    want = keyed({s: sum(1 << i for i, v in enumerate(sub) if bits >> v & 1) for s, bits in comp.items()}
                 for comp in per_universe_index(universe, pred, sub))
    assert list(signature_index([universe.items[v] for v in sub], pred, parts)[0]) == want


@pytest.mark.parametrize("parts,sizes", INDEX_UNIVERSES)
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("kind", PREDICATE_KINDS)
def test_index_keys_equal_tuple_signatures(parts, sizes, t, kind):
    universe = enumerate_union_universe(parts, sizes)
    pred, k = Predicate(kind, t), len(parts)
    index, keys = signature_index(universe.items, pred, parts)
    sigs = [signatures(m, pred, k) for m in universe.items]
    per_unit = unit_keys(parts, pred)
    assert len(index) == len(sigs[0])
    for c, entries in enumerate(index):
        held = {}
        for idx, own in enumerate(sigs):
            for s in own[c]:
                held[s] = held.get(s, 0) | 1 << idx
        # two items share a key exactly when they share a signature
        for own_keys, own in zip(keys, sigs):
            assert reduce(or_, (entries[key] for key in own_keys[c]), 0) == reduce(or_, (held[s] for s in own[c]), 0)
        # one key per signature, each item's keys are those of its signatures,
        # and a key's entry holds the items having the signature
        key = {s: key_of(per_unit, pred, c, s) for s in held}
        assert len(set(key.values())) == len(key) and set(key.values()) == set(entries)
        for own_keys, own in zip(keys, sigs):
            assert sorted(own_keys[c]) == sorted(key[s] for s in own[c])
        for s, bits in held.items():
            assert signature_bits(universe, pred, c, s) == entries[key[s]] == bits
