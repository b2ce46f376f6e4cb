import json
import random
import re

import pytest

from ekrmatch import search
from ekrmatch.counts import count_matchings
from ekrmatch.matchings import (
    Family,
    Universe,
    UniverseTooLargeError,
    bit_positions,
    canonical_matching,
    drop_part,
    enumerate_union_universe,
    enumerate_universe,
    index_bits,
    project_all,
    project_pair,
    reduce_projection,
    reduction_classes,
    restrict_family,
    validate_matching,
    vertex_shadow,
)
from ekrmatch.predicates import predicate
from ekrmatch.search import CompatGraph, ExtremalReport, _to_vertices, build_compat_graph, extremal
from ekrmatch.storage import (
    REPORT_COLUMNS,
    load_family,
    load_universe,
    report_row,
    save_family,
    save_universe,
)
from helpers import brute_matchings, random_subfamily
from test_averaging import averaging_off

PAPER_P = ((1, 1, 1), (2, 2, 2), (3, 3, 3))
PAPER_Q = ((1, 1, 4), (2, 4, 2), (4, 3, 3))


def level_starts(u):
    """Each edge-count level's first position, as the proof phase's roots (`search._proof_roots`) find it."""
    rows = [0] * len(u)
    return [v for _, v, _ in search._proof_roots(CompatGraph(u, predicate("intersecting", 1), rows), rows)]

@pytest.mark.parametrize("parts,r", [((2, 2), 2), ((3, 3), 2), ((3, 4), 2),
                                     ((3, 3, 3), 2), ((4,), 2), ((4, 4), 3)])
def test_enumeration_matches_brute_force(parts, r):
    u = enumerate_universe(parts, r)
    assert list(u.items) == sorted(brute_matchings(parts, r))
    assert len(u) == count_matchings(parts, r)


def test_enumeration_is_canonical_and_lexicographic():
    u = enumerate_universe((3, 3, 3), 2)
    assert list(u.items) == sorted(u.items)
    for m in u.items:
        assert canonical_matching(m) == m
    assert len(set(u.items)) == len(u)


@pytest.mark.parametrize("parts,sizes", [((1,), (0, 1)), ((5,), (1, 2, 3)), ((6,), (0, 3, 6)),
                                         ((3, 3), (0, 1, 2, 3)), ((2, 3, 3), (0, 1, 2))])
def test_one_part_and_empty_levels_match_brute_force(parts, sizes):
    u = enumerate_union_universe(parts, sizes)
    assert list(u.items) == [m for r in sizes for m in sorted(brute_matchings(parts, r))]


@pytest.mark.parametrize("parts,sizes", [((4, 4, 4), (3,)), ((6, 6), (6,)), ((3, 3), (1, 2, 3))])
def test_equal_edges_are_one_object_per_universe(parts, sizes):
    u = enumerate_union_universe(parts, sizes)
    edges = [e for m in u.items for e in m]
    assert len({id(e) for e in edges}) == len(set(edges))


@pytest.mark.parametrize("parts,sizes", [((2, 3, 4), (2,)), ((5, 5), (5,)), ((3, 3, 3), (3,)),
                                         ((2, 3, 3), (0, 1, 2)), ((2, 3, 3, 2), (2,)),
                                         ((2, 2, 2, 2, 2), (2,)), ((4, 3, 5), (0, 1, 2, 3))])
def test_edge_table_enumeration_matches_brute_force(parts, sizes):
    # unequal parts, a full level, three parts at r = min part, unions from r = 0, and
    # k = 4 and 5 at r = n_1, one row set, so only the column pools and their zip act
    u = enumerate_union_universe(parts, sizes)
    assert list(u.items) == [m for r in sizes for m in sorted(brute_matchings(parts, r))]
    assert [u.position(m) for m in u.items] == list(range(len(u)))
    assert level_starts(u) == [sum(count_matchings(parts, s) for s in sizes if s < r) for r in sizes]
    edges = [e for m in u.items for e in m]
    assert len({id(e) for e in edges}) == len(set(edges))


@pytest.mark.parametrize("parts,sizes", [((4, 3, 4), (3,)), ((5, 4, 4), (2,)), ((3, 3, 4, 3), (2,)),
                                         ((4, 3, 4), (1, 2, 3)), ((3, 3, 4, 3), (0, 1, 2))])
def test_sorted_runs_merge_to_the_brute_force_order(parts, sizes):
    # k = 3 and 4 with r < n_1, so each level merges C(n_1, r) runs, and unions of sizes
    u = enumerate_union_universe(parts, sizes)
    assert list(u.items) == [m for r in sizes for m in sorted(brute_matchings(parts, r))]


def test_index_is_built_on_first_read():
    # no lookup table is ever built: a universe keeps its items and one memo, and every lookup bisects
    u = enumerate_universe((4, 4, 4), 3)
    rep = extremal((4, 4, 4), (3,), predicate("weakly-intersecting", 1), universe=u)
    assert rep.max_size == 108
    assert Universe.__slots__ == ("parts", "sizes", "items", "memo")
    assert [u.position(m) for m in u.items] == list(range(len(u)))


# every universe of these tests: k = 1..5, unions from r = 0 (the empty matching), full levels
LOOKUP_CELLS = [((1,), (0, 1)), ((4,), (0, 1, 2, 3, 4)), ((5,), (1, 2, 3)), ((6,), (0, 3, 6)),
                ((3, 3), (1, 2)), ((3, 3), (0, 1, 2, 3)), ((1, 3), (0, 1)), ((3, 4), (2,)), ((5, 5), (5,)),
                ((6, 6), (3,)), ((2, 3, 4), (2,)), ((3, 3, 3), (3,)), ((2, 3, 3), (0, 1, 2)), ((4, 4, 4), (3,)),
                ((4, 3, 5), (0, 1, 2, 3)), ((2, 3, 3, 2), (2,)), ((3, 3, 4, 3), (0, 1, 2)), ((2, 2, 2, 2, 2), (2,))]


@pytest.mark.parametrize("parts,sizes", LOOKUP_CELLS, ids=[f"{p}-R{s}" for p, s in LOOKUP_CELLS])
def test_position_and_matching_index_equal_a_dict_of_the_items(parts, sizes):
    u = enumerate_union_universe(parts, sizes)
    index = {m: i for i, m in enumerate(u.items)}
    assert [u.position(m) for m in index] == list(index.values())
    # matching_index canonicalises first: each member with its edges reversed is found too
    assert [u.matching_index(m[::-1]) for m in index] == list(index.values())
    assert u.position(()) == index.get(()) == (0 if 0 in sizes else None)


def test_position_on_the_n0_sub_universe_of_a_transitive_cell(monkeypatch):
    # the proof phase's matchings at the rows' bit positions: N[0]'s items, a sub-list of the universe's
    averaging_off(monkeypatch)
    locals_, real = [], search._search_roots
    monkeypatch.setattr(search, "_search_roots",
                        lambda nadj, roots, state: locals_.append(state.relabel) or real(nadj, roots, state))
    u = enumerate_universe((3, 3, 3), 2)
    graph = build_compat_graph(u, predicate("intersecting", 1))
    assert graph.transitive and search.max_clique(graph)[0] == 8  # the 1-star
    local = locals_[0]
    assert 1 < len(local) < len(u)
    index = {m: i for i, m in enumerate(local.items)}
    assert [local.position(m) for m in u.items] == [index.get(m) for m in u.items]
    assert [local.matching_index(m) for m in local.items] == list(range(len(local)))


def test_every_kind_of_non_member_keeps_the_key_error_text():
    u = enumerate_union_universe((3, 3), (1, 2))
    gap = Universe(u.parts, u.sizes, u.items[:3] + u.items[4:])
    for universe, m in [(u, ((1, 1), (2, 2), (3, 3))),  # a level the universe lacks
                        (u, ()),  # the empty level too
                        (gap, u.items[3]),  # a gap in the items
                        (u, ((1, 1, 1),)),  # the wrong arity
                        (u, ((4, 1),))]:  # a coordinate out of range
        with pytest.raises(KeyError, match=re.escape(f"matching {m} is not in universe {universe.key}")):
            universe.matching_index(m)
        assert universe.position(m) is None
        assert not Family.full(universe).contains(m)


def test_index_round_trip():
    u = enumerate_universe((3, 3), 2)
    for i, m in enumerate(u.items):
        assert u.matching_index(m) == i
    with pytest.raises(KeyError):
        u.matching_index((((1, 1), (1, 2))))  # repeated part-1 coordinate


def test_universe_cap():
    with pytest.raises(UniverseTooLargeError) as err:
        enumerate_universe((3, 3), 2, cap=10)
    assert err.value.predicted == 18


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        enumerate_universe((3, 3), 0)
    with pytest.raises(ValueError):
        enumerate_universe((3, 3), 4)
    # part sizes and edge counts are ints, never truncated: 3.5, True and "2" are refused by name
    for parts, sizes in [((3.5, 3), (1,)), ((True, 3), (1,)), (("2", 3), (1,)),
                         ((3, 3), (1.5, 2)), ((3, 3), (True,)), ((3, 3), ("2",))]:
        bad = next(v for v in parts + sizes if type(v) is not int)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            enumerate_union_universe(parts, sizes)


def test_union_universe_levels():
    u = enumerate_union_universe((3, 3), (1, 2))
    assert len(u) == 9 + 18
    assert u.sizes == (1, 2)
    assert level_starts(u) == [0, 9]
    assert all(len(m) == 1 for m in u.items[:9])
    assert all(len(m) == 2 for m in u.items[9:])
    with pytest.raises(ValueError):
        u.r  # no single edge count


def test_validate_matching():
    assert validate_matching((3, 3), [(2, 2), (1, 1)]) == ((1, 1), (2, 2))
    with pytest.raises(ValueError):
        validate_matching((3, 3), [(1, 1), (1, 2)])  # repeated coordinate
    with pytest.raises(ValueError):
        validate_matching((3, 3), [(1, 4)])  # out of range
    with pytest.raises(ValueError):
        validate_matching((3, 3), [(1, 1, 1)])  # wrong arity


@pytest.mark.parametrize("call,bad", [
    (lambda: validate_matching((3, 3), [(1.5, 1), (2, 2)]), "1.5"),
    (lambda: enumerate_universe((3, 3), 1).matching_index([(2.9, 1)]), "2.9"),
    (lambda: canonical_matching([(True, 2)]), "True"),
], ids=["validate-fraction", "index-fraction", "canonical-bool"])
def test_matching_coordinates_must_be_ints_not_truncated(call, bad):
    # int() used to truncate: ((1, 1), (2, 2)), index 3 and ((1, 2),)
    with pytest.raises(ValueError, match=f"matching coordinates must be integers, got {bad}$"):
        call()


def test_a_well_formed_non_member_is_still_a_key_error():
    with pytest.raises(KeyError, match=re.escape("matching [(2, 4)] is not in universe ((3, 3), (1,))")):
        enumerate_universe((3, 3), 1).matching_index([(2, 4)])


def test_project_pair_examples():
    assert project_pair(PAPER_P, 1, 3) == ((1, 1), (2, 2), (3, 3))
    assert project_pair(PAPER_Q, 1, 2) == ((1, 1), (2, 4), (4, 3))
    assert project_pair(((1, 2),), 2, 1) == ((2, 1),)
    with pytest.raises(ValueError):
        project_pair(PAPER_P, 2, 2)


def test_project_pair_errors():
    cases = [(PAPER_P, 2, 2, "projection needs two distinct parts"),
             ((), 1, 1, "projection needs two distinct parts"),
             (PAPER_P, 0, 2, "part index 0 out of range 1..3"),
             (PAPER_P, 1, 4, "part index 4 out of range 1..3"),
             (PAPER_P, 4, 0, "part index 4 out of range 1..3"),
             (((1, 2),), 3, 1, "part index 3 out of range 1..2"),
             ((), 0, 2, "part index 0 out of range 1..2"),
             ((), -1, 3, "part index -1 out of range 1..3")]
    for m, i, j, message in cases:
        with pytest.raises(ValueError) as err:
            project_pair(m, i, j)
        assert str(err.value) == message
    # the empty matching infers k from the larger index, and projects to nothing
    assert project_pair((), 2, 5) == () and project_pair((), 5, 1) == ()


def test_project_pair_equals_the_per_edge_oracle():
    rng = random.Random(5)
    for parts, r in [((4, 5), 3), ((3, 4, 5), 3), ((3, 3, 3, 3), 2)]:
        u = enumerate_universe(parts, r)
        k = len(parts)
        for m in rng.sample(u.items, 10):
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    if i != j:
                        assert project_pair(m, i, j) == tuple(sorted((e[i - 1], e[j - 1]) for e in m))


def test_drop_part_examples():
    assert drop_part(PAPER_P, 2) == ((1, 1), (2, 2), (3, 3))
    assert drop_part(((1, 2), (2, 1)), 2) == ((1,), (2,))
    with pytest.raises(ValueError):
        drop_part(((1,), (2,)), 1)


def test_drop_and_project_commute():
    # dropping part j then projecting equals projecting then removing entry j
    for m in enumerate_universe((3, 3, 3), 2).items[:40]:
        direct = reduce_projection(m, 1, 2)  # (P^1_3,)
        via_drop = project_all(drop_part(m, 2), 1, k=2)
        assert direct == via_drop
    direct = reduce_projection(PAPER_Q, 1, 2)
    assert direct == (project_pair(PAPER_Q, 1, 3),)


def test_vertex_shadow():
    assert vertex_shadow(PAPER_P, 2) == frozenset({1, 2, 3})
    assert vertex_shadow(PAPER_Q, 3) == frozenset({4, 2, 3})
    assert vertex_shadow(((3, 1),), 1) == frozenset({3})
    # the shadow survives projection
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                assert vertex_shadow(project_pair(PAPER_Q, i, j), 1) == vertex_shadow(PAPER_Q, i)


def test_projection_is_injective_on_random_families():
    rng = random.Random(11)
    u = enumerate_universe((3, 3, 3), 2)
    for _ in range(30):
        fam = random_subfamily(u, rng, max_size=15)
        members = fam.members()
        for i in (1, 2, 3):
            assert len({project_all(m, i) for m in members}) == len(members)


def test_restriction_partitions_the_family():
    u = enumerate_universe((3, 3, 3), 2)
    full = Family.full(u)
    for i, j in [(1, 2), (2, 1), (1, 3), (3, 2)]:
        classes = reduction_classes(full, i, j)
        assert sum(len(ps) for ps in classes.values()) == 108
    rng = random.Random(3)
    for _ in range(20):
        fam = random_subfamily(u, rng)
        classes = reduction_classes(fam, 1, 3)
        assert sum(len(ps) for ps in classes.values()) == len(fam)


def test_restrict_family_single_member():
    u = enumerate_universe((3, 3, 3), 2)
    fam = Family.from_indices(u, [17])
    m = u.items[17]
    x = reduce_projection(m, 1, 2)
    assert restrict_family(fam, 1, 2, x) == [project_pair(m, 1, 2)]
    assert restrict_family(fam, 1, 2, ((9, 9),) * 2) == []


def reduction_classes_oracle(fam, i, j):
    """The classes recomputed from every member with `reduce_projection` and `project_pair`."""
    classes = {}
    for m in fam.members():
        classes.setdefault(reduce_projection(m, i, j), set()).add(project_pair(m, i, j))
    return {x: sorted(ps) for x, ps in classes.items()}


@pytest.mark.parametrize("parts,r", [((3, 3, 3), 2), ((4, 4, 4), 3)])
def test_reduction_classes_and_restrict_family_equal_the_per_member_oracle(parts, r):
    u = enumerate_universe(parts, r)
    rng = random.Random(11)
    pairs = [(i, j) for i in range(1, len(parts) + 1) for j in range(1, len(parts) + 1) if i != j]
    full = Family.full(u)
    for i, j in pairs:
        assert reduction_classes(full, i, j) == reduction_classes_oracle(full, i, j)
    for _ in range(30):
        fam = random_subfamily(u, rng, max_size=40)
        for i, j in pairs:
            want = reduction_classes_oracle(fam, i, j)
            assert reduction_classes(fam, i, j) == want
            for x, projs in want.items():
                assert restrict_family(fam, i, j, x) == projs
            x = reduce_projection(u.items[rng.randrange(len(u))], i, j)  # a class the family may miss
            assert restrict_family(fam, i, j, x) == want.get(x, [])


def test_reduction_classes_reject_bad_part_indices():
    u = enumerate_universe((3, 3, 3), 2)
    for fam in (Family.full(u), Family.empty(u)):
        for i, j in [(1, 1), (3, 3), (0, 2), (1, 4), (4, 1)]:
            with pytest.raises(ValueError):
                reduction_classes(fam, i, j)
            with pytest.raises(ValueError):
                restrict_family(fam, i, j, ())


def test_restriction_stays_over_the_class_shadow():
    u = enumerate_universe((3, 3, 3), 2)
    fam = Family.from_indices(u, range(0, 108, 7))
    for x, projs in reduction_classes(fam, 2, 3).items():
        shadow = vertex_shadow(x[0], 1)
        for p in projs:
            assert vertex_shadow(p, 1) == shadow


def test_family_basics():
    u = enumerate_universe((3, 3), 2)
    fam = Family.from_matchings(u, [(((1, 1), (2, 2))), (((1, 1), (3, 3)))])
    assert len(fam) == 2
    assert fam.contains(((2, 2), (1, 1)))
    assert not fam.contains(((1, 2), (2, 1)))
    assert fam.members() == [((1, 1), (2, 2)), ((1, 1), (3, 3))]
    assert Family.full(u).bits == (1 << 18) - 1
    assert len(Family.empty(u)) == 0


def test_family_universe_mismatch():
    u1 = enumerate_universe((3, 3), 2)
    with pytest.raises(ValueError):
        Family(u1, 1 << 20)  # bits beyond the universe
    with pytest.raises(KeyError):
        Family.from_matchings(u1, [((1, 1, 1), (2, 2, 2))])


def test_universe_storage_round_trip(tmp_path):
    u = enumerate_union_universe((3, 3), (1, 2))
    path = tmp_path / "universe.jsonl"
    save_universe(u, str(path))
    loaded = load_universe(str(path))
    assert loaded.items == u.items and loaded.key == u.key


def test_universe_storage_rejects_tampering(tmp_path):
    u = enumerate_universe((2, 2), 2)
    path = tmp_path / "universe.jsonl"
    save_universe(u, str(path))
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_universe(str(path))


@pytest.mark.parametrize("change,found", [(lambda lines: lines + lines[-1:], 19), (lambda lines: lines[:-1], 17)],
                         ids=["extra-line", "missing-line"])
def test_universe_storage_rejects_a_wrong_item_count(tmp_path, change, found):
    # an extra item line is counted, not read past the end of the universe
    u = enumerate_universe((3, 3), 2)
    path = tmp_path / "universe.jsonl"
    save_universe(u, str(path))
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + change(lines)) + "\n")
    with pytest.raises(ValueError, match=f"expected 18 items, found {found}"):
        load_universe(str(path))


@pytest.mark.parametrize("form", ["indices", "matchings"])
def test_family_storage_round_trip(tmp_path, form):
    u = enumerate_union_universe((3, 3), (1, 2))
    fam = Family.from_indices(u, [0, 5, 20], annotations=("demo",))
    path = tmp_path / "family.json"
    save_family(fam, str(path), form=form)
    loaded = load_family(str(path))
    assert loaded == fam
    assert loaded.annotations == ("demo",)


def test_family_file_with_a_fractional_coordinate_is_rejected(tmp_path):
    fam = Family.from_indices(enumerate_universe((3, 3), 2), [0, 4])
    path = tmp_path / "family.json"
    save_family(fam, str(path), form="matchings")
    doc = json.loads(path.read_text())
    doc["matchings"][0][0][0] = 1.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="matching coordinates must be integers, got 1.5"):
        load_family(str(path))


@pytest.mark.parametrize("bad", [True, 1.0])
def test_family_file_with_a_non_int_index_is_rejected(tmp_path, bad):
    # JSON true would read as index 1, and 1.0 would fail deep in the bitset build
    fam = Family.from_indices(enumerate_universe((3, 3), 2), [0, 4])
    path = tmp_path / "family.json"
    save_family(fam, str(path))
    doc = json.loads(path.read_text())
    doc["indices"] = [bad]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"family indices must be integers, got {bad!r}"):
        load_family(str(path))


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# each family file is the matchings form of {0, 4} in (3,3) r=2, changed; each error must name the value
MALFORMED_FAMILIES = {
    "edge-not-a-list": (lambda doc: dict(doc, matchings=[[1]]),
                        "matching coordinates must be a list of integers, got 1"),
    "matching-not-a-list": (lambda doc: dict(doc, matchings=[1]), "matchings [1]: 'int' object is not iterable"),
    "non-member": (lambda doc: dict(doc, matchings=[[[1, 1]]]),
                   "matching [[1, 1]] is not in universe ((3, 3), (2,))"),
    "edge-arity": (lambda doc: dict(doc, matchings=[[[1, 1, 1], [2, 2, 2]]]),
                   "matching [[1, 1, 1], [2, 2, 2]] is not in universe"),
    "no-form": (lambda doc: _without(doc, "form"), "no 'form' in {"),
    "no-universe": (lambda doc: _without(doc, "universe"), "no 'universe' in {"),
    "unknown-form": (lambda doc: dict(doc, form="bits"), "unknown family form 'bits'"),
    "not-an-object": (lambda doc: [doc], "no 'kind' in [{"),
}


@pytest.mark.parametrize("case", MALFORMED_FAMILIES)
def test_malformed_family_file_raises_value_error(tmp_path, case):
    change, message = MALFORMED_FAMILIES[case]
    path = tmp_path / "family.json"
    save_family(Family.from_indices(enumerate_universe((3, 3), 2), [0, 4]), str(path), form="matchings")
    path.write_text(json.dumps(change(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_family(str(path))


# each universe file is (3,3) r=2 with its header or item lines changed
MALFORMED_UNIVERSES = {
    "list-header": (lambda header, lines: ([header], lines), "no 'kind' in [{"),
    "no-parts": (lambda header, lines: (_without(header, "parts"), lines), "no 'parts' in {"),
    "parts-not-a-list": (lambda header, lines: (dict(header, parts=3), lines),
                         "part sizes must be a list of integers, got 3"),
    "int-item": (lambda header, lines: (header, lines[:1] + [7] + lines[2:]),
                 "item 1 is 7, expected ((1, 1), (2, 3))"),
}


@pytest.mark.parametrize("case", MALFORMED_UNIVERSES)
def test_malformed_universe_file_raises_value_error(tmp_path, case):
    change, message = MALFORMED_UNIVERSES[case]
    path = tmp_path / "universe.jsonl"
    save_universe(enumerate_universe((3, 3), 2), str(path))
    header, *lines = map(json.loads, path.read_text().splitlines())
    header, lines = change(header, lines)
    path.write_text("".join(json.dumps(doc) + "\n" for doc in [header] + lines))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_universe(str(path))


def test_report_row_defaults_every_column_to_empty():
    row = report_row("demo", "case-1", "pass")
    assert list(row) == REPORT_COLUMNS
    assert row["campaign"] == "demo" and row["case"] == "case-1" and row["outcome"] == "pass"
    assert all(row[key] == "" for key in REPORT_COLUMNS if key not in ("campaign", "case", "outcome"))
    assert "elapsed_s" not in row


def test_report_row_reads_a_report_and_fields_override_it():
    u = enumerate_universe((3, 3), 2)
    rep = ExtremalReport(
        parts=(3, 3), sizes=(2,), predicate="intersecting:1", universe_size=18, formula_value=6,
        max_size=6, status="MATCHES_STAR_BOUND", witness_indices=[0], witness=Family(u, 1),
        maxima_count=9, maxima_kinds={"t-star": 9}, elapsed=1.23456,
    )
    row = report_row("demo", "c", "pass", "why", rep)
    assert {key: row[key] for key in REPORT_COLUMNS} == {
        "campaign": "demo", "case": "c", "parts": (3, 3), "sizes": (2,),
        "predicate": "intersecting:1", "expect": "", "universe_size": 18, "formula": 6,
        "max_size": 6, "status": "MATCHES_STAR_BOUND", "maxima_count": 9,
        "maxima_kinds": {"t-star": 9}, "outcome": "pass", "detail": "why",
    }
    assert "elapsed_s" not in row
    over = report_row("demo", "c", "record", rep=rep, formula=7, maxima_count="",
                      expect="record-only", elapsed_s=1.235)
    assert over["formula"] == 7 and over["maxima_count"] == "" and over["expect"] == "record-only"
    assert over["max_size"] == 6 and over["detail"] == "" and over["elapsed_s"] == 1.235


# the per-bit read-out loops, kept as the oracles of the one-pass versions


def _positions_oracle(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _from_indices_oracle(indices, size):
    bits = 0
    for i in indices:
        if not 0 <= i < size:
            raise ValueError(f"index {i} out of range for universe of size {size}")
        bits |= 1 << i
    return bits


def _to_vertices_oracle(bits, members):
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << members[low.bit_length() - 1]
        bits ^= low
    return out


def _bitsets():
    """Random bitsets of every width 0-130 (across byte and word edges), then sparse and dense wide ones."""
    rng = random.Random(29)
    for width in range(131):
        yield width, 0
        yield width, (1 << width) - 1
        for _ in range(4):
            yield width, rng.getrandbits(width)
            yield width, rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
        if width:
            yield width, 1 << (width - 1)
    for width in (288_000, 362_880):
        yield width, sum(1 << i for i in rng.sample(range(width), 4_000))
        yield width, rng.getrandbits(width) & rng.getrandbits(width)  # about a quarter set


def test_bit_positions_equals_the_per_bit_loop():
    for _, bits in _bitsets():
        assert bit_positions(bits) == _positions_oracle(bits)


def test_bit_positions_rejects_a_negative_bitset():
    # the per-bit loop never ends on a negative int; bin() would read its magnitude
    for bits in (-1, -2, -(1 << 100), -12345):
        with pytest.raises(ValueError, match="negative"):
            bit_positions(bits)


def test_index_bits_and_from_indices_equal_the_per_bit_loop():
    for width, bits in _bitsets():
        positions = _positions_oracle(bits) if width < 288_000 else bit_positions(bits)
        rng = random.Random(width)
        shuffled = rng.sample(positions, len(positions)) + positions[: len(positions) // 3]  # any order, repeats
        expected = _from_indices_oracle(shuffled, width)
        assert expected == bits
        assert index_bits(shuffled, width) == expected
        assert index_bits(iter(shuffled), width) == expected
        if 0 < width <= 130:
            assert Family.from_indices(enumerate_universe((width,), 1), shuffled).bits == expected


@pytest.mark.parametrize("indices", [[3, 18], [-1], [0, 17, 18, 19], [5, -3, 40], [1 << 70], [0, 2, 4, 18]])
def test_from_indices_raises_the_per_bit_loop_error_at_the_first_bad_index(indices):
    u = enumerate_universe((3, 3), 2)  # 18 items
    with pytest.raises(ValueError) as expected:
        _from_indices_oracle(indices, 18)
    for form in (list, iter):
        with pytest.raises(ValueError) as got:
            Family.from_indices(u, form(indices))
        assert str(got.value) == str(expected.value)

    def stops_at_the_bad_index():
        yield from indices
        raise AssertionError("read past the first index out of range")

    with pytest.raises(ValueError) as got:
        Family.from_indices(u, stops_at_the_bad_index())
    assert str(got.value) == str(expected.value)


def test_to_vertices_equals_the_per_bit_loop():
    rng = random.Random(9)
    for width, bits in _bitsets():
        if width > 130:
            assert _to_vertices(bits, range(width)) == bits
            continue
        assert _to_vertices(bits, range(width)) == _to_vertices_oracle(bits, range(width)) == bits
        members = sorted(rng.sample(range(3 * width), width))  # ascending, with gaps
        assert _to_vertices(bits, members) == _to_vertices_oracle(bits, members)
    members = sorted(random.Random(3).sample(range(362_880), 95_887))
    bits = random.Random(4).getrandbits(95_887)
    assert _to_vertices(bits, members) == _to_vertices_oracle(bits, members)
