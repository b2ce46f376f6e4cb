import random
import re
from itertools import combinations

import pytest

from ekrmatch import search
from ekrmatch.constructions import klein_family, semi_star, t_set_star, t_star
from ekrmatch.counts import t_set_star_size
from ekrmatch.matchings import Family, enumerate_union_universe, enumerate_universe, project_pair
from ekrmatch.predicates import (
    PREDICATE_KINDS,
    Predicate,
    _star_centres,
    classify_star,
    cross_set_intersecting,
    family_satisfies,
    intersects_t,
    pair_checker,
    set_intersects_t,
    signature_bits,
    weakly_intersects_t,
    weakly_set_intersects_t,
)
from ekrmatch.search import extremal
from helpers import oracle_set_intersects

PAPER_P = ((1, 1, 1), (2, 2, 2), (3, 3, 3))
PAPER_Q = ((1, 1, 4), (2, 4, 2), (4, 3, 3))

ID4 = ((1, 1), (2, 2), (3, 3), (4, 4))
SWAP12_34 = ((1, 2), (2, 1), (3, 4), (4, 3))
SWAP13_24 = ((1, 3), (2, 4), (3, 1), (4, 2))


def test_predicate_parse():
    p = Predicate.parse("set-intersecting:2")
    assert p.kind == "set-intersecting" and p.t == 2
    assert str(p) == "set-intersecting:2"
    assert Predicate.parse("weakly-intersecting:1").plain().kind == "intersecting"
    with pytest.raises(ValueError):
        Predicate.parse("bogus:1")
    with pytest.raises(ValueError):
        Predicate.parse("intersecting")
    with pytest.raises(ValueError):
        Predicate("intersecting", 0)


@pytest.mark.parametrize("bad", [True, 1.5, "1"])
def test_predicate_strength_must_be_an_int(bad):
    with pytest.raises(ValueError, match=f"predicate strengths must be integers, got {re.escape(repr(bad))}"):
        Predicate("intersecting", bad)
    with pytest.raises(ValueError, match="predicate strengths must be integers"):
        extremal((3, 3), (2,), Predicate("intersecting", bad))


def test_intersects_examples():
    assert intersects_t(PAPER_P, PAPER_P, 3)
    assert not intersects_t(PAPER_P, PAPER_Q, 1)
    assert intersects_t(((1, 1), (2, 2)), ((1, 1), (3, 3)), 1)


def test_weakly_intersects_examples():
    assert weakly_intersects_t(PAPER_P, PAPER_Q, 1)
    assert not weakly_intersects_t(PAPER_P, PAPER_Q, 2)
    with pytest.raises(ValueError):
        weakly_intersects_t(((1,), (2,)), ((1,), (3,)), 1)


def test_plain_implies_weak():
    rng = random.Random(5)
    u = enumerate_universe((3, 3, 3), 2)
    for _ in range(200):
        p, q = rng.choice(u.items), rng.choice(u.items)
        for t in (1, 2):
            if intersects_t(p, q, t):
                assert weakly_intersects_t(p, q, t)


def test_set_intersects_examples():
    assert set_intersects_t(ID4, SWAP12_34, 2)
    assert set_intersects_t(ID4, SWAP13_24, 2)
    assert set_intersects_t(ID4, ID4, 2)
    diag = tuple((x, x, x) for x in range(1, 5))
    witness = ((1, 2, 3), (2, 1, 4), (3, 4, 1), (4, 3, 2))
    assert not set_intersects_t(diag, witness, 2)
    with pytest.raises(ValueError):
        set_intersects_t(ID4, SWAP12_34, 5)


def test_weakly_set_intersects_separation():
    diag = tuple((x, x, x) for x in range(1, 5))
    witness = ((1, 2, 3), (2, 1, 4), (3, 4, 1), (4, 3, 2))
    assert weakly_set_intersects_t(diag, witness, 2)
    assert not set_intersects_t(diag, witness, 2)


@pytest.mark.parametrize("parts,r,t", [((3, 3), 2, 1), ((3, 3), 2, 2),
                                       ((4, 4), 3, 2), ((2, 2, 2), 2, 1)])
def test_set_intersects_matches_box_oracle(parts, r, t):
    rng = random.Random(17)
    u = enumerate_universe(parts, r)
    for _ in range(120):
        p, q = rng.choice(u.items), rng.choice(u.items)
        assert set_intersects_t(p, q, t) == oracle_set_intersects(p, q, t, parts)


def test_pairwise_predicates_are_symmetric():
    rng = random.Random(23)
    u = enumerate_universe((4, 4, 4), 3)
    for _ in range(80):
        p, q = rng.choice(u.items), rng.choice(u.items)
        assert intersects_t(p, q, 1) == intersects_t(q, p, 1)
        assert weakly_intersects_t(p, q, 1) == weakly_intersects_t(q, p, 1)
        assert set_intersects_t(p, q, 2) == set_intersects_t(q, p, 2)
        assert weakly_set_intersects_t(p, q, 2) == weakly_set_intersects_t(q, p, 2)


def test_weak_equals_plain_for_k2():
    rng = random.Random(31)
    u = enumerate_universe((3, 4), 2)
    for _ in range(150):
        p, q = rng.choice(u.items), rng.choice(u.items)
        assert weakly_intersects_t(p, q, 1) == intersects_t(p, q, 1)
        assert weakly_intersects_t(p, q, 2) == intersects_t(p, q, 2)
        assert weakly_set_intersects_t(p, q, 1) == set_intersects_t(p, q, 1)
        assert weakly_set_intersects_t(p, q, 2) == set_intersects_t(p, q, 2)


def test_pair_checker_maps_weak_to_plain_at_k1():
    check = pair_checker(Predicate("weakly-intersecting", 2), k=1)
    assert check(((1,), (2,), (3,)), ((2,), (3,), (4,)))
    assert not check(((1,), (2,), (3,)), ((3,), (4,), (5,)))


def test_family_satisfies():
    u = enumerate_universe((3, 3), 2)
    single = Family.from_indices(u, [7])
    assert family_satisfies(single, Predicate("intersecting", 1))
    star = t_star(u, ((1, 1),))
    assert family_satisfies(star, Predicate("intersecting", 1))
    u44 = enumerate_universe((4, 4), 4)
    assert family_satisfies(klein_family(u44), Predicate("set-intersecting", 2))
    two_disjoint = Family.from_matchings(u, [((1, 1), (2, 2)), ((2, 3), (3, 1))])
    assert not family_satisfies(two_disjoint, Predicate("intersecting", 1))


@pytest.mark.parametrize("kind", PREDICATE_KINDS)
def test_family_satisfies_with_members_below_t(kind):
    # a member with fewer than t edges meets nothing, under every kind
    u = enumerate_union_universe((3, 3, 3), (0, 1, 2))
    assert not family_satisfies(Family.full(u), Predicate(kind, 1))
    pair = Family.from_matchings(u, [((1, 1, 1),), ((1, 1, 1), (2, 2, 2))])
    assert family_satisfies(pair, Predicate(kind, 1))
    assert not family_satisfies(pair, Predicate(kind, 2))


def test_cross_set_intersecting():
    u = enumerate_universe((4, 4), 4)
    star = t_set_star(u, ((1, 2), (1, 2)))
    assert cross_set_intersecting(star, star, 2)
    assert cross_set_intersecting(Family.empty(u), star, 2)
    other = enumerate_universe((4, 4), 3)
    with pytest.raises(ValueError):
        cross_set_intersecting(star, Family.full(other), 2)


def cross_oracle(g, h, t):
    """Every member of g t-set-intersects every member of h, pair by pair (fewer than t edges meet nothing)."""
    return all(len(a) >= t and len(b) >= t and set_intersects_t(a, b, t)
               for a in g.members() for b in h.members())


def _random_subfamily(fam, rng):
    return Family.from_indices(fam.universe, [v for v in fam.indices() if rng.random() < 0.8])


@pytest.mark.parametrize("left,right,sizes,t", [
    ((3, 3), (3, 3), (2,), 1), ((4, 4), (4, 4), (3,), 2), ((3, 3, 3), (3, 3, 3), (2,), 2),
    ((3, 4), (4, 3), (2,), 1), ((3, 4, 4), (4, 4, 3), (3,), 2), ((3, 3), (3, 3), (1, 2), 2),
])
def test_cross_set_intersecting_equals_the_pairwise_oracle(left, right, sizes, t):
    rng = random.Random(41)
    gu, hu = enumerate_union_universe(left, sizes), enumerate_union_universe(right, sizes)

    def family(u):
        pick = rng.random()
        if pick < 0.15:
            return Family.empty(u)
        if pick < 0.55:  # a box star or most of one, so that many pairs do cross
            m = rng.choice([m for m in u.items if len(m) >= t])
            sub = rng.sample(m, t)
            box = t_set_star(u, tuple(tuple(sorted({e[i] for e in sub})) for i in range(u.k)))
            return _random_subfamily(box, rng)
        return Family.from_indices(u, rng.sample(range(len(u)), rng.randint(1, 4)))

    answers = set()
    for _ in range(60):
        g, h = family(gu), family(hu)
        want = cross_oracle(g, h, t)
        assert cross_set_intersecting(g, h, t) == want
        answers.add((want, len(g) > 0 and len(h) > 0))
    assert answers == {(True, True), (False, True), (True, False)}


def _greedy_family(universe, pred, rng, target=8):
    check = pair_checker(pred, universe.k)
    order = list(range(len(universe)))
    rng.shuffle(order)
    chosen = []
    for idx in order:
        m = universe.items[idx]
        if all(check(m, c) for c in chosen):
            chosen.append(m)
            if len(chosen) >= target:
                break
    return chosen


def test_hereditary_closure_of_weak_families():
    # drops and restrictions of weakly-(set-)intersecting families keep the property
    from ekrmatch.matchings import drop_part, project_pair, reduce_projection

    rng = random.Random(41)
    u = enumerate_universe((4, 4, 4), 3)
    for kind, t in [("weakly-intersecting", 1), ("weakly-set-intersecting", 2)]:
        pair_t = (intersects_t if kind == "weakly-intersecting"
                  else lambda a, b, tt=t: set_intersects_t(a, b, tt))
        for _ in range(10):
            members = _greedy_family(u, Predicate(kind, t), rng)
            for j in (1, 2, 3):
                dropped = sorted({drop_part(m, j) for m in members})
                for a in range(len(dropped)):
                    for b in range(a + 1, len(dropped)):
                        assert set_intersects_t(dropped[a], dropped[b], t) \
                            if kind == "weakly-set-intersecting" \
                            else intersects_t(dropped[a], dropped[b], t)
            classes = {}
            for m in members:
                classes.setdefault(reduce_projection(m, 1, 2), set()).add(project_pair(m, 1, 2))
            for projs in classes.values():
                projs = sorted(projs)
                for a in range(len(projs)):
                    for b in range(a + 1, len(projs)):
                        assert pair_t(projs[a], projs[b], t)


def test_classify_star_round_trip():
    u = enumerate_universe((3, 3, 3), 2)
    star = t_star(u, ((1, 1, 1),))
    cls = classify_star(star, 1)
    assert cls.kind == "t-star"
    assert cls.centres == (((1, 1, 1),),)


def test_classify_star_rejects_proper_subfamily():
    u = enumerate_universe((3, 3), 2)
    star = t_star(u, ((1, 1),))
    sub = Family.from_indices(u, star.indices()[:-1])
    assert classify_star(sub, 1).kind == "none"


def test_classify_set_star_with_complement_ambiguity():
    # r = 2t with all parts of size 2t: the box and its complement both work
    u = enumerate_universe((4, 4), 4)
    fam = t_set_star(u, ((1, 2), (1, 2)))
    cls = classify_star(fam, 2)
    assert cls.kind == "t-set-star"
    assert set(cls.centres) == {((1, 2), (1, 2)), ((3, 4), (3, 4))}
    assert "ambiguous-box-centre" in cls.annotations


def test_classify_set_star_unambiguous():
    u = enumerate_universe((5, 5), 4)
    fam = t_set_star(u, ((1, 2), (1, 2)))
    cls = classify_star(fam, 2)
    assert cls.kind == "t-set-star"
    assert cls.centres == (((1, 2), (1, 2)),)


def test_classify_degenerate_star_reports_all_centres():
    # r = t+1 with all parts of size t+1: the star is one matching, any
    # t-subset of it is a centre
    u = enumerate_universe((2, 2), 2)
    star = t_star(u, ((1, 1),))
    cls = classify_star(star, 1)
    assert cls.kind == "t-star"
    assert len(cls.centres) == 2
    assert "degenerate-star-centre" in cls.annotations


def test_classify_klein_families():
    u44 = enumerate_universe((4, 4), 4)
    assert classify_star(klein_family(u44), 2).kind == "none"
    u444 = enumerate_universe((4, 4, 4), 4)
    cls = classify_star(klein_family(u444), 2)
    assert cls.kind == "weak-t-set-star"
    assert cls.projections_are_box_stars is False


def test_star_recognition_builds_each_predicate_once_per_process(monkeypatch):
    u = enumerate_universe((4, 4, 4), 4)
    fams = [t_star(u, ((1, 1, 1), (2, 2, 2))), t_set_star(u, ((1, 2), (1, 2), (1, 2))), klein_family(u)]
    kinds = [classify_star(f, 2).kind for f in fams]
    built, real = [], Predicate.__post_init__
    monkeypatch.setattr(Predicate, "__post_init__", lambda self: built.append(self) or real(self))
    assert [classify_star(f, 2).kind for f in fams] == kinds == ["t-star", "t-set-star", "weak-t-set-star"]
    assert cross_set_intersecting(fams[1], fams[1], 2)
    assert built == []


def test_classify_misaligned_semi_star_is_none():
    u = enumerate_universe((3, 3, 3), 2)
    fam = semi_star(u, [((1, 1),), ((2, 1),)])
    assert len(fam) == 4
    assert classify_star(fam, 1).kind == "none"


def test_classify_empty_family():
    u = enumerate_universe((3, 3), 2)
    cls = classify_star(Family.empty(u), 1)
    assert cls.kind == "none" and "empty" in cls.annotations


def test_full_size_setintersecting_projection_check():
    # a box star family of the right size over k=2 must classify as set star,
    # not merely satisfy the size proxy
    u = enumerate_universe((4, 4), 3)
    fam = t_set_star(u, ((1, 2), (1, 2)))
    assert len(fam) == t_set_star_size((4, 4), 3, 2)
    assert classify_star(fam, 2).kind == "t-set-star"


def brute_star_centres(fam, t):
    """Every t-edge set whose star, found by scanning the universe, is the family."""
    items = fam.universe.items
    edges = sorted(set.intersection(*(set(m) for m in fam.members())))  # a centre lies in every member
    return tuple(c for c in combinations(edges, t)
                 if sum(1 << v for v, m in enumerate(items) if set(c) <= set(m)) == fam.bits)


STAR_CELLS = [((5, 5), (4,), 2), ((2, 2), (2,), 1), ((6,), (3,), 2), ((3, 3), (1, 2, 3), 1),
              ((3, 3, 3), (2,), 1)]


@pytest.mark.parametrize("parts,sizes,t", STAR_CELLS, ids=[f"{p}-R{s}-t{t}" for p, s, t in STAR_CELLS])
def test_star_centres_equal_a_universe_scan(parts, sizes, t):
    u = enumerate_union_universe(parts, sizes)
    edges = sorted({e for m in u.items for e in m})
    centres = [c for c in combinations(edges, t)
               if all(len({e[i] for e in c}) == t for i in range(len(parts)))]
    fams = [t_star(u, c) for c in centres]
    fams += [Family.from_indices(u, f.indices()[:-1]) for f in fams if len(f) > 1]
    for fam in fams:
        cls = classify_star(fam, t)
        assert (cls.centres if cls.kind == "t-star" else ()) == brute_star_centres(fam, t)


def test_all_maxima_build_no_t_intersecting_index(monkeypatch):
    indexed, real = [], search.signature_index
    monkeypatch.setattr(search, "signature_index",
                        lambda items, *rest: indexed.append(len(items)) or real(items, *rest))
    u = enumerate_universe((5, 5), 4)
    rep = extremal((5, 5), (4,), Predicate("intersecting", 2), all_maxima=True, universe=u)
    assert rep.maxima_kinds == {"t-star": rep.maxima_count}
    # the only index is the one over N[0]; the universe keeps nothing but its unit postings
    assert indexed and max(indexed) < len(u)
    assert set(u.memo) <= {("units", False), ("units", True)}
    for fam, cls in zip(rep.maxima, rep.classifications):
        assert cls.centres == brute_star_centres(fam, 2)


def set_intersection_centres(fam, t):
    """The star centres as first found: the members' common edges by intersecting their edge sets."""
    members = fam.members()
    common = set(members[0])
    for m in members[1:]:
        common &= set(m)
        if len(common) < t:
            return ()
    pred, u = Predicate("intersecting", t), fam.universe
    return tuple(c for c in combinations(sorted(common), t) if signature_bits(u, pred, 0, c) == fam.bits)


@pytest.mark.parametrize("parts,r,pred", [((6, 6), 3, "intersecting:1"), ((5, 5), 4, "intersecting:2")])
def test_star_centres_equal_the_set_intersection_rule_on_every_benchmark_maximum(parts, r, pred):
    rep = extremal(parts, (r,), Predicate.parse(pred), all_maxima=True)
    t = Predicate.parse(pred).t
    for fam in rep.maxima:
        for s in (1, t, t + 1):
            assert _star_centres(fam, s) == set_intersection_centres(fam, s)


def test_star_centres_equal_the_set_intersection_rule_on_random_families():
    rng = random.Random(200)
    universes = [enumerate_union_universe(p, s) for p, s in
                 [((5, 5), (4,)), ((6,), (3,)), ((3, 3), (0, 1, 2, 3)), ((3, 3, 3), (2,)), ((4, 4), (1, 2))]]
    stars = 0
    for _ in range(200):
        u = rng.choice(universes)
        t = rng.randint(1, 3)
        if rng.random() < 0.5:  # a star, or a star with one member dropped
            m = rng.choice([m for m in u.items if m])
            fam = t_star(u, m[:rng.randint(1, len(m))])
            if rng.random() < 0.5 and len(fam) > 1:
                fam = Family.from_indices(u, fam.indices()[1:])
        else:
            fam = Family(u, rng.getrandbits(len(u)) or 1)
        want = set_intersection_centres(fam, t)
        assert _star_centres(fam, t) == want
        stars += bool(want)
    assert stars


def test_star_centres_of_a_single_member_and_of_the_empty_matching():
    u = enumerate_union_universe((3, 3), (0, 1, 2))
    assert u.items[0] == ()
    for fam in [Family(u, 1), Family(u, 0b111), Family.full(u)]:
        assert _star_centres(fam, 1) == set_intersection_centres(fam, 1) == ()
    for v in range(1, len(u)):
        fam = Family(u, 1 << v)
        for t in (1, 2, 3):
            assert _star_centres(fam, t) == set_intersection_centres(fam, t)


def brute_weak_kind(fam, t):
    """(kind, projections are box stars) by the definitions: each pair projection, as a set of 2-part matchings,
    against the t-stars and t-box stars enumerated on its pair universe, and pairwise `set_intersects_t`."""
    u = fam.universe
    stars_at = []
    for i, j in combinations(range(1, u.k + 1), 2):
        items = enumerate_universe((u.parts[i - 1], u.parts[j - 1]), u.r).items
        pairs = sorted({e for m in items for e in m})
        stars = [{m for m in items if set(c) <= set(m)} for c in combinations(pairs, t)]
        boxes = [{m for m in items if sum(a in sa and b in sb for a, b in m) == t}
                 for sa in combinations(range(1, u.parts[i - 1] + 1), t)
                 for sb in combinations(range(1, u.parts[j - 1] + 1), t)]
        sizes = {len(b) for b in boxes}
        stars_at.append(({project_pair(m, i, j) for m in fam.members()},
                         [s for s in stars if s], boxes, sizes))
    if all(proj in stars for proj, stars, _, _ in stars_at):
        return "weak-t-star", None
    if all({len(proj)} == sizes and all(set_intersects_t(a, b, t) for a in proj for b in proj)
           for proj, _, _, sizes in stars_at):
        return "weak-t-set-star", all(proj in boxes for proj, _, boxes, _ in stars_at)
    return "none", None


def weak_star_families(rng):
    """(family, t) at k = 3: stars and box stars, each also with random members dropped, random families
    of a pair box star's size, and the Klein family."""
    out = []
    for parts, r, t in [((3, 3, 3), 2, 1), ((3, 3, 3), 3, 2), ((3, 3, 4), 3, 1), ((4, 4, 4), 4, 2)]:
        u = enumerate_universe(parts, r)
        for _ in range(12):
            sub = rng.sample(rng.choice(u.items), t)
            star = t_star(u, sub)
            box = t_set_star(u, tuple(tuple(sorted({e[i] for e in sub})) for i in range(3)))
            for fam in (star, box):
                out.append((fam, t))
                if len(fam) < 2:
                    continue
                drop = set(rng.sample(fam.indices(), rng.randint(1, min(3, len(fam) - 1))))
                out.append((Family.from_indices(u, [v for v in fam.indices() if v not in drop]), t))
            # random members, as many as a box star has projections: often star-sized, seldom crossing
            size = len({project_pair(m, 1, 2) for m in box.members()})
            out.append((Family.from_indices(u, rng.sample(range(len(u)), size)), t))
    out.append((klein_family(enumerate_universe((4, 4, 4), 4)), 2))
    return out


def test_weak_recognisers_equal_the_projection_definitions():
    seen, star_sized = set(), 0
    for fam, t in weak_star_families(random.Random(43)):
        cls = classify_star(fam, t)
        seen.add((cls.kind, cls.projections_are_box_stars))
        if cls.kind in ("t-star", "t-set-star"):
            continue
        assert (cls.kind, cls.projections_are_box_stars) == brute_weak_kind(fam, t)
        # projections of the box-star size that do not all cross: only the set-intersection test rejects them
        u = fam.universe
        star_sized += cls.kind == "none" and all(
            len({project_pair(m, i, j) for m in fam.members()}) == len(t_set_star(
                enumerate_universe((u.parts[i - 1], u.parts[j - 1]), u.r), (tuple(range(1, t + 1)),) * 2))
            for i, j in combinations(range(1, 4), 2))
    assert {("weak-t-star", None), ("weak-t-set-star", True), ("weak-t-set-star", False),
            ("none", None)} <= seen
    assert star_sized


def test_a_star_without_its_lowest_member_is_a_weak_star():
    # each pair projection is still the full pair star of (1, 1); the family is no longer a star
    u = enumerate_universe((3, 3, 3), 2)
    star = t_star(u, ((1, 1, 1),))
    fam = Family.from_indices(u, star.indices()[1:])
    assert classify_star(fam, 1).kind == "weak-t-star" == brute_weak_kind(fam, 1)[0]
