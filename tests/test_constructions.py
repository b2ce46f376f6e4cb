import math
import re
import random
import sys

import pytest

from ekrmatch.constructions import (
    KLEIN_GROUP,
    ak_family,
    diagonal_matching,
    fixed_point_family,
    frame_family,
    is_upward_closed,
    katona_family,
    klein_family,
    semi_star,
    t_set_star,
    t_star,
)
from ekrmatch.counts import (
    ak_family_size,
    fixed_point_family_size,
    katona_sizes,
    semi_star_size,
    t_set_star_size,
    t_star_size,
)
from ekrmatch.matchings import (
    Family,
    enumerate_union_universe,
    enumerate_universe,
    project_pair,
)
from ekrmatch.predicates import Predicate, classify_star, family_satisfies


def test_t_star_sizes_and_membership():
    u = enumerate_universe((3, 3), 2)
    star = t_star(u, ((1, 1),))
    assert len(star) == 4 == t_star_size((3, 3), 2, 1)
    assert all(((1, 1)) in m for m in star.members())

    u3 = enumerate_universe((3, 3, 3), 2)
    star3 = t_star(u3, ((1, 1, 1),))
    assert len(star3) == 8 == t_star_size((3, 3, 3), 2, 1)

    full_centre = t_star(u, ((1, 1), (2, 2)))
    assert len(full_centre) == 1  # centre of size r


def test_t_star_rejects_bad_centres():
    u = enumerate_universe((3, 3), 2)
    with pytest.raises(ValueError):
        t_star(u, ((1, 1), (1, 2)))  # overlapping coordinates
    with pytest.raises(ValueError):
        t_star(u, ((1, 4),))  # out of range
    with pytest.raises(ValueError):
        t_star(u, ((1, 1), (2, 2), (3, 3)))  # larger than r


def test_t_star_is_intersecting():
    for parts, r, t in [((3, 3), 2, 1), ((4, 4), 3, 2), ((3, 3, 3), 2, 1)]:
        u = enumerate_universe(parts, r)
        star = t_star(u, diagonal_matching(parts, t))
        assert family_satisfies(star, Predicate("intersecting", t))


def test_t_set_star_sizes():
    u = enumerate_universe((4, 4), 4)
    fam = t_set_star(u, ((1, 2), (1, 2)))
    assert len(fam) == 4 == t_set_star_size((4, 4), 4, 2)
    assert family_satisfies(fam, Predicate("set-intersecting", 2))

    u3 = enumerate_universe((4, 4, 4), 4)
    fam3 = t_set_star(u3, ((1, 2), (1, 2), (1, 2)))
    assert len(fam3) == 16 == t_set_star_size((4, 4, 4), 4, 2)
    assert family_satisfies(fam3, Predicate("set-intersecting", 2))


def test_t_set_star_full_box():
    # t = r with the box covering a full shadow: all matchings inside the box
    u = enumerate_universe((3, 3), 3)
    fam = t_set_star(u, ((1, 2, 3), (1, 2, 3)))
    assert len(fam) == 6 == t_set_star_size((3, 3), 3, 3)


def test_t_set_star_rejects_malformed_boxes():
    u = enumerate_universe((4, 4), 4)
    with pytest.raises(ValueError):
        t_set_star(u, ((1, 2),))  # wrong arity
    with pytest.raises(ValueError):
        t_set_star(u, ((1, 2), (1, 2, 3)))  # ragged sides
    with pytest.raises(ValueError):
        t_set_star(u, ((1, 5), (1, 2)))  # out of range


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_box_and_base_coordinates_must_be_ints(bad):
    # never truncated or coerced: each is refused by name, as part sizes and matchings are
    u = enumerate_universe((4, 4), 3)
    with pytest.raises(ValueError, match=f"box coordinates must be integers, got {re.escape(repr(bad))}"):
        t_set_star(u, ((bad, 2), (1, 2)))
    u3 = enumerate_universe((4, 4, 4), 3)
    with pytest.raises(ValueError, match=f"box coordinates must be integers, got {re.escape(repr(bad))}"):
        semi_star(u3, [((bad, 2), (1, 2)), ((1, 2), (1, 2))], set_variant=True)
    with pytest.raises(ValueError, match=f"base coordinates must be integers, got {re.escape(repr(bad))}"):
        frame_family(u, 1, 0, base=[(bad, 1), (2, 2), (3, 3), (4, 4)])


def test_semi_star_aligned_is_a_star():
    u = enumerate_universe((3, 3, 3), 2)
    fam = semi_star(u, [((1, 2),), ((1, 3),)])  # both shadows are {1} on part 3
    star = t_star(u, ((2, 3, 1),))
    assert fam.bits == star.bits
    assert any(a.startswith("semi-star:u=1") for a in fam.annotations)


def test_semi_star_misaligned_sizes():
    u = enumerate_universe((3, 3, 3), 2)
    fam = semi_star(u, [((1, 1),), ((2, 1),)])
    assert len(fam) == 4 == semi_star_size((3, 3, 3), 2, 1, 2)
    assert classify_star(fam, 1).kind == "none"
    assert any(a.startswith("semi-star:u=2") for a in fam.annotations)


def test_semi_star_set_variant():
    u = enumerate_universe((4, 4, 4), 3)
    aligned = semi_star(u, [((1, 2), (1, 2)), ((1, 2), (1, 2))], set_variant=True)
    assert len(aligned) == semi_star_size((4, 4, 4), 3, 2, 2, set_variant=True)
    box_star = t_set_star(u, ((1, 2), (1, 2), (1, 2)))
    assert aligned.bits == box_star.bits

    misaligned = semi_star(u, [((1, 2), (1, 2)), ((1, 3), (1, 2))], set_variant=True)
    assert len(misaligned) == semi_star_size((4, 4, 4), 3, 2, 3, set_variant=True)
    assert classify_star(misaligned, 2).kind == "none"


def test_semi_star_validates_centres():
    u = enumerate_universe((3, 3, 3), 2)
    with pytest.raises(ValueError):
        semi_star(u, [((1, 1),)])  # one centre missing
    with pytest.raises(ValueError):
        semi_star(u, [((1, 1),), ((1, 1), (2, 2))])  # mixed sizes


def test_ak_family():
    u = enumerate_universe((5,), 3)
    fam = ak_family(u, 2, 1)
    assert len(fam) == 4 == ak_family_size(5, 3, 2, 1)
    assert family_satisfies(fam, Predicate("intersecting", 2))
    star = ak_family(u, 2, 0)
    assert star.bits == t_star(u, ((1,), (2,))).bits
    u6 = enumerate_universe((6,), 3)
    assert len(ak_family(u6, 2, 1)) == ak_family_size(6, 3, 2, 1)


def test_fixed_point_family():
    u8 = enumerate_universe((8, 8), 8, cap=50_000)
    fam = fixed_point_family(u8, 4, 1)
    assert len(fam) == 26 == fixed_point_family_size(8, 4, 1)

    star = fixed_point_family(u8, 4, 0)
    assert len(star) == math.factorial(4)
    assert star.bits == t_star(u8, tuple((x, x) for x in range(1, 5))).bits

    u4 = enumerate_universe((4, 4), 4)
    small = fixed_point_family(u4, 2, 1)
    assert len(small) == 1
    assert family_satisfies(small, Predicate("intersecting", 2))
    u5 = enumerate_universe((5, 5), 5)
    assert family_satisfies(fixed_point_family(u5, 2, 1), Predicate("intersecting", 2))


def test_fixed_point_family_needs_permutation_universe():
    with pytest.raises(ValueError):
        fixed_point_family(enumerate_universe((4, 4), 3), 2, 1)


def test_frame_family():
    u = enumerate_universe((3, 3), 2)
    fam = frame_family(u, 1, 1)
    diag = diagonal_matching((3, 3))
    expected = {tuple(sorted((diag[a], diag[b]))) for a in range(3) for b in range(a + 1, 3)}
    assert set(fam.members()) == expected
    assert len(fam) == 3

    star = frame_family(u, 1, 0)
    assert star.bits == t_star(u, (diag[0],)).bits

    u43 = enumerate_universe((4, 4), 3)
    fam43 = frame_family(u43, 1, 1)
    brute = sum(1 for m in u43.items
                if len(set(m) & set(diagonal_matching((4, 4))[:3])) >= 2)
    assert len(fam43) == brute
    assert family_satisfies(fam43, Predicate("intersecting", 1))


def test_frame_family_respects_base_order():
    u = enumerate_universe((3, 3), 2)
    base = ((3, 3), (1, 1), (2, 2))  # frame prefix differs from sorted order
    fam = frame_family(u, 1, 0, base=base)
    assert fam.bits == t_star(u, ((3, 3),)).bits
    with pytest.raises(ValueError):
        frame_family(u, 1, 2)  # window exceeds the base


def test_katona_family():
    u = enumerate_union_universe((5,), range(0, 6))
    plain, punctured = katona_sizes(5, 3)
    fam = katona_family(u, 3)
    assert len(fam) == plain == 16
    assert family_satisfies(fam, Predicate("intersecting", 1))  # n+t=2l at t=1
    sizes = {len(katona_family(u, 3, x)) for x in range(1, 6)}
    assert sizes == {punctured}

    all_of_them = katona_family(u, 0)
    assert len(all_of_them) == 32


def test_katona_family_is_t_intersecting_in_even_case():
    u = enumerate_union_universe((6,), range(1, 7))
    fam = katona_family(u, 4)  # n+t=2l with t=2
    assert family_satisfies(fam, Predicate("intersecting", 2))


def test_klein_family_k2_members():
    u = enumerate_universe((4, 4), 4)
    fam = klein_family(u)
    perms = {tuple((x, s[x - 1]) for x in range(1, 5)) for s in KLEIN_GROUP}
    assert set(fam.members()) == perms


def test_klein_family_k3_witnesses():
    u = enumerate_universe((4, 4, 4), 4)
    fam = klein_family(u)
    assert len(fam) == 16
    assert fam.contains(tuple((x, x, x) for x in range(1, 5)))
    assert fam.contains(((1, 2, 3), (2, 1, 4), (3, 4, 1), (4, 3, 2)))
    assert family_satisfies(fam, Predicate("weakly-set-intersecting", 2))
    assert not family_satisfies(fam, Predicate("set-intersecting", 2))


def test_non_uniform_star():
    fam = t_star(enumerate_union_universe((3, 3), (1, 2)), ((1, 1),))
    assert len(fam) == 5
    fam3 = t_star(enumerate_union_universe((3, 3, 3), (1, 2)), ((1, 1, 1),))
    assert len(fam3) == 1 + 8
    assert is_upward_closed(fam)
    assert is_upward_closed(fam3)


def test_upward_closure_detects_gaps():
    u = enumerate_union_universe((3, 3), (1, 2))
    fam = t_star(u, ((1, 1),))

    # dropping a 2-edge member leaves the 1-edge centre with a missing extension
    gappy = Family.from_indices(u, fam.indices()[:-1])
    assert not is_upward_closed(gappy)


# ---------------------------------------------------------------------------
# the per-item scans the constructions replaced, kept as oracles


def scan_oracle(universe, keep):
    return sum(1 << idx for idx, m in enumerate(universe.items) if keep(m))


def semi_star_oracle(universe, centres, set_variant):
    def holds(proj, centre):
        if set_variant:
            a, b = centre
            return sum(1 for (x, y) in proj if x in a and y in b) == len(a)
        return set(centre) <= proj

    k = universe.k
    return scan_oracle(universe, lambda m: all(
        holds(set(project_pair(m, k, j)), centre) for j, centre in enumerate(centres, start=1)))


def upward_closed_oracle(fam):
    member_sets = [set(m) for m in fam.members()]
    return not any(
        not fam.bits >> idx & 1 and any(ms < set(q) for ms in member_sets)
        for idx, q in enumerate(fam.universe.items)
    )


def random_centre(rng, n_last, n_j, t, set_variant):
    xs, ys = rng.sample(range(1, n_last + 1), t), rng.sample(range(1, n_j + 1), t)
    return (xs, ys) if set_variant else tuple(zip(xs, ys))


SEMI_STAR_UNIVERSES = [
    ((3, 3), (2,)),
    ((4, 4), (3,)),
    ((3, 3, 3), (2,)),
    ((3, 3, 3), (1, 2)),
    ((4, 4, 4), (3,)),
    ((3, 3, 3, 3), (2,)),
]


@pytest.mark.parametrize("set_variant", [False, True])
@pytest.mark.parametrize("parts,sizes", SEMI_STAR_UNIVERSES)
def test_semi_star_equals_the_per_item_scan(parts, sizes, set_variant):
    u = enumerate_union_universe(parts, sizes)
    rng = random.Random(f"{parts}{sizes}{set_variant}")
    for t in (1, 2):
        for _ in range(12):
            centres = [random_centre(rng, parts[-1], n, t, set_variant) for n in parts[:-1]]
            fam = semi_star(u, centres, set_variant)
            assert fam.bits == semi_star_oracle(u, centres, set_variant), (t, centres)
            shadow = {x for c in centres for x in (c[0] if set_variant else [e[0] for e in c])}
            assert fam.annotations[0] == f"semi-star:u={len(shadow)}"


def test_semi_star_reads_postings_without_projecting_items(monkeypatch):
    def refuse(*args):
        raise AssertionError("a semi-star projected a matching")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ekrmatch" and hasattr(module, "project_pair"):
            monkeypatch.setattr(module, "project_pair", refuse)
    u = enumerate_universe((4, 4, 4), 3)
    pins = semi_star(u, [((1, 1), (2, 2)), ((3, 1), (1, 2))])
    assert len(pins) == semi_star_size((4, 4, 4), 3, 2, 3)
    boxes = semi_star(u, [((1, 2), (1, 2)), ((1, 3), (1, 2))], set_variant=True)
    assert len(boxes) == semi_star_size((4, 4, 4), 3, 2, 3, set_variant=True)


@pytest.mark.parametrize("n,sizes", [(6, (3,)), (6, tuple(range(0, 7))), (7, (4,))])
def test_ak_family_equals_the_per_item_scan(n, sizes):
    u = enumerate_union_universe((n,), sizes)
    for t in range(1, n + 1):
        for i in range(0, (n - t) // 2 + 1):
            w = t + 2 * i
            want = scan_oracle(u, lambda m: sum(1 for e in m if e[0] <= w) >= t + i)
            assert ak_family(u, t, i).bits == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fixed_point_family_equals_the_per_item_scan(n):
    u = enumerate_universe((n, n), n)
    for t in range(1, n + 1):
        for i in range(0, (n - t) // 2 + 1):
            w = t + 2 * i
            want = scan_oracle(u, lambda m: sum(1 for (x, y) in m if x == y and x <= w) >= t + i)
            assert fixed_point_family(u, t, i).bits == want


@pytest.mark.parametrize("parts,sizes", [
    ((3, 3), (2,)),
    ((3, 3), (0, 1, 2, 3)),
    ((4, 4), (3,)),
    ((3, 3, 3), (2,)),
    ((3, 3, 3), (0, 1, 2)),
])
def test_frame_family_equals_the_per_item_scan(parts, sizes):
    u = enumerate_union_universe(parts, sizes)
    rng = random.Random(len(u))
    size = min(parts)
    bases = [None]
    for _ in range(4):
        cols = [rng.sample(range(1, n + 1), size) for n in parts]
        base = list(zip(*cols))
        rng.shuffle(base)
        bases.append(tuple(base))
    for base in bases:
        frame_base = diagonal_matching(parts) if base is None else base
        for t in range(1, size + 1):
            for i in range(0, (size - t) // 2 + 1):
                frame = set(frame_base[:t + 2 * i])
                want = scan_oracle(u, lambda m: len(frame & set(m)) >= t + i)
                assert frame_family(u, t, i, base).bits == want, (base, t, i)


@pytest.mark.parametrize("n,sizes", [(5, (3,)), (5, tuple(range(0, 6))), (6, tuple(range(1, 7)))])
def test_katona_family_equals_the_per_item_scan(n, sizes):
    u = enumerate_union_universe((n,), sizes)
    for l in range(0, n + 1):
        for x in [None, *range(1, n + 1)]:
            want = scan_oracle(u, lambda m: len(m) - (1 if x is not None and (x,) in m else 0) >= l)
            assert katona_family(u, l, x).bits == want, (l, x)


@pytest.mark.parametrize("parts,sizes", [
    ((3, 3), (0, 1, 2)),
    ((3, 3), (1, 2, 3)),
    ((4,), (0, 1, 2, 3, 4)),
    ((3, 3, 3), (1, 2)),
    ((4, 4), (2,)),
])
def test_is_upward_closed_equals_the_pairwise_subset_test(parts, sizes):
    u = enumerate_union_universe(parts, sizes)
    rng = random.Random(len(u))
    for _ in range(40):
        generators = rng.sample(u.items, rng.randint(1, 3))
        closure = scan_oracle(u, lambda m: any(set(g) <= set(m) for g in generators))
        fam = Family(u, closure)
        assert is_upward_closed(fam) and upward_closed_oracle(fam)
        # dropping or adding random matchings mostly breaks the closure
        for _ in range(3):
            bits = closure ^ (1 << rng.randrange(len(u)))
            assert is_upward_closed(Family(u, bits)) == upward_closed_oracle(Family(u, bits))
        noise = Family(u, rng.getrandbits(len(u)))
        assert is_upward_closed(noise) == upward_closed_oracle(noise)
    assert is_upward_closed(Family.empty(u)) and is_upward_closed(Family.full(u))
