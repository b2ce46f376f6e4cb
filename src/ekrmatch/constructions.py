"""Concrete extremal families over enumerated universes.

Each family is either read off the edge postings (`predicates.signature_bits`)
or found by `_at_least`, the one scan over the universe's items: the matchings
holding at least m of some edges.  Permutation families are represented
through their 2-part matching encoding {(x, sigma(x))}, so the fixed-point
and Klein-group families run through the same machinery as every other family.
The Klein group and the candidate sets of the search's group-averaging bound
(`averaging_sets`: Katona's cycles, AGL(1, q) and PGL(2, q) for q a prime
power, both read off `_field`'s tables of GF(q)) are listed member by member.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .counts import int_tuple, validate_parts
from .matchings import (
    Family,
    Universe,
    canonical_matching,
    validate_matching,
)
from .predicates import (
    Predicate,
    box_star_bits,
    part_pairs,
    signature_bits,
    star_bits,
    star_param_notes,
)


def t_star(universe: Universe, centre) -> Family:
    """All matchings of the universe containing every centre edge."""
    centre = validate_matching(universe.parts, centre)
    t = len(centre)
    if t < 1 or t > max(universe.sizes):
        raise ValueError(f"centre of {t} edges cannot sit inside matchings of sizes {universe.sizes}")
    return Family(universe, star_bits(universe, centre), star_param_notes(universe, t))


def t_set_star(universe: Universe, box) -> Family:
    """All matchings with exactly t edges inside the box of per-part t-sets."""
    parts = universe.parts
    box = tuple(frozenset(int_tuple(side, "box coordinates")) for side in box)
    if len(box) != universe.k:
        raise ValueError(f"box has {len(box)} sides, expected {universe.k}")
    sizes = {len(side) for side in box}
    if len(sizes) != 1:
        raise ValueError("box sides must all have the same size")
    t = sizes.pop()
    if t < 1 or t > max(universe.sizes):
        raise ValueError(f"box side size {t} out of range for matching sizes {universe.sizes}")
    for i, side in enumerate(box):
        if not side <= set(range(1, parts[i] + 1)):
            raise ValueError(f"box side {sorted(side)} not inside part {i + 1} of size {parts[i]}")
    return Family(universe, box_star_bits(universe, box), star_param_notes(universe, t))


def semi_star(universe: Universe, centres, set_variant: bool = False) -> Family:
    """Maximal family pinned by one centre per projection of the last part.

    For each part j < k a centre constrains the pair projection between the
    last part and part j: either t fixed pairs that must appear, or (set
    variant) a t-box that must be met in exactly t pairs.  When the last-part
    shadows of the centres coincide this is a (set-)star; when they do not,
    the family is strictly smaller than a star.
    """
    parts = universe.parts
    k = universe.k
    if k < 2:
        raise ValueError("semi-star needs at least 2 parts")
    centres = list(centres)
    if len(centres) != k - 1:
        raise ValueError(f"need one centre per part 1..{k - 1}, got {len(centres)}")

    last_shadow = set()
    signatures = []
    t = None
    for j, centre in enumerate(centres, start=1):
        pin_parts = (parts[-1], parts[j - 1])
        if set_variant:
            a, b = (frozenset(int_tuple(side, "box coordinates")) for side in centre)
            if len(a) != len(b):
                raise ValueError(f"box sides for part {j} have different sizes")
            if not a <= set(range(1, pin_parts[0] + 1)) or not b <= set(range(1, pin_parts[1] + 1)):
                raise ValueError(f"box for part {j} outside its parts")
            tj = len(a)
            last_shadow |= a
            signatures.append((j, (b, a)))
        else:
            pins = validate_matching(pin_parts, centre)
            tj = len(pins)
            last_shadow |= {e[0] for e in pins}
            signatures.append((j, [(y, x) for x, y in pins]))
        if t is None:
            t = tj
        elif t != tj:
            raise ValueError(f"centres have mixed sizes {t} and {tj}")

    # each centre is one signature of the weak kind, on the component of parts (j, k),
    # whose units are pairs (x_j, x_k): the pins transposed, or the box (B_j, A_k)
    pred = Predicate("weakly-set-intersecting" if set_variant else "weakly-intersecting", t)
    components = part_pairs(k)
    bits = (1 << len(universe)) - 1
    for j, signature in signatures:
        bits &= signature_bits(universe, pred, components.index((j, k)), signature)
    u = len(last_shadow)
    return Family(universe, bits, (f"semi-star:u={u}",) + star_param_notes(universe, t))


def _at_least(universe: Universe, edges, m: int) -> int:
    """The matchings of the universe holding at least m of the given edges, as bits."""
    edges = frozenset(edges)
    bits = 0
    for idx, item in enumerate(universe.items):
        if len(edges.intersection(item)) >= m:
            bits |= 1 << idx
    return bits


def ak_family(universe: Universe, t: int, i: int) -> Family:
    """r-subsets of [n] with at least t+i elements inside the window [t+2i] (k = 1)."""
    if universe.k != 1:
        raise ValueError("frame families over subsets need a 1-part universe")
    w = t + 2 * i
    if t < 1 or i < 0 or w > universe.parts[0]:
        raise ValueError(f"bad frame parameters t={t}, i={i} for n={universe.parts[0]}")
    return Family(universe, _at_least(universe, ((x,) for x in range(1, w + 1)), t + i))


def _permutation_universe(universe: Universe) -> int:
    """n for the perfect matchings of K_{n,n}, the permutations of [n]; raises for any other universe."""
    n = universe.parts[0]
    if universe.parts != (n, n) or universe.sizes != (n,):
        raise ValueError(f"need the permutation universe over two equal parts, got {universe.key}")
    return n


def fixed_point_family(universe: Universe, t: int, i: int) -> Family:
    """Permutations with at least t+i fixed points inside the window [t+2i]."""
    n = _permutation_universe(universe)
    w = t + 2 * i
    if t < 1 or i < 0 or w > n:
        raise ValueError(f"bad window parameters t={t}, i={i} for n={n}")
    return Family(universe, _at_least(universe, ((x, x) for x in range(1, w + 1)), t + i))


def diagonal_matching(parts, m: int | None = None) -> tuple:
    parts = validate_parts(parts)
    if m is None:
        m = min(parts)
    if not 1 <= m <= min(parts):
        raise ValueError(f"diagonal of length {m} does not fit parts {parts}")
    return tuple((x,) * len(parts) for x in range(1, m + 1))


def frame_family(universe: Universe, t: int, i: int, base=None) -> Family:
    """Matchings sharing at least t+i edges with the first t+2i edges of a base matching.

    The base defaults to the diagonal perfect matching; its edge order is
    respected, not canonicalised, since the frame is a prefix.
    """
    parts = universe.parts
    if base is None:
        base = diagonal_matching(parts)
    else:
        base = tuple(int_tuple(e, "base coordinates") for e in base)
        validate_matching(parts, base, min(parts))
    w = t + 2 * i
    if t < 1 or i < 0 or w > len(base):
        raise ValueError(f"frame window t+2i={w} exceeds base matching of size {len(base)}")
    return Family(universe, _at_least(universe, base[:w], t + i))


def katona_family(universe: Universe, l: int, x: int | None = None) -> Family:
    """Subsets of [n] of size at least l, optionally not counting a marked element."""
    if universe.k != 1:
        raise ValueError("threshold families need a 1-part universe")
    n = universe.parts[0]
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= n; got l={l}, n={n}")
    if x is not None and not 1 <= x <= n:
        raise ValueError(f"marked element {x} outside [n]")
    return Family(universe, _at_least(universe, ((y,) for y in range(1, n + 1) if y != x), l))


KLEIN_GROUP = (
    (1, 2, 3, 4),  # identity
    (2, 1, 4, 3),  # the three fixed-point-free involutions of [4]
    (3, 4, 1, 2),
    (4, 3, 2, 1),
)


def klein_family(universe: Universe) -> Family:
    """Matchings whose every projection from part 1 lies in the Klein four-group.

    Over k parts of size 4 at r = 4 this gives 4^(k-1) members; each member is
    {(y, s2(y), ..., sk(y))} for group elements s2..sk.
    """
    if universe.k < 2 or universe.sizes != (4,) or any(n != 4 for n in universe.parts):
        raise ValueError(f"Klein family needs all parts of size 4 at r=4, got {universe.key}")
    k = universe.k
    ms = []
    for sigmas in product(KLEIN_GROUP, repeat=k - 1):
        edges = tuple((y,) + tuple(s[y - 1] for s in sigmas) for y in range(1, 5))
        ms.append(canonical_matching(edges))
    return Family.from_matchings(universe, ms)


def cyclic_class_intervals(universe: Universe) -> Family:
    """The cyclic r-intervals of every cyclic class: Katona's cycles, one per class (uniform universe).

    With p the smallest part, of size n, class c in the product of Z_{n_i}
    over i != p is the perfect matching of part p's vertices sending y in
    Z_n to (y + c_i mod n_i) in every part i, with c_p = 0.  Distinct classes
    share no edge.  Each class gives its n intervals {y, ..., y + r - 1 mod
    n}, a single matching at r = n.  Each interval is built canonical, its
    edges sorted, and placed by `Family.from_matchings`; a missing one
    raises KeyError.
    """
    parts, r = universe.parts, universe.r
    n = min(parts)
    p = parts.index(n)
    classes = product(*(range(m) if i != p else (0,) for i, m in enumerate(parts)))
    intervals = []
    for c in classes:
        edges = [tuple((y + ci) % m + 1 for ci, m in zip(c, parts)) for y in range(n)]
        intervals += (tuple(sorted(edges[(start + y) % n] for y in range(r))) for start in range(n))
    return Family.from_matchings(universe, intervals)


@cache
def _field(q: int):
    """GF(q)'s (add, mul) tables on 0..q-1, or None when q is not a prime power.

    Element a is the polynomial over Z_p whose coefficients are a's base-p
    digits, lowest first, and products are reduced modulo x^e + f for the
    first f, in numeric order, under which every nonzero element has an
    inverse, that is, x^e + f is irreducible.  At e = 1 this is the integers
    mod p; GF(4) and GF(8) come from x^2 + x + 1 and x^3 + x + 1.
    """
    p = next((d for d in range(2, q + 1) if q % d == 0), 1)
    weights = [p ** i for i in range(q.bit_length()) if p ** i < q]
    if p == 1 or p ** len(weights) != q:
        return None

    def plus(a, b, c=1):  # a + c * b, digit by digit mod p
        return sum((a // w + c * (b // w)) % p * w for w in weights)

    add = [[plus(a, b) for b in range(q)] for a in range(q)]
    for f in range(q):
        # x * y shifts y's digits up, and its top digit d = y // (q // p) becomes d * x^e = -d * f
        x_times = [plus(y % (q // p) * p, f, p - y // (q // p)) for y in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a, row in enumerate(mul):
            for b in range(1, q):  # b = x * (b // p) + b % p, and b // p < b
                row[b] = plus(x_times[row[b // p]], a, b % p)
        if all(1 in row for row in mul[1:]):
            return add, mul


def _line_field(universe: Universe, group: str, extra: int) -> tuple:
    """(q, add, mul) for `group` on the permutations of [q + extra]; raises when q is not a prime power."""
    q = _permutation_universe(universe) - extra
    field = _field(q)
    if not field:
        raise ValueError(f"{group} needs a field of q = {q} elements, and {q} is not a prime power")
    return (q, *field)


def affine_line_group(universe: Universe) -> Family:
    """AGL(1, q) on the q field elements, sharply 2-transitive: the maps x -> ax + b with a != 0.

    The universe is that of the permutations of [q], q a prime power; field
    element x (`_field`) is vertex x + 1.
    """
    q, add, mul = _line_field(universe, "AGL(1, q)", 0)
    return Family.from_matchings(universe, (
        [(x + 1, add[mul[a][x]][b] + 1) for x in range(q)] for a in range(1, q) for b in range(q)
    ))


def projective_line_group(universe: Universe) -> Family:
    """PGL(2, q) on the q + 1 points of the projective line, sharply 3-transitive.

    The universe is that of the permutations of [q + 1], q a prime power; the
    field element x (`_field`) is vertex x + 1 and the point at infinity is
    vertex q + 1.  The maps x -> (ax + b)/(cx + d) with ad != bc are collected
    as permutations, so scalar multiples of one matrix give one member.
    """
    q, add, mul = _line_field(universe, "PGL(2, q)", 1)

    def image(a, b, c, d, x):
        num, den = (a, c) if x == q else (add[mul[a][x]][b], add[mul[c][x]][d])
        return q if den == 0 else mul[num][mul[den].index(1)]

    perms = {tuple(image(a, b, c, d, x) for x in range(q + 1))
             for a, b, c, d in product(range(q), repeat=4) if mul[a][d] != mul[b][c]}
    return Family.from_matchings(universe, ([(x + 1, y + 1) for x, y in enumerate(s)] for s in perms))


def averaging_sets(universe: Universe, pred: Predicate) -> list:
    """The candidate sets S of the group-averaging bound on a uniform universe (`search` module docstring).

    The cyclic class intervals at t = 1 where 2r <= n or r = n, n the
    smallest part: elsewhere any two intervals of a class meet, so the bound
    cannot reach the star.  On the permutations of [n] under the intersecting
    kinds, AGL(1, n) at t = 2 (n a prime power) and PGL(2, n - 1) at t = 3
    (n - 1 a prime power).
    """
    parts, r, t = universe.parts, universe.r, pred.t
    out = []
    if t == 1 and (2 * r <= min(parts) or r == min(parts)):
        out.append(cyclic_class_intervals(universe))
    if len(parts) == 2 and parts[0] == parts[1] == r and not pred.is_set:
        if t == 2 and _field(r):
            out.append(affine_line_group(universe))
        elif t == 3 and _field(r - 1):
            out.append(projective_line_group(universe))
    return out


def is_upward_closed(fam: Family) -> bool:
    """Whether every universe matching extending a member is itself a member.

    That is, whether each member's star, the matchings holding all its edges,
    lies inside the family; the empty matching's star is the whole universe.
    """
    outside = ~fam.bits
    for m in fam.members():
        if star_bits(fam.universe, m) & outside:
            return False
    return True
