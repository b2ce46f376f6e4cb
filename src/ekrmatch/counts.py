"""Exact closed-form counts for matching families of complete k-partite k-graphs.

Everything here is arbitrary-precision integer arithmetic; no floats.  Where a
formula involves a division, the division is exact and asserted (a remainder
would mean the formula was transcribed wrongly, which must never pass
silently).
"""

from __future__ import annotations

from math import comb, factorial, perm


def falling(a: int, b: int) -> int:
    """Falling factorial a * (a-1) * ... * (a-b+1), with falling(a, 0) = 1."""
    if a < 0 or b < 0:
        raise ValueError(f"falling({a}, {b}): arguments must be non-negative")
    if b > a:
        raise ValueError(f"falling({a}, {b}): b must not exceed a")
    return perm(a, b)


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem != 0:
        raise AssertionError(f"inexact division {num}/{den}: formula transcription bug")
    return q


def int_tuple(values, what: str) -> tuple:
    """The values as a tuple, each an int (a bool is not one); raises ValueError naming values or the first non-int."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a list of integers, got {values!r}") from None
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r}")
    return values


def validate_parts(parts) -> tuple:
    parts = int_tuple(parts, "part sizes")
    if len(parts) < 1 or any(n < 1 for n in parts):
        raise ValueError(f"part sizes must be a non-empty tuple of positive integers, got {parts}")
    return parts


def count_matchings(parts, r: int) -> int:
    """Number of r-edge matchings of the complete k-partite k-graph with the given part sizes.

    Equals prod_i (n_i)_r / r!.  r = 0 is allowed (the empty matching) so that
    power-set style universes can include it.
    """
    parts = validate_parts(parts)
    if r < 0 or r > min(parts):
        raise ValueError(f"r={r} out of range for parts {parts}")
    num = 1
    for n in parts:
        num *= falling(n, r)
    return _exact_div(num, factorial(r))


def t_star_size(parts, r: int, t: int) -> int:
    """Size of a t-star: all r-matchings containing t fixed disjoint edges."""
    parts = validate_parts(parts)
    if not 1 <= t <= r <= min(parts):
        raise ValueError(f"need 1 <= t <= r <= min(parts); got t={t}, r={r}, parts={parts}")
    num = 1
    for n in parts:
        num *= falling(n - t, r - t)
    return _exact_div(num, factorial(r - t))


def t_set_star_size(parts, r: int, t: int) -> int:
    """Size of a t-set-star: all r-matchings meeting a fixed box of per-part t-sets in exactly t edges."""
    parts = validate_parts(parts)
    if not 1 <= t <= r <= min(parts):
        raise ValueError(f"need 1 <= t <= r <= min(parts); got t={t}, r={r}, parts={parts}")
    k = len(parts)
    return factorial(t) ** (k - 1) * t_star_size(parts, r, t)


def semi_star_size(parts, r: int, t: int, u: int, set_variant: bool = False) -> int:
    """Size of the maximal family pinned by per-projection centres on the last part.

    The centres fix t pairs (or a t-box) between the last part and each other
    part; u is the number of distinct last-part vertices their shadows cover.
    With u = t this degenerates to t_star_size (or t_set_star_size), and it is
    strictly smaller for every u > t as long as r < n_k, which is the strict
    step separating stars from near-misses.
    """
    parts = validate_parts(parts)
    if not 1 <= t <= r <= min(parts):
        raise ValueError(f"need 1 <= t <= r <= min(parts); got t={t}, r={r}, parts={parts}")
    if u < t:
        raise ValueError(f"u={u} must be at least t={t}")
    if u > r:
        raise ValueError(f"u={u} must not exceed r={r}")
    nk = parts[-1]
    if u > nk:
        raise ValueError(f"u={u} exceeds last part size {nk}")
    num = 1
    for n in parts[:-1]:
        num *= falling(n - t, r - t)
    num *= falling(nk - u, r - u)
    size = _exact_div(num, factorial(r - u))
    if set_variant:
        size *= factorial(t) ** (len(parts) - 1)
    return size


def ak_family_size(n: int, r: int, t: int, i: int) -> int:
    """Number of r-subsets F of [n] with |F ∩ [t+2i]| >= t+i (Ahlswede-Khachatrian frame)."""
    if i < 0 or t < 1 or r < 0:
        raise ValueError(f"need i >= 0, t >= 1, r >= 0; got n={n}, r={r}, t={t}, i={i}")
    w = t + 2 * i
    if w > n or r > n:
        raise ValueError(f"need t+2i <= n and r <= n; got n={n}, r={r}, t={t}, i={i}")
    total = 0
    for j in range(t + i, min(r, w) + 1):
        total += comb(w, j) * comb(n - w, r - j)
    return total


def count_perms_no_fixed_in(m: int, s: int) -> int:
    """Permutations of an m-set with no fixed point inside a distinguished s-subset.

    Inclusion-exclusion over which distinguished points are forced fixed:
    sum_{i=0}^{s} (-1)^i C(s,i) (m-i)!.
    """
    if not 0 <= s <= m:
        raise ValueError(f"need 0 <= s <= m; got m={m}, s={s}")
    total = 0
    for i in range(s + 1):
        term = comb(s, i) * factorial(m - i)
        total += -term if i % 2 else term
    return total


def fixed_point_family_size(n: int, t: int, i: int) -> int:
    """Permutations of [n] with at least t+i fixed points inside the window [t+2i].

    Exact count via inclusion-exclusion: sum over the exact number j of window
    fixed points of C(w, j) * (permutations of the remaining n-j points with no
    fixed point among the w-j remaining window points).
    """
    if t < 1 or i < 0:
        raise ValueError(f"need t >= 1 and i >= 0; got n={n}, t={t}, i={i}")
    w = t + 2 * i
    if w > n:
        raise ValueError(f"window t+2i={w} exceeds n={n}")
    total = 0
    for j in range(t + i, w + 1):
        total += comb(w, j) * count_perms_no_fixed_in(n - j, w - j)
    return total


def katona_sizes(n: int, l: int) -> tuple[int, int]:
    """Sizes of the two threshold families in the power set of [n].

    Returns (|{A : |A| >= l}|, |{A : |A - {x}| >= l}|); the second count does
    not depend on the choice of x.
    """
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= n; got n={n}, l={l}")
    plain = sum(comb(n, i) for i in range(l, n + 1))
    punctured = 2 * sum(comb(n - 1, i) for i in range(l, n)) if n >= 1 else plain
    return plain, punctured


def katona_bound(n: int, t: int) -> int:
    """Maximum size of a t-intersecting family in the power set of [n], by parity."""
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n; got n={n}, t={t}")
    if (n + t) % 2 == 0:
        return katona_sizes(n, (n + t) // 2)[0]
    return katona_sizes(n, (n + t - 1) // 2)[1]


def frame_index_threshold(n: int, r: int, t: int) -> int:
    """Largest frame depth l in 1..floor((r-t)/2) whose alternating-sum inequality holds.

    Both sides are evaluated exactly:
        (2l+t-1) * sum_i (-1)^i C(l,i) (n-l-t-i)!
            >= l * sum_i (-1)^i C(l,i) (n-l-t+1-i)!
    Returns 0 when no depth qualifies (total function for grid scans).
    """
    if not 1 <= t <= r <= n:
        raise ValueError(f"need 1 <= t <= r <= n; got n={n}, r={r}, t={t}")
    best = 0
    for l in range(1, (r - t) // 2 + 1):
        lhs = rhs = 0
        for i in range(l + 1):
            sign = -1 if i % 2 else 1
            c = comb(l, i)
            lhs += sign * c * factorial(n - l - t - i)
            rhs += sign * c * factorial(n - l - t + 1 - i)
        if (2 * l + t - 1) * lhs >= l * rhs:
            best = l
    return best
