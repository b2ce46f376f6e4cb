"""Verification campaigns and conjecture scans over parameter grids.

A campaign is a named grid of cells plus an expectation mode per cell:

* assert-equality   -- the clique maximum must equal the closed-form value;
* assert-uniqueness -- additionally every maximum family must classify as the
                       expected extremal structure;
* record-only       -- nothing is asserted; anomalous cells (bound exceeded,
                       non-star maxima) are counted as "attention".

record-only is mandatory for every claim that is only stated for sufficiently
large parameters, so those campaigns double as empirical probes of the
unknown thresholds.

Every builtin campaign is a fixed grid: the six bound builtins are the cell
tables of `BOUND_CAMPAIGNS`, and the other runners read their grids from
module constants.  Other grids run through a campaign file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from itertools import combinations, islice, permutations, product
from math import factorial

from . import __version__, matchings
from .counts import (
    ak_family_size,
    count_matchings,
    fixed_point_family_size,
    frame_index_threshold,
    katona_bound,
    katona_sizes,
    semi_star_size,
    t_set_star_size,
    t_star_size,
)
from .constructions import (
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
from .matchings import (
    DEFAULT_UNIVERSE_CAP,
    Family,
    UniverseTooLargeError,
    drop_part,
    enumerate_union_universe,
    enumerate_universe,
    project_all,
    reduce_projection,
    vertex_shadow,
)
from .predicates import (
    Predicate,
    check_strength,
    classify_star,
    cross_set_intersecting,
    family_satisfies,
    holders,
    intersects_t,
    pair_checker,
    pair_projections,
    pair_universe,
    part_pairs,
    predicate,
    projections_are_stars,
    set_intersects_t,
    weakly_intersects_t,
)
from .search import (
    DEFAULT_GRAPH_CAP,
    DEFAULT_MAXIMA_CAP,
    DEFAULT_NODE_BUDGET,
    GraphTooLargeError,
    NodeBudgetExceeded,
    build_compat_graph,
    extremal,
    fork_pool,
)
from .storage import report_row

ASSERT_EQUALITY = "assert-equality"
ASSERT_UNIQUENESS = "assert-uniqueness"
RECORD_ONLY = "record-only"


@dataclass(frozen=True)
class BoundCell:
    parts: tuple
    sizes: tuple
    pred: Predicate
    expect: str = ASSERT_EQUALITY
    all_maxima: bool = True
    weak_twin: bool = False
    expect_max: int | None = None
    note: str = ""


@dataclass
class CampaignReport:
    name: str
    config: dict
    rows: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)  # cell index -> ExtremalReport or cap error, when asked; not serialised

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "record": 0, "attention": 0, "skip": 0}
        for row in self.rows:
            out[row["outcome"]] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts()["fail"] == 0

    @property
    def attention(self) -> int:
        return self.counts()["attention"]

    def to_doc(self, include_timings: bool = False) -> dict:
        rows = self.rows
        if not include_timings:
            rows = [{k: v for k, v in row.items() if k != "elapsed_s"} for row in rows]
        return {
            "engine_version": __version__,
            "campaign": self.name,
            "config": self.config,
            "counts": self.counts(),
            "rows": rows,
            "witnesses": self.witnesses,
        }

    def summary(self) -> str:
        c = self.counts()
        verdict = "OK" if self.ok else "FAIL"
        return (
            f"campaign {self.name}: {verdict} "
            f"(pass={c['pass']} fail={c['fail']} record={c['record']} "
            f"attention={c['attention']} skip={c['skip']})"
        )


# ---------------------------------------------------------------------------
# bound / uniqueness campaigns


def _run_bound_cell(args):
    name, idx, cell, caps, keep = args
    case = f"{idx:02d}:{cell.parts}|r={','.join(map(str, cell.sizes))}|{cell.pred}"
    rows, witnesses = [], {}
    try:
        rep = extremal(cell.parts, cell.sizes, cell.pred, all_maxima=cell.all_maxima, **caps)
    except (UniverseTooLargeError, GraphTooLargeError, NodeBudgetExceeded) as exc:
        rows.append(report_row(name, case, "skip", detail=f"cap: {exc}", parts=cell.parts,
                               sizes=cell.sizes, predicate=str(cell.pred), expect=cell.expect))
        return rows, witnesses, exc if keep else None

    expected = cell.expect_max if cell.expect_max is not None else rep.formula_value
    star_kind = "t-set-star" if cell.pred.is_set else "t-star"
    accepted = {star_kind}
    if cell.pred.is_set and cell.pred.t == 1:
        accepted.add("t-star")  # a 1-set-star is a 1-star; classification prefers the latter
    non_star = 0
    if rep.maxima_kinds is not None:
        non_star = sum(v for k, v in rep.maxima_kinds.items() if k not in accepted)

    if cell.expect == RECORD_ONLY:
        outcome = "attention" if (rep.status != "MATCHES_STAR_BOUND" or non_star) else "record"
        detail = cell.note
    elif rep.max_size != expected:
        outcome, detail = "fail", f"max {rep.max_size} != expected {expected}"
    elif cell.expect == ASSERT_UNIQUENESS and (rep.maxima_count in (None, "overflow") or non_star):
        outcome, detail = "fail", f"non-{star_kind} maxima: {rep.maxima_kinds}"
    else:
        outcome, detail = "pass", cell.note

    rows.append(report_row(name, case, outcome, detail, rep, expect=cell.expect,
                           elapsed_s=round(rep.elapsed, 3)))
    witnesses[case] = rep.to_dict()

    if cell.weak_twin and not cell.pred.is_weak:
        weak_pred = Predicate("weakly-" + cell.pred.kind, cell.pred.t)
        if len(cell.parts) <= 2:
            # weak and plain predicates coincide at k <= 2: the twin row must
            # duplicate this row, checked at the adjacency level
            universe = rep.witness.universe
            g_plain = build_compat_graph(universe, cell.pred, caps["graph_cap"])
            g_weak = build_compat_graph(universe, weak_pred, caps["graph_cap"])
            twin = dict(rows[-1], case=case + "|weak-twin", predicate=str(weak_pred))
            if g_plain.rows != g_weak.rows:
                twin.update(outcome="fail", detail="weak adjacency differs from plain at k<=2")
            rows.append(twin)
        else:
            twin_cell = replace(cell, pred=weak_pred, weak_twin=False)
            twin_rows, twin_wit, _ = _run_bound_cell((name, idx, twin_cell, caps, False))
            for tr in twin_rows:
                tr["case"] = tr["case"] + "|weak"
            rows.extend(twin_rows)
            witnesses.update({k + "|weak": v for k, v in twin_wit.items()})
    return rows, witnesses, rep if keep else None


def run_bound_campaign(name: str, cells, caps=None, workers: int = 1, keep=()) -> CampaignReport:
    """Run every cell; the `ExtremalReport` of each cell index in keep lands in report.kept.

    A kept cell that a cap skipped lands there as the cap's error instead.
    """
    caps = _default_caps(caps)
    jobs = [(name, i, cell, caps, i in keep) for i, cell in enumerate(cells)]
    if workers > 1 and len(jobs) > 1:
        with fork_pool(min(workers, len(jobs))) as pool:
            results = pool.map(_run_bound_cell, jobs)
    else:
        results = [_run_bound_cell(job) for job in jobs]
    report = CampaignReport(name, {"cells": len(jobs), "caps": caps, "workers": workers})
    for i, (rows, witnesses, rep) in enumerate(results):
        report.rows.extend(rows)
        report.witnesses.update(witnesses)
        if rep is not None:
            report.kept[i] = rep
    return report


def _default_caps(caps=None) -> dict:
    out = {
        "universe_cap": DEFAULT_UNIVERSE_CAP,
        "graph_cap": DEFAULT_GRAPH_CAP,
        "node_budget": DEFAULT_NODE_BUDGET,
        "maxima_cap": DEFAULT_MAXIMA_CAP,
    }
    if caps:
        out.update(caps)
    return out


# ---------------------------------------------------------------------------
# closure identities on random predicate-closed families


def random_weak_family(graph, rng: random.Random) -> Family:
    """Greedily grow a clique of the graph, a predicate-closed family, along a shuffled order."""
    universe, rows = graph.universe, graph.rows
    order = list(range(len(universe)))
    rng.shuffle(order)
    target = rng.randint(1, 12)
    allowed, bits, size = -1, 0, 0
    for idx in order:
        if allowed >> idx & 1:
            allowed &= rows[idx]
            bits |= 1 << idx
            size += 1
            if size >= target:
                break
    return Family(universe, bits)


def _lemma1_views(universe) -> tuple:
    """Each item's projections for the Lemma 1 checks, numbered, built once per universe.

    Returns (values, drops, pairs), kept in ``universe.memo["lemma1"]``.
    Equal values get equal numbers, and ``values[n]`` is the value numbered
    n.  ``drops[j - 1][v]`` numbers item v with part j dropped (no drops at
    k = 1).  ``pairs[i, j][v]`` numbers item v's (reduced projection, pair
    projection) over the ordered part pair (i, j), the pairs in
    lexicographic order.  The projections are read through the `matchings`
    module, so a patched operator there reaches every check.
    """
    views = universe.memo.get("lemma1")
    if views is None:
        k, items = universe.k, universe.items
        ids: dict = {}

        def number(value):
            return ids.setdefault(value, len(ids))

        drops = [[number(drop_part(m, j)) for m in items] for j in range(1, k + 1)] if k > 1 else []
        pairs = {(i, j): [(number(reduce_projection(m, i, j)), number(matchings.project_pair(m, i, j)))
                          for m in items]
                 for i, j in permutations(range(1, k + 1), 2)}
        views = universe.memo["lemma1"] = (list(ids), drops, pairs)
    return views


def _restriction_classes(column, indices) -> dict:
    """The restriction classes of the items at these indices: reduced number -> set of pair numbers."""
    classes: dict = {}
    for v in indices:
        x, p = column[v]
        classes.setdefault(x, set()).add(p)
    return classes


def operator_violations(universe) -> list:
    """Violations of the identities that guard the projection operators, over a whole universe.

    Injectivity (the projections from a part determine the matching),
    partition (restriction classes partition the items) and, at k >= 3,
    shadow (a restriction lives over its class's vertex shadow) are each
    about one item or a pair of items, so a fault in any family of the
    universe is a fault in the universe.  They are stated for k >= 2.
    """
    k, items = universe.k, universe.items
    if k < 2:
        raise ValueError(f"the projection identities are stated for k >= 2, got k = {k}")
    values, _, pairs = _lemma1_views(universe)
    bad = []
    for i in range(1, k + 1):
        if len({project_all(m, i, k) for m in items}) != len(items):
            bad.append(f"projection from part {i} is not injective")
    for (i, j), column in pairs.items():
        if sum(map(len, _restriction_classes(column, range(len(items))).values())) != len(items):
            bad.append(f"restriction classes over ({i},{j}) do not partition the family")
        if k >= 3 and any(vertex_shadow(values[x][0], 1) != vertex_shadow(values[p], 1) for x, p in column):
            bad.append(f"restriction at ({i},{j}) leaves the shadow of its class")
    return bad


def closure_violations(fam: Family, t: int) -> list:
    """Lemma 1's violations for one family: its drops and restrictions stay weakly t-intersecting.

    The checks read the members' numbers from `_lemma1_views`, and each
    pairwise test runs once per universe, t and pair of values: the results
    are kept in ``universe.memo["lemma1", t]``.
    """
    universe = fam.universe
    k = universe.k
    values, drops, pairs = _lemma1_views(universe)
    drop_tests, pair_tests = universe.memo.setdefault(("lemma1", t), ({}, {}))
    members = fam.indices()
    bad = []

    plain = pair_checker(predicate("intersecting", t), 2)
    # a drop has k - 1 parts, and on at most two parts the weak kind is the plain one
    weak = plain if k <= 3 else pair_checker(predicate("weakly-intersecting", t), k - 1)
    for j, column in enumerate(drops, 1):
        for p, q in combinations(sorted({column[v] for v in members}), 2):
            ok = drop_tests.get((p, q))
            if ok is None:
                ok = drop_tests[p, q] = weak(values[p], values[q])
            if not ok:
                bad.append(f"drop of part {j} not weakly {t}-intersecting")

    for (i, j), column in pairs.items():
        for projs in _restriction_classes(column, members).values():
            for p, q in combinations(sorted(projs), 2):
                ok = pair_tests.get((p, q))
                if ok is None:
                    ok = pair_tests[p, q] = plain(values[p], values[q])
                if not ok:
                    bad.append(f"restriction at ({i},{j}) not {t}-intersecting")
    return bad


LEMMA_CELLS = (
    ((3, 3), 2, 1),
    ((3, 3), 3, 1),
    ((3, 3), 3, 2),
    ((3, 3, 3), 2, 1),
    ((3, 3, 3), 3, 1),
    ((3, 3, 3), 3, 2),
)


def run_lemma1_suite(samples: int = 1000, seed: int = 0, caps=None) -> CampaignReport:
    name = "lemma1"
    caps = _default_caps(caps)
    cells = [list(map(str, c)) for c in LEMMA_CELLS]
    report = CampaignReport(name, {"samples": samples, "seed": seed, "cells": cells})
    rng = random.Random(seed)
    per_cell = [samples // len(cells)] * len(cells)
    for i in range(samples % len(cells)):
        per_cell[i] += 1
    for (parts, r, t), n_samples in zip(LEMMA_CELLS, per_cell):
        universe = enumerate_universe(parts, r, caps["universe_cap"])
        graph = build_compat_graph(universe, Predicate("weakly-intersecting", t))
        case = f"{parts}|r={r}|t={t}"
        violations = 0
        sizes_seen = set()
        for _ in range(n_samples):
            fam = random_weak_family(graph, rng)
            sizes_seen.add(len(fam))
            bad = closure_violations(fam, t)
            if bad:
                violations += 1
                report.rows.append(report_row(
                    name, f"{case}|violation", "fail", "; ".join(bad[:4]),
                    parts=parts, sizes=(r,), predicate=f"weakly-intersecting:{t}"))
        # the identities that hold for every family, checked once on the whole universe
        full_bad = operator_violations(universe)
        if full_bad:
            violations += 1
            report.rows.append(report_row(name, f"{case}|full-universe", "fail",
                                          "; ".join(full_bad), parts=parts, sizes=(r,)))
        outcome = "pass" if violations == 0 else "fail"
        size_range = f"sizes {min(sizes_seen)}..{max(sizes_seen)}, " if sizes_seen else ""
        report.rows.append(report_row(
            name, case, outcome, f"{n_samples} sampled families, {size_range}{violations} violations",
            parts=parts, sizes=(r,), predicate=f"weakly-intersecting:{t}",
            expect=ASSERT_EQUALITY, universe_size=len(universe)))
    return report


# ---------------------------------------------------------------------------
# weak stars collapse to stars (constructive sweep)


WEAK_STAR_CELL = ((3, 3, 3), 2, 1)  # parts, r, t
WEAK_STAR_SYSTEM_CAP = 10**5  # the centre systems checked, at most


def run_weak_star_suite(caps=None) -> CampaignReport:
    name = "weak-stars"
    caps = _default_caps(caps)
    parts, r, t = WEAK_STAR_CELL
    report = CampaignReport(name, {"parts": list(parts), "r": r, "t": t, "system_cap": WEAK_STAR_SYSTEM_CAP})
    case = f"{parts}|r={r}|t={t}"
    universe = enumerate_universe(parts, r, caps["universe_cap"])
    pools = [pair_universe(parts[i - 1], parts[j - 1], t).items for i, j in part_pairs(len(parts))]
    total_systems = 1
    for pool in pools:
        total_systems *= len(pool)
    truncated = total_systems > WEAK_STAR_SYSTEM_CAP

    systems = islice(product(*pools), WEAK_STAR_SYSTEM_CAP)
    pred = Predicate("weakly-intersecting", t)
    n_checked = n_nonempty = n_weak = n_confirmed = 0
    for system in systems:
        n_checked += 1
        # one signature per pair component, the system's centre there
        bits = holders(universe, pred, [(centre,) for centre in system])
        if bits == 0:
            continue
        n_nonempty += 1
        fam = Family(universe, bits)
        if not projections_are_stars(pair_projections(fam), t):
            continue
        n_weak += 1
        cls = classify_star(fam, t)
        if cls.kind == "t-star":
            n_confirmed += 1
        else:
            report.rows.append(report_row(name, f"{case}|system{n_checked}", "fail",
                                          detail=f"weak {t}-star classified as {cls.kind}",
                                          parts=parts, sizes=(r,)))
    outcome = "pass" if n_weak == n_confirmed else "fail"
    detail = (f"{n_checked} centre systems ({'truncated' if truncated else 'complete'}), "
              f"{n_nonempty} nonempty, {n_weak} weak {t}-stars, {n_confirmed} confirmed {t}-stars")
    report.rows.append(report_row(name, case, outcome, detail, parts=parts, sizes=(r,),
                                  universe_size=len(universe), expect=ASSERT_EQUALITY))

    # the set analogue: the Klein-group family has star-sized set-intersecting
    # projections yet is itself no box star (labelled weak set star: inferred)
    ku = enumerate_universe((4, 4, 4), 4, caps["universe_cap"])
    kf = klein_family(ku)
    cls = classify_star(kf, 2)
    genuine = cls.projections_are_box_stars
    evidence_ok = cls.kind == "weak-t-set-star"
    report.rows.append(report_row(
        name, "set-analogue|klein-k3", "pass" if evidence_ok else "fail",
        detail=f"classified {cls.kind}; projections are box stars: {genuine}; "
               f"recorded as evidence about the set analogue of the weak-star collapse",
        parts=(4, 4, 4), sizes=(4,), predicate="weakly-set-intersecting:2 (inferred)",
        universe_size=len(ku), maxima_kinds={cls.kind: 1},
    ))
    return report


# ---------------------------------------------------------------------------
# worked examples


def window_fixed_point_count(n: int, t: int, i: int) -> int:
    """The permutations of [n] with at least t + i fixed points among positions 1..t + 2i, enumerated.

    Positions are filled in order, depth first, and a branch is abandoned
    once more window positions have moved than the family allows.  Each
    permutation of the family is one leaf.
    """
    window = min(n, t + 2 * i)
    allowed = window - (t + i)  # the window positions that may move

    def extend(pos: int, free: int, moved: int) -> int:
        if pos > n:
            return 1
        count = 0
        for x in range(1, n + 1):
            if free >> x & 1:
                now = moved + (pos <= window and x != pos)
                if now <= allowed:
                    count += extend(pos + 1, free ^ 1 << x, now)
        return count

    return extend(1, (1 << n + 1) - 2, 0) if allowed >= 0 else 0


def run_example_suite(caps=None) -> CampaignReport:
    name = "examples"
    caps = _default_caps(caps)
    report = CampaignReport(name, {})

    # weak versus plain intersection on a concrete pair
    p = ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    q = ((1, 1, 4), (2, 4, 2), (4, 3, 3))
    weak1 = weakly_intersects_t(p, q, 1)
    plain1 = intersects_t(p, q, 1)
    weak2 = weakly_intersects_t(p, q, 2)
    ok = weak1 and not plain1 and not weak2
    report.rows.append(report_row(
        name, "weak-vs-plain-pair", "pass" if ok else "fail",
        detail=f"weakly 1-intersect: {weak1} (expected True); share an edge: {plain1} "
               f"(expected False); weakly 2-intersect: {weak2} (expected False)",
        parts=(4, 4, 4), sizes=(3,), expect=ASSERT_EQUALITY,
    ))

    # window-fixed-point permutation family versus the star, n=8: the family is
    # enumerated among the 8! permutations of [8], without the 40,320-matching universe
    t, i = 4, 1
    size = fixed_point_family_size(8, t, i)
    star_t4 = t_star_size((8, 8), 8, 4)
    star_t2_literal = t_star_size((8, 8), 8, 2)
    built = window_fixed_point_count(8, t, i)
    ok = size == 26 and built == 26 and star_t4 == 24 and size > star_t4
    report.rows.append(report_row(
        name, "fixed-point-window-n8", "pass" if ok else "fail",
        detail=f"family size {size} (=13*2!, enumeration {built}) exceeds the 4-edge star {star_t4} "
               f"(=4!); literal 2-edge star reading would be {star_t2_literal}",
        parts=(8, 8), sizes=(8,), formula=star_t4, max_size=size,
        universe_size=factorial(8), expect=ASSERT_EQUALITY,
    ))

    # Klein four-group as permutations of [4]: set-intersecting but no box star
    u44 = enumerate_universe((4, 4), 4, caps["universe_cap"])
    kf2 = klein_family(u44)
    sat = family_satisfies(kf2, Predicate("set-intersecting", 2))
    cls2 = classify_star(kf2, 2)
    ok = len(kf2) == 4 and sat and cls2.kind == "none" and len(kf2) == t_set_star_size((4, 4), 4, 2)
    report.rows.append(report_row(
        name, "klein-k2", "pass" if ok else "fail",
        detail=f"size {len(kf2)} (= box-star size {t_set_star_size((4, 4), 4, 2)}), "
               f"2-set-intersecting: {sat}, classified {cls2.kind} (expected none: no box star)",
        parts=(4, 4), sizes=(4,), predicate="set-intersecting:2",
        universe_size=len(u44), maxima_kinds={cls2.kind: 1}, expect=ASSERT_EQUALITY,
    ))

    # its 3-part extension: weakly set-intersecting, with an explicit witness
    # pair that fails plain 2-set-intersection
    u444 = enumerate_universe((4, 4, 4), 4, caps["universe_cap"])
    kf3 = klein_family(u444)
    diag = diagonal_matching((4, 4, 4))
    witness = ((1, 2, 3), (2, 1, 4), (3, 4, 1), (4, 3, 2))
    weak_ok = family_satisfies(kf3, Predicate("weakly-set-intersecting", 2))
    pair_fails = not set_intersects_t(diag, witness, 2)
    cls3 = classify_star(kf3, 2)
    ok = (
        len(kf3) == 16
        and weak_ok
        and kf3.contains(diag)
        and kf3.contains(witness)
        and pair_fails
        and cls3.kind == "weak-t-set-star"
    )
    report.rows.append(report_row(
        name, "klein-k3", "pass" if ok else "fail",
        detail=f"size {len(kf3)} (=2^(2k-2)), weakly 2-set-intersecting: {weak_ok}, witness pair "
               f"in family fails 2-set-intersection: {pair_fails}, classified {cls3.kind}",
        parts=(4, 4, 4), sizes=(4,), predicate="weakly-set-intersecting:2 (inferred)",
        universe_size=len(u444), maxima_kinds={cls3.kind: 1}, expect=ASSERT_EQUALITY,
    ))
    return report


# ---------------------------------------------------------------------------
# power-set (k=1, non-uniform) threshold campaign


KATONA_NS = (4, 5, 6)
KATONA_TS = (1, 2)


def run_katona_campaign(caps=None) -> CampaignReport:
    """The nonempty subsets of [n]: the empty set is left out of every universe."""
    name = "katona"
    caps = _default_caps(caps)
    report = CampaignReport(name, {"ns": list(KATONA_NS), "ts": list(KATONA_TS), "include_empty": False})
    for n in KATONA_NS:
        sizes = tuple(range(1, n + 1))
        universe = enumerate_union_universe((n,), sizes, caps["universe_cap"])
        for t in KATONA_TS:
            case = f"n={n}|t={t}"
            bound = katona_bound(n, t)
            pred = Predicate("intersecting", t)
            rep = extremal((n,), sizes, pred, all_maxima=(t >= 2), universe=universe, **caps)
            value_ok = rep.max_size == bound
            detail = f"parity bound {bound}; star bound {rep.formula_value}"
            outcome = "pass" if value_ok else "fail"
            if value_ok and t >= 2:
                # proven uniqueness regime: the maxima must be exactly the
                # threshold families (one, or one per marked element)
                if (n + t) % 2 == 0:
                    expected = [katona_family(universe, (n + t) // 2)]
                else:
                    l = (n + t - 1) // 2
                    expected = [katona_family(universe, l, x) for x in range(1, n + 1)]
                if rep.maxima is None:
                    outcome = "fail"
                    detail += f"; more than {caps['maxima_cap']} maxima"
                elif {f.bits for f in rep.maxima} != {f.bits for f in expected}:
                    outcome = "fail"
                    detail += f"; maxima != threshold families ({len(rep.maxima)} vs {len(expected)})"
                else:
                    detail += f"; maxima are exactly the {len(expected)} threshold families"
            if t == 1:
                detail += "; structure recorded only (many maximum families at t=1)"
            report.rows.append(report_row(name, case, outcome, detail, rep,
                                          expect=ASSERT_EQUALITY, formula=bound))
    return report


# ---------------------------------------------------------------------------
# small-n frame regime for subsets (k=1)


AK_REGIME = ((5, 6, 7, 8, 9), 3, 2)  # ns, r, t


def run_ak_regime(caps=None) -> CampaignReport:
    name = "ak-regime"
    caps = _default_caps(caps)
    ns, r, t = AK_REGIME
    report = CampaignReport(name, {"ns": list(ns), "r": r, "t": t})
    boundary = (r - t + 1) * (t + 1)
    for n in ns:
        case = f"n={n}|r={r}|t={t}"
        frame_sizes = [ak_family_size(n, r, t, i) for i in range((n - t) // 2 + 1)]
        best_frame = max(frame_sizes)
        rep = extremal((n,), (r,), Predicate("intersecting", t), all_maxima=True, **caps)
        expect_status = "EXCEEDS_STAR_BOUND" if n < boundary else "MATCHES_STAR_BOUND"
        ok = rep.max_size == best_frame and rep.status == expect_status
        report.rows.append(report_row(
            name, case, "pass" if ok else "fail",
            detail=f"frame sizes {frame_sizes}; best {best_frame}; star {rep.formula_value}; "
                   f"boundary n={boundary}",
            rep=rep, expect=ASSERT_EQUALITY, formula=best_frame,
        ))
    return report


# ---------------------------------------------------------------------------
# conjecture scans (record-only)


FRAME_SCAN_CELLS = (((3, 3), 2, 1), ((4, 4), 2, 1), ((4, 4), 3, 1), ((3, 3, 3), 2, 1), ((4, 4), 3, 2))


def run_frame_scan(caps=None) -> CampaignReport:
    """Maximum t-intersecting size versus the best frame family (record-only)."""
    name = "frame-scan"
    caps = _default_caps(caps)
    report = CampaignReport(name, {"cells": [f"{p}|r={r}|t={t}" for p, r, t in FRAME_SCAN_CELLS]})
    for parts, r, t in FRAME_SCAN_CELLS:
        case = f"{parts}|r={r}|t={t}"
        universe = enumerate_universe(parts, r, caps["universe_cap"])
        n = min(parts)
        frames = [frame_family(universe, t, i) for i in range((n - t) // 2 + 1)]
        frame_sizes = [len(f) for f in frames]
        rep = extremal(parts, (r,), Predicate("intersecting", t), all_maxima=True, universe=universe,
                       **caps)
        consistent = rep.max_size == max(frame_sizes)
        report.rows.append(report_row(
            name, case, "record" if consistent else "attention",
            detail=f"frame sizes {frame_sizes}; conjectured max {max(frame_sizes)}; "
                   f"clique max {rep.max_size}; consistent: {consistent}",
            rep=rep, expect=RECORD_ONLY, formula=max(frame_sizes),
        ))
    return report


THRESHOLD_SCAN_CELLS = ((4, 5, 2), (4, 6, 2), (4, 6, 1))  # r, n, t


def run_threshold_scan(caps=None) -> CampaignReport:
    """Frame-depth threshold formula versus the computed best frame (record-only)."""
    name = "threshold-scan"
    caps = _default_caps(caps)
    report = CampaignReport(name, {"cells": [list(c) for c in THRESHOLD_SCAN_CELLS]})
    for r, n, t in THRESHOLD_SCAN_CELLS:
        case = f"r={r}|n={n}|t={t}"
        l_star = frame_index_threshold(n, r, t)
        universe = enumerate_universe((r, n), r, caps["universe_cap"])
        depths = range((r - t) // 2 + 1)
        frame_sizes = [len(frame_family(universe, t, i)) for i in depths]
        best_depth = max(depths, key=lambda i: frame_sizes[i])
        rep = extremal((r, n), (r,), Predicate("intersecting", t), all_maxima=False, universe=universe,
                       **caps)
        agree = frame_sizes[l_star] == max(frame_sizes) and rep.max_size == max(frame_sizes)
        report.rows.append(report_row(
            name, case, "record" if agree else "attention",
            detail=f"threshold depth {l_star}; frame sizes {frame_sizes}; best depth {best_depth}; "
                   f"clique max {rep.max_size}",
            rep=rep, expect=RECORD_ONLY, formula=frame_sizes[l_star],
            maxima_count="", maxima_kinds="",  # no maxima are listed: the columns stay empty
        ))
    return report


CROSS_SET_CELL = ((6, 6), 4, 2)  # parts, r, t


def run_cross_set_campaign(caps=None) -> CampaignReport:
    """Whether distinct-centre box stars can be cross t-set-intersecting (record-only)."""
    name = "cross-set-stars"
    caps = _default_caps(caps)
    parts, r, t = CROSS_SET_CELL
    report = CampaignReport(name, {"parts": list(parts), "r": r, "t": t})
    universe = enumerate_universe(parts, r, caps["universe_cap"])
    boxes = [
        ((1, 2), (1, 2)),
        ((1, 3), (1, 3)),
        ((3, 4), (5, 6)),
    ]
    stars = [t_set_star(universe, box) for box in boxes]

    self_cross = cross_set_intersecting(stars[0], stars[0], t)
    report.rows.append(report_row(
        name, "self-cross", "pass" if self_cross else "fail",
        detail="a box star must cross-intersect itself",
        parts=parts, sizes=(r,), predicate=f"set-intersecting:{t}", expect=ASSERT_EQUALITY,
        universe_size=len(universe),
    ))
    empty = Family.empty(universe)
    vacuous = cross_set_intersecting(empty, stars[0], t)
    report.rows.append(report_row(
        name, "empty-cross", "pass" if vacuous else "fail",
        detail="cross-intersection is vacuous for an empty family",
        parts=parts, sizes=(r,), expect=ASSERT_EQUALITY, universe_size=len(universe),
    ))
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            crossed = cross_set_intersecting(stars[a], stars[b], t)
            report.rows.append(report_row(
                name, f"cross|{boxes[a]}x{boxes[b]}", "attention" if crossed else "record",
                detail=f"distinct centres cross {t}-set-intersect: {crossed} "
                       f"(claim holds for large r; desk value recorded)",
                parts=parts, sizes=(r,), predicate=f"set-intersecting:{t}", expect=RECORD_ONLY,
                universe_size=len(universe),
            ))
    return report


# ---------------------------------------------------------------------------
# closed-form versus construction sweep


def run_formula_campaign(caps=None) -> CampaignReport:
    """Every construction's cardinality against its closed form, plus count checks."""
    name = "formulas"
    cap = _default_caps(caps)["universe_cap"]
    report = CampaignReport(name, {})
    # several checks share a universe: each is enumerated once, and the cache ends with the campaign
    universes = {}

    def universe(parts, sizes):
        key = (parts, tuple(sizes))
        if key not in universes:
            universes[key] = enumerate_union_universe(parts, sizes, cap)
        return universes[key]

    def check(case, got, want, parts="", sizes="", detail=""):
        ok = got == want
        report.rows.append(report_row(
            name, case, "pass" if ok else "fail",
            detail=detail or f"constructed {got}, formula {want}",
            parts=parts, sizes=sizes, formula=want, max_size=got, expect=ASSERT_EQUALITY,
        ))

    for parts, r in [((4,), 2), ((3, 3), 2), ((2, 2, 2), 2), ((3, 3, 3), 2),
                     ((3, 4), 2), ((4, 4), 3), ((5,), 3)]:
        u = universe(parts, (r,))
        check(f"count|{parts}|r={r}", len(u), count_matchings(parts, r), parts, (r,))

    star_cells = [((3, 3), 2, 1), ((3, 4), 2, 1), ((3, 3, 3), 2, 1),
                  ((4, 4), 3, 2), ((4, 4), 4, 2), ((5, 5), 3, 3)]
    for parts, r, t in star_cells:
        u = universe(parts, (r,))
        fam = t_star(u, diagonal_matching(parts, t))
        check(f"t-star|{parts}|r={r}|t={t}", len(fam), t_star_size(parts, r, t), parts, (r,))

    set_cells = [((4, 4), 4, 2), ((4, 4, 4), 4, 2), ((3, 3), 3, 3), ((4, 4), 3, 2)]
    for parts, r, t in set_cells:
        u = universe(parts, (r,))
        box = tuple(tuple(range(1, t + 1)) for _ in parts)
        fam = t_set_star(u, box)
        check(f"t-set-star|{parts}|r={r}|t={t}", len(fam), t_set_star_size(parts, r, t), parts, (r,))

    # pinned-projection families at aligned (u=t) and misaligned (u=t+1) shadows
    for parts, r, t, set_variant in [((3, 3, 3), 2, 1, False), ((4, 4, 4), 3, 2, False),
                                     ((4, 4, 4), 3, 2, True)]:
        u = universe(parts, (r,))
        for shift in (0, 1):
            uu = t + shift
            if set_variant:
                centres = [(tuple(range(1 + (shift if jj else 0), t + 1 + (shift if jj else 0))),
                            tuple(range(1, t + 1))) for jj in range(len(parts) - 1)]
            else:
                centres = []
                for jj in range(len(parts) - 1):
                    off = shift if jj else 0
                    centres.append(tuple((x + off, x) for x in range(1, t + 1)))
            fam = semi_star(u, centres, set_variant)
            want = semi_star_size(parts, r, t, uu, set_variant)
            check(f"semi-star|{parts}|r={r}|t={t}|u={uu}|set={set_variant}", len(fam), want,
                  parts, (r,))
            cls = classify_star(fam, t)
            expected_kind = ("t-set-star" if set_variant else "t-star") if shift == 0 else "none"
            check(f"semi-star-kind|{parts}|r={r}|t={t}|u={uu}|set={set_variant}",
                  cls.kind, expected_kind, parts, (r,),
                  detail=f"classified {cls.kind}, expected {expected_kind}")

    for n, r, t, i in [(5, 3, 2, 0), (5, 3, 2, 1), (6, 3, 2, 1), (8, 4, 2, 1), (9, 3, 2, 1)]:
        u = universe((n,), (r,))
        fam = ak_family(u, t, i)
        check(f"ak|n={n}|r={r}|t={t}|i={i}", len(fam), ak_family_size(n, r, t, i), (n,), (r,))

    for n, t, i in [(4, 2, 1), (5, 2, 1), (6, 2, 1), (6, 4, 1), (6, 2, 0)]:
        u = universe((n, n), (n,))
        fam = fixed_point_family(u, t, i)
        check(f"fixed-point|n={n}|t={t}|i={i}", len(fam), fixed_point_family_size(n, t, i),
              (n, n), (n,))

    for n, l in [(4, 0), (5, 3), (6, 4), (6, 3)]:
        u = universe((n,), range(0, n + 1))
        plain, punctured = katona_sizes(n, l)
        check(f"katona-plain|n={n}|l={l}", len(katona_family(u, l)), plain, (n,))
        marked = {len(katona_family(u, l, x)) for x in range(1, n + 1)}
        check(f"katona-marked|n={n}|l={l}", sorted(marked), [punctured], (n,),
              detail=f"marked-element sizes {sorted(marked)}, formula {punctured} "
                     f"(independent of the mark)")

    for k in (2, 3):
        u = universe((4,) * k, (4,))
        check(f"klein|k={k}", len(klein_family(u)), 4 ** (k - 1), (4,) * k, (4,))

    for parts, sizes, t in [((3, 3), (1, 2), 1), ((3, 3, 3), (1, 2), 1), ((3, 3), (2, 3), 1)]:
        u = universe(parts, sizes)
        fam = t_star(u, diagonal_matching(parts, t))
        want = sum(t_star_size(parts, r, t) for r in sizes if r >= t)
        check(f"nonuniform-star|{parts}|R={sizes}", len(fam), want, parts, sizes)

    return report


def run_semi_star_campaign() -> CampaignReport:
    """Strict decrease of the pinned-family size in the shadow spread (proven step)."""
    name = "semi-stars"
    report = CampaignReport(name, {})
    for parts, r, t, set_variant in [((3, 3, 3), 2, 1, False), ((4, 4, 4), 3, 2, False),
                                     ((4, 4, 4), 3, 2, True), ((5, 5), 3, 2, False),
                                     ((4, 4), 3, 2, True)]:
        case = f"{parts}|r={r}|t={t}|set={set_variant}"
        sizes = [semi_star_size(parts, r, t, u, set_variant) for u in range(t, r + 1)]
        # strict decrease in the shadow spread holds whenever r < n_k,
        # which every cell here satisfies
        strict = all(a > b for a, b in zip(sizes, sizes[1:]))
        star = (t_set_star_size if set_variant else t_star_size)(parts, r, t)
        report.rows.append(report_row(
            name, case, "pass" if (strict and sizes[0] == star) else "fail",
            detail=f"sizes over u={list(range(t, r + 1))}: {sizes}; strictly decreasing: {strict}; "
                   f"u=t value equals star size {star}",
            parts=parts, sizes=(r,), formula=star, max_size=sizes[0], expect=ASSERT_EQUALITY,
        ))
    return report


# ---------------------------------------------------------------------------
# builtin bound campaigns


# each bound builtin's cells, in report order, for `run_bound_campaign` and its cell pool
BOUND_CAMPAIGNS = {
    "intersecting": tuple(
        BoundCell(parts, (r,), Predicate("intersecting", 1), ASSERT_UNIQUENESS, weak_twin=True)
        for parts, r in [((3, 3), 2), ((3, 4), 2), ((4, 4), 2), ((3, 3, 3), 2)]),
    "permutations": (
        BoundCell((3, 3), (3,), Predicate("intersecting", 1),
                  note="r=n=m cell: uniqueness recorded, not asserted"),
        BoundCell((3, 3), (2,), Predicate("intersecting", 1), ASSERT_UNIQUENESS, weak_twin=True),
        BoundCell((4, 4), (3,), Predicate("intersecting", 1), ASSERT_UNIQUENESS),
        BoundCell((4, 4), (4,), Predicate("intersecting", 1),
                  note="r=n=m cell: uniqueness recorded, not asserted"),
    ),
    "t-intersecting": tuple(
        BoundCell(parts, (r,), Predicate("intersecting", t), RECORD_ONLY, weak_twin=True,
                  note="bound only claimed for large parts; desk status recorded")
        for parts, r, t in [((4, 4), 3, 2), ((5, 5), 3, 2), ((3, 3, 3), 3, 2), ((4, 4), 4, 2)]),
    "nonuniform": tuple(
        BoundCell(parts, sizes, Predicate("intersecting", 1), ASSERT_UNIQUENESS, weak_twin=True)
        for parts, sizes in [((3, 3), (1, 2)), ((3, 3, 3), (1, 2)), ((3, 3), (2, 3))]),
    # t-set-intersecting maxima versus box stars, including the exceptional cell
    "set-intersecting": tuple(
        BoundCell(parts, (r,), Predicate("set-intersecting", t), RECORD_ONLY, note=note)
        for parts, r, t, note in [((3, 3), 3, 1, ""), ((4, 4), 3, 2, ""),
                                  ((4, 4), 4, 2, "exceptional cell: non-star maxima expected"),
                                  ((4, 4, 4), 4, 2, "")]),
    # weakly t-intersecting maxima over unions of edge counts
    "nonuniform-t-scan": tuple(
        BoundCell(parts, sizes, Predicate("weakly-intersecting", t), RECORD_ONLY)
        for parts, sizes, t in [((4, 4), (2, 3), 2), ((3, 3), (1, 2), 1), ((4, 4), (2, 3, 4), 2)]),
}


def run_nonuniform_campaign(caps=None, workers: int = 1) -> CampaignReport:
    cells = BOUND_CAMPAIGNS["nonuniform"]
    report = run_bound_campaign("nonuniform", cells, caps, workers, keep={0})
    # upward closure of maximum families, the structural step behind the
    # union bound: any extension of a member inside the universe is a member;
    # the maxima are those the (3,3) R=(1,2) cell found above
    cell = cells[0]
    case = f"upward-closure|{cell.parts}|R={cell.sizes}"
    rep = report.kept[0]
    if isinstance(rep, UniverseTooLargeError):  # the cell's universe is above the cap, and so is this row's
        report.rows.append(report_row("nonuniform", case, "skip", detail=f"cap: {rep}", parts=cell.parts,
                                      sizes=cell.sizes, predicate="intersecting:1", expect=ASSERT_EQUALITY))
        return report
    if isinstance(rep, Exception):  # the graph cap or node budget that skipped the cell ends the campaign
        raise rep
    closed = rep.maxima is not None and all(is_upward_closed(f) for f in rep.maxima)
    report.rows.append(report_row(
        "nonuniform", case, "pass" if closed else "fail",
        detail=f"all {rep.maxima_count} maxima are upward closed: {closed}",
        parts=cell.parts, sizes=cell.sizes, predicate="intersecting:1", expect=ASSERT_EQUALITY,
        universe_size=rep.universe_size, max_size=rep.max_size, maxima_count=rep.maxima_count,
    ))
    return report


def _table_runner(name: str):
    """A bound builtin: its table's cells through the cell pool of `run_bound_campaign`."""
    if name == "nonuniform":
        return lambda caps=None, workers=1, **kw: run_nonuniform_campaign(caps, workers)
    return lambda caps=None, workers=1, **kw: run_bound_campaign(name, BOUND_CAMPAIGNS[name], caps, workers)


BUILTIN_CAMPAIGNS = {
    "examples": lambda caps=None, **kw: run_example_suite(caps),
    "lemma1": lambda samples=1000, seed=0, caps=None, **kw: run_lemma1_suite(samples, seed, caps),
    "weak-stars": lambda caps=None, **kw: run_weak_star_suite(caps),
    "katona": lambda caps=None, **kw: run_katona_campaign(caps),
    "ak-regime": lambda caps=None, **kw: run_ak_regime(caps),
    "frame-scan": lambda caps=None, **kw: run_frame_scan(caps),
    "threshold-scan": lambda caps=None, **kw: run_threshold_scan(caps),
    "cross-set-stars": lambda caps=None, **kw: run_cross_set_campaign(caps),
    "formulas": lambda caps=None, **kw: run_formula_campaign(caps),
    "semi-stars": lambda **kw: run_semi_star_campaign(),
    **{name: _table_runner(name) for name in BOUND_CAMPAIGNS},
}

# the builtins whose cells run through the cell pool of `run_bound_campaign`
POOLED_CAMPAIGNS = tuple(BOUND_CAMPAIGNS)


def run_builtin(name: str, **kwargs) -> CampaignReport:
    if name not in BUILTIN_CAMPAIGNS:
        raise KeyError(f"unknown builtin campaign {name!r}; available: {sorted(BUILTIN_CAMPAIGNS)}")
    if kwargs.get("workers", 1) > 1 and name not in POOLED_CAMPAIGNS:
        raise ValueError(f"builtin:{name} runs serially: only {', '.join(POOLED_CAMPAIGNS)} "
                         f"take more than one worker")
    return BUILTIN_CAMPAIGNS[name](**kwargs)


EXPECT_MODES = (ASSERT_EQUALITY, ASSERT_UNIQUENESS, RECORD_ONLY)
# a campaign-file cell's fields, each with its JSON type
CELL_FIELDS = {"parts": list, "r": int, "sizes": list, "pred": str, "expect": str,
               "all_maxima": bool, "weak_twin": bool, "expect_max": int, "note": str}


def load_campaign_file(path: str):
    """Load a bound-campaign definition, name and cells; a malformed cell raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "cells" not in doc:
        raise ValueError(f"campaign file {path} is not a JSON object with 'cells'")
    if doc.get("kind", "bound") != "bound":
        raise ValueError(f"campaign file {path} has unsupported kind {doc.get('kind')!r}")
    cells = []
    for n, cell in enumerate(doc["cells"]):
        if not isinstance(cell, dict):
            raise ValueError(f"campaign file {path}, cell {n}: not a JSON object")
        problems = [f"unknown field {key!r}" if key not in CELL_FIELDS
                    else f"{key}: expected {CELL_FIELDS[key].__name__}, got {value!r}"
                    for key, value in cell.items() if type(value) is not CELL_FIELDS.get(key)]
        problems += [f"no {key!r}" for key in ("parts", "pred", "sizes" if "sizes" in cell else "r")
                     if key not in cell]
        problems += [f"{key}: expected integers, got {x!r}" for key in ("parts", "sizes")
                     if type(cell.get(key)) is list for x in cell[key] if type(x) is not int]
        if cell.get("expect", ASSERT_EQUALITY) not in EXPECT_MODES:
            problems.append(f"expect is not one of {', '.join(EXPECT_MODES)}")
        if problems:
            raise ValueError(f"campaign file {path}, cell {n}: {'; '.join(problems)}")
        sizes = tuple(cell["sizes"] if "sizes" in cell else [cell["r"]])
        pred = Predicate.parse(cell["pred"])
        check_strength(pred, sizes)
        flags = {key: cell[key] for key in cell.keys() - {"parts", "r", "sizes", "pred"}}
        cells.append(BoundCell(tuple(cell["parts"]), sizes, pred, **flags))
    return doc.get("name", "custom"), cells


def force_record(report: CampaignReport) -> CampaignReport:
    """Downgrade failures to attention (scan semantics: record, never assert)."""
    for row in report.rows:
        if row["outcome"] == "fail":
            row["outcome"] = "attention"
            row["detail"] = f"recorded (scan mode): {row['detail']}"
        elif row["outcome"] == "pass":
            row["outcome"] = "record"
    return report
