import json
import random
from itertools import permutations, product
from operator import eq

import pytest

from ekrmatch import matchings
from ekrmatch.cli import main as cli_main
from ekrmatch.harness import (
    BOUND_CAMPAIGNS,
    BoundCell,
    BUILTIN_CAMPAIGNS,
    LEMMA_CELLS,
    POOLED_CAMPAIGNS,
    closure_violations,
    force_record,
    load_campaign_file,
    operator_violations,
    random_weak_family,
    run_ak_regime,
    run_bound_campaign,
    run_builtin,
    run_example_suite,
    run_formula_campaign,
    run_katona_campaign,
    run_lemma1_suite,
    run_weak_star_suite,
    window_fixed_point_count,
)
from ekrmatch.counts import fixed_point_family_size
from ekrmatch.matchings import (
    Family,
    drop_part,
    enumerate_universe,
    project_pair,
    reduce_projection,
    vertex_shadow,
)
from ekrmatch.predicates import (
    Predicate,
    family_satisfies,
    holders,
    intersects_t,
    pair_checker,
    weakly_intersects_t,
)
from ekrmatch.search import NodeBudgetExceeded, build_compat_graph


def test_example_suite_reproduces_worked_examples():
    rep = run_example_suite()
    assert rep.ok
    cases = {row["case"]: row for row in rep.rows}
    assert set(cases) == {"weak-vs-plain-pair", "fixed-point-window-n8", "klein-k2", "klein-k3"}
    assert all(row["outcome"] == "pass" for row in rep.rows)
    assert "26" in cases["fixed-point-window-n8"]["detail"]
    assert "720" in cases["fixed-point-window-n8"]["detail"]  # the literal reading is reported too


def test_random_weak_families_satisfy_the_predicate():
    rng = random.Random(1)
    u = enumerate_universe((3, 3, 3), 2)
    graph = build_compat_graph(u, Predicate("weakly-intersecting", 1))
    for _ in range(25):
        fam = random_weak_family(graph, rng)
        assert len(fam) >= 1
        assert family_satisfies(fam, Predicate("weakly-intersecting", 1))


def greedy_weak_family_oracle(universe, t, rng):
    """The greedy draw through pair_checker: same shuffle and target, pairwise tests."""
    check = pair_checker(Predicate("weakly-intersecting", t), universe.k)
    order = list(range(len(universe)))
    rng.shuffle(order)
    target = rng.randint(1, 12)
    chosen, bits = [], 0
    for idx in order:
        m = universe.items[idx]
        if all(check(m, c) for c in chosen):
            chosen.append(m)
            bits |= 1 << idx
            if len(chosen) >= target:
                break
    return bits


@pytest.mark.parametrize("parts,r,t", LEMMA_CELLS)
def test_random_weak_family_equals_pairwise_greedy(parts, r, t):
    u = enumerate_universe(parts, r)
    graph = build_compat_graph(u, Predicate("weakly-intersecting", t))
    fast, slow = random.Random(17), random.Random(17)
    for _ in range(200):
        assert random_weak_family(graph, fast).bits == greedy_weak_family_oracle(u, t, slow)
    assert fast.getstate() == slow.getstate()


def test_closure_checker_is_not_vacuous():
    # two edge-disjoint matchings violate the restriction clauses
    u = enumerate_universe((3, 3), 2)
    bad = Family.from_matchings(u, [((1, 1), (2, 2)), ((2, 3), (3, 1))])
    assert closure_violations(bad, 1)


def family_violations_oracle(fam, t):
    """Lemma 1's drop and restriction identities recomputed from every member, part pair by part pair."""
    k = fam.universe.k
    members = fam.members()
    bad = []
    for j in range(1, k + 1):
        if k == 1:
            break
        dropped = sorted({drop_part(m, j) for m in members})
        for a in range(len(dropped)):
            for b in range(a + 1, len(dropped)):
                if k - 1 == 1:
                    ok = intersects_t(dropped[a], dropped[b], t)
                else:
                    ok = weakly_intersects_t(dropped[a], dropped[b], t)
                if not ok:
                    bad.append(f"drop of part {j} not weakly {t}-intersecting")
    for i, j in permutations(range(1, k + 1), 2):
        grouped = {}
        for m in members:
            grouped.setdefault(reduce_projection(m, i, j), set()).add(project_pair(m, i, j))
        for projs in map(sorted, grouped.values()):
            for a in range(len(projs)):
                for b in range(a + 1, len(projs)):
                    if not intersects_t(projs[a], projs[b], t):
                        bad.append(f"restriction at ({i},{j}) not {t}-intersecting")
    return bad


def operator_violations_oracle(fam):
    """The injectivity, partition and shadow identities recomputed from every member.

    The projections go through the `matchings` module, so a patched
    operator there reaches this oracle as it reaches the checker.
    """
    k = fam.universe.k
    members = fam.members()
    bad = []
    for i in range(1, k + 1):
        if len({matchings.project_all(m, i, k) for m in members}) != len(members):
            bad.append(f"projection from part {i} is not injective")
    for i, j in permutations(range(1, k + 1), 2):
        grouped = {}
        for m in members:
            grouped.setdefault(matchings.reduce_projection(m, i, j), []).append(matchings.project_pair(m, i, j))
        if sum(len(set(ps)) for ps in grouped.values()) != len(members):
            bad.append(f"restriction classes over ({i},{j}) do not partition the family")
        if k >= 3 and any(vertex_shadow(p, 1) != vertex_shadow(x[0], 1) for x, ps in grouped.items() for p in ps):
            bad.append(f"restriction at ({i},{j}) leaves the shadow of its class")
    return bad


ORACLE_CELLS = LEMMA_CELLS + (((2, 3), 2, 1), ((3, 3, 2, 2), 2, 1))


def sampled_families(u, t, seed):
    """The full universe, then 60 closed and 60 unclosed families, interleaved."""
    graph = build_compat_graph(u, Predicate("weakly-intersecting", t))
    rng = random.Random(seed)
    families = [Family.full(u)]
    for _ in range(60):
        families.append(random_weak_family(graph, rng))
        families.append(Family(u, rng.getrandbits(len(u))))  # not closed: violations are compared too
    return families


@pytest.mark.parametrize("parts,r,t", ORACLE_CELLS + (((4,), 2, 1),))
def test_closure_violations_equal_the_family_oracle(parts, r, t):
    u = enumerate_universe(parts, r)
    violating = 0
    for fam in sampled_families(u, t, 5):
        want = family_violations_oracle(fam, t)
        assert closure_violations(fam, t) == want
        violating += bool(want)
    assert violating or len(parts) == 1


@pytest.mark.parametrize("parts,r,t", ORACLE_CELLS)
def test_operator_violations_equal_the_operator_oracle(parts, r, t):
    # the operator identities hold for every family, closed or not, while the family identities fail on some
    u = enumerate_universe(parts, r)
    assert operator_violations(u) == operator_violations_oracle(Family.full(u)) == []
    families = sampled_families(u, t, 9)
    assert all(operator_violations_oracle(fam) == [] for fam in families)
    assert any(closure_violations(fam, t) for fam in families)


def test_operator_violations_are_stated_from_two_parts():
    # at k = 1 every matching projects to (), which would read as a failed injectivity
    with pytest.raises(ValueError, match="k >= 2"):
        operator_violations(enumerate_universe((4,), 2))


def test_operator_checks_fire_on_a_broken_projection_operator(monkeypatch, capsys, tmp_path):
    # the shadow identity holds for every family, so it can only catch a fault in the projections
    real = matchings.project_pair
    monkeypatch.setattr(matchings, "project_pair",
                        lambda m, i, j: real(m, j, i) if (i, j) == (1, 2) else real(m, i, j))
    # fresh universes have empty projection memos, so every row reads the patch
    for parts, r in [((4, 4, 4), 3), ((4, 4, 4), 2), ((3, 3, 3), 2)]:
        u = enumerate_universe(parts, r)
        found = operator_violations(u)
        assert any("leaves the shadow of its class" in v for v in found)
        assert found == operator_violations_oracle(Family.full(u))
    # a fault any sample shows is one the universe shows
    rng, seen = random.Random(3), 0
    for _ in range(40):
        fam = Family(u, rng.getrandbits(len(u)))
        bad = operator_violations_oracle(fam)
        assert set(bad) <= set(found)
        seen += bool(bad)
    assert seen
    rep = run_lemma1_suite(samples=12, seed=0)
    assert not rep.ok
    assert any(row["case"].endswith("|full-universe") and row["outcome"] == "fail" for row in rep.rows)
    assert cli_main(["verify", "--campaign", "builtin:lemma1", "--samples", "12",
                     "--out", str(tmp_path / "rep")]) == 1
    assert "leaves the shadow of its class" in capsys.readouterr().out


def test_lemma1_memo_is_keyed_by_t_and_held_per_universe():
    u = enumerate_universe((3, 3, 3), 2)
    graph = build_compat_graph(u, Predicate("weakly-intersecting", 1))
    rng = random.Random(11)
    families = [random_weak_family(graph, rng) for _ in range(30)]
    families += [Family(u, rng.getrandbits(len(u))) for _ in range(10)]
    assert "lemma1" not in u.memo
    # the t=1 draws mostly fail at t=2: a memo that ignored t would answer t=2 with t=1's results
    assert any(family_violations_oracle(f, 1) != family_violations_oracle(f, 2) for f in families)
    closure_violations(families[0], 1)
    views = u.memo["lemma1"]
    for t in (1, 2):
        for fam in families:
            assert closure_violations(fam, t) == family_violations_oracle(fam, t)
        assert u.memo["lemma1"] is views  # the views are built once, whatever t
        assert all(u.memo["lemma1", t])  # both the drop and the restriction tests are kept
    assert set(u.memo) == {"lemma1", ("lemma1", 1), ("lemma1", 2)}
    # a second universe of the same key gets views and tests of its own
    other = enumerate_universe((3, 3, 3), 2)
    assert closure_violations(Family.full(other), 1) == family_violations_oracle(Family.full(other), 1)
    assert other.memo["lemma1"] is not views and other.memo["lemma1", 1] is not u.memo["lemma1", 1]


def test_nonuniform_campaign_solves_each_cell_once(monkeypatch):
    from ekrmatch import harness

    real, calls = harness.extremal, []

    def counting(parts, sizes, pred, **kw):
        calls.append((parts, tuple(sizes), str(pred)))
        return real(parts, sizes, pred, **kw)

    monkeypatch.setattr(harness, "extremal", counting)
    rep = BUILTIN_CAMPAIGNS["nonuniform"]()
    assert len(calls) == len(set(calls))
    row = rep.rows[-1]
    assert row["case"] == "upward-closure|(3, 3)|R=(1, 2)" and row["outcome"] == "pass"
    assert row["detail"] == "all 9 maxima are upward closed: True"
    for workers in (1, 2):
        again = BUILTIN_CAMPAIGNS["nonuniform"](workers=workers)
        assert again.to_doc()["rows"] == rep.to_doc()["rows"]


def test_nonuniform_campaign_keeps_its_budget_abort():
    with pytest.raises(NodeBudgetExceeded):
        BUILTIN_CAMPAIGNS["nonuniform"](caps={"node_budget": 2})


def test_lemma1_suite_clean():
    rep = run_lemma1_suite(samples=120, seed=3)
    assert rep.ok
    assert rep.counts()["pass"] == 6
    assert all("0 violations" in row["detail"] for row in rep.rows if row["outcome"] == "pass")


def test_lemma1_suite_deterministic():
    a = run_lemma1_suite(samples=60, seed=9).to_doc()
    b = run_lemma1_suite(samples=60, seed=9).to_doc()
    assert a == b
    c = run_lemma1_suite(samples=60, seed=10).to_doc()
    assert c != a


def test_weak_star_suite_confirms_collapse():
    rep = run_weak_star_suite()
    assert rep.ok
    main_row = next(r for r in rep.rows if r["case"].startswith("(3, 3, 3)"))
    assert "27 weak 1-stars, 27 confirmed 1-stars" in main_row["detail"]
    klein_row = next(r for r in rep.rows if "klein" in r["case"])
    assert "weak-t-set-star" in klein_row["detail"]
    assert "box stars: False" in klein_row["detail"]


@pytest.mark.parametrize("parts,r,t", [((3, 3, 3), 2, 1), ((2, 3, 3), 2, 2), ((3, 4), 2, 1)])
def test_centre_system_holders_equal_projection_scan(parts, r, t):
    universe = enumerate_universe(parts, r)
    pred = Predicate("weakly-intersecting", t)
    k = len(parts)
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    pools = [enumerate_universe((parts[i - 1], parts[j - 1]), t).items for i, j in pairs]
    for system in product(*pools):
        scan = sum(1 << idx for idx, m in enumerate(universe.items)
                   if all(set(c) <= set(project_pair(m, i, j)) for (i, j), c in zip(pairs, system)))
        assert holders(universe, pred, [(c,) for c in system]) == scan


def test_bound_campaign_uniqueness_and_twins():
    cells = [BoundCell((3, 3), (2,), Predicate("intersecting", 1), "assert-uniqueness",
                       weak_twin=True)]
    rep = run_bound_campaign("demo", cells)
    assert rep.ok and len(rep.rows) == 2
    assert rep.rows[0]["max_size"] == 4 and rep.rows[0]["maxima_count"] == 9
    assert rep.rows[1]["case"].endswith("weak-twin")
    assert rep.rows[1]["max_size"] == rep.rows[0]["max_size"]


def test_weak_twin_at_k2_reads_the_universe_extremal_built(monkeypatch):
    from ekrmatch import harness

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the universe was enumerated again")

    monkeypatch.setattr(harness, "enumerate_union_universe", no_enumeration)
    cells = [BoundCell((3, 3), (2,), Predicate("intersecting", 1), "assert-uniqueness", weak_twin=True),
             BoundCell((3, 3), (1, 2), Predicate("intersecting", 1), "assert-uniqueness", weak_twin=True)]
    rep = run_bound_campaign("demo", cells)
    assert [row["case"].endswith("weak-twin") for row in rep.rows] == [False, True, False, True]
    assert rep.ok


def test_bound_campaign_records_cap_errors_per_row():
    cells = [BoundCell((3, 3), (2,), Predicate("intersecting", 1))]
    rep = run_bound_campaign("demo", cells, caps={"universe_cap": 5})
    assert rep.rows[0]["outcome"] == "skip"
    assert "cap" in rep.rows[0]["detail"]


def test_bound_campaign_workers_match_sequential():
    cells = [BoundCell((3, 3), (2,), Predicate("intersecting", 1), "assert-uniqueness"),
             BoundCell((3, 4), (2,), Predicate("intersecting", 1), "assert-uniqueness"),
             BoundCell((3, 3, 3), (2,), Predicate("intersecting", 1), "assert-uniqueness")]
    seq = run_bound_campaign("demo", cells, workers=1)
    par = run_bound_campaign("demo", cells, workers=2)
    # wall-clock is in-memory only; the serialised view must be identical
    assert seq.to_doc()["rows"] == par.to_doc()["rows"]


def test_ak_regime_transition():
    rep = run_ak_regime()
    assert rep.ok
    statuses = {row["case"]: row["status"] for row in rep.rows}
    assert statuses["n=5|r=3|t=2"] == "EXCEEDS_STAR_BOUND"
    for n in (6, 7, 8, 9):
        assert statuses[f"n={n}|r=3|t=2"] == "MATCHES_STAR_BOUND"


def test_katona_campaign_values_and_uniqueness():
    rep = run_katona_campaign()
    assert rep.ok
    for row in rep.rows:
        assert row["max_size"] == row["formula"]
    t2 = [r for r in rep.rows if "t=2" in r["case"]]
    assert all("threshold families" in r["detail"] for r in t2)


def test_formula_campaign_all_pass():
    rep = run_formula_campaign()
    assert rep.ok
    assert rep.counts()["fail"] == 0
    assert rep.counts()["pass"] >= 50


def test_set_campaign_finds_the_exception():
    rep = run_builtin("set-intersecting")
    exceptional = next(r for r in rep.rows if "(4, 4)|r=4" in r["case"])
    assert exceptional["maxima_kinds"] == {"t-set-star": 18, "none": 6}
    assert exceptional["outcome"] == "attention"
    k3 = next(r for r in rep.rows if "(4, 4, 4)" in r["case"])
    assert k3["maxima_kinds"] == {"t-set-star": 108}
    assert k3["outcome"] == "record"


def test_every_builtin_campaign_runs():
    slow = {"katona", "cross-set-stars"}  # exercised separately above / below
    for name in sorted(BUILTIN_CAMPAIGNS):
        if name in slow:
            continue
        rep = run_builtin(name, samples=40, seed=2)
        assert rep.counts()["fail"] == 0, (name, rep.rows)


def test_pooled_builtins_are_the_bound_table():
    bound = ("intersecting", "permutations", "t-intersecting", "nonuniform",
             "set-intersecting", "nonuniform-t-scan")
    assert POOLED_CAMPAIGNS == tuple(BOUND_CAMPAIGNS) == bound
    serial = [name for name in BUILTIN_CAMPAIGNS if name not in bound]
    assert len(serial) == 10
    for name in serial:
        with pytest.raises(ValueError) as exc:
            run_builtin(name, workers=2)
        assert str(exc.value) == (f"builtin:{name} runs serially: only intersecting, permutations, "
                                  f"t-intersecting, nonuniform, set-intersecting, nonuniform-t-scan "
                                  f"take more than one worker")


def test_cross_set_campaign():
    rep = run_builtin("cross-set-stars")
    assert rep.ok
    crossed = [r for r in rep.rows if r["case"].startswith("cross|")]
    assert crossed and all(r["outcome"] == "record" for r in crossed)
    assert all("cross 2-set-intersect: False" in r["detail"] for r in crossed)


def test_force_record_downgrades_failures():
    cells = [BoundCell((3, 3), (2,), Predicate("intersecting", 1), expect_max=99)]
    rep = run_bound_campaign("demo", cells)
    assert not rep.ok
    forced = force_record(rep)
    assert forced.ok and forced.attention >= 1


def test_campaign_file_round_trip(tmp_path):
    doc = {
        "name": "custom",
        "kind": "bound",
        "cells": [
            {"parts": [3, 3], "r": 2, "pred": "intersecting:1", "expect": "assert-uniqueness"},
            {"parts": [3, 3], "sizes": [1, 2], "pred": "intersecting:1"},
        ],
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    name, cells = load_campaign_file(str(path))
    assert name == "custom" and len(cells) == 2
    assert cells[1].sizes == (1, 2)
    rep = run_bound_campaign(name, cells)
    assert rep.ok


def test_campaign_file_bad_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "mystery", "cells": []}))
    with pytest.raises(ValueError):
        load_campaign_file(str(path))


def test_examples_campaign_enumerates_no_large_universe(monkeypatch):
    # the n = 8 fixed-point family is counted over permutations, not over a 40,320-matching universe
    sizes, real = [], matchings.enumerate_union_universe

    def recording(*args, **kwargs):
        sizes.append(len(real(*args, **kwargs)))
        return real(*args, **kwargs)

    monkeypatch.setattr(matchings, "enumerate_union_universe", recording)
    report = run_example_suite()
    assert sizes and max(sizes) <= 5_000
    assert all(row["outcome"] == "pass" for row in report.rows)
    [row] = [row for row in report.rows if row["case"] == "fixed-point-window-n8"]
    assert row["universe_size"] == 40_320 and "enumeration 26" in row["detail"]


def window_fixed_point_oracle(n, t, i):
    """The window family counted by walking every permutation of [n]."""
    window = range(1, t + 2 * i + 1)
    return sum(sum(map(eq, sigma, window)) >= t + i for sigma in permutations(range(1, n + 1)))


@pytest.mark.parametrize("n", range(9))
def test_window_count_equals_the_permutation_walk(n):
    for t, i in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (4, 1), (2, 2), (0, 3), (3, 2)]:
        got = window_fixed_point_count(n, t, i)
        assert got == window_fixed_point_oracle(n, t, i), (n, t, i)
        if t >= 1 and t + 2 * i <= n:  # the closed form's domain
            assert got == fixed_point_family_size(n, t, i), (n, t, i)
    assert window_fixed_point_count(8, 4, 1) == 26 == fixed_point_family_size(8, 4, 1)


def test_formula_campaign_enumerates_each_universe_once(monkeypatch):
    from ekrmatch import harness

    real, keys = harness.enumerate_union_universe, []

    def recording(parts, sizes, cap):
        keys.append((tuple(parts), tuple(sizes)))
        return real(parts, sizes, cap)

    monkeypatch.setattr(harness, "enumerate_union_universe", recording)
    report = run_formula_campaign()
    assert report.ok and len(keys) == len(set(keys))
