"""Persistence: universes, families, and campaign reports.

Universes are line-delimited JSON (one header line, then one matching per
line); families and nested reports are single JSON documents; flat report
rows are CSV.  All output is deterministic for a given input: keys are
sorted and no wall-clock data is written unless explicitly requested.
"""

from __future__ import annotations

import csv
import json

from .counts import int_tuple
from .matchings import DEFAULT_UNIVERSE_CAP, Family, Universe, enumerate_union_universe


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_universe(universe: Universe, path: str):
    with open(path, "w") as fh:
        header = {
            "kind": "universe",
            "parts": list(universe.parts),
            "sizes": list(universe.sizes),
            "count": len(universe),
        }
        fh.write(_dump(header) + "\n")
        for m in universe.items:
            fh.write(_dump([list(e) for e in m]) + "\n")


def _get(doc, key: str, path: str):
    """doc[key]; a ValueError naming doc unless it is a JSON object holding key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{path}: no {key!r} in {doc!r:.60}")
    return doc[key]


def load_universe(path: str, cap: int = DEFAULT_UNIVERSE_CAP) -> Universe:
    """Load and re-validate a universe file against a fresh enumeration; a malformed file raises ValueError."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if _get(header, "kind", path) != "universe":
            raise ValueError(f"{path} is not a universe file")
        universe = enumerate_union_universe(_get(header, "parts", path), _get(header, "sizes", path), cap)
        count = _get(header, "count", path)
        if len(universe) != count:
            raise ValueError(f"universe header count {count} does not match enumerated count {len(universe)}")
        i = -1
        for i, (want, line) in enumerate(zip(universe.items, fh)):
            m = json.loads(line)  # compared as JSON, so a line of any other shape is a mismatch
            if m != [list(e) for e in want]:
                raise ValueError(f"{path}: item {i} is {m}, expected {want}")
        found = i + 1 + sum(1 for _ in fh)  # lines past the universe are counted, not read
        if found != count:
            raise ValueError(f"{path}: expected {count} items, found {found}")
    return universe


def save_family(fam: Family, path: str, form: str = "indices"):
    if form not in ("indices", "matchings"):
        raise ValueError(f"unknown family form {form!r}")
    doc = {
        "kind": "family",
        "universe": {"parts": list(fam.universe.parts), "sizes": list(fam.universe.sizes)},
        "form": form,
        "annotations": list(fam.annotations),
    }
    if form == "indices":
        doc["indices"] = fam.indices()
    else:
        doc["matchings"] = [[list(e) for e in m] for m in fam.members()]
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_family(path: str, cap: int = DEFAULT_UNIVERSE_CAP) -> Family:
    """Load a family file in either form of `save_family`; a malformed file raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if _get(doc, "kind", path) != "family":
        raise ValueError(f"{path} is not a family file")
    spec, form = _get(doc, "universe", path), _get(doc, "form", path)
    universe = enumerate_union_universe(_get(spec, "parts", path), _get(spec, "sizes", path), cap)
    annotations = doc.get("annotations", [])
    if not isinstance(annotations, list) or not all(isinstance(a, str) for a in annotations):
        raise ValueError(f"{path}: annotations {annotations!r:.60} are not a list of strings")
    if form == "indices":
        return Family.from_indices(universe, int_tuple(_get(doc, "indices", path), "family indices"), annotations)
    if form != "matchings":
        raise ValueError(f"{path}: unknown family form {form!r}")
    matchings = _get(doc, "matchings", path)
    try:
        return Family.from_matchings(universe, matchings, annotations)
    except (KeyError, TypeError) as exc:  # a matching not in the universe, or not a list of edges
        raise ValueError(f"{path}: matchings {matchings!r:.60}: {exc.args[0]}") from None


REPORT_COLUMNS = [
    "campaign",
    "case",
    "parts",
    "sizes",
    "predicate",
    "expect",
    "universe_size",
    "formula",
    "max_size",
    "status",
    "maxima_count",
    "maxima_kinds",
    "outcome",
    "detail",
]


def report_row(campaign, case, outcome, detail="", rep=None, **fields) -> dict:
    """One flat report row: every column "" unless given.

    rep, an `ExtremalReport`, fills the nine columns of a solved cell, and
    fields override them; `elapsed_s` is present only when it is given.
    """
    row = dict.fromkeys(REPORT_COLUMNS, "")
    if rep is not None:
        row.update(parts=rep.parts, sizes=rep.sizes, predicate=rep.predicate,
                   universe_size=rep.universe_size, formula=rep.formula_value,
                   max_size=rep.max_size, status=rep.status,
                   maxima_count=rep.maxima_count, maxima_kinds=rep.maxima_kinds)
    row.update(campaign=campaign, case=case, outcome=outcome, detail=detail, **fields)
    return row


def write_report_csv(rows, path: str, include_timings: bool = False):
    columns = REPORT_COLUMNS + (["elapsed_s"] if include_timings else [])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            flat = dict(row)
            for key in ("parts", "sizes"):
                if isinstance(flat.get(key), (list, tuple)):
                    flat[key] = ",".join(str(x) for x in flat[key])
            if isinstance(flat.get("maxima_kinds"), dict):
                flat["maxima_kinds"] = ";".join(
                    f"{k}={v}" for k, v in sorted(flat["maxima_kinds"].items())
                )
            writer.writerow(flat)


def write_report_json(doc, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
