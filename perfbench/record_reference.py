"""Record the answers the correctness gate compares against.

    python3 perfbench/record_reference.py COMMIT

Runs every workload once, untraced, and writes perfbench/reference.json:
per cell the maximum size, a digest of the witness indices and, for
all-maxima cells, the maxima count and a digest of their star centres; per
builtin campaign the CLI exit code and digests of its CSV and JSON reports.
The file in the repository was recorded at the commit it names.  Record it
again only when a change is meant to alter an answer, and say so.
"""

import json
import os
import sys

import rep

CAMPAIGNS = (
    "examples", "lemma1", "weak-stars", "intersecting", "permutations", "t-intersecting",
    "nonuniform", "katona", "ak-regime", "set-intersecting", "frame-scan",
    "nonuniform-t-scan", "threshold-scan", "cross-set-stars", "formulas", "semi-stars",
)


def main(commit: str):
    os.chdir(rep.ROOT)
    cells = {}
    for workload, group in rep.CELLS.items():
        for cell, answer in zip(group, rep.run_cells(group)):
            entry = {"max_size": answer["max_size"], "witness_sha256": rep.sha256(answer["witness"])}
            if cell.all_maxima:
                entry["maxima_count"] = answer["maxima_count"]
                entry["centres_sha256"] = rep.sha256(answer["centres"])
            previous = cells.setdefault(cell.key, entry)
            if any(previous[k] != v for k, v in entry.items() if k in previous):
                raise SystemExit(f"{cell.label} in {workload} disagrees with another run of {cell.key}")
            previous.update(entry)
    sweep = {}
    os.makedirs(os.path.join(rep.OUT_DIR, "sweep"), exist_ok=True)
    for answer in rep.run_sweep(CAMPAIGNS, seed=0):
        if "error" in answer:
            raise SystemExit(f"campaign {answer['op']}: {answer['error']}")
        sweep[answer["op"]] = {"exit": answer["exit"], **rep.sweep_digests(answer["op"])}
    doc = {"commit": commit, "campaigns": list(CAMPAIGNS), "cells": cells, "sweep": sweep}
    with open(os.path.join(rep.BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
