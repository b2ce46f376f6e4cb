import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ekrmatch import harness
from ekrmatch.cli import main
from ekrmatch.storage import load_universe


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--parts", "3,3", "--r", "2")
    assert code == 0 and out.strip() == "18"
    code, out, _ = run_cli(capsys, "enumerate", "--parts", "4", "--r", "2")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(capsys, "enumerate", "--parts", "3,3,3", "--r", "2")
    assert code == 0 and out.strip() == "108"


def test_enumerate_writes_universe(capsys, tmp_path):
    path = tmp_path / "u.jsonl"
    code, out, _ = run_cli(capsys, "enumerate", "--parts", "3,3", "--sizes", "1,2",
                           "--out", str(path))
    assert code == 0 and out.strip() == "27"
    assert len(load_universe(str(path))) == 27


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--parts", "3,3", "--r", "2", "--cap", "5")
    assert code == 2
    assert "18" in err  # the predicted count is reported


def test_enumerate_usage_errors(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--parts", "3,3")
    assert code == 2 and "required" in err
    code, _, err = run_cli(capsys, "enumerate", "--parts", "3,3", "--r", "0")
    assert code == 2


def test_search_outputs(capsys):
    code, out, _ = run_cli(capsys, "search", "--parts", "3,3", "--r", "2",
                           "--pred", "intersecting:1", "--all-maxima")
    assert code == 0
    assert "max=4" in out and "9 t-star" in out and "MATCHES_STAR_BOUND" in out

    code, out, _ = run_cli(capsys, "search", "--parts", "5", "--r", "3",
                           "--pred", "intersecting:2")
    assert code == 0 and "max=4" in out and "EXCEEDS_STAR_BOUND" in out

    code, out, _ = run_cli(capsys, "search", "--parts", "4,4", "--r", "4",
                           "--pred", "set-intersecting:2", "--all-maxima")
    assert code == 0 and "6 none" in out and "18 t-set-star" in out


def test_search_bad_predicate(capsys):
    code, _, err = run_cli(capsys, "search", "--parts", "3,3", "--r", "2", "--pred", "nope")
    assert code == 2


def test_search_budget_abort(capsys):
    code, _, err = run_cli(capsys, "search", "--parts", "3,3", "--r", "2",
                           "--pred", "intersecting:1", "--node-budget", "2")
    assert code == 3 and "budget" in err


def test_search_all_maxima_budget_abort(capsys):
    # the maximum takes 3 nodes and the all-maxima listing from root 0 takes 5
    argv = ("search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1", "--node-budget", "4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "max=4" in out
    code, out, err = run_cli(capsys, *argv, "--all-maxima")
    assert code == 3 and "budget" in err and not out
    code, out, _ = run_cli(capsys, *argv[:-1], "20", "--all-maxima")
    assert code == 0 and "maxima=9 (9 t-star)" in out


def test_env_override_must_be_a_positive_integer(capsys, monkeypatch):
    argv = ("search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1")
    for name in ("EKRMATCH_NODE_BUDGET", "EKRMATCH_UNIVERSE_CAP", "EKRMATCH_MAXIMA_CAP"):
        for value in ("lots", "0", "-5"):
            monkeypatch.setenv(name, value)
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and err.startswith("error: ") and name in err and not out
        monkeypatch.delenv(name)
    monkeypatch.setenv("EKRMATCH_NODE_BUDGET", "2")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("campaign", ["lemma1", "weak-stars", "examples", "formulas"])
def test_universe_cap_reaches_every_builtin(capsys, monkeypatch, campaign):
    monkeypatch.setenv("EKRMATCH_UNIVERSE_CAP", "5")
    code, out, err = run_cli(capsys, "verify", "--campaign", f"builtin:{campaign}")
    assert code == 2 and "universe too large" in err and not out


@pytest.mark.parametrize("campaign", ["intersecting", "nonuniform", "set-intersecting"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_capped_bound_builtins_write_skip_rows(capsys, monkeypatch, campaign, workers):
    # nonuniform's upward-closure row reads the maxima of its first cell: capped, it is a skip row too
    monkeypatch.setenv("EKRMATCH_UNIVERSE_CAP", "5")
    code, out, err = run_cli(capsys, "verify", "--campaign", f"builtin:{campaign}", "--workers", workers)
    assert code == 0 and not err
    assert out.strip().endswith("attention=0 skip=4)")
    assert out.count("universe too large") == 4
    if campaign == "nonuniform":
        assert "[     skip] nonuniform/upward-closure|(3, 3)|R=(1, 2): cap: universe too large: predicted 27" in out


def test_workers_below_one_rejected(capsys):
    for verb_args in (("search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1"),
                      ("verify", "--campaign", "builtin:examples")):
        for value in ("0", "-1", "two"):
            with pytest.raises(SystemExit) as exc:
                main([*verb_args, "--workers", value])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err


def test_search_report_files(capsys, tmp_path):
    base = tmp_path / "rep"
    code, _, _ = run_cli(capsys, "search", "--parts", "3,3", "--r", "2",
                         "--pred", "intersecting:1", "--all-maxima", "--out", str(base))
    assert code == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["report"]["max_size"] == 4
    assert doc["config"]["pred"] == "intersecting:1"
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.splitlines()[0].startswith("campaign,case,parts")
    assert "MATCHES_STAR_BOUND" in csv_text


def test_verify_examples(capsys):
    code, out, _ = run_cli(capsys, "verify", "--campaign", "builtin:examples")
    assert code == 0
    assert "campaign examples: OK" in out


def test_verify_unknown_campaign(capsys):
    code, _, err = run_cli(capsys, "verify", "--campaign", "builtin:nope")
    assert code == 2 and err.startswith("error: unknown builtin campaign 'nope'")


def test_search_maxima_overflow_prints_no_tally(capsys):
    code, out, _ = run_cli(capsys, "search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1",
                           "--all-maxima", "--maxima-cap", "1")
    assert code == 0 and out == "max=4 formula=4 status=MATCHES_STAR_BOUND universe=18 maxima=overflow\n"


def test_search_sizes_in_any_order(capsys):
    code, out, _ = run_cli(capsys, "search", "--parts", "3,3", "--sizes", "2,1", "--pred", "intersecting:1")
    assert code == 0 and out == "max=5 formula=5 status=MATCHES_STAR_BOUND universe=27\n"


def test_verify_custom_campaign_failure_and_scan_downgrade(capsys, tmp_path):
    doc = {"name": "broken", "kind": "bound",
           "cells": [{"parts": [3, 3], "r": 2, "pred": "intersecting:1", "expect_max": 99}]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--campaign", str(path))
    assert code == 1
    code, out, _ = run_cli(capsys, "scan", "--campaign", str(path))
    assert code == 0 and "attention" in out


def test_verify_report_files_reproducible(capsys, tmp_path):
    base = tmp_path / "rep"
    run_cli(capsys, "verify", "--campaign", "builtin:lemma1", "--samples", "40",
            "--seed", "5", "--out", str(base))
    first_csv = (tmp_path / "rep.csv").read_bytes()
    first_json = (tmp_path / "rep.json").read_bytes()
    run_cli(capsys, "verify", "--campaign", "builtin:lemma1", "--samples", "40",
            "--seed", "5", "--out", str(base))
    assert (tmp_path / "rep.csv").read_bytes() == first_csv
    assert (tmp_path / "rep.json").read_bytes() == first_json


def test_verify_embeds_version_and_config(capsys, tmp_path):
    base = tmp_path / "rep"
    run_cli(capsys, "verify", "--campaign", "builtin:examples", "--out", str(base))
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["engine_version"]
    assert doc["config"]["run"]["campaign"] == "builtin:examples"


def test_verify_applies_env_caps(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("EKRMATCH_NODE_BUDGET", "1")
    base = tmp_path / "rep"
    code, _, _ = run_cli(capsys, "verify", "--campaign", "builtin:intersecting", "--out", str(base))
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert code == 0 and doc["counts"]["skip"] == len(doc["rows"]) > 0
    assert doc["config"]["caps"]["node_budget"] == 1


def test_console_script_end_to_end():
    # the subprocess does not inherit pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ekrmatch.cli", "enumerate", "--parts", "3,3", "--r", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "18"


CELL = {"parts": [3, 3], "r": 2, "pred": "intersecting:1"}
# campaign files by placeholder name; each is rejected before any search
CAMPAIGN_FILES = {
    "CAMPAIGN": {"cells": [dict(CELL, pred="set-intersecting:3")]},
    "CAMPAIGN-MISSPELT-EXPECT": {"cells": [dict(CELL, expect="assert-uniquness")]},
    "CAMPAIGN-UNKNOWN-FIELD": {"cells": [dict(CELL, **{"weak-twin": True})]},
    "CAMPAIGN-STRING-ALL-MAXIMA": {"cells": [dict(CELL, all_maxima="yes")]},
    "CAMPAIGN-NUMBER-WEAK-TWIN": {"cells": [dict(CELL, weak_twin=1)]},
    "CAMPAIGN-FLOAT-EXPECT-MAX": {"cells": [dict(CELL, expect_max=6.5)]},
    "CAMPAIGN-FRACTIONAL-SIZES": {"cells": [{"parts": [3, 3], "sizes": [1.5, 2], "pred": "intersecting:1"}]},
    "CAMPAIGN-NO-CELLS": {"name": "empty"},
    "CAMPAIGN-NO-PARTS": {"cells": [{"r": 2, "pred": "intersecting:1"}]},
    "CAMPAIGN-NO-PRED": {"cells": [{"parts": [3, 3], "r": 2}]},
    "CAMPAIGN-LIST": [CELL],
    "CAMPAIGN-LIST-CELL": {"cells": [[3, 3]]},
    "CAMPAIGN-NUMBER-CELLS": {"cells": 5},
    "CAMPAIGN-NULL-CELLS": {"cells": None},
    "CAMPAIGN-OBJECT-CELLS": {"cells": {"a": 1}},
    "CAMPAIGN-LIST-NAME": {"name": ["x"], "cells": [CELL]},
}


@pytest.mark.parametrize("argv", [
    ["enumerate", "--parts", "3,3", "--r", "4"],
    ["enumerate", "--parts", "0,3", "--r", "1"],
    ["search", "--parts", "3,3", "--r", "5", "--pred", "intersecting:1"],
    ["search", "--parts", "0,3", "--r", "1", "--pred", "intersecting:1"],
    ["search", "--parts", "3,3", "--sizes", "1,9", "--pred", "intersecting:1"],
    ["verify", "--campaign", "builtin:lemma1", "--samples", "0"],
    ["verify", "--campaign", "builtin:lemma1", "--samples", "-3"],
    # t above every edge count: no two matchings could meet
    ["search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:5"],
    ["search", "--parts", "3,3", "--sizes", "0", "--pred", "intersecting:1"],
    ["verify", "--campaign", "CAMPAIGN"],
    ["verify", "--campaign", "CAMPAIGN-MISSPELT-EXPECT"],
    ["verify", "--campaign", "CAMPAIGN-UNKNOWN-FIELD"],
    ["verify", "--campaign", "CAMPAIGN-STRING-ALL-MAXIMA"],
    ["verify", "--campaign", "CAMPAIGN-NUMBER-WEAK-TWIN"],
    ["verify", "--campaign", "CAMPAIGN-FLOAT-EXPECT-MAX"],
    # a fractional edge count is refused, not truncated to 1
    ["verify", "--campaign", "CAMPAIGN-FRACTIONAL-SIZES"],
    ["verify", "--campaign", "CAMPAIGN-NO-CELLS"],
    ["verify", "--campaign", "CAMPAIGN-NO-PARTS"],
    ["scan", "--campaign", "CAMPAIGN-NO-PRED"],
    ["verify", "--campaign", "CAMPAIGN-LIST"],
    ["verify", "--campaign", "CAMPAIGN-LIST-CELL"],
    ["verify", "--campaign", "CAMPAIGN-NUMBER-CELLS"],
    ["verify", "--campaign", "CAMPAIGN-NULL-CELLS"],
    ["scan", "--campaign", "CAMPAIGN-OBJECT-CELLS"],
    ["verify", "--campaign", "CAMPAIGN-LIST-NAME"],
    # a directory as the campaign file
    ["verify", "--campaign", "DIR"],
    ["scan", "--campaign", "DIR/"],
    # a builtin without a cell pool takes no workers
    ["verify", "--campaign", "builtin:katona", "--workers", "2"],
    ["scan", "--campaign", "builtin:formulas", "--workers", "2"],
    ["search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1", "--maxima-cap", "0", "--all-maxima"],
    ["search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1", "--node-budget", "0"],
    ["search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1", "--cap", "0"],
    ["enumerate", "--parts", "3,3", "--r", "2", "--cap", "-1"],
    # a report directory that does not exist, found before the run
    ["search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1", "--out", "MISSING/rep"],
    ["verify", "--campaign", "builtin:semi-stars", "--out", "MISSING/rep"],
    ["enumerate", "--parts", "3,3", "--r", "2", "--out", "MISSING/u.jsonl"],
    # an --out that names a directory, not a file: no hidden DIR/.csv, no traceback
    ["search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1", "--out", "DIR/"],
    ["verify", "--campaign", "builtin:semi-stars", "--out", "DIR/"],
    ["scan", "--campaign", "builtin:formulas", "--out", "DIR/."],
    ["enumerate", "--parts", "3,3", "--r", "2", "--out", "DIR"],
    ["enumerate", "--parts", "3,3", "--r", "2", "--out", "DIR/"],
], ids=" ".join)
def test_configuration_errors_exit_2_with_one_error_line(argv, tmp_path):
    for name, doc in CAMPAIGN_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / "dir").mkdir()
    argv = [str(tmp_path / f"{a}.json") if a in CAMPAIGN_FILES
            else a.replace("MISSING", str(tmp_path / "missing")).replace("DIR", str(tmp_path / "dir"))
            for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ekrmatch.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert sum("error:" in line for line in proc.stderr.splitlines()) == 1
    assert os.listdir(tmp_path / "dir") == []


def test_t_at_the_largest_edge_count_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:2")
    assert code == 0 and out.startswith("max=1 formula=1 status=MATCHES_STAR_BOUND")
    code, out, _ = run_cli(capsys, "search", "--parts", "3,3", "--sizes", "0,1", "--pred", "intersecting:1")
    assert code == 0 and out.startswith("max=1 formula=1 ")


def test_lemma1_cells_without_samples_report_no_size_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--campaign", "builtin:lemma1", "--samples", "5")
    assert code == 0
    assert "(3, 3)|r=3|t=2: 1 sampled families, sizes 1..1, 0 violations" in out
    assert "(3, 3, 3)|r=3|t=2: 0 sampled families, 0 violations" in out


def test_timings_flag_adds_columns(capsys, tmp_path):
    base = tmp_path / "rep"
    run_cli(capsys, "verify", "--campaign", "builtin:examples", "--out", str(base), "--timings")
    csv_header = (tmp_path / "rep.csv").read_text().splitlines()[0]
    assert csv_header.endswith("elapsed_s")
    # the next call in the same process parses its own flags: no --timings, no column
    run_cli(capsys, "verify", "--campaign", "builtin:examples", "--out", str(base))
    assert "elapsed_s" not in (tmp_path / "rep.csv").read_text()


def test_builtin_reports_match_the_benchmark_reference(capsys, monkeypatch, tmp_path):
    # the reports embed the relative --out path, so their bytes do not depend on the directory
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
    for name in ("EKRMATCH_UNIVERSE_CAP", "EKRMATCH_NODE_BUDGET", "EKRMATCH_MAXIMA_CAP"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".bench_out" / "sweep").mkdir(parents=True)
    mismatches = []
    for campaign in reference["campaigns"]:
        out = f".bench_out/sweep/{campaign}"
        argv = ["verify", "--campaign", f"builtin:{campaign}", "--out", out]
        if campaign == "lemma1":
            argv += ["--seed", "0"]
        code, _, _ = run_cli(capsys, *argv)
        want = reference["sweep"][campaign]
        got = {"exit": code}
        for ext in ("csv", "json"):
            got[ext] = hashlib.sha256((tmp_path / f"{out}.{ext}").read_bytes()).hexdigest()
        if got != want:
            mismatches.append(campaign)
    assert len(reference["campaigns"]) == 16 and mismatches == []


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    run_cli(capsys, "enumerate", "--parts", "3,3", "--r", "2")
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["enumerate", "--parts", "3,3", "--r", "2"],
                 ["search", "--parts", "3,3", "--r", "2", "--pred", "intersecting:1"],
                 ["verify", "--campaign", "builtin:formulas"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []


def test_a_failed_fork_is_not_a_usage_error(monkeypatch, tmp_path):
    # only the campaign file's own open maps an OSError to exit 2; the run's pool raises through
    def no_fork(processes, *args):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(harness, "fork_pool", no_fork)
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"cells": [CELL, CELL]}))
    with pytest.raises(OSError):
        main(["verify", "--campaign", str(path), "--workers", "2"])
