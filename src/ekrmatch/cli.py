"""Command-line interface.

Exit codes: 0 success, 1 assertion failure, 2 usage or configuration error,
3 node-budget abort (of the maximum or of the all-maxima search).  Every
emitted report embeds the engine version and the full run configuration;
identical configurations (and seeds) produce byte-identical files.  Wall-clock
columns are withheld unless --timings is given, precisely so that reruns stay
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .harness import (
    BUILTIN_CAMPAIGNS,
    CampaignReport,
    force_record,
    load_campaign_file,
    run_bound_campaign,
    run_builtin,
)
from .matchings import DEFAULT_UNIVERSE_CAP, enumerate_union_universe
from .predicates import Predicate, check_strength
from .search import (
    DEFAULT_MAXIMA_CAP,
    DEFAULT_NODE_BUDGET,
    GraphTooLargeError,
    NodeBudgetExceeded,
    extremal,
)
from .storage import report_row, save_universe, write_report_csv, write_report_json

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parts(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"parts must be a comma list of integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class UsageError(Exception):
    pass


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return _positive_int(value)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{name}: {exc}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later `main` call."""
    parser = argparse.ArgumentParser(
        prog="ekrmatch",
        description="Exact intersection-extremal verification on matchings of "
                    "complete k-partite k-graphs",
    )
    parser.add_argument("--version", action="version", version=f"ekrmatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate a matching universe")
    p_enum.add_argument("--parts", type=_parts, required=True, help="part sizes, e.g. 3,3")
    p_enum.add_argument("--r", type=int, help="edge count")
    p_enum.add_argument("--sizes", type=_parts, help="several edge counts, e.g. 1,2")
    p_enum.add_argument("--cap", type=_positive_int, default=None, help="universe size cap")
    p_enum.add_argument("--out", help="write the universe to this path (JSON lines)")

    p_search = sub.add_parser("search", help="exact maximum family for a predicate")
    p_search.add_argument("--parts", type=_parts, required=True)
    p_search.add_argument("--r", type=int)
    p_search.add_argument("--sizes", type=_parts)
    p_search.add_argument("--pred", required=True, help="predicate spec, e.g. set-intersecting:2")
    p_search.add_argument("--all-maxima", action="store_true", help="enumerate every maximum family")
    p_search.add_argument("--maxima-cap", type=_positive_int, default=None)
    p_search.add_argument("--node-budget", type=_positive_int, default=None)
    p_search.add_argument("--cap", type=_positive_int, default=None, help="universe size cap")
    p_search.add_argument("--workers", type=_positive_int, default=1)
    p_search.add_argument("--seed-star", action="store_true",
                          help="seed the lower bound with a star construction")
    p_search.add_argument("--out", help="write <out>.csv and <out>.json reports")
    p_search.add_argument("--timings", action="store_true", help="include wall-clock columns")

    for verb, text in [("verify", "run a campaign and assert its expectations"),
                       ("scan", "run a campaign in record-only mode")]:
        p = sub.add_parser(verb, help=text)
        p.add_argument("--campaign", required=True,
                       help="builtin:<name> or a campaign JSON file; "
                            f"builtins: {', '.join(sorted(BUILTIN_CAMPAIGNS))}")
        p.add_argument("--samples", type=_positive_int, default=1000, help="sample count (lemma1)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=_positive_int, default=1)
        p.add_argument("--out", help="write <out>.csv and <out>.json reports")
        p.add_argument("--timings", action="store_true")
    return parser


def _resolve_sizes(args) -> tuple:
    if args.sizes is not None and args.r is not None:
        raise UsageError("give either --r or --sizes, not both")
    if args.sizes is not None:
        return tuple(args.sizes)
    if args.r is not None:
        if args.r < 1:
            raise UsageError("--r must be at least 1")
        return (args.r,)
    raise UsageError("one of --r or --sizes is required")


def cmd_enumerate(args) -> int:
    sizes = _resolve_sizes(args)
    cap = args.cap if args.cap is not None else _env_int("EKRMATCH_UNIVERSE_CAP", DEFAULT_UNIVERSE_CAP)
    try:
        universe = enumerate_union_universe(args.parts, sizes, cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        save_universe(universe, args.out)
    print(len(universe))
    return EXIT_OK


def cmd_search(args) -> int:
    sizes = _resolve_sizes(args)
    try:
        pred = Predicate.parse(args.pred)
        check_strength(pred, sizes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cap = args.cap if args.cap is not None else _env_int("EKRMATCH_UNIVERSE_CAP", DEFAULT_UNIVERSE_CAP)
    budget = (args.node_budget if args.node_budget is not None
              else _env_int("EKRMATCH_NODE_BUDGET", DEFAULT_NODE_BUDGET))
    maxima_cap = (args.maxima_cap if args.maxima_cap is not None
                  else _env_int("EKRMATCH_MAXIMA_CAP", DEFAULT_MAXIMA_CAP))
    try:
        universe = enumerate_union_universe(args.parts, sizes, cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rep = extremal(
            args.parts, sizes, pred, node_budget=budget,
            all_maxima=args.all_maxima, maxima_cap=maxima_cap,
            workers=args.workers, seed_star=args.seed_star, universe=universe,
        )
    except NodeBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GraphTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    line = (f"max={rep.max_size} formula={rep.formula_value} status={rep.status} "
            f"universe={rep.universe_size}")
    if rep.maxima_count is not None:
        line += f" maxima={rep.maxima_count}"
    if rep.maxima_kinds is not None:  # none on an overflow
        line += f" ({', '.join(f'{v} {k}' for k, v in sorted(rep.maxima_kinds.items()))})"
    print(line)
    if args.out:
        config = _run_config(args, pred=str(pred), sizes=sizes)
        doc = {"engine_version": __version__, "config": config,
               "report": rep.to_dict(include_timings=args.timings)}
        row = report_row("search", "search", "record", rep=rep, elapsed_s=round(rep.elapsed, 3))
        write_report_csv([row], args.out + ".csv", include_timings=args.timings)
        write_report_json(doc, args.out + ".json")
    return EXIT_OK


def _run_config(args, **extra) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}
    for key, value in config.items():
        if isinstance(value, tuple):
            config[key] = list(value)
    config.update(extra)
    config["command"] = args.command
    return config


def _run_campaign(args, record_only: bool) -> tuple[int, CampaignReport | None]:
    spec = args.campaign
    caps = {
        "universe_cap": _env_int("EKRMATCH_UNIVERSE_CAP", DEFAULT_UNIVERSE_CAP),
        "node_budget": _env_int("EKRMATCH_NODE_BUDGET", DEFAULT_NODE_BUDGET),
        "maxima_cap": _env_int("EKRMATCH_MAXIMA_CAP", DEFAULT_MAXIMA_CAP),
    }
    kwargs = {"samples": args.samples, "seed": args.seed, "workers": args.workers, "caps": caps}
    try:
        if spec.startswith("builtin:"):
            report = run_builtin(spec.removeprefix("builtin:"), **kwargs)
        else:
            try:
                name, cells = load_campaign_file(spec)
            except OSError as exc:  # the file only: an OSError of the run, such as a failed fork, is no usage error
                raise ValueError(exc) from None
            report = run_bound_campaign(name, cells, caps, workers=args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None
    except NodeBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET, None
    if record_only:
        report = force_record(report)
    return EXIT_OK, report


def cmd_verify(args, record_only: bool = False) -> int:
    code, report = _run_campaign(args, record_only)
    if report is None:
        return code
    config = _run_config(args)
    doc = report.to_doc(include_timings=args.timings)
    doc["config"] = {**doc["config"], "run": config}
    for row in report.rows:
        print(f"[{row['outcome']:>9}] {row['campaign']}/{row['case']}: {row['detail']}")
    print(report.summary())
    if args.out:
        write_report_csv(report.rows, args.out + ".csv", include_timings=args.timings)
        write_report_json(doc, args.out + ".json")
    if not report.ok and not record_only:
        return EXIT_ASSERTION
    if report.attention:
        print(f"attention: {report.attention} row(s) recorded an anomaly")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command and return its exit code; may be called repeatedly in one process."""
    args = _build_parser().parse_args(argv)
    try:
        # a report path is checked before the run, not after it
        if args.out:
            directory, name = os.path.split(args.out)
            if not os.path.isdir(directory or "."):
                raise UsageError(f"--out: no directory {directory!r}")
            # enumerate writes the path itself, search, verify and scan <out>.csv and <out>.json
            if name in ("", ".", "..") or (args.command == "enumerate" and os.path.isdir(args.out)):
                raise UsageError(f"--out: {args.out!r} names a directory, not a file")
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "search":
            return cmd_search(args)
        if args.command == "verify":
            return cmd_verify(args, record_only=False)
        if args.command == "scan":
            return cmd_verify(args, record_only=True)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
