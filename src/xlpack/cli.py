"""Command-line entry point wiring the pipeline stages to a JSON config.

Exit codes: 0 success, 1 config error, 2 input error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import ConfigError, InputError, check_input_paths, validate_config
from .report import RunReport

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2
EXIT_STAGE = 3

SUBCOMMANDS = ("align", "pack", "slide", "retrieve", "stats", "export", "all")

# Which stages read the raw dumps (vs. earlier stages' artifacts).
_NEEDS_DUMPS = {"align", "retrieve", "pack", "all"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlpack",
        description="Build cross-lingual packed pre-training data from wiki dumps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("align", "build and persist the bilingual pair map"),
        ("retrieve", "build pseudo pairs from a web corpus via semantic retrieval"),
        ("pack", "pack aligned pairs into delimiter-terminated contexts"),
        ("slide", "split and batch contexts into window shards and manifests"),
        ("export", "verify window shards against their manifests"),
        ("stats", "write per-language token statistics"),
        ("all", "run every stage in order"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON pipeline config")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; every stage runs in one "
                            "process, so outputs do not depend on it")
        p.add_argument("--seed", type=int, default=None,
                       help="override both pack.seed and split.seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE", help="override one config field (dotted path)")
        p.add_argument("--emit-text", action="store_true",
                       help="also write rendered context text (pack)")
        p.add_argument("--discard-tails", action="store_true",
                       help="lossy window boundaries for comparison runs (slide)")
        p.add_argument("--dump-tsv", action="store_true",
                       help="write parsed dump records as TSV for inspection (align)")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    overrides = list(args.overrides)
    if args.seed is not None:
        overrides += [f"pack.seed={args.seed}", f"split.seed={args.seed}"]
    try:
        cfg = validate_config(args.config, overrides)
    except ConfigError as e:
        for diag in e.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT

    missing = check_input_paths(cfg, needs_dumps=args.subcommand in _NEEDS_DUMPS)
    if missing:
        for diag in missing:
            print(f"input error: {diag}", file=sys.stderr)
        return EXIT_INPUT

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with RunReport(cfg.output_dir / pipeline.REPORT_NAME) as report:
        report.event("run_start", subcommand=args.subcommand, workers=args.workers)
        try:
            if args.subcommand == "align":
                pipeline.stage_align(cfg, report, dump_tsv=args.dump_tsv)
            elif args.subcommand == "retrieve":
                pipeline.stage_retrieve(cfg, report)
            elif args.subcommand == "pack":
                pipeline.stage_pack(cfg, report, emit_text=args.emit_text)
            elif args.subcommand == "slide":
                pipeline.stage_slide(cfg, report, discard_tails=args.discard_tails)
            elif args.subcommand == "export":
                pipeline.stage_export(cfg, report)
            elif args.subcommand == "stats":
                pipeline.stage_stats(cfg, report)
            else:
                pipeline.run_all(
                    cfg,
                    report,
                    emit_text=args.emit_text,
                    discard_tails=args.discard_tails,
                    dump_tsv=args.dump_tsv,
                )
        except FileNotFoundError as e:
            report.event("run_failed", subcommand=args.subcommand, error=str(e))
            print(f"input error: {e}", file=sys.stderr)
            return EXIT_INPUT
        except Exception as e:
            report.event("run_failed", subcommand=args.subcommand, error=str(e))
            print(f"stage failure: {e}", file=sys.stderr)
            return EXIT_STAGE
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
