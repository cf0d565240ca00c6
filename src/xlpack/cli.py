"""Command-line entry point wiring the pipeline stages to a JSON config.

One subcommand per entry of pipeline.STAGES, with its debug flag if it has
one, plus `all`, which takes every flag. The scripts share config_options,
load_config and refuse.

Exit codes: 0 success, 1 config error, 2 input error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import ConfigError, InputError, PipelineConfig, validate_config
from .report import RunReport

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2
EXIT_STAGE = 3


def config_options() -> argparse.ArgumentParser:
    """A parent parser with --config, --seed and --set, read by load_config."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", required=True, help="path to the JSON pipeline config")
    p.add_argument("--seed", type=int, default=None,
                   help="override both pack.seed and split.seed")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="PATH=VALUE", help="override one config field (dotted path)")
    return p


def load_config(args: argparse.Namespace) -> PipelineConfig:
    """The validated config `args` names, with --seed and --set applied."""
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides += [f"pack.seed={args.seed}", f"split.seed={args.seed}"]
    return validate_config(args.config, overrides)


def refuse(e: Exception) -> int:
    """Print why a run is refused, one line per diagnostic; return its exit
    code: 1 for a ConfigError, 2 for any other (input) error."""
    if isinstance(e, ConfigError):
        for diag in e.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return EXIT_CONFIG
    for line in str(e).splitlines():
        print(f"input error: {line}", file=sys.stderr)
    return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlpack",
        description="Build cross-lingual packed pre-training data from wiki dumps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = config_options()
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; every stage runs in one "
                             "process, so outputs do not depend on it")
    commands = [(stage.name, stage.help, (stage,)) for stage in pipeline.STAGES]
    commands.append((pipeline.ALL, "run every stage in order", pipeline.STAGES))
    for name, help_text, stages in commands:
        p = sub.add_parser(name, help=help_text, parents=[common])
        for stage in stages:
            if stage.flag:
                p.add_argument("--" + stage.flag.replace("_", "-"), action="store_true",
                               help=f"{stage.flag_help} ({stage.name})")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        stages = pipeline.stages_for(cfg, args.subcommand)
    except (ConfigError, InputError) as e:
        return refuse(e)
    flags = {stage.flag: getattr(args, stage.flag) for stage in stages if stage.flag}
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with RunReport(cfg.output_dir / pipeline.REPORT_NAME) as report:
        report.event("run_start", subcommand=args.subcommand, workers=args.workers)
        try:
            if args.subcommand == pipeline.ALL:
                pipeline.run_all(cfg, report, **flags)
            else:
                pipeline.call_stage(cfg, report, *stages, **flags)
        except Exception as e:
            report.event("run_failed", subcommand=args.subcommand, error=str(e))
            if isinstance(e, FileNotFoundError):
                return refuse(e)
            print(f"stage failure: {e}", file=sys.stderr)
            return EXIT_STAGE
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
