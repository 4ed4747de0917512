"""qbsim command-line entry point.

Subcommands: ``run`` (execute a preset or config file), ``validate``
(check a config file), ``list-presets``.  Exit codes: 0 success,
1 configuration problem, 2 numerical failure.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .errors import ConfigError, QbsimError
from .experiments import (
    PRESET_NOTES,
    PRESETS,
    parse_config_text,
    parse_overrides,
    run_plan,
    validate_config,
)
from .output import _write_new


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qbsim",
                     description="battery-charger simulation experiments")
    parser.add_argument("--version", action="version",
                        version=f"qbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    run = sub.add_parser("run", help="run a preset or a config file")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS),
                     help="named experiment bundle")
    src.add_argument("--config", help="key=value config file")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="key=value",
                     help="override a config field (repeatable; applies to "
                          "every member of a preset bundle)")
    run.add_argument("--out", required=True, help="output directory")

    val = sub.add_parser("validate", help="check a config file")
    val.add_argument("config_file")

    sub.add_parser("list-presets", help="show available presets")
    return parser


def _load_configs(args):
    """The plans of the configs, every one validated and the output stems
    checked before anything is written."""
    if args.preset:
        configs = list(PRESETS[args.preset])
    else:  # main reports an unreadable file as a config error
        with open(args.config) as fh:
            configs = [parse_config_text(fh.read())]
    overrides = parse_overrides(args.overrides)
    if overrides:
        configs = [dataclasses.replace(cfg, **overrides) for cfg in configs]
    plans = [validate_config(cfg) for cfg in configs]
    stems = [cfg.label or cfg.kind for cfg in configs]
    for stem in stems:
        if stems.count(stem) > 1:
            raise ConfigError(f"config key label: {stems.count(stem)} runs "
                              f"share the output stem {stem!r}; give each "
                              "a distinct label")
    return plans


def _cmd_run(args) -> int:
    plans = _load_configs(args)
    os.makedirs(args.out, exist_ok=True)
    all_files, results = [], []
    for plan in plans:
        files, summary = run_plan(plan, args.out)
        all_files.extend(files)
        results.append(summary)
        for path in files:
            print(path)
    text = json.dumps({
        "preset": args.preset,
        "version": __version__,
        "configs": [dataclasses.asdict(plan.cfg) for plan in plans],
        "results": results,
        "files": [os.path.basename(p) for p in all_files],
    }, indent=2, sort_keys=True, allow_nan=False)
    summary_file = os.path.join(args.out, "summary.json")
    _write_new(summary_file, text + "\n")
    print(summary_file)
    return 0


def _cmd_validate(args) -> int:
    with open(args.config_file) as fh:
        cfg = parse_config_text(fh.read())
    validate_config(cfg)
    print(f"OK: {cfg.kind} experiment ({args.config_file})")
    return 0


def _cmd_list_presets(args) -> int:
    for name in sorted(PRESETS):
        members = PRESETS[name]
        kinds = ",".join(dict.fromkeys(c.kind for c in members))
        print(f"{name:8s} {kinds:22s} {PRESET_NOTES[name]}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits for usage errors/--version; report instead of dying
        # so embedders always get a return code
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list_presets(args)
    except (ConfigError, OSError) as exc:
        print(f"qbsim: config error: {exc}", file=sys.stderr)
        return 1
    except (QbsimError, ValueError, ArithmeticError) as exc:
        print(f"qbsim: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
