"""Command-line entry point for the experiment harness.

Exit codes: 0 on success, 1 for configuration errors (bad flags, bad config
file, unknown keys), 2 for runtime or I/O failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .harness import KINDS, ConfigError, ExperimentSpec, execute, parse_config


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message: str):  # noqa: D401
        raise ConfigError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """CLI-only flags, then flags whose dest is an ExperimentSpec field.

    Field flags take their value as a string and parse_config parses it
    exactly like the same key in a config file.
    """
    p.add_argument("--config", metavar="FILE", help="flat JSON config file")
    p.add_argument("--out-dir", default="out", metavar="DIR", help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress the aggregate summary")
    p.add_argument("--log-y", action="store_true", help="log-scale MSE axis in the plot")
    p.add_argument("--timing", action="store_true",
                   help="add the wall-clock column to results.csv (breaks reproducibility)")
    p.add_argument("--seed", dest="master_seed", help="master seed")
    p.add_argument("--drops", dest="n_drops", help="Monte-Carlo drops per cell")
    p.add_argument("--kappa", dest="kappa_db_per_m",
                   help="waveguide attenuation values in dB/m, e.g. '0,0.08'")
    p.add_argument("--design-kappa", dest="design_kappa",
                   help="optimize under this attenuation, evaluate under --kappa")
    p.add_argument("--restarts", dest="restarts", help="extra random-init AO restarts per run")
    p.add_argument("--sweep", dest="sweep", help="sweep values, e.g. '1,2,5,10'")
    p.add_argument("--q", dest="q_grid", help="grid points per segment")
    p.add_argument("--schemes", dest="schemes", help="schemes to run, e.g. 'SS,SA1,SA2,PASS'")
    p.add_argument("--k", dest="k_users", help="number of users")
    p.add_argument("--m", dest="m_segments", help="number of segments")
    p.add_argument("--seg-length", dest="seg_length", help="segment length in meters")
    p.add_argument("--d-x", dest="d_x", help="region length in meters")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swan-aircomp",
        description="Monte-Carlo MSE experiments for segmented-waveguide "
        "pinching-antenna over-the-air computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, info in KINDS.items():
        p = sub.add_parser(info.command, help=f"run a {kind} experiment")
        p.set_defaults(kind=kind)
        _add_common_flags(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        given = vars(args)
        fields = {
            f.name: given[f.name] for f in dataclasses.fields(ExperimentSpec)
            if given.get(f.name) is not None
        }
        spec = parse_config(path=args.config, kind=fields.pop("kind"), overrides=fields)
        execute(
            spec,
            args.out_dir,
            quiet=args.quiet,
            log_y=args.log_y,
            include_elapsed=args.timing,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except (MemoryError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
