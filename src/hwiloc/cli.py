"""Command-line interface.

Subcommands:
    bounds       sweep the configured axis and emit bound statistics as CSV
    estimate     Monte-Carlo estimator trials, RMSE per sweep point as CSV
    validate     run the built-in invariant suite, report pass/fail lines
    show-config  print the fully resolved configuration

Flags: --out PATH (stdout when omitted; its directory must exist) on
every subcommand. bounds, estimate and show-config also take --config
PATH (flat key=value file; defaults apply when omitted), --seed U64
(overrides master_seed) and --sweep AXIS (switches the sweep axis to its
default value list); validate takes no other flag.

Exit codes: 0 success, 1 configuration/usage error, 2 numeric failure,
failed validation, or a run that lost a worker process or ran out of memory.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .config_io import SWEEP_AXES, ExperimentSpec, read_config, resolve_spec, spec_to_text
from .estimation import NumericError
from .harness import rows_to_csv, run_bounds_sweep, run_estimator_trials
from .model import ConfigError
from .validation import validate_build


class _Parser(argparse.ArgumentParser):
    """argparse onto the documented exit codes: usage errors are config
    errors (exit 1), not argparse's default 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    output = _Parser(add_help=False)
    output.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    common = _Parser(add_help=False, parents=[output])
    common.add_argument("--config", metavar="PATH", help="experiment config file")
    common.add_argument("--seed", type=int, metavar="U64", help="override master_seed")
    common.add_argument(
        "--sweep",
        metavar="AXIS",
        choices=SWEEP_AXES,
        help=f"override sweep axis ({', '.join(SWEEP_AXES)})",
    )

    parser = _Parser(
        prog="hwiloc",
        description="Uplink localization bounds and estimators under hardware impairments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("bounds", parents=[common], help="bounds sweep to CSV")
    sub.add_parser("estimate", parents=[common], help="Monte-Carlo estimator trials to CSV")
    sub.add_parser("validate", parents=[output], help="run the invariant suite")
    sub.add_parser("show-config", parents=[common], help="print the resolved config")
    return parser


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    overrides = read_config(args.config) if args.config is not None else {}
    if args.sweep is not None:
        overrides["sweep_axis"] = args.sweep
        # the axis's built-in default values replace any configured list
        overrides.pop("sweep_values", None)
    if args.seed is not None:
        overrides["master_seed"] = str(args.seed)
    return resolve_spec(overrides)


def _check_out(out: str | None) -> None:
    """Reject an --out that cannot be written before any work is done."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out}: directory {path.parent} does not exist")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    _check_out(args.out)
    if args.command == "bounds":
        _emit(rows_to_csv(run_bounds_sweep(_load_spec(args))), args.out)
        return 0
    if args.command == "estimate":
        _emit(rows_to_csv(run_estimator_trials(_load_spec(args))), args.out)
        return 0
    if args.command == "show-config":
        _emit(spec_to_text(_load_spec(args)), args.out)
        return 0
    # validate
    results = validate_build()
    lines = [
        f"{'ok  ' if passed else 'FAIL'} {name}: {detail}"
        for name, passed, detail in results
    ]
    n_bad = sum(1 for _, passed, _ in results if not passed)
    lines.append(
        f"{len(results) - n_bad}/{len(results)} checks passed"
        if n_bad == 0
        else f"{n_bad}/{len(results)} checks FAILED"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if n_bad == 0 else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its message already
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return _dispatch(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except (BrokenExecutor, MemoryError) as exc:
        # a sweep worker died or memory ran out: no rows to trust
        name, detail = type(exc).__name__, " ".join(str(exc).split())
        sys.stderr.write(f"run failure: {name}: {detail}\n" if detail else f"run failure: {name}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
