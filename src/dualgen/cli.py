"""Command line entry point.

    dualgen <mode> <scenario.json> [--seed N] [--out DIR] [--tol X] [--paths N]

Modes: dual, verify-matrix, mc, self-dual-check.  Flags override the
corresponding scenario fields; --tol overrides the mode's governing
tolerance (z_max for mc, residual_max for verify-matrix).  The file is
read and validated once, with the mode and the flags written in.  Exit
code 0 means every declared tolerance was met, 1 means a check failed,
2 means the scenario could not be run.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DualgenError
from .scenario import MODES, load_scenario, read_scenario, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgen",
        description="Construct and verify dual Markov processes.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a scenario in {mode} mode")
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override path_config.seed")
        p.add_argument("--out", default=None,
                       help="override the report output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override the governing tolerance")
        p.add_argument("--paths", type=int, default=None,
                       help="override path_config.n_paths")
    return parser


def _apply_overrides(data, args):
    """The document with the mode and each given flag written in, through
    JSON objects only: where the document has none on the way, it is left
    as it is for `load_scenario` to refuse."""
    tol = "residual_max" if args.mode == "verify-matrix" else "z_max"
    for (*parents, key), value in ((("mode",), args.mode),
                                   (("path_config", "seed"), args.seed),
                                   (("path_config", "n_paths"), args.paths),
                                   (("tolerances", tol), args.tol),
                                   (("output_dir",), args.out)):
        if value is None:
            continue
        node = data
        for parent in parents:
            node = node.setdefault(parent, {}) \
                if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[key] = value
    return data


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(
            _apply_overrides(read_scenario(args.scenario), args))
        report = run_scenario(scenario)
    except (DualgenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "pass" if report["pass"] else "FAIL"
    print(f"{report['scenario']} [{report['mode']}]: {status}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
