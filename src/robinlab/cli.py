"""Command line front end for the reproduction drivers.

Subcommands mirror the experiment tables: table1, table2, table3,
spectrum, von-neumann, operator.  Exit codes: 0 on success, 2 on a
configuration or usage error, 3 when a requested run failed to converge
(the table is still written, with the offending cells marked).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments, grid_fem
from .experiments import ExperimentConfig


def _parse_list(kind):
    """argparse type for a comma-separated list of kind values."""
    def parse(text):
        return tuple(kind(t) for t in text.split(",") if t.strip())
    parse.__name__ = f"{kind.__name__} list"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robinlab",
        description="Two-sided Robin domain decomposition laboratory on the unit square",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table1", "discretization errors, observed orders, and sweep counts"),
        ("table2", "measured contraction factors over a damping grid"),
        ("table3", "Dirichlet-Neumann baseline sweep counts"),
        ("spectrum", "per-mode coefficients and damped eigenvalues"),
        ("von-neumann", "half-plane advisor and band check (--n gives band limits K)"),
        ("operator", "trace-map equivalence constants and radius bounds"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", dest="n_list", type=_parse_list(int), metavar="N1,N2,...",
                       help="strip widths n (mesh h = 1/(2n)); default 2,6,10,14,18,22,26")
        p.add_argument("--gamma1", type=float)
        p.add_argument("--gamma2-coeff", dest="gamma2_coefficient", type=float,
                       metavar="GAMMA2_COEFF",
                       help="gamma2 = coeff/h (or the constant itself with --gamma2-rule constant)")
        p.add_argument("--gamma2-rule", choices=("constant", "scale_inv_h"))
        p.add_argument("--theta", dest="theta_list", type=_parse_list(float),
                       metavar="T1,T2,...", help="damping values; default depends on the subcommand")
        p.add_argument("--tol", dest="stop_tol", type=float, metavar="TOL",
                       help="sup-norm stopping tolerance of the sweeps")
        p.add_argument("--max-iter", type=int)
        p.add_argument("--format", choices=("csv", "markdown", "md"),
                       default="csv")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write the table to FILE instead of stdout")
        p.add_argument("--deep", action="store_true",
                       help="append the large meshes n = 36, 144, 576")
        p.add_argument("--dump-matrices", default=None, metavar="DIR",
                       help="also write the assembled matrices in MatrixMarket format")
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = ExperimentConfig(
            table=args.command.replace("-", "_"),
            output_format="markdown" if args.format == "md" else args.format,
            # options left out keep the config's defaults
            **{k: v for k, v in vars(args).items()
               if k in ExperimentConfig.__dataclass_fields__ and v is not None},
        )
        if args.dump_matrices and config.table == "von_neumann":
            raise ValueError("--dump-matrices needs meshes, and von-neumann reads --n as band limits")
    except (ValueError, TypeError) as exc:
        print(f"robinlab: {exc}", file=sys.stderr)
        return 2
    # output paths are checked before the table is computed
    try:
        if args.dump_matrices:
            os.makedirs(args.dump_matrices, exist_ok=True)
            for n in config.grids():
                grid_fem.write_strip_matrices(grid_fem.build_grid(n), args.dump_matrices)
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        print(f"robinlab: {exc}", file=sys.stderr)
        return 2
    try:
        result = experiments.run(config)
        out.write(experiments.render(result, config.output_format))
    finally:
        if out is not sys.stdout:
            out.close()
    if not result.notes.get("all_converged", True):
        print("robinlab: some runs did not converge (marked with *)", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
