"""Command line front end for the reproduction drivers.

Subcommands mirror the experiment tables: table1, table2, table3,
spectrum, von-neumann, operator.  Each takes only the options its table
reads; any other option is a usage error.  Exit codes: 0 on success, 2 on
a configuration or usage error or a failed write, 3 when a requested run
failed to converge (the table is still written, with the offending cells
marked).
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
    # one parent parser per option group; each subcommand takes only the
    # groups its table reads, so any other option is a usage error
    common, dump, gamma1, gamma2, theta, stop = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    common.add_argument("--n", dest="n_list", type=_parse_list(int), metavar="N1,N2,...",
                        help="strip widths n (mesh h = 1/(2n)); default "
                        + ",".join(map(str, experiments.DEFAULT_N_LIST)))
    common.add_argument("--format", choices=("csv", "markdown", "md"), default="csv")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write the table to FILE instead of stdout")
    common.add_argument("--deep", action="store_true",
                        help="append the large meshes n = "
                        + ", ".join(map(str, experiments.DEEP_N_LIST)))
    dump.add_argument("--dump-matrices", default=None, metavar="DIR",
                      help="also write the assembled matrices in MatrixMarket format")
    gamma1.add_argument("--gamma1", type=float)
    gamma2.add_argument("--gamma2-coeff", dest="gamma2_coefficient", type=float,
                        metavar="GAMMA2_COEFF",
                        help="gamma2 = coeff/h (or the constant itself with --gamma2-rule constant)")
    gamma2.add_argument("--gamma2-rule", choices=("constant", "scale_inv_h"))
    theta.add_argument("--theta", dest="theta_list", type=_parse_list(float),
                       metavar="T1,T2,...", help="damping values; default depends on the subcommand")
    stop.add_argument("--tol", dest="stop_tol", type=float, metavar="TOL",
                      help="sup-norm stopping tolerance of the sweeps")
    stop.add_argument("--max-iter", type=int)
    every = (common, dump, gamma1, gamma2, theta, stop)

    parser = argparse.ArgumentParser(
        prog="robinlab",
        description="Two-sided Robin domain decomposition laboratory on the unit square",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, groups, help_text in (
        ("table1", every, "discretization errors, observed orders, and sweep counts"),
        ("table2", every, "measured contraction factors over a damping grid"),
        ("table3", (common, dump, theta, stop), "Dirichlet-Neumann baseline sweep counts"),
        ("spectrum", (common, dump, gamma1, gamma2, theta),
         "per-mode coefficients and damped eigenvalues"),
        ("von-neumann", (common, gamma1),
         "half-plane advisor and band check (--n gives band limits K)"),
        ("operator", (common, dump), "trace-map equivalence constants and radius bounds"),
    ):
        sub.add_parser(name, parents=groups, help=help_text)
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
            # options left out keep the config's defaults
            **{k: v for k, v in vars(args).items()
               if k in ExperimentConfig.__dataclass_fields__ and v is not None},
        )
    except (ValueError, TypeError) as exc:
        print(f"robinlab: {exc}", file=sys.stderr)
        return 2
    dump_dir = getattr(args, "dump_matrices", None)
    # output paths are checked before the table is computed
    try:
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
            for n in config.n_list:
                grid_fem.write_strip_matrices(grid_fem.build_grid(n), dump_dir)
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        print(f"robinlab: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            result = experiments.run(config)
            out.write(experiments.render(result, args.format))
            # a full device fails here, not at exit
            out.flush()
        finally:
            if out is not sys.stdout:
                out.close()
    except OSError as exc:
        print(f"robinlab: {exc}", file=sys.stderr)
        return 2
    if not result.all_converged:
        print("robinlab: some runs did not converge (marked with *)", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
