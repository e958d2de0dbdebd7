"""The package's modules form one import chain, read from their source:
spectral <- grid_fem <- dd_solvers <- experiments <- cli.  The names the
package exports are pinned, so any change to them is a visible edit."""
import ast
from pathlib import Path

import robinlab

CHAIN = ("spectral", "grid_fem", "dd_solvers", "experiments", "cli")
SRC = Path(robinlab.__file__).resolve().parent


def _robinlab_imports(name):
    """The robinlab modules that module name imports anywhere in its source,
    at the top or inside a function."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .spectral import x" or "from . import spectral"
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[0] == "robinlab":
                found.update(parts[1:2] or (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("robinlab."))
    return found


def test_every_module_is_in_the_chain():
    assert {p.stem for p in SRC.glob("*.py")} == {*CHAIN, "__init__", "__main__"}


def test_spectral_is_the_leaf():
    assert _robinlab_imports("spectral") == set()


def test_each_module_imports_only_earlier_ones():
    for i, name in enumerate(CHAIN):
        assert _robinlab_imports(name) <= set(CHAIN[:i]), name
    assert _robinlab_imports("__main__") == {"cli"}
    assert _robinlab_imports("__init__") <= set(CHAIN)


def test_package_exports_are_pinned():
    assert sorted(robinlab.__all__) == [
        "DDParams", "DDReport", "ExperimentConfig", "GridSpec", "SubdomainSystem",
        "TableResult", "Tridiagonal", "assemble_global_solution", "assemble_load",
        "build_grid", "build_subdomain_system", "corollary_rate", "dd_solvers",
        "dirichlet_neumann_solve", "error_norms", "experiments", "fd_eigenvalue",
        "grid_fem", "manufactured_solution", "measured_reduction_rate", "omega",
        "omega_max", "reduction_spectrum", "robin_robin_solve", "run", "spectral",
        "split_modes", "strip_symbol", "theta_star", "von_neumann_advisor",
        "von_neumann_rho"]
