"""Outside-in tracing of robinlab: wrap public functions, record spans.

Nothing inside the package is edited.  Each traced function is replaced by
a wrapper at every place it is bound: the module or class that defines it
and every loaded ``robinlab`` module that imported it by name.  A target
that a later version of the package no longer has is skipped, so its
metrics read 0.

A span is ``[name, start_ns, end_ns, parent_index, error]``; spans live in
memory for one CLI call and are turned into per-layer metrics after the
call returns.  Work the tracer itself needs (matrix hashes, LU fill) is
done after the call too, so it lands in no span.  Span times come from
the clock the tracer is given; the worker's stops while the host-speed
probe (calibrate.py) runs, so no span includes a probe.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg  # noqa: F401  (eigh and eigvalsh are traced)
import scipy.sparse
import scipy.sparse.linalg

import robinlab.cli  # noqa: F401  (loads every module with traced functions)

# (module, owner within the module or None, attribute, span name)
TARGETS = (
    ("robinlab.cli", None, "cli_main", "cli"),
    ("robinlab.experiments", None, "run", "experiments.run"),
    ("robinlab.experiments", None, "render", "experiments.render"),
    ("robinlab.grid_fem", None, "build_subdomain_system", "grid_fem.build_subdomain_system"),
    ("robinlab.grid_fem", None, "assemble_load", "grid_fem.assemble_load"),
    ("robinlab.grid_fem", None, "assemble_subdomain_stiffness",
     "grid_fem.assemble_subdomain_stiffness"),
    ("robinlab.grid_fem", "SubdomainSystem", "robin_matrix", "grid_fem.robin_matrix"),
    ("robinlab.grid_fem", None, "assemble_p1_forms", "grid_fem.assemble_p1_forms"),
    ("robinlab.sparse_linalg", "SparseMatrix", "from_coo", "sparse_linalg.from_coo"),
    ("robinlab.sparse_linalg", "SparseMatrix", "to_scipy_csc", "sparse_linalg.to_scipy_csc"),
    ("robinlab.sparse_linalg", None, "jacobi_symmetric_eigen", "sparse_linalg.jacobi_eigen"),
    ("robinlab.sparse_linalg", None, "power_spectral_radius", "sparse_linalg.power_radius"),
    ("robinlab.operator_analysis", None, "dtn_schur", "operator_analysis.dtn_schur"),
    ("robinlab.operator_analysis", None, "equivalence_bounds",
     "operator_analysis.equivalence_bounds"),
    ("robinlab.operator_analysis", None, "recommend_params", "operator_analysis.recommend_params"),
    ("robinlab.operator_analysis", None, "build_iteration_operator",
     "operator_analysis.build_iteration_operator"),
    ("robinlab.operator_analysis", None, "symmetrized_T", "operator_analysis.symmetrized_T"),
    ("robinlab.operator_analysis", None, "iteration_spectral_radius",
     "operator_analysis.iteration_spectral_radius"),
    ("robinlab.dd_solvers", None, "robin_robin_solve", "dd_solvers.robin_robin_solve"),
    ("robinlab.dd_solvers", None, "dirichlet_neumann_solve", "dd_solvers.dirichlet_neumann_solve"),
    ("robinlab.dd_solvers", None, "measured_reduction_rate", "dd_solvers.reduction_rate"),
    ("robinlab.dd_solvers", None, "error_norms", "dd_solvers.error_norms"),
    ("robinlab.spectral", None, "reduction_spectrum", "spectral.reduction_spectrum"),
    # LAPACK symmetric eigensolvers, so eigensolves_per_split still counts
    # once the operator analysis moves off the Jacobi kernel.
    ("numpy.linalg", None, "eigh", "lapack.eigh"),
    ("numpy.linalg", None, "eigvalsh", "lapack.eigh"),
    ("scipy.linalg", None, "eigh", "lapack.eigh"),
    ("scipy.linalg", None, "eigvalsh", "lapack.eigh"),
)

SOLVES = ("dd_solvers.robin_robin_solve", "dd_solvers.dirichlet_neumann_solve")
EIGENSOLVES = ("sparse_linalg.jacobi_eigen", "lapack.eigh")


class Tracer:
    """Span recorder that patches robinlab in place for the process's life."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.spans = []
        self._stack = []
        self.reports = []      # DDReports returned by the sweep solvers
        self.factors = []      # (matrix, SuperLU) from every splu call
        self.output_bytes = 0

    def reset(self):
        self.spans, self._stack, self.reports, self.factors = [], [], [], []
        self.output_bytes = 0

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = self.clock_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = self.clock_ns()
                self._stack.pop()
            if on_result is not None:
                result = on_result(result, args, kwargs)
            return result
        return wrapper

    def install(self):
        hooks = {
            "experiments.render": self._count_bytes,
            "dd_solvers.robin_robin_solve": self._keep_report,
            "dd_solvers.dirichlet_neumann_solve": self._keep_report,
        }
        for modname, owner_name, attr, name in TARGETS:
            module = sys.modules.get(modname)
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                continue
            wrapper = self.wrap(name, raw, hooks.get(name))
            self._patch_everywhere(owner, attr, raw, wrapper)
        splu = scipy.sparse.linalg.splu
        self._patch_everywhere(scipy.sparse.linalg, "splu", splu,
                               self.wrap("dd_solvers.splu", splu, self._proxy_factor))

    def _patch_everywhere(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "robinlab" and not modname.startswith("robinlab."):
                continue
            for key, value in list(vars(module).items()):
                if value is original and module is not owner:
                    setattr(module, key, wrapper)

    def _count_bytes(self, text, args, kwargs):
        self.output_bytes += len(text.encode())
        return text

    def _keep_report(self, report, args, kwargs):
        self.reports.append(report)
        return report

    def _proxy_factor(self, lu, args, kwargs):
        self.factors.append((args[0] if args else kwargs["A"], lu))
        return _FactorProxy(lu, self.wrap("dd_solvers.lu_solve", lu.solve))

    def metrics(self, n_splits):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        total = defaultdict(int)
        calls = defaultdict(int)
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start

        def self_ns(names):
            return sum(end - start - child[i] for i, (name, start, end, _, _) in enumerate(spans)
                       if name in names)

        def under(i, prefix):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0].startswith(prefix):
                    return True
                parent = spans[parent][3]
            return False

        eigensolves = sum(1 for i, s in enumerate(spans)
                          if s[0] in EIGENSOLVES and under(i, "operator_analysis."))
        fallbacks = sum(1 for i, s in enumerate(spans)
                        if s[0] == "sparse_linalg.power_radius" and s[4] == "ConvergenceError"
                        and under(i, "operator_analysis.iteration_spectral_radius"))
        hashes = {_matrix_hash(A) for A, _ in self.factors}
        fill = sum(lu.L.nnz + lu.U.nnz for _, lu in self.factors)
        n_factors = len(self.factors)

        out = {}
        for name in {target[3] for target in TARGETS} | {"dd_solvers.splu", "dd_solvers.lu_solve"}:
            out[name + "_s"] = total[name] / 1e9
            out[name + "_calls"] = calls[name]
        out.update({
            "operator_analysis.power_fallbacks": fallbacks,
            "operator_analysis.eigensolves_per_split": eigensolves / n_splits if n_splits else 0.0,
            "dd_solvers.sweeps": sum(r.iterations for r in self.reports),
            "dd_solvers.capped_runs": sum(1 for r in self.reports if not r.converged),
            "dd_solvers.splu_distinct": len(hashes),
            "dd_solvers.factor_reuse_ratio": len(hashes) / n_factors if n_factors else 1.0,
            "dd_solvers.lu_fill_nnz": fill,
            "dd_solvers.sweep_self_s": self_ns(SOLVES) / 1e9,
            "experiments.run_self_s": self_ns(("experiments.run",)) / 1e9,
            "experiments.output_bytes": self.output_bytes,
            "cli.self_s": self_ns(("cli",)) / 1e9,
        })
        return out


class _FactorProxy:
    """Stands in for a SuperLU object so that its solves are timed."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _matrix_hash(A):
    A = scipy.sparse.csc_matrix(A)
    A.sum_duplicates()
    digest = hashlib.blake2b(repr(A.shape).encode(), digest_size=16)
    for part in (A.indptr, A.indices, A.data):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()
