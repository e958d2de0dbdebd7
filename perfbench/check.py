"""Correctness check of one rendered robinlab table, cell by cell.

Every cell of the expected table shape is one checked operation.  A cell
fails when it breaks the workload's paper-level invariant (checked on
every seed) or, on seed 0, when it differs from the reference table
captured from the unmodified package:

- numeric cells within RTOL relative (the CSV carries 10 significant
  digits, so any solver change of 1e-12 or less passes);
- sweep counts within one sweep, with identical ``*`` (capped) marks;
- text cells identical.

A call that raised, returned an unexpected exit code or printed a table of
the wrong shape fails all of its cells.
"""

from __future__ import annotations

import math

RTOL = 1e-8
ORDER_TOL = 0.01


def _float(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _count(cell):
    """(sweeps, capped) of a count cell such as "14" or "2000*"."""
    capped = cell.endswith("*")
    digits = cell[:-1] if capped else cell
    return (int(digits), capped) if digits.isdigit() else (None, capped)


def _matches_reference(cell, ref, kind):
    if kind == "count":
        (a, a_cap), (b, b_cap) = _count(cell), _count(ref)
        return a is not None and b is not None and a_cap == b_cap and abs(a - b) <= 1
    if kind == "float" and ref != "":
        a, b = _float(cell), _float(ref)
        return a is not None and b is not None and abs(a - b) <= RTOL * abs(b)
    return cell == ref


def _mesh_refine(rows, n_list, max_iter):
    """table1: converged everywhere, observed L2 and H1 orders near 2."""
    kinds = ["text", "float", "float", "float", "float", "count"]
    ok = []
    for r, (row, n) in enumerate(zip(rows, n_list)):
        sweeps, capped = _count(row[5])
        orders_ok = [row[c] == "" if r == 0 else
                     (_float(row[c]) is not None and abs(_float(row[c]) - 2.0) <= ORDER_TOL)
                     for c in (2, 4)]
        ok.append([row[0] == f"1/{2 * n}",
                   (_float(row[1]) or 0.0) > 0.0, orders_ok[0],
                   (_float(row[3]) or 0.0) > 0.0, orders_ok[1],
                   sweeps is not None and not capped])
    return kinds, ok


def _rate_sweep(rows, n_list, max_iter):
    """table2: every measured rate at or below its column's rate bound."""
    bounds = [_float(c) for c in rows[-1][1:]]
    ok = []
    for row, n in zip(rows[:-1], n_list):
        cells = [row[0] == f"1/{2 * n}"]
        for cell, bound in zip(row[1:], bounds):
            rate = _float(cell)
            cells.append(rate is not None and bound is not None and 0.0 <= rate <= bound)
        ok.append(cells)
    ok.append([rows[-1][0] == "rate bound"] + [b is not None and 0.0 < b <= 1.0 for b in bounds])
    return ["text"] + ["float"] * len(bounds), ok


def _dn_baseline(rows, n_list, max_iter):
    """table3: theta = 0 capped on every mesh, every other column converged
    with the same count on every mesh."""
    ok = [[row[0] == f"1/{2 * n}"] for row, n in zip(rows, n_list)]
    for c in range(1, len(rows[0])):
        column = [_count(row[c]) for row in rows]
        if c == 1:
            good = [cnt == max_iter and capped for cnt, capped in column]
        else:
            first = column[0][0]
            good = [cnt is not None and not capped and cnt == first for cnt, capped in column]
        for cells, g in zip(ok, good):
            cells.append(g)
    return ["text"] + ["count"] * (len(rows[0]) - 1), ok


def _trace_operator(rows, n_list, max_iter):
    """operator: every split's radius within its bound."""
    kinds = ["text", "text"] + ["float"] * 7 + ["text"]
    splits = [(n, label) for n in n_list for label in ("half", "third")]
    ok = []
    for row, (n, label) in zip(rows, splits):
        values = [_float(c) for c in row[2:9]]
        within = (None not in values and values[5] <= values[6] + 1e-9
                  and row[9] == "yes")
        ok.append([row[0] == str(n), row[1] == label]
                  + [v is not None for v in values] + [within])
    return kinds, ok


CHECKS = {
    "table1": _mesh_refine,
    "table2": _rate_sweep,
    "table3": _dn_baseline,
    "operator": _trace_operator,
}


def expected_shape(command, n_list, n_thetas):
    rows = {"table2": len(n_list) + 1, "operator": 2 * len(n_list)}.get(command, len(n_list))
    cols = {"table1": 6, "operator": 10}.get(command, 1 + n_thetas)
    return rows, cols


def check_call(command, n_list, n_thetas, max_iter, call, expected_rc, reference=None):
    """Return (cells checked, cells failed, first failure message or None)."""
    n_rows, n_cols = expected_shape(command, n_list, n_thetas)
    total = n_rows * n_cols
    if call["error"] is not None:
        return total, total, f"raised {call['error']}"
    if call["rc"] != expected_rc:
        return total, total, f"exit code {call['rc']}, expected {expected_rc}"
    lines = call["out"].splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n_rows or any(len(r) != n_cols for r in rows):
        return total, total, f"table shape differs from {n_rows}x{n_cols}"
    kinds, ok = CHECKS[command](rows, n_list, max_iter)
    if reference is not None:
        ref_lines = reference.splitlines()
        if lines[0] != ref_lines[0]:
            return total, total, "header differs from the reference"
        ref_rows = [line.split(",") for line in ref_lines[1:]]
        for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for c, (cell, ref, kind) in enumerate(zip(row, ref_row, kinds)):
                ok[r][c] = ok[r][c] and _matches_reference(cell, ref, kind)
    failed = [(r, c) for r, cells in enumerate(ok) for c, good in enumerate(cells) if not good]
    message = None
    if failed:
        r, c = failed[0]
        message = f"cell row {r + 1} column {c + 1} = {rows[r][c]!r} fails the check"
    return total, len(failed), message
