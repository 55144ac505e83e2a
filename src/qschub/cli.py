"""Command-line interface.

Subcommands: schubert | char | matrix | verify | scan-b.  Output is
deterministic byte-for-byte for fixed flags.  Exit codes: 0 all checks
pass, 1 a verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .perm import partition_str, partitions_of, perm_str
from .polyring import QPoly
from .rep import ACTIONS, bc_scan, generator_matrix
from .schubert import build_schubert_table, schubert_table_rows
from .verify import CHARACTER_COLUMNS, SUITES, character_table, run_suites

MAX_N_TABLES = 8
# The full char table takes about 6.3 to 6.8 s serial at n=7 (63 MB peak),
# the rho1 and rho2 columns about 3.9 to 4.8 and 2.9 to 4 s of it, rho1
# computing only the cells with 2k <= top; at n=8 the rho2 cells alone ran
# 134 s at a 1.31 GB peak.
MAX_N_CHAR = 7
MAX_N_VERIFY = 7
MAX_N_SCAN_B = 7

COST_NOTE = """\
cost guide (single runs on a shared 2-core Xeon VM): the full `char` table
takes about 0.15 s at n=5, 0.5 to 0.7 s at n=6 (no faster with --jobs 2)
and about 6.3 to 6.8 s at n=7 (63 MB peak; rho1 3.9 to 4.8 s, rho2 2.9 to
4 s, weights 0.3 s; about 3.8 to 4.6 s with --jobs 2, which hands each worker
dual pairs of degrees {k, top - k}, no process above 55 MB); rho1 computes
the cells with 2k <= top and twists them into the rest.  `char` is capped at
n=7, since at n=8 its rho2 cells alone ran 134 s at a 1.31 GB peak.  One `matrix` takes under a second up to n=6 and about 1 s at n=7;
n=8 only for `schubert`/`matrix`: the n=8 Schubert table (8! entries) takes
about 3 s and 178 MB, a small `matrix` at n=8 about 3 s and `schubert --n 8`
about 6 s (182 MB peak, the table's: its 94.5 MB of output is printed one
row at a time).
verify/scan-b accept n <= 7: `scan-b` takes about 0.4 s at n=6 and 5 s at
n=7 (about 3 s with --jobs 2, which hands each worker whole degrees), and the full
verify suite about 0.3 s at n=4, 0.5 s at n=5, 2 s at n=6 and 16 to 18 s at
n=7 (93 MB peak; the characters suite 9.5 to 10.5 s of it at 68 MB,
descent-columns 7.5 to 10 s)."""


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _q_value(text: str) -> Fraction | None:
    """--q: None means symbolic."""
    if text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"--q must be 'symbolic' or a rational like 1 or -2/3, got {text!r}")


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return value


def _require_n(n: int, low: int, high: int, what: str):
    if n < low:
        raise SystemExit2(f"{what} needs n >= {low}")
    if n > high:
        # n! stays unevaluated: at a large n it is slow to compute and past
        # the int-to-str digit limit.
        raise SystemExit2(f"{what} is capped at n <= {high}; n={n} would mean {n}! basis permutations")


def _render_value(v: QPoly, q: Fraction | None) -> str:
    if q is None:
        return str(v)
    return str(v.evaluate(q))


# --- subcommands -------------------------------------------------------------


def cmd_schubert(args) -> int:
    _require_n(args.n, 1, MAX_N_TABLES, "schubert")
    rows = schubert_table_rows(args.n)
    if args.output == "json":
        # The bytes of json.dumps of the whole dict, written row by row.
        sep = "{"
        for k, poly in rows:
            sys.stdout.write(sep + json.dumps(k) + ": " + json.dumps(poly))
            sep = ", "
        sys.stdout.write("}\n")
    elif args.output == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["w", "schubert"])
        out.writerows(rows)
    else:
        for k, poly in rows:  # every key of S_n has the same length
            print(f"{k}  {poly}")
    return 0


def cmd_char(args) -> int:
    _require_n(args.n, 2, MAX_N_CHAR, "char")
    n, action = args.n, args.action
    mus = partitions_of(n)
    mu_names = [partition_str(mu) for mu in mus]
    columns = CHARACTER_COLUMNS if action == "all" else (action,)
    table = character_table(n, columns, args.jobs)
    degrees = range(n * (n - 1) // 2 + 1)

    if action == "all":
        rows = []
        for k in degrees:
            cells = {}
            for mu, name in zip(mus, mu_names):
                values = table[(k, mu)]
                cells[name] = {c: _render_value(v, args.q) for c, v in zip(columns, values)}
                cells[name]["agree"] = len(set(values)) == 1
            rows.append({"k": k, "cells": cells})
        all_agree = all(cell["agree"] for row in rows for cell in row["cells"].values())
        if args.output == "json":
            print(json.dumps({"n": n, "action": action, "mus": mu_names, "rows": rows,
                              "all_agree": all_agree}))
        else:
            cells_text = [
                [
                    f"{row['cells'][name]['rho1']} "
                    f"[{'AGREE' if row['cells'][name]['agree'] else 'MISMATCH'}]"
                    for name in mu_names
                ]
                for row in rows
            ]
            _print_table(args.output, mu_names, cells_text)
        return 0 if all_agree else 1

    values = [[_render_value(table[(k, mu)][0], args.q) for mu in mus] for k in degrees]
    if args.output == "json":
        print(json.dumps({
            "n": n,
            "action": action,
            "mus": mu_names,
            "rows": [{"k": k, "values": row} for k, row in enumerate(values)],
        }))
    else:
        _print_table(args.output, mu_names, values)
    return 0


def _print_table(output: str, mu_names: list[str], rows: list[list[str]]):
    if output == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["k"] + mu_names)
        for k, row in enumerate(rows):
            out.writerow([k] + row)
    else:
        widths = [
            max(len(name), max((len(row[j]) for row in rows), default=0))
            for j, name in enumerate(mu_names)
        ]
        print("k  " + "  ".join(f"{name:<{w}}" for name, w in zip(mu_names, widths)))
        for k, row in enumerate(rows):
            print(f"{k}  " + "  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths)))


def cmd_matrix(args) -> int:
    _require_n(args.n, 2, MAX_N_TABLES, "matrix")
    action, i, k = args.action, args.i, args.k
    top = args.n * (args.n - 1) // 2
    if not 1 <= i < args.n:
        raise SystemExit2(f"generator index must satisfy 1 <= i < n, got {i}")
    if not 0 <= k <= top:
        raise SystemExit2(f"degree must satisfy 0 <= k <= {top}, got {k}")
    matrix = generator_matrix(action, i, k, build_schubert_table(args.n))
    basis = [perm_str(w) for w in matrix.basis]
    entries = [[_render_value(c, args.q) for c in row] for row in matrix.entries]
    if args.output == "json":
        print(json.dumps({"n": args.n, "action": action, "i": i, "k": k,
                          "basis": basis, "entries": entries}))
    elif args.output == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["z\\w"] + basis)
        for name, row in zip(basis, entries):
            out.writerow([name] + row)
    else:
        width = max(len(c) for row in entries for c in row) if entries else 1
        print(f"action={action} i={i} k={k} basis={' '.join(basis)}")
        for row in entries:
            print("  ".join(f"{c:>{width}}" for c in row))
    return 0


def cmd_verify(args) -> int:
    _require_n(args.n, 2, MAX_N_VERIFY, "verify")
    results = run_suites(args.suite or ["all"], args.n)
    all_passed = all(r.passed for r in results)
    if args.output == "json":
        print(json.dumps({
            "n": args.n,
            "suites": [
                {"name": r.name, "passed": r.passed, "detail": r.lines,
                 "failures": r.failures}
                for r in results
            ],
            "passed": all_passed,
        }))
    else:
        for r in results:
            print(r.render())
        print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def cmd_scan_b(args) -> int:
    _require_n(args.n, 2, MAX_N_SCAN_B, "scan-b")
    scan = bc_scan(args.n, args.jobs)
    hist = scan.b_histogram()
    outliers = scan.b_outliers()
    if args.output == "json":
        print(json.dumps({
            "n": args.n,
            "entries": [
                {"i": i, "w": perm_str(w), "z": perm_str(z), "b": b, "c": c}
                for i, w, z, b, c in scan.entries
            ],
            "b_values": {str(k): v for k, v in hist.items()},
            "conjecture_violations": [
                {"i": i, "w": perm_str(w), "z": perm_str(z), "b": b, "c": c}
                for i, w, z, b, c in outliers
            ],
            "structural_violations": scan.structural_violations,
        }))
    elif args.output == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["i", "w", "z", "b", "c"])
        for i, w, z, b, c in scan.entries:
            out.writerow([i, perm_str(w), perm_str(z), b, c])
        print(f"# b-values observed: {hist}; conjecture violations: {len(outliers)}")
    else:
        for i, w, z, b, c in scan.entries:
            print(f"i={i} w={perm_str(w)} z={perm_str(z)} b={b:+d} c={c:+d}")
        print(f"b-values observed: {hist}")
        print(f"conjecture violations (b outside -1..1): {len(outliers)}")
        for row in outliers:
            print(f"  {row}")
        if scan.structural_violations:
            print("structural violations:")
            for v in scan.structural_violations:
                print(f"  {v}")
    return 1 if scan.structural_violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschub",
        description="Exact Hecke-algebra actions on the coinvariant algebra "
        "in the Schubert basis, over Z[q].",
        epilog=COST_NOTE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, run, summary, q=False, jobs=False, outputs=("json", "csv", "text")):
        """A subparser with --n and --output, plus --q/--jobs where read."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--n", type=int, required=True, help="symmetric group size")
        p.add_argument("--output", choices=outputs, default="text")
        if q:
            p.add_argument("--q", type=_q_value, default="symbolic",
                           help="'symbolic' (default) or an exact rational like 1 or -2/3")
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=1,
                           help="worker processes, at most one per CPU")
        return p

    subcommand("schubert", cmd_schubert, "print all Schubert polynomials of S_n")

    p = subcommand("char", cmd_char, "graded character table", q=True, jobs=True)
    p.add_argument("--action", choices=CHARACTER_COLUMNS + ("all",), default="all")

    p = subcommand("matrix", cmd_matrix, "one generator matrix in the Schubert basis", q=True)
    p.add_argument("--action", choices=ACTIONS, required=True)
    p.add_argument("--i", type=int, required=True, help="generator index")
    p.add_argument("--k", type=int, required=True, help="degree of the component")

    p = subcommand("verify", cmd_verify, "run verification suites", outputs=("json", "text"))
    p.add_argument("--suite", action="append", default=None,
                   choices=tuple(SUITES) + ("all",),
                   help="suite name; repeatable; default all")

    subcommand("scan-b", cmd_scan_b, "ledger of the (b, c) descent-column splits", jobs=True)

    return parser


def _join_q_values(argv: list[str]) -> list[str]:
    """Rewrite ``--q VALUE`` as ``--q=VALUE``: argparse takes a spaced value
    that starts with '-', such as -2/3, for an option and rejects it."""
    out: list[str] = []
    j = 0
    while j < len(argv):
        if argv[j] == "--q" and j + 1 < len(argv):
            out.append(f"--q={argv[j + 1]}")
            j += 2
        else:
            out.append(argv[j])
            j += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_q_values(argv))
    try:
        return args.run(args)
    except ValueError as exc:
        raise SystemExit2(str(exc))


if __name__ == "__main__":
    sys.exit(main())
