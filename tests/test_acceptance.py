"""Acceptance gate: every criterion is an exact identity at desk scale.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import math
import time

from qschub.perm import partitions_of
from qschub.rep import bc_scan, graded_character
from qschub.verify import (
    KERNEL_CHECK_DEGREE,
    RELATION_FAMILIES,
    SuiteResult,
    commutation_checks,
    relation_checks,
    suite_a_minus_r,
    suite_characters,
    suite_descent_columns,
    suite_kernels,
    suite_knuth,
    suite_schubert_recursion,
)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_main_character_identity():
    failures = []
    elapsed_n5 = None
    for n in (2, 3, 4, 5):
        t0 = time.monotonic()
        result = suite_characters(n)
        if n == 5:
            elapsed_n5 = time.monotonic() - t0
        failures.extend(f"n={n}: {f}" for f in result.failures)
    total_cells = sum(
        (n * (n - 1) // 2 + 1) * len(partitions_of(n)) for n in (2, 3, 4, 5)
    )
    ok = not failures and elapsed_n5 < 60.0
    report(
        1,
        ok,
        f"two traces and the weight sum agree on all {total_cells} (k, mu) cells "
        f"for n=2..5; n=5 took {elapsed_n5:.1f}s (target 60s)"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_2_hecke_relation_suites():
    result = SuiteResult("relations")
    checked = 0
    for n in (2, 3, 4):
        for family in ("A", "B", "R", "Rstar"):
            checked += result.tally(family, relation_checks(RELATION_FAMILIES[family], n, 5),
                                    f"n={n} {family}: ")
        checked += result.tally("commutation", commutation_checks(n, 5), f"n={n} commutation: ")
    failures = result.failures
    report(
        2,
        not failures,
        f"braid/commuting/quadratic for A, B, R, R* plus the difference-operator "
        f"commutation identities: {checked} exact checks on all monomials of degree <= 5, n <= 4"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_3_schubert_ground_truth():
    failures = []
    for n in (2, 3, 4, 5, 6):
        result = suite_schubert_recursion(n)
        relevant = result.failures
        if n > 5:
            # at n=6 only the graded-dimension count is part of the gate
            relevant = [f for f in relevant if "basis size" in f]
        failures.extend(f"n={n}: {f}" for f in relevant)
    report(
        3,
        not failures,
        "divided-difference recursion and linear classes exact for n <= 5; "
        "monk/x-action match polynomial expansion for n <= 4; graded dimensions "
        "match inversion counts for n <= 6"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_4_descent_column_closed_form():
    failures = []
    for n in (2, 3, 4, 5, 6):
        result = suite_descent_columns(n)
        failures.extend(f"n={n}: {f}" for f in result.failures)
    report(
        4,
        not failures,
        "cycle-formula descent columns equal the computed generator columns for "
        "every descent pair, n <= 6, plus column support structure"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_5_trace_equivalence():
    failures = []
    for n in (2, 3, 4, 5):
        result = suite_characters(n)
        failures.extend(f"n={n}: {f}" for f in result.failures)
    report(
        5,
        not failures,
        "the two actions' coinvariant traces agree at every class element T_mu, "
        "hence at every basis element, n <= 5"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_6_q_one_collapse():
    from qschub.rep import generator_matrix
    from qschub.schubert import build_schubert_table

    failures = []
    for n in (2, 3, 4, 5):
        table = build_schubert_table(n)
        for i in range(1, n):
            for k in range(table.max_degree + 1):
                deformed = generator_matrix("rho1", i, k, table)
                plain = generator_matrix("symq1", i, k, table)
                at_one = [[c.evaluate(1) for c in row] for row in deformed.entries]
                if at_one != [[c.evaluate(1) for c in row] for row in plain.entries]:
                    failures.append(f"matrix collapse at n={n}, i={i}, k={k}")
                for w in plain.basis:
                    col = plain.columns[w]
                    if w[i - 1] < w[i]:
                        ok = list(col) == [w] and col[w].as_int() == 1
                    else:
                        ok = col[w].as_int() == -1 and all(
                            c.as_int() in (-1, 1) for c in col.values()
                        )
                    if not ok:
                        failures.append(f"permutation-action column at n={n}, i={i}, w={w}")
        for mu in partitions_of(n):
            total = sum(
                graded_character("rho1", mu, k, n).value.evaluate(1)
                for k in range(table.max_degree + 1)
            )
            expected = math.factorial(n) if mu == (1,) * n else 0
            if total != expected:
                failures.append(f"regular character at n={n}, mu={mu}: {total}")
    report(
        6,
        not failures,
        "q=1 generator matrices equal the permutation-action matrices and the "
        "summed q=1 characters give the regular character, n <= 5"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_7_knuth_class_characters():
    failures = []
    for n in (2, 3, 4, 5):
        result = suite_knuth(n)
        failures.extend(f"n={n}: {f}" for f in result.failures)
    report(
        7,
        not failures,
        "equal-shape Knuth classes give identical character values for every mu, "
        "matching the border-strip oracle at q=1, n <= 5"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_8_difference_identity_and_kernels():
    failures = []
    for n in (2, 3, 4):
        result = suite_a_minus_r(n)
        failures.extend(f"n={n}: {f}" for f in result.failures)
        result = suite_kernels(n)
        failures.extend(f"n={n}: {f}" for f in result.failures)
    report(
        8,
        not failures,
        "difference of the two actions on variable powers factors exactly "
        "through (1-q) for m <= 6, and the fixed spaces of A_i and R_i are "
        f"exactly the i-symmetric polynomials over Z[q], degree <= {KERNEL_CHECK_DEGREE}, n <= 4"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_9_bc_scan():
    lines = []
    for n in (2, 3, 4, 5):
        scan = bc_scan(n)
        assert not scan.structural_violations, scan.structural_violations[:3]
        assert all(c in (-1, 0, 1) for _, _, _, _, c in scan.entries)
        lines.append(f"n={n}: {len(scan.entries)} entries, b-range {scan.b_histogram()}")
    outliers = [row for n in (2, 3, 4, 5) for row in bc_scan(n).b_outliers()]
    report(
        9,
        True,
        "full (w, z, b, c) ledger for n <= 5 with the constant part always in "
        f"{{-1, 0, 1}}; observed b outliers (reported, not asserted): {len(outliers)}; "
        + "; ".join(lines),
    )
