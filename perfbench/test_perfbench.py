"""Tests of the benchmark itself, at n = 3 and 4: the seeded generators and
their expected answers, the output checks (including that a corrupted
expectation is caught), the tracer's wrapping, and the runner's contract."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_child
import bench_trace
import bench_workloads as bw
import run
from qschub import operators, polyring, rep, schubert

HERE = Path(__file__).resolve().parent

SMALL = {
    "char": bw.CharTable(3),
    "equiv": bw.Equivalence(3),
    "expand": bw.Expansion(4, max_degree=5, per_degree=3),
    "matrices": bw.Matrices(3),
}


def run_checked(workload, seed, tracer=None):
    table = schubert.build_schubert_table(workload.n)
    ops = workload.operations(seed, table)
    if tracer is not None:
        tracer.install()
    try:
        _, _, results = bench_child.execute(workload, ops, table, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, results, workload.check(ops, results, table)


def fail_frac(ok):
    return ok.count(False) / len(ok)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_every_check_passes_at_small_n(kind):
    ops, _, ok = run_checked(SMALL[kind], seed=3)
    assert ops and len(ok) == len(ops)
    assert fail_frac(ok) == 0


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_inputs_depend_only_on_the_seed(kind):
    workload = SMALL[kind]
    table = schubert.build_schubert_table(workload.n)
    assert workload.operations(5, table) == workload.operations(5, table)


def test_seed_changes_the_inputs():
    table = schubert.build_schubert_table(4)
    workload = SMALL["expand"]
    assert workload.operations(1, table) != workload.operations(2, table)
    char = bw.CharTable(4)
    assert char.operations(1, table) != char.operations(2, table)


def test_generated_coordinates_are_the_expansion():
    table = schubert.build_schubert_table(4)
    for op in SMALL["expand"].operations(7, table):
        f, k = op.args
        assert f.homogeneous_degree() == k
        assert op.expected
        # The ideal part is invisible: subtracting the Schubert part leaves a
        # polynomial whose expansion is zero.
        schubert_part = polyring.MPoly.zero(4)
        for z, c in op.expected.items():
            schubert_part = schubert_part + table[z].scale(polyring.QPoly(c))
        assert schubert.expand_homogeneous(f - schubert_part, k, table).is_zero()


def test_symq1_monk_columns_match_the_swap_matrices():
    table = schubert.build_schubert_table(4)
    for i in range(1, 4):
        for k in range(7):
            m = rep.generator_matrix("symq1", i, k, table)
            cols = bw.matrix_columns(m)
            for w in m.basis:
                if w[i - 1] > w[i]:
                    assert cols[w] == bw.monk_swap_column(i, w)


def test_matrix_product_matches_word_matrix_for_rho1():
    table = schubert.build_schubert_table(4)
    w, k = (3, 4, 1, 2), 2
    acc = bw.identity_rows(len(table.basis(k)))
    for i in (2, 1, 3, 2):
        acc = bw.matrix_product(acc, bw.rows_of(rep.generator_matrix("rho1", i, k, table)))
    assert acc == bw.rows_of(rep.word_matrix("rho1", (2, 1, 3, 2), k, table))
    assert bw.rows_of(rep.basis_element_matrix("rho1", w, k, table)) == bw.rows_of(
        rep.word_matrix("rho1", rep.canonical_reduced_word(w), k, table))


def test_corrupted_expectation_makes_fail_frac_positive():
    workload = SMALL["expand"]
    table = schubert.build_schubert_table(workload.n)
    ops = workload.operations(3, table)
    z, c = next(iter(ops[0].expected.items()))
    corrupted = dict(ops[0].expected)
    corrupted[z] = c + (1,)
    ops[0] = dataclasses.replace(ops[0], expected=corrupted)
    _, _, results = bench_child.execute(workload, ops, table)
    ok = workload.check(ops, results, table)
    assert ok[0] is False and fail_frac(ok) > 0

    equiv = SMALL["equiv"]
    ops = [dataclasses.replace(op, expected=op.expected + 1) for op in equiv.operations(0, None)]
    _, _, results = bench_child.execute(equiv, ops, schubert.build_schubert_table(3))
    assert fail_frac(equiv.check(ops, results, None)) == 1


def test_a_raising_operation_counts_as_failed():
    class Broken(bw.CharTable):
        def run(self, op, table):
            raise ZeroDivisionError

    workload = Broken(3)
    _, _, ok = run_checked(workload, seed=0)
    assert fail_frac(ok) == 1


def test_missing_golden_digest_fails_the_check(monkeypatch):
    monkeypatch.setattr(bw, "load_golden", lambda: {})
    _, _, ok = run_checked(SMALL["matrices"], seed=0)
    assert fail_frac(ok) > 0


def traced_counts() -> dict:
    """Calls per wrapped name and per-layer metrics of each small workload,
    each under its own tracer."""
    out = {}
    for kind, workload in SMALL.items():
        tracer = bench_trace.Tracer()
        run_checked(workload, seed=1, tracer=tracer)
        out[kind] = {"calls": {name: stat[0] for name, stat in tracer.stats.items()},
                     "metrics": tracer.metrics()}
    return out


def test_tracer_counts_every_wrapped_function():
    # A fresh interpreter, as in the benchmark: a cache filled by another test
    # would hide calls.
    code = ("import sys, json; sys.path[:0] = sys.argv[1:]; import test_perfbench; "
            "print(json.dumps(test_perfbench.traced_counts()))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(HERE.parent / "src"), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    by_kind = json.loads(proc.stdout.splitlines()[-1])
    totals: dict[str, int] = {}
    metrics: dict[str, float] = {}
    for result in by_kind.values():
        for name, calls in result["calls"].items():
            totals[name] = totals.get(name, 0) + calls
        for name, value in result["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value
    missed = sorted(name for name, count in totals.items() if count == 0)
    assert not missed, f"wrapped but never reached: {missed}"
    assert {"rep.graded_character.rho1", "rep.graded_character.rho2"} <= set(totals)
    # Bindings other than the defining module's global:
    assert by_kind["char"]["calls"]["operators.op_a"] > 0  # rep._ACTION_OPS["rho1"]
    assert by_kind["equiv"]["calls"]["operators.op_r"] > 0  # rep._ACTION_OPS["rho2"]
    assert by_kind["expand"]["calls"]["operators.divided_difference"] > 0  # schubert's copy
    assert by_kind["char"]["calls"]["perm.coset_weight"] > 0  # rep's copy
    zero = sorted(name for name, value in metrics.items() if not value)
    assert not zero, f"per-layer metrics zero on every workload: {zero}"


def test_an_uncalled_wrapper_shows_as_zero():
    stats = bench_trace.Tracer().stats
    for module, names in bench_trace.SPAN_FUNCTIONS.items():
        for attr in names:
            if attr != "graded_character":
                assert stats[f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"][0] == 0
    assert stats["rep.graded_character.rho1"][0] == stats["rep.graded_character.rho2"][0] == 0
    assert stats["perm.coset_weight"][0] == stats["polyring.qpoly.__add__"][0] == 0


def test_tracer_restores_every_binding():
    originals = (operators.op_a, operators.divided_difference, schubert.divided_difference,
                 rep._ACTION_OPS["rho1"], polyring.QPoly.__add__, polyring.QPoly.__radd__)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert rep._ACTION_OPS["rho1"] is not originals[3]
        assert polyring.QPoly.__radd__ is polyring.QPoly.__add__ is not originals[4]
    finally:
        tracer.uninstall()
    assert (operators.op_a, operators.divided_difference, schubert.divided_difference,
            rep._ACTION_OPS["rho1"], polyring.QPoly.__add__, polyring.QPoly.__radd__) == originals


def test_self_time_excludes_nested_calls():
    tracer = bench_trace.Tracer()
    run_checked(SMALL["expand"], seed=2, tracer=tracer)
    total, self_s = tracer.stats["schubert.expand_homogeneous"][1:]
    assert 0 < self_s < total
    assert tracer.spans and all(s[2] <= s[3] for s in tracer.spans)
    ids = {s[0] for s in tracer.spans}
    assert all(s[4] in ids or s[4] == 0 for s in tracer.spans)


def test_every_operation_gets_a_host_speed():
    workload = SMALL["char"]
    table = schubert.build_schubert_table(workload.n)
    ops = workload.operations(0, table)
    latencies, speeds, _ = bench_child.execute(workload, ops, table)
    assert len(latencies) == len(speeds) == len(ops)
    assert all(speed > 0 for speed in speeds)
    ref, wall = run.rep_times({"latencies_s": [0.5, 0.25], "speeds": [2.0, 0.5]})
    assert ref == [1.0, 0.125] and wall == 0.75


def test_tail_percentile_leaves_ten_operations_beyond():
    assert run.tail_percentile(1) == 100
    assert run.tail_percentile(176) == 94
    for n in (11, 45, 176, 1000):
        p = run.tail_percentile(n)
        values = list(range(n))
        assert n - 1 - run.percentile(values, p) >= 10
    assert run.percentile([3.0], 100) == 3.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench_trace.PER_LAYER)
    assert set(bw.KINDS) == {kind for kind, _ in run.WORKLOADS.values()}


def test_runner_fails_without_the_library():
    # A directory holding only BENCHMARK.json and the benchmark's files.
    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        stripped.mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", stripped)
        shutil.copytree(HERE, stripped / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "char-n5", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
