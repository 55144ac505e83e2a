import hashlib
import json

import pytest

from helpers import record_pool_sizes

from qschub.cli import MAX_DEGREE_BOUND, main
from qschub.polyring import QPoly


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestSchubert:
    def test_json_n2(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "--n", "2", "--output", "json")
        assert code == 0
        assert out.strip() == '{"1,2": "1", "2,1": "x1"}'

    def test_json_n1(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "--n", "1", "--output", "json")
        assert code == 0
        assert out.strip() == '{"1": "1"}'

    def test_n3_table(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "--n", "3", "--output", "json")
        table = json.loads(out)
        assert table["2,1,3"] == "x1"
        assert table["1,3,2"] == "x1 + x2"
        assert table["3,2,1"] == "x1^2*x2"

    def test_cap_rejected_with_estimate(self, capsys):
        code, _, err = run_cli(capsys, "schubert", "--n", "9")
        assert code == 2
        assert "362880" in err

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "--n", "2", "--output", "csv")
        assert code == 0
        assert out.splitlines() == ["w,schubert", '"1,2",1', '"2,1",x1']


class TestChar:
    def test_all_agree_n3(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--n", "3", "--action", "all", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_agree"] is True
        cells = {row["k"]: row["cells"] for row in data["rows"]}
        assert [cells[k]["3"]["weights"] for k in range(4)] == ["1", "-q", "-q", "q^2"]
        assert all(cell["agree"] for row in data["rows"] for cell in row["cells"].values())

    def test_weights_csv_n2(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--n", "2", "--action", "weights", "--output", "csv")
        assert code == 0
        assert out.splitlines() == ["k,2,1+1", "0,1,1", "1,-q,1"]

    def test_rho2_at_q_one(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--n", "3", "--action", "rho2", "--q", "1", "--output", "json")
        assert code == 0
        data = json.loads(out)
        col = data["mus"].index("1+1+1")
        assert [row["values"][col] for row in data["rows"]] == ["1", "2", "2", "1"]

    def test_text_marks_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--n", "2", "--action", "all")
        assert code == 0
        assert "AGREE" in out and "MISMATCH" not in out

    def test_requires_n_at_least_two(self, capsys):
        code, _, err = run_cli(capsys, "char", "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, digest", [
        (("--output", "json"), "00df2671c8bc7f0fe8469d92383ed1dd960411e0c9a1bf126cc68e20ee8f1f3d"),
        (("--action", "rho2", "--output", "csv"),
         "c1586a20ac72108fc2a9ac2bed70e62f358327c51b96fa50f292c7728ec1c3cd"),
    ], ids=["json", "rho2-csv"])
    def test_n5_stdout_is_pinned(self, capsys, argv, digest):
        # All 77 cells of every column, and the rho2 column alone, byte for byte.
        code, out, _ = run_cli(capsys, "char", "--n", "5", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cap_rejected_before_the_table_build(self, capsys, monkeypatch):
        from qschub import cli

        def no_build(*args, **kwargs):
            raise AssertionError("a table was built for a rejected char")

        monkeypatch.setattr(cli, "character_table", no_build)
        monkeypatch.setattr(cli, "build_schubert_table", no_build)
        code, out, err = run_cli(capsys, "char", "--n", "8")
        assert code == 2
        assert out == ""
        assert "capped at n <= 7" in err


class TestMatrix:
    def test_json_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "--n", "3", "--action", "rho1", "--i", "1", "--k", "1", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["basis"] == ["1,3,2", "2,1,3"]
        assert data["entries"] == [["1", "1"], ["0", "-q"]]

    def test_specialized(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "--n", "3", "--action", "rho1", "--i", "1", "--k", "1",
            "--q", "1", "--output", "json",
        )
        data = json.loads(out)
        assert data["entries"] == [["1", "1"], ["0", "-1"]]

    def test_bad_degree(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "--n", "3", "--action", "rho1", "--i", "1", "--k", "9")
        assert code == 2

    @pytest.mark.parametrize("bad, message", [
        (("--i", "9", "--k", "1"), "generator index must satisfy 1 <= i < n, got 9"),
        (("--i", "1", "--k", "99"), "degree must satisfy 0 <= k <= 28, got 99"),
    ])
    def test_bad_index_rejected_before_the_table_build(self, capsys, monkeypatch, bad, message):
        from qschub import cli

        def no_build(n):
            raise AssertionError("the Schubert table was built for a rejected matrix")

        monkeypatch.setattr(cli, "build_schubert_table", no_build)
        code, out, err = run_cli(capsys, "matrix", "--n", "8", "--action", "rho1", *bad)
        assert code == 2
        assert out == ""
        assert message in err


class TestVerify:
    @pytest.mark.parametrize("n", ["2", "3", "4"])
    def test_all_suites_pass(self, capsys, n):
        code, out, _ = run_cli(capsys, "verify", "--n", n)
        assert code == 0
        assert "overall: PASS" in out

    def test_single_suite_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--suite", "knuth", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"n", "suites", "passed"}
        assert data["passed"] is True
        assert [s["name"] for s in data["suites"]] == ["knuth"]

    def test_multiple_suites(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--suite", "relations", "--suite", "commutation",
            "--degree-bound", "2",
        )
        assert code == 0
        assert out.count("[PASS]") == 2

    def test_all_among_other_suites_runs_every_suite(self, capsys):
        argv = ("verify", "--n", "3", "--degree-bound", "2", "--suite", "all")
        code, out, _ = run_cli(capsys, *argv, "--suite", "knuth")
        assert code == 0
        assert out == run_cli(capsys, *argv)[1]

    def test_a_suite_named_twice_runs_once(self, capsys):
        argv = ("verify", "--n", "3", "--suite", "knuth")
        code, out, _ = run_cli(capsys, *argv, "--suite", "knuth")
        assert code == 0
        assert out == run_cli(capsys, *argv)[1]

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "8")
        assert code == 2
        assert "verify is capped at n <= 7" in err

    @pytest.mark.parametrize("output, digest", [
        ("text", "522dc3762c1727fd73d24cb32c165997849e935c774ce6dbb942d0074131f0bc"),
        ("json", "e23544fbba1b494b310c7175755daaa9c3971393c5e03a2251ffe6e5fb1ee0ab"),
    ], ids=["text", "json"])
    def test_n4_stdout_is_pinned(self, capsys, output, digest):
        # Every suite's summary lines, in suite order, byte for byte.
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--output", output)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestScanB:
    def test_cap(self, capsys):
        code, out, err = run_cli(capsys, "scan-b", "--n", "8")
        assert code == 2
        assert out == ""
        assert "scan-b is capped at n <= 7" in err

    def test_n2_empty(self, capsys):
        code, out, _ = run_cli(capsys, "scan-b", "--n", "2", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == []
        assert data["b_values"] == {}
        assert data["conjecture_violations"] == []

    def test_n3_contents(self, capsys):
        code, out, _ = run_cli(capsys, "scan-b", "--n", "3", "--output", "json")
        data = json.loads(out)
        assert {"i": 1, "w": "2,1,3", "z": "1,3,2", "b": -1, "c": 1} in data["entries"]
        assert data["structural_violations"] == []

    def test_csv_summary(self, capsys):
        code, out, _ = run_cli(capsys, "scan-b", "--n", "3", "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,w,z,b,c"
        assert lines[-1].startswith("# b-values observed")

    @pytest.mark.parametrize("output, digest", [
        ("json", "fff1529001ffe662ff7ac335127c4dc0aded6bc0d79294c257c6003a0e987e04"),
        ("csv", "9d78421f56fc56c7e78e831c18244422b7351769838881d2c0e5b3af4b88f3b8"),
        ("text", "91376e84d2221bf057ed2f21f3e81b6b0cf58ae306524d67952af2c03bad01ef"),
    ], ids=["json", "csv", "text"])
    def test_n5_ledger_is_pinned(self, capsys, output, digest):
        # All 476 ledger rows, the b histogram and the outlier list, byte for byte.
        code, out, _ = run_cli(capsys, "scan-b", "--n", "5", "--output", output)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("entry, message", [
        (QPoly((0, 0, 1)), "structural violation at (1, (2, 1, 3), (1, 3, 2)): entry q^2 has q-degree > 1"),
        (QPoly((3, -1)), "structural violation at (1, (2, 1, 3), (1, 3, 2)): constant part 2"),
    ])
    def test_structural_violation_is_reported(self, capsys, monkeypatch, entry, message):
        # The rho2 column of (2,1,3) at i=1 is {(2,1,3): -q, (1,3,2): q}; the
        # patched entry keeps the generator's column shape, so only the
        # ledger's own checks can reject it.
        from qschub import rep

        read_column = rep._read_column

        def patched(action, word, w, k, table):
            column = read_column(action, word, w, k, table)
            if (action, word, w) == ("rho2", (1,), (2, 1, 3)):
                assert column[(1, 3, 2)] == QPoly((0, 1))
                column = {**column, (1, 3, 2): entry}
            return column

        monkeypatch.setattr(rep, "_GEN_CACHE", {})
        monkeypatch.setattr(rep, "_read_column", patched)
        assert rep.bc_scan(3).structural_violations == [message]
        code, out, _ = run_cli(capsys, "scan-b", "--n", "3")
        assert code == 1
        assert out.endswith(f"structural violations:\n  {message}\n")


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "char", "--n", "3", "--action", "all", "--output", "json")
        _, second, _ = run_cli(capsys, "char", "--n", "3", "--action", "all", "--output", "json")
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run_cli(capsys, "char", "--n", "3", "--action", "all", "--output", "json")
        _, parallel, _ = run_cli(capsys, "char", "--n", "3", "--action", "all", "--output", "json", "--jobs", "2")
        assert serial == parallel

    @pytest.mark.parametrize("action", ["rho1", "rho2", "weights"])
    def test_jobs_reach_every_char_action(self, capsys, monkeypatch, action):
        sizes = record_pool_sizes(monkeypatch, cpus=2)
        argv = ("char", "--n", "3", "--action", action, "--output", "csv")
        _, serial, _ = run_cli(capsys, *argv)
        code, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert (code, parallel) == (0, serial)
        assert sizes == [2]

    def test_jobs_scan_b(self, capsys):
        _, serial, _ = run_cli(capsys, "scan-b", "--n", "4", "--output", "csv")
        _, parallel, _ = run_cli(capsys, "scan-b", "--n", "4", "--output", "csv", "--jobs", "2")
        assert serial == parallel

    def test_bad_q(self, capsys):
        code, _, err = run_cli(capsys, "char", "--n", "2", "--q", "pi")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("char", "--n", "4", "--action", "rho1", "--output", "csv"),
        ("matrix", "--n", "3", "--action", "rho2", "--i", "1", "--k", "1", "--output", "json"),
    ])
    def test_spaced_negative_q_matches_equals_form(self, capsys, argv):
        code, joined, _ = run_cli(capsys, *argv, "--q=-2/3")
        assert code == 0 and "/" in joined
        assert run_cli(capsys, *argv, "--q", "-2/3") == (0, joined, "")

    def test_bad_jobs(self, capsys):
        code, _, err = run_cli(capsys, "char", "--n", "2", "--jobs", "0")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--n", "2", "--degree-bound", "x"), "degree bound must be an integer, got 'x'"),
        (("char", "--n", "2", "--jobs", "two"), "jobs must be an integer, got 'two'"),
    ], ids=["degree-bound", "jobs"])
    def test_a_non_integer_value_is_a_plain_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err and "invalid" not in err

    def test_bad_degree_bound(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--degree-bound", "-1")
        assert code == 2
        assert "degree bound must be nonnegative" in err

    def test_degree_bound_above_the_cap_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--degree-bound",
                                 str(MAX_DEGREE_BOUND + 1))
        assert code == 2
        assert out == ""
        assert f"degree bound is capped at {MAX_DEGREE_BOUND}" in err
        code, _, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "kernels",
                             "--degree-bound", str(MAX_DEGREE_BOUND))
        assert code == 0

    def test_n7_accepts_the_degree_bound_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "7", "--suite", "kernels",
                               "--degree-bound", str(MAX_DEGREE_BOUND))
        assert code == 0
        assert "[PASS] kernels" in out

    def test_n7_rejects_past_the_cap_as_every_n_does(self, capsys):
        above = str(MAX_DEGREE_BOUND + 1)
        errors = set()
        for n in ("2", "5", "7"):
            code, out, err = run_cli(capsys, "verify", "--n", n, "--suite", "kernels",
                                     "--degree-bound", above)
            assert code == 2 and out == ""
            errors.add(err)
        assert len(errors) == 1
        assert f"degree bound is capped at {MAX_DEGREE_BOUND}" in errors.pop()

    @pytest.mark.parametrize("argv", [
        ("schubert", "--n", "2", "--jobs", "2"),
        ("verify", "--n", "2", "--q", "1"),
        ("verify", "--n", "2", "--jobs", "2"),
        ("char", "--n", "2", "--seed", "3"),
        ("matrix", "--n", "2", "--action", "rho1", "--i", "1", "--k", "1", "--jobs", "2"),
        ("scan-b", "--n", "2", "--degree-bound", "2"),
        ("verify", "--n", "2", "--seed", "3"),
    ])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_verify_has_no_csv_output(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--output", "csv")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'csv'" in err

    def test_unknown_suite_rejected(self, capsys):
        for name in ("made-up", "word-invariance", "equivalence"):
            code, _, err = run_cli(capsys, "verify", "--n", "2", "--suite", name)
            assert code == 2
            assert f"invalid choice: '{name}'" in err
