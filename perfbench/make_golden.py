"""Record the golden digests that the benchmark's checks compare against.

    python3 perfbench/make_golden.py

Writes ``perfbench/golden.json``: digests of the rho2 generator matrices, of
every rho2 Hecke basis-element matrix, of the (b, c) ledger (n = 3, 4, 5) and
of the Schubert table (n = 3, 4, 7).  These outputs have no cheap independent
oracle, so the digests pin the library's output at the commit that recorded
them; re-record only for a change that is meant to alter that output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qschub import perm, rep, schubert  # noqa: E402

from bench_workloads import (  # noqa: E402
    GOLDEN_PATH, golden_key, perm_key, ledger_digest, matrix_digest, table_digest)


def main() -> int:
    golden = {}
    for n in (3, 4, 5):
        table = schubert.build_schubert_table(n)
        top = n * (n - 1) // 2
        for i in range(1, n):
            for k in range(top + 1):
                m = rep.generator_matrix("rho2", i, k, table)
                golden[golden_key("rho2-generator", n, i, k)] = matrix_digest(m)
        golden[golden_key("ledger", n)] = ledger_digest(rep.bc_scan(n, jobs=1))
        for w in perm.all_perms(n):
            for k in range(top + 1):
                m = rep.basis_element_matrix("rho2", w, k, table)
                golden[golden_key("rho2-element", n, perm_key(w), k)] = matrix_digest(m)
        print(f"n={n} done", file=sys.stderr)
    for n in (3, 4, 7):
        golden[golden_key("table", n)] = table_digest(schubert.build_schubert_table(n))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
