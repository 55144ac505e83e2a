"""One cold-start repetition of a benchmark workload, in a fresh interpreter.

    python3 -I perfbench/bench_child.py --kind char --n 5 --seed 1 --mode run

Set-up is ``import qschub`` plus ``build_schubert_table(n)``; the child prints
``ready`` on stdout as soon as it is done, so the parent can time set-up from
the moment it started the interpreter, and then times the speed kernel (see
below) once.  In ``setup`` mode the child stops there.  Otherwise it builds
the seeded inputs, runs every operation (timing each), records its peak RSS
and checks every output.  Either way it ends with one JSON line:

    {"ready_kernel_s": ..., "latencies_s": [...], "speeds": [...], "ok": [...],
     "rss_kb": ..., "layers": {...}}

Host speed: other tenants of a shared host slow its CPU, by up to a factor of
two, for stretches of seconds to minutes, longer than a benchmark run.  So a
fixed pure-Python kernel is timed before the first operation, after the last
and between operations every ``KERNEL_EVERY_S`` of operation time.  An
operation's speed is ``REFERENCE_S`` over the mean kernel time of the two
timings around it, and its latency times its speed is its latency in
reference seconds: the wall time it would take on a host that runs the kernel
in ``REFERENCE_S``.  The kernel does the library's kind of work (products of
sparse dicts keyed by exponent tuples), so a slowdown of the host scales both
alike, while a change to the library moves only the latencies.

``--mode trace`` runs the same body with ``bench_trace.Tracer`` installed
around set-up and the operations (not around input generation or checks),
adds its per-layer metrics as ``layers`` and writes the spans to ``--spans``.

The library is imported from ``src/`` of the checkout that holds this file,
never from anywhere else on the path.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_library():
    """Import qschub from the checkout's src/, or exit with an error if it is
    not there."""
    if not (SRC / "qschub" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {SRC / 'qschub'}")
    sys.path.insert(0, str(SRC))
    import qschub

    if not Path(qschub.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: qschub was imported from {qschub.__file__}, not {SRC}")
    return qschub


# Kernel time of a quiet 2-core Xeon host (Python 3.11): the speed is 1 there.
REFERENCE_S = 0.004
KERNEL_EVERY_S = 0.25


def kernel_s() -> float:
    """Fastest of three runs of a fixed pure-Python kernel: products of two
    sparse dicts keyed by exponent tuples, about REFERENCE_S each."""
    a = {(i % 7, i % 5, i % 3): i for i in range(40)}
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(9):
            acc = {}
            for e1, c1 in a.items():
                for e2, c2 in a.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    acc[e] = acc.get(e, 0) + c1 * c2
        best = min(best, time.perf_counter() - t0)
    return best


def execute(workload, ops, table, tracer=None):
    """Run every operation in order, timing each, with the speed kernel timed
    before the first, after the last and every KERNEL_EVERY_S of operation
    time in between.

    Returns (latencies_s, speeds, results): each operation's wall latency, the
    host's speed over it (REFERENCE_S over the mean of the kernel times just
    before and just after it) and its result.  An operation that raises is
    reported on stderr and gets the result None, which fails its check.
    """
    latencies, results, segments = [], [], []
    clock = time.perf_counter
    kernels = [kernel_s()]
    since = 0.0
    for index, op in enumerate(ops):
        if since >= KERNEL_EVERY_S:
            kernels.append(kernel_s())
            since = 0.0
        if tracer is not None:
            tracer.op_id = index
        t0 = clock()
        try:
            result = workload.run(op, table)
        except Exception:
            traceback.print_exc()
            result = None
        latency = clock() - t0
        since += latency
        latencies.append(latency)
        segments.append(len(kernels) - 1)
        results.append(result)
    kernels.append(kernel_s())
    speeds = [2 * REFERENCE_S / (kernels[i] + kernels[i + 1]) for i in segments]
    return latencies, speeds, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kind", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    qschub = import_library()
    sys.path.insert(1, str(HERE))
    tracer = None
    if args.mode == "trace":
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    table = qschub.build_schubert_table(args.n)
    print("ready", flush=True)
    out = {"ready_kernel_s": kernel_s()}
    if args.mode == "setup":
        print(json.dumps(out), flush=True)
        return 0

    import bench_workloads

    workload = bench_workloads.KINDS[args.kind](args.n)
    if tracer is not None:
        tracer.uninstall()
    ops = workload.operations(args.seed, table)
    if tracer is not None:
        tracer.install()

    latencies, speeds, results = execute(workload, ops, table, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
    ok = workload.check(ops, results, table)
    out.update(latencies_s=latencies, speeds=speeds, ok=ok, rss_kb=rss_kb)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump_spans(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
