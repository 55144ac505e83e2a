"""Benchmark runner for qschub: cold-start, single-client, closed loop.

    python3 perfbench/run.py --workload char-n5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every repetition runs in a fresh interpreter (``bench_child.py``), one child
at a time with no pool, so the Schubert table, the word-matrix and
permutation caches and the generator-matrix cache all start empty, as they do
for every CLI invocation.  Repetitions continue while the next one is
expected to end within ``--seconds`` (at least one).  Set-up is also sampled
by extra set-up-only children until there are ``SETUP_SAMPLES``.

Times are in reference seconds: wall time scaled by the host's speed at that
moment, which ``bench_child`` measures with a fixed kernel between
operations (its docstring says how).  On a shared host the speed drifts by a
factor of two over minutes, so wall times of the same code spread that much
from run to run; the report gives the wall times beside the metrics.  Every
time metric is a median over the run's repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced repetition and reports the per-layer metrics of the
traced one, with the tracing overhead (traced minus untraced ``run_s``); its
spans are written to ``perfbench/out/``.

A readable report, with the machine it ran on, goes to stderr and to
``perfbench/out/``; the last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed; it is 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "bench_child.py"

sys.path.insert(0, str(HERE))
from bench_child import REFERENCE_S, kernel_s  # noqa: E402

# name -> (workload kind in bench_workloads.KINDS, n)
WORKLOADS = {
    "char-n5": ("char", 5),
    "equiv-n4": ("equiv", 4),
    "expand-n7": ("expand", 7),
    "matrices-n5": ("matrices", 5),
}

SETUP_SAMPLES = 9
# One workload's run must end within 180 s; a child still running this long
# after the run started is killed and the run fails.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def run_child(kind: str, n: int, seed: int, mode: str, kill_at: float,
              spans: Path | None = None) -> dict:
    """Start one fresh interpreter, time its set-up, and return its result
    with ``setup_wall_s`` and ``setup_s`` added: set-up in wall and in
    reference seconds, at the mean speed of the kernel timed here just before
    the start and in the child just after set-up.  The child is killed at
    ``kill_at`` (a ``perf_counter`` time) and always waited for."""
    cmd = [sys.executable, "-I", str(CHILD), "--kind", kind, "--n", str(n),
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    before = kernel_s()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, kill_at - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise ChildFailed(f"{' '.join(cmd[2:])} exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_wall_s"] = setup_s
    result["setup_s"] = setup_s * 2 * REFERENCE_S / (before + result["ready_kernel_s"])
    return result


def tail_percentile(operations: int) -> int:
    """Highest whole percentile with at least ten operations beyond it; 100
    (the maximum) when there are at most ten."""
    if operations <= 10:
        return 100
    return math.floor(100 * (operations - 10) / operations)


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def rep_times(rep: dict) -> tuple[list[float], float]:
    """A repetition's operation latencies in reference seconds, and its wall
    time (the sum of the operations' wall latencies)."""
    ref = [latency * speed for latency, speed in zip(rep["latencies_s"], rep["speeds"])]
    return ref, sum(rep["latencies_s"])


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload: repetitions while the next one is
    expected to end within ``seconds`` (at least one), then set-up-only
    children up to SETUP_SAMPLES.

    ``run_s`` is the median over the repetitions of the sum of the
    operations' latencies.  Each operation's latency is its median over the
    repetitions, and ``op_ms_p50`` and ``op_ms_tail`` are percentiles of
    these per-operation medians.  ``setup_s`` and ``peak_rss_mb`` are
    medians too.
    """
    kind, n = WORKLOADS[name]
    start = time.perf_counter()
    kill_at = start + RUN_LIMIT_S
    reps = []
    while True:
        began = time.perf_counter()
        reps.append(run_child(kind, n, seed, "run", kill_at))
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            break
    setups = [(r["setup_s"], r["setup_wall_s"]) for r in reps]
    while len(setups) < SETUP_SAMPLES:
        r = run_child(kind, n, seed, "setup", kill_at)
        setups.append((r["setup_s"], r["setup_wall_s"]))
    times = [rep_times(r) for r in reps]
    # Every repetition runs the same operations in the same order.
    latencies = [statistics.median(xs) for xs in zip(*(ref for ref, _ in times))]
    p = tail_percentile(len(latencies))
    ok = [x for r in reps for x in r["ok"]]
    return {
        "metrics": {
            "setup_s": statistics.median(ref for ref, _ in setups),
            "run_s": statistics.median(sum(ref) for ref, _ in times),
            "op_ms_p50": 1000 * statistics.median(latencies),
            "op_ms_tail": 1000 * percentile(latencies, p),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024,
        },
        "attempted": len(ok),
        "failed": ok.count(False),
        "notes": {
            "repetitions": len(reps),
            "setup_samples": len(setups),
            "operations": len(latencies),
            "tail_percentile": p,
            "host_speed_range": [round(min(min(r["speeds"]) for r in reps), 3),
                                 round(max(max(r["speeds"]) for r in reps), 3)],
            "wall_setup_s": statistics.median(wall for _, wall in setups),
            "wall_run_s": statistics.median(wall for _, wall in times),
        },
    }


def measure_traced(name: str, seed: int) -> dict:
    """Per-layer metrics: one untraced and one traced repetition."""
    kind, n = WORKLOADS[name]
    kill_at = time.perf_counter() + RUN_LIMIT_S
    plain = run_child(kind, n, seed, "run", kill_at)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{name}-seed{seed}.spans.jsonl"
    traced = run_child(kind, n, seed, "trace", kill_at, spans)
    plain_s, traced_s = (sum(rep_times(r)[0]) for r in (plain, traced))
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced_s - plain_s
    ok = plain["ok"] + traced["ok"]
    return {
        "metrics": layers,
        "attempted": len(ok),
        "failed": ok.count(False),
        "notes": {"untraced_run_s": plain_s, "traced_run_s": traced_s,
                  "spans_file": str(spans.relative_to(ROOT))},
    }


def per_layer_units() -> dict[str, str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from bench_trace import PER_LAYER

    return {metric: unit for metric, unit, _ in PER_LAYER}


def report(name: str, seed: int, trace: int, result: dict, units: dict, machine: dict) -> str:
    lines = [f"workload {name}  seed {seed}  trace {trace}"]
    for key, value in result["notes"].items():
        lines.append(f"  # {key}: {value}")
    for metric, value in result["metrics"].items():
        lines.append(f"  {metric:<44} {value:>14.6g} {units[metric]}")
    if not trace:
        frac = result["failed"] / result["attempted"]
        lines.append(f"  {'fail_frac':<44} {frac:>14.6g} ratio"
                     f"  ({result['failed']} of {result['attempted']} operations)")
    lines.append("  # machine: " + json.dumps(machine))
    return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, trace: int) -> bool:
    result = measure_traced(name, seed) if trace else measure(name, seed, seconds)
    units = per_layer_units() if trace else dict(END_TO_END)
    machine = machine_info()
    text = report(name, seed, trace, result, units, machine)
    print(text, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.txt").write_text(text + "\n")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qschub" / "__init__.py").is_file():
        print(f"bench: no library at {ROOT / 'src' / 'qschub'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
