#!/usr/bin/env python3
"""biframekit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N       # all three, one process each

Runs one workload against ``src/`` with BLAS and OpenMP pinned to one
thread, checks every output against the benchmark's own oracle, and prints
the metrics; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a separate traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("analyze-fresh", "certify-derived", "cli-manifests")

#: Set-up is timed this many times, each in a fresh process; the median counts.
SETUP_PROBES = 9
#: Whole cycles run until the timed phase reaches ``--seconds`` and holds at
#: least this many ops, so that at least ten samples lie above p90.
MIN_OPS = 110
#: Seconds :func:`reference_kernel` takes on the reference machine (2 vCPUs,
#: Python 3.11, one BLAS thread).  Every reported time is scaled to the host
#: speed at which the kernel takes this long; see :func:`run_cycle`.
REFERENCE_S = 0.008

UNITS = {
    "ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def set_up(name: str, seed: int):
    """Import the library, build the first cycle's inputs, warm up."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, WORK)
    wl.setup()
    first = wl.prepare(0)
    wl.warm_up()
    return wl, first


def reference_kernel() -> float:
    """Seconds for four cyclic Jacobi sweeps on a fixed symmetric 16 x 16
    matrix: a Python loop of small numpy row and column updates, the same
    kind of work as the program's kernel.  The code and its input are the
    benchmark's own and never change, so its time moves with the speed of
    the host alone."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((16, 16))
    a = a + a.T
    n = a.shape[0]
    start = time.perf_counter()
    for _ in range(4):
        for p in range(n - 1):
            for q in range(p + 1, n):
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * ap - s * aq, s * ap + c * aq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :], a[q, :] = c * ap - s * aq, s * ap + c * aq
    return time.perf_counter() - start


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Process start to first timed op, in fresh processes: the times scaled
    like an op's (see :func:`run_cycle`), and raw."""
    scaled, raw = [], []
    before = reference_kernel()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True, env=child_env(), check=True)
        raw.append(float(out.stdout.split()[-1]) - start)
        after = reference_kernel()
        scaled.append(raw[-1] * 2.0 * REFERENCE_S / (before + after))
        before = after
    return scaled, raw


def run_cycle(ops, tracer=None, scaled: bool = False):
    """Run one cycle's ops in order.  Returns per-op (value, error, seconds),
    and with ``scaled`` each op's host factor.

    The machine is shared, and its speed swings by up to a factor of two
    within seconds, in phases that last seconds to minutes.  With
    ``scaled``, the reference kernel runs before the first op and after
    every op, untimed, and an op's host factor is ``REFERENCE_S`` over the
    mean of the two reference times around it.  An op's seconds times its
    factor is its time at the reference speed; the swing cancels, the
    program's own cost stays."""
    results, factors = [], []
    before = reference_kernel() if scaled else 0.0
    for op in ops:
        t = time.perf_counter()
        if tracer is None:
            value, error = call(op)
        else:
            with tracer.span("op", op.label):
                value, error = call(op)
        results.append((value, error, time.perf_counter() - t))
        if scaled:
            after = reference_kernel()
            factors.append(2.0 * REFERENCE_S / (before + after))
            before = after
    return results, factors


def call(op):
    try:
        return op.run(), None
    except Exception as exc:  # the oracle decides whether this was expected
        return None, exc


def check_cycle(ops, results, failures: list[str]) -> None:
    for op, (value, error, _) in zip(ops, results):
        try:
            problem = op.check(value, error)
        except Exception as exc:  # an unexpected report shape is a failed op
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.label}: {problem}")


def percentile_group(latencies, groups, q: float) -> str:
    """Which op group holds the sample at quantile ``q``, and the rank span of
    that group, e.g. ``d8 (ranks 26%-61%)``."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    ranked = [groups[i] for i in order]
    g = ranked[min(len(ranked) - 1, int(q * len(ranked)))]
    ranks = [r for r, name in enumerate(ranked) if name == g]
    n = len(ranked)
    return f"{g} (ranks {100 * ranks[0] / n:.0f}%-{100 * (ranks[-1] + 1) / n:.0f}%)"


def probe_known_defects(wl, cycle: int, found: list[str]) -> int:
    """Run the workload's known-defect inputs untimed; their wrong verdicts go
    to ``found``, not to the failures.  Returns how many ran."""
    ops = wl.known_defects(cycle)
    check_cycle(ops, run_cycle(ops)[0], found)
    return len(ops)


def timed_run(args) -> tuple[dict, dict]:
    setups, raw_setups = measure_setup(args)
    wl, ops = set_up(args.workload, args.seed)
    latencies, groups, failures, known = [], [], [], []
    walls, raw_walls, raw_latencies, factors = [], [], [], []
    probed = cycle = 0
    while True:
        results, cycle_factors = run_cycle(ops, scaled=True)
        seconds = [r[2] for r in results]
        raw_walls.append(sum(seconds))
        raw_latencies += seconds
        scaled = [x * f for x, f in zip(seconds, cycle_factors)]
        walls.append(sum(scaled))
        latencies += scaled
        factors += cycle_factors
        groups += [op.group for op in ops]
        check_cycle(ops, results, failures)
        probed += probe_known_defects(wl, cycle, known)
        cycle += 1
        if sum(raw_walls) >= args.seconds and len(latencies) >= MIN_OPS:
            break
        ops = wl.prepare(cycle)

    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    if args.workload == "cli-manifests":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Every cycle holds the same op mix.  The median cycle discounts the
    # cycles the scaling did not fully even out.
    metrics = {
        "ops_per_s": n / cycle / statistics.median(walls),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = {
        "cycles": cycle,
        "ops": n,
        "cycle_s": [round(w, 3) for w in raw_walls],
        "host_factor": "median {:.3f}, range {:.3f}-{:.3f}".format(
            statistics.median(factors), min(factors), max(factors)),
        "unscaled": {
            "ops_per_s": round(n / cycle / statistics.median(raw_walls), 4),
            "latency_p50_ms": round(1e3 * statistics.median(raw_latencies), 4),
            "latency_p90_ms": round(1e3 * statistics.quantiles(raw_latencies, n=10)[8], 4),
            "setup_s": round(statistics.median(raw_setups), 4),
        },
        "samples_above_p90": sum(x > p90 for x in latencies),
        "p50_group": percentile_group(latencies, groups, 0.5),
        "p90_group": percentile_group(latencies, groups, 0.9),
        "error_rate": len(failures) / n,
        "setup_samples_s": setups,
        "known_defects": f"{len(known)} wrong of {probed} untimed probes",
        "known": known,
        "failures": failures,
    }
    return metrics, notes


def child_ms(code: str, importtime: bool = False) -> tuple[float, str]:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]
    start = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), check=True)
    return 1e3 * (time.perf_counter() - start), out.stderr


def import_costs(repeats: int = 5) -> dict[str, float]:
    """``import biframekit`` (numpy already loaded) and its ``app`` share, from
    ``-X importtime``; and the bare cost of a process that loads numpy."""
    pkg, app, startup = [], [], []
    for _ in range(repeats):
        startup.append(child_ms("import numpy")[0])
        _, err = child_ms("import numpy; import biframekit", importtime=True)
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        pkg.append(cumulative.get("biframekit", 0.0))
        app.append(cumulative.get("biframekit.app", 0.0))
    return {
        "import.biframekit_ms": statistics.median(pkg),
        "import.biframekit_app_ms": statistics.median(app),
        "process.startup_ms": statistics.median(startup),
    }


def traced_run(args) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over cycle 0 (rebuilt fresh each
    time, so no object is reused) until ``--seconds`` have passed.  Every
    pass runs the same inputs, so the counts repeat exactly."""
    import tracing

    wl, _ = set_up(args.workload, args.seed)
    wl.in_process = True  # the CLI runs in-process so its layers can be traced
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    failures: list[str] = []
    untraced, traced = [], []
    dominance = indeterminate = 0
    n_ops = passes = 0
    start = time.monotonic()
    try:
        while True:
            ops = wl.prepare(0)
            results, factors = run_cycle(ops, scaled=True)
            untraced.append(sum(r[2] * f for r, f in zip(results, factors)))
            check_cycle(ops, results, failures)

            tracer.active = True
            with tracer.span("prepare"):
                ops = wl.prepare(0)
            results, factors = run_cycle(ops, tracer, scaled=True)
            tracer.active = False
            traced.append(sum(r[2] * f for r, f in zip(results, factors)))
            wl.counters.dominance_violations = wl.counters.indeterminate = 0
            check_cycle(ops, results, failures)
            dominance += wl.counters.dominance_violations
            indeterminate += wl.counters.indeterminate
            n_ops += len(ops)
            passes += 1
            if time.monotonic() - start >= args.seconds:
                break
    finally:
        tracing.uninstall(undo)

    known: list[str] = []
    probed = probe_known_defects(wl, 0, known)

    metrics = tracing.per_layer(tracer.stats(), n_ops)
    metrics["opcalc.dominance_violations"] = dominance / passes
    metrics["quotient.indeterminate_count"] = indeterminate / passes
    metrics["biframe.scale_defects"] = len(known)
    metrics.update(import_costs())
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)

    eig = {}
    for i, span in enumerate(tracer.spans):
        if span[0] in ("op", "linalg.hermitian_eigen"):
            root = tracer.root_op(i)
            if root >= 0:
                label = tracer.labels[root]
                kind = label.split()[0] + (" indefinite" if "indefinite" in label else "")
                calls, ops_ = eig.get(kind, (0, 0))
                eig[kind] = (calls + (span[0] != "op"), ops_ + (span[0] == "op"))
    notes = {
        "passes": passes,
        "ops": 2 * n_ops,
        "traced_ops": n_ops,
        "untraced_pass_s": [round(x, 3) for x in untraced],
        "traced_pass_s": [round(x, 3) for x in traced],
        "eigensolves_per_op_kind": {k: round(c / o, 4) for k, (c, o) in sorted(eig.items())},
        "known_defects": f"{len(known)} wrong of {probed} untimed probes",
        "known": known,
        "failures": failures,
    }
    return metrics, notes


def probe(args) -> int:
    set_up(args.workload, args.seed)
    print(time.monotonic())
    return 0


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            print(f"# {name} exited with {out.returncode}", file=sys.stderr)
            return out.returncode
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def report(args, metrics: dict, notes: dict) -> None:
    failures = notes.pop("failures")
    known = notes.pop("known")
    attempted = notes["ops"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"# env {json.dumps(environment())}")
    if args.trace:
        for name, value in metrics.items():
            print(f"# {name:45s} {value:12.6g}")
    else:
        n = notes["ops"]
        print(f"# ops_per_s      {metrics['ops_per_s']:10.4g} ops/s  "
              f"({n // notes['cycles']} ops per cycle / median of {notes['cycles']} cycle times)")
        print(f"# latency_p50_ms {metrics['latency_p50_ms']:10.4g} ms     "
              f"(n={n}; group {notes['p50_group']})")
        print(f"# latency_p90_ms {metrics['latency_p90_ms']:10.4g} ms     "
              f"(n={n}, {notes['samples_above_p90']} above; group {notes['p90_group']})")
        print(f"# error_rate     {notes['error_rate']:10.4g} ratio  "
              f"({len(failures)} failed / {n} attempted)")
        print(f"# setup_s        {metrics['setup_s']:10.4g} s      "
              f"(median of {SETUP_PROBES}: "
              + ", ".join(f"{s:.3f}" for s in notes['setup_samples_s']) + ")")
        print(f"# peak_rss_mb    {metrics['peak_rss_mb']:10.4g} MB"
              + ("     (largest CLI child process)" if args.workload == "cli-manifests" else ""))
    for key, value in notes.items():
        if key not in ("setup_samples_s", "p50_group", "p90_group", "error_rate"):
            print(f"# {key}: {value}")
    for line in known[:4]:
        print(f"# KNOWN DEFECT {line}")
    if len(known) > 4:
        print(f"# ... {len(known) - 4} more known-defect verdicts")
    for line in failures[:10]:
        print(f"# FAILED {line}")
    if len(failures) > 10:
        print(f"# ... {len(failures) - 10} more failures")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or unit_of(k)} for k, v in metrics.items()},
    }))


def unit_of(name: str) -> str:
    for suffix, unit in (("calls_per_op", "calls/op"), ("ms_per_op", "ms/op"),
                         ("mb_per_s", "MB/s"), ("_per_rule", "calls/rule"),
                         ("_per_command", "calls/cmd"), ("_ms", "ms"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "biframekit" / "__init__.py").is_file():
        print(f"error: no biframekit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    try:
        metrics, notes = traced_run(args) if args.trace else timed_run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report(args, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
