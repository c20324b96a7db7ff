"""Closed-loop benchmark of the jarlskog library and its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 35 --trace 0

One client in one thread with no think time: each op starts as soon as the
previous one returns.  The library is imported from ./src and receives only
inputs generated here from --seed.  Workloads:

    verify-n4     run_suite(4, 4 trials) on consecutive master seeds
    verify-n3     run_suite(3, 8 trials) on consecutive master seeds
    problems-cli  `det --method both` then `phases` on seeded problem files

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
their timings are rescaled to a reference host speed (see PROBE_REF_P5_S).
With --trace 1 it repeats one fixed pass of ops, alternately untraced and
traced, and reports the per-layer metrics; the spans are written to
.bench_out/ at exit.  Every op's output is checked, and at the end op 0 runs
again and must reproduce its first output byte for byte.  The last line of
stdout is the JSON result; the lines before it give the environment record
and every metric by name and unit.  perfbench/baseline.json holds the
figures of the unoptimised library; perfbench/selftest.py checks the
benchmark itself.
"""

import os

# Pin BLAS to one thread before numpy is imported: reconstruct_J's 6x6
# SVD and solve must not start a thread pool in a single-client benchmark.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-n4", "verify-n3", "problems-cli")
#: import/bare interpreter pairs timed for setup_s (after one untimed pair)
SETUP_REPEATS = 7

# The host's speed drifts by 20-50% over minutes with its co-tenants' load,
# and every timing drifts with it.  So each timing is taken next to a probe
# of the host's speed that shares no code with jarlskog, and is reported as
# it would read on a reference host where the probe takes these times (the
# probe's readings on the 2-vCPU Xeon VM the baseline was measured on).
#: 5th / 95th percentile of host_probe() on the reference host
PROBE_REF_P5_S = 0.25e-3
PROBE_REF_P95_S = 0.5e-3
#: start-up time of a bare interpreter (`python -c pass`) on the reference host
BARE_START_REF_S = 0.05


class Stats:
    """Outcome of a sequence of ops."""

    def __init__(self):
        self.latencies = []
        self.probes = []
        self.work = 0
        self.attempted = 0
        self.failed = 0

    def add(self, other):
        """Count other's attempted and failed ops in these totals."""
        self.attempted += other.attempted
        self.failed += other.failed


def execute(workload, i, stats):
    """Run op i, time it, check its output; return the output or None."""
    stats.attempted += 1
    start = time.perf_counter()
    try:
        output = workload.op(i)
    except Exception:
        stats.latencies.append(time.perf_counter() - start)
        stats.failed += 1
        print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None
    stats.latencies.append(time.perf_counter() - start)
    failures = workload.check(i, output)
    if failures:
        stats.failed += 1
        print(f"op {i} failed: " + "; ".join(failures), file=sys.stderr)
    else:
        stats.work += workload.work_per_op
    return output


_PROBE_MATRIX = [[complex(i + 1, (7 * j) % 5) / (i + j + 1) for j in range(4)] for i in range(4)]


def host_probe():
    """Seconds for six 4x4 complex LU factorisations in numpy scalar steps.

    The same kind of work as the library's scalar paths, but none of its
    code: the probe tracks the host's speed, not the program's.
    """
    start = time.perf_counter()
    for _ in range(6):
        a = np.array(_PROBE_MATRIX)
        for k in range(4):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            a[[k, p], :] = a[[p, k], :]
            for i in range(k + 1, 4):
                a[i, k + 1:] -= a[i, k] / a[k, k] * a[k, k + 1:]
    return time.perf_counter() - start


def run_for(workload, seconds):
    """Run ops on consecutive inputs, back to back, for `seconds`, with a
    host probe after each."""
    stats = Stats()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        execute(workload, i, stats)
        stats.probes.append(host_probe())
        i += 1
        if time.perf_counter() >= deadline:
            return stats


def run_pass(workload, stats, tracer=None):
    """Run the workload's fixed pass of inputs once."""
    for i in range(workload.pass_len):
        if tracer is not None:
            tracer.op = len(stats.latencies)
        execute(workload, i, stats)


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure_setup():
    """Start-up cost of a fresh interpreter importing jarlskog.cli.

    Each timed import is paired with the start of a bare interpreter; the
    median import/bare ratio, scaled by BARE_START_REF_S, is the reported
    setup_s.  Returns (setup_s, median raw import time).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def spawn(code):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms and
        # the measured time snaps to that grid
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    ratios, raw = [], []
    for repeat in range(SETUP_REPEATS + 1):
        bare = spawn("pass")
        full = spawn("import jarlskog.cli")
        if repeat:
            ratios.append(full / bare)
            raw.append(full)
    return statistics.median(ratios) * BARE_START_REF_S, statistics.median(raw)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workload):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_size": workload.op_size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def make_workload(name, seed, workdir):
    from workloads import ProblemsWorkload, VerifyWorkload

    if name == "problems-cli":
        return ProblemsWorkload(seed, workdir)
    return VerifyWorkload(int(name[-1]), seed)


def end_to_end(stats, setup):
    """The gated metrics of an untraced run, then the informative ones.

    Op latency on the shared host flips between an uncontended and a
    contended state in bursts of tens of milliseconds, and the share of
    contended time drifts from run to run.  Metrics that mix the two states
    (the mean, hence throughput, and the median) spread by 20-50% between
    runs; the 5th and 95th percentiles sit inside one state each.  Each is
    rescaled by the same percentile of the host probe (see PROBE_REF_P5_S).
    """
    lat, probes = stats.latencies, stats.probes
    setup_s, raw_setup_s = setup
    p5, p95 = percentile(lat, 5), percentile(lat, 95)
    gated = {
        "latency_ms_p5": (p5 * PROBE_REF_P5_S / percentile(probes, 5) * 1e3, "ms"),
        "latency_ms_p95": (p95 * PROBE_REF_P95_S / percentile(probes, 95) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "throughput_per_s": (stats.work / sum(lat), "1/s"),
        "latency_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "raw_latency_ms_p5": (p5 * 1e3, "ms"),
        "raw_latency_ms_p95": (p95 * 1e3, "ms"),
        "raw_setup_s": (raw_setup_s, "s"),
        "probe_us_p5": (percentile(probes, 5) * 1e6, "us"),
        "probe_us_p95": (percentile(probes, 95) * 1e6, "us"),
    }
    return gated, info


def per_layer(workload, args, record):
    """Alternate untraced and traced passes for --seconds; returns (stats, metrics).

    Alternating pass by pass gives both sides the same share of the host's
    load, so their throughput ratio is the tracing overhead.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = Stats(), Stats()
    deadline = time.perf_counter() + args.seconds
    while True:
        run_pass(workload, untraced)
        with tracer.installed():
            run_pass(workload, traced, tracer)
        if time.perf_counter() >= deadline:
            break
    ops = len(traced.latencies)
    metrics = tracer.layer_metrics(ops)
    metrics["tracing.throughput_ratio"] = (
        (traced.work / sum(traced.latencies)) / (untraced.work / sum(untraced.latencies)),
        "ratio",
    )
    record["traced_ops"] = ops
    record["absent_layers"] = tracer.absent
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, **tracer.dump()}, fh, separators=(",", ":"))
    record["trace_file"] = str(trace_path.relative_to(ROOT))
    untraced.add(traced)
    return untraced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jarlskog" / "__init__.py").is_file():
        print(f"error: no jarlskog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"problems-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup() if args.trace == 0 else None
        workload = make_workload(args.workload, args.seed, workdir)
        record = environment(args, workload)

        stats = Stats()
        reference = execute(workload, 0, stats)
        if args.trace == 0:
            timed = run_for(workload, args.seconds)
            metrics, info = end_to_end(timed, setup)
        else:
            timed, metrics = per_layer(workload, args, record)
            info = {}
        stats.add(timed)

        repeat = execute(workload, 0, stats)
        if reference is None or repeat is None or (
                workload.fingerprint(repeat) != workload.fingerprint(reference)):
            stats.failed += 1
            print("determinism: op 0 did not reproduce its first output", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["timed_ops"] = len(timed.latencies)
    record["fail_ratio"] = stats.failed / stats.attempted
    undefined = sorted(name for name, (value, _) in metrics.items() if value is None)
    record["undefined_metrics"] = undefined
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for name, (value, unit) in info.items():
        print(f"{name} {value} {unit} (not gated)")
    print(f"fail_ratio {stats.failed}/{stats.attempted}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
