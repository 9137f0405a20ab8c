"""resetqfi benchmark: four seeded closed-loop workloads, timed end to end
and, in a separate traced run, layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 25 --trace 0

Workloads: grid-sweep, critical-bisect, solver-routes, cli-calls (see
BENCHMARK.json and workloads.py for what each one stresses and why).
The program is imported from ./src of the checkout, never from an
installed copy; without it the benchmark exits with code 2.

--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms,
op_tail_ms and peak_rss_mb, plus failed_ratio as a line of its own.
Their times are scaled to a nominal machine speed by a reference kernel
timed between the operations (calibrate.py); the raw times are printed
next to them.
--trace 1 runs every operation twice, untraced and with spans around
every layer call, prints the per-layer table and metrics (and
trace.overhead_ratio, traced over untraced time for the same
operations), and writes the spans to .perfbench_out/.  The last line
of stdout is always one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import inputs  # standard library only, so safe before BLAS is pinned

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread: every workload has a single caller on 4x4 to 16x16
# matrices, and the limit must hold before numpy is first imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7
CLI_PROBES = 5
# Operations run and checked before the timed loop, so that first-call
# costs (imports inside the program, cold caches) stay out of it.
WARMUP_S = 1.0
# op_tail_ms is the latency with exactly TAIL_BEYOND samples above it, so
# its percentile moves smoothly with the number of operations in a run,
# but at most p95: above it, the tail of the short critical-bisect and
# solver-routes operations is set by the moments when the machine stalls,
# which the time scale cannot follow (run-to-run spread of the scaled
# p99 over 5 seeds: 0.16 on critical-bisect, 0.11 on solver-routes).
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 95.0

LAYER_SPANS = (
    "dynamics.closed_form", "dynamics.density_matrix", "dynamics.superoperator",
    "qlinalg.hermitian_eig", "qlinalg.trace_norm", "qlinalg.partial_transpose",
    "metrology.c_matrix", "metrology.optimal_direction",
    "entanglement.concurrence", "entanglement.negativity",
    "sweep.evaluate_point", "sweep.emit",
)
ROUTES = ("closed_form", "nullspace", "integrate")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="spoil the output of this operation before it is checked "
                             "(self-check of the output checks)")
    parser.add_argument("--dump-inputs", action="store_true",
                        help="print the seeded inputs as JSON and exit")
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """resetqfi from this checkout's src/, with BLAS pinned first."""
    if not os.path.isfile(os.path.join(SRC, "resetqfi", "__init__.py")):
        fail(f"no program to measure: {SRC}/resetqfi is missing")
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import resetqfi

    if os.path.dirname(os.path.dirname(os.path.abspath(resetqfi.__file__))) != SRC:
        fail(f"resetqfi was imported from {resetqfi.__file__}, not from {SRC}")
    return resetqfi


def run_child(command, timeout=120):
    """Run a child process to completion; returns (seconds, stdout, stderr)."""
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        fail(f"{' '.join(command)} exited with {done.returncode}: {done.stderr[-500:]}")
    return elapsed, done.stdout, done.stderr


def measure_setup(workload, seed, speed):
    """Median time from starting a fresh workload process to its first operation.

    Returns (scaled median, raw median); each probe is scaled by the
    kernel samples taken just before and after it.
    """
    probe = [sys.executable, os.path.join(ROOT, "perfbench", "probe.py"), workload, str(seed)]
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(probe, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe failed (exit {proc.returncode})")
        speed.sample()
        scaled.append(times[-1] * speed.scale(start, start + times[-1]))
    return statistics.median(scaled), statistics.median(times)


def measure_cli_parts():
    """Bare interpreter start, fresh `import resetqfi` and its numpy share."""
    def median_of(command):
        return statistics.median(run_child(command)[0] for _ in range(CLI_PROBES))

    interpreter = median_of([sys.executable, "-c", "pass"])
    imported = median_of([sys.executable, "-c", "import resetqfi"])
    numpy_us = []
    for _ in range(CLI_PROBES):
        stderr = run_child([sys.executable, "-X", "importtime", "-c", "import resetqfi"])[2]
        for line in stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_us.append(int(fields[1]))
    return {"cli.interpreter_s": interpreter,
            "cli.import_s": imported - interpreter,
            "cli.import_numpy_s": statistics.median(numpy_us) * 1e-6 if numpy_us else 0.0}


def environment(rq):
    import numpy

    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "resetqfi": rq.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = blas_threads()
    return info


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned value."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return f"{BLAS_THREADS} (pinned by environment)"


class Run:
    """One closed-loop pass over a workload's operations."""

    def __init__(self, workload):
        self.workload = workload
        self.starts = []
        self.latencies = []
        self.raised = 0
        self.unexpected = []
        self.problems = []
        self.wrong = 0
        self.delivered = 0

    def step(self, i, tracer=None, corrupt_op=None):
        """Run, time and check operation i; traced when a tracer is given."""
        wl = self.workload
        if tracer is not None:
            tracer.apply()
            tracer.op_id = i
            root = tracer.open(tracer.name_id(f"op.{wl.name}"))
        start = time.perf_counter()
        try:
            out = wl.op(i)
            error = None
        except Exception as err:  # counted as a failed operation, then the loop goes on
            out, error = None, err
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        if tracer is not None:
            tracer.close(root, failed=error is not None)
            tracer.remove()
        self.latencies.append(elapsed)
        if error is not None:
            self.raised += 1
            if not isinstance(error, wl.expected_errors):
                self.unexpected.append(f"op {i}: {type(error).__name__}: {error}")
        else:
            if i == corrupt_op:
                out = wl.corrupt(out)
            try:
                problems = wl.check(i, out)
            except Exception as err:  # an output the check cannot even read is wrong
                problems = [f"op {i}: check raised {type(err).__name__}: {err}"]
            if problems:
                self.wrong += 1
                self.problems += problems
            else:
                self.delivered += wl.delivered(out)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.raised + self.wrong


def closed_loop(warm, run, seconds, speed, corrupt_op=None):
    """Issue operations one after another: into `warm` for WARMUP_S, then
    into `run` until `seconds` have passed, sampling the kernel between
    operations whenever it is due."""
    i = 0
    for side, span in ((warm, WARMUP_S), (run, seconds)):
        deadline = time.perf_counter() + span
        first = True
        while first or time.perf_counter() < deadline:
            if speed.due():
                speed.sample()
            side.step(i, corrupt_op=corrupt_op)
            i += 1
            first = False
    speed.sample()


def tail(latencies, max_percentile=TAIL_MAX_PERCENTILE):
    """The highest percentile up to max_percentile with TAIL_BEYOND samples above it.

    Returns (percentile, seconds, samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else (n - 1) // 2
    rank = min(rank, math.ceil(round(max_percentile / 100.0 * n, 9)) - 1)  # nearest rank
    return 100.0 * (rank + 1) / n, ordered[rank], n - 1 - rank


def end_to_end(run, setup, peak_rss_kb, speed):
    """The end-to-end metrics from the scaled latencies; raw ones are printed too."""
    scaled = [elapsed * speed.scale(start, start + elapsed)
              for start, elapsed in zip(run.starts, run.latencies)]

    def timing(latencies):
        return ((run.attempted - run.failed) / sum(latencies), statistics.median(latencies) * 1e3,
                tail(latencies)[1] * 1e3)

    pct, _, beyond = tail(scaled)
    top_pct, top_s, _ = tail(scaled, 100.0)
    ops_per_s, p50_ms, tail_ms = timing(scaled)
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    raw = dict(zip(("ops_per_s", "op_p50_ms", "op_tail_ms"), timing(run.latencies)),
               setup_s=setup[1])
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes: interpreter, import resetqfi, "
                   "seeded inputs",
        "ops_per_s": f"{run.attempted - run.failed} completed of {run.attempted} attempted in "
                     f"{sum(scaled):.3f} s (scaled) inside operations",
        "op_p50_ms": f"median of {run.attempted} operations",
        "op_tail_ms": f"p{pct:.2f} of {run.attempted} operations, {beyond} beyond it "
                      f"(uncapped: p{top_pct:.2f} {top_s * 1e3:.3f} ms, {TAIL_BEYOND} beyond)",
        "peak_rss_mb": "largest resident set of one workload process",
    }
    lines = [f"  {speed.describe()}"]
    lines += [f"  {name:<14}{value:>14.6f} {unit:<6} "
              + (f"(raw {raw[name]:.6f}) " if name in raw else "") + notes[name]
              for name, (value, unit) in metrics.items()]
    lines.append(f"  {'failed_ratio':<14}{run.failed / run.attempted:>14.6f} {'ratio':<6} "
                 f"{run.failed} of {run.attempted}: {run.raised} raised, "
                 f"{run.wrong} gave a wrong output")
    return metrics, "\n".join(lines)


def per_layer(tracer, traced, untraced, cli_parts, defect):
    totals = tracer.layer_totals()

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = (total(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (total(name, "self_s"), "s")
    for route in ROUTES:
        name = f"dynamics.steady_state.{route}"
        metrics[f"{name}.calls"] = (total(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (total(name, "self_s"), "s")
        metrics[f"{name}.failed"] = (total(name, "failed"), "count")
    metrics["dynamics.steady_state.integrate.defect_points"] = (defect[0], "count")
    for name in ("metrology.mean_qfi_max", "sweep.run_sweep", "sweep.find_critical_point"):
        metrics[f"{name}.self_s"] = (total(name, "self_s"), "s")
    points = total("sweep.evaluate_point", "calls")
    searches = total("sweep.find_critical_point", "calls")
    computed = total("entanglement.concurrence", "calls") + total("entanglement.negativity", "calls")
    metrics["qlinalg.eigensolves_per_point"] = (
        tracer.counts["numpy.linalg.eigensolves"] / points if points else 0.0, "count/point")
    metrics["sweep.find_critical_point.evals_per_search"] = (
        tracer.calls_under("sweep.evaluate_point", "sweep.find_critical_point") / searches
        if searches else 0.0, "count/search")
    metrics["entanglement.useful_ratio"] = (traced.delivered / computed if computed else 0.0, "ratio")
    metrics["sweep.emit.bytes"] = (tracer.counts["sweep.emit.bytes"], "B")
    for name, value in cli_parts.items():
        metrics[name] = (value, "s")
    # what a call spends in resetqfi.cli.main, after interpreter start and import
    metrics["cli.work_s"] = (total("cli.main", "total_s") / max(1, total("cli.main", "calls")), "s")
    metrics["trace.ops"] = (traced.attempted, "count")
    metrics["trace.overhead_ratio"] = (sum(traced.latencies) / sum(untraced.latencies), "ratio")
    return metrics, totals


def integrate_defect(wl):
    """Count, on solver-routes, the known integrate defect outside the timed points."""
    if not hasattr(wl, "integrate_defect"):
        return 0, 0
    failed, tried, seconds = wl.integrate_defect()
    print(f"  integrate defect: {failed} of {tried} points of [1e-3, 1e2]^3 raise "
          f"NoConvergenceError ({failed / tried:.6f}; untimed, {seconds:.2f} s, "
          "not counted as operations)")
    return failed, tried


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    rq = import_program()
    import calibrate
    import workloads

    if args.dump_inputs:
        print(json.dumps(inputs.build(args.workload, args.seed), sort_keys=True))
        return 0

    speed = calibrate.Speed()
    setup = measure_setup(args.workload, args.seed, speed)
    env = environment(rq)
    cls = workloads.CLASSES[args.workload]
    wl = cls(rq, args.seed, ROOT) if cls is workloads.CliCalls else cls(rq, args.seed)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        warm, run = Run(wl), Run(wl)
        closed_loop(warm, run, args.seconds, speed, corrupt_op=args.corrupt_op)
        runs = [warm, run]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if cls is workloads.CliCalls:
            peak_kb = wl.peak_child_rss_kb
        metrics, report = end_to_end(run, setup, peak_kb, speed)
        print(report)
        integrate_defect(wl)
    else:
        from tracer import Tracer, format_table

        tracer = Tracer()
        tracer.prepare(rq)
        if cls is workloads.CliCalls:
            wl.tracer = tracer
        untraced, run = Run(wl), Run(wl)
        # Each operation runs twice, untraced and traced, in alternating
        # order, so that drift in machine speed cancels out of the ratio.
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            pair = ((untraced, None), (run, tracer))
            for side, side_tracer in (pair if i % 2 == 0 else pair[::-1]):
                side.step(i, side_tracer, args.corrupt_op)
            i += 1
        runs = [untraced, run]
        defect = integrate_defect(wl)
        cli_parts = measure_cli_parts()
        metrics, totals = per_layer(tracer, run, untraced, cli_parts, defect)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")  # latest run only
        tracer.write_spans(spans_path)
        print(format_table(totals))
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}")
        for name, (value, unit) in metrics.items():
            shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
            print(f"  {name:<48}{shown} {unit}")

    problems = [p for r in runs for p in r.unexpected + r.problems]
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
