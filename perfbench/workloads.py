"""The four workloads: one operation each, and the check of its output.

Every workload is a closed loop with a single caller: the next operation
is issued only after the previous one returned and was checked.  A
workload object holds the seeded inputs; `op(i)` runs operation i (the
inputs are cycled), `check(i, out)` returns a list of problems (empty
when the output is right), `delivered(out)` counts the entanglement
values that reach the operation's output, and `corrupt(out)` spoils an
output on purpose for the self-check.
"""

import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout

import numpy as np

import inputs
from cli_child import SPANS_MARKER

FIELDS = ("r", "gamma", "g", "mean_qfi", "lambda_x", "lambda_yz_hi", "lambda_yz_lo",
          "concurrence", "negativity", "opt_nx", "opt_ny", "opt_nz")
SCALARS = FIELDS[3:9]
# Agreement of a route with the closed form, on the scalar figures of merit.
# Routes agree to about 1e-9 on [1e-3, 1e2]^3; CSV values carry 9 digits.
ROUTE_TOL = 1e-7
CSV_TOL = 1e-7
# The optimal axis is compared only where it is well defined: the top
# eigenvalue of C must clear the next one by this much.  It is compared
# up to sign, because the sign convention keys on the first component
# above 1e-12, and a component that is zero in the closed form comes out
# near 1e-11 from the other routes.
AXIS_GAP = 1e-6
GRID_SAMPLE = 8  # rows per sweep re-derived through the nullspace route
CLI_TIMEOUT_S = 120


def _axis_problems(got, ref, gap_values, where):
    top, second = sorted(gap_values)[-1], sorted(gap_values)[-2]
    if top - second < AXIS_GAP:
        return []
    dot = sum(a * b for a, b in zip(got, ref))
    if abs(dot) < 1.0 - 1e-6:
        return [f"{where}: optimal axis {got} differs from {ref}"]
    return []


def _row_problems(got, ref, tol, where):
    """Compare two field->value mappings on the figures of merit and axis."""
    problems = [f"{where}: {name} = {got[name]!r}, expected {ref[name]!r}"
                for name in SCALARS if not abs(got[name] - ref[name]) <= tol]
    problems += _axis_problems([got["opt_nx"], got["opt_ny"], got["opt_nz"]],
                               [ref["opt_nx"], ref["opt_ny"], ref["opt_nz"]],
                               [ref["lambda_x"], ref["lambda_yz_hi"], ref["lambda_yz_lo"]], where)
    return problems


def _invariant_problems(row, where):
    problems = []
    if not -1e-9 <= row["mean_qfi"] <= 2.0 + 1e-9:
        problems.append(f"{where}: mean_qfi {row['mean_qfi']} outside [0, 2]")
    if not row["lambda_yz_lo"] <= row["lambda_yz_hi"]:
        problems.append(f"{where}: lambda_yz_lo above lambda_yz_hi")
    if not 2.0 * row["negativity"] <= row["concurrence"] + 1e-8:
        problems.append(f"{where}: 2*negativity above concurrence")
    return problems


def parse_rows(text):
    """Sweep rows from CSV text, read with the standard library only."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != FIELDS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for record in reader:
        if len(record) != len(FIELDS):
            raise ValueError(f"row with {len(record)} fields: {record}")
        rows.append(dict(zip(FIELDS, map(float, record))))
    return rows


class Workload:
    name = ""
    # typed solver errors that are known failures of this workload rather than bugs
    expected_errors = ()

    def __init__(self, rq, seed):
        self.rq = rq
        self.seed = seed
        self.inputs = inputs.build(self.name, seed)

    def spec(self, i):
        return self.rq.SweepSpec(**self.inputs[i % len(self.inputs)])

    def delivered(self, out):
        return 0


class GridSweep(Workload):
    """run_sweep over GRID_STEPS points, then emit to CSV in memory."""

    name = "grid-sweep"

    def op(self, i):
        rows = self.rq.run_sweep(self.spec(i))
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            self.rq.emit(rows, "csv")
        return buffer.getvalue()

    def check(self, i, text):
        spec = self.spec(i)
        try:
            rows = parse_rows(text)
        except ValueError as err:
            return [f"op {i}: {err}"]
        if len(rows) != spec.steps:
            return [f"op {i}: {len(rows)} rows, expected {spec.steps}"]
        grid = np.linspace(spec.start, spec.stop, spec.steps)
        problems = []
        for j, row in enumerate(rows):
            if not math.isclose(row[spec.vary], grid[j], rel_tol=1e-8, abs_tol=1e-12):
                problems.append(f"op {i} row {j}: {spec.vary} = {row[spec.vary]}, expected {grid[j]}")
            problems += _invariant_problems(row, f"op {i} row {j}")
        for j in random.Random(f"{self.seed}/{i}").sample(range(spec.steps), GRID_SAMPLE):
            ref = self.rq.evaluate_point(spec.params_at(grid[j]), "nullspace")
            problems += _row_problems(rows[j], ref.to_dict(), CSV_TOL, f"op {i} row {j} vs nullspace")
        return problems

    def delivered(self, text):
        return 2 * (text.count("\n") - 1)

    def corrupt(self, text):
        lines = text.split("\n")
        for k in range(1, len(lines) - 1):
            fields = lines[k].split(",")
            fields[3] = f"{float(fields[3]) + 0.01:.9g}"
            lines[k] = ",".join(fields)
        return "\n".join(lines)


class CriticalBisect(Workload):
    """find_critical_point on a bracket around the axis flip."""

    name = "critical-bisect"

    def op(self, i):
        return self.rq.find_critical_point(self.spec(i))

    def _gap(self, spec, value):
        row = self.rq.evaluate_point(spec.params_at(value))
        return row.lambda_x - row.lambda_yz_hi

    def check(self, i, point):
        spec = self.spec(i)
        where = f"op {i}"
        if point.vary != spec.vary or not spec.start <= point.value <= spec.stop:
            return [f"{where}: {point} outside the bracket [{spec.start}, {spec.stop}]"]
        if not 0.0 < point.bracket_width <= 0.5 * self.rq.sweep.CRITICAL_BRACKET_WIDTH:
            return [f"{where}: bracket width {point.bracket_width}"]
        lo, hi = point.value - point.bracket_width, point.value + point.bracket_width
        if self._gap(spec, lo) * self._gap(spec, hi) > 0.0:
            return [f"{where}: lambda_x - lambda_yz_hi keeps its sign on [{lo}, {hi}]"]
        return []

    def corrupt(self, point):
        return dataclasses.replace(point, value=point.value + 100.0 * point.bracket_width)


class SolverRoutes(Workload):
    """evaluate_point by the nullspace and integrate routes, alternating.

    Operations 2k and 2k+1 evaluate the same point, by nullspace and by
    integrate respectively.  The points lie in the box of
    inputs.solver_points, where both routes converge; the integrate
    defect outside it is counted by integrate_defect().
    """

    name = "solver-routes"
    METHODS = ("nullspace", "integrate")

    def __init__(self, rq, seed):
        super().__init__(rq, seed)
        self.expected_errors = (rq.DegenerateSteadyStateError, rq.NoConvergenceError)

    def params(self, i):
        return self.rq.ModelParams(*self.inputs[(i // 2) % len(self.inputs)])

    def op(self, i):
        return self.rq.evaluate_point(self.params(i), self.METHODS[i % 2])

    def check(self, i, row):
        ref = self.rq.evaluate_point(self.params(i))
        return _row_problems(row.to_dict(), ref.to_dict(), ROUTE_TOL,
                             f"op {i} ({self.METHODS[i % 2]}) vs closed form")

    def delivered(self, row):
        return 2

    def corrupt(self, row):
        return dataclasses.replace(row, mean_qfi=row.mean_qfi + 0.01)

    def integrate_defect(self):
        """Points of the whole cube where the integrate route raises
        NoConvergenceError: (count, points tried, seconds).  Untimed, and
        not operations of the workload: the timed points avoid this region."""
        points = inputs.defect_points(self.seed)
        start = time.perf_counter()
        failed = 0
        for point in points:
            try:
                self.rq.steady_state(self.rq.ModelParams(*point), "integrate")
            except self.rq.NoConvergenceError:
                failed += 1
        return failed, len(points), time.perf_counter() - start


class CliCalls(Workload):
    """One `python -m resetqfi` process per operation, run to completion.

    While a tracer is applied, the process runs cli_child.py instead,
    which records spans inside the program; they are merged under this
    call's span.
    """

    name = "cli-calls"

    def __init__(self, rq, seed, root):
        super().__init__(rq, seed)
        self.root = root
        self.tracer = None  # set by a traced run
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_child_rss_kb = 0
        self._expected = {}

    def op(self, i):
        argv = self.inputs[i % len(self.inputs)]
        traced = self.tracer is not None and self.tracer.active
        if not traced:
            command = [sys.executable, "-m", "resetqfi", *argv]
        else:
            command = [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"), *argv]
            sid = self.tracer.open(self.tracer.name_id("cli.process"))
        proc = subprocess.Popen(command, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        stderr_chunks = []
        reader = threading.Thread(target=lambda: stderr_chunks.append(proc.stderr.read()))
        watchdog.start()
        reader.start()
        try:
            stdout = proc.stdout.read()
            reader.join()
            # reaped here rather than by Popen, to read this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        stderr = stderr_chunks[0]
        if traced:
            self.tracer.close(sid, failed=proc.returncode != 0)
            stderr = self._merge_spans(stderr, sid)
        return proc.returncode, stdout, stderr

    def _merge_spans(self, stderr, sid):
        text = stderr.decode("utf-8", "replace")
        head, marker, dump = text.rpartition(SPANS_MARKER)
        if marker:
            self.tracer.ingest(json.loads(dump), sid)
            text = head.rstrip("\n")
        return text.encode()

    def expected(self, argv):
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = self._in_process(argv)
        return self._expected[key]

    def _in_process(self, argv):
        kind, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
        rq = self.rq
        number = {k: float(v) for k, v in flags.items() if k != "--vary"}
        if kind == "eval":
            payload = [rq.evaluate_point(rq.ModelParams(r=number["--r"], gamma=number["--gamma"],
                                                        g=number["--g"]))]
        else:
            vary = flags["--vary"]
            bounds = (("--from", "--to") if kind == "sweep" else ("--lo", "--hi"))
            spec = rq.SweepSpec(
                vary=vary, start=number[bounds[0]], stop=number[bounds[1]],
                steps=int(flags["--steps"]) if kind == "sweep" else 2,
                fixed_r=number.get("--r"), fixed_gamma=number.get("--gamma"),
                g_ratio=number["--g-ratio"])
            payload = rq.run_sweep(spec) if kind == "sweep" else rq.find_critical_point(spec)
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            rq.emit(payload, "csv")
        return buffer.getvalue().encode("ascii")

    def check(self, i, out):
        returncode, stdout, stderr = out
        argv = self.inputs[i % len(self.inputs)]
        if returncode != 0 or stderr.strip():
            return [f"op {i}: exit {returncode}, stderr {stderr[-300:]!r}"]
        if stdout != self.expected(argv):
            return [f"op {i}: stdout of {' '.join(argv)} differs from in-process emit"]
        return []

    def delivered(self, out):
        stdout = out[1]
        if not stdout.startswith(b"r,gamma,g,"):
            return 0
        return 2 * (stdout.count(b"\n") - 1)

    def corrupt(self, out):
        returncode, stdout, stderr = out
        return returncode, stdout.replace(b",", b";", 1), stderr


CLASSES = {cls.name: cls for cls in (GridSweep, CriticalBisect, SolverRoutes, CliCalls)}
