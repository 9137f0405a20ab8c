"""Seeded inputs for the four benchmark workloads.

Standard library only, so that the set-up probe times the program's own
import and not the benchmark's.  The same seed always gives the same
inputs; the program only ever sees the values built here.
"""

import random

WORKLOADS = ("grid-sweep", "critical-bisect", "solver-routes", "cli-calls")

GRID_STEPS = 1000      # points per run_sweep call
GRID_SPECS = 32        # distinct sweeps cycled through by grid-sweep
CRITICAL_SPECS = 512   # distinct brackets cycled through by critical-bisect
SOLVER_POINTS = 4096   # distinct points cycled through by solver-routes
# The timed solver-routes points lie in a box where both routes converge:
# r in [SOLVER_R_MIN, SOLVER_RATE_MAX], gamma and g in [1e-3, SOLVER_RATE_MAX].
# The integrate route fails in two corners of [1e-3, 1e2]^3: slow
# relaxation (stiffness max(r, gamma, 4g, 1) / r above about 7000; here it
# stays below 400), and large rates (r and g both above about 50, where its
# absolute residual test 1e-12 meets rounding).
SOLVER_R_MIN = 0.1
SOLVER_RATE_MAX = 10.0
# Points of the whole cube [1e-3, 1e2]^3 on which the known integrate
# defect (NoConvergenceError for slow relaxation) is counted, untimed.
DEFECT_POINTS = 512
CLI_CALLS = 48         # distinct invocations cycled through by cli-calls
CLI_SWEEP_STEPS = 201

# find_critical_point halves its bracket until it is narrower than 1e-4.
# Every bracket width lies in (2**14, 2**15] * 1e-4, so each search takes
# exactly 15 halvings plus its two end points: 17 evaluations.
BRACKET_MIN = 1.8
BRACKET_MAX = 3.2
# The crossing sits at kappa * g_ratio * gamma in r, with kappa between
# 0.918 and 0.937 over g_ratio in [2, 10]; brackets are placed around
# this estimate with at least 30 % of their width on either side.
CROSSING_KAPPA = 0.93


def _log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def _radical_inverse(index, base):
    """Van der Corput radical inverse of index in the given base."""
    scale, value = 1.0, 0.0
    while index:
        scale /= base
        value += scale * (index % base)
        index //= base
    return value


def _grid_spec(rng, vary, steps):
    """One sweep around the paper's reference points, g_ratio near 5.

    Varying r holds gamma near 0.5; varying gamma holds r near 1 or 14.
    """
    g_ratio = rng.uniform(3.0, 7.0)
    if vary == "r":
        return {"vary": "r", "start": _log_uniform(rng, 0.01, 0.1),
                "stop": rng.uniform(10.0, 20.0), "steps": steps,
                "fixed_gamma": _log_uniform(rng, 0.2, 1.0), "g_ratio": g_ratio}
    fixed_r = _log_uniform(rng, 0.5, 2.0) * (1.0 if rng.random() < 0.5 else 14.0)
    return {"vary": "gamma", "start": _log_uniform(rng, 0.005, 0.02),
            "stop": rng.uniform(2.0, 4.0), "steps": steps,
            "fixed_r": fixed_r, "g_ratio": g_ratio}


def grid_specs(seed):
    """Sweeps of GRID_STEPS points, alternately varying r and gamma."""
    rng = random.Random(f"grid-sweep/{seed}")
    return [_grid_spec(rng, ("r", "gamma")[k % 2], GRID_STEPS) for k in range(GRID_SPECS)]


def _bracket(rng, estimate):
    width = rng.uniform(BRACKET_MIN, BRACKET_MAX)
    lo = estimate - rng.uniform(0.3, 0.7) * width
    return lo, lo + width


def critical_specs(seed, count=CRITICAL_SPECS):
    """Brackets around the axis flip, alternately in r and in gamma.

    The estimated crossing lies in [2.6, 30] for r and in [2.8, 5] for
    gamma, which keeps every bracket above zero and keeps the estimate's
    error (at most 1.3 %) well inside the bracket.
    """
    rng = random.Random(f"critical-bisect/{seed}")
    specs = []
    for k in range(count):
        g_ratio = rng.uniform(2.0, 10.0)
        if k % 2 == 0:
            gamma = _log_uniform(rng, 2.8 / g_ratio, min(5.0, 32.0 / g_ratio))
            lo, hi = _bracket(rng, CROSSING_KAPPA * g_ratio * gamma)
            specs.append({"vary": "r", "start": lo, "stop": hi, "steps": 2,
                          "fixed_gamma": gamma, "g_ratio": g_ratio})
        else:
            gamma_c = rng.uniform(2.8, 5.0)
            lo, hi = _bracket(rng, gamma_c)
            specs.append({"vary": "gamma", "start": lo, "stop": hi, "steps": 2,
                          "fixed_r": CROSSING_KAPPA * g_ratio * gamma_c, "g_ratio": g_ratio})
    return specs


def _halton_box(rng, count, r_min, high):
    """(r, gamma, g) log-uniform, r over [r_min, high], gamma and g over [1e-3, high].

    A randomly shifted Halton sequence: each point is log-uniform on its
    own, and the first N points cover the box evenly for every seed, so
    the rare slow points come in nearly the same proportion in every run.
    """
    shift = [rng.random() for _ in range(3)]
    lows = (r_min, 1e-3, 1e-3)
    points = []
    for index in range(1, count + 1):
        u = [(_radical_inverse(index, base) + s) % 1.0 for base, s in zip((2, 3, 5), shift)]
        points.append(tuple(lo * (high / lo) ** x for lo, x in zip(lows, u)))
    return points


def solver_points(seed):
    """The timed solver-routes points, where both routes converge."""
    return _halton_box(random.Random(f"solver-routes/{seed}"), SOLVER_POINTS, SOLVER_R_MIN,
                       SOLVER_RATE_MAX)


def defect_points(seed):
    """Points of the whole cube [1e-3, 1e2]^3 for the integrate defect count."""
    return _halton_box(random.Random(f"solver-routes/defect/{seed}"), DEFECT_POINTS, 1e-3, 1e2)


def cli_calls(seed):
    """Argument lists for `python -m resetqfi`, cycling eval, sweep, critical."""
    rng = random.Random(f"cli-calls/{seed}")
    brackets = critical_specs(seed, count=CLI_CALLS)
    calls = []
    for k in range(CLI_CALLS):
        kind = ("eval", "sweep", "critical")[k % 3]
        if kind == "eval":
            argv = ["eval", "--r", repr(_log_uniform(rng, 0.05, 20.0)),
                    "--gamma", repr(_log_uniform(rng, 0.01, 2.0)),
                    "--g", repr(_log_uniform(rng, 0.05, 10.0))]
        elif kind == "sweep":
            spec = _grid_spec(rng, ("r", "gamma")[(k // 3) % 2], CLI_SWEEP_STEPS)
            fixed = (["--gamma", repr(spec["fixed_gamma"])] if spec["vary"] == "r"
                     else ["--r", repr(spec["fixed_r"])])
            argv = ["sweep", "--vary", spec["vary"], "--from", repr(spec["start"]),
                    "--to", repr(spec["stop"]), "--steps", str(spec["steps"]),
                    *fixed, "--g-ratio", repr(spec["g_ratio"])]
        else:
            spec = brackets[k]
            fixed = (["--gamma", repr(spec["fixed_gamma"])] if spec["vary"] == "r"
                     else ["--r", repr(spec["fixed_r"])])
            argv = ["critical", "--vary", spec["vary"], "--lo", repr(spec["start"]),
                    "--hi", repr(spec["stop"]), *fixed, "--g-ratio", repr(spec["g_ratio"])]
        calls.append(argv)
    return calls


BUILDERS = {
    "grid-sweep": grid_specs,
    "critical-bisect": critical_specs,
    "solver-routes": solver_points,
    "cli-calls": cli_calls,
}


def build(workload, seed):
    return BUILDERS[workload](seed)
