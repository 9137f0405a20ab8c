"""Acceptance gate: every exit criterion, one test and one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines; any FAIL also fails the corresponding test.
"""

import csv
import io

import numpy as np

from resetqfi import (
    DegenerateSteadyStateError,
    DensityMatrix,
    Direction,
    ModelParams,
    SweepSpec,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    c_matrix,
    closed_form_steady_state,
    concurrence,
    find_critical_point,
    kron,
    liouvillian_apply,
    mean_qfi_max,
    negativity,
    optimal_direction,
    qfi_direction,
    qfi_pure,
    rotate,
    run_sweep,
    steady_state,
)
from resetqfi.cli import EXIT_OK, main

POINT_A = ModelParams(r=14.0, gamma=0.5, g=2.5)
POINT_B = ModelParams(r=1.0, gamma=0.01, g=0.05)
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _verdict(number, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {status}: {description}")
    assert not failures, f"criterion {number} ({description}): " + "; ".join(failures)


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return Direction(*(v / np.linalg.norm(v)))


def _vector(direction):
    return np.array([direction.nx, direction.ny, direction.nz])


def _axis_kind(direction):
    if abs(abs(direction.nx) - 1.0) <= 1e-6:
        return "x"
    if (abs(direction.nx) <= 1e-6
            and abs(abs(direction.ny) - INV_SQRT2) <= 1e-6
            and abs(abs(direction.nz) - INV_SQRT2) <= 1e-6):
        return "yz"
    return "other"


def test_criterion_1_strong_reset_reference_point():
    failures = []
    rho = closed_form_steady_state(POINT_A)
    result = mean_qfi_max(rho)
    _expect(failures, abs(result.mean_f - 1.00226) <= 5e-3,
            f"mean QFI {result.mean_f:.6f} != 1.00226 (5e-3)")
    _expect(failures, abs(concurrence(rho) - 0.0992486) <= 5e-4,
            f"concurrence {concurrence(rho):.7f} != 0.0992486 (5e-4)")
    _expect(failures, abs(negativity(rho) - 0.0496243) <= 5e-4,
            f"negativity {negativity(rho):.7f} != 0.0496243 (5e-4)")
    _verdict(1, "r=14, gamma=0.5, g=2.5 reproduces the reference figures of merit", failures)


def test_criterion_2_weak_rates_reference_point():
    failures = []
    rho = closed_form_steady_state(POINT_B)
    result = mean_qfi_max(rho)
    _expect(failures, abs(result.mean_f - 1.02124) <= 5e-3,
            f"mean QFI {result.mean_f:.6f} != 1.02124 (5e-3)")
    _expect(failures, abs(concurrence(rho) - 0.0367627) <= 5e-4,
            f"concurrence {concurrence(rho):.7f} != 0.0367627 (5e-4)")
    _expect(failures, abs(negativity(rho) - 0.0183813) <= 5e-4,
            f"negativity {negativity(rho):.7f} != 0.0183813 (5e-4)")
    _verdict(2, "r=1, gamma=0.01, g=0.05 reproduces the reference figures of merit", failures)


def test_criterion_3_critical_points_and_axis_flip():
    failures = []
    spec_r = SweepSpec(vary="r", start=0.5, stop=8.0, steps=2,
                       fixed_gamma=0.5, g_ratio=5.0)
    crit_r = find_critical_point(spec_r)
    _expect(failures, abs(crit_r.value - 2.3) <= 0.1,
            f"reset-rate crossing {crit_r.value:.4f} != 2.3 (0.1)")
    _expect(failures, crit_r.bracket_width <= 1e-4,
            f"bracket width {crit_r.bracket_width:.2e} above 1e-4")

    spec_g = SweepSpec(vary="gamma", start=0.01, stop=3.0, steps=2,
                       fixed_r=1.0, g_ratio=5.0)
    crit_g = find_critical_point(spec_g)
    _expect(failures, abs(crit_g.value - 0.214) <= 0.01,
            f"dephasing crossing {crit_g.value:.4f} != 0.214 (0.01)")

    def best_axis(params):
        return optimal_direction(c_matrix(closed_form_steady_state(params)))

    below_r = _axis_kind(best_axis(ModelParams(r=crit_r.value - 0.5, gamma=0.5, g=2.5)))
    above_r = _axis_kind(best_axis(ModelParams(r=crit_r.value + 0.5, gamma=0.5, g=2.5)))
    _expect(failures, below_r == "x", f"axis below the r crossing is {below_r}, not x")
    _expect(failures, above_r == "yz", f"axis above the r crossing is {above_r}, not yz")

    gamma_lo = crit_g.value - 0.05
    gamma_hi = crit_g.value + 0.05
    below_g = _axis_kind(best_axis(ModelParams(r=1.0, gamma=gamma_lo, g=5.0 * gamma_lo)))
    above_g = _axis_kind(best_axis(ModelParams(r=1.0, gamma=gamma_hi, g=5.0 * gamma_hi)))
    _expect(failures, below_g == "yz", f"axis below the gamma crossing is {below_g}, not yz")
    _expect(failures, above_g == "x", f"axis above the gamma crossing is {above_g}, not x")
    _verdict(3, "axis-flip crossings sit at r=2.3(1) and gamma=0.214(10)", failures)


def test_criterion_4_closed_form_is_stationary_on_grid(grid):
    failures = []
    worst = 0.0
    for params in grid:
        residual = np.abs(liouvillian_apply(params, closed_form_steady_state(params).mat)).max()
        worst = max(worst, residual)
    _expect(failures, worst <= 1e-10, f"worst residual {worst:.3e} above 1e-10")
    _verdict(4, f"closed form annihilated by the generator on the grid (worst {worst:.1e})",
             failures)


def test_criterion_5_steady_state_routes_agree(grid):
    failures = []
    worst = 0.0
    for params in grid:
        mats = [steady_state(params, method).mat
                for method in ("closed_form", "nullspace", "integrate")]
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, float(np.abs(mats[i] - mats[j]).max()))
    _expect(failures, worst <= 1e-8, f"worst pairwise deviation {worst:.3e} above 1e-8")
    try:
        steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5), "nullspace")
        _expect(failures, False, "nullspace accepted the degenerate r = 0 kernel")
    except DegenerateSteadyStateError:
        pass
    _verdict(5, f"three routes agree on the grid (worst {worst:.1e}) and r=0 is rejected",
             failures)


def test_criterion_6_reset_rate_limits():
    failures = []
    no_reset = mean_qfi_max(closed_form_steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5)))
    _expect(failures, abs(no_reset.mean_f) <= 1e-9,
            f"mean QFI at r=0 is {no_reset.mean_f:.2e}, not 0")

    # the strong-reset limit of the steady state is the product |++> state
    plus_plus = np.full(4, 0.5, dtype=complex)
    oracle = max(qfi_pure(plus_plus, axis) for axis in (X_AXIS, Y_AXIS, Z_AXIS)) / 2.0
    spec = SweepSpec(vary="r", start=100.0, stop=2000.0, steps=5,
                     fixed_gamma=0.5, g_ratio=5.0)
    means = [row.mean_qfi for row in run_sweep(spec)]
    tail = means[-1]
    _expect(failures, all(a > b for a, b in zip(means, means[1:])),
            f"means {means} are not decreasing toward the limit")
    _expect(failures, abs(tail - oracle) <= 1e-3,
            f"mean QFI at r=2000 is {tail:.6f}, oracle {oracle}")
    print(f"[criterion 6 note] strong-reset limit keeps mean QFI at {tail:.6f} -> "
          f"{oracle:.1f} (sensitivity does not vanish)")
    _verdict(6, "no sensitivity without reset; strong reset tends to the product oracle 1",
             failures)


def test_criterion_7_property_battery(grid):
    rng = np.random.default_rng(51)
    failures = []

    # quadratic form: n.Cn equals the directional QFI
    for params in (POINT_A, POINT_B):
        rho = closed_form_steady_state(params)
        c = c_matrix(rho)
        worst = max(abs(_vector(d) @ c @ _vector(d) - qfi_direction(rho, d))
                    for d in (_unit(rng.normal(size=3)) for _ in range(100)))
        _expect(failures, worst <= 1e-9, f"quadratic form off by {worst:.2e} at r={params.r}")

    # pure states: spectral formula reduces to four times the variance
    worst = 0.0
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        d = _unit(rng.normal(size=3))
        dense = qfi_direction(DensityMatrix(np.outer(psi, psi.conj())), d)
        worst = max(worst, abs(dense - qfi_pure(psi, d)))
    _expect(failures, worst <= 1e-8, f"pure-state agreement off by {worst:.2e}")

    # bounds and moment-matrix block structure across the grid
    for params in grid:
        rho = closed_form_steady_state(params)
        result = mean_qfi_max(rho)
        _expect(failures, -1e-9 <= result.mean_f <= 2.0 + 1e-9,
                f"mean QFI {result.mean_f} outside [0, 2] at r={params.r}")
        c = result.c
        block_defect = max(abs(c[0, 1]), abs(c[0, 2]), abs(c[1, 1] - c[2, 2]))
        _expect(failures, block_defect <= 1e-9,
                f"block structure broken by {block_defect:.2e} at r={params.r}")

    # rotations generated by J_n leave the QFI along n unchanged
    rho = closed_form_steady_state(POINT_A)
    for d in (X_AXIS, _unit([0.0, 1.0, 1.0]), _unit(rng.normal(size=3))):
        before = qfi_direction(rho, d)
        for phi in (0.7, 2.1):
            after = qfi_direction(rotate(rho, d, phi), d)
            _expect(failures, abs(after - before) <= 1e-9,
                    f"rotation changed the QFI by {abs(after - before):.2e}")

    # entanglement measures are local-unitary invariants
    base_c, base_n = concurrence(rho), negativity(rho)
    for _ in range(10):
        locals_ = []
        for _ in range(2):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, rr = np.linalg.qr(z)
            locals_.append(q * (np.diag(rr) / np.abs(np.diag(rr))))
        u = kron(locals_[0], locals_[1])
        moved = DensityMatrix(u @ rho.mat @ u.conj().T)
        _expect(failures, abs(concurrence(moved) - base_c) <= 1e-9,
                "concurrence moved under local unitaries")
        _expect(failures, abs(negativity(moved) - base_n) <= 1e-9,
                "negativity moved under local unitaries")

    _verdict(7, "QFI and entanglement invariants hold on the grid", failures)


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    failures = []
    command = ["sweep", "--vary", "r", "--from", "0", "--to", "20", "--steps", "201",
               "--gamma", "0.5", "--g-ratio", "5"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    _expect(failures, main(command + ["--out", str(first)]) == EXIT_OK, "first run failed")
    _expect(failures, main(command + ["--out", str(second)]) == EXIT_OK, "second run failed")
    _expect(failures, first.read_bytes() == second.read_bytes(),
            "repeated runs differ byte for byte")

    text = first.read_text()
    _expect(failures, "\r" not in text and text.endswith("\n"), "line endings are not bare LF")
    rows = list(csv.DictReader(io.StringIO(text)))
    _expect(failures, len(rows) == 201, f"expected 201 rows, parsed {len(rows)}")
    fresh = run_sweep(SweepSpec(vary="r", start=0.0, stop=20.0, steps=201,
                                fixed_gamma=0.5, g_ratio=5.0))
    round_trip_ok = all(
        float(parsed[name]) == float(f"{getattr(row, name):.9g}")
        for parsed, row in zip(rows, fresh)
        for name in ("r", "gamma", "g", "mean_qfi", "lambda_x", "lambda_yz_hi",
                     "lambda_yz_lo", "concurrence", "negativity",
                     "opt_nx", "opt_ny", "opt_nz"))
    _expect(failures, round_trip_ok, "round trip lost digits")
    _verdict(8, "CLI sweep is byte-deterministic and CSV survives a 9-digit round trip",
             failures)
