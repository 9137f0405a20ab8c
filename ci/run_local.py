"""Run the `run:` steps of the workflow's tests job on this machine.

    python3 ci/run_local.py                    # every step
    python3 ci/run_local.py "Tier-1 tests"     # the named steps only

Each step runs as GitHub Actions runs a `run:` step on Linux: in
`bash -eo pipefail`, from the repository root, with the job's `env`.
RUNNER_TEMP is a fresh directory for the run, removed at its end.
`python` is whatever that name finds on PATH, as in the workflow.  The
`uses:` steps (checkout, setup-python) are not run: the tree is this
checkout and the Python the one on PATH.  The numpy matrix is not
expanded; the steps run against the installed numpy.

A step is skipped only through SKIP below, which gives the reason for
each entry.  The runner never installs anything.  It prints PASS, FAIL
or SKIP per step, the output of each failing step, and exits 1 when a
step fails (2 for a step name that is not in the workflow).  Needs
PyYAML.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
JOB = "tests"

SKIP = {
    "Install numpy, pytest, mpmath and hypothesis":
        "installs packages from the package index with pip",
    "Installed console script":
        "pip-installs setuptools>=68 and wheel from the package index, then the "
        "package; a throwaway venv would need both from the index as well",
}


def job() -> dict:
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"][JOB]


def run_steps(job: dict) -> list:
    """The steps of the job that have a `run:` script, in order."""
    return [step for step in job["steps"] if "run" in step]


def main(argv: list) -> int:
    spec = job()
    steps = run_steps(spec)
    names = [step["name"] for step in steps]
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"no run: step named {', '.join(map(repr, unknown))} in {WORKFLOW.name}; "
              f"steps: {names}", file=sys.stderr)
        return 2
    timeout = 60 * spec.get("timeout-minutes", 360)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="runner_temp_") as runner_temp:
        env = {**os.environ, **{key: str(value) for key, value in spec.get("env", {}).items()},
               "RUNNER_TEMP": runner_temp}
        for step in steps:
            name = step["name"]
            if argv and name not in argv:
                continue
            if name in SKIP:
                print(f"SKIP  {name}: {SKIP[name]}", flush=True)
                continue
            start = time.perf_counter()
            try:
                done = subprocess.run(["bash", "-eo", "pipefail", "-c", step["run"]], cwd=ROOT,
                                      env=env, capture_output=True, text=True, timeout=timeout)
                status, output = done.returncode, done.stdout + done.stderr
            except subprocess.TimeoutExpired as err:
                status, output = "timeout", f"timed out after {err.timeout} s"
            seconds = time.perf_counter() - start
            if status == 0:
                print(f"PASS  {name} ({seconds:.1f} s)", flush=True)
                continue
            failed += 1
            print(f"FAIL  {name} ({seconds:.1f} s, exit {status})", flush=True)
            print("".join(f"      {line}\n" for line in output.splitlines()), end="", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
