"""Set-up probe: a fresh workload process up to its first operation.

Usage: python3 perfbench/probe.py <workload> <seed>

Imports resetqfi (numpy included) from the checkout's src/, builds the
workload's seeded inputs, prints "ready" and exits.  run.py times this
from process start to the "ready" line to get setup_s.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import resetqfi  # noqa: E402,F401

import inputs  # noqa: E402

inputs.build(sys.argv[1], sys.argv[2])
print("ready", flush=True)
