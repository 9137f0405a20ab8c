"""`python -m resetqfi` under the tracer, for the traced cli-calls run.

Usage: python3 perfbench/cli_child.py <resetqfi arguments>

The program's stdout is untouched.  The spans and counts recorded in
this process go to stderr as one last line, after SPANS_MARKER, for the
parent benchmark process to merge under its own span for this call.
"""

import json
import runpy
import sys

from tracer import Tracer

SPANS_MARKER = "#perfbench-spans "


def main():
    import resetqfi

    tracer = Tracer()
    tracer.prepare(resetqfi)
    tracer.apply()
    code = 0
    try:
        runpy.run_module("resetqfi", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
    finally:
        tracer.remove()
        sys.stdout.flush()
        sys.stderr.write("\n" + SPANS_MARKER + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
