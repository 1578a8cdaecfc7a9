"""Run the tailkit CLI the way its console-script entry point does.

    python perfbench/launch.py <tailkit arguments...>

Two environment variables add measurement without changing the run:
PERFBENCH_MARK names a file that receives `time.monotonic_ns()` as soon as
`import tailkit.cli` has returned (the end of set-up; CLOCK_MONOTONIC is
shared by all processes, so the parent can subtract its spawn time), and
PERFBENCH_TRACE names a file that receives the spans and counts of a
traced run (see spans.py). Without PERFBENCH_TRACE nothing is wrapped.
"""

import os
import sys
import time


def main() -> int:
    from tailkit import cli

    mark = os.environ.get("PERFBENCH_MARK")
    if mark:
        with open(mark, "w", encoding="utf-8") as fh:
            fh.write(str(time.monotonic_ns()))
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return cli.main(sys.argv[1:])

    from spans import Tracer  # imported only here, so untraced set-up is unchanged

    with Tracer(run_id=f"pid{os.getpid()}") as tracer:
        code = cli.main(sys.argv[1:])
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
