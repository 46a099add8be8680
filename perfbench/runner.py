"""One benchmark launch: a fresh interpreter that runs ``pspinlab run`` once.

    python3 perfbench/runner.py --src SRC --timing OUT.json [--spans SPANS.json] -- ARGS...

Imports the CLI from SRC (it must not come from anywhere else), stamps
the moment it is ready on the system-wide monotonic clock, optionally
installs the tracer, then times ``pspinlab.cli.main(ARGS)``.  The timing
file holds the exit code, the wall and CPU time of the call (this process
plus the pool workers it reaped) and peak RSS of this process and of its
largest worker.  The exit code is the CLI's.
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list) -> int:
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    cli_args = argv[split + 1 :]

    import pspinlab
    from pspinlab.cli import main as cli_main

    ready = time.monotonic()
    src = os.path.realpath(opts["--src"])
    if not os.path.realpath(pspinlab.__file__).startswith(src + os.sep):
        print(f"runner: pspinlab imported from {pspinlab.__file__}, not {src}", file=sys.stderr)
        return 4

    tracer = None
    if "--spans" in opts:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    rc = cli_main(cli_args)
    wall = time.perf_counter() - t0
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    timing = {
        "rc": rc,
        "ready_monotonic": ready,
        "wall_s": wall,
        "cpu_s": _cpu_seconds(own1) - _cpu_seconds(own0) + _cpu_seconds(kids1) - _cpu_seconds(kids0),
        "maxrss_kib": max(own1.ru_maxrss, kids1.ru_maxrss),
    }
    with open(opts["--timing"], "w") as fh:
        json.dump(timing, fh)
    if tracer is not None:
        tracer.dump(opts["--spans"])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
