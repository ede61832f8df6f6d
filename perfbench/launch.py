"""Child-process launcher: ``repro.cli.main`` with or without wrappers.

Usage::

    python3 perfbench/launch.py --trace 0|1 --spans FILE -- <repro argv>

Both the traced and the untraced daemon of the daemon-mixed workload
start through this file, so the two runs differ only by tracing.  The
traced CLI requests of cli-cold start here too; their untraced requests
are plain ``python -m repro plan`` children, exactly what a user runs.

With ``--trace 1`` the launcher times ``import repro.cli``, installs the
wrappers of :mod:`tracing` on modules that import already loaded, binds
the measured request id ``m-cli`` for a CLI command (the daemon binds
each RPC's own id), runs the command, then writes the spans and counters
to ``--spans`` -- after SIGINT for the daemon, which is how it is
stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402  (sibling module; path set above)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    started = perf_counter()
    import repro.cli

    import_s = perf_counter() - started
    if not args.trace:
        return repro.cli.main(argv)

    tracer = tracing.Tracer(measured_prefix="m")
    installed = tracing.install(tracer, loaded_only=True)
    serving = argv[:1] == ["serve"]
    scope = (contextlib.nullcontext() if serving
             else tracer.request("m-cli"))
    try:
        with scope:
            code = repro.cli.main(argv)
            if not serving:
                from repro.api.planner import default_planner

                stats = default_planner().stats
                tracer.count("import.wall_s", import_s)
                tracer.count("import.repro_modules", sum(
                    1 for name in sys.modules
                    if name == "repro" or name.startswith("repro.")))
                for name, value in tracing.planner_counts(stats).items():
                    tracer.count(name, value)
    finally:
        tracing.uninstall(installed)
        if args.spans:
            tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
