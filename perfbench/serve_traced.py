"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json serve --port 0

Installs :mod:`perfbench.trace` wrappers in this process, runs the
``repro`` command line with the remaining arguments, and when the
server stops (SIGINT) writes the recorded spans and the analysis
context counters to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Import what the server runs before wrapping, so every module that
    # binds a wrapped function by name is already loaded.
    import repro.cli
    import repro.core.report  # noqa: F401
    import repro.server  # noqa: F401
    import repro.soc.exhaustive  # noqa: F401
    import repro.stochastic  # noqa: F401
    from repro.analysis import global_stats

    from perfbench import trace

    recorder = trace.Recorder()
    trace.install(recorder)
    try:
        return repro.cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": recorder.spans(),
                       "context": global_stats().snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main())
