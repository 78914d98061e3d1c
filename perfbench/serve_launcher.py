"""Start ``python -m repro.serve`` with the benchmark's span wrappers.

The traced half of the ``serve_jobs`` workload runs the server through
this launcher; the untraced half starts ``python -m repro.serve``
itself.  Spans are kept in memory and written as JSON to ``--spans``
when the server exits (SIGINT or SIGTERM).  Spans inside forked par
workers are not collected::

    python3 perfbench/serve_launcher.py --spans OUT.json -- --root DIR --port 0
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    split = argv.index("--")
    spans_path = argv[argv.index("--spans") + 1]
    import spans
    from repro.serve.__main__ import main as serve_main

    tracer = spans.Tracer(clock=time.monotonic)
    handle = spans.install(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        code = serve_main(argv[split + 1:])
    finally:
        handle.remove()
        tmp = spans_path + ".tmp"
        with open(tmp, "w") as out:
            json.dump(tracer.snapshot(), out)
        os.replace(tmp, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
