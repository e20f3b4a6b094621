"""Run ``wsnlink serve`` with the benchmark's span wrappers installed.

Usage: ``python perf/serve_traced.py SPANS.json serve [serve flags...]``.
The wrappers go in before ``repro.cli.main`` builds the server, so the
startup policy compile is traced too. Spans stay in memory and are
written to ``SPANS.json`` when the server returns from its SIGINT
shutdown.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF.parent / "src"), str(PERF)]

import spans  # noqa: E402  (needs the paths above)


def main(argv) -> int:
    spans_path, serve_argv = Path(argv[0]), argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer, spans.SERVER_LAYERS)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
