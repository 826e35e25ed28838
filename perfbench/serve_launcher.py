"""Traced ``repro serve``: install span wrappers, then hand off.

Usage::

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0 ...

Everything after the spans path is passed unchanged to the program's
own ``python -m repro`` entry point.  The server's layers are wrapped
first (:data:`spans.SERVE_LAYERS`); spans stay in memory and are
written to ``SPANS.json`` once the server has shut down (SIGTERM makes
``repro serve`` drain and return).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    spans.preload()
    tracer = spans.Tracer(keep_samples=True)
    spans.install(tracer, spans.SERVE_LAYERS)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        out.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
