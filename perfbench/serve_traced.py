"""``repro serve`` with the benchmark's span recorder installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py SPANS_FILE --store DIR [--specs FILE]

Installs the wrappers of ``spans.py``, then calls the daemon's own
``main`` with the remaining arguments.  The spans are written to
``SPANS_FILE`` when the daemon exits, and on ``SIGUSR1`` — which the
benchmark sends before it SIGKILLs the daemon, since a killed process
writes nothing.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import spans


def main(argv: list) -> int:
    out = Path(argv[0])
    recorder = spans.install(spans.Recorder())
    signal.signal(signal.SIGUSR1, lambda _sig, _frame: recorder.dump(out))
    from repro.service.daemon import main as serve_main

    try:
        return serve_main(argv[1:])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
