"""Start ``rmrls serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/serve_launcher.py TRACE_PATH serve --socket S
--store DIR``.  The wrappers go in before the daemon opens its store, so
the open scan is traced too; the spans are written to ``TRACE_PATH`` when
the daemon shuts down.  ``run.py`` uses it only for the traced pass of
``serve_mix``; the untraced pass runs ``python3 -m repro.cli serve``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer(context_names=("SynthesisService.synthesize",))
    tracer.install()
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
