"""Run one ``repro`` command line with the benchmark's span wrappers.

Usage: ``python launch_traced.py SPANS.json serve ARGS...``.  Installs the
wrappers from :mod:`spans`, then runs exactly the given command line
through ``repro.cli.main``; on exit (SIGINT included) writes every span to
``SPANS.json`` together with the time the CLI was entered.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import spans
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as cli_main
    cli_entry = time.perf_counter()
    try:
        return cli_main(argv)
    finally:
        recorder.dump(out, cli_entry=cli_entry)


if __name__ == "__main__":
    sys.exit(main())
