"""Traced stand-in for `python -m hologate.cli`, used by the traced cold-CLI run.

Usage: python3 perfbench/launcher.py SPANS.json CLI-ARGS...

Imports hologate.cli, installs the tracer's wrappers, runs hologate.cli.main
with the remaining arguments and writes the spans, the names of the warnings
raised and the absent wrappers to SPANS.json when it ends.  Stdout carries
the CLI record unchanged; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import hologate.cli

    tr = tracer.Tracer()
    tr.request = "cli"
    tr.install()
    code = 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = hologate.cli.main(argv)
        finally:
            tr.uninstall()
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "spans": tr.spans,
                        "warnings": [w.category.__name__ for w in caught],
                        "absent": tr.absent,
                    },
                    fh,
                )
    return code


if __name__ == "__main__":
    sys.exit(main())
