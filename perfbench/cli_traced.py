"""Run the deltaspec CLI with the span tracer installed.

    python3 perfbench/cli_traced.py TRACE_JSON <deltaspec arguments>

Imports ``deltaspec.cli`` (untraced), wraps its layers with ``tracer.py``,
runs ``deltaspec.cli.main`` on the remaining arguments, writes the spans
and per-layer totals to TRACE_JSON and exits with the CLI's exit code.
"""

import sys

import deltaspec.cli

from tracer import Tracer


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        code = deltaspec.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
