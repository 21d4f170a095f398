"""Run one `scatopt` command with the layer tracer installed.

Usage: python3 cli_child.py SPANS_JSON COMMAND [OPTIONS...]

The traced cli workload starts this script in place of
`python3 -m scatopt.cli` so that each command still runs in a fresh
interpreter.  It times `import scatopt.cli`, runs the command, and writes
the spans to SPANS_JSON even when the command raises.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import scatopt.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return scatopt.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": list(tracer.spans()),
                       "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
