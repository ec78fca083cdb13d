"""Run `python -m gfmarkov ARGS...` with the tracer installed; save its spans.

Usage: python perfbench/traced_cli.py SPANS_OUT ARGS...

Exits with the CLI's own exit code. The spans are written as a JSON list
even when the CLI raises.
"""

import json
import runpy
import sys

from tracer import Tracer


def main() -> int:
    spans_out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    sys.argv = ["gfmarkov", *args]
    try:
        runpy.run_module("gfmarkov", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
