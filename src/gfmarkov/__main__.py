"""Process entry for ``python -m gfmarkov`` and the ``gfmarkov`` console script.

A CLI process runs one command and exits, and the cycles it makes live
until then, so `run` turns the cyclic garbage collector off for the
command and freezes every object still alive before shutdown. The
collections that the interpreter runs at exit then skip the ~20 000
objects that numpy and gfmarkov leave in their modules.
`cli.main` itself keeps the collector as it finds it, for callers that
run it in-process.
"""

import gc

from .cli import main


def run() -> int:
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
