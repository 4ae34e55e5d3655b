"""The process entry: ``python -m tourrank`` and the installed ``tourrank`` script."""

import gc
import sys

from . import cli


def main() -> int:
    """Freeze the objects made so far, then run the CLI.

    ``gc.freeze`` moves every object the collector tracks, numpy's and
    tourrank's module objects among them, to a generation it never
    collects, so the collections the interpreter runs at exit skip them.
    Reference counting still frees a frozen object, and atexit handlers,
    stream flushes, stderr and the exit code are unchanged. ``cli.main``
    does not freeze: tests and the benchmark call it in-process, where a
    freeze would keep their garbage for good.
    """
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
