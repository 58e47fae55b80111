"""The process entry point: ``python -m skyvault`` and the ``skyvault``
script both call :func:`run`."""

import gc

from .cli import main


def run():
    """Run one CLI command in this process, which exits when it ends.

    What the imports built lives until exit, so it is frozen first:
    no collection scans it again, including the full ones the
    interpreter runs at shutdown. Objects made later are still
    collected. Importing :mod:`skyvault.cli` alone freezes nothing.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
