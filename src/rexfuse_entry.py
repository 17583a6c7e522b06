"""The ``rexfuse`` command: ``rexfuse.cli.main`` on one BLAS thread unless the user chose.

OpenBLAS reads its thread count when numpy is first imported, and with
several threads some processes stall about 16 ms on every threaded product
(README, *CLI*).  This module sits outside the package, so it runs before
numpy loads.  The library and an in-process ``rexfuse.cli.main`` leave
threads alone.  Run it as ``rexfuse`` or ``python -m rexfuse_entry``.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main():
    if not any(name in os.environ for name in THREAD_VARS):
        os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    from rexfuse.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
