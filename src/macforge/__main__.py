"""The macforge executable: `python -m macforge` and the console script.

main pins BLAS to one thread per process (workers.one_blas_thread)
before it imports the command-line layer, which loads numpy.
"""

import sys

from .workers import one_blas_thread


def main(argv=None):
    one_blas_thread()
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
